//! R10 fixture (clean): the payload is a closed enum decoded with one
//! exhaustive `match`; the one allowed downcast names what it recovers.
use std::any::Any;
pub enum Msg {
    Byte(u8),
    Word(u32),
}
pub fn handle(ev: Msg) -> u32 {
    match ev {
        Msg::Byte(b) => u32::from(b),
        Msg::Word(w) => w,
    }
}
pub fn component<C: Any>(c: &dyn Any) -> &C {
    // acc-lint: allow(R10, reason = "recovers a component's concrete type after a run, not an event payload")
    c.downcast_ref::<C>().expect("component type mismatch")
}
