//! R10 fixture: a handler that takes a type-erased payload and finds
//! its message by trial downcast.
use std::any::Any;
pub fn handle(ev: Box<dyn Any>) -> u32 {
    if ev.is::<u8>() {
        return 1;
    }
    match ev.downcast::<u32>() {
        Ok(n) => *n,
        Err(ev) => ev.downcast_ref::<u16>().map_or(0, |&n| u32::from(n)),
    }
}
