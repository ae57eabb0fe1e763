//! Event carriers: the payload type an engine queues and delivers.
//!
//! A [`Simulation`](crate::Simulation) is generic over one carrier type
//! `M`. Each domain crate defines a closed message enum for its
//! components plus a small carrier trait (`From<XMsg>` and an
//! `into_x(self) -> Result<XMsg, Self>` projection); a component generic
//! over `M` names the carrier traits of every crate whose messages it
//! handles. The top crate assembles the enums into one concrete carrier,
//! whose values sit inline in the timing wheel: scheduling an event
//! allocates nothing, and each handler decodes its message with one
//! exhaustive `match`.
//!
//! `Box<dyn Any>` stays a carrier too (see [`crate::legacy`]), for
//! components written against the type-erased API.

/// A carrier that can be built from a value of type `P`.
///
/// [`Ctx::send_in`](crate::Ctx::send_in) and
/// [`Simulation::schedule_at`](crate::Simulation::schedule_at) take any
/// `P` their carrier can carry: a typed carrier carries whatever converts
/// into it, the legacy `Box<dyn Any>` carrier carries any `'static`
/// value.
pub trait Carry<P> {
    /// Wrap `payload` for delivery.
    fn carry(payload: P) -> Self;
}

/// An event payload type the engine can queue and deliver.
///
/// Besides carrying itself, a carrier can park an event: a component
/// that cannot service an event yet (a stalled host, a card in a
/// reconfiguration hold) re-posts it to itself wrapped by
/// [`defer`](Self::defer), and unwraps it with
/// [`undefer`](Self::undefer) when it comes back. A typed carrier keeps
/// the parked event in one boxed variant; these paths run only under
/// faults.
pub trait Carrier: Carry<Self> + Sized + 'static {
    /// Wrap an event for re-delivery to the component parking it.
    fn defer(self) -> Self;
    /// The event [`defer`](Self::defer) wrapped, or `Err(self)` for an
    /// event that was never parked.
    fn undefer(self) -> Result<Self, Self>;
}

/// Fail a dispatch that met a message its component does not handle: a
/// wiring bug in the scenario, not a runtime condition. The panic names
/// the component.
#[cold]
pub fn unknown_event(component: &str) -> ! {
    // acc-lint: allow(R5, reason = "wiring invariant: a message its component does not handle was addressed to it; no recovery is possible mid-run")
    panic!("{component}: unknown event")
}
