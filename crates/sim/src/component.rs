//! Components and the scheduling context handed to their event handlers.

use std::any::Any;
use std::fmt;

use crate::carrier::Carry;
use crate::event::EventQueue;
use crate::rng::SimRng;
use crate::stats::StatsRegistry;
use crate::time::{SimDuration, SimTime};
use crate::trace::TraceBuffer;

/// Opaque handle identifying a registered [`Component`].
///
/// Ids are dense indices assigned by [`crate::Simulation::reserve_id`]; they
/// are cheap to copy and hash and stable for the life of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(usize);

impl ComponentId {
    /// Construct from a raw index. Intended for the engine and for tests;
    /// ids not handed out by `reserve_id` will panic at dispatch.
    pub const fn from_raw(idx: usize) -> Self {
        ComponentId(idx)
    }

    /// The raw dense index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A simulated hardware or software block, receiving events of carrier
/// type `M` (see [`crate::carrier`]).
///
/// A component decodes its message with one exhaustive `match` on its
/// crate's message enum, reached through that crate's carrier trait
/// (`into_net`, `into_fpga`, ...). A message it does not handle is a
/// wiring bug in the scenario, not a runtime condition:
/// [`unknown_event`](crate::unknown_event) panics with the component's
/// name. Lower-crate components implement `Component<M>` for every `M`
/// that carries their messages, so the same switch or NIC runs on a
/// typed carrier and on the legacy `Box<dyn Any>` one, the default,
/// which type-erased components keep using.
///
/// The `Any` supertrait lets scenario drivers downcast components back to
/// their concrete types after a run to extract results.
pub trait Component<M = Box<dyn Any>>: Any {
    /// Deliver one event. `ctx` provides the current time, scheduling, the
    /// shared RNG, statistics and tracing.
    fn handle(&mut self, ev: M, ctx: &mut Ctx<'_, M>);

    /// Human-readable name used in traces and stats keys.
    fn name(&self) -> &str;

    /// One-line description of what this component is currently waiting
    /// for (credits held, parked resume, frames in flight), or `None`
    /// when it has nothing to report. Collected into the
    /// [`crate::liveness::LivenessReport`] when a guarded run trips its
    /// watchdog; idle or stateless components keep the default.
    fn wait_state(&self) -> Option<String> {
        None
    }
}

/// Mutable simulation services available to a component while it handles an
/// event. Borrowed pieces of the engine — never stored.
pub struct Ctx<'a, M = Box<dyn Any>> {
    pub(crate) now: SimTime,
    pub(crate) self_id: ComponentId,
    pub(crate) queue: &'a mut EventQueue<M>,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) stats: &'a mut StatsRegistry,
    pub(crate) trace: &'a mut TraceBuffer,
}

impl<M> Ctx<'_, M> {
    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component currently handling an event.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Deliver `payload` to `target` after `delay`.
    #[inline]
    pub fn send_in<P>(&mut self, delay: SimDuration, target: ComponentId, payload: P)
    where
        M: Carry<P>,
    {
        self.queue.push(self.now + delay, target, M::carry(payload));
    }

    /// Deliver `payload` to `target` at the current instant (after all
    /// events already queued for this instant).
    #[inline]
    pub fn send_now<P>(&mut self, target: ComponentId, payload: P)
    where
        M: Carry<P>,
    {
        self.send_in(SimDuration::ZERO, target, payload);
    }

    /// Schedule a message back to the sending component itself.
    #[inline]
    pub fn self_in<P>(&mut self, delay: SimDuration, payload: P)
    where
        M: Carry<P>,
    {
        let id = self.self_id;
        self.send_in(delay, id, payload);
    }

    /// The shared deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The statistics registry.
    pub fn stats(&mut self) -> &mut StatsRegistry {
        self.stats
    }

    /// Record a trace entry attributed to the current component and time.
    pub fn trace(&mut self, msg: impl Into<String>) {
        self.trace.record(self.now, self.self_id, msg.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;

    /// A component that counts deliveries and echoes to itself `n` times.
    struct Echo {
        remaining: u32,
        seen: u32,
    }

    impl Component for Echo {
        fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
            let _msg: Box<u32> = ev.downcast().expect("echo expects u32");
            self.seen += 1;
            ctx.stats().counter("echo", "seen").inc();
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.self_in(SimDuration::from_nanos(10), 0u32);
            }
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    #[test]
    fn self_scheduling_advances_time() {
        let mut sim = Simulation::new(1);
        let id = sim.reserve_id();
        sim.register(
            id,
            Echo {
                remaining: 4,
                seen: 0,
            },
        );
        sim.schedule_at(SimTime::ZERO, id, 0u32);
        sim.run();
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_nanos(40));
        assert_eq!(sim.stats().counter_value("echo", "seen"), Some(5));
    }

    #[test]
    fn component_id_debug_format() {
        assert_eq!(format!("{:?}", ComponentId::from_raw(7)), "#7");
        assert_eq!(ComponentId::from_raw(7).index(), 7);
    }
}
