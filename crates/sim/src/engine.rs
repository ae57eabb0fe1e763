//! The simulation engine: component registry + event loop.

use std::any::Any;

use crate::carrier::{Carrier, Carry};
use crate::component::{Component, ComponentId, Ctx};
use crate::event::{EventQueue, Head};
use crate::liveness::{ComponentWait, HangKind, LivenessReport, Watchdog};
use crate::rng::SimRng;
use crate::stats::StatsRegistry;
use crate::time::SimTime;
use crate::trace::TraceBuffer;

/// The discrete-event simulation engine, delivering events of carrier
/// type `M` (see [`crate::carrier`]; the default is the legacy
/// `Box<dyn Any>` carrier).
///
/// Owns all components, the future-event list, the RNG, statistics and the
/// trace buffer. Scenarios are built in two phases: reserve ids (so
/// components can be wired to each other before construction), register the
/// component objects, then seed initial events and [`run`](Self::run).
pub struct Simulation<M = Box<dyn Any>> {
    components: Vec<Option<Box<dyn Component<M>>>>,
    queue: EventQueue<M>,
    now: SimTime,
    rng: SimRng,
    stats: StatsRegistry,
    trace: TraceBuffer,
    events_processed: u64,
    /// Safety valve: panic if a scenario exceeds this many events
    /// (default: effectively unlimited). Helps catch livelock bugs such as
    /// two protocol stacks ACKing each other forever.
    event_limit: u64,
    /// Suppress stderr diagnostics (trace-tail dumps on panics and
    /// watchdog aborts). Set by harnesses that run many *expected*
    /// failures, e.g. the fault-plan minimizer testing candidate plans.
    quiet: bool,
}

/// Pending-event headroom every engine starts with. Every pending event
/// holds one slot of the timing wheel's pool (128 B on x86-64 with the
/// cluster's 96 B carrier inline) until it is delivered. Measured on
/// acc_benchmark's cells, the most events one run had pending at once
/// was, per workload, a median of 256 on `coll_latency` (90% of runs at
/// or under 512, the largest 832), 293 on `faults` (97% under 512),
/// 112 on `coll_bandwidth` and 64 on `paper`. 512 slots (64 KiB) spare
/// most small runs every pool regrowth; a deeper run grows the pool by
/// doubling. The near ring never held more than 134 events.
const INITIAL_EVENT_CAPACITY: usize = 512;

/// Component-registry headroom (a P=16 cluster with fallback NICs,
/// coordinator and auditor registers ~50 components).
const INITIAL_COMPONENT_CAPACITY: usize = 64;

impl<M: Carrier> Simulation<M> {
    /// Create an engine with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            components: Vec::with_capacity(INITIAL_COMPONENT_CAPACITY),
            queue: EventQueue::with_capacity(INITIAL_EVENT_CAPACITY),
            now: SimTime::ZERO,
            rng: SimRng::seed_from(seed),
            stats: StatsRegistry::new(),
            trace: TraceBuffer::disabled(),
            events_processed: 0,
            event_limit: u64::MAX,
            quiet: false,
        }
    }

    /// Enable the bounded trace buffer (keeps the most recent `capacity`
    /// entries).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = TraceBuffer::with_capacity(capacity);
    }

    /// Set a hard limit on processed events; exceeding it panics with a
    /// trace dump. Useful in tests to catch event livelock.
    pub fn set_event_limit(&mut self, limit: u64) {
        self.event_limit = limit;
    }

    /// Suppress stderr diagnostics (trace-tail dumps on component panics
    /// and announced hangs). The structured [`LivenessReport`] still
    /// carries the trace tail; only the printing is silenced.
    pub fn set_quiet(&mut self, quiet: bool) {
        self.quiet = quiet;
    }

    /// Reserve a fresh [`ComponentId`]. The slot must be filled with
    /// [`register`](Self::register) before any event addressed to it is
    /// delivered.
    pub fn reserve_id(&mut self) -> ComponentId {
        let id = ComponentId::from_raw(self.components.len());
        self.components.push(None);
        id
    }

    /// Install a component in a previously reserved slot.
    ///
    /// # Panics
    /// Panics if the slot is already occupied.
    pub fn register<C: Component<M>>(&mut self, id: ComponentId, component: C) {
        let slot = &mut self.components[id.index()];
        assert!(slot.is_none(), "component slot {:?} registered twice", id);
        *slot = Some(Box::new(component));
    }

    /// Convenience: reserve an id and register in one step, for components
    /// that do not need to know their own id before construction.
    pub fn add<C: Component<M>>(&mut self, component: C) -> ComponentId {
        let id = self.reserve_id();
        self.register(id, component);
        id
    }

    /// Schedule an initial event at an absolute instant.
    pub fn schedule_at<P>(&mut self, time: SimTime, target: ComponentId, payload: P)
    where
        M: Carry<P>,
    {
        assert!(
            time >= self.now,
            "cannot schedule into the past ({time} < {})",
            self.now
        );
        self.queue.push(time, target, M::carry(payload));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The statistics registry.
    pub fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// Mutable access to the statistics registry (for pre-run registration
    /// or post-run probes).
    pub fn stats_mut(&mut self) -> &mut StatsRegistry {
        &mut self.stats
    }

    /// The trace buffer (entries only exist if tracing was enabled).
    pub fn trace(&self) -> &TraceBuffer {
        &self.trace
    }

    /// Immutable access to a registered component, downcast to `C`.
    ///
    /// Scenario drivers use this after `run()` to pull results out of
    /// terminal components.
    pub fn component<C: Component<M>>(&self, id: ComponentId) -> &C {
        let c: &dyn Component<M> = self.components[id.index()]
            .as_deref()
            .expect("component slot never registered");
        let any: &dyn Any = c;
        // acc-lint: allow(R10, reason = "downcasts a registered component back to its concrete type after a run, not an event payload")
        any.downcast_ref::<C>().expect("component type mismatch")
    }

    /// Mutable access to a registered component, downcast to `C`.
    pub fn component_mut<C: Component<M>>(&mut self, id: ComponentId) -> &mut C {
        let c: &mut dyn Component<M> = self.components[id.index()]
            .as_deref_mut()
            .expect("component slot never registered");
        let any: &mut dyn Any = c;
        // acc-lint: allow(R10, reason = "downcasts a registered component back to its concrete type after a run, not an event payload")
        any.downcast_mut::<C>().expect("component type mismatch")
    }

    /// Process a single event. Returns `false` when the queue is empty.
    #[inline]
    pub fn step(&mut self) -> bool {
        let Some(head) = self.queue.pop_head() else {
            return false;
        };
        self.dispatch(head);
        true
    }

    /// Deliver one popped event to its component. The failure paths
    /// (limit breach, unregistered target, traced panics) are outlined
    /// so this body inlines into the run loops.
    #[inline]
    fn dispatch(&mut self, head: Head) {
        debug_assert!(head.time >= self.now, "event queue produced stale event");
        self.now = head.time;
        self.events_processed += 1;
        if self.events_processed > self.event_limit {
            self.event_limit_breached();
        }
        let target = head.target;
        let Some(component) = self.components[target.index()].as_deref_mut() else {
            unregistered_target(target);
        };
        if !self.trace.enabled() {
            // Hot path: the component is borrowed in place (disjoint from
            // the queue/rng/stats fields Ctx borrows), and a panic simply
            // unwinds — with no trace buffer there is nothing to dump, so
            // the catch_unwind landing pad would be pure overhead.
            let mut ctx = Ctx {
                now: self.now,
                self_id: target,
                queue: &mut self.queue,
                rng: &mut self.rng,
                stats: &mut self.stats,
                trace: &mut self.trace,
            };
            // The payload moves from its pool slot straight into the
            // handler's argument: no copy through a local.
            component.handle(ctx.queue.take(head), &mut ctx);
            return;
        }
        // Traced path: catch component panics so a failing scenario
        // assertion can be annotated with the trace tail before
        // unwinding — the post-mortem surface the trace buffer exists
        // for.
        let outcome = {
            let mut ctx = Ctx {
                now: self.now,
                self_id: target,
                queue: &mut self.queue,
                rng: &mut self.rng,
                stats: &mut self.stats,
                trace: &mut self.trace,
            };
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                component.handle(ctx.queue.take(head), &mut ctx);
            }))
        };
        if let Err(cause) = outcome {
            if !self.quiet {
                eprintln!(
                    "--- trace tail at failure (t={}, component {:?}) ---\n{}",
                    self.now,
                    target,
                    self.trace.dump_to_string()
                );
            }
            std::panic::resume_unwind(cause);
        }
    }

    /// Livelock breaker, outlined from the dispatch hot path.
    #[cold]
    fn event_limit_breached(&self) -> ! {
        // acc-lint: allow(R5, reason = "livelock breaker: exceeding the event limit means the scenario will never converge; fail loudly with the trace dump rather than spin forever")
        panic!(
            "event limit exceeded ({} events) — likely livelock.\n{}",
            self.event_limit,
            self.trace.dump()
        );
    }

    /// Run until the event queue is exhausted. Returns the final time.
    pub fn run(&mut self) -> SimTime {
        while let Some(head) = self.queue.pop_head() {
            self.dispatch(head);
        }
        self.now
    }

    /// Run until the queue is exhausted or a [`Watchdog`] bound trips,
    /// whichever is first.
    ///
    /// On a tripped bound this returns a structured [`LivenessReport`]
    /// instead of panicking or looping forever: per-component wait
    /// states, the queue head, and the trace tail. Nothing is printed
    /// here: a caller may still accept the trip (a deadline after all
    /// work finished), so only the caller knows whether to
    /// [`announce_hang`](Self::announce_hang). The clock is
    /// never advanced past the last committed event, and the guarded
    /// loop itself schedules **no events**, so a run that completes
    /// under `run_guarded` is bit-identical to the same run under
    /// [`run`](Self::run).
    pub fn run_guarded(&mut self, wd: &Watchdog) -> Result<SimTime, Box<LivenessReport>> {
        let start_events = self.events_processed;
        let mut last_now = self.now;
        let mut last_advance_events = self.events_processed;
        loop {
            let Some(head) = self.queue.next_time() else {
                return Ok(self.now);
            };
            if let Some(deadline) = wd.deadline {
                if head > deadline {
                    return Err(self.liveness_report(HangKind::DeadlineExceeded));
                }
            }
            if self.events_processed - start_events >= wd.event_budget {
                return Err(self.liveness_report(HangKind::EventBudgetExhausted));
            }
            self.step();
            if self.now > last_now {
                last_now = self.now;
                last_advance_events = self.events_processed;
            } else if self.events_processed - last_advance_events >= wd.stall_events {
                return Err(self.liveness_report(HangKind::NoCommitAdvance));
            }
        }
    }

    /// Snapshot the engine's liveness state into a report.
    fn liveness_report(&self, kind: HangKind) -> Box<LivenessReport> {
        let components = self
            .components
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| {
                let c = slot.as_deref()?;
                let wait = c.wait_state()?;
                Some(ComponentWait {
                    id: ComponentId::from_raw(idx),
                    name: c.name().to_string(),
                    wait,
                })
            })
            .collect();
        Box::new(LivenessReport {
            kind,
            now: self.now,
            events_processed: self.events_processed,
            events_pending: self.queue.len(),
            queue_head: self.queue.peek_head(),
            components,
            trace_tail: self.trace.dump_to_string(),
        })
    }

    /// Dump a kept hang's trace tail to stderr under a header naming
    /// the bound, the post-mortem surface a component panic produces —
    /// unless [quiet](Self::set_quiet) or the tail is empty (a header
    /// with nothing under it tells the reader nothing). Call it only for
    /// a [`run_guarded`](Self::run_guarded) trip the caller keeps as a
    /// hang.
    pub fn announce_hang(&self, report: &LivenessReport) {
        if !self.quiet && !report.trace_tail.is_empty() {
            eprintln!(
                "--- trace tail at liveness failure ({}, t={}) ---\n{}",
                report.kind, report.now, report.trace_tail
            );
        }
    }

    /// Run until the queue empties or `deadline` is reached, whichever is
    /// first. Events scheduled at exactly `deadline` are processed.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(t) = self.queue.next_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline && self.queue.next_time().is_some() {
            // Stopped by deadline with pending later events: advance the
            // clock to the deadline so callers observe a consistent "ran
            // until" time.
            self.now = deadline;
        }
        self.now
    }
}

/// Wiring-invariant failure, outlined from the dispatch hot path.
#[cold]
fn unregistered_target(target: ComponentId) -> ! {
    // acc-lint: allow(R5, reason = "wiring invariant: an event addressed to an unregistered component is a scenario construction bug; no recovery is possible mid-run")
    panic!("event for unregistered component {target:?}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    struct Counter {
        count: u64,
    }

    impl Component for Counter {
        fn handle(&mut self, _ev: Box<dyn Any>, _ctx: &mut Ctx) {
            self.count += 1;
        }
        fn name(&self) -> &str {
            "counter"
        }
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new(0);
        let id = sim.add(Counter { count: 0 });
        for ms in [1u64, 2, 3, 10] {
            sim.schedule_at(SimTime::ZERO + SimDuration::from_millis(ms), id, ());
        }
        let deadline = SimTime::ZERO + SimDuration::from_millis(5);
        sim.run_until(deadline);
        assert_eq!(sim.component::<Counter>(id).count, 3);
        assert_eq!(sim.now(), deadline);
        sim.run();
        assert_eq!(sim.component::<Counter>(id).count, 4);
    }

    #[test]
    #[should_panic(expected = "event limit exceeded")]
    fn event_limit_catches_livelock() {
        struct Livelock;
        impl Component for Livelock {
            fn handle(&mut self, _ev: Box<dyn Any>, ctx: &mut Ctx) {
                ctx.self_in(SimDuration::from_nanos(1), ());
            }
            fn name(&self) -> &str {
                "livelock"
            }
        }
        let mut sim = Simulation::new(0);
        sim.set_event_limit(1000);
        let id = sim.add(Livelock);
        sim.schedule_at(SimTime::ZERO, id, ());
        sim.run();
    }

    #[test]
    #[should_panic(expected = "scenario assertion failed")]
    fn component_panic_dumps_trace_tail_and_propagates() {
        struct Asserter;
        impl Component for Asserter {
            fn handle(&mut self, _ev: Box<dyn Any>, ctx: &mut Ctx) {
                ctx.trace("last protocol exchange before the failure");
                panic!("scenario assertion failed");
            }
            fn name(&self) -> &str {
                "asserter"
            }
        }
        let mut sim = Simulation::new(0);
        sim.enable_trace(16);
        let id = sim.add(Asserter);
        sim.schedule_at(SimTime::ZERO, id, ());
        // The trace tail goes to stderr on the way out; the panic still
        // reaches the caller unchanged.
        sim.run();
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let mut sim = Simulation::new(0);
        let id = sim.reserve_id();
        sim.register(id, Counter { count: 0 });
        sim.register(id, Counter { count: 0 });
    }

    #[test]
    fn component_accessors_roundtrip() {
        let mut sim = Simulation::new(0);
        let id = sim.add(Counter { count: 7 });
        assert_eq!(sim.component::<Counter>(id).count, 7);
        sim.component_mut::<Counter>(id).count = 9;
        assert_eq!(sim.component::<Counter>(id).count, 9);
    }

    #[test]
    fn guarded_clean_run_matches_unguarded() {
        fn build() -> (Simulation, ComponentId) {
            let mut sim = Simulation::new(7);
            let id = sim.add(Counter { count: 0 });
            for ms in [1u64, 2, 3] {
                sim.schedule_at(SimTime::ZERO + SimDuration::from_millis(ms), id, ());
            }
            (sim, id)
        }
        let (mut plain, pid) = build();
        let end_plain = plain.run();
        let (mut guarded, gid) = build();
        let wd = Watchdog::unlimited()
            .with_event_budget(1_000)
            .with_stall_events(100)
            .with_deadline(SimTime::ZERO + SimDuration::from_millis(10));
        let end_guarded = guarded.run_guarded(&wd).expect("clean run must not trip");
        assert_eq!(end_plain, end_guarded);
        assert_eq!(plain.events_processed(), guarded.events_processed());
        assert_eq!(
            plain.component::<Counter>(pid).count,
            guarded.component::<Counter>(gid).count
        );
    }

    #[test]
    fn guarded_run_catches_same_timestamp_livelock() {
        struct Livelock;
        impl Component for Livelock {
            fn handle(&mut self, _ev: Box<dyn Any>, ctx: &mut Ctx) {
                ctx.send_now(ctx.self_id(), ());
            }
            fn name(&self) -> &str {
                "livelock"
            }
            fn wait_state(&self) -> Option<String> {
                Some("spinning at a single timestamp".into())
            }
        }
        let mut sim = Simulation::new(0);
        let id = sim.add(Livelock);
        sim.schedule_at(SimTime::ZERO, id, ());
        let wd = Watchdog::unlimited().with_stall_events(64);
        let report = sim
            .run_guarded(&wd)
            .expect_err("livelock must trip the watchdog");
        assert_eq!(report.kind, crate::liveness::HangKind::NoCommitAdvance);
        assert_eq!(report.now, SimTime::ZERO);
        assert_eq!(report.components.len(), 1);
        assert_eq!(report.components[0].name, "livelock");
        assert!(report.components[0].wait.contains("spinning"));
        assert!(report.queue_head.is_some());
    }

    #[test]
    fn guarded_run_enforces_event_budget() {
        struct Spinner;
        impl Component for Spinner {
            fn handle(&mut self, _ev: Box<dyn Any>, ctx: &mut Ctx) {
                ctx.self_in(SimDuration::from_nanos(1), ());
            }
            fn name(&self) -> &str {
                "spinner"
            }
        }
        let mut sim = Simulation::new(0);
        let id = sim.add(Spinner);
        sim.schedule_at(SimTime::ZERO, id, ());
        let wd = Watchdog::unlimited().with_event_budget(100);
        let report = sim
            .run_guarded(&wd)
            .expect_err("event spin must exhaust the budget");
        assert_eq!(report.kind, crate::liveness::HangKind::EventBudgetExhausted);
        // Budget is enforced exactly: no more than 100 events processed.
        assert_eq!(sim.events_processed(), 100);
    }

    #[test]
    fn guarded_run_stops_at_sim_time_deadline_without_advancing() {
        let mut sim = Simulation::new(0);
        let id = sim.add(Counter { count: 0 });
        for ms in [1u64, 2, 50] {
            sim.schedule_at(SimTime::ZERO + SimDuration::from_millis(ms), id, ());
        }
        let deadline = SimTime::ZERO + SimDuration::from_millis(10);
        let wd = Watchdog::unlimited().with_deadline(deadline);
        let report = sim
            .run_guarded(&wd)
            .expect_err("pending event beyond deadline must trip");
        assert_eq!(report.kind, crate::liveness::HangKind::DeadlineExceeded);
        // The two in-deadline events ran; the clock stays at the last
        // committed event rather than jumping to the deadline.
        assert_eq!(sim.component::<Counter>(id).count, 2);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(2));
        assert_eq!(report.events_pending, 1);
    }

    #[test]
    fn guarded_report_carries_trace_tail() {
        struct Tracer;
        impl Component for Tracer {
            fn handle(&mut self, _ev: Box<dyn Any>, ctx: &mut Ctx) {
                ctx.trace("credit probe retry");
                ctx.send_now(ctx.self_id(), ());
            }
            fn name(&self) -> &str {
                "tracer"
            }
        }
        let mut sim = Simulation::new(0);
        sim.enable_trace(8);
        sim.set_quiet(true);
        let id = sim.add(Tracer);
        sim.schedule_at(SimTime::ZERO, id, ());
        let wd = Watchdog::unlimited().with_stall_events(16);
        let report = sim.run_guarded(&wd).expect_err("must trip");
        assert!(report.trace_tail.contains("credit probe retry"));
    }

    #[test]
    fn identical_seeds_are_deterministic() {
        fn run_once() -> (u64, u64) {
            struct Random {
                sum: u64,
            }
            impl Component for Random {
                fn handle(&mut self, _ev: Box<dyn Any>, ctx: &mut Ctx) {
                    self.sum = self.sum.wrapping_add(ctx.rng().next_u64());
                    if !self.sum.is_multiple_of(3) {
                        ctx.self_in(SimDuration::from_nanos(self.sum % 100 + 1), ());
                    }
                }
                fn name(&self) -> &str {
                    "random"
                }
            }
            let mut sim = Simulation::new(12345);
            let id = sim.add(Random { sum: 0 });
            sim.schedule_at(SimTime::ZERO, id, ());
            sim.run();
            (sim.component::<Random>(id).sum, sim.now().as_ps())
        }
        assert_eq!(run_once(), run_once());
    }
}
