//! The online invariant Auditor.
//!
//! A cluster-attached observer wired only into faulted runs (a fault
//! plan is present on the [`ClusterSpec`](crate::ClusterSpec)): on a
//! periodic tick it reads the conservation counters the ports and cards
//! publish and panics at the first violation, so the engine's
//! panic-handler dumps the trace tail around the offending events. A
//! final, stricter pass ([`final_check`]) runs after the simulation
//! quiesces.
//!
//! A tick re-checks only when the stats registry moved since the
//! previous tick (its [change count](acc_sim::StatsRegistry::changes)
//! differs). [`check_running`] is a pure function of counters and
//! gauges, so an unchanged registry cannot newly violate an invariant:
//! the skip is exact, not sampled. Lossy runs spend long RTO backoffs
//! with nothing moving, and the skip turns those idle ticks into one
//! comparison each.
//!
//! The invariants:
//!
//! * **frame conservation**, per instrumented port: `frames_offered ≥
//!   frames_delivered + queue_drops + impair_drops` while running (the
//!   remainder is queued), with equality at quiescence unless a killed
//!   card legitimately strands its queue;
//! * **credit conservation**, cluster-wide: credits a card grants are
//!   an upper bound on the bytes senders charge against them
//!   (`credit_bytes_consumed ≤ credit_bytes_granted`), and no sender's
//!   outstanding window ever exceeds the credit window;
//! * **switch conservation**, per routed fabric switch: every frame a
//!   switch accepts resolves to exactly one fate — forwarded into an
//!   output queue, queue-dropped, blackholed (dead switch), or
//!   unroutable (partitioned destination): `frames_fwd + frames_dropped +
//!   frames_blackholed + frames_unroutable ≤ frames_in` while running
//!   (the remainder is in the forwarding pipeline), with equality at
//!   quiescence. Routed switches never flood, so the equality is exact
//!   — a silent multi-port replication or a lost frame both violate it;
//! * **datapath conservation**, per card: bytes leaving the gather
//!   datapath toward the host never exceed the bytes that entered it
//!   plus any zero-fill the card itself generated (`gather_bytes_out ≤
//!   gather_bytes_in + gather_bytes_padded`; padding covers the holes
//!   dead peers leave in a fixed-size interleave assembly, and
//!   retransmitted duplicates count on the way in, so equality is not
//!   required).

use acc_sim::{unknown_event, Component, CounterHandle, SimDuration, StatsRegistry};

use crate::msg::{CoreMsg, Ctx, Msg};

/// What the Auditor watches. Built by the cluster wiring, which knows
/// every instrumented stats scope.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Stats labels of every instrumented [`EgressPort`](acc_net::port::EgressPort).
    pub ports: Vec<String>,
    /// Stats labels of every INIC card (empty on commodity runs).
    pub cards: Vec<String>,
    /// Stats labels of every routed fabric switch (empty on the
    /// single-switch baseline, whose flooding replicates frames and has
    /// no one-fate-per-frame invariant).
    pub switches: Vec<String>,
    /// The cards' credit window in bytes (outstanding-bytes bound).
    pub credit_window: u64,
    /// Whether every instrumented port must have fully drained at the
    /// end of the run. False when the plan kills cards: a dead card
    /// legitimately strands whatever its uplink still queued.
    pub expect_quiescent_ports: bool,
    /// Cluster size — the Auditor stops ticking once `drivers_done`
    /// reaches it.
    pub p: u64,
}

/// The online auditor component. Ticks run every [`Auditor::PERIOD`]
/// until every driver has reported done (or the tick cap is reached, a
/// backstop so a wedged run cannot tick forever); a tick checks only if
/// the registry changed since the previous tick.
pub struct Auditor {
    cfg: AuditConfig,
    ticks: u64,
    /// The registry's change count right after the last tick (0, an
    /// empty registry, before the first).
    seen: u64,
    ticks_counter: CounterHandle,
    checks_counter: CounterHandle,
}

/// What the Auditor did over a run: ticks taken and checks actually
/// run (a tick skips its check when no counter or gauge moved).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditCounts {
    /// Audit ticks (`auditor.audit_ticks`).
    pub ticks: u64,
    /// Ticks that ran [`check_running`] (`auditor.audit_checks`).
    pub checks: u64,
}

impl AuditCounts {
    /// Read the Auditor's counters out of a finished run's registry.
    pub(crate) fn from_stats(stats: &StatsRegistry) -> AuditCounts {
        AuditCounts {
            ticks: counter(stats, Auditor::LABEL, "audit_ticks"),
            checks: counter(stats, Auditor::LABEL, "audit_checks"),
        }
    }
}

impl Auditor {
    /// Audit cadence. A prime micro-count, so ticks drift across the
    /// protocol's natural periods instead of beating against them.
    pub const PERIOD: SimDuration = SimDuration::from_micros(613);

    /// Tick backstop: even if drivers never finish, the auditor goes
    /// quiet after this many ticks so the simulation can drain.
    const MAX_TICKS: u64 = 2_000_000;

    /// The Auditor's stats scope.
    const LABEL: &'static str = "auditor";

    /// Build an auditor for one wired cluster.
    pub fn new(cfg: AuditConfig) -> Auditor {
        Auditor {
            cfg,
            ticks: 0,
            seen: 0,
            ticks_counter: CounterHandle::default(),
            checks_counter: CounterHandle::default(),
        }
    }
}

impl Component<Msg> for Auditor {
    fn handle(&mut self, ev: Msg, ctx: &mut Ctx) {
        if !matches!(ev, Msg::Core(CoreMsg::Start | CoreMsg::AuditTick)) {
            unknown_event(Auditor::LABEL);
        }
        self.ticks += 1;
        if self.ticks > Auditor::MAX_TICKS {
            return; // stop rescheduling; the final check takes over
        }
        let stats = ctx.stats();
        // `drivers_done` and every checked input live in the registry:
        // while its change count stands still, the previous tick's
        // verdicts (not all done, no violation) stand too.
        if stats.changes() != self.seen {
            if counter(stats, "cluster", "drivers_done") >= self.cfg.p {
                return; // stop rescheduling; the final check takes over
            }
            check_running(stats, &self.cfg);
            stats
                .counter_by(&mut self.checks_counter, Auditor::LABEL, "audit_checks")
                .inc();
        }
        stats
            .counter_by(&mut self.ticks_counter, Auditor::LABEL, "audit_ticks")
            .inc();
        // Read after our own bumps, so they alone never force a check.
        self.seen = stats.changes();
        ctx.self_in(Auditor::PERIOD, CoreMsg::AuditTick);
    }

    fn name(&self) -> &str {
        Auditor::LABEL
    }
}

fn counter(stats: &StatsRegistry, scope: &str, name: &str) -> u64 {
    stats.counter_value(scope, name).unwrap_or(0)
}

/// The invariants that must hold at every instant of the run. Panics
/// with the offending counters on violation.
pub fn check_running(stats: &StatsRegistry, cfg: &AuditConfig) {
    for port in &cfg.ports {
        let offered = counter(stats, port, "frames_offered");
        let delivered = counter(stats, port, "frames_delivered");
        let queue_drops = counter(stats, port, "queue_drops");
        let impair_drops = counter(stats, port, "impair_drops");
        assert!(
            delivered + queue_drops + impair_drops <= offered,
            "AUDIT VIOLATION: port {port} accounts for more frames than were \
             offered: offered={offered} delivered={delivered} \
             queue_drops={queue_drops} impair_drops={impair_drops}"
        );
    }
    for sw in &cfg.switches {
        let frames_in = counter(stats, sw, "frames_in");
        let fwd = counter(stats, sw, "frames_fwd");
        let dropped = counter(stats, sw, "frames_dropped");
        let blackholed = counter(stats, sw, "frames_blackholed");
        let unroutable = counter(stats, sw, "frames_unroutable");
        assert!(
            fwd + dropped + blackholed + unroutable <= frames_in,
            "AUDIT VIOLATION: switch {sw} accounts for more frames than \
             arrived: in={frames_in} fwd={fwd} dropped={dropped} \
             blackholed={blackholed} unroutable={unroutable}"
        );
    }
    let mut granted_total = 0u64;
    let mut consumed_total = 0u64;
    for card in &cfg.cards {
        let bytes_in = counter(stats, card, "gather_bytes_in");
        let bytes_out = counter(stats, card, "gather_bytes_out");
        let bytes_padded = counter(stats, card, "gather_bytes_padded");
        assert!(
            bytes_out <= bytes_in + bytes_padded,
            "AUDIT VIOLATION: card {card} datapath emitted more bytes than \
             entered it: in={bytes_in} padded={bytes_padded} out={bytes_out}"
        );
        let outstanding_max = stats.gauge_max(card, "outstanding_bytes").unwrap_or(0.0);
        assert!(
            outstanding_max <= cfg.credit_window as f64,
            "AUDIT VIOLATION: card {card} exceeded its credit window: \
             outstanding max={outstanding_max} window={}",
            cfg.credit_window
        );
        granted_total += counter(stats, card, "credit_bytes_granted");
        consumed_total += counter(stats, card, "credit_bytes_consumed");
    }
    assert!(
        consumed_total <= granted_total,
        "AUDIT VIOLATION: cluster consumed more credit than was granted: \
         granted={granted_total} consumed={consumed_total}"
    );
}

/// The end-of-run pass: everything [`check_running`] checks, plus frame
/// conservation as an equality on quiescent ports — once the event
/// queue drained, every offered frame must be accounted for as
/// delivered or dropped.
pub fn final_check(stats: &StatsRegistry, cfg: &AuditConfig) {
    check_running(stats, cfg);
    // Switch conservation tightens to an equality unconditionally: the
    // forwarding pipeline always drains (a dead switch still counts its
    // pipeline casualties as blackholed), so even a run that strands
    // port queues must account for every arrived frame.
    for sw in &cfg.switches {
        let frames_in = counter(stats, sw, "frames_in");
        let fwd = counter(stats, sw, "frames_fwd");
        let dropped = counter(stats, sw, "frames_dropped");
        let blackholed = counter(stats, sw, "frames_blackholed");
        let unroutable = counter(stats, sw, "frames_unroutable");
        assert_eq!(
            frames_in,
            fwd + dropped + blackholed + unroutable,
            "AUDIT VIOLATION: switch {sw} lost track of frames: \
             in={frames_in} fwd={fwd} dropped={dropped} \
             blackholed={blackholed} unroutable={unroutable}"
        );
    }
    if !cfg.expect_quiescent_ports {
        return;
    }
    for port in &cfg.ports {
        let offered = counter(stats, port, "frames_offered");
        let delivered = counter(stats, port, "frames_delivered");
        let queue_drops = counter(stats, port, "queue_drops");
        let impair_drops = counter(stats, port, "impair_drops");
        assert_eq!(
            offered,
            delivered + queue_drops + impair_drops,
            "AUDIT VIOLATION: port {port} did not drain: offered={offered} \
             delivered={delivered} queue_drops={queue_drops} \
             impair_drops={impair_drops}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AuditConfig {
        AuditConfig {
            ports: vec!["up0".into()],
            cards: vec!["inic0".into()],
            switches: vec![],
            credit_window: 1000,
            expect_quiescent_ports: true,
            p: 1,
        }
    }

    /// A simulation holding only an Auditor over [`cfg`], first tick at 0.
    fn audited_sim() -> acc_sim::Simulation<Msg> {
        let mut sim = acc_sim::Simulation::new(0);
        let id = sim.add(Auditor::new(cfg()));
        sim.schedule_at(acc_sim::SimTime::ZERO, id, CoreMsg::Start);
        sim
    }

    /// `(ticks, checks)` so far.
    fn counts(sim: &acc_sim::Simulation<Msg>) -> (u64, u64) {
        let c = AuditCounts::from_stats(sim.stats());
        (c.ticks, c.checks)
    }

    #[test]
    fn untouched_registry_skips_the_check() {
        let mut sim = audited_sim();
        sim.run_until(acc_sim::SimTime::ZERO + Auditor::PERIOD * 10);
        // Nothing but the Auditor's own counters ever moved.
        assert_eq!(counts(&sim), (11, 0));

        let mut sim = audited_sim();
        sim.stats_mut().counter("up0", "frames_offered").add(3);
        sim.run_until(acc_sim::SimTime::ZERO + Auditor::PERIOD * 10);
        // The seeded counter is checked once, at the first tick.
        assert_eq!(counts(&sim), (11, 1));
    }

    #[test]
    fn violation_after_idle_ticks_is_caught_at_the_next_tick() {
        let mut sim = audited_sim();
        sim.stats_mut().counter("up0", "frames_offered").add(5);
        sim.stats_mut().counter("up0", "frames_delivered").add(5);
        let idle_until = acc_sim::SimTime::ZERO + Auditor::PERIOD * 20;
        sim.run_until(idle_until + acc_sim::SimDuration::from_micros(1));
        assert_eq!(counts(&sim), (21, 1));
        // Over-deliver between two ticks: the very next tick checks and
        // catches it.
        sim.stats_mut().counter("up0", "frames_delivered").inc();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.step()))
            .expect_err("the next tick must report the violation");
        let msg = caught
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains("more frames than were offered"), "{msg}");
        assert_eq!(sim.now(), idle_until + Auditor::PERIOD);
    }

    #[test]
    fn clean_counters_pass_both_checks() {
        let mut stats = StatsRegistry::new();
        stats.counter("up0", "frames_offered").add(10);
        stats.counter("up0", "frames_delivered").add(8);
        stats.counter("up0", "queue_drops").add(1);
        stats.counter("up0", "impair_drops").add(1);
        stats.counter("inic0", "gather_bytes_in").add(4096);
        stats.counter("inic0", "gather_bytes_out").add(4096);
        stats.counter("inic0", "credit_bytes_granted").add(2048);
        stats.counter("inic0", "credit_bytes_consumed").add(2048);
        stats.gauge("inic0", "outstanding_bytes").set(900.0);
        check_running(&stats, &cfg());
        final_check(&stats, &cfg());
    }

    #[test]
    fn switch_conservation_accepts_all_four_fates() {
        let mut stats = StatsRegistry::new();
        stats.counter("fsw0", "frames_in").add(10);
        stats.counter("fsw0", "frames_fwd").add(6);
        stats.counter("fsw0", "frames_dropped").add(1);
        stats.counter("fsw0", "frames_blackholed").add(2);
        stats.counter("fsw0", "frames_unroutable").add(1);
        let mut c = cfg();
        c.switches = vec!["fsw0".into()];
        check_running(&stats, &c);
        final_check(&stats, &c);
    }

    #[test]
    #[should_panic(expected = "accounts for more frames")]
    fn switch_over_accounting_is_a_violation() {
        let mut stats = StatsRegistry::new();
        stats.counter("fsw0", "frames_in").add(3);
        stats.counter("fsw0", "frames_fwd").add(4);
        let mut c = cfg();
        c.switches = vec!["fsw0".into()];
        check_running(&stats, &c);
    }

    #[test]
    #[should_panic(expected = "lost track of frames")]
    fn switch_losing_a_frame_fails_the_final_equality() {
        // One arrived frame never resolved to any fate — a silent loss.
        let mut stats = StatsRegistry::new();
        stats.counter("fsw0", "frames_in").add(5);
        stats.counter("fsw0", "frames_fwd").add(4);
        let mut c = cfg();
        c.switches = vec!["fsw0".into()];
        // Even with non-quiescent ports the switch equality must hold.
        c.expect_quiescent_ports = false;
        final_check(&stats, &c);
    }

    #[test]
    #[should_panic(expected = "more frames than were offered")]
    fn over_delivery_is_a_violation() {
        let mut stats = StatsRegistry::new();
        stats.counter("up0", "frames_offered").add(5);
        stats.counter("up0", "frames_delivered").add(6);
        check_running(&stats, &cfg());
    }

    #[test]
    #[should_panic(expected = "did not drain")]
    fn stranded_frames_fail_the_final_equality() {
        let mut stats = StatsRegistry::new();
        stats.counter("up0", "frames_offered").add(5);
        stats.counter("up0", "frames_delivered").add(4);
        final_check(&stats, &cfg());
    }

    #[test]
    #[should_panic(expected = "more credit than was granted")]
    fn credit_overdraw_is_a_violation() {
        let mut stats = StatsRegistry::new();
        stats.counter("inic0", "credit_bytes_granted").add(100);
        stats.counter("inic0", "credit_bytes_consumed").add(101);
        check_running(&stats, &cfg());
    }

    #[test]
    #[should_panic(expected = "exceeded its credit window")]
    fn window_overrun_is_a_violation() {
        let mut stats = StatsRegistry::new();
        stats.gauge("inic0", "outstanding_bytes").set(1001.0);
        check_running(&stats, &cfg());
    }
}
