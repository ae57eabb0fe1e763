//! The one rank lifecycle under every application driver.
//!
//! [`Failover`] holds what every rank's run has in common, and
//! [`handle`] drives it: the phase clock ([`enter`](Failover::enter)),
//! the run's span (started when the core begins or restores the run,
//! ended by [`finish`](Failover::finish)), the one pending host-compute
//! charge ([`compute`](Failover::compute)), the rank's transfer step
//! ([`post`](Failover::post)), the phase checkpoints
//! ([`save`](Failover::save)) and the stall, failover and resume
//! protocol. A driver supplies only what is its own through
//! [`Recoverable`]: its bitstream, its start, what it does when a charge
//! ends or a step moves, its checkpoint indices, its timing columns and
//! its restore.
//!
//! * **Stalls** — a stalled host services nothing: every event waits
//!   for the end of the stall window.
//! * **Full restart** (no coordinator) — every rank abandons its card
//!   for the fallback NIC and restarts from its retained input. A rank
//!   whose card is still healthy first tells it the peer is dead and
//!   aborts the in-flight stream, so the card's retransmits into the
//!   void do not outlive the run.
//! * **Rank-local recovery** — only the dead rank degrades. Every rank
//!   parks, healthy ranks purge the dead peer from their cards, and
//!   each reports its highest checkpoint to the
//!   [`RecoveryCoordinator`](super::RecoveryCoordinator). Its
//!   [`ResumeAt`] verdict, matched by epoch, restores the agreed
//!   checkpoint; a verdict that beats the card's bitstream load waits
//!   for `InicConfigured`.
//! * **Epochs** — every failover bumps the epoch. The one compute timer
//!   carries the epoch that armed it, so a timer from an abandoned
//!   attempt neither completes nor times a charge of the new one.
//!
//! A parked rank never starts: neither the start event nor the card's
//! configuration begins the run ahead of the coordinator's verdict.

use std::collections::{BTreeMap, BTreeSet};

use acc_fpga::{Bitstream, FpgaMsg, InicConfigure, InicRecover};
use acc_net::MacAddr;
use acc_proto::ProtoMsg;
use acc_sim::{unknown_event, Carrier, Component, ComponentId, SimDuration, SimTime};

use super::exchange::{Exchange, Step};
use super::{
    Attachment, CardFailed, DriverProgress, FaultCtl, RecoveryPolicy, RecoveryReport, ResumeAt,
    RECOVERY_LATENCY,
};
use crate::msg::{CoreMsg, Ctx, Msg};

/// One rank's lifecycle, network attachment and place in the failover
/// protocol; `C` is the driver's checkpoint payload.
pub(crate) struct Failover<C> {
    /// The driver's component name: stats scope and panic prefix.
    pub(super) label: String,
    pub(super) rank: usize,
    /// How the node reaches the network; swapped for the fallback NIC
    /// when this rank degrades.
    pub(super) attachment: Attachment,
    /// Fault-handling configuration (default when no plan is wired).
    ctl: FaultCtl,
    /// Failover epoch, bumped on every processed card failure so the
    /// streams, channels and compute timers of an abandoned attempt
    /// never satisfy the new one.
    pub(super) epoch: u64,
    /// Whether this rank abandoned its card for the fallback NIC.
    failed_over: bool,
    /// Ranks whose cards died (rank-local recovery only).
    pub(super) dead: BTreeSet<usize>,
    /// Parked between reporting a failure and the coordinator's resume.
    pub(super) paused: bool,
    /// Whether the card finished loading its bitstream.
    configured: bool,
    /// A [`ResumeAt`] verdict received before `configured`; replayed
    /// when the bitstream lands.
    pending_resume: Option<ResumeAt>,
    /// The checkpoint the last resume restarted from.
    resumed_from: Option<u32>,
    /// Whether the rank already counted itself in `drivers_done`.
    reported_done: bool,
    /// The current phase name and when the rank entered it.
    phase: (&'static str, SimTime),
    /// When the run first started; a restart keeps it, so the aborted
    /// attempt's time is part of the run.
    started: Option<SimTime>,
    /// When the run finished; a restore clears it.
    finished: Option<SimTime>,
    /// When the pending host-compute charge began.
    charge: Option<SimTime>,
    /// The rank's transfer steps.
    pub(super) xchg: Exchange,
    /// Phase checkpoints keyed by the driver's checkpoint index,
    /// captured only under [`RecoveryPolicy::Checkpointed`] with a
    /// coordinator.
    ckpts: BTreeMap<u32, C>,
}

impl<C> Failover<C> {
    /// A fresh core for rank `rank`, named `label`.
    pub(super) fn new(label: String, rank: usize, attachment: Attachment, ctl: FaultCtl) -> Self {
        Failover {
            label,
            rank,
            attachment,
            ctl,
            epoch: 0,
            failed_over: false,
            dead: BTreeSet::new(),
            paused: false,
            configured: false,
            pending_resume: None,
            resumed_from: None,
            reported_done: false,
            phase: ("init", SimTime::ZERO),
            started: None,
            finished: None,
            charge: None,
            xchg: Exchange::default(),
            ckpts: BTreeMap::new(),
        }
    }

    /// Whether the driver completed over the degraded fallback path.
    pub(crate) fn degraded(&self) -> bool {
        self.failed_over
    }

    /// The checkpoint the last coordinated resume restarted from.
    pub(crate) fn resumed_from(&self) -> Option<u32> {
        self.resumed_from
    }

    /// Enter phase `name` at `now`.
    pub(super) fn enter(&mut self, name: &'static str, now: SimTime) {
        self.phase = (name, now);
    }

    /// The current phase name and when the rank entered it.
    pub(super) fn phase(&self) -> (&'static str, SimTime) {
        self.phase
    }

    /// (Re)start the run at `now`: the first start instant is kept, a
    /// finished run is no longer done, and the current phase is
    /// re-entered.
    fn start(&mut self, now: SimTime) {
        self.started.get_or_insert(now);
        self.finished = None;
        self.phase.1 = now;
    }

    /// The run completed: enter `done` and count the rank in the
    /// cluster-wide `drivers_done`, once across restarts.
    pub(super) fn finish(&mut self, ctx: &mut Ctx) {
        self.enter("done", ctx.now());
        self.finished = Some(ctx.now());
        if !self.reported_done {
            self.reported_done = true;
            ctx.stats().counter("cluster", "drivers_done").inc();
        }
    }

    /// Whether the run completed.
    pub(crate) fn is_done(&self) -> bool {
        self.finished.is_some()
    }

    /// When the run first started and when it finished.
    pub(crate) fn span(&self) -> (SimTime, SimTime) {
        let started = self.started.expect("started");
        (started, self.finished.expect("done"))
    }

    /// Phase snapshot for the liveness layer.
    pub(crate) fn progress(&self) -> DriverProgress {
        let (phase, entered) = self.phase;
        DriverProgress {
            rank: self.rank,
            phase,
            entered,
            paused: self.paused,
            done: self.is_done(),
        }
    }

    /// Charge `t` of host compute; the driver's
    /// [`compute_done`](Recoverable::compute_done) runs when it ends,
    /// unless a failover abandons the attempt first.
    pub(super) fn compute(&mut self, t: SimDuration, ctx: &mut Ctx) {
        self.charge = Some(ctx.now());
        ctx.self_in(t, CoreMsg::ComputeDone(self.epoch));
    }

    /// Whether a host-compute charge is pending.
    pub(super) fn charging(&self) -> bool {
        self.charge.is_some()
    }

    /// Store checkpoint `k` as `snapshot()`, when checkpoints are armed.
    pub(super) fn save(&mut self, k: u32, snapshot: impl FnOnce() -> C) {
        if self.ctl.coordinator.is_some() && self.ctl.policy == RecoveryPolicy::Checkpointed {
            self.ckpts.insert(k, snapshot());
        }
    }

    /// The stored checkpoint `k`, which a resume restores.
    pub(super) fn checkpoint(&self, k: u32) -> &C {
        self.ckpts
            .get(&k)
            .unwrap_or_else(|| panic!("{}: resume from {k} without its checkpoint", self.label))
    }

    /// Post a transfer step on this rank's attachment.
    pub(super) fn post(&mut self, step: Step, ctx: &mut Ctx) {
        self.xchg.start(&self.attachment, &self.label, step, ctx);
    }

    /// Whether the step in flight received everything. A parked rank
    /// receives nothing.
    pub(super) fn received(&self) -> bool {
        !self.paused && self.xchg.received()
    }

    /// The `wait_state` suffix of a parked rank.
    pub(super) fn parked_note(&self) -> &'static str {
        if self.paused {
            ", parked for recovery resume"
        } else {
            ""
        }
    }

    /// The fallback NIC to degrade to, `None` when the rank already
    /// runs on the commodity path.
    fn fallback(&self) -> Option<(ComponentId, Vec<MacAddr>)> {
        match &self.attachment {
            Attachment::Inic {
                fallback: Some(fb), ..
            } => Some(fb.clone()),
            Attachment::Inic { .. } => {
                panic!("{}: card failure without a wired fallback path", self.label)
            }
            Attachment::Tcp { .. } => None,
        }
    }

    /// Abandon the card for the fallback NIC.
    fn degrade(&mut self, (nic, macs): (ComponentId, Vec<MacAddr>), ctx: &mut Ctx) {
        ctx.stats().counter(&self.label, "card_failovers").inc();
        self.failed_over = true;
        self.attachment = Attachment::Tcp { nic, macs };
    }

    /// Tell a still-healthy card that rank `node` is dead and abort the
    /// stream it still owes the step in flight, purging the peer from
    /// its retransmit machinery.
    fn purge(&self, node: usize, ctx: &mut Ctx) {
        if let Attachment::Inic { card, macs, .. } = &self.attachment {
            let recover = InicRecover {
                dead: macs[node],
                abort_stream: self.xchg.abort_stream(),
            };
            ctx.send_now(*card, FpgaMsg::Recover(recover));
        }
    }
}

/// What a driver supplies to the core. Checkpoint indices are
/// driver-defined: 0 is the start, [`finished`] the end.
///
/// [`finished`]: Recoverable::finished
pub(crate) trait Recoverable: Component<Msg> {
    /// The checkpoint payload.
    type Checkpoint;
    /// The driver's core.
    fn fo(&self) -> &Failover<Self::Checkpoint>;
    /// The driver's core, mutably.
    fn fo_mut(&mut self) -> &mut Failover<Self::Checkpoint>;
    /// The bitstream the card loads before the run.
    fn bitstream(&self) -> Bitstream;
    /// Start the run from its input.
    fn begin(&mut self, ctx: &mut Ctx);
    /// The charge armed by [`Failover::compute`] ended, `elapsed` after
    /// it began.
    fn compute_done(&mut self, elapsed: SimDuration, ctx: &mut Ctx);
    /// The byte count of the TCP message from `src` on `chan`, `None`
    /// when it is length-prefixed.
    fn rx_size(&self, src: usize, chan: u16) -> Option<usize>;
    /// A delivery or card completion reached the step in flight.
    fn advance(&mut self, ctx: &mut Ctx);
    /// Drop the driver's in-flight state a failure strands.
    fn park(&mut self) {}
    /// The checkpoint index of a finished run.
    fn finished(&self) -> u32;
    /// Full restart over the fallback NIC: reset the timing columns.
    /// The core then restores checkpoint 0.
    fn restart(&mut self);
    /// Restore checkpoint `phase` (below [`finished`](Self::finished))
    /// and resume.
    fn restore(&mut self, phase: u32, ctx: &mut Ctx);
}

/// Run one event through the core; deliveries and card completions go
/// to the step in flight.
pub(super) fn handle<D: Recoverable>(d: &mut D, ev: Msg, ctx: &mut Ctx) {
    // Unwrap an event this host already deferred once.
    if let Msg::Deferred(parked) = ev {
        return handle(d, *parked, ctx);
    }
    let fo = d.fo();
    // A stalled host services nothing: kernel completions, NIC
    // interrupts and failure notices all wait for the window's end.
    if let Some(release) = fo.ctl.stalls.deferral(ctx.now()) {
        ctx.stats().counter(&fo.label, "stall_deferrals").inc();
        ctx.self_in(release.since(ctx.now()), ev.defer());
        return;
    }
    let cfg = match ev {
        Msg::Core(CoreMsg::Start) => {
            match &fo.attachment {
                Attachment::Inic { card, .. } => {
                    let bitstream = d.bitstream();
                    ctx.send_now(*card, FpgaMsg::Configure(InicConfigure { bitstream }));
                }
                Attachment::Tcp { .. } => {
                    if !fo.paused {
                        begin(d, ctx);
                    }
                }
            }
            return;
        }
        Msg::Core(CoreMsg::CardFailed(CardFailed { node })) => {
            return match fo.ctl.coordinator {
                None => full_restart(d, node as usize, ctx),
                Some(coord) => rank_local(d, node as usize, coord, ctx),
            };
        }
        Msg::Core(CoreMsg::Resume(r)) => return resume(d, r, ctx),
        Msg::Core(CoreMsg::ComputeDone(epoch)) => {
            // Else a timer from an abandoned attempt.
            if epoch == fo.epoch {
                let fo = d.fo_mut();
                let began = fo.charge.take();
                let began =
                    began.unwrap_or_else(|| panic!("{}: stray charge completion", fo.label));
                d.compute_done(ctx.now().since(began), ctx);
            }
            return;
        }
        Msg::Fpga(
            FpgaMsg::Configured(_) | FpgaMsg::GatherComplete(_) | FpgaMsg::ScatterDone(_),
        ) if fo.failed_over => {
            return; // the abandoned card answered before it went quiet
        }
        Msg::Fpga(FpgaMsg::Configured(cfg)) => cfg,
        ev => return transfer(d, ev, ctx),
    };
    let fo = d.fo_mut();
    if let Err(e) = cfg.result {
        panic!("{}: bitstream rejected: {e}", fo.label);
    }
    fo.configured = true;
    if let Some(r) = fo.pending_resume.take() {
        // A failover interrupted the configuration: run the parked
        // resume instead of a fresh start.
        resume(d, r, ctx);
    } else if !fo.paused {
        begin(d, ctx);
    }
}

/// Take a delivery or a card completion into the step in flight, then
/// let the driver move on. A completion no step awaits is a
/// pre-failover stream completing against a dead epoch and is dropped;
/// on a clean run it is a protocol bug. Panics on any other event.
fn transfer<D: Recoverable>(d: &mut D, ev: Msg, ctx: &mut Ctx) {
    let fo = d.fo();
    match ev {
        Msg::Proto(ProtoMsg::Delivered(del)) => {
            let src = fo.attachment.resolve_src(del.peer);
            let src = src.expect("delivery from unknown MAC");
            let size = d.rx_size(src, del.chan);
            d.fo_mut().xchg.deliver(src, del.chan, del.data, size);
        }
        Msg::Fpga(FpgaMsg::GatherComplete(g)) => {
            let fo = d.fo_mut();
            let awaited = fo.xchg.gathered(g);
            assert!(awaited || fo.epoch > 0, "{}: stale gather", fo.label);
        }
        Msg::Fpga(FpgaMsg::ScatterDone(s)) => {
            let fo = d.fo_mut();
            let awaited = fo.xchg.scattered(s.stream);
            assert!(awaited || fo.epoch > 0, "{}: stale scatter", fo.label);
        }
        _ => unknown_event(&fo.label),
    }
    d.advance(ctx);
}

/// Start the run from its input.
fn begin<D: Recoverable>(d: &mut D, ctx: &mut Ctx) {
    d.fo_mut().start(ctx.now());
    d.begin(ctx);
}

/// Abandon the step in flight and resume the run from checkpoint
/// `phase`.
fn restore<D: Recoverable>(d: &mut D, phase: u32, ctx: &mut Ctx) {
    let fo = d.fo_mut();
    fo.xchg.cancel();
    fo.start(ctx.now());
    d.restore(phase, ctx);
}

/// The whole cluster degrades together: every rank drops its card —
/// even a healthy one, peers can no longer reach every rank through the
/// INIC path — and restarts from its input over the fallback NIC.
fn full_restart<D: Recoverable>(d: &mut D, node: usize, ctx: &mut Ctx) {
    let fo = d.fo_mut();
    if fo.failed_over {
        return; // a second card death changes nothing
    }
    let Some(fallback) = fo.fallback() else {
        return; // already on the commodity path
    };
    if fo.rank != node {
        fo.purge(node, ctx);
    }
    fo.degrade(fallback, ctx);
    fo.epoch += 1;
    // Discard all progress; only the first start instant survives.
    fo.charge = None;
    fo.xchg = Exchange::default();
    fo.ckpts.clear();
    d.park();
    d.restart();
    restore(d, 0, ctx);
}

/// Rank-local degradation: only the dead rank abandons its card. Every
/// rank parks, healthy ranks purge the dead peer from their cards, and
/// all report their highest checkpoint to the coordinator.
fn rank_local<D: Recoverable>(d: &mut D, node: usize, coord: ComponentId, ctx: &mut Ctx) {
    let fo = d.fo_mut();
    if !fo.dead.insert(node) {
        return; // duplicate death notice
    }
    // Purge before parking drops the step in flight: its stream is what
    // the card's demux and retransmit state still reference.
    if fo.rank == node {
        let fallback = fo.fallback().expect("a commodity rank has no card to lose");
        fo.degrade(fallback, ctx);
    } else {
        fo.purge(node, ctx);
    }
    fo.epoch += 1;
    fo.paused = true;
    fo.charge = None;
    d.park();
    let fo = d.fo();
    let phase = if fo.is_done() {
        d.finished()
    } else {
        fo.ckpts.keys().next_back().map_or(0, |&k| k)
    };
    let report = RecoveryReport {
        round: fo.epoch,
        phase,
    };
    ctx.send_in(RECOVERY_LATENCY, coord, CoreMsg::Report(report));
}

/// Coordinator verdict: restore the agreed checkpoint and resume.
fn resume<D: Recoverable>(d: &mut D, r: ResumeAt, ctx: &mut Ctx) {
    let fo = d.fo_mut();
    if r.round != fo.epoch {
        return; // a newer failure superseded this round
    }
    if !fo.configured && matches!(fo.attachment, Attachment::Inic { .. }) {
        // The failure landed inside the card's configuration window.
        // Every INIC phase needs a usable card, so the rank stays parked
        // (buffering whatever arrives) until the bitstream lands.
        fo.pending_resume = Some(r);
        return;
    }
    fo.paused = false;
    fo.resumed_from = Some(r.phase);
    ctx.stats().counter(&fo.label, "phase_resumes").inc();
    // At `finished` every rank had already completed: nothing to re-run.
    if r.phase < d.finished() {
        restore(d, r.phase, ctx);
    }
}

#[cfg(test)]
mod tests {
    use acc_fpga::{InicConfigured, InicMode};
    use acc_sim::Simulation;

    use super::*;

    /// The host compute each run of the probe charges.
    const CHARGE: SimDuration = SimDuration::from_micros(10);

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// A one-phase driver: every (re)start enters `work` and charges
    /// [`CHARGE`]; the charge's end saves checkpoint 1 and finishes.
    struct Probe {
        fo: Failover<u32>,
        /// The elapsed time of every completed charge.
        timed: Vec<SimDuration>,
    }

    impl Recoverable for Probe {
        type Checkpoint = u32;

        fn fo(&self) -> &Failover<u32> {
            &self.fo
        }

        fn fo_mut(&mut self) -> &mut Failover<u32> {
            &mut self.fo
        }

        fn bitstream(&self) -> Bitstream {
            Bitstream::protocol_only()
        }

        fn begin(&mut self, ctx: &mut Ctx) {
            self.fo.enter("work", ctx.now());
            self.fo.compute(CHARGE, ctx);
        }

        fn compute_done(&mut self, elapsed: SimDuration, ctx: &mut Ctx) {
            self.timed.push(elapsed);
            self.fo.save(1, || 7);
            self.fo.finish(ctx);
        }

        fn rx_size(&self, _src: usize, _chan: u16) -> Option<usize> {
            None
        }

        fn advance(&mut self, _ctx: &mut Ctx) {}

        fn finished(&self) -> u32 {
            2
        }

        fn restart(&mut self) {
            self.timed.clear();
        }

        fn restore(&mut self, _phase: u32, ctx: &mut Ctx) {
            self.begin(ctx);
        }
    }

    impl Component<Msg> for Probe {
        fn handle(&mut self, ev: Msg, ctx: &mut Ctx) {
            handle(self, ev, ctx);
        }

        fn name(&self) -> &str {
            &self.fo.label
        }
    }

    /// Stands in for the card, the NICs and the coordinator: answers a
    /// configure request and swallows everything else.
    struct Stub {
        driver: ComponentId,
    }

    impl Component<Msg> for Stub {
        fn handle(&mut self, ev: Msg, ctx: &mut Ctx) {
            if let Msg::Fpga(FpgaMsg::Configure(_)) = ev {
                let configured = InicConfigured { result: Ok(()) };
                ctx.send_now(self.driver, FpgaMsg::Configured(configured));
            }
        }

        fn name(&self) -> &str {
            "stub"
        }
    }

    /// Rank 0 of two, started at time zero: on a card with a fallback
    /// NIC when `card`, with the stub as its recovery coordinator when
    /// `coordinated`.
    fn probe(card: bool, coordinated: bool) -> (Simulation<Msg>, ComponentId) {
        let mut sim = Simulation::new(0);
        let (probe, stub) = (sim.reserve_id(), sim.reserve_id());
        let macs: Vec<MacAddr> = (0..2).map(|rank| MacAddr::for_node(rank, 0)).collect();
        let attachment = if card {
            let fallback = Some((stub, macs.clone()));
            let mode = InicMode::Combined;
            Attachment::Inic {
                card: stub,
                macs,
                mode,
                fallback,
            }
        } else {
            Attachment::Tcp { nic: stub, macs }
        };
        let ctl = FaultCtl {
            coordinator: coordinated.then_some(stub),
            ..FaultCtl::default()
        };
        let fo = Failover::new("probe".to_owned(), 0, attachment, ctl);
        let timed = Vec::new();
        sim.register(probe, Probe { fo, timed });
        sim.register(stub, Stub { driver: probe });
        sim.schedule_at(SimTime::ZERO, probe, CoreMsg::Start);
        (sim, probe)
    }

    fn card_failed(sim: &mut Simulation<Msg>, probe: ComponentId, us: u64, node: u32) {
        sim.schedule_at(at(us), probe, CoreMsg::CardFailed(CardFailed { node }));
    }

    fn resume(sim: &mut Simulation<Msg>, probe: ComponentId, us: u64, phase: u32) {
        let verdict = ResumeAt { round: 1, phase };
        sim.schedule_at(at(us), probe, CoreMsg::Resume(verdict));
    }

    #[test]
    fn abandoned_epoch_timer_neither_completes_nor_times_a_charge() {
        let (mut sim, id) = probe(false, true);
        // The charge armed at 0 would end at 10 µs; a peer's card dies
        // at 5 µs and the resume restarts the charge at 6 µs.
        card_failed(&mut sim, id, 5, 1);
        resume(&mut sim, id, 6, 0);
        sim.run_until(at(12));
        let p = sim.component::<Probe>(id);
        assert!(p.timed.is_empty(), "the epoch-0 timer completed a charge");
        assert!(!p.fo.is_done());
        sim.run();
        let p = sim.component::<Probe>(id);
        assert_eq!(p.timed, [CHARGE], "timed from the resumed charge's start");
        assert_eq!(p.fo.span(), (at(0), at(16)));
        assert_eq!(p.fo.resumed_from(), Some(0));
    }

    #[test]
    fn full_restart_keeps_the_first_start_instant() {
        let (mut sim, id) = probe(true, false);
        card_failed(&mut sim, id, 5, 0);
        sim.run();
        let p = sim.component::<Probe>(id);
        assert!(p.fo.degraded());
        assert_eq!(p.timed, [CHARGE]);
        assert_eq!(p.fo.span(), (at(0), at(15)), "restarted at 5 µs");
    }

    #[test]
    fn restore_clears_done() {
        let (mut sim, id) = probe(false, true);
        card_failed(&mut sim, id, 20, 1);
        resume(&mut sim, id, 30, 1);
        sim.run_until(at(35));
        let p = sim.component::<Probe>(id).fo.progress();
        assert!(!p.done, "a restored run is no longer done");
        assert_eq!((p.phase, p.entered), ("work", at(30)));
        sim.run();
        let p = sim.component::<Probe>(id);
        assert_eq!(p.fo.span(), (at(0), at(40)));
        assert_eq!(p.fo.resumed_from(), Some(1));
        let done = sim.stats().counter_value("cluster", "drivers_done");
        assert_eq!(done, Some(1), "counted once across restores");
    }

    #[test]
    fn save_stores_nothing_unless_checkpoints_are_armed() {
        let tcp = || Attachment::Tcp {
            nic: ComponentId::from_raw(0),
            macs: Vec::new(),
        };
        let core = |coordinator, policy| {
            let ctl = FaultCtl {
                coordinator,
                policy,
                ..FaultCtl::default()
            };
            Failover::<u32>::new("probe".to_owned(), 0, tcp(), ctl)
        };
        let coord = Some(ComponentId::from_raw(1));
        for (coordinator, policy) in [
            (None, RecoveryPolicy::Checkpointed),
            (coord, RecoveryPolicy::RankLocal),
            (coord, RecoveryPolicy::FullRestart),
        ] {
            let mut fo = core(coordinator, policy);
            fo.save(1, || unreachable!("snapshot taken while unarmed"));
            assert!(fo.ckpts.is_empty(), "{coordinator:?} {policy:?}");
        }
        let mut fo = core(coord, RecoveryPolicy::Checkpointed);
        fo.save(1, || 7);
        fo.save(3, || 9);
        assert_eq!(*fo.checkpoint(1), 7);
        assert_eq!(fo.ckpts.keys().next_back(), Some(&3));
    }
}
