//! The one fault-handling core under every application driver.
//!
//! The FFT, sort and collective drivers share one stall, failover and
//! resume protocol. [`Failover`] holds its state and [`handle`] runs
//! it; a driver supplies only what is its own through [`Recoverable`]:
//! its start, its compute completions, its checkpoint payload, the card
//! stream a failover aborts, and its state reset and restore.
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
//!   attempt never fires into the new one.
//!
//! A parked rank never starts: neither the start event nor the card's
//! configuration begins the run ahead of the coordinator's verdict.

use std::collections::BTreeSet;

use acc_fpga::{Bitstream, FpgaMsg, InicConfigure, InicRecover};
use acc_net::MacAddr;
use acc_sim::{Carrier, Component, ComponentId, SimDuration, SimTime};

use super::{
    Attachment, CardFailed, DriverProgress, FaultCtl, RecoveryPolicy, RecoveryReport, ResumeAt,
    RECOVERY_LATENCY,
};
use crate::msg::{CoreMsg, Ctx, Msg};

/// One rank's network attachment and its place in the failover
/// protocol.
pub(crate) struct Failover {
    /// The driver's component name: stats scope and panic prefix.
    pub(super) label: String,
    pub(super) rank: usize,
    /// How the node reaches the network; swapped for the fallback NIC
    /// when this rank degrades.
    pub(super) attachment: Attachment,
    /// Fault-handling configuration (default when no plan is wired).
    pub(super) ctl: FaultCtl,
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
    /// Whether the driver already counted itself in `drivers_done`.
    reported_done: bool,
}

impl Failover {
    /// A fresh core for rank `rank`, named `label`.
    pub(super) fn new(label: String, rank: usize, attachment: Attachment) -> Failover {
        Failover {
            label,
            rank,
            attachment,
            ctl: FaultCtl::default(),
            epoch: 0,
            failed_over: false,
            dead: BTreeSet::new(),
            paused: false,
            configured: false,
            pending_resume: None,
            resumed_from: None,
            reported_done: false,
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

    /// Whether phase checkpoints are being captured.
    pub(super) fn ckpt_armed(&self) -> bool {
        self.ctl.coordinator.is_some() && self.ctl.policy == RecoveryPolicy::Checkpointed
    }

    /// Charge `t` of host compute; the driver's
    /// [`compute_done`](Recoverable::compute_done) runs when it ends,
    /// unless a failover abandons the attempt first.
    pub(super) fn compute(&self, t: SimDuration, ctx: &mut Ctx) {
        ctx.self_in(t, CoreMsg::ComputeDone(self.epoch));
    }

    /// Count the driver in the cluster-wide `drivers_done`, once across
    /// restarts.
    pub(super) fn report_done(&mut self, ctx: &mut Ctx) {
        if !self.reported_done {
            self.reported_done = true;
            ctx.stats().counter("cluster", "drivers_done").inc();
        }
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

    /// Tell a still-healthy card that rank `node` is dead and abort its
    /// stranded stream, purging the peer from its retransmit machinery.
    fn purge(&self, node: usize, abort_stream: Option<u32>, ctx: &mut Ctx) {
        if let Attachment::Inic { card, macs, .. } = &self.attachment {
            let recover = InicRecover {
                dead: macs[node],
                abort_stream,
            };
            ctx.send_now(*card, FpgaMsg::Recover(recover));
        }
    }
}

/// What a driver supplies to the failover core. Checkpoint phases are
/// driver-defined indices: 0 is the start, [`finished`] the end.
///
/// [`finished`]: Recoverable::finished
pub(crate) trait Recoverable: Component<Msg> {
    /// The driver's core.
    fn fo(&self) -> &Failover;
    /// The driver's core, mutably.
    fn fo_mut(&mut self) -> &mut Failover;
    /// The bitstream the card loads before the run.
    fn bitstream(&self) -> Bitstream;
    /// Start the run from its input.
    fn begin(&mut self, ctx: &mut Ctx);
    /// The window armed by [`Failover::compute`] closed.
    fn compute_done(&mut self, ctx: &mut Ctx);
    /// An event the core does not own: deliveries and card completions.
    fn on_event(&mut self, ev: Msg, ctx: &mut Ctx);
    /// The card stream in flight under the current epoch, which a
    /// failover aborts.
    fn abort_stream(&self) -> Option<u32>;
    /// Drop the in-flight state a failure strands, on parking.
    fn park(&mut self) {}
    /// The highest checkpoint this rank holds.
    fn checkpoint(&self) -> u32;
    /// The checkpoint index of a finished run.
    fn finished(&self) -> u32;
    /// Full restart over the fallback NIC: discard all progress and
    /// begin again from the input.
    fn restart(&mut self, ctx: &mut Ctx);
    /// Restore checkpoint `phase` (below [`finished`](Self::finished))
    /// and resume.
    fn restore(&mut self, phase: u32, ctx: &mut Ctx);
    /// The current phase name and when the driver entered it.
    fn phase(&self) -> (&'static str, SimTime);
    /// Whether the run completed.
    fn is_done(&self) -> bool;
    /// When the run started and finished.
    fn span(&self) -> (SimTime, SimTime);

    /// Phase snapshot for the liveness layer.
    fn progress(&self) -> DriverProgress {
        let (phase, entered) = self.phase();
        DriverProgress {
            rank: self.fo().rank,
            phase,
            entered,
            paused: self.fo().paused,
            done: self.is_done(),
        }
    }
}

/// Run one event through the core; whatever it does not own goes to
/// the driver's [`on_event`](Recoverable::on_event).
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
                        d.begin(ctx);
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
            if epoch == fo.epoch {
                d.compute_done(ctx);
            }
            return; // else a timer from an abandoned attempt
        }
        Msg::Fpga(
            FpgaMsg::Configured(_) | FpgaMsg::GatherComplete(_) | FpgaMsg::ScatterDone(_),
        ) if fo.failed_over => {
            return; // the abandoned card answered before it went quiet
        }
        Msg::Fpga(FpgaMsg::Configured(cfg)) => cfg,
        ev => return d.on_event(ev, ctx),
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
        d.begin(ctx);
    }
}

/// The whole cluster degrades together: every rank drops its card —
/// even a healthy one, peers can no longer reach every rank through the
/// INIC path — and restarts from its input over the fallback NIC.
fn full_restart<D: Recoverable>(d: &mut D, node: usize, ctx: &mut Ctx) {
    if d.fo().failed_over {
        return; // a second card death changes nothing
    }
    let abort_stream = d.abort_stream();
    let fo = d.fo_mut();
    let Some(fallback) = fo.fallback() else {
        return; // already on the commodity path
    };
    if fo.rank != node {
        fo.purge(node, abort_stream, ctx);
    }
    fo.degrade(fallback, ctx);
    fo.epoch += 1;
    d.restart(ctx);
}

/// Rank-local degradation: only the dead rank abandons its card. Every
/// rank parks, healthy ranks purge the dead peer from their cards, and
/// all report their highest checkpoint to the coordinator.
fn rank_local<D: Recoverable>(d: &mut D, node: usize, coord: ComponentId, ctx: &mut Ctx) {
    if !d.fo_mut().dead.insert(node) {
        return; // duplicate death notice
    }
    // The stream to abort is the pre-bump one: that is what the card's
    // demux and retransmit state still reference.
    let abort_stream = d.abort_stream();
    d.park();
    let fo = d.fo_mut();
    fo.epoch += 1;
    fo.paused = true;
    if fo.rank == node {
        let fallback = fo.fallback().expect("a commodity rank has no card to lose");
        fo.degrade(fallback, ctx);
    } else {
        fo.purge(node, abort_stream, ctx);
    }
    let phase = if d.is_done() {
        d.finished()
    } else {
        d.checkpoint()
    };
    let fo = d.fo();
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
        d.restore(r.phase, ctx);
    }
}
