//! The collective-engine driver — one rank of any `acc-coll` schedule.
//!
//! The FFT and sort drivers share one fixed all-to-all exchange
//! (`exchange.rs`); this driver *interprets* a per-rank [`Schedule`]
//! compiled by `acc-coll`'s builders: the same rounds drive all three
//! execution paths, so adding an algorithm to the engine needs no
//! driver changes at all.
//!
//! * **Host-TCP path** (commodity technologies): each round's sends go
//!   out as one TCP message per peer on a per-round channel; `Sum`
//!   receives fold on the host at the calibrated streaming-reduction
//!   rate.
//! * **Combined INIC path**: the card is configured with the
//!   [`Bitstream::collective`](acc_fpga::Bitstream::collective)
//!   datapath (stream router sized to the fan-out, `ReduceSum` only
//!   when the schedule folds data). A `Sum` round becomes a `ReduceF64`
//!   gather — the card accumulates the peer's stream against this
//!   rank's looped-back contribution and only the folded result crosses
//!   to the host, so the host does **zero arithmetic**. Copy/Discard
//!   rounds are raw gathers; sends ride a [`ScatterKind::Unicast`]
//!   per-destination scatter.
//! * **Protocol-only INIC path**: raw gathers and unicast scatters —
//!   the wire protocol is offloaded, the arithmetic stays on the host.
//!
//! Rounds are strictly ordered on each rank: the driver never issues
//! round `t + 1` card requests before round `t`'s gather and scatter
//! both completed, so per-round streams are announced exactly once and
//! stale completions cannot exist within an epoch. Ranks still slide
//! against each other — the cards buffer early packets until the local
//! rank announces the stream.
//!
//! # Fault recovery
//!
//! The driver survives mid-schedule card deaths under every
//! [`RecoveryPolicy`](super::RecoveryPolicy) through the failover core
//! the drivers share (`failover.rs`), which also parks a resume that
//! lands inside the 60 ms bitstream load until `InicConfigured`. What
//! is the collective's own:
//!
//! * **Round checkpoints** — under `RecoveryPolicy::Checkpointed`
//!   every completed round snapshots the working state, so a resume
//!   re-enters at the cluster-wide minimum completed round instead of
//!   from scratch.
//! * **Epoch-namespaced rounds** — the core bumps the failover epoch
//!   on *every* rank (the broadcast is cluster-wide), and each round's
//!   stream and TCP channel carry it, so pre-failure traffic can never
//!   complete a post-failure round.
//! * **Mixed-technology rounds** — after a rank-local failover the
//!   healthy ranks keep their cards and split each remaining round via
//!   [`acc_coll::recovery::split_round`]: legs touching the dead rank
//!   ride the fallback `TcpHostNic`, and a combined-mode fold whose
//!   source died falls back to host arithmetic.

use std::any::Any;
use std::collections::BTreeMap;
use std::ops::Range;

use acc_coll::plan::{ranges_elems, RecvSpec, Round};
use acc_coll::recovery::{split_round, RoundLegs};
use acc_coll::{OffloadPlan, RecvOp, Schedule};
use acc_fpga::{
    Bitstream, GatherKind, InicExpect, InicGatherComplete, InicScatter, InicScatterDone,
    ScatterKind,
};
use acc_host::HostKernels;
use acc_proto::{TcpDelivered, TcpSend};
use acc_sim::{Component, Ctx, SimDuration, SimTime};

use super::exchange::Inbox;
use super::failover::{self, Failover, Recoverable};
use super::{Attachment, FaultCtl};

/// Timing record of one collective run.
#[derive(Clone, Debug, Default)]
pub struct CollTimings {
    /// Wall time spent waiting on round transfers (wire + card).
    pub comm: SimDuration,
    /// Host compute time (`Sum` folds on the host paths, modelled local
    /// sweeps of composed workloads). Zero for pure collectives on the
    /// combined INIC path.
    pub compute: SimDuration,
    /// Completion instant.
    pub done_at: Option<SimTime>,
    /// Start instant (post-configuration).
    pub started_at: Option<SimTime>,
}

/// Per-node schedule interpreter.
pub struct CollDriver {
    /// Network attachment and failover state.
    fo: Failover,
    kernels: HostKernels,
    schedule: Schedule,
    /// The pre-validated card datapath (INIC attachments only).
    offload: Option<OffloadPlan>,
    state: Vec<f64>,
    input: Vec<f64>,
    round: usize,
    /// Inbound TCP messages by `(src rank, round channel)` — peers may
    /// run ahead, so future rounds accumulate here until we arrive.
    inbox: Inbox,
    await_gather: bool,
    await_scatter: bool,
    /// Whether the current INIC round still waits on fallback-TCP legs
    /// (receives rerouted around a dead peer).
    await_tcp: bool,
    in_charge: bool,
    /// Host-fold element count parked across the gather/scatter/TCP
    /// completion race of one INIC round.
    pending_sum_elems: u64,
    round_started: SimTime,
    charge_started: SimTime,
    phase_entered: SimTime,
    current_phase: &'static str,
    started: bool,
    done: bool,
    /// Round-level checkpoints: completed-round count → state snapshot.
    /// Armed only under the checkpointed policy with a coordinator.
    ckpts: BTreeMap<u32, Vec<f64>>,
    /// Timing decomposition.
    pub timings: CollTimings,
}

impl CollDriver {
    /// Build a driver for one rank of a compiled schedule. `offload`
    /// must be `Some` exactly when the attachment is an INIC — the
    /// caller validates the CLB budget *before* wiring the cluster, so
    /// an over-capacity schedule is a structured error, not a sim-time
    /// panic.
    pub fn new(
        rank: usize,
        p: usize,
        schedule: Schedule,
        input: Vec<f64>,
        attachment: Attachment,
        kernels: HostKernels,
        offload: Option<OffloadPlan>,
    ) -> CollDriver {
        assert!(rank < p, "rank {rank} out of range for p={p}");
        assert!(
            schedule
                .rounds
                .iter()
                .all(|r| r.sends.iter().all(|s| s.to < p) && r.recvs.iter().all(|r| r.from < p)),
            "schedule references a rank beyond p={p}"
        );
        assert_eq!(
            matches!(attachment, Attachment::Inic { .. }),
            offload.is_some(),
            "offload plan must accompany exactly the INIC attachments"
        );
        assert!(
            schedule.rounds.len() < u16::MAX as usize,
            "round index must fit the TCP channel id"
        );
        CollDriver {
            fo: Failover::new(format!("coll-driver{rank}"), rank, attachment),
            kernels,
            schedule,
            offload,
            state: Vec::new(),
            input,
            round: 0,
            inbox: Inbox::default(),
            await_gather: false,
            await_scatter: false,
            await_tcp: false,
            in_charge: false,
            pending_sum_elems: 0,
            round_started: SimTime::ZERO,
            charge_started: SimTime::ZERO,
            phase_entered: SimTime::ZERO,
            current_phase: "init",
            started: false,
            done: false,
            ckpts: BTreeMap::new(),
            timings: CollTimings::default(),
        }
    }

    /// Attach the fault-handling configuration (builder style).
    #[must_use]
    pub fn with_fault_ctl(mut self, ctl: FaultCtl) -> CollDriver {
        self.fo.ctl = ctl;
        self
    }

    /// The rank's output slice of the final state, once done.
    pub fn result(&self) -> Vec<f64> {
        assert!(self.done, "driver not finished");
        self.state[self.schedule.output.clone()].to_vec()
    }

    fn current_round(&self) -> &Round {
        &self.schedule.rounds[self.round]
    }

    /// Epoch-namespaced round tag: the clean run (epoch 0) reduces to
    /// the bare round index, so its wire traffic is byte-identical to
    /// the pre-recovery engine.
    fn round_tag(&self) -> u64 {
        let tag = self.fo.epoch * (self.schedule.rounds.len() as u64 + 1) + self.round as u64;
        assert!(
            tag < u16::MAX as u64,
            "{}: epoch {} round {} overflows the channel id",
            self.fo.label,
            self.fo.epoch,
            self.round
        );
        tag
    }

    fn stream(&self) -> u32 {
        self.round_tag() as u32 + 1
    }

    fn chan(&self) -> u16 {
        self.round_tag() as u16
    }

    /// Advance past a completed round, snapshotting the state when
    /// checkpoints are armed.
    fn advance_round(&mut self) {
        self.round += 1;
        if self.fo.ckpt_armed() {
            self.ckpts.insert(self.round as u32, self.state.clone());
        }
    }

    /// The wire form of `ranges` of the state, in one exact-size buffer.
    fn encode(&self, ranges: &[Range<usize>]) -> Vec<u8> {
        let mut out = Vec::with_capacity(ranges_elems(ranges) * 8);
        Schedule::gather_bytes(ranges, &self.state, &mut out);
        out
    }

    /// Bytes of the message from `src` on `chan`, when `chan` names a
    /// round of the current epoch that receives from `src` (0 otherwise:
    /// a dead epoch's leftovers are never folded).
    fn expected_rx_bytes(&self, src: usize, chan: u16) -> usize {
        let rounds = self.schedule.rounds.len() as u64;
        u64::from(chan)
            .checked_sub(self.fo.epoch * (rounds + 1))
            .filter(|&r| r < rounds)
            .and_then(|r| {
                self.schedule.rounds[r as usize]
                    .recvs
                    .iter()
                    .find(|recv| recv.from == src)
            })
            .map_or(0, |recv| ranges_elems(&recv.ranges) * 8)
    }

    /// Enter rounds from `self.round` until one blocks on the network
    /// or a charge window, or the schedule ends.
    fn start_round(&mut self, ctx: &mut Ctx) {
        loop {
            if self.round == self.schedule.rounds.len() {
                self.finish(ctx);
                return;
            }
            let round = &self.schedule.rounds[self.round];
            if round.phase != self.current_phase {
                self.current_phase = round.phase;
                self.phase_entered = ctx.now();
            }
            Schedule::apply_copies(round, &mut self.state);
            let compute_elems = round.compute_elems;
            if round.sends.is_empty() && round.recvs.is_empty() {
                // Pure local round: charge any modelled compute and move
                // on; an entirely empty round falls straight through.
                if compute_elems > 0 {
                    self.charge(ctx, self.sweep_time(compute_elems));
                    return;
                }
                self.advance_round();
                continue;
            }
            self.round_started = ctx.now();
            if self.is_tcp() {
                self.issue_tcp_round(ctx);
            } else {
                self.issue_inic_round(ctx);
            }
            return;
        }
    }

    /// Modelled local-sweep charge (memory-bound streaming over the
    /// round's `compute_elems` doubles).
    fn sweep_time(&self, elems: usize) -> SimDuration {
        self.kernels.reduce_time(elems as u64, 1)
    }

    fn charge(&mut self, ctx: &mut Ctx, t: SimDuration) {
        self.in_charge = true;
        self.charge_started = ctx.now();
        self.fo.compute(t, ctx);
    }

    // ---- host-TCP path -------------------------------------------------

    fn issue_tcp_round(&mut self, ctx: &mut Ctx) {
        let Attachment::Tcp { nic, macs } = &self.fo.attachment else {
            unreachable!("TCP round on an INIC attachment")
        };
        let chan = self.chan();
        for send in &self.current_round().sends {
            ctx.send_now(
                *nic,
                TcpSend {
                    peer: macs[send.to],
                    chan,
                    data: self.encode(&send.ranges),
                },
            );
        }
        // Peers running ahead may already have delivered everything.
        self.try_complete_tcp(ctx);
    }

    /// Fold the current round's TCP receives once all of them are in:
    /// the whole round on the host path, the fallback legs (receives
    /// rerouted around a dead peer) of an INIC round.
    fn try_complete_tcp(&mut self, ctx: &mut Ctx) {
        if self.done || !self.started || self.fo.paused || self.in_charge {
            return;
        }
        if self.round == self.schedule.rounds.len() {
            return;
        }
        let chan = self.chan();
        if self.is_tcp() {
            let recvs = &self.schedule.rounds[self.round].recvs;
            if let Some(sum_elems) = fold_tcp(&mut self.inbox, &mut self.state, chan, recvs) {
                self.close_round(ctx, sum_elems);
            }
        } else if self.await_tcp {
            let recvs = self.current_legs().tcp_recvs;
            if let Some(sum_elems) = fold_tcp(&mut self.inbox, &mut self.state, chan, &recvs) {
                self.await_tcp = false;
                self.maybe_close_inic_round(ctx, sum_elems);
            }
        }
    }

    fn is_tcp(&self) -> bool {
        matches!(self.fo.attachment, Attachment::Tcp { .. })
    }

    // ---- INIC paths ----------------------------------------------------

    /// Whether the configured bitstream carries a `ReduceSum` stage.
    fn card_folds(&self) -> bool {
        self.offload.as_ref().is_some_and(|plan| plan.needs_reduce)
    }

    /// The current round's transport partition. With no dead peers this
    /// reproduces the round exactly (everything on the card).
    fn current_legs(&self) -> RoundLegs {
        split_round(self.current_round(), &self.fo.dead, self.card_folds())
    }

    fn issue_inic_round(&mut self, ctx: &mut Ctx) {
        let (card, macs) = match &self.fo.attachment {
            Attachment::Inic { card, macs, .. } => (*card, macs.clone()),
            Attachment::Tcp { .. } => unreachable!("INIC round on a TCP attachment"),
        };
        let legs = self.current_legs();
        let stream = self.stream();
        // Every card-bound part, encoded straight into the one scatter
        // buffer: the sends in order, then (for a fold) this rank's own
        // contribution.
        let own = legs.card_fold.then(|| &legs.card_recvs[0].ranges);
        let elems: usize = legs
            .card_sends
            .iter()
            .map(|send| &send.ranges)
            .chain(own)
            .map(|ranges| ranges_elems(ranges))
            .sum();
        let mut data = Vec::with_capacity(elems * 8);
        let mut parts: Vec<(u32, usize)> = Vec::new();
        for send in &legs.card_sends {
            let start = data.len();
            Schedule::gather_bytes(&send.ranges, &self.state, &mut data);
            parts.push((send.to as u32, data.len() - start));
        }
        if legs.card_fold {
            // One fused gather: the card folds the peer stream against
            // this rank's looped-back contribution, element-wise.
            let recv = &legs.card_recvs[0];
            let elems = ranges_elems(&recv.ranges);
            let start = data.len();
            Schedule::gather_bytes(&recv.ranges, &self.state, &mut data);
            parts.push((self.fo.rank as u32, data.len() - start));
            ctx.send_now(
                card,
                InicExpect {
                    stream,
                    kind: GatherKind::ReduceF64 { elems },
                    sources: vec![
                        (recv.from as u32, Some(elems * 8)),
                        (self.fo.rank as u32, Some(elems * 8)),
                    ],
                },
            );
            self.await_gather = true;
        } else if !legs.card_recvs.is_empty() {
            // Raw gather, one inbound stream per source; the card hands
            // back the concatenation sorted by source rank.
            let mut froms: Vec<u32> = legs.card_recvs.iter().map(|r| r.from as u32).collect();
            froms.sort_unstable();
            froms.dedup();
            assert_eq!(
                froms.len(),
                legs.card_recvs.len(),
                "raw-gather rounds receive at most one message per source"
            );
            ctx.send_now(
                card,
                InicExpect {
                    stream,
                    kind: GatherKind::Raw,
                    sources: legs
                        .card_recvs
                        .iter()
                        .map(|r| (r.from as u32, Some(ranges_elems(&r.ranges) * 8)))
                        .collect(),
                },
            );
            self.await_gather = true;
        }
        if !parts.is_empty() {
            ctx.send_now(
                card,
                InicScatter {
                    stream,
                    kind: ScatterKind::Unicast { parts },
                    data,
                    dests: macs,
                },
            );
            self.await_scatter = true;
        }
        // Legs around dead peers ride the commodity fallback NIC.
        if legs.uses_tcp() {
            let (fb_nic, fb_macs) = match &self.fo.attachment {
                Attachment::Inic {
                    fallback: Some(fb), ..
                } => fb.clone(),
                _ => panic!(
                    "{}: degraded round without a wired fallback path",
                    self.fo.label
                ),
            };
            let chan = self.chan();
            for send in &legs.tcp_sends {
                ctx.send_now(
                    fb_nic,
                    TcpSend {
                        peer: fb_macs[send.to],
                        chan,
                        data: self.encode(&send.ranges),
                    },
                );
            }
            self.await_tcp = !legs.tcp_recvs.is_empty();
        }
        if self.fo.epoch == 0 {
            debug_assert!(
                self.await_gather || self.await_scatter,
                "a non-local round must touch the card"
            );
        }
        if !(self.await_gather || self.await_scatter || self.await_tcp) {
            // Every counterparty is dead and nothing is expected back:
            // the round closes on the spot.
            let sum = std::mem::take(&mut self.pending_sum_elems);
            self.close_round(ctx, sum);
            return;
        }
        // A degraded peer running ahead may have pre-delivered its legs.
        self.try_complete_tcp(ctx);
    }

    fn on_gather_complete(&mut self, g: InicGatherComplete, ctx: &mut Ctx) {
        if self.fo.epoch > 0 && (self.done || g.stream != self.stream() || !self.await_gather) {
            // A pre-failover stream completing against a dead epoch.
            return;
        }
        assert_eq!(g.stream, self.stream(), "{}: stale gather", self.fo.label);
        assert!(self.await_gather, "{}: unexpected gather", self.fo.label);
        self.await_gather = false;
        let legs = self.current_legs();
        let mut host_sum_elems = 0u64;
        if legs.card_fold {
            // The card already folded own + peer; overwrite in place.
            let recv = &legs.card_recvs[0];
            Schedule::fold_bytes(&recv.ranges, RecvOp::Copy, &g.data, &mut self.state);
        } else {
            // Raw concatenation sorted by source rank; slice it back to
            // the schedule's receives and fold on the host.
            let mut order: Vec<usize> = (0..legs.card_recvs.len()).collect();
            order.sort_by_key(|&i| legs.card_recvs[i].from);
            let bounds = g.bucket_bounds.unwrap_or_else(|| vec![g.data.len()]);
            assert_eq!(bounds.len(), legs.card_recvs.len(), "one bucket per source");
            let mut at = 0usize;
            for (slot, &i) in order.iter().enumerate() {
                let recv = &legs.card_recvs[i];
                let bytes = &g.data[at..bounds[slot]];
                at = bounds[slot];
                if recv.op == RecvOp::Sum {
                    host_sum_elems += ranges_elems(&recv.ranges) as u64;
                }
                Schedule::fold_bytes(&recv.ranges, recv.op, bytes, &mut self.state);
            }
        }
        self.maybe_close_inic_round(ctx, host_sum_elems);
    }

    fn maybe_close_inic_round(&mut self, ctx: &mut Ctx, host_sum_elems: u64) {
        self.pending_sum_elems += host_sum_elems;
        if self.await_gather || self.await_scatter || self.await_tcp {
            return;
        }
        let sum_elems = std::mem::take(&mut self.pending_sum_elems);
        self.close_round(ctx, sum_elems);
    }

    // ---- shared round epilogue ----------------------------------------

    /// The current round's transfers are done: account comm, charge
    /// host compute (folds + the modelled sweep), then advance.
    fn close_round(&mut self, ctx: &mut Ctx, host_sum_elems: u64) {
        self.timings.comm += ctx.now().since(self.round_started);
        let mut t = SimDuration::ZERO;
        if host_sum_elems > 0 {
            t += self.kernels.reduce_time(host_sum_elems, 2);
        }
        let compute_elems = self.current_round().compute_elems;
        if compute_elems > 0 {
            t += self.sweep_time(compute_elems);
        }
        if t > SimDuration::ZERO {
            self.charge(ctx, t);
        } else {
            self.advance_round();
            self.start_round(ctx);
        }
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        self.timings.done_at = Some(ctx.now());
        self.done = true;
        self.current_phase = "done";
        self.phase_entered = ctx.now();
        if self.fo.epoch == 0 {
            // Post-failover, bytes parked on dead-epoch channels are
            // expected leftovers; on a clean run they are a protocol bug.
            assert!(
                self.inbox.is_empty(),
                "{}: leftover peer bytes at completion",
                self.fo.label
            );
        }
        self.fo.report_done(ctx);
    }
}

/// Fold every receive of `recvs` out of the inbox once all of them have
/// arrived on `chan`: the host-summed element count, or `None` while any
/// is still in flight.
fn fold_tcp(inbox: &mut Inbox, state: &mut [f64], chan: u16, recvs: &[RecvSpec]) -> Option<u64> {
    let size = |r: &RecvSpec| Some(ranges_elems(&r.ranges) * 8);
    if !recvs.iter().all(|r| inbox.complete(r.from, chan, size(r))) {
        return None;
    }
    let mut sum_elems = 0u64;
    for recv in recvs {
        let bytes = inbox.take(recv.from, chan, size(recv));
        if recv.op == RecvOp::Sum {
            sum_elems += ranges_elems(&recv.ranges) as u64;
        }
        let bytes = bytes.expect("checked complete");
        Schedule::fold_bytes(&recv.ranges, recv.op, &bytes, state);
    }
    Some(sum_elems)
}

impl Recoverable for CollDriver {
    fn fo(&self) -> &Failover {
        &self.fo
    }

    fn fo_mut(&mut self) -> &mut Failover {
        &mut self.fo
    }

    fn bitstream(&self) -> Bitstream {
        let plan = self
            .offload
            .as_ref()
            .expect("INIC attachment carries a plan");
        plan.bitstream.clone()
    }

    fn begin(&mut self, ctx: &mut Ctx) {
        self.timings.started_at = Some(ctx.now());
        self.started = true;
        self.state = self.schedule.init_state(&self.input);
        self.phase_entered = ctx.now();
        self.start_round(ctx);
    }

    fn compute_done(&mut self, ctx: &mut Ctx) {
        assert!(self.in_charge, "{}: stray charge completion", self.fo.label);
        self.in_charge = false;
        self.timings.compute += ctx.now().since(self.charge_started);
        self.advance_round();
        self.start_round(ctx);
        // A peer may have pre-delivered the next round.
        self.try_complete_tcp(ctx);
    }

    fn on_event(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        let ev = match ev.downcast::<TcpDelivered>() {
            Ok(d) => {
                let src = self.fo.attachment.resolve_src(d.peer);
                let src = src.expect("delivery from an unknown peer");
                let size = self.expected_rx_bytes(src, d.chan);
                self.inbox.deliver(src, d.chan, d.data, Some(size));
                return self.try_complete_tcp(ctx);
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<InicGatherComplete>() {
            Ok(g) => return self.on_gather_complete(*g, ctx),
            Err(ev) => ev,
        };
        let Ok(s) = ev.downcast::<InicScatterDone>() else {
            panic!("{}: unknown event", self.fo.label);
        };
        if self.fo.epoch > 0 && (self.done || s.stream != self.stream() || !self.await_scatter) {
            // A pre-failover scatter completing against a dead epoch.
            return;
        }
        assert_eq!(s.stream, self.stream(), "{}: stale scatter", self.fo.label);
        assert!(self.await_scatter, "{}: unexpected scatter", self.fo.label);
        self.await_scatter = false;
        self.maybe_close_inic_round(ctx, 0);
    }

    /// Streams announced before the bump can never complete once the
    /// peer set changed.
    fn abort_stream(&self) -> Option<u32> {
        (self.await_gather || self.await_scatter).then(|| self.stream())
    }

    fn park(&mut self) {
        self.await_gather = false;
        self.await_scatter = false;
        self.await_tcp = false;
        self.in_charge = false;
        self.pending_sum_elems = 0;
    }

    /// Completed rounds this rank can prove: without checkpoints
    /// (rank-local policy) the honest answer is 0, a from-scratch
    /// restart.
    fn checkpoint(&self) -> u32 {
        self.ckpts.keys().next_back().copied().unwrap_or(0)
    }

    fn finished(&self) -> u32 {
        self.schedule.rounds.len() as u32
    }

    /// Every rank restarts the whole schedule over the fallback NIC,
    /// healthy cards included.
    fn restart(&mut self, ctx: &mut Ctx) {
        self.park();
        self.inbox = Inbox::default();
        self.ckpts.clear();
        self.timings = CollTimings {
            started_at: self.timings.started_at,
            ..CollTimings::default()
        };
        self.restore(0, ctx);
    }

    /// Re-enter at round `phase`. Ranks that already finished rejoin —
    /// peers re-executing earlier rounds need their messages, and the
    /// lockstep determinism makes the re-execution bit-identical.
    fn restore(&mut self, phase: u32, ctx: &mut Ctx) {
        self.done = false;
        self.round = phase as usize;
        self.state = if phase == 0 {
            self.schedule.init_state(&self.input)
        } else {
            self.ckpts
                .get(&phase)
                .unwrap_or_else(|| {
                    panic!(
                        "{}: resume round {phase} without its checkpoint",
                        self.fo.label
                    )
                })
                .clone()
        };
        self.started = true;
        if self.timings.started_at.is_none() {
            self.timings.started_at = Some(ctx.now());
        }
        self.phase_entered = ctx.now();
        self.start_round(ctx);
        // Degraded peers running ahead may have pre-delivered their
        // legs for the resumed round.
        self.try_complete_tcp(ctx);
    }

    fn phase(&self) -> (&'static str, SimTime) {
        (self.current_phase, self.phase_entered)
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn span(&self) -> (SimTime, SimTime) {
        let t = &self.timings;
        (t.started_at.expect("started"), t.done_at.expect("done"))
    }
}

impl Component for CollDriver {
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        failover::handle(self, ev, ctx);
    }

    fn name(&self) -> &str {
        &self.fo.label
    }

    fn wait_state(&self) -> Option<String> {
        if self.done {
            return None;
        }
        Some(format!(
            "rank {} in {} (round {}/{}, epoch {}, gather={}, scatter={}, tcp={}, charge={}{})",
            self.fo.rank,
            self.current_phase,
            self.round,
            self.schedule.rounds.len(),
            self.fo.epoch,
            self.await_gather,
            self.await_scatter,
            self.await_tcp,
            self.in_charge,
            self.fo.parked_note(),
        ))
    }
}
