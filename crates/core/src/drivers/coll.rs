//! The collective-engine driver — one rank of any `acc-coll` schedule.
//!
//! The driver runs a per-rank [`Schedule`] compiled by `acc-coll`'s
//! builders. Each round becomes one transfer step of the exchange every
//! driver shares (`exchange.rs`), which posts it and reports when it
//! was received and sent; the driver keeps only the encode, the folds,
//! the charges and the checkpoints. The same rounds drive all three
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
//! Rounds are strictly ordered on each rank: a round closes only once
//! its step was both received and sent, so the driver never issues
//! round `t + 1` card requests before round `t`'s gather and scatter
//! both completed, per-round streams are announced exactly once and
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

use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;

use acc_coll::plan::{ranges_elems, RecvSpec, Round};
use acc_coll::recovery::{split_round, RoundLegs};
use acc_coll::{OffloadPlan, RecvOp, Schedule};
use acc_fpga::{Bitstream, GatherKind, ScatterKind};
use acc_host::HostKernels;
use acc_sim::{Component, SimDuration, SimTime};

use super::exchange::{CardPart, Exchange, Received, Step};
use super::failover::{self, Failover, Recoverable};
use super::{Attachment, FaultCtl};
use crate::msg::{Ctx, Msg};

/// Timing record of one collective run.
#[derive(Clone, Debug, Default)]
pub(crate) struct CollTimings {
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

/// Per-node schedule driver.
pub(crate) struct CollDriver {
    /// Network attachment and failover state.
    fo: Failover,
    kernels: HostKernels,
    schedule: Schedule,
    /// The pre-validated card datapath (INIC attachments only).
    offload: Option<OffloadPlan>,
    state: Vec<f64>,
    /// This rank's contribution, shared with the run's oracle.
    input: Rc<[f64]>,
    round: usize,
    /// Each round's transfer step, and the inbox where peers running
    /// ahead park their messages for later rounds.
    xchg: Exchange,
    /// The transport partition of the round whose step is in flight:
    /// set when the step is posted, taken when it is folded.
    legs: Option<RoundLegs>,
    in_charge: bool,
    round_started: SimTime,
    charge_started: SimTime,
    phase_entered: SimTime,
    current_phase: &'static str,
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
        input: Rc<[f64]>,
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
            xchg: Exchange::default(),
            legs: None,
            in_charge: false,
            round_started: SimTime::ZERO,
            charge_started: SimTime::ZERO,
            phase_entered: SimTime::ZERO,
            current_phase: "init",
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
            return self.issue_round(ctx);
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

    /// Whether the configured bitstream carries a `ReduceSum` stage.
    fn card_folds(&self) -> bool {
        self.offload.as_ref().is_some_and(|plan| plan.needs_reduce)
    }

    fn is_tcp(&self) -> bool {
        matches!(self.fo.attachment, Attachment::Tcp { .. })
    }

    /// The current round's transport partition: every leg on TCP on a
    /// host attachment; on a card, the legs touching dead peers on the
    /// fallback NIC (with no dead peers, everything on the card).
    fn current_legs(&self) -> RoundLegs {
        let round = self.current_round();
        if self.is_tcp() {
            return RoundLegs {
                card_sends: Vec::new(),
                tcp_sends: round.sends.clone(),
                card_recvs: Vec::new(),
                tcp_recvs: round.recvs.clone(),
                card_fold: false,
            };
        }
        split_round(round, &self.fo.dead, self.card_folds())
    }

    /// Post the current round as one transfer step.
    fn issue_round(&mut self, ctx: &mut Ctx) {
        let legs = self.current_legs();
        // Every card-bound part, encoded straight into the one scatter
        // buffer: the sends in order, then (for a fold) this rank's own
        // contribution.
        let own = legs.card_fold.then(|| &legs.card_recvs[0]);
        let own_part = own.map(|recv| (self.fo.rank, &recv.ranges));
        let card_parts = legs
            .card_sends
            .iter()
            .map(|s| (s.to, &s.ranges))
            .chain(own_part);
        let elems: usize = card_parts.clone().map(|(_, r)| ranges_elems(r)).sum();
        let mut data = Vec::with_capacity(elems * 8);
        let mut parts: Vec<(u32, usize)> = Vec::new();
        for (to, ranges) in card_parts {
            let start = data.len();
            Schedule::gather_bytes(ranges, &self.state, &mut data);
            parts.push((to as u32, data.len() - start));
        }
        let bytes = |recv: &RecvSpec| Some(ranges_elems(&recv.ranges) * 8);
        let gather = if let Some(recv) = own {
            // One fused gather: the card folds the peer stream against
            // this rank's looped-back contribution, element-wise.
            let elems = ranges_elems(&recv.ranges);
            let sources = vec![
                (recv.from as u32, bytes(recv)),
                (self.fo.rank as u32, bytes(recv)),
            ];
            Some((GatherKind::ReduceF64 { elems }, sources))
        } else if legs.card_recvs.is_empty() {
            None
        } else {
            // Raw gather, one inbound stream per source; the card hands
            // back the concatenation sorted by source rank.
            let mut froms: Vec<usize> = legs.card_recvs.iter().map(|r| r.from).collect();
            froms.sort_unstable();
            let distinct = froms.windows(2).all(|w| w[0] < w[1]);
            assert!(
                distinct,
                "raw-gather rounds receive at most one message per source"
            );
            let sources = legs.card_recvs.iter().map(|r| (r.from as u32, bytes(r)));
            Some((GatherKind::Raw, sources.collect()))
        };
        let scatter = (!parts.is_empty()).then_some((ScatterKind::Unicast { parts }, data));
        let card = (gather.is_some() || scatter.is_some()).then(|| CardPart {
            stream: self.stream(),
            gather,
            scatter,
        });
        debug_assert!(
            self.is_tcp() || self.fo.epoch > 0 || card.is_some(),
            "a non-local round must touch the card"
        );
        // Legs around dead peers (every leg, on a host attachment) ride
        // TCP.
        let sends = legs
            .tcp_sends
            .iter()
            .map(|s| (s.to, self.encode(&s.ranges)));
        let step = Step {
            chan: self.chan(),
            card,
            sends: sends.collect(),
            recvs: legs.tcp_recvs.iter().map(|r| (r.from, bytes(r))).collect(),
        };
        self.legs = Some(legs);
        self.xchg.start(&self.fo, step, ctx);
        // Peers running ahead may already have delivered everything.
        self.advance(ctx);
    }

    /// Close the current round once its step was both received and
    /// sent.
    fn advance(&mut self, ctx: &mut Ctx) {
        if self.xchg.received(&self.fo) && self.xchg.sent() {
            let got = self.xchg.take();
            let sum_elems = self.fold(got);
            self.close_round(ctx, sum_elems);
        }
    }

    /// Fold the current round's card gather and TCP messages into the
    /// state: the host-summed element count.
    fn fold(&mut self, got: Received) -> u64 {
        let legs = self.legs.take().expect("a folded round was posted");
        let mut sum_elems = 0;
        match got.gather {
            // The card already folded own + peer; overwrite in place.
            Some((data, _)) if legs.card_fold => {
                let ranges = &legs.card_recvs[0].ranges;
                Schedule::fold_bytes(ranges, RecvOp::Copy, &data, &mut self.state);
            }
            // Raw concatenation sorted by source rank; slice it back to
            // the schedule's receives and fold on the host.
            Some((data, bounds)) => {
                let mut order: Vec<&RecvSpec> = legs.card_recvs.iter().collect();
                order.sort_by_key(|recv| recv.from);
                let bounds = bounds.unwrap_or_else(|| vec![data.len()]);
                assert_eq!(bounds.len(), order.len(), "one bucket per source");
                let mut at = 0;
                for (recv, &end) in order.into_iter().zip(&bounds) {
                    sum_elems += fold(&mut self.state, recv, &data[at..end]);
                    at = end;
                }
            }
            None => {}
        }
        for (recv, (_, msg)) in legs.tcp_recvs.iter().zip(&got.msgs) {
            sum_elems += fold(&mut self.state, recv, msg);
        }
        sum_elems
    }

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
                self.xchg.inbox_empty(),
                "{}: leftover peer bytes at completion",
                self.fo.label
            );
        }
        self.fo.report_done(ctx);
    }
}

/// Fold one received message into `state`: the host-summed element
/// count.
fn fold(state: &mut [f64], recv: &RecvSpec, bytes: &[u8]) -> u64 {
    Schedule::fold_bytes(&recv.ranges, recv.op, bytes, state);
    match recv.op {
        RecvOp::Sum => ranges_elems(&recv.ranges) as u64,
        _ => 0,
    }
}

/// Bytes of the message from `src` on `chan`, when `chan` names a round
/// of `schedule` under failover `epoch` that receives from `src` (0
/// otherwise: a dead epoch's leftovers are never folded).
fn expected_rx_bytes(schedule: &Schedule, epoch: u64, src: usize, chan: u16) -> usize {
    let rounds = schedule.rounds.len() as u64;
    u64::from(chan)
        .checked_sub(epoch * (rounds + 1))
        .filter(|&r| r < rounds)
        .and_then(|r| {
            schedule.rounds[r as usize]
                .recvs
                .iter()
                .find(|recv| recv.from == src)
        })
        .map_or(0, |recv| ranges_elems(&recv.ranges) * 8)
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
    }

    fn on_event(&mut self, ev: Msg, ctx: &mut Ctx) {
        let (schedule, epoch) = (&self.schedule, self.fo.epoch);
        let size = |src, chan| Some(expected_rx_bytes(schedule, epoch, src, chan));
        self.xchg.on_event(ev, &self.fo, size);
        self.advance(ctx);
    }

    /// Streams announced before the bump can never complete once the
    /// peer set changed.
    fn abort_stream(&self) -> Option<u32> {
        self.xchg.abort_stream()
    }

    fn park(&mut self) {
        self.xchg.cancel();
        self.legs = None;
        self.in_charge = false;
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
        self.xchg = Exchange::default();
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
        if self.timings.started_at.is_none() {
            self.timings.started_at = Some(ctx.now());
        }
        self.phase_entered = ctx.now();
        self.start_round(ctx);
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

impl Component<Msg> for CollDriver {
    fn handle(&mut self, ev: Msg, ctx: &mut Ctx) {
        failover::handle(self, ev, ctx);
    }

    fn name(&self) -> &str {
        &self.fo.label
    }

    fn wait_state(&self) -> Option<String> {
        if self.done {
            return None;
        }
        // `tcp` names the fallback legs of a card round.
        let (gather, scatter, tcp) = self.xchg.pending();
        Some(format!(
            "rank {} in {} (round {}/{}, epoch {}, gather={}, scatter={}, tcp={}, charge={}{})",
            self.fo.rank,
            self.current_phase,
            self.round,
            self.schedule.rounds.len(),
            self.fo.epoch,
            gather,
            scatter,
            !self.is_tcp() && tcp > 0,
            self.in_charge,
            self.fo.parked_note(),
        ))
    }
}
