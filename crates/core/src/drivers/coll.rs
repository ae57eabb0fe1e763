//! The collective-engine driver — one rank of any `acc-coll` schedule.
//!
//! The driver runs a per-rank [`Schedule`] compiled by `acc-coll`'s
//! builders. Each round becomes one transfer step of the exchange every
//! driver shares (`exchange.rs`): the round's sends and receives are
//! its legs, and the exchange decides which ride the card and which
//! TCP, posts them and reports when the step was received and sent. The
//! driver keeps only the encode, the folds, the charges and what each
//! checkpoint holds. The same rounds drive all three execution paths,
//! so adding an algorithm to the engine needs no driver changes at all.
//!
//! * **Host-TCP path** (commodity technologies): each round's sends go
//!   out as one TCP message per peer on a per-round channel; `Sum`
//!   receives fold on the host at the calibrated streaming-reduction
//!   rate.
//! * **Combined INIC path**: the card is configured with the
//!   [`Bitstream::collective`](acc_fpga::Bitstream::collective)
//!   datapath (stream router sized to the fan-out, `ReduceSum` only
//!   when the schedule folds data). A round that folds on the card
//!   ([`folds_on_card`]) carries this rank's own contribution as one
//!   more leg and asks for a `ReduceF64` gather — the card accumulates
//!   the peer's stream against the looped-back contribution and only
//!   the folded result crosses to the host, so the host does **zero
//!   arithmetic**. Other rounds take the exchange's default packing: a
//!   `Unicast` scatter and a `Raw` gather.
//! * **Protocol-only INIC path**: the default packing every round —
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
//!   healthy ranks keep their cards; the exchange puts the legs touching
//!   a dead rank on the fallback `TcpHostNic`, and a combined-mode fold
//!   whose source died falls back to host arithmetic
//!   ([`folds_on_card`] says no).

use std::ops::Range;
use std::rc::Rc;

use acc_coll::plan::{ranges_elems, RecvSpec, SendSpec};
use acc_coll::{folds_on_card, OffloadPlan, RecvOp, Schedule};
use acc_fpga::{Bitstream, GatherKind};
use acc_host::HostKernels;
use acc_sim::{Component, SimDuration};

use super::exchange::{Received, Step};
use super::failover::{self, Failover, Recoverable};
use super::{Attachment, FaultCtl};
use crate::msg::{Ctx, Msg};

/// Per-node schedule driver.
pub(crate) struct CollDriver {
    /// The rank's lifecycle; checkpoints are state snapshots keyed by
    /// completed-round count.
    fo: Failover<Vec<f64>>,
    kernels: HostKernels,
    schedule: Schedule,
    /// The pre-validated card datapath (INIC attachments only).
    offload: Option<OffloadPlan>,
    state: Vec<f64>,
    /// This rank's contribution, shared with the run's oracle.
    input: Rc<[f64]>,
    round: usize,
}

impl CollDriver {
    /// Build a driver for one rank of a compiled schedule. `offload`
    /// must be `Some` exactly when the attachment is an INIC — the
    /// caller validates the CLB budget *before* wiring the cluster, so
    /// an over-capacity schedule is a structured error, not a sim-time
    /// panic.
    pub fn new(
        rank: usize,
        schedule: Schedule,
        input: Rc<[f64]>,
        attachment: Attachment,
        ctl: FaultCtl,
        kernels: HostKernels,
        offload: Option<OffloadPlan>,
    ) -> CollDriver {
        let p = attachment.macs().len();
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
            fo: Failover::new(format!("coll-driver{rank}"), rank, attachment, ctl),
            kernels,
            schedule,
            offload,
            state: Vec::new(),
            input,
            round: 0,
        }
    }

    /// The rank's output slice of the final state, once done.
    pub fn result(&self) -> &[f64] {
        assert!(self.fo.is_done(), "driver not finished");
        &self.state[self.schedule.output.clone()]
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

    /// Advance past a completed round, snapshotting the state when
    /// checkpoints are armed.
    fn advance_round(&mut self) {
        self.round += 1;
        self.fo.save(self.round as u32, || self.state.clone());
    }

    /// Enter rounds from `self.round` until one blocks on the network
    /// or a charge window, or the schedule ends.
    fn start_round(&mut self, ctx: &mut Ctx) {
        loop {
            if self.round == self.schedule.rounds.len() {
                return self.fo.finish(ctx);
            }
            let round = &self.schedule.rounds[self.round];
            if round.phase != self.fo.phase().0 {
                self.fo.enter(round.phase, ctx.now());
            }
            Schedule::apply_copies(round, &mut self.state);
            let compute_elems = round.compute_elems;
            if round.sends.is_empty() && round.recvs.is_empty() {
                // Pure local round: charge any modelled compute and move
                // on; an entirely empty round falls straight through.
                if compute_elems > 0 {
                    return self.fo.compute(self.sweep_time(compute_elems), ctx);
                }
                self.advance_round();
                continue;
            }
            return self.issue_round(ctx);
        }
    }

    /// Modelled local-sweep charge (memory-bound streaming over the
    /// round's `compute_elems` doubles).
    fn sweep_time(&self, elems: usize) -> SimDuration {
        self.kernels.reduce_time(elems as u64, 1)
    }

    /// Post the current round as one transfer step: its sends and
    /// receives as legs and, when the round folds on the card, this
    /// rank's looped-back contribution and the fused `ReduceF64`
    /// gather.
    fn issue_round(&mut self, ctx: &mut Ctx) {
        let (rank, state) = (self.fo.rank, &self.state);
        let round = &self.schedule.rounds[self.round];
        let bytes = |ranges: &[Range<usize>]| ranges_elems(ranges) * 8;
        let send = |s: &SendSpec| (s.to, bytes(&s.ranges));
        let recv = |r: &RecvSpec| (r.from, Some(bytes(&r.ranges)));
        let mut sends: Vec<_> = round.sends.iter().map(send).collect();
        let mut recvs: Vec<_> = round.recvs.iter().map(recv).collect();
        // Whether this rank runs on a card whose bitstream carries a
        // `ReduceSum` stage (a degraded rank keeps its plan, not its card).
        let on_card = self.fo.attachment.inic_mode().is_some();
        let reduces = on_card && self.offload.as_ref().is_some_and(|plan| plan.needs_reduce);
        let fold = folds_on_card(round, &self.fo.dead, reduces);
        if fold {
            // The card folds the peer stream against this rank's own
            // contribution, element-wise.
            let own = bytes(&round.recvs[0].ranges);
            sends.push((rank, own));
            recvs.push((rank, Some(own)));
        }
        let encode = |q, out: &mut Vec<u8>| {
            // The own contribution covers the ranges the fold overwrites.
            let ranges = if q == rank {
                &round.recvs[0].ranges
            } else {
                let send = round.sends.iter().find(|s| s.to == q);
                &send.expect("a send leg").ranges
            };
            Schedule::gather_bytes(ranges, state, out);
        };
        let tag = self.round_tag();
        let step = Step {
            chan: tag as u16,
            stream: tag as u32 + 1,
            prefixed: false,
            sends,
            encode: &encode,
            recvs,
            scatter: None,
            gather: fold.then(|| GatherKind::ReduceF64 {
                elems: ranges_elems(&round.recvs[0].ranges),
            }),
        };
        self.fo.post(step, ctx);
        // Peers running ahead may already have delivered everything.
        self.advance(ctx);
    }

    /// Fold the current round's received legs into the state: the
    /// host-summed element count.
    fn fold(&mut self, got: Received) -> u64 {
        let round = &self.schedule.rounds[self.round];
        if let Some((data, _)) = &got.gather {
            // The card already folded own + peer; overwrite in place.
            let ranges = &round.recvs[0].ranges;
            Schedule::fold_bytes(ranges, RecvOp::Copy, data, &mut self.state);
            return 0;
        }
        let msgs = round.recvs.iter().zip(got.msgs());
        msgs.map(|(recv, (_, msg))| fold(&mut self.state, recv, msg))
            .sum()
    }

    /// The current round's transfers are done: charge host compute
    /// (folds + the modelled sweep), then advance.
    fn close_round(&mut self, ctx: &mut Ctx, host_sum_elems: u64) {
        let mut t = SimDuration::ZERO;
        if host_sum_elems > 0 {
            t += self.kernels.reduce_time(host_sum_elems, 2);
        }
        let compute_elems = self.schedule.rounds[self.round].compute_elems;
        if compute_elems > 0 {
            t += self.sweep_time(compute_elems);
        }
        if t > SimDuration::ZERO {
            self.fo.compute(t, ctx);
        } else {
            self.advance_round();
            self.start_round(ctx);
        }
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
    type Checkpoint = Vec<f64>;

    fn fo(&self) -> &Failover<Vec<f64>> {
        &self.fo
    }

    fn fo_mut(&mut self) -> &mut Failover<Vec<f64>> {
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
        self.state = self.schedule.init_state(&self.input);
        self.start_round(ctx);
    }

    fn compute_done(&mut self, ctx: &mut Ctx) {
        self.advance_round();
        self.start_round(ctx);
    }

    fn rx_size(&self, src: usize, chan: u16) -> Option<usize> {
        Some(expected_rx_bytes(&self.schedule, self.fo.epoch, src, chan))
    }

    /// Close the current round once its step was both received and
    /// sent.
    fn advance(&mut self, ctx: &mut Ctx) {
        if self.fo.received() && self.fo.xchg.sent() {
            let got = self.fo.take(ctx.now());
            let sum_elems = self.fold(got);
            self.close_round(ctx, sum_elems);
        }
    }

    /// Completed rounds are the checkpoint indices; without checkpoints
    /// (rank-local policy) a rank reports 0, a from-scratch restart.
    fn finished(&self) -> u32 {
        self.schedule.rounds.len() as u32
    }

    /// Re-enter at round `phase`. Ranks that already finished rejoin —
    /// peers re-executing earlier rounds need their messages, and the
    /// lockstep determinism makes the re-execution bit-identical.
    fn restore(&mut self, phase: u32, ctx: &mut Ctx) {
        self.round = phase as usize;
        self.state = match phase {
            0 => self.schedule.init_state(&self.input),
            k => self.fo.checkpoint(k).clone(),
        };
        self.start_round(ctx);
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
        if self.fo.is_done() {
            return None;
        }
        // `tcp` names the fallback legs of a card round.
        let (gather, scatter, tcp) = self.fo.xchg.pending();
        Some(format!(
            "rank {} in {} (round {}/{}, epoch {}, gather={}, scatter={}, tcp={}, charge={}{})",
            self.fo.rank,
            self.fo.phase().0,
            self.round,
            self.schedule.rounds.len(),
            self.fo.epoch,
            gather,
            scatter,
            self.fo.attachment.inic_mode().is_some() && tcp > 0,
            self.fo.charging(),
            self.fo.resume_note(),
        ))
    }
}
