//! Mixed-technology re-planning for degraded collectives.
//!
//! When a rank's INIC dies mid-schedule under a rank-local recovery
//! policy, the cluster does not abandon the surviving cards: the dead
//! rank falls back to its commodity NIC while
//! every healthy rank keeps its datapath and reroutes only the legs
//! that touch the casualty. This module is the pure planning half of
//! that story — it rewrites the *remaining* rounds of a lockstep
//! [`Schedule`] into per-round [`RoundLegs`], a partition of each
//! round's sends and receives into a **card leg** (healthy peers, INIC
//! streams) and a **TCP leg** (degraded peers, fallback NICs):
//!
//! * A combined-mode `ReduceSum` fold stays on the card only while its
//!   inbound stream comes from a healthy peer; a fold fed by a dead
//!   rank falls back to host arithmetic (the driver applies the TCP
//!   payload with [`RecvOp::Sum`] and charges the calibrated host
//!   reduction), exactly the protocol-only degradation the paper's
//!   mode spectrum describes.
//! * [`degraded_offload`] re-validates the shrunken datapath against
//!   the device's CLB budget: once no remaining round folds on the
//!   card, the `ReduceSum` stage is no longer needed and the degraded
//!   bitstream is strictly smaller than the one already configured, so
//!   a plan that fit clean always fits degraded — asserted here with a
//!   structured [`OffloadError`] rather than assumed.
//!
//! The split is deterministic and purely data-driven: with an empty
//! dead set every leg lands on the card and the legs reproduce the
//! original round exactly, which is what keeps the clean execution
//! path byte-identical.

use std::collections::BTreeSet;

use acc_fpga::{FpgaDevice, InicMode};

use crate::offload::{self, OffloadError, OffloadPlan};
use crate::plan::{RecvSpec, Round, SendSpec};
use crate::{RecvOp, Schedule};

/// One round of a degraded schedule, partitioned by transport.
#[derive(Clone, Debug)]
pub struct RoundLegs {
    /// Sends to healthy peers — ride the INIC scatter as before.
    pub card_sends: Vec<SendSpec>,
    /// Sends to degraded peers — ride the fallback `TcpHostNic`.
    pub tcp_sends: Vec<SendSpec>,
    /// Receives from healthy peers — the card gather.
    pub card_recvs: Vec<RecvSpec>,
    /// Receives from degraded peers — fallback TCP deliveries, folded
    /// on the host when the spec says [`RecvOp::Sum`].
    pub tcp_recvs: Vec<RecvSpec>,
    /// Whether the card leg is the fused `ReduceF64` gather (combined
    /// mode, exactly one `Sum` receive, and its source still healthy).
    pub card_fold: bool,
}

/// Partition one round's transfers between the card and the fallback
/// path, given the set of degraded ranks. `combined` says whether the
/// configured bitstream carries a `ReduceSum` stage at all (protocol-
/// only offloads never card-fold, dead peers or not).
pub fn split_round(round: &Round, dead: &BTreeSet<usize>, combined: bool) -> RoundLegs {
    let (card_sends, tcp_sends): (Vec<SendSpec>, Vec<SendSpec>) = round
        .sends
        .iter()
        .cloned()
        .partition(|s| !dead.contains(&s.to));
    let (card_recvs, tcp_recvs): (Vec<RecvSpec>, Vec<RecvSpec>) = round
        .recvs
        .iter()
        .cloned()
        .partition(|r| !dead.contains(&r.from));
    // The fused fold survives only in the exact shape the card datapath
    // implements: one Sum stream plus the looped-back own contribution.
    // Everything else (a rerouted Sum, a raw gather) folds on the host.
    let card_fold = combined
        && card_recvs.len() == 1
        && tcp_recvs.is_empty()
        && card_recvs[0].op == RecvOp::Sum;
    RoundLegs {
        card_sends,
        tcp_sends,
        card_recvs,
        tcp_recvs,
        card_fold,
    }
}

/// Rebuild the remaining rounds of `schedule` (from `resume_round` on)
/// as mixed-technology legs over the degraded cluster.
pub fn replan(
    schedule: &Schedule,
    dead: &BTreeSet<usize>,
    resume_round: usize,
    combined: bool,
) -> Vec<RoundLegs> {
    schedule.rounds[resume_round.min(schedule.rounds.len())..]
        .iter()
        .map(|round| split_round(round, dead, combined))
        .collect()
}

/// Re-validate one rank's offload against the CLB budget after
/// degradation: the remaining rounds may no longer fold on the card
/// (every `Sum` stream rerouted to the host side), in which case the
/// `ReduceSum` stage drops out of the required bitstream.
///
/// # Errors
/// [`OffloadError::InsufficientLogic`] when even the shrunken operator
/// pipeline exceeds the device — impossible when the clean plan fit
/// (the degraded bitstream is never larger), but checked structurally
/// rather than assumed.
pub fn degraded_offload(
    schedule: &Schedule,
    p: usize,
    dead: &BTreeSet<usize>,
    resume_round: usize,
    mode: InicMode,
    device: &FpgaDevice,
) -> Result<OffloadPlan, OffloadError> {
    let combined = !matches!(mode, InicMode::ProtocolProcessor);
    let legs = replan(schedule, dead, resume_round, combined);
    if legs.iter().any(|l| l.card_fold) {
        // Some round still folds on the card: the full plan stands.
        return offload::plan(schedule, p, mode, device);
    }
    // No remaining fold: price the schedule as if it never summed on
    // the card (protocol + router only, or bare protocol operators).
    let mut host_folded = schedule.clone();
    for round in &mut host_folded.rounds {
        for recv in &mut round.recvs {
            if recv.op == RecvOp::Sum {
                recv.op = RecvOp::Copy;
            }
        }
    }
    offload::plan(&host_folded, p, mode, device)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, Algorithm, CollectiveOp};

    fn dead(ranks: &[usize]) -> BTreeSet<usize> {
        ranks.iter().copied().collect()
    }

    #[test]
    fn empty_dead_set_reproduces_the_round_exactly() {
        let s = build(CollectiveOp::AllReduce, Algorithm::Ring, 0, 4, 64);
        for round in &s.rounds {
            let legs = split_round(round, &BTreeSet::new(), true);
            assert_eq!(legs.card_sends, round.sends);
            assert_eq!(legs.card_recvs, round.recvs);
            assert!(legs.tcp_sends.is_empty() && legs.tcp_recvs.is_empty());
            let sum = round.recvs.len() == 1 && round.recvs[0].op == RecvOp::Sum;
            assert_eq!(legs.card_fold, sum);
        }
    }

    #[test]
    fn legs_touching_the_dead_rank_move_to_tcp() {
        // Rank 0 of a 4-ring sends to 1 and receives from 3; killing 3
        // reroutes exactly the receive, killing 1 exactly the send.
        let s = build(CollectiveOp::AllReduce, Algorithm::Ring, 0, 4, 64);
        let round = s
            .rounds
            .iter()
            .find(|r| !r.sends.is_empty() && !r.recvs.is_empty())
            .expect("a ring round moves data both ways");
        let legs = split_round(round, &dead(&[3]), true);
        assert_eq!(legs.card_sends, round.sends);
        assert!(legs.card_recvs.is_empty());
        assert_eq!(legs.tcp_recvs, round.recvs);
        assert!(!legs.card_fold, "a rerouted Sum folds on the host");
        let legs = split_round(round, &dead(&[1]), true);
        assert!(legs.card_sends.is_empty());
        assert_eq!(legs.tcp_sends, round.sends);
        assert_eq!(legs.card_recvs, round.recvs);
        assert!(legs.card_fold, "the fold's source is still healthy");
    }

    #[test]
    fn protocol_only_mode_never_card_folds() {
        let s = build(CollectiveOp::AllReduce, Algorithm::Ring, 0, 4, 64);
        for legs in replan(&s, &BTreeSet::new(), 0, false) {
            assert!(!legs.card_fold);
        }
    }

    #[test]
    fn replan_covers_exactly_the_remaining_rounds() {
        let s = build(CollectiveOp::AllReduce, Algorithm::Ring, 0, 4, 64);
        let all = replan(&s, &dead(&[2]), 0, true);
        assert_eq!(all.len(), s.rounds.len());
        let tail = replan(&s, &dead(&[2]), 2, true);
        assert_eq!(tail.len(), s.rounds.len() - 2);
        // Past-the-end resume (everyone was already done) is empty, not
        // a panic.
        assert!(replan(&s, &dead(&[2]), s.rounds.len() + 7, true).is_empty());
    }

    #[test]
    fn degraded_offload_drops_the_reduce_stage_when_no_fold_survives() {
        let device = FpgaDevice::virtex_next_gen();
        // Rank 0's recursive-doubling allreduce at p=2: its only peer
        // is rank 1, so killing rank 1 reroutes every Sum to the host.
        let s = build(
            CollectiveOp::AllReduce,
            Algorithm::RecursiveDoubling,
            0,
            2,
            64,
        );
        let clean = offload::plan(&s, 2, InicMode::Combined, &device).expect("fits");
        assert!(clean.needs_reduce);
        let degraded = degraded_offload(&s, 2, &dead(&[1]), 0, InicMode::Combined, &device)
            .expect("the shrunken datapath must also fit");
        assert!(!degraded.needs_reduce);
        assert!(
            degraded.bitstream.clbs() < clean.bitstream.clbs(),
            "dropping ReduceSum must shrink the CLB bill"
        );
        // A fold fed by a healthy peer keeps the stage: at p=4, killing
        // rank 2 leaves rank 0's ring predecessor (rank 3) alive.
        let s4 = build(CollectiveOp::AllReduce, Algorithm::Ring, 0, 4, 64);
        let kept =
            degraded_offload(&s4, 4, &dead(&[2]), 0, InicMode::Combined, &device).expect("fits");
        assert!(kept.needs_reduce);
    }
}
