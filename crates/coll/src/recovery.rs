//! Degraded collectives: which rounds still fold on the card.
//!
//! Under rank-local recovery a dead rank falls back to its commodity
//! NIC while every healthy rank keeps its datapath; the driver's
//! transfer step carries the legs that touch a casualty over the
//! fallback NICs. What is left for the schedule to decide is the fold:
//! [`folds_on_card`] keeps a combined-mode `ReduceSum` fold on the card
//! only while its source is healthy, else the host folds (the
//! protocol-only degradation of the paper's mode spectrum), and
//! [`degraded_offload`] re-validates the shrunken datapath against the
//! device's CLB budget. With no dead rank every `Sum` round of a
//! combined offload folds on the card, as on the clean path.

use std::collections::BTreeSet;

use acc_fpga::{FpgaDevice, InicMode};

use crate::offload::{self, OffloadError, OffloadPlan};
use crate::plan::Round;
use crate::{RecvOp, Schedule};

/// Whether `round` folds on the card: the configured bitstream carries
/// a `ReduceSum` stage (`reduces`; protocol-only offloads never fold),
/// and the round receives exactly one `Sum` message, from a rank not in
/// `dead`. Every other receive folds on the host.
pub fn folds_on_card(round: &Round, dead: &BTreeSet<usize>, reduces: bool) -> bool {
    reduces
        && matches!(&round.recvs[..], [recv] if recv.op == RecvOp::Sum && !dead.contains(&recv.from))
}

/// Re-validate one rank's offload against the CLB budget after
/// degradation: under `dead`, no round may fold on the card any more
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
    mode: InicMode,
    device: &FpgaDevice,
) -> Result<OffloadPlan, OffloadError> {
    let reduces = !matches!(mode, InicMode::ProtocolProcessor);
    if schedule
        .rounds
        .iter()
        .any(|round| folds_on_card(round, dead, reduces))
    {
        // Some round still folds on the card: the full plan stands.
        return offload::plan(schedule, p, mode, device);
    }
    // No fold left: price the schedule as if it never summed on the
    // card (protocol + router only, or bare protocol operators).
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

    /// A round of rank 0's 4-ring allreduce: it sends to rank 1 and
    /// sums what rank 3 sends.
    fn ring_sum_round() -> Round {
        let s = build(CollectiveOp::AllReduce, Algorithm::Ring, 0, 4, 64);
        let round = s.rounds.into_iter().next().expect("a ring has rounds");
        assert_eq!(round.sends[0].to, 1);
        assert_eq!((round.recvs[0].from, round.recvs[0].op), (3, RecvOp::Sum));
        round
    }

    #[test]
    fn a_healthy_source_keeps_the_fold() {
        let round = ring_sum_round();
        assert!(folds_on_card(&round, &BTreeSet::new(), true));
        // Only the send touches the dead rank: it reroutes, the fold
        // stays.
        assert!(folds_on_card(&round, &dead(&[1]), true));
    }

    #[test]
    fn a_dead_source_folds_on_the_host() {
        assert!(!folds_on_card(&ring_sum_round(), &dead(&[3]), true));
    }

    #[test]
    fn protocol_only_mode_never_folds() {
        let s = build(CollectiveOp::AllReduce, Algorithm::Ring, 0, 4, 64);
        assert!(s
            .rounds
            .iter()
            .all(|r| !folds_on_card(r, &BTreeSet::new(), false)));
    }

    #[test]
    fn copy_rounds_never_fold() {
        let s = build(CollectiveOp::AllGather, Algorithm::Ring, 0, 4, 64);
        assert!(s
            .rounds
            .iter()
            .all(|r| !folds_on_card(r, &BTreeSet::new(), true)));
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
        let degraded = degraded_offload(&s, 2, &dead(&[1]), InicMode::Combined, &device)
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
            degraded_offload(&s4, 4, &dead(&[2]), InicMode::Combined, &device).expect("fits");
        assert!(kept.needs_reduce);
    }
}
