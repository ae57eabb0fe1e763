//! Per-collective, per-algorithm cost formulas — the Section-4 analytic
//! treatment extended to the `acc-coll` engine.
//!
//! The Section-4 models predict one application each; the collective
//! model instead predicts any engine schedule from its *round profile*:
//! [`acc_coll::plan::profile`] reduces a schedule to the critical-path
//! cost of every round (bytes on the wire, elements folded, elements
//! swept locally), and this model prices each round on a technology as
//!
//! `T_round = α(tech) + bytes/β(tech) + T_fold + T_sweep`
//!
//! where `α` is the per-round startup on the critical path (interrupt
//! and protocol handling for the TCP paths, descriptor issue for the
//! INIC paths), `β` the effective per-link streaming bandwidth of the
//! path (kernel TCP over the link, or the card datapath — whichever is
//! narrower), and the fold term is host arithmetic only on the paths
//! that fold `Sum` rounds on the host (the commodity technologies and
//! the protocol-processor mode; the combined INIC folds in its
//! `ReduceSum` operator, which streams at datapath rate and is already
//! inside `β`). The constants are calibrated against the simulator the
//! same way Section 4 calibrates against the prototype, and
//! `tests/model_vs_sim.rs` bounds the residual error per
//! collective × algorithm × technology cell.

use acc_coll::plan::{self, RoundCost};
use acc_coll::{Algorithm, CollectiveOp, Schedule};
use acc_host::HostKernels;
use acc_sim::{Bandwidth, DataSize, SimDuration};

use crate::cluster::Technology;

/// The collective cost model for one (collective, algorithm, p, elems)
/// cell — or one halo-exchange workload, which compiles to the same
/// round profile.
#[derive(Clone, Debug)]
pub struct CollModel {
    /// Critical-path cost of every round, in schedule order.
    costs: Vec<RoundCost>,
    /// Host kernel calibration supplying the fold and sweep times.
    kernels: HostKernels,
}

impl CollModel {
    /// Model for one collective cell with the standard Athlon
    /// calibration.
    pub fn collective(op: CollectiveOp, algo: Algorithm, p: usize, elems: usize) -> CollModel {
        CollModel::of(&plan::build_all(op, algo, p, elems))
    }

    /// Model for a run's per-rank schedule set (a collective cell or a
    /// halo-exchange workload) with the standard Athlon calibration.
    pub(crate) fn of(schedules: &[Schedule]) -> CollModel {
        CollModel {
            costs: plan::profile(schedules),
            kernels: HostKernels::athlon_1ghz(),
        }
    }

    /// Per-round startup charged on the critical path. The TCP paths pay
    /// interrupt service and kernel protocol processing per message; the
    /// INIC paths pay only descriptor issue and the card's pipeline
    /// fill, so their rounds turn over an order of magnitude faster.
    fn alpha(technology: Technology) -> SimDuration {
        match technology {
            Technology::FastEthernet => SimDuration::from_micros(120),
            Technology::GigabitTcp => SimDuration::from_micros(130),
            Technology::InicIdeal => SimDuration::from_micros(20),
            Technology::InicPrototype => SimDuration::from_micros(25),
            Technology::InicProtocol => SimDuration::from_micros(20),
        }
    }

    /// Effective per-link streaming bandwidth of the path: kernel TCP
    /// sustains a fraction of the raw link (interrupt and copy overhead
    /// — Section 2's motivating measurement), while the INIC paths run
    /// at the narrower of the link and the card datapath (the prototype
    /// is pinched by its shared 132 MB/s card bus).
    fn beta(technology: Technology) -> Bandwidth {
        match technology {
            Technology::FastEthernet => Bandwidth::from_mib_per_sec(9),
            Technology::GigabitTcp => Bandwidth::from_mib_per_sec(16),
            Technology::InicIdeal => Bandwidth::from_mib_per_sec(30),
            Technology::InicPrototype => Bandwidth::from_mib_per_sec(28),
            Technology::InicProtocol => Bandwidth::from_mib_per_sec(35),
        }
    }

    /// Whether `Sum` rounds fold on the host for this technology. Only
    /// the combined-mode INIC paths fold in the card datapath.
    fn host_folds(technology: Technology) -> bool {
        !matches!(
            technology,
            Technology::InicIdeal | Technology::InicPrototype
        )
    }

    /// Predicted critical-path time of one round on `technology`.
    pub fn round_time(&self, cost: &RoundCost, technology: Technology) -> SimDuration {
        let mut t = Self::alpha(technology);
        if cost.send_bytes > 0 {
            t += DataSize::from_bytes(cost.send_bytes) / Self::beta(technology);
        }
        if cost.sum_elems > 0 && Self::host_folds(technology) {
            t += self.kernels.reduce_time(cost.sum_elems, 2);
        }
        if cost.compute_elems > 0 {
            t += self.kernels.reduce_time(cost.compute_elems, 1);
        }
        t
    }

    /// Predicted total time of the whole schedule on `technology`
    /// (excluding card configuration, which the runners also exclude).
    pub fn total(&self, technology: Technology) -> SimDuration {
        self.costs
            .iter()
            .map(|c| self.round_time(c, technology))
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Predicted time aggregated by phase label, in first-appearance
    /// order — the input to the deadline hierarchy's per-phase budgets.
    pub fn phase_predictions(&self, technology: Technology) -> Vec<(&'static str, SimDuration)> {
        let mut phases: Vec<(&'static str, SimDuration)> = Vec::new();
        for cost in &self.costs {
            let t = self.round_time(cost, technology);
            match phases.iter_mut().find(|(name, _)| *name == cost.phase) {
                Some((_, acc)) => *acc += t,
                None => phases.push((cost.phase, t)),
            }
        }
        phases
    }

    /// Critical-path wire volume of the schedule in bytes (per rank) —
    /// the payload term of the watchdog's event budget.
    pub fn wire_bytes(&self) -> u64 {
        self.costs.iter().map(|c| c.send_bytes).sum()
    }

    /// Number of rounds in the schedule.
    pub fn rounds(&self) -> usize {
        self.costs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_beats_doubling_on_large_vectors_and_loses_on_small() {
        // The latency/bandwidth trade the policy encodes must fall out
        // of the model: at 1 MiB the ring's 1/p-sized messages win, at
        // 16 elements recursive doubling's log p rounds win.
        let p = 8;
        let big_ring = CollModel::collective(CollectiveOp::AllReduce, Algorithm::Ring, p, 1 << 17);
        let big_rd = CollModel::collective(
            CollectiveOp::AllReduce,
            Algorithm::RecursiveDoubling,
            p,
            1 << 17,
        );
        let small_ring = CollModel::collective(CollectiveOp::AllReduce, Algorithm::Ring, p, 16);
        let small_rd =
            CollModel::collective(CollectiveOp::AllReduce, Algorithm::RecursiveDoubling, p, 16);
        for tech in Technology::ALL {
            assert!(
                big_ring.total(tech) < big_rd.total(tech),
                "{tech:?}: ring must win at 1 MiB"
            );
            assert!(
                small_rd.total(tech) < small_ring.total(tech),
                "{tech:?}: doubling must win at 128 B"
            );
        }
    }

    #[test]
    fn inic_paths_beat_host_tcp_on_reductions() {
        // Offloading the protocol (and, in combined mode, the fold) must
        // show up as a faster predicted allreduce than either commodity
        // path. The two INIC modes are deliberately *not* ordered here:
        // the simulator shows the combined datapath's looped-back own
        // contribution can cost more than the host fold it saves — the
        // honest trade the mode ablation measures.
        let m = CollModel::collective(CollectiveOp::AllReduce, Algorithm::Ring, 8, 1 << 15);
        assert!(m.total(Technology::InicIdeal) < m.total(Technology::GigabitTcp));
        assert!(m.total(Technology::InicProtocol) < m.total(Technology::GigabitTcp));
        assert!(m.total(Technology::InicPrototype) < m.total(Technology::FastEthernet));
    }

    #[test]
    fn phase_predictions_cover_every_round() {
        let m = CollModel::collective(CollectiveOp::AllReduce, Algorithm::Ring, 4, 1 << 10);
        let phases = m.phase_predictions(Technology::GigabitTcp);
        let total: SimDuration = phases
            .iter()
            .map(|(_, t)| *t)
            .fold(SimDuration::ZERO, |a, b| a + b);
        assert_eq!(total, m.total(Technology::GigabitTcp));
        assert!(!phases.is_empty());
    }

    #[test]
    fn halo_model_scales_with_iterations() {
        let halo = |iters| {
            let schedules: Vec<_> = (0..4).map(|r| plan::halo(r, 4, 64, iters)).collect();
            CollModel::of(&schedules)
        };
        let (one, five) = (halo(1), halo(5));
        assert!(five.total(Technology::GigabitTcp) > one.total(Technology::GigabitTcp) * 3);
        assert!(five.rounds() > one.rounds());
    }

    #[test]
    fn degenerate_single_rank_schedules_cost_nothing_on_the_wire() {
        let m = CollModel::collective(CollectiveOp::Broadcast, Algorithm::BinomialTree, 1, 128);
        assert_eq!(m.wire_bytes(), 0);
    }
}
