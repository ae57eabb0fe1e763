//! Per-phase deadline hierarchy derived from the Section-4 models.
//!
//! A guarded cluster run does not use one arbitrary global timeout: each
//! application phase gets a budget derived from the model's predicted
//! phase time times a generous slack factor, and the whole-run deadline
//! is the sum of the phase budgets plus whatever the fault plan can
//! legitimately add (outage windows, retransmission and abandonment
//! horizons, recovery rounds). When a run exceeds its deadline the hang
//! is then attributed to the *phase* a rank has been sitting in longest
//! relative to that phase's budget — "rank 2 stuck in exchange1" — not
//! just "the run took too long".
//!
//! The slack factor is deliberately generous, and it depends on the
//! technology: the models predict the *next-generation INIC*, so a run
//! on the ideal card needs little headroom, while the commodity
//! technologies the figures compare against are up to two orders of
//! magnitude slower and Fast Ethernet adds another factor of ten. A
//! deadline is a liveness bound, not a performance assertion: it must
//! never fire on a slow-but-live configuration, only on a wedged one —
//! but the tighter INIC bound is what makes hang *detection* cheap
//! enough for the fault-plan minimizer to run dozens of candidate runs.

use acc_net::routing::Attachment as FabricAttachment;
use acc_net::{compute_schedule, FabricSpec, MacAddr, TrunkOutage};
use acc_sim::{SimDuration, SimTime, Watchdog};

use acc_coll::CollectiveOp;

use crate::cluster::{select_algorithm, ClusterSpec, Technology};
use crate::model::{CollModel, FftModel, SortModel};
use crate::runner::Workload;

/// Multiplier between a model-predicted phase time and that phase's
/// liveness budget, per technology. The ratios between a technology's
/// observed times and the INIC-model prediction are at worst ~10x for
/// the prototype card, ~50x for Gigabit TCP, and ~1000x for Fast
/// Ethernet at the small problem sizes the tests use; each bound keeps
/// more than an order of magnitude of margin on top.
fn slack(technology: Technology) -> u64 {
    match technology {
        Technology::FastEthernet => 4096,
        Technology::GigabitTcp => 1024,
        Technology::InicProtocol => 512,
        Technology::InicPrototype => 256,
        Technology::InicIdeal => 64,
    }
}

/// No phase budget is ever smaller than this, however fast the model
/// says the phase should be: small-problem runs are dominated by fixed
/// costs (configuration, interrupts, recovery rounds) the per-byte
/// models do not see.
const PHASE_FLOOR: SimDuration = SimDuration::from_millis(500);

/// Extra whole-run allowance when a fault plan is attached: retransmit
/// timers, abandonment of a dead peer (MAX_RETRIES expiries with
/// backoff), recovery coordination rounds and a restarted attempt.
const FAULT_GRACE: SimDuration = SimDuration::from_secs(2);

/// Baseline event budget for any run (configuration, recovery chatter,
/// auditor ticks).
const BASE_EVENTS: u64 = 5_000_000;

/// Events allowed per KiB of application payload crossing the network.
/// Real traffic costs a handful of events per frame; hundreds per KiB
/// only happen when a retransmit/credit loop stops making progress.
const EVENTS_PER_KIB: u64 = 2_000;

/// Consecutive same-timestamp events tolerated before the run is
/// declared livelocked. Legitimate bursts (a switch fanning a broadcast
/// out to every port at one instant) are thousands of events; a million
/// without the clock moving is a cycle.
const STALL_EVENTS: u64 = 1_000_000;

/// One named phase budget.
#[derive(Clone, Debug)]
pub struct PhaseBudget {
    /// Phase name as the drivers report it (`fft1`, `exchange`, ...).
    pub name: &'static str,
    /// Liveness budget for the phase (slack already applied).
    pub budget: SimDuration,
}

/// The full deadline hierarchy for one run: per-phase budgets nested
/// under a whole-run deadline, plus the event-count bounds handed to
/// the simulation [`Watchdog`].
#[derive(Clone, Debug)]
pub struct DeadlineHierarchy {
    /// Per-phase budgets, in application order.
    pub phases: Vec<PhaseBudget>,
    /// Absolute whole-run deadline.
    pub run_deadline: SimTime,
    /// Event budget for the run.
    pub event_budget: u64,
    /// Same-timestamp livelock threshold.
    pub stall_events: u64,
}

impl DeadlineHierarchy {
    /// Derive the hierarchy for `workload` on the cluster `spec`
    /// describes.
    pub fn for_run(spec: &ClusterSpec, workload: &Workload) -> DeadlineHierarchy {
        let p = spec.p;
        let slack = slack(spec.technology);
        let scaled = |predicted| scale(predicted, slack);
        // Collective phases are lockstep: every rank's round waits on
        // the slowest participating rank. A fault plan that can kill a
        // card degrades that rank to the commodity fallback NIC, so the
        // budgets must price the *degraded* technology — otherwise a
        // legitimately slower mixed TCP/INIC collective trips a false
        // deadline.
        let coll_tech = budget_technology(spec);
        let coll_slack = self::slack(coll_tech);
        let coll_scaled = |predicted| scale(predicted, coll_slack);
        let (mut phases, payload_kib) = match *workload {
            Workload::Fft { rows } => {
                let model = FftModel::new(rows);
                let fft = scaled(model.t_compute(p) / 2);
                let trans = scaled(model.t_trans(p));
                let phases = vec![
                    PhaseBudget {
                        name: "fft1",
                        budget: fft,
                    },
                    PhaseBudget {
                        name: "transpose1",
                        budget: trans,
                    },
                    PhaseBudget {
                        name: "fft2",
                        budget: fft,
                    },
                    PhaseBudget {
                        name: "transpose2",
                        budget: trans,
                    },
                ];
                // Each transpose moves the whole matrix (16 B/element).
                let kib = (rows as u64 * rows as u64 * 16 * 2) / 1024;
                (phases, kib)
            }
            Workload::Sort { total_keys, .. } => {
                let model = SortModel::new(total_keys);
                let host = scaled(model.t_countsort(p));
                let exchange = scaled(model.t_inic(p));
                let phases = vec![
                    PhaseBudget {
                        name: "bucket1",
                        budget: host,
                    },
                    PhaseBudget {
                        name: "exchange",
                        budget: exchange,
                    },
                    PhaseBudget {
                        name: "bucket2",
                        budget: host,
                    },
                    PhaseBudget {
                        name: "count",
                        budget: scaled(model.t_countsort(p)),
                    },
                ];
                (phases, (total_keys * 4) / 1024)
            }
            Workload::AllReduce { elems } => {
                // The flat AllReduce rides the engine with its
                // policy-selected algorithm; budget the phases that
                // algorithm actually has.
                let algo = select_algorithm(spec.technology, CollectiveOp::AllReduce, p, elems);
                let model = CollModel::collective(CollectiveOp::AllReduce, algo, p, elems);
                collective_budgets(&model, coll_tech, p, &coll_scaled)
            }
            Workload::Collective { op, algo, elems } => {
                let model = CollModel::collective(op, algo, p, elems);
                collective_budgets(&model, coll_tech, p, &coll_scaled)
            }
            Workload::Halo { elems, iters } => {
                let model = CollModel::halo(p, elems, iters);
                collective_budgets(&model, coll_tech, p, &coll_scaled)
            }
        };
        // Multi-switch fabrics legitimately inflate every phase: a
        // frame crossing five switches pays five store-and-forward
        // latencies plus per-hop queueing, and failover detours stretch
        // the worst path further. Price the budgets at the worst-case
        // hop inflation over every routing epoch the fault plan
        // induces, so a degraded-but-live run never trips a false
        // deadline.
        let inflation = fabric_inflation(spec);
        if inflation > 1 {
            for ph in &mut phases {
                ph.budget = ph
                    .budget
                    .checked_mul(inflation)
                    .unwrap_or(SimDuration::from_ps(u64::MAX));
            }
        }
        let mut run_budget = SimDuration::from_secs(1); // configuration etc.
        for ph in &phases {
            run_budget = run_budget.saturating_add(ph.budget);
        }
        if let Some(plan) = &spec.fault_plan {
            run_budget = run_budget.saturating_add(FAULT_GRACE);
            if let Some(h) = plan.horizon() {
                // The plan may hold links dark until `h`; nothing can
                // be expected to finish before the last window lifts.
                run_budget = run_budget.saturating_add(h.since(SimTime::ZERO));
            }
        }
        let event_budget = BASE_EVENTS.saturating_add(
            payload_kib
                .saturating_mul(EVENTS_PER_KIB)
                .saturating_mul(p as u64),
        );
        DeadlineHierarchy {
            phases,
            run_deadline: SimTime::ZERO + run_budget,
            event_budget,
            stall_events: STALL_EVENTS,
        }
    }

    /// The budget for a named phase, or the floor for phases the model
    /// does not predict (`init` and any future ones).
    pub fn phase_budget(&self, name: &str) -> SimDuration {
        self.phases
            .iter()
            .find(|ph| ph.name == name)
            .map(|ph| ph.budget)
            .unwrap_or(PHASE_FLOOR)
    }

    /// The simulation watchdog enforcing this hierarchy's outer bounds.
    pub fn watchdog(&self) -> Watchdog {
        Watchdog::unlimited()
            .with_event_budget(self.event_budget)
            .with_stall_events(self.stall_events)
            .with_deadline(self.run_deadline)
    }
}

/// The technology whose model prices a lockstep collective's phase
/// budgets: the slowest technology any participating rank can end up
/// on. Clean runs (and plans without card kills) use the spec's
/// technology; a plan that can kill a card on an INIC run leaves the
/// dead rank on the commodity Gigabit fallback NIC, and every lockstep
/// round then waits on that rank.
fn budget_technology(spec: &ClusterSpec) -> Technology {
    let Some(plan) = &spec.fault_plan else {
        return spec.technology;
    };
    if !spec.technology.is_inic() {
        return spec.technology;
    }
    // A dead edge switch degrades every rank homed on it to the
    // commodity fallback NIC exactly like a card death (see the cluster
    // wiring), so it prices the budgets the same way.
    let switch_victims =
        spec.fabric != FabricSpec::SingleSwitch && !plan.switch_failures().is_empty() && {
            let topo = spec.fabric.build(spec.p);
            plan.switch_failures()
                .iter()
                .any(|&(s, _)| topo.home.contains(&(s as usize)))
        };
    if plan.has_card_failures() || switch_victims {
        Technology::GigabitTcp
    } else {
        spec.technology
    }
}

/// Worst-case routed-path length (in switches) across every routing
/// epoch of the spec's fabric, relative to the single-switch baseline
/// of 1. Pure: recomputed from the spec exactly as the cluster wiring
/// computes it, so the budgets and the fabric always agree.
fn fabric_inflation(spec: &ClusterSpec) -> u64 {
    if spec.fabric == FabricSpec::SingleSwitch {
        return 1;
    }
    let topo = spec.fabric.build(spec.p);
    let attachments: Vec<FabricAttachment> = topo
        .home
        .iter()
        .enumerate()
        .map(|(rank, &switch)| FabricAttachment {
            mac: MacAddr::for_node(rank, 0),
            switch,
            rank,
        })
        .collect();
    let (outages, kills) = match &spec.fault_plan {
        Some(pl) => (
            pl.link_downs()
                .iter()
                .map(|&(a, b, from, until)| TrunkOutage {
                    a: a as usize,
                    b: b as usize,
                    from,
                    until,
                })
                .collect(),
            pl.switch_failures()
                .iter()
                .map(|&(s, at)| (s as usize, at))
                .collect(),
        ),
        None => (Vec::new(), Vec::new()),
    };
    compute_schedule(&topo, &attachments, &outages, &kills).max_inflation() as u64
}

/// Per-phase budgets for an engine schedule: the collective model's
/// per-phase predictions for this technology, slack-scaled, plus the
/// watchdog payload term from the schedule's critical-path wire volume.
fn collective_budgets(
    model: &CollModel,
    technology: Technology,
    p: usize,
    scaled: &impl Fn(SimDuration) -> SimDuration,
) -> (Vec<PhaseBudget>, u64) {
    let phases = model
        .phase_predictions(technology)
        .into_iter()
        .map(|(name, predicted)| PhaseBudget {
            name,
            budget: scaled(predicted),
        })
        .collect();
    (phases, model.wire_bytes() * p as u64 / 1024)
}

/// Slack-multiplied, floored phase budget.
fn scale(predicted: SimDuration, slack: u64) -> SimDuration {
    let scaled = predicted
        .checked_mul(slack)
        .unwrap_or(SimDuration::from_ps(u64::MAX));
    if scaled < PHASE_FLOOR {
        PHASE_FLOOR
    } else {
        scaled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{KeyDistribution, PartitionStrategy, Technology};
    use acc_chaos::{FaultEvent, LinkId};

    /// The paper's sort of `total_keys` keys.
    fn sort(total_keys: u64) -> Workload {
        Workload::Sort {
            total_keys,
            distribution: KeyDistribution::Uniform,
            strategy: PartitionStrategy::TopBits,
        }
    }

    #[test]
    fn phase_budgets_scale_with_problem_size() {
        let spec = ClusterSpec::new(4, Technology::GigabitTcp);
        let small = DeadlineHierarchy::for_run(&spec, &Workload::Fft { rows: 64 });
        let large = DeadlineHierarchy::for_run(&spec, &Workload::Fft { rows: 1024 });
        assert!(large.phase_budget("transpose1") > small.phase_budget("transpose1"));
        assert!(large.run_deadline > small.run_deadline);
        assert!(large.event_budget > small.event_budget);
    }

    #[test]
    fn slower_technologies_get_wider_budgets() {
        // Same workload, same model prediction — the slower wire gets
        // the larger slack, so its liveness bound still cannot fire on
        // a slow-but-live run. Sizes large enough to clear the floor.
        let wl = Workload::Fft { rows: 2048 };
        let inic = DeadlineHierarchy::for_run(&ClusterSpec::new(4, Technology::InicIdeal), &wl);
        let fe = DeadlineHierarchy::for_run(&ClusterSpec::new(4, Technology::FastEthernet), &wl);
        assert!(fe.phase_budget("transpose1") > inic.phase_budget("transpose1"));
        assert!(fe.run_deadline > inic.run_deadline);
    }

    #[test]
    fn budgets_never_fall_below_the_floor() {
        let spec = ClusterSpec::new(2, Technology::InicIdeal);
        let h = DeadlineHierarchy::for_run(&spec, &sort(1 << 8));
        for ph in &h.phases {
            assert!(ph.budget >= PHASE_FLOOR, "{} below floor", ph.name);
        }
        // Unknown phases get the floor, not zero.
        assert_eq!(h.phase_budget("init"), PHASE_FLOOR);
    }

    #[test]
    fn fault_plan_extends_the_run_deadline() {
        let clean = ClusterSpec::new(4, Technology::InicIdeal);
        let base = DeadlineHierarchy::for_run(&clean, &sort(1 << 12));
        let plan = acc_chaos::FaultPlan::new(1).with(FaultEvent::LinkOutage {
            link: LinkId::NodeUplink(1),
            from: SimTime::ZERO + SimDuration::from_millis(1),
            until: SimTime::ZERO + SimDuration::from_millis(900),
        });
        let faulted = clean.with_fault_plan(plan);
        let fh = DeadlineHierarchy::for_run(&faulted, &sort(1 << 12));
        assert!(fh.run_deadline > base.run_deadline);
    }

    #[test]
    fn degraded_collectives_are_priced_at_the_slowest_rank() {
        // A card-kill plan leaves the dead rank on the Gigabit fallback
        // NIC, and lockstep rounds wait on the slowest rank: the phase
        // budgets must match the GigabitTcp-priced hierarchy, not the
        // INIC one, or a legitimately degraded run trips a false
        // deadline. Sizes large enough to clear the phase floor.
        let wl = Workload::Collective {
            op: acc_coll::CollectiveOp::AllReduce,
            algo: acc_coll::Algorithm::Ring,
            elems: 1 << 20,
        };
        let clean = ClusterSpec::new(4, Technology::InicIdeal);
        let kill = acc_chaos::FaultPlan::new(7).with(FaultEvent::CardFailure {
            node: 1,
            at: SimTime::ZERO + SimDuration::from_millis(61),
        });
        let degraded = clean.clone().with_fault_plan(kill);
        let ch = DeadlineHierarchy::for_run(&clean, &wl);
        let dh = DeadlineHierarchy::for_run(&degraded, &wl);
        let gb = DeadlineHierarchy::for_run(&ClusterSpec::new(4, Technology::GigabitTcp), &wl);
        for ph in &dh.phases {
            assert!(
                ph.budget > ch.phase_budget(ph.name),
                "{}: degraded budget must widen past the clean INIC bound",
                ph.name
            );
            assert_eq!(
                ph.budget,
                gb.phase_budget(ph.name),
                "{}: degraded budget prices the commodity fallback",
                ph.name
            );
        }
        // A plan without card kills changes nothing: stalls and link
        // impairments never change any rank's technology.
        let stall = acc_chaos::FaultPlan::new(8).with(FaultEvent::LinkOutage {
            link: LinkId::NodeUplink(1),
            from: SimTime::ZERO + SimDuration::from_millis(1),
            until: SimTime::ZERO + SimDuration::from_millis(9),
        });
        let jittered = clean.with_fault_plan(stall);
        let jh = DeadlineHierarchy::for_run(&jittered, &wl);
        for ph in &jh.phases {
            assert_eq!(ph.budget, ch.phase_budget(ph.name));
        }
    }

    #[test]
    fn watchdog_mirrors_the_hierarchy() {
        let spec = ClusterSpec::new(2, Technology::GigabitTcp);
        let h = DeadlineHierarchy::for_run(&spec, &Workload::AllReduce { elems: 1 << 10 });
        let wd = h.watchdog();
        assert_eq!(wd.event_budget, h.event_budget);
        assert_eq!(wd.stall_events, h.stall_events);
        assert_eq!(wd.deadline, Some(h.run_deadline));
    }
}
