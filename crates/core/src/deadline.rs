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
//!
//! Whether a rank can degrade to the fallback NIC and how far the
//! fabric stretches a path both come from the run's plan (`plan.rs`),
//! the same facts the cluster wiring acts on.

use acc_coll::Schedule;
use acc_sim::{SimDuration, SimTime, Watchdog};

use crate::cluster::{ClusterSpec, Technology};
use crate::model::{CollModel, FftModel, SortModel};
use crate::plan::RunPlan;
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
    /// describes: the budgets [`crate::RunRequest::execute`] runs under,
    /// priced from the same derived facts the wiring acts on.
    pub fn for_run(spec: &ClusterSpec, workload: &Workload) -> DeadlineHierarchy {
        RunPlan::new(spec, workload).deadlines
    }

    /// Price `workload` on `spec`. `schedules` is the engine run's
    /// per-rank schedule set (empty for the FFT and the sort);
    /// `degraded` says some rank can end up on the commodity Gigabit
    /// fallback NIC (a card kill, or an edge switch kill, on an INIC
    /// run); `inflation` is the worst routed path, in switches, over
    /// every epoch of the run's routing timeline (1 on the single
    /// switch).
    pub(crate) fn price(
        spec: &ClusterSpec,
        workload: &Workload,
        schedules: &[Schedule],
        degraded: bool,
        inflation: u64,
    ) -> DeadlineHierarchy {
        let p = spec.p;
        let slack = slack(spec.technology);
        let scaled = |predicted| scale(predicted, slack);
        // Collective phases are lockstep: every rank's round waits on
        // the slowest participating rank, so a run that can strand a
        // rank on the fallback NIC prices its collective budgets at the
        // commodity technology — otherwise a legitimately slower mixed
        // TCP/INIC collective trips a false deadline.
        let coll_tech = if degraded {
            Technology::GigabitTcp
        } else {
            spec.technology
        };
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
            // An engine run budgets the phases its schedules have (the
            // flat AllReduce's are its policy-selected algorithm's),
            // with the watchdog payload term from the schedules'
            // critical-path wire volume.
            Workload::AllReduce { .. } | Workload::Collective { .. } | Workload::Halo { .. } => {
                let model = CollModel::of(schedules);
                let phases = model.phase_predictions(coll_tech).into_iter();
                let phases = phases.map(|(name, predicted)| PhaseBudget {
                    name,
                    budget: coll_scaled(predicted),
                });
                (phases.collect(), model.wire_bytes() * p as u64 / 1024)
            }
        };
        // Multi-switch fabrics legitimately inflate every phase: a
        // frame crossing five switches pays five store-and-forward
        // latencies plus per-hop queueing, and failover detours stretch
        // the worst path further. Pricing at the worst-case inflation
        // keeps a degraded-but-live run from tripping a false deadline.
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
    use acc_net::FabricSpec;

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
        // A dead edge switch strands the ranks it homes exactly like
        // card deaths, so it prices at the fallback too; a dead core
        // switch homes no rank and keeps the INIC pricing. Each is
        // compared on the same fabric, so hop inflation cancels out.
        let fat = |technology, kill: Option<u32>| {
            let spec = ClusterSpec::new(8, technology).with_fabric(FabricSpec::FatTree { k: 4 });
            let spec = match kill {
                Some(switch) => spec.with_fault_plan(acc_chaos::FaultPlan::new(9).with(
                    FaultEvent::SwitchFailure {
                        switch,
                        at: SimTime::ZERO + SimDuration::from_millis(61),
                    },
                )),
                None => spec,
            };
            DeadlineHierarchy::for_run(&spec, &wl)
        };
        let fat_clean = fat(Technology::InicIdeal, None);
        let edge = fat(Technology::InicIdeal, Some(0));
        let edge_gb = fat(Technology::GigabitTcp, Some(0));
        let core = fat(Technology::InicIdeal, Some(19));
        for ph in &edge.phases {
            assert!(ph.budget > fat_clean.phase_budget(ph.name), "{}", ph.name);
            assert_eq!(ph.budget, edge_gb.phase_budget(ph.name), "{}", ph.name);
        }
        for ph in &core.phases {
            assert_eq!(ph.budget, fat_clean.phase_budget(ph.name), "{}", ph.name);
        }
    }

    #[test]
    fn degraded_budgets_price_the_fallback_detour() {
        // On fat-tree k=4 at p=2 both ranks sit on edge switch 0, so a
        // primary path crosses one switch. The fallback NICs a card
        // kill brings in attach to the next edge switch, and that
        // detour crosses three: the budgets price the path the
        // degraded run takes, not the primary one.
        let wl = Workload::Collective {
            op: acc_coll::CollectiveOp::AllReduce,
            algo: acc_coll::Algorithm::Ring,
            elems: 1 << 20,
        };
        let kill = acc_chaos::FaultPlan::new(7).with(FaultEvent::CardFailure {
            node: 1,
            at: SimTime::ZERO + SimDuration::from_millis(61),
        });
        let single = ClusterSpec::new(2, Technology::InicIdeal).with_fault_plan(kill);
        let fat = single.clone().with_fabric(FabricSpec::FatTree { k: 4 });
        let plan = RunPlan::new(&fat, &wl);
        let inflation = plan.timeline.as_ref().expect("fabric").max_inflation() as u64;
        assert_eq!(inflation, 3);
        let base = DeadlineHierarchy::for_run(&single, &wl);
        for ph in &plan.deadlines.phases {
            let expect = base.phase_budget(ph.name).checked_mul(inflation);
            assert_eq!(Some(ph.budget), expect, "{}", ph.name);
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
