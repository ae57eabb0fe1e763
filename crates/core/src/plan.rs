//! What one run derives from its spec, derived once.
//!
//! [`RunPlan::new`] reads a [`ClusterSpec`] and a [`Workload`] and works
//! out every fact the cluster wiring, the deadline budgets and the
//! collective offload pre-flight act on: the fabric and its routing
//! timeline, which ranks lose their primary datapath and when, where
//! the fallback NICs attach, the recovery policy in force, whether the
//! card runs without its reliability protocol, which card each rank
//! carries, an engine run's schedules, and the deadline hierarchy
//! priced from those facts.
//! [`crate::RunRequest::execute`] builds one per run; nothing else
//! re-derives them.

use std::collections::BTreeSet;

use acc_chaos::FaultPlan;
use acc_coll::{CollectiveOp, Schedule};
use acc_fpga::InicMode;
use acc_net::routing::Attachment;
use acc_net::{compute_schedule, FabricSchedule, FabricSpec, MacAddr, Topology, TrunkOutage};
use acc_sim::SimTime;

use crate::cluster::{select_algorithm, Card, ClusterSpec};
use crate::deadline::DeadlineHierarchy;
use crate::drivers::RecoveryPolicy;
use crate::runner::Workload;

/// The facts of one run.
pub(crate) struct RunPlan {
    /// The fabric, built once from the spec.
    pub(crate) topo: Topology,
    /// Ranks that lose their primary datapath, each with its instant:
    /// the plan's card kills in plan order, then the ranks homed on
    /// each killed switch. A dead edge switch takes its ranks off the
    /// fabric at one instant, which the cluster cannot tell from all
    /// their cards dying at once, so the same recovery applies.
    pub(crate) stranded: Vec<(u32, SimTime)>,
    /// The edge switch each rank's commodity fallback NIC attaches to,
    /// or `None` when no fallback NICs are wired: on the host-TCP
    /// technologies, and on INIC runs that strand no rank. Fallback
    /// homes steer around every switch the plan kills, so one failure
    /// never takes both of a rank's attachment points.
    pub(crate) fallback_homes: Option<Vec<usize>>,
    /// The card-failure recovery policy in force. A pure protocol
    /// processor has no card datapath worth keeping, so its only
    /// recovery is the full restart.
    pub(crate) policy: RecoveryPolicy,
    /// The routing timeline, on multi-switch fabrics only. It routes
    /// the fallback MACs too, so its hop bound covers the detours a
    /// degraded run takes.
    pub(crate) timeline: Option<FabricSchedule>,
    /// Whether the card runs without its reliability protocol: only on
    /// an unfaulted single switch, the one case its no-loss scheduling
    /// guarantee was derived for. Shared trunks can drop under
    /// contention, and a re-routed path must recover the frames the
    /// old one had in flight.
    pub(crate) lossless: bool,
    /// The card every rank carries (see
    /// [`Technology::card`](crate::cluster::Technology::card)), `None` on
    /// the host-TCP technologies.
    pub(crate) card: Option<Card>,
    /// An engine run's per-rank schedules, built once (empty for the
    /// FFT and the sort): the flat AllReduce runs its policy-selected
    /// algorithm. The pricing, the offload pre-flights, the debug-build
    /// proofs and the drivers all read this one set.
    pub(crate) schedules: Vec<Schedule>,
    /// The budgets the run executes under.
    pub(crate) deadlines: DeadlineHierarchy,
}

impl RunPlan {
    /// Derive the facts of running `workload` on the cluster `spec`
    /// describes.
    ///
    /// # Panics
    /// Panics if the fault plan does not fit the fabric (a fabric fault
    /// naming a trunk or switch the topology lacks, or any fabric fault
    /// on the single switch) or kills a card beyond `p`, and on an
    /// engine workload `acc-coll` cannot build.
    pub(crate) fn new(spec: &ClusterSpec, workload: &Workload) -> RunPlan {
        let faults = spec.fault_plan.as_ref();
        let multi_switch = spec.fabric != FabricSpec::SingleSwitch;
        if let Some(pl) = faults.filter(|pl| multi_switch || pl.has_fabric_faults()) {
            if let Err(e) = pl.validate_for_fabric(spec.p as u32, SimTime::MAX, &spec.fabric) {
                panic!("invalid fault plan for fabric {}: {e}", spec.fabric);
            }
        }
        let topo = spec.fabric.build(spec.p);
        let switch_kills: Vec<(usize, SimTime)> = faults
            .map(|pl| {
                pl.switch_failures()
                    .iter()
                    .map(|&(s, at)| (s as usize, at))
                    .collect()
            })
            .unwrap_or_default();
        let mut stranded = faults.map(FaultPlan::card_failures).unwrap_or_default();
        assert!(
            stranded.iter().all(|&(node, _)| (node as usize) < spec.p),
            "fault plan kills a card beyond P"
        );
        for &(s, at) in &switch_kills {
            stranded.extend(
                (0..spec.p)
                    .filter(|&r| topo.home[r] == s)
                    .map(|r| (r as u32, at)),
            );
        }
        let card = spec.technology.card();
        // Whichever policy applies, every rank needs the fallback path:
        // under full restart the whole run degrades, under rank-local
        // recovery healthy ranks use it for the mixed-technology side
        // streams.
        let fallback_homes = (card.is_some() && !stranded.is_empty()).then(|| {
            let doomed: BTreeSet<usize> = switch_kills.iter().map(|&(s, _)| s).collect();
            (0..spec.p)
                .map(|rank| topo.fallback_home_avoiding(rank, &doomed))
                .collect::<Vec<usize>>()
        });
        let timeline = multi_switch.then(|| {
            let attach = |nic: usize, homes: &[usize]| {
                homes
                    .iter()
                    .enumerate()
                    .map(|(rank, &switch)| Attachment {
                        mac: MacAddr::for_node(rank, nic),
                        switch,
                        rank,
                    })
                    .collect::<Vec<Attachment>>()
            };
            let mut attachments = attach(0, &topo.home);
            if let Some(homes) = &fallback_homes {
                attachments.extend(attach(1, homes));
            }
            let outages: Vec<TrunkOutage> = faults
                .map(|pl| {
                    pl.link_downs()
                        .iter()
                        .map(|&(a, b, from, until)| TrunkOutage {
                            a: a as usize,
                            b: b as usize,
                            from,
                            until,
                        })
                        .collect()
                })
                .unwrap_or_default();
            compute_schedule(&topo, &attachments, &outages, &switch_kills)
        });
        let inflation = timeline.as_ref().map_or(1, |t| t.max_inflation() as u64);
        let p = spec.p;
        let schedules = match *workload {
            Workload::Fft { .. } | Workload::Sort { .. } => Vec::new(),
            Workload::AllReduce { elems } => {
                let op = CollectiveOp::AllReduce;
                let algo = select_algorithm(spec.technology, op, p, elems);
                acc_coll::plan::build_all(op, algo, p, elems)
            }
            Workload::Collective { op, algo, elems } => {
                acc_coll::plan::build_all(op, algo, p, elems)
            }
            Workload::Halo { elems, iters } => (0..p)
                .map(|rank| acc_coll::plan::halo(rank, p, elems, iters))
                .collect(),
        };
        let degraded = fallback_homes.is_some();
        let deadlines = DeadlineHierarchy::price(spec, workload, &schedules, degraded, inflation);
        RunPlan {
            topo,
            stranded,
            fallback_homes,
            policy: if matches!(card, Some((_, _, InicMode::ProtocolProcessor))) {
                RecoveryPolicy::FullRestart
            } else {
                spec.recovery
            },
            timeline,
            lossless: faults.is_none() && !multi_switch,
            card,
            schedules,
            deadlines,
        }
    }
}
