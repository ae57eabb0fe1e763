//! Fault-tolerant collectives: every engine cell must survive a
//! mid-schedule card death under all three recovery policies, random
//! fault plans must never corrupt a result (correct data or an
//! attributed hang — nothing in between), and the fault-plan minimizer
//! must work on lockstep schedules.

use acc::coll::{Algorithm, CollectiveOp};
use acc::core::cluster::{ClusterSpec, Technology};
use acc::core::{DeadlineHierarchy, RecoveryPolicy, RunOutcome, RunRequest, Workload};
use acc::sim::{SimDuration, SimRng, SimTime};
use acc_chaos::{FaultEvent, FaultPlan, LinkId};

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

const P: usize = 4;

/// Large enough that every data-moving schedule is still in flight
/// when the 61 ms kill lands (the 60 ms bitstream load gates the
/// start); divisible by 2, 3 and every power of two the algorithms
/// need. Barrier cells carry no payload and may already be done — a
/// post-completion kill still runs the whole recovery protocol and
/// must leave the answer untouched.
const ELEMS: usize = 6144;

/// Every (op, algo) cell is bit-correct under a single mid-schedule
/// card death, for all three recovery policies. The kill time rotates
/// over the first post-configuration milliseconds so the fault lands in
/// different rounds of different schedules.
#[test]
fn every_cell_survives_a_card_kill_under_every_policy() {
    let policies = [
        RecoveryPolicy::Checkpointed,
        RecoveryPolicy::FullRestart,
        RecoveryPolicy::RankLocal,
    ];
    let mut cell = 0u64;
    for op in CollectiveOp::ALL {
        for algo in op.algorithms() {
            assert!(acc::coll::supports(op, algo, P, ELEMS), "{op}/{algo}");
            for policy in policies {
                let node = 1 + (cell % (P as u64 - 1)) as u32; // never rank 0
                let at = ms(61 + cell % 4);
                cell += 1;
                let plan = FaultPlan::new(0xC0DE + cell).with(FaultEvent::CardFailure { node, at });
                let spec = ClusterSpec::new(P, Technology::InicIdeal)
                    .with_fault_plan(plan)
                    .with_recovery_policy(policy);
                let outcome = RunRequest::collective(spec, op, algo, ELEMS).execute();
                assert!(
                    !outcome.is_hung(),
                    "{op}/{algo} {policy:?} hung:\n{:?}",
                    outcome.hang()
                );
                let r = outcome.into_coll();
                assert!(r.verified, "{op}/{algo} {policy:?}: wrong data");
                match policy {
                    RecoveryPolicy::FullRestart => assert_eq!(
                        r.faults.degraded_nodes, P as u64,
                        "{op}/{algo}: full restart degrades every rank"
                    ),
                    RecoveryPolicy::Checkpointed | RecoveryPolicy::RankLocal => {
                        assert_eq!(
                            r.faults.degraded_nodes, 1,
                            "{op}/{algo} {policy:?}: only the dead rank degrades"
                        );
                        assert!(
                            r.faults.resumed_from_phase.is_some(),
                            "{op}/{algo} {policy:?}: the coordinator must resume the run"
                        );
                    }
                }
            }
        }
    }
}

/// A kill landing inside the 60 ms configuration window: the resume is
/// parked until `InicConfigured` and the run still completes correctly
/// with the survivors' cards intact. The last instants (59.7–60.0 ms)
/// put the coordinator's verdict on the far side of the bitstream load,
/// so the card finishes configuring while every rank is parked: no
/// driver may start then, or the resume announces its streams twice.
/// FFT and sort share the collective's failover core and must hold the
/// same line.
#[test]
fn config_window_kill_parks_the_resume_until_configured() {
    for at_us in [1_000u64, 30_000, 59_700, 59_900, 60_000] {
        let spec = || {
            let plan = FaultPlan::new(0xAB5E).with(FaultEvent::CardFailure {
                node: 2,
                at: SimTime::ZERO + SimDuration::from_micros(at_us),
            });
            ClusterSpec::new(P, Technology::InicIdeal).with_fault_plan(plan)
        };
        let requests = [
            (
                "allreduce",
                RunRequest::collective(spec(), CollectiveOp::AllReduce, Algorithm::Ring, ELEMS),
            ),
            ("fft", RunRequest::fft(spec(), 64)),
            ("sort", RunRequest::sort(spec(), 1 << 14)),
        ];
        for (name, request) in requests {
            let outcome = request.execute();
            assert!(
                !outcome.is_hung(),
                "{name} kill at {at_us} us must not hang:\n{:?}",
                outcome.hang()
            );
            let faults = match outcome {
                RunOutcome::Coll(r) => {
                    assert!(r.verified, "{name} kill at {at_us} us: wrong data");
                    r.faults
                }
                RunOutcome::Fft(r) => {
                    assert!(r.verified, "{name} kill at {at_us} us: wrong data");
                    r.faults
                }
                RunOutcome::Sort(r) => {
                    assert!(r.verified, "{name} kill at {at_us} us: wrong data");
                    r.faults
                }
                other => panic!("{name}: unexpected outcome {other:?}"),
            };
            assert_eq!(faults.degraded_nodes, 1, "{name} kill at {at_us} us");
            assert_eq!(
                faults.resumed_from_phase,
                Some(0),
                "{name} kill at {at_us} us: nothing completed before the kill, resume from the start"
            );
        }
    }
}

/// Build a seeded random fault plan mixing the shapes the soak harness
/// throws at the engine: loss, jitter, a stall window, sometimes a
/// bounded outage, sometimes a card kill.
fn random_plan(seed: u64) -> FaultPlan {
    let mut rng = SimRng::seed_from(seed);
    let mut plan = FaultPlan::new(seed).with(FaultEvent::FrameLoss {
        link: LinkId::All,
        prob: rng.gen_range(20) as f64 / 1000.0,
    });
    if rng.gen_range(2) == 0 {
        plan = plan.with(FaultEvent::LinkJitter {
            link: LinkId::NodeUplink(rng.gen_range(P as u64) as u32),
            max: SimDuration::from_micros(1 + rng.gen_range(200)),
        });
    }
    if rng.gen_range(2) == 0 {
        let from = 1 + rng.gen_range(80);
        plan = plan.with(FaultEvent::NodeStall {
            node: rng.gen_range(P as u64) as u32,
            from: ms(from),
            until: ms(from + 1 + rng.gen_range(3)),
        });
    }
    if rng.gen_range(2) == 0 {
        let from = 1 + rng.gen_range(80);
        plan = plan.with(FaultEvent::LinkOutage {
            link: LinkId::NodeUplink(rng.gen_range(P as u64) as u32),
            from: ms(from),
            until: ms(from + 1 + rng.gen_range(5)),
        });
    }
    if rng.gen_range(2) == 0 {
        plan = plan.with(FaultEvent::CardFailure {
            node: rng.gen_range(P as u64) as u32,
            at: ms(1 + rng.gen_range(80)),
        });
    }
    plan
}

/// Property: over seeded random fault plans, recovery never yields
/// wrong data — every run either verifies bit-exact against the oracle
/// or surfaces a structured, attributed `HangReport`. No silent
/// corruption, no panics.
#[test]
fn random_fault_plans_yield_correct_data_or_an_attributed_hang() {
    let cells = [
        (CollectiveOp::AllReduce, Algorithm::Ring),
        (CollectiveOp::ReduceScatter, Algorithm::RecursiveHalving),
        (CollectiveOp::AllGather, Algorithm::RecursiveDoubling),
        (CollectiveOp::AllToAll, Algorithm::Bruck),
    ];
    let mut hangs = 0usize;
    let mut completions = 0usize;
    for seed in 0..12u64 {
        let (op, algo) = cells[seed as usize % cells.len()];
        let plan = random_plan(0x5EED_0000 + seed);
        let spec = ClusterSpec::new(P, Technology::InicIdeal)
            .with_fault_plan(plan.clone())
            .with_quiet(true);
        let horizon = DeadlineHierarchy::for_run(
            &spec,
            &Workload::Collective {
                op,
                algo,
                elems: ELEMS,
            },
        )
        .run_deadline;
        plan.validate_for(P as u32, horizon)
            .unwrap_or_else(|e| panic!("seed {seed}: generated an invalid plan: {e}"));
        match RunRequest::collective(spec, op, algo, ELEMS).execute() {
            RunOutcome::Coll(r) => {
                assert!(r.verified, "seed {seed} {op}/{algo}: wrong data");
                completions += 1;
            }
            RunOutcome::Hung(report) => {
                assert!(
                    report.attribution().contains("on rank"),
                    "seed {seed}: hang must be attributed: {}",
                    report.attribution()
                );
                hangs += 1;
            }
            other => panic!("seed {seed}: unexpected outcome {other:?}"),
        }
    }
    assert_eq!(hangs + completions, 12);
    assert!(
        completions >= 6,
        "most bounded-fault runs should recover and complete ({completions}/12)"
    );
}

/// The soak's round-036 cell, replayed from its minimized plan. Rank
/// 2's first segment to rank 3 is lost twice, and the ACK that finally
/// covers it also covers a segment sent once. Taking an RTT sample from
/// that ACK breaks Karn's rule: it read 3 s, the RTO became 9 s, and a
/// later loss on the flow waited past the run deadline.
#[test]
fn ring_allreduce_survives_a_segment_lost_twice() {
    let plan = FaultPlan::from_text(
        "seed 0x223e8d49fe76cde5\n\
         frame-loss link=all prob=0.01308\n\
         link-jitter link=all max=17000000\n\
         frame-corruption link=all prob=8.153915405273437e-10\n",
    )
    .expect("the soak artifact's plan parses");
    let spec = ClusterSpec::new(P, Technology::GigabitTcp)
        .with_fault_plan(plan)
        .with_quiet(true);
    let r = RunRequest::collective(spec, CollectiveOp::AllReduce, Algorithm::Ring, 4096)
        .execute()
        .into_coll();
    assert!(r.verified);
}

/// ddmin on a lockstep schedule: a four-event plan whose only wedging
/// ingredient is an unbounded outage must minimize to exactly that one
/// event, with the noise (loss, jitter, a survivable stall) shed.
#[test]
fn minimizer_isolates_the_wedging_event_on_a_lockstep_schedule() {
    let outage = FaultEvent::LinkOutage {
        link: LinkId::NodeUplink(1),
        from: SimTime::ZERO + SimDuration::from_micros(1),
        until: SimTime::ZERO + SimDuration::from_secs(600),
    };
    let plan = FaultPlan::new(0xDD11)
        .with(FaultEvent::FrameLoss {
            link: LinkId::All,
            prob: 0.005,
        })
        .with(FaultEvent::LinkJitter {
            link: LinkId::NodeUplink(2),
            max: SimDuration::from_micros(50),
        })
        .with(outage.clone())
        .with(FaultEvent::NodeStall {
            node: 3,
            from: ms(61),
            until: ms(63),
        });
    let wedges = |candidate: &FaultPlan| {
        let spec = ClusterSpec::new(P, Technology::InicIdeal)
            .with_fault_plan(candidate.clone())
            .with_quiet(true);
        RunRequest::collective(spec, CollectiveOp::AllReduce, Algorithm::Ring, ELEMS)
            .execute()
            .is_hung()
    };
    assert!(wedges(&plan), "the full plan must wedge the collective");
    let minimal = plan.minimize(|cands| cands.iter().map(wedges).collect());
    assert_eq!(
        minimal.events().len(),
        1,
        "ddmin must shed the three noise events: {minimal:?}"
    );
    assert!(
        matches!(
            minimal.events()[0],
            FaultEvent::LinkOutage {
                link: LinkId::NodeUplink(1),
                ..
            }
        ),
        "the outage is the wedging ingredient: {minimal:?}"
    );
    assert!(wedges(&minimal), "the minimized plan must still wedge");
}
