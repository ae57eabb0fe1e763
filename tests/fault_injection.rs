//! Resilience integration tests: the applications must produce exactly
//! the fault-free answer when the network loses frames, and must
//! complete over the commodity fallback path when an INIC card dies
//! mid-run. Result verification stays ON in every run — each scenario's
//! output is checked against the serial oracle, i.e. the fault-free
//! result. Runs with an attached fault plan also carry the online
//! Auditor, so every assertion below is additionally backed by the
//! conservation invariants it checks during the run.

use acc_chaos::{FaultEvent, FaultPlan, LinkId};
use acc_core::cluster::{ClusterSpec, Technology};
use acc_core::{RecoveryPolicy, RunRequest};
use acc_sim::{SimDuration, SimTime};

/// A plan losing `pct`% of frames independently on every link.
fn lossy_plan(seed: u64, pct: f64) -> FaultPlan {
    FaultPlan::new(seed).with(FaultEvent::FrameLoss {
        link: LinkId::All,
        prob: pct / 100.0,
    })
}

fn spec_with_loss(technology: Technology, pct: f64) -> ClusterSpec {
    ClusterSpec::new(4, technology).with_fault_plan(lossy_plan(0xBAD, pct))
}

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

#[test]
fn sort_correct_under_loss_gigabit() {
    let r = RunRequest::sort(spec_with_loss(Technology::GigabitTcp, 2.0), 1 << 16)
        .execute()
        .into_sort();
    assert!(r.verified, "sorted output must equal the fault-free result");
    assert!(
        r.faults.retransmits > 0,
        "2% loss must force TCP retransmissions"
    );
    assert_eq!(r.faults.degraded_nodes, 0);
}

#[test]
fn sort_correct_under_loss_inic() {
    let r = RunRequest::sort(spec_with_loss(Technology::InicIdeal, 2.0), 1 << 16)
        .execute()
        .into_sort();
    assert!(r.verified, "sorted output must equal the fault-free result");
    assert!(
        r.faults.retransmits > 0,
        "2% loss must force INIC recovery resends"
    );
    assert_eq!(r.faults.degraded_nodes, 0);
}

#[test]
fn fft_correct_under_loss_gigabit() {
    let r = RunRequest::fft(spec_with_loss(Technology::GigabitTcp, 1.0), 64)
        .execute()
        .into_fft();
    assert!(r.verified, "FFT output must equal the fault-free result");
    assert!(
        r.faults.retransmits > 0,
        "1% loss must force TCP retransmissions"
    );
    assert_eq!(r.faults.degraded_nodes, 0);
}

#[test]
fn fft_correct_under_loss_inic() {
    let r = RunRequest::fft(spec_with_loss(Technology::InicIdeal, 1.0), 64)
        .execute()
        .into_fft();
    assert!(r.verified, "FFT output must equal the fault-free result");
    assert!(
        r.faults.retransmits > 0,
        "1% loss must force INIC recovery resends"
    );
    assert_eq!(r.faults.degraded_nodes, 0);
}

#[test]
fn corruption_and_reorder_do_not_corrupt_results() {
    let plan = FaultPlan::new(7)
        .with(FaultEvent::FrameCorruption {
            link: LinkId::All,
            prob: 0.01,
        })
        .with(FaultEvent::FrameReorder {
            link: LinkId::All,
            prob: 0.02,
            delay: SimDuration::from_micros(200),
        });
    // Pinned: the corruption path draws the same RNG stream over the
    // frame's header and payload and rejects the same frames, so the
    // simulated total, the codec rejections (TCP checksum drops, INIC
    // decode drops) and the retransmissions stay exactly these.
    for (technology, total_ps, rejected, retransmits) in [
        (Technology::GigabitTcp, 204_276_117_283, 8, 7),
        (Technology::InicIdeal, 2_959_569_225, 8, 14),
    ] {
        let spec = ClusterSpec::new(4, technology).with_fault_plan(plan.clone());
        let r = RunRequest::sort(spec, 1 << 16).execute().into_sort();
        assert!(r.verified, "{technology:?} result diverged");
        assert_eq!(
            (r.total.as_ps(), r.rejected_frames, r.faults.retransmits),
            (total_ps, rejected, retransmits),
            "{technology:?}: (total ps, rejected frames, retransmits)"
        );
    }
}

/// A mid-run permanent card death under the default (checkpointed,
/// rank-local) policy: only the dead rank falls back to its commodity
/// NIC, the survivors keep their INICs, and the collective resumes from
/// the last completed phase instead of restarting from scratch.
#[test]
fn sort_survives_mid_run_card_failure() {
    let plan = FaultPlan::new(0xDEAD).with(FaultEvent::CardFailure { node: 1, at: ms(1) });
    let spec = ClusterSpec::new(4, Technology::InicIdeal).with_fault_plan(plan);
    let r = RunRequest::sort(spec, 1 << 16).execute().into_sort();
    assert!(r.verified, "degraded run must still sort correctly");
    assert_eq!(
        r.faults.degraded_nodes, 1,
        "rank-local recovery degrades exactly the dead rank"
    );
    assert!(
        r.faults.resumed_from_phase.is_some(),
        "a card failure must trigger a checkpointed resume"
    );
}

#[test]
fn fft_survives_mid_run_card_failure() {
    let plan = FaultPlan::new(0xF0F0).with(FaultEvent::CardFailure { node: 2, at: ms(1) });
    let spec = ClusterSpec::new(4, Technology::InicIdeal).with_fault_plan(plan);
    let r = RunRequest::fft(spec, 64).execute().into_fft();
    assert!(r.verified, "degraded run must still compute the right FFT");
    assert_eq!(
        r.faults.degraded_nodes, 1,
        "rank-local recovery degrades exactly the dead rank"
    );
    assert!(
        r.faults.resumed_from_phase.is_some(),
        "a card failure must trigger a checkpointed resume"
    );
}

/// The same card deaths under the pinned full-restart policy: every
/// rank abandons its card and the whole collective restarts over the
/// commodity fallback NICs — the pre-checkpoint behaviour, kept as an
/// explicit opt-in for the ablation.
#[test]
fn full_restart_policy_degrades_every_rank() {
    let plan = FaultPlan::new(0xDEAD).with(FaultEvent::CardFailure { node: 1, at: ms(1) });
    let spec = ClusterSpec::new(4, Technology::InicIdeal)
        .with_fault_plan(plan)
        .with_recovery_policy(RecoveryPolicy::FullRestart);
    let r = RunRequest::sort(spec, 1 << 16).execute().into_sort();
    assert!(r.verified, "full-restart run must still sort correctly");
    assert_eq!(
        r.faults.degraded_nodes, 4,
        "every rank restarts over the fallback path"
    );

    let plan = FaultPlan::new(0xF0F0).with(FaultEvent::CardFailure { node: 2, at: ms(1) });
    let spec = ClusterSpec::new(4, Technology::InicIdeal)
        .with_fault_plan(plan)
        .with_recovery_policy(RecoveryPolicy::FullRestart);
    let r = RunRequest::fft(spec, 64).execute().into_fft();
    assert!(r.verified, "full-restart run must still compute the FFT");
    assert_eq!(r.faults.degraded_nodes, 4);
}

/// Rank-local recovery without checkpoints: the survivors keep their
/// cards but the collective re-runs from phase 0.
#[test]
fn rank_local_policy_degrades_one_rank() {
    let plan = FaultPlan::new(0xDEAD).with(FaultEvent::CardFailure { node: 1, at: ms(1) });
    let spec = ClusterSpec::new(4, Technology::InicIdeal)
        .with_fault_plan(plan)
        .with_recovery_policy(RecoveryPolicy::RankLocal);
    let r = RunRequest::sort(spec, 1 << 16).execute().into_sort();
    assert!(r.verified, "rank-local run must still sort correctly");
    assert_eq!(r.faults.degraded_nodes, 1);
    assert_eq!(
        r.faults.resumed_from_phase,
        Some(0),
        "without checkpoints the resume is a from-scratch restart"
    );
}

/// A bounded-hold `CardReconfigure` mid-exchange: the card goes dark,
/// buffers what arrives, and resumes without data loss. Both workloads
/// must complete with zero degraded nodes and the fault-free answer —
/// the retransmit machinery and the card's deferral buffers carry the
/// window.
#[test]
fn bounded_reconfigure_window_is_survived() {
    for node in [0u32, 3] {
        let plan = FaultPlan::new(0x5EED).with(FaultEvent::CardReconfigure {
            node,
            at: ms(1),
            hold: SimDuration::from_millis(2),
        });
        let spec = ClusterSpec::new(4, Technology::InicIdeal).with_fault_plan(plan.clone());
        let r = RunRequest::sort(spec, 1 << 16).execute().into_sort();
        assert!(r.verified, "reconfigure window must not corrupt the sort");
        assert_eq!(r.faults.degraded_nodes, 0, "no rank may fail over");
        assert!(r.faults.reconfig_windows_survived >= 1);
        assert_eq!(r.faults.resumed_from_phase, None);

        let spec = ClusterSpec::new(4, Technology::InicIdeal).with_fault_plan(plan);
        let r = RunRequest::fft(spec, 64).execute().into_fft();
        assert!(r.verified, "reconfigure window must not corrupt the FFT");
        assert_eq!(r.faults.degraded_nodes, 0);
        assert!(r.faults.reconfig_windows_survived >= 1);
    }
}

/// A node stall: the host CPU defers kernel completions and interrupt
/// service for the window, then drains in order. The answer is exactly
/// the fault-free one; the diagnostics record the stalled rank. Two
/// windows guarantee the stalled rank is busy inside at least one: the
/// commodity path exchanges around 1–3 ms, the INIC path wakes when its
/// 60 ms bitstream load completes.
#[test]
fn node_stall_defers_but_does_not_corrupt() {
    let plan = FaultPlan::new(0x57A1)
        .with(FaultEvent::NodeStall {
            node: 2,
            from: ms(1),
            until: ms(3),
        })
        .with(FaultEvent::NodeStall {
            node: 2,
            from: ms(60),
            until: ms(63),
        });
    for technology in [Technology::GigabitTcp, Technology::InicIdeal] {
        let spec = ClusterSpec::new(4, technology).with_fault_plan(plan.clone());
        let r = RunRequest::sort(spec, 1 << 16).execute().into_sort();
        assert!(r.verified, "{technology:?} result diverged under stall");
        assert_eq!(r.faults.degraded_nodes, 0);
        assert!(
            r.faults.stalled_nodes >= 1,
            "{technology:?}: the stalled rank must be recorded"
        );
    }
    let spec = ClusterSpec::new(4, Technology::InicIdeal).with_fault_plan(plan);
    let r = RunRequest::fft(spec, 64).execute().into_fft();
    assert!(r.verified, "FFT result diverged under stall");
    assert!(r.faults.stalled_nodes >= 1);
}

/// The zero-probability plan exercises the armed recovery protocol on
/// clean links: checksums and sequence tracking run, but nothing is
/// lost, so nothing is retransmitted.
#[test]
fn armed_protocol_on_clean_links_is_quiet() {
    for technology in [Technology::GigabitTcp, Technology::InicIdeal] {
        let spec = ClusterSpec::new(4, technology).with_fault_plan(FaultPlan::new(5));
        let r = RunRequest::sort(spec, 1 << 16).execute().into_sort();
        assert!(r.verified);
        assert_eq!(r.faults.retransmits, 0);
        assert_eq!(r.switch_drops, 0);
        assert_eq!(r.faults.stalled_nodes, 0);
    }
}

/// A pinned lossy draw whose RTO backoff stretches the gigabit sort of
/// 2^14 keys to ~4 s of simulated time: 6,529 Auditor ticks, almost all
/// of them while every connection waits out a timer and no counter
/// moves.
fn long_lossy_gigabit_sort() -> ClusterSpec {
    ClusterSpec::new(4, Technology::GigabitTcp).with_fault_plan(lossy_plan(5, 1.0))
}

#[test]
fn auditor_checks_only_when_counters_move() {
    let r = RunRequest::sort(long_lossy_gigabit_sort(), 1 << 14)
        .execute()
        .into_sort();
    assert!(r.verified);
    let audit = r.audit.expect("faulted runs carry the Auditor");
    // The tick cadence is unchanged by the change-count skip: the same
    // tick count as auditing on every tick.
    assert_eq!(audit.ticks, 6_529);
    assert_eq!(audit.checks, 7);
    let clean = RunRequest::sort(ClusterSpec::new(4, Technology::GigabitTcp), 1 << 14)
        .execute()
        .into_sort();
    assert_eq!(clean.audit, None, "clean runs carry no Auditor");
}

/// Plan seed 43 at 10% loss: the gigabit sort of 4096 keys finishes,
/// but a backed-off RTO timer for a segment whose ACK was lost lies
/// past the run deadline. The run wrapper accepts that trip because
/// every rank is done — so it must not print a liveness-failure
/// banner either. Runs in a child process (see below) so its stderr
/// can be inspected.
#[test]
#[ignore = "child half of accepted_deadline_after_done_prints_no_banner"]
fn accepted_deadline_after_done_child() {
    let spec = ClusterSpec::new(4, Technology::GigabitTcp).with_fault_plan(lossy_plan(43, 10.0));
    let r = RunRequest::sort(spec, 1 << 12).execute().into_sort();
    assert!(r.verified);
}

#[test]
fn accepted_deadline_after_done_prints_no_banner() {
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "--ignored",
            "--exact",
            "accepted_deadline_after_done_child",
            "--nocapture",
            "--test-threads=1",
        ])
        .output()
        .expect("spawn the child test");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child failed:\n{stdout}\n{stderr}");
    assert!(stdout.contains("1 passed"), "child did not run:\n{stdout}");
    assert!(
        !stderr.contains("liveness failure"),
        "accepted deadline printed a report:\n{stderr}"
    );
}
