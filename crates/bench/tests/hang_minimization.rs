//! End-to-end acceptance of the liveness layer: a seeded hang plan is
//! detected by the watchdog, attributed to a named phase and rank,
//! minimized to its essential fault events, and the resulting repro
//! artifact replays to the same failure — deterministically across
//! worker counts.
//!
//! The hang scenario: a 30-second outage on rank 1's uplink during an
//! INIC sort. Rank 1's bucket data never reaches its peers; the card
//! abandons its retransmissions after the backoff horizon (twelve
//! doubling timeouts from 2 ms ≈ 8.2 s), so even after the link heals
//! nobody ever completes the exchange. Two noise events (background
//! loss and jitter) ride along so the minimizer has something real to
//! discard, and the oversized window gives parameter shrinking
//! something real to halve.

use acc_bench::repro::{self, ReproArtifact, EXPECTED_CLEAN};
use acc_bench::Executor;
use acc_chaos::{FaultEvent, FaultPlan, LinkId};
use acc_core::{ClusterSpec, HangCause, RunOutcome, RunRequest, Technology};
use acc_net::FabricSpec;
use acc_sim::{SimDuration, SimTime};

const P: usize = 4;
const KEYS: u64 = 1 << 12;

fn outage() -> FaultEvent {
    FaultEvent::LinkOutage {
        link: LinkId::NodeUplink(1),
        from: SimTime::ZERO + SimDuration::from_micros(1),
        until: SimTime::ZERO + SimDuration::from_secs(30),
    }
}

fn hang_plan() -> FaultPlan {
    FaultPlan::new(0xDEAD)
        .with(FaultEvent::FrameLoss {
            link: LinkId::All,
            prob: 0.002,
        })
        .with(FaultEvent::LinkJitter {
            link: LinkId::All,
            max: SimDuration::from_micros(5),
        })
        .with(outage())
}

fn spec(plan: &FaultPlan) -> ClusterSpec {
    ClusterSpec::new(P, Technology::InicIdeal)
        .with_fault_plan(plan.clone())
        .with_quiet(true)
}

#[test]
fn seeded_hang_is_detected_attributed_minimized_and_replayable() {
    // --- Detection and attribution -----------------------------------
    let request = RunRequest::sort(spec(&hang_plan()), KEYS);
    let workload = request.workload;
    let outcome = request.execute();
    let report = match &outcome {
        RunOutcome::Hung(report) => report,
        other => panic!("expected a hang, got {other:?}"),
    };
    assert!(
        matches!(report.cause, HangCause::Watchdog(_)),
        "the watchdog, not a drained queue, must catch a faulted hang: {:?}",
        report.cause
    );
    let culprit = report.culprit.as_ref().expect("hang names a culprit");
    assert_eq!(culprit.phase, "exchange", "attributed to the stuck phase");
    assert_eq!(
        report.attribution(),
        format!("exchange on rank {}", culprit.rank)
    );

    // The observation string the minimizer and artifacts key on.
    let observed = repro::observe(spec(&hang_plan()), workload).expect("the hang is a failure");
    assert!(observed.contains("hung:"), "{observed}");
    assert!(observed.contains("exchange on rank"), "{observed}");

    // --- Minimization, at two worker counts --------------------------
    let minimize = |jobs: usize| {
        repro::with_silent_panics(|| {
            repro::minimize_failure(
                &Executor::new(jobs),
                P,
                Technology::InicIdeal,
                workload,
                FabricSpec::SingleSwitch,
                &hang_plan(),
            )
        })
    };
    let minimal = minimize(1);
    assert_eq!(
        minimal,
        minimize(4),
        "minimization must be byte-identical at --jobs 1 and --jobs 4"
    );
    assert!(
        minimal.events().len() <= 2,
        "locally minimal plan keeps at most the essential events: {:?}",
        minimal.events()
    );
    match minimal.events() {
        [FaultEvent::LinkOutage { link, from, until }] => {
            // The outage alone reproduces; both noise events are
            // discarded. Parameter shrinking halves the window once
            // (15 s still outlives the ~8.2 s retransmit-abandonment
            // horizon) but must reject the second halving, which would
            // heal the link while retries are still pending.
            assert_eq!(*link, LinkId::NodeUplink(1));
            assert_eq!(*from, SimTime::ZERO + SimDuration::from_micros(1));
            assert!(
                *until < SimTime::ZERO + SimDuration::from_secs(30),
                "window should have shrunk: {until}"
            );
            assert!(
                *until > SimTime::ZERO + SimDuration::from_secs(9),
                "window must still outlive retransmit abandonment: {until}"
            );
        }
        other => panic!("expected a lone shrunken outage, got {other:?}"),
    }
    assert_eq!(minimal.seed(), hang_plan().seed(), "seed survives");

    // --- Repro artifact round trip and replay ------------------------
    let artifact = ReproArtifact {
        campaign_seed: 0xACC_50AC,
        round: 0,
        p: P,
        technology: Technology::InicIdeal,
        workload,
        fabric: FabricSpec::SingleSwitch,
        expected: EXPECTED_CLEAN.to_owned(),
        observed: observed.clone(),
        plan: minimal,
    };
    let parsed = ReproArtifact::from_text(&artifact.to_text()).expect("artifact parses back");
    assert_eq!(parsed, artifact);
    let replayed = repro::with_silent_panics(|| parsed.replay())
        .expect("the minimized plan replays to the recorded failure");
    assert_eq!(replayed, observed, "same failure, not merely *a* failure");
}
