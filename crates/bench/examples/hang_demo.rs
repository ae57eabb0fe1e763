//! End-to-end liveness demo: seed a hang, watch the watchdog catch and
//! attribute it, minimize the fault plan, write the repro artifact, and
//! replay it. The recorded transcript lives in `EXPERIMENTS.md`.
//!
//! ```sh
//! cargo run --release -p acc-bench --example hang_demo
//! ```

use acc_bench::repro::{self, ReproArtifact, EXPECTED_CLEAN};
use acc_bench::Executor;
use acc_chaos::{FaultEvent, FaultPlan, LinkId};
use acc_core::{ClusterSpec, RunOutcome, RunRequest, Technology};
use acc_net::FabricSpec;
use acc_sim::{SimDuration, SimTime};

const P: usize = 4;
const KEYS: u64 = 1 << 12;

fn hang_plan() -> FaultPlan {
    // Two noise events plus the real culprit: a 30 s outage on rank 1's
    // uplink, far past the card's retransmission-abandonment horizon.
    FaultPlan::new(0xDEAD)
        .with(FaultEvent::FrameLoss {
            link: LinkId::All,
            prob: 0.002,
        })
        .with(FaultEvent::LinkJitter {
            link: LinkId::All,
            max: SimDuration::from_micros(5),
        })
        .with(FaultEvent::LinkOutage {
            link: LinkId::NodeUplink(1),
            from: SimTime::ZERO + SimDuration::from_micros(1),
            until: SimTime::ZERO + SimDuration::from_secs(30),
        })
}

fn spec() -> ClusterSpec {
    ClusterSpec::new(P, Technology::InicIdeal)
        .with_fault_plan(hang_plan())
        .with_quiet(true)
}

fn main() {
    let request = RunRequest::sort(spec(), KEYS);
    let workload = request.workload;
    println!(
        "seeded plan: {} events (seed {:#x}) on inic-ideal sort, P={P}, 2^12 keys",
        hang_plan().events().len(),
        hang_plan().seed(),
    );

    // 1. Detection and attribution.
    let outcome = request.execute();
    let RunOutcome::Hung(report) = &outcome else {
        panic!("demo plan should hang, got {outcome:?}");
    };
    println!(
        "detected:    {} at sim t={} ({} events) -> stuck in {}",
        report.cause,
        report.now,
        report.sim.as_ref().map(|s| s.events_processed).unwrap_or(0),
        report.attribution(),
    );
    let observed = repro::observe(spec(), workload).expect("hang is a failure");

    // 2. Minimization (parallel candidates, deterministic result).
    let minimal = repro::with_silent_panics(|| {
        repro::minimize_failure(
            &Executor::new(4),
            P,
            Technology::InicIdeal,
            workload,
            FabricSpec::SingleSwitch,
            &hang_plan(),
        )
    });
    println!(
        "minimized:   {} event(s): {:?}",
        minimal.events().len(),
        minimal.events()
    );

    // 3. Self-contained artifact, then replay it.
    let artifact = ReproArtifact {
        campaign_seed: 0xACC_50AC,
        round: 0,
        p: P,
        technology: Technology::InicIdeal,
        workload,
        fabric: FabricSpec::SingleSwitch,
        expected: EXPECTED_CLEAN.to_owned(),
        observed,
        plan: minimal,
    };
    let text = artifact.to_text();
    let parsed = ReproArtifact::from_text(&text).expect("artifact roundtrips");
    match repro::with_silent_panics(|| parsed.replay()) {
        Ok(observed) => println!("replayed:    reproduced — {observed}"),
        Err(diag) => println!("replayed:    NOT reproduced — {diag}"),
    }
    println!("--- artifact ---\n{text}");
}
