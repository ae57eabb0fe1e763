//! Ablation: recovery cost of a permanent card failure versus *when*
//! the failure lands, for each [`RecoveryPolicy`].
//!
//! One rank's INIC dies at the swept fault time while the 4-node
//! cluster sorts 2¹⁶ keys over ideal INICs (bitstream configuration
//! occupies the first 60 ms, the bucket exchange runs after it). Each
//! policy pays a different price: `full-restart` throws every rank's
//! work away and redoes the collective over the commodity fallback
//! NICs; `rank-local` keeps the survivors' cards but restarts from
//! scratch; `checkpointed` (the default) resumes from the last phase
//! every rank completed. The fault-free run is included as the
//! baseline; result verification is ON for every point.
//!
//! ```text
//! cargo run --release -p acc-bench --bin ablation_transient
//! ```

use acc_bench::Executor;
use acc_chaos::{FaultEvent, FaultPlan};
use acc_core::cluster::{ClusterSpec, Technology};
use acc_core::report::{FigureReport, Series};
use acc_core::{RecoveryPolicy, RunRequest};
use acc_sim::{SimDuration, SimTime};

const P: usize = 4;
const KEYS: u64 = 1 << 16;
/// Rank whose card dies.
const VICTIM: u32 = 1;

/// Fault times swept (milliseconds). 1 and 30 land inside the 60 ms
/// bitstream-configuration window; the rest land in the post-config
/// exchange/sort phases.
const FAULT_MS: [u64; 5] = [1, 30, 61, 62, 64];

const POLICIES: [(RecoveryPolicy, &str); 3] = [
    (RecoveryPolicy::FullRestart, "full-restart"),
    (RecoveryPolicy::RankLocal, "rank-local"),
    (RecoveryPolicy::Checkpointed, "checkpointed"),
];

fn main() {
    let ex = Executor::from_cli();
    let mut fig = FigureReport::new(
        "Ablation T",
        format!("Card-failure recovery cost vs fault time (sort, {KEYS} keys, P={P}, ideal INIC)"),
        "fault ms",
        "completion ms (post-config)",
    );

    // Fault-free baseline: the same spec with an armed-but-empty plan,
    // so the protocol overhead matches the faulted runs.
    let baseline = {
        let spec =
            ClusterSpec::new(P, Technology::InicIdeal).with_fault_plan(FaultPlan::new(0x7E57));
        let r = RunRequest::sort(spec, KEYS).execute().into_sort();
        assert!(r.verified, "baseline run diverged");
        r.total.as_millis_f64()
    };
    let mut base = Series::new("no-fault baseline");
    for &at_ms in &FAULT_MS {
        base.push(at_ms as f64, baseline);
    }
    fig.add(base);

    // The policy × fault-time matrix fans out across the executor; the
    // series and diagnostics are rebuilt from results in submission
    // order, so the report is identical at any worker count.
    let requests: Vec<RunRequest> = POLICIES
        .iter()
        .flat_map(|&(policy, _)| {
            FAULT_MS.iter().map(move |&at_ms| {
                let plan = FaultPlan::new(0x7E57).with(FaultEvent::CardFailure {
                    node: VICTIM,
                    at: SimTime::ZERO + SimDuration::from_millis(at_ms),
                });
                let spec = ClusterSpec::new(P, Technology::InicIdeal)
                    .with_fault_plan(plan)
                    .with_recovery_policy(policy);
                RunRequest::sort(spec, KEYS)
            })
        })
        .collect();
    let mut outcomes = ex.run_all(requests).into_iter();
    let mut notes = Vec::new();
    for (_, name) in POLICIES {
        let mut s = Series::new(name);
        for &at_ms in &FAULT_MS {
            let r = outcomes.next().expect("one outcome per point").into_sort();
            assert!(r.verified, "{name} @ {at_ms}ms diverged from the oracle");
            s.push(at_ms as f64, r.total.as_millis_f64());
            notes.push(format!(
                "{name:<13} fault@{at_ms:>2}ms: degraded={} resumed={}",
                r.faults.degraded_nodes,
                r.faults
                    .resumed_from_phase
                    .map_or_else(|| "-".to_owned(), |p| p.to_string()),
            ));
        }
        fig.add(s);
    }

    fig.print();
    println!("--- diagnostics ---");
    for n in notes {
        println!("{n}");
    }
}
