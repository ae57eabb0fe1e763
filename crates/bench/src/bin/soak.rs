//! Chaos soak: seeded rounds of randomized mixed fault plans against
//! both evaluation workloads on every technology, with result
//! verification **and** the online invariant Auditor on. Each round
//! draws a fresh plan — background frame loss, jitter, corruption and
//! reordering on every link, plus coin-flipped link outages, buffer
//! squeezes, node stalls, card reconfiguration windows and (one round
//! in four) a permanent card failure — validates it against the cluster
//! size, then runs the FFT and the integer sort across all four
//! technologies under it.
//!
//! Everything is deterministic: round `i` of seed `s` always builds the
//! same plan, so every run (and therefore every output line) is
//! byte-for-byte reproducible. A failing cell — wrong answer, Auditor
//! violation, wedged protocol, liveness-watchdog hang — no longer
//! aborts the campaign: the cell is reported, its fault plan is
//! automatically **minimized** (delta debugging over the deterministic
//! simulator, candidates fanned across the same `--jobs` workers), and
//! a self-contained repro artifact is written to `soak-repro.txt`
//! before the process exits nonzero. Clean output and exit 0 mean the
//! cluster survived every round.
//!
//! Every fourth round (see [`round_fabric`]) runs on a 4-switch torus
//! fabric instead of the single switch — one host per switch, trunk
//! hops on every exchange, and a coin-flipped trunk outage the routing
//! layer must detour around — so multi-switch wiring, re-route epochs
//! and the per-trunk conservation audit soak under the same chaos as
//! everything else. Repro artifacts record the topology and replay it.
//!
//! `--coll` adds one engine collective per `(round, technology)` cell,
//! rotating through all six operations (see `COLL_ROTATION`). The
//! collective cell runs the round's full plan — permanent card deaths
//! included: the engine's round-level checkpoints and mixed-technology
//! re-planning recover the schedule, and the cell line records the
//! `degraded=`/`resumed=` diagnostics like any other workload. The
//! flag is purely additive: without it the campaign and its output are
//! byte-for-byte unchanged.
//!
//! ```text
//! cargo run --release -p acc-bench --bin soak -- --rounds 32 --seed 0xACC
//! cargo run --release -p acc-bench --bin soak -- --rounds 12 --coll
//! cargo run --release -p acc-bench --bin soak -- --repro soak-repro.txt
//! ```

use acc_bench::repro::{
    self, execute_caught, failure_of, workload_label, ReproArtifact, EXPECTED_CLEAN,
};
use acc_bench::Executor;
use acc_chaos::{FaultEvent, FaultPlan, LinkId};
use acc_coll::{Algorithm, CollectiveOp};
use acc_core::cluster::{ClusterSpec, Technology};
use acc_core::{FaultDiagnostics, RunRequest, Workload};
use acc_net::FabricSpec;
use acc_sim::{DataSize, SimDuration, SimRng, SimTime};

/// Cluster size every round runs on.
const P: usize = 4;
/// Keys sorted per round.
const SORT_KEYS: u64 = 1 << 14;
/// FFT matrix rows per round.
const FFT_ROWS: usize = 32;

const TECHNOLOGIES: [Technology; 4] = [
    Technology::GigabitTcp,
    Technology::InicIdeal,
    Technology::InicPrototype,
    Technology::InicProtocol,
];

/// The `--coll` rotation: round `r` additionally soaks cell
/// `COLL_ROTATION[r % 6]`, so 6 rounds cover every collective with a
/// mix of both algorithm families. Sizes keep each cell in sort/FFT
/// territory (a few ms of simulated time under faults).
const COLL_ROTATION: [(CollectiveOp, Algorithm, usize); 6] = [
    (CollectiveOp::AllReduce, Algorithm::Ring, 4096),
    (
        CollectiveOp::ReduceScatter,
        Algorithm::RecursiveHalving,
        4096,
    ),
    (CollectiveOp::AllGather, Algorithm::RecursiveDoubling, 1024),
    (CollectiveOp::Broadcast, Algorithm::BinomialTree, 4096),
    (CollectiveOp::AllToAll, Algorithm::Bruck, 1024),
    (CollectiveOp::Barrier, Algorithm::Dissemination, 16),
];

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

/// The fabric round `round` runs on: every fourth round swaps the
/// single switch for a 4-switch torus ring (one host per switch), so
/// the nightly campaign soaks multi-switch routing — trunk hops,
/// re-route epochs, per-trunk conservation audits — under the same
/// randomized background faults as the classic rounds. Purely a
/// function of the round index, so artifacts can rebuild it.
fn round_fabric(round: u64) -> FabricSpec {
    if round % 4 == 2 {
        FabricSpec::Torus3D { dims: [2, 2, 1] }
    } else {
        FabricSpec::SingleSwitch
    }
}

/// Build round `round`'s randomized plan. All randomness comes from the
/// (seed, round) pair; the returned plan validates against [`P`].
///
/// The transient windows are sized to stay inside the protocol's
/// retransmit-abandon horizon, so every fault here is *survivable* by
/// design — a run that fails anyway found a real bug.
fn round_plan(seed: u64, round: u64, fabric: &FabricSpec) -> FaultPlan {
    let mut rng = SimRng::seed_from(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut plan = FaultPlan::new(rng.next_u64());
    // Always-on background noise on every link.
    plan.push(FaultEvent::FrameLoss {
        link: LinkId::All,
        prob: rng.gen_range(1500) as f64 / 100_000.0, // <= 1.5%
    });
    plan.push(FaultEvent::LinkJitter {
        link: LinkId::All,
        max: SimDuration::from_micros(1 + rng.gen_range(50)),
    });
    plan.push(FaultEvent::FrameCorruption {
        link: LinkId::All,
        prob: rng.gen_range(500) as f64 / 100_000.0, // <= 0.5%
    });
    plan.push(FaultEvent::FrameReorder {
        link: LinkId::All,
        prob: rng.gen_range(2000) as f64 / 100_000.0, // <= 2%
        delay: SimDuration::from_micros(50 + rng.gen_range(150)),
    });
    // Coin-flipped structured faults.
    if rng.gen_bool(0.5) {
        let node = rng.gen_range(P as u64) as u32;
        let from = ms(1 + rng.gen_range(60));
        plan.push(FaultEvent::LinkOutage {
            link: LinkId::NodeUplink(node),
            from,
            until: from + SimDuration::from_micros(200 + rng.gen_range(1300)),
        });
    }
    if rng.gen_bool(0.5) {
        let node = rng.gen_range(P as u64) as u32;
        let from = ms(1 + rng.gen_range(60));
        plan.push(FaultEvent::BufferSqueeze {
            link: LinkId::SwitchDownlink(node),
            from,
            until: from + SimDuration::from_millis(1 + rng.gen_range(2)),
            capacity: DataSize::from_kib(16 + rng.gen_range(16)),
        });
    }
    if rng.gen_bool(0.5) {
        let node = rng.gen_range(P as u64) as u32;
        let from = ms(1 + rng.gen_range(62));
        plan.push(FaultEvent::NodeStall {
            node,
            from,
            until: from + SimDuration::from_millis(1 + rng.gen_range(2)),
        });
    }
    if rng.gen_bool(0.5) {
        plan.push(FaultEvent::CardReconfigure {
            node: rng.gen_range(P as u64) as u32,
            at: ms(1 + rng.gen_range(62)),
            hold: SimDuration::from_millis(1 + rng.gen_range(4)),
        });
    }
    if rng.gen_bool(0.25) {
        plan.push(FaultEvent::CardFailure {
            node: rng.gen_range(P as u64) as u32,
            at: ms(1 + rng.gen_range(65)),
        });
    }
    // Fabric rounds additionally coin-flip a trunk outage. The torus
    // ring always has a detour around any one down trunk and routing
    // re-plans at the outage edges, so the window can be generous and
    // the fault stays survivable. Drawn last: single-switch rounds use
    // exactly the draw sequence they always did.
    let trunks = fabric.build(P).trunks;
    if !trunks.is_empty() && rng.gen_bool(0.5) {
        let (a, b) = trunks[rng.gen_range(trunks.len() as u64) as usize];
        let from = ms(1 + rng.gen_range(60));
        plan.push(FaultEvent::LinkDown {
            a: a as u32,
            b: b as u32,
            from,
            until: from + SimDuration::from_millis(1 + rng.gen_range(3)),
        });
    }
    plan
}

fn tech_label(t: Technology) -> &'static str {
    match t {
        Technology::FastEthernet => "fast",
        Technology::GigabitTcp => "gigabit",
        Technology::InicIdeal => "inic-ideal",
        Technology::InicPrototype => "inic-proto",
        Technology::InicProtocol => "inic-pp",
    }
}

fn fault_line(f: &FaultDiagnostics) -> String {
    format!(
        "retrans={} degraded={} stalled={} reconf_ok={} resumed={}",
        f.retransmits,
        f.degraded_nodes,
        f.stalled_nodes,
        f.reconfig_windows_survived,
        f.resumed_from_phase
            .map_or_else(|| "-".to_owned(), |p| p.to_string()),
    )
}

/// One failing `(round, technology, workload)` cell: everything needed
/// to report it deterministically and to rebuild its plan for
/// minimization.
struct CellFailure {
    round: u64,
    tech: Technology,
    workload: Workload,
    observed: String,
}

/// The formatted report lines for one `(round, technology)` cell: sort
/// then FFT (then, under `--coll`, the round's rotation collective),
/// all verified. Runs in a worker thread; only the serial print loop
/// below touches stdout, so line order never depends on scheduling. A
/// failure (hang, divergence, panic) comes back as a [`CellFailure`]
/// instead of killing the campaign.
fn run_cell(
    round: u64,
    tech: Technology,
    fabric: FabricSpec,
    plan: &FaultPlan,
    coll: Option<(CollectiveOp, Algorithm, usize)>,
) -> Result<Vec<String>, CellFailure> {
    let spec = ClusterSpec::new(P, tech)
        .with_fabric(fabric)
        .with_fault_plan(plan.clone());
    let mut requests = vec![
        ("sort", RunRequest::sort(spec.clone(), SORT_KEYS)),
        ("fft ", RunRequest::fft(spec.clone(), FFT_ROWS)),
    ];
    if let Some((op, algo, elems)) = coll {
        requests.push(("coll", RunRequest::collective(spec, op, algo, elems)));
    }
    let mut lines = Vec::new();
    for (kind, request) in requests {
        let workload = request.workload;
        let outcome = execute_caught(request);
        if let Some(observed) = failure_of(&outcome) {
            return Err(CellFailure {
                round,
                tech,
                workload,
                observed,
            });
        }
        let outcome = outcome.expect("no failure implies an outcome");
        lines.push(format!(
            "round {round:03} {kind} {:<10} total={:>10.3}ms {}",
            tech_label(tech),
            outcome.total().as_millis_f64(),
            fault_line(outcome.faults()),
        ));
    }
    Ok(lines)
}

/// Replay a repro artifact (`--repro <file>`): exit 0 iff the recorded
/// failure reproduces exactly.
fn replay(path: &str) -> ! {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read repro artifact {path}: {e}"));
    let artifact = ReproArtifact::from_text(&text)
        .unwrap_or_else(|e| panic!("malformed repro artifact {path}: {e}"));
    println!(
        "replaying {path}: round {} {} {} under a {}-event plan",
        artifact.round,
        workload_label(&artifact.workload),
        artifact.technology.label(),
        artifact.plan.events().len(),
    );
    match repro::with_silent_panics(|| artifact.replay()) {
        Ok(observed) => {
            println!("reproduced: {observed}");
            std::process::exit(0);
        }
        Err(diagnosis) => {
            println!("NOT reproduced: {diagnosis}");
            std::process::exit(1);
        }
    }
}

/// Minimize the first failing cell's plan, write the repro artifact,
/// and report — the deterministic failure epilogue of a soak run.
fn emit_repro(ex: &Executor, seed: u64, failure: &CellFailure) {
    // Every cell — collectives included — ran the round's full plan on
    // the round's fabric.
    let fabric = round_fabric(failure.round);
    let plan = round_plan(seed, failure.round, &fabric);
    println!(
        "minimizing round {:03} {} {} plan ({} events) ...",
        failure.round,
        workload_label(&failure.workload),
        tech_label(failure.tech),
        plan.events().len(),
    );
    let minimized = repro::with_silent_panics(|| {
        repro::minimize_failure(ex, P, failure.tech, failure.workload, fabric, &plan)
    });
    let artifact = ReproArtifact {
        campaign_seed: seed,
        round: failure.round,
        p: P,
        technology: failure.tech,
        workload: failure.workload,
        fabric,
        expected: EXPECTED_CLEAN.to_owned(),
        observed: failure.observed.clone(),
        plan: minimized,
    };
    let path = "soak-repro.txt";
    std::fs::write(path, artifact.to_text())
        .unwrap_or_else(|e| panic!("cannot write repro artifact {path}: {e}"));
    println!(
        "minimized to {} event(s); repro artifact: {path} (replay with --repro {path})",
        artifact.plan.events().len(),
    );
}

fn main() {
    let ex = Executor::from_cli();
    let mut rounds: u64 = 32;
    let mut seed: u64 = 0xACC_50AC;
    let mut coll = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let parse = |v: Option<String>, what: &str| -> u64 {
            let v = v.unwrap_or_else(|| panic!("missing value for {what}"));
            let v = v.trim();
            if let Some(hex) = v.strip_prefix("0x") {
                u64::from_str_radix(hex, 16).unwrap_or_else(|e| panic!("bad {what}: {e}"))
            } else {
                v.parse().unwrap_or_else(|e| panic!("bad {what}: {e}"))
            }
        };
        match a.as_str() {
            "--rounds" => rounds = parse(args.next(), "--rounds"),
            "--seed" => seed = parse(args.next(), "--seed"),
            "--coll" => coll = true,
            "--repro" => {
                let path = args
                    .next()
                    .unwrap_or_else(|| panic!("missing value for --repro"));
                replay(&path);
            }
            // Already consumed by Executor::from_cli; skip the value.
            "--jobs" => drop(args.next()),
            jobs_eq if jobs_eq.starts_with("--jobs=") => {}
            other => {
                panic!("unknown argument {other} (expected --rounds/--seed/--jobs/--coll/--repro)")
            }
        }
    }
    println!(
        "chaos soak: {rounds} rounds, seed {seed:#x}, P={P}, verification + auditor ON{}",
        if coll { ", collectives ON" } else { "" }
    );
    // Describe the whole campaign first: per round a plan line, per
    // (round, technology) one work-queue task computing its two report
    // lines. The executor returns results in submission order, so the
    // output below is byte-identical to the old serial loop at any
    // worker count.
    let mut plan_lines = Vec::new();
    type CellTask = Box<dyn FnOnce() -> Result<Vec<String>, CellFailure> + Send>;
    let mut tasks: Vec<CellTask> = Vec::new();
    for round in 0..rounds {
        let fabric = round_fabric(round);
        let plan = round_plan(seed, round, &fabric);
        plan.validate_for_fabric(P as u32, SimTime::MAX, &fabric)
            .unwrap_or_else(|e| panic!("round {round} built an invalid plan: {e}"));
        let coll_cell = coll.then(|| COLL_ROTATION[(round % COLL_ROTATION.len() as u64) as usize]);
        let kinds: Vec<&str> = plan
            .events()
            .iter()
            .map(|ev| match ev {
                FaultEvent::FrameLoss { .. } => "loss",
                FaultEvent::FrameCorruption { .. } => "corrupt",
                FaultEvent::FrameReorder { .. } => "reorder",
                FaultEvent::LinkJitter { .. } => "jitter",
                FaultEvent::LinkOutage { .. } => "outage",
                FaultEvent::BufferSqueeze { .. } => "squeeze",
                FaultEvent::NodeStall { .. } => "stall",
                FaultEvent::CardFailure { .. } => "card-kill",
                FaultEvent::CardReconfigure { .. } => "reconfig",
                FaultEvent::LinkDown { .. } => "link-down",
                FaultEvent::SwitchFailure { .. } => "switch-kill",
            })
            .collect();
        let topology = match fabric {
            FabricSpec::SingleSwitch => String::new(),
            other => format!(" topology={}", other.label()),
        };
        plan_lines.push(format!(
            "round {round:03}: plan [{}]{topology}",
            kinds.join(" ")
        ));
        for tech in TECHNOLOGIES {
            let plan = plan.clone();
            tasks.push(Box::new(move || {
                run_cell(round, tech, fabric, &plan, coll_cell)
            }));
        }
    }
    let runs = (if coll { 3 } else { 2 }) * tasks.len() as u64;
    let mut cells = ex.map(tasks).into_iter();
    let mut failures: Vec<CellFailure> = Vec::new();
    for plan_line in plan_lines {
        println!("{plan_line}");
        for _ in TECHNOLOGIES {
            match cells.next().expect("one cell per (round, tech)") {
                Ok(lines) => {
                    for l in lines {
                        println!("{l}");
                    }
                }
                Err(failure) => {
                    println!(
                        "round {:03} {} {:<10} FAILED: {}",
                        failure.round,
                        workload_label(&failure.workload),
                        tech_label(failure.tech),
                        failure.observed,
                    );
                    failures.push(failure);
                }
            }
        }
    }
    if let Some(first) = failures.first() {
        println!(
            "soak FAILED: {} failing cell(s); first: round {:03} {} {}",
            failures.len(),
            first.round,
            workload_label(&first.workload),
            tech_label(first.tech),
        );
        emit_repro(&ex, seed, first);
        std::process::exit(1);
    }
    println!("soak complete: {runs} runs, 0 verification failures, 0 audit violations");
}
