//! Wall-clock baseline for the campaign executor: how long the
//! representative campaign points take serially vs fanned across the
//! machine, written as `BENCH_campaign.json` at the repository root.
//!
//! Two passes over the same run matrix (sort + FFT on each of the four
//! technologies, plus the allreduce algorithm-pair microbenches):
//!
//! 1. **serial** — `Executor::new(1)`, with each point timed
//!    individually (the per-point table in the JSON);
//! 2. **parallel** — the auto worker count (or `--jobs`/`ACC_JOBS`),
//!    wall-timed as one batch.
//!
//! The simulated results of both passes are asserted identical — the
//! executor's determinism contract, checked on every invocation — and
//! the JSON records both wall times plus the measured speedup. On a
//! single-core host (`host_parallelism: 1`) the parallel pass degrades
//! to the serial loop, so the speedup is recorded as `null` (printed
//! `n/a`): the pass still runs for its determinism assert.
//!
//! ```text
//! cargo run --release -p acc-bench --bin bench_wallclock            # full
//! cargo run --release -p acc-bench --bin bench_wallclock -- --smoke # CI
//! ```
//!
//! `--smoke` shrinks every point (seconds, not minutes), writes
//! `BENCH_campaign.smoke.json` instead, and is wired into
//! `scripts/check.sh` so the executor's two code paths are exercised on
//! every push.
//!
//! Every invocation also appends one line to the append-only
//! `BENCH_history.jsonl` at the repository root (per-point serial
//! microseconds, keyed by mode). `--check` gates: each point is
//! compared against the **median of the last five same-mode entries**,
//! and any point more than `ACC_BENCH_TOLERANCE_PCT` (default 25%)
//! slower fails the run with exit 1. The median baseline absorbs one
//! noisy historical run; the escape hatch `ACC_BENCH_GATE=off` reports
//! without gating for hosts whose wall clock is known-noisy. The run
//! is appended to the history before the gate fires, so a re-run after
//! a fix compares against honest data.

use std::fmt::Write as _;
use std::time::{Instant, SystemTime};

use acc_bench::{executor, figure_spec, Executor};
use acc_coll::{Algorithm, CollectiveOp};
use acc_core::cluster::Technology;
use acc_core::{RunOutcome, RunRequest};
use acc_net::FabricSpec;

const TECHNOLOGIES: [Technology; 4] = [
    Technology::GigabitTcp,
    Technology::InicIdeal,
    Technology::InicPrototype,
    Technology::InicProtocol,
];

fn tech_label(t: Technology) -> &'static str {
    match t {
        Technology::FastEthernet => "fast",
        Technology::GigabitTcp => "gigabit",
        Technology::InicIdeal => "inic-ideal",
        Technology::InicPrototype => "inic-proto",
        Technology::InicProtocol => "inic-pp",
    }
}

/// The run matrix: one sort and one FFT point per technology, plus the
/// collective microbench points (ring vs recursive-doubling allreduce,
/// small vs large vectors, host-TCP vs combined INIC).
fn points(smoke: bool) -> Vec<(String, RunRequest)> {
    // Smoke sizes finish in seconds on one core; full sizes are the
    // campaign scale the figures actually run at.
    let (p, keys, rows) = if smoke {
        (4usize, 1u64 << 14, 32usize)
    } else {
        (8, 1 << 24, 512)
    };
    let mut out = Vec::new();
    for tech in TECHNOLOGIES {
        out.push((
            format!("sort_2e{}_{}_p{p}", keys.ilog2(), tech_label(tech)),
            RunRequest::sort(figure_spec(p, tech), keys),
        ));
        out.push((
            format!("fft_{rows}_{}_p{p}", tech_label(tech)),
            RunRequest::fft(figure_spec(p, tech), rows),
        ));
    }
    // Allreduce algorithm pair: the latency-bound size where recursive
    // doubling should win, and the bandwidth-bound size where the ring
    // should win, on both a host path and the combined INIC.
    let coll_cells: &[(usize, usize)] = if smoke {
        &[(4, 1 << 10), (4, 1 << 14)]
    } else {
        &[(8, 1 << 10), (8, 1 << 17), (16, 1 << 17)]
    };
    for &(p, elems) in coll_cells {
        for algo in [Algorithm::Ring, Algorithm::RecursiveDoubling] {
            for tech in [Technology::GigabitTcp, Technology::InicIdeal] {
                out.push((
                    format!(
                        "allreduce_{}_2e{}_{}_p{p}",
                        algo.label(),
                        elems.ilog2(),
                        tech_label(tech)
                    ),
                    RunRequest::collective(
                        figure_spec(p, tech),
                        CollectiveOp::AllReduce,
                        algo,
                        elems,
                    ),
                ));
            }
        }
    }
    // Multi-switch fabric points. `fabric_hop` prices the routed
    // multi-hop path (fat-tree allreduce, every round crossing trunks)
    // against the flat single-switch points above; `trunk_contention`
    // funnels an all-to-all through a torus's few ring trunks, the
    // worst case for per-hop queueing. Both run the cluster's full
    // routing machinery, so table construction cost is in the number.
    let (fabric, fabric_p, torus, torus_p, fabric_elems) = if smoke {
        (
            FabricSpec::FatTree { k: 4 },
            16usize,
            FabricSpec::Torus3D { dims: [2, 2, 1] },
            4usize,
            1usize << 10,
        )
    } else {
        (
            FabricSpec::FatTree { k: 8 },
            64,
            FabricSpec::Torus3D { dims: [2, 2, 2] },
            8,
            1 << 14,
        )
    };
    out.push((
        format!("fabric_hop_p{fabric_p}"),
        RunRequest::collective(
            figure_spec(fabric_p, Technology::InicIdeal).with_fabric(fabric),
            CollectiveOp::AllReduce,
            Algorithm::Ring,
            fabric_elems,
        ),
    ));
    out.push((
        format!("trunk_contention_p{torus_p}"),
        RunRequest::collective(
            figure_spec(torus_p, Technology::InicIdeal).with_fabric(torus),
            CollectiveOp::AllToAll,
            Algorithm::Bruck,
            fabric_elems.min(1 << 12),
        ),
    ));
    out
}

/// Simulated-result fingerprint for the determinism cross-check.
fn fingerprint(outcomes: &[RunOutcome]) -> Vec<u64> {
    outcomes.iter().map(|o| o.total().as_ps()).collect()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One line of `BENCH_history.jsonl`: flat, greppable, append-only.
fn history_line(mode: &str, jobs: usize, per_point: &[(&str, f64)], parallel_secs: f64) -> String {
    let unix_secs = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut line = String::new();
    let _ = write!(
        line,
        "{{\"unix_secs\": {unix_secs}, \"mode\": \"{mode}\", \"jobs\": {jobs}, \"serial_us\": {{"
    );
    for (i, (label, secs)) in per_point.iter().enumerate() {
        let comma = if i + 1 < per_point.len() { ", " } else { "" };
        let _ = write!(
            line,
            "\"{}\": {}{comma}",
            json_escape(label),
            (secs * 1e6).round() as u64
        );
    }
    let _ = write!(
        line,
        "}}, \"parallel_us\": {}}}",
        (parallel_secs * 1e6).round() as u64
    );
    line
}

/// Parse the `"serial_us": {"label": us, ...}` map out of one history
/// line. Hand-rolled for the fixed shape `history_line` writes — not a
/// general JSON parser.
fn parse_history_points(line: &str) -> Vec<(String, u64)> {
    let Some(start) = line.find("\"serial_us\": {") else {
        return Vec::new();
    };
    let body = &line[start + "\"serial_us\": {".len()..];
    let Some(end) = body.find('}') else {
        return Vec::new();
    };
    body[..end]
        .split(", ")
        .filter_map(|pair| {
            let (label, us) = pair.split_once("\": ")?;
            Some((label.trim_start_matches('"').to_string(), us.parse().ok()?))
        })
        .collect()
}

/// Compare this run's per-point serial times against the median of the
/// last (up to) five same-mode history entries. Gating: returns `false`
/// when any point regresses beyond the noise bound
/// (`ACC_BENCH_TOLERANCE_PCT`, default 25%). The median baseline makes
/// the gate robust to one noisy historical run; the per-point bound
/// catches a single benchmark regressing while the rest hide it.
fn check_against_history(history: &str, mode: &str, per_point: &[(&str, f64)]) -> bool {
    let tolerance_pct: f64 = std::env::var("ACC_BENCH_TOLERANCE_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25.0);
    let prev_runs: Vec<Vec<(String, u64)>> = history
        .lines()
        .rev()
        .filter(|l| l.contains(&format!("\"mode\": \"{mode}\"")))
        .take(5)
        .map(parse_history_points)
        .collect();
    if prev_runs.is_empty() {
        println!("bench --check: no prior {mode} entry in BENCH_history.jsonl; nothing to compare");
        return true;
    }
    let mut compared = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for (label, secs) in per_point {
        let mut baseline: Vec<u64> = prev_runs
            .iter()
            .filter_map(|run| run.iter().find(|(l, _)| l == label).map(|&(_, us)| us))
            .filter(|&us| us > 0)
            .collect();
        if baseline.is_empty() {
            continue;
        }
        baseline.sort_unstable();
        let median_us = baseline[baseline.len() / 2] as f64;
        let ratio = secs * 1e6 / median_us;
        compared += 1;
        if ratio > 1.0 + tolerance_pct / 100.0 {
            failures.push(format!(
                "  {label}: {:.0}% slower than the median of the last {} {mode} run(s) \
                 ({:.0} us vs {median_us:.0} us)",
                (ratio - 1.0) * 100.0,
                baseline.len(),
                secs * 1e6
            ));
        }
    }
    if compared == 0 {
        println!("bench --check: no overlapping points with recent {mode} entries");
        return true;
    }
    if failures.is_empty() {
        println!(
            "bench --check: {compared} point(s) within {tolerance_pct:.0}% of their \
             {mode} history medians — ok"
        );
        return true;
    }
    println!(
        "bench --check: {} of {compared} point(s) regressed past the {tolerance_pct:.0}% \
         noise bound vs BENCH_history.jsonl:",
        failures.len()
    );
    for f in &failures {
        println!("{f}");
    }
    false
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let check = std::env::args().any(|a| a == "--check");
    let ex = Executor::from_cli();
    let matrix = points(smoke);
    let labels: Vec<&str> = matrix.iter().map(|(l, _)| l.as_str()).collect();

    // Pass 1: serial, each point timed on its own.
    let serial_ex = Executor::serial();
    let mut per_point = Vec::new();
    let mut serial_outcomes = Vec::new();
    let serial_started = Instant::now();
    for (label, request) in &matrix {
        let started = Instant::now();
        let mut outcome = serial_ex.run_all(vec![request.clone()]);
        per_point.push((label.as_str(), started.elapsed().as_secs_f64()));
        serial_outcomes.append(&mut outcome);
    }
    let serial_secs = serial_started.elapsed().as_secs_f64();

    // Pass 2: the same matrix as one parallel batch.
    let parallel_started = Instant::now();
    let parallel_outcomes = ex.run_all(matrix.iter().map(|(_, r)| r.clone()).collect());
    let parallel_secs = parallel_started.elapsed().as_secs_f64();

    assert_eq!(
        fingerprint(&serial_outcomes),
        fingerprint(&parallel_outcomes),
        "parallel outcomes diverged from serial — determinism contract broken"
    );

    // One core measures no concurrency: the ratio would be noise.
    let speedup = (executor::default_parallelism() > 1).then(|| serial_secs / parallel_secs);
    let mode = if smoke { "smoke" } else { "full" };
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(
        json,
        "  \"generated_by\": \"cargo run --release -p acc-bench --bin bench_wallclock{}\",",
        if smoke { " -- --smoke" } else { "" }
    );
    let _ = writeln!(json, "  \"mode\": \"{mode}\",");
    let _ = writeln!(
        json,
        "  \"host_parallelism\": {},",
        executor::default_parallelism()
    );
    let _ = writeln!(json, "  \"jobs\": {},", ex.jobs());
    let _ = writeln!(json, "  \"points\": [");
    for (i, (label, secs)) in per_point.iter().enumerate() {
        let comma = if i + 1 < per_point.len() { "," } else { "" };
        // `serial_secs` is kept for readers of the old shape; `serial_us`
        // is the authoritative value — smoke points finish in hundreds of
        // microseconds and used to flatten to "0.000".
        let _ = writeln!(
            json,
            "    {{\"label\": \"{}\", \"serial_secs\": {secs:.3}, \"serial_us\": {}}}{comma}",
            json_escape(label),
            (secs * 1e6).round() as u64
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"serial_secs\": {serial_secs:.3},");
    let _ = writeln!(json, "  \"parallel_secs\": {parallel_secs:.3},");
    let _ = match speedup {
        Some(s) => writeln!(json, "  \"speedup\": {s:.3}"),
        None => writeln!(json, "  \"speedup\": null"),
    };
    let _ = writeln!(json, "}}");

    let file = if smoke {
        "BENCH_campaign.smoke.json"
    } else {
        "BENCH_campaign.json"
    };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    let path = path.canonicalize().unwrap_or(path);

    // History: compare first (against the previous entry), then append
    // this run, so `--check` never compares a run against itself.
    let history_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_history.jsonl");
    let history = std::fs::read_to_string(&history_path).unwrap_or_default();
    let check_ok = if check {
        check_against_history(&history, mode, &per_point)
    } else {
        true
    };
    let entry = history_line(mode, ex.jobs(), &per_point, parallel_secs);
    let mut appended = history;
    appended.push_str(&entry);
    appended.push('\n');
    std::fs::write(&history_path, appended)
        .unwrap_or_else(|e| panic!("appending {}: {e}", history_path.display()));
    println!("# campaign wall-clock ({mode}): {} points", labels.len());
    for (label, secs) in &per_point {
        println!("{label:<28} {:>8.3} s", secs);
    }
    let speedup = speedup.map_or("n/a".to_owned(), |s| format!("{s:.2}x"));
    println!(
        "serial {serial_secs:.3} s | parallel {parallel_secs:.3} s (jobs={}) | speedup {speedup}",
        ex.jobs()
    );
    println!("wrote {}", path.display());
    if !check_ok {
        // The regression is already appended to the history, so a
        // re-run after a fix compares against honest data.
        if std::env::var("ACC_BENCH_GATE").as_deref() == Ok("off") {
            println!("bench --check: ACC_BENCH_GATE=off — regression reported, not gated");
        } else {
            eprintln!(
                "bench --check: FAILED — wall-time regression past the noise bound \
                 (set ACC_BENCH_GATE=off to report without gating, or \
                 ACC_BENCH_TOLERANCE_PCT to widen the bound)"
            );
            std::process::exit(1);
        }
    }
}
