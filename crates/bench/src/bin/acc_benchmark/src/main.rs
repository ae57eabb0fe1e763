//! `acc_benchmark` — closed-loop benchmark of the ACC simulator.
//!
//! ```text
//! acc_benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <dir>]
//! acc_benchmark compare <A.json>... -- <B.json>...
//! ```
//!
//! With `--workload`, runs that workload in this process (see
//! [`measure`] for its phases) and prints, as the last line of standard
//! output, one JSON object with the run's `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Every metric measured, the
//! per-cell table and the simulated-output fingerprint go to standard
//! error; a results file (and, when tracing, a Chrome trace) goes to
//! `--out` (default `target/acc-benchmark`).
//!
//! Without `--workload`, runs every workload in turn, each in a child
//! process of its own (never two at once) that prints its own report
//! and result line, so peak memory is per workload.
//!
//! `--seed` (decimal or `0x` hex, default `0xACC`) is the cluster seed
//! of every cell and the source of every fault-plan seed; the same seed
//! reproduces every simulated output. `--seconds` (default: the
//! `run_seconds` of `BENCHMARK.json`) is how long one run measures.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/acc_benchmark/Cargo.toml -- --workload paper
//! ```

mod alloc;
mod compare;
mod json;
mod layers;
mod measure;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::{Context, Metric};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: acc_benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace 0|1] [--out <dir>]\n       \
                     acc_benchmark compare <A.json>... -- <B.json>...";

/// The workload seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 0xACC;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("--seed: `{s}` is not a decimal or 0x-hex integer"))
}

fn default_seconds() -> f64 {
    json::parse(report::BENCHMARK_JSON)
        .ok()
        .and_then(|d| d.get("run_seconds").and_then(json::Json::as_f64))
        .expect("BENCHMARK.json declares run_seconds")
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: default_seconds(),
        trace: true,
        out: PathBuf::from("target/acc-benchmark"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if workloads::workload(&name).is_none() {
                    return Err(format!(
                        "unknown workload `{name}` (one of {})",
                        workloads::NAMES.join(", ")
                    ));
                }
                cli.workload = Some(name);
            }
            "--seed" => cli.seed = parse_seed(&value()?)?,
            "--seconds" => {
                let v = value()?;
                cli.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not in (0, 3600]"))?;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is not 0 or 1")),
                }
            }
            "--out" => cli.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn write(path: PathBuf, contents: &str) -> Result<(), String> {
    std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Run one workload in this process and print its result line.
fn run_one(name: &str, cli: &Cli) -> Result<(), String> {
    let w = workloads::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let run = measure::run(&w, cli.seed, cli.seconds, cli.trace)?;
    if run.reference.iter().all(Option::is_none) {
        return Err(format!(
            "no cell of `{name}` completed its setup run: {:?}",
            run.tally.reasons
        ));
    }
    let e2e = report::end_to_end(&run);
    report::check_declared(&e2e, "end_to_end")?;
    let layer = match &run.traced {
        Some(t) => {
            let m = report::per_layer(&w, &run, t);
            report::check_declared(&m, "per_layer")?;
            m
        }
        None => Vec::new(),
    };
    let all: Vec<Metric> = e2e.iter().chain(&layer).cloned().collect();
    let ctx = Context {
        workload: &w,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    eprint!("{}", report::human(&ctx, &run, &all));

    std::fs::create_dir_all(&cli.out)
        .map_err(|e| format!("creating {}: {e}", cli.out.display()))?;
    let stem = format!("{name}-seed{}", cli.seed);
    let results = cli
        .out
        .join(format!("{stem}-trace{}.json", u8::from(cli.trace)));
    write(results.clone(), &report::results_json(&ctx, &run, &all))?;
    eprintln!("results: {}", results.display());
    if let Some(t) = &run.traced {
        let trace = cli.out.join(format!("{stem}.trace.json"));
        write(trace.clone(), &t.tracer.to_chrome_json())?;
        eprintln!(
            "trace (open in https://ui.perfetto.dev): {}",
            trace.display()
        );
    }

    let shown = if cli.trace { &layer } else { &e2e };
    println!("{}", report::result_line(&run, shown));
    Ok(())
}

/// Run every workload, one child process at a time; each prints its
/// own report and result line.
fn run_all(cli: &Cli) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    for name in workloads::NAMES {
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&cli.out)
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("starting the `{name}` run: {e}"))?;
        if !status.success() {
            return Err(format!("the `{name}` run failed ({status})"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("acc_benchmark compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("acc_benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &cli.workload {
        Some(name) => run_one(name, &cli),
        None => run_all(&cli),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("acc_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::run;
    use crate::workloads::{workload, App};

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("2764"), Ok(2764));
        assert_eq!(parse_seed("0xACC"), Ok(0xACC));
        assert!(parse_seed("ten").is_err());
    }

    #[test]
    fn cli_rejects_bad_input() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_cli(&args("--workload nope")).is_err());
        assert!(parse_cli(&args("--trace 2")).is_err());
        assert!(parse_cli(&args("--seconds -1")).is_err());
        assert!(parse_cli(&args("--seed")).is_err());
        let cli = parse_cli(&args("--workload faults --seed 9 --seconds 2 --trace 0"))
            .expect("valid arguments");
        assert_eq!(cli.workload.as_deref(), Some("faults"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (9, 2.0, false));
    }

    /// A two-cell stand-in for a workload: one small sort per stack.
    fn tiny() -> workloads::Workload {
        let mut w = workload("paper").expect("paper");
        w.cells.truncate(2);
        for c in &mut w.cells {
            c.app = App::Sort { keys: 1 << 12 };
            c.p = 4;
        }
        w
    }

    #[test]
    fn emitted_metrics_are_exactly_the_declared_ones() {
        let w = tiny();
        let r = run(&w, 11, 0.01, true).expect("tiny run");
        assert_eq!(r.tally.failed, 0, "{:?}", r.tally.reasons);
        let e2e = report::end_to_end(&r);
        report::check_declared(&e2e, "end_to_end").expect("end-to-end set");
        let t = r.traced.as_ref().expect("traced run");
        let layer = report::per_layer(&w, &r, t);
        report::check_declared(&layer, "per_layer").expect("per-layer set");
        for m in e2e.iter().chain(&layer) {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        let line = report::result_line(&r, &e2e);
        let doc = json::parse(&line).expect("result line is JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let ctx = Context {
            workload: &w,
            seed: 11,
            seconds: 0.01,
            trace: true,
        };
        let all: Vec<Metric> = e2e.iter().chain(&layer).cloned().collect();
        let file = compare::RunFile::parse(&report::results_json(&ctx, &r, &all))
            .expect("results file parses");
        assert_eq!(file.metrics.len(), all.len());
        assert_eq!(file.workload, "paper");
    }

    #[test]
    fn declaration_is_well_formed() {
        let e2e = report::declared("end_to_end");
        let layer = report::declared("per_layer");
        assert!(e2e.iter().any(|d| d.name == "setup_s" && d.unit == "s"));
        let setup_bound = e2e
            .iter()
            .find(|d| d.name == "setup_s")
            .and_then(|d| d.bound)
            .expect("setup_s has a bound");
        for d in &e2e {
            let b = d.bound.expect("end-to-end metrics have bounds");
            assert!(b > 0.0 && b <= 0.25 && b <= setup_bound, "{}", d.name);
        }
        assert!(layer.iter().all(|d| d.bound.is_none()));
        let mut names: Vec<&str> = e2e.iter().chain(&layer).map(|d| d.name.as_str()).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
    }
}
