//! Turning a [`Run`] into named metrics, and writing them out.
//!
//! The metric names and units a run may print are the ones declared in
//! the repository's `BENCHMARK.json`, compiled in: a run whose metrics
//! differ from the declaration fails instead of printing.

use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::layers::TIMED;
use crate::measure::{Run, Traced};
use crate::stats::{geomean, median, quartiles};
use crate::workloads::{Cell, Workload};

/// The benchmark declaration this binary was built against.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline (end-to-end only).
    pub bound: Option<f64>,
}

/// The metrics declared in `section` (`"end_to_end"` or `"per_layer"`).
///
/// # Panics
/// Panics if the compiled-in declaration is malformed.
pub fn declared(section: &str) -> Vec<Declared> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json {section} entry lacks `{k}`"))
                    .to_owned()
            };
            Declared {
                name: field("name"),
                unit: field("unit"),
                lower_is_better: field("better") == "lower",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

/// Check that `metrics` are exactly the metrics declared in `section`,
/// in order and with the declared units.
pub fn check_declared(metrics: &[Metric], section: &str) -> Result<(), String> {
    let want: Vec<(String, String)> = declared(section)
        .into_iter()
        .map(|d| (d.name, d.unit))
        .collect();
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_owned()))
        .collect();
    if want == got {
        return Ok(());
    }
    let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
    let extra: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
    Err(format!(
        "{section} metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
    ))
}

/// The end-to-end metrics: host time from the timed passes and set-up,
/// peak memory, and the simulated time the runs report.
///
/// # Panics
/// Panics if no cell completed its setup run (there is no simulated
/// time to report).
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let sim_ms: Vec<f64> = run.reference.iter().flatten().map(|o| o.sim_ms).collect();
    vec![
        metric("pass_s", run.floor_pass_s(), "s"),
        metric("setup_s", median(&run.setup_s), "s"),
        metric("peak_rss_mb", run.peak_rss_mib, "MiB"),
        metric("sim_ms", geomean(&sim_ms), "sim-ms"),
    ]
}

/// The fastest duration (ns) of the spans named `name`: the same
/// noise-floor estimate as [`Run::floor_pass_s`].
fn fastest_ns(traced: &Traced, name: &str) -> f64 {
    traced
        .tracer
        .durations_ns(name)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

/// Host ms of one traced pass at the noise floor, each cell at its
/// fastest whole run, over the cells `keep` selects.
fn traced_floor_ms(w: &Workload, traced: &Traced, keep: impl Fn(&Cell) -> bool) -> f64 {
    w.cells
        .iter()
        .filter(|c| keep(c))
        .map(|c| fastest_ns(traced, &format!("core.cell.{}", c.label)) / 1e6)
        .sum()
}

/// The per-layer metrics of a traced run.
pub fn per_layer(w: &Workload, run: &Run, traced: &Traced) -> Vec<Metric> {
    let model = run.model();
    let (q1, q3) = quartiles(&run.pass_s);
    let mut out = vec![
        metric(
            "core.allocs_per_pass",
            run.pass_allocs.allocs as f64,
            "count",
        ),
        metric(
            "core.alloc_mib_per_pass",
            run.pass_allocs.bytes as f64 / (1u64 << 20) as f64,
            "MiB",
        ),
        metric(
            "core.verify_ms",
            (median(&run.setup_s) - median(&run.pass_s)) * 1e3,
            "ms",
        ),
        metric(
            "core.tcp_cells_ms",
            traced_floor_ms(w, traced, Cell::uses_tcp),
            "ms",
        ),
        metric(
            "core.inic_cells_ms",
            traced_floor_ms(w, traced, |c| !c.uses_tcp()),
            "ms",
        ),
        metric("model.compute_ms", model.compute.as_millis_f64(), "sim-ms"),
        metric("model.comm_ms", model.comm.as_millis_f64(), "sim-ms"),
        metric(
            "model.protocol_cpu_ms",
            model.protocol_cpu.as_millis_f64(),
            "sim-ms",
        ),
        metric("model.interrupts", model.interrupts as f64, "count"),
        metric("model.switch_drops", model.switch_drops as f64, "count"),
        metric("model.retransmits", model.retransmits as f64, "count"),
        metric("model.degraded_nodes", model.degraded_nodes as f64, "count"),
    ];
    for t in TIMED {
        let ns = fastest_ns(traced, t.span);
        out.push(metric(t.metric, ns / t.units / t.ns_per_unit, t.unit));
    }
    let a = traced.allocs;
    out.extend([
        metric("net.switch_fwd_allocs", a.switch_fwd_per_frame, "count"),
        metric("proto.tcp_1mib_allocs", a.tcp_1mib, "count"),
        metric("proto.inic_packetize_allocs", a.inic_packetize, "count"),
        metric("coll.f64_codec_allocs", a.f64_codec, "count"),
        metric(
            "bench.trace_overhead_pct",
            (traced_floor_ms(w, traced, |_| true) / 1e3 / run.whole_floor_pass_s() - 1.0) * 100.0,
            "%",
        ),
        metric("bench.pass_s_median", median(&run.pass_s), "s"),
        metric("bench.pass_s_q1", q1, "s"),
        metric("bench.pass_s_q3", q3, "s"),
        metric("bench.passes", run.pass_s.len() as f64, "count"),
    ]);
    out
}

/// Where a run came from.
pub struct Context<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The `--out` results document of one run.
pub fn results_json(ctx: &Context, run: &Run, metrics: &[Metric]) -> String {
    let (q1, q3) = quartiles(&run.pass_s);
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": {},", json::quote(ctx.workload.name));
    let _ = writeln!(s, "  \"seed\": {},", ctx.seed);
    let _ = writeln!(s, "  \"seconds\": {},", json::number(ctx.seconds));
    let _ = writeln!(s, "  \"trace\": {},", u8::from(ctx.trace));
    let _ = writeln!(
        s,
        "  \"host\": {{\"nproc\": {}, \"cpu_model\": {}}},",
        nproc(),
        json::quote(&cpu_model())
    );
    let _ = writeln!(s, "  \"correct\": {},", run.tally.failed == 0);
    let _ = writeln!(s, "  \"attempted\": {},", run.tally.attempted);
    let _ = writeln!(s, "  \"failed\": {},", run.tally.failed);
    let _ = writeln!(
        s,
        "  \"failures\": [{}],",
        run.tally
            .reasons
            .iter()
            .map(|r| json::quote(r))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        s,
        "  \"sim_fingerprint\": \"{:#018x}\",",
        run.sim_fingerprint()
    );
    let samples = |v: &[f64]| {
        v.iter()
            .map(|&x| json::number(x))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(
        s,
        "  \"pass_wall_s\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"samples\": [{}]}},",
        json::number(median(&run.pass_s)),
        json::number(q1),
        json::number(q3),
        run.pass_s.len(),
        samples(&run.pass_s)
    );
    let _ = writeln!(
        s,
        "  \"setup_s\": {{\"samples\": [{}]}},",
        samples(&run.setup_s)
    );
    s.push_str("  \"metrics\": {\n");
    for (i, m) in metrics.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {}: {{\"value\": {}, \"unit\": {}}}{}",
            json::quote(&m.name),
            json::number(m.value),
            json::quote(m.unit),
            if i + 1 < metrics.len() { "," } else { "" }
        );
    }
    s.push_str("  },\n  \"cells\": [\n");
    let cells = &ctx.workload.cells;
    let floors = run.cell_floor_s();
    for (i, (cell, out)) in cells.iter().zip(&run.reference).enumerate() {
        let _ = writeln!(
            s,
            "    {{\"label\": {}, \"sim_ms\": {}, \"fingerprint\": {}, \"host_ms\": {}}}{}",
            json::quote(&cell.label),
            out.as_ref()
                .map_or("null".into(), |o| json::number(o.sim_ms)),
            out.as_ref()
                .map_or("null".into(), |o| format!("\"{:#018x}\"", o.fingerprint)),
            json::number(floors[i] * 1e3),
            if i + 1 < cells.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// The human-readable report: every metric of the run by name, with
/// its unit, and the per-cell table.
pub fn human(ctx: &Context, run: &Run, metrics: &[Metric]) -> String {
    let mut s = String::new();
    let (q1, q3) = quartiles(&run.pass_s);
    let _ = writeln!(
        s,
        "== {} (seed {:#x}, {} s, trace {}; nproc {}, {})",
        ctx.workload.name,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        nproc(),
        cpu_model()
    );
    let _ = writeln!(
        s,
        "pass wall time median {:.4} s, q1 {q1:.4}, q3 {q3:.4}, n {}; {} setup repetitions",
        median(&run.pass_s),
        run.pass_s.len(),
        run.setup_s.len()
    );
    for m in metrics {
        let _ = writeln!(s, "  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        s,
        "  {:<48} {:>12} {:>14}",
        "cell", "sim ms", "floor host ms"
    );
    let floors = run.cell_floor_s();
    for ((cell, out), floor) in ctx.workload.cells.iter().zip(&run.reference).zip(floors) {
        let host = format!("{:.3}", floor * 1e3);
        let sim = out
            .as_ref()
            .map_or(String::from("FAILED"), |o| format!("{:.3}", o.sim_ms));
        let _ = writeln!(s, "  {:<48} {sim:>12} {host:>14}", cell.label);
    }
    let _ = writeln!(
        s,
        "sim_fingerprint {:#018x}; failed_frac {}/{}",
        run.sim_fingerprint(),
        run.tally.failed,
        run.tally.attempted
    );
    for r in &run.tally.reasons {
        let _ = writeln!(s, "  failure: {r}");
    }
    s
}

/// The result line the benchmark prints last.
pub fn result_line(run: &Run, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(&m.name),
                json::number(m.value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.tally.failed == 0,
        run.tally.attempted,
        run.tally.failed,
        body.join(", ")
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown CPU".to_owned())
}
