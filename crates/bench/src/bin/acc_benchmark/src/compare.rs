//! `acc_benchmark compare <A.json>... -- <B.json>...`
//!
//! Compares two sets of results files (A: the baseline, B: the change)
//! and gives each (workload, metric) pair one verdict:
//!
//! * host-time and memory metrics (every end-to-end metric with a
//!   bound, except `sim_ms`): **better** when B wins at least 9 of 10
//!   pairs (run i of A against run i of B; ties count for neither) and
//!   the medians differ by more than A's interquartile range;
//!   **unresolved** when either side's spread (IQR over median) is
//!   wider than the bound, unless every B run beats every A run;
//!   **worse** when B's median exceeds A's by more than the bound;
//!   **unchanged** otherwise;
//! * exact metrics — `sim_ms`, `sim_fingerprint`, and in traced results
//!   every `model.*` and `*allocs*` metric — are compared per seed for
//!   equality; a difference is **worse**, except that fewer allocations
//!   are **better**. No seed in common is **unresolved**;
//! * `failed_frac` (failed runs over attempted runs, summed over a
//!   set's files) must not rise.
//!
//! The exit status is 0 only when no pair is worse or unresolved.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::json::{self, Json};
use crate::report::declared;
use crate::stats::{median, quartiles};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Worse,
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// The parts of one results file a comparison reads.
#[derive(Clone, Debug)]
pub struct RunFile {
    pub workload: String,
    pub seed: u64,
    pub attempted: f64,
    pub failed: f64,
    pub fingerprint: String,
    pub metrics: BTreeMap<String, f64>,
}

impl RunFile {
    /// Parse a results file written by a benchmark run.
    pub fn parse(text: &str) -> Result<RunFile, String> {
        let doc = json::parse(text)?;
        let num = |k: &str| {
            doc.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("results file lacks number `{k}`"))
        };
        let text_field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("results file lacks string `{k}`"))
        };
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("results file lacks `metrics`")?
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("metric {name} has no value"))
            })
            .collect::<Result<_, _>>()?;
        Ok(RunFile {
            workload: text_field("workload")?,
            // Seeds are written as integers below 2^53 by this program.
            seed: num("seed")? as u64,
            attempted: num("attempted")?,
            failed: num("failed")?,
            fingerprint: text_field("sim_fingerprint")?,
            metrics,
        })
    }
}

/// Verdict for a metric measured with noise. `a` and `b` are the
/// per-run values of each side in run order; `bound` is the allowed
/// worsening as a share of A's median.
pub fn timed_verdict(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    // Orient so that lower is better.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let a: Vec<f64> = a.iter().map(|v| v * sign).collect();
    let b: Vec<f64> = b.iter().map(|v| v * sign).collect();
    let (ma, mb) = (median(&a), median(&b));
    let (qa1, qa3) = quartiles(&a);
    let (qb1, qb3) = quartiles(&b);
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(&b).filter(|(x, y)| y < x).count();
    if wins * 10 >= pairs * 9 && ma - mb > qa3 - qa1 {
        return Verdict::Better;
    }
    let spread = ((qa3 - qa1) / ma.abs()).max((qb3 - qb1) / mb.abs());
    let every_b_beats_every_a =
        b.iter().copied().fold(f64::MIN, f64::max) < a.iter().copied().fold(f64::MAX, f64::min);
    if spread > bound && !every_b_beats_every_a {
        Verdict::Unresolved
    } else if mb - ma > bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// Verdict for a deterministic metric, compared seed by seed.
/// `fewer_is_better` lets a drop count as better instead of worse.
fn exact_verdict(
    a: &BTreeMap<u64, String>,
    b: &BTreeMap<u64, String>,
    fewer_is_better: bool,
) -> Verdict {
    let common: Vec<u64> = a.keys().filter(|s| b.contains_key(s)).copied().collect();
    if common.is_empty() {
        return Verdict::Unresolved;
    }
    let mut verdict = Verdict::Unchanged;
    for s in common {
        let (x, y) = (&a[&s], &b[&s]);
        if x == y {
            continue;
        }
        let drop = match (x.parse::<f64>(), y.parse::<f64>()) {
            (Ok(x), Ok(y)) => y < x,
            _ => false,
        };
        if fewer_is_better && drop {
            verdict = Verdict::Better;
        } else {
            return Verdict::Worse;
        }
    }
    verdict
}

/// One row of the comparison table.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: String,
    pub b: String,
    pub verdict: Verdict,
}

fn summary(v: &[f64]) -> String {
    if v.is_empty() {
        return "-".into();
    }
    let (q1, q3) = quartiles(v);
    format!("{:.6} [{q1:.6}, {q3:.6}] n={}", median(v), v.len())
}

/// Compare two sets of parsed results files.
pub fn compare(a: &[RunFile], b: &[RunFile]) -> Vec<Row> {
    let workloads: BTreeSet<&str> = a
        .iter()
        .map(|r| r.workload.as_str())
        .filter(|w| b.iter().any(|r| r.workload == *w))
        .collect();
    let mut rows = Vec::new();
    for w in workloads {
        let side_a: Vec<&RunFile> = a.iter().filter(|r| r.workload == w).collect();
        let side_b: Vec<&RunFile> = b.iter().filter(|r| r.workload == w).collect();
        let mut row = |metric: &str, a: String, b: String, verdict| {
            rows.push(Row {
                workload: w.to_owned(),
                metric: metric.to_owned(),
                a,
                b,
                verdict,
            });
        };
        for d in declared("end_to_end") {
            let values = |side: &[&RunFile]| -> Vec<f64> {
                side.iter()
                    .filter_map(|r| r.metrics.get(&d.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&side_a), values(&side_b));
            if d.name == "sim_ms" {
                let by_seed = |side: &[&RunFile]| -> BTreeMap<u64, String> {
                    side.iter()
                        .filter_map(|r| r.metrics.get("sim_ms").map(|v| (r.seed, v.to_string())))
                        .collect()
                };
                let verdict = exact_verdict(&by_seed(&side_a), &by_seed(&side_b), false);
                row(&d.name, summary(&va), summary(&vb), verdict);
            } else if !va.is_empty() || !vb.is_empty() {
                let bound = d.bound.unwrap_or(0.0);
                let verdict = timed_verdict(&va, &vb, bound, d.lower_is_better);
                row(&d.name, summary(&va), summary(&vb), verdict);
            }
        }
        let fingerprints = |side: &[&RunFile]| -> BTreeMap<u64, String> {
            side.iter()
                .map(|r| (r.seed, r.fingerprint.clone()))
                .collect()
        };
        let (fa, fb) = (fingerprints(&side_a), fingerprints(&side_b));
        let verdict = exact_verdict(&fa, &fb, false);
        let shown = |f: &BTreeMap<u64, String>| format!("{} seed(s)", f.len());
        row("sim_fingerprint", shown(&fa), shown(&fb), verdict);

        let frac = |side: &[&RunFile]| {
            let attempted: f64 = side.iter().map(|r| r.attempted).sum();
            let failed: f64 = side.iter().map(|r| r.failed).sum();
            (failed, attempted)
        };
        let ((fail_a, att_a), (fail_b, att_b)) = (frac(&side_a), frac(&side_b));
        let (ra, rb) = (fail_a / att_a.max(1.0), fail_b / att_b.max(1.0));
        let verdict = if rb > ra {
            Verdict::Worse
        } else if rb < ra {
            Verdict::Better
        } else {
            Verdict::Unchanged
        };
        row(
            "failed_frac",
            format!("{fail_a}/{att_a}"),
            format!("{fail_b}/{att_b}"),
            verdict,
        );

        let exact_names: BTreeSet<&String> = side_a
            .iter()
            .chain(&side_b)
            .flat_map(|r| r.metrics.keys())
            .filter(|n| n.starts_with("model.") || n.contains("allocs"))
            .collect();
        for name in exact_names {
            let by_seed = |side: &[&RunFile]| -> BTreeMap<u64, String> {
                side.iter()
                    .filter_map(|r| r.metrics.get(name).map(|v| (r.seed, v.to_string())))
                    .collect()
            };
            let (ea, eb) = (by_seed(&side_a), by_seed(&side_b));
            if ea.is_empty() && eb.is_empty() {
                continue;
            }
            let verdict = exact_verdict(&ea, &eb, name.contains("allocs"));
            let shown = |m: &BTreeMap<u64, String>| {
                m.values().next().cloned().unwrap_or_else(|| "-".into())
            };
            row(name, shown(&ea), shown(&eb), verdict);
        }
    }
    rows
}

/// Run the subcommand on its arguments; returns whether every verdict
/// is better or unchanged.
pub fn main(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: acc_benchmark compare <A.json>... -- <B.json>...")?;
    let load = |paths: &[String]| -> Result<Vec<RunFile>, String> {
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
                RunFile::parse(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let (a, b) = (load(&args[..split])?, load(&args[split + 1..])?);
    if a.is_empty() || b.is_empty() {
        return Err("both sides need at least one results file".into());
    }
    let rows = compare(&a, &b);
    if rows.is_empty() {
        return Err("the two sets share no workload".into());
    }
    println!(
        "{:<16} {:<28} {:<48} {:<48} verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n"
    );
    for r in &rows {
        println!(
            "{:<16} {:<28} {:<48} {:<48} {}",
            r.workload, r.metric, r.a, r.b, r.verdict
        );
    }
    Ok(rows
        .iter()
        .all(|r| matches!(r.verdict, Verdict::Better | Verdict::Unchanged)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sets_are_unchanged() {
        let a = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0];
        assert_eq!(timed_verdict(&a, &a, 0.15, true), Verdict::Unchanged);
    }

    #[test]
    fn a_clear_win_is_better_and_a_clear_loss_worse() {
        let a = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0];
        let faster: Vec<f64> = a.iter().map(|v| v * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|v| v * 1.3).collect();
        assert_eq!(timed_verdict(&a, &faster, 0.15, true), Verdict::Better);
        assert_eq!(timed_verdict(&a, &slower, 0.15, true), Verdict::Worse);
        // Higher-is-better metrics flip the orientation.
        assert_eq!(timed_verdict(&a, &slower, 0.15, false), Verdict::Better);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let a = [1.0, 2.0, 0.5, 1.5, 1.0, 2.5, 0.7, 1.2, 1.9, 0.6];
        let b: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(timed_verdict(&a, &b, 0.1, true), Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_compare_per_seed() {
        let a: BTreeMap<u64, String> = [(1, "10".into()), (2, "20".into())].into();
        let same = a.clone();
        let fewer: BTreeMap<u64, String> = [(1, "9".into()), (2, "20".into())].into();
        let other_seed: BTreeMap<u64, String> = [(3, "10".into())].into();
        assert_eq!(exact_verdict(&a, &same, false), Verdict::Unchanged);
        assert_eq!(exact_verdict(&a, &fewer, false), Verdict::Worse);
        assert_eq!(exact_verdict(&a, &fewer, true), Verdict::Better);
        assert_eq!(exact_verdict(&a, &other_seed, false), Verdict::Unresolved);
    }
}
