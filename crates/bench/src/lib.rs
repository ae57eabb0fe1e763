//! # acc-bench — figure regenerators and benchmarks
//!
//! One binary per evaluation figure in the paper (`fig4a`, `fig4b`,
//! `fig5a`, `fig5b`, `fig8a`, `fig8b`), eleven `ablation_*` binaries,
//! the `soak` chaos campaign and the `acc_cluster` scenario runner, plus
//! three plain (`harness = false`) benchmark binaries under `benches/`
//! over the real kernels and the simulation engine. The simulator's
//! end-to-end timing lives in the `acc_benchmark` package under
//! `src/bin/acc_benchmark/`, a workspace of its own. Every binary runs its
//! clusters through [`acc_core::RunRequest::execute`]. See
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record of every figure.
//!
//! ## Conventions
//!
//! * Speedups are always relative to the **serial baseline**: the
//!   simulated single-processor Gigabit run, which exercises no network
//!   and equals a plain serial execution of the application (or, for
//!   the analytic INIC curves, the model's own serial term built from
//!   the identical kernel calibration).
//! * Simulated points sweep `P ∈ {1, 2, 4, 8, 16}` — power-of-two node
//!   counts, which both workloads require for even partitioning; the
//!   paper itself notes its non-power-of-two INIC points are
//!   interpolated "strictly to smooth the curve".
//! * Figure workloads run with result verification off (the serial
//!   oracle at 2²⁵ keys costs more than the experiment); correctness at
//!   these scales is covered by the integration test suite.

#![forbid(unsafe_code)]

use acc_core::cluster::{ClusterSpec, Technology};
use acc_core::report::Series;
use acc_core::RunRequest;

pub mod campaign;
pub mod executor;
pub mod harness;
pub mod repro;

pub use executor::Executor;

/// The simulated processor sweep.
pub const SIM_PROCS: [usize; 5] = [1, 2, 4, 8, 16];

/// A spec with verification disabled for large figure workloads.
pub fn figure_spec(p: usize, technology: Technology) -> ClusterSpec {
    let mut spec = ClusterSpec::new(p, technology);
    spec.verify = false;
    spec
}

/// Simulated FFT total times over the sweep, fanned across `ex`.
pub fn fft_totals(ex: &Executor, technology: Technology, rows: usize) -> Vec<(usize, f64)> {
    let requests = SIM_PROCS
        .iter()
        .map(|&p| RunRequest::fft(figure_spec(p, technology), rows))
        .collect();
    SIM_PROCS
        .iter()
        .zip(ex.run_all(requests))
        .map(|(&p, outcome)| (p, outcome.total().as_secs_f64()))
        .collect()
}

/// Simulated FFT speedup series for one technology, normalised to the
/// serial (Gigabit P=1) time.
pub fn fft_speedup_series(
    ex: &Executor,
    name: &str,
    technology: Technology,
    rows: usize,
    serial: f64,
) -> Series {
    let mut s = Series::new(name);
    for (p, t) in fft_totals(ex, technology, rows) {
        s.push(p as f64, serial / t);
    }
    s
}

/// The serial FFT baseline: simulated Gigabit run at P=1 (no network
/// activity — pure compute + local transposes).
pub fn fft_serial_time(rows: usize) -> f64 {
    RunRequest::fft(figure_spec(1, Technology::GigabitTcp), rows)
        .execute()
        .total()
        .as_secs_f64()
}

/// Simulated sort total times over the sweep, fanned across `ex`.
pub fn sort_totals(ex: &Executor, technology: Technology, total_keys: u64) -> Vec<(usize, f64)> {
    let requests = SIM_PROCS
        .iter()
        .map(|&p| RunRequest::sort(figure_spec(p, technology), total_keys))
        .collect();
    SIM_PROCS
        .iter()
        .zip(ex.run_all(requests))
        .map(|(&p, outcome)| (p, outcome.total().as_secs_f64()))
        .collect()
}

/// The serial sort baseline: simulated Gigabit run at P=1.
pub fn sort_serial_time(total_keys: u64) -> f64 {
    RunRequest::sort(figure_spec(1, Technology::GigabitTcp), total_keys)
        .execute()
        .total()
        .as_secs_f64()
}

/// Simulated sort speedup series for one technology.
pub fn sort_speedup_series(
    ex: &Executor,
    name: &str,
    technology: Technology,
    total_keys: u64,
    serial: f64,
) -> Series {
    let mut s = Series::new(name);
    for (p, t) in sort_totals(ex, technology, total_keys) {
        s.push(p as f64, serial / t);
    }
    s
}

/// Partition-size series in KiB (the right-hand axes of Figs. 4(b) and
/// 5(a)).
pub fn partition_series(name: &str, total_bytes: u64) -> Series {
    let mut s = Series::new(name);
    for &p in &SIM_PROCS {
        s.push(p as f64, total_bytes as f64 / p as f64 / 1024.0);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_baseline_is_positive_and_stable() {
        let a = fft_serial_time(64);
        let b = fft_serial_time(64);
        assert!(a > 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn partition_series_halves_per_doubling() {
        let s = partition_series("S", 1 << 20);
        assert_eq!(s.at(1.0), Some(1024.0));
        assert_eq!(s.at(2.0), Some(512.0));
        assert_eq!(s.at(16.0), Some(64.0));
    }

    #[test]
    fn speedup_series_has_all_sweep_points() {
        let ex = Executor::serial();
        let serial = fft_serial_time(64);
        let s = fft_speedup_series(&ex, "x", Technology::InicIdeal, 64, serial);
        assert_eq!(s.points.len(), SIM_PROCS.len());
        // P=1 speedup close to 1 for the technology whose baseline this is.
        let own = fft_speedup_series(&ex, "g", Technology::GigabitTcp, 64, serial);
        let s1 = own.at(1.0).unwrap();
        assert!((s1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sweep_is_identical_serial_and_parallel() {
        // The executor determinism contract on a real workload: the
        // whole sweep, serial vs 4 workers, to the last bit.
        let serial = sort_totals(&Executor::serial(), Technology::InicIdeal, 1 << 12);
        let parallel = sort_totals(&Executor::new(4), Technology::InicIdeal, 1 << 12);
        assert_eq!(serial, parallel);
    }
}
