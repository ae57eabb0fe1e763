//! The three phases of one workload run.
//!
//! 1. **Setup**, repeated at least [`MIN_SETUPS`] times and for at least
//!    [`SETUP_SECONDS`]: every cell once with the serial oracles on; the
//!    first repetition's simulated outputs are the reference, the later
//!    ones must reproduce it.
//! 2. **Timed passes**, tracing off: every cell once per pass with the
//!    oracles off, each outcome checked against the reference. The
//!    end-to-end host times come from here.
//! 3. **Traced rounds** (only when tracing): one pass with a span per
//!    cell, then the single-layer calls of [`crate::layers`]. The
//!    per-layer metrics come from here.
//!
//! The loop is closed with one client: the next cell starts only when
//! the previous one has finished.

use std::time::{Duration, Instant};

use acc_core::RunOutcome;
use acc_sim::SimDuration;

use crate::alloc::AllocSnapshot;
use crate::layers::{self, Allocs};
use crate::trace::Tracer;
use crate::workloads::{fnv1a, Cell, Workload};

/// Setup repetitions made even when [`SETUP_SECONDS`] runs out first;
/// `setup_s` is the median repetition.
const MIN_SETUPS: usize = 3;
/// Host seconds of setup repetitions per run, so that a workload whose
/// setup takes milliseconds still reports a median over many.
const SETUP_SECONDS: f64 = 1.0;
/// Timed passes made even when `--seconds` runs out first.
const MIN_PASSES: usize = 5;
/// Traced rounds made even when `--seconds` runs out first.
const MIN_TRACED_ROUNDS: usize = 3;
/// Share of `--seconds` given to the timed passes of a traced run; the
/// rest goes to the traced rounds.
const TRACED_RUN_PASS_SHARE: f64 = 0.25;

/// Simulated quantities of one run, summed the way the model layer
/// reports them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Model {
    pub compute: SimDuration,
    pub comm: SimDuration,
    pub protocol_cpu: SimDuration,
    pub interrupts: u64,
    pub switch_drops: u64,
    pub retransmits: u64,
    pub degraded_nodes: u64,
}

impl Model {
    fn add(&mut self, o: &Model) {
        self.compute += o.compute;
        self.comm += o.comm;
        self.protocol_cpu += o.protocol_cpu;
        self.interrupts += o.interrupts;
        self.switch_drops += o.switch_drops;
        self.retransmits += o.retransmits;
        self.degraded_nodes += o.degraded_nodes;
    }
}

/// What one cell produced, in simulated terms only: two runs of the
/// same cell and seed must give equal values.
#[derive(Clone, Debug, PartialEq)]
pub struct CellOutput {
    /// FNV-1a over every simulated output field of every draw.
    pub fingerprint: u64,
    /// Simulated wall time of the run (the median draw), in ms.
    pub sim_ms: f64,
    /// Summed over draws.
    pub model: Model,
}

fn output_of(outcome: &RunOutcome) -> CellOutput {
    // Every field a run reports except `verified`, which only says
    // whether the oracle ran.
    let (canonical, model) = match outcome {
        RunOutcome::Fft(r) => (
            format!(
                "fft {} {} {} {} {} {} {} {} {:?}",
                r.total.as_ps(),
                r.compute.as_ps(),
                r.transpose.as_ps(),
                r.transpose_compute.as_ps(),
                r.transpose_comm.as_ps(),
                r.switch_drops,
                r.protocol_cpu.as_ps(),
                r.interrupts,
                r.faults
            ),
            Model {
                compute: r.compute + r.transpose_compute,
                comm: r.transpose_comm,
                protocol_cpu: r.protocol_cpu,
                interrupts: r.interrupts,
                switch_drops: r.switch_drops,
                retransmits: r.faults.retransmits,
                degraded_nodes: r.faults.degraded_nodes,
            },
        ),
        RunOutcome::Sort(r) => (
            format!(
                "sort {} {} {} {} {} {} {} {} {:?}",
                r.total.as_ps(),
                r.bucket1.as_ps(),
                r.comm.as_ps(),
                r.bucket2.as_ps(),
                r.count.as_ps(),
                r.switch_drops,
                r.protocol_cpu.as_ps(),
                r.interrupts,
                r.faults
            ),
            Model {
                compute: r.bucket1 + r.bucket2 + r.count,
                comm: r.comm,
                protocol_cpu: r.protocol_cpu,
                interrupts: r.interrupts,
                switch_drops: r.switch_drops,
                retransmits: r.faults.retransmits,
                degraded_nodes: r.faults.degraded_nodes,
            },
        ),
        RunOutcome::Coll(r) => (
            format!(
                "coll {} {} {} {:?}",
                r.total.as_ps(),
                r.comm.as_ps(),
                r.compute.as_ps(),
                r.faults
            ),
            Model {
                compute: r.compute,
                comm: r.comm,
                retransmits: r.faults.retransmits,
                degraded_nodes: r.faults.degraded_nodes,
                ..Model::default()
            },
        ),
        // No cell runs the AllReduce veneer, and hung runs are
        // failures, not outputs.
        RunOutcome::Reduce(_) | RunOutcome::Hung(_) => {
            unreachable!("no simulated outputs to read from {outcome:?}")
        }
    };
    CellOutput {
        fingerprint: fnv1a(canonical.as_bytes()),
        sim_ms: outcome.total().as_millis_f64(),
        model,
    }
}

/// Execute one cell: each of its draws, one after another, appending
/// each draw's host seconds to `draw_s`. A panic (caught), a hang, or —
/// with `verify` — a result the oracle rejected comes back as `Err`
/// with its reason.
pub fn run_cell(
    cell: &Cell,
    seed: u64,
    verify: bool,
    draw_s: &mut Vec<f64>,
) -> Result<CellOutput, String> {
    let mut draws = Vec::new();
    for draw in 0..cell.draws() {
        let started = Instant::now();
        let outcome = acc_bench::repro::execute_caught(cell.request(seed, draw, verify));
        draw_s.push(started.elapsed().as_secs_f64());
        let outcome = outcome.map_err(|msg| format!("draw {draw} panicked: {msg}"))?;
        draws.push(match &outcome {
            RunOutcome::Hung(report) => Err(format!(
                "draw {draw} hung: {}; stuck in {}",
                report.cause,
                report.attribution()
            )),
            o if verify && !o.verified() => {
                Err(format!("draw {draw} diverged from the serial oracle"))
            }
            o => Ok(output_of(o)),
        }?);
    }
    if draws.len() == 1 {
        return Ok(draws.remove(0));
    }
    let mut model = Model::default();
    for d in &draws {
        model.add(&d.model);
    }
    let prints: Vec<u8> = draws
        .iter()
        .flat_map(|d| d.fingerprint.to_le_bytes())
        .collect();
    let sim_ms: Vec<f64> = draws.iter().map(|d| d.sim_ms).collect();
    Ok(CellOutput {
        fingerprint: fnv1a(&prints),
        sim_ms: crate::stats::median(&sim_ms),
        model,
    })
}

/// Runs attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one run of `cell`; it fails if it errored or its outputs
    /// differ from `reference` (when there is one to compare with).
    fn count(
        &mut self,
        cell: &Cell,
        result: Result<CellOutput, String>,
        reference: Option<&Option<CellOutput>>,
    ) -> Option<CellOutput> {
        self.attempted += 1;
        let verdict = match (result, reference) {
            (Err(e), _) => Err(e),
            (Ok(_), Some(None)) => Err("no reference output to compare with".into()),
            (Ok(out), Some(Some(want))) if out != *want => {
                Err("simulated outputs diverged from the setup reference".into())
            }
            (Ok(out), _) => Ok(out),
        };
        match verdict {
            Ok(out) => Some(out),
            Err(reason) => {
                self.failed += 1;
                if self.reasons.len() < 8 {
                    self.reasons.push(format!("{}: {reason}", cell.label));
                }
                None
            }
        }
    }
}

/// The traced phase's results.
pub struct Traced {
    pub tracer: Tracer,
    pub allocs: Allocs,
}

/// Everything one workload run measured.
pub struct Run {
    /// Per cell: the first setup repetition's outputs (`None` where it
    /// failed).
    pub reference: Vec<Option<CellOutput>>,
    pub setup_s: Vec<f64>,
    /// Host seconds of each timed pass.
    pub pass_s: Vec<f64>,
    /// Per cell and draw: host seconds of each of its timed runs.
    pub draw_s: Vec<Vec<Vec<f64>>>,
    /// Allocations of the last timed pass.
    pub pass_allocs: AllocSnapshot,
    /// `VmHWM` after the timed passes, in MiB.
    pub peak_rss_mib: f64,
    pub tally: Tally,
    pub traced: Option<Traced>,
}

impl Run {
    /// Simulated outputs of one whole pass, summed over cells.
    pub fn model(&self) -> Model {
        let mut m = Model::default();
        for out in self.reference.iter().flatten() {
            m.add(&out.model);
        }
        m
    }

    /// FNV-1a over every cell's reference fingerprint, in cell order
    /// (a failed cell contributes 0).
    pub fn sim_fingerprint(&self) -> u64 {
        let bytes: Vec<u8> = self
            .reference
            .iter()
            .flat_map(|o| o.as_ref().map_or(0, |o| o.fingerprint).to_le_bytes())
            .collect();
        fnv1a(&bytes)
    }

    /// Per cell: its host seconds at the noise floor. Interference from
    /// other work on the host comes in bursts of a second or more and
    /// only ever adds time, so a draw's fastest run over the passes is
    /// the estimate of its own cost that varies least from run to run.
    /// A cell with several draws counts each at its median draw's
    /// cost, as its simulated time is its median draw's: the loss
    /// sequences of a seed decide how long the slowest draws simulate
    /// retransmission timeouts, and the median is what stays put from
    /// seed to seed.
    /// A cell that never completed a timed pass counts 0.
    pub fn cell_floor_s(&self) -> Vec<f64> {
        self.draw_s
            .iter()
            .map(|draws| {
                if draws[0].is_empty() {
                    return 0.0;
                }
                let floors: Vec<f64> = draws.iter().map(|runs| fastest(runs)).collect();
                crate::stats::median(&floors) * draws.len() as f64
            })
            .collect()
    }

    /// Host seconds of one pass at the noise floor: the sum of
    /// [`Run::cell_floor_s`].
    pub fn floor_pass_s(&self) -> f64 {
        self.cell_floor_s().iter().sum()
    }

    /// Host seconds of one pass with every cell at its fastest whole
    /// timed run (all draws of one pass): what a traced pass's cells
    /// are compared with to price the tracing.
    pub fn whole_floor_pass_s(&self) -> f64 {
        self.draw_s
            .iter()
            .filter(|draws| !draws[0].is_empty())
            .map(|draws| {
                let whole: Vec<f64> = (0..draws[0].len())
                    .map(|i| draws.iter().map(|runs| runs[i]).sum())
                    .collect();
                fastest(&whole)
            })
            .sum()
    }
}

/// The smallest of `samples` (infinity for none).
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One pass: every cell once, outcomes checked against `reference`.
/// Each draw's host seconds are appended to its `draw_s` entry when the
/// cell completes, so the entries of a cell's draws stay aligned pass
/// by pass.
fn pass(
    w: &Workload,
    seed: u64,
    reference: &[Option<CellOutput>],
    tally: &mut Tally,
    draw_s: &mut [Vec<Vec<f64>>],
) {
    let mut times = Vec::new();
    for ((cell, want), per_draw) in w.cells.iter().zip(reference).zip(draw_s) {
        times.clear();
        let result = run_cell(cell, seed, false, &mut times);
        if result.is_ok() {
            for (samples, &t) in per_draw.iter_mut().zip(&times) {
                samples.push(t);
            }
        }
        tally.count(cell, result, Some(want));
    }
}

/// Run the three phases of `w`: timed passes for `seconds` when not
/// tracing, split between timed passes and traced rounds when tracing.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<Run, String> {
    let mut tally = Tally::default();

    let mut reference: Option<Vec<Option<CellOutput>>> = None;
    let mut setup_s = Vec::new();
    let setup_started = Instant::now();
    while setup_s.len() < MIN_SETUPS || setup_started.elapsed().as_secs_f64() < SETUP_SECONDS {
        let started = Instant::now();
        let outs: Vec<Option<CellOutput>> = w
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let want = reference.as_ref().map(|r| &r[i]);
                tally.count(c, run_cell(c, seed, true, &mut Vec::new()), want)
            })
            .collect();
        setup_s.push(started.elapsed().as_secs_f64());
        reference.get_or_insert(outs);
    }
    let reference = reference.expect("at least one setup repetition");

    let share = if trace { TRACED_RUN_PASS_SHARE } else { 1.0 };
    let budget = Duration::from_secs_f64(seconds * share);
    let mut pass_s = Vec::new();
    let mut draw_s: Vec<Vec<Vec<f64>>> = w
        .cells
        .iter()
        .map(|c| vec![Vec::new(); c.draws() as usize])
        .collect();
    let mut pass_allocs = AllocSnapshot {
        allocs: 0,
        bytes: 0,
    };
    let started = Instant::now();
    while pass_s.len() < MIN_PASSES || started.elapsed() < budget {
        let before = AllocSnapshot::now();
        let t = Instant::now();
        pass(w, seed, &reference, &mut tally, &mut draw_s);
        pass_s.push(t.elapsed().as_secs_f64());
        pass_allocs = before.until(AllocSnapshot::now());
    }
    let peak_rss_mib = peak_rss_mib()?;

    let traced = trace.then(|| {
        let faults = crate::workloads::workload("faults").expect("faults is a workload");
        let inputs = layers::Inputs::new(seed, &faults.cells);
        let mut tracer = Tracer::new();
        let mut rounds = 0;
        let mut allocs = Allocs::default();
        let budget = Duration::from_secs_f64(seconds * (1.0 - share));
        let started = Instant::now();
        while rounds < MIN_TRACED_ROUNDS || started.elapsed() < budget {
            tracer.span("core.pass", |t| {
                for (cell, want) in w.cells.iter().zip(&reference) {
                    let result = t.span(format!("core.cell.{}", cell.label), |_| {
                        run_cell(cell, seed, false, &mut Vec::new())
                    });
                    tally.count(cell, result, Some(want));
                }
            });
            allocs = layers::micro_calls(&mut tracer, &inputs);
            rounds += 1;
        }
        Traced { tracer, allocs }
    });

    Ok(Run {
        reference,
        setup_s,
        pass_s,
        draw_s,
        pass_allocs,
        peak_rss_mib,
        tally,
        traced,
    })
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{workload, App, Fault, NAMES};
    use acc_core::cluster::Technology;
    use acc_net::FabricSpec;

    fn small_cell() -> Cell {
        let mut cell = workload("paper").expect("paper").cells.remove(0);
        cell.label = "sort_2e14_gigabit-tcp_p4".into();
        cell.app = App::Sort { keys: 1 << 14 };
        cell.p = 4;
        assert_eq!(cell.tech, Technology::GigabitTcp);
        cell
    }

    #[test]
    fn repeated_runs_allocate_and_simulate_identically() {
        let cell = small_cell();
        // Warm any lazily initialised state first.
        run_cell(&cell, 7, false, &mut Vec::new()).expect("warm-up run");
        let mut seen = Vec::new();
        for _ in 0..2 {
            let before = AllocSnapshot::now();
            let out = run_cell(&cell, 7, false, &mut Vec::new()).expect("small cell runs");
            seen.push((before.until(AllocSnapshot::now()), out));
        }
        assert_eq!(seen[0], seen[1]);
        assert!(seen[0].0.allocs > 0, "a run allocates");
    }

    #[test]
    fn verified_and_unverified_runs_agree() {
        let cell = small_cell();
        let verified = run_cell(&cell, 3, true, &mut Vec::new()).expect("oracle accepts");
        assert_eq!(run_cell(&cell, 3, false, &mut Vec::new()), Ok(verified));
    }

    #[test]
    fn seed_changes_inputs_but_not_correctness() {
        let cell = small_cell();
        let a = run_cell(&cell, 1, true, &mut Vec::new()).expect("seed 1 verifies");
        let b = run_cell(&cell, 2, true, &mut Vec::new()).expect("seed 2 verifies");
        assert_ne!(
            a.fingerprint, b.fingerprint,
            "different keys, different run"
        );
    }

    #[test]
    fn every_cell_is_valid_at_its_p() {
        let mut labels = std::collections::BTreeSet::new();
        for name in NAMES {
            let w = workload(name).expect("listed workload exists");
            assert_eq!(w.name, name);
            assert!(!w.cells.is_empty());
            for c in &w.cells {
                assert!(
                    labels.insert(c.label.clone()),
                    "duplicate label {}",
                    c.label
                );
                assert!(
                    c.fabric.validate(c.p).is_ok(),
                    "{}: fabric invalid at p={}",
                    c.label,
                    c.p
                );
                if let App::Coll { op, algo, elems } = c.app {
                    assert!(
                        acc_coll::supports(op, algo, c.p, elems),
                        "{}: unsupported collective cell",
                        c.label
                    );
                }
                if let Some(plan) = c.fault_plan(0xACC, 0) {
                    let p = u32::try_from(c.p).expect("p fits u32");
                    let check = if c.fabric == FabricSpec::SingleSwitch {
                        plan.validate(p)
                    } else {
                        plan.validate_for_fabric(p, acc_sim::SimTime::MAX, &c.fabric)
                    };
                    assert!(check.is_ok(), "{}: {check:?}", c.label);
                }
                assert_eq!(
                    matches!(c.fault, Fault::None),
                    c.fault_plan(1, 0).is_none(),
                    "{}",
                    c.label
                );
            }
        }
        assert_eq!(labels.len(), 33);
    }

    #[test]
    fn floors_take_fastest_runs_and_the_median_draw() {
        let run = Run {
            reference: Vec::new(),
            setup_s: vec![1.0],
            pass_s: vec![1.0, 1.0],
            draw_s: vec![
                vec![vec![3.0, 2.0], vec![5.0, 4.0], vec![1.0, 9.0]],
                vec![vec![0.5, 0.4]],
                vec![Vec::new()],
            ],
            pass_allocs: AllocSnapshot {
                allocs: 0,
                bytes: 0,
            },
            peak_rss_mib: 1.0,
            tally: Tally::default(),
            traced: None,
        };
        // Fastest draws 2, 4 and 1: three draws at the median's cost.
        assert_eq!(run.cell_floor_s(), vec![6.0, 0.4, 0.0]);
        assert_eq!(run.floor_pass_s(), 6.4);
        // Whole runs 9 and 15: the first is the fastest.
        assert_eq!(run.whole_floor_pass_s(), 9.4);
    }

    #[test]
    fn tally_counts_divergence_as_failure() {
        let cell = small_cell();
        let out = run_cell(&cell, 5, false, &mut Vec::new()).expect("runs");
        let mut other = out.clone();
        other.fingerprint ^= 1;
        let mut tally = Tally::default();
        assert!(tally
            .count(&cell, Ok(out.clone()), Some(&Some(out.clone())))
            .is_some());
        assert!(tally
            .count(&cell, Ok(out.clone()), Some(&Some(other)))
            .is_none());
        assert!(tally.count(&cell, Ok(out), Some(&None)).is_none());
        assert!(tally.count(&cell, Err("boom".into()), None).is_none());
        assert_eq!((tally.attempted, tally.failed), (4, 3));
    }
}
