//! The one way to run a cluster: [`RunRequest::execute`].
//!
//! Every caller — the figure regenerators, ablations, soak and fault
//! campaigns in `acc-bench`, the tests and the examples — has the same
//! shape: build a [`ClusterSpec`], pick a [`Workload`], execute, read
//! the [`RunOutcome`]. [`RunRequest`] captures that shape as a value,
//! so a campaign can *describe* its whole run matrix up front and hand
//! the list to an executor — serial or parallel — instead of
//! interleaving description and execution. A run that fails to
//! terminate comes back as [`RunOutcome::Hung`]; the `into_*`
//! accessors panic on it with the hang report.
//!
//! Each request is self-contained and owns its spec, so executing it
//! needs no shared state: the foundation of the deterministic parallel
//! executor (`acc-bench`'s `Executor`), which may run requests on any
//! worker thread in any order and still produce results indistinguishable
//! from a serial loop.

use acc_coll::{Algorithm, CollectiveOp};

use crate::cluster::{
    self, ClusterSpec, CollRunResult, FftRunResult, KeyDistribution, PartitionStrategy,
    SortRunResult,
};
use crate::liveness::HangReport;
use crate::report::FaultDiagnostics;

/// Which application a run executes, with its size parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The 2D FFT of Section 3.1 on an `rows × rows` matrix.
    Fft {
        /// Matrix dimension (rows == columns).
        rows: usize,
    },
    /// The integer sort of Section 3.2. The paper's configuration is
    /// uniform keys with top-bits partitioning ([`RunRequest::sort`]);
    /// the skew ablation varies both.
    Sort {
        /// Total keys across the cluster.
        total_keys: u64,
        /// Key distribution.
        distribution: KeyDistribution,
        /// Destination-rank assignment strategy.
        strategy: PartitionStrategy,
    },
    /// A flat AllReduce (sum) of one `elems`-element vector per node,
    /// on the engine with the technology's policy-selected algorithm.
    AllReduce {
        /// Elements per node vector.
        elems: usize,
    },
    /// One collective through the engine with an explicit algorithm
    /// (the ablation axes: collective × algorithm × technology × p).
    Collective {
        /// Which collective.
        op: CollectiveOp,
        /// Which of its algorithms.
        algo: Algorithm,
        /// Elements per node vector.
        elems: usize,
    },
    /// The halo-exchange stencil workload (allreduce-heavy).
    Halo {
        /// Strip width per node, in elements.
        elems: usize,
        /// Stencil sweeps.
        iters: usize,
    },
}

/// One fully-described simulation run: spec + workload.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// The cluster to build.
    pub spec: ClusterSpec,
    /// The application to run on it.
    pub workload: Workload,
}

impl RunRequest {
    /// An FFT run.
    pub fn fft(spec: ClusterSpec, rows: usize) -> RunRequest {
        RunRequest {
            spec,
            workload: Workload::Fft { rows },
        }
    }

    /// A sort run with the paper's key configuration: uniform keys,
    /// top-bits partitioning.
    pub fn sort(spec: ClusterSpec, total_keys: u64) -> RunRequest {
        RunRequest {
            spec,
            workload: Workload::Sort {
                total_keys,
                distribution: KeyDistribution::Uniform,
                strategy: PartitionStrategy::TopBits,
            },
        }
    }

    /// An AllReduce run.
    pub fn allreduce(spec: ClusterSpec, elems: usize) -> RunRequest {
        RunRequest {
            spec,
            workload: Workload::AllReduce { elems },
        }
    }

    /// A collective-engine run with an explicit algorithm.
    pub fn collective(
        spec: ClusterSpec,
        op: CollectiveOp,
        algo: Algorithm,
        elems: usize,
    ) -> RunRequest {
        RunRequest {
            spec,
            workload: Workload::Collective { op, algo, elems },
        }
    }

    /// A halo-exchange run.
    pub fn halo(spec: ClusterSpec, elems: usize, iters: usize) -> RunRequest {
        RunRequest {
            spec,
            workload: Workload::Halo { elems, iters },
        }
    }

    /// Execute the run to completion and return its outcome. A run
    /// that fails to terminate comes back as [`RunOutcome::Hung`] with
    /// the structured hang diagnosis — not a panic and not an infinite
    /// loop.
    ///
    /// # Panics
    /// Panics on a workload its cluster cannot run: an FFT whose `rows`
    /// is not a power of two divisible by `p`, an unsupported
    /// collective cell, an offload over the card's CLB budget.
    pub fn execute(self) -> RunOutcome {
        let RunRequest { spec, workload } = self;
        let result = match workload {
            Workload::Fft { rows } => cluster::fft(spec, rows).map(RunOutcome::Fft),
            Workload::Sort {
                total_keys,
                distribution,
                strategy,
            } => cluster::sort(spec, total_keys, distribution, strategy).map(RunOutcome::Sort),
            Workload::AllReduce { elems } => {
                let op = CollectiveOp::AllReduce;
                let algo = cluster::select_algorithm(spec.technology, op, spec.p, elems);
                cluster::collective(spec, op, algo, elems).map(RunOutcome::Reduce)
            }
            Workload::Collective { op, algo, elems } => {
                cluster::collective(spec, op, algo, elems).map(RunOutcome::Coll)
            }
            Workload::Halo { elems, iters } => {
                cluster::halo(spec, elems, iters).map(RunOutcome::Coll)
            }
        };
        result.unwrap_or_else(RunOutcome::Hung)
    }
}

/// The result of an executed [`RunRequest`], one variant per workload
/// family.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// Result of an FFT run.
    Fft(FftRunResult),
    /// Result of a sort run (default or custom).
    Sort(SortRunResult),
    /// Result of an AllReduce run: the engine collective it ran, with
    /// the host reduction time in `compute`.
    Reduce(CollRunResult),
    /// Result of a collective-engine or halo run.
    Coll(CollRunResult),
    /// The run failed to terminate; the report names the stuck phase
    /// and rank.
    Hung(Box<HangReport>),
}

impl RunOutcome {
    /// Wall time of the run, whatever its workload.
    ///
    /// # Panics
    /// Panics on a hung run — a hang has no wall time, and silently
    /// returning one would corrupt whatever figure asked.
    pub fn total(&self) -> acc_sim::SimDuration {
        match self {
            RunOutcome::Fft(r) => r.total,
            RunOutcome::Sort(r) => r.total,
            RunOutcome::Reduce(r) | RunOutcome::Coll(r) => r.total,
            RunOutcome::Hung(report) => panic!("run hung, no wall time\n{report}"),
        }
    }

    /// What the fault plan did to the run, whatever its workload (all
    /// zeros on a clean run).
    ///
    /// # Panics
    /// Panics on a hung run, like [`RunOutcome::total`].
    pub fn faults(&self) -> &FaultDiagnostics {
        match self {
            RunOutcome::Fft(r) => &r.faults,
            RunOutcome::Sort(r) => &r.faults,
            RunOutcome::Reduce(r) | RunOutcome::Coll(r) => &r.faults,
            RunOutcome::Hung(report) => panic!("run hung, no fault diagnostics\n{report}"),
        }
    }

    /// Whether the run's output verified against its serial oracle.
    /// A hung run verified nothing.
    pub fn verified(&self) -> bool {
        match self {
            RunOutcome::Fft(r) => r.verified,
            RunOutcome::Sort(r) => r.verified,
            RunOutcome::Reduce(r) | RunOutcome::Coll(r) => r.verified,
            RunOutcome::Hung(_) => false,
        }
    }

    /// Whether the run hung.
    pub fn is_hung(&self) -> bool {
        matches!(self, RunOutcome::Hung(_))
    }

    /// The hang report, if the run hung.
    pub fn hang(&self) -> Option<&HangReport> {
        match self {
            RunOutcome::Hung(report) => Some(report),
            _ => None,
        }
    }

    /// The FFT result.
    ///
    /// # Panics
    /// Panics if the outcome is not from an FFT run, naming the hang if
    /// the run hung.
    pub fn into_fft(self) -> FftRunResult {
        match self {
            RunOutcome::Fft(r) => r,
            RunOutcome::Hung(report) => panic!("FFT run hung\n{report}"),
            other => panic!("expected an FFT outcome, got {other:?}"),
        }
    }

    /// The sort result.
    ///
    /// # Panics
    /// Panics if the outcome is not from a sort run, naming the hang if
    /// the run hung.
    pub fn into_sort(self) -> SortRunResult {
        match self {
            RunOutcome::Sort(r) => r,
            RunOutcome::Hung(report) => panic!("sort run hung\n{report}"),
            other => panic!("expected a sort outcome, got {other:?}"),
        }
    }

    /// The AllReduce result.
    ///
    /// # Panics
    /// Panics if the outcome is not from an AllReduce run, naming the
    /// hang if the run hung.
    pub fn into_reduce(self) -> CollRunResult {
        match self {
            RunOutcome::Reduce(r) => r,
            RunOutcome::Hung(report) => panic!("AllReduce run hung\n{report}"),
            other => panic!("expected an AllReduce outcome, got {other:?}"),
        }
    }

    /// The collective-engine result.
    ///
    /// # Panics
    /// Panics if the outcome is not from a collective or halo run,
    /// naming the hang if the run hung.
    pub fn into_coll(self) -> CollRunResult {
        match self {
            RunOutcome::Coll(r) => r,
            RunOutcome::Hung(report) => panic!("collective run hung\n{report}"),
            other => panic!("expected a collective outcome, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Technology;
    use acc_chaos::{FaultEvent, FaultPlan, LinkId};
    use acc_sim::{SimDuration, SimTime};

    #[test]
    fn outcome_accessors_route_by_workload() {
        let spec = |tech| ClusterSpec::new(2, tech);
        let gaussian = Workload::Sort {
            total_keys: 1 << 10,
            distribution: KeyDistribution::Gaussian,
            strategy: PartitionStrategy::SampledSplitters,
        };
        let cells = [
            ("fft", RunRequest::fft(spec(Technology::InicIdeal), 16)),
            (
                "sort",
                RunRequest::sort(spec(Technology::InicIdeal), 1 << 10),
            ),
            (
                "sort",
                RunRequest {
                    spec: spec(Technology::GigabitTcp),
                    workload: gaussian,
                },
            ),
            (
                "reduce",
                RunRequest::allreduce(spec(Technology::GigabitTcp), 64),
            ),
            (
                "coll",
                RunRequest::collective(
                    spec(Technology::InicIdeal),
                    CollectiveOp::AllGather,
                    Algorithm::Ring,
                    64,
                ),
            ),
            (
                "coll",
                RunRequest::halo(spec(Technology::GigabitTcp), 64, 2),
            ),
        ];
        for (kind, request) in cells {
            let workload = request.workload;
            let outcome = request.execute();
            let variant = match outcome {
                RunOutcome::Fft(_) => "fft",
                RunOutcome::Sort(_) => "sort",
                RunOutcome::Reduce(_) => "reduce",
                RunOutcome::Coll(_) => "coll",
                RunOutcome::Hung(_) => "hung",
            };
            assert_eq!(variant, kind, "{workload:?}");
            assert!(outcome.verified(), "{workload:?}");
            assert!(outcome.total() > SimDuration::ZERO, "{workload:?}");
            assert_eq!(
                outcome.faults(),
                &FaultDiagnostics::default(),
                "{workload:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "expected a sort outcome")]
    fn wrong_accessor_panics() {
        RunRequest::fft(ClusterSpec::new(2, Technology::InicIdeal), 16)
            .execute()
            .into_sort();
    }

    #[test]
    #[should_panic(expected = "collective run hung")]
    fn accessor_on_a_hung_run_panics_with_the_hang_report() {
        // A 600 s outage on rank 1's uplink wedges a p=4 ring allreduce
        // on its first round.
        let plan = FaultPlan::new(0xC011).with(FaultEvent::LinkOutage {
            link: LinkId::NodeUplink(1),
            from: SimTime::ZERO + SimDuration::from_micros(1),
            until: SimTime::ZERO + SimDuration::from_secs(600),
        });
        let spec = ClusterSpec::new(4, Technology::InicIdeal)
            .with_fault_plan(plan)
            .with_quiet(true);
        RunRequest::collective(spec, CollectiveOp::AllReduce, Algorithm::Ring, 8192)
            .execute()
            .into_coll();
    }
}
