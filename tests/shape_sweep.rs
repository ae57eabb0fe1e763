//! Every workload on every technology at p ∈ {2, 4, 8, 16}, at the
//! smallest shapes each accepts: sorts of p, 4p and 16p keys (one key
//! per rank at the low end, and Gaussian keys that leave ranks empty),
//! an FFT of edge p (one-row slabs), collectives of 1, p−1 and p+1
//! elements (empty and uneven segments). Every cell runs verified, so
//! the oracles see empty parts and empty ranks too, and every cell must
//! finish.

use acc::coll::{supports, CollectiveOp};
use acc::core::cluster::{ClusterSpec, KeyDistribution, PartitionStrategy, Technology};
use acc::core::{RunRequest, Workload};

const PS: [usize; 4] = [2, 4, 8, 16];

/// Run `workload` verified on `tech` at `p`; panic with the cell and
/// its hang report if it does not finish.
fn run(tech: Technology, p: usize, workload: Workload) {
    let spec = ClusterSpec::new(p, tech).with_quiet(true);
    let outcome = RunRequest { spec, workload }.execute();
    let cell = format!("{workload:?} on {} at p={p}", tech.label());
    if let Some(report) = outcome.hang() {
        panic!("{cell} hung:\n{report}");
    }
    assert!(outcome.verified(), "{cell} ran unverified");
}

#[test]
fn sort_finishes_verified_at_every_small_shape() {
    for tech in Technology::ALL {
        for p in PS {
            for keys in [p, 4 * p, 16 * p] {
                for distribution in [KeyDistribution::Uniform, KeyDistribution::Gaussian] {
                    for strategy in [
                        PartitionStrategy::TopBits,
                        PartitionStrategy::SampledSplitters,
                    ] {
                        let total_keys = keys as u64;
                        let workload = Workload::Sort {
                            total_keys,
                            distribution,
                            strategy,
                        };
                        run(tech, p, workload);
                    }
                }
            }
        }
    }
}

#[test]
fn fft_finishes_verified_at_edge_p() {
    for tech in Technology::ALL {
        for p in PS {
            run(tech, p, Workload::Fft { rows: p });
        }
    }
}

#[test]
fn collectives_finish_verified_around_p_elements() {
    for tech in Technology::ALL {
        for p in PS {
            for elems in [1, p - 1, p + 1] {
                run(tech, p, Workload::AllReduce { elems });
                // A halo strip needs two interior cells.
                if elems >= 2 {
                    run(tech, p, Workload::Halo { elems, iters: 2 });
                }
                for op in CollectiveOp::ALL {
                    for algo in op.algorithms() {
                        if supports(op, algo, p, elems) {
                            run(tech, p, Workload::Collective { op, algo, elems });
                        }
                    }
                }
            }
        }
    }
}
