//! Benchmarks over the real sorting kernels.
//!
//! Re-measures the paper's in-text claims on this machine:
//!
//! * Section 3.2: count sort is "as much as 2.5× faster than quicksort"
//!   — compare `count_sort` (with its cache-sizing bucket pass) against
//!   `quicksort` and the standard library sort.
//! * Section 3.2.1: "a minimum of 128 buckets are needed for the
//!   problem to map well into cache" at 2²¹ keys — sweep the bucket
//!   count and watch the count-sort pipeline's throughput.
//!
//! `bucket_shapes_25bit` times `count_sort` on the cache buckets the
//! cluster sorts actually hand it: 256 and 4096 keys sharing their top 7
//! bits (a 25-bit span), where fixed 2¹⁶-entry count tables would cost
//! far more than the keys themselves.

use std::hint::black_box;

use acc_algos::sort::{bucket_then_count_sort, count_sort, quicksort};
use acc_algos::workload::uniform_keys;
use acc_bench::harness::bench;

fn main() {
    let n = 1 << 21;
    let keys = uniform_keys(n, 2001);
    let g = "sort_comparison_2e21";
    bench(g, "count_sort_direct", 20, Some(n as u64), || {
        count_sort(black_box(&keys))
    });
    bench(g, "bucket128_then_count", 20, Some(n as u64), || {
        bucket_then_count_sort(black_box(&keys), 128)
    });
    bench(g, "quicksort", 20, Some(n as u64), || {
        let mut k = keys.clone();
        quicksort(&mut k);
        k
    });
    bench(g, "std_sort_unstable", 20, Some(n as u64), || {
        let mut k = keys.clone();
        k.sort_unstable();
        k
    });

    // The ≥128-bucket claim: pipeline throughput vs bucket count.
    let keys = uniform_keys(n, 31337);
    for k in [2usize, 16, 64, 128, 256, 1024] {
        bench(
            "bucket_count_sweep_2e21",
            &format!("{k}_buckets"),
            20,
            Some(n as u64),
            || bucket_then_count_sort(black_box(&keys), k),
        );
    }

    for n in [256usize, 4096] {
        let keys: Vec<u32> = uniform_keys(n, 2503)
            .iter()
            .map(|k| (0x2A << 25) | (k & ((1 << 25) - 1)))
            .collect();
        bench(
            "bucket_shapes_25bit",
            &format!("count_sort_{n}"),
            2000,
            Some(n as u64),
            || count_sort(black_box(&keys)),
        );
    }

    for shift in [16u32, 18, 20, 22] {
        let n = 1usize << shift;
        let keys = uniform_keys(n, u64::from(shift));
        bench(
            "count_sort_scaling",
            &format!("n_{n}"),
            20,
            Some(n as u64),
            || bucket_then_count_sort(black_box(&keys), 128),
        );
    }
}
