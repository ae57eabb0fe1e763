//! Distributed integer sort across the four network technologies.
//!
//! Reproduces the Section 3.2 pipeline (bucket → all-to-all → bucket →
//! count sort) on an 8-node cluster with 2²⁰ uniform keys, printing the
//! per-phase decomposition. On INIC technologies the bucket phases
//! migrate into the card datapath: watch the `bucket1`/`bucket2`
//! columns empty out.
//!
//! Run with:
//! ```sh
//! cargo run --release --example intsort_cluster
//! ```

use acc::core::cluster::{ClusterSpec, Technology};
use acc::core::RunRequest;

fn main() {
    let p = 8;
    let total_keys: u64 = 1 << 20;
    println!("Integer sort, {total_keys} uniform keys, P = {p} nodes");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10}  verified",
        "technology", "total", "bucket1", "comm", "bucket2", "count"
    );
    for tech in Technology::ALL {
        let r = RunRequest::sort(ClusterSpec::new(p, tech), total_keys)
            .execute()
            .into_sort();
        println!(
            "{:<16} {:>7.2} ms {:>7.2} ms {:>7.2} ms {:>7.2} ms {:>7.2} ms  {}",
            tech.label(),
            r.total.as_millis_f64(),
            r.bucket1.as_millis_f64(),
            r.comm.as_millis_f64(),
            r.bucket2.as_millis_f64(),
            r.count.as_millis_f64(),
            r.verified
        );
    }
}
