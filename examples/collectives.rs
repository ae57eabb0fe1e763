//! The collective-operations extension: AllReduce on the INIC.
//!
//! The paper's summary claims the architecture can "accelerate
//! functions ranging from collective operations to MPI derived data
//! types". This example runs an AllReduce (sum of one f64 vector per
//! node) on TCP and on the two INIC generations through the `acc-coll`
//! engine: the policy picks the schedule (the segmented ring at this
//! size), and on the combined INIC every `Sum` round folds in the
//! card's `ReduceSum` operator at datapath speed — the host does zero
//! arithmetic (the `host reduce` column), where the TCP path pays tens
//! of milliseconds of Athlon memory passes on top of its slower wire.
//!
//! Run with:
//! ```sh
//! cargo run --release --example collectives
//! ```

use acc::core::cluster::{ClusterSpec, Technology};
use acc::core::RunRequest;

fn main() {
    let elems = 1 << 18; // 2 MiB vector per node
    println!("AllReduce(sum), {elems} f64 elements per node");
    for p in [2usize, 4, 8, 16] {
        println!("\nP = {p}:");
        println!(
            "{:<16} {:>10} {:>10} {:>12}  verified",
            "technology", "total", "comm", "host reduce"
        );
        for tech in [
            Technology::GigabitTcp,
            Technology::InicPrototype,
            Technology::InicIdeal,
        ] {
            let r = RunRequest::allreduce(ClusterSpec::new(p, tech), elems)
                .execute()
                .into_reduce();
            println!(
                "{:<16} {:>7.2} ms {:>7.2} ms {:>9.2} ms  {}",
                tech.label(),
                r.total.as_millis_f64(),
                r.comm.as_millis_f64(),
                r.compute.as_millis_f64(),
                r.verified
            );
        }
    }
}
