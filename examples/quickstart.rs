//! Quickstart: compare a 2D FFT on the four network technologies.
//!
//! Builds an 8-node cluster four times — Fast Ethernet, Gigabit
//! Ethernet + TCP, prototype INIC (ACEII), ideal INIC — runs a 256×256
//! distributed FFT end to end on each (with the result verified against
//! a serial FFT), and prints the timing decomposition.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use acc::core::cluster::{ClusterSpec, Technology};
use acc::core::RunRequest;

fn main() {
    let p = 8;
    let rows = 256;
    println!("2D FFT, {rows}x{rows} complex doubles, P = {p} nodes");
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>11} {:>11}  verified",
        "technology", "total", "compute", "transpose", "irqs", "proto cpu"
    );
    for tech in Technology::ALL {
        let r = RunRequest::fft(ClusterSpec::new(p, tech), rows)
            .execute()
            .into_fft();
        println!(
            "{:<18} {:>9.3} ms {:>9.3} ms {:>9.3} ms {:>11} {:>8.3} ms  {}",
            tech.label(),
            r.total.as_millis_f64(),
            r.compute.as_millis_f64(),
            r.transpose.as_millis_f64(),
            r.interrupts,
            r.protocol_cpu.as_millis_f64(),
            r.verified
        );
    }
}
