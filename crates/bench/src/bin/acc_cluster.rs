//! Command-line scenario runner: pick an application, a technology, a
//! node count and a problem size, get the verified timing decomposition.
//!
//! ```sh
//! cargo run --release -p acc-bench --bin acc_cluster -- fft inic-ideal 8 256
//! cargo run --release -p acc-bench --bin acc_cluster -- sort gigabit-tcp 4 1048576
//! cargo run --release -p acc-bench --bin acc_cluster -- allreduce inic-prototype 8 262144
//! cargo run --release -p acc-bench --bin acc_cluster -- --topology=fat-tree:4 allreduce inic-ideal 16 262144
//! ```

use acc_core::cluster::{ClusterSpec, Technology};
use acc_core::RunRequest;
use acc_net::FabricSpec;

fn usage() -> ! {
    eprintln!(
        "usage: acc_cluster [--topology=<fabric>] <fft|sort|allreduce> <technology> <P> <size>\n\
         technologies: fast-ethernet gigabit-tcp inic-ideal inic-prototype inic-protocol-only\n\
         fabric: single (default) | fat-tree:<k> | torus:<dx>x<dy>x<dz>\n\
         size: matrix edge (fft), total keys (sort), vector elements (allreduce)"
    );
    std::process::exit(2);
}

fn parse_tech(s: &str) -> Technology {
    Technology::ALL
        .into_iter()
        .find(|t| t.label() == s)
        .unwrap_or_else(|| {
            eprintln!("unknown technology {s:?}");
            usage()
        })
}

fn main() {
    let mut fabric = FabricSpec::SingleSwitch;
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| match a.strip_prefix("--topology=") {
            Some(label) => {
                fabric = FabricSpec::parse(label).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                });
                false
            }
            None => true,
        })
        .collect();
    let [app, tech, p, size] = args.as_slice() else {
        usage();
    };
    let tech = parse_tech(tech);
    let p: usize = p.parse().unwrap_or_else(|_| usage());
    let size: u64 = size.parse().unwrap_or_else(|_| usage());
    if let Err(e) = fabric.validate(p) {
        eprintln!("topology does not fit p={p}: {e}");
        usage()
    }
    let spec = ClusterSpec::new(p, tech).with_fabric(fabric);
    match app.as_str() {
        "fft" => {
            let r = RunRequest::fft(spec, size as usize).execute().into_fft();
            println!(
                "fft {}x{} on {} x{}: total {:.3} ms (compute {:.3} ms, transpose {:.3} ms \
                 [comm {:.3} / host {:.3}]), verified={}",
                size,
                size,
                tech.label(),
                p,
                r.total.as_millis_f64(),
                r.compute.as_millis_f64(),
                r.transpose.as_millis_f64(),
                r.transpose_comm.as_millis_f64(),
                r.transpose_compute.as_millis_f64(),
                r.verified
            );
        }
        "sort" => {
            let r = RunRequest::sort(spec, size).execute().into_sort();
            println!(
                "sort {} keys on {} x{}: total {:.3} ms (bucket1 {:.3}, comm {:.3}, \
                 bucket2 {:.3}, count {:.3}), verified={}",
                size,
                tech.label(),
                p,
                r.total.as_millis_f64(),
                r.bucket1.as_millis_f64(),
                r.comm.as_millis_f64(),
                r.bucket2.as_millis_f64(),
                r.count.as_millis_f64(),
                r.verified
            );
        }
        "allreduce" => {
            let r = RunRequest::allreduce(spec, size as usize)
                .execute()
                .into_reduce();
            println!(
                "allreduce {} f64 on {} x{}: total {:.3} ms (comm {:.3}, host reduce {:.3}), \
                 verified={}",
                size,
                tech.label(),
                p,
                r.total.as_millis_f64(),
                r.comm.as_millis_f64(),
                r.compute.as_millis_f64(),
                r.verified
            );
        }
        _ => usage(),
    }
}
