//! Benchmarks over the simulation substrate itself: broadcast fan-out
//! through the switch and the stats-registry counter path. Plain
//! `harness = false` binaries on [`acc_bench::harness`]. Event dispatch,
//! queue churn and the end-to-end paper cells are measured by the
//! repository benchmark (`acc_benchmark`), not here.

use std::any::Any;

use acc_bench::harness::bench;
use acc_net::{
    EtherType, EthernetKind, Frame, FrameArrival, LinkParams, MacAddr, Switch, SwitchParams,
};
use acc_sim::{Component, Ctx, SimDuration, SimTime, Simulation, StatsRegistry};

/// Absorbs frame arrivals; the far end of every switch port in the
/// broadcast-fanout bench.
struct Sink;

impl Component for Sink {
    fn handle(&mut self, _ev: Box<dyn Any>, _ctx: &mut Ctx) {}
    fn name(&self) -> &str {
        "sink"
    }
}

fn main() {
    // Broadcast fan-out through the store-and-forward switch: every
    // broadcast replicates to 31 egress ports, which before the shared
    // PayloadView deep-copied ~1 KiB per replica.
    let storms = 500u64;
    let fan_ports = 32usize;
    bench(
        "net_fabric",
        "broadcast_fanout_p32_500",
        10,
        Some(storms * (fan_ports as u64 - 1)),
        || {
            let mut sim = Simulation::new(7);
            let link = LinkParams::for_kind(EthernetKind::Gigabit);
            let sink_ids: Vec<_> = (0..fan_ports).map(|_| sim.reserve_id()).collect();
            let switch_id = sim.reserve_id();
            let mut switch = Switch::new("sw", SwitchParams::default());
            for (i, &sid) in sink_ids.iter().enumerate() {
                switch.attach(MacAddr::for_node(i, 0), sid, 0, link);
                sim.register(sid, Sink);
            }
            sim.register(switch_id, switch);
            for k in 0..storms {
                let frame = Frame::new(
                    MacAddr::for_node(0, 0),
                    MacAddr::BROADCAST,
                    EtherType::Other(0),
                    vec![k as u8; 1024],
                );
                sim.schedule_at(
                    SimTime::ZERO + SimDuration::from_micros(10 * k),
                    switch_id,
                    FrameArrival { port: 0, frame },
                );
            }
            sim.run();
            sim.events_processed()
        },
    );

    // The per-frame stats path: a switch bumps 2-3 counters per frame,
    // so counter lookup cost is pure simulation overhead. Hits an
    // existing counter the way components do — by &str pair.
    let hits = 1_000_000u64;
    bench("des_kernel", "counter_hit_1m", 20, Some(hits), || {
        let mut stats = StatsRegistry::new();
        for scope in ["switch", "nic0", "nic1", "nic2"] {
            stats.counter(scope, "frames_in");
            stats.counter(scope, "frames_fwd");
        }
        for i in 0..hits {
            let scope = match i & 3 {
                0 => "switch",
                1 => "nic0",
                2 => "nic1",
                _ => "nic2",
            };
            stats.counter(scope, "frames_in").inc();
        }
        stats.counter_value("switch", "frames_in").unwrap_or(0)
    });
}
