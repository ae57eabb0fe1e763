//! Single-layer calls of the traced phase.
//!
//! Each call runs one public entry point of one crate on fixed inputs,
//! inside a span named after it. The cells of a pass reach every layer
//! too, but only as part of a whole run; these calls isolate the layers
//! that have an entry point of their own. The FPGA card datapath and
//! the host bus/interrupt models have none and are timed only through
//! the cells.

use std::any::Any;
use std::hint::black_box;

use acc_algos::fft::{fft_2d, fft_in_place, Direction};
use acc_algos::sort::{bucket_sort, bytes_to_keys, count_sort, keys_to_bytes};
use acc_algos::transpose::split_row_blocks;
use acc_algos::workload::{distributed_uniform_keys, random_matrix, uniform_keys};
use acc_chaos::FaultPlan;
use acc_coll::{Algorithm, CollectiveOp};
use acc_core::cluster::{plan_collective_offload, Technology};
use acc_host::{InterruptCosts, ModerationPolicy};
use acc_net::port::EgressPort;
use acc_net::routing::Attachment;
use acc_net::{
    compute_schedule, EtherType, EthernetKind, FabricSpec, Frame, FrameArrival, LinkParams,
    MacAddr, Switch, SwitchParams,
};
use acc_proto::{
    packetize, HostPathCosts, StreamDemux, TcpDelivered, TcpHostNic, TcpParams, TcpSend,
};
use acc_sim::{Component, ComponentId, Ctx, EventQueue, SimDuration, SimTime, Simulation};

use crate::alloc::AllocSnapshot;
use crate::trace::Tracer;
use crate::workloads::Cell;

/// Events in the self-event chain (`sim.dispatch`).
const CHAIN_EVENTS: u64 = 100_000;
/// Live events while churning the queue (`sim.queue_churn`).
const CHURN_DEPTH: u64 = 10_000;
/// Pop/push pairs per churn span.
const CHURN_OPS: u64 = 100_000;
/// Unicast frames through the 8-port switch (`net.switch_fwd`).
const SWITCH_FRAMES: u64 = 4_096;
/// Bytes of one TCP transfer (`proto.tcp_1mib`).
const TCP_BYTES: usize = 1 << 20;
/// Bytes of one INIC stream (`proto.inic_*`).
const STREAM_BYTES: usize = 64 << 10;
/// Repetitions of the microsecond-scale calls inside one span.
const REPS: u64 = 32;

/// A timed per-layer metric: the fastest duration of the spans named
/// `span` (the same noise-floor estimate as the end-to-end `pass_s`),
/// divided by the `units` of work each covers, in `unit`s of
/// `ns_per_unit` nanoseconds.
pub struct Timed {
    pub metric: &'static str,
    pub span: &'static str,
    pub units: f64,
    pub ns_per_unit: f64,
    pub unit: &'static str,
}

const fn timed(
    metric: &'static str,
    span: &'static str,
    units: u64,
    ns_per_unit: f64,
    unit: &'static str,
) -> Timed {
    Timed {
        metric,
        span,
        units: units as f64,
        ns_per_unit,
        unit,
    }
}

const MS: f64 = 1e6;
const US: f64 = 1e3;

/// Every timed per-layer metric the micro-calls feed.
pub const TIMED: &[Timed] = &[
    timed("algos.count_sort_ms", "algos.count_sort", 1, MS, "ms"),
    timed("algos.bucket_sort_ms", "algos.bucket_sort", 1, MS, "ms"),
    timed("algos.key_codec_ms", "algos.key_codec", 1, MS, "ms"),
    timed("algos.fft_rows_ms", "algos.fft_rows", 1, MS, "ms"),
    timed("algos.fft_2d_ms", "algos.fft_2d", 1, MS, "ms"),
    timed("algos.inputs_ms", "algos.inputs", 1, MS, "ms"),
    timed("sim.dispatch_ns", "sim.dispatch", CHAIN_EVENTS, 1.0, "ns"),
    timed(
        "sim.queue_churn_ns",
        "sim.queue_churn",
        CHURN_OPS,
        1.0,
        "ns",
    ),
    timed(
        "net.switch_fwd_ns",
        "net.switch_fwd",
        SWITCH_FRAMES,
        1.0,
        "ns",
    ),
    timed("net.route_fattree8_ms", "net.route_fattree8", 1, MS, "ms"),
    timed(
        "net.route_fattree4_kill_ms",
        "net.route_fattree4_kill",
        1,
        MS,
        "ms",
    ),
    timed("proto.tcp_1mib_ms", "proto.tcp_1mib", 1, MS, "ms"),
    timed(
        "proto.inic_packetize_ns",
        "proto.inic_packetize",
        REPS,
        1.0,
        "ns",
    ),
    timed(
        "proto.inic_reassembly_ns",
        "proto.inic_reassembly",
        REPS,
        1.0,
        "ns",
    ),
    timed("coll.build_all_us", "coll.build_all", 1, US, "us"),
    timed("coll.offload_plan_us", "coll.offload_plan", 1, US, "us"),
    timed("coll.oracle_ms", "coll.oracle", 1, MS, "ms"),
    timed("coll.f64_codec_us", "coll.f64_codec", REPS, US, "us"),
    timed("chaos.validate_us", "chaos.validate", REPS, US, "us"),
];

/// Allocation counts of the micro-calls, per unit of work. They repeat
/// exactly from round to round; the last round's values are kept.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Allocs {
    pub switch_fwd_per_frame: f64,
    pub tcp_1mib: f64,
    pub inic_packetize: f64,
    pub f64_codec: f64,
}

/// Inputs of the micro-calls, built once before the traced phase.
pub struct Inputs {
    seed: u64,
    keys: Vec<u32>,
    keys_bytes: Vec<u8>,
    matrix: acc_algos::fft::Matrix,
    frames: Vec<(usize, Frame)>,
    stream: Vec<u8>,
    packets: Vec<acc_proto::InicPacket>,
    coll_inputs: Vec<Vec<f64>>,
    segment: Vec<f64>,
    plans: Vec<(FaultPlan, u32, FabricSpec)>,
}

impl Inputs {
    /// Inputs for workload seed `seed`; `fault_cells` supply the fault
    /// plans `chaos.validate` checks.
    pub fn new(seed: u64, fault_cells: &[Cell]) -> Inputs {
        let keys = uniform_keys(1 << 19, seed);
        let keys_bytes = keys_to_bytes(&keys);
        let frames = (0..SWITCH_FRAMES)
            .map(|k| {
                let dst = 1 + (k % 7) as usize;
                let frame = Frame::new(
                    MacAddr::for_node(0, 0),
                    MacAddr::for_node(dst, 0),
                    EtherType::Other(0),
                    vec![(k & 0xff) as u8; 1500],
                );
                (k as usize, frame)
            })
            .collect();
        let stream: Vec<u8> = (0..STREAM_BYTES).map(|i| (i % 251) as u8).collect();
        let packets = packetize(1, 7, &stream);
        let coll_inputs = (0..16)
            .map(|r| {
                (0..1 << 17)
                    .map(|i| ((r + 1) * (i % 1000 + 1)) as f64)
                    .collect()
            })
            .collect();
        let segment = (0..1 << 13).map(|i| f64::from(i) * 0.5).collect();
        let plans = fault_cells
            .iter()
            .filter_map(|c| {
                let plan = c.fault_plan(seed, 0)?;
                Some((plan, u32::try_from(c.p).expect("p fits u32"), c.fabric))
            })
            .collect();
        Inputs {
            seed,
            keys,
            keys_bytes,
            matrix: random_matrix(512, seed),
            frames,
            stream,
            packets,
            coll_inputs,
            segment,
            plans,
        }
    }
}

/// Run every micro-call once, each in its own span.
pub fn micro_calls(t: &mut Tracer, inp: &Inputs) -> Allocs {
    t.span("algos", |t| {
        t.span("algos.count_sort", |_| black_box(count_sort(&inp.keys)));
        t.span("algos.bucket_sort", |_| {
            black_box(bucket_sort(&inp.keys, 8))
        });
        t.span("algos.key_codec", |_| {
            black_box(keys_to_bytes(&inp.keys));
            black_box(bytes_to_keys(&inp.keys_bytes));
        });
        // One rank's slab of the 512-point FFT at p = 8: 64 rows.
        let mut slab = split_row_blocks(&inp.matrix, 8).swap_remove(0);
        t.span("algos.fft_rows", |_| {
            for r in 0..slab.rows() {
                fft_in_place(slab.row_mut(r), Direction::Forward);
            }
        });
        black_box(&slab);
        t.span("algos.fft_2d", |_| black_box(fft_2d(&inp.matrix)));
        t.span("algos.inputs", |_| {
            black_box(distributed_uniform_keys(1 << 19, 8, inp.seed));
            black_box(random_matrix(512, inp.seed));
        });
    });
    t.span("sim", |t| {
        t.span("sim.dispatch", |_| black_box(self_event_chain()));
        t.span("sim.queue_churn", |_| black_box(queue_churn()));
    });
    let mut allocs = Allocs::default();
    t.span("net", |t| {
        let frames = inp.frames.clone();
        allocs.switch_fwd_per_frame = t.span("net.switch_fwd", |_| {
            count_allocs(|| black_box(switch_forward(frames))) / SWITCH_FRAMES as f64
        });
        t.span("net.route_fattree8", |_| {
            black_box(route(FabricSpec::FatTree { k: 8 }, 64, &[]))
        });
        t.span("net.route_fattree4_kill", |_| {
            let kill = [(16, SimTime::ZERO + SimDuration::from_millis(61))];
            black_box(route(FabricSpec::FatTree { k: 4 }, 16, &kill))
        });
    });
    t.span("proto", |t| {
        allocs.tcp_1mib = t.span("proto.tcp_1mib", |_| {
            count_allocs(|| black_box(tcp_transfer(TCP_BYTES)))
        });
        allocs.inic_packetize = t.span("proto.inic_packetize", |_| {
            count_allocs(|| {
                for _ in 0..REPS {
                    black_box(packetize(1, 7, &inp.stream));
                }
            }) / REPS as f64
        });
        t.span("proto.inic_reassembly", |_| {
            for _ in 0..REPS {
                let mut demux = StreamDemux::new();
                demux.expect(1, 7, STREAM_BYTES);
                let mut done = None;
                for pkt in &inp.packets {
                    done = done.or(demux.accept(pkt));
                }
                assert_eq!(
                    done.map(|(_, _, bytes)| bytes.len()),
                    Some(STREAM_BYTES),
                    "reassembly completes the stream"
                );
            }
        });
    });
    t.span("coll", |t| {
        let schedules = t.span("coll.build_all", |_| {
            LATENCY_COLLECTIVES.map(|(op, algo)| acc_coll::plan::build_all(op, algo, 32, 256))
        });
        t.span("coll.offload_plan", |_| {
            for s in &schedules {
                black_box(
                    plan_collective_offload(Technology::InicIdeal, s)
                        .expect("p = 32 fits the next-generation card"),
                );
            }
        });
        t.span("coll.oracle", |_| {
            black_box(acc_coll::oracle(
                CollectiveOp::AllReduce,
                16,
                &inp.coll_inputs,
            ))
        });
        allocs.f64_codec = t.span("coll.f64_codec", |_| {
            count_allocs(|| {
                for _ in 0..REPS {
                    black_box(acc_coll::bytes_to_f64s(&acc_coll::f64s_to_bytes(
                        &inp.segment,
                    )));
                }
            }) / REPS as f64
        });
    });
    t.span("chaos", |t| {
        t.span("chaos.validate", |_| {
            for _ in 0..REPS {
                for (plan, p, fabric) in &inp.plans {
                    plan.validate_for_fabric(*p, SimTime::MAX, fabric)
                        .expect("benchmark fault plans are valid");
                }
            }
        });
    });
    allocs
}

/// Allocations `f` makes. Taken inside the span, so the tracer's own
/// bookkeeping is not counted.
fn count_allocs<R>(f: impl FnOnce() -> R) -> f64 {
    let before = AllocSnapshot::now();
    black_box(f());
    before.until(AllocSnapshot::now()).allocs as f64
}

/// The five collectives of `coll_latency`.
const LATENCY_COLLECTIVES: [(CollectiveOp, Algorithm); 5] = [
    (CollectiveOp::AllReduce, Algorithm::RecursiveDoubling),
    (CollectiveOp::AllGather, Algorithm::RecursiveDoubling),
    (CollectiveOp::Barrier, Algorithm::Dissemination),
    (CollectiveOp::Broadcast, Algorithm::BinomialTree),
    (CollectiveOp::AllToAll, Algorithm::Bruck),
];

/// Bounces one event to itself `CHAIN_EVENTS` times.
struct Bouncer {
    remaining: u64,
}

impl Component for Bouncer {
    fn handle(&mut self, _ev: Box<dyn Any>, ctx: &mut Ctx) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.self_in(SimDuration::from_nanos(10), ());
        }
    }
    fn name(&self) -> &str {
        "bouncer"
    }
}

/// Absorbs whatever reaches it.
struct Sink;

impl Component for Sink {
    fn handle(&mut self, _ev: Box<dyn Any>, _ctx: &mut Ctx) {}
    fn name(&self) -> &str {
        "sink"
    }
}

fn self_event_chain() -> u64 {
    let mut sim = Simulation::new(0);
    let id = sim.add(Bouncer {
        remaining: CHAIN_EVENTS,
    });
    sim.schedule_at(SimTime::ZERO, id, ());
    // acc-lint: allow(R6, reason = "a single component re-arming itself a fixed number of times; the queue drains after CHAIN_EVENTS events")
    sim.run();
    sim.events_processed()
}

fn queue_churn() -> u64 {
    let mut q = EventQueue::new();
    let id = ComponentId::from_raw(0);
    for i in 0..CHURN_DEPTH {
        q.push(SimTime::from_ps(i * 37_321), id, Box::new(()));
    }
    let mut last = 0;
    for _ in 0..CHURN_OPS {
        let ev = q.pop().expect("queue stays at its depth");
        last = ev.time.as_ps();
        q.push(SimTime::from_ps(last + 373_210_000), id, Box::new(()));
    }
    last
}

/// Unicast frames from port 0 to ports 1..=7 of an 8-port switch, one
/// every 2 µs: each egress port sees one 1500 B frame per 14 µs, more
/// than the 12 µs it takes to serialise, so nothing queues or drops.
fn switch_forward(frames: Vec<(usize, Frame)>) -> u64 {
    let mut sim = Simulation::new(7);
    let link = LinkParams::for_kind(EthernetKind::Gigabit);
    let sinks: Vec<ComponentId> = (0..8).map(|_| sim.reserve_id()).collect();
    let switch_id = sim.reserve_id();
    let mut switch = Switch::new("sw", SwitchParams::default());
    for (i, &sid) in sinks.iter().enumerate() {
        switch.attach(MacAddr::for_node(i, 0), sid, 0, link);
        sim.register(sid, Sink);
    }
    sim.register(switch_id, switch);
    for (k, frame) in frames {
        let at = SimTime::ZERO + SimDuration::from_micros(2 * k as u64);
        sim.schedule_at(at, switch_id, FrameArrival { port: 0, frame });
    }
    // acc-lint: allow(R6, reason = "open-loop frame injection into sinks: every event is scheduled up front and nothing replies")
    sim.run();
    let sent = sim.component::<Switch>(switch_id).total_sent();
    assert_eq!(sent, SWITCH_FRAMES, "every frame forwarded, none dropped");
    sent
}

fn route(fabric: FabricSpec, p: usize, kills: &[(usize, SimTime)]) -> usize {
    let topo = fabric.build(p);
    let attachments: Vec<Attachment> = (0..p)
        .map(|rank| Attachment {
            mac: MacAddr::for_node(rank, 0),
            switch: topo.home[rank],
            rank,
        })
        .collect();
    compute_schedule(&topo, &attachments, &[], kills)
        .epochs
        .len()
}

/// One side of the two-node TCP transfer.
struct App {
    nic: ComponentId,
    send: Option<TcpSend>,
    received: usize,
    done_at: Option<SimTime>,
    expected: usize,
}

impl Component for App {
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        if ev.downcast_ref::<()>().is_some() {
            if let Some(send) = self.send.take() {
                ctx.send_now(self.nic, send);
            }
        } else if let Ok(d) = ev.downcast::<TcpDelivered>() {
            self.received += d.data.len();
            if self.received >= self.expected {
                self.done_at = Some(ctx.now());
            }
        }
    }
    fn name(&self) -> &str {
        "app"
    }
}

/// Node 0 sends `bytes` to node 1 over TCP through one switch, with
/// the cluster's default host costs and interrupt moderation.
fn tcp_transfer(bytes: usize) -> SimTime {
    let mut sim = Simulation::new(99);
    let link = LinkParams::for_kind(EthernetKind::Gigabit);
    let macs = [MacAddr::for_node(0, 0), MacAddr::for_node(1, 0)];
    let apps = [sim.reserve_id(), sim.reserve_id()];
    let nics = [sim.reserve_id(), sim.reserve_id()];
    let switch_id = sim.reserve_id();
    let mut switch = Switch::new("sw", SwitchParams::default());
    for i in 0..2 {
        let sw_port = switch.attach(macs[i], nics[i], 0, link);
        let uplink = EgressPort::new(
            link.rate,
            link.prop_delay,
            acc_net::presets::NIC_BUFFER,
            switch_id,
            sw_port,
            0,
        );
        sim.register(
            nics[i],
            TcpHostNic::new(
                format!("tcp{i}"),
                macs[i],
                apps[i],
                uplink,
                TcpParams::default(),
                HostPathCosts::athlon_pci(),
                InterruptCosts::athlon_linux24(),
                ModerationPolicy::syskonnect_default(),
            ),
        );
        sim.register(
            apps[i],
            App {
                nic: nics[i],
                send: (i == 0).then(|| TcpSend {
                    peer: macs[1],
                    chan: 1,
                    data: vec![0xA5; bytes],
                }),
                received: 0,
                done_at: None,
                expected: if i == 1 { bytes } else { usize::MAX },
            },
        );
        sim.schedule_at(SimTime::ZERO, apps[i], ());
    }
    sim.register(switch_id, switch);
    // acc-lint: allow(R6, reason = "two-node TCP transfer on a clean wire: one stream, the queue drains once it is delivered")
    sim.run();
    sim.component::<App>(apps[1])
        .done_at
        .expect("the receiver got every byte")
}
