//! End-to-end INIC card tests: an all-to-all transpose and a bucket-sort
//! redistribution across a simulated switch, with functional results
//! checked against the host-side oracles and timing invariants checked
//! between the ideal and prototype card generations.

use std::any::Any;

use acc_algos::fft::Matrix;
use acc_algos::sort::{bucket_sort, destination_rank, keys_to_bytes};
use acc_algos::transpose::{
    bytes_to_slab, distributed_transpose, join_row_blocks, slab_to_bytes, split_row_blocks,
};
use acc_algos::workload::{random_matrix, uniform_keys};
use acc_fpga::{
    Bitstream, CardPorts, FpgaDevice, GatherKind, InicCard, InicConfigure, InicConfigured,
    InicExpect, InicGatherComplete, InicScatter, ScatterKind,
};
use acc_net::port::EgressPort;
use acc_net::{EthernetKind, LinkParams, MacAddr, Switch, SwitchParams};
use acc_sim::{Component, ComponentId, Ctx, SimTime, Simulation};

/// What the driver should run after configuration completes.
#[derive(Clone)]
enum Plan {
    Transpose {
        slab: Vec<u8>,
        m: usize,
    },
    Sort {
        keys: Vec<u8>,
    },
    /// Host-prepared parts: a `Unicast` scatter of `parts` over `data`
    /// (skipped when empty) and a `Raw` gather from `from` (skipped
    /// when empty).
    Relay {
        parts: Vec<(u32, usize)>,
        data: Vec<u8>,
        from: Vec<u32>,
    },
}

/// Minimal per-node driver: configure → expect + scatter → record result.
struct Driver {
    card: ComponentId,
    rank: u32,
    p: usize,
    macs: Vec<MacAddr>,
    plan: Plan,
    bitstream: Bitstream,
    result: Option<(SimTime, Vec<u8>, Option<Vec<usize>>)>,
}

impl Component for Driver {
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        if ev.downcast_ref::<()>().is_some() {
            ctx.send_now(
                self.card,
                InicConfigure {
                    bitstream: self.bitstream.clone(),
                },
            );
            return;
        }
        let ev = match ev.downcast::<InicConfigured>() {
            Err(ev) => ev,
            Ok(cfg) => {
                cfg.result.expect("bitstream must fit device");
                match &self.plan {
                    Plan::Transpose { slab, m } => {
                        let total = m * m * 16;
                        ctx.send_now(
                            self.card,
                            InicExpect {
                                stream: 1,
                                kind: GatherKind::InterleaveBlocks {
                                    m: *m,
                                    rows: m * self.p,
                                },
                                sources: (0..self.p as u32).map(|s| (s, Some(total))).collect(),
                            },
                        );
                        ctx.send_now(
                            self.card,
                            InicScatter {
                                stream: 1,
                                kind: ScatterKind::TransposeBlocks { m: *m },
                                data: slab.clone(),
                                dests: self.macs.clone(),
                            },
                        );
                    }
                    Plan::Relay { parts, data, from } => {
                        if !from.is_empty() {
                            ctx.send_now(
                                self.card,
                                InicExpect {
                                    stream: 1,
                                    kind: GatherKind::Raw,
                                    sources: from.iter().map(|&s| (s, None)).collect(),
                                },
                            );
                        }
                        if !parts.is_empty() {
                            ctx.send_now(
                                self.card,
                                InicScatter {
                                    stream: 1,
                                    kind: ScatterKind::Unicast {
                                        parts: parts.clone(),
                                    },
                                    data: data.clone(),
                                    dests: self.macs.clone(),
                                },
                            );
                        }
                    }
                    Plan::Sort { keys } => {
                        ctx.send_now(
                            self.card,
                            InicExpect {
                                stream: 1,
                                kind: GatherKind::BucketKeys { k: 16 },
                                sources: (0..self.p as u32).map(|s| (s, None)).collect(),
                            },
                        );
                        ctx.send_now(
                            self.card,
                            InicScatter {
                                stream: 1,
                                kind: ScatterKind::BucketKeys {
                                    p: self.p,
                                    splitters: None,
                                },
                                data: keys.clone(),
                                dests: self.macs.clone(),
                            },
                        );
                    }
                }
                return;
            }
        };
        let ev = match ev.downcast::<InicGatherComplete>() {
            Err(ev) => ev,
            Ok(done) => {
                assert!(
                    self.result.is_none(),
                    "rank {} double completion",
                    self.rank
                );
                self.result = Some((ctx.now(), done.data, done.bucket_bounds));
                return;
            }
        };
        if ev.downcast_ref::<acc_fpga::InicScatterDone>().is_some() {
            // Send side finished; nothing to track here.
            return;
        }
        panic!("driver: unexpected event");
    }
    fn name(&self) -> &str {
        "driver"
    }
}

fn build_cluster(
    p: usize,
    ports: impl Fn() -> CardPorts,
    device: FpgaDevice,
    bitstream: Bitstream,
    plan: impl Fn(usize) -> Plan,
) -> (Simulation, Vec<ComponentId>) {
    let mut sim = Simulation::new(11);
    let link = LinkParams::for_kind(EthernetKind::Gigabit);
    let macs: Vec<MacAddr> = (0..p).map(|i| MacAddr::for_node(i, 1)).collect();
    let driver_ids: Vec<ComponentId> = (0..p).map(|_| sim.reserve_id()).collect();
    let card_ids: Vec<ComponentId> = (0..p).map(|_| sim.reserve_id()).collect();
    let switch_id = sim.reserve_id();
    let mut switch = Switch::new("sw", SwitchParams::default());
    for i in 0..p {
        let sw_port = switch.attach(macs[i], card_ids[i], 0, link);
        let uplink = EgressPort::new(
            link.rate,
            link.prop_delay,
            acc_net::presets::NIC_BUFFER,
            switch_id,
            sw_port,
            0,
        );
        sim.register(
            card_ids[i],
            InicCard::new(
                format!("inic{i}"),
                i as u32,
                macs[i],
                driver_ids[i],
                uplink,
                device,
                ports(),
            ),
        );
        sim.register(
            driver_ids[i],
            Driver {
                card: card_ids[i],
                rank: i as u32,
                p,
                macs: macs.clone(),
                plan: plan(i),
                bitstream: bitstream.clone(),
                result: None,
            },
        );
        sim.schedule_at(SimTime::ZERO, driver_ids[i], ());
    }
    sim.register(switch_id, switch);
    (sim, driver_ids)
}

fn run_transpose(
    p: usize,
    n: usize,
    ports: fn() -> CardPorts,
    device: FpgaDevice,
) -> (Vec<Matrix>, SimTime) {
    let m = n / p;
    let matrix = random_matrix(n, 42);
    let slabs = split_row_blocks(&matrix, p);
    let (mut sim, drivers) = build_cluster(p, ports, device, Bitstream::fft_transpose(m), |i| {
        Plan::Transpose {
            slab: slab_to_bytes(&slabs[i]),
            m,
        }
    });
    sim.run();
    let mut out = Vec::new();
    let mut finish = SimTime::ZERO;
    for &d in &drivers {
        let (t, bytes, bounds) = sim
            .component::<Driver>(d)
            .result
            .as_ref()
            .expect("gather completed");
        assert!(bounds.is_none());
        out.push(bytes_to_slab(bytes, m, n));
        if *t > finish {
            finish = *t;
        }
    }
    (out, finish)
}

#[test]
fn inic_transpose_produces_the_transposed_matrix() {
    for (p, n) in [(2usize, 32usize), (4, 32), (4, 64), (8, 64)] {
        let (slabs, _) = run_transpose(p, n, CardPorts::ideal, FpgaDevice::virtex_next_gen());
        let got = join_row_blocks(&slabs);
        let expect = join_row_blocks(&distributed_transpose(&split_row_blocks(
            &random_matrix(n, 42),
            p,
        )));
        assert_eq!(got, expect, "P={p} n={n}");
    }
}

#[test]
fn single_node_transpose_loops_back_locally() {
    let (slabs, _) = run_transpose(1, 16, CardPorts::ideal, FpgaDevice::virtex_next_gen());
    assert_eq!(
        slabs[0],
        random_matrix(16, 42).transposed(),
        "P=1 must equal the serial transpose"
    );
}

#[test]
fn prototype_transpose_is_correct_but_slower() {
    let p = 4;
    let n = 64;
    let (ideal_slabs, t_ideal) =
        run_transpose(p, n, CardPorts::ideal, FpgaDevice::virtex_next_gen());
    let (proto_slabs, t_proto) = run_transpose(p, n, CardPorts::aceii, FpgaDevice::xc4085xla());
    assert_eq!(join_row_blocks(&ideal_slabs), join_row_blocks(&proto_slabs));
    // Both pay the same configuration latency; the shared bus must make
    // the prototype's data phase strictly slower.
    let cfg_ideal = FpgaDevice::virtex_next_gen().config_time;
    let cfg_proto = FpgaDevice::xc4085xla().config_time;
    let data_ideal = t_ideal.since(SimTime::ZERO + cfg_ideal);
    let data_proto = t_proto.since(SimTime::ZERO + cfg_proto);
    assert!(
        data_proto > data_ideal,
        "prototype {data_proto} should be slower than ideal {data_ideal}"
    );
}

#[test]
fn inic_sort_scatter_routes_every_key_to_its_rank() {
    let p = 4;
    let n_per = 20_000;
    let inputs: Vec<Vec<u32>> = (0..p)
        .map(|i| uniform_keys(n_per, 100 + i as u64))
        .collect();
    let inputs_clone = inputs.clone();
    let (mut sim, drivers) = build_cluster(
        p,
        CardPorts::ideal,
        FpgaDevice::virtex_next_gen(),
        Bitstream::int_sort(16, 16),
        |i| Plan::Sort {
            keys: keys_to_bytes(&inputs_clone[i]),
        },
    );
    sim.run();
    let mut received_total = 0usize;
    for (rank, &d) in drivers.iter().enumerate() {
        let (_, bytes, bounds) = sim
            .component::<Driver>(d)
            .result
            .as_ref()
            .expect("gather completed");
        received_total += bytes.len() / 4;
        // Exactly a stable bucket sort of the keys every source destined
        // for this rank, taken source by source in rank order: the same
        // bytes, and the same bucket bounds.
        let mine: Vec<u32> = inputs
            .iter()
            .flatten()
            .copied()
            .filter(|&k| destination_rank(k, p) == rank)
            .collect();
        let buckets = bucket_sort(&mine, 16);
        assert_eq!(
            *bytes,
            keys_to_bytes(&buckets.concat()),
            "rank {rank} bytes"
        );
        let mut end = 0;
        let expect: Vec<usize> = buckets
            .iter()
            .map(|b| {
                end += b.len() * 4;
                end
            })
            .collect();
        assert_eq!(bounds.as_ref(), Some(&expect), "rank {rank} bucket bounds");
    }
    assert_eq!(received_total, p * n_per, "keys lost or duplicated");
}

#[test]
fn empty_unicast_part_to_a_peer_is_one_empty_fin() {
    let p = 2;
    let (mut sim, drivers) = build_cluster(
        p,
        CardPorts::ideal,
        FpgaDevice::virtex_next_gen(),
        Bitstream::protocol_only(),
        |i| match i {
            0 => Plan::Relay {
                parts: vec![(1, 0)],
                data: Vec::new(),
                from: Vec::new(),
            },
            _ => Plan::Relay {
                parts: Vec::new(),
                data: Vec::new(),
                from: vec![0],
            },
        },
    );
    sim.run();
    let (_, bytes, bounds) = sim
        .component::<Driver>(drivers[1])
        .result
        .as_ref()
        .expect("the fin completes rank 1's gather");
    assert!(bytes.is_empty(), "a zero-length part carries no data");
    assert_eq!(bounds.as_deref(), Some(&[0][..]), "one empty source");
    // Ids: drivers 0..p, cards p..2p, then the switch; port 1 faces
    // rank 1.
    let switch = sim.component::<Switch>(acc_sim::ComponentId::from_raw(2 * p));
    assert_eq!(switch.port(1).sent(), 1, "exactly one packet to rank 1");
}

#[test]
fn completion_raises_single_interrupt_per_gather() {
    let p = 4;
    let n = 32;
    let m = n / p;
    let matrix = random_matrix(n, 5);
    let slabs = split_row_blocks(&matrix, p);
    let (mut sim, _) = build_cluster(
        p,
        CardPorts::ideal,
        FpgaDevice::virtex_next_gen(),
        Bitstream::fft_transpose(m),
        |i| Plan::Transpose {
            slab: slab_to_bytes(&slabs[i]),
            m,
        },
    );
    sim.run();
    // Card ids were reserved after driver ids: p..2p.
    for i in 0..p {
        let card = sim.component::<InicCard>(acc_sim::ComponentId::from_raw(p + i));
        assert_eq!(
            card.interrupts_raised(),
            1,
            "card {i}: exactly one completion interrupt per transpose"
        );
    }
}

#[test]
fn oversized_bitstream_is_rejected_via_event() {
    // A 128-bucket sorter on the prototype device must come back Err.
    struct CfgApp {
        card: ComponentId,
        outcome: Option<Result<(), acc_fpga::ConfigError>>,
    }
    impl Component for CfgApp {
        fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
            if ev.downcast_ref::<()>().is_some() {
                ctx.send_now(
                    self.card,
                    InicConfigure {
                        bitstream: Bitstream::int_sort(16, 128),
                    },
                );
            } else if let Ok(cfg) = ev.downcast::<InicConfigured>() {
                self.outcome = Some(cfg.result);
            } else {
                panic!("unexpected event");
            }
        }
        fn name(&self) -> &str {
            "cfg-app"
        }
    }
    let mut sim = Simulation::new(0);
    let app_id = sim.reserve_id();
    let card_id = sim.reserve_id();
    let switch_id = sim.reserve_id();
    let link = LinkParams::for_kind(EthernetKind::Gigabit);
    let mut switch = Switch::new("sw", SwitchParams::default());
    let mac = MacAddr::for_node(0, 1);
    let sw_port = switch.attach(mac, card_id, 0, link);
    let uplink = EgressPort::new(
        link.rate,
        link.prop_delay,
        acc_net::presets::NIC_BUFFER,
        switch_id,
        sw_port,
        0,
    );
    sim.register(
        card_id,
        InicCard::new(
            "inic0",
            0,
            mac,
            app_id,
            uplink,
            FpgaDevice::xc4085xla(),
            CardPorts::aceii(),
        ),
    );
    sim.register(switch_id, switch);
    sim.register(
        app_id,
        CfgApp {
            card: card_id,
            outcome: None,
        },
    );
    sim.schedule_at(SimTime::ZERO, app_id, ());
    sim.run();
    let outcome = sim
        .component::<CfgApp>(app_id)
        .outcome
        .expect("configuration reply");
    assert!(
        outcome.is_err(),
        "4085XLA must reject the 128-bucket sorter"
    );
}
