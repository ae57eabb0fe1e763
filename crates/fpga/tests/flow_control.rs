//! Credit-based flow control under incast: every card blasts one hot
//! receiver at once. Without credits the switch's output buffer would
//! overflow and (since the INIC protocol has no retransmission) the
//! collective would deadlock; with credits it completes with zero
//! drops.

use std::any::Any;

use acc_fpga::{
    Bitstream, CardPorts, FpgaDevice, GatherKind, InicCard, InicConfigure, InicConfigured,
    InicExpect, InicGatherComplete, InicScatter, InicScatterDone, ScatterKind,
};
use acc_net::port::EgressPort;
use acc_net::{EthernetKind, LinkParams, MacAddr, Switch, SwitchParams};
use acc_sim::{Component, ComponentId, Ctx, SimTime, Simulation};

/// Driver that sends its whole buffer to rank 0 (raw), and on rank 0
/// expects one stream from every other rank.
struct IncastDriver {
    card: ComponentId,
    rank: u32,
    p: usize,
    macs: Vec<MacAddr>,
    payload: usize,
    received: Option<Vec<u8>>,
}

impl Component for IncastDriver {
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        if ev.downcast_ref::<()>().is_some() {
            ctx.send_now(
                self.card,
                InicConfigure {
                    bitstream: Bitstream::protocol_only(),
                },
            );
            return;
        }
        let ev = match ev.downcast::<InicConfigured>() {
            Err(ev) => ev,
            Ok(cfg) => {
                cfg.result.expect("fits");
                if self.rank == 0 {
                    ctx.send_now(
                        self.card,
                        InicExpect {
                            stream: 1,
                            kind: GatherKind::Raw,
                            sources: (1..self.p as u32).map(|s| (s, None)).collect(),
                        },
                    );
                } else {
                    // All data to rank 0; empty parts (lone fins) to the
                    // other peers, in ring order from our own rank.
                    let parts = (1..self.p)
                        .map(|step| ((self.rank as usize + step) % self.p) as u32)
                        .map(|q| (q, if q == 0 { self.payload } else { 0 }))
                        .collect();
                    let mut data = vec![0u8; self.payload];
                    for (i, b) in data.iter_mut().enumerate() {
                        *b = (i as u8).wrapping_mul(self.rank as u8);
                    }
                    // Every other part is zero-length, so the data is
                    // just the rank-0 part.
                    ctx.send_now(
                        self.card,
                        InicScatter {
                            stream: 1,
                            kind: ScatterKind::Unicast { parts },
                            data,
                            dests: self.macs.clone(),
                        },
                    );
                }
                return;
            }
        };
        let ev = match ev.downcast::<InicGatherComplete>() {
            Err(ev) => ev,
            Ok(done) => {
                assert_eq!(self.rank, 0, "only rank 0 gathers");
                self.received = Some(done.data);
                return;
            }
        };
        if ev.downcast_ref::<InicScatterDone>().is_some() {
            return;
        }
        panic!("incast driver: unexpected event");
    }
    fn name(&self) -> &str {
        "incast"
    }
}

#[test]
fn incast_completes_with_zero_drops_under_credit_flow_control() {
    // 8 senders × 256 KiB at one receiver: 2 MiB of simultaneous demand
    // against a 512 KiB switch output buffer. Credits must pace it.
    let p = 9usize;
    let payload = 256 * 1024;
    let mut sim = Simulation::new(3);
    let link = LinkParams::for_kind(EthernetKind::Gigabit);
    let macs: Vec<MacAddr> = (0..p).map(|i| MacAddr::for_node(i, 2)).collect();
    let drivers: Vec<ComponentId> = (0..p).map(|_| sim.reserve_id()).collect();
    let cards: Vec<ComponentId> = (0..p).map(|_| sim.reserve_id()).collect();
    let switch_id = sim.reserve_id();
    let mut switch = Switch::new("sw", SwitchParams::default());
    for i in 0..p {
        let sw_port = switch.attach(macs[i], cards[i], 0, link);
        let uplink = EgressPort::new(
            link.rate,
            link.prop_delay,
            acc_net::presets::NIC_BUFFER,
            switch_id,
            sw_port,
            0,
        );
        sim.register(
            cards[i],
            InicCard::new(
                format!("inic{i}"),
                i as u32,
                macs[i],
                drivers[i],
                uplink,
                FpgaDevice::virtex_next_gen(),
                CardPorts::ideal(),
            ),
        );
        sim.register(
            drivers[i],
            IncastDriver {
                card: cards[i],
                rank: i as u32,
                p,
                macs: macs.clone(),
                payload,
                received: None,
            },
        );
        sim.schedule_at(SimTime::ZERO, drivers[i], ());
    }
    sim.register(switch_id, switch);
    sim.run();

    let received = sim
        .component::<IncastDriver>(drivers[0])
        .received
        .as_ref()
        .expect("incast gather must complete — credit flow control failed");
    assert_eq!(received.len(), (p - 1) * payload, "all bytes delivered");
    assert_eq!(
        sim.component::<Switch>(switch_id).total_drops(),
        0,
        "credits must keep the hot output queue within its buffer"
    );
}

#[test]
fn balanced_all_to_all_pays_no_measurable_credit_cost() {
    // Credits exist for the pathological case; the balanced case (the
    // paper's premise) must not stall: the all-to-all transpose test in
    // card_behaviour.rs covers functionality, here we check the switch
    // stayed loss-free and the cards never emitted into a full uplink.
    struct Balanced {
        card: ComponentId,
        rank: u32,
        p: usize,
        macs: Vec<MacAddr>,
        part: usize,
        done: bool,
    }
    impl Component for Balanced {
        fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
            if ev.downcast_ref::<()>().is_some() {
                ctx.send_now(
                    self.card,
                    InicConfigure {
                        bitstream: Bitstream::protocol_only(),
                    },
                );
                return;
            }
            let ev = match ev.downcast::<InicConfigured>() {
                Err(ev) => ev,
                Ok(_) => {
                    ctx.send_now(
                        self.card,
                        InicExpect {
                            stream: 1,
                            kind: GatherKind::Raw,
                            sources: (0..self.p as u32)
                                .filter(|&s| s != self.rank)
                                .map(|s| (s, Some(self.part)))
                                .collect(),
                        },
                    );
                    // Every peer but ourselves, in ring order.
                    let parts = (1..self.p)
                        .map(|step| ((self.rank as usize + step) % self.p) as u32)
                        .map(|q| (q, self.part))
                        .collect();
                    let data = vec![self.rank as u8; self.part * (self.p - 1)];
                    ctx.send_now(
                        self.card,
                        InicScatter {
                            stream: 1,
                            kind: ScatterKind::Unicast { parts },
                            data,
                            dests: self.macs.clone(),
                        },
                    );
                    return;
                }
            };
            let ev = match ev.downcast::<InicGatherComplete>() {
                Err(ev) => ev,
                Ok(g) => {
                    assert_eq!(g.data.len(), self.part * (self.p - 1));
                    self.done = true;
                    return;
                }
            };
            if ev.downcast_ref::<InicScatterDone>().is_some() {
                return;
            }
            panic!("balanced driver: unexpected event");
        }
        fn name(&self) -> &str {
            "balanced"
        }
    }

    let p = 8usize;
    let part = 64 * 1024;
    let mut sim = Simulation::new(9);
    let link = LinkParams::for_kind(EthernetKind::Gigabit);
    let macs: Vec<MacAddr> = (0..p).map(|i| MacAddr::for_node(i, 2)).collect();
    let drivers: Vec<ComponentId> = (0..p).map(|_| sim.reserve_id()).collect();
    let cards: Vec<ComponentId> = (0..p).map(|_| sim.reserve_id()).collect();
    let switch_id = sim.reserve_id();
    let mut switch = Switch::new("sw", SwitchParams::default());
    for i in 0..p {
        let sw_port = switch.attach(macs[i], cards[i], 0, link);
        let uplink = EgressPort::new(
            link.rate,
            link.prop_delay,
            acc_net::presets::NIC_BUFFER,
            switch_id,
            sw_port,
            0,
        );
        sim.register(
            cards[i],
            InicCard::new(
                format!("inic{i}"),
                i as u32,
                macs[i],
                drivers[i],
                uplink,
                FpgaDevice::virtex_next_gen(),
                CardPorts::ideal(),
            ),
        );
        sim.register(
            drivers[i],
            Balanced {
                card: cards[i],
                rank: i as u32,
                p,
                macs: macs.clone(),
                part,
                done: false,
            },
        );
        sim.schedule_at(SimTime::ZERO, drivers[i], ());
    }
    sim.register(switch_id, switch);
    sim.run();
    for (i, &d) in drivers.iter().enumerate() {
        assert!(sim.component::<Balanced>(d).done, "rank {i} incomplete");
    }
    assert_eq!(sim.component::<Switch>(switch_id).total_drops(), 0);
}
