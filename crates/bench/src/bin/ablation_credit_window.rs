//! Ablation of the credit-window extension: per-destination window size
//! vs incast behaviour.
//!
//! The INIC protocol's loss-freedom guarantee requires that concurrent
//! senders never oversubscribe a switch output buffer. With `P−1`
//! senders converging on one hot receiver, each sender's un-credited
//! window `W` must satisfy `(P−1) × W ≤ buffer` (512 KiB here). This
//! sweep shows both failure modes:
//!
//! * too large — the switch drops frames and (with no retransmission)
//!   the collective can deadlock;
//! * very small — extra credit round trips pace the senders below the
//!   receiver's line rate.

use std::any::Any;

use acc_fpga::{
    Bitstream, CardPorts, FpgaDevice, GatherKind, InicCard, InicConfigure, InicConfigured,
    InicExpect, InicGatherComplete, InicScatter, InicScatterDone, ScatterKind,
};
use acc_net::port::EgressPort;
use acc_net::{EthernetKind, LinkParams, MacAddr, Switch, SwitchParams};
use acc_sim::{Component, ComponentId, Ctx, SimTime, Simulation};

struct Incast {
    card: ComponentId,
    rank: u32,
    p: usize,
    macs: Vec<MacAddr>,
    payload: usize,
    done_at: Option<SimTime>,
}

impl Component for Incast {
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
                if self.rank == 0 {
                    ctx.send_now(
                        self.card,
                        InicExpect {
                            stream: 1,
                            kind: GatherKind::Raw,
                            sources: (1..self.p as u32)
                                .map(|s| (s, Some(self.payload)))
                                .collect(),
                        },
                    );
                } else {
                    // All data to rank 0 and a lone fin to every other
                    // peer, in ring order from our own rank.
                    let parts = (1..self.p)
                        .map(|step| ((self.rank as usize + step) % self.p) as u32)
                        .map(|q| (q, if q == 0 { self.payload } else { 0 }))
                        .collect();
                    ctx.send_now(
                        self.card,
                        InicScatter {
                            stream: 1,
                            kind: ScatterKind::Unicast { parts },
                            data: vec![self.rank as u8; self.payload],
                            dests: self.macs.clone(),
                        },
                    );
                }
                return;
            }
        };
        let ev = match ev.downcast::<InicGatherComplete>() {
            Err(ev) => ev,
            Ok(_) => {
                self.done_at = Some(ctx.now());
                return;
            }
        };
        if ev.downcast_ref::<InicScatterDone>().is_some() {
            return;
        }
        panic!("incast: unexpected event");
    }
    fn name(&self) -> &str {
        "incast"
    }
}

/// Run the 8-into-1 incast with the given window; returns
/// `(completion_ms_if_any, switch_drops)`.
fn run_incast(window: u64) -> (Option<f64>, u64) {
    let p = 9usize;
    let payload = 256 * 1024;
    let mut sim = Simulation::new(5);
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
            )
            .with_credit_window(window),
        );
        sim.register(
            drivers[i],
            Incast {
                card: cards[i],
                rank: i as u32,
                p,
                macs: macs.clone(),
                payload,
                done_at: None,
            },
        );
        sim.schedule_at(SimTime::ZERO, drivers[i], ());
    }
    sim.register(switch_id, switch);
    // acc-lint: allow(R6, reason = "bounded incast micro-sim: fixed payload, no retransmit loop can outlive the drained queue")
    sim.run();
    let done = sim
        .component::<Incast>(drivers[0])
        .done_at
        .map(|t| t.as_millis_f64());
    let drops = sim.component::<Switch>(switch_id).total_drops();
    (done, drops)
}

fn main() {
    let ex = acc_bench::Executor::from_cli();
    let windows = [4u64, 8, 16, 24, 32, 48, 64, 128].map(|k| k * 1024);
    let results = ex.map(windows.iter().map(|&w| move || run_incast(w)).collect());
    println!("# Credit-window ablation: 8 senders x 256 KiB into one receiver");
    println!("# switch output buffer = 512 KiB; safe bound: 8 x W <= 512 KiB");
    println!(
        "{:>10} {:>14} {:>10} {:>10}",
        "window", "completion", "drops", ""
    );
    for (window, (done, drops)) in windows.into_iter().zip(results) {
        let outcome = match done {
            Some(ms) => format!("{ms:>11.2} ms"),
            None => format!("{:>14}", "DEADLOCK"),
        };
        println!(
            "{:>9}K {} {:>10} {:>10}",
            window / 1024,
            outcome,
            drops,
            if window == 24 * 1024 {
                "<- default"
            } else {
                ""
            }
        );
    }
    println!();
    println!("# Windows past the safe bound drop frames; the lossless protocol");
    println!("# then waits forever for data that will never arrive. Small");
    println!("# windows stay safe and cost little until they can no longer");
    println!("# cover the credit round-trip.");
}
