//! The switch, its ports and the TCP NIC on the legacy `Box<dyn Any>`
//! carrier, driven the way external probes drive them: components that
//! implement the type-erased `Component`, events injected with
//! `schedule_at` as plain structs, results read back with
//! `sim.component::<C>()`.

use std::any::Any;

use acc_host::{InterruptCosts, ModerationPolicy};
use acc_net::port::EgressPort;
use acc_net::{
    EtherType, EthernetKind, Frame, FrameArrival, LinkParams, MacAddr, Switch, SwitchParams,
};
use acc_proto::{HostPathCosts, TcpDelivered, TcpHostNic, TcpParams, TcpSend};
use acc_sim::{Component, ComponentId, Ctx, SimDuration, SimTime, Simulation};

/// Absorbs whatever reaches it.
struct Sink;

impl Component for Sink {
    fn handle(&mut self, _ev: Box<dyn Any>, _ctx: &mut Ctx) {}
    fn name(&self) -> &str {
        "sink"
    }
}

/// One side of a TCP transfer: sends its message on the `()` start
/// event, counts the bytes delivered to it.
struct App {
    nic: ComponentId,
    send: Option<TcpSend>,
    received: usize,
}

impl Component for App {
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        if ev.is::<()>() {
            if let Some(send) = self.send.take() {
                ctx.send_now(self.nic, send);
            }
        } else {
            let d = ev.downcast::<TcpDelivered>().expect("app: a delivery");
            self.received += d.data.len();
        }
    }
    fn name(&self) -> &str {
        "app"
    }
}

#[test]
fn switch_ports_and_tcp_run_on_the_legacy_carrier() {
    // Unicast frames from port 0 to ports 1..=7 of an 8-port switch,
    // injected as plain `FrameArrival`s.
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
    for k in 0..64u64 {
        let dst = 1 + (k % 7) as usize;
        let frame = Frame::new(
            MacAddr::for_node(0, 0),
            MacAddr::for_node(dst, 0),
            EtherType::Other(0),
            vec![k as u8; 1500],
        );
        let at = SimTime::ZERO + SimDuration::from_micros(2 * k);
        sim.schedule_at(at, switch_id, FrameArrival { port: 0, frame });
    }
    sim.run();
    assert_eq!(sim.component::<Switch>(switch_id).total_sent(), 64);
    assert_eq!(sim.component::<Switch>(switch_id).total_drops(), 0);

    // Node 0 sends 256 KiB to node 1 over TCP through one switch: the
    // app's `TcpSend` reaches the NIC as a boxed struct, the NIC's
    // `TcpDelivered` reaches the app as one.
    let bytes = 256 << 10;
    let mut sim = Simulation::new(99);
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
        let send = (i == 0).then(|| TcpSend {
            peer: macs[1],
            chan: 1,
            data: vec![0xA5; bytes],
        });
        sim.register(
            apps[i],
            App {
                nic: nics[i],
                send,
                received: 0,
            },
        );
        sim.schedule_at(SimTime::ZERO, apps[i], ());
    }
    sim.register(switch_id, switch);
    sim.run();
    assert_eq!(sim.component::<App>(apps[1]).received, bytes);
    assert_eq!(
        sim.component::<TcpHostNic>(nics[1]).bytes_delivered(),
        bytes as u64
    );
}

/// A payload no crate's message enum holds is the one dispatch failure
/// the type system cannot rule out on the legacy carrier: it must fail
/// loudly, naming the component.
#[test]
#[should_panic(expected = "edge-sw: unknown event")]
fn unknown_legacy_payload_panics_with_the_component_name() {
    let mut sim: Simulation = Simulation::new(1);
    let switch_id = sim.add(Switch::new("edge-sw", SwitchParams::default()));
    sim.schedule_at(SimTime::ZERO, switch_id, 7u32);
    sim.run();
}
