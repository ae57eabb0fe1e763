//! A store-and-forward output-queued Ethernet switch.

use std::collections::BTreeMap;

use acc_sim::{unknown_event, Component, ComponentId, CounterHandle, Ctx};

use crate::frame::{Frame, MacAddr};
use crate::msg::{NetCarrier, NetMsg};
use crate::port::EgressPort;
use crate::presets::{LinkParams, SwitchParams};

/// A switch's own event: a frame has finished the forwarding pipeline
/// and may enter its output queue.
pub struct SwitchForward {
    out: usize,
    frame: Frame,
}

/// Fabric event: swap in a new next-hop table (scheduled at routing
/// epoch boundaries by the cluster wiring; see `acc_net::routing`).
pub struct RouteUpdate {
    /// Destination MAC → egress port index, replacing the previous table.
    pub routes: BTreeMap<MacAddr, usize>,
}

/// Fabric fault event: the switch dies. Frames already accepted into an
/// output queue drain (store-and-forward pipeline completes), but every
/// later arrival is blackholed and counted.
pub struct SwitchKill;

/// A non-blocking output-queued switch: any set of inputs can forward
/// concurrently; contention appears only at output ports, whose bounded
/// buffers drop-tail when overrun — the loss mechanism TCP reacts to in
/// the Gigabit Ethernet experiments.
///
/// Two forwarding modes share the datapath:
///
/// * **Flood** (default) — unknown unicast and broadcast replicate to
///   every port but the ingress, as a learning switch would. This is
///   the paper's single-switch baseline.
/// * **Routed** ([`enable_routing`](Switch::enable_routing)) — a fabric
///   member: misses in the local MAC table consult the installed
///   next-hop table instead of flooding; broadcast and table misses are
///   dropped and counted as unroutable, so a partition surfaces as
///   attributed counters, never as silent replication storms.
pub struct Switch {
    label: String,
    params: SwitchParams,
    ports: Vec<EgressPort>,
    mac_table: BTreeMap<MacAddr, usize>,
    /// Routed mode: next-hop table (dst MAC → port), swapped by
    /// [`RouteUpdate`] at epoch boundaries.
    routes: Option<BTreeMap<MacAddr, usize>>,
    dead: bool,
    blackhole_drops: u64,
    unroutable_drops: u64,
    /// Per-frame counter handles (`frames_in`, `frames_fwd`).
    frames_in: CounterHandle,
    frames_fwd: CounterHandle,
}

impl Switch {
    /// Create an empty switch; attach devices before registering it.
    pub fn new(label: impl Into<String>, params: SwitchParams) -> Switch {
        Switch {
            label: label.into(),
            params,
            ports: Vec::new(),
            mac_table: BTreeMap::new(),
            routes: None,
            dead: false,
            blackhole_drops: 0,
            unroutable_drops: 0,
            frames_in: CounterHandle::default(),
            frames_fwd: CounterHandle::default(),
        }
    }

    /// Attach a device: frames destined to `mac` egress through a new
    /// port wired to `peer` (its [`FrameArrival::port`] will be
    /// `peer_port`). Returns this switch's port index, which the device
    /// must use as the `peer_port` of its own egress toward the switch.
    ///
    /// [`FrameArrival::port`]: crate::port::FrameArrival::port
    pub fn attach(
        &mut self,
        mac: MacAddr,
        peer: ComponentId,
        peer_port: usize,
        link: LinkParams,
    ) -> usize {
        let idx = self.ports.len();
        self.ports.push(EgressPort::new(
            link.rate,
            link.prop_delay,
            self.params.port_buffer,
            peer,
            peer_port,
            idx,
        ));
        let prev = self.mac_table.insert(mac, idx);
        assert!(prev.is_none(), "MAC {mac:?} attached twice");
        idx
    }

    /// Attach a trunk to a peer switch: a new egress port toward `peer`
    /// (its [`FrameArrival::port`] will be `peer_port`) with no MAC
    /// table entry — trunks carry whatever the next-hop table sends.
    ///
    /// [`FrameArrival::port`]: crate::port::FrameArrival::port
    pub fn attach_trunk(&mut self, peer: ComponentId, peer_port: usize, link: LinkParams) -> usize {
        let idx = self.ports.len();
        self.ports.push(EgressPort::new(
            link.rate,
            link.prop_delay,
            self.params.port_buffer,
            peer,
            peer_port,
            idx,
        ));
        idx
    }

    /// Switch to routed (fabric) mode with an initial next-hop table.
    /// In this mode unknown unicast and broadcast never flood.
    pub fn enable_routing(&mut self, routes: BTreeMap<MacAddr, usize>) {
        self.routes = Some(routes);
    }

    /// Frames discarded because this switch was dead when they arrived.
    pub fn blackhole_drops(&self) -> u64 {
        self.blackhole_drops
    }

    /// Frames discarded in routed mode for lack of any next hop
    /// (partitioned or unknown destination, or broadcast).
    pub fn unroutable_drops(&self) -> u64 {
        self.unroutable_drops
    }

    /// Whether a [`SwitchKill`] has taken this switch down.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Number of attached ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Attach a fault model to one output port (the switch→device
    /// downlink direction).
    pub fn set_port_impairment(&mut self, port: usize, imp: crate::impair::Impairment) {
        self.ports[port].set_impairment(imp);
    }

    /// Publish conservation counters for one output port under `label`
    /// (see [`EgressPort::set_stats_label`]).
    pub fn set_port_stats_label(&mut self, port: usize, label: impl Into<String>) {
        self.ports[port].set_stats_label(label);
    }

    /// Read access to one output port (counters, impairment state).
    pub fn port(&self, idx: usize) -> &EgressPort {
        &self.ports[idx]
    }

    /// Frames discarded by fault injection across all output ports
    /// (distinct from queue-overflow drops).
    pub fn impair_lost_total(&self) -> u64 {
        self.ports
            .iter()
            .filter_map(EgressPort::impairment)
            .map(|i| {
                let c = i.counters();
                c.lost + c.outage_drops
            })
            .sum()
    }

    /// Total frames dropped across all output queues.
    pub fn total_drops(&self) -> u64 {
        self.ports.iter().map(EgressPort::drops).sum()
    }

    /// Total frames forwarded out of all ports.
    pub fn total_sent(&self) -> u64 {
        self.ports.iter().map(EgressPort::sent).sum()
    }

    fn forward<M: NetCarrier>(&mut self, ingress: usize, frame: Frame, ctx: &mut Ctx<'_, M>) {
        let latency = self.params.forwarding_latency;
        if frame.dst == MacAddr::BROADCAST {
            if self.routes.is_some() {
                // Fabric members never flood: replicating a broadcast
                // across trunks would storm the whole fabric. No cluster
                // protocol broadcasts, so this only catches bugs.
                self.drop_unroutable(ctx);
            } else {
                self.flood(ingress, frame, ctx);
            }
            return;
        }
        if let Some(&out) = self.mac_table.get(&frame.dst) {
            debug_assert_ne!(out, ingress, "frame forwarded to its ingress port");
            ctx.self_in(latency, forward(out, frame));
            return;
        }
        match &self.routes {
            Some(routes) => match routes.get(&frame.dst) {
                Some(&out) => {
                    // Next hops strictly decrease BFS distance to the
                    // destination, so a route never points back out the
                    // ingress trunk.
                    debug_assert_ne!(out, ingress, "frame forwarded to its ingress port");
                    ctx.self_in(latency, forward(out, frame));
                }
                // Partitioned or unknown destination: structured loss,
                // surfaced via counters and wait_state instead of a
                // silent flood.
                None => self.drop_unroutable(ctx),
            },
            None => {
                // Unknown unicast: flood, as a learning switch would before
                // the table is warm.
                self.flood(ingress, frame, ctx);
            }
        }
    }

    fn drop_unroutable<M>(&mut self, ctx: &mut Ctx<'_, M>) {
        self.unroutable_drops += 1;
        ctx.stats().counter(&self.label, "frames_unroutable").inc();
    }

    fn drop_blackhole<M>(&mut self, ctx: &mut Ctx<'_, M>) {
        self.blackhole_drops += 1;
        ctx.stats().counter(&self.label, "frames_blackholed").inc();
    }

    /// Replicate `frame` to every port except `ingress`. Each replica
    /// shares the same payload allocation (the `Frame` clone bumps a
    /// refcount — see [`crate::frame::PayloadView`]); the highest egress
    /// port takes the original by move, so an N-port flood performs zero
    /// payload copies.
    fn flood<M: NetCarrier>(&mut self, ingress: usize, frame: Frame, ctx: &mut Ctx<'_, M>) {
        let latency = self.params.forwarding_latency;
        let Some(last) = (0..self.ports.len()).rev().find(|&out| out != ingress) else {
            return;
        };
        for out in 0..last {
            if out != ingress {
                ctx.self_in(latency, forward(out, frame.clone()));
            }
        }
        ctx.self_in(latency, forward(last, frame));
    }
}

/// The pipeline-completion event for `frame` bound for port `out`.
fn forward<M: NetCarrier>(out: usize, frame: Frame) -> M {
    M::from(NetMsg::Forward(SwitchForward { out, frame }))
}

impl<M: NetCarrier> Component<M> for Switch {
    fn handle(&mut self, ev: M, ctx: &mut Ctx<'_, M>) {
        let Ok(ev) = ev.into_net() else {
            unknown_event(&self.label)
        };
        match ev {
            NetMsg::Arrival(arrival) => {
                ctx.stats()
                    .counter_by(&mut self.frames_in, &self.label, "frames_in")
                    .inc();
                if self.dead {
                    self.drop_blackhole(ctx);
                } else {
                    self.forward(arrival.port, arrival.frame, ctx);
                }
            }
            NetMsg::Forward(fwd) => {
                if self.dead {
                    // Died mid-pipeline: the frame was counted in but
                    // never reaches an output queue.
                    self.drop_blackhole(ctx);
                    return;
                }
                let ok = self.ports[fwd.out].enqueue(fwd.frame, ctx);
                if ok {
                    ctx.stats()
                        .counter_by(&mut self.frames_fwd, &self.label, "frames_fwd")
                        .inc();
                } else {
                    ctx.stats().counter(&self.label, "frames_dropped").inc();
                }
            }
            NetMsg::TxDone(done) => self.ports[done.port].tx_done(ctx),
            NetMsg::Routes(update) => self.routes = Some(update.routes),
            NetMsg::Kill(SwitchKill) => self.dead = true,
        }
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn wait_state(&self) -> Option<String> {
        if self.dead {
            return Some(format!(
                "switch failed ({} frames blackholed)",
                self.blackhole_drops
            ));
        }
        if self.unroutable_drops > 0 {
            return Some(format!(
                "{} frames unroutable (partitioned destination)",
                self.unroutable_drops
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::EtherType;
    use crate::port::{FrameArrival, PortTxDone};
    use crate::presets::EthernetKind;
    use acc_sim::{Bandwidth, DataSize, SimDuration, SimTime, Simulation};
    use std::any::Any;

    /// End host for switch tests: sends pre-loaded frames at t=0 through
    /// its uplink, records what it receives.
    struct Host {
        uplink: Option<EgressPort>,
        outbox: Vec<Frame>,
        inbox: Vec<(SimTime, Frame)>,
    }

    impl Component for Host {
        fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
            if ev.downcast_ref::<()>().is_some() {
                for f in self.outbox.drain(..) {
                    self.uplink
                        .as_mut()
                        .expect("host: uplink never wired to its switch port")
                        .enqueue(f, ctx);
                }
            } else if ev.downcast_ref::<PortTxDone>().is_some() {
                self.uplink
                    .as_mut()
                    .expect("host: tx-done for an uplink that was never wired")
                    .tx_done(ctx);
            } else if let Ok(arr) = ev.downcast::<FrameArrival>() {
                self.inbox.push((ctx.now(), arr.frame));
            } else {
                panic!("host: unknown event");
            }
        }
        fn name(&self) -> &str {
            "host"
        }
    }

    /// The switch's wait state as the legacy-carrier engine reads it.
    fn wait_state(s: &Switch) -> Option<String> {
        Component::<Box<dyn Any>>::wait_state(s)
    }

    /// Wire N hosts to one switch; host i pre-loads `outbox(i)`.
    fn build_star(
        n: usize,
        outbox: impl Fn(usize) -> Vec<Frame>,
    ) -> (Simulation, Vec<acc_sim::ComponentId>, acc_sim::ComponentId) {
        let mut sim = Simulation::new(1);
        let link = LinkParams::for_kind(EthernetKind::Gigabit);
        let host_ids: Vec<_> = (0..n).map(|_| sim.reserve_id()).collect();
        let switch_id = sim.reserve_id();
        let mut switch = Switch::new("sw", SwitchParams::default());
        let mut hosts: Vec<Host> = Vec::new();
        for (i, &hid) in host_ids.iter().enumerate() {
            let sw_port = switch.attach(MacAddr::for_node(i, 0), hid, 0, link);
            hosts.push(Host {
                uplink: Some(EgressPort::new(
                    link.rate,
                    link.prop_delay,
                    DataSize::from_kib(512),
                    switch_id,
                    sw_port,
                    0,
                )),
                outbox: outbox(i),
                inbox: vec![],
            });
        }
        sim.register(switch_id, switch);
        for (hid, host) in host_ids.iter().zip(hosts) {
            sim.register(*hid, host);
            sim.schedule_at(SimTime::ZERO, *hid, ());
        }
        (sim, host_ids, switch_id)
    }

    fn unicast(src: usize, dst: usize, n: usize) -> Frame {
        Frame::new(
            MacAddr::for_node(src, 0),
            MacAddr::for_node(dst, 0),
            EtherType::Other(0),
            vec![src as u8; n],
        )
    }

    #[test]
    fn unicast_reaches_only_destination() {
        let (mut sim, ids, _) = build_star(3, |i| {
            if i == 0 {
                vec![unicast(0, 2, 1000)]
            } else {
                vec![]
            }
        });
        sim.run();
        assert_eq!(sim.component::<Host>(ids[1]).inbox.len(), 0);
        let inbox = &sim.component::<Host>(ids[2]).inbox;
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].1.payload, vec![0u8; 1000]);
        // Arrival after: host ser + prop + forwarding + switch ser + prop.
        let ser = Bandwidth::from_mbit_per_sec(1000).transfer_time(unicast(0, 2, 1000).wire_size());
        let expect = ser
            + SimDuration::from_nanos(500)
            + SimDuration::from_micros(4)
            + ser
            + SimDuration::from_nanos(500);
        assert_eq!(inbox[0].0, SimTime::ZERO + expect);
    }

    #[test]
    fn broadcast_floods_all_but_ingress() {
        let (mut sim, ids, _) = build_star(4, |i| {
            if i == 1 {
                vec![Frame::new(
                    MacAddr::for_node(1, 0),
                    MacAddr::BROADCAST,
                    EtherType::Other(0),
                    vec![9; 100],
                )]
            } else {
                vec![]
            }
        });
        sim.run();
        for (i, id) in ids.iter().enumerate() {
            let got = sim.component::<Host>(*id).inbox.len();
            assert_eq!(got, usize::from(i != 1), "host {i}");
        }
    }

    #[test]
    fn concurrent_unicasts_do_not_interfere() {
        // 0→1 and 2→3 simultaneously: both deliver at the same instant.
        let (mut sim, ids, _) = build_star(4, |i| match i {
            0 => vec![unicast(0, 1, 1000)],
            2 => vec![unicast(2, 3, 1000)],
            _ => vec![],
        });
        sim.run();
        let t1 = sim.component::<Host>(ids[1]).inbox[0].0;
        let t3 = sim.component::<Host>(ids[3]).inbox[0].0;
        assert_eq!(t1, t3);
    }

    #[test]
    fn output_contention_serializes() {
        // 1→0 and 2→0: second frame queues behind the first at port 0.
        let (mut sim, ids, _) = build_star(3, |i| match i {
            1 => vec![unicast(1, 0, 1000)],
            2 => vec![unicast(2, 0, 1000)],
            _ => vec![],
        });
        sim.run();
        let inbox = &sim.component::<Host>(ids[0]).inbox;
        assert_eq!(inbox.len(), 2);
        let gap = inbox[1].0.since(inbox[0].0);
        let ser = Bandwidth::from_mbit_per_sec(1000).transfer_time(unicast(1, 0, 1000).wire_size());
        assert_eq!(gap, ser, "second delivery exactly one serialization later");
    }

    #[test]
    fn overload_drops_at_output_buffer() {
        // Two senders blast 600 KiB each at one receiver; the 512 KiB
        // output buffer must overflow.
        let frames_each = 600;
        let (mut sim, ids, sw) = build_star(3, |i| {
            if i == 1 || i == 2 {
                (0..frames_each).map(|_| unicast(i, 0, 1024)).collect()
            } else {
                vec![]
            }
        });
        sim.run();
        let delivered = sim.component::<Host>(ids[0]).inbox.len();
        let sw_dropped = sim.component::<Switch>(sw).total_drops();
        // Frames can also drop at the senders' own 512 KiB uplink buffers
        // when the application enqueues 600 KiB in one burst.
        let host_dropped: u64 = ids
            .iter()
            .map(|&id| sim.component::<Host>(id).uplink.as_ref().unwrap().drops())
            .sum();
        assert_eq!(
            delivered as u64 + sw_dropped + host_dropped,
            2 * frames_each as u64
        );
        assert!(
            sw_dropped > 0,
            "expected switch drop-tail under 2:1 output overload"
        );
    }

    /// Two switches joined by a trunk, one host on each, routed mode.
    /// Returns (sim, host ids, switch ids).
    fn build_routed_pair() -> (
        Simulation,
        [acc_sim::ComponentId; 2],
        [acc_sim::ComponentId; 2],
    ) {
        let mut sim = Simulation::new(1);
        let link = LinkParams::for_kind(EthernetKind::Gigabit);
        let h0 = sim.reserve_id();
        let h1 = sim.reserve_id();
        let sa = sim.reserve_id();
        let sb = sim.reserve_id();
        let mut a = Switch::new("swa", SwitchParams::default());
        let mut b = Switch::new("swb", SwitchParams::default());
        let pa0 = a.attach(MacAddr::for_node(0, 0), h0, 0, link);
        let pb0 = b.attach(MacAddr::for_node(1, 0), h1, 0, link);
        let ta = a.attach_trunk(sb, 1, link);
        let tb = b.attach_trunk(sa, 1, link);
        assert_eq!((ta, tb), (1, 1));
        a.enable_routing([(MacAddr::for_node(1, 0), ta)].into());
        b.enable_routing([(MacAddr::for_node(0, 0), tb)].into());
        sim.register(sa, a);
        sim.register(sb, b);
        for (hid, swid, swport, i) in [(h0, sa, pa0, 0usize), (h1, sb, pb0, 1usize)] {
            sim.register(
                hid,
                Host {
                    uplink: Some(EgressPort::new(
                        link.rate,
                        link.prop_delay,
                        DataSize::from_kib(512),
                        swid,
                        swport,
                        0,
                    )),
                    outbox: if i == 0 {
                        vec![unicast(0, 1, 700)]
                    } else {
                        vec![]
                    },
                    inbox: vec![],
                },
            );
            sim.schedule_at(SimTime::ZERO, hid, ());
        }
        (sim, [h0, h1], [sa, sb])
    }

    #[test]
    fn routed_unicast_crosses_trunk() {
        let (mut sim, hosts, switches) = build_routed_pair();
        sim.run();
        let inbox = &sim.component::<Host>(hosts[1]).inbox;
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].1.payload, vec![0u8; 700]);
        for sw in switches {
            let s = sim.component::<Switch>(sw);
            assert_eq!(s.unroutable_drops(), 0);
            assert_eq!(s.blackhole_drops(), 0);
            assert!(wait_state(s).is_none());
        }
    }

    #[test]
    fn routed_mode_never_floods() {
        // Unknown unicast and broadcast both drop as unroutable instead
        // of replicating across the fabric.
        let (mut sim, hosts, switches) = build_routed_pair();
        {
            let host = sim.component_mut::<Host>(hosts[0]);
            host.outbox = vec![
                unicast(0, 9, 100), // no such destination
                Frame::new(
                    MacAddr::for_node(0, 0),
                    MacAddr::BROADCAST,
                    EtherType::Other(0),
                    vec![7; 100],
                ),
            ];
        }
        sim.run();
        assert_eq!(sim.component::<Host>(hosts[1]).inbox.len(), 0);
        let a = sim.component::<Switch>(switches[0]);
        assert_eq!(a.unroutable_drops(), 2);
        assert!(wait_state(a)
            .expect("unroutable drops must surface in wait_state")
            .contains("unroutable"));
    }

    #[test]
    fn killed_switch_blackholes_arrivals() {
        let (mut sim, hosts, switches) = build_routed_pair();
        // The kill is scheduled before the host's frame finishes
        // serializing, so the arrival hits a dead switch.
        sim.schedule_at(SimTime::ZERO, switches[0], SwitchKill);
        sim.run();
        assert_eq!(sim.component::<Host>(hosts[1]).inbox.len(), 0);
        let a = sim.component::<Switch>(switches[0]);
        assert!(a.is_dead());
        assert_eq!(a.blackhole_drops(), 1);
        assert!(wait_state(a)
            .expect("a dead switch must surface in wait_state")
            .contains("switch failed"));
    }

    #[test]
    fn route_update_swaps_table() {
        let (mut sim, hosts, switches) = build_routed_pair();
        // Empty the table before the frame arrives: it must drop.
        sim.schedule_at(
            SimTime::ZERO,
            switches[0],
            RouteUpdate {
                routes: BTreeMap::new(),
            },
        );
        sim.run();
        assert_eq!(sim.component::<Host>(hosts[1]).inbox.len(), 0);
        assert_eq!(sim.component::<Switch>(switches[0]).unroutable_drops(), 1);
    }

    #[test]
    fn flooded_frame_outage_drops_count_per_port() {
        // A broadcast replicated to two outage-darkened egress ports is
        // charged one drop per port, not one per frame.
        let (mut sim, ids, sw) = build_star(3, |i| {
            if i == 0 {
                vec![Frame::new(
                    MacAddr::for_node(0, 0),
                    MacAddr::BROADCAST,
                    EtherType::Other(0),
                    vec![3; 200],
                )]
            } else {
                vec![]
            }
        });
        let far = SimTime::ZERO + SimDuration::from_secs(1);
        for port in [1usize, 2] {
            let imp = crate::impair::Impairment::new(acc_sim::SimRng::seed_from(5))
                .with_outage(SimTime::ZERO, far);
            sim.component_mut::<Switch>(sw)
                .set_port_impairment(port, imp);
        }
        sim.run();
        assert_eq!(sim.component::<Host>(ids[1]).inbox.len(), 0);
        assert_eq!(sim.component::<Host>(ids[2]).inbox.len(), 0);
        let s = sim.component::<Switch>(sw);
        assert_eq!(
            s.impair_lost_total(),
            2,
            "one outage drop per egress port replica"
        );
        for port in [1usize, 2] {
            assert_eq!(
                s.port(port)
                    .impairment()
                    .expect("impairment installed above")
                    .counters()
                    .outage_drops,
                1,
                "port {port}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "attached twice")]
    fn duplicate_mac_rejected() {
        let mut sw = Switch::new("sw", SwitchParams::default());
        let link = LinkParams::for_kind(EthernetKind::Gigabit);
        sw.attach(MacAddr::for_node(0, 0), ComponentId::from_raw(0), 0, link);
        sw.attach(MacAddr::for_node(0, 0), ComponentId::from_raw(1), 0, link);
    }
}
