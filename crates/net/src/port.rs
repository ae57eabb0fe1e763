//! A serializing egress port with a bounded drop-tail queue.
//!
//! Both NICs and switch outputs transmit through an [`EgressPort`]: frames
//! queue in port memory, serialize one at a time at line rate, then
//! propagate to the attached peer. The owning component receives a
//! [`PortTxDone`] event when serialization finishes so it can start the
//! next frame; the peer receives a [`FrameArrival`] when the last bit
//! lands.

use acc_sim::{Bandwidth, ComponentId, CounterHandle, Ctx, DataSize, SimDuration};
use std::collections::VecDeque;

use crate::frame::Frame;
use crate::impair::{Impairment, Verdict};
use crate::msg::{NetCarrier, NetMsg};

/// Event delivered to a port's owner when the in-flight frame has fully
/// serialized; the owner must call [`EgressPort::tx_done`].
#[derive(Clone, Copy, Debug)]
pub struct PortTxDone {
    /// Which of the owner's ports finished (owner-assigned index).
    pub port: usize,
}

/// Event delivered to the component at the far end of the link when a
/// frame fully arrives.
#[derive(Debug)]
pub struct FrameArrival {
    /// The receiving component's port index (as configured on the sender).
    pub port: usize,
    /// The frame.
    pub frame: Frame,
}

/// One direction of a full-duplex link: a queue plus a serializer.
pub struct EgressPort {
    /// Line rate.
    rate: Bandwidth,
    /// Signal propagation + PHY latency to the peer.
    prop_delay: SimDuration,
    /// Destination component for [`FrameArrival`] events.
    peer: ComponentId,
    /// Port index presented to the peer.
    peer_port: usize,
    /// Owner's index for this port, echoed in [`PortTxDone`].
    own_port: usize,
    /// Queued frames not yet serializing.
    // acc-lint: allow(R9, reason = "drop-tail bounded in bytes, not frames: enqueue rejects any frame once `buffered + size` exceeds `capacity`, so the ring never outgrows capacity / min-frame-size entries")
    queue: VecDeque<Frame>,
    /// Bytes currently buffered (queue + in-flight frame).
    buffered: DataSize,
    /// Buffer capacity; arrivals beyond it are dropped (drop-tail).
    capacity: DataSize,
    /// Whether a frame is currently serializing.
    busy: bool,
    /// Frames dropped due to a full buffer.
    drops: u64,
    /// Frames fully transmitted.
    sent: u64,
    /// Optional fault model consulted per frame (None = pristine link).
    impair: Option<Impairment>,
    /// Optional stats scope: when set, the port publishes conservation
    /// counters (`frames_offered` = `frames_delivered` + `queue_drops` +
    /// `impair_drops`) into the registry so an external auditor can
    /// check them. `None` on the happy path — no per-frame stats cost.
    stats: Option<PortStats>,
}

/// A labelled port's stats scope and its per-frame counter handles.
struct PortStats {
    label: String,
    offered: CounterHandle,
    delivered: CounterHandle,
}

impl EgressPort {
    /// Create a port. `own_port` tags [`PortTxDone`] events; `peer_port`
    /// tags [`FrameArrival`] events at the far end.
    pub fn new(
        rate: Bandwidth,
        prop_delay: SimDuration,
        capacity: DataSize,
        peer: ComponentId,
        peer_port: usize,
        own_port: usize,
    ) -> EgressPort {
        EgressPort {
            rate,
            prop_delay,
            peer,
            peer_port,
            own_port,
            queue: VecDeque::new(),
            buffered: DataSize::ZERO,
            capacity,
            busy: false,
            drops: 0,
            sent: 0,
            impair: None,
            stats: None,
        }
    }

    /// Publish conservation counters for this port under `label`.
    pub fn set_stats_label(&mut self, label: impl Into<String>) {
        self.stats = Some(PortStats {
            label: label.into(),
            offered: CounterHandle::default(),
            delivered: CounterHandle::default(),
        });
    }

    /// Attach a fault model; every subsequent frame is judged by it.
    pub fn set_impairment(&mut self, imp: Impairment) {
        self.impair = Some(imp);
    }

    /// The attached fault model, if any (for reading counters).
    pub fn impairment(&self) -> Option<&Impairment> {
        self.impair.as_ref()
    }

    /// Enqueue a frame for transmission. Returns `false` (and counts a
    /// drop) if the buffer cannot hold it.
    pub fn enqueue<M: NetCarrier>(&mut self, frame: Frame, ctx: &mut Ctx<'_, M>) -> bool {
        let size = frame.buffer_size();
        if let Some(st) = &mut self.stats {
            ctx.stats()
                .counter_by(&mut st.offered, &st.label, "frames_offered")
                .inc();
        }
        let capacity = self
            .impair
            .as_ref()
            .and_then(|i| i.capacity_override(ctx.now()))
            .map_or(self.capacity, |cap| cap.min(self.capacity));
        if self.buffered + size > capacity {
            self.drops += 1;
            if let Some(st) = &self.stats {
                ctx.stats().counter(&st.label, "queue_drops").inc();
            }
            return false;
        }
        self.buffered += size;
        self.queue.push_back(frame);
        if !self.busy {
            self.start_next(ctx);
        }
        true
    }

    /// Owner callback for [`PortTxDone`]: the in-flight frame has left;
    /// start the next if any.
    pub fn tx_done<M: NetCarrier>(&mut self, ctx: &mut Ctx<'_, M>) {
        debug_assert!(self.busy, "tx_done on idle port");
        self.busy = false;
        if !self.queue.is_empty() {
            self.start_next(ctx);
        }
    }

    fn start_next<M: NetCarrier>(&mut self, ctx: &mut Ctx<'_, M>) {
        let mut frame = self.queue.pop_front().expect("start_next on empty queue");
        self.busy = true;
        self.buffered = self.buffered.saturating_sub(frame.buffer_size());
        let ser = self.rate.transfer_time(frame.wire_size());
        let done = PortTxDone {
            port: self.own_port,
        };
        ctx.self_in(ser, M::from(NetMsg::TxDone(done)));
        // The sender always pays full serialization time; the fault model
        // only decides what happens to the bits after they leave.
        let mut extra = SimDuration::ZERO;
        if let Some(imp) = self.impair.as_mut() {
            match imp.judge(ctx.now()) {
                Verdict::Drop => {
                    if let Some(st) = &self.stats {
                        ctx.stats().counter(&st.label, "impair_drops").inc();
                    }
                    return;
                }
                // COW: a flip in the payload detaches a private copy of
                // it here, so corruption on this link never leaks into
                // switch fan-out replicas or the sender's retained data.
                Verdict::Corrupt => imp.corrupt(&mut frame),
                Verdict::Delay(d) => extra = d,
                Verdict::Deliver => {}
            }
        }
        self.sent += 1;
        if let Some(st) = &mut self.stats {
            ctx.stats()
                .counter_by(&mut st.delivered, &st.label, "frames_delivered")
                .inc();
        }
        let arrival = FrameArrival {
            port: self.peer_port,
            frame,
        };
        ctx.send_in(
            ser + self.prop_delay + extra,
            self.peer,
            M::from(NetMsg::Arrival(arrival)),
        );
    }

    /// Bytes currently buffered awaiting serialization.
    pub fn buffered(&self) -> DataSize {
        self.buffered
    }

    /// Frames dropped so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Frames fully transmitted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Whether a frame is serializing right now.
    pub fn is_busy(&self) -> bool {
        self.busy
    }

    /// Line rate of this port.
    pub fn rate(&self) -> Bandwidth {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{EtherType, MacAddr};
    use acc_sim::{Component, SimTime, Simulation};
    use std::any::Any;

    /// Test sender: owns one EgressPort, sends `n` frames at t=0.
    struct Sender {
        port: Option<EgressPort>,
        to_send: Vec<Frame>,
    }

    impl Component for Sender {
        fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
            let port = self
                .port
                .as_mut()
                .expect("sender: egress port never installed before first event");
            if ev.downcast_ref::<PortTxDone>().is_some() {
                port.tx_done(ctx);
            } else if ev.downcast_ref::<()>().is_some() {
                for f in self.to_send.drain(..) {
                    port.enqueue(f, ctx);
                }
            } else {
                panic!("unexpected event");
            }
        }
        fn name(&self) -> &str {
            "sender"
        }
    }

    /// Test receiver: records arrival times and payload sizes.
    struct Receiver {
        arrivals: Vec<(SimTime, usize, usize)>,
    }

    impl Component for Receiver {
        fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
            let arr = ev
                .downcast::<FrameArrival>()
                .expect("receiver wants frames");
            self.arrivals
                .push((ctx.now(), arr.port, arr.frame.payload.len()));
        }
        fn name(&self) -> &str {
            "receiver"
        }
    }

    fn frame(n: usize) -> Frame {
        Frame::new(
            MacAddr::for_node(0, 0),
            MacAddr::for_node(1, 0),
            EtherType::Other(0),
            vec![7u8; n],
        )
    }

    fn build(n_frames: usize, capacity: DataSize) -> (Simulation, acc_sim::ComponentId) {
        let mut sim = Simulation::new(0);
        let tx = sim.reserve_id();
        let rx = sim.add(Receiver { arrivals: vec![] });
        let port = EgressPort::new(
            Bandwidth::from_mbit_per_sec(1000),
            SimDuration::from_nanos(500),
            capacity,
            rx,
            3,
            0,
        );
        sim.register(
            tx,
            Sender {
                port: Some(port),
                to_send: (0..n_frames).map(|_| frame(1024)).collect(),
            },
        );
        sim.schedule_at(SimTime::ZERO, tx, ());
        (sim, rx)
    }

    #[test]
    fn frames_serialize_back_to_back() {
        let (mut sim, rx) = build(3, DataSize::from_kib(64));
        sim.run();
        let arr = &sim.component::<Receiver>(rx).arrivals;
        assert_eq!(arr.len(), 3);
        // 1024B payload → 1062B wire → 8.496µs at 1 Gb/s; +500ns prop.
        let ser = 8496u64; // ns
        assert_eq!(arr[0].0.as_nanos(), ser + 500);
        assert_eq!(arr[1].0.as_nanos(), 2 * ser + 500);
        assert_eq!(arr[2].0.as_nanos(), 3 * ser + 500);
        assert!(arr.iter().all(|&(_, p, len)| p == 3 && len == 1024));
    }

    #[test]
    fn drop_tail_when_buffer_full() {
        // Capacity for ~2 frames (1042 buffered bytes each).
        let (mut sim, rx) = build(10, DataSize::from_bytes(2200));
        sim.run();
        let delivered = sim.component::<Receiver>(rx).arrivals.len();
        // First frame starts serializing immediately (leaves the buffer),
        // then 2 more fit; subsequent are dropped.
        assert!((2..10).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn port_counters_track_activity() {
        let (mut sim, _) = build(5, DataSize::from_kib(64));
        let tx = acc_sim::ComponentId::from_raw(0);
        sim.run();
        let sender = sim.component::<Sender>(tx);
        let port = sender.port.as_ref().unwrap();
        assert_eq!(port.sent(), 5);
        assert_eq!(port.drops(), 0);
        assert!(!port.is_busy());
        assert_eq!(port.buffered(), DataSize::ZERO);
    }
}
