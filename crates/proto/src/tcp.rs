//! A TCP-like reliable byte stream coupled to the commodity host model.
//!
//! One [`TcpHostNic`] component per node models the NIC hardware, the
//! kernel TCP/IP stack, and their costs:
//!
//! * **Congestion control** (RFC 2581-era): slow start from a 2-MSS
//!   initial window, congestion avoidance above `ssthresh`, ×2 RTO
//!   backoff with a 200 ms floor (Linux 2.4), fast retransmit on three
//!   duplicate ACKs, and **slow-start restart after idle** — the paper's
//!   short-message pathology needs it: every transpose step's burst
//!   starts from a cold window.
//! * **Interrupt moderation**: received frames sit in the NIC ring until
//!   the [`InterruptModerator`] fires (count threshold or timeout); the
//!   ACK clock therefore runs late by the coalescing delay, which is
//!   what makes slow start so expensive for short transfers
//!   (Section 4.1).
//! * **Host datapath costs**: transmit DMA is paced by the effective
//!   PCI/driver rate with a fixed per-segment cost; receive service
//!   charges per-interrupt and per-segment CPU plus a per-byte copy
//!   through the kernel. These cap bulk TCP goodput near the
//!   ~45–55 MB/s a 2001 Athlon/SysKonnect pair actually achieved.
//!
//! The byte stream is real: applications hand `Vec<u8>` in and receive
//! the identical bytes in order on the far side, which the property
//! tests verify under loss and reordering. A sent message is wrapped
//! once in a shared [`PayloadView`]; its in-flight segments (kept for
//! retransmission), the frames that carry them (header inline, data a
//! view) and the receiver's out-of-order queue all hold sub-views, so the
//! bytes are copied only on delivery, into the in-order buffer handed
//! to the application (and once more for the rare segment that spans
//! two queued messages).

use std::collections::{BTreeMap, VecDeque};

use acc_net::port::EgressPort;
use acc_net::{EtherType, Frame, FrameHeader, MacAddr, NetMsg, PayloadView};
use acc_sim::{
    unknown_event, Bandwidth, Component, ComponentId, Ctx, DataSize, SimDuration, SimTime,
};

use acc_host::interrupts::{InterruptCosts, InterruptModerator, ModerationPolicy, ModeratorAction};

use crate::checksum::wire_checksum;
use crate::msg::{ProtoCarrier, ProtoMsg};

/// IP (20) + TCP (20) header bytes per segment.
pub const IP_TCP_HEADER: usize = 40;

/// Maximum segment size on standard Ethernet.
pub const MSS: usize = 1460;

/// TCP tunables (2001 Linux 2.4 defaults unless noted).
#[derive(Clone, Copy, Debug)]
pub struct TcpParams {
    /// Initial congestion window, in segments.
    pub initial_cwnd_segments: u32,
    /// Initial slow-start threshold, bytes.
    pub initial_ssthresh: u32,
    /// Receive window advertised (no window scaling): 64 KiB − 1.
    pub rwnd: u32,
    /// Minimum retransmission timeout.
    pub min_rto: SimDuration,
    /// RTO before any RTT sample exists.
    pub initial_rto: SimDuration,
}

impl Default for TcpParams {
    fn default() -> Self {
        TcpParams {
            initial_cwnd_segments: 2,
            initial_ssthresh: 64 * 1024,
            rwnd: 65_535,
            min_rto: SimDuration::from_millis(200),
            initial_rto: SimDuration::from_millis(1000),
        }
    }
}

/// Host datapath costs on the TCP path (everything the INIC bypasses).
#[derive(Clone, Copy, Debug)]
pub struct HostPathCosts {
    /// Per-segment transmit cost (syscall amortisation, descriptor setup,
    /// doorbell).
    pub per_segment_tx: SimDuration,
    /// Effective streaming rate host-memory→NIC across PCI (DMA and
    /// driver efficiency folded in).
    pub tx_stream_rate: Bandwidth,
    /// Effective per-byte receive cost: PCI crossing + kernel copies to
    /// user space, expressed as a rate.
    pub rx_copy_rate: Bandwidth,
}

impl HostPathCosts {
    /// Calibration for the testbed: the transmit path (socket copy +
    /// descriptor work + 32-bit PCI crossing shared with everything
    /// else) sustains ~60 MiB/s; the receive path (PCI + two kernel
    /// copies on a 400 MiB/s memory system) ~50 MiB/s; 5 µs fixed per
    /// segment. End-to-end this lands bulk TCP goodput near the
    /// ~35–40 MB/s a well-tuned SysKonnect/Athlon pair measured in
    /// 2001.
    pub fn athlon_pci() -> HostPathCosts {
        HostPathCosts {
            per_segment_tx: SimDuration::from_micros(5),
            tx_stream_rate: Bandwidth::from_mib_per_sec(60),
            rx_copy_rate: Bandwidth::from_mib_per_sec(50),
        }
    }
}

/// Application request: send `data` reliably to `peer` on channel `chan`.
#[derive(Debug)]
pub struct TcpSend {
    /// Destination node's MAC.
    pub peer: MacAddr,
    /// Flow id multiplexing several streams per node pair.
    pub chan: u16,
    /// Bytes to deliver.
    pub data: Vec<u8>,
}

/// Delivered in-order bytes, sent to the application component.
#[derive(Debug)]
pub struct TcpDelivered {
    /// Sending node's MAC.
    pub peer: MacAddr,
    /// Flow id.
    pub chan: u16,
    /// In-order payload (concatenation of one interrupt batch's worth).
    pub data: Vec<u8>,
}

/// Wire header our segments carry inside the 40-byte IP+TCP space.
#[derive(Clone, Copy, Debug)]
struct SegHeader {
    chan: u16,
    seq: u64,
    ack: u64,
    has_data: bool,
    window: u32,
}

impl SegHeader {
    /// Serialize the 40-byte header a frame carries inline in front of
    /// `data`. The checksum at `[23..27)` is [`wire_checksum`] over the
    /// populated header bytes `[0..23)` plus the data — it stands in
    /// for the real TCP checksum within the modelled 40-byte header, and
    /// changes under any single-byte mutation of what it covers.
    fn encode(&self, data: &[u8]) -> FrameHeader {
        let mut out = [0u8; IP_TCP_HEADER];
        out[0..2].copy_from_slice(&self.chan.to_le_bytes());
        out[2..10].copy_from_slice(&self.seq.to_le_bytes());
        out[10..18].copy_from_slice(&self.ack.to_le_bytes());
        out[18] = u8::from(self.has_data);
        out[19..23].copy_from_slice(&self.window.to_le_bytes());
        let sum = wire_checksum(&out[0..23], data);
        out[23..27].copy_from_slice(&sum.to_le_bytes());
        FrameHeader::new(&out)
    }

    /// Parse a segment from a frame's `header` and the `body` after it;
    /// `None` means the segment is malformed and must be discarded —
    /// the header has the wrong length, the checksum failed (corruption
    /// on the wire) or the reserved padding carries nonzero bytes — and
    /// the normal TCP loss recovery then repairs the stream. The data is
    /// `body` itself (a refcount bump): no copy.
    fn decode(header: &[u8], body: &PayloadView) -> Option<(SegHeader, PayloadView)> {
        if header.len() != IP_TCP_HEADER {
            return None;
        }
        // The encoder always zeroes the reserved tail of the modelled
        // 40-byte header. The checksum deliberately skips it, so without
        // this check corrupted-but-accepted segments could differ on the
        // wire yet decode identically — a hole both the corruption
        // property tests and real middlebox behaviour care about.
        // acc-lint: allow(R8, reason = "reserved padding 27..40: the encoder zero-fills it implicitly (zeroed header array), and decode reads it only to reject nonzero bytes, never into a field")
        if header[27..IP_TCP_HEADER].iter().any(|&b| b != 0) {
            return None;
        }
        let want = u32::from_le_bytes(
            header[23..27]
                .try_into()
                .expect("tcp header checksum slice is 4 bytes"),
        );
        if wire_checksum(&header[0..23], body) != want {
            return None;
        }
        let h = SegHeader {
            chan: u16::from_le_bytes(header[0..2].try_into().expect("tcp chan slice is 2 bytes")),
            seq: u64::from_le_bytes(header[2..10].try_into().expect("tcp seq slice is 8 bytes")),
            ack: u64::from_le_bytes(header[10..18].try_into().expect("tcp ack slice is 8 bytes")),
            has_data: header[18] != 0,
            window: u32::from_le_bytes(
                header[19..23]
                    .try_into()
                    .expect("tcp window slice is 4 bytes"),
            ),
        };
        Some((h, body.clone()))
    }
}

/// Flow identity: (peer node, channel). `Ord` because flows are keyed
/// in ordered maps: iteration must be deterministic (lint rule R1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct FlowKey {
    peer: MacAddr,
    chan: u16,
}

/// Effective send window in whole bytes: cwnd (which grows fractionally
/// during congestion avoidance) capped by the peer's advertised window.
fn effective_window(cwnd: f64, peer_window: u32) -> usize {
    let w = cwnd.min(f64::from(peer_window)).max(0.0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    // acc-lint: allow(R3, reason = "congestion-window floor: intentional f64 -> bytes truncation, non-negative and bounded by the 64 KiB advertised window")
    let bytes = w as usize;
    bytes
}

/// A segment in flight: its bytes (a view of the sent message, re-sent
/// as is on retransmission) and its send state, like the card's
/// `tx_window` entries.
struct SentSeg {
    data: PayloadView,
    sent_at: SimTime,
    retransmitted: bool,
}

/// Per-connection TCP state (both directions).
struct TcpConn {
    // --- send side ---
    /// Unsent bytes: the unsent tails of the application's messages, in
    /// order.
    // acc-lint: allow(R9, reason = "send staging drained at MSS per window grant; the lockstep drivers offer one round's legs at a time, so occupancy is bounded by the per-round send volume")
    send_buf: VecDeque<PayloadView>,
    /// Total bytes in `send_buf`.
    unsent: usize,
    snd_una: u64,
    snd_nxt: u64,
    inflight: BTreeMap<u64, SentSeg>,
    /// Total bytes of the segments in `inflight`.
    flight: usize,
    cwnd: f64,
    ssthresh: f64,
    peer_window: u32,
    dup_acks: u32,
    recovery_until: u64,
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    rto_generation: u64,
    rto_armed: bool,
    last_activity: SimTime,
    // --- receive side ---
    rcv_nxt: u64,
    ooo: BTreeMap<u64, PayloadView>,
    segs_since_ack: u32,
    // --- stats ---
    retransmits: u64,
    rto_fires: u64,
}

impl TcpConn {
    fn new(p: &TcpParams, now: SimTime) -> TcpConn {
        TcpConn {
            send_buf: VecDeque::new(),
            unsent: 0,
            snd_una: 0,
            snd_nxt: 0,
            inflight: BTreeMap::new(),
            flight: 0,
            cwnd: f64::from(p.initial_cwnd_segments) * MSS as f64,
            ssthresh: f64::from(p.initial_ssthresh),
            peer_window: p.rwnd,
            dup_acks: 0,
            recovery_until: 0,
            srtt: None,
            rttvar: 0.0,
            rto: p.initial_rto,
            rto_generation: 0,
            rto_armed: false,
            last_activity: now,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            segs_since_ack: 0,
            retransmits: 0,
            rto_fires: 0,
        }
    }

    fn flight_size(&self) -> usize {
        debug_assert_eq!(
            self.flight,
            self.inflight.values().map(|s| s.data.len()).sum::<usize>(),
            "running flight size drifted from the in-flight map"
        );
        self.flight
    }

    /// Queue an application message behind the unsent bytes.
    fn queue(&mut self, data: PayloadView) {
        if !data.is_empty() {
            self.unsent += data.len();
            self.send_buf.push_back(data);
        }
    }

    /// Cut the next `take` (≤ `unsent`) bytes off the send queue. A
    /// segment within one message is a sub-view of it; one spanning two
    /// queued messages is copied into a buffer of its own.
    fn cut_segment(&mut self, take: usize) -> PayloadView {
        self.unsent -= take;
        let front = self
            .send_buf
            .front_mut()
            .expect("segment within the unsent bytes");
        if front.len() > take {
            let seg = front.subview(0, take);
            *front = front.subview(take, front.len());
            return seg;
        }
        if front.len() == take {
            return self.send_buf.pop_front().expect("front exists");
        }
        let mut bytes = Vec::with_capacity(take);
        while bytes.len() < take {
            let front = self
                .send_buf
                .front_mut()
                .expect("segment within the unsent bytes");
            let n = (take - bytes.len()).min(front.len());
            // acc-lint: allow(R7, reason = "a segment spanning two queued messages needs one buffer of its own; a segment within one message stays a view")
            bytes.extend_from_slice(&front[..n]);
            if n == front.len() {
                self.send_buf.pop_front();
            } else {
                *front = front.subview(n, front.len());
            }
        }
        PayloadView::new(bytes)
    }

    fn add_inflight(&mut self, seq: u64, seg: SentSeg) {
        self.flight += seg.data.len();
        self.inflight.insert(seq, seg);
    }

    /// Remove and return the oldest in-flight segment if `ack` covers
    /// all of it.
    fn pop_acked(&mut self, ack: u64) -> Option<SentSeg> {
        let oldest = self.inflight.first_entry()?;
        if *oldest.key() + oldest.get().data.len() as u64 > ack {
            return None;
        }
        let seg = oldest.remove();
        self.flight -= seg.data.len();
        Some(seg)
    }
}

// --- internal events ---

/// A TCP NIC's own event: a timer, a paced launch or an interrupt
/// service completing.
pub struct NicEvent(Own);

/// What a [`NicEvent`] holds.
enum Own {
    Mod(ModTimer),
    Rto(RtoTimer),
    Service(ServiceBatch),
    Launch(TxLaunch),
}

/// Wrap one of the NIC's own events for the carrier.
fn own<M: ProtoCarrier>(ev: Own) -> M {
    M::from(ProtoMsg::Nic(NicEvent(ev)))
}

/// Interrupt-moderation timer.
struct ModTimer {
    generation: u64,
}

/// Retransmission timer for one flow.
struct RtoTimer {
    key: FlowKey,
    generation: u64,
}

/// Interrupt service completed; process this ring batch.
struct ServiceBatch {
    frames: Vec<Frame>,
}

/// Paced transmit: this frame's DMA across PCI has completed.
struct TxLaunch {
    frame: Frame,
}

/// The per-node NIC + kernel TCP stack component.
pub struct TcpHostNic {
    label: String,
    mac: MacAddr,
    /// Application component receiving [`TcpDelivered`].
    app: ComponentId,
    uplink: EgressPort,
    params: TcpParams,
    path: HostPathCosts,
    costs: InterruptCosts,
    moderator: InterruptModerator,
    conns: BTreeMap<FlowKey, TcpConn>,
    /// Frames received but not yet serviced by an interrupt.
    rx_ring: Vec<Frame>,
    /// Whether an interrupt is currently being serviced (batch queued).
    servicing: bool,
    /// Time the transmit DMA engine frees up.
    tx_free_at: SimTime,
    /// Total CPU time charged to TCP processing (for reports).
    cpu_time: SimDuration,
    bytes_delivered_total: u64,
}

impl TcpHostNic {
    /// Build the stack. `uplink` must already be wired to the switch.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        label: impl Into<String>,
        mac: MacAddr,
        app: ComponentId,
        uplink: EgressPort,
        params: TcpParams,
        path: HostPathCosts,
        costs: InterruptCosts,
        policy: ModerationPolicy,
    ) -> TcpHostNic {
        TcpHostNic {
            label: label.into(),
            mac,
            app,
            uplink,
            params,
            path,
            costs,
            moderator: InterruptModerator::new(policy),
            conns: BTreeMap::new(),
            rx_ring: Vec::new(),
            servicing: false,
            tx_free_at: SimTime::ZERO,
            cpu_time: SimDuration::ZERO,
            bytes_delivered_total: 0,
        }
    }

    /// Total bytes delivered in order to the application.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered_total
    }

    /// Total retransmitted segments across flows.
    pub fn retransmits(&self) -> u64 {
        self.conns.values().map(|c| c.retransmits).sum()
    }

    /// Total RTO expirations across flows.
    pub fn rto_fires(&self) -> u64 {
        self.conns.values().map(|c| c.rto_fires).sum()
    }

    /// (frames seen, interrupts raised) on the receive path.
    pub fn interrupt_totals(&self) -> (u64, u64) {
        self.moderator.totals()
    }

    /// CPU time consumed by protocol processing.
    pub fn cpu_time(&self) -> SimDuration {
        self.cpu_time
    }

    /// The NIC-side egress port (frame counters and impairment state,
    /// for accounting checks and reports).
    pub fn uplink(&self) -> &EgressPort {
        &self.uplink
    }

    fn conn_mut(&mut self, key: FlowKey, now: SimTime) -> &mut TcpConn {
        let params = self.params;
        self.conns
            .entry(key)
            .or_insert_with(|| TcpConn::new(&params, now))
    }

    // ---- transmit path ----

    fn on_app_send<M: ProtoCarrier>(&mut self, send: TcpSend, ctx: &mut Ctx<'_, M>) {
        let key = FlowKey {
            peer: send.peer,
            chan: send.chan,
        };
        let params = self.params;
        let now = ctx.now();
        let conn = self.conn_mut(key, now);
        // Slow-start restart after idle (RFC 2581 §4.1): if the
        // connection has been quiet for an RTO, collapse cwnd back to the
        // initial window.
        if conn.inflight.is_empty() && now.saturating_since(conn.last_activity) > conn.rto {
            conn.cwnd = f64::from(params.initial_cwnd_segments) * MSS as f64;
        }
        conn.queue(PayloadView::new(send.data));
        self.pump(key, ctx);
    }

    /// Send as much of the flow's buffered data as cwnd/rwnd allow.
    fn pump<M: ProtoCarrier>(&mut self, key: FlowKey, ctx: &mut Ctx<'_, M>) {
        let now = ctx.now();
        loop {
            let (seq, data) = {
                let conn = self.conns.get_mut(&key).expect("pump on missing conn");
                let take = conn.unsent.min(MSS);
                if take == 0 {
                    break;
                }
                // Effective window; never below one MSS so a tiny cwnd
                // cannot deadlock the flow.
                let window = effective_window(conn.cwnd, conn.peer_window).max(MSS);
                let flight = conn.flight_size();
                if flight > 0 && flight + take > window {
                    break;
                }
                let data = conn.cut_segment(take);
                let seq = conn.snd_nxt;
                conn.snd_nxt += take as u64;
                conn.add_inflight(
                    seq,
                    SentSeg {
                        data: PayloadView::clone(&data),
                        sent_at: now,
                        retransmitted: false,
                    },
                );
                conn.last_activity = now;
                (seq, data)
            };
            self.arm_rto(key, ctx);
            self.transmit_segment(key, seq, &data, false, ctx);
        }
    }

    /// Build and pace one segment onto the wire (data or pure ACK).
    /// The frame carries the header inline and `data` as a view: no
    /// payload copy.
    fn transmit_segment<M: ProtoCarrier>(
        &mut self,
        key: FlowKey,
        seq: u64,
        data: &PayloadView,
        ack_only: bool,
        ctx: &mut Ctx<'_, M>,
    ) {
        let conn = self.conns.get_mut(&key).expect("transmit on missing conn");
        let header = SegHeader {
            chan: key.chan,
            seq,
            ack: conn.rcv_nxt,
            has_data: !ack_only,
            window: self.params.rwnd,
        };
        conn.segs_since_ack = 0;
        let frame = Frame::try_with_header(
            self.mac,
            key.peer,
            EtherType::Ipv4,
            header.encode(data),
            PayloadView::clone(data),
        )
        .unwrap_or_else(|e| panic!("{}: segment exceeds MTU ({e})", self.label));
        // Pace by the host TX path: fixed per-segment cost plus PCI
        // streaming time, serialized through one DMA engine.
        let dma = self.path.per_segment_tx
            + self
                .path
                .tx_stream_rate
                .transfer_time(DataSize::from_bytes(frame.len() as u64));
        let start = self.tx_free_at.max(ctx.now());
        self.tx_free_at = start + dma;
        let delay = self.tx_free_at.since(ctx.now());
        ctx.self_in(delay, own::<M>(Own::Launch(TxLaunch { frame })));
    }

    fn arm_rto<M: ProtoCarrier>(&mut self, key: FlowKey, ctx: &mut Ctx<'_, M>) {
        let conn = self.conns.get_mut(&key).expect("arm_rto on missing conn");
        if conn.rto_armed || conn.inflight.is_empty() {
            return;
        }
        conn.rto_armed = true;
        conn.rto_generation += 1;
        let generation = conn.rto_generation;
        let delay = conn.rto;
        let timer = RtoTimer { key, generation };
        ctx.self_in(delay, own::<M>(Own::Rto(timer)));
    }

    fn on_rto<M: ProtoCarrier>(&mut self, key: FlowKey, generation: u64, ctx: &mut Ctx<'_, M>) {
        let conn = self.conns.get_mut(&key).expect("rto on missing conn");
        conn.rto_armed = false;
        if generation != conn.rto_generation || conn.inflight.is_empty() {
            return;
        }
        conn.rto_fires += 1;
        // Multiplicative backoff, collapse to one-segment slow start.
        let flight = conn.flight_size() as f64;
        conn.ssthresh = (flight / 2.0).max(2.0 * MSS as f64);
        conn.cwnd = MSS as f64;
        conn.rto = SimDuration::from_secs_f64((conn.rto.as_secs_f64() * 2.0).min(60.0));
        conn.dup_acks = 0;
        self.arm_rto(key, ctx);
        self.retransmit_head(key, "rto_retransmits", ctx);
    }

    /// The one repair path, for RTO expiry and fast retransmit alike:
    /// re-send the flow's oldest segment as first sent, marked so that
    /// it yields no RTT sample, and bump `counter`.
    fn retransmit_head<M: ProtoCarrier>(
        &mut self,
        key: FlowKey,
        counter: &str,
        ctx: &mut Ctx<'_, M>,
    ) {
        let conn = self.conns.get_mut(&key).expect("retx on missing conn");
        let (&seq, seg) = conn.inflight.iter_mut().next().expect("data in flight");
        seg.retransmitted = true;
        seg.sent_at = ctx.now();
        let data = PayloadView::clone(&seg.data);
        conn.retransmits += 1;
        self.transmit_segment(key, seq, &data, false, ctx);
        ctx.stats().counter(&self.label, counter).inc();
    }

    // ---- receive path ----

    fn on_frame<M: ProtoCarrier>(&mut self, frame: Frame, ctx: &mut Ctx<'_, M>) {
        self.rx_ring.push(frame);
        match self.moderator.on_frame() {
            ModeratorAction::FireNow => self.raise_interrupt(ctx),
            ModeratorAction::ArmTimer(d) => {
                let generation = self.moderator.timer_generation();
                ctx.self_in(d, own::<M>(Own::Mod(ModTimer { generation })));
            }
            ModeratorAction::None => {}
        }
    }

    fn on_mod_timer<M: ProtoCarrier>(&mut self, generation: u64, ctx: &mut Ctx<'_, M>) {
        if let ModeratorAction::FireNow = self.moderator.on_timer(generation) {
            self.raise_interrupt(ctx);
        }
    }

    fn raise_interrupt<M: ProtoCarrier>(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.servicing {
            // Interrupt while the previous batch is still being serviced:
            // frames stay in the ring; the service loop re-checks.
            return;
        }
        let n = self.moderator.service();
        debug_assert_eq!(
            usize::try_from(n).expect("tcp rx batch count fits usize"),
            self.rx_ring.len()
        );
        let frames = std::mem::take(&mut self.rx_ring);
        let bytes: u64 = frames.iter().map(|f| f.len() as u64).sum();
        let service = self.costs.service_time(n)
            + self
                .path
                .rx_copy_rate
                .transfer_time(DataSize::from_bytes(bytes));
        self.cpu_time += service;
        self.servicing = true;
        ctx.self_in(service, own::<M>(Own::Service(ServiceBatch { frames })));
    }

    /// Debug-build guard for lint rule R1: the flow table must iterate
    /// in sorted key order. Trivially true for `BTreeMap`; fails loudly
    /// in tests if the connection table ever regresses to an unordered
    /// map, instead of silently reordering frames between runs.
    fn debug_assert_flow_order(&self) {
        debug_assert!(
            self.conns.keys().is_sorted(),
            "{}: TCP flow-table iteration is not in sorted key order — \
             campaign replay would reorder frames nondeterministically",
            self.label
        );
    }

    fn on_service_batch<M: ProtoCarrier>(&mut self, frames: Vec<Frame>, ctx: &mut Ctx<'_, M>) {
        self.servicing = false;
        self.debug_assert_flow_order();
        // Per-flow in-order data accumulated over the batch, as views of
        // the received frames; copied once, into one buffer per flow, at
        // the end of the batch.
        let mut delivered: Vec<(FlowKey, Vec<PayloadView>)> = Vec::new();
        let mut acks_to_send: Vec<FlowKey> = Vec::new();
        let mut pump_flows: Vec<FlowKey> = Vec::new();
        for frame in frames {
            let Some((h, data)) = SegHeader::decode(&frame.header, &frame.payload) else {
                // Corrupted on the wire: drop silently and let the
                // sender's RTO / fast-retransmit machinery recover.
                ctx.stats().counter(&self.label, "rx_checksum_drops").inc();
                continue;
            };
            let key = FlowKey {
                peer: frame.src,
                chan: h.chan,
            };
            let now = ctx.now();
            // --- data processing ---
            if h.has_data && !data.is_empty() {
                let conn = self.conn_mut(key, now);
                let seq = h.seq;
                let end = seq + data.len() as u64;
                if end <= conn.rcv_nxt {
                    // Old duplicate: re-ACK immediately.
                    if !acks_to_send.contains(&key) {
                        acks_to_send.push(key);
                    }
                } else if seq <= conn.rcv_nxt {
                    // In-order (possibly partly duplicate).
                    let skip = usize::try_from(conn.rcv_nxt - seq)
                        .expect("tcp in-order overlap fits usize");
                    let avail = match delivered.iter().position(|(k, _)| *k == key) {
                        Some(i) => &mut delivered[i].1,
                        None => {
                            delivered.push((key, Vec::new()));
                            &mut delivered.last_mut().expect("just pushed").1
                        }
                    };
                    avail.push(data.subview(skip, data.len()));
                    conn.rcv_nxt = end;
                    // Drain contiguous out-of-order queue.
                    while let Some((&s, _)) = conn.ooo.iter().next() {
                        if s > conn.rcv_nxt {
                            break;
                        }
                        let (s, seg) = conn.ooo.pop_first().expect("peeked");
                        let seg_end = s + seg.len() as u64;
                        if seg_end > conn.rcv_nxt {
                            let skip = usize::try_from(conn.rcv_nxt - s)
                                .expect("tcp out-of-order overlap fits usize");
                            avail.push(seg.subview(skip, seg.len()));
                            conn.rcv_nxt = seg_end;
                        }
                    }
                    conn.segs_since_ack += 1;
                    let ack_now = conn.segs_since_ack >= 2 || !conn.ooo.is_empty();
                    if ack_now && !acks_to_send.contains(&key) {
                        acks_to_send.push(key);
                    }
                } else {
                    // Out of order: hold and send an immediate dup-ACK.
                    conn.ooo.entry(seq).or_insert(data);
                    if !acks_to_send.contains(&key) {
                        acks_to_send.push(key);
                    }
                }
            }
            // --- ACK processing ---
            self.process_ack(key, h.ack, h.window, h.has_data, &mut pump_flows, ctx);
        }
        // Flush pending ACKs for flows that got data but under the
        // delayed-ACK threshold: the batch is done, don't sit on them
        // (moderation has already batched the wire traffic).
        for (key, _) in &delivered {
            if !acks_to_send.contains(key) {
                let conn = self.conns.get(key).expect("delivered flow exists");
                if conn.segs_since_ack > 0 {
                    acks_to_send.push(*key);
                }
            }
        }
        for key in acks_to_send {
            let seq = self.conns.get(&key).expect("ack flow").snd_nxt;
            self.transmit_segment(key, seq, &PayloadView::empty(), true, ctx);
        }
        for key in pump_flows {
            self.pump(key, ctx);
        }
        for (key, views) in delivered {
            let mut data = Vec::with_capacity(views.iter().map(|v| v.len()).sum());
            for v in &views {
                // acc-lint: allow(R7, reason = "delivery: the application receives one in-order Vec per flow and batch, the one copy of each byte on the receive side")
                data.extend_from_slice(v);
            }
            self.bytes_delivered_total += data.len() as u64;
            ctx.stats()
                .counter(&self.label, "bytes_delivered")
                .add(data.len() as u64);
            let delivered = TcpDelivered {
                peer: key.peer,
                chan: key.chan,
                data,
            };
            ctx.send_now(self.app, M::from(ProtoMsg::Delivered(delivered)));
        }
        // Frames may have arrived while we serviced: fire again.
        if self.moderator.pending() > 0 && !self.rx_ring.is_empty() {
            self.raise_interrupt(ctx);
        }
    }

    fn process_ack<M: ProtoCarrier>(
        &mut self,
        key: FlowKey,
        ack: u64,
        window: u32,
        carried_data: bool,
        pump_flows: &mut Vec<FlowKey>,
        ctx: &mut Ctx<'_, M>,
    ) {
        let now = ctx.now();
        let params = self.params;
        let conn = self.conn_mut(key, now);
        conn.peer_window = window;
        if ack > conn.snd_una {
            // New data acknowledged.
            let mut acked_bytes = 0u64;
            let mut rtt_sample: Option<f64> = None;
            let mut covers_retransmission = false;
            while let Some(seg) = conn.pop_acked(ack) {
                acked_bytes += seg.data.len() as u64;
                covers_retransmission |= seg.retransmitted;
                rtt_sample = Some(now.since(seg.sent_at).as_secs_f64());
            }
            conn.snd_una = ack;
            conn.dup_acks = 0;
            conn.last_activity = now;
            // RTT estimation (RFC 6298 structure). Karn's rule: an ACK
            // that covers a retransmitted segment is ambiguous and takes
            // no sample, so a backed-off RTO stands until an ACK covers
            // only segments sent once.
            if let Some(r) = rtt_sample.filter(|_| !covers_retransmission) {
                match conn.srtt {
                    None => {
                        conn.srtt = Some(r);
                        conn.rttvar = r / 2.0;
                    }
                    Some(srtt) => {
                        conn.rttvar = 0.75 * conn.rttvar + 0.25 * (srtt - r).abs();
                        conn.srtt = Some(0.875 * srtt + 0.125 * r);
                    }
                }
                let rto = conn.srtt.expect("set") + 4.0 * conn.rttvar;
                conn.rto = SimDuration::from_secs_f64(rto).max(params.min_rto);
            }
            // Window growth.
            if ack >= conn.recovery_until {
                if conn.cwnd < conn.ssthresh {
                    // Slow start: one MSS per ACKed segment-worth.
                    conn.cwnd += (acked_bytes as f64).min(MSS as f64);
                } else {
                    // Congestion avoidance: ~one MSS per RTT.
                    conn.cwnd += (MSS as f64) * (MSS as f64) / conn.cwnd;
                }
                conn.cwnd = conn.cwnd.min(f64::from(params.rwnd));
            }
            // Mark the pending timer stale and re-arm for the remaining
            // flight.
            conn.rto_armed = false;
            conn.rto_generation += 1;
            if !pump_flows.contains(&key) {
                pump_flows.push(key);
            }
            self.arm_rto(key, ctx);
        } else if !carried_data && ack == conn.snd_una && !conn.inflight.is_empty() {
            // Duplicate ACK.
            conn.dup_acks += 1;
            if conn.dup_acks == 3 && ack >= conn.recovery_until {
                // Fast retransmit + fast recovery entry.
                let flight = conn.flight_size() as f64;
                conn.ssthresh = (flight / 2.0).max(2.0 * MSS as f64);
                conn.cwnd = conn.ssthresh + 3.0 * MSS as f64;
                conn.recovery_until = conn.snd_nxt;
                self.retransmit_head(key, "fast_retransmits", ctx);
            }
        }
    }
}

impl<M: ProtoCarrier> Component<M> for TcpHostNic {
    fn handle(&mut self, ev: M, ctx: &mut Ctx<'_, M>) {
        let ev = match ev.into_net() {
            Ok(NetMsg::Arrival(arrival)) => return self.on_frame(arrival.frame, ctx),
            Ok(NetMsg::TxDone(_)) => return self.uplink.tx_done(ctx),
            Ok(NetMsg::Forward(_) | NetMsg::Routes(_) | NetMsg::Kill(_)) => {
                unknown_event(&self.label)
            }
            Err(ev) => ev,
        };
        let Ok(ev) = ev.into_proto() else {
            unknown_event(&self.label)
        };
        match ev {
            // The message is wrapped once; pump() cuts its segments
            // (kept in flight for retransmission) as sub-views.
            ProtoMsg::Send(send) => self.on_app_send(send, ctx),
            ProtoMsg::Nic(NicEvent(Own::Launch(launch))) => {
                let ok = self.uplink.enqueue(launch.frame, ctx);
                if !ok {
                    // NIC buffer overrun: the segment is lost locally and
                    // will be recovered by RTO, exactly like wire loss.
                    ctx.stats().counter(&self.label, "nic_tx_drops").inc();
                }
            }
            ProtoMsg::Nic(NicEvent(Own::Mod(t))) => self.on_mod_timer(t.generation, ctx),
            ProtoMsg::Nic(NicEvent(Own::Rto(t))) => self.on_rto(t.key, t.generation, ctx),
            ProtoMsg::Nic(NicEvent(Own::Service(batch))) => {
                self.on_service_batch(batch.frames, ctx)
            }
            ProtoMsg::Delivered(_) => unknown_event(&self.label),
        }
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn wait_state(&self) -> Option<String> {
        let buffered: usize = self.conns.values().map(|c| c.unsent).sum();
        let inflight: usize = self.conns.values().map(|c| c.inflight.len()).sum();
        let ooo: usize = self.conns.values().map(|c| c.ooo.len()).sum();
        if buffered == 0 && inflight == 0 && ooo == 0 && self.rx_ring.is_empty() {
            return None;
        }
        let worst_rto = self
            .conns
            .values()
            .filter(|c| c.rto_armed)
            .map(|c| c.rto)
            .max();
        let mut s = format!(
            "{} flow(s): {buffered} B unsent, {inflight} seg(s) in flight, \
             {ooo} out-of-order run(s), {} frame(s) unserviced",
            self.conns.len(),
            self.rx_ring.len(),
        );
        if let Some(rto) = worst_rto {
            s.push_str(&format!("; slowest armed RTO {rto}"));
        }
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_net::FrameArrival;
    use std::any::Any;

    /// splitmix64 — deterministic test-local byte stream generator.
    struct Gen(u64);

    impl Gen {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next_u64().to_le_bytes()[0]).collect()
        }
    }

    /// The segment as contiguous wire bytes: header, then data.
    fn wire(h: &SegHeader, data: &[u8]) -> Vec<u8> {
        [&h.encode(data)[..], data].concat()
    }

    /// Decode contiguous wire bytes, split where a frame splits them:
    /// the first [`IP_TCP_HEADER`] bytes are the header.
    fn decode(bytes: &[u8]) -> Option<(SegHeader, PayloadView)> {
        let split = bytes.len().min(IP_TCP_HEADER);
        SegHeader::decode(&bytes[..split], &PayloadView::from(&bytes[split..]))
    }

    #[test]
    fn seg_header_roundtrips() {
        let h = SegHeader {
            chan: 7,
            seq: 1 << 40,
            ack: 12345,
            has_data: true,
            window: 1 << 20,
        };
        let (back, data) = decode(&wire(&h, b"payload")).expect("clean segment decodes");
        assert_eq!(back.chan, h.chan);
        assert_eq!(back.seq, h.seq);
        assert_eq!(back.ack, h.ack);
        assert_eq!(back.has_data, h.has_data);
        assert_eq!(back.window, h.window);
        assert_eq!(&data[..], b"payload");
    }

    /// Known answer: pins the checksum the segment header carries (a
    /// change is a wire-format change).
    #[test]
    fn checksum_known_answer() {
        let h = SegHeader {
            chan: 7,
            seq: 1 << 40,
            ack: 12345,
            has_data: true,
            window: 65_535,
        };
        let data: Vec<u8> = (0..=255).collect();
        let header = h.encode(&data);
        assert_eq!(header.len(), IP_TCP_HEADER);
        let sum = u32::from_le_bytes(header[23..27].try_into().expect("4 bytes"));
        assert_eq!(sum, 0x4946_F2C5);
        let ack = h.encode(&[]);
        let sum = u32::from_le_bytes(ack[23..27].try_into().expect("4 bytes"));
        assert_eq!(sum, 0xF1D0_0D71);
    }

    /// The header encodes alone and decodes against the data view the
    /// frame carries, for every data length a segment can have.
    #[test]
    fn two_part_codec_round_trips_every_data_length() {
        let mut g = Gen(0x2_9A27);
        for len in 0..=MSS {
            let h = SegHeader {
                chan: u16::try_from(g.next_u64() >> 48).expect("16 bits"),
                seq: g.next_u64(),
                ack: g.next_u64(),
                has_data: len > 0,
                window: u32::try_from(g.next_u64() >> 32).expect("32 bits"),
            };
            let data = PayloadView::new(g.bytes(len));
            let header = h.encode(&data);
            assert_eq!(header.len(), IP_TCP_HEADER);
            let (back, body) = SegHeader::decode(&header, &data).expect("clean segment decodes");
            assert_eq!(
                (back.chan, back.seq, back.ack, back.has_data, back.window),
                (h.chan, h.seq, h.ack, h.has_data, h.window),
                "{len}-byte segment"
            );
            assert_eq!(body, data);
            assert_eq!(data.ref_count(), 2, "decode views the body, no copy");
        }
    }

    /// A header of the wrong length, or a body one byte short or long,
    /// is rejected.
    #[test]
    fn truncated_and_oversize_parts_are_rejected() {
        let h = SegHeader {
            chan: 1,
            seq: 2,
            ack: 3,
            has_data: true,
            window: 4,
        };
        let data = Gen(0x7C).bytes(MSS);
        let header = h.encode(&data);
        let body = PayloadView::new(data.clone());
        for cut in 0..IP_TCP_HEADER {
            assert!(
                SegHeader::decode(&header[..cut], &body).is_none(),
                "cut {cut}"
            );
        }
        let long_header = [&header[..], &[0]].concat();
        assert!(SegHeader::decode(&long_header, &body).is_none());
        let short = PayloadView::from(&data[..MSS - 1]);
        assert!(SegHeader::decode(&header, &short).is_none());
        let long = PayloadView::new([&data[..], &[0]].concat());
        assert!(SegHeader::decode(&header, &long).is_none());
    }

    /// Records every frame that reaches it and answers nothing: as the
    /// wire, no segment is ever acknowledged.
    struct Blackhole(Vec<Frame>);

    impl Component for Blackhole {
        fn handle(&mut self, ev: Box<dyn Any>, _ctx: &mut Ctx) {
            if let Ok(arrival) = ev.downcast::<FrameArrival>() {
                self.0.push(arrival.frame);
            }
        }
        fn name(&self) -> &str {
            "blackhole"
        }
    }

    /// The flow every test message is sent on.
    fn flow() -> FlowKey {
        FlowKey {
            peer: MacAddr::for_node(1, 0),
            chan: 3,
        }
    }

    /// A default-tuned stack whose application and wire are
    /// [`Blackhole`]s, with `data` handed to it on [`flow`] at time
    /// zero: the simulation, the stack's id and the wire's id.
    fn lone_sender(data: &[u8]) -> (acc_sim::Simulation, ComponentId, ComponentId) {
        use acc_net::{EthernetKind, LinkParams};
        let mut sim = acc_sim::Simulation::new(1);
        let link = LinkParams::for_kind(EthernetKind::Gigabit);
        let (app, nic, wire) = (sim.reserve_id(), sim.reserve_id(), sim.reserve_id());
        let uplink = EgressPort::new(
            link.rate,
            link.prop_delay,
            acc_net::presets::NIC_BUFFER,
            wire,
            0,
            0,
        );
        sim.register(
            nic,
            TcpHostNic::new(
                "tcp0",
                MacAddr::for_node(0, 0),
                app,
                uplink,
                TcpParams::default(),
                HostPathCosts::athlon_pci(),
                InterruptCosts::athlon_linux24(),
                ModerationPolicy::syskonnect_default(),
            ),
        );
        sim.register(app, Blackhole(Vec::new()));
        sim.register(wire, Blackhole(Vec::new()));
        let send = TcpSend {
            peer: flow().peer,
            chan: flow().chan,
            data: data.to_vec(),
        };
        sim.schedule_at(SimTime::ZERO, nic, send);
        (sim, nic, wire)
    }

    #[test]
    fn retransmission_resends_the_original_segment() {
        let params = TcpParams::default();
        let data = Gen(0x2E7).bytes(5 * MSS + 100);
        let (mut sim, nic, wire) = lone_sender(&data);
        // The initial window's segments leave at once; the first RTO
        // (no RTT sample yet) fires one initial_rto later.
        let before_rto = SimTime::ZERO + (params.initial_rto - SimDuration::from_millis(1));
        sim.run_until(before_rto);
        let first = sim.component::<Blackhole>(wire).0.clone();
        assert_eq!(first.len(), params.initial_cwnd_segments as usize);
        // Every in-flight segment, every frame and the unsent tail view
        // the message's one buffer.
        let tcp = sim.component::<TcpHostNic>(nic);
        let key = flow();
        let seg0 = &tcp.conns[&key].inflight[&0].data;
        assert_eq!(&seg0[..], &data[..MSS]);
        // Holders: the in-flight segments' views, the unsent tail,
        // and the frames (which carry views, not copies) on the wire and
        // in this test's clone of them.
        assert_eq!(
            seg0.ref_count(),
            3 * first.len() + 1,
            "segments and frames share the message"
        );
        sim.run_until(before_rto + SimDuration::from_millis(2));
        let frames = &sim.component::<Blackhole>(wire).0;
        assert_eq!(
            frames.len(),
            first.len() + 1,
            "exactly one RTO retransmission"
        );
        let retx = &frames[first.len()];
        assert_eq!(
            (retx.header, &retx.payload),
            (first[0].header, &first[0].payload),
            "the retransmission re-sends the original segment byte for byte"
        );
        let (h, bytes) =
            SegHeader::decode(&retx.header, &retx.payload).expect("retransmission decodes");
        assert_eq!((h.seq, h.has_data), (0, true));
        assert_eq!(&bytes[..], &data[..MSS]);
    }

    /// Karn's rule (RFC 6298 §3): an ACK that covers a retransmitted
    /// segment takes no RTT sample, even when it also covers a segment
    /// sent once, so the backed-off RTO stands.
    #[test]
    fn backed_off_rto_survives_an_ack_covering_a_retransmission() {
        let params = TcpParams::default();
        let (mut sim, nic, _) = lone_sender(&Gen(0x4A2).bytes(5 * MSS));
        let key = flow();
        // The first RTO re-sends segment 0 and doubles the timeout.
        let after_rto = SimTime::ZERO + params.initial_rto + SimDuration::from_millis(1);
        sim.run_until(after_rto);
        let backed_off = params.initial_rto * 2;
        assert_eq!(sim.component::<TcpHostNic>(nic).conns[&key].rto, backed_off);
        // The peer acknowledges both initial segments: the retransmitted
        // one and the one sent once, a second ago.
        let ack = SegHeader {
            chan: key.chan,
            seq: 0,
            ack: 2 * MSS as u64,
            has_data: false,
            window: params.rwnd,
        };
        let frame = Frame::try_with_header(
            key.peer,
            MacAddr::for_node(0, 0),
            EtherType::Ipv4,
            ack.encode(&[]),
            PayloadView::empty(),
        )
        .expect("a pure ACK fits a frame");
        sim.schedule_at(after_rto, nic, FrameArrival { port: 0, frame });
        sim.run_until(after_rto + SimDuration::from_millis(10));
        let conn = &sim.component::<TcpHostNic>(nic).conns[&key];
        assert_eq!(conn.snd_una, 2 * MSS as u64, "the ACK was processed");
        assert_eq!(conn.srtt, None, "no RTT sample from an ambiguous ACK");
        assert_eq!(conn.rto, backed_off);
    }

    /// Property: `SegHeader::decode` must never panic — any slice of
    /// bytes off the wire either decodes or returns `None`. Random
    /// garbage, truncations of valid segments, and single-byte
    /// mutations all exercise the length and checksum guards.
    #[test]
    fn decode_never_panics_on_arbitrary_bytes() {
        let mut g = Gen(0x5EC_7C9);
        for round in 0..500 {
            let len = (g.next_u64() % 200) as usize;
            let noise = g.bytes(len);
            // Must not panic; almost surely fails the checksum.
            let _ = decode(&noise);
            let _ = round;
        }
    }

    /// Property, for segments of every size up to a full MSS (a
    /// 1500-byte frame): every truncation either decodes as a shorter
    /// (corrupt) view or is rejected — never a panic or out-of-bounds
    /// read — and changing any one byte makes decode reject the segment:
    /// populated fields and data by the checksum, the checksum by
    /// itself, and the reserved padding [27..40) by the explicit
    /// must-be-zero rule (the checksum skips those bytes). Two masks per
    /// position: one bit, and a random non-zero byte.
    #[test]
    fn decode_survives_truncations_and_mutations_of_valid_segments() {
        let mut g = Gen(0xDEC0DE);
        for round in 0..24u64 {
            let len = match round {
                0 => 0,
                1 => MSS,
                _ => usize::try_from(g.next_u64() % (MSS as u64 + 1)).expect("at most MSS"),
            };
            let h = SegHeader {
                chan: u16::try_from(g.next_u64() >> 48).expect("16 bits"),
                seq: g.next_u64(),
                ack: g.next_u64(),
                has_data: len > 0,
                window: u32::try_from(g.next_u64() >> 32).expect("32 bits"),
            };
            let wire = wire(&h, &g.bytes(len));
            assert!(decode(&wire).is_some(), "clean {len}-byte segment decodes");
            for cut in 0..wire.len() {
                let _ = decode(&wire[..cut]);
            }
            for i in 0..wire.len() {
                let random = 1 + (g.next_u64() % 255) as u8;
                for mask in [0x10, random] {
                    let mut bent = wire.clone();
                    bent[i] ^= mask;
                    assert!(
                        decode(&bent).is_none(),
                        "{len}-byte segment: byte {i} ^ {mask:#x} went undetected"
                    );
                }
            }
        }
    }
}
