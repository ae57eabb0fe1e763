//! The INIC card's protocol engine.
//!
//! One [`InicCard`] per node replaces the TCP stack of the commodity
//! path. The paper draws the card datapath as protocol blocks around
//! application operators (Figs 2(b), 3(b), 7). This module is the
//! protocol blocks; the operators are methods on [`ScatterKind`] and
//! [`GatherKind`] in `datapath.rs`, and the engine keeps no per-kind
//! code. The engine owns timing, flow control (a per-destination
//! [`CREDIT_WINDOW`]), the reliability protocol (stream ACKs, gap NACKs,
//! timeout retransmission), dark windows ([`InicReconfigure`]), death
//! and recovery ([`InicKill`], [`InicRecover`]), card memory (a gather's
//! reservation is taken when it is announced and given back at
//! completion or abort), and host DMA with one completion interrupt per
//! gather — "virtual elimination of interrupts" (Section 4.1).
//!
//! The host driver (in `acc-core`) talks to it through four messages:
//!
//! * [`InicConfigure`] — load a bitstream (checked against the device's
//!   CLB capacity; the prototype *cannot* load the 128-bucket sorter).
//! * [`InicScatter`] — hand over a local partition; the card streams it
//!   host→FPGA, applies the send-side operator, packetizes and
//!   transmits each piece to its destination node as soon as one
//!   packet's worth exists — the "no computational cost for starting a
//!   send" property of Section 3.2.2.
//! * [`InicExpect`] — announce the inbound streams of an all-to-all.
//! * incoming frames — de-packetized, transformed by the receive-side
//!   operator and accumulated in INIC memory until one
//!   [`InicGatherComplete`] delivers the gather.
//!
//! Timing flows through [`EngineTimeline`]s. The ideal card
//! ([`CardPorts::ideal`]) has four independent engines (host-in/out at
//! 80 MiB/s, net-in/out at 90 MiB/s — the Eq. 6–9 rates); the prototype
//! ([`CardPorts::aceii`]) funnels all four directions through one
//! 132 MB/s timeline, reproducing the ACEII bottleneck. Both transform
//! stages stream at the bitstream's [`Bitstream::min_rate`]. Data
//! transforms are *functional*: the bytes delivered to the host are
//! checked against host-side oracles in tests.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use acc_net::port::EgressPort;
use acc_net::{EtherType, Frame, MacAddr, NetMsg, PayloadView};
use acc_proto::{InicPacket, StreamDemux, INIC_HEADER};
use acc_sim::{
    unknown_event, Bandwidth, Component, ComponentId, CounterHandle, Ctx, DataSize, SimDuration,
    SimTime,
};

use crate::datapath::{GatherKind, ScatterKind};
use crate::device::{Bitstream, ConfigError, FpgaDevice};
use crate::msg::{FpgaCarrier, FpgaMsg};
use crate::ops::OperatorKind;
use crate::timeline::EngineTimeline;

/// Minimum card→host DMA transfer "to ensure efficiency of the DMA
/// operation" (Eq. 15's 64 KiB).
pub const DMA_THRESHOLD: u64 = 65_536;

/// Per-destination flow-control window: a sender may have at most this
/// many un-credited payload bytes in flight toward one peer. With
/// P−1 ≤ 15 senders converging on one receiver, 24 KiB per sender keeps
/// the switch's 512 KiB output buffer from overflowing even under
/// pathological skew — the guarantee the paper gets from its balanced
/// schedule, generalised to unbalanced traffic. The receiver returns
/// credit in quarters of the window (`InicCard::credit_quantum`).
pub const CREDIT_WINDOW: u64 = 24 * 1024;

/// Base retransmission timeout when protocol recovery is enabled. The
/// timer only penalises a stream when no flow-control credit arrived
/// from its destination during the whole interval, so the base can be
/// generous: it is several times the drain time of a full credit
/// window.
pub const RETRANS_TIMEOUT: SimDuration = SimDuration::from_millis(2);

/// Give up on a destination after this many consecutive timeout
/// retransmissions without any sign of life (its card died); the
/// stream's window is abandoned so the rest of the schedule can drain.
pub const MAX_RETRIES: u32 = 12;

/// The card's datapath port model.
pub enum CardPorts {
    /// Ideal INIC: independent pipelined engines per direction.
    Dual {
        /// Host→card DMA engine (Eq. 6: 80 MiB/s).
        host_in: EngineTimeline,
        /// Card→host DMA engine (Eq. 9: 80 MiB/s).
        host_out: EngineTimeline,
        /// Network→card engine (Eq. 8: 90 MiB/s).
        net_in: EngineTimeline,
        /// Card→network engine (Eq. 7: 90 MiB/s).
        net_out: EngineTimeline,
    },
    /// ACEII prototype: one bus carries everything.
    Shared {
        /// The single 132 MB/s card bus.
        bus: EngineTimeline,
    },
}

impl CardPorts {
    /// The Section 4 ideal card.
    pub fn ideal() -> CardPorts {
        CardPorts::Dual {
            host_in: EngineTimeline::new(Bandwidth::from_mib_per_sec(80), SimDuration::ZERO),
            host_out: EngineTimeline::new(Bandwidth::from_mib_per_sec(80), SimDuration::ZERO),
            net_in: EngineTimeline::new(Bandwidth::from_mib_per_sec(90), SimDuration::ZERO),
            net_out: EngineTimeline::new(Bandwidth::from_mib_per_sec(90), SimDuration::ZERO),
        }
    }

    /// The ACEII prototype card.
    pub fn aceii() -> CardPorts {
        CardPorts::Shared {
            bus: EngineTimeline::new(Bandwidth::from_mb_per_sec(132), SimDuration::from_micros(1)),
        }
    }

    fn host_in(&mut self, now: SimTime, bytes: DataSize) -> SimTime {
        match self {
            CardPorts::Dual { host_in, .. } => host_in.reserve(now, bytes),
            CardPorts::Shared { bus } => bus.reserve(now, bytes),
        }
    }

    fn host_out(&mut self, now: SimTime, bytes: DataSize) -> SimTime {
        match self {
            CardPorts::Dual { host_out, .. } => host_out.reserve(now, bytes),
            CardPorts::Shared { bus } => bus.reserve(now, bytes),
        }
    }

    fn net_in(&mut self, now: SimTime, bytes: DataSize) -> SimTime {
        match self {
            CardPorts::Dual { net_in, .. } => net_in.reserve(now, bytes),
            CardPorts::Shared { bus } => bus.reserve(now, bytes),
        }
    }

    fn net_out(&mut self, now: SimTime, bytes: DataSize) -> SimTime {
        match self {
            CardPorts::Dual { net_out, .. } => net_out.reserve(now, bytes),
            CardPorts::Shared { bus } => bus.reserve(now, bytes),
        }
    }
}

/// Driver → card: load a bitstream.
#[derive(Debug)]
pub struct InicConfigure {
    /// Operators to configure.
    pub bitstream: Bitstream,
}

/// Card → driver: configuration finished (or was rejected).
#[derive(Debug)]
pub struct InicConfigured {
    /// `Err` if the device lacks the logic resources.
    pub result: Result<(), ConfigError>,
}

/// Driver → card: stream a partition out to the cluster.
#[derive(Debug)]
pub struct InicScatter {
    /// Transfer id (shared by all nodes in one collective).
    pub stream: u32,
    /// Send-side transform.
    pub kind: ScatterKind,
    /// The partition's bytes (slab or key stream).
    pub data: Vec<u8>,
    /// Destination table: `dests[q]` is the MAC of rank `q`; the entry
    /// for this card's own rank routes through card memory without
    /// touching the wire.
    pub dests: Vec<MacAddr>,
}

/// Driver → card: announce the inbound side of a collective.
#[derive(Debug)]
pub struct InicExpect {
    /// Transfer id.
    pub stream: u32,
    /// Receive-side transform / DMA policy.
    pub kind: GatherKind,
    /// `(src_rank, total_bytes)` per inbound stream; `None` totals are
    /// learned from the fin packet (sort).
    pub sources: Vec<(u32, Option<usize>)>,
}

/// Card → driver: a scatter's last packet has left the card.
#[derive(Debug)]
pub struct InicScatterDone {
    /// Transfer id.
    pub stream: u32,
}

/// Card → driver: a gather is fully assembled in host memory.
#[derive(Debug)]
pub struct InicGatherComplete {
    /// Transfer id.
    pub stream: u32,
    /// The assembled bytes (output slab, or keys grouped by bucket).
    pub data: Vec<u8>,
    /// For bucket gathers: end offset (in bytes) of each bucket within
    /// `data`.
    pub bucket_bounds: Option<Vec<usize>>,
}

/// Fault injection → card: the card hardware dies, permanently. Every
/// subsequent event addressed to it — frames, DMA completions, driver
/// requests — is silently swallowed. Scheduled by the cluster builder
/// when a [`FaultPlan`] contains a card failure.
///
/// [`FaultPlan`]: https://docs.rs/acc-chaos
#[derive(Debug)]
pub struct InicKill;

/// Fault injection → card: the card goes dark for a reconfiguration
/// window of `hold`. It first broadcasts a BUSY notice so peers park
/// their retransmission timers, then defers every datapath event until
/// the window closes — in-flight streams are buffered, not lost. The
/// MAC keeps draining frames already handed to it.
#[derive(Debug)]
pub struct InicReconfigure {
    /// How long the datapath is unavailable.
    pub hold: SimDuration,
}

/// Driver → card: a peer's card died permanently (rank-local
/// degradation). Purge all sender/receiver state toward that peer so
/// nothing waits on it, and optionally abort one stream id — the
/// collective being restarted under a new epoch — across *all* peers.
#[derive(Debug)]
pub struct InicRecover {
    /// MAC of the dead peer.
    pub dead: MacAddr,
    /// Stream id of the aborted collective, if one was in flight.
    pub abort_stream: Option<u32>,
}

// --- internal events ---

/// A card's own event: a datapath stage, timer or DMA completing.
pub struct CardEvent(Own);

/// What a [`CardEvent`] holds.
enum Own {
    /// Configuration delay elapsed.
    ConfigDone(Result<(), ConfigError>),
    /// A reconfiguration hold elapsed; the datapath lights back up.
    ReconfigDone,
    Retrans(RetransTimer),
    /// A send chunk finished host→card DMA + send transform.
    ChunkStaged,
    Recv(RecvProcessed),
    Emit(EmitFrame),
    /// All host-out DMA for a gather completed.
    GatherDmaDone(u32),
}

/// Wrap one of the card's own events for the carrier.
fn own<M: FpgaCarrier>(ev: Own) -> M {
    M::from(FpgaMsg::Card(CardEvent(ev)))
}

/// Retransmission timer for one `(destination, stream)` send window.
/// Stale generations (the window was re-armed or ACKed since) are
/// ignored on delivery.
struct RetransTimer {
    dest: MacAddr,
    stream: u32,
    gen: u64,
}

/// A frame's payload cleared net→card + receive transform.
struct RecvProcessed {
    pkt: InicPacket,
    /// Sender's MAC (for returning flow-control credits); `None` for
    /// local loopback chunks, which bypass flow control.
    src_mac: Option<MacAddr>,
}

/// Card→net engine finished; put the frame on the wire.
struct EmitFrame {
    frame: Frame,
}

/// One queued send chunk.
struct SendChunk {
    dest: Option<MacAddr>,
    pkt: InicPacket,
    /// Last chunk of its scatter: emit [`InicScatterDone`] after it.
    ends_scatter: bool,
}

/// Sender-side state for one `(destination, stream)` pair under
/// protocol recovery: every un-ACKed data packet, kept until the
/// receiver confirms the whole stream.
struct TxStream {
    /// Un-ACKed packets by offset.
    pending: BTreeMap<u32, InicPacket>,
    /// Consecutive timeouts with no credit progress.
    retries: u32,
    /// Current timeout (doubles per stalled retransmission).
    timeout: SimDuration,
    /// Timer generation; a fired timer with a stale generation is dead.
    gen: u64,
    /// Whether a timer is in flight for this stream.
    armed: bool,
    /// Credit-arrival count from the destination at the last timer
    /// fire; unchanged across a whole interval ⇒ the stream is stalled.
    credit_mark: u64,
}

impl TxStream {
    fn new() -> TxStream {
        TxStream {
            pending: BTreeMap::new(),
            retries: 0,
            timeout: RETRANS_TIMEOUT,
            gen: 0,
            armed: false,
            credit_mark: 0,
        }
    }

    /// Arm a new timer generation, firing after `delay`; every earlier
    /// generation goes stale.
    fn rearm<M: FpgaCarrier>(
        &mut self,
        dest: MacAddr,
        stream: u32,
        delay: SimDuration,
        ctx: &mut Ctx<'_, M>,
    ) {
        self.gen += 1;
        let timer = RetransTimer {
            dest,
            stream,
            gen: self.gen,
        };
        ctx.self_in(delay, own::<M>(Own::Retrans(timer)));
    }
}

/// Per-gather receive state.
struct Gather {
    kind: GatherKind,
    /// Card memory reserved at announcement, given back when the
    /// gather is taken (completion or abort).
    reservation: u64,
    /// Streams still open.
    remaining: usize,
    /// Completed per-source payloads (src_rank → bytes).
    done: Vec<(u32, Vec<u8>)>,
    /// Bytes received but not yet DMA'd to the host (trickling gathers).
    undma: u64,
    /// Completion time of the last host-out DMA issued for this gather.
    dma_done_at: SimTime,
    /// Whether final assembly has been scheduled.
    finishing: bool,
}

/// The INIC card component (NIC + FPGA datapath).
pub struct InicCard {
    label: String,
    my_rank: u32,
    mac: MacAddr,
    app: ComponentId,
    uplink: EgressPort,
    device: FpgaDevice,
    bitstream: Option<Bitstream>,
    ports: CardPorts,
    /// Send-side transform pipeline.
    xform_send: EngineTimeline,
    /// Receive-side transform pipeline.
    xform_recv: EngineTimeline,
    /// Chunks awaiting host→card admission.
    // acc-lint: allow(R9, reason = "holds one scatter plan at a time: the driver submits the next scatter only after InicScatterDone for the previous, so length is bounded by the largest per-round chunk fan-out (<= p)")
    send_queue: VecDeque<SendChunk>,
    /// Whether a host-in admission is outstanding.
    host_in_busy: bool,
    demux: StreamDemux,
    gathers: BTreeMap<u32, Gather>,
    /// Packets that arrived before their gather was announced (a fast
    /// peer can be one phase ahead), with the sender MAC for recovery
    /// control traffic; replayed on [`InicExpect`].
    early_pkts: BTreeMap<u32, Vec<(InicPacket, Option<MacAddr>)>>,
    /// Whether the loss-recovery protocol (checksums already always on:
    /// ACK/NACK/timeout-retransmit) is enabled. Off on the fault-free
    /// path so the golden figures carry zero recovery overhead.
    reliability: bool,
    /// Hardware death switch — see [`InicKill`].
    dead: bool,
    /// End of the current reconfiguration hold, if the datapath is
    /// dark — see [`InicReconfigure`].
    dark_until: Option<SimTime>,
    /// Every node's primary MAC (ours included); the reconfigure BUSY
    /// notice broadcasts to all of them but ours.
    peers: Vec<MacAddr>,
    /// Peers known to be reconfiguring, and until when: their
    /// retransmission timers wait instead of counting retries.
    busy_until: BTreeMap<MacAddr, SimTime>,
    /// Peers whose cards died permanently; chunks destined to them are
    /// dropped at admission instead of filling a window forever.
    dead_peers: BTreeSet<MacAddr>,
    /// Aborted collective stream ids (rank-local recovery restarted
    /// them under a new epoch); late packets are dropped, late gather
    /// completions swallowed.
    canceled: BTreeSet<u32>,
    /// Sender-side recovery windows.
    tx_window: BTreeMap<(MacAddr, u32), TxStream>,
    /// Credit packets ever received per peer (stall detection).
    credits_from: BTreeMap<MacAddr, u64>,
    /// Last gap offset NACKed per `(src_rank, stream)`, to avoid
    /// NACK storms while the repair is in flight.
    last_nacked: BTreeMap<(u32, u32), u32>,
    /// Data packets retransmitted (timeout blasts + NACK repairs).
    retransmits: u64,
    /// Per-destination flow-control window (defaults to
    /// [`CREDIT_WINDOW`]; the credit-window ablation sweeps it). The
    /// receiver's credit step is `credit_quantum`.
    credit_window: u64,
    /// Un-credited payload bytes in flight per destination MAC.
    outstanding: BTreeMap<MacAddr, u64>,
    /// Bytes consumed from each source MAC not yet returned as credit.
    pending_credit: BTreeMap<MacAddr, u64>,
    /// Cost of the single completion interrupt per gather.
    completion_interrupt: SimDuration,
    /// Bytes of card memory currently reserved by announced gathers
    /// (scatter data streams through and reserves none).
    mem_in_use: u64,
    interrupts_raised: u64,
    /// Per-packet counter handles (`gather_bytes_in`,
    /// `credit_bytes_consumed`, `credit_bytes_granted`).
    gather_bytes_in: CounterHandle,
    credit_bytes_consumed: CounterHandle,
    credit_bytes_granted: CounterHandle,
}

impl InicCard {
    /// Build a card. `uplink` must be wired to the switch.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        label: impl Into<String>,
        my_rank: u32,
        mac: MacAddr,
        app: ComponentId,
        uplink: EgressPort,
        device: FpgaDevice,
        ports: CardPorts,
    ) -> InicCard {
        InicCard {
            label: label.into(),
            my_rank,
            mac,
            app,
            uplink,
            device,
            bitstream: None,
            ports,
            // Until configured, transforms run at a placeholder rate;
            // on_configure resets these from the bitstream.
            xform_send: EngineTimeline::new(Bandwidth::from_mib_per_sec(300), SimDuration::ZERO),
            xform_recv: EngineTimeline::new(Bandwidth::from_mib_per_sec(300), SimDuration::ZERO),
            send_queue: VecDeque::new(),
            host_in_busy: false,
            demux: StreamDemux::new(),
            gathers: BTreeMap::new(),
            early_pkts: BTreeMap::new(),
            reliability: false,
            dead: false,
            dark_until: None,
            peers: Vec::new(),
            busy_until: BTreeMap::new(),
            dead_peers: BTreeSet::new(),
            canceled: BTreeSet::new(),
            tx_window: BTreeMap::new(),
            credits_from: BTreeMap::new(),
            last_nacked: BTreeMap::new(),
            retransmits: 0,
            credit_window: CREDIT_WINDOW,
            outstanding: BTreeMap::new(),
            pending_credit: BTreeMap::new(),
            completion_interrupt: SimDuration::from_micros(12),
            mem_in_use: 0,
            interrupts_raised: 0,
            gather_bytes_in: CounterHandle::default(),
            credit_bytes_consumed: CounterHandle::default(),
            credit_bytes_granted: CounterHandle::default(),
        }
    }

    /// Override the per-destination flow-control window (builder
    /// style); used by the credit-window ablation.
    #[must_use]
    pub fn with_credit_window(mut self, bytes: u64) -> InicCard {
        assert!(bytes >= 2048, "window must hold at least two packets");
        self.credit_window = bytes;
        self
    }

    /// Enable the loss-recovery protocol: receiver stream ACKs and gap
    /// NACKs, sender timeout retransmission with exponential backoff
    /// and bounded retries, and drop-instead-of-panic handling of
    /// undecodable frames and uplink overflow. The cluster builder
    /// turns this on exactly when a fault plan is attached.
    #[must_use]
    pub fn with_reliability(mut self, on: bool) -> InicCard {
        self.reliability = on;
        self
    }

    /// Give the card the cluster's primary MAC table (builder style) so
    /// a reconfigure can notify every peer. Own MAC included; the
    /// broadcast skips it.
    #[must_use]
    pub fn with_peers(mut self, peers: Vec<MacAddr>) -> InicCard {
        self.peers = peers;
        self
    }

    /// The receiver returns a credit packet to a sender once it has
    /// consumed this many of its bytes (or on the stream's fin): a
    /// quarter of the flow-control window.
    fn credit_quantum(&self) -> u64 {
        self.credit_window / 4
    }

    /// Completion interrupts raised so far (the paper's "single
    /// interrupt per transpose" claim is asserted against this).
    pub fn interrupts_raised(&self) -> u64 {
        self.interrupts_raised
    }

    /// Data packets this card retransmitted (timeout and NACK repair).
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// The configured bitstream, if any.
    pub fn bitstream(&self) -> Option<&Bitstream> {
        self.bitstream.as_ref()
    }

    // ---- configuration ----

    fn on_configure<M: FpgaCarrier>(&mut self, bitstream: Bitstream, ctx: &mut Ctx<'_, M>) {
        let result = bitstream.check(&self.device);
        if result.is_ok() {
            let rate = bitstream
                .min_rate()
                .unwrap_or(Bandwidth::from_mib_per_sec(300));
            self.xform_send = EngineTimeline::new(rate, SimDuration::ZERO);
            self.xform_recv = EngineTimeline::new(rate, SimDuration::ZERO);
            self.bitstream = Some(bitstream);
        }
        ctx.self_in(self.device.config_time, own::<M>(Own::ConfigDone(result)));
    }

    // ---- scatter (send) path ----

    fn on_scatter<M: FpgaCarrier>(&mut self, scatter: InicScatter, ctx: &mut Ctx<'_, M>) {
        let bs = self
            .bitstream
            .as_ref()
            .expect("scatter before configuration");
        assert!(bs.has(OperatorKind::Packetize), "bitstream lacks Packetize");
        let p = scatter.dests.len();
        scatter.kind.check(bs, self.my_rank, p, scatter.data.len());
        // Scatter data is streamed, never resident: only a FIFO's worth
        // of packets occupies card memory at any instant, so no
        // reservation is taken against the device's memory budget.
        // Packets cut from the host buffer view it rather than copy it.
        let data = PayloadView::new(scatter.data);
        let chunks = scatter.kind.plan(self.my_rank, scatter.stream, &data, p);
        let n = chunks.len();
        for (i, (q, pkt)) in chunks.into_iter().enumerate() {
            // Our own rank loops back through card memory; every other
            // rank is its MAC.
            let dest = (q != self.my_rank as usize).then(|| scatter.dests[q]);
            self.send_queue.push_back(SendChunk {
                dest,
                pkt,
                ends_scatter: i == n - 1,
            });
        }
        self.admit_next_chunk(ctx);
    }

    /// Drop `chunk` if it is aimed at a dead peer or belongs to an
    /// aborted collective, instead of letting it hold a window that can
    /// never reopen; the scatter still completes. Returns whether it
    /// was dropped.
    fn drop_if_doomed<M: FpgaCarrier>(&self, chunk: &SendChunk, ctx: &mut Ctx<'_, M>) -> bool {
        let doomed = self.canceled.contains(&chunk.pkt.stream)
            || chunk.dest.is_some_and(|mac| self.dead_peers.contains(&mac));
        if doomed {
            ctx.stats()
                .counter(&self.label, "chunks_dropped_dead")
                .inc();
            if chunk.ends_scatter {
                let stream = chunk.pkt.stream;
                ctx.send_now(
                    self.app,
                    M::from(FpgaMsg::ScatterDone(InicScatterDone { stream })),
                );
            }
        }
        doomed
    }

    fn admit_next_chunk<M: FpgaCarrier>(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.host_in_busy {
            return;
        }
        // Find the first chunk whose destination window has room,
        // rotating blocked chunks to the back (out-of-order emission is
        // fine — receivers reassemble by offset). Local chunks bypass
        // flow control.
        let mut scanned = 0usize;
        let mut total = self.send_queue.len();
        while scanned < total {
            let chunk = self.send_queue.pop_front().expect("scanned < len");
            if self.drop_if_doomed(&chunk, ctx) {
                total -= 1;
                continue;
            }
            let admissible = match chunk.dest {
                None => true,
                Some(mac) => {
                    let inflight = self.outstanding.get(&mac).copied().unwrap_or(0);
                    inflight + chunk.pkt.data.len() as u64 <= self.credit_window
                }
            };
            if admissible {
                if let Some(mac) = chunk.dest {
                    let inflight = self.outstanding.entry(mac).or_insert(0);
                    *inflight += chunk.pkt.data.len() as u64;
                    if self.reliability {
                        let v = *inflight as f64;
                        ctx.stats().gauge(&self.label, "outstanding_bytes").set(v);
                    }
                }
                let bytes = DataSize::from_bytes((chunk.pkt.data.len() + INIC_HEADER) as u64);
                // The admitted chunk stays at the front until staged.
                self.send_queue.push_front(chunk);
                self.host_in_busy = true;
                let t1 = self.ports.host_in(ctx.now(), bytes);
                let t2 = self.xform_send.reserve(t1, bytes);
                ctx.self_in(t2.since(ctx.now()), own::<M>(Own::ChunkStaged));
                return;
            }
            self.send_queue.push_back(chunk);
            scanned += 1;
        }
        // Every queued destination is window-blocked; a returning
        // credit will re-run admission.
    }

    fn on_chunk_staged<M: FpgaCarrier>(&mut self, ctx: &mut Ctx<'_, M>) {
        self.host_in_busy = false;
        let chunk = self
            .send_queue
            .pop_front()
            .expect("ChunkStaged with empty queue");
        // The destination died (or the collective was aborted) while
        // this chunk crossed host→card DMA: drop it and return its
        // window charge.
        if self.drop_if_doomed(&chunk, ctx) {
            if let Some(mac) = chunk.dest {
                let entry = self.outstanding.entry(mac).or_insert(0);
                *entry = entry.saturating_sub(chunk.pkt.data.len() as u64);
            }
            self.admit_next_chunk(ctx);
            return;
        }
        // Start the next chunk's DMA immediately (pipelining).
        self.admit_next_chunk(ctx);
        let SendChunk {
            dest,
            pkt,
            ends_scatter,
        } = chunk;
        let stream = pkt.stream;
        match dest {
            Some(mac) => {
                let t3 = self.emit(mac, &pkt, ctx);
                if self.reliability {
                    // Keep the packet (a view: no copy) until the
                    // receiver ACKs the stream, and make sure a
                    // retransmission timer is running.
                    let entry = self
                        .tx_window
                        .entry((mac, stream))
                        .or_insert_with(TxStream::new);
                    entry.pending.insert(pkt.offset, pkt);
                    if !entry.armed {
                        entry.armed = true;
                        entry.rearm(mac, stream, entry.timeout, ctx);
                    }
                }
                if ends_scatter {
                    let done = M::from(FpgaMsg::ScatterDone(InicScatterDone { stream }));
                    ctx.send_in(t3.since(ctx.now()), self.app, done);
                }
            }
            None => {
                // Local loopback: pass straight to the receive transform.
                let bytes = DataSize::from_bytes((pkt.data.len() + INIC_HEADER) as u64);
                let t3 = self.xform_recv.reserve(ctx.now(), bytes);
                let recv = RecvProcessed { pkt, src_mac: None };
                ctx.self_in(t3.since(ctx.now()), own::<M>(Own::Recv(recv)));
                if ends_scatter {
                    let done = M::from(FpgaMsg::ScatterDone(InicScatterDone { stream }));
                    ctx.send_in(t3.since(ctx.now()), self.app, done);
                }
            }
        }
    }

    /// Put `pkt` through the card→net engine toward `dest` and emit its
    /// frame when the engine is done; returns that instant. The frame
    /// carries the header inline and the data as the packet's own view
    /// (no copy, so the frame costs no allocation).
    fn emit<M: FpgaCarrier>(
        &mut self,
        dest: MacAddr,
        pkt: &InicPacket,
        ctx: &mut Ctx<'_, M>,
    ) -> SimTime {
        let bytes = DataSize::from_bytes((pkt.data.len() + INIC_HEADER) as u64);
        let t = self.ports.net_out(ctx.now(), bytes);
        let frame = Frame::try_with_header(
            self.mac,
            dest,
            EtherType::Inic,
            pkt.encode(),
            pkt.data.clone(),
        )
        .unwrap_or_else(|e| panic!("{}: INIC packet exceeds MTU ({e})", self.label));
        ctx.self_in(t.since(ctx.now()), own::<M>(Own::Emit(EmitFrame { frame })));
        t
    }

    // ---- gather (receive) path ----

    fn on_expect<M: FpgaCarrier>(&mut self, expect: InicExpect, ctx: &mut Ctx<'_, M>) {
        let bs = self
            .bitstream
            .as_ref()
            .expect("expect before configuration");
        let reservation = expect.kind.check(bs);
        self.reserve_memory(reservation);
        for &(src, total) in &expect.sources {
            match total {
                Some(t) => self.demux.expect(src, expect.stream, t),
                None => self.demux.expect_unknown(src, expect.stream),
            }
        }
        let prev = self.gathers.insert(
            expect.stream,
            Gather {
                kind: expect.kind,
                reservation,
                remaining: expect.sources.len(),
                done: Vec::new(),
                undma: 0,
                dma_done_at: ctx.now(),
                finishing: false,
            },
        );
        assert!(prev.is_none(), "gather {} announced twice", expect.stream);
        // Replay packets that beat the announcement (credits were
        // already granted when they first arrived).
        if let Some(early) = self.early_pkts.remove(&expect.stream) {
            for (pkt, src_mac) in early {
                debug_assert!(!pkt.is_control());
                self.accept_into_gather(pkt, src_mac, ctx);
            }
        }
    }

    fn on_frame<M: FpgaCarrier>(&mut self, frame: Frame, ctx: &mut Ctx<'_, M>) {
        debug_assert_eq!(frame.ethertype, EtherType::Inic);
        let bytes = DataSize::from_bytes(frame.len() as u64);
        let t1 = self.ports.net_in(ctx.now(), bytes);
        let t2 = self.xform_recv.reserve(t1, bytes);
        let pkt = match InicPacket::decode(&frame.header, &frame.payload) {
            Ok(pkt) => pkt,
            // Corrupted on the wire: drop it; the sender's timeout (or
            // the receiver's gap NACK) recovers the payload. Without
            // reliability a bad frame is a simulator bug, not a fault.
            Err(_) if self.reliability => {
                ctx.stats().counter(&self.label, "rx_decode_drops").inc();
                return;
            }
            Err(err) => panic!("{}: undecodable INIC frame: {err:?}", self.label),
        };
        let src_mac = Some(frame.src);
        let recv = RecvProcessed { pkt, src_mac };
        ctx.self_in(t2.since(ctx.now()), own::<M>(Own::Recv(recv)));
    }

    fn on_recv_processed<M: FpgaCarrier>(
        &mut self,
        pkt: InicPacket,
        src_mac: Option<MacAddr>,
        ctx: &mut Ctx<'_, M>,
    ) {
        // Reconfiguration notice: the peer is alive but dark for
        // `offset` microseconds; park its retransmission clocks.
        if pkt.busy {
            let mac = src_mac.expect("busy notices only arrive off the wire");
            let until = ctx.now() + SimDuration::from_micros(u64::from(pkt.offset));
            self.busy_until.insert(mac, until);
            return;
        }
        // Flow-control credit: the peer consumed `offset` bytes of our
        // in-flight data; reopen its window and retry admission.
        if pkt.credit {
            let mac = src_mac.expect("credits only arrive off the wire");
            *self.credits_from.entry(mac).or_insert(0) += 1;
            let entry = self.outstanding.entry(mac).or_insert(0);
            *entry = entry.saturating_sub(u64::from(pkt.offset));
            if self.reliability {
                ctx.stats()
                    .counter_by(
                        &mut self.credit_bytes_consumed,
                        &self.label,
                        "credit_bytes_consumed",
                    )
                    .add(u64::from(pkt.offset));
            }
            self.admit_next_chunk(ctx);
            return;
        }
        // Recovery ACK: the peer consumed our whole stream; forget the
        // retransmission window.
        if pkt.ack {
            let mac = src_mac.expect("acks only arrive off the wire");
            self.tx_window.remove(&(mac, pkt.stream));
            return;
        }
        // Recovery NACK: the peer is missing one packet; resend it.
        if pkt.nack {
            let mac = src_mac.expect("nacks only arrive off the wire");
            self.resend_one(mac, pkt.stream, pkt.offset, ctx);
            return;
        }
        // A straggler from an aborted collective (rank-local recovery
        // restarted it under a new stream id): drop it without granting
        // credit, ACKing so any old-epoch sender still holding a window
        // goes quiet.
        if self.canceled.contains(&pkt.stream) {
            if self.reliability {
                if let Some(mac) = src_mac {
                    self.send_ack(mac, pkt.stream, ctx);
                }
            }
            return;
        }
        // Grant credit back to remote senders as their data is consumed.
        if let Some(mac) = src_mac {
            let quantum = self.credit_quantum();
            let pending = self.pending_credit.entry(mac).or_insert(0);
            *pending += pkt.data.len() as u64;
            if *pending >= quantum || pkt.fin {
                let amount = *pending;
                *pending = 0;
                self.send_credit(mac, pkt.stream, amount, ctx);
            }
        }
        // A duplicate of a stream the demux already completed means our
        // stream ACK was lost: re-ACK so the sender stops resending.
        if self.reliability && self.demux.is_completed(pkt.src_rank, pkt.stream) {
            if let Some(mac) = src_mac {
                self.send_ack(mac, pkt.stream, ctx);
            }
            return;
        }
        if !self.gathers.contains_key(&pkt.stream) {
            // Gather not announced yet: buffer in card memory.
            self.early_pkts
                .entry(pkt.stream)
                .or_default()
                .push((pkt, src_mac));
            return;
        }
        self.accept_into_gather(pkt, src_mac, ctx);
    }

    /// Account a data packet against its gather: trickle DMA for
    /// trickling gathers, stream reassembly, recovery control traffic,
    /// and completion.
    fn accept_into_gather<M: FpgaCarrier>(
        &mut self,
        pkt: InicPacket,
        src_mac: Option<MacAddr>,
        ctx: &mut Ctx<'_, M>,
    ) {
        let stream = pkt.stream;
        if self.reliability {
            ctx.stats()
                .counter_by(&mut self.gather_bytes_in, &self.label, "gather_bytes_in")
                .add(pkt.data.len() as u64);
        }
        let gather = self.gathers.get_mut(&stream).expect("gather announced");
        // Trickling gathers move data to the host in DMA_THRESHOLD
        // pieces as it accumulates (Eq. 15); the others hold everything
        // on the card until complete (Eq. 9).
        if gather.kind.trickles() {
            gather.undma += pkt.data.len() as u64;
            let pieces = gather.undma / DMA_THRESHOLD;
            gather.undma %= DMA_THRESHOLD;
            for _ in 0..pieces {
                let end = self
                    .ports
                    .host_out(ctx.now(), DataSize::from_bytes(DMA_THRESHOLD));
                gather.dma_done_at = gather.dma_done_at.max(end);
            }
        }
        if let Some((src, _s, data)) = self.demux.accept(&pkt) {
            if self.reliability {
                self.last_nacked.remove(&(src, stream));
                if let Some(mac) = src_mac {
                    self.send_ack(mac, stream, ctx);
                }
            }
            let gather = self.gathers.get_mut(&stream).expect("checked above");
            gather.done.push((src, data));
            gather.remaining -= 1;
            if gather.remaining == 0 && !gather.finishing {
                gather.finishing = true;
                self.finish_gather(stream, ctx);
            }
        } else if let (true, Some(mac)) = (self.reliability, src_mac) {
            // Incomplete after this packet. If there's a hole below it
            // (loss, or reordering overtook it) ask for the first
            // missing packet — but only once per distinct gap, and
            // always on fin, which proves nothing more is coming.
            if let Some(missing) = self.demux.missing(pkt.src_rank, stream) {
                let key = (pkt.src_rank, stream);
                let gap_is_below = missing < pkt.offset || pkt.fin;
                let already = self.last_nacked.get(&key) == Some(&missing) && !pkt.fin;
                if gap_is_below && !already {
                    self.last_nacked.insert(key, missing);
                    self.send_nack(mac, stream, missing, ctx);
                }
            }
        }
    }

    /// All streams complete: issue the remaining host DMA and schedule
    /// final assembly.
    fn finish_gather<M: FpgaCarrier>(&mut self, stream: u32, ctx: &mut Ctx<'_, M>) {
        let mut left = {
            let g = &self.gathers[&stream];
            let received: usize = g.done.iter().map(|(_, d)| d.len()).sum();
            g.kind.tail(received as u64, g.undma)
        };
        let mut last = ctx.now();
        while left > 0 {
            let piece = left.min(DMA_THRESHOLD);
            last = self.ports.host_out(ctx.now(), DataSize::from_bytes(piece));
            left -= piece;
        }
        let g = self.gathers.get_mut(&stream).expect("present");
        g.dma_done_at = g.dma_done_at.max(last);
        let delay = g.dma_done_at.saturating_since(ctx.now()) + self.completion_interrupt;
        ctx.self_in(delay, own::<M>(Own::GatherDmaDone(stream)));
    }

    fn on_gather_dma_done<M: FpgaCarrier>(&mut self, stream: u32, ctx: &mut Ctx<'_, M>) {
        // The gather may have been canceled (aborted collective) while
        // the final DMA was in flight; nothing left to deliver.
        let Some(gather) = self.take_gather(stream) else {
            return;
        };
        self.interrupts_raised += 1;
        ctx.stats()
            .counter(&self.label, "completion_interrupts")
            .inc();
        let (data, bucket_bounds, padded_bytes) = gather.kind.assemble(gather.done);
        if self.reliability {
            ctx.stats()
                .counter(&self.label, "gather_bytes_out")
                .add(data.len() as u64);
            if padded_bytes > 0 {
                ctx.stats()
                    .counter(&self.label, "gather_bytes_padded")
                    .add(padded_bytes);
            }
        }
        let complete = InicGatherComplete {
            stream,
            data,
            bucket_bounds,
        };
        ctx.send_now(self.app, M::from(FpgaMsg::GatherComplete(complete)));
    }

    /// Emit a zero-data credit packet to `mac` re-granting `amount`
    /// consumed bytes. Credits ride the normal net-out path (they cost
    /// a minimum-size frame of wire time).
    fn send_credit<M: FpgaCarrier>(
        &mut self,
        mac: MacAddr,
        stream: u32,
        amount: u64,
        ctx: &mut Ctx<'_, M>,
    ) {
        if self.reliability {
            ctx.stats()
                .counter_by(
                    &mut self.credit_bytes_granted,
                    &self.label,
                    "credit_bytes_granted",
                )
                .add(amount);
        }
        let pkt = InicPacket::credit_grant(self.my_rank, stream, amount as u32);
        self.emit(mac, &pkt, ctx);
    }

    /// Receiver → sender: the whole stream arrived and was consumed.
    fn send_ack<M: FpgaCarrier>(&mut self, mac: MacAddr, stream: u32, ctx: &mut Ctx<'_, M>) {
        ctx.stats().counter(&self.label, "acks_sent").inc();
        let pkt = InicPacket::stream_ack(self.my_rank, stream);
        self.emit(mac, &pkt, ctx);
    }

    /// Receiver → sender: the stream has a hole at `missing`; resend it.
    fn send_nack<M: FpgaCarrier>(
        &mut self,
        mac: MacAddr,
        stream: u32,
        missing: u32,
        ctx: &mut Ctx<'_, M>,
    ) {
        ctx.stats().counter(&self.label, "nacks_sent").inc();
        let pkt = InicPacket::repair_nack(self.my_rank, stream, missing);
        self.emit(mac, &pkt, ctx);
    }

    // ---- loss recovery (sender side) ----

    /// Resend a still-pending packet. Retransmissions bypass host DMA
    /// and the send transform (the packet lives in card memory) but pay
    /// the net-out engine.
    fn retransmit<M: FpgaCarrier>(&mut self, mac: MacAddr, pkt: &InicPacket, ctx: &mut Ctx<'_, M>) {
        self.retransmits += 1;
        ctx.stats().counter(&self.label, "retransmits").inc();
        self.emit(mac, pkt, ctx);
    }

    /// Resend one still-pending packet in response to a NACK.
    fn resend_one<M: FpgaCarrier>(
        &mut self,
        mac: MacAddr,
        stream: u32,
        offset: u32,
        ctx: &mut Ctx<'_, M>,
    ) {
        let Some(pkt) = self
            .tx_window
            .get(&(mac, stream))
            .and_then(|e| e.pending.get(&offset))
            .cloned()
        else {
            // Already abandoned (or a stale NACK for an ACKed stream).
            return;
        };
        self.retransmit(mac, &pkt, ctx);
    }

    /// Timeout for one `(dest, stream)` window. Credit arrivals from
    /// the destination during the interval mean the peer is alive and
    /// consuming — re-arm without penalty. A genuinely silent interval
    /// means the tail of the stream (or the peer's ACK) was lost: blast
    /// every un-ACKed packet back out with doubled timeout, and give
    /// the destination up for dead after [`MAX_RETRIES`] silent rounds
    /// so the rest of the schedule can still drain.
    fn on_retrans_timer<M: FpgaCarrier>(
        &mut self,
        dest: MacAddr,
        stream: u32,
        gen: u64,
        ctx: &mut Ctx<'_, M>,
    ) {
        let credits_seen = self.credits_from.get(&dest).copied().unwrap_or(0);
        let Some(entry) = self.tx_window.get_mut(&(dest, stream)) else {
            return; // ACKed since the timer was armed.
        };
        if entry.gen != gen {
            return; // Superseded by a newer arm.
        }
        if credits_seen != entry.credit_mark {
            entry.credit_mark = credits_seen;
            entry.retries = 0;
            entry.rearm(dest, stream, entry.timeout, ctx);
            return;
        }
        // The peer announced a reconfiguration hold covering this
        // instant: it is alive but dark, so its silence is not evidence
        // of death. Wait out the window without burning a retry or
        // blasting packets it would only buffer.
        if let Some(&busy) = self.busy_until.get(&dest) {
            if ctx.now() < busy {
                let wait = busy.since(ctx.now()) + entry.timeout;
                entry.rearm(dest, stream, wait, ctx);
                ctx.stats().counter(&self.label, "reconfig_waits").inc();
                return;
            }
        }
        entry.retries += 1;
        if entry.retries > MAX_RETRIES {
            self.tx_window.remove(&(dest, stream));
            // Unreachable peer: stop holding its flow-control window so
            // queued chunks drain (into the void) and the scatter —
            // whose completion the failed-over driver ignores — still
            // quiesces.
            self.outstanding.remove(&dest);
            ctx.stats().counter(&self.label, "retrans_abandoned").inc();
            self.admit_next_chunk(ctx);
            return;
        }
        entry.timeout = entry.timeout * 2;
        entry.rearm(dest, stream, entry.timeout, ctx);
        let pkts: Vec<InicPacket> = entry.pending.values().cloned().collect();
        for pkt in pkts {
            self.retransmit(dest, &pkt, ctx);
        }
    }

    // ---- transient-fault handling ----

    /// Whether the datapath is inside a reconfiguration hold.
    fn is_dark(&self, now: SimTime) -> bool {
        self.dark_until.is_some_and(|t| now < t)
    }

    /// Go dark for `hold`: tell every peer (so their retransmission
    /// machinery waits instead of abandoning us), then defer all
    /// datapath events until the window closes.
    fn on_reconfigure<M: FpgaCarrier>(&mut self, hold: SimDuration, ctx: &mut Ctx<'_, M>) {
        let until = ctx.now() + hold;
        if self.dark_until.is_none_or(|t| until > t) {
            self.dark_until = Some(until);
        }
        ctx.self_in(hold, own::<M>(Own::ReconfigDone));
        ctx.stats().counter(&self.label, "reconfigures").inc();
        let hold_micros = (hold.as_nanos() / 1_000) as u32;
        let notice: Vec<MacAddr> = self
            .peers
            .iter()
            .copied()
            .filter(|&m| m != self.mac)
            .collect();
        for mac in notice {
            let pkt = InicPacket::reconfig_busy(self.my_rank, hold_micros);
            self.emit(mac, &pkt, ctx);
        }
    }

    /// A hold elapsed. A later (overlapping) reconfigure may have
    /// pushed `dark_until` out; only the final wake-up counts.
    fn on_reconfig_done<M: FpgaCarrier>(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.dark_until.is_some_and(|t| ctx.now() >= t) {
            self.dark_until = None;
            ctx.stats()
                .counter(&self.label, "reconfig_windows_survived")
                .inc();
        }
    }

    /// A peer's card died permanently; rank-local recovery restarts the
    /// in-flight collective under a new epoch. Purge everything aimed
    /// at the dead peer and abort the old stream everywhere, so no
    /// window, timer or gather waits on state that can never complete.
    ///
    /// Clearing `outstanding` wholesale is sound because the drivers
    /// run one collective at a time: at recovery, every in-flight byte
    /// belongs to the aborted stream.
    fn on_recover<M: FpgaCarrier>(
        &mut self,
        dead: MacAddr,
        abort_stream: Option<u32>,
        ctx: &mut Ctx<'_, M>,
    ) {
        self.dead_peers.insert(dead);
        self.busy_until.remove(&dead);
        self.tx_window
            .retain(|&(mac, stream), _| mac != dead && abort_stream != Some(stream));
        if let Some(stream) = abort_stream {
            self.canceled.insert(stream);
            self.outstanding.clear();
            self.pending_credit.clear();
            self.early_pkts.remove(&stream);
            self.last_nacked.retain(|&(_, s), _| s != stream);
            self.take_gather(stream);
        } else {
            self.outstanding.remove(&dead);
            self.pending_credit.remove(&dead);
        }
        ctx.stats().counter(&self.label, "peer_recoveries").inc();
        self.admit_next_chunk(ctx);
    }

    /// Put an already-staged frame on the wire (allowed even while
    /// dark: the MAC drains what the datapath handed it before the
    /// reconfigure hit).
    fn on_emit_frame<M: FpgaCarrier>(&mut self, frame: Frame, ctx: &mut Ctx<'_, M>) {
        let ok = self.uplink.enqueue(frame, ctx);
        if !ok && self.reliability {
            // Retransmission bursts can exceed the NIC buffer;
            // the drop is itself recovered by the protocol.
            ctx.stats()
                .counter(&self.label, "uplink_overflow_drops")
                .inc();
        } else {
            assert!(
                ok,
                "{}: INIC uplink overflow — schedule oversubscribed the NIC buffer",
                self.label
            );
        }
    }

    // ---- card memory accounting ----

    fn reserve_memory(&mut self, bytes: u64) {
        self.mem_in_use += bytes;
        assert!(
            self.mem_in_use <= self.device.memory.bytes(),
            "{}: card memory exhausted ({} > {}) — partition too large for {}",
            self.label,
            self.mem_in_use,
            self.device.memory.bytes(),
            self.device.part
        );
    }

    /// Remove a gather and give its card memory back: the one release
    /// point, shared by completion and abort.
    fn take_gather(&mut self, stream: u32) -> Option<Gather> {
        let gather = self.gathers.remove(&stream)?;
        self.mem_in_use = self.mem_in_use.saturating_sub(gather.reservation);
        Some(gather)
    }
}

impl InicCard {
    /// A fabric message: the uplink's transmit completions and frame
    /// arrivals.
    fn on_net<M: FpgaCarrier>(&mut self, msg: NetMsg, ctx: &mut Ctx<'_, M>) {
        match msg {
            _ if self.dead => {}
            NetMsg::TxDone(_) => self.uplink.tx_done(ctx),
            msg if self.is_dark(ctx.now()) => self.park(M::from(msg), ctx),
            NetMsg::Arrival(arr) => self.on_frame(arr.frame, ctx),
            NetMsg::Forward(_) | NetMsg::Routes(_) | NetMsg::Kill(_) => unknown_event(&self.label),
        }
    }

    /// A card message: the driver's requests, fault injection and the
    /// card's own events.
    fn on_fpga<M: FpgaCarrier>(&mut self, msg: FpgaMsg, ctx: &mut Ctx<'_, M>) {
        use FpgaMsg as F;
        match msg {
            F::Kill(InicKill) => {
                self.dead = true;
                ctx.stats().counter(&self.label, "card_killed").inc();
            }
            // A dead card swallows everything: frames rot on the wire,
            // timers fire into the void, the driver hears nothing.
            // Recovery happens above (peer retry abandonment, host
            // fallback).
            _ if self.dead => {}
            F::Card(CardEvent(Own::ReconfigDone)) => self.on_reconfig_done(ctx),
            F::Reconfigure(r) => self.on_reconfigure(r.hold, ctx),
            // The MAC keeps draining frames the datapath staged before
            // the hold began; everything else waits for the light.
            F::Card(CardEvent(Own::Emit(emit))) => self.on_emit_frame(emit.frame, ctx),
            msg if self.is_dark(ctx.now()) => self.park(M::from(msg), ctx),
            F::Recover(r) => self.on_recover(r.dead, r.abort_stream, ctx),
            F::Configure(cfg) => self.on_configure(cfg.bitstream, ctx),
            F::Card(CardEvent(Own::ConfigDone(result))) => {
                ctx.send_now(self.app, M::from(F::Configured(InicConfigured { result })))
            }
            F::Scatter(s) => self.on_scatter(*s, ctx),
            F::Expect(e) => self.on_expect(e, ctx),
            F::Card(CardEvent(Own::ChunkStaged)) => self.on_chunk_staged(ctx),
            F::Card(CardEvent(Own::Recv(r))) => self.on_recv_processed(r.pkt, r.src_mac, ctx),
            F::Card(CardEvent(Own::Retrans(t))) => {
                self.on_retrans_timer(t.dest, t.stream, t.gen, ctx)
            }
            F::Card(CardEvent(Own::GatherDmaDone(stream))) => self.on_gather_dma_done(stream, ctx),
            F::Configured(_) | F::ScatterDone(_) | F::GatherComplete(_) => {
                unknown_event(&self.label)
            }
        }
    }

    /// Hold an event that arrived while the card is dark until the
    /// reconfiguration window closes.
    fn park<M: FpgaCarrier>(&mut self, ev: M, ctx: &mut Ctx<'_, M>) {
        let wake = self.dark_until.expect("dark").saturating_since(ctx.now());
        ctx.stats().counter(&self.label, "dark_deferrals").inc();
        ctx.self_in(wake, ev.defer());
    }
}

impl<M: FpgaCarrier> Component<M> for InicCard {
    fn handle(&mut self, ev: M, ctx: &mut Ctx<'_, M>) {
        let ev = match ev.into_net() {
            Ok(msg) => return self.on_net(msg, ctx),
            Err(ev) => ev,
        };
        match ev.into_fpga() {
            Ok(msg) => self.on_fpga(msg, ctx),
            // An event parked during a reconfiguration hold re-enters
            // the full dispatch (and is parked again if a second,
            // overlapping hold extended the window).
            Err(ev) => match ev.undefer() {
                Ok(parked) => self.handle(parked, ctx),
                Err(_) => unknown_event(&self.label),
            },
        }
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn wait_state(&self) -> Option<String> {
        if self.dead {
            // A dead card waits on nothing, but in a hang report it is
            // usually the answer: every peer stream into it is doomed.
            return Some("card dead — peers retrying into the void".to_string());
        }
        let unacked: usize = self.tx_window.values().map(|s| s.pending.len()).sum();
        let worst_retries = self
            .tx_window
            .values()
            .map(|s| s.retries)
            .max()
            .unwrap_or(0);
        let outstanding: u64 = self.outstanding.values().sum();
        let open_gathers = self.gathers.values().filter(|g| g.remaining > 0).count();
        if unacked == 0 && outstanding == 0 && open_gathers == 0 && self.send_queue.is_empty() {
            return None;
        }
        let mut parts = vec![format!(
            "{} tx stream(s) with {unacked} un-ACKed pkt(s), {outstanding} B un-credited, \
             {open_gathers} gather(s) open, {} chunk(s) queued",
            self.tx_window.len(),
            self.send_queue.len(),
        )];
        if worst_retries > 0 {
            parts.push(format!("worst stream at retry {worst_retries}"));
        }
        if let Some(until) = self.dark_until {
            parts.push(format!("datapath dark until {until}"));
        }
        Some(parts.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_micros(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// The prototype's one 132 MB/s bus serializes a host DMA and a
    /// network transfer issued at the same instant: the second waits
    /// for the first, then pays its own 1 µs overhead and its bytes.
    #[test]
    fn aceii_serializes_host_dma_and_network_on_one_bus() {
        let mut ports = CardPorts::aceii();
        // 132,000 B is 1 ms at 132 MB/s; 1,320 B is 10 µs.
        let dma_done = ports.host_in(SimTime::ZERO, DataSize::from_bytes(132_000));
        let net_done = ports.net_out(SimTime::ZERO, DataSize::from_bytes(1_320));
        assert_eq!(dma_done, at_micros(1 + 1_000));
        assert_eq!(net_done, dma_done + SimDuration::from_micros(1 + 10));
        let CardPorts::Shared { bus } = &ports else {
            panic!("the prototype card has one shared bus");
        };
        assert_eq!(bus.busy_time(), SimDuration::from_micros(1_012));
        assert_eq!(bus.bytes_moved(), 133_320);
    }

    /// The ideal card gives each direction its own engine: the same two
    /// transfers each end at their own engine's rate, neither waiting.
    #[test]
    fn ideal_card_runs_host_dma_and_network_independently() {
        let mut ports = CardPorts::ideal();
        // 64 KiB at 80 MiB/s is 781.25 µs; 9 KiB at 90 MiB/s is 97.65625 µs.
        let dma_done = ports.host_in(SimTime::ZERO, DataSize::from_kib(64));
        let net_done = ports.net_out(SimTime::ZERO, DataSize::from_kib(9));
        assert_eq!(dma_done, SimTime::ZERO + SimDuration::from_nanos(781_250));
        assert_eq!(net_done, SimTime::ZERO + SimDuration::from_ps(97_656_250));
        let CardPorts::Dual {
            host_in,
            host_out,
            net_in,
            net_out,
        } = &ports
        else {
            panic!("the ideal card has one engine per direction");
        };
        assert_eq!(host_in.busy_time(), SimDuration::from_nanos(781_250));
        assert_eq!(host_in.bytes_moved(), 64 * 1024);
        assert_eq!(net_out.busy_time(), SimDuration::from_ps(97_656_250));
        assert_eq!(net_out.bytes_moved(), 9 * 1024);
        for idle in [host_out, net_in] {
            assert_eq!(idle.busy_time(), SimDuration::ZERO);
            assert_eq!(idle.bytes_moved(), 0);
        }
    }
}
