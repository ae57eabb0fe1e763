//! The Intelligent NIC card component.
//!
//! One [`InicCard`] per node replaces the TCP stack of the commodity
//! path. The host driver (in `acc-core`) interacts with it through four
//! messages:
//!
//! * [`InicConfigure`] — load a bitstream (checked against the device's
//!   CLB capacity; the prototype *cannot* load the 128-bucket sorter).
//! * [`InicScatter`] — hand over a local partition; the card streams it
//!   host→FPGA, applies the send-side operator (block transpose or
//!   bucket distribution), packetizes and transmits each piece to its
//!   destination node. Transmission starts as soon as one packet's worth
//!   of a destination's data exists — the "no computational cost for
//!   starting a send" property of Section 3.2.2.
//! * [`InicExpect`] — announce the inbound streams of an all-to-all.
//! * incoming frames — de-packetized, transformed (interleave/bucket)
//!   and accumulated in INIC memory; bucket gathers DMA to the host in
//!   64 KiB pieces as thresholds fill (Eq. 15), interleave gathers DMA
//!   once all data is present (Eq. 9). One completion interrupt per
//!   gather — "virtual elimination of interrupts" (Section 4.1).
//!
//! Timing flows through [`EngineTimeline`]s. The **ideal** card has four
//! independent engines (host-in/out at 80 MiB/s, net-in/out at
//! 90 MiB/s — the Eq. 6–9 rates); the **prototype** funnels all four
//! directions through a single 132 MB/s timeline, reproducing the ACEII
//! bottleneck. Data transforms are *functional*: the bytes delivered to
//! the host are checked against host-side oracles in tests.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

use acc_algos::sort::{bucket_flat, bucket_shift, destination_of};
use acc_algos::transpose::{
    bytes_to_slab, extract_transposed_block, interleave_block, slab_to_bytes,
};
use acc_net::port::EgressPort;
use acc_net::{EtherType, Frame, FrameArrival, MacAddr, PayloadView, PortTxDone};
use acc_proto::{packetize_view, InicPacket, StreamDemux, INIC_HEADER, INIC_PAYLOAD};
use acc_sim::{Bandwidth, Component, ComponentId, Ctx, DataSize, SimDuration, SimTime};

use crate::device::{Bitstream, ConfigError, FpgaDevice};
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
/// schedule, generalised to unbalanced traffic.
pub const CREDIT_WINDOW: u64 = 24 * 1024;

/// The receiver returns a credit packet after consuming this many bytes
/// from one sender.
pub const CREDIT_QUANTUM: u64 = CREDIT_WINDOW / 4;

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

/// The send-side transform of a scatter.
#[derive(Clone, Debug)]
pub enum ScatterKind {
    /// FFT transpose: the data is an `M × rows` slab; block `q`
    /// (transposed on the fly) goes to destination `q`.
    TransposeBlocks {
        /// Block edge (rows per processor).
        m: usize,
    },
    /// Integer sort: the data is a key stream; key `k` goes to
    /// destination `bucket_index(k, p)` — or, when `splitters` is set,
    /// to the rank whose sampled key range contains it. The splitter
    /// table is a small comparator cascade on the card (the pre-sort
    /// sampling extension for non-uniform keys).
    BucketKeys {
        /// Number of destinations (processors).
        p: usize,
        /// Optional `p − 1` range splitters (ascending).
        splitters: Option<Vec<u32>>,
    },
    /// No transform: the host already prepared every part, and the
    /// card only packetizes and transmits (protocol-processor mode, and
    /// the collective engine's schedule rounds). `parts` names
    /// `(rank, byte length)` pairs and `data` is the concatenation of
    /// the parts in listed order; a host exchange lists every rank in
    /// ring order (own rank first, then `rank+1`, `rank+2`, …). A
    /// zero-length part to a remote rank is a lone fin packet, so the
    /// receiver learns a zero total; a rank not listed gets nothing —
    /// the engine's schedules omit zero-length transfers on both sides,
    /// and a fin to a peer that expects nothing would poison its stream
    /// demux. A part addressed to our own rank loops back through card
    /// memory (the reduce accumulator's own contribution).
    Unicast {
        /// `(destination rank, byte length)`, ranks distinct, a length
        /// of 0 only for a remote rank; `data` is the parts'
        /// concatenation in this order.
        parts: Vec<(u32, usize)>,
    },
}

/// The receive-side transform and DMA policy of a gather.
#[derive(Clone, Copy, Debug)]
pub enum GatherKind {
    /// FFT transpose receive: interleave each source's `M × M` block
    /// into column-block position `src` of the output slab; DMA the slab
    /// to the host only once complete (Eq. 9).
    InterleaveBlocks {
        /// Block edge.
        m: usize,
        /// Output slab width (= m × P).
        rows: usize,
    },
    /// Sort receive: distribute incoming keys into `k` on-card buckets;
    /// DMA to the host in 64 KiB pieces as data accumulates (Eq. 15).
    BucketKeys {
        /// On-card bucket count (16 on the prototype, ≥128 ideal).
        k: usize,
    },
    /// Protocol-processor mode: no transform; streams trickle to the
    /// host as they arrive and are delivered per source (the
    /// `bucket_bounds` of [`InicGatherComplete`] carry the per-source
    /// end offsets, ordered by source rank).
    Raw,
    /// Collective extension: element-wise sum of every source's f64
    /// vector in card memory; only the reduced vector crosses to the
    /// host (the receive half of AllReduce).
    ReduceF64 {
        /// Vector length in elements.
        elems: usize,
    },
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

/// Configuration delay elapsed.
struct ConfigDone {
    result: Result<(), ConfigError>,
}

/// A reconfiguration hold elapsed; the datapath lights back up.
struct ReconfigDone;

/// An event that arrived while the card was dark, re-posted to the end
/// of the hold window (double-boxed so the original payload survives
/// the re-queue intact).
struct DarkDeferred(Box<dyn Any>);

/// Retransmission timer for one `(destination, stream)` send window.
/// Stale generations (the window was re-armed or ACKed since) are
/// ignored on delivery.
struct RetransTimer {
    dest: MacAddr,
    stream: u32,
    gen: u64,
}

/// A send chunk finished host→card DMA + send transform.
struct ChunkStaged;

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

/// All host-out DMA for a gather completed.
struct GatherDmaDone {
    stream: u32,
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
}

/// Per-gather receive state.
struct Gather {
    kind: GatherKind,
    /// Streams still open.
    remaining: usize,
    /// Completed per-source payloads (src_rank → bytes).
    done: Vec<(u32, Vec<u8>)>,
    /// Bytes received but not yet DMA'd to the host (bucket gathers).
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
    /// [`CREDIT_WINDOW`]; the credit-window ablation sweeps it).
    credit_window: u64,
    /// Un-credited payload bytes in flight per destination MAC.
    outstanding: BTreeMap<MacAddr, u64>,
    /// Bytes consumed from each source MAC not yet returned as credit.
    pending_credit: BTreeMap<MacAddr, u64>,
    /// Cost of the single completion interrupt per gather.
    completion_interrupt: SimDuration,
    /// Bytes of card memory currently committed (scatter staging +
    /// gather accumulation).
    mem_in_use: u64,
    interrupts_raised: u64,
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
            // configure() resets these from the bitstream.
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

    fn on_configure(&mut self, bitstream: Bitstream, ctx: &mut Ctx) {
        let result = bitstream.check(&self.device);
        if result.is_ok() {
            let rate = bitstream
                .min_rate()
                .unwrap_or(Bandwidth::from_mib_per_sec(300));
            self.xform_send = EngineTimeline::new(rate, SimDuration::ZERO);
            self.xform_recv = EngineTimeline::new(rate, SimDuration::ZERO);
            self.bitstream = Some(bitstream);
        }
        ctx.self_in(self.device.config_time, ConfigDone { result });
    }

    // ---- scatter (send) path ----

    fn on_scatter(&mut self, scatter: InicScatter, ctx: &mut Ctx) {
        {
            let bs = self
                .bitstream
                .as_ref()
                .expect("scatter before configuration");
            assert!(bs.has(OperatorKind::Packetize), "bitstream lacks Packetize");
            match &scatter.kind {
                ScatterKind::TransposeBlocks { m } => assert!(
                    bs.has(OperatorKind::LocalTranspose { m: *m }),
                    "bitstream lacks LocalTranspose{{{m}}}"
                ),
                ScatterKind::BucketKeys { p, splitters } => {
                    assert!(
                        bs.operators().iter().any(|o| matches!(
                            o.kind,
                            OperatorKind::BucketSort { k } if k >= *p
                        )),
                        "bitstream lacks a BucketSort wide enough for P={p}"
                    );
                    if let Some(sp) = splitters {
                        assert_eq!(sp.len() + 1, *p, "need P-1 splitters");
                        assert!(
                            sp.windows(2).all(|w| w[0] <= w[1]),
                            "splitters must be ascending"
                        );
                    }
                }
                ScatterKind::Unicast { parts } => {
                    assert!(!parts.is_empty(), "unicast scatter with no parts");
                    let mut ranks = BTreeSet::new();
                    assert!(
                        parts
                            .iter()
                            .all(|&(q, len)| (q as usize) < scatter.dests.len()
                                && (len > 0 || q != self.my_rank)
                                && ranks.insert(q)),
                        "unicast parts must name distinct in-range ranks, with a payload \
                         for our own"
                    );
                    assert_eq!(
                        parts.iter().map(|&(_, len)| len).sum::<usize>(),
                        scatter.data.len(),
                        "unicast parts must cover the data exactly"
                    );
                }
            }
        }
        // Scatter data is streamed, never resident: only a FIFO's worth
        // of packets occupies card memory at any instant, so no
        // reservation is taken against the device's memory budget.
        // Packets cut from the host buffer view it rather than copy it.
        let InicScatter {
            stream,
            kind,
            data,
            dests,
        } = scatter;
        let data = PayloadView::new(data);
        let p = dests.len();
        let chunks: Vec<(Option<MacAddr>, InicPacket)> = match &kind {
            ScatterKind::TransposeBlocks { m } => {
                self.plan_transpose_scatter(stream, &data, &dests, *m)
            }
            ScatterKind::BucketKeys { p: kp, splitters } => {
                assert_eq!(*kp, p, "bucket fan-out must match dests");
                self.plan_bucket_scatter(stream, &data, &dests, splitters.as_deref())
            }
            ScatterKind::Unicast { parts } => {
                self.plan_unicast_scatter(stream, &data, &dests, parts)
            }
        };
        let n = chunks.len();
        for (i, (dest, pkt)) in chunks.into_iter().enumerate() {
            self.send_queue.push_back(SendChunk {
                dest,
                pkt,
                ends_scatter: i == n - 1,
            });
        }
        self.admit_next_chunk(ctx);
    }

    /// Where a packet for rank `q` goes: `None` loops back through card
    /// memory (our own rank), otherwise the rank's MAC.
    fn route(&self, dests: &[MacAddr], q: usize) -> Option<MacAddr> {
        (q != self.my_rank as usize).then(|| dests[q])
    }

    /// Cut an FFT slab into per-destination transposed blocks.
    fn plan_transpose_scatter(
        &self,
        stream: u32,
        data: &[u8],
        dests: &[MacAddr],
        m: usize,
    ) -> Vec<(Option<MacAddr>, InicPacket)> {
        let p = dests.len();
        let elem = 16;
        let total_elems = data.len() / elem;
        let rows = total_elems / m;
        assert_eq!(rows, m * p, "slab shape inconsistent with dests");
        let slab = bytes_to_slab(data, m, rows);
        let mut out = Vec::new();
        // Destinations in ring-schedule order: start with our own block
        // (it never touches the wire), then (rank+1), (rank+2), …
        for step in 0..p {
            let q = (self.my_rank as usize + step) % p;
            let block = PayloadView::new(slab_to_bytes(&extract_transposed_block(&slab, q)));
            let dest = self.route(dests, q);
            for pkt in packetize_view(self.my_rank, stream, &block) {
                out.push((dest, pkt));
            }
        }
        out
    }

    /// Route keys, in their wire form, to their destination ranks,
    /// emitting each packet as soon as a destination's staging buffer
    /// fills (one-packet threshold).
    fn plan_bucket_scatter(
        &self,
        stream: u32,
        data: &[u8],
        dests: &[MacAddr],
        splitters: Option<&[u32]>,
    ) -> Vec<(Option<MacAddr>, InicPacket)> {
        let p = dests.len();
        assert_eq!(data.len() % 4, 0, "key stream holds a partial key");
        let dest_of = destination_of(p, splitters);
        let mut staging: Vec<Vec<u8>> = (0..p).map(|_| Vec::with_capacity(INIC_PAYLOAD)).collect();
        let mut offsets: Vec<u32> = vec![0; p];
        let mut out = Vec::new();
        let mut emit = |q: usize, bytes: Vec<u8>, fin: bool| {
            let pkt = InicPacket {
                src_rank: self.my_rank,
                stream,
                offset: offsets[q],
                fin,
                credit: false,
                nack: false,
                ack: false,
                busy: false,
                data: PayloadView::new(bytes),
            };
            offsets[q] += pkt.data.len() as u32;
            out.push((self.route(dests, q), pkt));
        };
        for wire in data.chunks_exact(4) {
            let q = dest_of(u32::from_le_bytes(wire.try_into().expect("4-byte key")));
            staging[q].extend_from_slice(wire);
            if staging[q].len() == INIC_PAYLOAD {
                let full = std::mem::replace(&mut staging[q], Vec::with_capacity(INIC_PAYLOAD));
                emit(q, full, false);
            }
        }
        // Flush every destination with a fin packet (possibly empty) so
        // receivers learn the totals.
        for (q, rest) in staging.into_iter().enumerate() {
            emit(q, rest, true);
        }
        out
    }

    /// Cut host-prepared per-destination parts into packets in listed
    /// order, without any transform. A zero-length part is one empty fin
    /// packet, so the final chunk — and with it the `InicScatterDone` —
    /// always exists.
    fn plan_unicast_scatter(
        &self,
        stream: u32,
        data: &PayloadView,
        dests: &[MacAddr],
        parts: &[(u32, usize)],
    ) -> Vec<(Option<MacAddr>, InicPacket)> {
        let mut out = Vec::new();
        let mut offset = 0usize;
        for &(q, len) in parts {
            let segment = data.subview(offset, offset + len);
            offset += len;
            let dest = self.route(dests, q as usize);
            for pkt in packetize_view(self.my_rank, stream, &segment) {
                out.push((dest, pkt));
            }
        }
        assert_eq!(offset, data.len(), "unicast parts did not consume data");
        out
    }

    fn admit_next_chunk(&mut self, ctx: &mut Ctx) {
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
            // Chunks aimed at a dead peer or belonging to an aborted
            // collective are dropped here instead of holding a window
            // that can never reopen.
            let doomed = {
                let chunk = self.send_queue.front().expect("scanned < len");
                self.canceled.contains(&chunk.pkt.stream)
                    || chunk.dest.is_some_and(|mac| self.dead_peers.contains(&mac))
            };
            if doomed {
                let chunk = self.send_queue.pop_front().expect("checked");
                ctx.stats()
                    .counter(&self.label, "chunks_dropped_dead")
                    .inc();
                if chunk.ends_scatter {
                    let stream = chunk.pkt.stream;
                    ctx.send_now(self.app, InicScatterDone { stream });
                }
                total -= 1;
                continue;
            }
            let admissible = {
                let chunk = self.send_queue.front().expect("scanned < len");
                match chunk.dest {
                    None => true,
                    Some(mac) => {
                        let inflight = self.outstanding.get(&mac).copied().unwrap_or(0);
                        inflight + chunk.pkt.data.len() as u64 <= self.credit_window
                    }
                }
            };
            if admissible {
                let chunk = self.send_queue.front().expect("checked");
                if let Some(mac) = chunk.dest {
                    let inflight = self.outstanding.entry(mac).or_insert(0);
                    *inflight += chunk.pkt.data.len() as u64;
                    if self.reliability {
                        let v = *inflight as f64;
                        ctx.stats().gauge(&self.label, "outstanding_bytes").set(v);
                    }
                }
                let bytes = DataSize::from_bytes((chunk.pkt.data.len() + INIC_HEADER) as u64);
                self.host_in_busy = true;
                let t1 = self.ports.host_in(ctx.now(), bytes);
                let t2 = self.xform_send.reserve(t1, bytes);
                ctx.self_in(t2.since(ctx.now()), ChunkStaged);
                return;
            }
            let blocked = self.send_queue.pop_front().expect("checked");
            self.send_queue.push_back(blocked);
            scanned += 1;
        }
        // Every queued destination is window-blocked; a returning
        // credit will re-run admission.
    }

    fn on_chunk_staged(&mut self, ctx: &mut Ctx) {
        self.host_in_busy = false;
        let chunk = self
            .send_queue
            .pop_front()
            .expect("ChunkStaged with empty queue");
        // The destination died (or the collective was aborted) while
        // this chunk crossed host→card DMA: return its window charge
        // and drop it on the floor.
        if self.canceled.contains(&chunk.pkt.stream)
            || chunk.dest.is_some_and(|mac| self.dead_peers.contains(&mac))
        {
            if let Some(mac) = chunk.dest {
                let entry = self.outstanding.entry(mac).or_insert(0);
                *entry = entry.saturating_sub(chunk.pkt.data.len() as u64);
            }
            ctx.stats()
                .counter(&self.label, "chunks_dropped_dead")
                .inc();
            if chunk.ends_scatter {
                let stream = chunk.pkt.stream;
                ctx.send_now(self.app, InicScatterDone { stream });
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
            ..
        } = chunk;
        let stream = pkt.stream;
        let bytes = DataSize::from_bytes((pkt.data.len() + INIC_HEADER) as u64);
        match dest {
            Some(mac) => {
                let t3 = self.ports.net_out(ctx.now(), bytes);
                let frame = Frame::try_new(self.mac, mac, EtherType::Inic, pkt.encode())
                    .unwrap_or_else(|e| panic!("{}: tx packet exceeds MTU ({e})", self.label));
                ctx.self_in(t3.since(ctx.now()), EmitFrame { frame });
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
                        entry.gen += 1;
                        let timer = RetransTimer {
                            dest: mac,
                            stream,
                            gen: entry.gen,
                        };
                        let timeout = entry.timeout;
                        ctx.self_in(timeout, timer);
                    }
                }
                if ends_scatter {
                    ctx.send_in(t3.since(ctx.now()), self.app, InicScatterDone { stream });
                }
            }
            None => {
                // Local loopback: pass straight to the receive transform.
                let t3 = self.xform_recv.reserve(ctx.now(), bytes);
                ctx.self_in(t3.since(ctx.now()), RecvProcessed { pkt, src_mac: None });
                if ends_scatter {
                    ctx.send_in(t3.since(ctx.now()), self.app, InicScatterDone { stream });
                }
            }
        }
    }

    // ---- gather (receive) path ----

    fn on_expect(&mut self, expect: InicExpect, ctx: &mut Ctx) {
        let bs = self
            .bitstream
            .as_ref()
            .expect("expect before configuration");
        match expect.kind {
            GatherKind::InterleaveBlocks { m, rows } => {
                assert!(
                    bs.has(OperatorKind::InterleaveBlocks { m }),
                    "bitstream lacks InterleaveBlocks{{{m}}}"
                );
                // The full output slab accumulates in card memory.
                self.reserve_memory((m * rows * 16) as u64);
            }
            GatherKind::BucketKeys { k } => {
                assert!(
                    bs.has(OperatorKind::BucketSort { k }),
                    "bitstream lacks BucketSort{{{k}}}"
                );
            }
            GatherKind::Raw => {
                // Pure protocol processing; any datapath can pass data
                // through.
            }
            GatherKind::ReduceF64 { elems } => {
                assert!(bs.has(OperatorKind::ReduceSum), "bitstream lacks ReduceSum");
                // The accumulator vector lives in card memory.
                self.reserve_memory(elems as u64 * 8);
            }
        }
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
                self.replay_recv(pkt, src_mac, ctx);
            }
        }
    }

    fn on_frame(&mut self, frame: Frame, ctx: &mut Ctx) {
        debug_assert_eq!(frame.ethertype, EtherType::Inic);
        let bytes = DataSize::from_bytes(frame.payload.len() as u64);
        let t1 = self.ports.net_in(ctx.now(), bytes);
        let t2 = self.xform_recv.reserve(t1, bytes);
        let pkt = match InicPacket::decode(&frame.payload) {
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
        ctx.self_in(t2.since(ctx.now()), RecvProcessed { pkt, src_mac });
    }

    fn on_recv_processed(&mut self, pkt: InicPacket, src_mac: Option<MacAddr>, ctx: &mut Ctx) {
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
                    .counter(&self.label, "credit_bytes_consumed")
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
            let pending = self.pending_credit.entry(mac).or_insert(0);
            *pending += pkt.data.len() as u64;
            if *pending >= self.credit_window / 4 || pkt.fin {
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
    /// bucket/raw gathers, stream reassembly, recovery control traffic,
    /// and completion.
    fn accept_into_gather(&mut self, pkt: InicPacket, src_mac: Option<MacAddr>, ctx: &mut Ctx) {
        let stream = pkt.stream;
        if self.reliability {
            ctx.stats()
                .counter(&self.label, "gather_bytes_in")
                .add(pkt.data.len() as u64);
        }
        let gather = self.gathers.get_mut(&stream).expect("gather announced");
        // Bucket gathers trickle data to the host in DMA_THRESHOLD
        // pieces as it accumulates (Eq. 15); interleave gathers hold
        // everything on the card until complete (Eq. 9).
        if matches!(gather.kind, GatherKind::BucketKeys { .. } | GatherKind::Raw) {
            gather.undma += pkt.data.len() as u64;
            let mut dma_pieces = 0u64;
            while gather.undma >= DMA_THRESHOLD {
                gather.undma -= DMA_THRESHOLD;
                dma_pieces += 1;
            }
            for _ in 0..dma_pieces {
                let end = self
                    .ports
                    .host_out(ctx.now(), DataSize::from_bytes(DMA_THRESHOLD));
                let g = self.gathers.get_mut(&stream).expect("still present");
                if end > g.dma_done_at {
                    g.dma_done_at = end;
                }
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
    fn finish_gather(&mut self, stream: u32, ctx: &mut Ctx) {
        let (kind, undma, total_bytes) = {
            let g = &self.gathers[&stream];
            let total: usize = g.done.iter().map(|(_, d)| d.len()).sum();
            (g.kind, g.undma, total as u64)
        };
        let tail = match kind {
            // Interleave: the whole slab crosses to the host now, in
            // efficient DMA-threshold pieces.
            GatherKind::InterleaveBlocks { .. } => total_bytes,
            // Bucket/raw: only the sub-threshold remainder is left.
            GatherKind::BucketKeys { .. } | GatherKind::Raw => undma,
            // Reduce: only the reduced vector crosses to the host.
            GatherKind::ReduceF64 { elems } => elems as u64 * 8,
        };
        let mut last = ctx.now();
        let mut left = tail;
        while left > 0 {
            let piece = left.min(DMA_THRESHOLD);
            last = self.ports.host_out(ctx.now(), DataSize::from_bytes(piece));
            left -= piece;
        }
        let g = self.gathers.get_mut(&stream).expect("present");
        if last > g.dma_done_at {
            g.dma_done_at = last;
        }
        let delay = g.dma_done_at.saturating_since(ctx.now()) + self.completion_interrupt;
        ctx.self_in(delay, GatherDmaDone { stream });
    }

    fn on_gather_dma_done(&mut self, stream: u32, ctx: &mut Ctx) {
        // The gather may have been canceled (aborted collective) while
        // the final DMA was in flight; nothing left to deliver.
        let Some(mut gather) = self.gathers.remove(&stream) else {
            return;
        };
        self.interrupts_raised += 1;
        ctx.stats()
            .counter(&self.label, "completion_interrupts")
            .inc();
        // Deterministic assembly order: by source rank.
        gather.done.sort_by_key(|&(src, _)| src);
        let mut padded_bytes = 0u64;
        let (data, bucket_bounds) = match gather.kind {
            GatherKind::InterleaveBlocks { m, rows } => {
                let mut out = acc_algos::fft::Matrix::zeros(m, rows);
                for (src, bytes) in &gather.done {
                    let block = bytes_to_slab(bytes, m, m);
                    interleave_block(&mut out, *src as usize, &block);
                }
                self.release_memory((m * rows * 16) as u64);
                // The assembly is fixed-size: regions of sources that
                // never arrived (dead peers whose blocks travel the
                // mixed-technology TCP path instead, for the host to
                // patch) leave zero-filled holes the datapath emits
                // without having received — account for them so the
                // conservation audit stays exact.
                let received: usize = gather.done.iter().map(|(_, b)| b.len()).sum();
                padded_bytes = (m * rows * 16).saturating_sub(received) as u64;
                (slab_to_bytes(&out), None)
            }
            GatherKind::BucketKeys { k } => {
                // Keys grouped into the card's k buckets, preserving
                // (src-rank, arrival) order within each bucket.
                let shift = bucket_shift(k);
                let keys = gather.done.iter().flat_map(|(src, bytes)| {
                    assert_eq!(bytes.len() % 4, 0, "source {src} sent a partial key");
                    bytes
                        .chunks_exact(4)
                        .map(|c| <[u8; 4]>::try_from(c).expect("4-byte key"))
                });
                let (flat, ends) =
                    bucket_flat(keys, k, |key| (u32::from_le_bytes(key) >> shift) as usize);
                let bounds = ends.iter().map(|&end| end * 4).collect();
                (flat.into_flattened(), Some(bounds))
            }
            GatherKind::Raw => {
                // Per-source concatenation (already sorted by rank),
                // with per-source end offsets in the bounds. A single
                // source's stream is handed over as assembled.
                let mut bounds = Vec::with_capacity(gather.done.len());
                let flat = if gather.done.len() == 1 {
                    let (_src, bytes) = gather.done.pop().expect("one source");
                    bounds.push(bytes.len());
                    bytes
                } else {
                    let total = gather.done.iter().map(|(_, b)| b.len()).sum();
                    let mut flat = Vec::with_capacity(total);
                    for (_src, bytes) in &gather.done {
                        flat.extend_from_slice(bytes);
                        bounds.push(flat.len());
                    }
                    flat
                };
                (flat, Some(bounds))
            }
            GatherKind::ReduceF64 { elems } => {
                let mut acc = vec![0.0f64; elems];
                for (src, bytes) in &gather.done {
                    assert_eq!(
                        bytes.len(),
                        elems * 8,
                        "source {src} vector length mismatch"
                    );
                    for (i, chunk) in bytes.chunks_exact(8).enumerate() {
                        acc[i] += f64::from_le_bytes(chunk.try_into().expect("8 bytes"));
                    }
                }
                self.release_memory(elems as u64 * 8);
                let mut out = vec![0u8; elems * 8];
                for (chunk, v) in out.chunks_exact_mut(8).zip(&acc) {
                    chunk.copy_from_slice(&v.to_le_bytes());
                }
                (out, None)
            }
        };
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
        ctx.send_now(
            self.app,
            InicGatherComplete {
                stream,
                data,
                bucket_bounds,
            },
        );
    }

    /// Emit a zero-data credit packet to `mac` re-granting `amount`
    /// consumed bytes. Credits ride the normal net-out path (they cost
    /// a minimum-size frame of wire time).
    fn send_credit(&mut self, mac: MacAddr, stream: u32, amount: u64, ctx: &mut Ctx) {
        if self.reliability {
            ctx.stats()
                .counter(&self.label, "credit_bytes_granted")
                .add(amount);
        }
        let pkt = InicPacket::credit_grant(self.my_rank, stream, amount as u32);
        self.send_control(mac, pkt, ctx);
    }

    /// Receiver → sender: the whole stream arrived and was consumed.
    fn send_ack(&mut self, mac: MacAddr, stream: u32, ctx: &mut Ctx) {
        ctx.stats().counter(&self.label, "acks_sent").inc();
        let pkt = InicPacket::stream_ack(self.my_rank, stream);
        self.send_control(mac, pkt, ctx);
    }

    /// Receiver → sender: the stream has a hole at `missing`; resend it.
    fn send_nack(&mut self, mac: MacAddr, stream: u32, missing: u32, ctx: &mut Ctx) {
        ctx.stats().counter(&self.label, "nacks_sent").inc();
        let pkt = InicPacket::repair_nack(self.my_rank, stream, missing);
        self.send_control(mac, pkt, ctx);
    }

    /// Emit a zero-data control packet over the normal net-out path
    /// (it costs a minimum-size frame of wire time).
    fn send_control(&mut self, mac: MacAddr, pkt: InicPacket, ctx: &mut Ctx) {
        let bytes = DataSize::from_bytes(INIC_HEADER as u64);
        let t = self.ports.net_out(ctx.now(), bytes);
        let frame = Frame::try_new(self.mac, mac, EtherType::Inic, pkt.encode())
            .unwrap_or_else(|e| panic!("{}: control packet exceeds MTU ({e})", self.label));
        ctx.self_in(t.since(ctx.now()), EmitFrame { frame });
    }

    // ---- loss recovery (sender side) ----

    /// Resend one still-pending packet in response to a NACK.
    /// Retransmissions bypass host DMA and the send transform (the
    /// packet lives in card memory) but pay the net-out engine.
    fn resend_one(&mut self, mac: MacAddr, stream: u32, offset: u32, ctx: &mut Ctx) {
        let Some(pkt) = self
            .tx_window
            .get(&(mac, stream))
            .and_then(|e| e.pending.get(&offset))
            .cloned()
        else {
            // Already abandoned (or a stale NACK for an ACKed stream).
            return;
        };
        self.retransmits += 1;
        ctx.stats().counter(&self.label, "retransmits").inc();
        let bytes = DataSize::from_bytes((pkt.data.len() + INIC_HEADER) as u64);
        let t = self.ports.net_out(ctx.now(), bytes);
        let frame = Frame::try_new(self.mac, mac, EtherType::Inic, pkt.encode())
            .unwrap_or_else(|e| panic!("{}: resend packet exceeds MTU ({e})", self.label));
        ctx.self_in(t.since(ctx.now()), EmitFrame { frame });
    }

    /// Timeout for one `(dest, stream)` window. Credit arrivals from
    /// the destination during the interval mean the peer is alive and
    /// consuming — re-arm without penalty. A genuinely silent interval
    /// means the tail of the stream (or the peer's ACK) was lost: blast
    /// every un-ACKed packet back out with doubled timeout, and give
    /// the destination up for dead after [`MAX_RETRIES`] silent rounds
    /// so the rest of the schedule can still drain.
    fn on_retrans_timer(&mut self, dest: MacAddr, stream: u32, gen: u64, ctx: &mut Ctx) {
        let label = self.label.clone();
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
            entry.gen += 1;
            let timer = RetransTimer {
                dest,
                stream,
                gen: entry.gen,
            };
            let timeout = entry.timeout;
            ctx.self_in(timeout, timer);
            return;
        }
        // The peer announced a reconfiguration hold covering this
        // instant: it is alive but dark, so its silence is not evidence
        // of death. Wait out the window without burning a retry or
        // blasting packets it would only buffer.
        if let Some(&busy) = self.busy_until.get(&dest) {
            if ctx.now() < busy {
                entry.gen += 1;
                let timer = RetransTimer {
                    dest,
                    stream,
                    gen: entry.gen,
                };
                let wait = busy.since(ctx.now()) + entry.timeout;
                ctx.self_in(wait, timer);
                ctx.stats().counter(&label, "reconfig_waits").inc();
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
            ctx.stats().counter(&label, "retrans_abandoned").inc();
            self.admit_next_chunk(ctx);
            return;
        }
        entry.timeout = entry.timeout * 2;
        entry.gen += 1;
        let timer = RetransTimer {
            dest,
            stream,
            gen: entry.gen,
        };
        let timeout = entry.timeout;
        let pkts: Vec<InicPacket> = entry.pending.values().cloned().collect();
        ctx.self_in(timeout, timer);
        for pkt in pkts {
            self.retransmits += 1;
            ctx.stats().counter(&label, "retransmits").inc();
            let bytes = DataSize::from_bytes((pkt.data.len() + INIC_HEADER) as u64);
            let t = self.ports.net_out(ctx.now(), bytes);
            let frame = Frame::try_new(self.mac, dest, EtherType::Inic, pkt.encode())
                .unwrap_or_else(|e| panic!("{label}: retransmit exceeds MTU ({e})"));
            ctx.self_in(t.since(ctx.now()), EmitFrame { frame });
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
    fn on_reconfigure(&mut self, hold: SimDuration, ctx: &mut Ctx) {
        let until = ctx.now() + hold;
        if self.dark_until.is_none_or(|t| until > t) {
            self.dark_until = Some(until);
        }
        ctx.self_in(hold, ReconfigDone);
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
            self.send_control(mac, pkt, ctx);
        }
    }

    /// A hold elapsed. A later (overlapping) reconfigure may have
    /// pushed `dark_until` out; only the final wake-up counts.
    fn on_reconfig_done(&mut self, ctx: &mut Ctx) {
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
    fn on_recover(&mut self, dead: MacAddr, abort_stream: Option<u32>, ctx: &mut Ctx) {
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
            if let Some(g) = self.gathers.remove(&stream) {
                match g.kind {
                    GatherKind::InterleaveBlocks { m, rows } => {
                        self.release_memory((m * rows * 16) as u64);
                    }
                    GatherKind::ReduceF64 { elems } => {
                        self.release_memory(elems as u64 * 8);
                    }
                    GatherKind::BucketKeys { .. } | GatherKind::Raw => {}
                }
            }
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
    fn on_emit_frame(&mut self, frame: Frame, ctx: &mut Ctx) {
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

    /// Re-deliver an early-buffered data packet to its (now announced)
    /// gather, skipping the credit bookkeeping already done on arrival.
    fn replay_recv(&mut self, pkt: InicPacket, src_mac: Option<MacAddr>, ctx: &mut Ctx) {
        debug_assert!(!pkt.is_control());
        let stream = pkt.stream;
        assert!(
            self.gathers.contains_key(&stream),
            "replay into missing gather"
        );
        self.accept_into_gather(pkt, src_mac, ctx);
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

    fn release_memory(&mut self, bytes: u64) {
        self.mem_in_use = self.mem_in_use.saturating_sub(bytes);
    }
}

impl Component for InicCard {
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        if ev.downcast_ref::<InicKill>().is_some() {
            self.dead = true;
            ctx.stats().counter(&self.label, "card_killed").inc();
            return;
        }
        // A dead card swallows everything: frames rot on the wire,
        // timers fire into the void, the driver hears nothing. Recovery
        // happens above (peer retry abandonment, host fallback).
        if self.dead {
            return;
        }
        // Unwrap events that were parked during a reconfiguration hold
        // (they re-enter the full dispatch below — and are re-parked if
        // a second overlapping hold extended the window).
        let ev = match ev.downcast::<DarkDeferred>() {
            Ok(deferred) => deferred.0,
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<ReconfigDone>() {
            Ok(_) => return self.on_reconfig_done(ctx),
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<InicReconfigure>() {
            Ok(r) => return self.on_reconfigure(r.hold, ctx),
            Err(ev) => ev,
        };
        if self.is_dark(ctx.now()) {
            // The MAC keeps draining frames the datapath staged before
            // the hold began; everything else waits for the light.
            let ev = match ev.downcast::<EmitFrame>() {
                Ok(emit) => return self.on_emit_frame(emit.frame, ctx),
                Err(ev) => ev,
            };
            let ev = match ev.downcast::<PortTxDone>() {
                Ok(_) => return self.uplink.tx_done(ctx),
                Err(ev) => ev,
            };
            let wake = self.dark_until.expect("dark").saturating_since(ctx.now());
            ctx.stats().counter(&self.label, "dark_deferrals").inc();
            ctx.self_in(wake, DarkDeferred(ev));
            return;
        }
        let ev = match ev.downcast::<InicRecover>() {
            Ok(r) => return self.on_recover(r.dead, r.abort_stream, ctx),
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<InicConfigure>() {
            Ok(cfg) => return self.on_configure(cfg.bitstream, ctx),
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<ConfigDone>() {
            Ok(done) => {
                let app = self.app;
                ctx.send_now(
                    app,
                    InicConfigured {
                        result: done.result,
                    },
                );
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<InicScatter>() {
            Ok(s) => return self.on_scatter(*s, ctx),
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<InicExpect>() {
            Ok(e) => return self.on_expect(*e, ctx),
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<ChunkStaged>() {
            Ok(_) => return self.on_chunk_staged(ctx),
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<EmitFrame>() {
            Ok(emit) => return self.on_emit_frame(emit.frame, ctx),
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<FrameArrival>() {
            Ok(arr) => return self.on_frame(arr.frame, ctx),
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<RecvProcessed>() {
            Ok(r) => return self.on_recv_processed(r.pkt, r.src_mac, ctx),
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<PortTxDone>() {
            Ok(_) => return self.uplink.tx_done(ctx),
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<RetransTimer>() {
            Ok(t) => return self.on_retrans_timer(t.dest, t.stream, t.gen, ctx),
            Err(ev) => ev,
        };
        match ev.downcast::<GatherDmaDone>() {
            Ok(d) => self.on_gather_dma_done(d.stream, ctx),
            Err(_) => panic!("inic {}: unknown event", self.label),
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
