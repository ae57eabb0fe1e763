//! The per-node integer-sort driver — Section 3.2 on every network
//! technology.
//!
//! Pipeline: bucket the local keys by destination rank, exchange
//! (bucket `i` goes to rank `i`), bucket the received keys into
//! cache-sized buckets, count-sort every bucket. Where each step runs
//! depends on the technology:
//!
//! * **commodity NIC** (Fig. 3(a)): both bucket passes on the host CPU;
//!   TCP carries length-prefixed key streams.
//! * **ideal INIC** (Fig. 3(b)): both bucket passes in the card
//!   datapath; the host only count-sorts cache-resident buckets.
//! * **prototype INIC** (Fig. 7): the 4085XLA only fits a 16-bucket
//!   sorter, so the card delivers 16 coarse buckets and the host runs a
//!   second bucket pass before count-sorting — "surprisingly, this can
//!   provide higher performance than having the host sort directly into
//!   16 × N buckets".
//!
//! Stalls, failovers and resumes run through the failover core the
//! drivers share (`failover.rs`). Under rank-local recovery a dead
//! rank degrades to [`SortVariant::HostOnly`] over its fallback NIC
//! while healthy ranks keep the card, carrying the dead ranks' buckets
//! as length-prefixed TCP side streams next to the card exchange. The
//! post-exchange state can be checkpointed so a later failure resumes
//! from the exchange instead of re-running it.

use std::any::Any;
use std::collections::BTreeMap;

use acc_algos::sort::{
    bucket_flat, bucket_sort_flat, bytes_to_keys, count_sort_buckets, destination_of, is_sorted,
    keys_to_bytes,
};
use acc_fpga::{
    Bitstream, GatherKind, InicExpect, InicGatherComplete, InicMode, InicScatter, InicScatterDone,
    ScatterKind,
};
use acc_host::HostKernels;
use acc_proto::{TcpDelivered, TcpSend};
use acc_sim::{Component, Ctx, DataSize, SimDuration, SimTime};

use super::failover::{self, Failover, Recoverable};
use super::{recv_buckets_for, Attachment, FaultCtl};

/// How the receive-side bucketing is split between card and host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SortVariant {
    /// Commodity NIC: host does everything.
    HostOnly,
    /// Ideal INIC: card buckets straight into the final `N` buckets.
    InicFull,
    /// Prototype INIC: card buckets into 16; host re-buckets into `N`.
    InicTwoPhase,
    /// INIC as a pure protocol processor: host does both bucket passes,
    /// the card only carries the lightweight protocol (mode ablation).
    ProtocolOnly,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Init,
    /// Host phase-1 bucket charge running (commodity only).
    Bucket1,
    /// Keys in flight.
    Exchange,
    /// Host phase-2 bucket charge running.
    Bucket2,
    /// Count-sort charge running.
    Count,
    Done,
}

/// Snapshot of the post-exchange state, captured under
/// `RecoveryPolicy::Checkpointed` so a later card failure resumes
/// from the exchange instead of re-running it.
#[derive(Clone)]
struct ExchangeCkpt {
    /// Card gather result (INIC variants).
    card: Option<(Vec<u8>, Vec<usize>)>,
    /// Keys received over TCP.
    tcp: Vec<u32>,
    /// The variant the exchange ran under — the data layout to resume
    /// with, even if this rank degraded afterwards (the remaining
    /// phases are pure host compute).
    variant: SortVariant,
}

/// Timing decomposition of one node's run.
#[derive(Clone, Debug, Default)]
pub struct SortTimings {
    /// Host phase-1 bucket time (zero on INIC paths).
    pub bucket1: SimDuration,
    /// Exchange wall time (first send to all-received).
    pub comm: SimDuration,
    /// Host phase-2 bucket time (zero on the ideal INIC path).
    pub bucket2: SimDuration,
    /// Final count-sort time.
    pub count: SimDuration,
    /// Absolute completion instant.
    pub done_at: Option<SimTime>,
    /// Absolute start instant (post-configuration).
    pub started_at: Option<SimTime>,
}

/// The per-node integer-sort driver.
pub struct SortDriver {
    /// Network attachment and failover state.
    fo: Failover,
    p: usize,
    variant: SortVariant,
    kernels: HostKernels,
    keys: Vec<u32>,
    /// Optional range splitters for the destination partitioning (the
    /// pre-sort sampling extension for skewed keys); `None` = the
    /// paper's top-bits partitioning.
    splitters: Option<Vec<u32>>,
    /// Final cache-sized bucket count `N`.
    recv_buckets: usize,
    phase: Phase,
    phase_entered: SimTime,
    /// TCP receive reassembly: raw bytes per (src rank, channel). The
    /// channel namespaces the exchange by epoch, so bytes from an
    /// aborted attempt never leak into the restarted one.
    rx: BTreeMap<(usize, u16), Vec<u8>>,
    /// Keys received over TCP, parsed once each stream's length prefix
    /// is satisfied: the whole commodity exchange (our own bucket
    /// included), or on an INIC rank the mixed-technology side streams
    /// from degraded peers, carried next to the card exchange.
    tcp_keys: Vec<u32>,
    streams_pending: usize,
    /// Mixed-technology exchange: TCP side streams still outstanding.
    tcp_pending: usize,
    /// INIC gather result (16 or N card buckets, concatenated).
    card_bucket_data: Option<(Vec<u8>, Vec<usize>)>,
    sorted: Vec<u32>,
    /// Post-exchange checkpoint, when armed and captured.
    ckpt1: Option<ExchangeCkpt>,
    /// Timing decomposition.
    pub timings: SortTimings,
}

impl SortDriver {
    /// Build a driver holding this rank's initial keys.
    pub fn new(
        rank: usize,
        p: usize,
        keys: Vec<u32>,
        variant: SortVariant,
        attachment: Attachment,
        kernels: HostKernels,
    ) -> SortDriver {
        let recv_buckets = recv_buckets_for(keys.len() as u64);
        SortDriver {
            fo: Failover::new(format!("sort-driver{rank}"), rank, attachment),
            p,
            variant,
            kernels,
            keys,
            splitters: None,
            recv_buckets,
            phase: Phase::Init,
            phase_entered: SimTime::ZERO,
            rx: BTreeMap::new(),
            tcp_keys: Vec::new(),
            streams_pending: 0,
            tcp_pending: 0,
            card_bucket_data: None,
            sorted: Vec::new(),
            ckpt1: None,
            timings: SortTimings::default(),
        }
    }

    /// Use sampled range splitters instead of top-bits partitioning
    /// (builder style; must be the same table on every rank).
    #[must_use]
    pub fn with_splitters(mut self, splitters: Vec<u32>) -> SortDriver {
        assert_eq!(splitters.len() + 1, self.p, "need P-1 splitters");
        self.splitters = Some(splitters);
        self
    }

    /// Attach fault-handling configuration (builder style).
    #[must_use]
    pub fn with_fault_ctl(mut self, ctl: FaultCtl) -> SortDriver {
        self.fo.ctl = ctl;
        self
    }

    /// Distribute this node's keys to their destination ranks using the
    /// active partitioning (top bits or splitters): the keys grouped by
    /// destination, with each destination's end offset.
    fn partition_keys(&self) -> (Vec<u32>, Vec<usize>) {
        let dest_of = destination_of(self.p, self.splitters.as_deref());
        bucket_flat(self.keys.iter().copied(), self.p, dest_of)
    }

    /// This rank's sorted key range, available when done.
    pub fn result(&self) -> &[u32] {
        assert_eq!(self.phase, Phase::Done, "driver not finished");
        &self.sorted
    }

    /// Phase name for liveness attribution.
    fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Init => "init",
            Phase::Bucket1 => "bucket1",
            Phase::Exchange => "exchange",
            Phase::Bucket2 => "bucket2",
            Phase::Count => "count",
            Phase::Done => "done",
        }
    }

    fn local_bytes(&self) -> DataSize {
        DataSize::from_bytes(self.keys.len() as u64 * 4)
    }

    /// INIC stream id for the exchange, namespaced by epoch so a
    /// restarted exchange never collides with the aborted one's demux
    /// state (epoch 0 keeps the historical id 1).
    fn stream(&self) -> u32 {
        (self.fo.epoch as u32) * 8 + 1
    }

    /// TCP channel for the exchange, namespaced like [`stream`].
    fn chan(&self) -> u16 {
        (self.fo.epoch as u16) * 4 + 1
    }

    /// Capture the post-exchange checkpoint (called at exchange
    /// completion, before any phase consumes the buffers).
    fn capture_ckpt(&mut self) {
        if !self.fo.ckpt_armed() {
            return;
        }
        self.ckpt1 = Some(ExchangeCkpt {
            card: self.card_bucket_data.clone(),
            tcp: self.tcp_keys.clone(),
            variant: self.variant,
        });
    }

    // ---- start ----

    /// Phase 1, partitioning the keys by destination rank: a host
    /// bucket pass on the commodity and protocol-only paths, the card's
    /// datapath (straight into the exchange) on the INIC paths.
    fn begin_partition(&mut self, ctx: &mut Ctx) {
        // A failover restart keeps the original start instant: the cost
        // of the aborted attempt is part of the degraded run's time.
        if self.timings.started_at.is_none() {
            self.timings.started_at = Some(ctx.now());
        }
        self.streams_pending = self.p - 1;
        match self.variant {
            SortVariant::HostOnly | SortVariant::ProtocolOnly => {
                self.phase = Phase::Bucket1;
                self.phase_entered = ctx.now();
                let charge = self
                    .kernels
                    .bucket_sort_time(self.keys.len() as u64, self.local_bytes());
                self.fo.compute(charge, ctx);
            }
            SortVariant::InicFull | SortVariant::InicTwoPhase => {
                // Card does phase 1; hand the raw keys straight over.
                self.phase = Phase::Exchange;
                self.phase_entered = ctx.now();
                let Attachment::Inic {
                    card,
                    macs,
                    fallback,
                    ..
                } = &self.fo.attachment
                else {
                    panic!("INIC variant without INIC attachment");
                };
                let card = *card;
                let macs = macs.clone();
                let fallback = fallback.clone();
                let k = self.card_recv_buckets();
                let dead = self.fo.dead.clone();
                let stream = self.stream();
                ctx.send_now(
                    card,
                    InicExpect {
                        stream,
                        kind: GatherKind::BucketKeys { k },
                        sources: (0..self.p as u32)
                            .filter(|s| !dead.contains(&(*s as usize)))
                            .map(|s| (s, None))
                            .collect(),
                    },
                );
                ctx.send_now(
                    card,
                    InicScatter {
                        stream,
                        kind: ScatterKind::BucketKeys {
                            p: self.p,
                            splitters: self.splitters.clone(),
                        },
                        data: keys_to_bytes(&self.keys),
                        dests: macs,
                    },
                );
                // Mixed-technology side streams: the card drops chunks
                // destined to dead peers, so the host carries those
                // buckets over the fallback TCP path instead.
                self.tcp_pending = dead.len();
                if !dead.is_empty() {
                    let (fb_nic, fb_macs) =
                        fallback.expect("rank-local degradation needs a fallback path");
                    let chan = self.chan();
                    let (keys, ends) = self.partition_keys();
                    for &d in &dead {
                        ctx.send_now(
                            fb_nic,
                            TcpSend {
                                peer: fb_macs[d],
                                chan,
                                data: length_prefixed(part(&keys, &ends, d)),
                            },
                        );
                    }
                    // Streams the degraded peers sent while this rank
                    // was still paused are already buffered; consume
                    // them now — no further delivery will re-trigger
                    // the parse.
                    for &d in &dead {
                        if self.take_complete_stream(d, chan) {
                            self.tcp_pending -= 1;
                        }
                    }
                }
            }
        }
    }

    /// On-card receive bucket count: the final N on the ideal card, 16
    /// on the prototype.
    fn card_recv_buckets(&self) -> usize {
        match self.variant {
            SortVariant::InicFull => self.recv_buckets,
            SortVariant::InicTwoPhase => 16,
            SortVariant::HostOnly | SortVariant::ProtocolOnly => unreachable!(),
        }
    }

    // ---- commodity path ----

    fn on_bucket1_done(&mut self, ctx: &mut Ctx) {
        self.timings.bucket1 += ctx.now().since(self.phase_entered);
        self.phase = Phase::Exchange;
        self.phase_entered = ctx.now();
        if self.variant == SortVariant::ProtocolOnly {
            return self.raw_exchange_via_card(ctx);
        }
        let Attachment::Tcp { nic, macs } = &self.fo.attachment else {
            panic!("HostOnly variant without TCP attachment");
        };
        let nic = *nic;
        let macs = macs.clone();
        let chan = self.chan();
        let (keys, ends) = self.partition_keys();
        for step in 1..self.p {
            let q = (self.fo.rank + step) % self.p;
            ctx.send_now(
                nic,
                TcpSend {
                    peer: macs[q],
                    chan,
                    data: length_prefixed(part(&keys, &ends, q)),
                },
            );
        }
        // Our own bucket stays home.
        self.tcp_keys
            .extend_from_slice(part(&keys, &ends, self.fo.rank));
        self.check_exchange_complete(ctx);
    }

    /// Protocol-processor path: host-bucketed parts ride the card's
    /// lightweight protocol.
    fn raw_exchange_via_card(&mut self, ctx: &mut Ctx) {
        let Attachment::Inic {
            card, macs, mode, ..
        } = &self.fo.attachment
        else {
            panic!("ProtocolOnly variant without INIC attachment");
        };
        debug_assert_eq!(*mode, InicMode::ProtocolProcessor);
        let card = *card;
        let macs = macs.clone();
        let stream = self.stream();
        let (keys, ends) = self.partition_keys();
        let mut parts = vec![0usize; self.p];
        let mut data = Vec::with_capacity(self.keys.len() * 4);
        for step in 0..self.p {
            let q = (self.fo.rank + step) % self.p;
            let to_q = part(&keys, &ends, q);
            parts[q] = to_q.len() * 4;
            data.extend_from_slice(&keys_to_bytes(to_q));
        }
        ctx.send_now(
            card,
            InicExpect {
                stream,
                kind: GatherKind::Raw,
                sources: (0..self.p as u32).map(|s| (s, None)).collect(),
            },
        );
        ctx.send_now(
            card,
            InicScatter {
                stream,
                kind: ScatterKind::Raw { parts },
                data,
                dests: macs,
            },
        );
    }

    /// Pop the buffered stream from `(src, chan)` into `tcp_keys` if it
    /// is complete (8-byte length prefix + body); whether it was.
    fn take_complete_stream(&mut self, src: usize, chan: u16) -> bool {
        let Some(buf) = self.rx.get(&(src, chan)).filter(|buf| buf.len() >= 8) else {
            return false;
        };
        let want = usize::try_from(u64::from_le_bytes(
            buf[..8]
                .try_into()
                .expect("sort stream length prefix is 8 bytes"),
        ))
        .expect("sort stream length fits usize");
        if buf.len() < 8 + want {
            return false;
        }
        assert_eq!(
            buf.len(),
            8 + want,
            "sender sent more than one stream on this channel"
        );
        self.tcp_keys.extend_from_slice(&bytes_to_keys(&buf[8..]));
        self.rx.remove(&(src, chan));
        true
    }

    fn on_tcp_delivered(&mut self, d: TcpDelivered, ctx: &mut Ctx) {
        let src = self
            .fo
            .attachment
            .resolve_src(d.peer)
            .expect("delivery from unknown MAC");
        let chan_now = self.chan();
        let buf = self.rx.entry((src, d.chan)).or_default();
        buf.extend_from_slice(&d.data);
        if self.fo.paused || d.chan != chan_now {
            // Stale epoch (the exchange it belonged to was abandoned) or
            // a paused host: leave it buffered, it is never consumed.
            return;
        }
        if !self.take_complete_stream(src, d.chan) {
            return; // stream still in flight
        }
        if matches!(self.fo.attachment, Attachment::Inic { .. }) {
            // Mixed-technology side stream from a degraded peer.
            assert!(self.tcp_pending > 0, "unexpected TCP stream on INIC rank");
            self.tcp_pending -= 1;
            self.try_finish_inic_exchange(ctx);
        } else {
            self.streams_pending -= 1;
            self.check_exchange_complete(ctx);
        }
    }

    fn check_exchange_complete(&mut self, ctx: &mut Ctx) {
        if self.fo.paused || self.phase != Phase::Exchange || self.streams_pending > 0 {
            return;
        }
        if matches!(self.variant, SortVariant::HostOnly) {
            self.timings.comm += ctx.now().since(self.phase_entered);
            self.capture_ckpt();
            self.begin_bucket2(ctx);
        }
    }

    /// Phase-2 host bucket pass (commodity; also the prototype's second
    /// phase, reached from the gather instead).
    fn begin_bucket2(&mut self, ctx: &mut Ctx) {
        self.phase = Phase::Bucket2;
        self.phase_entered = ctx.now();
        debug_assert_ne!(
            self.variant,
            SortVariant::InicFull,
            "ideal INIC skips phase 2"
        );
        let card_keys = self
            .card_bucket_data
            .as_ref()
            .map_or(0, |(data, _)| data.len() / 4);
        let n_keys = (card_keys + self.tcp_keys.len()) as u64;
        let working = DataSize::from_bytes(n_keys * 4);
        let charge = self.kernels.bucket_sort_time(n_keys, working);
        self.fo.compute(charge, ctx);
    }

    fn on_bucket2_done(&mut self, ctx: &mut Ctx) {
        self.timings.bucket2 += ctx.now().since(self.phase_entered);
        self.begin_count(ctx);
    }

    // ---- final count sort (all variants) ----

    fn begin_count(&mut self, ctx: &mut Ctx) {
        self.phase = Phase::Count;
        self.phase_entered = ctx.now();
        // This node's keys in one flat buffer of N cache-sized buckets.
        let n = self.recv_buckets;
        let card_has_all = self.variant == SortVariant::InicFull && self.tcp_keys.is_empty();
        let (mut keys, ends) = match self.card_bucket_data.take() {
            // The ideal card delivers the final buckets.
            Some((data, bounds)) if card_has_all => (
                bytes_to_keys(&data),
                bounds.iter().map(|&b| b / 4).collect(),
            ),
            // Everything else is bucketed here: keys received over TCP,
            // the prototype's 16 coarse card buckets, or the ideal card's
            // buckets plus degraded peers' keys (which arrive unbucketed).
            card => {
                let mut all = std::mem::take(&mut self.tcp_keys);
                if let Some((data, _)) = card {
                    all.extend(bytes_to_keys(&data));
                }
                bucket_sort_flat(&all, n)
            }
        };
        let n_keys = keys.len() as u64;
        let bucket_bytes = DataSize::from_bytes((n_keys * 4 / n as u64).max(1));
        let charge = self.kernels.count_sort_time(n_keys, bucket_bytes);
        // The real sort.
        count_sort_buckets(&mut keys, &ends);
        debug_assert!(is_sorted(&keys));
        self.sorted = keys;
        self.fo.compute(charge, ctx);
    }

    fn on_count_done(&mut self, ctx: &mut Ctx) {
        self.timings.count += ctx.now().since(self.phase_entered);
        self.phase = Phase::Done;
        self.timings.done_at = Some(ctx.now());
        self.fo.report_done(ctx);
        // Every key we hold belongs to this rank.
        debug_assert!({
            let dest_of = destination_of(self.p, self.splitters.as_deref());
            self.sorted.iter().all(|&k| dest_of(k) == self.fo.rank)
        });
    }

    // ---- INIC path ----

    /// Card gather stored; finish the exchange once the mixed-technology
    /// TCP side streams (if any) are also in.
    fn try_finish_inic_exchange(&mut self, ctx: &mut Ctx) {
        if self.fo.paused || self.phase != Phase::Exchange {
            return;
        }
        if self.card_bucket_data.is_none() || self.tcp_pending > 0 {
            return;
        }
        self.timings.comm += ctx.now().since(self.phase_entered);
        self.capture_ckpt();
        match self.variant {
            SortVariant::InicFull => self.begin_count(ctx),
            SortVariant::InicTwoPhase | SortVariant::ProtocolOnly => self.begin_bucket2(ctx),
            SortVariant::HostOnly => unreachable!(),
        }
    }

    fn on_gather(&mut self, g: InicGatherComplete, ctx: &mut Ctx) {
        if self.fo.paused || self.phase != Phase::Exchange || g.stream != self.stream() {
            return; // gather of an abandoned exchange
        }
        let bounds = g.bucket_bounds.expect("bucket/raw gather carries bounds");
        self.card_bucket_data = Some((g.data, bounds));
        self.try_finish_inic_exchange(ctx);
    }
}

/// Destination `q`'s keys within a [`SortDriver::partition_keys`] layout.
fn part<'a>(keys: &'a [u32], ends: &[usize], q: usize) -> &'a [u32] {
    &keys[q.checked_sub(1).map_or(0, |prev| ends[prev])..ends[q]]
}

/// A length-prefixed TCP key stream: the receiver learns each sender's
/// (data-dependent) total from the first 8 bytes.
fn length_prefixed(keys: &[u32]) -> Vec<u8> {
    let prefix = (keys.len() as u64 * 4).to_le_bytes();
    [&prefix[..], &keys_to_bytes(keys)].concat()
}

impl Recoverable for SortDriver {
    fn fo(&self) -> &Failover {
        &self.fo
    }

    fn fo_mut(&mut self) -> &mut Failover {
        &mut self.fo
    }

    fn bitstream(&self) -> Bitstream {
        match self.variant {
            SortVariant::ProtocolOnly => Bitstream::protocol_only(),
            SortVariant::InicFull | SortVariant::InicTwoPhase => {
                Bitstream::int_sort(self.p.next_power_of_two().max(16), self.card_recv_buckets())
            }
            SortVariant::HostOnly => panic!("{}: INIC attachment, host variant", self.fo.label),
        }
    }

    fn begin(&mut self, ctx: &mut Ctx) {
        self.begin_partition(ctx);
    }

    fn compute_done(&mut self, ctx: &mut Ctx) {
        match self.phase {
            Phase::Bucket1 => self.on_bucket1_done(ctx),
            Phase::Bucket2 => self.on_bucket2_done(ctx),
            Phase::Count => self.on_count_done(ctx),
            phase => panic!("{}: compute completion in {phase:?}", self.fo.label),
        }
    }

    fn on_event(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        let ev = match ev.downcast::<TcpDelivered>() {
            Ok(d) => return self.on_tcp_delivered(*d, ctx),
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<InicGatherComplete>() {
            Ok(g) => return self.on_gather(*g, ctx),
            Err(ev) => ev,
        };
        if ev.downcast_ref::<InicScatterDone>().is_some() {
            return;
        }
        panic!("{}: unknown event", self.fo.label);
    }

    fn abort_stream(&self) -> Option<u32> {
        (matches!(self.fo.attachment, Attachment::Inic { .. }) && self.phase == Phase::Exchange)
            .then(|| self.stream())
    }

    /// 0 = start, 1 = after the exchange, 2 = finished.
    fn checkpoint(&self) -> u32 {
        u32::from(self.ckpt1.is_some())
    }

    fn finished(&self) -> u32 {
        2
    }

    fn restart(&mut self, ctx: &mut Ctx) {
        // Discard every trace of the aborted exchange. The input keys
        // were never mutated, so the restart recomputes from scratch;
        // only the original start instant survives into the timings.
        self.rx.clear();
        self.timings = SortTimings {
            started_at: self.timings.started_at,
            ..SortTimings::default()
        };
        self.restore(0, ctx);
    }

    fn restore(&mut self, phase: u32, ctx: &mut Ctx) {
        self.card_bucket_data = None;
        self.sorted.clear();
        if phase == 0 {
            self.tcp_keys.clear();
            self.tcp_pending = 0;
            if self.fo.degraded() {
                self.variant = SortVariant::HostOnly;
            }
            return self.begin_partition(ctx);
        }
        let ck = self
            .ckpt1
            .clone()
            .expect("resume phase 1 without its checkpoint");
        self.card_bucket_data = ck.card;
        self.tcp_keys = ck.tcp;
        // Resume under the snapshot's variant: it names the data layout,
        // and the remaining phases are pure host compute even if this
        // rank has since lost its card.
        self.variant = ck.variant;
        match self.variant {
            SortVariant::InicFull => self.begin_count(ctx),
            _ => self.begin_bucket2(ctx),
        }
    }

    fn phase(&self) -> (&'static str, SimTime) {
        (self.phase_name(), self.phase_entered)
    }

    fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    fn span(&self) -> (SimTime, SimTime) {
        let t = &self.timings;
        (t.started_at.expect("started"), t.done_at.expect("done"))
    }
}

impl Component for SortDriver {
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        failover::handle(self, ev, ctx);
    }

    fn name(&self) -> &str {
        &self.fo.label
    }

    fn wait_state(&self) -> Option<String> {
        if self.is_done() {
            return None;
        }
        Some(format!(
            "rank {} in {} since {} (epoch {}, {} card streams + {} tcp streams pending{})",
            self.fo.rank,
            self.phase_name(),
            self.phase_entered,
            self.fo.epoch,
            self.streams_pending,
            self.tcp_pending,
            self.fo.parked_note(),
        ))
    }
}
