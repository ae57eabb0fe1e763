//! The per-node integer-sort driver — Section 3.2 on every network
//! technology.
//!
//! Pipeline: bucket the local keys by destination rank, exchange them
//! through the exchange the drivers share (`exchange.rs`; bucket `i`
//! goes to rank `i`), bucket the received keys into cache-sized
//! buckets, count-sort every bucket. Where each step runs depends on
//! the technology:
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
//! * **INIC as a protocol processor**: the commodity pipeline, with the
//!   card relaying the host-bucketed parts.
//!
//! Stalls, failovers and resumes run through the failover core the
//! drivers share (`failover.rs`). Under rank-local recovery a dead
//! rank degrades to [`SortVariant::HostOnly`] over its fallback NIC
//! while healthy ranks keep the card, carrying the dead ranks' buckets
//! as length-prefixed TCP side streams next to the card exchange. The
//! post-exchange state can be checkpointed so a later failure resumes
//! from the exchange instead of re-running it.

use std::any::Any;

use acc_algos::sort::{
    bucket_flat, bucket_sort_flat, bytes_to_keys, count_sort_buckets, destination_of, is_sorted,
    keys_to_bytes,
};
use acc_algos::transpose::ring_schedule;
use acc_fpga::{Bitstream, GatherKind, ScatterKind};
use acc_host::HostKernels;
use acc_sim::{Component, Ctx, DataSize, SimDuration, SimTime};

use super::exchange::{Exchange, Received, Route};
use super::failover::{self, Failover, Recoverable};
use super::{recv_buckets_for, Attachment, FaultCtl};

/// How the receive-side bucketing is split between card and host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SortVariant {
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
pub(crate) struct SortTimings {
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
pub(crate) struct SortDriver {
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
    /// The key exchange; its TCP messages are length-prefixed.
    xchg: Exchange,
    /// Keys received over TCP: the whole commodity exchange (our own
    /// bucket included), or on an INIC rank the mixed-technology side
    /// streams from degraded peers, carried next to the card exchange.
    tcp_keys: Vec<u32>,
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
            xchg: Exchange::default(),
            tcp_keys: Vec::new(),
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

    // ---- partition and exchange ----

    /// Phase 1, partitioning the keys by destination rank: a host
    /// bucket pass on the commodity and protocol-only paths, the card's
    /// datapath (straight into the exchange) on the INIC paths.
    fn begin_partition(&mut self, ctx: &mut Ctx) {
        // A failover restart keeps the original start instant: the cost
        // of the aborted attempt is part of the degraded run's time.
        if self.timings.started_at.is_none() {
            self.timings.started_at = Some(ctx.now());
        }
        self.phase_entered = ctx.now();
        if self.card_buckets() {
            return self.begin_exchange(ctx);
        }
        self.phase = Phase::Bucket1;
        let charge = self
            .kernels
            .bucket_sort_time(self.keys.len() as u64, self.local_bytes());
        self.fo.compute(charge, ctx);
    }

    /// Whether the card datapath buckets the keys (the INIC variants).
    fn card_buckets(&self) -> bool {
        matches!(
            self.variant,
            SortVariant::InicFull | SortVariant::InicTwoPhase
        )
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

    fn on_bucket1_done(&mut self, ctx: &mut Ctx) {
        self.timings.bucket1 += ctx.now().since(self.phase_entered);
        self.phase_entered = ctx.now();
        self.begin_exchange(ctx);
    }

    /// Send bucket `i` to rank `i`: over TCP on the commodity path, the
    /// host-bucketed parts relayed by the card on the protocol-only
    /// path, the raw keys into the card's bucket datapath otherwise.
    fn begin_exchange(&mut self, ctx: &mut Ctx) {
        self.phase = Phase::Exchange;
        let (rank, p) = (self.fo.rank, self.p);
        // The host partition: every part on the host paths, only the
        // degraded peers' side streams on the card paths.
        let (keys, ends) = if self.card_buckets() && self.fo.dead.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            let dest_of = destination_of(p, self.splitters.as_deref());
            bucket_flat(self.keys.iter().copied(), p, dest_of)
        };
        let route = match self.variant {
            SortVariant::HostOnly => {
                // Our own bucket stays home.
                self.tcp_keys.extend_from_slice(part(&keys, &ends, rank));
                let to = ring_schedule(p, rank).map(|e| e.send_to).collect();
                let from = (0..p).filter(|&q| q != rank).collect();
                Route::Tcp { to, from }
            }
            SortVariant::ProtocolOnly => Route::Relay,
            SortVariant::InicFull | SortVariant::InicTwoPhase => Route::Datapath {
                scatter: ScatterKind::BucketKeys {
                    p,
                    splitters: self.splitters.clone(),
                },
                data: keys_to_bytes(&self.keys),
                gather: GatherKind::BucketKeys {
                    k: self.card_recv_buckets(),
                },
            },
        };
        let body = |q| keys_to_bytes(part(&keys, &ends, q));
        let step = route.step(&self.fo, 1, None, body);
        self.xchg.start(&self.fo, step, ctx);
        self.advance(ctx);
    }

    /// Finish the exchange once the card and the inbox allow.
    fn advance(&mut self, ctx: &mut Ctx) {
        if self.xchg.received(&self.fo) {
            let got = self.xchg.take();
            self.on_exchange_done(got, ctx);
        }
    }

    /// Decode every TCP message straight into `tcp_keys`, checkpoint,
    /// and move on to the receive-side bucketing.
    fn on_exchange_done(&mut self, got: Received, ctx: &mut Ctx) {
        self.timings.comm += ctx.now().since(self.phase_entered);
        self.card_bucket_data = got
            .gather
            .map(|(data, bounds)| (data, bounds.expect("bucket/raw gather carries bounds")));
        let n: usize = got.msgs.iter().map(|(_, msg)| msg.len() / 4).sum();
        self.tcp_keys.reserve_exact(n);
        for (_, msg) in got.msgs {
            extend_keys(&mut self.tcp_keys, &msg);
        }
        self.capture_ckpt();
        match self.variant {
            SortVariant::InicFull => self.begin_count(ctx),
            _ => self.begin_bucket2(ctx),
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
                    extend_keys(&mut all, &data);
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
}

/// Destination `q`'s keys within a `bucket_flat` partition by rank.
fn part<'a>(keys: &'a [u32], ends: &[usize], q: usize) -> &'a [u32] {
    &keys[q.checked_sub(1).map_or(0, |prev| ends[prev])..ends[q]]
}

/// Decode 4-byte wire keys onto the end of `keys`.
fn extend_keys(keys: &mut Vec<u32>, bytes: &[u8]) {
    assert_eq!(bytes.len() % 4, 0, "key stream holds a partial key");
    let key = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("4-byte key"));
    keys.extend(bytes.chunks_exact(4).map(key));
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
        self.xchg.on_event(ev, &self.fo, |_, _| None);
        self.advance(ctx);
    }

    fn abort_stream(&self) -> Option<u32> {
        self.xchg.abort_stream()
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
        self.xchg = Exchange::default();
        self.timings = SortTimings {
            started_at: self.timings.started_at,
            ..SortTimings::default()
        };
        self.restore(0, ctx);
    }

    fn restore(&mut self, phase: u32, ctx: &mut Ctx) {
        self.xchg.cancel();
        self.card_bucket_data = None;
        self.sorted.clear();
        if phase == 0 {
            self.tcp_keys.clear();
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
            "rank {} in {} since {} (epoch {}, {}{})",
            self.fo.rank,
            self.phase_name(),
            self.phase_entered,
            self.fo.epoch,
            self.xchg.waiting_for(),
            self.fo.parked_note(),
        ))
    }
}
