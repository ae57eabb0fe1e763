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

use acc_algos::sort::{
    bucket_flat, bucket_sort_flat, bytes_to_keys, count_sort_buckets, destination_of, is_sorted,
    keys_to_bytes,
};
use acc_algos::transpose::ring_schedule;
use acc_fpga::{Bitstream, GatherKind, ScatterKind};
use acc_host::HostKernels;
use acc_sim::{Component, DataSize, SimDuration, SimTime};

use super::exchange::{Received, Route};
use super::failover::{self, Failover, Recoverable};
use super::{recv_buckets_for, Attachment, FaultCtl};
use crate::msg::{Ctx, Msg};

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
}

impl Phase {
    /// Phase name for liveness attribution.
    fn name(self) -> &'static str {
        match self {
            Phase::Init => "init",
            Phase::Bucket1 => "bucket1",
            Phase::Exchange => "exchange",
            Phase::Bucket2 => "bucket2",
            Phase::Count => "count",
        }
    }
}

/// Snapshot of the post-exchange state (checkpoint 1), captured under
/// `RecoveryPolicy::Checkpointed` so a later card failure resumes
/// from the exchange instead of re-running it.
#[derive(Clone)]
pub(crate) struct ExchangeCkpt {
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
}

/// The per-node integer-sort driver.
pub(crate) struct SortDriver {
    /// The rank's lifecycle.
    fo: Failover<ExchangeCkpt>,
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
    /// Keys received over TCP: the whole commodity exchange (our own
    /// bucket included), or on an INIC rank the mixed-technology side
    /// streams from degraded peers, carried next to the card exchange.
    tcp_keys: Vec<u32>,
    /// INIC gather result (16 or N card buckets, concatenated).
    card_bucket_data: Option<(Vec<u8>, Vec<usize>)>,
    sorted: Vec<u32>,
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
        ctl: FaultCtl,
        kernels: HostKernels,
    ) -> SortDriver {
        let recv_buckets = recv_buckets_for(keys.len() as u64);
        SortDriver {
            fo: Failover::new(format!("sort-driver{rank}"), rank, attachment, ctl),
            p,
            variant,
            kernels,
            keys,
            splitters: None,
            recv_buckets,
            phase: Phase::Init,
            tcp_keys: Vec::new(),
            card_bucket_data: None,
            sorted: Vec::new(),
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

    /// This rank's sorted key range, available when done.
    pub fn result(&self) -> &[u32] {
        assert!(self.fo.is_done(), "driver not finished");
        &self.sorted
    }

    /// Enter `phase` at `now`.
    fn enter(&mut self, phase: Phase, now: SimTime) {
        self.phase = phase;
        self.fo.enter(phase.name(), now);
    }

    fn local_bytes(&self) -> DataSize {
        DataSize::from_bytes(self.keys.len() as u64 * 4)
    }

    // ---- partition and exchange ----

    /// Phase 1, partitioning the keys by destination rank: a host
    /// bucket pass on the commodity and protocol-only paths, the card's
    /// datapath (straight into the exchange) on the INIC paths.
    fn begin_partition(&mut self, ctx: &mut Ctx) {
        if self.card_buckets() {
            return self.begin_exchange(ctx);
        }
        self.enter(Phase::Bucket1, ctx.now());
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

    /// Send bucket `i` to rank `i`: over TCP on the commodity path, the
    /// host-bucketed parts relayed by the card on the protocol-only
    /// path, the raw keys into the card's bucket datapath otherwise.
    fn begin_exchange(&mut self, ctx: &mut Ctx) {
        self.enter(Phase::Exchange, ctx.now());
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
        self.fo.post(step, ctx);
        self.advance(ctx);
    }

    /// Decode every TCP message straight into `tcp_keys`, checkpoint,
    /// and move on to the receive-side bucketing.
    fn on_exchange_done(&mut self, got: Received, ctx: &mut Ctx) {
        self.timings.comm += ctx.now().since(self.fo.phase().1);
        self.card_bucket_data = got
            .gather
            .map(|(data, bounds)| (data, bounds.expect("bucket/raw gather carries bounds")));
        let n: usize = got.msgs.iter().map(|(_, msg)| msg.len() / 4).sum();
        self.tcp_keys.reserve_exact(n);
        for (_, msg) in got.msgs {
            extend_keys(&mut self.tcp_keys, &msg);
        }
        // Checkpoint before any phase consumes the buffers.
        let (card, tcp, variant) = (&self.card_bucket_data, &self.tcp_keys, self.variant);
        self.fo.save(1, || ExchangeCkpt {
            card: card.clone(),
            tcp: tcp.clone(),
            variant,
        });
        match self.variant {
            SortVariant::InicFull => self.begin_count(ctx),
            _ => self.begin_bucket2(ctx),
        }
    }

    /// Phase-2 host bucket pass (commodity; also the prototype's second
    /// phase, reached from the gather instead).
    fn begin_bucket2(&mut self, ctx: &mut Ctx) {
        self.enter(Phase::Bucket2, ctx.now());
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

    // ---- final count sort (all variants) ----

    fn begin_count(&mut self, ctx: &mut Ctx) {
        self.enter(Phase::Count, ctx.now());
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

    fn on_count_done(&mut self, elapsed: SimDuration, ctx: &mut Ctx) {
        self.timings.count += elapsed;
        self.fo.finish(ctx);
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
    type Checkpoint = ExchangeCkpt;

    fn fo(&self) -> &Failover<ExchangeCkpt> {
        &self.fo
    }

    fn fo_mut(&mut self) -> &mut Failover<ExchangeCkpt> {
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

    fn compute_done(&mut self, elapsed: SimDuration, ctx: &mut Ctx) {
        match self.phase {
            Phase::Bucket1 => {
                self.timings.bucket1 += elapsed;
                self.begin_exchange(ctx);
            }
            Phase::Bucket2 => {
                self.timings.bucket2 += elapsed;
                self.begin_count(ctx);
            }
            Phase::Count => self.on_count_done(elapsed, ctx),
            phase => panic!("{}: compute completion in {phase:?}", self.fo.label),
        }
    }

    /// The key exchange's TCP messages are length-prefixed.
    fn rx_size(&self, _src: usize, _chan: u16) -> Option<usize> {
        None
    }

    /// Finish the exchange once the card and the inbox allow.
    fn advance(&mut self, ctx: &mut Ctx) {
        if self.fo.received() {
            let got = self.fo.xchg.take();
            self.on_exchange_done(got, ctx);
        }
    }

    /// 1 is the post-exchange checkpoint, 2 a finished run.
    fn finished(&self) -> u32 {
        2
    }

    fn restart(&mut self) {
        // The input keys were never mutated, so the restart recomputes
        // from scratch.
        self.timings = SortTimings::default();
    }

    fn restore(&mut self, phase: u32, ctx: &mut Ctx) {
        self.card_bucket_data = None;
        self.sorted.clear();
        if phase == 0 {
            self.tcp_keys.clear();
            if self.fo.degraded() {
                self.variant = SortVariant::HostOnly;
            }
            return self.begin_partition(ctx);
        }
        let ck = self.fo.checkpoint(1).clone();
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
}

impl Component<Msg> for SortDriver {
    fn handle(&mut self, ev: Msg, ctx: &mut Ctx) {
        failover::handle(self, ev, ctx);
    }

    fn name(&self) -> &str {
        &self.fo.label
    }

    fn wait_state(&self) -> Option<String> {
        if self.fo.is_done() {
            return None;
        }
        let (phase, entered) = self.fo.phase();
        Some(format!(
            "rank {} in {phase} since {entered} (epoch {}, {}{})",
            self.fo.rank,
            self.fo.epoch,
            self.fo.xchg.waiting_for(),
            self.fo.parked_note(),
        ))
    }
}
