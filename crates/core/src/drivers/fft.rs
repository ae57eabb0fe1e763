//! The per-node 2D-FFT driver — the FFTW parallel template of
//! Section 3.1 on every network technology.
//!
//! The four steps (❶ row FFTs, ❷ transpose, ❸ row FFTs, ❹ transpose) are
//! a per-node state machine. Compute steps are identical across
//! technologies (charged through [`HostKernels`], executed for real on
//! the slab). Each transpose runs through the exchange the drivers
//! share (`exchange.rs`); what the FFT adds is where its data
//! manipulation runs:
//!
//! * **commodity NIC** (Fig. 2(a)): the host charges the local-transpose
//!   memory pass, then runs FFTW's serialized pairwise exchange — p−1
//!   single-peer steps, step `s` sending to `(rank+s) mod P` and waiting
//!   for the block from `(rank−s) mod P` — and charges the
//!   final-permutation pass before the new slab is used;
//! * **INIC as a protocol processor**: the same two host passes around
//!   one exchange of the host-transposed blocks through the card;
//! * **INIC** (Fig. 2(b)): the whole manipulation — local transpose,
//!   packetize, de-packetize, interleave — runs on the card; the host
//!   hands over the slab and receives the assembled result, paying no
//!   memory passes at all.
//!
//! # Fault handling
//!
//! Stalls, failovers and resumes run through the failover core the
//! drivers share (`failover.rs`). Under rank-local recovery the dead
//! rank degrades to its fallback `TcpHostNic` while healthy ranks keep
//! the card datapath, running a **mixed-technology transpose** — the
//! card exchanges blocks among healthy ranks, the host carries the dead
//! ranks' blocks over TCP and interleaves them into the card's slab.
//! Each completed phase can checkpoint the slab so a failover resumes
//! from the last phase every rank completed.

use std::collections::BTreeMap;

use acc_algos::fft::{fft_in_place, Direction, Matrix};
use acc_algos::transpose::{
    bytes_to_slab, extract_transposed_block, interleave_block, ring_schedule, slab_to_bytes,
};
use acc_fpga::{Bitstream, GatherKind, InicMode, ScatterKind};
use acc_host::HostKernels;
use acc_sim::{Component, DataSize, SimDuration, SimTime};

use super::exchange::{Exchange, Received, Route};
use super::failover::{self, Failover, Recoverable};
use super::{Attachment, FaultCtl};
use crate::msg::{Ctx, Msg};

/// Where the state machine is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Waiting for the start event / card configuration.
    Init,
    /// Row FFTs number `i` (1 or 2).
    Fft(u8),
    /// Transpose number `i`: host local-transpose charge running.
    LocalTranspose(u8),
    /// Transpose number `i`: blocks in flight / being gathered.
    Exchange(u8),
    /// Transpose number `i`: host final-permutation charge running.
    Permute(u8),
    /// Finished.
    Done,
}

/// Timing record of one completed run, readable after `sim.run()`.
#[derive(Clone, Debug, Default)]
pub(crate) struct FftTimings {
    /// Sum of both row-FFT phases.
    pub compute: SimDuration,
    /// Sum of both transposes (wall time per node, including overlap).
    pub transpose: SimDuration,
    /// Host compute buried inside the transposes (local transpose +
    /// final permutation charges) — zero on INIC paths, where the card
    /// absorbs the data manipulation.
    pub transpose_compute: SimDuration,
    /// When this node finished step ❹ (absolute).
    pub done_at: Option<SimTime>,
    /// When this node started step ❶ (absolute; after configuration on
    /// INIC technologies).
    pub started_at: Option<SimTime>,
}

/// The per-node FFT application driver.
pub(crate) struct FftDriver {
    /// Network attachment and failover state.
    fo: Failover,
    p: usize,
    rows: usize,
    m: usize,
    kernels: HostKernels,
    slab: Matrix,
    phase: Phase,
    phase_entered: SimTime,
    /// Start of the current transpose sub-phase (local transpose or
    /// final permutation) for the compute/comm decomposition.
    subphase_entered: SimTime,
    /// The transpose's block exchange.
    xchg: Exchange,
    /// Current pairwise exchange step (1-based) — commodity path.
    exchange_step: usize,
    /// The transposed slab, assembled as the exchange delivers blocks;
    /// swapped with `slab` when the transpose completes. Every transpose
    /// writes all `p` blocks, so the buffer is never cleared.
    incoming: Matrix,
    /// Untouched copy of the input slab: `begin_fft` transforms `slab`
    /// in place, so a card-failure restart needs the original back.
    pristine: Matrix,
    /// Phase checkpoints: slab snapshots keyed by completed phase
    /// (1 = row FFTs #1, 2 = transpose #1, 3 = row FFTs #2). Captured
    /// only under `RecoveryPolicy::Checkpointed` with a coordinator.
    ckpts: BTreeMap<u32, Matrix>,
    /// Timings, filled as the run progresses.
    pub timings: FftTimings,
}

impl FftDriver {
    /// Build a driver holding `slab` (the node's `rows/P × rows` row
    /// block).
    pub fn new(
        rank: usize,
        p: usize,
        rows: usize,
        slab: Matrix,
        attachment: Attachment,
        kernels: HostKernels,
    ) -> FftDriver {
        assert_eq!(slab.rows(), rows / p, "slab height");
        assert_eq!(slab.cols(), rows, "slab width");
        let m = rows / p;
        FftDriver {
            fo: Failover::new(format!("fft-driver{rank}"), rank, attachment),
            p,
            rows,
            m,
            kernels,
            pristine: slab.clone(),
            slab,
            phase: Phase::Init,
            phase_entered: SimTime::ZERO,
            subphase_entered: SimTime::ZERO,
            xchg: Exchange::default(),
            exchange_step: 0,
            incoming: Matrix::zeros(m, rows),
            ckpts: BTreeMap::new(),
            timings: FftTimings::default(),
        }
    }

    /// Attach fault-handling configuration (builder style).
    #[must_use]
    pub fn with_fault_ctl(mut self, ctl: FaultCtl) -> FftDriver {
        self.fo.ctl = ctl;
        self
    }

    /// The node's final slab (the 2D FFT's row block) once done.
    pub fn result(&self) -> &Matrix {
        assert_eq!(self.phase, Phase::Done, "driver not finished");
        &self.slab
    }

    /// Phase name for liveness attribution; the two transposes report
    /// as one phase each (their sub-phases share one model budget).
    fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Init => "init",
            Phase::Fft(1) => "fft1",
            Phase::Fft(_) => "fft2",
            Phase::LocalTranspose(1) | Phase::Exchange(1) | Phase::Permute(1) => "transpose1",
            Phase::LocalTranspose(_) | Phase::Exchange(_) | Phase::Permute(_) => "transpose2",
            Phase::Done => "done",
        }
    }

    fn partition_bytes(&self) -> DataSize {
        DataSize::from_bytes((self.m * self.rows * 16) as u64)
    }

    // ---- phase transitions ----

    fn begin_fft(&mut self, which: u8, ctx: &mut Ctx) {
        self.phase = Phase::Fft(which);
        self.phase_entered = ctx.now();
        // A failover restart keeps the original start instant: the cost
        // of the aborted attempt is part of the degraded run's time.
        if which == 1 && self.timings.started_at.is_none() {
            self.timings.started_at = Some(ctx.now());
        }
        // The real computation.
        for r in 0..self.slab.rows() {
            fft_in_place(self.slab.row_mut(r), Direction::Forward);
        }
        // The charged time: one of the two Eq. 4 halves.
        let charge = self.kernels.fft_compute_time(self.rows, self.p) / 2;
        self.fo.compute(charge, ctx);
    }

    fn on_fft_done(&mut self, which: u8, ctx: &mut Ctx) {
        self.timings.compute += ctx.now().since(self.phase_entered);
        if self.fo.ckpt_armed() {
            let k = if which == 1 { 1 } else { 3 };
            self.ckpts.insert(k, self.slab.clone());
        }
        self.begin_transpose(which, ctx);
    }

    fn begin_transpose(&mut self, which: u8, ctx: &mut Ctx) {
        self.phase_entered = ctx.now();
        if !matches!(
            self.fo.attachment.inic_mode(),
            None | Some(InicMode::ProtocolProcessor)
        ) {
            return self.begin_exchange(which, ctx);
        }
        // Host performs the data manipulation (commodity NIC, or an
        // INIC used purely as a protocol processor).
        self.phase = Phase::LocalTranspose(which);
        self.subphase_entered = ctx.now();
        let charge = self.kernels.local_transpose_time(self.partition_bytes());
        self.fo.compute(charge, ctx);
    }

    fn on_local_transpose_done(&mut self, which: u8, ctx: &mut Ctx) {
        self.timings.transpose_compute += ctx.now().since(self.subphase_entered);
        self.begin_exchange(which, ctx);
    }

    /// Exchange the blocks of transpose `which`: one step through the
    /// card, or the first of the commodity path's pairwise steps.
    fn begin_exchange(&mut self, which: u8, ctx: &mut Ctx) {
        self.phase = Phase::Exchange(which);
        self.exchange_step = 0;
        let route = match self.fo.attachment.inic_mode() {
            None => {
                // Our own block stays home.
                let own = extract_transposed_block(&self.slab, self.fo.rank);
                interleave_block(&mut self.incoming, self.fo.rank, &own);
                return self.next_pairwise_step(which, ctx);
            }
            Some(InicMode::ProtocolProcessor) => Route::Relay,
            Some(_) => Route::Datapath {
                scatter: ScatterKind::TransposeBlocks { m: self.m },
                data: slab_to_bytes(&self.slab),
                gather: GatherKind::InterleaveBlocks {
                    m: self.m,
                    rows: self.rows,
                },
            },
        };
        self.start_step(which, route, ctx);
    }

    /// Commodity path: post the next pairwise step or, once all p−1 are
    /// done, charge the final permutation.
    fn next_pairwise_step(&mut self, which: u8, ctx: &mut Ctx) {
        self.exchange_step += 1;
        let (s, rank, p) = (self.exchange_step, self.fo.rank, self.p);
        if s == p {
            return self.begin_permute(which, ctx);
        }
        let peers = ring_schedule(p, rank)
            .nth(s - 1)
            .expect("pairwise steps run 1..p");
        let (to, from) = (vec![peers.send_to], vec![peers.recv_from]);
        self.start_step(which, Route::Tcp { to, from }, ctx);
    }

    /// Start one exchange step; the host-side parts are the transposed
    /// blocks of the current slab.
    fn start_step(&mut self, which: u8, route: Route, ctx: &mut Ctx) {
        let slab = &self.slab;
        let part = |q| slab_to_bytes(&extract_transposed_block(slab, q));
        let step = route.step(&self.fo, which, Some(self.m * self.m * 16), part);
        self.xchg.start(&self.fo, step, ctx);
        self.advance(ctx);
    }

    /// Complete exchange steps as long as the inbox and the card allow.
    fn advance(&mut self, ctx: &mut Ctx) {
        while self.xchg.received(&self.fo) {
            let Phase::Exchange(which) = self.phase else {
                unreachable!("{}: exchange step outside a transpose", self.fo.label);
            };
            let got = self.xchg.take();
            self.on_step_done(which, got, ctx);
        }
    }

    /// Interleave a step's blocks into the new slab, then move on.
    fn on_step_done(&mut self, which: u8, got: Received, ctx: &mut Ctx) {
        let (m, block_bytes) = (self.m, self.m * self.m * 16);
        match got.gather {
            // The card datapath interleaved the healthy ranks' blocks.
            Some((data, None)) => self.incoming = bytes_to_slab(&data, m, self.rows),
            // Relayed blocks, one per healthy source in rank order,
            // already transposed by their senders.
            Some((data, Some(_))) => {
                let live = (0..self.p).filter(|s| !self.fo.dead.contains(s));
                for (s, block) in live.zip(data.chunks_exact(block_bytes)) {
                    interleave_block(&mut self.incoming, s, &bytes_to_slab(block, m, m));
                }
            }
            None => {}
        }
        for (s, block) in got.msgs {
            interleave_block(&mut self.incoming, s, &bytes_to_slab(&block, m, m));
        }
        match self.fo.attachment.inic_mode() {
            None => self.next_pairwise_step(which, ctx),
            Some(InicMode::ProtocolProcessor) => self.begin_permute(which, ctx),
            Some(_) => {
                std::mem::swap(&mut self.slab, &mut self.incoming);
                self.finish_transpose(which, ctx);
            }
        }
    }

    /// Host paths: charge the final permutation.
    fn begin_permute(&mut self, which: u8, ctx: &mut Ctx) {
        self.phase = Phase::Permute(which);
        self.subphase_entered = ctx.now();
        let charge = self.kernels.final_permutation_time(self.partition_bytes());
        self.fo.compute(charge, ctx);
    }

    fn on_permute_done(&mut self, which: u8, ctx: &mut Ctx) {
        self.timings.transpose_compute += ctx.now().since(self.subphase_entered);
        std::mem::swap(&mut self.slab, &mut self.incoming);
        self.finish_transpose(which, ctx);
    }

    fn finish_transpose(&mut self, which: u8, ctx: &mut Ctx) {
        self.timings.transpose += ctx.now().since(self.phase_entered);
        match which {
            1 => {
                if self.fo.ckpt_armed() {
                    self.ckpts.insert(2, self.slab.clone());
                }
                self.begin_fft(2, ctx);
            }
            2 => {
                self.phase = Phase::Done;
                self.timings.done_at = Some(ctx.now());
                self.fo.report_done(ctx);
            }
            _ => unreachable!(),
        }
    }
}

impl Recoverable for FftDriver {
    fn fo(&self) -> &Failover {
        &self.fo
    }

    fn fo_mut(&mut self) -> &mut Failover {
        &mut self.fo
    }

    fn bitstream(&self) -> Bitstream {
        match self.fo.attachment.inic_mode() {
            Some(InicMode::ProtocolProcessor) => Bitstream::protocol_only(),
            _ => Bitstream::fft_transpose(self.m),
        }
    }

    fn begin(&mut self, ctx: &mut Ctx) {
        self.begin_fft(1, ctx);
    }

    fn compute_done(&mut self, ctx: &mut Ctx) {
        match self.phase {
            Phase::Fft(which) => self.on_fft_done(which, ctx),
            Phase::LocalTranspose(which) => self.on_local_transpose_done(which, ctx),
            Phase::Permute(which) => self.on_permute_done(which, ctx),
            phase => panic!("{}: compute completion in {phase:?}", self.fo.label),
        }
    }

    fn on_event(&mut self, ev: Msg, ctx: &mut Ctx) {
        let size = Some(self.m * self.m * 16);
        self.xchg.on_event(ev, &self.fo, |_, _| size);
        self.advance(ctx);
    }

    fn abort_stream(&self) -> Option<u32> {
        self.xchg.abort_stream()
    }

    /// Slab snapshots keyed by completed phase: 1 = row FFTs #1,
    /// 2 = transpose #1, 3 = row FFTs #2; 4 = finished.
    fn checkpoint(&self) -> u32 {
        self.ckpts.keys().next_back().copied().unwrap_or(0)
    }

    fn finished(&self) -> u32 {
        4
    }

    fn restart(&mut self, ctx: &mut Ctx) {
        // Discard all partial progress; only the original start instant
        // survives into the timings.
        self.xchg = Exchange::default();
        self.timings = FftTimings {
            started_at: self.timings.started_at,
            ..FftTimings::default()
        };
        self.restore(0, ctx);
    }

    fn restore(&mut self, phase: u32, ctx: &mut Ctx) {
        self.xchg.cancel();
        // `begin_fft` transforms the slab in place, so phase 0 restarts
        // from the pristine copy.
        self.slab = match phase {
            0 => self.pristine.clone(),
            k => self
                .ckpts
                .get(&k)
                .cloned()
                .unwrap_or_else(|| panic!("resume phase {k} without its checkpoint")),
        };
        match phase {
            0 => self.begin_fft(1, ctx),
            1 => self.begin_transpose(1, ctx),
            2 => self.begin_fft(2, ctx),
            3 => self.begin_transpose(2, ctx),
            _ => unreachable!(),
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

impl Component<Msg> for FftDriver {
    fn handle(&mut self, ev: Msg, ctx: &mut Ctx) {
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
            "rank {} in {} since {} (epoch {}, exchange step {}: {}{})",
            self.fo.rank,
            self.phase_name(),
            self.phase_entered,
            self.fo.epoch,
            self.exchange_step,
            self.xchg.waiting_for(),
            self.fo.parked_note(),
        ))
    }
}
