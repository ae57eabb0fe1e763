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

use acc_algos::fft::{fft_in_place, Direction, Matrix};
use acc_algos::transpose::{
    bytes_to_slab, extract_transposed_block, interleave_block, put_transposed_block, ring_schedule,
    slab_to_bytes,
};
use acc_fpga::{Bitstream, GatherKind, InicMode, ScatterKind};
use acc_host::HostKernels;
use acc_sim::{Component, DataSize};

use super::exchange::{Received, Step};
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
}

/// The per-node FFT application driver.
pub(crate) struct FftDriver {
    /// The rank's lifecycle; checkpoints are slab snapshots keyed by
    /// completed phase (1 = row FFTs #1, 2 = transpose #1, 3 = row FFTs
    /// #2).
    fo: Failover<Matrix>,
    p: usize,
    rows: usize,
    m: usize,
    kernels: HostKernels,
    slab: Matrix,
    phase: Phase,
    /// Current pairwise exchange step (1-based) — commodity path.
    exchange_step: usize,
    /// The transposed slab, assembled as the exchange delivers blocks;
    /// swapped with `slab` when the transpose completes. Every transpose
    /// writes all `p` blocks, so the buffer is never cleared.
    incoming: Matrix,
    /// Untouched copy of the input slab: `begin_fft` transforms `slab`
    /// in place, so a card-failure restart needs the original back.
    pristine: Matrix,
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
        ctl: FaultCtl,
        kernels: HostKernels,
    ) -> FftDriver {
        assert_eq!(slab.rows(), rows / p, "slab height");
        assert_eq!(slab.cols(), rows, "slab width");
        let m = rows / p;
        FftDriver {
            fo: Failover::new(format!("fft-driver{rank}"), rank, attachment, ctl),
            p,
            rows,
            m,
            kernels,
            pristine: slab.clone(),
            slab,
            phase: Phase::Init,
            exchange_step: 0,
            incoming: Matrix::zeros(m, rows),
        }
    }

    /// The node's input slab, as handed to [`FftDriver::new`] (the
    /// restart copy, which the run never transforms).
    pub fn input(&self) -> &Matrix {
        &self.pristine
    }

    /// The node's final slab (the 2D FFT's row block) once done.
    pub fn result(&self) -> &Matrix {
        assert!(self.fo.is_done(), "driver not finished");
        &self.slab
    }

    fn partition_bytes(&self) -> DataSize {
        DataSize::from_bytes((self.m * self.rows * 16) as u64)
    }

    // ---- phase transitions ----

    fn begin_fft(&mut self, which: u8, ctx: &mut Ctx) {
        self.phase = Phase::Fft(which);
        let name = ["fft1", "fft2"][usize::from(which) - 1];
        self.fo.enter(name, ctx.now());
        // The real computation.
        for r in 0..self.slab.rows() {
            fft_in_place(self.slab.row_mut(r), Direction::Forward);
        }
        // The charged time: one of the two Eq. 4 halves.
        let charge = self.kernels.fft_compute_time(self.rows, self.p) / 2;
        self.fo.compute(charge, ctx);
    }

    fn on_fft_done(&mut self, which: u8, ctx: &mut Ctx) {
        self.fo.save(2 * u32::from(which) - 1, || self.slab.clone());
        self.begin_transpose(which, ctx);
    }

    /// Whether the card datapath transposes (not a commodity NIC, nor a
    /// card used purely as a protocol processor).
    fn card_transposes(&self) -> bool {
        let mode = self.fo.attachment.inic_mode();
        !matches!(mode, None | Some(InicMode::ProtocolProcessor))
    }

    /// Transpose `which`; its sub-phases report as one phase (they
    /// share one model budget).
    fn begin_transpose(&mut self, which: u8, ctx: &mut Ctx) {
        let name = ["transpose1", "transpose2"][usize::from(which) - 1];
        self.fo.enter(name, ctx.now());
        if self.card_transposes() {
            return self.begin_exchange(which, ctx);
        }
        // Host performs the data manipulation (commodity NIC, or an
        // INIC used purely as a protocol processor).
        self.phase = Phase::LocalTranspose(which);
        let charge = self.kernels.local_transpose_time(self.partition_bytes());
        self.fo.compute(charge, ctx);
    }

    /// Exchange the blocks of transpose `which`: one step through the
    /// card, or the first of the commodity path's pairwise steps.
    fn begin_exchange(&mut self, which: u8, ctx: &mut Ctx) {
        self.phase = Phase::Exchange(which);
        self.exchange_step = 0;
        let (rank, p) = (self.fo.rank, self.p);
        match self.fo.attachment.inic_mode() {
            None => {
                // Our own block stays home.
                let own = extract_transposed_block(&self.slab, rank);
                interleave_block(&mut self.incoming, rank, &own);
                self.next_pairwise_step(which, ctx);
            }
            Some(InicMode::ProtocolProcessor) => {
                // The host-transposed blocks, own first and then in
                // ring order, relayed by the card.
                let ring = ring_schedule(p, rank).map(|e| e.send_to);
                self.start_step(which, std::iter::once(rank).chain(ring), 0..p, ctx);
            }
            Some(_) => self.start_step(which, 0..p, 0..p, ctx),
        }
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
        self.start_step(which, [peers.send_to], [peers.recv_from], ctx);
    }

    /// Start one exchange step: a transposed block of the current slab
    /// to each of `to`, a block from each of `from`. On the card
    /// datapath the card transposes and interleaves the blocks.
    fn start_step(
        &mut self,
        which: u8,
        to: impl IntoIterator<Item = usize>,
        from: impl IntoIterator<Item = usize>,
        ctx: &mut Ctx,
    ) {
        let (m, block) = (self.m, self.m * self.m * 16);
        let sends = to.into_iter().map(|q| (q, block)).collect();
        let recvs = from.into_iter().map(|q| (q, Some(block))).collect();
        let slab = &self.slab;
        let encode = |q, out: &mut Vec<u8>| put_transposed_block(slab, q, out);
        let mut step = Step::exchange(self.fo.epoch, which, sends, recvs, &encode);
        if self.card_transposes() {
            let scatter = ScatterKind::TransposeBlocks { m };
            step.scatter = Some((scatter, slab_to_bytes(slab)));
            step.gather = Some(GatherKind::InterleaveBlocks { m, rows: self.rows });
        }
        self.fo.post(step, ctx);
        self.advance(ctx);
    }

    /// Interleave a step's blocks into the new slab, then move on.
    fn on_step_done(&mut self, which: u8, got: Received, ctx: &mut Ctx) {
        let m = self.m;
        // The card datapath interleaved the healthy ranks' blocks.
        if let Some((data, _)) = &got.gather {
            self.incoming = bytes_to_slab(data, m, self.rows);
        }
        // Blocks over TCP or relayed by the card, already transposed by
        // their senders.
        for (s, block) in got.msgs() {
            interleave_block(&mut self.incoming, s, &bytes_to_slab(block, m, m));
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
        let charge = self.kernels.final_permutation_time(self.partition_bytes());
        self.fo.compute(charge, ctx);
    }

    fn finish_transpose(&mut self, which: u8, ctx: &mut Ctx) {
        match which {
            1 => {
                self.fo.save(2, || self.slab.clone());
                self.begin_fft(2, ctx);
            }
            2 => self.fo.finish(ctx),
            _ => unreachable!(),
        }
    }
}

impl Recoverable for FftDriver {
    type Checkpoint = Matrix;

    fn fo(&self) -> &Failover<Matrix> {
        &self.fo
    }

    fn fo_mut(&mut self) -> &mut Failover<Matrix> {
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
            Phase::LocalTranspose(which) => self.begin_exchange(which, ctx),
            Phase::Permute(which) => {
                std::mem::swap(&mut self.slab, &mut self.incoming);
                self.finish_transpose(which, ctx);
            }
            phase => panic!("{}: compute completion in {phase:?}", self.fo.label),
        }
    }

    fn rx_size(&self, _src: usize, _chan: u16) -> Option<usize> {
        Some(self.m * self.m * 16)
    }

    /// Complete exchange steps as long as the inbox and the card allow.
    fn advance(&mut self, ctx: &mut Ctx) {
        while self.fo.received() {
            let Phase::Exchange(which) = self.phase else {
                unreachable!("{}: exchange step outside a transpose", self.fo.label);
            };
            let got = self.fo.take(ctx.now());
            self.on_step_done(which, got, ctx);
        }
    }

    /// 4: every slab checkpoint (1 to 3) is behind the run.
    fn finished(&self) -> u32 {
        4
    }

    fn restore(&mut self, phase: u32, ctx: &mut Ctx) {
        // `begin_fft` transforms the slab in place, so phase 0 restarts
        // from the pristine copy.
        self.slab = match phase {
            0 => self.pristine.clone(),
            k => self.fo.checkpoint(k).clone(),
        };
        match phase {
            0 => self.begin_fft(1, ctx),
            1 => self.begin_transpose(1, ctx),
            2 => self.begin_fft(2, ctx),
            3 => self.begin_transpose(2, ctx),
            _ => unreachable!(),
        }
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
        if self.fo.is_done() {
            return None;
        }
        let (phase, entered) = self.fo.phase();
        Some(format!(
            "rank {} in {phase} since {entered} (epoch {}, exchange step {}: {}{})",
            self.fo.rank,
            self.fo.epoch,
            self.exchange_step,
            self.fo.xchg.waiting_for(),
            self.fo.resume_note(),
        ))
    }
}
