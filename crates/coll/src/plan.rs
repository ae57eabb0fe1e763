//! Per-rank communication schedules for the collective algorithms.
//!
//! A collective is compiled, per rank, into a [`Schedule`]: a vector of
//! lockstep [`Round`]s over a flat `f64` working state. Each round
//! does, in order:
//!
//! 1. **copies** — local permutations, reading a snapshot of the state
//!    taken at round entry (so in-place block rotations are safe);
//! 2. **sends** — gather the listed ranges of the post-copy state and
//!    ship them to a peer;
//! 3. **recvs** — once every listed peer message of this round has
//!    arrived, fold it into the state ([`RecvOp::Sum`]), overwrite
//!    ([`RecvOp::Copy`]) or drop it ([`RecvOp::Discard`], barriers).
//!
//! The builders here are pure functions of `(op, algo, rank, p,
//! elems)`; the same schedule drives the host-TCP path, the
//! protocol-only INIC path and the fully offloaded card path, as well
//! as the analytic cost model (via [`profile`]) and the deadline
//! hierarchy. Two invariants every builder maintains, and the lockstep
//! interpreter [`simulate`] checks: all ranks produce the same round
//! count, and sends/recvs pair up exactly within a round (zero-length
//! transfers are omitted symmetrically on both sides, because a
//! zero-byte message has no wire representation). A round never
//! contains two sends to the same peer — each (peer, round) pair is
//! one wire stream.
// A schedule round's send/recv lists are `Vec<Range<usize>>` segment
// lists; a one-segment list is the common case, not a typo'd
// `(a..b).collect()`, so the lint below is a false positive here.
#![allow(clippy::single_range_in_vec_init)]

use std::collections::BTreeMap;
use std::ops::Range;

use crate::{Algorithm, CollectiveOp};

/// Phase label for ring/chain steps (also the hang-attribution string:
/// a stalled ring exchange reports "collective ring step on rank N").
pub const PHASE_RING: &str = "collective ring step";
/// Phase label for recursive-doubling exchanges.
pub const PHASE_DOUBLING: &str = "collective doubling step";
/// Phase label for recursive-halving exchanges.
pub const PHASE_HALVING: &str = "collective halving step";
/// Phase label for binomial-tree hops.
pub const PHASE_TREE: &str = "collective tree step";
/// Phase label for dissemination-barrier token rounds.
pub const PHASE_DISSEMINATION: &str = "collective dissemination step";
/// Phase label for pairwise all-to-all rounds.
pub const PHASE_PAIRWISE: &str = "collective pairwise step";
/// Phase label for Bruck rotation/exchange rounds.
pub const PHASE_BRUCK: &str = "collective bruck step";
/// Phase label for halo-exchange rounds of the composed halo workload.
pub const PHASE_HALO: &str = "collective halo step";

/// What to do with a received message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecvOp {
    /// Element-wise add into the listed ranges.
    Sum,
    /// Overwrite the listed ranges.
    Copy,
    /// Drop the payload (barrier tokens carry no data worth keeping).
    Discard,
}

/// One outbound message: the listed `state` ranges, gathered in order,
/// to peer `to`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SendSpec {
    /// Destination rank.
    pub to: usize,
    /// Element ranges of the working state, gathered in listed order.
    pub ranges: Vec<Range<usize>>,
}

/// One expected inbound message and how to apply it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecvSpec {
    /// Source rank.
    pub from: usize,
    /// Element ranges the payload maps onto, in listed order.
    pub ranges: Vec<Range<usize>>,
    /// How the payload is folded into the state.
    pub op: RecvOp,
}

/// A local block move: `state[dst..dst+src.len()] = snapshot[src]`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CopySpec {
    /// Source range in the round-entry snapshot.
    pub src: Range<usize>,
    /// Destination start index in the live state.
    pub dst: usize,
}

/// One lockstep round of a schedule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Round {
    /// Deadline/hang-attribution phase label.
    pub phase: &'static str,
    /// Local permutations, applied first against a snapshot.
    pub copies: Vec<CopySpec>,
    /// Outbound messages (at most one per peer).
    pub sends: Vec<SendSpec>,
    /// Inbound messages the round blocks on.
    pub recvs: Vec<RecvSpec>,
    /// Modelled local-compute charge (elements swept), for composed
    /// workloads like the halo solver; pure collectives leave it 0.
    pub compute_elems: usize,
}

impl Round {
    fn new(phase: &'static str) -> Round {
        Round {
            phase,
            copies: Vec::new(),
            sends: Vec::new(),
            recvs: Vec::new(),
            compute_elems: 0,
        }
    }

    /// Add a send, dropping empty ranges; a send with no payload is
    /// omitted entirely (the receiving side omits the matching recv).
    pub fn send(&mut self, to: usize, ranges: Vec<Range<usize>>) {
        let ranges: Vec<Range<usize>> = ranges.into_iter().filter(|r| !r.is_empty()).collect();
        if ranges.is_empty() {
            return;
        }
        assert!(
            self.sends.iter().all(|s| s.to != to),
            "schedule bug: two sends to rank {to} in one round"
        );
        self.sends.push(SendSpec { to, ranges });
    }

    /// Add a recv, dropping empty ranges; symmetric with [`Round::send`].
    pub fn recv(&mut self, from: usize, ranges: Vec<Range<usize>>, op: RecvOp) {
        let ranges: Vec<Range<usize>> = ranges.into_iter().filter(|r| !r.is_empty()).collect();
        if ranges.is_empty() {
            return;
        }
        self.recvs.push(RecvSpec { from, ranges, op });
    }

    /// True when the round moves no data and charges no compute — the
    /// executing driver advances straight through it.
    pub fn is_empty(&self) -> bool {
        self.copies.is_empty()
            && self.sends.is_empty()
            && self.recvs.is_empty()
            && self.compute_elems == 0
    }
}

/// Total element count across a range list.
pub fn ranges_elems(ranges: &[Range<usize>]) -> usize {
    ranges.iter().map(std::iter::ExactSizeIterator::len).sum()
}

/// A complete per-rank schedule for one collective invocation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Schedule {
    /// The lockstep rounds, executed in order.
    pub rounds: Vec<Round>,
    /// Length of the flat working state, in elements.
    pub state_len: usize,
    /// Where the rank's input vector lands in the state (`None`: the
    /// input is ignored — barrier tokens, non-root broadcast).
    pub input_at: Option<usize>,
    /// The slice of the final state that is this rank's result.
    pub output: Range<usize>,
}

impl Schedule {
    /// Materialize the initial working state from the rank's input.
    pub fn init_state(&self, input: &[f64]) -> Vec<f64> {
        let mut state = vec![0.0f64; self.state_len];
        if let Some(at) = self.input_at {
            state[at..at + input.len()].copy_from_slice(input);
        }
        state
    }

    /// Apply one round's local copies (snapshot semantics).
    pub fn apply_copies(round: &Round, state: &mut [f64]) {
        if round.copies.is_empty() {
            return;
        }
        let snapshot = state.to_vec();
        for c in &round.copies {
            state[c.dst..c.dst + c.src.len()].copy_from_slice(&snapshot[c.src.clone()]);
        }
    }

    /// Gather a send's payload from the (post-copy) state.
    pub fn gather(ranges: &[Range<usize>], state: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(ranges_elems(ranges));
        for r in ranges {
            out.extend_from_slice(&state[r.clone()]);
        }
        out
    }

    /// Append a send's payload — the listed state ranges, in order — to
    /// `out` in wire form, without an intermediate f64 vector.
    pub fn gather_bytes(ranges: &[Range<usize>], state: &[f64], out: &mut Vec<u8>) {
        out.reserve(ranges_elems(ranges) * 8);
        for r in ranges {
            crate::put_f64s(&state[r.clone()], out);
        }
    }

    /// Fold a received wire payload into the listed state ranges per
    /// `op`, decoding each f64 as it is folded — the same arithmetic,
    /// in the same order, as [`Schedule::apply_recv`] on the decoded
    /// vector.
    pub fn fold_bytes(ranges: &[Range<usize>], op: RecvOp, payload: &[u8], state: &mut [f64]) {
        assert_eq!(
            payload.len(),
            ranges_elems(ranges) * 8,
            "wire payload does not match its receive ranges"
        );
        let mut rest = payload;
        for r in ranges {
            let (chunk, tail) = rest.split_at(r.len() * 8);
            rest = tail;
            let values = crate::f64s_le(chunk);
            match op {
                RecvOp::Sum => {
                    for (dst, add) in state[r.clone()].iter_mut().zip(values) {
                        *dst += add;
                    }
                }
                RecvOp::Copy => {
                    for (dst, v) in state[r.clone()].iter_mut().zip(values) {
                        *dst = v;
                    }
                }
                RecvOp::Discard => {}
            }
        }
    }

    /// Fold a received payload into the state per the recv's op.
    pub fn apply_recv(recv: &RecvSpec, payload: &[f64], state: &mut [f64]) {
        assert_eq!(
            payload.len(),
            ranges_elems(&recv.ranges),
            "recv from rank {} got a mis-sized payload",
            recv.from
        );
        let mut at = 0;
        for r in &recv.ranges {
            let chunk = &payload[at..at + r.len()];
            match recv.op {
                RecvOp::Sum => {
                    for (dst, add) in state[r.clone()].iter_mut().zip(chunk) {
                        *dst += add;
                    }
                }
                RecvOp::Copy => state[r.clone()].copy_from_slice(chunk),
                RecvOp::Discard => {}
            }
            at += r.len();
        }
    }
}

/// Segment bounds used by the segmented (ring) algorithms and by
/// reduce-scatter's output contract: `p + 1` monotone offsets with
/// segment `i` spanning `bounds[i]..bounds[i+1]`. Uneven vector
/// lengths give some ranks one extra element; short vectors give some
/// ranks an empty segment.
pub fn seg_bounds(elems: usize, p: usize) -> Vec<usize> {
    (0..=p).map(|i| i * elems / p).collect()
}

/// Can `(op, algo)` run at this cluster size and vector length?
///
/// Power-of-two restrictions follow the textbook algorithms;
/// divisibility restrictions come from block-structured exchanges
/// (all-to-all blocks, recursive-halving splits). The policy layer
/// only ever selects supported cells, and [`build`] asserts this.
pub fn supports(op: CollectiveOp, algo: Algorithm, p: usize, elems: usize) -> bool {
    if p == 0 || !op.algorithms().contains(&algo) {
        return false;
    }
    let pow2 = p.is_power_of_two();
    match (op, algo) {
        (CollectiveOp::AllReduce, Algorithm::Ring) => true,
        (CollectiveOp::AllReduce, Algorithm::RecursiveDoubling) => pow2,
        (CollectiveOp::ReduceScatter, Algorithm::Ring) => true,
        (CollectiveOp::ReduceScatter, Algorithm::RecursiveHalving) => {
            pow2 && elems.is_multiple_of(p)
        }
        (CollectiveOp::AllGather, Algorithm::Ring) => true,
        (CollectiveOp::AllGather, Algorithm::RecursiveDoubling) => pow2,
        (CollectiveOp::Broadcast, Algorithm::Ring | Algorithm::BinomialTree) => true,
        (CollectiveOp::Barrier, Algorithm::Dissemination) => true,
        (CollectiveOp::Barrier, Algorithm::RecursiveDoubling) => pow2,
        (CollectiveOp::AllToAll, Algorithm::Pairwise) => true,
        (CollectiveOp::AllToAll, Algorithm::Bruck) => pow2 && elems.is_multiple_of(p),
        _ => false,
    }
}

/// Build rank `rank`'s schedule for one collective invocation.
///
/// `elems` is the per-rank **input** length (so allgather's output is
/// `p * elems`, and all-to-all interprets the input as `p` blocks of
/// `elems / p`). Barrier ignores the input entirely.
pub fn build(op: CollectiveOp, algo: Algorithm, rank: usize, p: usize, elems: usize) -> Schedule {
    assert!(
        supports(op, algo, p, elems),
        "unsupported collective cell: {op} via {algo} at p={p}, elems={elems}"
    );
    assert!(rank < p, "rank {rank} out of range for p={p}");
    match (op, algo) {
        (CollectiveOp::AllReduce, Algorithm::Ring) => allreduce_ring(rank, p, elems),
        (CollectiveOp::AllReduce, Algorithm::RecursiveDoubling) => allreduce_rd(rank, p, elems),
        (CollectiveOp::ReduceScatter, Algorithm::Ring) => reduce_scatter_ring(rank, p, elems),
        (CollectiveOp::ReduceScatter, Algorithm::RecursiveHalving) => {
            reduce_scatter_halving(rank, p, elems)
        }
        (CollectiveOp::AllGather, Algorithm::Ring) => allgather_ring(rank, p, elems),
        (CollectiveOp::AllGather, Algorithm::RecursiveDoubling) => allgather_rd(rank, p, elems),
        (CollectiveOp::Broadcast, Algorithm::Ring) => broadcast_chain(rank, p, elems),
        (CollectiveOp::Broadcast, Algorithm::BinomialTree) => broadcast_binomial(rank, p, elems),
        (CollectiveOp::Barrier, Algorithm::Dissemination) => barrier_dissemination(rank, p),
        (CollectiveOp::Barrier, Algorithm::RecursiveDoubling) => barrier_rd(rank, p),
        (CollectiveOp::AllToAll, Algorithm::Pairwise) => alltoall_pairwise(rank, p, elems),
        (CollectiveOp::AllToAll, Algorithm::Bruck) => alltoall_bruck(rank, p, elems),
        (op, algo) => unreachable!("supports() admitted unimplemented cell {op}/{algo}"),
    }
}

fn modp(x: isize, p: usize) -> usize {
    let p = p as isize;
    usize::try_from(x.rem_euclid(p)).expect("rem_euclid of a positive modulus is non-negative")
}

fn ceil_log2(p: usize) -> u32 {
    p.next_power_of_two().trailing_zeros()
}

/// Ring reduce-scatter rounds, appended to `rounds`. With offset
/// `delta`, rank `r` ends holding the fully reduced segment
/// `(r + 1 + delta) mod p`: at step `t` it sends segment
/// `(r − t + delta) mod p` downstream and folds segment
/// `(r − 1 − t + delta) mod p` arriving from upstream.
fn ring_reduce_scatter_rounds(rank: usize, p: usize, elems: usize, delta: usize) -> Vec<Round> {
    let bounds = seg_bounds(elems, p);
    let seg = |i: usize| bounds[i]..bounds[i + 1];
    let r = rank as isize;
    let d = delta as isize;
    let mut rounds = Vec::with_capacity(p - 1);
    for t in 0..p as isize - 1 {
        let mut round = Round::new(PHASE_RING);
        round.send(modp(r + 1, p), vec![seg(modp(r - t + d, p))]);
        round.recv(
            modp(r - 1, p),
            vec![seg(modp(r - 1 - t + d, p))],
            RecvOp::Sum,
        );
        rounds.push(round);
    }
    rounds
}

/// Ring allgather rounds over `p` segments, starting from each rank
/// holding segment `(r + 1 + delta) mod p` (the ring reduce-scatter
/// postcondition with the same `delta`; plain allgather uses
/// `delta = p − 1`, i.e. each rank starts with segment `r`).
fn ring_allgather_rounds(rank: usize, p: usize, bounds: &[usize], delta: usize) -> Vec<Round> {
    let seg = |i: usize| bounds[i]..bounds[i + 1];
    let r = rank as isize;
    let d = delta as isize;
    let mut rounds = Vec::with_capacity(p - 1);
    for t in 0..p as isize - 1 {
        let mut round = Round::new(PHASE_RING);
        round.send(modp(r + 1, p), vec![seg(modp(r + 1 + d - t, p))]);
        round.recv(modp(r - 1, p), vec![seg(modp(r + d - t, p))], RecvOp::Copy);
        rounds.push(round);
    }
    rounds
}

fn allreduce_ring(rank: usize, p: usize, elems: usize) -> Schedule {
    let mut rounds = ring_reduce_scatter_rounds(rank, p, elems, 0);
    rounds.extend(ring_allgather_rounds(rank, p, &seg_bounds(elems, p), 0));
    Schedule {
        rounds,
        state_len: elems,
        input_at: Some(0),
        output: 0..elems,
    }
}

fn allreduce_rd(rank: usize, p: usize, elems: usize) -> Schedule {
    let mut rounds = Vec::new();
    for k in 0..p.trailing_zeros() {
        let partner = rank ^ (1 << k);
        let mut round = Round::new(PHASE_DOUBLING);
        round.send(partner, vec![0..elems]);
        round.recv(partner, vec![0..elems], RecvOp::Sum);
        rounds.push(round);
    }
    Schedule {
        rounds,
        state_len: elems,
        input_at: Some(0),
        output: 0..elems,
    }
}

fn reduce_scatter_ring(rank: usize, p: usize, elems: usize) -> Schedule {
    // delta = p − 1 parks the fully reduced segment r on rank r.
    let rounds = ring_reduce_scatter_rounds(rank, p, elems, p - 1);
    let bounds = seg_bounds(elems, p);
    Schedule {
        rounds,
        state_len: elems,
        input_at: Some(0),
        output: bounds[rank]..bounds[rank + 1],
    }
}

fn reduce_scatter_halving(rank: usize, p: usize, elems: usize) -> Schedule {
    let levels = p.trailing_zeros();
    let (mut lo, mut hi) = (0usize, elems);
    let mut rounds = Vec::with_capacity(levels as usize);
    for j in 0..levels {
        let bit = levels - 1 - j;
        let partner = rank ^ (1 << bit);
        let mid = lo + (hi - lo) / 2;
        // Keep the half selected by our own bit; send the partner's
        // half; fold the partner's contribution to our kept half.
        let (keep, give) = if rank & (1 << bit) == 0 {
            ((lo, mid), (mid, hi))
        } else {
            ((mid, hi), (lo, mid))
        };
        let mut round = Round::new(PHASE_HALVING);
        round.send(partner, vec![give.0..give.1]);
        round.recv(partner, vec![keep.0..keep.1], RecvOp::Sum);
        rounds.push(round);
        (lo, hi) = keep;
    }
    debug_assert_eq!(lo, rank * elems / p, "MSB-first halving lands on segment r");
    Schedule {
        rounds,
        state_len: elems,
        input_at: Some(0),
        output: lo..hi,
    }
}

fn allgather_ring(rank: usize, p: usize, elems: usize) -> Schedule {
    // Block i of the output lives at i*elems; each rank seeds its own
    // block, and the uniform blocks double as ring segments.
    let bounds: Vec<usize> = (0..=p).map(|i| i * elems).collect();
    let rounds = ring_allgather_rounds(rank, p, &bounds, p - 1);
    Schedule {
        rounds,
        state_len: p * elems,
        input_at: Some(rank * elems),
        output: 0..p * elems,
    }
}

fn allgather_rd(rank: usize, p: usize, elems: usize) -> Schedule {
    let mut rounds = Vec::new();
    for k in 0..p.trailing_zeros() {
        let span = 1usize << k;
        let partner = rank ^ span;
        let own_lo = (rank >> k) << k;
        let partner_lo = (partner >> k) << k;
        let mut round = Round::new(PHASE_DOUBLING);
        round.send(partner, vec![own_lo * elems..(own_lo + span) * elems]);
        round.recv(
            partner,
            vec![partner_lo * elems..(partner_lo + span) * elems],
            RecvOp::Copy,
        );
        rounds.push(round);
    }
    Schedule {
        rounds,
        state_len: p * elems,
        input_at: Some(rank * elems),
        output: 0..p * elems,
    }
}

fn broadcast_chain(rank: usize, p: usize, elems: usize) -> Schedule {
    // Store-and-forward down the line: hop t moves the vector from
    // rank t to rank t+1. Ranks off the active hop idle that round.
    let mut rounds = Vec::with_capacity(p.saturating_sub(1));
    for t in 0..p.saturating_sub(1) {
        let mut round = Round::new(PHASE_RING);
        if rank == t {
            round.send(rank + 1, vec![0..elems]);
        }
        if rank == t + 1 {
            round.recv(rank - 1, vec![0..elems], RecvOp::Copy);
        }
        rounds.push(round);
    }
    Schedule {
        rounds,
        state_len: elems,
        input_at: (rank == 0).then_some(0),
        output: 0..elems,
    }
}

fn broadcast_binomial(rank: usize, p: usize, elems: usize) -> Schedule {
    let mut rounds = Vec::new();
    for k in 0..ceil_log2(p) {
        let span = 1usize << k;
        let mut round = Round::new(PHASE_TREE);
        if rank < span && rank + span < p {
            round.send(rank + span, vec![0..elems]);
        }
        if (span..2 * span).contains(&rank) {
            round.recv(rank - span, vec![0..elems], RecvOp::Copy);
        }
        rounds.push(round);
    }
    Schedule {
        rounds,
        state_len: elems,
        input_at: (rank == 0).then_some(0),
        output: 0..elems,
    }
}

fn barrier_dissemination(rank: usize, p: usize) -> Schedule {
    let r = rank as isize;
    let mut rounds = Vec::new();
    for k in 0..ceil_log2(p) {
        let d = 1isize << k;
        let mut round = Round::new(PHASE_DISSEMINATION);
        round.send(modp(r + d, p), vec![0..1]);
        round.recv(modp(r - d, p), vec![0..1], RecvOp::Discard);
        rounds.push(round);
    }
    Schedule {
        rounds,
        state_len: 1,
        input_at: None,
        output: 0..0,
    }
}

fn barrier_rd(rank: usize, p: usize) -> Schedule {
    let mut rounds = Vec::new();
    for k in 0..p.trailing_zeros() {
        let partner = rank ^ (1 << k);
        let mut round = Round::new(PHASE_DOUBLING);
        round.send(partner, vec![0..1]);
        round.recv(partner, vec![0..1], RecvOp::Discard);
        rounds.push(round);
    }
    Schedule {
        rounds,
        state_len: 1,
        input_at: None,
        output: 0..0,
    }
}

fn alltoall_pairwise(rank: usize, p: usize, elems: usize) -> Schedule {
    // State layout: [input blocks A | output blocks O]. Input block i
    // (destined to rank i) spans seg_bounds, so uneven lengths work;
    // every source contributes its block `rank` to this rank, so the
    // output is p copies of this rank's own block width.
    let bounds = seg_bounds(elems, p);
    let a_block = |i: usize| bounds[i]..bounds[i + 1];
    let br = bounds[rank + 1] - bounds[rank];
    let o_at = |i: usize| elems + i * br;
    let r = rank as isize;
    let mut rounds = Vec::with_capacity(p);
    // Round 0: the self-addressed block moves locally.
    let mut own = Round::new(PHASE_PAIRWISE);
    if br > 0 {
        own.copies.push(CopySpec {
            src: a_block(rank),
            dst: o_at(rank),
        });
    }
    rounds.push(own);
    for s in 1..p as isize {
        let to = modp(r + s, p);
        let from = modp(r - s, p);
        let mut round = Round::new(PHASE_PAIRWISE);
        round.send(to, vec![a_block(to)]);
        round.recv(from, vec![o_at(from)..o_at(from) + br], RecvOp::Copy);
        rounds.push(round);
    }
    Schedule {
        rounds,
        state_len: elems + p * br,
        input_at: Some(0),
        output: elems..elems + p * br,
    }
}

fn alltoall_bruck(rank: usize, p: usize, elems: usize) -> Schedule {
    // State layout: [working blocks W | output blocks O], b = elems/p.
    // Phase 1 rotates the input so W[i] is the block destined to rank
    // (r+i) mod p; phase 2 ships, at distance 2^k, every slot with bit
    // k set; the closing rotation lands block-from-src at O[src].
    let b = elems / p;
    let w_block = |i: usize| i * b..(i + 1) * b;
    let r = rank as isize;
    let mut rounds = Vec::new();

    let mut rotate = Round::new(PHASE_BRUCK);
    if b > 0 {
        for i in 0..p {
            let src = modp(r + i as isize, p);
            if src != i {
                rotate.copies.push(CopySpec {
                    src: w_block(src),
                    dst: i * b,
                });
            }
        }
    }
    rounds.push(rotate);

    for k in 0..p.trailing_zeros() {
        let d = 1isize << k;
        let slots: Vec<Range<usize>> = (0..p).filter(|i| i >> k & 1 == 1).map(w_block).collect();
        let mut round = Round::new(PHASE_BRUCK);
        round.send(modp(r + d, p), slots.clone());
        round.recv(modp(r - d, p), slots, RecvOp::Copy);
        rounds.push(round);
    }

    // Postcondition of the exchange rounds: W[i] holds the block from
    // rank (r − i) mod p; unrotate into the output region.
    let mut unrotate = Round::new(PHASE_BRUCK);
    if b > 0 {
        for src in 0..p {
            unrotate.copies.push(CopySpec {
                src: w_block(modp(r - src as isize, p)),
                dst: elems + src * b,
            });
        }
    }
    rounds.push(unrotate);

    Schedule {
        rounds,
        state_len: 2 * elems,
        input_at: Some(0),
        output: elems..2 * elems,
    }
}

/// Ghost-cell width of the composed halo workload for a given interior
/// size: a quarter of the domain, clamped to [1, 32] elements.
pub fn halo_width(elems: usize) -> usize {
    (elems / 4).clamp(1, 32)
}

/// The composed halo-exchange workload: `iters` sweeps of a 1-D
/// stencil domain of `elems` interior cells. Each iteration exchanges
/// ghost cells with both ring neighbors (two [`PHASE_HALO`] rounds,
/// each one send + one recv, so p = 2 never double-streams a peer),
/// charges a local sweep of the interior, and closes with a
/// recursive-doubling allreduce of the residual cell — the
/// allreduce-heavy convergence check that makes this workload lean on
/// the engine. Requires a power-of-two `p` for the residual rounds.
///
/// State layout: `[left ghost | interior | right ghost]` with ghost
/// width [`halo_width`]; the residual lives in the first interior
/// cell. The data flow is simple by construction — interior cells
/// never change except the residual, so the final state is
/// independently predictable (see `expected_halo_state`).
pub fn halo(rank: usize, p: usize, elems: usize, iters: usize) -> Schedule {
    assert!(
        p.is_power_of_two(),
        "halo residual allreduce needs a power-of-two p"
    );
    // ≥ 2 interior cells keep the residual (cell 0 of the interior) out
    // of the eastbound edge, which the predictability argument needs.
    assert!(elems >= 2, "halo needs at least two interior cells");
    let h = halo_width(elems);
    let r = rank as isize;
    let left = modp(r - 1, p);
    let right = modp(r + 1, p);
    let left_ghost = 0..h;
    let interior_left = h..2 * h;
    let interior_right = elems..elems + h;
    let right_ghost = elems + h..elems + 2 * h;
    let residual = h..h + 1;

    let mut rounds = Vec::new();
    for _ in 0..iters {
        // Eastbound: my right edge becomes my right neighbor's left ghost.
        let mut east = Round::new(PHASE_HALO);
        east.compute_elems = elems; // the local stencil sweep
        if p > 1 {
            east.send(right, vec![interior_right.clone()]);
            east.recv(left, vec![left_ghost.clone()], RecvOp::Copy);
        }
        rounds.push(east);
        // Westbound: my left edge becomes my left neighbor's right ghost.
        let mut west = Round::new(PHASE_HALO);
        if p > 1 {
            west.send(left, vec![interior_left.clone()]);
            west.recv(right, vec![right_ghost.clone()], RecvOp::Copy);
        }
        rounds.push(west);
        // Residual allreduce (convergence check), recursive doubling.
        for k in 0..p.trailing_zeros() {
            let partner = rank ^ (1 << k);
            let mut round = Round::new(PHASE_DOUBLING);
            round.send(partner, vec![residual.clone()]);
            round.recv(partner, vec![residual.clone()], RecvOp::Sum);
            rounds.push(round);
        }
    }
    Schedule {
        rounds,
        state_len: elems + 2 * h,
        input_at: Some(h),
        output: 0..elems + 2 * h,
    }
}

/// Per-round cost facts for the analytic model: the max over ranks, so
/// the model tracks the critical path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RoundCost {
    /// The round's phase label.
    pub phase: &'static str,
    /// Max bytes any one rank sends this round.
    pub send_bytes: u64,
    /// Max elements any one rank folds with [`RecvOp::Sum`] this round
    /// (host arithmetic on the non-offloaded paths).
    pub sum_elems: u64,
    /// Max modelled local-compute elements this round.
    pub compute_elems: u64,
}

/// Reduce a set of per-rank schedules to per-round cost facts.
///
/// Panics if the schedules disagree on round count or phase labels —
/// the builders are lockstep by construction.
pub fn profile(schedules: &[Schedule]) -> Vec<RoundCost> {
    let first = schedules.first().expect("profile of an empty schedule set");
    let mut out = Vec::with_capacity(first.rounds.len());
    for (t, lead) in first.rounds.iter().enumerate() {
        let phase = lead.phase;
        let mut cost = RoundCost {
            phase,
            send_bytes: 0,
            sum_elems: 0,
            compute_elems: 0,
        };
        for s in schedules {
            let round = &s.rounds[t];
            assert_eq!(
                round.phase, phase,
                "schedules disagree on phase at round {t}"
            );
            let sent: usize = round.sends.iter().map(|s| ranges_elems(&s.ranges)).sum();
            let summed: usize = round
                .recvs
                .iter()
                .filter(|r| r.op == RecvOp::Sum)
                .map(|r| ranges_elems(&r.ranges))
                .sum();
            cost.send_bytes = cost.send_bytes.max(sent as u64 * 8);
            cost.sum_elems = cost.sum_elems.max(summed as u64);
            cost.compute_elems = cost.compute_elems.max(round.compute_elems as u64);
        }
        out.push(cost);
    }
    out
}

/// Build all `p` schedules for one collective cell (convenience for
/// [`profile`], the lockstep interpreter and the drivers' peers).
pub fn build_all(op: CollectiveOp, algo: Algorithm, p: usize, elems: usize) -> Vec<Schedule> {
    (0..p).map(|r| build(op, algo, r, p, elems)).collect()
}

/// Execute a set of per-rank schedules in lockstep, with no network,
/// no clock and no card: the reference interpreter the unit tests pit
/// against [`oracle`], and the structural check that sends and recvs
/// pair up exactly. `inputs` holds one vector per rank, in any owning
/// or shared form (`Vec<f64>`, `Rc<[f64]>`, `&[f64]`): nothing is
/// copied out of them but the schedules' own initial states.
pub fn run_lockstep<I: AsRef<[f64]>>(schedules: &[Schedule], inputs: &[I]) -> Vec<Vec<f64>> {
    let p = schedules.len();
    assert_eq!(inputs.len(), p, "one input vector per rank");
    let rounds = schedules[0].rounds.len();
    assert!(
        schedules.iter().all(|s| s.rounds.len() == rounds),
        "lockstep schedules must agree on round count"
    );
    let mut states: Vec<Vec<f64>> = schedules
        .iter()
        .zip(inputs)
        .map(|(s, input)| s.init_state(input.as_ref()))
        .collect();
    for t in 0..rounds {
        for (s, state) in schedules.iter().zip(states.iter_mut()) {
            Schedule::apply_copies(&s.rounds[t], state);
        }
        let mut mailbox: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
        for (from, s) in schedules.iter().enumerate() {
            for send in &s.rounds[t].sends {
                let payload = Schedule::gather(&send.ranges, &states[from]);
                let clash = mailbox.insert((from, send.to), payload);
                assert!(
                    clash.is_none(),
                    "round {t}: duplicate send {from}->{}",
                    send.to
                );
            }
        }
        for (to, s) in schedules.iter().enumerate() {
            for recv in &s.rounds[t].recvs {
                let payload = mailbox.remove(&(recv.from, to)).unwrap_or_else(|| {
                    panic!(
                        "round {t}: rank {to} expects a message from {} that was never sent",
                        recv.from
                    )
                });
                Schedule::apply_recv(recv, &payload, &mut states[to]);
            }
        }
        assert!(
            mailbox.is_empty(),
            "round {t}: {} sent message(s) have no matching recv",
            mailbox.len()
        );
    }
    schedules
        .iter()
        .zip(states)
        .map(|(s, state)| state[s.output.clone()].to_vec())
        .collect()
}

/// Build and lockstep-execute one collective cell.
pub fn simulate(
    op: CollectiveOp,
    algo: Algorithm,
    p: usize,
    elems: usize,
    inputs: &[Vec<f64>],
) -> Vec<Vec<f64>> {
    run_lockstep(&build_all(op, algo, p, elems), inputs)
}

/// First-principles expected outputs of a collective, one vector per
/// rank — independent of any algorithm or schedule machinery, so the
/// lockstep interpreter and the cluster drivers verify against
/// something they share no code with. `inputs` holds one vector per
/// rank, in any owning or shared form, read in place.
pub fn oracle<I: AsRef<[f64]>>(op: CollectiveOp, p: usize, inputs: &[I]) -> Vec<Vec<f64>> {
    assert_eq!(inputs.len(), p, "one input vector per rank");
    let elems = inputs.first().map_or(0, |v| v.as_ref().len());
    match op {
        CollectiveOp::AllReduce => {
            let sum = elementwise_sum(inputs, elems);
            vec![sum; p]
        }
        CollectiveOp::ReduceScatter => {
            let sum = elementwise_sum(inputs, elems);
            let bounds = seg_bounds(elems, p);
            (0..p)
                .map(|r| sum[bounds[r]..bounds[r + 1]].to_vec())
                .collect()
        }
        CollectiveOp::AllGather => {
            let all: Vec<f64> = inputs
                .iter()
                .flat_map(|v| v.as_ref().iter().copied())
                .collect();
            vec![all; p]
        }
        CollectiveOp::Broadcast => vec![inputs[0].as_ref().to_vec(); p],
        CollectiveOp::Barrier => vec![Vec::new(); p],
        CollectiveOp::AllToAll => {
            let bounds = seg_bounds(elems, p);
            (0..p)
                .map(|r| {
                    (0..p)
                        .flat_map(|src| {
                            inputs[src].as_ref()[bounds[r]..bounds[r + 1]]
                                .iter()
                                .copied()
                        })
                        .collect()
                })
                .collect()
        }
    }
}

fn elementwise_sum<I: AsRef<[f64]>>(inputs: &[I], elems: usize) -> Vec<f64> {
    let mut sum = vec![0.0f64; elems];
    for v in inputs {
        for (dst, x) in sum.iter_mut().zip(v.as_ref()) {
            *dst += x;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic, integer-valued inputs (exact in f64, so == holds).
    fn inputs(p: usize, elems: usize) -> Vec<Vec<f64>> {
        (0..p)
            .map(|r| {
                (0..elems)
                    .map(|i| ((r + 1) * (i % 97 + 3)) as f64)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn wire_gather_and_fold_match_the_f64_path_bit_for_bit() {
        // Non-integer values, so a reordered or re-rounded sum would show.
        let state: Vec<f64> = (0..40).map(|i| f64::from(i) * 0.1 - 1.7).collect();
        let ranges = vec![3..9, 20..21, 30..40];
        let mut wire = vec![0xEE];
        Schedule::gather_bytes(&ranges, &state, &mut wire);
        assert_eq!(
            &wire[1..],
            &crate::f64s_to_bytes(&Schedule::gather(&ranges, &state))[..]
        );
        for op in [RecvOp::Sum, RecvOp::Copy, RecvOp::Discard] {
            let recv = RecvSpec {
                from: 1,
                ranges: vec![0..6, 10..11, 25..35],
                op,
            };
            let mut via_f64 = state.clone();
            Schedule::apply_recv(&recv, &crate::bytes_to_f64s(&wire[1..]), &mut via_f64);
            let mut via_bytes = state.clone();
            Schedule::fold_bytes(&recv.ranges, op, &wire[1..], &mut via_bytes);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&via_bytes), bits(&via_f64), "{op:?}");
        }
    }

    #[test]
    #[should_panic(expected = "does not match its receive ranges")]
    fn fold_bytes_rejects_a_mis_sized_payload() {
        Schedule::fold_bytes(&[0..2], RecvOp::Sum, &[0u8; 8], &mut [0.0; 2]);
    }

    #[test]
    fn every_supported_cell_matches_the_oracle() {
        for p in [1usize, 2, 3, 4, 5, 7, 8, 16] {
            for op in CollectiveOp::ALL {
                // A block-divisible length, a divisible prime-ish one,
                // and 13: indivisible by every p > 1 in the sweep.
                for elems in [p * 6, 91 - 91 % p.max(1), 13] {
                    for algo in op.algorithms() {
                        if !supports(op, algo, p, elems) {
                            continue;
                        }
                        let ins = inputs(p, elems);
                        assert_eq!(
                            simulate(op, algo, p, elems, &ins),
                            oracle(op, p, &ins),
                            "{op}/{algo} p={p} elems={elems}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn uneven_ring_segments_still_reduce_correctly() {
        // elems < p: most ring segments are empty, messages drop out
        // symmetrically, and the answer still matches.
        for (p, elems) in [(8usize, 3usize), (5, 2), (16, 1)] {
            let ins = inputs(p, elems);
            assert_eq!(
                simulate(CollectiveOp::AllReduce, Algorithm::Ring, p, elems, &ins),
                oracle(CollectiveOp::AllReduce, p, &ins),
                "p={p} elems={elems}"
            );
        }
    }

    #[test]
    fn round_counts_match_the_textbook_formulas() {
        let count = |op, algo, p| build(op, algo, 0, p, 16 * 12).rounds.len();
        assert_eq!(count(CollectiveOp::AllReduce, Algorithm::Ring, 8), 14); // 2(p−1)
        assert_eq!(
            count(CollectiveOp::AllReduce, Algorithm::RecursiveDoubling, 8),
            3
        );
        assert_eq!(count(CollectiveOp::ReduceScatter, Algorithm::Ring, 8), 7);
        assert_eq!(
            count(CollectiveOp::ReduceScatter, Algorithm::RecursiveHalving, 16),
            4
        );
        assert_eq!(count(CollectiveOp::AllGather, Algorithm::Ring, 16), 15);
        assert_eq!(
            count(CollectiveOp::AllGather, Algorithm::RecursiveDoubling, 16),
            4
        );
        assert_eq!(
            count(CollectiveOp::Broadcast, Algorithm::BinomialTree, 5),
            3
        ); // ⌈log₂ 5⌉
        assert_eq!(count(CollectiveOp::Broadcast, Algorithm::Ring, 5), 4);
        assert_eq!(count(CollectiveOp::Barrier, Algorithm::Dissemination, 7), 3);
        assert_eq!(
            count(CollectiveOp::Barrier, Algorithm::RecursiveDoubling, 8),
            3
        );
        assert_eq!(count(CollectiveOp::AllToAll, Algorithm::Pairwise, 4), 4); // copy + p−1
        assert_eq!(count(CollectiveOp::AllToAll, Algorithm::Bruck, 4), 4); // rotate + log + unrotate
    }

    #[test]
    fn every_op_offers_two_algorithms_across_the_sweep() {
        for op in CollectiveOp::ALL {
            for p in [1usize, 2, 4, 8, 16] {
                for algo in op.algorithms() {
                    assert!(
                        supports(op, algo, p, p * 4),
                        "{op}/{algo} must support the power-of-two sweep at p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn p_equals_one_is_the_identity() {
        for op in CollectiveOp::ALL {
            for algo in op.algorithms() {
                let ins = inputs(1, 12);
                let out = simulate(op, algo, 1, 12, &ins);
                assert_eq!(out, oracle(op, 1, &ins), "{op}/{algo}");
            }
        }
    }

    #[test]
    fn seg_bounds_are_monotone_and_cover() {
        for (elems, p) in [(0usize, 4usize), (3, 8), (100, 7), (64, 64)] {
            let b = seg_bounds(elems, p);
            assert_eq!(b.len(), p + 1);
            assert_eq!(b[0], 0);
            assert_eq!(b[p], elems);
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn halo_state_is_independently_predictable() {
        for p in [1usize, 2, 4, 8] {
            let (elems, iters) = (40usize, 3usize);
            let schedules: Vec<Schedule> = (0..p).map(|r| halo(r, p, elems, iters)).collect();
            let ins = inputs(p, elems);
            let outs = run_lockstep(&schedules, &ins);
            for (r, out) in outs.iter().enumerate() {
                let expect = expected_halo_state(&ins, r, p, elems, iters);
                assert_eq!(*out, expect, "halo state diverged on rank {r} (p={p})");
            }
        }
    }

    /// Ground truth for the halo workload, from the data-flow argument
    /// in [`halo`]'s docs: ghosts mirror the neighbors' (static) edge
    /// cells, the residual cell sums across ranks once and then gets
    /// multiplied by p each further iteration, everything else is
    /// untouched.
    fn expected_halo_state(
        ins: &[Vec<f64>],
        rank: usize,
        p: usize,
        elems: usize,
        iters: usize,
    ) -> Vec<f64> {
        let h = halo_width(elems);
        let mut state = vec![0.0f64; elems + 2 * h];
        state[h..h + elems].copy_from_slice(&ins[rank]);
        let residual_sum: f64 = ins.iter().map(|v| v[0]).sum();
        state[h] = residual_sum * (p as f64).powi(iters as i32 - 1);
        if p > 1 {
            let left = (rank + p - 1) % p;
            let right = (rank + 1) % p;
            // Left ghost = left neighbor's right edge; the edge the
            // neighbor sends includes ITS summed residual only if the
            // residual cell sits inside the sent edge — it does not
            // (the residual is interior-left, sent westbound after
            // the residual rounds of the previous iteration).
            state[..h].copy_from_slice(&ins[left][elems - h..]);
            let mut west_edge: Vec<f64> = ins[right][..h].to_vec();
            // The westbound edge of iteration i carries the right
            // neighbor's residual as updated by iteration i's east
            // round ordering: east, west, then residual rounds — so
            // the final west send (iteration `iters`) has seen
            // `iters − 1` completed residual allreduces.
            west_edge[0] = if iters > 1 {
                residual_sum * (p as f64).powi(iters as i32 - 2)
            } else {
                ins[right][0]
            };
            state[elems + h..].copy_from_slice(&west_edge);
        }
        state
    }

    #[test]
    fn profile_reports_critical_path_bytes() {
        let costs = profile(&build_all(CollectiveOp::AllReduce, Algorithm::Ring, 4, 100));
        assert_eq!(costs.len(), 6);
        assert!(costs.iter().all(|c| c.phase == PHASE_RING));
        // Uneven bounds: the widest segment is 25 elements.
        assert!(costs.iter().all(|c| c.send_bytes == 25 * 8));
        // Sum rounds only in the first half.
        assert!(costs[..3].iter().all(|c| c.sum_elems == 25));
        assert!(costs[3..].iter().all(|c| c.sum_elems == 0));
    }

    #[test]
    fn builds_panic_on_unsupported_cells() {
        let r = std::panic::catch_unwind(|| {
            build(
                CollectiveOp::AllReduce,
                Algorithm::RecursiveDoubling,
                0,
                3,
                8,
            )
        });
        assert!(
            r.is_err(),
            "non-power-of-two recursive doubling must refuse"
        );
    }
}
