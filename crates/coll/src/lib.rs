//! # acc-coll — the collective engine
//!
//! The paper's INIC fuses exactly two applications into the card (FFT
//! transpose, bucket sort). This crate generalizes that into a
//! first-class collectives library in the ACCL+ mold: six collective
//! operations, each with at least two pluggable algorithms, compiled
//! down to **per-rank communication schedules** that a driver can
//! execute over plain TCP, over the INIC's protocol-only datapath, or
//! fully offloaded onto the card's dataflow operators.
//!
//! The crate is deliberately free of any simulator driver code:
//!
//! * [`plan`] — schedule builders (ring, recursive doubling/halving,
//!   binomial tree, dissemination, pairwise, Bruck), plus a pure
//!   lockstep interpreter and a naive oracle so every algorithm is
//!   provable against first principles without a network in sight;
//! * [`policy`] — the explicit algorithm-selection policy over message
//!   size, processor count and execution path;
//! * [`offload`] — the CLB-budget plan for running a schedule on the
//!   card, where over-capacity schedules are rejected with a structured
//!   error instead of silently assuming free logic;
//! * [`recovery`] — what a degraded cluster asks of a schedule: the one
//!   predicate that says whether a round still folds on the card once
//!   some ranks' cards died (a fold fed by a dead rank falls back to
//!   host arithmetic), and the shrunken offload re-validated against
//!   the CLB budget.
//!
//! `crates/core` consumes these schedules in its `CollDriver` and the
//! §4 analytic models consume [`plan::profile`] for per-round cost
//! formulas, so the sim, the model and the deadline hierarchy all read
//! from one algorithm description.

#![forbid(unsafe_code)]

pub mod offload;
pub mod plan;
pub mod policy;
pub mod recovery;
pub mod verify;

pub use offload::{OffloadError, OffloadPlan};
pub use plan::{build, oracle, simulate, supports, RecvOp, Round, RoundCost, Schedule};
pub use policy::{select, PathClass};
pub use recovery::{degraded_offload, folds_on_card};
pub use verify::{verify_cell, verify_conservation, verify_schedules, CellProof, Violation};

/// The six collective operations the engine exposes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum CollectiveOp {
    /// Every rank contributes a vector; every rank ends with the
    /// element-wise sum of all contributions.
    AllReduce,
    /// Element-wise sum, but each rank keeps only its own segment of
    /// the reduced vector (segment bounds from [`plan::seg_bounds`]).
    ReduceScatter,
    /// Every rank contributes a block; every rank ends with the
    /// concatenation of all blocks in rank order.
    AllGather,
    /// Rank 0's vector is replicated onto every rank.
    Broadcast,
    /// Pure synchronization: no payload survives, every rank leaves
    /// only after every rank has entered.
    Barrier,
    /// Personalized exchange: rank r sends its i-th block to rank i
    /// and ends with the blocks addressed to it, in source order.
    AllToAll,
}

impl CollectiveOp {
    /// All operations, in table/campaign order.
    pub const ALL: [CollectiveOp; 6] = [
        CollectiveOp::AllReduce,
        CollectiveOp::ReduceScatter,
        CollectiveOp::AllGather,
        CollectiveOp::Broadcast,
        CollectiveOp::Barrier,
        CollectiveOp::AllToAll,
    ];

    /// Stable, space-free label (campaign tables, repro artifacts).
    pub fn label(self) -> &'static str {
        match self {
            CollectiveOp::AllReduce => "allreduce",
            CollectiveOp::ReduceScatter => "reduce-scatter",
            CollectiveOp::AllGather => "allgather",
            CollectiveOp::Broadcast => "broadcast",
            CollectiveOp::Barrier => "barrier",
            CollectiveOp::AllToAll => "all-to-all",
        }
    }

    /// Inverse of [`CollectiveOp::label`].
    pub fn parse(s: &str) -> Option<CollectiveOp> {
        CollectiveOp::ALL.into_iter().find(|op| op.label() == s)
    }

    /// The two algorithms the engine implements for this operation, in
    /// policy-preference order for small messages last.
    pub fn algorithms(self) -> [Algorithm; 2] {
        match self {
            CollectiveOp::AllReduce => [Algorithm::Ring, Algorithm::RecursiveDoubling],
            CollectiveOp::ReduceScatter => [Algorithm::Ring, Algorithm::RecursiveHalving],
            CollectiveOp::AllGather => [Algorithm::Ring, Algorithm::RecursiveDoubling],
            CollectiveOp::Broadcast => [Algorithm::Ring, Algorithm::BinomialTree],
            CollectiveOp::Barrier => [Algorithm::Dissemination, Algorithm::RecursiveDoubling],
            CollectiveOp::AllToAll => [Algorithm::Pairwise, Algorithm::Bruck],
        }
    }
}

impl std::fmt::Display for CollectiveOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The pluggable schedule shapes. Not every algorithm applies to every
/// operation — [`CollectiveOp::algorithms`] lists the implemented
/// pairs and [`plan::supports`] adds the (p, elems) constraints.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Algorithm {
    /// Neighbor ring: p−1 pipelined steps of 1/p-sized segments (or a
    /// store-and-forward chain, for broadcast).
    Ring,
    /// Distance-doubling pairwise exchange; log₂ p rounds, requires a
    /// power-of-two rank count.
    RecursiveDoubling,
    /// Distance-halving vector split (reduce-scatter); log₂ p rounds,
    /// power-of-two ranks and a p-divisible vector.
    RecursiveHalving,
    /// Root-at-0 binomial tree; ⌈log₂ p⌉ rounds, any rank count.
    BinomialTree,
    /// The dissemination barrier: ⌈log₂ p⌉ staggered one-directional
    /// token rounds, any rank count.
    Dissemination,
    /// Pairwise personalized exchange: p−1 rounds of single blocks,
    /// any rank count.
    Pairwise,
    /// Bruck's log-round personalized exchange over rotated blocks;
    /// power-of-two ranks.
    Bruck,
}

impl Algorithm {
    /// Stable, space-free label (campaign tables, repro artifacts).
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::Ring => "ring",
            Algorithm::RecursiveDoubling => "recursive-doubling",
            Algorithm::RecursiveHalving => "recursive-halving",
            Algorithm::BinomialTree => "binomial-tree",
            Algorithm::Dissemination => "dissemination",
            Algorithm::Pairwise => "pairwise",
            Algorithm::Bruck => "bruck",
        }
    }

    /// Inverse of [`Algorithm::label`].
    pub fn parse(s: &str) -> Option<Algorithm> {
        [
            Algorithm::Ring,
            Algorithm::RecursiveDoubling,
            Algorithm::RecursiveHalving,
            Algorithm::BinomialTree,
            Algorithm::Dissemination,
            Algorithm::Pairwise,
            Algorithm::Bruck,
        ]
        .into_iter()
        .find(|a| a.label() == s)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Append `v` to `out` in wire form: little-endian f64s.
pub(crate) fn put_f64s(v: &[f64], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + v.len() * 8, 0);
    for (chunk, x) in out[start..].chunks_exact_mut(8).zip(v) {
        chunk.copy_from_slice(&x.to_le_bytes());
    }
}

/// Little-endian encoding of an f64 vector for the wire.
pub fn f64s_to_bytes(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    put_f64s(v, &mut out);
    out
}

/// The f64s of a wire buffer, decoded as they are read. Panics on a
/// torn buffer — the protocol layer below already guarantees
/// whole-message delivery.
pub(crate) fn f64s_le(b: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    assert!(
        b.len().is_multiple_of(8),
        "f64 wire buffer length {} is not a multiple of 8",
        b.len()
    );
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("f64 wire chunk is 8 bytes")))
}

/// Inverse of [`f64s_to_bytes`]. Panics on a torn buffer.
pub fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    f64s_le(b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for op in CollectiveOp::ALL {
            assert_eq!(CollectiveOp::parse(op.label()), Some(op));
            assert!(!op.label().contains(' '), "artifact codec needs one token");
            for algo in op.algorithms() {
                assert_eq!(Algorithm::parse(algo.label()), Some(algo));
                assert!(!algo.label().contains(' '));
            }
        }
        assert_eq!(CollectiveOp::parse("warp-speed"), None);
        assert_eq!(Algorithm::parse("warp-speed"), None);
    }

    #[test]
    fn f64_wire_codec_roundtrips() {
        let v = vec![0.0, -1.5, 1e300, f64::MIN_POSITIVE];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&v)), v);
    }
}
