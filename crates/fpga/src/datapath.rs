//! The INIC's application operators: everything that depends on which
//! transform a scatter or gather runs, as methods on the two closed
//! menus a host driver picks from. The protocol engine around them is
//! `card.rs`. In the shape of sPIN's per-packet hooks, the send side
//! checks a scatter against the bitstream and plans its packets by
//! destination *rank* (the engine alone maps a rank to its MAC or to
//! the card-memory loopback); the receive side checks a gather and
//! sizes its card-memory reservation, sets its host-DMA policy
//! (`trickles`, `tail`) and assembles what the host receives. Adding an
//! operator touches this file only.

use std::collections::BTreeSet;

use acc_algos::fft::Matrix;
use acc_algos::sort::{bucket_flat, bucket_shift, destination_of};
use acc_algos::transpose::{
    bytes_to_slab, extract_transposed_block, interleave_block, slab_to_bytes,
};
use acc_net::PayloadView;
use acc_proto::{packetize_view, InicPacket, INIC_PAYLOAD};

use crate::device::Bitstream;
use crate::ops::OperatorKind;

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
    /// `bucket_bounds` of [`InicGatherComplete`](crate::InicGatherComplete)
    /// carry the per-source end offsets, ordered by source rank).
    Raw,
    /// Collective extension: element-wise sum of every source's f64
    /// vector in card memory; only the reduced vector crosses to the
    /// host (the receive half of AllReduce).
    ReduceF64 {
        /// Vector length in elements.
        elems: usize,
    },
}

impl ScatterKind {
    /// Check a scatter of `data_len` bytes from `my_rank` to `p` ranks
    /// against the configured `bitstream`.
    ///
    /// # Panics
    /// Panics if the bitstream lacks this transform's operator, or the
    /// scatter's shape does not match its destinations.
    pub(crate) fn check(&self, bitstream: &Bitstream, my_rank: u32, p: usize, data_len: usize) {
        match self {
            ScatterKind::TransposeBlocks { m } => assert!(
                bitstream.has(OperatorKind::LocalTranspose { m: *m }),
                "bitstream lacks LocalTranspose{{{m}}}"
            ),
            ScatterKind::BucketKeys { p: kp, splitters } => {
                assert!(
                    bitstream.operators().iter().any(|o| matches!(
                        o.kind,
                        OperatorKind::BucketSort { k } if k >= *kp
                    )),
                    "bitstream lacks a BucketSort wide enough for P={kp}"
                );
                if let Some(sp) = splitters {
                    assert_eq!(sp.len() + 1, *kp, "need P-1 splitters");
                    assert!(
                        sp.windows(2).all(|w| w[0] <= w[1]),
                        "splitters must be ascending"
                    );
                }
                assert_eq!(*kp, p, "bucket fan-out must match dests");
            }
            ScatterKind::Unicast { parts } => {
                assert!(!parts.is_empty(), "unicast scatter with no parts");
                let mut ranks = BTreeSet::new();
                assert!(
                    parts.iter().all(|&(q, len)| (q as usize) < p
                        && (len > 0 || q != my_rank)
                        && ranks.insert(q)),
                    "unicast parts must name distinct in-range ranks, with a payload \
                     for our own"
                );
                assert_eq!(
                    parts.iter().map(|&(_, len)| len).sum::<usize>(),
                    data_len,
                    "unicast parts must cover the data exactly"
                );
            }
        }
    }

    /// Cut `data` into this scatter's packets, in emission order, each
    /// with its destination rank (`my_rank` for the loopback).
    pub(crate) fn plan(
        &self,
        my_rank: u32,
        stream: u32,
        data: &PayloadView,
        p: usize,
    ) -> Vec<(usize, InicPacket)> {
        match self {
            ScatterKind::TransposeBlocks { m } => plan_transpose(my_rank, stream, data, p, *m),
            ScatterKind::BucketKeys { splitters, .. } => {
                plan_buckets(my_rank, stream, data, p, splitters.as_deref())
            }
            ScatterKind::Unicast { parts } => plan_unicast(my_rank, stream, data, parts),
        }
    }
}

/// Cut an FFT slab into per-destination transposed blocks.
fn plan_transpose(
    my_rank: u32,
    stream: u32,
    data: &[u8],
    p: usize,
    m: usize,
) -> Vec<(usize, InicPacket)> {
    let rows = data.len() / 16 / m;
    assert_eq!(rows, m * p, "slab shape inconsistent with dests");
    let slab = bytes_to_slab(data, m, rows);
    let mut out = Vec::new();
    // Destinations in ring-schedule order: start with our own block
    // (it never touches the wire), then (rank+1), (rank+2), …
    for step in 0..p {
        let q = (my_rank as usize + step) % p;
        let block = PayloadView::new(slab_to_bytes(&extract_transposed_block(&slab, q)));
        for pkt in packetize_view(my_rank, stream, &block) {
            out.push((q, pkt));
        }
    }
    out
}

/// Route keys, in their wire form, to their destination ranks,
/// emitting each packet as soon as a destination's staging buffer
/// fills (one-packet threshold).
fn plan_buckets(
    my_rank: u32,
    stream: u32,
    data: &[u8],
    p: usize,
    splitters: Option<&[u32]>,
) -> Vec<(usize, InicPacket)> {
    assert_eq!(data.len() % 4, 0, "key stream holds a partial key");
    let dest_of = destination_of(p, splitters);
    let mut staging: Vec<Vec<u8>> = (0..p).map(|_| Vec::with_capacity(INIC_PAYLOAD)).collect();
    let mut offsets: Vec<u32> = vec![0; p];
    let mut out = Vec::new();
    let mut emit = |q: usize, bytes: Vec<u8>, fin: bool| {
        let pkt = InicPacket {
            src_rank: my_rank,
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
        out.push((q, pkt));
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
fn plan_unicast(
    my_rank: u32,
    stream: u32,
    data: &PayloadView,
    parts: &[(u32, usize)],
) -> Vec<(usize, InicPacket)> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    for &(q, len) in parts {
        let segment = data.subview(offset, offset + len);
        offset += len;
        for pkt in packetize_view(my_rank, stream, &segment) {
            out.push((q as usize, pkt));
        }
    }
    assert_eq!(offset, data.len(), "unicast parts did not consume data");
    out
}

impl GatherKind {
    /// Bytes of card memory the gather holds from announcement to
    /// completion: a transpose's whole output slab, a reduce's
    /// accumulator. The streaming kinds hold none.
    fn footprint(self) -> usize {
        match self {
            GatherKind::InterleaveBlocks { m, rows } => m * rows * 16,
            GatherKind::ReduceF64 { elems } => elems * 8,
            GatherKind::BucketKeys { .. } | GatherKind::Raw => 0,
        }
    }

    /// Check an announced gather against the configured `bitstream`;
    /// returns the card memory it reserves until completion or abort.
    ///
    /// # Panics
    /// Panics if the bitstream lacks this transform's operator.
    pub(crate) fn check(self, bitstream: &Bitstream) -> u64 {
        match self {
            GatherKind::InterleaveBlocks { m, .. } => assert!(
                bitstream.has(OperatorKind::InterleaveBlocks { m }),
                "bitstream lacks InterleaveBlocks{{{m}}}"
            ),
            GatherKind::BucketKeys { k } => assert!(
                bitstream.has(OperatorKind::BucketSort { k }),
                "bitstream lacks BucketSort{{{k}}}"
            ),
            // Pure protocol processing; any datapath can pass data
            // through.
            GatherKind::Raw => {}
            GatherKind::ReduceF64 { .. } => assert!(
                bitstream.has(OperatorKind::ReduceSum),
                "bitstream lacks ReduceSum"
            ),
        }
        self.footprint() as u64
    }

    /// Whether data trickles to the host in `DMA_THRESHOLD` pieces as
    /// it accumulates (bucket and raw gathers, Eq. 15) rather than
    /// waiting on the card until complete (Eq. 9).
    pub(crate) fn trickles(self) -> bool {
        matches!(self, GatherKind::BucketKeys { .. } | GatherKind::Raw)
    }

    /// Bytes still to DMA to the host once every source completed,
    /// given the `received` payload bytes and the `undma` bytes the
    /// trickle has not moved yet.
    pub(crate) fn tail(self, received: u64, undma: u64) -> u64 {
        match self {
            // Interleave: the whole slab crosses to the host now.
            GatherKind::InterleaveBlocks { .. } => received,
            // Bucket/raw: only the sub-threshold remainder is left.
            GatherKind::BucketKeys { .. } | GatherKind::Raw => undma,
            // Reduce: only the reduced vector crosses to the host.
            GatherKind::ReduceF64 { .. } => self.footprint() as u64,
        }
    }

    /// Build what the host receives from the completed per-source
    /// payloads: the data, the bucket (or per-source) end offsets, and
    /// the bytes of the data no source sent (zero fill the datapath
    /// emits for a source that never arrived).
    pub(crate) fn assemble(
        self,
        mut done: Vec<(u32, Vec<u8>)>,
    ) -> (Vec<u8>, Option<Vec<usize>>, u64) {
        // Deterministic assembly order: by source rank.
        done.sort_by_key(|&(src, _)| src);
        match self {
            GatherKind::InterleaveBlocks { m, rows } => {
                let mut out = Matrix::zeros(m, rows);
                for (src, bytes) in &done {
                    let block = bytes_to_slab(bytes, m, m);
                    interleave_block(&mut out, *src as usize, &block);
                }
                // The assembly is fixed-size: regions of sources that
                // never arrived (dead peers whose blocks travel the
                // mixed-technology TCP path instead, for the host to
                // patch) leave zero-filled holes the datapath emits
                // without having received — account for them so the
                // conservation audit stays exact.
                let received: usize = done.iter().map(|(_, b)| b.len()).sum();
                let padded = self.footprint().saturating_sub(received) as u64;
                (slab_to_bytes(&out), None, padded)
            }
            GatherKind::BucketKeys { k } => {
                // Keys grouped into the card's k buckets, preserving
                // (src-rank, arrival) order within each bucket.
                let shift = bucket_shift(k);
                let keys = done.iter().flat_map(|(src, bytes)| {
                    assert_eq!(bytes.len() % 4, 0, "source {src} sent a partial key");
                    bytes
                        .chunks_exact(4)
                        .map(|c| <[u8; 4]>::try_from(c).expect("4-byte key"))
                });
                let (flat, ends) =
                    bucket_flat(keys, k, |key| (u32::from_le_bytes(key) >> shift) as usize);
                let bounds = ends.iter().map(|&end| end * 4).collect();
                (flat.into_flattened(), Some(bounds), 0)
            }
            GatherKind::Raw => {
                // Per-source concatenation, with per-source end offsets
                // in the bounds. A single source's stream is handed over
                // as assembled.
                let mut bounds = Vec::with_capacity(done.len());
                let flat = if done.len() == 1 {
                    let (_src, bytes) = done.pop().expect("one source");
                    bounds.push(bytes.len());
                    bytes
                } else {
                    let total = done.iter().map(|(_, b)| b.len()).sum();
                    let mut flat = Vec::with_capacity(total);
                    for (_src, bytes) in &done {
                        flat.extend_from_slice(bytes);
                        bounds.push(flat.len());
                    }
                    flat
                };
                (flat, Some(bounds), 0)
            }
            GatherKind::ReduceF64 { .. } => {
                let len = self.footprint();
                for (src, bytes) in &done {
                    assert_eq!(bytes.len(), len, "source {src} vector length mismatch");
                }
                (fold_f64_in_place(&mut done, len), None, 0)
            }
        }
    }
}

/// Sum the sources' little-endian f64 vectors elementwise, in place in
/// the first source's buffer, and hand that buffer over as the result.
/// `done` is in rank order and every vector is `len` bytes. Each
/// element is folded in one pass as `((0.0 + s₀) + s₁) + …`, the same
/// rank-ordered arithmetic as a zeroed accumulator (the leading `0.0 +`
/// turns a −0.0 sum into +0.0), with no scratch vector. With no source
/// the result is `len` zero bytes.
fn fold_f64_in_place(done: &mut [(u32, Vec<u8>)], len: usize) -> Vec<u8> {
    let Some(((_, out), rest)) = done.split_first_mut() else {
        return vec![0; len];
    };
    let word = |bytes: &[u8], at: usize| {
        f64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte f64"))
    };
    for (at, slot) in (0..).step_by(8).zip(out.chunks_exact_mut(8)) {
        let mut v = 0.0 + word(slot, 0);
        for (_, bytes) in rest.iter() {
            v += word(bytes, at);
        }
        slot.copy_from_slice(&v.to_le_bytes());
    }
    std::mem::take(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_algos::Complex64;

    /// An `m × m` block whose every element is `value` (non-zero).
    fn block_of(m: usize, value: f64) -> Vec<u8> {
        let mut block = Matrix::zeros(m, m);
        for r in 0..m {
            for c in 0..m {
                block.set(r, c, Complex64::new(value, -value));
            }
        }
        slab_to_bytes(&block)
    }

    #[test]
    fn interleave_missing_source_is_zero_filled_and_counted_as_padding() {
        let (m, p) = (2, 3);
        let kind = GatherKind::InterleaveBlocks { m, rows: m * p };
        let block_bytes = m * m * 16;
        // Sources 2 and 0 arrived (out of rank order); source 1 never did.
        let done = vec![(2, block_of(m, 3.0)), (0, block_of(m, 1.0))];
        let (data, bounds, padded) = kind.assemble(done);
        assert_eq!(data.len(), kind.footprint(), "the slab is fixed-size");
        assert_eq!(bounds, None);
        assert_eq!(padded, block_bytes as u64, "one source's block is padding");
        let slab = bytes_to_slab(&data, m, m * p);
        for r in 0..m {
            for (src, want) in [(0usize, 1.0), (1, 0.0), (2, 3.0)] {
                for c in src * m..(src + 1) * m {
                    assert_eq!(slab.get(r, c), Complex64::new(want, -want), "({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn raw_gather_of_one_source_hands_back_its_buffer() {
        let bytes = vec![7u8, 8, 9, 10, 11];
        let ptr = bytes.as_ptr();
        let (data, bounds, padded) = GatherKind::Raw.assemble(vec![(3, bytes)]);
        assert_eq!(data, [7, 8, 9, 10, 11]);
        assert_eq!(data.as_ptr(), ptr, "no copy of a lone source's stream");
        assert_eq!(bounds, Some(vec![5]));
        assert_eq!(padded, 0);
    }
}
