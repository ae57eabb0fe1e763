//! The distributed matrix transpose of Section 3.1.2.
//!
//! With a row-block distribution, each of `P` processors owns `M = rows/P`
//! consecutive rows of a square `rows × rows` matrix. The transpose
//! decomposes into the paper's three components:
//!
//! 1. **local transpose** — the local `M × rows` slab is viewed as `P`
//!    blocks of `M × M`; each block is transposed in place,
//! 2. **all-to-all** — block `q` of processor `p` is sent to processor `q`
//!    (block `p` stays home),
//! 3. **final permutation** — the receiver interleaves each arriving
//!    `M × M` block into column-block position `p` of its output slab.
//!
//! All functions here are pure so the identical data manipulation can run
//! on the host CPU path, inside the simulated FPGA datapath, and in test
//! oracles.

use crate::complex::Complex64;
use crate::fft::Matrix;

/// Split a square matrix into `p` row-block slabs of `rows/p × cols`.
///
/// # Panics
/// Panics unless `p` divides the row count.
pub fn split_row_blocks(m: &Matrix, p: usize) -> Vec<Matrix> {
    assert!(
        p > 0 && m.rows().is_multiple_of(p),
        "P must divide the row count"
    );
    let block_rows = m.rows() / p;
    (0..p)
        .map(|b| {
            let mut data = Vec::with_capacity(block_rows * m.cols());
            for r in 0..block_rows {
                data.extend_from_slice(m.row(b * block_rows + r));
            }
            Matrix::from_data(block_rows, m.cols(), data)
        })
        .collect()
}

/// Reassemble row-block slabs into the full matrix (inverse of
/// [`split_row_blocks`]).
pub fn join_row_blocks(slabs: &[Matrix]) -> Matrix {
    assert!(!slabs.is_empty());
    let cols = slabs[0].cols();
    let total_rows: usize = slabs.iter().map(Matrix::rows).sum();
    let mut data = Vec::with_capacity(total_rows * cols);
    for s in slabs {
        assert_eq!(s.cols(), cols, "slab column mismatch");
        data.extend_from_slice(s.data());
    }
    Matrix::from_data(total_rows, cols, data)
}

/// Extract block `q` (columns `q*M .. (q+1)*M`) of an `M × rows` slab and
/// return it **already transposed** — phase 1 of the decomposition, as the
/// sending side performs it.
pub fn extract_transposed_block(slab: &Matrix, q: usize) -> Matrix {
    let m = slab.rows();
    assert!(
        (q + 1) * m <= slab.cols(),
        "block index {q} out of range for {} cols",
        slab.cols()
    );
    let mut out = Matrix::zeros(m, m);
    for r in 0..m {
        for c in 0..m {
            // Transposed: output (c, r) takes input (r, q*M + c).
            out.set(c, r, slab.get(r, q * m + c));
        }
    }
    out
}

/// Append block `q` of an `M × rows` slab, transposed, to `out` in wire
/// form: the bytes of `slab_to_bytes(&extract_transposed_block(slab, q))`,
/// without the intermediate block.
pub fn put_transposed_block(slab: &Matrix, q: usize, out: &mut Vec<u8>) {
    let m = slab.rows();
    assert!(
        (q + 1) * m <= slab.cols(),
        "block index {q} out of range for {} cols",
        slab.cols()
    );
    out.reserve(m * m * 16);
    for c in 0..m {
        for r in 0..m {
            out.extend_from_slice(&slab.get(r, q * m + c).to_le_bytes());
        }
    }
}

/// Write a received (already transposed) `M × M` block from `src_rank`
/// into column-block `src_rank` of the output slab — phase 3, the final
/// permutation / interleave on the receiving side.
pub fn interleave_block(dest: &mut Matrix, src_rank: usize, block: &Matrix) {
    let m = block.rows();
    assert_eq!(block.cols(), m, "blocks are square");
    assert_eq!(dest.rows(), m, "slab height must equal block size");
    assert!((src_rank + 1) * m <= dest.cols(), "src_rank out of range");
    for r in 0..m {
        for c in 0..m {
            dest.set(r, src_rank * m + c, block.get(r, c));
        }
    }
}

/// Full distributed transpose over in-memory slabs: the oracle for every
/// NIC/INIC implementation. Input: `P` slabs of `M × rows`; output: the
/// `P` slabs of the transposed matrix.
pub fn distributed_transpose(slabs: &[Matrix]) -> Vec<Matrix> {
    let p = slabs.len();
    assert!(p > 0);
    let rows = slabs[0].cols();
    let m = slabs[0].rows();
    assert_eq!(m * p, rows, "slab shape inconsistent with P");
    let mut out: Vec<Matrix> = (0..p).map(|_| Matrix::zeros(m, rows)).collect();
    for (src, slab) in slabs.iter().enumerate() {
        for (dst, out_slab) in out.iter_mut().enumerate() {
            let block = extract_transposed_block(slab, dst);
            interleave_block(out_slab, src, &block);
        }
    }
    out
}

/// Pairwise exchange schedule: at step `s` (1..P) rank `r` exchanges with
/// `(r + s) mod P` on the send side and `(r - s) mod P` on the receive
/// side. Every rank sends and receives exactly one block per step, which
/// is the "each processor is always sending and receiving" pipelining
/// assumption under Eq. 8.
pub fn ring_schedule(p: usize, rank: usize) -> impl ExactSizeIterator<Item = ExchangeStep> {
    assert!(rank < p);
    (1..p).map(move |s| ExchangeStep {
        step: s,
        send_to: (rank + s) % p,
        recv_from: (rank + p - s) % p,
    })
}

/// One step of an all-to-all exchange schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExchangeStep {
    /// Step number, 1-based.
    pub step: usize,
    /// Peer this rank sends its block to in this step.
    pub send_to: usize,
    /// Peer this rank receives a block from in this step.
    pub recv_from: usize,
}

/// Serialize a slab to the 16-byte-per-element stream that crosses the
/// INIC datapath.
pub fn slab_to_bytes(slab: &Matrix) -> Vec<u8> {
    let mut out = vec![0u8; slab.data().len() * 16];
    for (chunk, z) in out.chunks_exact_mut(16).zip(slab.data()) {
        chunk.copy_from_slice(&z.to_le_bytes());
    }
    out
}

/// Inverse of [`slab_to_bytes`].
pub fn bytes_to_slab(bytes: &[u8], rows: usize, cols: usize) -> Matrix {
    assert_eq!(bytes.len(), rows * cols * 16, "byte length mismatch");
    let data: Vec<Complex64> = bytes
        .chunks_exact(16)
        .map(|c| Complex64::from_le_bytes(c.try_into().expect("slab element chunk is 16 bytes")))
        .collect();
    Matrix::from_data(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered(rows: usize, cols: usize) -> Matrix {
        Matrix::from_data(
            rows,
            cols,
            (0..rows * cols)
                .map(|i| Complex64::new(i as f64, -(i as f64)))
                .collect(),
        )
    }

    #[test]
    fn split_join_roundtrip() {
        let m = numbered(8, 8);
        for p in [1, 2, 4, 8] {
            let slabs = split_row_blocks(&m, p);
            assert_eq!(slabs.len(), p);
            assert_eq!(join_row_blocks(&slabs), m);
        }
    }

    #[test]
    fn distributed_transpose_matches_serial() {
        for (rows, p) in [(8, 2), (8, 4), (16, 4), (16, 8), (4, 4), (8, 1)] {
            let m = numbered(rows, rows);
            let slabs = split_row_blocks(&m, p);
            let t = distributed_transpose(&slabs);
            assert_eq!(join_row_blocks(&t), m.transposed(), "rows={rows} p={p}");
        }
    }

    #[test]
    fn double_distributed_transpose_is_identity() {
        let m = numbered(16, 16);
        let slabs = split_row_blocks(&m, 4);
        let twice = distributed_transpose(&distributed_transpose(&slabs));
        assert_eq!(join_row_blocks(&twice), m);
    }

    #[test]
    fn put_block_writes_the_extracted_block_bytes() {
        let slab = numbered(4, 16);
        let mut out = vec![7];
        for q in 0..4 {
            out.truncate(1);
            put_transposed_block(&slab, q, &mut out);
            assert_eq!(out[1..], slab_to_bytes(&extract_transposed_block(&slab, q)));
        }
    }

    #[test]
    fn extract_block_transposes() {
        let m = numbered(4, 4);
        let slabs = split_row_blocks(&m, 2);
        // Slab 0 block 1 covers rows 0..2, cols 2..4 → values 2,3,6,7.
        let b = extract_transposed_block(&slabs[0], 1);
        assert_eq!(b.get(0, 0).re, 2.0);
        assert_eq!(b.get(1, 0).re, 3.0);
        assert_eq!(b.get(0, 1).re, 6.0);
        assert_eq!(b.get(1, 1).re, 7.0);
    }

    #[test]
    fn ring_schedule_covers_all_peers() {
        for p in [2usize, 3, 5, 8] {
            for rank in 0..p {
                let mut sends: Vec<usize> = ring_schedule(p, rank).map(|e| e.send_to).collect();
                let mut recvs: Vec<usize> = ring_schedule(p, rank).map(|e| e.recv_from).collect();
                sends.sort_unstable();
                recvs.sort_unstable();
                let expect: Vec<usize> = (0..p).filter(|&x| x != rank).collect();
                assert_eq!(sends, expect);
                assert_eq!(recvs, expect);
            }
        }
    }

    #[test]
    fn ring_schedule_is_conflict_free() {
        // In each step, the set of (sender → receiver) pairs is a perfect
        // matching: every node receives from exactly one sender.
        let p = 6;
        for s in 1..p {
            let mut recv_count = vec![0usize; p];
            for rank in 0..p {
                let step = ring_schedule(p, rank).nth(s - 1).unwrap();
                recv_count[step.send_to] += 1;
            }
            assert!(
                recv_count.iter().all(|&c| c == 1),
                "step {s} not a matching"
            );
        }
    }

    #[test]
    fn byte_roundtrip() {
        let slab = numbered(3, 5);
        let b = slab_to_bytes(&slab);
        assert_eq!(b.len(), 3 * 5 * 16);
        assert_eq!(bytes_to_slab(&b, 3, 5), slab);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn split_rejects_indivisible_p() {
        split_row_blocks(&numbered(8, 8), 3);
    }
}
