//! The serial oracles a verified run is checked against.
//!
//! Each check is a pure function over what the finished drivers
//! already hold — their inputs and their outputs, borrowed — so a
//! verified run costs one working copy more than an unverified one: the
//! keys once (sort), the expected matrix (FFT) or one expected vector
//! (the reducing collectives). No check calls a kernel the drivers run
//! (`bucket_flat`, `bucket_sort_flat`, `count_sort*`): a kernel bug
//! that dropped a key would otherwise hide on both sides.

use acc_algos::fft::{fft_2d_in_place, Matrix};
use acc_coll::plan::seg_bounds;
use acc_coll::CollectiveOp;

/// Check a distributed sort: rank `q`'s output must be the keys that
/// `dest_of` routes to `q`, sorted, and the outputs joined in rank
/// order must be non-decreasing. Together that is exactly "the joined
/// outputs equal a serial sort of every input": the parts are a
/// partition of the input multiset, so their join holds every key, and
/// sorted in order it is the serial sort. A `dest_of` that differs from
/// the run's routing can only reject a correct run, never accept a
/// wrong one.
///
/// One pass partitions the inputs into one flat buffer (the only copy
/// of the keys), laid out as the outputs are; each part is then sorted
/// in place and compared with its rank's output.
pub(crate) fn check_sort(
    inputs: &[&[u32]],
    outputs: &[&[u32]],
    dest_of: impl Fn(u32) -> usize,
) -> Result<(), String> {
    let p = outputs.len();
    // Part q sits where rank q's output sits in the joined outputs.
    let mut ends = Vec::with_capacity(p);
    let mut total = 0;
    for out in outputs {
        total += out.len();
        ends.push(total);
    }
    let keys: usize = inputs.iter().map(|keys| keys.len()).sum();
    if keys != total {
        return Err(format!(
            "distributed sort returned {total} keys for {keys} input keys"
        ));
    }
    let mut next: Vec<usize> = std::iter::once(0).chain(ends.iter().copied()).collect();
    let mut parts = vec![0u32; total];
    for &key in inputs.iter().flat_map(|keys| keys.iter()) {
        let q = dest_of(key);
        if q >= p {
            return Err(format!("key {key} routes to rank {q} of {p}"));
        }
        if next[q] == ends[q] {
            return Err(format!(
                "rank {q} returned fewer keys than were routed to it"
            ));
        }
        parts[next[q]] = key;
        next[q] += 1;
    }
    let mut start = 0;
    for (q, (&end, out)) in ends.iter().zip(outputs).enumerate() {
        let part = &mut parts[start..end];
        part.sort_unstable();
        if part != *out {
            return Err(format!(
                "rank {q}'s output is not the sorted keys routed to it"
            ));
        }
        start = end;
    }
    if !outputs.iter().flat_map(|out| out.iter()).is_sorted() {
        return Err("global output not sorted".to_owned());
    }
    Ok(())
}

/// Check a distributed 2D FFT: the row-block slabs `outputs`, joined in
/// rank order, must match the serial transform of the joined `inputs`
/// to within `1e-6` in every element.
pub(crate) fn check_fft(inputs: &[&Matrix], outputs: &[&Matrix]) -> Result<(), String> {
    let cols = inputs.first().map_or(0, |slab| slab.cols());
    let rows: usize = inputs.iter().map(|slab| slab.rows()).sum();
    let mut joined = Vec::with_capacity(rows * cols);
    for slab in inputs {
        joined.extend_from_slice(slab.data());
    }
    let mut expect = Matrix::from_data(rows, cols, joined);
    fft_2d_in_place(&mut expect);
    let mut rest = expect.data();
    let mut diff = 0.0f64;
    for (rank, out) in outputs.iter().enumerate() {
        let n = out.data().len();
        if out.cols() != cols || n > rest.len() {
            return Err(format!(
                "rank {rank}'s slab overruns the {rows}×{cols} matrix"
            ));
        }
        let (want, tail) = rest.split_at(n);
        for (&a, &b) in out.data().iter().zip(want) {
            diff = diff.max((a - b).abs());
        }
        rest = tail;
    }
    if !rest.is_empty() {
        return Err("distributed FFT returned too few rows".to_owned());
    }
    if diff >= 1e-6 {
        return Err(format!(
            "distributed FFT diverges from serial oracle by {diff}"
        ));
    }
    Ok(())
}

/// Check collective `op`: every rank's output against one shared
/// expectation built from the inputs — the element-wise sum for the
/// reductions, the inputs themselves otherwise — with exact equality
/// (the inputs are integers, exact in f64 in any reduction order).
/// Segments follow [`seg_bounds`], as the schedules split them.
pub(crate) fn check_collective<I: AsRef<[f64]>>(
    op: CollectiveOp,
    inputs: &[I],
    outputs: &[&[f64]],
) -> Result<(), String> {
    let p = inputs.len();
    if outputs.len() != p {
        return Err(format!("{} outputs for {p} ranks", outputs.len()));
    }
    let elems = inputs.first().map_or(0, |v| v.as_ref().len());
    let bounds = seg_bounds(elems, p);
    let seg = |r: usize| bounds[r]..bounds[r + 1];
    let mut sum = Vec::new();
    if matches!(op, CollectiveOp::AllReduce | CollectiveOp::ReduceScatter) {
        sum.resize(elems, 0.0);
        for v in inputs {
            for (dst, x) in sum.iter_mut().zip(v.as_ref()) {
                *dst += x;
            }
        }
    }
    for (rank, &out) in outputs.iter().enumerate() {
        let every = || inputs.iter().map(AsRef::as_ref);
        let ok = match op {
            CollectiveOp::AllReduce => out == sum,
            CollectiveOp::ReduceScatter => out == &sum[seg(rank)],
            CollectiveOp::AllGather => out.iter().eq(every().flatten()),
            CollectiveOp::Broadcast => out == inputs[0].as_ref(),
            CollectiveOp::Barrier => out.is_empty(),
            CollectiveOp::AllToAll => out.iter().eq(every().flat_map(|v| &v[seg(rank)])),
        };
        if !ok {
            return Err(format!("rank {rank} {op} output mismatch"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use acc_algos::complex::Complex64;
    use acc_algos::fft::fft_2d;
    use acc_algos::sort::destination_of;
    use acc_algos::transpose::split_row_blocks;

    /// Keys below 2³¹ with duplicates, spread over `p` ranks (so the
    /// upper half of the ranks receives nothing), and the outputs a
    /// correct top-bits sort returns for them.
    fn sorted_run(p: usize) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let inputs: Vec<Vec<u32>> = (0..p as u32)
            .map(|r| (0..9).map(|i| ((r * 7 + i * 13) % 16) << 27).collect())
            .collect();
        let dest = destination_of(p, None);
        let mut outputs = vec![Vec::new(); p];
        for &k in inputs.iter().flatten() {
            outputs[dest(k)].push(k);
        }
        for out in &mut outputs {
            out.sort_unstable();
        }
        (inputs, outputs)
    }

    fn sort_verdict(inputs: &[Vec<u32>], outputs: &[Vec<u32>]) -> Result<(), String> {
        let ins: Vec<&[u32]> = inputs.iter().map(Vec::as_slice).collect();
        let outs: Vec<&[u32]> = outputs.iter().map(Vec::as_slice).collect();
        check_sort(&ins, &outs, destination_of(outputs.len(), None))
    }

    #[test]
    fn sort_check_accepts_a_correct_run_with_empty_ranks() {
        let (inputs, outputs) = sorted_run(8);
        assert!(outputs[4..].iter().all(Vec::is_empty));
        assert_eq!(sort_verdict(&inputs, &outputs), Ok(()));
        assert_eq!(sort_verdict(&[vec![], vec![]], &[vec![], vec![]]), Ok(()));
    }

    #[test]
    fn sort_check_rejects_a_key_moved_to_the_neighbouring_rank() {
        let (inputs, mut outputs) = sorted_run(4);
        // Rank 1's largest key onto the end of rank 0: both ranks stay
        // sorted, the joined order breaks.
        let k = outputs[1].pop().expect("rank 1 holds keys");
        outputs[0].push(k);
        assert!(outputs.iter().all(|o| o.is_sorted()));
        assert!(!outputs.iter().flatten().is_sorted());
        assert!(sort_verdict(&inputs, &outputs).is_err());
    }

    #[test]
    fn sort_check_rejects_a_duplicated_key() {
        let (inputs, mut outputs) = sorted_run(4);
        // Rank 1's smallest key twice, in place of its largest.
        let out = &mut outputs[1];
        let last = out.len() - 1;
        assert_ne!(out[0], out[last]);
        out[last] = out[0];
        out.sort_unstable();
        assert!(sort_verdict(&inputs, &outputs).is_err());
    }

    #[test]
    fn sort_check_rejects_a_dropped_key() {
        let (inputs, mut outputs) = sorted_run(4);
        outputs[1].remove(0);
        assert!(sort_verdict(&inputs, &outputs).is_err());
    }

    #[test]
    fn sort_check_rejects_a_correct_run_under_a_wrong_route() {
        let (inputs, outputs) = sorted_run(4);
        let ins: Vec<&[u32]> = inputs.iter().map(Vec::as_slice).collect();
        let outs: Vec<&[u32]> = outputs.iter().map(Vec::as_slice).collect();
        let route = destination_of(4, None);
        assert!(check_sort(&ins, &outs, |k| 3 - route(k)).is_err());
    }

    /// Integer-valued inputs: exact in f64 whatever the reduction order.
    fn coll_inputs(p: usize, elems: usize) -> Vec<Vec<f64>> {
        (0..p)
            .map(|r| (0..elems).map(|i| ((r + 1) * (i + 3)) as f64).collect())
            .collect()
    }

    fn coll_verdict(op: CollectiveOp, inputs: &[Vec<f64>], outputs: &[Vec<f64>]) -> bool {
        let outs: Vec<&[f64]> = outputs.iter().map(Vec::as_slice).collect();
        check_collective(op, inputs, &outs).is_ok()
    }

    #[test]
    fn collective_check_accepts_the_oracle_including_empty_ranks() {
        for op in CollectiveOp::ALL {
            for (p, elems) in [(4, 10), (4, 1), (8, 3), (2, 0)] {
                let inputs = coll_inputs(p, elems);
                let expect = acc_coll::oracle(op, p, &inputs);
                assert!(
                    coll_verdict(op, &inputs, &expect),
                    "{op} p={p} elems={elems}"
                );
            }
        }
    }

    #[test]
    fn collective_check_rejects_one_perturbed_element_on_one_rank() {
        use CollectiveOp::{AllGather, AllReduce, AllToAll, ReduceScatter};
        for op in [AllReduce, ReduceScatter, AllGather, AllToAll] {
            let (p, elems) = (4, 9);
            let inputs = coll_inputs(p, elems);
            let mut outputs = acc_coll::oracle(op, p, &inputs);
            let rank = p - 1;
            let last = outputs[rank].len() - 1;
            outputs[rank][last] += 1.0;
            assert!(
                !coll_verdict(op, &inputs, &outputs),
                "{op} accepted a perturbed element"
            );
        }
    }

    #[test]
    fn fft_check_accepts_the_serial_transform_and_rejects_a_perturbed_one() {
        let (rows, p) = (8, 4);
        let data = (0..rows * rows)
            .map(|i| Complex64::new(i as f64, (i % 3) as f64))
            .collect();
        let matrix = Matrix::from_data(rows, rows, data);
        let inputs = split_row_blocks(&matrix, p);
        let mut outputs = split_row_blocks(&fft_2d(&matrix), p);
        let verdict = |outputs: &[Matrix]| {
            let ins: Vec<&Matrix> = inputs.iter().collect();
            let outs: Vec<&Matrix> = outputs.iter().collect();
            check_fft(&ins, &outs)
        };
        assert_eq!(verdict(&outputs), Ok(()));
        let v = outputs[2].get(1, 5);
        outputs[2].set(1, 5, v + Complex64::new(1e-3, 0.0));
        assert!(verdict(&outputs).is_err());
        assert!(verdict(&outputs[..p - 1]).is_err(), "a missing slab");
    }
}
