//! Integer sorting kernels: count sort, bucket sort and a quicksort
//! baseline.
//!
//! The paper (Section 3.2) builds its parallel sort from two pieces:
//!
//! * **Bucket sort** — a single stable distribution pass on the top bits
//!   of each key. On the sending node it splits keys by destination
//!   processor; on the receiving node it splits them into buckets small
//!   enough to fit the processor cache ("on a problem size of 2²¹ keys or
//!   more, a minimum of 128 buckets are needed").
//! * **Count sort** (Agarwal's super-scalar sort) — stable LSD counting
//!   passes over the key bits that vary, sized to the input by
//!   [`digit_plan`], sort each bucket. "With 32-bit integers and more
//!   than 128 buckets there is no need for the final bubble sort": our
//!   count sort is exact, so no cleanup pass exists at all.
//!
//! The prototype INIC cannot fit the full receive-side bucket sort in its
//! Xilinx 4085XLA (Section 6), so it splits bucketing into **two phases**:
//! 16 buckets on the card, then `N` sub-buckets on the host — the core
//! crate's sort driver runs that path with [`bucket_sort_flat`] over the
//! card's 16 coarse buckets.

/// The right shift that maps a key to one of `k` top-bits buckets. `k`
/// must be a power of two ≥ 2; per-key loops hoist this check.
pub fn bucket_shift(k: usize) -> u32 {
    assert!(
        k.is_power_of_two() && k >= 2,
        "bucket count must be a power of two ≥ 2, got {k}"
    );
    32 - k.trailing_zeros()
}

/// The bucket a key falls into when distributing into `k` buckets by the
/// top bits (uniform keys ⇒ balanced buckets, the paper's stated
/// assumption).
#[inline]
pub fn bucket_index(key: u32, k: usize) -> usize {
    (key >> bucket_shift(k)) as usize
}

/// Stable distribution of `items` into `k` buckets by `bucket_of`
/// (`< k`), counted first and then placed once each into one flat
/// vector: returns it and each bucket's end offset within it.
pub fn bucket_flat<T, I>(items: I, k: usize, bucket_of: impl Fn(T) -> usize) -> (Vec<T>, Vec<usize>)
where
    T: Copy + Default,
    I: IntoIterator<Item = T, IntoIter: Clone>,
{
    let items = items.into_iter();
    let mut ends = vec![0usize; k];
    for item in items.clone() {
        ends[bucket_of(item)] += 1;
    }
    // Exclusive prefix sum: each bucket's next free slot, which the
    // placement pass advances to the bucket's end.
    let mut sum = 0;
    for e in &mut ends {
        (*e, sum) = (sum, sum + *e);
    }
    let mut out = vec![T::default(); sum];
    for item in items {
        let slot = &mut ends[bucket_of(item)];
        out[*slot] = item;
        *slot += 1;
    }
    (out, ends)
}

/// [`bucket_flat`] by top bits: *the* operation the INIC absorbs into
/// the datapath.
pub fn bucket_sort_flat(keys: &[u32], k: usize) -> (Vec<u32>, Vec<usize>) {
    let shift = bucket_shift(k);
    bucket_flat(keys.iter().copied(), k, |key| (key >> shift) as usize)
}

/// [`bucket_sort_flat`] with each bucket in a vector of its own.
pub fn bucket_sort(keys: &[u32], k: usize) -> Vec<Vec<u32>> {
    let (flat, ends) = bucket_sort_flat(keys, k);
    let mut start = 0;
    let mut bucket = |end| flat[std::mem::replace(&mut start, end)..end].to_vec();
    ends.iter().map(|&end| bucket(end)).collect()
}

/// One stable counting pass on `bits` bits starting at `shift`.
/// Returns a newly ordered vector (LSD radix building block).
pub fn counting_pass(keys: &[u32], shift: u32, bits: u32) -> Vec<u32> {
    assert!((1..=16).contains(&bits), "counting pass digit width 1..=16");
    assert!(shift + bits <= 32);
    let mut out = vec![0u32; keys.len()];
    counting_pass_into(keys, &mut out, shift, bits, &mut vec![0; 1 << bits]);
    out
}

/// [`counting_pass`] from `src` into `dst`, with `counts[..2^bits]` as
/// the count table.
fn counting_pass_into(src: &[u32], dst: &mut [u32], shift: u32, bits: u32, counts: &mut [u32]) {
    let (counts, mask) = (&mut counts[..1 << bits], (1u32 << bits) - 1);
    counts.fill(0);
    for &k in src {
        counts[((k >> shift) & mask) as usize] += 1;
    }
    let mut sum = 0;
    for c in counts.iter_mut() {
        (*c, sum) = (sum, sum + *c);
    }
    for &k in src {
        let slot = &mut counts[((k >> shift) & mask) as usize];
        dst[*slot as usize] = k;
        *slot += 1;
    }
}

/// The count sort's digit plan `(passes, bits)` for `n` keys whose low
/// `span` bits vary: the pass count minimising key plus count-table
/// work, `passes × (n + 2^⌈span/passes⌉)`, with digits of at most 16
/// bits (the last pass takes what is left). 2²¹ full-span keys keep the
/// paper's two 16-bit passes; a 4096-key, 25-bit bucket gets three 9-bit
/// passes; `span` 0 needs none.
pub fn digit_plan(n: usize, span: u32) -> (u32, u32) {
    assert!(span <= 32, "a key has 32 bits, not {span}");
    (span.div_ceil(16).max(1)..=span)
        .map(|passes| (passes, span.div_ceil(passes)))
        .min_by_key(|&(passes, bits)| u64::from(passes) * (n as u64 + (1 << bits)))
        .unwrap_or((0, 0))
}

/// Agarwal-style count sort of 32-bit keys, in place: stable counting
/// passes over the bits that vary across `keys` (`32 − lz(AND ^ OR)`),
/// split by [`digit_plan`]. `scratch` grows to one copy of the keys plus
/// one count table; reusing it across buckets allocates once.
pub fn count_sort_in_place(keys: &mut [u32], scratch: &mut Vec<u32>) {
    let n = keys.len();
    assert!(u32::try_from(n).is_ok(), "{n} keys overflow u32 counts");
    let k0 = keys.first().copied().unwrap_or(0);
    let (and, or) = keys.iter().fold((k0, k0), |(a, o), &k| (a & k, o | k));
    let span = 32 - (and ^ or).leading_zeros();
    let (passes, bits) = digit_plan(n, span);
    if passes == 0 {
        return;
    }
    if scratch.len() < n + (1 << bits) {
        *scratch = vec![0; n + (1 << bits)]; // fresh zeroed pages, no fill pass
    }
    let (buf, counts) = scratch.split_at_mut(n);
    let (mut src, mut dst) = (&mut *keys, buf);
    for pass in 0..passes {
        let shift = pass * bits;
        counting_pass_into(src, dst, shift, bits.min(span - shift), counts);
        std::mem::swap(&mut src, &mut dst);
    }
    if passes % 2 == 1 {
        dst.copy_from_slice(src);
    }
}

/// [`count_sort_in_place`] into a new vector.
pub fn count_sort(keys: &[u32]) -> Vec<u32> {
    let mut out = keys.to_vec();
    count_sort_in_place(&mut out, &mut Vec::new());
    out
}

/// Count-sort each bucket of a flat layout (`ends` as [`bucket_flat`]
/// returns them) in place with one shared scratch buffer.
pub fn count_sort_buckets(keys: &mut [u32], ends: &[usize]) {
    let (mut scratch, mut start) = (Vec::new(), 0);
    for &end in ends {
        count_sort_in_place(&mut keys[start..end], &mut scratch);
        start = end;
    }
}

/// The full receive-side pipeline of the parallel implementation
/// (Fig. 3a): bucket sort into `k` cache-sized buckets, count-sort each
/// bucket. Produces fully sorted output.
pub fn bucket_then_count_sort(keys: &[u32], k: usize) -> Vec<u32> {
    let (mut out, ends) = bucket_sort_flat(keys, k);
    count_sort_buckets(&mut out, &ends);
    out
}

/// Quicksort baseline — the comparator the paper measured count sort to be
/// "as much as 2.5× faster than". Median-of-three pivot, insertion sort
/// below 24 elements, recursion on the smaller side to bound stack depth.
pub fn quicksort(keys: &mut [u32]) {
    const INSERTION_CUTOFF: usize = 24;
    let mut stack: Vec<(usize, usize)> = vec![(0, keys.len())];
    while let Some((lo, hi)) = stack.pop() {
        let len = hi - lo;
        if len <= INSERTION_CUTOFF {
            insertion_sort(&mut keys[lo..hi]);
            continue;
        }
        let mid = lo + len / 2;
        // Median-of-three into position `lo`.
        if keys[mid] < keys[lo] {
            keys.swap(mid, lo);
        }
        if keys[hi - 1] < keys[lo] {
            keys.swap(hi - 1, lo);
        }
        if keys[hi - 1] < keys[mid] {
            keys.swap(hi - 1, mid);
        }
        let pivot = keys[mid];
        // Hoare partition.
        let (mut i, mut j) = (lo, hi - 1);
        loop {
            while keys[i] < pivot {
                i += 1;
            }
            while keys[j] > pivot {
                j -= 1;
            }
            if i >= j {
                break;
            }
            keys.swap(i, j);
            i += 1;
            j -= 1;
        }
        let split = j + 1;
        // Push larger side first so the smaller is processed next (bounds
        // the explicit stack to O(log n)).
        if split - lo > hi - split {
            stack.push((lo, split));
            stack.push((split, hi));
        } else {
            stack.push((split, hi));
            stack.push((lo, split));
        }
    }
}

fn insertion_sort(keys: &mut [u32]) {
    for i in 1..keys.len() {
        let v = keys[i];
        let mut j = i;
        while j > 0 && keys[j - 1] > v {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = v;
    }
}

/// True if `keys` is non-decreasing.
pub fn is_sorted(keys: &[u32]) -> bool {
    keys.windows(2).all(|w| w[0] <= w[1])
}

/// Destination processor for a key in the parallel sort: bucket `i` from
/// each processor is sent to processor `i` (Section 3.2.1), with buckets
/// defined by the top `log2 P` bits of the key.
#[inline]
pub fn destination_rank(key: u32, p: usize) -> usize {
    bucket_index(key, p)
}

/// Choose `p − 1` splitters from a sample of the key population so that
/// range partitioning balances load under *any* distribution — the
/// "sampling in a pre-sort phase" the paper recommends for non-uniform
/// keys (Section 3.2).
///
/// The sample is sorted and the splitters taken at its `i/p` quantiles.
pub fn splitters_from_sample(sample: &[u32], p: usize) -> Vec<u32> {
    assert!(p >= 1, "need at least one partition");
    assert!(
        sample.len() >= p,
        "sample ({}) smaller than partition count ({p})",
        sample.len()
    );
    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    (1..p).map(|i| sorted[i * sorted.len() / p]).collect()
}

/// Destination rank under range partitioning: the number of splitters
/// strictly less than or equal to the key (keys equal to a splitter go
/// right, keeping ranges contiguous).
#[inline]
pub fn destination_by_splitters(key: u32, splitters: &[u32]) -> usize {
    splitters.partition_point(|&s| s <= key)
}

/// Each key's destination rank among `p`: by `splitters` when given,
/// else by [`destination_rank`]; with `p` = 1 every key stays home.
pub fn destination_of(p: usize, splitters: Option<&[u32]>) -> impl Fn(u32) -> usize + '_ {
    let shift = (p > 1 && splitters.is_none()).then(|| bucket_shift(p));
    move |key| match (splitters, shift) {
        (Some(sp), _) => destination_by_splitters(key, sp),
        (None, Some(shift)) => (key >> shift) as usize,
        (None, None) => 0,
    }
}

/// Serialize keys to the 4-byte little-endian wire stream of the INIC
/// datapath (Eq. 12: "4 is the number of bytes to store an integer").
pub fn keys_to_bytes(keys: &[u32]) -> Vec<u8> {
    let mut out = vec![0u8; keys.len() * 4];
    for (chunk, k) in out.chunks_exact_mut(4).zip(keys) {
        chunk.copy_from_slice(&k.to_le_bytes());
    }
    out
}

/// Inverse of [`keys_to_bytes`].
pub fn bytes_to_keys(bytes: &[u8]) -> Vec<u32> {
    assert_eq!(
        bytes.len() % 4,
        0,
        "key stream must be a multiple of 4 bytes"
    );
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("sort key chunk is 4 bytes")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::uniform_keys;

    #[test]
    fn bucket_index_uses_top_bits() {
        assert_eq!(bucket_index(0, 4), 0);
        assert_eq!(bucket_index(u32::MAX, 4), 3);
        assert_eq!(bucket_index(1 << 30, 4), 1);
        assert_eq!(bucket_index(3 << 30, 4), 3);
        assert_eq!(bucket_index(0x8000_0000, 2), 1);
    }

    #[test]
    fn bucket_sort_is_stable_partition() {
        let keys = uniform_keys(10_000, 7);
        let buckets = bucket_sort(&keys, 16);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), keys.len());
        for (i, b) in buckets.iter().enumerate() {
            for &k in b {
                assert_eq!(bucket_index(k, 16), i);
            }
        }
        // Stability: relative order within a bucket matches input order.
        let mut replay: Vec<usize> = vec![0; 16];
        for &k in &keys {
            let b = bucket_index(k, 16);
            assert_eq!(buckets[b][replay[b]], k);
            replay[b] += 1;
        }
    }

    #[test]
    fn count_sort_sorts() {
        let keys = uniform_keys(50_000, 3);
        let sorted = count_sort(&keys);
        assert!(is_sorted(&sorted));
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn count_sort_handles_degenerate_inputs() {
        assert_eq!(count_sort(&[]), Vec::<u32>::new());
        assert_eq!(count_sort(&[5]), vec![5]);
        assert_eq!(count_sort(&[2, 2, 2]), vec![2, 2, 2]);
        assert_eq!(count_sort(&[u32::MAX, 0]), vec![0, u32::MAX]);
    }

    #[test]
    fn bucket_then_count_sort_equals_std() {
        for k in [2usize, 16, 128, 256] {
            let keys = uniform_keys(20_000, 11);
            let sorted = bucket_then_count_sort(&keys, k);
            let mut expect = keys.clone();
            expect.sort_unstable();
            assert_eq!(sorted, expect, "k={k}");
        }
    }

    #[test]
    fn quicksort_matches_std() {
        let mut keys = uniform_keys(50_000, 17);
        let mut expect = keys.clone();
        quicksort(&mut keys);
        expect.sort_unstable();
        assert_eq!(keys, expect);
    }

    #[test]
    fn quicksort_adversarial_patterns() {
        // Already sorted, reverse sorted, all equal, organ pipe.
        let n = 10_000u32;
        let mut a: Vec<u32> = (0..n).collect();
        quicksort(&mut a);
        assert!(is_sorted(&a));
        let mut b: Vec<u32> = (0..n).rev().collect();
        quicksort(&mut b);
        assert!(is_sorted(&b));
        let mut c = vec![42u32; n as usize];
        quicksort(&mut c);
        assert!(is_sorted(&c));
        let mut d: Vec<u32> = (0..n / 2).chain((0..n / 2).rev()).collect();
        quicksort(&mut d);
        assert!(is_sorted(&d));
    }

    #[test]
    fn counting_pass_is_stable() {
        // Keys equal on the inspected digit keep input order.
        let keys = vec![0x0102, 0x0201, 0x0101, 0x0202];
        let out = counting_pass(&keys, 0, 8);
        assert_eq!(out, vec![0x0201, 0x0101, 0x0102, 0x0202]);
    }

    #[test]
    fn destination_rank_partitions_keyspace() {
        for p in [2usize, 4, 8, 16] {
            let keys = uniform_keys(10_000, 23);
            for &k in &keys {
                let r = destination_rank(k, p);
                assert!(r < p);
            }
            // Ranks are monotone in key value.
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            let ranks: Vec<usize> = sorted.iter().map(|&k| destination_rank(k, p)).collect();
            assert!(ranks.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn key_byte_roundtrip() {
        let keys = uniform_keys(1000, 29);
        let bytes = keys_to_bytes(&keys);
        assert_eq!(bytes.len(), 4000);
        assert_eq!(bytes_to_keys(&bytes), keys);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bucket_sort_rejects_non_pow2() {
        bucket_sort(&[1, 2, 3], 12);
    }

    #[test]
    fn splitters_balance_skewed_keys() {
        use crate::workload::gaussian_keys;
        let p = 8;
        let keys = gaussian_keys(40_000, 55);
        // Top-bits partitioning concentrates Gaussian keys in the
        // middle ranks…
        let mut top_counts = vec![0usize; p];
        for &k in &keys {
            top_counts[destination_rank(k, p)] += 1;
        }
        let top_max = *top_counts.iter().max().unwrap();
        // …while sampled splitters spread them evenly.
        let sample: Vec<u32> = keys.iter().step_by(50).copied().collect();
        let splitters = splitters_from_sample(&sample, p);
        assert_eq!(splitters.len(), p - 1);
        assert!(splitters.windows(2).all(|w| w[0] <= w[1]));
        let mut split_counts = vec![0usize; p];
        for &k in &keys {
            split_counts[destination_by_splitters(k, &splitters)] += 1;
        }
        let split_max = *split_counts.iter().max().unwrap();
        let mean = keys.len() / p;
        assert!(
            top_max as f64 > 2.0 * mean as f64,
            "gaussian keys should overload middle ranks: {top_counts:?}"
        );
        assert!(
            (split_max as f64) < 1.2 * mean as f64,
            "splitters should balance: {split_counts:?}"
        );
    }

    #[test]
    fn splitter_destinations_are_monotone() {
        let splitters = vec![100, 200, 300];
        assert_eq!(destination_by_splitters(0, &splitters), 0);
        assert_eq!(destination_by_splitters(99, &splitters), 0);
        assert_eq!(destination_by_splitters(100, &splitters), 1);
        assert_eq!(destination_by_splitters(250, &splitters), 2);
        assert_eq!(destination_by_splitters(300, &splitters), 3);
        assert_eq!(destination_by_splitters(u32::MAX, &splitters), 3);
    }

    #[test]
    #[should_panic(expected = "sample")]
    fn splitters_reject_tiny_samples() {
        splitters_from_sample(&[1, 2], 8);
    }

    #[test]
    fn uniform_keys_fill_buckets_evenly() {
        // Sanity for the workload generator + paper's balance assumption.
        let keys = uniform_keys(1 << 16, 31);
        let buckets = bucket_sort(&keys, 16);
        let expect = keys.len() / 16;
        for b in &buckets {
            let dev = (b.len() as i64 - expect as i64).abs();
            assert!(
                dev < expect as i64 / 4,
                "bucket size {} vs {}",
                b.len(),
                expect
            );
        }
    }
}
