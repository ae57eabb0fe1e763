//! Randomized invariant tests over the computational kernels: the
//! invariants every INIC/host implementation pair relies on.
//!
//! Each test sweeps a seeded splitmix64 stream over many generated
//! cases, so failures are reproducible from the fixed seeds (no
//! external property-testing dependency).

use acc_algos::complex::approx_eq;
use acc_algos::fft::{fft, fft_2d, ifft, naive_dft, Matrix};
use acc_algos::sort::{
    bucket_index, bucket_sort, bucket_then_count_sort, bytes_to_keys, count_sort,
    count_sort_in_place, counting_pass, digit_plan, is_sorted, keys_to_bytes, quicksort,
};
use acc_algos::transpose::{
    bytes_to_slab, distributed_transpose, join_row_blocks, slab_to_bytes, split_row_blocks,
};
use acc_algos::Complex64;

/// Minimal splitmix64 stream for generating test cases.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, n)` (modulo bias is irrelevant for test-case generation).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }

    fn complex_vec(&mut self, max_log: u32) -> Vec<Complex64> {
        let log_n = self.below(max_log as u64 + 1) as u32;
        (0..1usize << log_n)
            .map(|_| Complex64::new(self.f64_in(-1e3, 1e3), self.f64_in(-1e3, 1e3)))
            .collect()
    }

    fn keys(&mut self, max_len: u64) -> Vec<u32> {
        let n = self.below(max_len) as usize;
        (0..n).map(|_| self.next_u32()).collect()
    }
}

#[test]
fn fft_matches_naive_dft() {
    let mut g = Gen::new(0xA1);
    for _ in 0..64 {
        let input = g.complex_vec(6);
        let fast = fft(&input);
        let slow = naive_dft(&input);
        let scale = input.iter().map(|z| z.abs()).fold(1.0, f64::max);
        for (a, b) in fast.iter().zip(&slow) {
            assert!(approx_eq(*a, *b, 1e-7 * scale * input.len() as f64));
        }
    }
}

#[test]
fn ifft_inverts_fft() {
    let mut g = Gen::new(0xA2);
    for _ in 0..64 {
        let input = g.complex_vec(8);
        let round = ifft(&fft(&input));
        let scale = input.iter().map(|z| z.abs()).fold(1.0, f64::max);
        for (a, b) in round.iter().zip(&input) {
            assert!(approx_eq(*a, *b, 1e-9 * scale * input.len() as f64));
        }
    }
}

#[test]
fn fft_is_linear() {
    let mut g = Gen::new(0xA3);
    for _ in 0..64 {
        let a = g.complex_vec(5);
        let k = g.f64_in(-10.0, 10.0);
        // FFT(k·a) = k·FFT(a)
        let scaled: Vec<Complex64> = a.iter().map(|z| z.scale(k)).collect();
        let lhs = fft(&scaled);
        let rhs: Vec<Complex64> = fft(&a).iter().map(|z| z.scale(k)).collect();
        let scale = a.iter().map(|z| z.abs()).fold(1.0, f64::max) * (k.abs() + 1.0);
        for (x, y) in lhs.iter().zip(&rhs) {
            assert!(approx_eq(*x, *y, 1e-8 * scale * a.len() as f64));
        }
    }
}

#[test]
fn parseval_energy_preserved() {
    let mut g = Gen::new(0xA4);
    for _ in 0..64 {
        let input = g.complex_vec(8);
        let out = fft(&input);
        let e_time: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let e_freq: f64 = out.iter().map(|z| z.norm_sqr()).sum::<f64>() / input.len() as f64;
        assert!((e_time - e_freq).abs() <= 1e-6 * e_time.max(1.0));
    }
}

#[test]
fn distributed_transpose_equals_serial() {
    let mut g = Gen::new(0xA5);
    for _ in 0..48 {
        let p = 1usize << g.below(4);
        let mult = 1 + g.below(3) as usize;
        let rows = p * mult;
        let mut v = Vec::with_capacity(rows * rows);
        let mut x = g.next_u64() | 1;
        for _ in 0..rows * rows {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            v.push(Complex64::new((x >> 33) as f64, (x & 0xFFFF) as f64));
        }
        let m = Matrix::from_data(rows, rows, v);
        let slabs = split_row_blocks(&m, p);
        let t = distributed_transpose(&slabs);
        assert_eq!(join_row_blocks(&t), m.transposed());
    }
}

#[test]
fn slab_byte_roundtrip() {
    let mut g = Gen::new(0xA6);
    for _ in 0..64 {
        let rows = 1 + g.below(8) as usize;
        let cols = 1 + g.below(8) as usize;
        let mut x = g.next_u64() | 1;
        let data: Vec<Complex64> = (0..rows * cols)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
                Complex64::new(f64::from(x as u32), f64::from((x >> 32) as u32))
            })
            .collect();
        let m = Matrix::from_data(rows, cols, data);
        assert_eq!(bytes_to_slab(&slab_to_bytes(&m), rows, cols), m);
    }
}

#[test]
fn count_sort_equals_std() {
    let mut g = Gen::new(0xA7);
    for _ in 0..32 {
        let keys = g.keys(4000);
        let got = count_sort(&keys);
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }
}

#[test]
fn in_place_count_sort_equals_std_across_lengths_and_spans() {
    let mut g = Gen::new(0xB1);
    // One scratch buffer across every case: reuse must not leak state.
    let mut scratch = Vec::new();
    for n in [0usize, 1, 2, 255, 256, 4096] {
        for span in [0u32, 1, 7, 13, 25, 32] {
            let low = if span == 32 {
                u32::MAX
            } else {
                (1u32 << span) - 1
            };
            // Constant high bits above the span, varying bits below it.
            let high = g.next_u32() & !low;
            let varying: Vec<u32> = (0..n).map(|_| high | (g.next_u32() & low)).collect();
            // Duplicate-heavy: a handful of values spread over the span.
            let pool: Vec<u32> = (0..5).map(|_| high | (g.next_u32() & low)).collect();
            let dups: Vec<u32> = (0..n).map(|_| pool[g.below(5) as usize]).collect();
            for keys in [varying, dups] {
                let mut got = keys.clone();
                count_sort_in_place(&mut got, &mut scratch);
                let mut expect = keys;
                expect.sort_unstable();
                assert_eq!(got, expect, "n={n} span={span}");
            }
        }
    }
}

#[test]
fn digit_plan_sizes_tables_to_the_input() {
    // Large full-span inputs keep the paper's two 16-bit passes.
    assert_eq!(digit_plan(1 << 21, 32), (2, 16));
    // Small buckets get narrow tables: a few dozen entries, not 2¹⁶.
    let (passes, bits) = digit_plan(256, 25);
    assert!(bits <= 8 && passes * bits >= 25, "({passes}, {bits})");
    assert_eq!(digit_plan(4096, 25), (3, 9));
    assert_eq!(digit_plan(1000, 0), (0, 0));
}

#[test]
fn quicksort_equals_std() {
    let mut g = Gen::new(0xA8);
    for _ in 0..32 {
        let keys = g.keys(4000);
        let mut got = keys.clone();
        quicksort(&mut got);
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(got, expect);
    }
}

#[test]
fn bucket_then_count_equals_std() {
    let mut g = Gen::new(0xA9);
    for _ in 0..32 {
        let keys = g.keys(4000);
        let log_k = 1 + g.below(8) as u32;
        let got = bucket_then_count_sort(&keys, 1 << log_k);
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(got, expect);
    }
}

#[test]
fn bucket_sort_partitions_exactly() {
    let mut g = Gen::new(0xAB);
    for _ in 0..32 {
        let keys = g.keys(2000);
        let k = 1usize << (1 + g.below(6) as u32);
        let buckets = bucket_sort(&keys, k);
        // Union of buckets is the input multiset.
        let total: usize = buckets.iter().map(Vec::len).sum();
        assert_eq!(total, keys.len());
        // Each key in its right bucket, in stable order.
        let mut replay = vec![0usize; k];
        for &key in &keys {
            let b = bucket_index(key, k);
            assert_eq!(buckets[b][replay[b]], key);
            replay[b] += 1;
        }
        // Bucket boundaries respect key order: concatenation of sorted
        // buckets is globally sorted.
        let mut cat = Vec::new();
        for b in &buckets {
            let mut s = b.clone();
            s.sort_unstable();
            cat.extend(s);
        }
        assert!(is_sorted(&cat));
    }
}

#[test]
fn counting_pass_is_stable_and_permutes() {
    let mut g = Gen::new(0xAC);
    for _ in 0..32 {
        let keys = g.keys(2000);
        let shift = g.below(25) as u32;
        let out = counting_pass(&keys, shift, 8);
        // Multiset preserved.
        let mut a = keys.clone();
        let mut b = out.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // Digit-sorted.
        let digit = |k: u32| (k >> shift) & 0xFF;
        assert!(out.windows(2).all(|w| digit(w[0]) <= digit(w[1])));
    }
}

#[test]
fn key_bytes_roundtrip() {
    let mut g = Gen::new(0xAD);
    for _ in 0..32 {
        let keys = g.keys(2000);
        assert_eq!(bytes_to_keys(&keys_to_bytes(&keys)), keys);
    }
}

#[test]
fn fft_2d_energy_preserved() {
    let mut g = Gen::new(0xAE);
    for _ in 0..48 {
        let n = 1usize << (1 + g.below(4) as u32);
        let mut x = g.next_u64() | 1;
        let data: Vec<Complex64> = (0..n * n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(3);
                Complex64::new(((x >> 40) as f64) / 1e3, ((x >> 20) as f64 % 997.0) / 1e3)
            })
            .collect();
        let m = Matrix::from_data(n, n, data);
        let out = fft_2d(&m);
        let e_in: f64 = m.data().iter().map(|z| z.norm_sqr()).sum();
        let e_out: f64 = out.data().iter().map(|z| z.norm_sqr()).sum::<f64>() / (n * n) as f64;
        assert!((e_in - e_out).abs() <= 1e-6 * e_in.max(1.0));
    }
}
