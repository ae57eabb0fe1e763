//! Fast Fourier Transforms: 1D radix-2 iterative, inverse, 2D, and a naive
//! DFT oracle.
//!
//! This is the reproduction's stand-in for FFTW. The paper never relies on
//! FFTW internals — only on (a) the existence of a fast 1D row transform
//! whose per-row cost `T_1D-FFT(rows)` is measured, and (b) FFTW's parallel
//! template for the 2D transform (Section 3.1.1):
//!
//! 1. 1D-FFT every local row,
//! 2. transpose (data redistribution),
//! 3. 1D-FFT every local row,
//! 4. transpose back.
//!
//! `acc-core::drivers::fft` rebuilds the template; this module supplies the
//! row transform and a serial 2D reference used to validate every parallel
//! implementation bit-for-bit (up to float tolerance).

use crate::complex::Complex64;

/// Checks `n` is a power of two and at least one.
fn assert_pow2(n: usize) {
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
}

/// In-place bit-reversal permutation.
fn bit_reverse_permute(data: &mut [Complex64]) {
    let n = data.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
}

/// Direction of the transform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Forward transform (negative exponent, engineering convention —
    /// matches the paper's `ω^{-i j}` kernels in Eq. 1).
    Forward,
    /// Inverse transform (positive exponent); [`ifft`] also applies the
    /// `1/n` normalisation.
    Inverse,
}

/// In-place iterative radix-2 decimation-in-time FFT.
///
/// No normalisation is applied; use [`ifft`] for a round-trip inverse.
///
/// # Panics
/// Panics unless `data.len()` is a power of two.
pub fn fft_in_place(data: &mut [Complex64], dir: Direction) {
    let n = data.len();
    assert_pow2(n);
    if n == 1 {
        return;
    }
    bit_reverse_permute(data);
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let wlen = Complex64::cis(ang);
        for chunk in data.chunks_mut(len) {
            let mut w = Complex64::ONE;
            let half = len / 2;
            for i in 0..half {
                let u = chunk[i];
                let v = chunk[i + half] * w;
                chunk[i] = u + v;
                chunk[i + half] = u - v;
                w *= wlen;
            }
        }
        len <<= 1;
    }
}

/// Forward FFT returning a new vector.
pub fn fft(input: &[Complex64]) -> Vec<Complex64> {
    let mut out = input.to_vec();
    fft_in_place(&mut out, Direction::Forward);
    out
}

/// Inverse FFT (with `1/n` normalisation) returning a new vector.
pub fn ifft(input: &[Complex64]) -> Vec<Complex64> {
    let mut out = input.to_vec();
    fft_in_place(&mut out, Direction::Inverse);
    let k = 1.0 / out.len() as f64;
    for z in &mut out {
        *z = z.scale(k);
    }
    out
}

/// Naive `O(n²)` DFT — the property-test oracle.
pub fn naive_dft(input: &[Complex64]) -> Vec<Complex64> {
    let n = input.len();
    let mut out = vec![Complex64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        for (j, &x) in input.iter().enumerate() {
            let ang = -std::f64::consts::TAU * (k * j) as f64 / n as f64;
            *o += x * Complex64::cis(ang);
        }
    }
    out
}

/// A dense row-major square-capable complex matrix.
#[derive(Clone, PartialEq, Debug)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Complex64::ZERO; rows * cols],
        }
    }

    /// Build from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_data(rows: usize, cols: usize, data: Vec<Complex64>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> Complex64 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    pub fn set(&mut self, r: usize, c: usize, v: Complex64) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow a row slice.
    pub fn row(&self, r: usize) -> &[Complex64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow a row slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [Complex64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The backing row-major slice.
    pub fn data(&self) -> &[Complex64] {
        &self.data
    }

    /// Out-of-place transpose.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Maximum element-wise distance to another matrix (test helper).
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Serial 2D FFT using the same row-FFT/transpose decomposition as the
/// parallel code (Eq. 2 of the paper): FFT rows, transpose, FFT rows,
/// transpose.
///
/// # Panics
/// Panics unless the matrix is square with power-of-two dimensions
/// (matching the paper's 256×256 and 512×512 workloads).
pub fn fft_2d(m: &Matrix) -> Matrix {
    let mut work = m.clone();
    fft_2d_in_place(&mut work);
    work
}

/// [`fft_2d`] without a working copy: the same row FFTs and transposes,
/// run on `m` itself (a square matrix transposes in place).
///
/// # Panics
/// As [`fft_2d`].
pub fn fft_2d_in_place(m: &mut Matrix) {
    assert_eq!(m.rows(), m.cols(), "2D FFT expects a square matrix");
    let n = m.rows();
    assert_pow2(n);
    for _ in 0..2 {
        for r in 0..n {
            fft_in_place(m.row_mut(r), Direction::Forward);
        }
        for r in 0..n {
            for c in r + 1..n {
                m.data.swap(r * n + c, c * n + r);
            }
        }
    }
}

/// Direct evaluation of the paper's Eq. 1 — the `O(n⁴)` 2D DFT oracle.
/// Only usable for tiny matrices; the tests use 8×8 and 16×16.
pub fn naive_dft_2d(m: &Matrix) -> Matrix {
    let n1 = m.rows();
    let n2 = m.cols();
    let mut out = Matrix::zeros(n1, n2);
    for i1 in 0..n1 {
        for i2 in 0..n2 {
            let mut acc = Complex64::ZERO;
            for j1 in 0..n1 {
                for j2 in 0..n2 {
                    let ang = -std::f64::consts::TAU
                        * ((i1 * j1) as f64 / n1 as f64 + (i2 * j2) as f64 / n2 as f64);
                    acc += m.get(j1, j2) * Complex64::cis(ang);
                }
            }
            out.set(i1, i2, acc);
        }
    }
    out
}

/// Estimated floating-point operation count of one radix-2 length-`n` FFT
/// (`5 n log2 n`, the standard accounting FFTW reports). Used by the host
/// cost model to convert calibrated FLOP rates into simulated compute time.
pub fn fft_flops(n: usize) -> u64 {
    assert_pow2(n);
    5 * n as u64 * n.trailing_zeros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::approx_eq;

    fn assert_vec_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(
                approx_eq(x, y, tol),
                "index {i}: {x:?} vs {y:?} (tol {tol})"
            );
        }
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 32, 128] {
            let input: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.7).cos()))
                .collect();
            assert_vec_close(&fft(&input), &naive_dft(&input), 1e-8 * n as f64);
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut input = vec![Complex64::ZERO; 16];
        input[0] = Complex64::ONE;
        let out = fft(&input);
        for z in out {
            assert!(approx_eq(z, Complex64::ONE, 1e-12));
        }
    }

    #[test]
    fn constant_transforms_to_impulse() {
        let input = vec![Complex64::ONE; 16];
        let out = fft(&input);
        assert!(approx_eq(out[0], Complex64::new(16.0, 0.0), 1e-12));
        for z in &out[1..] {
            assert!(approx_eq(*z, Complex64::ZERO, 1e-12));
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let input: Vec<Complex64> = (0..64)
            .map(|i| Complex64::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let round = ifft(&fft(&input));
        assert_vec_close(&round, &input, 1e-9);
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let input: Vec<Complex64> = (0..256)
            .map(|i| Complex64::new((i as f64 * 0.1).sin(), (i as f64 * 0.2).cos()))
            .collect();
        let out = fft(&input);
        let e_time: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let e_freq: f64 = out.iter().map(|z| z.norm_sqr()).sum::<f64>() / input.len() as f64;
        assert!((e_time - e_freq).abs() < 1e-6 * e_time);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        fft(&[Complex64::ZERO; 12]);
    }

    #[test]
    fn fft_2d_matches_naive_2d() {
        let n = 8;
        let m = Matrix::from_data(
            n,
            n,
            (0..n * n)
                .map(|i| Complex64::new((i as f64 * 0.3).sin(), (i as f64 * 0.11).cos()))
                .collect(),
        );
        let fast = fft_2d(&m);
        let slow = naive_dft_2d(&m);
        assert!(fast.max_abs_diff(&slow) < 1e-8);
    }

    #[test]
    fn fft_2d_separable_impulse() {
        let n = 16;
        let mut m = Matrix::zeros(n, n);
        m.set(0, 0, Complex64::ONE);
        let out = fft_2d(&m);
        for r in 0..n {
            for c in 0..n {
                assert!(approx_eq(out.get(r, c), Complex64::ONE, 1e-10));
            }
        }
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = Matrix::from_data(
            4,
            4,
            (0..16).map(|i| Complex64::new(i as f64, 0.0)).collect(),
        );
        assert_eq!(m.transposed().transposed(), m);
    }

    #[test]
    fn matrix_accessors() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, Complex64::I);
        assert_eq!(m.get(1, 2), Complex64::I);
        assert_eq!(m.row(1)[2], Complex64::I);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.data().len(), 6);
    }

    #[test]
    fn flop_count_formula() {
        assert_eq!(fft_flops(1), 0);
        assert_eq!(fft_flops(2), 10);
        assert_eq!(fft_flops(256), 5 * 256 * 8);
    }
}
