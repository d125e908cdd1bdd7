//! Orthonormal DCT-II (forward) and DCT-III (inverse) transforms.
//!
//! DPZ's stage 1 applies a 1-D DCT-II to every block of the decomposed data
//! (Section IV-A of the paper). We use the *orthonormal* convention, so the
//! transform matrix `A` satisfies `Aᵀ = A⁻¹` — the property the paper leans on
//! to prove that PCA can run directly in the DCT domain (Eq. 3–6) and that the
//! transform itself is lossless/reversible.
//!
//! Forward transform of `x[0..n]`:
//!
//! ```text
//! X[k] = s(k) · Σ_j x[j] · cos(π (2j+1) k / (2n)),
//! s(0) = √(1/n),  s(k>0) = √(2/n)
//! ```
//!
//! Both directions run in `O(n log n)` via Makhoul's even/odd-reversed
//! permutation + length-`n` complex FFT ([`crate::fft`]), for *any* `n`
//! (mixed-radix for 2/3/5-smooth lengths, Bluestein for the rest). A naive
//! `O(n²)` pair is kept as the test oracle.

use crate::fft::{fft_with, ifft_with, Complex, FftScratch};
use dpz_kernels::fft as kfft;
use std::cell::RefCell;
use std::f64::consts::PI;

/// Reusable workspace for [`Dct1d::forward_with`] / [`Dct1d::inverse_with`]
/// (and, thread-locally, the paired transforms).
///
/// Holds the complex permutation buffer, the descaled-coefficient buffer and
/// the FFT's own scratch. After the first transform of a given length the
/// buffers are warm and subsequent transforms perform **zero heap
/// allocations**. The default [`Dct1d::forward`] / [`Dct1d::inverse`] route
/// through a thread-local instance, so per-worker reuse happens even at call
/// sites that never mention the scratch.
#[derive(Debug, Default)]
pub struct DctScratch {
    /// Complex buffer for the Makhoul-permuted sequence.
    v: Vec<Complex>,
    /// Second complex buffer for the paired (two-for-one) transforms: holds
    /// the two unpacked half-spectra side by side.
    v2: Vec<Complex>,
    /// Raw cosine sums `C[k]` (inverse direction only).
    c: Vec<f64>,
    /// Second cosine-sum buffer for the paired inverse.
    c2: Vec<f64>,
    /// Workspace for the non-power-of-two FFT path.
    fft: FftScratch,
}

impl DctScratch {
    /// Empty scratch; buffers grow on first use and are reused afterwards.
    pub fn new() -> Self {
        DctScratch::default()
    }
}

thread_local! {
    /// Per-thread scratch backing the allocation-free default path. Pool
    /// workers are persistent, so this stays warm across `par_*` calls.
    static LOCAL_SCRATCH: RefCell<DctScratch> = RefCell::new(DctScratch::new());
}

/// A reusable DCT plan for a fixed length `n`.
///
/// Precomputes the twiddle factors `e^{-iπk/(2n)}` once so the same plan can
/// be applied to many blocks (DPZ transforms `M` blocks of identical length;
/// plans are `Sync` and safely shared across rayon workers).
#[derive(Debug, Clone)]
pub struct Dct1d {
    n: usize,
    /// `twiddle[k] = e^{-i π k / (2n)}`.
    twiddle: Vec<Complex>,
    /// Orthonormal scale for k = 0.
    s0: f64,
    /// Orthonormal scale for k > 0.
    sk: f64,
}

impl Dct1d {
    /// Build a plan for blocks of length `n`. `n == 0` yields a trivial plan.
    pub fn new(n: usize) -> Self {
        let twiddle = (0..n)
            .map(|k| Complex::from_angle(-PI * k as f64 / (2.0 * n as f64)))
            .collect();
        let (s0, sk) = if n == 0 {
            (0.0, 0.0)
        } else {
            ((1.0 / n as f64).sqrt(), (2.0 / n as f64).sqrt())
        };
        Dct1d { n, twiddle, s0, sk }
    }

    /// Planned block length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the plan is for empty blocks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place orthonormal DCT-II. `data.len()` must equal the plan length.
    ///
    /// Uses a thread-local [`DctScratch`], so repeated calls on one thread
    /// allocate nothing after the first transform of this length.
    pub fn forward(&self, data: &mut [f64]) {
        LOCAL_SCRATCH.with(|s| self.forward_with(data, &mut s.borrow_mut()));
    }

    /// [`Dct1d::forward`] with caller-owned scratch.
    pub fn forward_with(&self, data: &mut [f64], scratch: &mut DctScratch) {
        assert_eq!(data.len(), self.n, "Dct1d::forward length mismatch");
        let n = self.n;
        if n <= 1 {
            if n == 1 {
                data[0] *= self.s0; // s(0)·x[0]; with n=1, s0 = 1.
            }
            return;
        }
        // Makhoul permutation: even-indexed samples ascending, then
        // odd-indexed samples descending. Every slot of `v` is overwritten,
        // so a resize (no clear) is enough.
        scratch.v.resize(n, Complex::default());
        let v = &mut scratch.v[..n];
        let half = n.div_ceil(2);
        for j in 0..half {
            v[j] = Complex::new(data[2 * j], 0.0);
        }
        for j in 0..n / 2 {
            v[n - 1 - j] = Complex::new(data[2 * j + 1], 0.0);
        }
        fft_with(v, &mut scratch.fft);
        // C[k] = Re(e^{-iπk/(2n)} V[k]); apply orthonormal scaling.
        data[0] = v[0].re * self.s0;
        kfft::dct2_post(&mut data[1..], &self.twiddle[1..], &v[1..], self.sk);
    }

    /// Orthonormal DCT-II of **two** blocks through **one** complex FFT (the
    /// classic two-for-one real-input trick): block `a` rides the real lanes
    /// and block `b` the imaginary lanes, and the two spectra are unpacked
    /// afterwards from the Hermitian symmetry
    /// `Fa[k] = (V[k] + conj(V[n−k]))/2`, `Fb[k] = −i·(V[k] − conj(V[n−k]))/2`.
    /// Since the FFT dominates the transform, pairing blocks nearly halves
    /// the per-block cost; DPZ's stage 1 transforms `M` same-length blocks,
    /// so pairs are always available.
    pub fn forward_pair(&self, a: &mut [f64], b: &mut [f64]) {
        assert_eq!(a.len(), self.n, "Dct1d::forward_pair length mismatch");
        assert_eq!(b.len(), self.n, "Dct1d::forward_pair length mismatch");
        let n = self.n;
        if n <= 1 {
            if n == 1 {
                a[0] *= self.s0;
                b[0] *= self.s0;
            }
            return;
        }
        LOCAL_SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            // Makhoul permutation of both blocks, packed re/im.
            scratch.v.resize(n, Complex::default());
            let v = &mut scratch.v[..n];
            let half = n.div_ceil(2);
            for j in 0..half {
                v[j] = Complex::new(a[2 * j], b[2 * j]);
            }
            for j in 0..n / 2 {
                v[n - 1 - j] = Complex::new(a[2 * j + 1], b[2 * j + 1]);
            }
            fft_with(v, &mut scratch.fft);
            // Unpack the two spectra; only k = 1..n is needed by dct2_post,
            // and k = 0 reduces to (Re, Im) of V[0].
            scratch.v2.resize(2 * n, Complex::default());
            let (va, vb) = scratch.v2.split_at_mut(n);
            for k in 1..n {
                let p = v[k];
                let q = v[n - k];
                va[k] = Complex::new(0.5 * (p.re + q.re), 0.5 * (p.im - q.im));
                vb[k] = Complex::new(0.5 * (p.im + q.im), 0.5 * (q.re - p.re));
            }
            a[0] = v[0].re * self.s0;
            b[0] = v[0].im * self.s0;
            kfft::dct2_post(&mut a[1..], &self.twiddle[1..], &va[1..], self.sk);
            kfft::dct2_post(&mut b[1..], &self.twiddle[1..], &vb[1..], self.sk);
        });
    }

    /// Orthonormal DCT-III of **two** blocks through **one** complex inverse
    /// FFT. The packing is pure linearity: both pre-rotated spectra produce
    /// *real* permuted samples under the inverse FFT, so
    /// `ifft(Va + i·Vb) = perm(a) + i·perm(b)` splits exactly on the re/im
    /// lanes.
    pub fn inverse_pair(&self, a: &mut [f64], b: &mut [f64]) {
        assert_eq!(a.len(), self.n, "Dct1d::inverse_pair length mismatch");
        assert_eq!(b.len(), self.n, "Dct1d::inverse_pair length mismatch");
        let n = self.n;
        if n <= 1 {
            if n == 1 {
                a[0] /= self.s0;
                b[0] /= self.s0;
            }
            return;
        }
        LOCAL_SCRATCH.with(|s| {
            let scratch = &mut *s.borrow_mut();
            scratch.c.resize(n, 0.0);
            scratch.c2.resize(n, 0.0);
            let ca = &mut scratch.c[..n];
            let cb = &mut scratch.c2[..n];
            ca[0] = a[0] / self.s0;
            cb[0] = b[0] / self.s0;
            for k in 1..n {
                ca[k] = a[k] / self.sk;
                cb[k] = b[k] / self.sk;
            }
            // Build both pre-rotated spectra, then pack V = Va + i·Vb.
            scratch.v2.resize(2 * n, Complex::default());
            let (va, vb) = scratch.v2.split_at_mut(n);
            va[0] = Complex::new(ca[0], 0.0);
            vb[0] = Complex::new(cb[0], 0.0);
            kfft::dct3_pre(va, &self.twiddle, ca);
            kfft::dct3_pre(vb, &self.twiddle, cb);
            scratch.v.resize(n, Complex::default());
            let v = &mut scratch.v[..n];
            for k in 0..n {
                v[k] = Complex::new(va[k].re - vb[k].im, va[k].im + vb[k].re);
            }
            ifft_with(v, &mut scratch.fft);
            let half = n.div_ceil(2);
            for j in 0..half {
                a[2 * j] = v[j].re;
                b[2 * j] = v[j].im;
            }
            for j in 0..n / 2 {
                a[2 * j + 1] = v[n - 1 - j].re;
                b[2 * j + 1] = v[n - 1 - j].im;
            }
        });
    }

    /// In-place orthonormal DCT-III (the inverse of [`Dct1d::forward`]).
    ///
    /// Uses a thread-local [`DctScratch`], so repeated calls on one thread
    /// allocate nothing after the first transform of this length.
    pub fn inverse(&self, data: &mut [f64]) {
        LOCAL_SCRATCH.with(|s| self.inverse_with(data, &mut s.borrow_mut()));
    }

    /// [`Dct1d::inverse`] with caller-owned scratch.
    pub fn inverse_with(&self, data: &mut [f64], scratch: &mut DctScratch) {
        assert_eq!(data.len(), self.n, "Dct1d::inverse length mismatch");
        let n = self.n;
        if n <= 1 {
            if n == 1 {
                data[0] /= self.s0;
            }
            return;
        }
        // Undo the orthonormal scaling to recover the raw cosine sums C[k].
        scratch.c.resize(n, 0.0);
        let c = &mut scratch.c[..n];
        c[0] = data[0] / self.s0;
        for k in 1..n {
            c[k] = data[k] / self.sk;
        }
        // Rebuild V[k] = e^{+iπk/(2n)} (C[k] - i·C[n-k]), V[0] = C[0], then
        // invert the FFT and the Makhoul permutation.
        scratch.v.resize(n, Complex::default());
        let v = &mut scratch.v[..n];
        v[0] = Complex::new(c[0], 0.0);
        kfft::dct3_pre(v, &self.twiddle, c);
        ifft_with(v, &mut scratch.fft);
        let half = n.div_ceil(2);
        for j in 0..half {
            data[2 * j] = v[j].re;
        }
        for j in 0..n / 2 {
            data[2 * j + 1] = v[n - 1 - j].re;
        }
    }
}

/// One-shot orthonormal DCT-II returning a fresh vector.
pub fn dct2(input: &[f64]) -> Vec<f64> {
    let mut out = input.to_vec();
    dct2_inplace(&mut out);
    out
}

/// One-shot in-place orthonormal DCT-II.
pub fn dct2_inplace(data: &mut [f64]) {
    Dct1d::new(data.len()).forward(data);
}

/// One-shot orthonormal DCT-III (inverse DCT-II) returning a fresh vector.
pub fn dct3(input: &[f64]) -> Vec<f64> {
    let mut out = input.to_vec();
    dct3_inplace(&mut out);
    out
}

/// One-shot in-place orthonormal DCT-III.
pub fn dct3_inplace(data: &mut [f64]) {
    Dct1d::new(data.len()).inverse(data);
}

/// Naive `O(n²)` orthonormal DCT-II. Test oracle.
pub fn dct2_naive(input: &[f64]) -> Vec<f64> {
    let n = input.len();
    if n == 0 {
        return vec![];
    }
    let s0 = (1.0 / n as f64).sqrt();
    let sk = (2.0 / n as f64).sqrt();
    (0..n)
        .map(|k| {
            let sum: f64 = input
                .iter()
                .enumerate()
                .map(|(j, &x)| {
                    x * (PI * (2.0 * j as f64 + 1.0) * k as f64 / (2.0 * n as f64)).cos()
                })
                .sum();
            sum * if k == 0 { s0 } else { sk }
        })
        .collect()
}

/// Naive `O(n²)` orthonormal DCT-III. Test oracle.
pub fn dct3_naive(input: &[f64]) -> Vec<f64> {
    let n = input.len();
    if n == 0 {
        return vec![];
    }
    let s0 = (1.0 / n as f64).sqrt();
    let sk = (2.0 / n as f64).sqrt();
    (0..n)
        .map(|j| {
            input
                .iter()
                .enumerate()
                .map(|(k, &xk)| {
                    let s = if k == 0 { s0 } else { sk };
                    s * xk * (PI * (2.0 * j as f64 + 1.0) * k as f64 / (2.0 * n as f64)).cos()
                })
                .sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.173).sin() + 0.01 * i as f64)
            .collect()
    }

    fn max_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn fast_matches_naive_forward() {
        for &n in &[1usize, 2, 3, 4, 5, 7, 8, 16, 30, 100, 128, 360] {
            let x = ramp(n);
            let fast = dct2(&x);
            let naive = dct2_naive(&x);
            assert!(max_err(&fast, &naive) < 1e-9 * n.max(1) as f64, "n={n}");
        }
    }

    #[test]
    fn fast_matches_naive_inverse() {
        for &n in &[1usize, 2, 5, 8, 33, 64, 90] {
            let x = ramp(n);
            let fast = dct3(&x);
            let naive = dct3_naive(&x);
            assert!(max_err(&fast, &naive) < 1e-9 * n.max(1) as f64, "n={n}");
        }
    }

    #[test]
    fn round_trip_identity() {
        for &n in &[1usize, 2, 3, 6, 17, 64, 100, 257, 1024] {
            let x = ramp(n);
            let mut y = x.clone();
            let plan = Dct1d::new(n);
            plan.forward(&mut y);
            plan.inverse(&mut y);
            assert!(max_err(&x, &y) < 1e-10 * n as f64, "n={n}");
        }
    }

    #[test]
    fn orthonormal_energy_preservation() {
        // Parseval: an orthonormal transform preserves the l2 norm exactly.
        let x = ramp(200);
        let y = dct2(&x);
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ey: f64 = y.iter().map(|v| v * v).sum();
        assert!((ex - ey).abs() < 1e-9 * ex);
    }

    #[test]
    fn constant_signal_concentrates_in_dc() {
        let x = vec![3.0; 64];
        let y = dct2(&x);
        // DC coefficient is s0 * n * 3 = sqrt(n) * 3.
        assert!((y[0] - 3.0 * 8.0).abs() < 1e-10);
        for v in &y[1..] {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn smooth_signal_energy_compaction() {
        // A slowly varying signal should put almost all of its energy in the
        // first few coefficients — the property DPZ's stage 1 exploits.
        let n = 256;
        let x: Vec<f64> = (0..n).map(|i| (PI * i as f64 / n as f64).sin()).collect();
        let y = dct2(&x);
        let total: f64 = y.iter().map(|v| v * v).sum();
        let head: f64 = y[..8].iter().map(|v| v * v).sum();
        assert!(head / total > 0.999, "head energy ratio {}", head / total);
    }

    #[test]
    fn linearity_of_transform() {
        let n = 50;
        let a = ramp(n);
        let b: Vec<f64> = (0..n).map(|i| ((i * i) % 7) as f64).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x + y).collect();
        let lhs = dct2(&sum);
        let fa = dct2(&a);
        let fb = dct2(&b);
        let rhs: Vec<f64> = fa.iter().zip(&fb).map(|(x, y)| 2.0 * x + y).collect();
        assert!(max_err(&lhs, &rhs) < 1e-10 * n as f64);
    }

    #[test]
    fn plan_reuse_is_consistent() {
        let plan = Dct1d::new(40);
        let x = ramp(40);
        let mut a = x.clone();
        let mut b = x.clone();
        plan.forward(&mut a);
        plan.forward(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn explicit_scratch_matches_thread_local_path() {
        let mut scratch = DctScratch::new();
        // Mixed lengths (radix-2, mixed-radix, Bluestein) through one
        // scratch; results must match the default path bit-for-bit.
        for &n in &[8usize, 33, 8, 100, 64, 33] {
            let plan = Dct1d::new(n);
            let x = ramp(n);
            let mut with = x.clone();
            plan.forward_with(&mut with, &mut scratch);
            let mut default = x.clone();
            plan.forward(&mut default);
            assert_eq!(with, default, "forward n={n}");
            plan.inverse_with(&mut with, &mut scratch);
            assert!(max_err(&with, &x) < 1e-10 * n as f64, "roundtrip n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn plan_rejects_wrong_length() {
        let plan = Dct1d::new(8);
        let mut x = vec![0.0; 7];
        plan.forward(&mut x);
    }

    #[test]
    fn forward_pair_matches_two_single_transforms() {
        for &n in &[1usize, 2, 3, 5, 7, 8, 16, 45, 100, 225, 360, 513] {
            let plan = Dct1d::new(n);
            let a0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.2).collect();
            let b0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos() - 0.1).collect();
            let (mut ra, mut rb) = (a0.clone(), b0.clone());
            plan.forward(&mut ra);
            plan.forward(&mut rb);
            let (mut pa, mut pb) = (a0.clone(), b0.clone());
            plan.forward_pair(&mut pa, &mut pb);
            let tol = 1e-12 * (n as f64).max(1.0);
            assert!(max_err(&pa, &ra) < tol, "n={n} a err {}", max_err(&pa, &ra));
            assert!(max_err(&pb, &rb) < tol, "n={n} b err {}", max_err(&pb, &rb));
        }
    }

    #[test]
    fn inverse_pair_matches_two_single_transforms() {
        for &n in &[1usize, 2, 3, 5, 7, 8, 16, 45, 100, 225, 360, 513] {
            let plan = Dct1d::new(n);
            let a0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.53).sin() * 2.0).collect();
            let b0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos() * 1.5).collect();
            let (mut ra, mut rb) = (a0.clone(), b0.clone());
            plan.inverse(&mut ra);
            plan.inverse(&mut rb);
            let (mut pa, mut pb) = (a0.clone(), b0.clone());
            plan.inverse_pair(&mut pa, &mut pb);
            let tol = 1e-12 * (n as f64).max(1.0);
            assert!(max_err(&pa, &ra) < tol, "n={n} a err {}", max_err(&pa, &ra));
            assert!(max_err(&pb, &rb) < tol, "n={n} b err {}", max_err(&pb, &rb));
        }
    }

    #[test]
    fn pair_roundtrip_recovers_inputs() {
        let n = 360;
        let plan = Dct1d::new(n);
        let a0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.123).sin()).collect();
        let b0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.456).cos()).collect();
        let (mut a, mut b) = (a0.clone(), b0.clone());
        plan.forward_pair(&mut a, &mut b);
        plan.inverse_pair(&mut a, &mut b);
        assert!(max_err(&a, &a0) < 1e-10);
        assert!(max_err(&b, &b0) < 1e-10);
    }

    #[test]
    fn zero_length_is_noop() {
        let plan = Dct1d::new(0);
        let mut x: Vec<f64> = vec![];
        plan.forward(&mut x);
        plan.inverse(&mut x);
        assert!(x.is_empty());
        assert!(plan.is_empty());
    }
}
