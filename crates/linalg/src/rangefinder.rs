//! Seeded randomized range-finder (Halko/Martinsson/Tropp-style) for the
//! PCA fast path.
//!
//! The classic DPZ stage-2 fit forms the `m x m` Gram/covariance matrix
//! (`O(n·m²)`) and Householder-tridiagonalizes it (`O(m³)`) even when the
//! TVE rule will keep only `k ≪ m` components. The range-finder skips both:
//! it sketches the data matrix with `s = k + p` probe vectors, refines the
//! sketch with subspace (power) iterations against the *implicit* covariance
//! `C = AᵀA/(n−1)` — two tall-skinny products per application, never an
//! `m x m` intermediate — and solves a small `s x s` Rayleigh–Ritz problem.
//! Total cost is `O(n·m·s)` per covariance application.
//!
//! ## Why the Ritz values make the TVE gate *exact*
//!
//! For the produced orthonormal basis `V` (rows of the returned seed), each
//! Ritz value is exactly `λ_i = v_iᵀ C v_i` — the variance the data carries
//! along that direction. A PCA round trip through any orthonormal basis
//! loses exactly the out-of-span energy, so a TVE computed from Ritz values
//! is the *true* captured-variance fraction of the chosen basis, even when
//! the basis is an imperfect approximation of the leading eigenspace. Ritz
//! values can only *under*-estimate the true eigenvalues, so rank selection
//! against them is conservative — never quality-losing.
//!
//! ## Determinism
//!
//! The probe matrix comes from a fixed xorshift seed; all products run
//! through the backend-parity-contracted kernels (`matmul_transb` /
//! `matmul_thin` / `dot` / `axpy`), every chain of which is independent of
//! thread count and bitwise identical across scalar/AVX2/NEON. Artifacts
//! built on this path are therefore reproducible byte-for-byte.

use crate::eigen::{orthonormalize_rows, sym_eigen, SymEigen};
use crate::{LinalgError, Matrix, Result};

/// Options controlling a randomized range-finder fit.
#[derive(Debug, Clone, Copy)]
pub struct RangeFinderOptions {
    /// Oversampling `p`: probe vectors beyond the requested rank. The
    /// Halko analysis wants 5–10; DPZ uses a little more because the Ritz
    /// tail doubles as the TVE-escalation spectrum estimate.
    pub oversample: usize,
    /// Subspace (power) iterations: applications of the implicit covariance
    /// after the initial sketch. One suffices for the fast-decaying spectra
    /// DCT-decorrelated data produces.
    pub power_iters: usize,
    /// Fixed xorshift seed for the probe matrix.
    pub seed: u64,
}

impl Default for RangeFinderOptions {
    fn default() -> Self {
        RangeFinderOptions {
            oversample: 12,
            power_iters: 1,
            seed: 0x5EED_0D12_F00D_CAFE,
        }
    }
}

/// A converged (transposed, orthonormal-rows) subspace from one randomized
/// fit, reusable as the starting basis of a later fit: each escalation of
/// [`crate::Pca::fit_tve_randomized`] restarts from the previous sketch's,
/// and its `warm` parameter takes one.
///
/// Opaque on purpose: callers hand it back to the next fit, nothing else.
#[derive(Debug, Clone)]
pub struct SubspaceSeed {
    /// `s x m`: row `i` is subspace direction `i`, energy-descending.
    qt: Matrix,
}

impl SubspaceSeed {
    /// Feature count the seed was fitted on; a warm start is only valid for
    /// data with the same width.
    pub fn n_features(&self) -> usize {
        self.qt.cols()
    }

    /// Number of subspace directions carried.
    pub fn rank(&self) -> usize {
        self.qt.rows()
    }

    /// Build a seed from the leading `k` columns of a component basis
    /// (`m x c`, columns energy-descending), so a fit that crossed over to
    /// a dense solver still returns its basis.
    pub(crate) fn from_components(components: &Matrix, k: usize) -> SubspaceSeed {
        let k = k.min(components.cols());
        SubspaceSeed {
            qt: components.leading_cols(k).transpose(),
        }
    }
}

/// Output of [`randomized_covariance_eigen`]: leading eigenpairs plus the
/// converged subspace for warm starts.
pub(crate) struct RangeFinderEigen {
    /// Ritz pairs of `AᵀA/(n−1)`: `eigenvalues` descending (possibly with
    /// negative numerical dust), `eigenvectors` the `m x s` Ritz basis.
    pub eigen: SymEigen,
    /// The Ritz-rotated converged subspace, rows energy-descending.
    pub seed: SubspaceSeed,
    /// Projected data in the Ritz basis, transposed (`s x n`): row `i` is
    /// the score vector along Ritz direction `i`. Algebraically identical
    /// to `(A·V)ᵀ` but obtained from the already-computed sketch product
    /// (`rotᵀ·Y`, an `s²·n` product) instead of a fresh `n·m·s` projection
    /// — callers fitting PCA get their score matrix for free.
    pub scores_t: Matrix,
}

/// Leading `s` eigenpairs of the covariance `AᵀA/(n−1)` of the **centered**
/// data matrix `a` (`n x m`), without ever forming the `m x m` Gram.
///
/// `warm` seeds the first `min(warm.rank(), s)` probe rows from a previous
/// fit's converged subspace (ignored on feature-count mismatch); remaining
/// rows are filled from the fixed xorshift stream, so a cold call is fully
/// deterministic and a warm call is deterministic given the seed basis.
pub(crate) fn randomized_covariance_eigen(
    a: &Matrix,
    s: usize,
    opts: &RangeFinderOptions,
    warm: Option<&SubspaceSeed>,
) -> Result<RangeFinderEigen> {
    let (n, m) = a.shape();
    if n < 2 || m == 0 {
        return Err(LinalgError::Empty(
            "randomized_covariance_eigen needs >=2 samples and >=1 feature",
        ));
    }
    let s = s.clamp(1, m);

    // Probe matrix, transposed (`s x m` rows = probe vectors).
    let mut qt = Matrix::zeros(s, m);
    let mut filled = 0usize;
    if let Some(w) = warm {
        if w.n_features() == m {
            filled = w.rank().min(s);
            for r in 0..filled {
                qt.row_mut(r).copy_from_slice(w.qt.row(r));
            }
        }
    }
    let mut state = opts.seed | 1;
    for r in filled..s {
        for c in 0..m {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            qt.set(r, c, (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
        }
    }
    // The probe does not need orthonormal rows when a power pass follows:
    // the first covariance application is immediately re-orthonormalized,
    // so the up-front MGS (an `s²·m` cost) would be pure overhead. Only the
    // no-refinement configuration feeds the probe straight into the
    // Rayleigh–Ritz step, which does assume an orthonormal `Q`.
    if opts.power_iters == 0 {
        orthonormalize_rows(&mut qt)?;
    }

    // One explicit transpose up front buys streaming row-major access for
    // every covariance application below: `Qᵀ·Aᵀ` as `matmul_thin(Aᵀ)` runs
    // ~2.5x faster than the row-dot `matmul_transb(A)` at these tall-skinny
    // shapes (long fixed-chain accumulations instead of per-element short
    // dots), and the transpose cost is amortized over 2·power_iters + 1
    // applications.
    let at = a.transpose(); // m x n

    // Subspace refinement: each pass applies the implicit covariance once.
    // (C·Q)ᵀ = Qᵀ·Aᵀ·A up to the 1/(n−1) scale, which MGS normalizes away.
    for _ in 0..opts.power_iters {
        let yt = qt.matmul_thin(&at)?; // s x n  = (A·Q)ᵀ
        let mut zt = yt.matmul_thin(a)?; // s x m  = (AᵀA·Q)ᵀ
        orthonormalize_rows(&mut zt)?;
        qt = zt;
    }

    // Rayleigh–Ritz through a half-application: the small matrix
    // Qᵀ·C·Q = (A·Q)ᵀ(A·Q)/(n−1) needs only Y = A·Q.
    let yt = qt.matmul_thin(&at)?; // s x n
    let mut small = yt.matmul_transb(&yt)?; // s x s
    small.scale(1.0 / (n - 1) as f64);
    let SymEigen {
        eigenvalues,
        eigenvectors: rot,
    } = sym_eigen(&small)?;
    // Ritz vectors V = Q·rot, built transposed: Vᵀ = rotᵀ·Qᵀ. `rot` is
    // orthogonal and `qt` has orthonormal rows, so `vt` does too — it *is*
    // the warm-start seed, now sorted by captured energy. The same rotation
    // applied to Y gives the Ritz-basis scores: (A·V)ᵀ = rotᵀ·(A·Q)ᵀ.
    let rot_t = rot.transpose();
    let vt = rot_t.matmul(&qt)?;
    let scores_t = rot_t.matmul(&yt)?;
    let eigenvectors = vt.transpose();
    Ok(RangeFinderEigen {
        eigen: SymEigen {
            eigenvalues,
            eigenvectors,
        },
        seed: SubspaceSeed { qt: vt },
        scores_t,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Centered two-factor data (mirrors the pca.rs fixture, pre-centered
    /// so the raw matrix is a valid `A` for the covariance identity).
    fn centered_synthetic(n: usize, m: usize, seed: u64) -> Matrix {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let load_a: Vec<f64> = (0..m).map(|j| (j as f64 * 0.4).sin()).collect();
        let load_b: Vec<f64> = (0..m).map(|j| (j as f64 * 0.9).cos()).collect();
        let mut x = Matrix::zeros(n, m);
        for r in 0..n {
            let (fa, fb) = (next() * 10.0, next() * 3.0);
            for j in 0..m {
                x.set(r, j, fa * load_a[j] + fb * load_b[j] + 0.01 * next());
            }
        }
        // Center columns.
        let mut mean = vec![0.0; m];
        for r in 0..n {
            for (acc, &v) in mean.iter_mut().zip(x.row(r)) {
                *acc += v;
            }
        }
        for v in &mut mean {
            *v /= n as f64;
        }
        for r in 0..n {
            for (v, &mu) in x.row_mut(r).iter_mut().zip(&mean) {
                *v -= mu;
            }
        }
        x
    }

    fn covariance(a: &Matrix) -> Matrix {
        let mut cov = a.gram();
        cov.scale(1.0 / (a.rows() - 1) as f64);
        cov
    }

    #[test]
    fn matches_dense_solver_on_low_rank_data() {
        let a = centered_synthetic(200, 24, 7);
        let dense = sym_eigen(&covariance(&a)).unwrap();
        let rf = randomized_covariance_eigen(&a, 6, &RangeFinderOptions::default(), None).unwrap();
        let lmax = dense.eigenvalues[0].max(1e-300);
        // Two dominant factors: the leading Ritz values must agree tightly.
        for i in 0..2 {
            let rel = (dense.eigenvalues[i] - rf.eigen.eigenvalues[i]).abs() / lmax;
            assert!(rel < 1e-8, "eigenvalue {i} off by {rel:.3e}");
        }
        // Ritz values never exceed the true spectrum (monotone bound).
        for i in 0..rf.eigen.eigenvalues.len() {
            assert!(
                rf.eigen.eigenvalues[i] <= dense.eigenvalues[i] + 1e-9 * lmax,
                "Ritz value {i} overshoots"
            );
        }
        // Eigenvectors align up to sign.
        for i in 0..2 {
            let v = rf.eigen.eigenvectors.col(i);
            let w = dense.eigenvectors.col(i);
            let dot: f64 = v.iter().zip(&w).map(|(a, b)| a * b).sum();
            assert!(dot.abs() > 1.0 - 1e-8, "component {i} misaligned: {dot}");
        }
    }

    #[test]
    fn ritz_basis_is_orthonormal() {
        let a = centered_synthetic(120, 20, 21);
        let rf = randomized_covariance_eigen(&a, 5, &RangeFinderOptions::default(), None).unwrap();
        let v = &rf.eigen.eigenvectors;
        let vtv = v.transpose().matmul(v).unwrap();
        for i in 0..vtv.rows() {
            for j in 0..vtv.cols() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (vtv.get(i, j) - want).abs() < 1e-10,
                    "VᵀV[{i},{j}] = {}",
                    vtv.get(i, j)
                );
            }
        }
    }

    #[test]
    fn fixed_seed_is_bitwise_deterministic() {
        let a = centered_synthetic(150, 32, 3);
        let opts = RangeFinderOptions::default();
        let x = randomized_covariance_eigen(&a, 8, &opts, None).unwrap();
        let y = randomized_covariance_eigen(&a, 8, &opts, None).unwrap();
        assert_eq!(
            x.eigen.eigenvectors.as_slice(),
            y.eigen.eigenvectors.as_slice()
        );
        assert_eq!(x.eigen.eigenvalues, y.eigen.eigenvalues);
        assert_eq!(x.seed.qt.as_slice(), y.seed.qt.as_slice());
    }

    #[test]
    fn warm_start_from_own_seed_reproduces_subspace() {
        let a = centered_synthetic(150, 28, 9);
        let opts = RangeFinderOptions::default();
        let cold = randomized_covariance_eigen(&a, 8, &opts, None).unwrap();
        let warm = randomized_covariance_eigen(&a, 8, &opts, Some(&cold.seed)).unwrap();
        let lmax = cold.eigen.eigenvalues[0].max(1e-300);
        for i in 0..2 {
            let rel = (cold.eigen.eigenvalues[i] - warm.eigen.eigenvalues[i]).abs() / lmax;
            assert!(rel < 1e-10, "warm eigenvalue {i} off by {rel:.3e}");
        }
    }

    #[test]
    fn warm_seed_with_wrong_width_is_ignored() {
        let a = centered_synthetic(100, 16, 5);
        let b = centered_synthetic(100, 24, 5);
        let opts = RangeFinderOptions::default();
        let seed16 = randomized_covariance_eigen(&a, 4, &opts, None)
            .unwrap()
            .seed;
        // Mismatched width: must behave exactly like a cold call.
        let cold = randomized_covariance_eigen(&b, 4, &opts, None).unwrap();
        let warm = randomized_covariance_eigen(&b, 4, &opts, Some(&seed16)).unwrap();
        assert_eq!(cold.eigen.eigenvalues, warm.eigen.eigenvalues);
        assert_eq!(
            cold.eigen.eigenvectors.as_slice(),
            warm.eigen.eigenvectors.as_slice()
        );
    }

    #[test]
    fn rejects_degenerate_shapes() {
        assert!(
            randomized_covariance_eigen(&Matrix::zeros(1, 4), 2, &Default::default(), None)
                .is_err()
        );
        assert!(
            randomized_covariance_eigen(&Matrix::zeros(10, 0), 2, &Default::default(), None)
                .is_err()
        );
    }

    #[test]
    fn constant_data_yields_zero_spectrum() {
        let a = Matrix::zeros(20, 8); // already "centered" constant data
        let rf = randomized_covariance_eigen(&a, 3, &Default::default(), None).unwrap();
        for &l in &rf.eigen.eigenvalues {
            assert!(l.abs() < 1e-12);
        }
    }
}
