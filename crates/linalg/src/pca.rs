//! Principal component analysis.
//!
//! Stage 2 of DPZ projects the DCT-domain block matrix onto its leading
//! eigenvectors ("k-PCA", Section IV-B of the paper). Conventions:
//!
//! * input is `n x m` — `n` samples (coefficient indices) by `m` features
//!   (blocks), with `m < n` as the paper's decomposition guarantees;
//! * the model stores per-feature means (and optionally standard deviations,
//!   for the low-linearity standardization path chosen by the sampling
//!   stage), the full eigenvector basis sorted by descending eigenvalue, and
//!   the eigenvalues themselves;
//! * `transform(k)` / `inverse_transform` give the lossy round trip;
//!   retaining all `m` components reconstructs the input exactly (up to
//!   floating-point error), which is property-tested.

use crate::eigen::{sym_eigen, SymEigen};
use crate::rangefinder::{randomized_covariance_eigen, RangeFinderOptions, SubspaceSeed};
use crate::{LinalgError, Matrix, Result};

/// Below this feature count the randomized range-finder cannot beat the
/// dense solvers: the sketch width (`k + oversample`) stops being ≪ `m` and
/// the range-finder's own orthogonalization dominates. [`Pca::fit_rank`]
/// applies it; callers picking a TVE fitter use it too.
pub const RANDOMIZED_MIN_M: usize = 64;

/// Options controlling a PCA fit.
#[derive(Debug, Clone, Copy, Default)]
pub struct PcaOptions {
    /// Standardize features to unit variance before the eigenanalysis.
    ///
    /// The paper applies this only to low-linearity data (VIF below the
    /// cutoff), since rescaling redistributes variance weight across the
    /// equal-unit DCT blocks.
    pub standardize: bool,
}

/// A fitted PCA model.
///
/// May be *truncated*: [`Pca::fit_rank`] and the TVE fitters keep only the
/// leading eigenpairs, but the model still knows the total variance, so TVE
/// queries remain meaningful.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// Per-feature scale divisors (all 1.0 unless standardizing).
    scale: Option<Vec<f64>>,
    /// `m x c` (`c <= m`); column `j` is the unit eigenvector for
    /// `eigenvalues[j]`.
    components: Matrix,
    /// Covariance eigenvalues, descending, clamped to `>= 0`.
    eigenvalues: Vec<f64>,
    /// Trace of the covariance matrix (total variance), independent of how
    /// many eigenpairs were computed.
    total_variance: f64,
    n_samples: usize,
}

impl Pca {
    /// Fit a full PCA model to `data` (`n` samples x `m` features).
    ///
    /// Requires at least 2 samples and 1 feature. Cost is the `m x m`
    /// covariance (`O(n·m²)`, rayon-parallel) plus an `O(m³)` eigensolve.
    pub fn fit(data: &Matrix, opts: PcaOptions) -> Result<Pca> {
        let prep = Prepared::new(data, opts)?;
        let eig = sym_eigen(&prep.cov)?;
        Ok(prep.into_pca(eig))
    }

    /// Fit the `k` leading eigenpairs — the rank-bounded fit behind a fixed
    /// `k`. The solver follows the data shape:
    ///
    /// * the seeded randomized range-finder ([`crate::rangefinder`]) when
    ///   `m >= RANDOMIZED_MIN_M` and the sketch stays thin,
    ///   `(k + rf.oversample)·4 < m` — no `m x m` Gram, deterministic and
    ///   bit-identical across kernel backends;
    /// * subspace iteration over the covariance when `k·6 < m`, the
    ///   measured crossover against the direct solver with the SIMD GEMM
    ///   backend;
    /// * the full `O(m³)` eigendecomposition otherwise (all `m` pairs).
    ///
    /// Only the randomized arm reads `warm`, and only it returns `scores`.
    /// `warm` seeds the probe subspace from a previous fit's converged basis
    /// (ignored on feature-count mismatch); `warm_used` reports whether it
    /// was.
    pub fn fit_rank(
        data: &Matrix,
        opts: PcaOptions,
        k: usize,
        rf: &RangeFinderOptions,
        warm: Option<&SubspaceSeed>,
    ) -> Result<RandomizedFit> {
        let m = data.cols();
        let k = k.max(1);
        if m < RANDOMIZED_MIN_M || (k + rf.oversample) * 4 >= m {
            let prep = Prepared::new(data, opts)?;
            let k = k.min(m);
            let eig = if k * 6 < m {
                // 24 power iterations suffice for the strongly separated
                // covariance spectra DPZ feeds this path; the Rayleigh-Ritz
                // projection in sym_eigen_topk mops up the residual rotation.
                crate::eigen::sym_eigen_topk(&prep.cov, k, 24)?
            } else {
                sym_eigen(&prep.cov)?
            };
            let pca = prep.into_pca(eig);
            let basis = SubspaceSeed::from_components(&pca.components, k);
            return Ok(RandomizedFit {
                pca,
                basis,
                warm_used: false,
                scores: None,
            });
        }
        let prep = PreparedData::new(data, opts)?;
        let s = k + rf.oversample;
        let warm_now = warm.filter(|w| w.n_features() == m);
        let out = randomized_covariance_eigen(&prep.centered, s, rf, warm_now)?;
        let scores = scores_from_t(&out.scores_t, k)?;
        Ok(RandomizedFit {
            pca: prep.pca(out.eigen, k),
            basis: out.seed,
            warm_used: warm_now.is_some(),
            scores: Some(scores),
        })
    }

    /// Fit a model with **exactly** the TVE-minimal number of eigenpairs,
    /// using [`crate::eigen::sym_eigen_select`]: one Householder reduction
    /// (no transform accumulation), an eigenvalues-only QL pass for the
    /// *complete* spectrum, and inverse iteration + back-transform for just
    /// the `k` leading eigenvectors the TVE rule selects.
    ///
    /// There is no escalation loop and no over-computed margin: `k` is read
    /// off the exact sorted spectrum, so this path does the same selection
    /// a full [`Pca::fit`] would — at a fraction of the eigensolve cost when
    /// `k ≪ m`. This is the TVE path below [`RANDOMIZED_MIN_M`].
    pub fn fit_tve_exact(data: &Matrix, opts: PcaOptions, tve: f64) -> Result<Pca> {
        let prep = Prepared::new(data, opts)?;
        let eig = tve_select_eigen(&prep.cov, tve * prep.total_variance)?;
        Ok(prep.into_pca(eig))
    }

    /// TVE-driven randomized fit: sketch at `k0 + oversample`, read the
    /// TVE-minimal rank off the (exact-for-this-basis) Ritz spectrum, and
    /// escalate — warm-starting each retry from the converged rows — until
    /// the target is met. A warm basis that misses the target is retried
    /// cold at the same rank before escalating (the cross-chunk quality
    /// gate); once the sketch stops being ≪ `m`, the dense exact-TVE
    /// solver takes over.
    pub fn fit_tve_randomized(
        data: &Matrix,
        opts: PcaOptions,
        tve: f64,
        k0: usize,
        rf: &RangeFinderOptions,
        warm: Option<&SubspaceSeed>,
    ) -> Result<RandomizedFit> {
        let prep = PreparedData::new(data, opts)?;
        let m = prep.centered.cols();
        let target = tve * prep.total_variance;
        let mut k = k0.clamp(1, m);
        let mut warm_now = warm.filter(|w| w.n_features() == m);
        let mut carry: Option<SubspaceSeed> = None;
        loop {
            let s = (k + rf.oversample).min(m);
            // Crossover: a sketch at s ≥ m/4 no longer amortizes against
            // the dense exact-TVE path (one Gram + eigenvalues-only QL +
            // inverse iteration for just the selected eigenvectors).
            if s * 4 >= m {
                let mut cov = prep.centered.gram();
                cov.scale(1.0 / (prep.n_samples - 1) as f64);
                let eig = tve_select_eigen(&cov, target)?;
                let keep = eig.eigenvalues.len().max(1);
                let basis = SubspaceSeed::from_components(&eig.eigenvectors, keep);
                return Ok(RandomizedFit {
                    pca: prep.pca(eig, keep),
                    basis,
                    warm_used: false,
                    scores: None,
                });
            }
            let out =
                randomized_covariance_eigen(&prep.centered, s, rf, carry.as_ref().or(warm_now))?;
            // Smallest rank whose captured variance (exact for this basis —
            // Ritz values are v·C·v along orthonormal directions) reaches
            // the target.
            let hit = if prep.total_variance <= 0.0 {
                Some(1)
            } else {
                tve_rank(&out.eigen.eigenvalues, target)
            };
            if let Some(keep) = hit {
                let warm_used = carry.is_none() && warm_now.is_some();
                let scores = scores_from_t(&out.scores_t, keep)?;
                return Ok(RandomizedFit {
                    pca: prep.pca(out.eigen, keep),
                    basis: out.seed,
                    warm_used,
                    scores: Some(scores),
                });
            }
            // Quality gate: a warm basis that can't reach the target gets
            // one cold retry at the same rank before we conclude the rank
            // itself is short.
            if warm_now.is_some() && carry.is_none() {
                warm_now = None;
                continue;
            }
            let explained: f64 = out.eigen.eigenvalues.iter().map(|l| l.max(0.0)).sum();
            let next = predict_tve_rank(&out.eigen.eigenvalues, explained, target, s, m);
            k = next.max(k + 1).min(m);
            carry = Some(out.seed);
        }
    }

    /// Number of features the model was fitted on.
    pub fn n_features(&self) -> usize {
        self.mean.len()
    }

    /// Number of samples the model was fitted on.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Covariance eigenvalues, descending.
    pub fn eigenvalues(&self) -> &[f64] {
        &self.eigenvalues
    }

    /// Per-feature means removed before projection.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// Per-feature standard deviations when the model standardizes.
    pub fn feature_scale(&self) -> Option<&[f64]> {
        self.scale.as_deref()
    }

    /// The orthonormal component basis (`m x c`, columns = components;
    /// `c = m` for a full fit, `c = k` for a truncated one).
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Number of eigenpairs actually available.
    pub fn n_components(&self) -> usize {
        self.eigenvalues.len()
    }

    /// Total variance (covariance trace), valid even when truncated.
    pub fn total_variance(&self) -> f64 {
        self.total_variance
    }

    /// The `m x k` projection matrix of the leading `k` components.
    pub fn projection(&self, k: usize) -> Matrix {
        self.components.leading_cols(k.min(self.n_components()))
    }

    /// Fraction of total variance explained by each *available* component.
    pub fn explained_variance_ratio(&self) -> Vec<f64> {
        let total = self.total_variance;
        if total <= 0.0 {
            // Degenerate (constant) data: define the first component as
            // carrying everything so downstream k-selection picks k = 1.
            let mut r = vec![0.0; self.eigenvalues.len()];
            if let Some(first) = r.first_mut() {
                *first = 1.0;
            }
            return r;
        }
        self.eigenvalues.iter().map(|&l| l / total).collect()
    }

    /// Cumulative total variance explained (the paper's TVE curve, Eq. 2).
    /// Entry `i` is the TVE of keeping `i + 1` components.
    pub fn cumulative_tve(&self) -> Vec<f64> {
        let ratios = self.explained_variance_ratio();
        let mut acc = 0.0;
        ratios
            .iter()
            .map(|r| {
                acc += r;
                acc.min(1.0)
            })
            .collect()
    }

    /// Smallest `k` whose TVE reaches `tve` (Method 2 of Algorithm 1).
    /// Always returns at least 1 and at most `m`.
    pub fn k_for_tve(&self, tve: f64) -> usize {
        let cum = self.cumulative_tve();
        for (i, &c) in cum.iter().enumerate() {
            if c >= tve {
                return i + 1;
            }
        }
        cum.len().max(1)
    }

    /// Project `data` onto the leading `k` components, producing `n x k`
    /// scores.
    pub fn transform(&self, data: &Matrix, k: usize) -> Result<Matrix> {
        let m = self.n_features();
        if data.cols() != m {
            return Err(LinalgError::DimensionMismatch {
                op: "Pca::transform",
                got: format!("{} features", data.cols()),
                expected: format!("{m} features"),
            });
        }
        let k = k.min(self.n_components());
        let mut centered = data.clone();
        for r in 0..centered.rows() {
            let row = centered.row_mut(r);
            for (v, &mu) in row.iter_mut().zip(&self.mean) {
                *v -= mu;
            }
            if let Some(scale) = &self.scale {
                for (v, &s) in row.iter_mut().zip(scale) {
                    *v /= s;
                }
            }
        }
        centered.matmul(&self.projection(k))
    }

    /// Reconstruct `n x m` data from `n x k` scores (the PCA inverse
    /// transform): `X̂ = Y·Dᵀ (·scale) + mean`.
    pub fn inverse_transform(&self, scores: &Matrix) -> Result<Matrix> {
        let k = scores.cols();
        if k > self.n_components() {
            return Err(LinalgError::DimensionMismatch {
                op: "Pca::inverse_transform",
                got: format!("{k} components"),
                expected: format!("<= {}", self.n_components()),
            });
        }
        let proj_t = self.projection(k).transpose();
        let mut recon = scores.matmul(&proj_t)?;
        for r in 0..recon.rows() {
            let row = recon.row_mut(r);
            if let Some(scale) = &self.scale {
                for (v, &s) in row.iter_mut().zip(scale) {
                    *v *= s;
                }
            }
            for (v, &mu) in row.iter_mut().zip(&self.mean) {
                *v += mu;
            }
        }
        Ok(recon)
    }
}

/// Outcome of a randomized fit: the model, the converged subspace (for
/// warm-starting the next statistically similar fit) and whether the warm
/// seed survived the quality gate.
#[derive(Debug, Clone)]
pub struct RandomizedFit {
    /// The fitted (truncated) model.
    pub pca: Pca,
    /// The converged subspace, energy-descending — hand it to the next
    /// fit's `warm` parameter.
    pub basis: SubspaceSeed,
    /// Whether the returned model was seeded from the provided warm basis
    /// (false for cold fits, gate fallbacks and dense-solver crossovers).
    pub warm_used: bool,
    /// Scores of the fitted data in the kept basis (`n x keep`), recovered
    /// from the range-finder's sketch product at `O(s²·n)` instead of a
    /// fresh `O(n·m·k)` projection — algebraically `(X−μ)(/σ)·V`. `None`
    /// when the fit crossed over to a dense solver (callers project
    /// normally via [`Pca::transform`]).
    pub scores: Option<Matrix>,
}

/// Leading `keep` rows of a transposed score matrix (`s x n`, row-major so
/// the prefix is contiguous), returned untransposed as `n x keep`.
fn scores_from_t(scores_t: &Matrix, keep: usize) -> Result<Matrix> {
    let n = scores_t.cols();
    let keep = keep.min(scores_t.rows());
    let rows = scores_t.as_slice()[..keep * n].to_vec();
    Ok(Matrix::from_vec(keep, n, rows)?.transpose())
}

/// Center (and optionally standardize) a working copy of `data`, returning
/// `(mean, scale, centered)` — the shared front half of every fit path.
fn center_data(data: &Matrix, opts: PcaOptions) -> Result<(Vec<f64>, Option<Vec<f64>>, Matrix)> {
    let (n, m) = data.shape();
    if n < 2 || m == 0 {
        return Err(LinalgError::Empty(
            "Pca::fit needs >=2 samples and >=1 feature",
        ));
    }

    // Column means.
    let mut mean = vec![0.0; m];
    for r in 0..n {
        for (acc, &v) in mean.iter_mut().zip(data.row(r)) {
            *acc += v;
        }
    }
    for v in &mut mean {
        *v /= n as f64;
    }

    // Center (and optionally standardize) a working copy.
    let mut centered = data.clone();
    for r in 0..n {
        for (v, &mu) in centered.row_mut(r).iter_mut().zip(&mean) {
            *v -= mu;
        }
    }
    let scale = if opts.standardize {
        let mut sd = vec![0.0; m];
        for r in 0..n {
            for (acc, &v) in sd.iter_mut().zip(centered.row(r)) {
                *acc += v * v;
            }
        }
        for v in &mut sd {
            *v = (*v / (n - 1) as f64).sqrt();
            if *v == 0.0 {
                *v = 1.0; // constant feature: leave untouched
            }
        }
        for r in 0..n {
            for (v, &s) in centered.row_mut(r).iter_mut().zip(&sd) {
                *v /= s;
            }
        }
        Some(sd)
    } else {
        None
    };
    Ok((mean, scale, centered))
}

/// Centered/standardized covariance, computed once and shared by the dense
/// fit paths (full, subspace iteration and exact TVE).
struct Prepared {
    mean: Vec<f64>,
    scale: Option<Vec<f64>>,
    cov: Matrix,
    total_variance: f64,
    n_samples: usize,
}

impl Prepared {
    fn new(data: &Matrix, opts: PcaOptions) -> Result<Prepared> {
        let n = data.rows();
        let (mean, scale, centered) = center_data(data, opts)?;
        let m = centered.cols();
        // Covariance = centeredᵀ·centered / (n-1).
        let mut cov = centered.gram();
        cov.scale(1.0 / (n - 1) as f64);
        let total_variance: f64 = (0..m).map(|i| cov.get(i, i)).sum();
        Ok(Prepared {
            mean,
            scale,
            cov,
            total_variance,
            n_samples: n,
        })
    }

    fn into_pca(self, eig: SymEigen) -> Pca {
        let SymEigen {
            mut eigenvalues,
            eigenvectors,
        } = eig;
        // Covariance matrices are PSD; clamp the numerical dust.
        for l in &mut eigenvalues {
            if *l < 0.0 {
                *l = 0.0;
            }
        }
        Pca {
            mean: self.mean,
            scale: self.scale,
            components: eigenvectors,
            eigenvalues,
            total_variance: self.total_variance,
            n_samples: self.n_samples,
        }
    }
}

/// Data prepared for a fit that never forms the Gram: the centered (and
/// optionally standardized) working copy plus the exact total variance,
/// computed in `O(n·m)` — the front end of the randomized range-finder
/// paths. Holding the centered matrix (instead of the covariance) is what
/// lets escalation retries and the dense crossover reuse one preparation.
struct PreparedData {
    mean: Vec<f64>,
    scale: Option<Vec<f64>>,
    centered: Matrix,
    total_variance: f64,
    n_samples: usize,
}

impl PreparedData {
    fn new(data: &Matrix, opts: PcaOptions) -> Result<PreparedData> {
        let n = data.rows();
        let (mean, scale, centered) = center_data(data, opts)?;
        // trace(AᵀA)/(n−1) without forming AᵀA: the squared Frobenius norm
        // of the centered data, one sequential (deterministic) pass.
        let total_variance = centered
            .as_slice()
            .iter()
            .fold(0.0f64, |acc, &v| v.mul_add(v, acc))
            / (n - 1) as f64;
        Ok(PreparedData {
            mean,
            scale,
            centered,
            total_variance,
            n_samples: n,
        })
    }

    /// Assemble a model from an eigensolve over this data, keeping the
    /// `keep` leading pairs. Borrows (rather than consumes) the
    /// preparation so escalation loops can retry.
    fn pca(&self, eig: SymEigen, keep: usize) -> Pca {
        let SymEigen {
            mut eigenvalues,
            eigenvectors,
        } = eig;
        let keep = keep
            .clamp(1, eigenvalues.len().max(1))
            .min(eigenvalues.len().max(1));
        eigenvalues.truncate(keep);
        for l in &mut eigenvalues {
            if *l < 0.0 {
                *l = 0.0;
            }
        }
        let components = if eigenvectors.cols() == eigenvalues.len() {
            eigenvectors
        } else {
            eigenvectors.leading_cols(eigenvalues.len())
        };
        Pca {
            mean: self.mean.clone(),
            scale: self.scale.clone(),
            components,
            eigenvalues,
            total_variance: self.total_variance,
            n_samples: self.n_samples,
        }
    }
}

/// Smallest rank whose captured variance reaches `target`: the TVE rule
/// (Method 2 of Algorithm 1) over a descending spectrum, with negative
/// numerical dust counted as zero. `None` when the whole spectrum falls
/// short.
fn tve_rank(eigenvalues: &[f64], target: f64) -> Option<usize> {
    let mut acc = 0.0;
    for (i, &l) in eigenvalues.iter().enumerate() {
        acc += l.max(0.0);
        if acc >= target {
            return Some(i + 1);
        }
    }
    None
}

/// Exactly the TVE-minimal eigenpairs of a covariance: the complete
/// spectrum, then eigenvectors for just the [`tve_rank`] leading values
/// (all of them when the target is out of reach).
fn tve_select_eigen(cov: &Matrix, target: f64) -> Result<SymEigen> {
    let (_spectrum, eig) = crate::eigen::sym_eigen_select(cov, |vals| {
        tve_rank(vals, target).unwrap_or(vals.len().max(1))
    })?;
    Ok(eig)
}

/// Predict the rank needed to close a TVE deficit from an insufficient
/// truncated solve: model the unseen spectrum as a geometric tail with the
/// decay ratio observed over the back half of the `k` computed eigenvalues,
/// solve for how many more terms reach `target`, and pad by 25% for model
/// error. Returns `m` (forcing the caller's full-solve path) when the tail
/// is too flat for any truncated rank to win or `k` is too short to fit a
/// ratio.
fn predict_tve_rank(eigenvalues: &[f64], explained: f64, target: f64, k: usize, m: usize) -> usize {
    if k < 4 {
        return (k * 2).max(2);
    }
    let deficit = target - explained;
    let tail = eigenvalues[k - 1].max(0.0);
    let j = k / 2;
    let head = eigenvalues[j].max(0.0);
    if tail <= 0.0 || head <= 0.0 || tail > head {
        return m;
    }
    let r = (tail / head).powf(1.0 / (k - 1 - j) as f64);
    if r.is_nan() || r <= 0.0 || r >= 1.0 {
        return m;
    }
    // Infinite-tail mass under the model: tail · r / (1 − r). If even that
    // cannot close the deficit, the spectrum is too flat — go full.
    let geo_all = tail * r / (1.0 - r);
    if !geo_all.is_finite() || geo_all <= deficit {
        return m;
    }
    let t = (1.0 - deficit * (1.0 - r) / (tail * r)).ln() / r.ln();
    if !t.is_finite() || t < 0.0 {
        return m;
    }
    let extra = (t.ceil() as usize).max(1);
    let next = k + extra;
    next + next / 4
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic low-rank-ish test data: two latent factors + noise.
    fn synthetic(n: usize, m: usize, seed: u64) -> Matrix {
        let mut s = seed | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let load_a: Vec<f64> = (0..m).map(|j| (j as f64 * 0.4).sin()).collect();
        let load_b: Vec<f64> = (0..m).map(|j| (j as f64 * 0.9).cos()).collect();
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let (fa, fb) = (next() * 10.0, next() * 3.0);
            rows.push(
                (0..m)
                    .map(|j| fa * load_a[j] + fb * load_b[j] + 0.01 * next())
                    .collect::<Vec<_>>(),
            );
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn full_rank_round_trip_is_exact() {
        let x = synthetic(40, 8, 3);
        let pca = Pca::fit(&x, PcaOptions::default()).unwrap();
        let scores = pca.transform(&x, 8).unwrap();
        let recon = pca.inverse_transform(&scores).unwrap();
        assert!(recon.max_abs_diff(&x) < 1e-9);
    }

    #[test]
    fn two_components_capture_two_factor_data() {
        let x = synthetic(200, 12, 5);
        let pca = Pca::fit(&x, PcaOptions::default()).unwrap();
        let tve = pca.cumulative_tve();
        assert!(
            tve[1] > 0.999,
            "two factors should explain ~everything, got {}",
            tve[1]
        );
        let scores = pca.transform(&x, 2).unwrap();
        let recon = pca.inverse_transform(&scores).unwrap();
        assert!(recon.max_abs_diff(&x) < 0.1);
    }

    #[test]
    fn eigenvalues_descending_and_nonnegative() {
        let x = synthetic(60, 10, 9);
        let pca = Pca::fit(&x, PcaOptions::default()).unwrap();
        for w in pca.eigenvalues().windows(2) {
            assert!(w[0] >= w[1]);
        }
        for &l in pca.eigenvalues() {
            assert!(l >= 0.0);
        }
    }

    #[test]
    fn explained_variance_sums_to_one() {
        let x = synthetic(50, 6, 17);
        let pca = Pca::fit(&x, PcaOptions::default()).unwrap();
        let sum: f64 = pca.explained_variance_ratio().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn k_for_tve_monotone() {
        let x = synthetic(100, 15, 23);
        let pca = Pca::fit(&x, PcaOptions::default()).unwrap();
        let k1 = pca.k_for_tve(0.9);
        let k2 = pca.k_for_tve(0.999);
        let k3 = pca.k_for_tve(0.9999999);
        assert!(k1 <= k2 && k2 <= k3);
        assert!(k1 >= 1 && k3 <= 15);
    }

    #[test]
    fn standardize_recovers_round_trip_too() {
        let x = synthetic(80, 7, 31);
        let pca = Pca::fit(&x, PcaOptions { standardize: true }).unwrap();
        assert!(pca.feature_scale().is_some());
        let scores = pca.transform(&x, 7).unwrap();
        let recon = pca.inverse_transform(&scores).unwrap();
        assert!(recon.max_abs_diff(&x) < 1e-8);
    }

    #[test]
    fn constant_feature_survives_standardization() {
        let mut rows = Vec::new();
        for i in 0..20 {
            rows.push(vec![5.0, i as f64, (i as f64 * 0.3).sin()]);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let pca = Pca::fit(&x, PcaOptions { standardize: true }).unwrap();
        let scores = pca.transform(&x, 3).unwrap();
        let recon = pca.inverse_transform(&scores).unwrap();
        assert!(recon.max_abs_diff(&x) < 1e-9);
    }

    #[test]
    fn constant_data_degenerates_gracefully() {
        let x = Matrix::from_vec(10, 3, vec![2.5; 30]).unwrap();
        let pca = Pca::fit(&x, PcaOptions::default()).unwrap();
        assert_eq!(pca.k_for_tve(0.999), 1);
        let scores = pca.transform(&x, 1).unwrap();
        let recon = pca.inverse_transform(&scores).unwrap();
        assert!(recon.max_abs_diff(&x) < 1e-12);
    }

    #[test]
    fn transform_rejects_wrong_width() {
        let x = synthetic(30, 5, 41);
        let pca = Pca::fit(&x, PcaOptions::default()).unwrap();
        let bad = Matrix::zeros(4, 7);
        assert!(pca.transform(&bad, 2).is_err());
    }

    #[test]
    fn fit_rejects_degenerate_shapes() {
        assert!(Pca::fit(&Matrix::zeros(1, 4), PcaOptions::default()).is_err());
        assert!(Pca::fit(&Matrix::zeros(10, 0), PcaOptions::default()).is_err());
    }

    #[test]
    fn rank_fit_subspace_arm_matches_full_on_leading_components() {
        // m = 24 < RANDOMIZED_MIN_M and 3·6 < 24: subspace iteration.
        let x = synthetic(150, 24, 91);
        let full = Pca::fit(&x, PcaOptions::default()).unwrap();
        let rf = RangeFinderOptions::default();
        let fit = Pca::fit_rank(&x, PcaOptions::default(), 3, &rf, None).unwrap();
        assert!(fit.scores.is_none() && !fit.warm_used);
        let trunc = fit.pca;
        assert_eq!(trunc.n_components(), 3);
        assert!((full.total_variance() - trunc.total_variance()).abs() < 1e-9);
        for i in 0..3 {
            let rel =
                (full.eigenvalues()[i] - trunc.eigenvalues()[i]).abs() / full.eigenvalues()[0];
            assert!(rel < 1e-6, "eigenvalue {i}");
        }
        // Reconstruction through the truncated basis matches the full one.
        let s_full = full.transform(&x, 2).unwrap();
        let s_trunc = trunc.transform(&x, 2).unwrap();
        let r_full = full.inverse_transform(&s_full).unwrap();
        let r_trunc = trunc.inverse_transform(&s_trunc).unwrap();
        assert!(r_full.max_abs_diff(&r_trunc) < 1e-6);
    }

    #[test]
    fn rank_fit_routes_by_shape() {
        let rf = RangeFinderOptions::default();
        let opts = PcaOptions::default();
        let small = synthetic(150, 24, 5);
        // 4·6 ≥ 24: the full solve, every eigenpair.
        let full = Pca::fit_rank(&small, opts, 4, &rf, None).unwrap();
        assert_eq!(full.pca.n_components(), 24);
        assert!(full.scores.is_none());
        assert_eq!(
            full.pca.eigenvalues(),
            Pca::fit(&small, opts).unwrap().eigenvalues()
        );
        // k = 0 is clamped to one pair (subspace iteration).
        let one = Pca::fit_rank(&small, opts, 0, &rf, None).unwrap();
        assert_eq!(one.pca.n_components(), 1);
        // m = 128, (4 + 12)·4 < 128: the randomized sketch, with scores.
        let wide = synthetic(200, 128, 5);
        let sketched = Pca::fit_rank(&wide, opts, 4, &rf, None).unwrap();
        assert_eq!(sketched.pca.n_components(), 4);
        assert_eq!(sketched.scores.map(|s| s.shape()), Some((200, 4)));
        // A warm seed of the wrong width is ignored.
        let warm = Pca::fit_rank(&wide, opts, 4, &rf, Some(&one.basis)).unwrap();
        assert!(!warm.warm_used);
    }

    #[test]
    fn tve_exact_fit_matches_full_solve() {
        let x = synthetic(240, 30, 23);
        let tve = 0.999;
        let full = Pca::fit(&x, PcaOptions::default()).unwrap();
        let k_full = full.k_for_tve(tve);
        let exact = Pca::fit_tve_exact(&x, PcaOptions::default(), tve).unwrap();
        // Exactly the TVE-minimal rank, no margin.
        assert_eq!(exact.n_components(), k_full);
        let lmax = full.eigenvalues()[0].max(1e-300);
        for i in 0..k_full {
            let rel = (full.eigenvalues()[i] - exact.eigenvalues()[i]).abs() / lmax;
            assert!(rel < 1e-10, "eigenvalue {i} off by {rel:.3e}");
        }
        assert!((exact.total_variance() - full.total_variance()).abs() < 1e-9);
        // Reconstruction through the exact basis matches the full one.
        let s_full = full.transform(&x, k_full).unwrap();
        let s_exact = exact.transform(&x, k_full).unwrap();
        let r_full = full.inverse_transform(&s_full).unwrap();
        let r_exact = exact.inverse_transform(&s_exact).unwrap();
        assert!(r_full.max_abs_diff(&r_exact) < 1e-8);
    }

    #[test]
    fn tve_exact_fit_handles_degenerate_targets() {
        // Constant data: total variance 0 — degenerates to one component.
        let x = Matrix::from_rows(&vec![vec![2.5f64; 4]; 8]).unwrap();
        let pca = Pca::fit_tve_exact(&x, PcaOptions::default(), 0.99999).unwrap();
        assert_eq!(pca.n_components(), 1);
        // TVE = 1 keeps every component (flat random spectrum).
        let y = synthetic(60, 8, 31);
        let all = Pca::fit_tve_exact(&y, PcaOptions::default(), 1.0).unwrap();
        assert!(all.n_components() >= Pca::fit(&y, PcaOptions::default()).unwrap().k_for_tve(1.0));
    }

    #[test]
    fn truncated_tve_uses_total_variance() {
        let x = synthetic(150, 24, 17);
        let rf = RangeFinderOptions::default();
        let trunc = Pca::fit_rank(&x, PcaOptions::default(), 2, &rf, None)
            .unwrap()
            .pca;
        // Two dominant factors: the truncated TVE must still be a fraction
        // of the *total* variance, close to the full model's value.
        let full = Pca::fit(&x, PcaOptions::default()).unwrap();
        let a = trunc.cumulative_tve();
        let b = full.cumulative_tve();
        assert!((a[1] - b[1]).abs() < 1e-6);
        assert!(a[1] <= 1.0);
    }

    #[test]
    fn randomized_fit_matches_full_on_leading_components() {
        let x = synthetic(200, 128, 91);
        let full = Pca::fit(&x, PcaOptions::default()).unwrap();
        // A second power pass tightens the leading Ritz vectors enough for
        // the reconstruction comparison below.
        let rf = RangeFinderOptions {
            power_iters: 2,
            ..Default::default()
        };
        let rand = Pca::fit_rank(&x, PcaOptions::default(), 4, &rf, None)
            .unwrap()
            .pca;
        assert_eq!(rand.n_components(), 4);
        assert!((full.total_variance() - rand.total_variance()).abs() < 1e-9);
        let lmax = full.eigenvalues()[0].max(1e-300);
        // Two latent factors: leading pairs must agree tightly, and the
        // Ritz values must never overshoot the true spectrum.
        for i in 0..2 {
            let rel = (full.eigenvalues()[i] - rand.eigenvalues()[i]).abs() / lmax;
            assert!(rel < 1e-8, "eigenvalue {i} off by {rel:.3e}");
        }
        for i in 0..4 {
            assert!(rand.eigenvalues()[i] <= full.eigenvalues()[i] + 1e-9 * lmax);
        }
        let s_full = full.transform(&x, 2).unwrap();
        let s_rand = rand.transform(&x, 2).unwrap();
        let r_full = full.inverse_transform(&s_full).unwrap();
        let r_rand = rand.inverse_transform(&s_rand).unwrap();
        assert!(r_full.max_abs_diff(&r_rand) < 1e-6);
    }

    #[test]
    fn randomized_fit_is_bitwise_deterministic() {
        let x = synthetic(150, 128, 13);
        let rf = RangeFinderOptions::default();
        let fit = || {
            Pca::fit_rank(&x, PcaOptions::default(), 5, &rf, None)
                .unwrap()
                .pca
        };
        let (a, b) = (fit(), fit());
        assert_eq!(a.components().as_slice(), b.components().as_slice());
        assert_eq!(a.eigenvalues(), b.eigenvalues());
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn tve_randomized_meets_target_and_matches_exact_rank_roughly() {
        let x = synthetic(300, 64, 29);
        let tve = 0.999;
        let rf = RangeFinderOptions::default();
        let fit = Pca::fit_tve_randomized(&x, PcaOptions::default(), tve, 2, &rf, None).unwrap();
        assert!(!fit.warm_used);
        let kept = fit.pca.n_components();
        // The Ritz TVE is exact for the fitted basis, so the model's own
        // cumulative TVE must certify the target.
        assert!(fit.pca.cumulative_tve()[kept - 1] >= tve - 1e-12);
        // Conservative selection can only pick k at or above the exact rank,
        // and on two-factor data must stay far below m.
        let exact = Pca::fit_tve_exact(&x, PcaOptions::default(), tve).unwrap();
        assert!(kept >= exact.n_components());
        assert!(kept < 16, "two-factor data picked k = {kept}");
    }

    #[test]
    fn tve_randomized_escalates_from_tiny_sketch() {
        // Data with ~8 strong factors but k0 = 1: the first sketch misses
        // the target and the predictor must escalate until it is met.
        let mut s = 77u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let m = 96;
        let loads: Vec<Vec<f64>> = (0..8)
            .map(|f| {
                (0..m)
                    .map(|j| ((j * (f + 1)) as f64 * 0.37).sin())
                    .collect()
            })
            .collect();
        let mut rows = Vec::new();
        for _ in 0..240 {
            let f: Vec<f64> = (0..8).map(|_| next() * 5.0).collect();
            rows.push(
                (0..m)
                    .map(|j| {
                        loads.iter().zip(&f).map(|(l, w)| w * l[j]).sum::<f64>() + 0.01 * next()
                    })
                    .collect::<Vec<_>>(),
            );
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let rf = RangeFinderOptions {
            oversample: 4,
            ..Default::default()
        };
        let fit = Pca::fit_tve_randomized(&x, PcaOptions::default(), 0.9999, 1, &rf, None).unwrap();
        let kept = fit.pca.n_components();
        assert!(fit.pca.cumulative_tve()[kept - 1] >= 0.9999 - 1e-12);
        assert!(kept >= 8, "needs all eight factors, kept {kept}");
    }

    #[test]
    fn tve_randomized_crosses_over_to_dense_on_flat_spectra() {
        // Pure noise: no truncated rank wins, the crossover must hand the
        // fit to the dense exact solver and still certify the target.
        let mut s = 5u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut rows = Vec::new();
        for _ in 0..100 {
            rows.push((0..24).map(|_| next()).collect::<Vec<_>>());
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let rf = RangeFinderOptions::default();
        let fit = Pca::fit_tve_randomized(&x, PcaOptions::default(), 0.9999, 1, &rf, None).unwrap();
        assert!(!fit.warm_used);
        let kept = fit.pca.n_components();
        assert!(fit.pca.cumulative_tve()[kept - 1] >= 0.9999 - 1e-12);
        assert!(kept > 16, "flat spectrum needs nearly all components");
    }

    #[test]
    fn warm_start_reuses_similar_basis_and_gates_dissimilar_one() {
        let rf = RangeFinderOptions::default();
        let opts = PcaOptions::default();
        let a = synthetic(200, 128, 3);
        let b = synthetic(200, 128, 4); // same factors, different noise draw
        let cold = Pca::fit_tve_randomized(&a, opts, 0.999, 2, &rf, None).unwrap();
        // Statistically similar chunk: the warm basis passes the gate.
        let warm = Pca::fit_tve_randomized(&b, opts, 0.999, 2, &rf, Some(&cold.basis)).unwrap();
        assert!(warm.warm_used, "similar chunk should accept the warm basis");
        let kept = warm.pca.n_components();
        assert!(warm.pca.cumulative_tve()[kept - 1] >= 0.999 - 1e-12);

        // Dissimilar data (different loadings entirely): quality must still
        // be certified — via cold fallback or escalation, never a miss.
        let mut s = 99u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut rows = Vec::new();
        for _ in 0..200 {
            let f = next() * 8.0;
            rows.push(
                (0..128)
                    .map(|j| f * ((j * j) as f64 * 0.11).cos() + 0.05 * next())
                    .collect::<Vec<_>>(),
            );
        }
        let c = Matrix::from_rows(&rows).unwrap();
        let gated = Pca::fit_tve_randomized(&c, opts, 0.999, 2, &rf, Some(&cold.basis)).unwrap();
        let kept = gated.pca.n_components();
        assert!(gated.pca.cumulative_tve()[kept - 1] >= 0.999 - 1e-12);
        // And the result must match a cold fit bit-for-bit when the gate
        // rejected the seed (same rank path, same probe stream).
        if !gated.warm_used {
            let cold_c = Pca::fit_tve_randomized(&c, opts, 0.999, 2, &rf, None).unwrap();
            assert_eq!(
                gated.pca.components().as_slice(),
                cold_c.pca.components().as_slice()
            );
        }
    }

    #[test]
    fn fixed_rank_fit_uses_a_matching_warm_seed() {
        let rf = RangeFinderOptions::default();
        let opts = PcaOptions::default();
        let a = synthetic(200, 128, 7);
        let cold = Pca::fit_rank(&a, opts, 4, &rf, None).unwrap();
        assert!(!cold.warm_used);
        // Same data, warm seed of the right width: the seed is used.
        let again = Pca::fit_rank(&a, opts, 4, &rf, Some(&cold.basis)).unwrap();
        assert!(again.warm_used);
    }

    #[test]
    fn randomized_fit_scores_match_transform() {
        let x = synthetic(220, 128, 17);
        let rf = RangeFinderOptions::default();
        let fit = Pca::fit_tve_randomized(&x, PcaOptions::default(), 0.999, 4, &rf, None).unwrap();
        let scores = fit.scores.expect("randomized path emits scores");
        let keep = fit.pca.n_components();
        assert_eq!(scores.shape(), (220, keep));
        let reference = fit.pca.transform(&x, keep).unwrap();
        assert!(
            scores.max_abs_diff(&reference) < 1e-9,
            "sketch-derived scores diverge from the explicit projection"
        );

        let fixed = Pca::fit_rank(&x, PcaOptions::default(), 6, &rf, None).unwrap();
        let scores = fixed.scores.expect("randomized path emits scores");
        let reference = fixed.pca.transform(&x, 6).unwrap();
        assert!(scores.max_abs_diff(&reference) < 1e-9);
    }

    #[test]
    fn randomized_fit_constant_data_degenerates_gracefully() {
        let x = Matrix::from_vec(20, 8, vec![3.25; 160]).unwrap();
        let rf = RangeFinderOptions::default();
        let fit =
            Pca::fit_tve_randomized(&x, PcaOptions::default(), 0.99999, 2, &rf, None).unwrap();
        assert_eq!(fit.pca.n_components(), 1);
        let scores = fit.pca.transform(&x, 1).unwrap();
        let recon = fit.pca.inverse_transform(&scores).unwrap();
        assert!(recon.max_abs_diff(&x) < 1e-12);
    }

    #[test]
    fn scores_are_decorrelated() {
        let x = synthetic(300, 6, 77);
        let pca = Pca::fit(&x, PcaOptions::default()).unwrap();
        let scores = pca.transform(&x, 3).unwrap();
        // Off-diagonal covariance of scores should be ~0.
        let c0 = scores.col(0);
        let c1 = scores.col(1);
        let r = crate::stats::pearson(&c0, &c1).unwrap();
        assert!(r.abs() < 1e-6, "PC scores should be uncorrelated, r={r}");
    }
}
