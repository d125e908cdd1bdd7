//! The sampling strategy (Algorithm 2 of the paper): estimate
//! compressibility (VIF), estimate `k` from a few block subsets, and
//! predict the final compression ratio before compressing. The pipeline
//! reports the estimate; the TVE certificate still picks `k`.
//!
//! * **VIF probe** (steps 1-2): a deterministic row sample at rate
//!   `SR = 0.01` feeds variance-inflation-factor regressions; `VIF < 5` (the common
//!   collinearity cutoff) marks *low-linearity* data, which both triggers
//!   standardization and predicts poor stage-2 compression.
//! * **k estimation** (steps 3-5): the `M` blocks are divided into `S`
//!   consecutive subsets; PCA runs on `T = 3` of them (first/middle/last
//!   — the paper's locality-guided pick) and the per-subset `k`s
//!   for the requested TVE are averaged into `k_e`.
//! * **CR prediction** (step 6): `CR_p = CR_stage1&2 × CR'_stage3 ×
//!   CR'_zlib` with the paper's empirical stage constants
//!   (`CR'_stage3 ∈ [1.9, 2.5]`, `CR'_zlib ≈ 1.25`).

use crate::container::DpzError;
use dpz_linalg::stats::vif;
use dpz_linalg::{Matrix, Pca, PcaOptions};

/// VIF cutoff below which features count as low-collinearity (standardize).
pub const VIF_CUTOFF: f64 = 5.0;
/// Paper's empirical stage-3 reduction range.
pub const STAGE3_RANGE: (f64, f64) = (1.9, 2.5);
/// Paper's empirical zlib reduction factor.
pub const ZLIB_FACTOR: f64 = 1.25;
/// Regressor budget per VIF regression (full all-vs-rest is `O(M⁴)`).
const VIF_REGRESSORS: usize = 12;
/// Number of target features probed for VIF.
const VIF_TARGETS: usize = 8;
/// Subsets examined, `T`: the first, middle and last (the paper's
/// locality-guided pick).
const SUBSET_PICKS: usize = 3;
/// Row sampling rate `SR` for the VIF probe.
const VIF_SAMPLE_RATE: f64 = 0.01;

/// Sampling configuration (Algorithm 2 inputs).
#[derive(Debug, Clone, Copy)]
pub struct SamplingStrategy {
    /// Number of subsets `S` (10 by default).
    pub subsets: usize,
    /// TVE threshold used for per-subset k selection.
    pub tve: f64,
}

impl Default for SamplingStrategy {
    fn default() -> Self {
        SamplingStrategy {
            subsets: 10,
            tve: 0.99999,
        }
    }
}

/// Algorithm 2 outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingEstimate {
    /// Mean VIF over the probed features.
    pub vif: f64,
    /// `vif < 5`: standardize before PCA (and expect poor compression).
    pub low_linearity: bool,
    /// Estimated component count `k_e`.
    pub k_estimate: usize,
    /// Per-subset `k` values that were averaged.
    pub subset_ks: Vec<usize>,
    /// Estimated stage-1&2 ratio (accounting scores + basis + means).
    pub cr_stage12: f64,
    /// Predicted final CR range `[low, high]` (`CR_p`).
    pub cr_predicted: (f64, f64),
}

impl SamplingStrategy {
    /// Run the strategy over the DCT-domain block matrix (`N x M`).
    pub fn estimate(&self, coeffs: &Matrix) -> Result<SamplingEstimate, DpzError> {
        let _span = dpz_telemetry::span!("sampling.estimate");
        let (n, m) = coeffs.shape();
        if n < 2 || m < 2 {
            return Err(DpzError::BadInput(
                "sampling needs at least a 2x2 block matrix",
            ));
        }
        let vif_mean = {
            let _span = dpz_telemetry::span!("vif_probe");
            self.probe_vif(coeffs)?
        };
        let subset_ks = {
            let _span = dpz_telemetry::span!("subset_ks");
            self.subset_ks(coeffs)?
        };
        let k_estimate = ((subset_ks.iter().sum::<usize>() as f64 / subset_ks.len().max(1) as f64)
            .round() as usize)
            .clamp(1, m);

        // Stage-1&2 ratio with the real accounting: the compressed core is
        // N·k scores + M·k basis + M means, all f32.
        let orig = (n * m) as f64;
        let core = (n * k_estimate + m * k_estimate + m) as f64;
        let cr_stage12 = orig / core;
        let cr_predicted = (
            cr_stage12 * STAGE3_RANGE.0 * ZLIB_FACTOR,
            cr_stage12 * STAGE3_RANGE.1 * ZLIB_FACTOR,
        );
        let reg = dpz_telemetry::global();
        reg.gauge("dpz_sampling_vif").set(vif_mean);
        reg.gauge("dpz_sampling_k_estimate").set(k_estimate as f64);
        Ok(SamplingEstimate {
            vif: vif_mean,
            low_linearity: vif_mean < VIF_CUTOFF,
            k_estimate,
            subset_ks,
            cr_stage12,
            cr_predicted,
        })
    }

    /// Steps 1-2: VIF of a sampled row subset, averaged over a handful of
    /// target features regressed on a bounded regressor set.
    fn probe_vif(&self, coeffs: &Matrix) -> Result<f64, DpzError> {
        let profile = vif_profile(coeffs, VIF_SAMPLE_RATE, VIF_TARGETS)?;
        Ok(profile.iter().sum::<f64>() / profile.len() as f64)
    }

    /// Steps 3-5: per-subset k for the requested TVE.
    fn subset_ks(&self, coeffs: &Matrix) -> Result<Vec<usize>, DpzError> {
        let (_, m) = coeffs.shape();
        // A subset can never report more components than it has features, so
        // keep subsets large enough that the cap does not bias k_e downward
        // on small inputs (the paper's M = 1800 never hits this).
        const MIN_SUBSET_FEATURES: usize = 32;
        let s = self
            .subsets
            .clamp(1, m)
            .min((m / MIN_SUBSET_FEATURES).max(1));
        let t = SUBSET_PICKS.clamp(1, s);
        // Paper: first, middle and last subsets track locality best (with
        // fewer subsets, every one is examined).
        let picks: Vec<usize> = if t == 1 {
            vec![0]
        } else {
            (0..t).map(|i| i * (s - 1) / (t - 1)).collect()
        };
        let per = m.div_ceil(s);
        let mut ks = Vec::with_capacity(t);
        for &pick in &picks {
            let lo = pick * per;
            if lo >= m {
                continue; // ceil-division can push trailing subsets past M
            }
            let hi = ((pick + 1) * per).min(m);
            let cols: Vec<usize> = (lo..hi).collect();
            let sub = coeffs.select_cols(&cols);
            let pca = Pca::fit(&sub, PcaOptions::default())?;
            ks.push(pca.k_for_tve(self.tve));
        }
        if ks.is_empty() {
            return Err(DpzError::BadInput("no usable subsets"));
        }
        Ok(ks)
    }
}

/// Per-feature VIF profile over a deterministic row sample (the data behind
/// Figure 10's boxplots).
///
/// `targets` evenly spaced feature columns are each regressed on their
/// `VIF_REGRESSORS` nearest neighbor blocks (locality makes neighbors the
/// natural collinearity candidates; a full all-versus-rest regression per
/// feature would cost `O(M⁴)`). Returns one VIF per probed target.
pub fn vif_profile(
    coeffs: &Matrix,
    sample_rate: f64,
    targets: usize,
) -> Result<Vec<f64>, DpzError> {
    let (n, m) = coeffs.shape();
    if n < 2 || m < 2 {
        return Err(DpzError::BadInput("VIF probe needs at least a 2x2 matrix"));
    }
    // Deterministic stride sample of rows; keep enough rows for stable
    // regressions.
    let want = ((n as f64 * sample_rate).ceil() as usize).clamp(32.min(n), n);
    let stride = (n / want).max(1);
    let rows: Vec<usize> = (0..n).step_by(stride).take(want).collect();

    let t_count = targets.clamp(1, m);
    let target_cols: Vec<usize> = (0..t_count).map(|t| t * m / t_count).collect();
    let mut out = Vec::with_capacity(t_count);
    for &t in &target_cols {
        let half = VIF_REGRESSORS / 2;
        let lo = t.saturating_sub(half);
        let hi = (t + half + 1).min(m);
        let cols: Vec<usize> = (lo..hi).collect();
        if cols.len() < 2 {
            continue;
        }
        let mut sub = Matrix::zeros(rows.len(), cols.len());
        for (ri, &r) in rows.iter().enumerate() {
            for (ci, &c) in cols.iter().enumerate() {
                sub.set(ri, ci, coeffs.get(r, c));
            }
        }
        let target_pos = cols.iter().position(|&c| c == t).unwrap();
        out.push(vif(&sub, target_pos)?);
    }
    if out.is_empty() {
        return Err(DpzError::BadInput("too few features for a VIF probe"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Block matrix whose columns are shifted copies of one smooth signal —
    /// extremely collinear, like a smooth field's DCT blocks.
    fn collinear_blocks(n: usize, m: usize) -> Matrix {
        let mut out = Matrix::zeros(n, m);
        for j in 0..m {
            for i in 0..n {
                let x = (i + j) as f64 * 0.05;
                out.set(i, j, x.sin() * 10.0 + 0.3 * (x * 0.5).cos());
            }
        }
        out
    }

    /// Decorrelated pseudo-random matrix — the HACC-vx case.
    fn white_blocks(n: usize, m: usize) -> Matrix {
        let mut s = 7u64;
        let mut out = Matrix::zeros(n, m);
        for i in 0..n {
            for j in 0..m {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                out.set(i, j, (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
            }
        }
        out
    }

    #[test]
    fn collinear_data_has_high_vif_and_small_k() {
        let est = SamplingStrategy::default()
            .estimate(&collinear_blocks(400, 60))
            .unwrap();
        assert!(est.vif >= VIF_CUTOFF, "collinear VIF {}", est.vif);
        assert!(!est.low_linearity);
        assert!(est.k_estimate <= 6, "k_e {}", est.k_estimate);
        assert!(est.cr_stage12 > 5.0);
    }

    #[test]
    fn white_data_has_low_vif_and_large_k() {
        let est = SamplingStrategy::default()
            .estimate(&white_blocks(400, 60))
            .unwrap();
        assert!(est.vif < VIF_CUTOFF, "white VIF {}", est.vif);
        assert!(est.low_linearity);
        assert!(est.k_estimate > 3, "k_e {}", est.k_estimate);
    }

    #[test]
    fn vif_separates_the_two_regimes() {
        let hi = SamplingStrategy::default()
            .estimate(&collinear_blocks(300, 40))
            .unwrap()
            .vif;
        let lo = SamplingStrategy::default()
            .estimate(&white_blocks(300, 40))
            .unwrap()
            .vif;
        assert!(hi > 2.0 * lo, "VIF separation failed: {hi} vs {lo}");
    }

    #[test]
    fn predicted_range_brackets_stage12() {
        let est = SamplingStrategy::default()
            .estimate(&collinear_blocks(200, 50))
            .unwrap();
        let (lo, hi) = est.cr_predicted;
        assert!(lo < hi);
        assert!(
            lo > est.cr_stage12,
            "stage 3 + zlib should multiply the ratio"
        );
    }

    #[test]
    fn subset_count_respected() {
        // 170 features comfortably hold 5 subsets of >= 32 features each.
        let strat = SamplingStrategy {
            subsets: 5,
            ..Default::default()
        };
        let est = strat.estimate(&collinear_blocks(360, 170)).unwrap();
        assert_eq!(est.subset_ks.len(), 3);
    }

    #[test]
    fn small_feature_counts_collapse_to_one_subset() {
        // With M = 50 < 2 * MIN_SUBSET_FEATURES the estimator must fall back
        // to a single (full) subset rather than bias k_e down.
        let strat = SamplingStrategy {
            subsets: 10,
            ..Default::default()
        };
        let est = strat.estimate(&collinear_blocks(200, 50)).unwrap();
        assert_eq!(est.subset_ks.len(), 1);
    }

    #[test]
    fn vif_profile_gives_one_value_per_target() {
        let profile = vif_profile(&collinear_blocks(200, 40), 0.05, 6).unwrap();
        assert_eq!(profile.len(), 6);
        assert!(profile.iter().all(|&v| v >= 1.0));
    }

    #[test]
    fn vif_profile_more_targets_than_features_clamped() {
        let profile = vif_profile(&white_blocks(100, 4), 0.5, 100).unwrap();
        assert!(profile.len() <= 4);
    }

    #[test]
    fn tiny_matrix_rejected() {
        let strat = SamplingStrategy::default();
        assert!(strat.estimate(&Matrix::zeros(1, 5)).is_err());
        assert!(strat.estimate(&Matrix::zeros(5, 1)).is_err());
    }

    #[test]
    fn tighter_tve_raises_k_estimate() {
        let blocks = collinear_blocks(300, 60);
        // Add a bit of noise so the spectrum has a tail.
        let mut noisy = blocks.clone();
        let mut s = 3u64;
        for i in 0..300 {
            for j in 0..60 {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let nudge = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                noisy.set(i, j, noisy.get(i, j) + 0.01 * nudge);
            }
        }
        let loose = SamplingStrategy {
            tve: 0.99,
            ..Default::default()
        }
        .estimate(&noisy)
        .unwrap()
        .k_estimate;
        let tight = SamplingStrategy {
            tve: 0.99999999,
            ..Default::default()
        }
        .estimate(&noisy)
        .unwrap()
        .k_estimate;
        assert!(loose <= tight, "loose {loose} tight {tight}");
    }
}
