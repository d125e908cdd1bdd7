//! Transform-combination study (Section III-B / Figure 4 of the paper).
//!
//! To motivate the PCA-on-DCT ordering, the paper compares four retrieval
//! pipelines at a fixed keep fraction (20 % of features ≈ 5× ratio):
//! DCT alone, PCA alone, DCT applied to PCA components, and PCA applied to
//! DCT coefficients. Feature selection always happens in the *final* stage;
//! earlier stages are lossless orthogonal rotations. This module implements
//! all four so the figure (and the ablation bench) can regenerate the
//! result that PCA∘DCT introduces the least error.
//!
//! Each pipeline is a short composition of lossless rotations around one
//! selection step (see [`lossy_roundtrip`]).

use crate::container::DpzError;
use crate::decompose::{self, BlockShape};
use dpz_linalg::{Dct1d, DctScratch, Matrix, Pca, PcaOptions};

/// The four pipelines of Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransformCombo {
    /// Single-stage: per-block DCT, keep the largest-magnitude coefficients.
    DctOnly,
    /// Single-stage: PCA on the raw block matrix, keep leading components.
    PcaOnly,
    /// Two-stage: full PCA first, then DCT on each component's score
    /// sequence with coefficient selection.
    DctOnPca,
    /// Two-stage (DPZ's choice): per-block DCT first, then PCA in the DCT
    /// domain with component selection.
    PcaOnDct,
}

impl TransformCombo {
    /// All four, in the paper's presentation order.
    pub const ALL: [TransformCombo; 4] = [
        TransformCombo::DctOnly,
        TransformCombo::PcaOnly,
        TransformCombo::DctOnPca,
        TransformCombo::PcaOnDct,
    ];

    /// Display label matching the figure captions.
    pub fn label(self) -> &'static str {
        match self {
            TransformCombo::DctOnly => "DCT",
            TransformCombo::PcaOnly => "PCA",
            TransformCombo::DctOnPca => "DCT on PCA",
            TransformCombo::PcaOnDct => "PCA on DCT",
        }
    }
}

/// Zero all but the first `keep` (lowest-frequency) entries of each column.
///
/// Zonal selection: like keeping the `k` leading PCA components, a prefix
/// needs no per-coefficient position side information, so comparing the
/// pipelines at a fixed keep fraction is a fair fixed-ratio comparison
/// (magnitude-adaptive selection would smuggle in a free position bitmap).
fn keep_top_per_column(mat: &mut Matrix, keep: usize) {
    let (n, m) = mat.shape();
    let keep = keep.clamp(1, n);
    for c in 0..m {
        let mut col = mat.col(c);
        for v in col.iter_mut().skip(keep) {
            *v = 0.0;
        }
        mat.set_col(c, &col);
    }
}

/// Fit the leading `k` components through the same rank-bounded fit the
/// compression pipeline's stage 2 uses ([`Pca::fit_rank`]).
fn fit_leading(mat: &Matrix, k: usize) -> Result<Pca, DpzError> {
    let opts = PcaOptions::default();
    Ok(Pca::fit_rank(mat, opts, k, &crate::pipeline::RF_OPTS)?.0)
}

/// Project onto the leading `k` components and rotate back (component
/// selection).
fn pca_select(pca: &Pca, mat: &Matrix, k: usize) -> Result<Matrix, DpzError> {
    Ok(pca.inverse_transform(&pca.transform(mat, k)?)?)
}

/// DCT along each sample's *component vector* (the feature axis — the axis
/// the stage-1 transform handed over), keep a `keep`-coefficient prefix, and
/// invert. The PCA rotation leaves no smoothness along that axis, so the
/// cosine basis — universal in the spatial domain — approximates poorly
/// here: exactly the paper's argument for why this ordering loses.
fn row_dct_select(scores: &mut Matrix, keep: usize) {
    let (n, m) = scores.shape();
    let plan = Dct1d::new(m);
    let mut scratch = DctScratch::new();
    for r in 0..n {
        let row = scores.row_mut(r);
        plan.forward_with(row, &mut scratch);
        for v in row.iter_mut().skip(keep) {
            *v = 0.0;
        }
        plan.inverse_with(row, &mut scratch);
    }
}

/// Run one pipeline at the given keep fraction and reconstruct.
///
/// `keep_fraction` is the fraction of features retained in the selection
/// stage (0 < f <= 1); 0.2 reproduces the paper's 5× setting.
pub fn lossy_roundtrip(
    data: &[f32],
    combo: TransformCombo,
    keep_fraction: f64,
) -> Result<Vec<f32>, DpzError> {
    if data.len() < 4 {
        return Err(DpzError::BadInput("need at least four values"));
    }
    if !(0.0..=1.0).contains(&keep_fraction) || keep_fraction == 0.0 {
        return Err(DpzError::BadInput("keep fraction must be in (0, 1]"));
    }
    let shape: BlockShape = decompose::choose_shape(data.len());
    let blocks = decompose::to_blocks(data, shape); // n x m
    let (n, m) = blocks.shape();
    // Frequency-domain selection keeps the leading `⌈n·f⌉` coefficients of
    // every block; component selection the leading `⌈m·f⌉` components.
    let keep_coeffs = ((n as f64 * keep_fraction).round() as usize).max(1);
    let keep_features = ((m as f64 * keep_fraction).round() as usize).max(1);
    let k = keep_features.min(m);
    let recon = match combo {
        TransformCombo::DctOnly => {
            let mut coeffs = decompose::dct_blocks(&blocks);
            keep_top_per_column(&mut coeffs, keep_coeffs);
            decompose::idct_blocks(&coeffs)
        }
        TransformCombo::PcaOnly => pca_select(&fit_leading(&blocks, k)?, &blocks, k)?,
        TransformCombo::PcaOnDct => {
            let coeffs = decompose::dct_blocks(&blocks);
            let kept = pca_select(&fit_leading(&coeffs, k)?, &coeffs, k)?;
            decompose::idct_blocks(&kept)
        }
        // The DCT step rotates onto *all* `m` components (a lossless change
        // of basis), so it needs the complete eigenbasis from the dense
        // solver.
        TransformCombo::DctOnPca => {
            let pca = Pca::fit(&blocks, PcaOptions::default())?;
            let mut scores = pca.transform(&blocks, m)?;
            row_dct_select(&mut scores, keep_features);
            pca.inverse_transform(&scores)?
        }
    };
    Ok(decompose::from_blocks(&recon, shape, data.len()))
}

/// Convenience: mean squared error of one combo at one keep fraction.
pub fn combo_mse(data: &[f32], combo: TransformCombo, keep_fraction: f64) -> Result<f64, DpzError> {
    let recon = lossy_roundtrip(data, combo, keep_fraction)?;
    let mse = data
        .iter()
        .zip(&recon)
        .map(|(&a, &b)| {
            let d = f64::from(a) - f64::from(b);
            d * d
        })
        .sum::<f64>()
        / data.len() as f64;
    Ok(mse)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A smooth 2-D-like field with correlated blocks, flattened.
    fn field() -> Vec<f32> {
        let (rows, cols) = (48, 96);
        (0..rows * cols)
            .map(|i| {
                let r = (i / cols) as f32;
                let c = (i % cols) as f32;
                (0.07 * r).sin() * 12.0 + (0.05 * c).cos() * 8.0
            })
            .collect()
    }

    #[test]
    fn full_keep_is_near_lossless_for_all() {
        let data = field();
        for combo in TransformCombo::ALL {
            let recon = lossy_roundtrip(&data, combo, 1.0).unwrap();
            let err = data
                .iter()
                .zip(&recon)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(err < 1e-3, "{}: max err {err}", combo.label());
        }
    }

    #[test]
    fn partial_keep_is_lossy_but_bounded() {
        let data = field();
        for combo in TransformCombo::ALL {
            let mse = combo_mse(&data, combo, 0.2).unwrap();
            assert!(mse.is_finite());
            assert!(mse > 0.0, "{} should be lossy at 20 %", combo.label());
            // Error stays far below the signal magnitude.
            assert!(mse < 100.0, "{}: mse {mse}", combo.label());
        }
    }

    #[test]
    fn pca_on_dct_beats_dct_on_pca() {
        // The paper's headline observation (Figure 4): with the same keep
        // fraction, PCA∘DCT introduces less error than DCT∘PCA.
        let data = field();
        let good = combo_mse(&data, TransformCombo::PcaOnDct, 0.2).unwrap();
        let bad = combo_mse(&data, TransformCombo::DctOnPca, 0.2).unwrap();
        assert!(
            good <= bad,
            "PCA on DCT ({good:.3e}) should beat DCT on PCA ({bad:.3e})"
        );
    }

    #[test]
    fn more_kept_features_means_less_error() {
        let data = field();
        for combo in TransformCombo::ALL {
            let coarse = combo_mse(&data, combo, 0.1).unwrap();
            let fine = combo_mse(&data, combo, 0.5).unwrap();
            assert!(
                fine <= coarse * 1.001,
                "{}: error should fall with more features ({coarse:.3e} -> {fine:.3e})",
                combo.label()
            );
        }
    }

    #[test]
    fn bad_arguments_rejected() {
        let data = field();
        assert!(lossy_roundtrip(&data, TransformCombo::DctOnly, 0.0).is_err());
        assert!(lossy_roundtrip(&data, TransformCombo::DctOnly, 1.5).is_err());
        assert!(lossy_roundtrip(&[1.0], TransformCombo::DctOnly, 0.5).is_err());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            TransformCombo::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
