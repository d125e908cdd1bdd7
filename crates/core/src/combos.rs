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
//! Each pipeline is a [`StageGraph`] over a small [`ComboCtx`] — the same
//! engine that drives the production pipeline — so a combo is literally its
//! list of stages (see [`TransformCombo::graph`]), not a hand-written match
//! arm, and the per-stage spans/timings come for free.

use crate::container::DpzError;
use crate::decompose::{self, BlockShape};
use crate::stage::{Stage, StageGraph};
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

    /// The combo's pipeline as a stage graph. Selection always sits in the
    /// final transform's stage; everything before it is a lossless rotation.
    pub fn graph(self) -> StageGraph<ComboCtx> {
        match self {
            TransformCombo::DctOnly => StageGraph::new()
                .then(DctForward)
                .then(KeepCoeffPrefix)
                .then(DctInverse),
            TransformCombo::PcaOnly => StageGraph::new()
                .then(PcaFit { full: false })
                .then(PcaSelect)
                .then(PcaInverse),
            TransformCombo::PcaOnDct => StageGraph::new()
                .then(DctForward)
                .then(PcaFit { full: false })
                .then(PcaSelect)
                .then(PcaInverse)
                .then(DctInverse),
            TransformCombo::DctOnPca => StageGraph::new()
                .then(PcaFit { full: true })
                .then(PcaRotate)
                .then(RowDctSelect)
                .then(PcaInverse),
        }
    }
}

/// Shared state for the combo stage graphs: the working `N × M` matrix
/// (blocks in, reconstruction out), the keep fraction, and the fitted PCA
/// model once the `combo.pca_fit` stage has run.
pub struct ComboCtx {
    mat: Option<Matrix>,
    keep_fraction: f64,
    pca: Option<Pca>,
}

impl ComboCtx {
    fn take(&mut self) -> Matrix {
        self.mat.take().expect("working matrix present")
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

/// Per-block DCT-II (lossless rotation).
struct DctForward;

impl Stage<ComboCtx> for DctForward {
    fn name(&self) -> &'static str {
        "combo.dct"
    }
    fn execute(&self, ctx: &mut ComboCtx) -> Result<(), DpzError> {
        let mat = ctx.take();
        ctx.mat = Some(decompose::dct_blocks(&mat));
        Ok(())
    }
}

/// Per-block inverse DCT.
struct DctInverse;

impl Stage<ComboCtx> for DctInverse {
    fn name(&self) -> &'static str {
        "combo.idct"
    }
    fn execute(&self, ctx: &mut ComboCtx) -> Result<(), DpzError> {
        let mat = ctx.take();
        ctx.mat = Some(decompose::idct_blocks(&mat));
        Ok(())
    }
}

/// Frequency-domain selection: keep the leading `⌈n·f⌉` coefficients of
/// every block.
struct KeepCoeffPrefix;

impl Stage<ComboCtx> for KeepCoeffPrefix {
    fn name(&self) -> &'static str {
        "combo.keep_prefix"
    }
    fn execute(&self, ctx: &mut ComboCtx) -> Result<(), DpzError> {
        let mut mat = ctx.take();
        let (n, _) = mat.shape();
        let keep = ((n as f64 * ctx.keep_fraction).round() as usize).max(1);
        keep_top_per_column(&mut mat, keep);
        ctx.mat = Some(mat);
        Ok(())
    }
}

/// Fit the PCA model on the current matrix (no transformation yet).
///
/// `full` marks graphs whose later stages rotate onto *all* `m` components
/// (`PcaRotate` is a lossless change of basis) — those need the complete
/// eigenbasis and always use the dense solver. Selection-only graphs keep
/// just the leading `⌈m·f⌉` components, so they go through the same
/// rank-bounded fit the compression pipeline's stage 2 uses
/// ([`Pca::fit_rank`]).
struct PcaFit {
    full: bool,
}

impl Stage<ComboCtx> for PcaFit {
    fn name(&self) -> &'static str {
        "combo.pca_fit"
    }
    fn execute(&self, ctx: &mut ComboCtx) -> Result<(), DpzError> {
        let mat = ctx.mat.as_ref().expect("working matrix present");
        let (_, m) = mat.shape();
        let pca = if self.full {
            Pca::fit(mat, PcaOptions::default())?
        } else {
            let want = ((m as f64 * ctx.keep_fraction).round() as usize).clamp(1, m);
            let opts = PcaOptions::default();
            Pca::fit_rank(mat, opts, want, &crate::pipeline::RF_OPTS, None, None)?.pca
        };
        ctx.pca = Some(pca);
        Ok(())
    }
}

/// Component selection: project onto the leading `⌈m·f⌉` components.
struct PcaSelect;

impl Stage<ComboCtx> for PcaSelect {
    fn name(&self) -> &'static str {
        "combo.pca_select"
    }
    fn execute(&self, ctx: &mut ComboCtx) -> Result<(), DpzError> {
        let mat = ctx.take();
        let (_, m) = mat.shape();
        let k = ((m as f64 * ctx.keep_fraction).round() as usize).clamp(1, m);
        let pca = ctx.pca.as_ref().expect("PcaFit ran");
        ctx.mat = Some(pca.transform(&mat, k)?);
        Ok(())
    }
}

/// Full (lossless) rotation into the component basis — all `m` components.
struct PcaRotate;

impl Stage<ComboCtx> for PcaRotate {
    fn name(&self) -> &'static str {
        "combo.pca_rotate"
    }
    fn execute(&self, ctx: &mut ComboCtx) -> Result<(), DpzError> {
        let mat = ctx.take();
        let (_, m) = mat.shape();
        let pca = ctx.pca.as_ref().expect("PcaFit ran");
        ctx.mat = Some(pca.transform(&mat, m)?);
        Ok(())
    }
}

/// Rotate scores back out of the component basis.
struct PcaInverse;

impl Stage<ComboCtx> for PcaInverse {
    fn name(&self) -> &'static str {
        "combo.pca_inverse"
    }
    fn execute(&self, ctx: &mut ComboCtx) -> Result<(), DpzError> {
        let mat = ctx.take();
        let pca = ctx.pca.as_ref().expect("PcaFit ran");
        ctx.mat = Some(pca.inverse_transform(&mat)?);
        Ok(())
    }
}

/// DCT along each sample's *component vector* (the feature axis — the axis
/// the stage-1 transform handed over), keep a coefficient prefix, and
/// invert. The PCA rotation leaves no smoothness along that axis, so the
/// cosine basis — universal in the spatial domain — approximates poorly
/// here: exactly the paper's argument for why this ordering loses.
struct RowDctSelect;

impl Stage<ComboCtx> for RowDctSelect {
    fn name(&self) -> &'static str {
        "combo.row_dct_select"
    }
    fn execute(&self, ctx: &mut ComboCtx) -> Result<(), DpzError> {
        let mut scores = ctx.take();
        let (n, m) = scores.shape();
        let keep = ((m as f64 * ctx.keep_fraction).round() as usize).max(1);
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
        ctx.mat = Some(scores);
        Ok(())
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
    let mut ctx = ComboCtx {
        mat: Some(blocks),
        keep_fraction,
        pca: None,
    };
    combo.graph().run(&mut ctx)?;
    let recon = ctx.take();
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

    #[test]
    fn combo_graphs_match_their_definitions() {
        assert_eq!(
            TransformCombo::PcaOnDct.graph().stage_names(),
            vec![
                "combo.dct",
                "combo.pca_fit",
                "combo.pca_select",
                "combo.pca_inverse",
                "combo.idct"
            ]
        );
        assert_eq!(
            TransformCombo::DctOnPca.graph().stage_names(),
            vec![
                "combo.pca_fit",
                "combo.pca_rotate",
                "combo.row_dct_select",
                "combo.pca_inverse"
            ]
        );
        assert_eq!(TransformCombo::DctOnly.graph().len(), 3);
        assert_eq!(TransformCombo::PcaOnly.graph().len(), 3);
    }
}
