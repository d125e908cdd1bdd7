//! Compressor configuration: the quality target (the paper's DPZ-l / DPZ-s
//! operating points plus the fixed-ratio / fixed-PSNR control targets), the
//! two k-selection methods of Algorithm 1, and the standardization policy.

use crate::container::{DpzError, LosslessBackend};
use crate::target::{QualityTarget, WIDE_INDEX_AUTO_THRESHOLD};
use dpz_linalg::fit::FitKind;

/// Which deterministic transform stage 1 applies to each block.
///
/// The paper uses the DCT but proves the PCA-in-transform-domain identity
/// for any orthogonal transform and explicitly calls out wavelets as an
/// alternative (Section III-B2); [`Stage1Transform::Dwt`] implements that
/// variant with the orthonormal Daubechies-4 wavelet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage1Transform {
    /// DCT-II per block (the paper's choice).
    Dct,
    /// Multi-level Daubechies-4 DWT per block; levels are clamped to what
    /// the block length supports.
    Dwt {
        /// Requested decomposition depth (typically 3-6).
        levels: usize,
    },
}

/// Quantizer index-width policy: how many bytes each stage-3 bin index
/// occupies. `Auto` follows the resolved bound — bounds tighter than
/// [`WIDE_INDEX_AUTO_THRESHOLD`] need the 65535-bin range to keep the
/// outlier stream small, looser bounds fit in one byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexWidth {
    /// Decide from the resolved bound.
    #[default]
    Auto,
    /// 1-byte indices (255 bins) — DPZ-l.
    Narrow,
    /// 2-byte indices (65535 bins) — DPZ-s.
    Wide,
}

/// Quantization scheme (Section V-A): the *resolved* stage-3 realization of
/// a [`QualityTarget`] — a concrete bound plus index width. The quantizer
/// layer speaks `Scheme`; the config layer speaks `QualityTarget` and
/// resolves it here via [`DpzConfig::resolved_scheme`] (DPZ-l is
/// `DpzConfig::loose().resolved_scheme()`, `P = 1e-3` with 1-byte indices;
/// DPZ-s is `strict()`, `P = 1e-4` with 2-byte indices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheme {
    /// Quantizer error bound `P` on each retained PCA score.
    pub p: f64,
    /// Use 2-byte indices (otherwise 1-byte).
    pub wide_index: bool,
}

impl Scheme {
    /// Number of usable bins `B` (one index value is reserved as the
    /// out-of-range escape).
    pub fn bins(self) -> u32 {
        if self.wide_index {
            u32::from(u16::MAX) // 65535 bins, escape = 65535
        } else {
            u32::from(u8::MAX) // 255 bins, escape = 255
        }
    }
}

/// Named explained-variance thresholds ("two-nine" through "eight-nine",
/// Section IV-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TveLevel {
    /// 99%
    TwoNines,
    /// 99.9%
    ThreeNines,
    /// 99.99%
    FourNines,
    /// 99.999%
    FiveNines,
    /// 99.9999%
    SixNines,
    /// 99.99999%
    SevenNines,
    /// 99.999999% — "strict enough for high compression quality".
    EightNines,
}

impl TveLevel {
    /// The threshold as a fraction in `(0, 1)`.
    pub fn fraction(self) -> f64 {
        match self {
            TveLevel::TwoNines => 0.99,
            TveLevel::ThreeNines => 0.999,
            TveLevel::FourNines => 0.9999,
            TveLevel::FiveNines => 0.99999,
            TveLevel::SixNines => 0.999999,
            TveLevel::SevenNines => 0.9999999,
            TveLevel::EightNines => 0.99999999,
        }
    }

    /// The sweep used in the paper's rate-distortion figures
    /// ("three-nine" → "eight-nine").
    pub const SWEEP: [TveLevel; 6] = [
        TveLevel::ThreeNines,
        TveLevel::FourNines,
        TveLevel::FiveNines,
        TveLevel::SixNines,
        TveLevel::SevenNines,
        TveLevel::EightNines,
    ];

    /// Number of nines, e.g. `ThreeNines -> 3`.
    pub fn nines(self) -> u32 {
        match self {
            TveLevel::TwoNines => 2,
            TveLevel::ThreeNines => 3,
            TveLevel::FourNines => 4,
            TveLevel::FiveNines => 5,
            TveLevel::SixNines => 6,
            TveLevel::SevenNines => 7,
            TveLevel::EightNines => 8,
        }
    }
}

/// How to choose the number of retained components `k` (Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KSelection {
    /// Method 1: knee-point detection on the cumulative TVE curve, with the
    /// chosen curve-fitting method (1-D interpolation or polynomial).
    KneePoint(FitKind),
    /// Method 2: smallest `k` reaching the explained-variance threshold.
    Tve(f64),
    /// Fix `k` directly (used by ablations and the sampling fast path).
    Fixed(usize),
}

/// Whether to standardize features before PCA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Standardize {
    /// Decide from the sampled VIF (standardize when VIF < 5 — low
    /// collinearity; Algorithm 2 step 2).
    Auto,
    /// Always standardize.
    On,
    /// Never standardize.
    Off,
}

/// Complete DPZ configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpzConfig {
    /// What the caller wants: an error bound (static), or a ratio / PSNR
    /// control target that [`crate::compress`] resolves per input.
    pub target: QualityTarget,
    /// Stage-3 index-width policy applied to the resolved bound.
    pub index_width: IndexWidth,
    /// Stage-1 deterministic transform.
    pub transform: Stage1Transform,
    /// k-selection method (stage 2).
    pub selection: KSelection,
    /// Standardization policy.
    pub standardize: Standardize,
    /// Run the sampling strategy (Algorithm 2): estimates `k` from block
    /// subsets and enables the truncated eigensolver fast path.
    pub sampling: bool,
    /// Number of subsets `S` for sampling (10 by default).
    pub sampling_subsets: usize,
    /// Entropy backend for the container's lossless sections (stage 4).
    pub lossless: LosslessBackend,
}

impl DpzConfig {
    /// DPZ-l with the "five-nine" TVE default (`P = 1e-3`, 1-byte indices).
    pub fn loose() -> DpzConfig {
        DpzConfig {
            target: QualityTarget::ErrorBound(1e-3),
            index_width: IndexWidth::Narrow,
            transform: Stage1Transform::Dct,
            selection: KSelection::Tve(TveLevel::FiveNines.fraction()),
            standardize: Standardize::Auto,
            sampling: false,
            sampling_subsets: 10,
            lossless: LosslessBackend::Deflate,
        }
    }

    /// DPZ-s with the "five-nine" TVE default (`P = 1e-4`, 2-byte indices).
    pub fn strict() -> DpzConfig {
        DpzConfig {
            target: QualityTarget::ErrorBound(1e-4),
            index_width: IndexWidth::Wide,
            ..DpzConfig::loose()
        }
    }

    /// Set the quality target and reset the index-width policy to `Auto`
    /// (the resolved bound decides). Use [`DpzConfig::with_index_width`]
    /// afterwards to force a width.
    pub fn with_target(mut self, target: QualityTarget) -> DpzConfig {
        self.target = target;
        self.index_width = IndexWidth::Auto;
        self
    }

    /// Set the stage-3 index-width policy.
    pub fn with_index_width(mut self, index_width: IndexWidth) -> DpzConfig {
        self.index_width = index_width;
        self
    }

    /// The index width the policy picks for a resolved bound `p`.
    pub fn wide_for(&self, p: f64) -> bool {
        match self.index_width {
            IndexWidth::Narrow => false,
            IndexWidth::Wide => true,
            IndexWidth::Auto => p < WIDE_INDEX_AUTO_THRESHOLD,
        }
    }

    /// The concrete stage-3 scheme this config resolves to, or
    /// [`DpzError::InvalidConfig`] when the target is data-dependent
    /// (`Ratio` / `Psnr`) and has not been resolved yet — those must go
    /// through [`crate::compress`] (or the chunked drivers), which run the
    /// control loop first.
    pub fn resolved_scheme(&self) -> Result<Scheme, DpzError> {
        self.target.validate()?;
        let p = self.target.static_bound().ok_or_else(|| {
            DpzError::InvalidConfig(
                "ratio/PSNR targets are resolved per input; use dpz_core::compress \
                 or compress_chunked instead of planning directly"
                    .into(),
            )
        })?;
        Ok(Scheme {
            p,
            wide_index: self.wide_for(p),
        })
    }

    /// Replace the target with an already-resolved bound, keeping the
    /// index-width policy (the control loops call this after a search).
    pub(crate) fn with_resolved_bound(&self, p: f64) -> DpzConfig {
        let mut c = *self;
        c.target = QualityTarget::ErrorBound(p);
        c
    }

    /// Set the k-selection method.
    pub fn with_selection(mut self, selection: KSelection) -> DpzConfig {
        self.selection = selection;
        self
    }

    /// Set the TVE threshold.
    pub fn with_tve(self, level: TveLevel) -> DpzConfig {
        self.with_selection(KSelection::Tve(level.fraction()))
    }

    /// Enable/disable the sampling strategy.
    pub fn with_sampling(mut self, sampling: bool) -> DpzConfig {
        self.sampling = sampling;
        self
    }

    /// Set the standardization policy.
    pub fn with_standardize(mut self, standardize: Standardize) -> DpzConfig {
        self.standardize = standardize;
        self
    }

    /// Set the stage-1 transform.
    pub fn with_transform(mut self, transform: Stage1Transform) -> DpzConfig {
        self.transform = transform;
        self
    }

    /// Set the lossless entropy backend (stage 4). [`LosslessBackend::Tans`]
    /// writes version-3 containers; the default DEFLATE output is
    /// byte-identical to previous releases.
    pub fn with_lossless(mut self, lossless: LosslessBackend) -> DpzConfig {
        self.lossless = lossless;
        self
    }
}

impl Default for DpzConfig {
    fn default() -> Self {
        DpzConfig::loose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_parameters_match_paper() {
        let loose = DpzConfig::loose().resolved_scheme().unwrap();
        assert_eq!(
            loose,
            Scheme {
                p: 1e-3,
                wide_index: false
            }
        );
        assert_eq!(loose.bins(), 255);
        let strict = DpzConfig::strict().resolved_scheme().unwrap();
        assert_eq!(
            strict,
            Scheme {
                p: 1e-4,
                wide_index: true
            }
        );
        assert_eq!(strict.bins(), 65535);
    }

    #[test]
    fn tve_levels_ordered() {
        let mut prev = 0.0;
        for level in TveLevel::SWEEP {
            assert!(level.fraction() > prev);
            prev = level.fraction();
        }
        assert_eq!(TveLevel::EightNines.fraction(), 0.99999999);
        assert_eq!(TveLevel::ThreeNines.nines(), 3);
    }

    #[test]
    fn builders_compose() {
        let cfg = DpzConfig::strict()
            .with_tve(TveLevel::SevenNines)
            .with_sampling(true)
            .with_standardize(Standardize::Off)
            .with_transform(Stage1Transform::Dwt { levels: 4 });
        assert_eq!(cfg.target, QualityTarget::ErrorBound(1e-4));
        assert_eq!(cfg.index_width, IndexWidth::Wide);
        assert_eq!(cfg.selection, KSelection::Tve(0.9999999));
        assert!(cfg.sampling);
        assert_eq!(cfg.standardize, Standardize::Off);
        assert_eq!(cfg.transform, Stage1Transform::Dwt { levels: 4 });
        assert_eq!(DpzConfig::loose().transform, Stage1Transform::Dct);
    }

    #[test]
    fn targets_resolve_to_schemes() {
        // Auto width follows the bound across the threshold.
        let auto = DpzConfig::loose().with_target(QualityTarget::ErrorBound(1e-4));
        assert!(auto.resolved_scheme().unwrap().wide_index);
        let auto = DpzConfig::strict().with_target(QualityTarget::ErrorBound(1e-3));
        assert!(!auto.resolved_scheme().unwrap().wide_index);

        // RelBound is the explicit spelling of the same (range-relative)
        // contract and resolves identically.
        let rel = DpzConfig::loose().with_target(QualityTarget::RelBound(1e-3));
        assert_eq!(rel.resolved_scheme().unwrap().p, 1e-3);
    }

    #[test]
    fn search_targets_refuse_static_resolution() {
        let cfg = DpzConfig::loose().with_target(QualityTarget::Ratio {
            target: 20.0,
            tol: 0.1,
        });
        assert!(matches!(
            cfg.resolved_scheme(),
            Err(DpzError::InvalidConfig(_))
        ));
        let cfg = DpzConfig::loose().with_target(QualityTarget::Psnr(60.0));
        assert!(matches!(
            cfg.resolved_scheme(),
            Err(DpzError::InvalidConfig(_))
        ));
        // Invalid parameters are typed errors, not panics.
        let cfg = DpzConfig::loose().with_target(QualityTarget::ErrorBound(-1.0));
        assert!(matches!(
            cfg.resolved_scheme(),
            Err(DpzError::InvalidConfig(_))
        ));
    }
}
