//! # dpz-linalg
//!
//! Self-contained dense linear algebra and signal-processing substrate for the
//! DPZ compressor ([`dpz-core`](../dpz_core/index.html)).
//!
//! The DPZ paper (Zhang et al., CLUSTER 2021) relies on three numerical
//! building blocks that HPC codebases usually pull from LAPACK/FFTW/scipy:
//!
//! * a **DCT-II / DCT-III** pair for the stage-1 deterministic transform
//!   ([`dct`]), implemented on top of an in-house FFT ([`fft`]) with a naive
//!   `O(n²)` reference used for validation,
//! * a **symmetric eigensolver** for PCA ([`eigen`] — Householder
//!   tridiagonalization followed by implicit QL with shifts, plus subspace
//!   iteration for a few leading pairs; a test-only cyclic-Jacobi solver
//!   cross-checks it),
//! * **PCA** itself ([`pca`]: the full fit, one rank-bounded fit and two
//!   TVE-driven fits, backed by the randomized range-finder in
//!   [`rangefinder`]) plus the supporting statistics ([`stats`]), curve
//!   fitting ([`fit`]) and knee-point detection ([`knee`]) that drive the
//!   paper's k-selection machinery (Algorithm 1).
//!
//! Everything is written from scratch; there is no FFI and no external
//! numerical dependency. Matrices are dense, row-major [`Matrix`] values and
//! the hot paths (mat-mul, covariance) are parallelized with rayon.

#![warn(missing_docs)]

pub mod dct;
pub mod eigen;
pub mod fft;
pub mod fit;
#[cfg(test)]
mod jacobi;
pub mod knee;
pub mod matrix;
pub mod pca;
pub mod rangefinder;
pub mod stats;
pub mod wavelet;

pub use dct::{dct2, dct2_inplace, dct3, dct3_inplace, Dct1d, DctScratch};
pub use eigen::{sym_eigen, sym_eigen_select, sym_eigen_topk, SymEigen};
pub use fft::FftScratch;
pub use fit::{CurveFit, FitKind, Interp1d, PolyFit};
pub use knee::{detect_knee, KneeOptions};
pub use matrix::Matrix;
pub use pca::{Pca, PcaOptions, RandomizedFit, RANDOMIZED_MIN_M};
pub use rangefinder::{RangeFinderOptions, SubspaceSeed};
pub use wavelet::{dwt_forward, dwt_inverse, Wavelet};

/// Errors surfaced by the numerical routines in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions the caller supplied, formatted `rows x cols`.
        got: String,
        /// Dimensions the operation expected.
        expected: String,
    },
    /// An iterative algorithm failed to converge within its iteration cap.
    NoConvergence {
        /// The algorithm that failed.
        algorithm: &'static str,
        /// The iteration budget that was exhausted.
        iterations: usize,
    },
    /// The input is singular or numerically rank-deficient.
    Singular(&'static str),
    /// The input is empty where a non-empty value is required.
    Empty(&'static str),
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, got, expected } => {
                write!(
                    f,
                    "{op}: dimension mismatch (got {got}, expected {expected})"
                )
            }
            LinalgError::NoConvergence {
                algorithm,
                iterations,
            } => {
                write!(
                    f,
                    "{algorithm} failed to converge after {iterations} iterations"
                )
            }
            LinalgError::Singular(what) => write!(f, "singular input in {what}"),
            LinalgError::Empty(what) => write!(f, "empty input in {what}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
