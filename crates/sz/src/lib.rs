//! # dpz-sz
//!
//! An SZ-style error-bounded lossy compressor — the prediction-based
//! baseline the DPZ paper compares against (SZ v2.0). Re-implemented from
//! the published algorithm:
//!
//! 1. **Lorenzo prediction** ([`lorenzo`]): each value is predicted from its
//!    already-reconstructed causal neighbors (1-D: previous value; 2-D:
//!    `N + W − NW`; 3-D: the 7-neighbor inclusion–exclusion stencil).
//! 2. **Linear-scaling quantization** ([`quantizer`]): the prediction
//!    residual is quantized to an integer code with bin width `2·eb`, which
//!    guarantees the absolute pointwise bound `|x − x̂| ≤ eb`. Residuals
//!    outside the code radius become verbatim outliers.
//! 3. **Entropy coding** ([`codec`]): quantization codes are Huffman-coded
//!    (reusing the canonical Huffman substrate from `dpz-deflate`) and the
//!    table/outliers are DEFLATE-compressed.
//!
//! The guarantee `|x − x̂| ≤ eb` holds for every element and is enforced by
//! property tests; prediction always uses *reconstructed* values so encoder
//! and decoder stay in lockstep.

#![warn(missing_docs)]

pub mod codec;
pub mod lorenzo;
pub mod quantizer;
pub mod regression;

use dpz_deflate::DeflateError;

/// Prediction strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predictor {
    /// Lorenzo prediction everywhere (SZ 1.4's scheme).
    Lorenzo,
    /// SZ 2.0's hybrid: per 8³ block, choose between Lorenzo and a
    /// least-squares hyperplane fit by comparing estimated residuals.
    Auto,
}

/// Configuration for SZ compression.
#[derive(Debug, Clone, Copy)]
pub struct SzConfig {
    /// Absolute pointwise error bound (`> 0`).
    pub error_bound: f64,
    /// Quantization code radius; codes span `(-radius, radius)`. Larger
    /// radii catch more residuals at the cost of a bigger alphabet.
    pub quant_radius: u32,
    /// Prediction strategy.
    pub predictor: Predictor,
}

impl SzConfig {
    /// Error-bounded config with the default radius (2^15, SZ's default)
    /// and pure Lorenzo prediction.
    pub fn with_error_bound(error_bound: f64) -> SzConfig {
        assert!(error_bound > 0.0, "error bound must be positive");
        SzConfig {
            error_bound,
            quant_radius: 1 << 15,
            predictor: Predictor::Lorenzo,
        }
    }

    /// Switch the prediction strategy.
    pub fn with_predictor(mut self, predictor: Predictor) -> SzConfig {
        self.predictor = predictor;
        self
    }
}

/// Errors from SZ decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SzError {
    /// Malformed container.
    Corrupt(&'static str),
    /// Failure in the embedded DEFLATE payloads.
    Deflate(DeflateError),
}

impl std::fmt::Display for SzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SzError::Corrupt(w) => write!(f, "corrupt SZ stream: {w}"),
            SzError::Deflate(e) => write!(f, "SZ payload: {e}"),
        }
    }
}

impl std::error::Error for SzError {}

impl From<DeflateError> for SzError {
    fn from(e: DeflateError) -> Self {
        SzError::Deflate(e)
    }
}

pub use codec::{compress, compress_reconstructed, decompress};

#[cfg(test)]
mod tests {
    use super::*;

    fn wave_2d(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| {
                let r = (i / cols) as f32;
                let c = (i % cols) as f32;
                (0.05 * r).sin() * (0.07 * c).cos() * 50.0
            })
            .collect()
    }

    #[test]
    fn error_bound_respected_2d() {
        let data = wave_2d(64, 64);
        for eb in [1e-1, 1e-2, 1e-3] {
            let cfg = SzConfig::with_error_bound(eb);
            let packed = compress(&data, &[64, 64], &cfg);
            let (out, dims) = decompress(&packed).unwrap();
            assert_eq!(dims, vec![64, 64]);
            for (a, b) in data.iter().zip(&out) {
                assert!(
                    (f64::from(*a) - f64::from(*b)).abs() <= eb * 1.0000001,
                    "bound {eb} violated: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn smooth_data_compresses_well() {
        let data = wave_2d(128, 128);
        let cfg = SzConfig::with_error_bound(1e-2);
        let packed = compress(&data, &[128, 128], &cfg);
        let cr = (data.len() * 4) as f64 / packed.len() as f64;
        assert!(cr > 4.0, "smooth field should compress >4x, got {cr:.2}");
    }

    #[test]
    fn tighter_bound_costs_more_bits() {
        let data = wave_2d(96, 96);
        let loose = compress(&data, &[96, 96], &SzConfig::with_error_bound(1e-1)).len();
        let tight = compress(&data, &[96, 96], &SzConfig::with_error_bound(1e-4)).len();
        assert!(tight > loose, "tight {tight} should exceed loose {loose}");
    }

    #[test]
    #[should_panic(expected = "error bound must be positive")]
    fn rejects_nonpositive_bound() {
        SzConfig::with_error_bound(0.0);
    }
}
