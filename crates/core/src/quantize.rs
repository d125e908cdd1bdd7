//! Stage 3: uniform symmetric quantization of the retained PCA scores
//! (Section IV-C of the paper).
//!
//! The scores are symmetric around zero (PCA over zero-mean DCT
//! coefficients), so the quantizer covers `[-P·B, +P·B]` with `B` bins of
//! width `2P`: an in-range score becomes its bin index (1 byte for DPZ-l,
//! 2 bytes for DPZ-s; the all-ones index is reserved as the escape code)
//! and reconstructs at the bin center, bounding the per-score error by `P`.
//! Out-of-range scores are stored verbatim as `f32`.

use crate::config::Scheme;

/// Quantized representation of a score matrix (flattened row-major).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedScores {
    /// One index per score; width depends on the scheme. The escape value
    /// (all ones) marks an outlier.
    pub indices: Vec<u8>,
    /// True when indices are 2-byte little-endian.
    pub wide_index: bool,
    /// Out-of-range scores, in scan order.
    pub outliers: Vec<f32>,
    /// Error bound `P` used.
    pub p: f64,
    /// Usable bin count `B`.
    pub bins: u32,
    /// Number of scores.
    pub len: usize,
}

impl QuantizedScores {
    /// Raw (pre-DEFLATE) byte size of indices + outliers.
    pub fn raw_bytes(&self) -> usize {
        self.indices.len() + self.outliers.len() * 4
    }
}

/// Quantize a flat score array under `scheme`.
///
/// The per-score bin mapping (`floor((s + half) / 2P)` with the escape code
/// for non-finite or out-of-range values) runs through the fused
/// `dpz-kernels` quantize kernel; this layer owns the byte-width policy
/// (1-byte vs 2-byte little-endian indices) and the outlier side stream.
pub fn quantize_scores(scores: &[f64], scheme: Scheme) -> QuantizedScores {
    let p = scheme.p;
    assert!(p > 0.0 && p.is_finite(), "quantizer needs a positive P");
    let bins = scheme.bins();
    let wide = scheme.wide_index;
    let escape = bins as u16; // one past the last valid bin index
    let half_range = p * f64::from(bins);

    let mut codes = vec![0u16; scores.len()];
    dpz_kernels::quant::quantize_codes(scores, half_range, p, bins, escape, &mut codes);

    let mut indices = Vec::with_capacity(scores.len() * if wide { 2 } else { 1 });
    let mut outliers = Vec::new();
    if wide {
        for (&code, &s) in codes.iter().zip(scores) {
            if code == escape {
                outliers.push(s as f32);
            }
            indices.extend_from_slice(&code.to_le_bytes());
        }
    } else {
        for (&code, &s) in codes.iter().zip(scores) {
            if code == escape {
                outliers.push(s as f32);
            }
            indices.push(code as u8);
        }
    }
    QuantizedScores {
        indices,
        wide_index: wide,
        outliers,
        p,
        bins,
        len: scores.len(),
    }
}

/// Reconstruct scores from their quantized form.
pub fn dequantize_scores(q: &QuantizedScores) -> Vec<f64> {
    let half_range = q.p * f64::from(q.bins);
    let escape = q.bins as u16;
    let width = if q.wide_index { 2 } else { 1 };
    assert!(
        q.indices.len() >= q.len * width,
        "index stream shorter than declared score count"
    );
    let mut codes = vec![0u16; q.len];
    if q.wide_index {
        for (c, b) in codes.iter_mut().zip(q.indices.chunks_exact(2)) {
            *c = u16::from_le_bytes([b[0], b[1]]);
        }
    } else {
        for (c, &b) in codes.iter_mut().zip(&q.indices) {
            *c = u16::from(b);
        }
    }
    // Bin centers for every lane (-half + (2*code + 1) * P); escape slots are
    // overwritten from the outlier stream below.
    let mut out = vec![0.0; q.len];
    dpz_kernels::quant::dequantize_codes(&codes, half_range, q.p, &mut out);
    let mut outlier_iter = q.outliers.iter();
    for (v, &code) in out.iter_mut().zip(&codes) {
        if code == escape {
            let o = outlier_iter.next().expect("outlier stream exhausted");
            *v = f64::from(*o);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DPZ-l and DPZ-s, as `DpzConfig::{loose,strict}` resolve them.
    const LOOSE: Scheme = Scheme {
        p: 1e-3,
        wide_index: false,
    };
    const STRICT: Scheme = Scheme {
        p: 1e-4,
        wide_index: true,
    };

    fn check_bound(scores: &[f64], scheme: Scheme) -> QuantizedScores {
        let q = quantize_scores(scores, scheme);
        let back = dequantize_scores(&q);
        assert_eq!(back.len(), scores.len());
        let p = scheme.p;
        for (i, (s, r)) in scores.iter().zip(&back).enumerate() {
            if s.is_finite() {
                let limit = if s.abs() < p * f64::from(scheme.bins()) {
                    p * (1.0 + 1e-9)
                } else {
                    // Outlier: f32 rounding only.
                    (s.abs() * 1e-6).max(1e-30)
                };
                assert!((s - r).abs() <= limit, "idx {i}: {s} -> {r}");
            }
        }
        q
    }

    #[test]
    fn loose_scheme_bound() {
        let scores: Vec<f64> = (0..10_000)
            .map(|i| ((i as f64) * 0.37).sin() * 0.2)
            .collect();
        let q = check_bound(&scores, LOOSE);
        assert!(!q.wide_index);
        assert_eq!(q.indices.len(), scores.len());
    }

    #[test]
    fn strict_scheme_bound() {
        let scores: Vec<f64> = (0..10_000)
            .map(|i| ((i as f64) * 0.11).cos() * 5.0)
            .collect();
        let q = check_bound(&scores, STRICT);
        assert!(q.wide_index);
        assert_eq!(q.indices.len(), scores.len() * 2);
    }

    #[test]
    fn out_of_range_become_outliers() {
        // Loose: half-range = 1e-3 * 255 = 0.255.
        let scores = vec![0.0, 0.1, 0.5, -3.0, 0.2];
        let q = quantize_scores(&scores, LOOSE);
        assert_eq!(q.outliers.len(), 2);
        let back = dequantize_scores(&q);
        assert!((back[2] - 0.5).abs() < 1e-6);
        assert!((back[3] + 3.0).abs() < 1e-6);
    }

    #[test]
    fn boundary_values() {
        let p = LOOSE.p;
        let half = p * 255.0;
        // Exactly ±half must escape (strict inequality), just inside must not.
        let scores = vec![half, -half, half - p, -half + p, 0.0];
        let q = quantize_scores(&scores, LOOSE);
        assert_eq!(q.outliers.len(), 2);
        check_bound(&scores, LOOSE);
    }

    #[test]
    fn non_finite_scores_escape() {
        let scores = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.01];
        let q = quantize_scores(&scores, LOOSE);
        assert_eq!(q.outliers.len(), 3);
        let back = dequantize_scores(&q);
        assert!(back[0].is_nan());
        assert!(back[1].is_infinite());
    }

    #[test]
    fn zero_maps_near_zero() {
        // 255 bins: zero is inside a bin whose center is within P of zero.
        let q = quantize_scores(&[0.0], LOOSE);
        let back = dequantize_scores(&q);
        assert!(back[0].abs() <= LOOSE.p);
    }

    #[test]
    fn raw_bytes_accounting() {
        let scores = vec![0.0; 100];
        let q8 = quantize_scores(&scores, LOOSE);
        assert_eq!(q8.raw_bytes(), 100);
        let q16 = quantize_scores(&scores, STRICT);
        assert_eq!(q16.raw_bytes(), 200);
    }

    #[test]
    fn custom_scheme_wide() {
        let scheme = Scheme {
            p: 0.01,
            wide_index: true,
        };
        let scores: Vec<f64> = (0..1000).map(|i| (i as f64 - 500.0) * 0.9).collect();
        check_bound(&scores, scheme);
    }

    #[test]
    fn empty_input() {
        let q = quantize_scores(&[], LOOSE);
        assert_eq!(q.len, 0);
        assert!(dequantize_scores(&q).is_empty());
    }
}
