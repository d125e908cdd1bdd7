//! Linear-scaling quantization of prediction residuals (SZ's
//! "error-controlled quantization").
//!
//! Residual `r = x − pred` maps to code `m = round(r / (2·eb))`; the decoder
//! reconstructs `pred + m·2·eb`, which differs from `x` by at most `eb`.
//! Codes outside `(-radius, radius)` — or reconstructions whose `f32`
//! rounding would break the bound — are escaped as exact outliers.

/// Outcome of quantizing one residual.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Quantized {
    /// In-range: the symbol to entropy-code (`code = m + radius`, so the
    /// outlier escape 0 never collides; valid symbols are `1..2·radius`).
    Code(u32),
    /// Out-of-range: store the original value verbatim.
    Outlier,
}

/// Residual quantizer with bin width `2·eb`.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    eb: f64,
    radius: i64,
}

impl Quantizer {
    /// Create a quantizer; `eb > 0`, `radius >= 2`.
    pub fn new(error_bound: f64, radius: u32) -> Quantizer {
        assert!(error_bound > 0.0 && error_bound.is_finite());
        assert!(radius >= 2);
        Quantizer {
            eb: error_bound,
            radius: i64::from(radius),
        }
    }

    /// Number of entropy-coder symbols (`2·radius`; symbol 0 = outlier).
    pub fn alphabet_size(&self) -> usize {
        (2 * self.radius) as usize
    }

    /// Quantize `value` against `pred`, returning the decision and the
    /// reconstructed value the decoder will see.
    ///
    /// The code is `m = round(r / (2·eb))`, rounding half away from zero.
    /// On the 1-D path each prediction is the previous reconstruction, so
    /// this is one serial chain per value; `m` comes from a truncation and
    /// the exact fractional part instead of a call to `f64::round`.
    #[inline]
    pub fn quantize(&self, value: f64, pred: f64) -> (Quantized, f64) {
        let q = (value - pred) / (2.0 * self.eb);
        // |round(q)| >= radius exactly when |q| >= radius - 1/2; NaN and
        // infinities fail the comparison too.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(q.abs() < self.radius as f64 - 0.5) {
            return (Quantized::Outlier, value);
        }
        // |q| < 2^15: the truncation and `q - t` are exact.
        let t = q as i64;
        let frac = q - t as f64;
        let m = t + i64::from(frac >= 0.5) - i64::from(frac <= -0.5);
        // `(2m) as f64` is `(m as f64) * 2.0` exactly.
        let recon = pred + ((2 * m) as f64) * self.eb;
        // The decoder stores f32; make sure the rounded value still honors
        // the bound, otherwise escape.
        let recon_f32 = recon as f32;
        if (f64::from(recon_f32) - value).abs() > self.eb {
            return (Quantized::Outlier, value);
        }
        (
            Quantized::Code((m + self.radius) as u32),
            f64::from(recon_f32),
        )
    }

    /// Decoder side: reconstruct from a symbol (`1..2·radius`).
    #[inline]
    pub fn reconstruct(&self, symbol: u32, pred: f64) -> f64 {
        let m = i64::from(symbol) - self.radius;
        f64::from((pred + (m as f64) * 2.0 * self.eb) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quantizer before its rounding went inline, kept as the reference
    /// [`Quantizer::quantize`] must match bit for bit.
    fn reference_quantize(q: &Quantizer, value: f64, pred: f64) -> (Quantized, f64) {
        let diff = value - pred;
        let m = (diff / (2.0 * q.eb)).round();
        if !m.is_finite() || m.abs() >= q.radius as f64 {
            return (Quantized::Outlier, value);
        }
        let m = m as i64;
        let recon = pred + (m as f64) * 2.0 * q.eb;
        let recon_f32 = recon as f32;
        if (f64::from(recon_f32) - value).abs() > q.eb {
            return (Quantized::Outlier, value);
        }
        (Quantized::Code((m + q.radius) as u32), f64::from(recon_f32))
    }

    fn same(a: (Quantized, f64), b: (Quantized, f64)) -> bool {
        a.0 == b.0 && a.1.to_bits() == b.1.to_bits()
    }

    #[test]
    fn quantize_matches_the_round_reference() {
        let mut s = 0x51ED_u64;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut checked = 0usize;
        for radius in [2u32, 7, 1 << 10, 1 << 15] {
            for eb in [1e-7, 3.3e-3, 0.5, 1.0, 7.25e4, 1e300] {
                let q = Quantizer::new(eb, radius);
                let r = radius as f64;
                // Residuals at exact half-bins, one ulp either side of them
                // and of the radius edge, then random ones across the range.
                let mut bins: Vec<f64> = Vec::new();
                for k in [0.0, 0.5, 1.0, 1.5, 2.5, r - 1.5, r - 0.5, r, r + 0.5, 40.5] {
                    for sign in [1.0, -1.0] {
                        let x: f64 = sign * k;
                        bins.extend([x, x.next_up(), x.next_down()]);
                    }
                }
                for _ in 0..2000 {
                    let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                    bins.push((u - 0.5) * 2.4 * r);
                }
                for (i, &bin) in bins.iter().enumerate() {
                    let pred = [0.0, -3.75, 1e9, 2.5e-3][i % 4];
                    let value = pred + bin * 2.0 * eb;
                    assert!(
                        same(q.quantize(value, pred), reference_quantize(&q, value, pred)),
                        "eb {eb} radius {radius} value {value} pred {pred}"
                    );
                    checked += 1;
                }
                for value in [f64::NAN, f64::INFINITY, -f64::INFINITY, -0.0, 1e308, 5e-324] {
                    for pred in [0.0, -0.0, 1.0, f64::INFINITY] {
                        assert!(same(
                            q.quantize(value, pred),
                            reference_quantize(&q, value, pred)
                        ));
                    }
                }
            }
        }
        assert!(checked > 40_000);
    }

    #[test]
    fn in_range_value_meets_bound() {
        let q = Quantizer::new(0.01, 1 << 10);
        let pred = 5.0;
        for value in [5.0, 5.004, 4.98, 5.5, 4.5] {
            let (decision, recon) = q.quantize(value, pred);
            match decision {
                Quantized::Code(sym) => {
                    assert!((recon - value).abs() <= 0.01 + 1e-12);
                    assert!((q.reconstruct(sym, pred) - recon).abs() < 1e-12);
                }
                Quantized::Outlier => panic!("{value} should be in range"),
            }
        }
    }

    #[test]
    fn far_value_is_outlier() {
        let q = Quantizer::new(1e-6, 4);
        let (decision, recon) = q.quantize(100.0, 0.0);
        assert_eq!(decision, Quantized::Outlier);
        assert_eq!(recon, 100.0);
    }

    #[test]
    fn code_zero_never_produced() {
        // Symbol 0 is the outlier escape; the smallest in-range code is 1.
        let q = Quantizer::new(0.5, 4);
        for value in [-3.4f64, -3.0, -2.0, 0.0, 2.0, 3.0] {
            if let (Quantized::Code(sym), _) = q.quantize(value, 0.0) {
                assert!((1..8).contains(&sym), "symbol {sym} for {value}");
            }
        }
    }

    #[test]
    fn encoder_decoder_symmetry() {
        let q = Quantizer::new(0.003, 1 << 12);
        let pred = -2.25;
        let value = -2.2501;
        if let (Quantized::Code(sym), recon_enc) = q.quantize(value, pred) {
            assert_eq!(q.reconstruct(sym, pred), recon_enc);
        } else {
            panic!("expected in-range");
        }
    }

    #[test]
    fn nan_becomes_outlier() {
        let q = Quantizer::new(0.01, 8);
        let (decision, _) = q.quantize(f64::NAN, 0.0);
        assert_eq!(decision, Quantized::Outlier);
    }

    #[test]
    fn f32_rounding_guard() {
        // Huge magnitude + tiny bound: f32 rounding would violate the bound,
        // so quantize must escape.
        let q = Quantizer::new(1e-7, 1 << 15);
        let value = 1e9f64 + 0.5;
        let (decision, _) = q.quantize(value, 1e9);
        assert_eq!(decision, Quantized::Outlier);
    }
}
