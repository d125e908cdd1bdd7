//! Curve fitting for the knee-point detector.
//!
//! Algorithm 1 of the DPZ paper fits the cumulative TVE curve with either a
//! **one-dimensional (piecewise-linear) interpolation** or a **polynomial
//! interpolation** ("polyn", producing a smoother curve) before computing
//! curvature. Both fitters work on an abscissa normalized to `[0, 1]` and
//! expose value plus first/second derivatives through [`CurveFit`].

use crate::stats::ridge_normal_solve;
use crate::{LinalgError, Matrix, Result};

/// Which fitting method to use on the TVE curve (Algorithm 1's `sf`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FitKind {
    /// Piecewise-linear interpolation through the samples ("1D").
    #[default]
    Interp1d,
    /// Least-squares polynomial of the given degree ("polyn").
    Polynomial(usize),
}

/// A fitted 1-D curve over `x ∈ [0, 1]`.
pub trait CurveFit {
    /// Curve value at `x` (clamped to `[0, 1]`).
    fn value(&self, x: f64) -> f64;

    /// First derivative; default central finite difference.
    fn d1(&self, x: f64) -> f64 {
        let h = 1e-4;
        (self.value(x + h) - self.value(x - h)) / (2.0 * h)
    }

    /// Second derivative; default central finite difference.
    fn d2(&self, x: f64) -> f64 {
        let h = 1e-4;
        (self.value(x + h) - 2.0 * self.value(x) + self.value(x - h)) / (h * h)
    }
}

/// Piecewise-linear interpolant over a uniform grid on `[0, 1]`.
#[derive(Debug, Clone)]
pub struct Interp1d {
    y: Vec<f64>,
}

impl Interp1d {
    /// Build from samples at `x_i = i / (len - 1)`. Needs >= 2 samples.
    pub fn new(y: &[f64]) -> Result<Self> {
        if y.len() < 2 {
            return Err(LinalgError::Empty("Interp1d needs at least two samples"));
        }
        Ok(Interp1d { y: y.to_vec() })
    }
}

impl CurveFit for Interp1d {
    fn value(&self, x: f64) -> f64 {
        let n = self.y.len();
        let x = x.clamp(0.0, 1.0);
        let pos = x * (n - 1) as f64;
        let i = (pos.floor() as usize).min(n - 2);
        let t = pos - i as f64;
        self.y[i] * (1.0 - t) + self.y[i + 1] * t
    }
}

/// Least-squares polynomial fit over `[0, 1]` with analytic derivatives.
#[derive(Debug, Clone)]
pub struct PolyFit {
    /// Coefficients, lowest power first: `c0 + c1 x + c2 x² + …`.
    coeffs: Vec<f64>,
}

impl PolyFit {
    /// Fit a degree-`degree` polynomial to samples at `x_i = i / (len - 1)`.
    ///
    /// The effective degree is capped at `len - 1`. Solved via the normal
    /// equations with a tiny relative ridge (the Vandermonde system on a
    /// uniform grid is ill-conditioned for high degrees; DPZ uses degree ≈ 7).
    pub fn fit(y: &[f64], degree: usize) -> Result<Self> {
        let n = y.len();
        if n < 2 {
            return Err(LinalgError::Empty("PolyFit needs at least two samples"));
        }
        let degree = degree.min(n - 1).max(1);
        let cols = degree + 1;
        let mut design = Matrix::zeros(n, cols);
        for (i, row) in (0..n).zip(0..n) {
            let x = i as f64 / (n - 1) as f64;
            let r = design.row_mut(row);
            let mut p = 1.0;
            for c in r.iter_mut() {
                *c = p;
                p *= x;
            }
        }
        let coeffs = ridge_normal_solve(&design, y, 1e-10)?;
        Ok(PolyFit { coeffs })
    }

    /// Polynomial coefficients, lowest power first.
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    fn horner(coeffs: &[f64], x: f64) -> f64 {
        coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    fn derivative_coeffs(coeffs: &[f64]) -> Vec<f64> {
        coeffs
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &c)| c * i as f64)
            .collect()
    }
}

impl CurveFit for PolyFit {
    fn value(&self, x: f64) -> f64 {
        Self::horner(&self.coeffs, x.clamp(0.0, 1.0))
    }

    fn d1(&self, x: f64) -> f64 {
        let d = Self::derivative_coeffs(&self.coeffs);
        Self::horner(&d, x.clamp(0.0, 1.0))
    }

    fn d2(&self, x: f64) -> f64 {
        let d1 = Self::derivative_coeffs(&self.coeffs);
        let d2 = Self::derivative_coeffs(&d1);
        Self::horner(&d2, x.clamp(0.0, 1.0))
    }
}

/// Construct the fitter selected by `kind`.
pub fn fit_curve(y: &[f64], kind: FitKind) -> Result<Box<dyn CurveFit>> {
    match kind {
        FitKind::Interp1d => Ok(Box::new(Interp1d::new(y)?)),
        FitKind::Polynomial(deg) => Ok(Box::new(PolyFit::fit(y, deg)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interp_hits_samples() {
        let y = vec![0.0, 0.5, 0.8, 1.0];
        let f = Interp1d::new(&y).unwrap();
        for (i, &v) in y.iter().enumerate() {
            let x = i as f64 / 3.0;
            assert!((f.value(x) - v).abs() < 1e-12);
        }
        // Midpoint of the first segment.
        assert!((f.value(1.0 / 6.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn interp_clamps_outside_domain() {
        let f = Interp1d::new(&[1.0, 3.0]).unwrap();
        assert_eq!(f.value(-5.0), 1.0);
        assert_eq!(f.value(7.0), 3.0);
    }

    #[test]
    fn interp_rejects_short_input() {
        assert!(Interp1d::new(&[1.0]).is_err());
    }

    #[test]
    fn polyfit_recovers_exact_polynomial() {
        // y = 2 - 3x + x² sampled on a grid; a degree-2 fit must be exact.
        let n = 20;
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64 / (n - 1) as f64;
                2.0 - 3.0 * x + x * x
            })
            .collect();
        let f = PolyFit::fit(&y, 2).unwrap();
        for i in 0..n {
            let x = i as f64 / (n - 1) as f64;
            assert!((f.value(x) - (2.0 - 3.0 * x + x * x)).abs() < 1e-6);
        }
        // Analytic derivatives: y' = -3 + 2x, y'' = 2.
        assert!((f.d1(0.5) - (-3.0 + 1.0)).abs() < 1e-5);
        assert!((f.d2(0.25) - 2.0).abs() < 1e-4);
    }

    #[test]
    fn polyfit_degree_capped() {
        let f = PolyFit::fit(&[0.0, 1.0], 9).unwrap();
        assert!(f.coefficients().len() <= 2);
    }

    #[test]
    fn polyfit_smooths_noise() {
        // A linear trend with alternating noise: a degree-1 fit should track
        // the trend, not the noise.
        let n = 50;
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64 / (n - 1) as f64;
                x + if i % 2 == 0 { 0.05 } else { -0.05 }
            })
            .collect();
        let f = PolyFit::fit(&y, 1).unwrap();
        assert!((f.value(0.5) - 0.5).abs() < 0.02);
    }

    #[test]
    fn finite_difference_defaults_reasonable() {
        // Interp1d inherits the default FD derivatives; on a straight line
        // d1 is the slope and d2 ~ 0 away from the knots.
        let y: Vec<f64> = (0..11).map(|i| 2.0 * i as f64 / 10.0).collect();
        let f = Interp1d::new(&y).unwrap();
        assert!((f.d1(0.52) - 2.0).abs() < 1e-6);
        assert!(f.d2(0.52).abs() < 1e-3);
    }

    #[test]
    fn fit_curve_dispatches() {
        let y = vec![0.0, 0.7, 0.9, 1.0];
        assert!((fit_curve(&y, FitKind::Interp1d).unwrap().value(0.0) - 0.0).abs() < 1e-12);
        let p = fit_curve(&y, FitKind::Polynomial(3)).unwrap();
        assert!(p.value(0.5) > 0.5);
    }
}
