//! Descriptive statistics and ordinary least squares.
//!
//! These routines back two parts of DPZ:
//!
//! * PCA standardization decisions (variance / standard deviation),
//! * the **variance inflation factor** (VIF) compressibility indicator from
//!   the sampling strategy (Section IV-D2): `VIF_j = 1 / (1 - R²_j)` where
//!   `R²_j` comes from regressing feature `j` on the other features.

use crate::{LinalgError, Matrix, Result};

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    data.iter().sum::<f64>() / data.len() as f64
}

/// Population variance (divide by `n`); `0.0` for fewer than 1 element.
pub fn variance_population(data: &[f64]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64
}

/// Sample variance (divide by `n - 1`); `0.0` for fewer than 2 elements.
pub fn variance_sample(data: &[f64]) -> f64 {
    if data.len() < 2 {
        return 0.0;
    }
    let m = mean(data);
    data.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (data.len() - 1) as f64
}

/// Pearson correlation coefficient of two equal-length series.
///
/// Returns `0.0` when either series is constant (correlation undefined).
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.len() != y.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "pearson",
            got: format!("{} vs {}", x.len(), y.len()),
            expected: "equal lengths".to_string(),
        });
    }
    if x.is_empty() {
        return Err(LinalgError::Empty("pearson"));
    }
    let (mx, my) = (mean(x), mean(y));
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let (dx, dy) = (a - mx, b - my);
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Ok(0.0);
    }
    Ok(sxy / (sxx * syy).sqrt())
}

/// Least squares `design · β ≈ y` through the normal equations, with a
/// relative diagonal ridge for robustness against collinearity:
/// `(XᵀX + ridge · max diag(XᵀX) · I) β = Xᵀy`, solved by [`Matrix::solve`].
pub(crate) fn ridge_normal_solve(design: &Matrix, y: &[f64], ridge: f64) -> Result<Vec<f64>> {
    let mut xtx = design.gram();
    let xty = design.transpose().mul_vec(y)?;
    let diag_max = (0..xtx.rows())
        .map(|i| xtx.get(i, i))
        .fold(f64::MIN_POSITIVE, f64::max);
    for i in 0..xtx.rows() {
        let v = xtx.get(i, i) + ridge * diag_max;
        xtx.set(i, i, v);
    }
    xtx.solve(&xty)
}

/// Result of an ordinary least squares fit `y ≈ X·beta (+ intercept)`.
#[derive(Debug, Clone)]
pub struct OlsFit {
    /// Intercept term (0 when `with_intercept` was false).
    pub intercept: f64,
    /// One coefficient per column of the design matrix.
    pub coefficients: Vec<f64>,
    /// Coefficient of determination of the fit on its training data.
    pub r_squared: f64,
}

/// Ordinary least squares via the normal equations (`XᵀX β = Xᵀy`), solved
/// with partial-pivot Gaussian elimination. A tiny ridge (`1e-12` relative)
/// keeps nearly collinear designs — exactly what VIF probes for — solvable.
pub fn ols(x: &Matrix, y: &[f64], with_intercept: bool) -> Result<OlsFit> {
    let n = x.rows();
    let p = x.cols();
    if y.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "ols",
            got: format!("y of {}", y.len()),
            expected: format!("y of {n}"),
        });
    }
    if n == 0 || p == 0 {
        return Err(LinalgError::Empty("ols"));
    }
    let cols = if with_intercept { p + 1 } else { p };
    // Build the augmented design (intercept column of ones last).
    let mut design = Matrix::zeros(n, cols);
    for r in 0..n {
        design.row_mut(r)[..p].copy_from_slice(x.row(r));
        if with_intercept {
            design.row_mut(r)[p] = 1.0;
        }
    }
    let beta = ridge_normal_solve(&design, y, 1e-12)?;

    let intercept = if with_intercept { beta[p] } else { 0.0 };
    let coefficients = beta[..p].to_vec();

    // R² on the training data.
    let my = mean(y);
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (r, &yr) in y.iter().enumerate().take(n) {
        let pred: f64 = x
            .row(r)
            .iter()
            .zip(&coefficients)
            .map(|(a, b)| a * b)
            .sum::<f64>()
            + intercept;
        ss_res += (yr - pred) * (yr - pred);
        ss_tot += (yr - my) * (yr - my);
    }
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    };
    Ok(OlsFit {
        intercept,
        coefficients,
        r_squared,
    })
}

/// Variance inflation factor of column `target` of `x` against the remaining
/// columns: `VIF = 1 / (1 - R²)`. Capped at `1e6` to keep perfectly collinear
/// features finite; a constant target column yields `VIF = 1` (no inflation).
pub fn vif(x: &Matrix, target: usize) -> Result<f64> {
    let p = x.cols();
    if target >= p {
        return Err(LinalgError::DimensionMismatch {
            op: "vif",
            got: format!("target {target}"),
            expected: format!("< {p} columns"),
        });
    }
    if p < 2 {
        return Err(LinalgError::Empty("vif needs at least two features"));
    }
    let y = x.col(target);
    if variance_population(&y) == 0.0 {
        return Ok(1.0);
    }
    let others: Vec<usize> = (0..p).filter(|&c| c != target).collect();
    let design = x.select_cols(&others);
    let fit = ols(&design, &y, true)?;
    let r2 = fit.r_squared.min(1.0 - 1e-6);
    Ok((1.0 / (1.0 - r2)).min(1e6))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0, 6.0]), 4.0);
        assert_eq!(variance_population(&[1.0, 1.0, 1.0]), 0.0);
        assert!(
            (variance_sample(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 4.571428571).abs() < 1e-6
        );
        assert_eq!(variance_sample(&[1.0]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let z: Vec<f64> = x.iter().map(|v| -2.0 * v).collect();
        assert!((pearson(&x, &z).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).unwrap(), 0.0);
    }

    #[test]
    fn pearson_errors() {
        assert!(pearson(&[1.0], &[1.0, 2.0]).is_err());
        assert!(pearson(&[], &[]).is_err());
    }

    #[test]
    fn ols_recovers_linear_model() {
        // y = 2 x0 - 3 x1 + 5
        let n = 50;
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let x0 = i as f64 * 0.1;
            let x1 = ((i * 7) % 13) as f64;
            rows.push(vec![x0, x1]);
            y.push(2.0 * x0 - 3.0 * x1 + 5.0);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let fit = ols(&x, &y, true).unwrap();
        assert!((fit.coefficients[0] - 2.0).abs() < 1e-6);
        assert!((fit.coefficients[1] + 3.0).abs() < 1e-6);
        assert!((fit.intercept - 5.0).abs() < 1e-5);
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn ols_without_intercept() {
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let y = vec![2.0, 4.0, 6.0];
        let fit = ols(&x, &y, false).unwrap();
        assert!((fit.coefficients[0] - 2.0).abs() < 1e-9);
        assert_eq!(fit.intercept, 0.0);
    }

    #[test]
    fn ols_r2_zero_for_pure_noise_mean_model() {
        // Predicting an uncorrelated target gives a low R².
        let x = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]).unwrap();
        let y = vec![1.0, -1.0, 1.0, -1.0];
        let fit = ols(&x, &y, true).unwrap();
        assert!(fit.r_squared < 0.3);
    }

    #[test]
    fn vif_high_for_collinear_feature() {
        // Column 2 = column 0 + column 1 (perfectly collinear).
        let mut rows = Vec::new();
        for i in 0..30 {
            let a = (i as f64 * 0.7).sin();
            let b = (i as f64 * 0.3).cos();
            rows.push(vec![a, b, a + b]);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let v = vif(&x, 2).unwrap();
        assert!(v > 100.0, "collinear VIF should be large, got {v}");
    }

    #[test]
    fn vif_low_for_independent_features() {
        // Deterministic but decorrelated columns.
        let mut rows = Vec::new();
        let mut s = 12345u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for _ in 0..200 {
            rows.push(vec![next(), next(), next()]);
        }
        let x = Matrix::from_rows(&rows).unwrap();
        let v = vif(&x, 0).unwrap();
        assert!(v < 2.0, "independent VIF should be near 1, got {v}");
    }

    #[test]
    fn vif_constant_target_is_one() {
        let x = Matrix::from_rows(&[vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]]).unwrap();
        assert_eq!(vif(&x, 0).unwrap(), 1.0);
    }

    #[test]
    fn vif_bad_args() {
        let x = Matrix::zeros(3, 2);
        assert!(vif(&x, 5).is_err());
        assert!(vif(&Matrix::zeros(3, 1), 0).is_err());
    }
}
