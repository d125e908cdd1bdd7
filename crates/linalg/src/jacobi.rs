//! Cyclic Jacobi eigensolver for symmetric matrices.
//!
//! Slower than the Householder+QL path in [`crate::eigen`] (`O(n³)` per sweep,
//! several sweeps) but built from a completely different algorithm, which
//! makes it a useful independent oracle: the two solvers cross-validate each
//! other in tests, so a bug in either is caught without an external LAPACK.

use crate::eigen::SymEigen;
use crate::{LinalgError, Matrix, Result};

/// Eigendecomposition by cyclic Jacobi rotations.
///
/// Repeatedly annihilates the largest remaining off-diagonal entries with
/// Givens rotations until the off-diagonal Frobenius norm is negligible.
/// `max_sweeps` bounds the number of full upper-triangle sweeps.
pub(crate) fn jacobi_eigen(a: &Matrix, max_sweeps: usize) -> Result<SymEigen> {
    if a.rows() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "jacobi_eigen",
            got: format!("{}x{}", a.rows(), a.cols()),
            expected: "square symmetric matrix".to_string(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Ok(SymEigen {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(0, 0),
        });
    }
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let scale = a.frobenius_norm().max(1.0);
    let tol = 1e-14 * scale;

    for _sweep in 0..max_sweeps {
        let off: f64 = {
            let mut s = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    s += m.get(i, j) * m.get(i, j);
                }
            }
            (2.0 * s).sqrt()
        };
        if off < tol {
            return Ok(finish(m, v));
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() < tol / (n as f64) {
                    continue;
                }
                // Compute the rotation angle that zeroes m[p][q].
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply the rotation: rows/cols p and q of m.
                for k in 0..n {
                    let mkp = m.get(k, p);
                    let mkq = m.get(k, q);
                    m.set(k, p, c * mkp - s * mkq);
                    m.set(k, q, s * mkp + c * mkq);
                }
                for k in 0..n {
                    let mpk = m.get(p, k);
                    let mqk = m.get(q, k);
                    m.set(p, k, c * mpk - s * mqk);
                    m.set(q, k, s * mpk + c * mqk);
                }
                // Accumulate into the eigenvector basis.
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }
    // Check final convergence; allow a slightly looser exit tolerance.
    let mut off = 0.0f64;
    for i in 0..n {
        for j in (i + 1)..n {
            off = off.max(m.get(i, j).abs());
        }
    }
    if off < 1e-9 * scale {
        Ok(finish(m, v))
    } else {
        Err(LinalgError::NoConvergence {
            algorithm: "cyclic Jacobi",
            iterations: max_sweeps,
        })
    }
}

fn finish(m: Matrix, v: Matrix) -> SymEigen {
    let n = m.rows();
    let mut d: Vec<f64> = (0..n).map(|i| m.get(i, i)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).unwrap_or(std::cmp::Ordering::Equal));
    let eigenvectors = v.select_cols(&order);
    d = order.iter().map(|&i| d[i]).collect();
    SymEigen {
        eigenvalues: d,
        eigenvectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_2x2() {
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let eig = jacobi_eigen(&a, 50).unwrap();
        assert!((eig.eigenvalues[0] - 3.0).abs() < 1e-10);
        assert!((eig.eigenvalues[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a =
            Matrix::from_vec(3, 3, vec![4.0, 1.0, -2.0, 1.0, 2.0, 0.0, -2.0, 0.0, 3.0]).unwrap();
        let eig = jacobi_eigen(&a, 100).unwrap();
        let vtv = eig
            .eigenvectors
            .transpose()
            .matmul(&eig.eigenvectors)
            .unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(3)) < 1e-9);
    }

    #[test]
    fn residual_small() {
        let a = Matrix::from_vec(
            4,
            4,
            vec![
                5.0, 1.0, 0.5, 0.0, 1.0, 4.0, 0.2, 0.1, 0.5, 0.2, 3.0, -0.3, 0.0, 0.1, -0.3, 2.0,
            ],
        )
        .unwrap();
        let eig = jacobi_eigen(&a, 100).unwrap();
        for j in 0..4 {
            let v = eig.eigenvectors.col(j);
            let av = a.mul_vec(&v).unwrap();
            for i in 0..4 {
                assert!((av[i] - eig.eigenvalues[j] * v[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rejects_non_square() {
        assert!(jacobi_eigen(&Matrix::zeros(3, 2), 10).is_err());
    }

    #[test]
    fn handles_already_diagonal() {
        let mut a = Matrix::zeros(3, 3);
        a.set(0, 0, 1.0);
        a.set(1, 1, 5.0);
        a.set(2, 2, 3.0);
        let eig = jacobi_eigen(&a, 10).unwrap();
        assert_eq!(eig.eigenvalues, vec![5.0, 3.0, 1.0]);
    }
}
