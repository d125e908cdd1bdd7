//! Symmetric eigendecomposition.
//!
//! PCA (stage 2 of DPZ) needs all eigenpairs of the `M x M` covariance matrix
//! of the block data. We use the classic dense two-phase approach:
//!
//! 1. **Householder tridiagonalization** (`tred2`-style): orthogonal
//!    similarity transforms reduce the symmetric input to a tridiagonal
//!    matrix while accumulating the transform.
//! 2. **Implicit QL with Wilkinson shifts** (`tql2`-style): iteratively
//!    drives the off-diagonal to zero, rotating the accumulated basis so its
//!    columns converge to eigenvectors.
//!
//! Total cost is `O(n³)` with a small constant; for DPZ's block counts
//! (`M ≤ ~2048`) this completes in well under a second in release builds.
//! A test-only cyclic-Jacobi solver (`jacobi.rs`) cross-validates this
//! implementation.

use crate::{LinalgError, Matrix, Result};
use dpz_kernels::blas;

/// QL iterations per eigenvalue under the local deflation test alone. A
/// block still unsplit after this many gets as many again with the
/// absolute test added (see [`block_end`]) before the solve gives up.
const MAX_QL_ITERATIONS: usize = 64;

/// Result of a symmetric eigendecomposition.
///
/// Eigenvalues are sorted in **descending** order (PCA convention: component
/// 0 explains the most variance); `eigenvectors` holds the matching unit
/// eigenvectors as *columns*, so `input ≈ V · diag(λ) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, largest first.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors as columns, ordered to match `eigenvalues`.
    pub eigenvectors: Matrix,
}

/// `sqrt(a² + b²)` without destructive underflow or overflow.
#[inline]
fn pythag(a: f64, b: f64) -> f64 {
    let (absa, absb) = (a.abs(), b.abs());
    if absa > absb {
        let r = absb / absa;
        absa * (1.0 + r * r).sqrt()
    } else if absb == 0.0 {
        0.0
    } else {
        let r = absa / absb;
        absb * (1.0 + r * r).sqrt()
    }
}

#[inline]
fn sign_like(magnitude: f64, sign_of: f64) -> f64 {
    if sign_of >= 0.0 {
        magnitude.abs()
    } else {
        -magnitude.abs()
    }
}

/// Householder reduction of symmetric `z` (modified in place, becoming the
/// accumulated orthogonal transform) to tridiagonal form with diagonal `d`
/// and off-diagonal `e` (`e[0]` unused).
///
/// The classic tred2 formulation walks *columns* of the lower triangle in its
/// inner loops (strided access). Both hot phases here are interchanged to
/// operate on contiguous rows so they can run through the `dpz-kernels`
/// level-1 primitives:
///
/// * the projection `p = A·u / h` is computed as a symmetric matvec over
///   lower-triangle rows (`dot` for the at-or-below-diagonal part, `axpy`
///   scattering each row's contribution to earlier entries);
/// * the rank-2 update `A ← A − u·pᵀ − p·uᵀ` runs row-by-row via `update2`;
/// * the transform accumulation `Z ← Z · (I − u·uᵀ/h)` gathers `g = Zᵀu`
///   with row `axpy`s and applies the outer-product update with row `axpy`s
///   (all `g[j]` are read from the pre-update `Z`, so the interchange is
///   alias-free).
#[allow(clippy::needless_range_loop)]
fn tridiagonalize(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = z.rows();
    householder_reduce(z, d, e, true);
    // Accumulate the Householder transforms into z.
    let mut ubuf = vec![0.0f64; n];
    let mut gbuf = vec![0.0f64; n];
    for i in 0..n {
        if d[i] != 0.0 {
            let u = &mut ubuf[..i];
            u.copy_from_slice(&z.row(i)[..i]);
            // g = Z[..i, ..i]ᵀ · u gathered from contiguous rows. Every g[j]
            // depends only on columns 0..i of rows 0..i, none of which are
            // written until the update pass below, so computing the full
            // gather first is exactly equivalent to the column-major
            // original.
            let g = &mut gbuf[..i];
            g.fill(0.0);
            for k in 0..i {
                blas::axpy(g, &z.row(k)[..i], u[k]);
            }
            for k in 0..i {
                let zki = z.get(k, i);
                blas::axpy(&mut z.row_mut(k)[..i], g, -zki);
            }
        }
        d[i] = z.get(i, i);
        z.set(i, i, 1.0);
        for j in 0..i {
            z.set(j, i, 0.0);
            z.set(i, j, 0.0);
        }
    }
}

/// The reduction phase of [`tridiagonalize`], without accumulating the
/// orthogonal transform. On return the lower triangle of `z` holds the
/// (scaled) Householder vectors — row `i`, entries `..i`, is the vector for
/// step `i` — `d[i]` holds the step's `h = uᵀu/2`-style normalizer (`0` for
/// skipped steps), and `e` the tridiagonal off-diagonal (`e[i]` couples
/// `i-1` and `i`; `e[0]` unused). The tridiagonal *diagonal* is left on the
/// matrix diagonal (`z[i][i]`), since `d` is carrying the normalizers.
///
/// Keeping the reflectors instead of the accumulated basis is the classic
/// `tred1` trade: the reduction alone is ~half the flops of `tred2`, and a
/// caller that only needs `k ≪ n` eigenvectors can back-transform just those
/// through the reflectors in `O(k·n²)` — see [`sym_eigen_select`].
/// When `store_v` is set, the strict upper triangle additionally receives
/// `v = u/h` column-by-column — required only by the accumulation phase of
/// the full solver ([`tridiagonalize`]). The selective solver back-transforms
/// through the rows alone, and the column stores are strided (one cache line
/// per element), so skipping them is a measurable win.
#[allow(clippy::needless_range_loop)]
fn householder_reduce(z: &mut Matrix, d: &mut [f64], e: &mut [f64], store_v: bool) {
    let n = z.rows();
    // Scratch: `ubuf` holds the current step's scaled Householder vector;
    // `uprev`/`gprev` carry the previous step's *deferred* rank-2 update
    // (`row_j -= uprev[j]·gprev + gprev[j]·uprev`), and `pbuf` accumulates
    // the current step's matvec. Deferring the update lets the next step
    // apply it row-by-row inside its own matvec pass, so every step makes a
    // single pass over the lower triangle instead of two (the triangle
    // outgrows L1 quickly; this is the dominant cost of the reduction).
    let mut ubuf = vec![0.0f64; n];
    let mut uprev = vec![0.0f64; n];
    let mut gprev = vec![0.0f64; n];
    let mut pbuf = vec![0.0f64; n];
    // Rows `0..pending` still owe the deferred rank-2 update (0 = none).
    // Only one update is ever outstanding: a non-degenerate step drains the
    // previous one over the whole triangle before deferring its own.
    let mut pending = 0usize;
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            if pending > i {
                // Row `i` is the deepest row covered by the deferred update;
                // bring it current before deriving this step's reflector.
                let row_i = &mut z.row_mut(i)[..=i];
                blas::update2(row_i, &gprev[..=i], &uprev[..=i], uprev[i], gprev[i]);
                pending = i;
            }
            let scale: f64 = (0..i).map(|k| z.get(i, k).abs()).sum();
            if scale == 0.0 {
                // Degenerate step: no reflector. Rows below may still owe
                // the deferred update; `pending` carries it forward.
                e[i] = z.get(i, l);
            } else {
                for k in 0..i {
                    let v = z.get(i, k) / scale;
                    z.set(i, k, v);
                    h += v * v;
                }
                let f = z.get(i, l);
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z.set(i, l, f - g);
                let u = &mut ubuf[..i];
                u.copy_from_slice(&z.row(i)[..i]);
                if store_v {
                    for j in 0..i {
                        z.set(j, i, u[j] / h);
                    }
                }
                // One pass over the lower triangle: finish the previous
                // step's rank-2 update on row j, then immediately fold the
                // row into this step's symmetric matvec while it is hot:
                // p[j] = Σ_{k≤j} A[j][k]·u[k]  (dot over row j)
                //      + Σ_{k>j} A[k][j]·u[k]  (row k scatters into p[..k]),
                // both directions fused via `dot_axpy` so each row is loaded
                // once.
                pbuf[..i].fill(0.0);
                for j in 0..i {
                    if j < pending {
                        let row_j = &mut z.row_mut(j)[..=j];
                        blas::update2(row_j, &gprev[..=j], &uprev[..=j], uprev[j], gprev[j]);
                    }
                    let row_j = &z.row(j)[..=j];
                    let partial = blas::dot_axpy(&mut pbuf[..j], &row_j[..j], &u[..j], u[j]);
                    pbuf[j] += partial + row_j[j] * u[j];
                }
                let mut fsum = 0.0;
                for j in 0..i {
                    pbuf[j] /= h;
                    fsum += pbuf[j] * u[j];
                }
                // Defer this step's rank-2 update; the next step (or the
                // final flush) applies it before each row is next read.
                let hh = fsum / (h + h);
                for j in 0..i {
                    gprev[j] = pbuf[j] - hh * u[j];
                }
                uprev[..i].copy_from_slice(u);
                pending = i;
            }
        } else {
            // i == 1: row 1 may still owe the deferred update before its
            // off-diagonal entry is read.
            if pending > 1 {
                let row_1 = &mut z.row_mut(1)[..=1];
                blas::update2(row_1, &gprev[..=1], &uprev[..=1], uprev[1], gprev[1]);
                pending = 1;
            }
            e[i] = z.get(i, l);
        }
        d[i] = h;
    }
    // The 1x1 corner may still owe the deferred update — callers read the
    // tridiagonal diagonal off `z` afterwards.
    if pending > 0 {
        let row_0 = &mut z.row_mut(0)[..=0];
        blas::update2(row_0, &gprev[..=0], &uprev[..=0], uprev[0], gprev[0]);
    }
    d[0] = 0.0;
    e[0] = 0.0;
}

/// Largest absolute entry of the tridiagonal `(d, e)`: the `‖T‖` of the
/// absolute deflation test, taken before QL starts rotating.
fn tridiagonal_norm(d: &[f64], e: &[f64]) -> f64 {
    d.iter().chain(e).fold(0.0f64, |acc, v| acc.max(v.abs()))
}

/// End of the unreduced block that starts at `l`: the first `m ≥ l` whose
/// off-diagonal `e[m]` (coupling `m` and `m + 1`) is negligible. For the
/// first [`MAX_QL_ITERATIONS`] sweeps of a block, negligible means
/// `|e[m]| ≤ ε·(|d[m]| + |d[m+1]|)`, relative to its own diagonal. After
/// that, `|e[m]| ≤ ε·‖T‖` also counts. Graded spectra need this: when the
/// leading eigenvalues sit near 1e-16 and the largest near 1e2, rounding
/// keeps the leading off-diagonal near 1e-17, above ε times its diagonal
/// forever, but far below anything that moves an eigenvalue at the
/// matrix's own precision. A matrix the local test converges on never
/// reaches the absolute one, so its result does not change.
fn block_end(d: &[f64], e: &[f64], l: usize, iter: usize, tnorm: f64) -> usize {
    let floor = if iter < MAX_QL_ITERATIONS {
        0.0
    } else {
        f64::EPSILON * tnorm
    };
    let mut m = l;
    while m < d.len() - 1 {
        let dd = d[m].abs() + d[m + 1].abs();
        if e[m].abs() <= f64::EPSILON * dd || e[m].abs() <= floor {
            break;
        }
        m += 1;
    }
    m
}

/// Implicit QL with shifts on the tridiagonal `(d, e)`. On success `d` holds
/// the eigenvalues (unsorted).
///
/// With `VECTORS`, each Givens rotation is also applied to the **rows** of
/// `zt` (the transposed accumulated basis), so row `i` of `zt` ends as the
/// eigenvector for `d[i]`. Operating on the transpose turns each rotation
/// into a fused pass over two contiguous rows ([`blas::rot2`]) instead of a
/// strided column-pair walk — the dominant cost of the QL phase for the
/// matrix sizes PCA feeds in. Without it `zt` is never touched, leaving an
/// `O(n²)` eigenvalues-only sweep. The rotation never feeds back into
/// `(d, e)`, so both variants produce the same eigenvalues bit for bit; the
/// const parameter gives each its own machine code.
#[allow(clippy::needless_range_loop)]
fn ql_implicit<const VECTORS: bool>(d: &mut [f64], e: &mut [f64], zt: &mut Matrix) -> Result<()> {
    let n = d.len();
    if n == 0 {
        return Ok(());
    }
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    let tnorm = tridiagonal_norm(d, e);
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a negligible off-diagonal element delimiting a block.
            let m = block_end(d, e, l, iter, tnorm);
            if m == l {
                break;
            }
            iter += 1;
            if iter > 2 * MAX_QL_ITERATIONS {
                return Err(LinalgError::NoConvergence {
                    algorithm: if VECTORS {
                        "implicit QL (sym_eigen)"
                    } else {
                        "implicit QL (sym_eigen_select, values)"
                    },
                    iterations: 2 * MAX_QL_ITERATIONS,
                });
            }
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g, 1.0);
            g = d[m] - d[l] + e[l] / (g + sign_like(r, g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow by deflating.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                if VECTORS {
                    // Apply the rotation to eigenvector rows i, i+1
                    // (adjacent and contiguous in the row-major transpose).
                    let (row_i, row_i1) = zt.as_mut_slice()[i * n..(i + 2) * n].split_at_mut(n);
                    blas::rot2(row_i, row_i1, c, s);
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Full eigendecomposition of a symmetric matrix.
///
/// Only the lower triangle strictly needs to be meaningful, but callers in
/// this workspace always pass exactly symmetric matrices. Returns eigenpairs
/// sorted by descending eigenvalue.
pub fn sym_eigen(a: &Matrix) -> Result<SymEigen> {
    let n = a.rows();
    if a.rows() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "sym_eigen",
            got: format!("{}x{}", a.rows(), a.cols()),
            expected: "square symmetric matrix".to_string(),
        });
    }
    if n == 0 {
        return Ok(SymEigen {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(0, 0),
        });
    }
    let mut z = a.clone();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    tridiagonalize(&mut z, &mut d, &mut e);
    // QL runs on the transpose so each Givens rotation touches two
    // contiguous rows instead of two strided columns.
    let mut zt = z.transpose();
    ql_implicit::<true>(&mut d, &mut e, &mut zt)?;

    // Sort descending by eigenvalue, gathering eigenvector rows of the
    // transpose back into columns of the result.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| d[j].partial_cmp(&d[i]).unwrap_or(std::cmp::Ordering::Equal));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| d[i]).collect();
    let mut eigenvectors = Matrix::zeros(n, n);
    for (c, &idx) in order.iter().enumerate() {
        let src = zt.row(idx);
        for (r, &v) in src.iter().enumerate() {
            eigenvectors.set(r, c, v);
        }
    }
    Ok(SymEigen {
        eigenvalues,
        eigenvectors,
    })
}

/// One solve of `(T − λI)·x = rhs` for the symmetric tridiagonal `T` with
/// diagonal `diag` and off-diagonal `off` (`off[i]` couples `i` and `i+1`),
/// by Gaussian elimination with partial pivoting (bandwidth grows to two
/// superdiagonals, the classic `tinvit` factorization). `rhs` is consumed
/// in place and replaced by the solution; near-singular pivots — expected,
/// since λ is an eigenvalue — are replaced by `eps` so the solve blows up
/// *along the eigenvector*, which is exactly what inverse iteration wants.
///
/// `a`/`b`/`c` are caller-provided scratch for the three stored diagonals.
#[allow(clippy::too_many_arguments)]
fn solve_tridiag_shifted(
    diag: &[f64],
    off: &[f64],
    lambda: f64,
    eps: f64,
    x: &mut [f64],
    a: &mut [f64],
    b: &mut [f64],
    c: &mut [f64],
) {
    let n = diag.len();
    if n == 1 {
        let p = diag[0] - lambda;
        let p = if p.abs() < eps { sign_like(eps, p) } else { p };
        x[0] /= p;
        return;
    }
    let mut u = diag[0] - lambda;
    let mut v = off[0];
    for i in 1..n {
        let s = off[i - 1];
        if s.abs() > u.abs() {
            // Pivot: swap rows i-1 and i before eliminating.
            let xu = if s != 0.0 { u / s } else { 0.0 };
            a[i - 1] = s;
            b[i - 1] = diag[i] - lambda;
            c[i - 1] = if i + 1 < n { off[i] } else { 0.0 };
            x.swap(i - 1, i);
            x[i] -= xu * x[i - 1];
            u = v - xu * b[i - 1];
            v = -xu * c[i - 1];
        } else {
            let xu = if u != 0.0 { s / u } else { 0.0 };
            a[i - 1] = u;
            b[i - 1] = v;
            c[i - 1] = 0.0;
            x[i] -= xu * x[i - 1];
            u = diag[i] - lambda - xu * v;
            v = if i + 1 < n { off[i] } else { 0.0 };
        }
    }
    a[n - 1] = if u.abs() < eps { sign_like(eps, u) } else { u };
    b[n - 1] = 0.0;
    for i in (0..n).rev() {
        let mut t = x[i];
        if i + 1 < n {
            t -= b[i] * x[i + 1];
        }
        if i + 2 < n {
            t -= c[i] * x[i + 2];
        }
        let p = a[i];
        let p = if p.abs() < eps { sign_like(eps, p) } else { p };
        x[i] = t / p;
    }
}

/// Selective eigendecomposition: the **full spectrum** plus eigenvectors for
/// only the `k` leading eigenvalues, where `k` is chosen by the caller *after
/// seeing every eigenvalue*.
///
/// This is the exact-TVE fast path for PCA at moderate `m`: the paper's
/// TVE rule needs the complete (sorted) spectrum to pick `k`, but only `k`
/// eigenvectors are ever used. The full `tred2 + tql2` solve pays `O(n³)`
/// twice over (transform accumulation, then rotating `n` vectors through
/// every QL sweep); here the split is
///
/// 1. Householder reduction keeping the raw reflectors (`~n³/3` avoided),
/// 2. eigenvalues-only implicit QL (`O(n²)`),
/// 3. inverse iteration on the tridiagonal for the `k` selected values
///    (`O(k·n)` per vector, with modified-Gram–Schmidt re-orthogonalization
///    inside clusters of near-equal eigenvalues),
/// 4. back-transform of those `k` vectors through the reflectors
///    (`O(k·n²)`).
///
/// `select` receives the eigenvalues sorted descending and returns how many
/// leading eigenvectors to compute (clamped to `n`). Returns the sorted
/// spectrum and the selected eigenpairs in [`SymEigen`] layout.
pub fn sym_eigen_select<F>(a: &Matrix, select: F) -> Result<(Vec<f64>, SymEigen)>
where
    F: FnOnce(&[f64]) -> usize,
{
    let n = a.rows();
    if a.rows() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "sym_eigen_select",
            got: format!("{}x{}", a.rows(), a.cols()),
            expected: "square symmetric matrix".to_string(),
        });
    }
    if n == 0 {
        return Ok((
            vec![],
            SymEigen {
                eigenvalues: vec![],
                eigenvectors: Matrix::zeros(0, 0),
            },
        ));
    }
    let mut z = a.clone();
    let mut hs = vec![0.0; n];
    let mut e = vec![0.0; n];
    householder_reduce(&mut z, &mut hs, &mut e, false);
    // The tridiagonal: diagonal is left on the reduced matrix, `e[i]`
    // couples i-1 and i. Re-index the off-diagonal so off[i] couples
    // (i, i+1) for the inverse-iteration solver.
    let diag: Vec<f64> = (0..n).map(|i| z.get(i, i)).collect();
    let off: Vec<f64> = (0..n - 1).map(|i| e[i + 1]).collect();

    let mut dq = diag.clone();
    let mut eq = e.clone();
    ql_implicit::<false>(&mut dq, &mut eq, &mut Matrix::zeros(0, 0))?;
    dq.sort_by(|x, y| y.partial_cmp(x).unwrap_or(std::cmp::Ordering::Equal));
    let spectrum = dq;

    let k = select(&spectrum).min(n);
    if k == 0 {
        return Ok((
            spectrum,
            SymEigen {
                eigenvalues: vec![],
                eigenvectors: Matrix::zeros(n, 0),
            },
        ));
    }

    // Inverse iteration in the tridiagonal basis. `vt` holds the vectors as
    // rows (contiguous for the MGS passes); they are back-transformed and
    // gathered into columns at the end.
    let tnorm = diag
        .iter()
        .map(|v| v.abs())
        .chain(off.iter().map(|v| v.abs()))
        .fold(0.0f64, f64::max)
        .max(1e-300);
    // Floored at the smallest normal so 1/eps stays finite even for an
    // (effectively) zero input matrix.
    let eps = (f64::EPSILON * tnorm).max(f64::MIN_POSITIVE);
    // Eigenvalues closer than this are treated as one cluster: their
    // tridiagonal eigenvectors must be explicitly re-orthogonalized, and the
    // shifts nudged apart so the solves don't all converge to the same
    // direction.
    let cluster_gap = 1e-8 * tnorm;
    let mut vt = Matrix::zeros(k, n);
    let mut a_s = vec![0.0; n];
    let mut b_s = vec![0.0; n];
    let mut c_s = vec![0.0; n];
    let mut cluster_start = 0usize;
    let mut prev_shift = f64::INFINITY;
    for j in 0..k {
        if j > 0 && (spectrum[j - 1] - spectrum[j]).abs() > cluster_gap {
            cluster_start = j;
        }
        // Separate shifts inside a cluster (tinvit's eps-perturbation).
        let mut shift = spectrum[j];
        if j > cluster_start && shift > prev_shift - eps {
            shift = prev_shift - eps;
        }
        prev_shift = shift;
        let mut attempt = 0usize;
        loop {
            {
                let x = vt.row_mut(j);
                // A deterministic start that is generic (no hidden
                // orthogonality to any eigenvector) and *distinct per
                // vector*: cluster-mates sharing one seed would differ only
                // by cancellation noise after the MGS projection.
                for (i, v) in x.iter_mut().enumerate() {
                    *v = 1.0 + ((i * (j + 1) + attempt * 7) % 13) as f64 * 0.0625;
                }
            }
            for _pass in 0..2 {
                {
                    let x = vt.row_mut(j);
                    solve_tridiag_shifted(&diag, &off, shift, eps, x, &mut a_s, &mut b_s, &mut c_s);
                    let amax = x.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
                    let inv = 1.0 / amax;
                    for v in x.iter_mut() {
                        *v *= inv;
                    }
                }
                // Project out the cluster-mates computed so far
                // (re-orthogonalized: "twice is enough").
                let (done, rest) = vt.as_mut_slice().split_at_mut(j * n);
                let x = &mut rest[..n];
                for _mgs in 0..2 {
                    for p in cluster_start..j {
                        let prow = &done[p * n..(p + 1) * n];
                        let proj = blas::dot(x, prow);
                        blas::axpy(x, prow, -proj);
                    }
                }
            }
            let x = vt.row_mut(j);
            let norm = blas::dot(x, x).sqrt();
            if norm > 1e-150 {
                let inv = 1.0 / norm;
                for v in x.iter_mut() {
                    *v *= inv;
                }
                break;
            }
            attempt += 1;
            if attempt > n {
                return Err(LinalgError::NoConvergence {
                    algorithm: "inverse iteration (sym_eigen_select)",
                    iterations: attempt,
                });
            }
        }
    }

    // Back-transform through the Householder reflectors: the reduction built
    // T = Qᵀ·A·Q with Q = P_{n-1}···P_1, so an eigenvector w of T maps to
    // Q·w applied reflector-by-reflector in ascending step order. Each
    // reflector is rank-one on the leading `i` coordinates: two fused
    // level-1 passes per (vector, step).
    for j in 0..k {
        let w = vt.row_mut(j);
        for i in 1..n {
            let h = hs[i];
            if h != 0.0 {
                let u = &z.row(i)[..i];
                let s = blas::dot(u, &w[..i]) / h;
                blas::axpy(&mut w[..i], u, -s);
            }
        }
    }
    let mut eigenvectors = Matrix::zeros(n, k);
    for j in 0..k {
        let src = vt.row(j);
        for (r, &v) in src.iter().enumerate() {
            eigenvectors.set(r, j, v);
        }
    }
    Ok((
        spectrum.clone(),
        SymEigen {
            eigenvalues: spectrum[..k].to_vec(),
            eigenvectors,
        },
    ))
}

/// Truncated eigendecomposition: the `k` largest-magnitude eigenpairs via
/// orthogonal (subspace) iteration with a Rayleigh–Ritz projection.
///
/// This is the middle arm of [`crate::Pca::fit_rank`]: when a fixed `k` is
/// well below `M` but `M` is too small for the randomized sketch, the full
/// `O(M³)` solve is replaced by `O(M²·k)`-per-iteration subspace
/// iteration. Intended for positive semi-definite inputs
/// (covariance matrices), where the largest-magnitude eigenvalues are also
/// the largest.
pub fn sym_eigen_topk(a: &Matrix, k: usize, max_iters: usize) -> Result<SymEigen> {
    let m = a.rows();
    if a.rows() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            op: "sym_eigen_topk",
            got: format!("{}x{}", a.rows(), a.cols()),
            expected: "square symmetric matrix".to_string(),
        });
    }
    let k = k.min(m);
    if k == 0 || m == 0 {
        return Ok(SymEigen {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(m, 0),
        });
    }
    // Deterministic pseudo-random starting subspace, stored transposed: row
    // `c` of `qt` is subspace vector `c`, so every inner-loop access below
    // (orthonormalization, norm estimates) is a contiguous row.
    let mut qt = Matrix::zeros(k, m);
    let mut state = 0x0123_4567_89AB_CDEFu64;
    for r in 0..k {
        for c in 0..m {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            qt.set(r, c, (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
        }
    }
    orthonormalize_rows(&mut qt)?;

    let mut prev = vec![f64::INFINITY; k];
    for _ in 0..max_iters.max(1) {
        // (A·Q)ᵀ = Qᵀ·A for symmetric A, so the transposed iterate is one
        // row-major mat-mul with the packed GEMM path.
        let mut zt = qt.matmul(a)?;
        // Convergence estimate from the un-normalized image: once the
        // subspace has settled, |A·q_i| approaches |lambda_i|. Reusing `zt`
        // avoids a second mat-mul per iteration.
        let mut est = vec![0.0; k];
        for (c, e) in est.iter_mut().enumerate() {
            let row = zt.row(c);
            *e = blas::dot(row, row).sqrt();
        }
        orthonormalize_rows(&mut zt)?;
        qt = zt;
        let delta = est
            .iter()
            .zip(&prev)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let scale = est.iter().map(|v| v.abs()).fold(1e-300, f64::max);
        prev = est;
        if delta <= 1e-10 * scale {
            break;
        }
    }
    // Rayleigh–Ritz: solve the small projected problem exactly.
    let aqt = qt.matmul(a)?; // k x m = QᵀA
    let small = aqt.matmul_transb(&qt)?; // QᵀAQ, k x k symmetric
    let SymEigen {
        eigenvalues,
        eigenvectors: rot,
    } = sym_eigen(&small)?;
    // V = Q·rot, built transposed as Vᵀ = rotᵀ·Qᵀ.
    let vt = rot.transpose().matmul(&qt)?;
    let eigenvectors = vt.transpose();
    Ok(SymEigen {
        eigenvalues,
        eigenvectors,
    })
}

/// In-place modified Gram–Schmidt orthonormalization of the **rows** of `q`
/// (the transposed subspace layout used by [`sym_eigen_topk`]).
///
/// Rows that collapse numerically are replaced by a unit basis vector that
/// is itself orthogonalized against the rows already processed (cycling to
/// the next basis vector if the projection collapses too) so the output is
/// always orthonormal. Replacing with a *raw* basis vector — what this
/// routine previously did in column form — breaks orthogonality and lets
/// Rayleigh–Ritz values overshoot the true spectrum on (near) low-rank
/// inputs.
pub(crate) fn orthonormalize_rows(q: &mut Matrix) -> Result<()> {
    let (k, m) = q.shape();
    for r in 0..k {
        let mut attempts = 0usize;
        'direction: loop {
            let (done, rest) = q.as_mut_slice().split_at_mut(r * m);
            let row = &mut rest[..m];
            // Projection with re-orthogonalization ("twice is enough"): a
            // pass that removes most of the norm signals cancellation, so
            // the residual's direction is unreliable — project again until
            // the norm stabilizes. A single pass here is exactly the bug
            // that let Ritz values overshoot lambda_max on low-rank inputs.
            let mut norm = blas::dot(row, row).sqrt();
            if norm >= 1e-150 {
                for _pass in 0..3 {
                    for p in 0..r {
                        let prow = &done[p * m..(p + 1) * m];
                        let proj = blas::dot(row, prow);
                        blas::axpy(row, prow, -proj);
                    }
                    let after = blas::dot(row, row).sqrt();
                    if after < 1e-150 {
                        break;
                    }
                    if after >= 0.5 * norm {
                        let inv = 1.0 / after;
                        for v in row.iter_mut() {
                            *v *= inv;
                        }
                        break 'direction;
                    }
                    norm = after;
                }
            }
            if attempts >= m {
                // k ≤ m rows can always be completed from the m basis
                // vectors; hitting this means the caller asked for more
                // rows than the ambient dimension.
                return Err(LinalgError::NoConvergence {
                    algorithm: "orthonormalize_rows (sym_eigen_topk)",
                    iterations: attempts,
                });
            }
            // Degenerate direction: seed with the next untried basis vector
            // and loop back to orthogonalize it against rows 0..r.
            for (i, v) in row.iter_mut().enumerate() {
                *v = if i == (r + attempts) % m { 1.0 } else { 0.0 };
            }
            attempts += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym_from(vals: &[f64], n: usize) -> Matrix {
        Matrix::from_vec(n, n, vals.to_vec()).unwrap()
    }

    /// Deterministic pseudo-random symmetric matrix.
    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = next();
                m.set(i, j, v);
                m.set(j, i, v);
            }
        }
        m
    }

    fn check_decomposition(a: &Matrix, eig: &SymEigen, tol: f64) {
        let n = a.rows();
        // A v = lambda v for each pair.
        for j in 0..n {
            let v = eig.eigenvectors.col(j);
            let av = a.mul_vec(&v).unwrap();
            for i in 0..n {
                assert!(
                    (av[i] - eig.eigenvalues[j] * v[i]).abs() < tol,
                    "residual too large for eigenpair {j}"
                );
            }
        }
        // Orthonormal columns.
        let vtv = eig
            .eigenvectors
            .transpose()
            .matmul(&eig.eigenvectors)
            .unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(n)) < tol);
    }

    #[test]
    fn diagonal_matrix() {
        let a = sym_from(&[3.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0], 3);
        let eig = sym_eigen(&a).unwrap();
        assert!((eig.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues[2] - 1.0).abs() < 1e-12);
        check_decomposition(&a, &eig, 1e-10);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = sym_from(&[2.0, 1.0, 1.0, 2.0], 2);
        let eig = sym_eigen(&a).unwrap();
        assert!((eig.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 1.0).abs() < 1e-12);
        check_decomposition(&a, &eig, 1e-10);
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let a = random_symmetric(12, 7);
        let eig = sym_eigen(&a).unwrap();
        for w in eig.eigenvalues.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn random_matrices_decompose() {
        for (n, seed) in [(1usize, 1u64), (2, 2), (5, 3), (16, 4), (40, 5)] {
            let a = random_symmetric(n, seed);
            let eig = sym_eigen(&a).unwrap();
            check_decomposition(&a, &eig, 1e-8 * (n as f64));
        }
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = random_symmetric(20, 11);
        let eig = sym_eigen(&a).unwrap();
        let trace: f64 = (0..20).map(|i| a.get(i, i)).sum();
        let sum: f64 = eig.eigenvalues.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }

    #[test]
    fn reconstruction_v_lambda_vt() {
        let a = random_symmetric(10, 21);
        let eig = sym_eigen(&a).unwrap();
        let n = 10;
        let mut lam = Matrix::zeros(n, n);
        for i in 0..n {
            lam.set(i, i, eig.eigenvalues[i]);
        }
        let recon = eig
            .eigenvectors
            .matmul(&lam)
            .unwrap()
            .matmul(&eig.eigenvectors.transpose())
            .unwrap();
        assert!(recon.max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn positive_semidefinite_gram_has_nonnegative_spectrum() {
        // Gram matrices (what PCA feeds in) must have lambda >= 0.
        let x = random_symmetric(15, 33);
        let g = x.gram();
        let eig = sym_eigen(&g).unwrap();
        for &l in &eig.eigenvalues {
            assert!(l > -1e-9, "negative eigenvalue {l} from a Gram matrix");
        }
    }

    #[test]
    fn repeated_eigenvalues_identity() {
        let a = Matrix::identity(6);
        let eig = sym_eigen(&a).unwrap();
        for &l in &eig.eigenvalues {
            assert!((l - 1.0).abs() < 1e-12);
        }
        check_decomposition(&a, &eig, 1e-10);
    }

    #[test]
    fn rejects_non_square() {
        assert!(sym_eigen(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn empty_matrix() {
        let eig = sym_eigen(&Matrix::zeros(0, 0)).unwrap();
        assert!(eig.eigenvalues.is_empty());
    }

    #[test]
    fn topk_matches_full_solver_on_psd() {
        // Gram matrix (PSD) with a clear spectral gap.
        let x = random_symmetric(20, 55);
        let g = x.gram();
        let full = sym_eigen(&g).unwrap();
        let top = sym_eigen_topk(&g, 4, 300).unwrap();
        for i in 0..4 {
            let rel =
                (full.eigenvalues[i] - top.eigenvalues[i]).abs() / full.eigenvalues[0].max(1e-300);
            assert!(
                rel < 1e-6,
                "eigenvalue {i}: {} vs {}",
                full.eigenvalues[i],
                top.eigenvalues[i]
            );
        }
        // Eigenvectors agree up to sign.
        for i in 0..4 {
            let a = full.eigenvectors.col(i);
            let b = top.eigenvectors.col(i);
            let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(
                dot.abs() > 0.999,
                "eigenvector {i} misaligned: |dot| = {}",
                dot.abs()
            );
        }
    }

    #[test]
    fn topk_never_overshoots_on_low_rank_input() {
        // Rank-4 PSD matrix with k past the rank: the degenerate subspace
        // directions must be re-orthogonalized, not just reset to raw basis
        // vectors, or Rayleigh–Ritz values can exceed the true lambda_max.
        let n = 24;
        let mut x = Matrix::zeros(4, n);
        let mut state = 99u64;
        for r in 0..4 {
            for c in 0..n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                x.set(r, c, (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
            }
        }
        let g = x.gram(); // n x n, rank <= 4
        let full = sym_eigen(&g).unwrap();
        let top = sym_eigen_topk(&g, 8, 200).unwrap();
        let lmax = full.eigenvalues[0];
        for (i, &l) in top.eigenvalues.iter().enumerate() {
            assert!(
                l <= lmax * (1.0 + 1e-9) + 1e-12,
                "Ritz value {i} = {l} overshoots lambda_max = {lmax}"
            );
        }
        for i in 0..4 {
            let rel = (full.eigenvalues[i] - top.eigenvalues[i]).abs() / lmax.max(1e-300);
            assert!(rel < 1e-8, "eigenvalue {i} mismatch");
        }
        // Orthonormal output even past the numerical rank.
        let vtv = top
            .eigenvectors
            .transpose()
            .matmul(&top.eigenvectors)
            .unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(8)) < 1e-9);
    }

    #[test]
    fn topk_handles_k_larger_than_n() {
        let a = random_symmetric(5, 77);
        let g = a.gram();
        let eig = sym_eigen_topk(&g, 10, 100).unwrap();
        assert_eq!(eig.eigenvalues.len(), 5);
    }

    #[test]
    fn topk_zero_k() {
        let a = Matrix::identity(4);
        let eig = sym_eigen_topk(&a, 0, 10).unwrap();
        assert!(eig.eigenvalues.is_empty());
        assert_eq!(eig.eigenvectors.shape(), (4, 0));
    }

    #[test]
    fn select_matches_full_solver() {
        for (n, seed) in [(2usize, 9u64), (7, 10), (20, 11), (45, 12)] {
            let a = random_symmetric(n, seed);
            let full = sym_eigen(&a).unwrap();
            let k = (n / 2).max(1);
            let (spectrum, top) = sym_eigen_select(&a, |vals| {
                assert_eq!(vals.len(), n);
                k
            })
            .unwrap();
            let scale = spectrum[0].abs().max(spectrum[n - 1].abs()).max(1e-300);
            for (i, &l) in spectrum.iter().enumerate() {
                assert!(
                    (l - full.eigenvalues[i]).abs() < 1e-10 * scale,
                    "spectrum[{i}] mismatch: {} vs {}",
                    l,
                    full.eigenvalues[i]
                );
            }
            assert_eq!(top.eigenvalues.len(), k);
            assert_eq!(top.eigenvectors.shape(), (n, k));
            // Residual check: A v = lambda v for every selected pair.
            for j in 0..k {
                let v = top.eigenvectors.col(j);
                let av = a.mul_vec(&v).unwrap();
                for i in 0..n {
                    assert!(
                        (av[i] - top.eigenvalues[j] * v[i]).abs() < 1e-8 * scale.max(1.0),
                        "residual too large for selected pair {j} (n={n})"
                    );
                }
            }
            // Selected vectors are orthonormal.
            let vtv = top
                .eigenvectors
                .transpose()
                .matmul(&top.eigenvectors)
                .unwrap();
            assert!(vtv.max_abs_diff(&Matrix::identity(k)) < 1e-9);
        }
    }

    #[test]
    fn select_handles_repeated_eigenvalues() {
        // Identity: every eigenvalue is 1; the cluster logic must still
        // produce an orthonormal set.
        let a = Matrix::identity(8);
        let (spectrum, top) = sym_eigen_select(&a, |_| 5).unwrap();
        for &l in &spectrum {
            assert!((l - 1.0).abs() < 1e-12);
        }
        let vtv = top
            .eigenvectors
            .transpose()
            .matmul(&top.eigenvectors)
            .unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(5)) < 1e-8);

        // Block-repeated spectrum from a PSD gram of duplicated rows.
        let mut x = Matrix::zeros(3, 12);
        let mut state = 5u64;
        for r in 0..3 {
            for c in 0..12 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                x.set(r, c, (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
            }
        }
        let g = x.gram();
        let full = sym_eigen(&g).unwrap();
        let (spectrum, top) = sym_eigen_select(&g, |_| 6).unwrap();
        for (i, &l) in spectrum.iter().enumerate() {
            assert!((l - full.eigenvalues[i]).abs() < 1e-10);
        }
        let vtv = top
            .eigenvectors
            .transpose()
            .matmul(&top.eigenvectors)
            .unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(6)) < 1e-8);
    }

    #[test]
    fn select_zero_k_and_empty() {
        let a = random_symmetric(6, 42);
        let (spectrum, top) = sym_eigen_select(&a, |_| 0).unwrap();
        assert_eq!(spectrum.len(), 6);
        assert!(top.eigenvalues.is_empty());
        assert_eq!(top.eigenvectors.shape(), (6, 0));
        let (s, e) = sym_eigen_select(&Matrix::zeros(0, 0), |_| 3).unwrap();
        assert!(s.is_empty());
        assert!(e.eigenvalues.is_empty());
    }

    #[test]
    fn select_clamps_oversized_k() {
        let a = random_symmetric(5, 77);
        let (_, top) = sym_eigen_select(&a, |_| 50).unwrap();
        assert_eq!(top.eigenvalues.len(), 5);
        check_decomposition(
            &a,
            &SymEigen {
                eigenvalues: top.eigenvalues.clone(),
                eigenvectors: top.eigenvectors.clone(),
            },
            1e-8,
        );
    }

    /// Symmetric tridiagonal whose diagonal is graded over 16 decades
    /// (1e-14 at the top to 1e2 at the bottom) with off-diagonal
    /// `0.1·√(d_i·d_{i+1})`: the shape of a smooth field's covariance after
    /// Householder reduction, whose leading block holds eigenvalues far
    /// below the rounding noise of the whole matrix.
    fn graded_tridiagonal(n: usize) -> Matrix {
        let d: Vec<f64> = (0..n)
            .map(|i| 10f64.powf(-14.0 + 16.0 * i as f64 / (n - 1) as f64))
            .collect();
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            a.set(i, i, d[i]);
            if i + 1 < n {
                let e = 0.1 * (d[i] * d[i + 1]).sqrt();
                a.set(i, i + 1, e);
                a.set(i + 1, i, e);
            }
        }
        a
    }

    #[test]
    fn graded_spectrum_converges_in_both_ql_solvers() {
        let n = 128;
        let a = graded_tridiagonal(n);
        let norm = (0..n)
            .map(|i| a.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max);
        let tol = 64.0 * f64::EPSILON * norm;
        let trace: f64 = (0..n).map(|i| a.get(i, i)).sum();
        let check = |eig: &SymEigen| {
            for (j, &lambda) in eig.eigenvalues.iter().enumerate() {
                let v = eig.eigenvectors.col(j);
                let av = a.mul_vec(&v).unwrap();
                let residual = av
                    .iter()
                    .zip(&v)
                    .map(|(x, y)| (x - lambda * y).powi(2))
                    .sum::<f64>()
                    .sqrt();
                assert!(
                    residual <= tol,
                    "pair {j}: residual {residual:.3e} > {tol:.3e}"
                );
            }
        };
        let full = sym_eigen(&a).unwrap();
        assert_eq!(full.eigenvalues.len(), n);
        check(&full);
        let sum: f64 = full.eigenvalues.iter().sum();
        assert!((sum - trace).abs() <= tol, "sum {sum} vs trace {trace}");

        let (spectrum, selected) = sym_eigen_select(&a, |vals| vals.len()).unwrap();
        assert_eq!(selected.eigenvalues.len(), n);
        check(&selected);
        let sum: f64 = spectrum.iter().sum();
        assert!((sum - trace).abs() <= tol, "sum {sum} vs trace {trace}");
    }

    #[test]
    fn agrees_with_jacobi() {
        // Cross-check the QL solver against the independent Jacobi solver.
        for seed in [101u64, 202, 303] {
            let a = random_symmetric(18, seed);
            let ql = sym_eigen(&a).unwrap();
            let jac = crate::jacobi::jacobi_eigen(&a, 200).unwrap();
            for (x, y) in ql.eigenvalues.iter().zip(&jac.eigenvalues) {
                assert!((x - y).abs() < 1e-8, "eigenvalue mismatch {x} vs {y}");
            }
        }
    }
}
