//! Property tests over the numerical substrate: transform invertibility,
//! energy preservation, eigen/PCA invariants on arbitrary well-formed
//! inputs.

use dpz_linalg::wavelet::{dwt_forward, dwt_inverse, max_levels_for, Wavelet};
use dpz_linalg::{dct2, dct3, sym_eigen, Matrix, Pca, PcaOptions, RangeFinderOptions};
use proptest::prelude::*;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e6f64..1e6, 2..max_len)
}

/// Low-rank-plus-noise data matrix (`n x m`): `r` separable smooth factors
/// with decaying amplitudes plus tiny xorshift noise — the spectrum shape
/// the randomized range-finder is built for, with randomized geometry,
/// factor frequencies and noise realization.
fn low_rank_plus_noise(n: usize, m: usize, r: usize, seed: u64) -> Matrix {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let freqs: Vec<(f64, f64)> = (0..r)
        .map(|_| (0.01 + next().abs(), 0.01 + next().abs()))
        .collect();
    let mut x = Matrix::zeros(n, m);
    for i in 0..n {
        for j in 0..m {
            let mut v = 0.0;
            for (f, (fr, fc)) in freqs.iter().enumerate() {
                let amp = 10.0 / (1.0 + f as f64);
                v += amp * (fr * i as f64).sin() * (fc * j as f64).cos();
            }
            x.set(i, j, v + 1e-3 * next());
        }
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dct_round_trip_any_length(x in finite_vec(600)) {
        let y = dct3(&dct2(&x));
        let scale = x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((a - b).abs() < 1e-8 * scale, "{a} vs {b}");
        }
    }

    #[test]
    fn dct_preserves_energy(x in finite_vec(400)) {
        let y = dct2(&x);
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ey: f64 = y.iter().map(|v| v * v).sum();
        prop_assert!((ex - ey).abs() <= 1e-8 * ex.max(1.0));
    }

    #[test]
    fn dwt_round_trip(x in finite_vec(512), wavelet_pick in 0u8..2, levels in 1usize..5) {
        let wavelet = if wavelet_pick == 0 { Wavelet::Haar } else { Wavelet::Db4 };
        let levels = max_levels_for(x.len(), levels);
        let mut buf = x.clone();
        if dwt_forward(&mut buf, wavelet, levels).is_ok() {
            dwt_inverse(&mut buf, wavelet, levels).unwrap();
            let scale = x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (a, b) in x.iter().zip(&buf) {
                prop_assert!((a - b).abs() < 1e-8 * scale);
            }
        }
    }

    #[test]
    fn eigen_reconstructs_symmetric_matrices(
        vals in proptest::collection::vec(-100.0f64..100.0, 1..36),
    ) {
        // Build a symmetric matrix from the lower triangle of the input.
        let n = ((vals.len() * 2) as f64).sqrt() as usize;
        let n = n.clamp(1, 6);
        let mut a = Matrix::zeros(n, n);
        let mut it = vals.iter().cycle();
        for i in 0..n {
            for j in 0..=i {
                let v = *it.next().unwrap();
                a.set(i, j, v);
                a.set(j, i, v);
            }
        }
        let eig = sym_eigen(&a).unwrap();
        // Trace preserved.
        let trace: f64 = (0..n).map(|i| a.get(i, i)).sum();
        let sum: f64 = eig.eigenvalues.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-6 * trace.abs().max(1.0));
        // V diag(l) V^T == A.
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
        prop_assert!(recon.max_abs_diff(&a) < 1e-6 * trace.abs().max(100.0));
    }

    #[test]
    fn pca_full_rank_round_trip(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1e3f64..1e3, 4),
            8..40,
        ),
    ) {
        let x = Matrix::from_rows(&rows).unwrap();
        let pca = Pca::fit(&x, PcaOptions::default()).unwrap();
        let scores = pca.transform(&x, 4).unwrap();
        let recon = pca.inverse_transform(&scores).unwrap();
        prop_assert!(recon.max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn pca_tve_is_monotone_in_k(
        rows in proptest::collection::vec(
            proptest::collection::vec(-10.0f64..10.0, 5),
            10..30,
        ),
    ) {
        let x = Matrix::from_rows(&rows).unwrap();
        let pca = Pca::fit(&x, PcaOptions::default()).unwrap();
        let tve = pca.cumulative_tve();
        for w in tve.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
        prop_assert!(tve.last().map(|&v| v > 0.999999).unwrap_or(true));
    }

    #[test]
    fn randomized_fit_tve_tracks_full_solver(
        seed in any::<u64>(),
        r in 1usize..4,
        m in 8usize..112,
    ) {
        // With k = r + 2 and the default oversample of 12, this M range
        // spans all three arms of `Pca::fit_rank`: the full solve
        // (k·6 ≥ m), subspace iteration, and the randomized range-finder
        // (m ≥ 64 and (k + 12)·4 < m). The fitted model's own cumulative
        // TVE is exact for its basis, so comparing against the full
        // eigensolve at the same k bounds each arm's subspace error
        // directly.
        let x = low_rank_plus_noise(m + m / 2, m, r, seed);
        let k = r + 2;
        let full = Pca::fit(&x, PcaOptions::default()).unwrap();
        let rf = RangeFinderOptions::default();
        let rand = Pca::fit_rank(&x, PcaOptions::default(), k, &rf).unwrap().0;
        let full_tve = full.cumulative_tve()[k - 1];
        let rand_tve = rand.cumulative_tve()[k - 1];
        prop_assert!(
            rand_tve >= full_tve - 1e-4,
            "rank-fit TVE {rand_tve} fell behind full solver {full_tve} (r={r}, m={m})"
        );
    }

    #[test]
    fn randomized_fit_is_deterministic_for_any_input(
        seed in any::<u64>(),
        m in 72usize..112,
    ) {
        // The probe matrix comes from a fixed per-fit seed, so two fits of
        // the same data must agree bit for bit — this is what makes
        // compressed artifacts reproducible across runs and hosts with the
        // same backend.
        let x = low_rank_plus_noise(m + 40, m, 3, seed);
        let rf = RangeFinderOptions::default();
        let fit = || Pca::fit_rank(&x, PcaOptions::default(), 6, &rf).unwrap().0;
        let (a, b) = (fit(), fit());
        prop_assert_eq!(a.components().as_slice(), b.components().as_slice());
        prop_assert_eq!(a.eigenvalues(), b.eigenvalues());
        prop_assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn matrix_solve_validates_solution(
        diag in proptest::collection::vec(1.0f64..100.0, 2..8),
        rhs_seed in any::<u64>(),
    ) {
        // Diagonally dominant matrix: always solvable.
        let n = diag.len();
        let mut a = Matrix::zeros(n, n);
        let mut s = rhs_seed | 1;
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for (i, &d) in diag.iter().enumerate() {
            for j in 0..n {
                a.set(i, j, if i == j { d + n as f64 } else { next() });
            }
        }
        let x_true: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        for (g, t) in x.iter().zip(&x_true) {
            prop_assert!((g - t).abs() < 1e-6);
        }
    }
}
