//! Microbenchmark: the stage-2 eigensolvers — the full Householder+QL path,
//! the truncated subspace iteration (`O(M²k)` on an explicit Gram), and the
//! rank-bounded `Pca::fit_rank` (the randomized range-finder, `O(n·M·s)` on
//! the data matrix with no Gram at all, where its crossover allows) — over
//! an `m x k` grid.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dpz_linalg::{sym_eigen, sym_eigen_topk, Matrix, Pca, PcaOptions, RangeFinderOptions};
use std::hint::black_box;

/// Data matrix (`2m x m`) with strong low-rank structure + noise, like
/// DCT-domain blocks.
fn data_matrix(m: usize) -> Matrix {
    let mut x = Matrix::zeros(2 * m, m);
    let mut s = 0xDEADBEEFu64;
    for r in 0..2 * m {
        for c in 0..m {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            let smooth = ((r as f64 * 0.01).sin() * (c as f64 * 0.05).cos()) * 10.0;
            x.set(r, c, smooth + 0.01 * noise);
        }
    }
    x
}

const GRID_M: [usize; 3] = [64, 256, 1024];
const GRID_K: [usize; 3] = [4, 16, 64];

fn bench_eigen(c: &mut Criterion) {
    // Full decomposition: depends on m only. The 1024 point is the
    // O(M³) wall the truncated/randomized paths exist to avoid — keep it,
    // but with the minimum sample count so the grid stays runnable.
    let mut group = c.benchmark_group("eigen_full");
    group.sample_size(10);
    for &m in &GRID_M {
        let cov = data_matrix(m).gram();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| sym_eigen(black_box(&cov)).unwrap());
        });
    }
    group.finish();

    // Truncated subspace iteration on an explicit Gram.
    let mut group = c.benchmark_group("eigen_topk");
    group.sample_size(10);
    for &m in &GRID_M {
        let cov = data_matrix(m).gram();
        for &k in &GRID_K {
            if k >= m {
                continue;
            }
            group.bench_with_input(
                BenchmarkId::new(format!("m{m}"), k),
                &(m, k),
                |b, &(_, k)| {
                    b.iter(|| sym_eigen_topk(black_box(&cov), k, 100).unwrap());
                },
            );
        }
    }
    group.finish();

    // Rank-bounded fits through the public PCA entry point, so the numbers
    // include centering — what the pipeline actually pays. `Pca::fit_rank`
    // runs the randomized range-finder straight on the data matrix wherever
    // its crossover allows ((k + 12)·4 < m here); the remaining cells take
    // its dense arms.
    let mut group = c.benchmark_group("eigen_randomized");
    group.sample_size(10);
    let rf = RangeFinderOptions::default();
    for &m in &GRID_M {
        let x = data_matrix(m);
        for &k in &GRID_K {
            if k >= m {
                continue;
            }
            group.bench_with_input(
                BenchmarkId::new(format!("m{m}"), k),
                &(m, k),
                |b, &(_, k)| {
                    b.iter(|| Pca::fit_rank(black_box(&x), PcaOptions::default(), k, &rf).unwrap());
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_eigen);
criterion_main!(benches);
