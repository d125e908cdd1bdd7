//! Microbenchmarks for the runtime-dispatched SIMD kernel layer: each group
//! pits the portable scalar arm against whatever `dpz_kernels::backend()`
//! dispatched on this host (AVX2+FMA, NEON, or scalar again), so the report
//! directly shows the per-kernel speedup. On a scalar-only host the two
//! series coincide — that is the expected result, not a regression. The
//! Gram rows time `Matrix::gram`, the PCA covariance, on the dispatched arm.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpz_kernels::gemm::{gemm_strip, gemm_strip_scalar, PackedB};
use dpz_kernels::{checksum, quant};
use dpz_linalg::Matrix;
use std::hint::black_box;

fn xorshift_f64(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// 256×1024 · 1024×256 through the packed-panel GEMM microkernel.
fn bench_matmul(c: &mut Criterion) {
    let (m, k, n) = (256usize, 1024usize, 256usize);
    let a = xorshift_f64(m * k, 0xA5A5);
    let b = xorshift_f64(k * n, 0x5A5A);
    let packed = PackedB::new(&b, k, n);
    let mut out = vec![0.0f64; m * n];

    let mut group = c.benchmark_group("kernels/matmul_256x1024");
    // 2·m·k·n flops per multiply; report element throughput of C.
    group.throughput(Throughput::Elements((m * n) as u64));
    group.bench_function(BenchmarkId::from_parameter("scalar"), |bench| {
        bench.iter(|| {
            out.fill(0.0);
            gemm_strip_scalar(black_box(&mut out), black_box(&a), m, &packed);
        })
    });
    group.bench_function(
        BenchmarkId::from_parameter(dpz_kernels::backend_name()),
        |bench| {
            bench.iter(|| {
                out.fill(0.0);
                gemm_strip(black_box(&mut out), black_box(&a), m, &packed);
            })
        },
    );
    group.finish();
}

/// Fused quantize/dequantize over 1 MiB of f64 scores (128 Ki elements).
fn bench_quantize(c: &mut Criterion) {
    let n = (1 << 20) / std::mem::size_of::<f64>();
    let scores = xorshift_f64(n, 0xBEEF);
    let p = 0.5 / 255.0;
    let half_range = p * 255.0;
    let mut codes = vec![0u16; n];
    let mut out = vec![0.0f64; n];

    let mut group = c.benchmark_group("kernels/quantize_1mib");
    group.throughput(Throughput::Bytes((n * 8) as u64));
    group.bench_function(BenchmarkId::from_parameter("scalar"), |bench| {
        bench.iter(|| {
            quant::quantize_scalar(black_box(&scores), half_range, p, 255, 255, &mut codes)
        })
    });
    group.bench_function(
        BenchmarkId::from_parameter(dpz_kernels::backend_name()),
        |bench| {
            bench.iter(|| {
                quant::quantize_codes(black_box(&scores), half_range, p, 255, 255, &mut codes)
            })
        },
    );
    group.finish();

    quant::quantize_codes(&scores, half_range, p, 255, 255, &mut codes);
    let mut group = c.benchmark_group("kernels/dequantize_1mib");
    group.throughput(Throughput::Bytes((n * 8) as u64));
    group.bench_function(BenchmarkId::from_parameter("scalar"), |bench| {
        bench.iter(|| quant::dequantize_scalar(black_box(&codes), half_range, p, &mut out))
    });
    group.bench_function(
        BenchmarkId::from_parameter(dpz_kernels::backend_name()),
        |bench| bench.iter(|| quant::dequantize_codes(black_box(&codes), half_range, p, &mut out)),
    );
    group.finish();
}

/// CRC-32 over a 16 MiB buffer: slice-by-8 tables vs the PCLMUL fold.
fn bench_crc32(c: &mut Criterion) {
    let n = 16 << 20;
    let mut s = 0x0123_4567_89AB_CDEFu64;
    let data: Vec<u8> = (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 32) as u8
        })
        .collect();

    let mut group = c.benchmark_group("kernels/crc32_16mib");
    group.throughput(Throughput::Bytes(n as u64));
    group.bench_function(BenchmarkId::from_parameter("scalar"), |bench| {
        bench.iter(|| checksum::crc32_update_scalar(0xFFFF_FFFF, black_box(&data)))
    });
    group.bench_function(
        BenchmarkId::from_parameter(dpz_kernels::backend_name()),
        |bench| bench.iter(|| checksum::crc32_update(0xFFFF_FFFF, black_box(&data))),
    );
    group.finish();
}

/// `Matrix::gram` at the suite's dense-PCA shapes (`n` samples × `m`
/// features; 512×128 is HACC Small's) and at paper scale (3600×1800), on
/// the pool's width: run under `DPZ_THREADS=1` and `DPZ_THREADS=2` to
/// compare widths, which give the same bits.
fn bench_gram(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg/gram");
    group.sample_size(10);
    for (n, m) in [(256usize, 128usize), (512, 128), (360, 180), (3600, 1800)] {
        let a = Matrix::from_vec(n, m, xorshift_f64(n * m, 0x6A4D)).unwrap();
        // Upper-triangle multiply-adds per product.
        group.throughput(Throughput::Elements((n * m * (m + 1) / 2) as u64));
        group.bench_function(BenchmarkId::from_parameter(format!("{n}x{m}")), |bench| {
            bench.iter(|| black_box(&a).gram())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_quantize,
    bench_crc32,
    bench_gram
);
criterion_main!(benches);
