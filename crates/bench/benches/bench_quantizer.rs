//! Microbenchmark: the stage-3 uniform symmetric quantizer, both index
//! widths, with realistic score distributions (dense near zero, sparse
//! heavy tail → a few outliers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpz_core::quantize::{dequantize_scores, quantize_scores};
use dpz_core::DpzConfig;
use std::hint::black_box;

fn scores(n: usize) -> Vec<f64> {
    let mut s = 5u64;
    (0..n)
        .map(|i| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let u = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            if i % 997 == 0 {
                u * 100.0 // occasional out-of-range score
            } else {
                u * 0.1
            }
        })
        .collect()
}

fn bench_quantizer(c: &mut Criterion) {
    let n = 1 << 20;
    let data = scores(n);
    let schemes = [
        ("Loose", DpzConfig::loose()),
        ("Strict", DpzConfig::strict()),
    ]
    .map(|(name, cfg)| (name, cfg.resolved_scheme().expect("static bound")));

    let mut group = c.benchmark_group("quantize");
    group.throughput(Throughput::Elements(n as u64));
    for (name, scheme) in schemes {
        group.bench_with_input(BenchmarkId::from_parameter(name), &data, |b, d| {
            b.iter(|| quantize_scores(black_box(d), scheme))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("dequantize");
    group.throughput(Throughput::Elements(n as u64));
    for (name, scheme) in schemes {
        let q = quantize_scores(&data, scheme);
        group.bench_with_input(BenchmarkId::from_parameter(name), &q, |b, q| {
            b.iter(|| dequantize_scores(black_box(q)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_quantizer);
criterion_main!(benches);
