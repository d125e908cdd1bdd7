//! End-to-end comparison bench: DPZ (both schemes, plus loose with the
//! sampling estimator on) vs the SZ and ZFP baselines on a CESM-like field
//! — the wall-clock counterpart to Figure 8.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dpz_core::{DpzConfig, TveLevel};
use dpz_data::metrics::value_range;
use dpz_data::{Dataset, DatasetKind, Scale};
use dpz_sz::SzConfig;
use dpz_zfp::ZfpMode;
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let ds = Dataset::generate(DatasetKind::Cldhgh, Scale::Small, 2021);
    let nbytes = ds.nbytes() as u64;

    let mut group = c.benchmark_group("compress_cldhgh_small");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(nbytes));
    group.bench_function("dpz_loose", |b| {
        let cfg = DpzConfig::loose().with_tve(TveLevel::FiveNines);
        b.iter(|| dpz_core::compress(black_box(&ds.data), &ds.dims, &cfg).unwrap());
    });
    group.bench_function("dpz_strict", |b| {
        let cfg = DpzConfig::strict().with_tve(TveLevel::FiveNines);
        b.iter(|| dpz_core::compress(black_box(&ds.data), &ds.dims, &cfg).unwrap());
    });
    group.bench_function("dpz_loose_sampling", |b| {
        let cfg = DpzConfig::loose()
            .with_tve(TveLevel::FiveNines)
            .with_sampling(true);
        b.iter(|| dpz_core::compress(black_box(&ds.data), &ds.dims, &cfg).unwrap());
    });
    group.bench_function("sz_rel1e-4", |b| {
        let eb = 1e-4 * value_range(&ds.data);
        let cfg = SzConfig::with_error_bound(eb);
        b.iter(|| dpz_sz::compress(black_box(&ds.data), &ds.dims, &cfg));
    });
    group.bench_function("zfp_prec16", |b| {
        b.iter(|| dpz_zfp::compress(black_box(&ds.data), &ds.dims, ZfpMode::FixedPrecision(16)));
    });
    group.finish();

    let mut group = c.benchmark_group("decompress_cldhgh_small");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(nbytes));
    let dpz_bytes = dpz_core::compress(
        &ds.data,
        &ds.dims,
        &DpzConfig::strict().with_tve(TveLevel::FiveNines),
    )
    .unwrap()
    .bytes;
    group.bench_function("dpz_strict", |b| {
        b.iter(|| dpz_core::decompress(black_box(&dpz_bytes)).unwrap());
    });
    let sz_bytes = dpz_sz::compress(
        &ds.data,
        &ds.dims,
        &SzConfig::with_error_bound(1e-4 * value_range(&ds.data)),
    );
    group.bench_function("sz", |b| {
        b.iter(|| dpz_sz::decompress(black_box(&sz_bytes)).unwrap());
    });
    let zfp_bytes = dpz_zfp::compress(&ds.data, &ds.dims, ZfpMode::FixedPrecision(16));
    group.bench_function("zfp", |b| {
        b.iter(|| dpz_zfp::decompress(black_box(&zfp_bytes)).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
