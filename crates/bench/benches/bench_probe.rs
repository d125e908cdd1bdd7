//! Microbenchmark: the kernels behind `AutoCodec`'s probes, each on the
//! probe's own input shape (the 1-D view of a 64 Ki-value prefix): the
//! Huffman code-length build over SZ's 65 536-symbol alphabet, SZ compress
//! at the ratio search's lower bracket (`1e-7·range`) and near its upper
//! end (`1e-3·range`), and the ZFP fixed-accuracy decode the ZFP probe
//! measures PSNR with.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpz_core::decompose::value_extent;
use dpz_core::PROBE_CAP;
use dpz_data::{Dataset, DatasetKind, Scale};
use dpz_deflate::huffman::build_code_lengths;
use dpz_sz::SzConfig;
use dpz_zfp::ZfpMode;
use std::hint::black_box;

/// Symbol counts of `n` SZ-style quantizer codes: a two-sided geometric
/// around the zero-residual code `1 << 15` with mean |offset| `spread`
/// bins. A tight bound spreads the residuals over tens of thousands of
/// codes; a loose one over a few hundred.
fn sz_frequencies(n: usize, spread: f64) -> Vec<u64> {
    let mut s = 77u64;
    let mut freqs = vec![0u64; 1 << 16];
    for _ in 0..n {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let u = ((s >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let off = ((-spread * u.ln()) as usize).min((1 << 15) - 1);
        let sym = if s & 1 == 0 {
            (1 << 15) + off
        } else {
            (1 << 15) - off
        };
        freqs[sym] += 1;
    }
    freqs
}

fn bench_code_lengths(c: &mut Criterion) {
    let mut group = c.benchmark_group("huffman_code_lengths");
    group.sample_size(10);
    for spread in [40.0, 8000.0] {
        let freqs = sz_frequencies(PROBE_CAP, spread);
        let used = freqs.iter().filter(|&&f| f > 0).count();
        group.throughput(Throughput::Elements(used as u64));
        group.bench_with_input(
            BenchmarkId::new("sz_alphabet_65536", format!("{used}_used")),
            &freqs,
            |b, f| b.iter(|| build_code_lengths(black_box(f), 24)),
        );
    }
    group.finish();
}

/// The probe's sample: the 64 Ki-value prefix of CLDHGH Small, and the
/// full field's value range the probes scale their bounds by.
fn probe_prefix() -> (Vec<f32>, f64) {
    let ds = Dataset::generate(DatasetKind::Cldhgh, Scale::Small, 2);
    let (_, range) = value_extent(&ds.data);
    (ds.data[..ds.data.len().min(PROBE_CAP)].to_vec(), range)
}

fn bench_sz_probe(c: &mut Criterion) {
    let (prefix, range) = probe_prefix();
    let mut group = c.benchmark_group("sz_probe_compress");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(prefix.len() as u64 * 4));
    for (name, rel) in [("1e-7_range", 1e-7), ("1e-3_range", 1e-3)] {
        let cfg = SzConfig::with_error_bound(rel * range);
        group.bench_function(name, |b| {
            b.iter(|| dpz_sz::compress_reconstructed(black_box(&prefix), &[prefix.len()], &cfg));
        });
    }
    group.finish();
}

fn bench_zfp_probe(c: &mut Criterion) {
    let (prefix, range) = probe_prefix();
    // The mode a PSNR-60 request resolves to.
    let mode = ZfpMode::FixedAccuracy(dpz_core::bound_for_psnr(60.0, range));
    let packed = dpz_zfp::compress(&prefix, &[prefix.len()], mode);
    let mut group = c.benchmark_group("zfp_probe_decode");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(prefix.len() as u64 * 4));
    group.bench_function("1d_accuracy_psnr60", |b| {
        b.iter(|| dpz_zfp::decompress(black_box(&packed)).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_code_lengths, bench_sz_probe, bench_zfp_probe);
criterion_main!(benches);
