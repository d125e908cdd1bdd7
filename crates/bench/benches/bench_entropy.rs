//! Microbenchmark: the entropy stage primitives behind the lossless
//! backends — Huffman decode (bit-by-bit tree walk vs the table decoder, on
//! a byte alphabet and on SZ's 64 Ki quantizer alphabet), inflate of a
//! strict index section and of an 8 MiB multi-member section, the tANS
//! coder, and the LZ77 match-length kernel (portable scalar vs the
//! runtime-dispatched SIMD arm).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dpz_core::DpzConfig;
use dpz_data::{Dataset, DatasetKind, Scale};
use dpz_deflate::bitio::{BitReader, BitWriter};
use dpz_deflate::huffman::{build_code_lengths, Decoder, Encoder, LutDecoder};
use dpz_deflate::tans;
use std::hint::black_box;

/// Quantizer-index-like bytes: concentrated histogram, the payload shape
/// both entropy coders see in practice.
fn index_plane(n: usize) -> Vec<u8> {
    let mut s = 99u64;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let g = ((s >> 40) as u8 as i32 - 128) / 24;
            (128 + g) as u8
        })
        .collect()
}

/// A literal-only Huffman stream over `data`'s byte alphabet, plus the code
/// lengths needed to rebuild either decoder.
fn huffman_stream(data: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let mut freqs = [0u64; 256];
    for &b in data {
        freqs[b as usize] += 1;
    }
    let lengths = build_code_lengths(&freqs, 15);
    let enc = Encoder::from_lengths(&lengths);
    let mut w = BitWriter::new();
    for &b in data {
        enc.write(&mut w, b as usize);
    }
    (w.finish(), lengths)
}

fn bench_huffman_decode(c: &mut Criterion) {
    let n = 256 * 1024;
    let data = index_plane(n);
    let (bits, lengths) = huffman_stream(&data);

    let mut group = c.benchmark_group("huffman_decode");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(n as u64));
    group.bench_function("single_symbol", |b| {
        let dec = Decoder::from_lengths(&lengths).unwrap();
        b.iter(|| {
            let mut r = BitReader::new(black_box(&bits));
            let mut sum = 0u64;
            for _ in 0..n {
                sum += u64::from(dec.read(&mut r).unwrap());
            }
            sum
        });
    });
    group.bench_function("multi_symbol_lut", |b| {
        let lut = LutDecoder::from_lengths(&lengths, true).unwrap();
        b.iter(|| {
            let mut r = BitReader::new(black_box(&bits));
            let mut sum = 0u64;
            let mut decoded = 0usize;
            while decoded < n {
                let e = lut.read_entry(&mut r).unwrap();
                sum += u64::from(e.symbol());
                decoded += 1;
                if decoded < n {
                    if let Some(second) = e.second_literal() {
                        sum += u64::from(second);
                        decoded += 1;
                    }
                }
            }
            sum
        });
    });
    group.finish();
}

/// An SZ-shaped symbol stream: quantizer codes of a 64 Ki alphabet spread
/// around the zero-residual code `1 << 15` (two-sided geometric, mean
/// |offset| ~ 40 bins), coded as SZ codes them, at up to 24 bits.
fn sz_symbol_stream(n: usize) -> (Vec<u8>, Vec<u8>) {
    let mut s = 77u64;
    let symbols: Vec<usize> = (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let u = ((s >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            let off = (-40.0 * u.ln()) as usize;
            if s & 1 == 0 {
                (1 << 15) + off.min((1 << 15) - 1)
            } else {
                (1 << 15) - off.min((1 << 15) - 1)
            }
        })
        .collect();
    let mut freqs = vec![0u64; 1 << 16];
    for &sym in &symbols {
        freqs[sym] += 1;
    }
    let lengths = build_code_lengths(&freqs, 24);
    let enc = Encoder::from_lengths(&lengths);
    let mut w = BitWriter::new();
    for &sym in &symbols {
        enc.write(&mut w, sym);
    }
    (w.finish(), lengths)
}

fn bench_sz_alphabet_decode(c: &mut Criterion) {
    let n = 256 * 1024;
    let (bits, lengths) = sz_symbol_stream(n);

    let mut group = c.benchmark_group("sz_symbol_decode");
    group.sample_size(10);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("walk", |b| {
        let dec = Decoder::from_lengths(&lengths).unwrap();
        b.iter(|| {
            let mut r = BitReader::new(black_box(&bits));
            (0..n)
                .map(|_| u64::from(dec.read(&mut r).unwrap()))
                .sum::<u64>()
        });
    });
    group.bench_function("lut", |b| {
        b.iter(|| {
            // Table build included: SZ builds one per decode.
            let lut = LutDecoder::from_lengths(black_box(&lengths), false).unwrap();
            let mut r = BitReader::new(black_box(&bits));
            (0..n)
                .map(|_| u64::from(lut.read(&mut r).unwrap()))
                .sum::<u64>()
        });
    });
    group.finish();
}

fn bench_inflate_index_section(c: &mut Criterion) {
    // The largest section of the strict Small suite: HACC-vx's 131 072-byte
    // 2-byte index plane, packed the way the container packs it.
    let ds = Dataset::generate(DatasetKind::HaccVx, Scale::Small, 2);
    let artifact = dpz_core::compress(&ds.data, &ds.dims, &DpzConfig::strict()).unwrap();
    let raw = dpz_core::container::deserialize(&artifact.bytes)
        .unwrap()
        .scores
        .indices;
    let packed = dpz_deflate::compress_parallel(&raw, dpz_deflate::CompressionLevel::Default);

    let mut group = c.benchmark_group("inflate_index_section");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(raw.len() as u64));
    group.bench_function("hacc_vx_strict", |b| {
        b.iter(|| dpz_deflate::decompress_bounded(black_box(&packed), raw.len()).unwrap());
    });
    // A paper-scale section: 8 MiB of index-plane bytes, 64 members.
    let raw = index_plane(64 * 128 * 1024);
    let packed = dpz_deflate::compress_parallel(&raw, dpz_deflate::CompressionLevel::Default);
    group.throughput(Throughput::Bytes(raw.len() as u64));
    group.bench_function("multi_member_8mib", |b| {
        b.iter(|| dpz_deflate::decompress_bounded(black_box(&packed), raw.len()).unwrap());
    });
    group.bench_function("multi_member_8mib_unbounded", |b| {
        b.iter(|| dpz_deflate::decompress(black_box(&packed)).unwrap());
    });
    group.finish();
}

fn bench_tans(c: &mut Criterion) {
    let n = 256 * 1024;
    let data = index_plane(n);
    let packed = tans::compress(&data);

    let mut group = c.benchmark_group("tans");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(n as u64));
    group.bench_function("encode", |b| {
        b.iter(|| tans::compress(black_box(&data)));
    });
    group.bench_function("decode", |b| {
        b.iter(|| tans::decompress_bounded(black_box(&packed), n).unwrap());
    });
    group.finish();
}

fn bench_match_len(c: &mut Criterion) {
    // Buffer pairs that diverge after a spread of prefix lengths, visited
    // round-robin so the branch predictor can't memorize one exit point.
    let limit = 258usize;
    let base: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    let cases: Vec<(Vec<u8>, Vec<u8>)> = [3usize, 9, 31, 64, 130, 258]
        .iter()
        .map(|&k| {
            let mut b = base.clone();
            b[k] ^= 0x5A;
            (base.clone(), b)
        })
        .collect();
    let total: usize = [3usize, 9, 31, 64, 130, 258].iter().sum();

    let mut group = c.benchmark_group("lz77_match_len");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(total as u64));
    for (name, f) in [
        (
            "scalar",
            dpz_kernels::matchlen::match_len_scalar as fn(&[u8], &[u8], usize) -> usize,
        ),
        (
            "simd_dispatch",
            dpz_kernels::matchlen::match_len as fn(&[u8], &[u8], usize) -> usize,
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cases, |b, cases| {
            b.iter(|| {
                let mut sum = 0usize;
                for (x, y) in cases {
                    sum += f(black_box(x), black_box(y), limit);
                }
                sum
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_huffman_decode,
    bench_sz_alphabet_decode,
    bench_inflate_index_section,
    bench_tans,
    bench_match_len
);
criterion_main!(benches);
