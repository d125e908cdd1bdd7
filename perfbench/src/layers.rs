//! Per-layer measurement from outside the crates: a DPZ1 compress and
//! decode composed from the workspace's public functions (each wrapped in a
//! benchmark span), kernel rates on the pipeline's own data, and hardware
//! references.
//!
//! The composition mirrors `PipelinePlan::execute` and
//! `dpz_core::decompress` for the DCT transform without sampling (the
//! configurations every workload uses). Its outputs are compared bitwise
//! against the black-box calls, so a drift in the pipeline shows up as a
//! failed traced run rather than as numbers for work the pipeline no longer
//! does.

use crate::spans::Spans;
use dpz_core::config::{KSelection, Stage1Transform, Standardize};
use dpz_core::container::{self, ContainerData, SectionSizes};
use dpz_core::decompose::{self, BlockShape};
use dpz_core::kpca::select_k;
use dpz_core::quantize::{dequantize_scores, quantize_scores};
use dpz_core::{DpzConfig, DpzError};
use dpz_linalg::{Matrix, Pca, PcaOptions, RangeFinderOptions};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The range-finder settings the pipeline's stage 2 uses (oversample 8, one
/// power pass, the fixed probe seed).
const PIPELINE_RF: RangeFinderOptions = RangeFinderOptions {
    oversample: 8,
    power_iters: 1,
    seed: 0x5EED_0D12_F00D_CAFE,
};
/// Below this block count stage 2 uses the exact solver.
const RANDOMIZED_MIN_M: usize = 64;

/// What one composed compression produced and decided.
pub struct Composed {
    pub bytes: Vec<u8>,
    pub k: usize,
    pub tve: f64,
    /// Sketch width the randomized fitter converged with (0 on the exact
    /// route).
    pub sketch_cols: usize,
    pub shape: BlockShape,
    pub outliers: usize,
    pub scores: usize,
    pub sections: SectionSizes,
    /// Stage-1 coefficients (`n × m`), kept for the GEMM rate.
    pub coeffs: Matrix,
    /// Quantized index bytes, the largest raw section.
    pub indices: Vec<u8>,
}

fn value_extent(data: &[f32]) -> (f64, f64) {
    let (lo, hi) = data
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(f64::from(v)), hi.max(f64::from(v)))
        });
    let range = hi - lo;
    (lo, if range > 0.0 { range } else { 1.0 })
}

/// DPZ1 compress composed from public calls: `dct_blocks_from_raw`, the
/// `Pca::fit_*` entry stage 2 routes to, `select_k`, `quantize_scores`, and
/// `container::serialize_with_backend` (the body of
/// `PipelinePlan::encode`).
pub fn compress(
    spans: &mut Spans,
    op: u64,
    data: &[f32],
    dims: &[usize],
    cfg: &DpzConfig,
) -> Result<Composed, DpzError> {
    if cfg.sampling || cfg.transform != Stage1Transform::Dct {
        return Err(DpzError::InvalidConfig(
            "composed pipeline covers the DCT route without sampling".into(),
        ));
    }
    let KSelection::Tve(tve) = cfg.selection else {
        return Err(DpzError::InvalidConfig(
            "composed pipeline covers TVE selection".into(),
        ));
    };
    let scheme = cfg.resolved_scheme()?;
    let shape = decompose::choose_shape(data.len());

    let (norm_min, norm_range, coeffs) = spans.time("decompose.dct", op, || {
        let (lo, range) = value_extent(data);
        let (coeffs, _scratch) = decompose::dct_blocks_from_raw(data, shape, lo, range, Vec::new());
        (lo, range, coeffs)
    });

    let opts = PcaOptions {
        standardize: cfg.standardize == Standardize::On,
    };
    let (pca, sketch_scores, sketch_cols) = spans.time("pca.fit", op, || {
        if shape.m >= RANDOMIZED_MIN_M {
            let k0 = (shape.m / 8).max(8);
            Pca::fit_tve_randomized(&coeffs, opts, tve, k0, &PIPELINE_RF, None)
                .map(|f| (f.pca, f.scores, f.basis.rank()))
        } else {
            Pca::fit_tve_exact(&coeffs, opts, tve).map(|p| (p, None, 0))
        }
    })?;

    let (choice, scores) = spans.time("pca.scores", op, || {
        let choice = select_k(&pca, cfg.selection);
        let scores = match sketch_scores {
            Some(s) if s.cols() == choice.k => Ok(s),
            Some(s) if s.cols() > choice.k => Ok(s.leading_cols(choice.k)),
            _ => pca.transform(&coeffs, choice.k),
        };
        (choice, scores)
    });
    let scores = scores?;

    let quantized = spans.time("quantize", op, || {
        quantize_scores(scores.as_slice(), scheme)
    });
    let outliers = quantized.outliers.len();
    let n_scores = quantized.len;
    let indices = quantized.indices.clone();

    let payload = spans.time("model.assemble", op, || {
        let k = choice.k;
        let f32s = |v: &[f64]| v.iter().map(|&x| x as f32).collect::<Vec<f32>>();
        ContainerData {
            dims: dims.to_vec(),
            orig_len: data.len(),
            m: shape.m,
            n: shape.n,
            pad: shape.pad,
            norm_min,
            norm_range,
            k,
            transform_tag: 0,
            dwt_levels: 0,
            p: quantized.p,
            standardized: opts.standardize,
            basis: f32s(pca.projection(k).as_slice()),
            mean: f32s(pca.mean()),
            scale: pca.feature_scale().map(f32s).unwrap_or_default(),
            scores: quantized,
        }
    });
    let (bytes, sections) = spans.time("lossless.encode", op, || {
        container::serialize_with_backend(&payload, cfg.lossless)
    });
    Ok(Composed {
        bytes,
        k: choice.k,
        tve: choice.tve_achieved,
        sketch_cols,
        shape,
        outliers,
        scores: n_scores,
        sections,
        coeffs,
        indices,
    })
}

/// DPZ1 decode composed from public calls: `deserialize_with_info` →
/// `dequantize_scores` → `Matrix::matmul` (scores × basisᵀ) → mean/scale →
/// `idct_blocks_to_raw`.
pub fn decompress(
    spans: &mut Spans,
    op: u64,
    bytes: &[u8],
) -> Result<(Vec<f32>, Vec<usize>), DpzError> {
    let (payload, _info) = spans.time("lossless.decode", op, || {
        container::deserialize_with_info(bytes)
    })?;
    if payload.transform_tag != 0 {
        return Err(DpzError::InvalidConfig(
            "composed decode covers the DCT route".into(),
        ));
    }
    let (m, n, k) = (payload.m, payload.n, payload.k);
    let scores = spans.time("dequantize", op, || dequantize_scores(&payload.scores));
    let (scores, basis_t) = spans.time("reconstruct.prep", op, || {
        let scores = Matrix::from_vec(n, k, scores)?;
        let basis = Matrix::from_vec(m, k, payload.basis.iter().map(|&v| f64::from(v)).collect())?;
        Ok::<_, DpzError>((scores, basis.transpose()))
    })?;
    let mut coeffs = spans.time("reconstruct.gemm", op, || scores.matmul(&basis_t))?;
    spans.time("reconstruct.mean", op, || {
        for r in 0..n {
            let row = coeffs.row_mut(r);
            if payload.standardized {
                for (v, &s) in row.iter_mut().zip(&payload.scale) {
                    *v *= f64::from(s);
                }
            }
            for (v, &mu) in row.iter_mut().zip(&payload.mean) {
                *v += f64::from(mu);
            }
        }
    });
    let shape = BlockShape {
        m,
        n,
        pad: payload.pad,
    };
    let values = spans.time("decompose.idct", op, || {
        decompose::idct_blocks_to_raw(
            &coeffs,
            shape,
            payload.norm_min,
            payload.norm_range,
            payload.orig_len,
        )
    });
    Ok((values, payload.dims))
}

/// Run `f` repeatedly for at least `min` (and at least three times) and
/// return the median seconds per call over five equal batches.
pub fn seconds_per_call(min: Duration, mut f: impl FnMut()) -> f64 {
    // Calibrate a batch size from one call.
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-9);
    let per_batch = ((min.as_secs_f64() / 5.0 / one).ceil() as usize).max(1);
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[2]
}

const KERNEL_TIME: Duration = Duration::from_millis(40);

/// Kernel rates on one composed compression's own data.
pub struct KernelRates {
    pub deflate_mb_s: f64,
    pub inflate_mb_s: f64,
    pub crc32_gb_s: f64,
    pub gemm_gflop_s: f64,
    /// Operations per byte of the timed GEMM, computed from its shape
    /// (2·n·m·s flops over 8·(n·m + m·s + n·s) bytes).
    pub gemm_flop_per_byte: f64,
}

/// DEFLATE/inflate/CRC-32 over the index section's raw bytes, and
/// `Matrix::matmul_thin` at the fitter's sketch shape (`n × m` coefficients
/// times an `m × s` basis, `s` = the converged sketch width, or k + 8 on
/// the exact route).
pub fn kernel_rates(c: &Composed) -> KernelRates {
    let raw = &c.indices;
    let level = dpz_deflate::CompressionLevel::Default;
    let packed = dpz_deflate::compress_parallel(raw, level);
    let deflate_s = seconds_per_call(KERNEL_TIME, || {
        black_box(dpz_deflate::compress_parallel(black_box(raw), level));
    });
    let inflate_s = seconds_per_call(KERNEL_TIME, || {
        black_box(
            dpz_deflate::decompress_bounded(black_box(&packed), raw.len())
                .expect("own stream inflates"),
        );
    });
    let crc_s = seconds_per_call(KERNEL_TIME, || {
        black_box(dpz_deflate::crc32(black_box(raw)));
    });
    let (n, m) = c.coeffs.shape();
    let s = if c.sketch_cols > 0 {
        c.sketch_cols
    } else {
        (c.k + 8).min(m)
    };
    let basis = Matrix::from_vec(
        m,
        s,
        (0..m * s)
            .map(|i| ((i * 7919) % 1000) as f64 / 1000.0 - 0.5)
            .collect(),
    )
    .expect("shape matches length");
    let gemm_s = seconds_per_call(KERNEL_TIME, || {
        black_box(
            c.coeffs
                .matmul_thin(black_box(&basis))
                .expect("shapes agree"),
        );
    });
    let flops = 2.0 * (n * m * s) as f64;
    let bytes = 8.0 * (n * m + m * s + n * s) as f64;
    KernelRates {
        deflate_mb_s: raw.len() as f64 / 1e6 / deflate_s,
        inflate_mb_s: raw.len() as f64 / 1e6 / inflate_s,
        crc32_gb_s: raw.len() as f64 / 1e9 / crc_s,
        gemm_gflop_s: flops / 1e9 / gemm_s,
        gemm_flop_per_byte: flops / bytes,
    }
}

/// Hardware references, taken in traced runs only.
pub struct References {
    pub memcpy_gb_s: f64,
    /// Working set of the copy (source + destination), bytes.
    pub memcpy_bytes: usize,
    /// Last-level cache size the working set was sized against, bytes.
    pub llc_bytes: usize,
    pub fma_gflop_s: f64,
    pub sz_canary_ms: f64,
}

/// Last-level cache size from sysfs (the highest cache index of CPU 0).
fn llc_bytes() -> usize {
    let mut best = 0;
    for idx in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}/size");
        let Ok(s) = std::fs::read_to_string(path) else {
            continue;
        };
        let s = s.trim();
        let (num, mult) = match s.chars().last() {
            Some('K') => (&s[..s.len() - 1], 1 << 10),
            Some('M') => (&s[..s.len() - 1], 1 << 20),
            _ => (s, 1),
        };
        if let Ok(v) = num.parse::<usize>() {
            best = best.max(v * mult);
        }
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// Copy bandwidth over a working set of four times the last-level cache
/// (two arrays of twice its size), as bytes copied per second; the median
/// of five copies after one warm pass that also faults the pages in.
fn memcpy_gb_s() -> (f64, usize, usize) {
    let llc = llc_bytes();
    let half = 2 * llc;
    let src = vec![1u8; half];
    let mut dst = vec![0u8; half];
    dst.copy_from_slice(&src);
    let mut rates: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            half as f64 / 1e9 / t.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    (rates[2], 2 * half, llc)
}

/// Cache-resident multiply-add peak of one core: eight independent
/// accumulator chains over a 4 KiB operand set.
fn fma_gflop_s() -> f64 {
    const ITERS: usize = 2_000_000;
    let a = black_box([1.000_000_1f64; 4]);
    let b = black_box([0.999_999_9f64; 4]);
    let mut acc = [[0.5f64; 4]; 8];
    let run = |acc: &mut [[f64; 4]; 8]| fma_chains(acc, &a, &b, ITERS);
    run(&mut acc);
    let s = seconds_per_call(Duration::from_millis(100), || run(&mut acc));
    black_box(acc);
    // Eight chains of four lanes, two flops per lane per iteration.
    (ITERS * 8 * 4 * 2) as f64 / 1e9 / s
}

fn fma_chains(acc: &mut [[f64; 4]; 8], a: &[f64; 4], b: &[f64; 4], iters: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: the CPU reports AVX2 and FMA, the only features
            // `fma_chains_avx2` is compiled for.
            unsafe { fma_chains_avx2(acc, a, b, iters) };
            return;
        }
    }
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            for l in 0..4 {
                chain[l] = chain[l] * a[l] + b[l];
            }
        }
    }
}

/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_chains_avx2(acc: &mut [[f64; 4]; 8], a: &[f64; 4], b: &[f64; 4], iters: usize) {
    use std::arch::x86_64::{__m256d, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_storeu_pd};
    // SAFETY: every pointer comes from a `[f64; 4]`, which is exactly the
    // 32 bytes an unaligned 256-bit load or store touches.
    unsafe {
        let va = _mm256_loadu_pd(a.as_ptr());
        let vb = _mm256_loadu_pd(b.as_ptr());
        let mut r: [__m256d; 8] = [_mm256_loadu_pd(acc[0].as_ptr()); 8];
        for (ri, chain) in r.iter_mut().zip(acc.iter()) {
            *ri = _mm256_loadu_pd(chain.as_ptr());
        }
        for _ in 0..iters {
            for ri in r.iter_mut() {
                *ri = _mm256_fmadd_pd(*ri, va, vb);
            }
        }
        for (ri, chain) in r.iter().zip(acc.iter_mut()) {
            _mm256_storeu_pd(chain.as_mut_ptr(), *ri);
        }
    }
}

/// SZ compress of CLDHGH Small at a 1e-4 relative bound: the canary the
/// repository's perf gate normalizes by.
fn sz_canary_ms(seed: u64) -> f64 {
    let ds =
        dpz_data::Dataset::generate(dpz_data::DatasetKind::Cldhgh, dpz_data::Scale::Small, seed);
    let cfg = dpz_sz::SzConfig::with_error_bound(1e-4 * dpz_data::metrics::value_range(&ds.data));
    1e3 * seconds_per_call(Duration::from_millis(200), || {
        black_box(dpz_sz::compress(black_box(&ds.data), &ds.dims, &cfg));
    })
}

pub fn references(seed: u64) -> References {
    let (memcpy_gb_s, memcpy_bytes, llc_bytes) = memcpy_gb_s();
    References {
        memcpy_gb_s,
        memcpy_bytes,
        llc_bytes,
        fma_gflop_s: fma_gflop_s(),
        sz_canary_ms: sz_canary_ms(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpz_data::{Dataset, DatasetKind, Scale};

    /// The composed pipeline reproduces the black-box artifact and decode
    /// bitwise, and the isolated fit reproduces `CompressionStats.k`.
    #[test]
    fn composed_pipeline_matches_black_box() {
        for (kind, cfg) in [
            (DatasetKind::Cldhgh, DpzConfig::loose()),
            (DatasetKind::HaccVx, DpzConfig::strict()),
            (DatasetKind::Isotropic, DpzConfig::strict()),
        ] {
            let ds = Dataset::generate(kind, Scale::Tiny, 3);
            let reference = dpz_core::compress(&ds.data, &ds.dims, &cfg).expect("compresses");
            let mut spans = Spans::new(true);
            let c = compress(&mut spans, 0, &ds.data, &ds.dims, &cfg).expect("composes");
            assert_eq!(c.k, reference.stats.k, "{kind:?}");
            assert_eq!(c.bytes, reference.bytes, "{kind:?}");
            let (v_ref, d_ref) = dpz_core::decompress(&reference.bytes).expect("decodes");
            let (v, d) = decompress(&mut spans, 1, &reference.bytes).expect("composes");
            assert_eq!(d, d_ref);
            assert_eq!(crate::stats::fnv1a_f32(&v), crate::stats::fnv1a_f32(&v_ref));
            let names: Vec<&str> = spans.spans().iter().map(|s| s.name).collect();
            for want in [
                "decompose.dct",
                "pca.fit",
                "quantize",
                "lossless.encode",
                "reconstruct.gemm",
                "decompose.idct",
            ] {
                assert!(names.contains(&want), "{want} missing");
            }
        }
    }
}
