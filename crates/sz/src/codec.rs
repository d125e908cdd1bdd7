//! SZ container: predict → quantize → Huffman-code, with DEFLATE-packed
//! side channels (code-length table, outliers, and — in `Auto` predictor
//! mode — per-block selectors and regression coefficients).
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "SZR1" | ndims u8 | dims u64×ndims | eb f64 | radius u32
//! | predictor u8
//! | [predictor == 1]: deflated selectors (u64 count, u64 len + bytes)
//!                     deflated coefficients (u64 count, u64 len + bytes)
//! | deflated code-length table (u64 len + bytes)
//! | Huffman bitstream (u64 len + bytes)   — one symbol per value
//! | deflated outliers (u64 count, u64 len + bytes) — f32 LE in scan order
//! ```
//!
//! `predictor == 0` quantizes in flat raster order with Lorenzo prediction;
//! `predictor == 1` (SZ 2.0's hybrid) walks 8^d blocks in raster order,
//! choosing per block between Lorenzo and a least-squares hyperplane.
//! Block raster order keeps every Lorenzo neighbor causal, so the two
//! predictors interleave safely.

use crate::lorenzo::Grid;
use crate::quantizer::{Quantized, Quantizer};
use crate::regression::{
    block_side, fit_plane, lorenzo_mae_estimate, plane_mae, PlaneFit, SELECTION_MARGIN,
};
use crate::{Predictor, SzConfig, SzError};
use dpz_deflate::bitio::{BitReader, BitWriter};
use dpz_deflate::huffman::{build_code_lengths, Encoder, LutDecoder};
use dpz_deflate::{compress_with_level, decompress_bounded, CompressionLevel};

const MAGIC: &[u8; 4] = b"SZR1";
/// Largest radius keeping symbols within the `u16` decoder alphabet.
const MAX_RADIUS: u32 = 1 << 15;

/// Outcome of the prediction pass.
struct Predicted {
    /// One quantizer symbol per value, in the coder's traversal order.
    symbols: Vec<u32>,
    /// Escaped values, in the same traversal order.
    outliers: Vec<f32>,
    /// Per-block predictor choice (Auto mode only): 1 = regression.
    selectors: Vec<u8>,
    /// Plane coefficients for regression blocks, 4 per selected block.
    coefficients: Vec<f32>,
    /// The value the decoder reconstructs at each position: `f64::from` of
    /// the stored `f32`, or the outlier itself.
    reconstruction: Vec<f64>,
}

/// Quantize `value` against `pred`: its symbol (0 when it escapes, and the
/// value joins `outliers`) and the decoder's reconstruction.
#[inline(always)]
fn code_value(q: &Quantizer, value: f32, pred: f64, outliers: &mut Vec<f32>) -> (u32, f64) {
    match q.quantize(f64::from(value), pred) {
        (Quantized::Code(sym), r) => (sym, r),
        (Quantized::Outlier, r) => {
            outliers.push(value);
            (0, r)
        }
    }
}

/// Normalize dims to exactly three extents (leading 1s for lower dims).
fn extents3(dims: &[usize]) -> [usize; 3] {
    match dims.len() {
        1 => [1, 1, dims[0]],
        2 => [1, dims[0], dims[1]],
        _ => [dims[0], dims[1], dims[2]],
    }
}

/// Flat index for global coordinates under `extents3` layout.
#[inline]
fn flat(e: &[usize; 3], i: usize, j: usize, k: usize) -> usize {
    (i * e[1] + j) * e[2] + k
}

/// Flat Lorenzo pass over the whole array (predictor byte 0).
fn predict_lorenzo(data: &[f32], grid: &Grid, q: &Quantizer) -> Predicted {
    let n = data.len();
    let mut recon = vec![0.0f64; n];
    let mut symbols = vec![0u32; n];
    let mut outliers = Vec::new();
    if grid.dims().len() == 1 {
        // 1-D Lorenzo predicts each value by the previous reconstruction
        // (0 for the first), so carry it in a register: the hot path
        // stores by index and calls nothing that could spill it.
        let mut prev = 0.0;
        for ((r, sym), &v) in recon.iter_mut().zip(symbols.iter_mut()).zip(data) {
            (*sym, prev) = code_value(q, v, prev, &mut outliers);
            *r = prev;
        }
    } else {
        for (idx, (sym, &v)) in symbols.iter_mut().zip(data).enumerate() {
            let pred = grid.predict(&recon, idx);
            (*sym, recon[idx]) = code_value(q, v, pred, &mut outliers);
        }
    }
    Predicted {
        symbols,
        outliers,
        selectors: Vec::new(),
        coefficients: Vec::new(),
        reconstruction: recon,
    }
}

/// Hybrid block pass (predictor byte 1). The decoder must replay the exact
/// same traversal, so the iteration here is the format.
fn predict_blockwise(data: &[f32], dims: &[usize], grid: &Grid, q: &Quantizer) -> Predicted {
    let e = extents3(dims);
    let n = data.len();
    let mut recon = vec![0.0f64; n];
    let mut symbols = Vec::with_capacity(n);
    let mut outliers = Vec::new();
    let mut selectors = Vec::new();
    let mut coefficients = Vec::new();
    let side = block_side(dims.len());
    let mut block = Vec::with_capacity(side * side.min(e[1]) * side.min(e[0]));

    for bi in (0..e[0]).step_by(side) {
        for bj in (0..e[1]).step_by(side) {
            for bk in (0..e[2]).step_by(side) {
                let li = side.min(e[0] - bi);
                let lj = side.min(e[1] - bj);
                let lk = side.min(e[2] - bk);
                // Gather the original block values.
                block.clear();
                for i in 0..li {
                    for j in 0..lj {
                        for k in 0..lk {
                            block.push(f64::from(data[flat(&e, bi + i, bj + j, bk + k)]));
                        }
                    }
                }
                // Predictor selection on original data (SZ 2.0 rule).
                let fit = fit_plane(&block, li, lj, lk);
                let use_regression = plane_mae(&block, li, lj, lk, &fit)
                    < SELECTION_MARGIN * lorenzo_mae_estimate(&block, li, lj, lk);
                selectors.push(u8::from(use_regression));
                if use_regression {
                    coefficients.extend_from_slice(&[fit.b0, fit.b1, fit.b2, fit.b3]);
                }
                // Quantize the block in local raster order.
                for i in 0..li {
                    for j in 0..lj {
                        for k in 0..lk {
                            let idx = flat(&e, bi + i, bj + j, bk + k);
                            let pred = if use_regression {
                                fit.predict(i, j, k)
                            } else {
                                grid.predict(&recon, idx)
                            };
                            let (sym, r) = code_value(q, data[idx], pred, &mut outliers);
                            symbols.push(sym);
                            recon[idx] = r;
                        }
                    }
                }
            }
        }
    }
    Predicted {
        symbols,
        outliers,
        selectors,
        coefficients,
        reconstruction: recon,
    }
}

/// Compress `data` with shape `dims` under `cfg`.
///
/// Guarantees `|data[i] − decompress(...)[i]| ≤ cfg.error_bound` for every
/// element, with either predictor.
pub fn compress(data: &[f32], dims: &[usize], cfg: &SzConfig) -> Vec<u8> {
    compress_reconstructed(data, dims, cfg).0
}

/// [`compress`], also returning the values [`decompress`] will reconstruct
/// from the stream, widened to `f64`. The encoder predicts from exactly
/// these values, so they come out of the same pass, bit for bit what a
/// decode would return and at no decode's cost.
pub fn compress_reconstructed(data: &[f32], dims: &[usize], cfg: &SzConfig) -> (Vec<u8>, Vec<f64>) {
    let _span = dpz_telemetry::span!("sz.compress");
    let grid = Grid::new(dims);
    assert_eq!(grid.len(), data.len(), "dims do not match data length");
    assert!(
        cfg.quant_radius <= MAX_RADIUS,
        "radius too large for u16 alphabet"
    );
    let q = Quantizer::new(cfg.error_bound, cfg.quant_radius);

    let predicted = match cfg.predictor {
        Predictor::Lorenzo => predict_lorenzo(data, &grid, &q),
        Predictor::Auto => predict_blockwise(data, dims, &grid, &q),
    };

    // Entropy-code the symbol stream.
    let alphabet = q.alphabet_size();
    let mut freqs = vec![0u64; alphabet];
    for &s in &predicted.symbols {
        freqs[s as usize] += 1;
    }
    // 24-bit depth limit: unlike DEFLATE's 15-bit format constraint, the SZ
    // symbol stream is free-form, and the 2·radius = 65536-symbol alphabet
    // cannot even fit in 15 bits when more than 2^15 symbols occur.
    let lengths = build_code_lengths(&freqs, 24);
    let encoder = Encoder::from_lengths(&lengths);
    let mut bits = BitWriter::new();
    for &s in &predicted.symbols {
        encoder.write(&mut bits, s as usize);
    }
    let bitstream = bits.finish();

    let packed_lengths = compress_with_level(&lengths, CompressionLevel::Default);
    let outlier_bytes: Vec<u8> = predicted
        .outliers
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let packed_outliers = compress_with_level(&outlier_bytes, CompressionLevel::Default);

    // Assemble the container.
    let mut out = Vec::with_capacity(bitstream.len() + packed_lengths.len() + 64);
    out.extend_from_slice(MAGIC);
    out.push(dims.len() as u8);
    for &d in dims {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    out.extend_from_slice(&cfg.error_bound.to_le_bytes());
    out.extend_from_slice(&cfg.quant_radius.to_le_bytes());
    out.push(match cfg.predictor {
        Predictor::Lorenzo => 0,
        Predictor::Auto => 1,
    });
    if cfg.predictor == Predictor::Auto {
        let packed_sel = compress_with_level(&predicted.selectors, CompressionLevel::Default);
        out.extend_from_slice(&(predicted.selectors.len() as u64).to_le_bytes());
        out.extend_from_slice(&(packed_sel.len() as u64).to_le_bytes());
        out.extend_from_slice(&packed_sel);
        let coef_bytes: Vec<u8> = predicted
            .coefficients
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let packed_coef = compress_with_level(&coef_bytes, CompressionLevel::Default);
        out.extend_from_slice(&(predicted.coefficients.len() as u64).to_le_bytes());
        out.extend_from_slice(&(packed_coef.len() as u64).to_le_bytes());
        out.extend_from_slice(&packed_coef);
    }
    out.extend_from_slice(&(packed_lengths.len() as u64).to_le_bytes());
    out.extend_from_slice(&packed_lengths);
    out.extend_from_slice(&(bitstream.len() as u64).to_le_bytes());
    out.extend_from_slice(&bitstream);
    out.extend_from_slice(&(predicted.outliers.len() as u64).to_le_bytes());
    out.extend_from_slice(&(packed_outliers.len() as u64).to_le_bytes());
    out.extend_from_slice(&packed_outliers);

    let reg = dpz_telemetry::global();
    let labels = [("codec", "sz"), ("op", "compress")];
    reg.counter_with("dpz_bytes_in_total", &labels)
        .add(data.len() as u64 * 4);
    reg.counter_with("dpz_bytes_out_total", &labels)
        .add(out.len() as u64);
    reg.counter_with("dpz_outliers_total", &[("codec", "sz")])
        .add(predicted.outliers.len() as u64);
    (out, predicted.reconstruction)
}

/// Cursor helpers for the flat container format.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SzError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SzError::Corrupt("truncated stream"))?;
        if end > self.buf.len() {
            return Err(SzError::Corrupt("truncated stream"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SzError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SzError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SzError> {
        let b = self.take(8)?;
        let v = u64::from_le_bytes(b.try_into().unwrap());
        // Reject sizes beyond the address space up front so later `as usize`
        // casts can never truncate.
        if usize::try_from(v).is_err() {
            return Err(SzError::Corrupt("size overflows usize"));
        }
        Ok(v)
    }

    fn f64(&mut self) -> Result<f64, SzError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().unwrap()))
    }
}

/// Shared decode state: pulls the next symbol and resolves it to a value.
struct SymbolReader<'a> {
    decoder: LutDecoder,
    bits: BitReader<'a>,
    outliers: std::vec::IntoIter<f32>,
    q: Quantizer,
}

impl SymbolReader<'_> {
    /// Decode the next value given its prediction.
    fn next_value(&mut self, pred: f64) -> Result<f64, SzError> {
        let sym = self.decoder.read(&mut self.bits)? as u32;
        if sym == 0 {
            let v = self
                .outliers
                .next()
                .ok_or(SzError::Corrupt("missing outlier value"))?;
            Ok(f64::from(v))
        } else {
            Ok(self.q.reconstruct(sym, pred))
        }
    }
}

/// Decompress an SZ stream, returning the values and their dimensions.
pub fn decompress(bytes: &[u8]) -> Result<(Vec<f32>, Vec<usize>), SzError> {
    let _span = dpz_telemetry::span!("sz.decompress");
    let result = decompress_inner(bytes);
    if result.is_err() {
        dpz_telemetry::global()
            .counter_with("dpz_decode_rejects_total", &[("codec", "sz")])
            .inc();
    }
    result
}

fn decompress_inner(bytes: &[u8]) -> Result<(Vec<f32>, Vec<usize>), SzError> {
    let mut cur = Cursor { buf: bytes, pos: 0 };
    if cur.take(4)? != MAGIC {
        return Err(SzError::Corrupt("bad magic"));
    }
    let ndims = cur.u8()? as usize;
    if !(1..=3).contains(&ndims) {
        return Err(SzError::Corrupt("unsupported dimensionality"));
    }
    let mut dims = Vec::with_capacity(ndims);
    for _ in 0..ndims {
        dims.push(cur.u64()? as usize);
    }
    // Validate the shape before it reaches `Grid::new` (which asserts) or
    // sizes any allocation: non-zero extents, checked product, and a
    // plausibility cap — every value costs at least one Huffman bit, so `n`
    // can never exceed 8× the container length. A header declaring more is
    // corrupt, and rejecting it here bounds every later allocation.
    if dims.contains(&0) {
        return Err(SzError::Corrupt("zero dimension"));
    }
    let n = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or(SzError::Corrupt("dims overflow"))?;
    if n > bytes.len().saturating_mul(8) {
        return Err(SzError::Corrupt("implausible value count"));
    }
    let eb = cur.f64()?;
    // `!(eb > 0.0)` rather than `eb <= 0.0`: NaN must also be rejected.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(eb > 0.0) || !eb.is_finite() {
        return Err(SzError::Corrupt("invalid error bound"));
    }
    let radius = cur.u32()?;
    if !(2..=MAX_RADIUS).contains(&radius) {
        return Err(SzError::Corrupt("invalid radius"));
    }
    let predictor = match cur.u8()? {
        0 => Predictor::Lorenzo,
        1 => Predictor::Auto,
        _ => return Err(SzError::Corrupt("unknown predictor")),
    };
    let (selectors, coefficients) = if predictor == Predictor::Auto {
        let n_sel = cur.u64()? as usize;
        // One selector per block, at least one value per block.
        if n_sel > n {
            return Err(SzError::Corrupt("implausible selector count"));
        }
        let len_sel = cur.u64()? as usize;
        let selectors = decompress_bounded(cur.take(len_sel)?, n_sel)?;
        if selectors.len() != n_sel {
            return Err(SzError::Corrupt("selector count mismatch"));
        }
        let n_coef = cur.u64()? as usize;
        // Four plane coefficients per regression block, at most.
        if n_coef > n_sel.saturating_mul(4) {
            return Err(SzError::Corrupt("implausible coefficient count"));
        }
        let expected_coef = n_coef
            .checked_mul(4)
            .ok_or(SzError::Corrupt("coefficient size overflow"))?;
        let len_coef = cur.u64()? as usize;
        let coef_bytes = decompress_bounded(cur.take(len_coef)?, expected_coef)?;
        if coef_bytes.len() != expected_coef {
            return Err(SzError::Corrupt("coefficient payload mismatch"));
        }
        let coefficients: Vec<f32> = coef_bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        (selectors, coefficients)
    } else {
        (Vec::new(), Vec::new())
    };

    let len_lengths = cur.u64()? as usize;
    let lengths = decompress_bounded(cur.take(len_lengths)?, 2 * radius as usize)?;
    if lengths.len() != 2 * radius as usize {
        return Err(SzError::Corrupt("code-length table size mismatch"));
    }
    let len_bits = cur.u64()? as usize;
    let bitstream = cur.take(len_bits)?;
    let n_outliers = cur.u64()? as usize;
    // Outliers are escaped values, so there can never be more than `n`.
    if n_outliers > n {
        return Err(SzError::Corrupt("implausible outlier count"));
    }
    let expected_outliers = n_outliers
        .checked_mul(4)
        .ok_or(SzError::Corrupt("outlier size overflow"))?;
    let len_outliers = cur.u64()? as usize;
    let outlier_bytes = decompress_bounded(cur.take(len_outliers)?, expected_outliers)?;
    if outlier_bytes.len() != expected_outliers {
        return Err(SzError::Corrupt("outlier payload size mismatch"));
    }
    let outliers: Vec<f32> = outlier_bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();

    let grid = Grid::new(&dims);
    let mut reader = SymbolReader {
        decoder: LutDecoder::from_lengths(&lengths, false)?,
        bits: BitReader::new(bitstream),
        outliers: outliers.into_iter(),
        q: Quantizer::new(eb, radius),
    };

    let mut recon = vec![0.0f64; n];
    match predictor {
        Predictor::Lorenzo => {
            for idx in 0..n {
                let pred = grid.predict(&recon, idx);
                recon[idx] = reader.next_value(pred)?;
            }
        }
        Predictor::Auto => {
            let e = extents3(&dims);
            let side = block_side(dims.len());
            let mut sel_iter = selectors.iter();
            let mut coef_iter = coefficients.chunks_exact(4);
            for bi in (0..e[0]).step_by(side) {
                for bj in (0..e[1]).step_by(side) {
                    for bk in (0..e[2]).step_by(side) {
                        let li = side.min(e[0] - bi);
                        let lj = side.min(e[1] - bj);
                        let lk = side.min(e[2] - bk);
                        let use_regression = *sel_iter
                            .next()
                            .ok_or(SzError::Corrupt("missing block selector"))?
                            != 0;
                        let fit = if use_regression {
                            let c = coef_iter
                                .next()
                                .ok_or(SzError::Corrupt("missing coefficients"))?;
                            Some(PlaneFit {
                                b0: c[0],
                                b1: c[1],
                                b2: c[2],
                                b3: c[3],
                            })
                        } else {
                            None
                        };
                        for i in 0..li {
                            for j in 0..lj {
                                for k in 0..lk {
                                    let idx = flat(&e, bi + i, bj + j, bk + k);
                                    let pred = match &fit {
                                        Some(f) => f.predict(i, j, k),
                                        None => grid.predict(&recon, idx),
                                    };
                                    recon[idx] = reader.next_value(pred)?;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let out: Vec<f32> = recon.iter().map(|&v| v as f32).collect();
    let reg = dpz_telemetry::global();
    let labels = [("codec", "sz"), ("op", "decompress")];
    reg.counter_with("dpz_bytes_in_total", &labels)
        .add(bytes.len() as u64);
    reg.counter_with("dpz_bytes_out_total", &labels)
        .add(out.len() as u64 * 4);
    Ok((out, dims))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bound_with(
        data: &[f32],
        dims: &[usize],
        eb: f64,
        predictor: Predictor,
    ) -> (usize, usize) {
        let cfg = SzConfig {
            error_bound: eb,
            quant_radius: 1 << 15,
            predictor,
        };
        let packed = compress(data, dims, &cfg);
        let (out, got_dims) = decompress(&packed).unwrap();
        assert_eq!(got_dims, dims);
        assert_eq!(out.len(), data.len());
        for (i, (a, b)) in data.iter().zip(&out).enumerate() {
            let err = (f64::from(*a) - f64::from(*b)).abs();
            assert!(err <= eb * (1.0 + 1e-9), "idx {i}: err {err} > eb {eb}");
        }
        (data.len() * 4, packed.len())
    }

    fn check_bound(data: &[f32], dims: &[usize], eb: f64) -> (usize, usize) {
        check_bound_with(data, dims, eb, Predictor::Lorenzo)
    }

    #[test]
    fn bound_held_1d() {
        let data: Vec<f32> = (0..10_000)
            .map(|i| (i as f32 * 0.001).sin() * 10.0)
            .collect();
        check_bound(&data, &[10_000], 1e-3);
    }

    #[test]
    fn bound_held_3d() {
        let n = 16;
        let data: Vec<f32> = (0..n * n * n)
            .map(|i| {
                let x = (i / (n * n)) as f32;
                let y = ((i / n) % n) as f32;
                let z = (i % n) as f32;
                (0.3 * x).sin() + (0.2 * y).cos() + 0.1 * z
            })
            .collect();
        check_bound(&data, &[n, n, n], 1e-4);
    }

    #[test]
    fn bound_held_with_auto_predictor_all_dims() {
        for (dims, len) in [
            (vec![5000usize], 5000),
            (vec![50, 60], 3000),
            (vec![12, 13, 14], 2184),
        ] {
            let data: Vec<f32> = (0..len)
                .map(|i| (i as f32 * 0.01).sin() * 5.0 + i as f32 * 0.002)
                .collect();
            check_bound_with(&data, &dims, 1e-3, Predictor::Auto);
        }
    }

    #[test]
    fn regression_wins_on_tilted_planes() {
        // A steep linear ramp in 2-D: the hyperplane predictor nails it, so
        // Auto must not be (much) larger than Lorenzo and the residual
        // symbols should collapse to a single code.
        let (rows, cols) = (64, 64);
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i / cols) as f32) * 3.0 + ((i % cols) as f32) * 7.0)
            .collect();
        let (_, auto_size) = check_bound_with(&data, &[rows, cols], 1e-3, Predictor::Auto);
        let (_, lorenzo_size) = check_bound(&data, &[rows, cols], 1e-3);
        assert!(
            auto_size <= lorenzo_size + 256,
            "auto {auto_size} should not exceed lorenzo {lorenzo_size} on a plane"
        );
    }

    #[test]
    fn compresses_smooth_3d() {
        let n = 24;
        let data: Vec<f32> = (0..n * n * n)
            .map(|i| ((i % 97) as f32 * 0.01).sin())
            .collect();
        let (orig, packed) = check_bound(&data, &[n, n, n], 1e-2);
        assert!(packed < orig, "no reduction: {orig} -> {packed}");
    }

    #[test]
    fn handles_constant_field() {
        let data = vec![3.25f32; 4096];
        let (_, packed) = check_bound(&data, &[64, 64], 1e-5);
        assert!(packed < 2048, "constant field should be tiny, got {packed}");
    }

    #[test]
    fn handles_extreme_values_as_outliers() {
        let mut data = vec![0.0f32; 1000];
        data[500] = 3.0e38; // near f32 max: forces outlier path
        data[501] = -3.0e38;
        check_bound(&data, &[1000], 1e-6);
        check_bound_with(&data, &[1000], 1e-6, Predictor::Auto);
    }

    #[test]
    fn dense_alphabet_regression() {
        // A random walk with steps spanning the full quantizer range makes
        // more than 2^15 distinct codes appear — the case that overflows a
        // 15-bit Huffman depth limit (regression for the Kraft panic).
        let eb = 1e-6;
        let mut s = 0xBEEFu64;
        let mut x = 0.0f64;
        let data: Vec<f32> = (0..300_000)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let u = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                x += u * 2.0 * eb * 60_000.0;
                x as f32
            })
            .collect();
        check_bound(&data, &[300_000], eb);
    }

    #[test]
    fn rejects_garbage() {
        assert!(decompress(b"not an sz stream at all").is_err());
        assert!(decompress(b"SZ").is_err());
    }

    #[test]
    fn rejects_truncation() {
        let data: Vec<f32> = (0..500).map(|i| i as f32).collect();
        let packed = compress(&data, &[500], &SzConfig::with_error_bound(1e-3));
        for cut in [4, 10, packed.len() / 2] {
            assert!(decompress(&packed[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn rejects_truncation_auto_mode() {
        let data: Vec<f32> = (0..900).map(|i| (i as f32 * 0.1).cos()).collect();
        let cfg = SzConfig::with_error_bound(1e-3).with_predictor(Predictor::Auto);
        let packed = compress(&data, &[30, 30], &cfg);
        for cut in [5, 40, packed.len() / 2] {
            assert!(decompress(&packed[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    #[should_panic(expected = "dims do not match")]
    fn shape_mismatch_panics() {
        compress(&[1.0, 2.0], &[3], &SzConfig::with_error_bound(0.1));
    }
}
