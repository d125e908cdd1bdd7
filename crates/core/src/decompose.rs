//! Stage 1: block decomposition and the block-wise DCT.
//!
//! The paper flattens arbitrary-dimensional data and rearranges it into `M`
//! 1-D blocks of `N` consecutive datapoints, keeping the original order so
//! each block inherits the locality of the source field (Section IV-A).
//! `M` must be smaller than `N` (PCA needs more samples than features) and,
//! empirically, the larger `M` the better the compression, so `N/M` is the
//! smallest integer ratio > 1 that factors the length — e.g. 128³ points
//! give `M = 1024, N = 2048`, and a 1800×3600 field gives
//! `M = 1800, N = 3600`, matching the paper's examples. Lengths with no
//! such factorization are padded (edge replication) to `M·N`.

use crate::config::Stage1Transform;
use dpz_linalg::wavelet::{dwt_forward, dwt_inverse, max_levels_for, Wavelet};
use dpz_linalg::{Dct1d, Matrix};
use rayon::prelude::*;

/// Chosen block shape for a flattened length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockShape {
    /// Number of blocks (PCA features).
    pub m: usize,
    /// Datapoints per block (PCA samples).
    pub n: usize,
    /// Values appended to reach `m * n`.
    pub pad: usize,
}

/// Largest ratio `N/M` tried before falling back to padding.
const MAX_RATIO: usize = 64;
/// Smallest input treated with a real block decomposition; anything shorter
/// becomes a single degenerate block pair.
const MIN_LEN_FOR_BLOCKS: usize = 8;

/// Choose `(M, N)` for a flattened length.
///
/// Prefers an exact factorization `L = M·N` with `N = r·M` for the smallest
/// integer `r ≥ 2`; otherwise picks `M = ⌊√(L/2)⌋` and pads the tail.
pub fn choose_shape(len: usize) -> BlockShape {
    assert!(len >= 2, "cannot decompose fewer than two values");
    if len < MIN_LEN_FOR_BLOCKS {
        // Degenerate: two blocks, pad to even; keep n >= 2 so PCA has
        // at least two samples.
        let n = len.div_ceil(2).max(2);
        return BlockShape {
            m: 2,
            n,
            pad: 2 * n - len,
        };
    }
    for r in 2..=MAX_RATIO {
        if !len.is_multiple_of(r) {
            continue;
        }
        let m2 = len / r;
        let m = (m2 as f64).sqrt().round() as usize;
        if m >= 2 && m * m == m2 {
            return BlockShape {
                m,
                n: m * r,
                pad: 0,
            };
        }
    }
    // Fallback: target N/M ≈ 2 and pad the remainder.
    let m = ((len as f64 / 2.0).sqrt().floor() as usize).max(2);
    let n = len.div_ceil(m);
    BlockShape {
        m,
        n,
        pad: m * n - len,
    }
}

/// Minimum and range of the data, with a range floor of 1 so constant
/// fields normalize to zero instead of dividing by zero. Stage 1 normalizes
/// by it, and the SZ/ZFP target mappings scale relative bounds and PSNR by
/// the same range.
pub fn value_extent(data: &[f32]) -> (f64, f64) {
    let (lo, hi) = data
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(f64::from(v)), hi.max(f64::from(v)))
        });
    let range = hi - lo;
    (lo, if range > 0.0 { range } else { 1.0 })
}

/// Stage 1 on one buffer, exactly as the pipeline runs it: range-normalize
/// `data` to `[-0.5, 0.5]`, cut it into `shape`'s blocks and apply
/// `transform` to every block (the DCT through the fused
/// [`dct_blocks_from_raw`]). The ratio oracle and the `AutoCodec` predictor
/// call it on their prefix sample, so they price the coefficients a
/// compression would fit.
///
/// Normalizing (DCTZ heritage) makes the stage-3 error bound `P`
/// range-relative, exactly like the paper's θ metric — without it,
/// large-magnitude fields (e.g. HACC velocities) would overflow the
/// quantizer range and escape every score as an outlier.
///
/// Returns the `N x M` coefficient matrix and the `(min, range)`
/// normalization. Any scratch the transform needed is freed before it
/// returns, so the coefficient matrix is the only block matrix left alive.
pub fn stage1(data: &[f32], shape: BlockShape, transform: Stage1Transform) -> (Matrix, (f64, f64)) {
    let (lo, range) = value_extent(data);
    let coeffs = match transform {
        Stage1Transform::Dct => dct_blocks_from_raw(data, shape, lo, range, Vec::new()).0,
        Stage1Transform::Dwt { levels } => {
            let mut blocks = to_blocks(data, shape);
            for v in blocks.as_mut_slice() {
                *v = (*v - lo) / range - 0.5;
            }
            dwt_blocks(&blocks, effective_dwt_levels(shape.n, levels))
        }
    };
    (coeffs, (lo, range))
}

/// Rearrange flattened data into the `N x M` sample-by-feature matrix
/// (column `j` holds block `j`, i.e. `data[j*N .. (j+1)*N]`), padding the
/// tail by replicating the final value.
pub fn to_blocks(data: &[f32], shape: BlockShape) -> Matrix {
    assert_eq!(shape.m * shape.n, data.len() + shape.pad, "shape mismatch");
    let (m, n) = (shape.m, shape.n);
    let last = *data.last().expect("non-empty data") as f64;
    let mut out = Matrix::zeros(n, m);
    // out[(i, j)] = data[j*n + i]; iterate source-sequentially per block.
    for j in 0..m {
        let base = j * n;
        for i in 0..n {
            let idx = base + i;
            let v = if idx < data.len() {
                f64::from(data[idx])
            } else {
                last
            };
            out.set(i, j, v);
        }
    }
    out
}

/// Inverse of [`to_blocks`]: flatten the `N x M` matrix back into `len`
/// values (dropping padding).
pub fn from_blocks(blocks: &Matrix, shape: BlockShape, len: usize) -> Vec<f32> {
    assert_eq!(blocks.shape(), (shape.n, shape.m), "matrix/shape mismatch");
    assert_eq!(shape.m * shape.n, len + shape.pad, "length mismatch");
    let mut out = vec![0.0f32; len];
    for j in 0..shape.m {
        let base = j * shape.n;
        for i in 0..shape.n {
            let idx = base + i;
            if idx < len {
                out[idx] = blocks.get(i, j) as f32;
            }
        }
    }
    out
}

/// Apply the DCT-II to every block (column), in parallel. The matrix is
/// `N x M`; each column is one block of length `N`.
pub fn dct_blocks(blocks: &Matrix) -> Matrix {
    transform_blocks(blocks, true)
}

/// Apply the inverse DCT (DCT-III) to every block.
pub fn idct_blocks(blocks: &Matrix) -> Matrix {
    transform_blocks(blocks, false)
}

/// Fused ingest: normalize raw values straight into a block-major scratch,
/// DCT every block in place, and transpose once into the samples-by-features
/// coefficient matrix. Equivalent to `to_blocks` + normalize + [`dct_blocks`]
/// but with one transpose instead of three passes over the data (the raw
/// layout *is* block-major, so the fill is sequential on both sides).
///
/// `storage` is resized to `M·N` and holds the block-major scratch; it comes
/// back (contents unspecified) beside the coefficient matrix, so a caller
/// timing the kernel in a loop can hand it in again. [`stage1`] passes an
/// empty `Vec` and drops what comes back.
pub fn dct_blocks_from_raw(
    data: &[f32],
    shape: BlockShape,
    norm_min: f64,
    norm_range: f64,
    storage: Vec<f64>,
) -> (Matrix, Vec<f64>) {
    assert_eq!(shape.m * shape.n, data.len() + shape.pad, "shape mismatch");
    let (m, n) = (shape.m, shape.n);
    let last = *data.last().expect("non-empty data");
    let mut buf = storage;
    buf.clear();
    buf.resize(m * n, 0.0);
    for j in 0..m {
        let base = j * n;
        let row = &mut buf[base..base + n];
        for (i, v) in row.iter_mut().enumerate() {
            let idx = base + i;
            let s = if idx < data.len() { data[idx] } else { last };
            *v = (f64::from(s) - norm_min) / norm_range - 0.5;
        }
    }
    let plan = Dct1d::new(n);
    buf.par_chunks_mut(2 * n).for_each(|pair| {
        if pair.len() == 2 * n {
            let (a, b) = pair.split_at_mut(n);
            plan.forward_pair(a, b);
        } else {
            plan.forward(pair);
        }
    });
    let bm = Matrix::from_vec(m, n, buf).expect("storage sized above");
    let coeffs = bm.transpose();
    (coeffs, bm.into_vec())
}

/// Fused inverse of [`dct_blocks_from_raw`]: transpose the coefficient
/// matrix once into block-major form, inverse-DCT every block in place, and
/// denormalize straight into the flattened output (dropping padding).
pub fn idct_blocks_to_raw(
    coeffs: &Matrix,
    shape: BlockShape,
    norm_min: f64,
    norm_range: f64,
    len: usize,
) -> Vec<f32> {
    assert_eq!(coeffs.shape(), (shape.n, shape.m), "matrix/shape mismatch");
    assert_eq!(shape.m * shape.n, len + shape.pad, "length mismatch");
    let (m, n) = (shape.m, shape.n);
    let bt = coeffs.transpose();
    let mut buf = bt.into_vec();
    let plan = Dct1d::new(n);
    buf.par_chunks_mut(2 * n).for_each(|pair| {
        if pair.len() == 2 * n {
            let (a, b) = pair.split_at_mut(n);
            plan.inverse_pair(a, b);
        } else {
            plan.inverse(pair);
        }
    });
    let mut out = vec![0.0f32; len];
    for j in 0..m {
        let base = j * n;
        let take = n.min(len.saturating_sub(base));
        let row = &buf[base..base + take];
        for (slot, &v) in out[base..base + take].iter_mut().zip(row) {
            *slot = ((v + 0.5) * norm_range + norm_min) as f32;
        }
    }
    out
}

/// Clamp a requested DWT depth to what block length `n` supports.
pub fn effective_dwt_levels(n: usize, requested: usize) -> usize {
    max_levels_for(n, requested)
}

/// Apply a multi-level Daubechies-4 DWT to every block (column), in
/// parallel — the paper's "PCA in other transform domains" variant. The
/// level count must already be feasible for the block length (use
/// [`effective_dwt_levels`]).
pub fn dwt_blocks(blocks: &Matrix, levels: usize) -> Matrix {
    wavelet_blocks(blocks, levels, true)
}

/// Inverse of [`dwt_blocks`].
pub fn idwt_blocks(blocks: &Matrix, levels: usize) -> Matrix {
    wavelet_blocks(blocks, levels, false)
}

fn wavelet_blocks(blocks: &Matrix, levels: usize, forward: bool) -> Matrix {
    let (n, m) = blocks.shape();
    assert_eq!(
        levels,
        max_levels_for(n, levels),
        "infeasible DWT depth for block length {n}"
    );
    let bt = blocks.transpose();
    let mut data = bt.into_vec();
    data.par_chunks_mut(n).for_each(|row| {
        let r = if forward {
            dwt_forward(row, Wavelet::Db4, levels)
        } else {
            dwt_inverse(row, Wavelet::Db4, levels)
        };
        r.expect("levels validated above");
    });
    Matrix::from_vec(m, n, data)
        .expect("shape preserved")
        .transpose()
}

fn transform_blocks(blocks: &Matrix, forward: bool) -> Matrix {
    let (n, m) = blocks.shape();
    let plan = Dct1d::new(n);
    // Work block-major (transpose) so each DCT reads contiguous memory,
    // then transpose back to samples x features.
    let bt = blocks.transpose(); // m x n, row j = block j
    let mut data = bt.into_vec();
    // Two blocks per task: the paired DCT runs both through one complex FFT
    // (two-for-one real-input transform), nearly halving the per-block cost.
    data.par_chunks_mut(2 * n).for_each(|pair| {
        if pair.len() == 2 * n {
            let (a, b) = pair.split_at_mut(n);
            if forward {
                plan.forward_pair(a, b);
            } else {
                plan.inverse_pair(a, b);
            }
        } else if forward {
            plan.forward(pair);
        } else {
            plan.inverse(pair);
        }
    });
    Matrix::from_vec(m, n, data)
        .expect("shape preserved")
        .transpose()
}

/// Copy an axis-aligned sub-region (`lo..hi` per axis, row-major) out of a
/// flattened array. The innermost axis is contiguous, so the copy walks an
/// odometer over the outer axes and memcpys one innermost run per step.
///
/// Callers validate the region (`region.len() == dims.len()`, every range
/// non-empty and within its axis); an empty range yields an empty result.
pub fn extract_region(
    values: &[f32],
    dims: &[usize],
    region: &[std::ops::Range<usize>],
) -> Vec<f32> {
    assert_eq!(dims.len(), region.len(), "region rank must match dims");
    if region.iter().any(|r| r.start >= r.end) {
        return Vec::new();
    }
    let out_len: usize = region.iter().map(|r| r.end - r.start).product();
    let mut out = Vec::with_capacity(out_len);
    let mut strides = vec![1usize; dims.len()];
    for i in (0..dims.len() - 1).rev() {
        strides[i] = strides[i + 1] * dims[i + 1];
    }
    let inner = dims.len() - 1;
    let mut idx: Vec<usize> = region[..inner].iter().map(|r| r.start).collect();
    loop {
        let base: usize = idx.iter().zip(&strides[..inner]).map(|(i, s)| i * s).sum();
        out.extend_from_slice(&values[base + region[inner].start..base + region[inner].end]);
        let mut axis = inner;
        loop {
            if axis == 0 {
                return out;
            }
            axis -= 1;
            idx[axis] += 1;
            if idx[axis] < region[axis].end {
                break;
            }
            idx[axis] = region[axis].start;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_region_crops_rectangles() {
        // 3x4: rows of 4.
        let vals: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let got = extract_region(&vals, &[3, 4], &[1..3, 1..3]);
        assert_eq!(got, vec![5.0, 6.0, 9.0, 10.0]);
        // Whole array.
        assert_eq!(extract_region(&vals, &[3, 4], &[0..3, 0..4]), vals);
        // 1-D slice.
        #[allow(clippy::single_range_in_vec_init)] // a 1-D region IS one range
        let got_1d = extract_region(&vals, &[12], &[3..6]);
        assert_eq!(got_1d, vec![3.0, 4.0, 5.0]);
        // Empty range -> empty output.
        assert!(extract_region(&vals, &[3, 4], &[1..1, 0..4]).is_empty());
    }

    #[test]
    fn extract_region_handles_three_axes() {
        // 2x3x4 row-major.
        let vals: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let got = extract_region(&vals, &[2, 3, 4], &[1..2, 0..2, 2..4]);
        // Plane 1, rows 0..2, cols 2..4: offsets 12+{2,3,6,7}.
        assert_eq!(got, vec![14.0, 15.0, 18.0, 19.0]);
    }

    #[test]
    fn paper_examples_reproduced() {
        // 128^3 -> M=1024, N=2048 (ratio 2).
        let s = choose_shape(128 * 128 * 128);
        assert_eq!((s.m, s.n, s.pad), (1024, 2048, 0));
        // 1800x3600 -> M=1800, N=3600.
        let s = choose_shape(1800 * 3600);
        assert_eq!((s.m, s.n, s.pad), (1800, 3600, 0));
        // HACC 2^21 -> 1024 x 2048.
        let s = choose_shape(2 * 1024 * 1024);
        assert_eq!((s.m, s.n, s.pad), (1024, 2048, 0));
    }

    #[test]
    fn shape_invariants_hold_for_many_lengths() {
        for len in [8usize, 13, 100, 1000, 4096, 65536, 100_003, 262144, 405_000] {
            let s = choose_shape(len);
            assert!(s.m >= 2, "len {len}: m {}", s.m);
            assert!(s.m < s.n, "len {len}: m {} !< n {}", s.m, s.n);
            assert_eq!(s.m * s.n, len + s.pad, "len {len}");
            assert!(
                s.pad < s.m.max(64),
                "len {len}: excessive padding {}",
                s.pad
            );
        }
    }

    #[test]
    fn prime_length_pads() {
        let s = choose_shape(100_003); // prime
        assert!(s.pad > 0);
        assert_eq!(s.m * s.n, 100_003 + s.pad);
    }

    #[test]
    fn blocks_round_trip_exact_shape() {
        let data: Vec<f32> = (0..512).map(|i| i as f32 * 0.25).collect();
        let shape = choose_shape(512);
        let blocks = to_blocks(&data, shape);
        assert_eq!(blocks.shape(), (shape.n, shape.m));
        let back = from_blocks(&blocks, shape, 512);
        assert_eq!(back, data);
    }

    #[test]
    fn blocks_round_trip_with_padding() {
        let data: Vec<f32> = (0..997).map(|i| (i as f32).sin()).collect();
        let shape = choose_shape(997);
        let blocks = to_blocks(&data, shape);
        let back = from_blocks(&blocks, shape, 997);
        assert_eq!(back, data);
    }

    #[test]
    fn block_columns_preserve_locality() {
        // Column j of the matrix must be the j-th consecutive chunk.
        let data: Vec<f32> = (0..128).map(|i| i as f32).collect();
        let shape = choose_shape(128); // 8 x 16
        let blocks = to_blocks(&data, shape);
        let col0 = blocks.col(0);
        for (i, v) in col0.iter().enumerate() {
            assert_eq!(*v, i as f64);
        }
        let col1 = blocks.col(1);
        assert_eq!(col1[0], shape.n as f64);
    }

    #[test]
    fn dct_blocks_invertible() {
        let data: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.013).cos()).collect();
        let shape = choose_shape(1024);
        let blocks = to_blocks(&data, shape);
        let coeffs = dct_blocks(&blocks);
        let back = idct_blocks(&coeffs);
        assert!(back.max_abs_diff(&blocks) < 1e-9);
    }

    #[test]
    fn dct_blocks_matches_per_block_dct() {
        use dpz_linalg::dct::dct2;
        let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.1).sin()).collect();
        let shape = choose_shape(256);
        let blocks = to_blocks(&data, shape);
        let coeffs = dct_blocks(&blocks);
        // Independently transform block 3.
        let block3: Vec<f64> = blocks.col(3);
        let expect = dct2(&block3);
        let got = coeffs.col(3);
        for (a, b) in expect.iter().zip(&got) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn dwt_blocks_invertible() {
        let data: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.021).sin()).collect();
        let shape = choose_shape(2048);
        let blocks = to_blocks(&data, shape);
        let levels = effective_dwt_levels(shape.n, 4);
        assert!(levels > 0);
        let coeffs = dwt_blocks(&blocks, levels);
        let back = idwt_blocks(&coeffs, levels);
        assert!(back.max_abs_diff(&blocks) < 1e-9);
    }

    #[test]
    fn dwt_blocks_compact_energy() {
        let data: Vec<f32> = (0..2048)
            .map(|i| (std::f32::consts::PI * i as f32 / 2048.0).sin())
            .collect();
        let shape = choose_shape(2048);
        let levels = effective_dwt_levels(shape.n, 4);
        let coeffs = dwt_blocks(&to_blocks(&data, shape), levels);
        for j in 0..shape.m {
            let col = coeffs.col(j);
            let total: f64 = col.iter().map(|v| v * v).sum();
            let head_len = (col.len() >> levels).max(1);
            let head: f64 = col[..head_len].iter().map(|v| v * v).sum();
            // Periodic Db4 leaks some boundary energy into details; the
            // approximation band still dominates.
            assert!(
                head / total > 0.85,
                "block {j}: head ratio {}",
                head / total
            );
        }
    }

    #[test]
    fn effective_levels_clamped() {
        assert_eq!(effective_dwt_levels(16, 10), 4);
        assert_eq!(effective_dwt_levels(900, 4), 2); // 900 = 4 * 225
        assert_eq!(effective_dwt_levels(7, 3), 0);
    }

    #[test]
    fn smooth_data_energy_compacts_per_block() {
        let data: Vec<f32> = (0..2048)
            .map(|i| (std::f32::consts::PI * i as f32 / 2048.0).sin())
            .collect();
        let shape = choose_shape(2048);
        let coeffs = dct_blocks(&to_blocks(&data, shape));
        // For every block, most energy should sit in the first coefficients.
        for j in 0..shape.m {
            let col = coeffs.col(j);
            let total: f64 = col.iter().map(|v| v * v).sum();
            let head: f64 = col[..4.min(col.len())].iter().map(|v| v * v).sum();
            assert!(
                head / total > 0.99,
                "block {j}: head ratio {}",
                head / total
            );
        }
    }

    #[test]
    fn tiny_inputs_get_degenerate_shape() {
        let s = choose_shape(5);
        assert_eq!(s.m, 2);
        assert_eq!(s.m * s.n, 5 + s.pad);
        let data = vec![1.0f32, 2.0, 3.0, 4.0, 5.0];
        let blocks = to_blocks(&data, s);
        assert_eq!(from_blocks(&blocks, s, 5), data);
    }

    #[test]
    #[should_panic(expected = "fewer than two")]
    fn rejects_single_value() {
        choose_shape(1);
    }
}
