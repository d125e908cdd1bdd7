//! # dpz-core
//!
//! DPZ: a multi-stage, information-retrieval-oriented lossy compressor for
//! floating-point scientific data — the primary contribution of Zhang et
//! al., *"DPZ: Improving Lossy Compression Ratio with Information Retrieval
//! on Scientific Data"* (IEEE CLUSTER 2021), reproduced in Rust.
//!
//! ## Pipeline (Figure 5 of the paper)
//!
//! 1. **Data decomposition & transformation** ([`decompose`], stage 1):
//!    arbitrary-dimensional data is flattened and rearranged into `M` 1-D
//!    blocks of `N` datapoints (`M < N`, `N/M` the smallest integer ratio
//!    > 1), preserving the original data order so locality survives; a
//!    > 1-D DCT-II is applied to every block (rayon-parallel).
//! 2. **k-PCA selection** ([`kpca`], stage 2): PCA runs *directly in the DCT
//!    domain* (valid because both transforms are orthogonal — Section III-B2
//!    of the paper), and `k` leading components are retained by either
//!    **knee-point detection** on the cumulative explained-variance curve or
//!    an **explained-variance threshold** ("three-nine" … "eight-nine").
//! 3. **Quantization & encoding** ([`quantize`], stage 3): the retained PCA
//!    scores — symmetric around zero thanks to the DCT-domain normality —
//!    go through a uniform symmetric quantizer (bin width `2P`, range
//!    `±P·B`); in-range points become 1-byte (DPZ-l) or 2-byte (DPZ-s) bin
//!    indices, out-of-range points are kept verbatim.
//! 4. **Lossless add-on** ([`container`]): every section (indices, outliers,
//!    basis, means) is DEFLATE-compressed (`dpz-deflate`).
//!
//! A **sampling strategy** ([`sampling`], Algorithm 2) estimates the
//! variance-inflation-factor compressibility indicator, estimates `k` from a
//! few block subsets, and predicts the end-to-end compression ratio before
//! compressing. The estimate is reported and, under
//! [`Standardize::Auto`], decides standardization; `k` is always the one
//! the TVE certificate (or the configured selection) picks on the whole
//! input, so sampling never lowers quality. The paper instead fits only
//! the estimated `k` components for a 1.23× speedup; this reproduction
//! trades that speedup for the certificate.
//!
//! ## Quick start
//!
//! ```
//! use dpz_core::{compress, decompress, DpzConfig};
//!
//! let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
//! let cfg = DpzConfig::loose(); // DPZ-l: P = 1e-3, 1-byte indices
//! let compressed = compress(&data, &[64, 64], &cfg).unwrap();
//! let (restored, dims) = decompress(&compressed.bytes).unwrap();
//! assert_eq!(dims, vec![64, 64]);
//! assert_eq!(restored.len(), data.len());
//! ```

#![warn(missing_docs)]

pub mod chunked;
pub mod combos;
pub mod config;
pub mod container;
pub mod decompose;
pub mod kpca;
pub mod pipeline;
pub mod quantize;
pub mod sampling;
pub mod target;

pub use chunked::{
    compress_chunked, compress_progressive, decompress_chunk, decompress_chunk_from,
    decompress_chunked, decompress_chunked_with_info, decompress_progressive, decompress_region,
    decompress_region_from, ChunkEntry, ChunkedCompressed, ComponentEntry, ProgressiveDecoded,
    ProgressiveEntry, SeekableIndex, FLAG_PROGRESSIVE,
};
pub use config::{
    DpzConfig, KSelection, Scheme, Stage1Transform, Standardize, TveLevel,
    WIDE_INDEX_AUTO_THRESHOLD,
};
pub use container::{ComponentSpan, ContainerInfo, DpzError, LosslessBackend, ProgressiveLayout};
pub use decompose::extract_region;
pub use pipeline::PSNR_SLACK_DB;
pub use pipeline::{
    compress, compress_with_breakdown, decompress, decompress_with_info, Compressed,
    CompressionBreakdown, CompressionStats, StageTimings,
};
pub use sampling::{SamplingEstimate, SamplingStrategy};
pub use target::{
    bound_for_psnr, psnr_for_bound, ratio_within, search_bound_for_ratio, QualityTarget,
    RatioOracle, SearchOutcome, MAX_ORACLE_PROBES, PROBE_CAP,
};
