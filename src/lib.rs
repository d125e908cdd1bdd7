//! # dpz
//!
//! Façade crate for the DPZ reproduction workspace (Zhang et al., *"DPZ:
//! Improving Lossy Compression Ratio with Information Retrieval on
//! Scientific Data"*, IEEE CLUSTER 2021). Re-exports the public API of every
//! member crate so downstream users can depend on a single crate:
//!
//! * [`core`] — the DPZ compressor itself (compress / decompress / sampling),
//! * [`codec`] — the unified `Codec` trait, format registry, and
//!   sampling-driven [`AutoCodec`](codec::AutoCodec) backend selector,
//! * [`sz`] and [`zfp`] — the SZ-style and ZFP-style baseline compressors,
//! * [`data`] — synthetic dataset generators and quality metrics,
//! * [`linalg`] — the DCT/FFT/PCA/knee-point numerical substrate,
//! * [`deflate`] — the from-scratch zlib/DEFLATE implementation.
//!
//! ```
//! use dpz::prelude::*;
//!
//! let ds = Dataset::generate(DatasetKind::Fldsc, Scale::Tiny, 2021);
//! let out = compress(&ds.data, &ds.dims, &DpzConfig::loose()).unwrap();
//! let (restored, dims) = decompress(&out.bytes).unwrap();
//! assert_eq!(dims, ds.dims);
//! assert_eq!(restored.len(), ds.data.len());
//! ```

#![warn(missing_docs)]

pub use dpz_codec as codec;
pub use dpz_core as core;
pub use dpz_data as data;
pub use dpz_deflate as deflate;
pub use dpz_linalg as linalg;
pub use dpz_sz as sz;
pub use dpz_zfp as zfp;

/// Most-used items in one import.
pub mod prelude {
    pub use dpz_codec::{AutoCodec, Codec, CodecProbe, Registry};
    pub use dpz_core::{
        compress, compress_with_breakdown, decompress, DpzConfig, DpzError, KSelection,
        QualityTarget, Scheme, Stage1Transform, Standardize, TveLevel,
    };
    pub use dpz_data::{standard_suite, Dataset, DatasetKind, QualityReport, Scale};
}
