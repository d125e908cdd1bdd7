//! # dpz-codec
//!
//! The codec engine: one contract every compressor in the workspace
//! implements, so selection, serving, and tooling layers are thin clients
//! of a single interface (the payoff Tao et al.'s online SZ/ZFP selection
//! and FRaZ's codec-agnostic search loop demonstrate).
//!
//! Three pieces:
//!
//! * [`Codec`] — the streaming trait: `compress_into` a [`std::io::Write`]
//!   with the configured knobs, `compress_with_target` toward a
//!   [`QualityTarget`] resolved per input, `decompress_from` a
//!   [`std::io::Read`], `probe` a quality prediction (CR *and* PSNR) from a
//!   bounded prefix, and `sniff` a header for format identification.
//!   Implemented here for DPZ single-stream ([`DpzCodec`]), DPZ chunked
//!   ([`DpzChunkedCodec`]), SZ ([`SzCodec`]) and ZFP ([`ZfpCodec`]).
//! * [`Registry`] — sniffs `DPZ1`/`DPZC`/`SZR1`/`ZFR1` magic and dispatches
//!   to the owning codec; [`Registry::builtin`] registers all four.
//! * [`AutoCodec`] — per-input backend selection using the paper's §V
//!   sampling predictor (`CR_p = (M/k_e) × CR'_stage3 × CR'_zlib`) for DPZ
//!   against micro-probes of SZ and ZFP on a sample; under a quality
//!   target the selection is rate-distortion-optimal (Tao et al.'s online
//!   SZ-vs-ZFP style): best predicted PSNR at a fixed ratio, best
//!   predicted ratio at a fixed quality.
//!
//! Partial reads are not part of the contract: a DPZC container's chunk,
//! region and budgeted reads are `dpz_core`'s `decompress_chunk`,
//! `decompress_region` and `decompress_progressive` (and their
//! `Read + Seek` forms), which serve every container version.

#![warn(missing_docs)]

mod auto;
mod registry;
mod wrappers;

pub use auto::{AutoCodec, Selection};
pub use dpz_core::ProgressiveDecoded;
pub use dpz_core::{CompressionStats, ContainerInfo, DpzError};
pub use dpz_core::{QualityTarget, PROBE_CAP};
pub use registry::{Format, Registry};
pub use wrappers::{DpzChunkedCodec, DpzCodec, SzCodec, ZfpCodec};

use std::io::{Read, Write};

/// What one compression produced, uniformly across backends.
#[derive(Debug, Clone)]
pub struct CodecStats {
    /// Name of the backend that actually encoded the stream (for
    /// [`AutoCodec`] this is the *selected* backend, not `"auto"`).
    pub codec: &'static str,
    /// Input size in bytes (`4 × values`).
    pub bytes_in: u64,
    /// Compressed size in bytes.
    pub bytes_out: u64,
    /// Rich per-stage statistics when the DPZ pipeline ran (absent for
    /// SZ/ZFP, which have no stage structure to report).
    pub dpz: Option<CompressionStats>,
}

impl CodecStats {
    /// End-to-end compression ratio.
    pub fn ratio(&self) -> f64 {
        self.bytes_in as f64 / (self.bytes_out as f64).max(1.0)
    }
}

/// One decompressed stream, uniformly across backends.
#[derive(Debug, Clone)]
pub struct Decoded {
    /// Reconstructed values.
    pub values: Vec<f32>,
    /// Array dimensions.
    pub dims: Vec<usize>,
    /// Container format the stream was in.
    pub format: Format,
    /// Container version/checksum details (DPZ formats only).
    pub info: Option<ContainerInfo>,
}

/// What a quality probe predicts for one backend on one input, from a
/// prefix of at most [`PROBE_CAP`] values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecProbe {
    /// Backend the prediction is for.
    pub codec: &'static str,
    /// Predicted end-to-end compression ratio at the probed target.
    pub predicted_cr: f64,
    /// Predicted reconstruction quality (dB) at the probed target.
    pub predicted_psnr: f64,
    /// How many leading values the probe actually examined (its prefix
    /// size — `min(len, PROBE_CAP)`).
    pub prefix_values: usize,
    /// The static target that backend `codec`'s
    /// [`Codec::compress_with_target`] resolves the probed request to on
    /// this input. Compressing the input at `resolved` writes exactly the
    /// bytes that compressing it at the request writes, so a caller that
    /// has probed never pays for the resolution (such as SZ's ratio search)
    /// a second time. Codecs that resolve a target with a confirm loop or
    /// a closed form report the request unchanged.
    pub resolved: QualityTarget,
}

/// The contract every compressor implements: streaming compress into any
/// [`Write`] (with configured knobs or toward a resolved [`QualityTarget`]),
/// streaming decompress from any [`Read`], quality probing, and header
/// sniffing.
///
/// Implementations must be `Send + Sync` so a registry can be shared across
/// worker threads; all state is per-call.
pub trait Codec: Send + Sync {
    /// Stable codec name (`"dpz"`, `"dpzc"`, `"sz"`, `"zfp"`, `"auto"`).
    fn name(&self) -> &'static str;

    /// Compress `src` (shape `dims`) into `dst` with the codec's configured
    /// knobs.
    fn compress_into(
        &self,
        src: &[f32],
        dims: &[usize],
        dst: &mut dyn Write,
    ) -> Result<CodecStats, DpzError>;

    /// Compress `src` toward `target`, resolving it against this input
    /// (closed form, search, or knob mapping — backend-specific) before
    /// encoding. The codec's other configured knobs still apply.
    fn compress_with_target(
        &self,
        src: &[f32],
        dims: &[usize],
        target: &QualityTarget,
        dst: &mut dyn Write,
    ) -> Result<CodecStats, DpzError>;

    /// Decompress a complete stream read from `src`.
    fn decompress_from(&self, src: &mut dyn Read) -> Result<Decoded, DpzError>;

    /// Predict what compressing `src` toward `target` would yield — ratio
    /// *and* PSNR — from a prefix of at most [`PROBE_CAP`] values, and the
    /// static target the request resolves to on this input
    /// ([`CodecProbe::resolved`]).
    ///
    /// A probe resolves the request the way the backend's own
    /// [`Codec::compress_with_target`] does on the whole input, then prices
    /// the prefix at that resolution: DPZ with its analytic ratio oracle,
    /// SZ and ZFP by compressing the prefix's 1-D view for real.
    fn probe(
        &self,
        src: &[f32],
        dims: &[usize],
        target: &QualityTarget,
    ) -> Result<CodecProbe, DpzError>;

    /// Whether `header` (the stream's first bytes — at least 4 are needed
    /// for any positive answer) begins a stream this codec decodes, and if
    /// so which format.
    fn sniff(&self, header: &[u8]) -> Option<Format>;
}

/// Measured PSNR of a probe roundtrip (range-normalized, matching the
/// pipeline's own metric).
pub(crate) fn probe_psnr(original: &[f32], reconstructed: &[f32]) -> f64 {
    let (_, range) = dpz_core::decompose::value_extent(original);
    let mse = original
        .iter()
        .zip(reconstructed)
        .map(|(&a, &b)| {
            let d = f64::from(a) - f64::from(b);
            d * d
        })
        .sum::<f64>()
        / original.len().max(1) as f64;
    if mse <= 0.0 {
        f64::INFINITY
    } else {
        20.0 * range.log10() - 10.0 * mse.log10()
    }
}

/// Map an I/O error into the shared error type.
pub(crate) fn io_err(e: std::io::Error) -> DpzError {
    DpzError::Io(e.to_string())
}

/// Drain a reader to a byte buffer (all current container formats need the
/// full stream before decoding can start).
pub(crate) fn read_all(src: &mut dyn Read) -> Result<Vec<u8>, DpzError> {
    let mut buf = Vec::new();
    src.read_to_end(&mut buf).map_err(io_err)?;
    Ok(buf)
}

/// Validate dims against the value count before handing to backends whose
/// free functions `assert!` on mismatch.
pub(crate) fn check_dims(src: &[f32], dims: &[usize]) -> Result<(), DpzError> {
    let product = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or(DpzError::BadInput("dims overflow"))?;
    if dims.is_empty() || product != src.len() {
        return Err(DpzError::BadInput("dims do not match data length"));
    }
    Ok(())
}
