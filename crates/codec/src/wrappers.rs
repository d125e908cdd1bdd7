//! [`Codec`] implementations for the four concrete backends.

use crate::{
    check_dims, io_err, probe_psnr, read_all, Codec, CodecProbe, CodecStats, Decoded, Format,
};
use dpz_core::decompose::value_extent;
use dpz_core::{DpzConfig, DpzError, QualityTarget, RatioOracle, PROBE_CAP};
use dpz_sz::{SzConfig, SzError};
use dpz_zfp::{ZfpError, ZfpMode};
use std::cell::RefCell;
use std::io::{Read, Write};

fn write_stream(dst: &mut dyn Write, bytes: &[u8]) -> Result<(), DpzError> {
    dst.write_all(bytes).map_err(io_err)
}

fn sniff(header: &[u8], format: Format) -> Option<Format> {
    (header.len() >= 4 && &header[..4] == format.magic()).then_some(format)
}

/// A request as a backend meets it on one input: an error bound in the
/// backend's own value domain, or a ratio the backend resolves its own way.
/// The baselines, unlike DPZ, do not normalize internally, so their domain
/// is the input's, with the value range stage 1 would normalize by
/// ([`value_extent`]).
enum Request {
    Bound(f64),
    Ratio { target: f64, tol: f64 },
}

impl Request {
    /// Map `target` onto data whose value range is `range`: bounds and PSNR
    /// in closed form, one formula for every backend. DPZ quantizes
    /// range-normalized data and passes `range = 1`; SZ and ZFP pass the
    /// input's value range.
    fn new(target: &QualityTarget, range: f64) -> Request {
        match *target {
            QualityTarget::ErrorBound(b) => Request::Bound(b),
            QualityTarget::RelBound(r) => Request::Bound(r * range),
            QualityTarget::Psnr(db) => Request::Bound(dpz_core::bound_for_psnr(db, range)),
            QualityTarget::Ratio { target, tol } => Request::Ratio { target, tol },
        }
    }
}

/// DPZ quality prediction shared by the single-stream and chunked wrappers:
/// resolve the target to a quantizer bound (closed form, or the oracle's
/// ratio search that the fixed-ratio control loop also runs) and read CR
/// off the sampling oracle, PSNR off the bound.
fn dpz_probe(
    codec: &'static str,
    cfg: &DpzConfig,
    src: &[f32],
    dims: &[usize],
    target: &QualityTarget,
) -> Result<CodecProbe, DpzError> {
    check_dims(src, dims)?;
    target.validate()?;
    let oracle = RatioOracle::build(src, &cfg.with_target(*target))?;
    let (p, cr) = match Request::new(target, 1.0) {
        Request::Bound(p) => (p, oracle.predict_cr(p)),
        Request::Ratio { target, tol } => {
            let outcome = oracle.search(target, tol, 1.0)?;
            (outcome.p, outcome.predicted_cr)
        }
    };
    Ok(CodecProbe {
        codec,
        predicted_cr: cr,
        predicted_psnr: dpz_core::psnr_for_bound(p),
        prefix_values: src.len().min(PROBE_CAP),
        // `compress_with_target` resolves the request again with its own
        // confirm loop on the full input.
        resolved: *target,
    })
}

fn sz_err(e: SzError) -> DpzError {
    match e {
        SzError::Corrupt(w) => DpzError::Corrupt(w),
        SzError::Deflate(d) => DpzError::Deflate(d),
    }
}

fn zfp_err(e: ZfpError) -> DpzError {
    match e {
        ZfpError::Corrupt(w) => DpzError::Corrupt(w),
    }
}

/// The SZ/ZFP baseline cores `assert!` on unsupported geometry; turn those
/// preconditions into [`DpzError::BadInput`] at the trait boundary.
pub(crate) fn check_baseline_geometry(dims: &[usize]) -> Result<(), DpzError> {
    if !(1..=3).contains(&dims.len()) {
        return Err(DpzError::BadInput("baseline codecs support 1-3 dimensions"));
    }
    if dims.contains(&0) {
        return Err(DpzError::BadInput("zero-sized dimension"));
    }
    Ok(())
}

/// Single-stream DPZ (`DPZ1`): the paper's Stage 1–3 pipeline.
#[derive(Debug, Clone, Copy)]
pub struct DpzCodec {
    /// Pipeline configuration used by [`Codec::compress_into`].
    pub cfg: DpzConfig,
}

impl DpzCodec {
    /// DPZ with the given pipeline configuration.
    pub fn new(cfg: DpzConfig) -> Self {
        DpzCodec { cfg }
    }
}

impl Default for DpzCodec {
    /// DPZ-l (`loose`) — the paper's high-ratio operating point.
    fn default() -> Self {
        DpzCodec::new(DpzConfig::loose())
    }
}

impl Codec for DpzCodec {
    fn name(&self) -> &'static str {
        "dpz"
    }

    fn compress_into(
        &self,
        src: &[f32],
        dims: &[usize],
        dst: &mut dyn Write,
    ) -> Result<CodecStats, DpzError> {
        let out = dpz_core::compress(src, dims, &self.cfg)?;
        write_stream(dst, &out.bytes)?;
        Ok(CodecStats {
            codec: "dpz",
            bytes_in: (src.len() * 4) as u64,
            bytes_out: out.bytes.len() as u64,
            dpz: Some(out.stats),
        })
    }

    fn compress_with_target(
        &self,
        src: &[f32],
        dims: &[usize],
        target: &QualityTarget,
        dst: &mut dyn Write,
    ) -> Result<CodecStats, DpzError> {
        DpzCodec::new(self.cfg.with_target(*target)).compress_into(src, dims, dst)
    }

    fn decompress_from(&self, src: &mut dyn Read) -> Result<Decoded, DpzError> {
        let bytes = read_all(src)?;
        let (values, dims, info) = dpz_core::decompress_with_info(&bytes)?;
        Ok(Decoded {
            values,
            dims,
            format: Format::Dpz,
            info: Some(info),
        })
    }

    fn probe(
        &self,
        src: &[f32],
        dims: &[usize],
        target: &QualityTarget,
    ) -> Result<CodecProbe, DpzError> {
        dpz_probe("dpz", &self.cfg, src, dims, target)
    }

    fn sniff(&self, header: &[u8]) -> Option<Format> {
        sniff(header, Format::Dpz)
    }
}

/// Chunked DPZ (`DPZC`): the same stage chain run once per slab, with
/// slab-granular random access.
#[derive(Debug, Clone, Copy)]
pub struct DpzChunkedCodec {
    /// Pipeline configuration for every slab.
    pub cfg: DpzConfig,
    /// Number of slabs along the slowest axis.
    pub chunks: usize,
    /// Emit progressive chunk streams (energy-ordered PCA components with
    /// per-component byte ranges in the footer) instead of plain `DPZ1`
    /// inner streams. Enables budgeted retrieval at a small ratio cost.
    pub progressive: bool,
}

impl DpzChunkedCodec {
    /// Chunked DPZ with the given configuration and slab count.
    pub fn new(cfg: DpzConfig, chunks: usize) -> Self {
        DpzChunkedCodec {
            cfg,
            chunks,
            progressive: false,
        }
    }

    /// Same, but writing progressive chunk streams.
    pub fn progressive(cfg: DpzConfig, chunks: usize) -> Self {
        DpzChunkedCodec {
            cfg,
            chunks,
            progressive: true,
        }
    }
}

impl Default for DpzChunkedCodec {
    /// DPZ-l with 4 slabs (the sweet spot of the ratio/parallelism
    /// trade-off at default scales; see `dpz_core::chunked`).
    fn default() -> Self {
        DpzChunkedCodec::new(DpzConfig::loose(), 4)
    }
}

impl Codec for DpzChunkedCodec {
    fn name(&self) -> &'static str {
        "dpzc"
    }

    fn compress_into(
        &self,
        src: &[f32],
        dims: &[usize],
        dst: &mut dyn Write,
    ) -> Result<CodecStats, DpzError> {
        let out = if self.progressive {
            dpz_core::compress_progressive(src, dims, &self.cfg, self.chunks)?
        } else {
            dpz_core::compress_chunked(src, dims, &self.cfg, self.chunks)?
        };
        write_stream(dst, &out.bytes)?;
        // Report the first slab's stage breakdown as representative; the
        // aggregate ratio is exact. Progressive containers carry no stage
        // stats, so `dpz` is simply absent for them.
        let dpz = out.chunk_stats.into_iter().next();
        Ok(CodecStats {
            codec: "dpzc",
            bytes_in: (src.len() * 4) as u64,
            bytes_out: out.bytes.len() as u64,
            dpz,
        })
    }

    fn compress_with_target(
        &self,
        src: &[f32],
        dims: &[usize],
        target: &QualityTarget,
        dst: &mut dyn Write,
    ) -> Result<CodecStats, DpzError> {
        let mut resolved = *self;
        resolved.cfg = self.cfg.with_target(*target);
        resolved.compress_into(src, dims, dst)
    }

    fn decompress_from(&self, src: &mut dyn Read) -> Result<Decoded, DpzError> {
        let bytes = read_all(src)?;
        let (values, dims, info) = dpz_core::decompress_chunked_with_info(&bytes)?;
        Ok(Decoded {
            values,
            dims,
            format: Format::DpzChunked,
            info: Some(info),
        })
    }

    fn probe(
        &self,
        src: &[f32],
        dims: &[usize],
        target: &QualityTarget,
    ) -> Result<CodecProbe, DpzError> {
        // The oracle models the shared pipeline; per-slab framing overhead
        // is inside the noise the confirmation pass absorbs.
        dpz_probe("dpzc", &self.cfg, src, dims, target)
    }

    fn sniff(&self, header: &[u8]) -> Option<Format> {
        sniff(header, Format::DpzChunked)
    }
}

/// An SZ stream and the values it decodes to, as
/// [`dpz_sz::compress_reconstructed`] returns them.
type SzCoded = (Vec<u8>, Vec<f64>);

/// SZ-style baseline (`SZR1`): Lorenzo prediction + linear-scaling
/// quantization + Huffman.
#[derive(Debug, Clone, Copy)]
pub struct SzCodec {
    /// Error-bound configuration.
    pub cfg: SzConfig,
}

impl SzCodec {
    /// SZ with the given configuration.
    pub fn new(cfg: SzConfig) -> Self {
        SzCodec { cfg }
    }
}

impl Default for SzCodec {
    /// Absolute error bound 1e-3 with Lorenzo prediction.
    fn default() -> Self {
        SzCodec::new(SzConfig::with_error_bound(1e-3))
    }
}

impl SzCodec {
    /// This codec's knobs at absolute error bound `eb`.
    fn at_bound(&self, eb: f64) -> SzConfig {
        SzConfig {
            error_bound: eb,
            ..self.cfg
        }
    }

    /// Map a [`QualityTarget`] to an absolute error bound for this input.
    /// Bounds and PSNR have closed forms over the input's value range
    /// ([`Request::new`]); a ratio target searches the bound space by
    /// micro-compressing the 1-D view of the [`PROBE_CAP`] prefix (the
    /// measurement *is* the oracle — SZ is cheap enough that measuring
    /// beats modelling).
    ///
    /// Also returns that prefix view compressed at the bound, with its
    /// reconstruction, when the search's last evaluation was at it, which
    /// it is unless a search that used up its probes fell back to an
    /// earlier point.
    fn resolve_bound(
        &self,
        src: &[f32],
        target: &QualityTarget,
    ) -> Result<(f64, Option<SzCoded>), DpzError> {
        target.validate()?;
        let (_, range) = value_extent(src);
        match Request::new(target, range) {
            Request::Bound(eb) => Ok((eb, None)),
            Request::Ratio { target: t, tol } => {
                let sample = &src[..src.len().min(PROBE_CAP)];
                let last = RefCell::new((f64::NAN, None));
                let predict = |eb: f64| {
                    let coded =
                        dpz_sz::compress_reconstructed(sample, &[sample.len()], &self.at_bound(eb));
                    let cr = (sample.len() * 4) as f64 / coded.0.len().max(1) as f64;
                    *last.borrow_mut() = (eb, Some(coded));
                    cr
                };
                let outcome =
                    dpz_core::search_bound_for_ratio(predict, 1e-7 * range, 0.3 * range, t, tol)?;
                let (eb, coded) = last.into_inner();
                Ok((outcome.p, coded.filter(|_| eb == outcome.p)))
            }
        }
    }
}

impl Codec for SzCodec {
    fn name(&self) -> &'static str {
        "sz"
    }

    fn compress_into(
        &self,
        src: &[f32],
        dims: &[usize],
        dst: &mut dyn Write,
    ) -> Result<CodecStats, DpzError> {
        check_dims(src, dims)?;
        check_baseline_geometry(dims)?;
        let bytes = dpz_sz::compress(src, dims, &self.cfg);
        write_stream(dst, &bytes)?;
        Ok(CodecStats {
            codec: "sz",
            bytes_in: (src.len() * 4) as u64,
            bytes_out: bytes.len() as u64,
            dpz: None,
        })
    }

    fn compress_with_target(
        &self,
        src: &[f32],
        dims: &[usize],
        target: &QualityTarget,
        dst: &mut dyn Write,
    ) -> Result<CodecStats, DpzError> {
        check_dims(src, dims)?;
        check_baseline_geometry(dims)?;
        let (eb, _) = self.resolve_bound(src, target)?;
        SzCodec::new(self.at_bound(eb)).compress_into(src, dims, dst)
    }

    fn decompress_from(&self, src: &mut dyn Read) -> Result<Decoded, DpzError> {
        let bytes = read_all(src)?;
        let (values, dims) = dpz_sz::decompress(&bytes).map_err(sz_err)?;
        Ok(Decoded {
            values,
            dims,
            format: Format::Sz,
            info: None,
        })
    }

    /// Resolves `target` exactly as [`Codec::compress_with_target`] does —
    /// the value range from the whole input, a ratio search on the 1-D view
    /// of the [`PROBE_CAP`] prefix — and measures that prefix view at the
    /// resolved bound, reusing the search's last evaluation when it is at
    /// that bound. The PSNR comes from the encoder's own reconstruction,
    /// which is the decode bit for bit. Reports `resolved = ErrorBound(eb)`.
    fn probe(
        &self,
        src: &[f32],
        dims: &[usize],
        target: &QualityTarget,
    ) -> Result<CodecProbe, DpzError> {
        check_dims(src, dims)?;
        check_baseline_geometry(dims)?;
        let (eb, searched) = self.resolve_bound(src, target)?;
        let sample = &src[..src.len().min(PROBE_CAP)];
        let (bytes, values) = searched.unwrap_or_else(|| {
            dpz_sz::compress_reconstructed(sample, &[sample.len()], &self.at_bound(eb))
        });
        Ok(CodecProbe {
            codec: "sz",
            predicted_cr: (sample.len() * 4) as f64 / bytes.len().max(1) as f64,
            predicted_psnr: probe_psnr(sample, &values),
            prefix_values: sample.len(),
            resolved: QualityTarget::ErrorBound(eb),
        })
    }

    fn sniff(&self, header: &[u8]) -> Option<Format> {
        sniff(header, Format::Sz)
    }
}

/// ZFP-style baseline (`ZFR1`): block transform + embedded bit-plane
/// coding.
#[derive(Debug, Clone, Copy)]
pub struct ZfpCodec {
    /// Compression mode (precision / accuracy / rate).
    pub mode: ZfpMode,
}

impl ZfpCodec {
    /// ZFP in the given mode.
    pub fn new(mode: ZfpMode) -> Self {
        ZfpCodec { mode }
    }
}

impl Default for ZfpCodec {
    /// Fixed accuracy 1e-3 — comparable to the default SZ bound.
    fn default() -> Self {
        ZfpCodec::new(ZfpMode::FixedAccuracy(1e-3))
    }
}

impl ZfpCodec {
    /// Map a [`QualityTarget`] to a native ZFP mode for this input: bounds
    /// and PSNR to fixed accuracy at their value-domain bound
    /// ([`Request::new`] over the whole input's range), a ratio to fixed
    /// rate, which hits it *exactly* — 32 uncompressed bits per value over
    /// `32/target` coded bits.
    fn resolve_mode(src: &[f32], target: &QualityTarget) -> Result<ZfpMode, DpzError> {
        target.validate()?;
        Ok(match Request::new(target, value_extent(src).1) {
            Request::Bound(eb) => ZfpMode::FixedAccuracy(eb),
            Request::Ratio { target, .. } => ZfpMode::FixedRate(32.0 / target),
        })
    }
}

impl Codec for ZfpCodec {
    fn name(&self) -> &'static str {
        "zfp"
    }

    fn compress_into(
        &self,
        src: &[f32],
        dims: &[usize],
        dst: &mut dyn Write,
    ) -> Result<CodecStats, DpzError> {
        check_dims(src, dims)?;
        check_baseline_geometry(dims)?;
        let bytes = dpz_zfp::compress(src, dims, self.mode);
        write_stream(dst, &bytes)?;
        Ok(CodecStats {
            codec: "zfp",
            bytes_in: (src.len() * 4) as u64,
            bytes_out: bytes.len() as u64,
            dpz: None,
        })
    }

    fn compress_with_target(
        &self,
        src: &[f32],
        dims: &[usize],
        target: &QualityTarget,
        dst: &mut dyn Write,
    ) -> Result<CodecStats, DpzError> {
        check_dims(src, dims)?;
        check_baseline_geometry(dims)?;
        let mode = ZfpCodec::resolve_mode(src, target)?;
        ZfpCodec::new(mode).compress_into(src, dims, dst)
    }

    fn decompress_from(&self, src: &mut dyn Read) -> Result<Decoded, DpzError> {
        let bytes = read_all(src)?;
        let (values, dims) = dpz_zfp::decompress(&bytes).map_err(zfp_err)?;
        Ok(Decoded {
            values,
            dims,
            format: Format::Zfp,
            info: None,
        })
    }

    /// Resolves `target` exactly as [`Codec::compress_with_target`] does —
    /// the mode from the whole input's value range — and measures the 1-D
    /// view of the [`PROBE_CAP`] prefix in that mode. Every target maps to
    /// a mode in closed form, so the request is reported unchanged as
    /// `resolved`.
    fn probe(
        &self,
        src: &[f32],
        dims: &[usize],
        target: &QualityTarget,
    ) -> Result<CodecProbe, DpzError> {
        check_dims(src, dims)?;
        check_baseline_geometry(dims)?;
        let mode = ZfpCodec::resolve_mode(src, target)?;
        let sample = &src[..src.len().min(PROBE_CAP)];
        let bytes = dpz_zfp::compress(sample, &[sample.len()], mode);
        let (values, _) = dpz_zfp::decompress(&bytes).map_err(zfp_err)?;
        Ok(CodecProbe {
            codec: "zfp",
            predicted_cr: (sample.len() * 4) as f64 / bytes.len().max(1) as f64,
            predicted_psnr: probe_psnr(sample, &values),
            prefix_values: sample.len(),
            resolved: *target,
        })
    }

    fn sniff(&self, header: &[u8]) -> Option<Format> {
        sniff(header, Format::Zfp)
    }
}
