//! [`Codec`] implementations for the four concrete backends.

use crate::{check_dims, io_err, read_all, Codec, CodecProbe, CodecStats, Decoded, Format};
use dpz_core::{DpzConfig, DpzError, QualityTarget, RatioOracle};
use dpz_sz::{SzConfig, SzError};
use dpz_zfp::{ZfpError, ZfpMode};
use std::io::{Read, Write};

fn write_stream(dst: &mut dyn Write, bytes: &[u8]) -> Result<(), DpzError> {
    dst.write_all(bytes).map_err(io_err)
}

fn sniff(header: &[u8], format: Format) -> Option<Format> {
    (header.len() >= 4 && &header[..4] == format.magic()).then_some(format)
}

/// Value range of the input — the denominator of the relative-bound and
/// PSNR target mappings for the baselines (which, unlike DPZ, do not
/// normalize internally).
fn value_range(data: &[f32]) -> f64 {
    let (lo, hi) = data
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(f64::from(v)), hi.max(f64::from(v)))
        });
    if hi - lo > 0.0 {
        hi - lo
    } else {
        1.0
    }
}

/// Closed-form value-domain bound for a PSNR target: uniform quantization
/// noise `eb²/3` against range-referenced PSNR, with the same 3 dB headroom
/// the DPZ control loop reserves for secondary error sources.
fn baseline_bound_for_psnr(db: f64, range: f64) -> f64 {
    3f64.sqrt() * range * 10f64.powf(-(db + 3.0) / 20.0)
}

/// DPZ quality prediction shared by the single-stream and chunked wrappers:
/// resolve the target to a quantizer bound (closed form or oracle search)
/// and read CR off the sampling oracle, PSNR off the bound.
fn dpz_probe(
    codec: &'static str,
    cfg: &DpzConfig,
    src: &[f32],
    dims: &[usize],
    target: &QualityTarget,
) -> Result<CodecProbe, DpzError> {
    check_dims(src, dims)?;
    target.validate()?;
    let cfg = cfg.with_target(*target);
    let oracle = RatioOracle::build(src, &cfg)?;
    let (p, cr) = match *target {
        QualityTarget::Ratio { target: t, tol } => {
            let outcome = dpz_core::search_bound_for_ratio(
                |p| oracle.predict_cr(p, cfg.wide_for(p)),
                dpz_core::P_SEARCH_MIN,
                dpz_core::P_SEARCH_MAX,
                t,
                tol,
            )?;
            (outcome.p, outcome.predicted_cr)
        }
        QualityTarget::Psnr(db) => {
            let p = dpz_core::bound_for_psnr(db);
            (p, oracle.predict_cr(p, cfg.wide_for(p)))
        }
        _ => {
            let scheme = cfg.resolved_scheme()?;
            (scheme.p, oracle.predict_cr(scheme.p, scheme.wide_index))
        }
    };
    Ok(CodecProbe {
        codec,
        predicted_cr: cr,
        predicted_psnr: dpz_core::psnr_for_bound(p),
        prefix_values: src.len().min(dpz_core::PROBE_CAP),
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
fn check_baseline_geometry(dims: &[usize]) -> Result<(), DpzError> {
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
    /// Map a [`QualityTarget`] to an absolute error bound for this input.
    /// Bounds and PSNR have closed forms; a ratio target searches the
    /// bound space by micro-compressing a bounded prefix (the measurement
    /// *is* the oracle — SZ is cheap enough that measuring beats
    /// modelling).
    fn resolve_bound(&self, src: &[f32], target: &QualityTarget) -> Result<f64, DpzError> {
        target.validate()?;
        let range = value_range(src);
        match *target {
            QualityTarget::ErrorBound(b) => Ok(b),
            QualityTarget::RelBound(r) => Ok(r * range),
            QualityTarget::Psnr(db) => Ok(baseline_bound_for_psnr(db, range)),
            QualityTarget::Ratio { target: t, tol } => {
                let n = src.len().min(dpz_core::PROBE_CAP);
                let sample = &src[..n];
                let predict = |eb: f64| {
                    let cfg = SzConfig {
                        error_bound: eb,
                        ..self.cfg
                    };
                    let bytes = dpz_sz::compress(sample, &[n], &cfg);
                    (n * 4) as f64 / bytes.len().max(1) as f64
                };
                let outcome =
                    dpz_core::search_bound_for_ratio(predict, 1e-7 * range, 0.3 * range, t, tol)?;
                Ok(outcome.p)
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
        let eb = self.resolve_bound(src, target)?;
        let cfg = SzConfig {
            error_bound: eb,
            ..self.cfg
        };
        SzCodec::new(cfg).compress_into(src, dims, dst)
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
        target.validate()?;
        let range = value_range(src);
        // Every target maps to a native ZFP mode: bounds and PSNR to fixed
        // accuracy, ratio to fixed rate (which hits the ratio *exactly* —
        // 32 uncompressed bits per value over `32/target` coded bits).
        let mode = match *target {
            QualityTarget::ErrorBound(b) => ZfpMode::FixedAccuracy(b),
            QualityTarget::RelBound(r) => ZfpMode::FixedAccuracy(r * range),
            QualityTarget::Psnr(db) => ZfpMode::FixedAccuracy(baseline_bound_for_psnr(db, range)),
            QualityTarget::Ratio { target: t, .. } => ZfpMode::FixedRate(32.0 / t),
        };
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

    fn sniff(&self, header: &[u8]) -> Option<Format> {
        sniff(header, Format::Zfp)
    }
}
