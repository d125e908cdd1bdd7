//! One-call compression runners for the three evaluated compressors,
//! returning the metrics every figure/table needs.

use dpz_codec::{Codec, SzCodec, ZfpCodec};
use dpz_core::{compress, decompress, DpzConfig, DpzError};
use dpz_data::metrics::{value_range, QualityReport};
use dpz_data::Dataset;
use dpz_sz::SzConfig;
use dpz_telemetry::Snapshot;
use dpz_zfp::ZfpMode;
use std::time::{Duration, Instant};

/// Result of one compression run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Compressor label ("DPZ-l", "SZ", …).
    pub label: String,
    /// Parameter description ("tve=99.999%", "eb=1e-3", …).
    pub setting: String,
    /// Quality + rate metrics.
    pub report: QualityReport,
    /// Wall-clock compression time.
    pub compress_time: Duration,
    /// Wall-clock decompression time.
    pub decompress_time: Duration,
    /// The reconstruction (for visualization experiments).
    pub reconstructed: Vec<f32>,
    /// Global-registry delta captured around this run (counters, gauges,
    /// span/stage histograms). Only activity from this run when runs execute
    /// sequentially — concurrent runs share the process-wide registry.
    pub metrics: Snapshot,
}

impl RunResult {
    /// MB/s throughput for compression.
    pub fn compress_mbps(&self, nbytes: usize) -> f64 {
        nbytes as f64 / 1e6 / self.compress_time.as_secs_f64().max(1e-12)
    }

    /// MB/s throughput for decompression.
    pub fn decompress_mbps(&self, nbytes: usize) -> f64 {
        nbytes as f64 / 1e6 / self.decompress_time.as_secs_f64().max(1e-12)
    }
}

/// Run DPZ end to end. Returns the run result plus the compressor stats.
pub fn run_dpz(
    ds: &Dataset,
    cfg: &DpzConfig,
    label: &str,
    setting: &str,
) -> Result<(RunResult, dpz_core::pipeline::CompressionStats), dpz_core::DpzError> {
    let before = dpz_telemetry::global().snapshot();
    let t = Instant::now();
    let out = compress(&ds.data, &ds.dims, cfg)?;
    let compress_time = t.elapsed();
    let t = Instant::now();
    let (recon, _) = decompress(&out.bytes)?;
    let decompress_time = t.elapsed();
    let metrics = dpz_telemetry::global().snapshot().since(&before);
    let report = QualityReport::evaluate(&ds.data, &recon, out.bytes.len());
    Ok((
        RunResult {
            label: label.to_string(),
            setting: setting.to_string(),
            report,
            compress_time,
            decompress_time,
            reconstructed: recon,
            metrics,
        },
        out.stats,
    ))
}

/// Run any [`Codec`] end to end with the standard timing/metrics capture.
/// The baseline runners below are thin settings-wrappers over this.
pub fn run_codec(
    codec: &dyn Codec,
    ds: &Dataset,
    label: &str,
    setting: &str,
) -> Result<RunResult, DpzError> {
    let before = dpz_telemetry::global().snapshot();
    let t = Instant::now();
    let mut bytes = Vec::new();
    codec.compress_into(&ds.data, &ds.dims, &mut bytes)?;
    let compress_time = t.elapsed();
    let t = Instant::now();
    let decoded = codec.decompress_from(&mut &bytes[..])?;
    let decompress_time = t.elapsed();
    let metrics = dpz_telemetry::global().snapshot().since(&before);
    let report = QualityReport::evaluate(&ds.data, &decoded.values, bytes.len());
    Ok(RunResult {
        label: label.to_string(),
        setting: setting.to_string(),
        report,
        compress_time,
        decompress_time,
        reconstructed: decoded.values,
        metrics,
    })
}

/// Run the SZ baseline at an absolute error bound.
pub fn run_sz(ds: &Dataset, error_bound: f64) -> Result<RunResult, DpzError> {
    let cfg = SzConfig::with_error_bound(error_bound);
    run_codec(
        &SzCodec::new(cfg),
        ds,
        "SZ",
        &format!("eb={error_bound:.1e}"),
    )
}

/// Run SZ at a *range-relative* bound (`rel × value range`), the way the
/// paper sweeps its rate-distortion curves.
pub fn run_sz_relative(ds: &Dataset, rel: f64) -> Result<RunResult, DpzError> {
    let range = value_range(&ds.data).max(f64::MIN_POSITIVE);
    let mut r = run_sz(ds, rel * range)?;
    r.setting = format!("rel={rel:.0e}");
    Ok(r)
}

/// Run SZ with the hybrid (SZ 2.0) predictor at a range-relative bound.
pub fn run_sz_auto_relative(ds: &Dataset, rel: f64) -> Result<RunResult, DpzError> {
    let range = value_range(&ds.data).max(f64::MIN_POSITIVE);
    let cfg = SzConfig::with_error_bound(rel * range).with_predictor(dpz_sz::Predictor::Auto);
    run_codec(&SzCodec::new(cfg), ds, "SZ-auto", &format!("rel={rel:.0e}"))
}

/// Run the ZFP baseline.
pub fn run_zfp(ds: &Dataset, mode: ZfpMode) -> Result<RunResult, DpzError> {
    let setting = match mode {
        ZfpMode::FixedPrecision(p) => format!("prec={p}"),
        ZfpMode::FixedAccuracy(tol) => format!("tol={tol:.1e}"),
        ZfpMode::FixedRate(rate) => format!("rate={rate:.2}"),
    };
    run_codec(&ZfpCodec::new(mode), ds, "ZFP", &setting)
}

/// The relative error bounds swept for SZ in rate-distortion figures.
pub const SZ_REL_BOUNDS: [f64; 6] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6];
/// The precisions swept for ZFP in rate-distortion figures.
pub const ZFP_PRECISIONS: [u32; 6] = [6, 10, 14, 18, 22, 26];

#[cfg(test)]
mod tests {
    use super::*;
    use dpz_core::TveLevel;
    use dpz_data::{DatasetKind, Scale};

    fn tiny(kind: DatasetKind) -> Dataset {
        Dataset::generate(kind, Scale::Tiny, 11)
    }

    #[test]
    fn dpz_runner_produces_consistent_report() {
        let ds = tiny(DatasetKind::Fldsc);
        let cfg = DpzConfig::loose().with_tve(TveLevel::FiveNines);
        let (run, stats) = run_dpz(&ds, &cfg, "DPZ-l", "tve=5").unwrap();
        assert_eq!(run.reconstructed.len(), ds.len());
        assert!(run.report.compression_ratio > 1.0);
        assert!((run.report.compression_ratio - stats.cr_total).abs() < 1e-9);
        assert!(run.report.psnr > 20.0);
    }

    #[test]
    fn sz_runner_respects_relative_bound() {
        let ds = tiny(DatasetKind::Cldhgh);
        let run = run_sz_relative(&ds, 1e-3).unwrap();
        let range = value_range(&ds.data);
        assert!(run.report.max_abs_error <= 1e-3 * range * 1.001);
    }

    #[test]
    fn zfp_runner_works_on_3d() {
        let ds = tiny(DatasetKind::Isotropic);
        let run = run_zfp(&ds, ZfpMode::FixedPrecision(20)).unwrap();
        assert!(run.report.psnr > 30.0, "psnr {}", run.report.psnr);
        assert!(run.report.compression_ratio > 1.0);
    }

    #[test]
    fn generic_codec_runner_accepts_any_backend() {
        let ds = tiny(DatasetKind::Fldsc);
        let run = run_codec(&dpz_codec::AutoCodec::new(), &ds, "AUTO", "default").unwrap();
        assert_eq!(run.reconstructed.len(), ds.len());
        assert!(run.report.compression_ratio > 1.0);
    }

    #[test]
    fn throughput_helpers_positive() {
        let ds = tiny(DatasetKind::HaccX);
        let run = run_sz(&ds, 1e-2).unwrap();
        assert!(run.compress_mbps(ds.nbytes()) > 0.0);
        assert!(run.decompress_mbps(ds.nbytes()) > 0.0);
    }

    #[test]
    fn runners_capture_registry_delta() {
        let ds = tiny(DatasetKind::Fldsc);
        let cfg = DpzConfig::loose().with_tve(TveLevel::FiveNines);
        let (run, _) = run_dpz(&ds, &cfg, "DPZ-l", "tve=5").unwrap();
        assert!(!run.metrics.is_empty());
        assert!(
            run.metrics
                .counter(
                    "dpz_bytes_in_total",
                    &[("codec", "dpz"), ("op", "compress")]
                )
                .unwrap_or(0)
                >= ds.nbytes() as u64
        );
        let pca = run
            .metrics
            .histogram("dpz_span_seconds", &[("span", "stage2.pca")])
            .expect("stage span histogram in delta");
        assert!(pca.count >= 1);

        let sz = run_sz(&ds, 1e-3).unwrap();
        assert!(
            sz.metrics
                .counter("dpz_bytes_in_total", &[("codec", "sz"), ("op", "compress")])
                .unwrap_or(0)
                >= ds.nbytes() as u64
        );

        let zfp = run_zfp(&ds, ZfpMode::FixedPrecision(20)).unwrap();
        assert!(
            zfp.metrics
                .counter(
                    "dpz_bytes_in_total",
                    &[("codec", "zfp"), ("op", "compress")]
                )
                .unwrap_or(0)
                >= ds.nbytes() as u64
        );
    }
}
