//! Per-input backend selection (the paper's §V predictor, used the way
//! Tao et al. use online sampling to pick between SZ and ZFP).

use crate::wrappers::{check_baseline_geometry, DpzCodec, SzCodec, ZfpCodec};
use crate::{check_dims, read_all, Codec, CodecProbe, CodecStats, Decoded, Format};
use dpz_core::decompose::{choose_shape, stage1};
use dpz_core::{DpzConfig, DpzError, QualityTarget, SamplingStrategy, Stage1Transform, PROBE_CAP};
use std::io::{Read, Write};

/// Below this many values the DPZ block matrix is too small for the VIF
/// probe to mean anything; hand tiny inputs straight to SZ.
const TINY_INPUT: usize = 256;

/// Pessimistic predicted DPZ ratio at/above which the loose scheme (1-byte
/// indices) is safe; below it the strict scheme preserves more signal for
/// barely-compressible data.
const LOOSE_CR_THRESHOLD: f64 = 4.0;

/// Chooses a backend per input, then compresses with it.
///
/// Selection runs on a prefix sample (at most 64Ki values):
///
/// * **DPZ** is scored with the paper's sampling predictor — stage-1 DCT on
///   the sample, then Algorithm 2's `CR_p` — taking the *pessimistic* end
///   of the predicted range so DPZ only wins when it is confidently ahead.
/// * **SZ** and **ZFP** are scored by actually micro-compressing the sample
///   (they are cheap enough that measuring beats modelling).
///
/// The winner by predicted/measured ratio encodes the full input; when DPZ
/// wins, the scheme is DPZ-l if the pessimistic prediction clears 4x,
/// DPZ-s otherwise.
///
/// Toward a [`QualityTarget`], every eligible backend is probed at the
/// target ([`AutoCodec::probe_all`]), [`AutoCodec::select_probe`] picks
/// the winner, and the winner compresses at the target its probe resolved
/// ([`CodecProbe::resolved`]): an SZ winner writes at the bound its probe
/// already searched, so a ratio request runs SZ's search once.
///
/// Every selection increments the `dpz_codec_selected_total{codec}`
/// counter, and the returned [`CodecStats::codec`] names the backend that
/// actually ran.
pub struct AutoCodec {
    /// SZ candidate (also the fallback for tiny inputs).
    pub sz: SzCodec,
    /// ZFP candidate.
    pub zfp: ZfpCodec,
    /// Sampling strategy driving the DPZ prediction.
    pub strategy: SamplingStrategy,
}

impl AutoCodec {
    /// Selector over the default-configured backends.
    pub fn new() -> Self {
        AutoCodec {
            sz: SzCodec::default(),
            zfp: ZfpCodec::default(),
            strategy: SamplingStrategy::default(),
        }
    }

    /// Which backend would compress `src`, without compressing it.
    ///
    /// Returns the codec name (`"dpz"`, `"sz"`, or `"zfp"`) and, for DPZ,
    /// the pessimistic predicted ratio that drove the choice.
    pub fn select(&self, src: &[f32], dims: &[usize]) -> Result<Selection, DpzError> {
        check_dims(src, dims)?;
        let baseline_ok = check_baseline_geometry(dims).is_ok();
        if src.len() < TINY_INPUT {
            // DPZ's sampling probe needs a real block matrix; SZ degrades
            // most gracefully at this scale. Fall back to DPZ only when the
            // geometry rules the baselines out entirely.
            return Ok(if baseline_ok {
                Selection::Sz
            } else {
                Selection::Dpz {
                    cr_predicted: 0.0,
                    loose: false,
                }
            });
        }

        let _probe_span = dpz_telemetry::span!("auto.select");
        let sample = &src[..src.len().min(PROBE_CAP)];
        let dpz_cr = {
            let _s = dpz_telemetry::span!("auto.predict_dpz");
            self.predict_dpz(sample).unwrap_or(0.0)
        };

        let (sz_cr, zfp_cr) = if baseline_ok {
            let sz_cr = {
                let _s = dpz_telemetry::span!("auto.probe_sz");
                probe_ratio(&self.sz, sample)
            };
            let zfp_cr = {
                let _s = dpz_telemetry::span!("auto.probe_zfp");
                probe_ratio(&self.zfp, sample)
            };
            (sz_cr, zfp_cr)
        } else {
            (0.0, 0.0)
        };

        let best = [dpz_cr, sz_cr, zfp_cr]
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(if dpz_cr >= best {
            Selection::Dpz {
                cr_predicted: dpz_cr,
                loose: dpz_cr >= LOOSE_CR_THRESHOLD,
            }
        } else if sz_cr >= zfp_cr {
            Selection::Sz
        } else {
            Selection::Zfp
        })
    }

    /// Quality predictions for every eligible backend at `target`, in
    /// registry order. Backends whose probe fails (bad geometry, target
    /// out of range) are simply absent — the caller picks among the rest.
    pub fn probe_all(
        &self,
        src: &[f32],
        dims: &[usize],
        target: &QualityTarget,
    ) -> Result<Vec<CodecProbe>, DpzError> {
        check_dims(src, dims)?;
        target.validate()?;
        let baseline_ok = check_baseline_geometry(dims).is_ok();
        let mut probes = Vec::new();
        if src.len() >= TINY_INPUT {
            let _s = dpz_telemetry::span!("auto.probe_dpz");
            if let Ok(p) = DpzCodec::default().probe(src, dims, target) {
                probes.push(p);
            }
        }
        if baseline_ok {
            {
                let _s = dpz_telemetry::span!("auto.probe_sz");
                if let Ok(p) = self.sz.probe(src, dims, target) {
                    probes.push(p);
                }
            }
            let _s = dpz_telemetry::span!("auto.probe_zfp");
            if let Ok(p) = self.zfp.probe(src, dims, target) {
                probes.push(p);
            }
        }
        if probes.is_empty() {
            return Err(DpzError::BadInput(
                "no backend can probe this input/target combination",
            ));
        }
        Ok(probes)
    }

    /// Rate-distortion-optimal choice among `probes` for `target` (Tao et
    /// al.'s online selection, generalized): at a fixed ratio take the best
    /// predicted quality among backends predicted to reach the ratio; at a
    /// fixed quality take the best predicted ratio among backends predicted
    /// to reach the quality; for plain bounds take the best predicted
    /// ratio. When no backend is predicted to reach the target, the least
    /// bad one is returned — the real compression then lands or fails
    /// typed.
    pub fn select_probe(probes: &[CodecProbe], target: &QualityTarget) -> Option<CodecProbe> {
        let max_by = |probes: &[CodecProbe], key: fn(&CodecProbe) -> f64| {
            probes
                .iter()
                .copied()
                .max_by(|a, b| key(a).total_cmp(&key(b)))
        };
        match *target {
            QualityTarget::Ratio { target: t, tol } => {
                let eligible: Vec<CodecProbe> = probes
                    .iter()
                    .copied()
                    .filter(|p| p.predicted_cr >= t * (1.0 - tol))
                    .collect();
                if eligible.is_empty() {
                    max_by(probes, |p| p.predicted_cr)
                } else {
                    max_by(&eligible, |p| p.predicted_psnr)
                }
            }
            QualityTarget::Psnr(db) => {
                let eligible: Vec<CodecProbe> = probes
                    .iter()
                    .copied()
                    .filter(|p| p.predicted_psnr >= db - dpz_core::PSNR_SLACK_DB)
                    .collect();
                if eligible.is_empty() {
                    max_by(probes, |p| p.predicted_psnr)
                } else {
                    max_by(&eligible, |p| p.predicted_cr)
                }
            }
            _ => max_by(probes, |p| p.predicted_cr),
        }
    }

    /// Pessimistic end of the paper's predicted CR range for the sample,
    /// estimated on the coefficients the pipeline's own stage 1 produces.
    fn predict_dpz(&self, sample: &[f32]) -> Option<f64> {
        let shape = choose_shape(sample.len());
        let (coeffs, _) = stage1(sample, shape, Stage1Transform::Dct);
        let est = self.strategy.estimate(&coeffs).ok()?;
        Some(est.cr_predicted.0)
    }
}

impl Default for AutoCodec {
    fn default() -> Self {
        AutoCodec::new()
    }
}

/// The outcome of [`AutoCodec::select`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Selection {
    /// DPZ pipeline, with the pessimistic predicted ratio and scheme choice.
    Dpz {
        /// Pessimistic end of the Algorithm 2 `CR_p` range on the sample.
        cr_predicted: f64,
        /// `true` → DPZ-l (1-byte indices); `false` → DPZ-s.
        loose: bool,
    },
    /// SZ baseline.
    Sz,
    /// ZFP baseline.
    Zfp,
}

impl Selection {
    /// Name of the selected backend.
    pub fn codec_name(self) -> &'static str {
        match self {
            Selection::Dpz { .. } => "dpz",
            Selection::Sz => "sz",
            Selection::Zfp => "zfp",
        }
    }
}

/// Measured compression ratio of a codec over a 1-D view of the sample
/// (0.0 when the probe fails — the candidate then never wins).
fn probe_ratio(codec: &dyn Codec, sample: &[f32]) -> f64 {
    let mut sink = Vec::new();
    match codec.compress_into(sample, &[sample.len()], &mut sink) {
        Ok(stats) => stats.ratio(),
        Err(_) => 0.0,
    }
}

impl Codec for AutoCodec {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn compress_into(
        &self,
        src: &[f32],
        dims: &[usize],
        dst: &mut dyn Write,
    ) -> Result<CodecStats, DpzError> {
        let selection = self.select(src, dims)?;
        dpz_telemetry::global()
            .counter_with(
                "dpz_codec_selected_total",
                &[("codec", selection.codec_name())],
            )
            .inc();
        // Tag the journal with the backend that won, so a trace file is
        // self-describing about which codec produced its pipeline spans.
        if dpz_telemetry::trace::journal_enabled() {
            dpz_telemetry::trace::instant(&format!("codec_selected.{}", selection.codec_name()));
        }
        match selection {
            Selection::Dpz { loose, .. } => {
                let cfg = if loose {
                    DpzConfig::loose()
                } else {
                    DpzConfig::strict()
                };
                DpzCodec::new(cfg).compress_into(src, dims, dst)
            }
            Selection::Sz => self.sz.compress_into(src, dims, dst),
            Selection::Zfp => self.zfp.compress_into(src, dims, dst),
        }
    }

    fn compress_with_target(
        &self,
        src: &[f32],
        dims: &[usize],
        target: &QualityTarget,
        dst: &mut dyn Write,
    ) -> Result<CodecStats, DpzError> {
        let probes = self.probe_all(src, dims, target)?;
        let winner =
            AutoCodec::select_probe(&probes, target).expect("probe_all guarantees non-empty");
        dpz_telemetry::global()
            .counter_with("dpz_codec_selected_total", &[("codec", winner.codec)])
            .inc();
        if dpz_telemetry::trace::journal_enabled() {
            dpz_telemetry::trace::instant(&format!("codec_selected.{}", winner.codec));
        }
        // The winner's probe already resolved the request on this input;
        // compressing at that target writes the same bytes without
        // resolving it again.
        let resolved = &winner.resolved;
        match winner.codec {
            "sz" => self.sz.compress_with_target(src, dims, resolved, dst),
            "zfp" => self.zfp.compress_with_target(src, dims, resolved, dst),
            _ => DpzCodec::default().compress_with_target(src, dims, resolved, dst),
        }
    }

    fn decompress_from(&self, src: &mut dyn Read) -> Result<Decoded, DpzError> {
        let bytes = read_all(src)?;
        crate::Registry::builtin().decompress(&bytes)
    }

    fn probe(
        &self,
        src: &[f32],
        dims: &[usize],
        target: &QualityTarget,
    ) -> Result<CodecProbe, DpzError> {
        let probes = self.probe_all(src, dims, target)?;
        Ok(AutoCodec::select_probe(&probes, target).expect("probe_all guarantees non-empty"))
    }

    fn sniff(&self, header: &[u8]) -> Option<Format> {
        Format::ALL
            .into_iter()
            .find(|f| header.len() >= 4 && &header[..4] == f.magic())
    }
}
