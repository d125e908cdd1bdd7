//! The end-to-end DPZ pipeline: compress, decompress, and the instrumented
//! breakdown variant that reports per-stage ratios and accuracy (the data
//! behind Tables III/IV and Figures 8/9 of the paper).
//!
//! The compression chain is straight-line code. A plan runs the four numeric
//! stages in order, then the lossless stage, each inside a telemetry span
//! named after the stage:
//!
//! ```text
//! stage1.decompose_dct → sampling → stage2.pca → stage3.quantize → lossless
//! ```
//!
//! [`StageTimings`] is read off those spans. [`compress`] plans and runs the
//! chain once; the chunked driver ([`crate::chunked`]) runs it once per slab
//! through shared plans; [`compress_with_breakdown`] runs it once and
//! re-runs the deterministic stage 1 to measure per-stage accuracy.

use crate::config::{DpzConfig, KSelection, Scheme, Stage1Transform, Standardize};
use crate::container::{
    self, checked_product, ContainerData, ContainerInfo, DpzError, SectionSizes,
};
use crate::decompose::{self, BlockShape};
use crate::kpca::select_k;
use crate::quantize::{dequantize_scores, quantize_scores, QuantizedScores};
use crate::sampling::{SamplingEstimate, SamplingStrategy};
use crate::target::{self, TargetArtifact};
use dpz_linalg::{Matrix, Pca, PcaOptions, RangeFinderOptions, SubspaceSeed, RANDOMIZED_MIN_M};
use dpz_telemetry::span;
use dpz_telemetry::span::Span;
use std::time::Duration;

/// Wall-clock time spent in each pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Stage 1: decomposition + block DCT.
    pub decompose_dct: Duration,
    /// Sampling strategy (zero when disabled).
    pub sampling: Duration,
    /// Stage 2: PCA fit + projection.
    pub pca: Duration,
    /// Stage 3: quantization.
    pub quantize: Duration,
    /// Lossless add-on (DEFLATE of all sections) + container assembly.
    pub lossless: Duration,
}

impl StageTimings {
    /// Total compression time.
    pub fn total(&self) -> Duration {
        self.decompose_dct + self.sampling + self.pca + self.quantize + self.lossless
    }
}

/// Statistics captured during compression.
#[derive(Debug, Clone)]
pub struct CompressionStats {
    /// Block count (PCA features).
    pub m: usize,
    /// Block length (PCA samples).
    pub n: usize,
    /// Retained components.
    pub k: usize,
    /// TVE achieved by the retained components.
    pub tve_achieved: f64,
    /// Whether features were standardized.
    pub standardized: bool,
    /// Per-stage wall-clock.
    pub timings: StageTimings,
    /// Raw/packed sizes per container section.
    pub sections: SectionSizes,
    /// Stage-1&2 ratio: original bytes over the f32 core (scores+basis+means).
    pub cr_stage12: f64,
    /// Stage-3 ratio: f32 core over quantized sections (pre-DEFLATE).
    pub cr_stage3: f64,
    /// Lossless ratio: pre-DEFLATE over post-DEFLATE bytes.
    pub cr_zlib: f64,
    /// End-to-end ratio: original bytes over the final container.
    pub cr_total: f64,
    /// Sampling estimate when the strategy ran.
    pub sampling: Option<SamplingEstimate>,
}

/// Output of [`compress`].
#[derive(Debug, Clone)]
pub struct Compressed {
    /// The self-describing DPZ container.
    pub bytes: Vec<u8>,
    /// Instrumentation.
    pub stats: CompressionStats,
}

impl TargetArtifact for Compressed {
    fn ratio(&self) -> f64 {
        self.stats.cr_total
    }

    fn decode(&self) -> Result<Vec<f32>, DpzError> {
        decompress(&self.bytes).map(|(values, _)| values)
    }
}

/// Validate and flatten-check the input of a public compression entry
/// point (plans trust their callers).
pub(crate) fn check_input(data: &[f32], dims: &[usize]) -> Result<(), DpzError> {
    if data.len() < 2 {
        return Err(DpzError::BadInput("need at least two values"));
    }
    if dims.is_empty() || checked_product(dims, "dims overflow").ok() != Some(data.len()) {
        return Err(DpzError::BadInput("dims do not match data length"));
    }
    if data.iter().any(|v| !v.is_finite()) {
        // A NaN poisons the DCT of its whole block and the PCA covariance;
        // the paper's datasets are finite, so reject early and loudly.
        return Err(DpzError::BadInput("non-finite values are not supported"));
    }
    Ok(())
}

// Stage names are the stage spans' names, and so the labels of the
// `dpz_span_seconds{span=…}` series each stage's time lands in, on the
// caller and on pool workers alike.
const STAGE1_NAME: &str = "stage1.decompose_dct";
const SAMPLING_NAME: &str = "sampling";
const STAGE2_NAME: &str = "stage2.pca";
const STAGE3_NAME: &str = "stage3.quantize";
const LOSSLESS_NAME: &str = "lossless";

/// Run one stage inside a span named after it. The body annotates the span;
/// the stage's time is read off the span just before it closes, so it never
/// exceeds the duration the span itself records.
fn in_span<T>(name: &'static str, body: impl FnOnce(&mut Span) -> T) -> (T, Duration) {
    let mut span = span::span(name);
    let out = body(&mut span);
    (out, span.elapsed())
}

/// Fixed randomized range-finder configuration shared by every fit the
/// pipeline routes through the sketched path. The seed is a compile-time
/// constant so artifacts are deterministic across runs, thread counts, and
/// kernel backends — the probe stream never depends on anything ambient.
/// Oversampling is tighter than the library default: every product in the
/// fit scales with the sketch width, and the one power iteration plus the
/// conservative Ritz-TVE rank selection already absorb the accuracy the
/// extra probes would buy.
pub(crate) const RF_OPTS: RangeFinderOptions = RangeFinderOptions {
    oversample: 8,
    power_iters: 1,
    seed: 0x5EED_0D12_F00D_CAFE,
};

/// The rank a stage-2 fit for `k` kept components asks for: `k` plus a 25%
/// (at least 2) margin.
pub(crate) fn rank_with_margin(k: usize) -> usize {
    k + (k / 4).max(2)
}

/// A stage-2 fit: the model, the sketch scores when the randomized arm ran,
/// and the converged basis to hand to the next similar buffer.
type Stage2Fit = (Pca, Option<Matrix>, Option<SubspaceSeed>);

/// Rank-bounded stage-2 fit of [`rank_with_margin`]`(k)` pairs through
/// [`Pca::fit_rank`]'s solver policy. The warm seed goes in, and the
/// converged basis is handed on only from the randomized arm — the one
/// that returns sketch scores. A wave that fitted densely therefore keeps
/// the chunked driver's prior seed.
fn fit_rank_margin(
    coeffs: &Matrix,
    opts: PcaOptions,
    k: usize,
    warm: Option<&SubspaceSeed>,
) -> Result<Stage2Fit, DpzError> {
    let want = rank_with_margin(k);
    let fit = Pca::fit_rank(coeffs, opts, want, &RF_OPTS, warm)?;
    let randomized = fit.scores.is_some();
    record_pca_route(randomized, warm.is_some(), fit.warm_used);
    Ok((fit.pca, fit.scores, randomized.then_some(fit.basis)))
}

/// Telemetry for the stage-2 solver routing: how often the randomized path
/// runs, and whether offered warm seeds are kept or fall back to a cold
/// fit.
fn record_pca_route(randomized: bool, warm_offered: bool, warm_used: bool) {
    let reg = dpz_telemetry::global();
    if randomized {
        reg.counter("dpz_pca_randomized_total").inc();
    }
    if warm_offered {
        if warm_used {
            reg.counter("dpz_pca_warm_hits_total").inc();
        } else {
            reg.counter("dpz_pca_warm_cold_fallbacks_total").inc();
        }
    }
}

/// What stage 2 hands on: the fitted model, the selected rank and the
/// projected scores.
struct Projection {
    pca: Pca,
    standardize: bool,
    k: usize,
    tve_achieved: f64,
    scores: Matrix,
    /// Converged sketch basis for the next similar buffer (randomized arms
    /// only).
    basis: Option<SubspaceSeed>,
}

/// Everything stages 1–3 produce for one buffer, ready for entropy coding:
/// the quantized scores and the f32-rounded model. No `f64` matrix
/// survives into it: stage 2 frees the block matrix and stage 3 the
/// scores.
///
/// The numeric/lossless split exists so the chunked driver can overlap
/// chunk `i`'s entropy coding with chunk `i+1`'s DCT/PCA on the same
/// thread pool — see [`crate::chunked::compress_chunked`]. Feeding it to
/// `PipelinePlan::encode` is exactly equivalent to `PipelinePlan::execute`.
pub(crate) struct NumericOutcome {
    payload: ContainerData,
    timings: StageTimings,
    tve_achieved: f64,
    sampling_est: Option<SamplingEstimate>,
    n_outliers: usize,
    orig_bytes: usize,
}

impl NumericOutcome {
    /// Hand the stage-1–3 payload to an alternative entropy coder — the
    /// chunked driver's progressive writer serializes it per-component
    /// instead of through `PipelinePlan::encode`.
    pub(crate) fn into_payload(self) -> ContainerData {
        self.payload
    }
}

/// A planned compression: shape, transform and quantizer scheme resolved
/// once for a given `(length, config)`, executable against any number of
/// equal-length buffers — one per chunk in the chunked driver. A plan holds
/// no buffers: each stage owns what it allocates, and the stage that reads
/// a buffer last frees it (stage 2 the block matrix, stage 3 the scores).
pub(crate) struct PipelinePlan {
    cfg: DpzConfig,
    len: usize,
    shape: BlockShape,
    scheme: Scheme,
    transform_tag: u8,
    dwt_levels: u8,
}

impl PipelinePlan {
    /// Plan a compression of `len` values under `cfg`.
    pub(crate) fn new(len: usize, cfg: &DpzConfig) -> Result<Self, DpzError> {
        if len < 2 {
            return Err(DpzError::BadInput("need at least two values"));
        }
        // Bad bounds are typed errors here, and data-dependent targets
        // (`Ratio` / `Psnr`) must already have been resolved by the
        // control loop before a plan exists.
        let scheme = cfg.resolved_scheme()?;
        let shape = decompose::choose_shape(len);
        let (transform_tag, dwt_levels) = match cfg.transform {
            Stage1Transform::Dct => (0u8, 0u8),
            Stage1Transform::Dwt { levels } => {
                (1u8, decompose::effective_dwt_levels(shape.n, levels) as u8)
            }
        };
        Ok(PipelinePlan {
            cfg: *cfg,
            len,
            shape,
            scheme,
            transform_tag,
            dwt_levels,
        })
    }

    /// Execute the plan against one buffer. `data.len()` must equal the
    /// planned length and `dims` must describe it. Equivalent to
    /// [`PipelinePlan::project`] followed by [`PipelinePlan::encode`].
    pub(crate) fn execute(&self, data: &[f32], dims: &[usize]) -> Result<Compressed, DpzError> {
        let mut root = span!("compress");
        root.annotate("bytes", (data.len() * 4) as f64);
        let (outcome, _) = self.project(data, dims, None)?;
        Ok(self.encode(outcome))
    }

    /// Run the numeric phase only — stages 1–3 plus model rounding — and
    /// return the artifacts the entropy coder needs. The chunked driver
    /// uses this to overlap one slab's [`PipelinePlan::encode`] with the
    /// next slab's numeric stages.
    ///
    /// `warm` seeds this buffer's PCA sketch (under TVE selection the
    /// fitter's gate rejects it if the data drifted), and the converged
    /// basis comes back for the next statistically-similar buffer. The
    /// basis is `None` when the routing took a dense path (small M,
    /// knee-point selection, …).
    pub(crate) fn project(
        &self,
        data: &[f32],
        dims: &[usize],
        warm: Option<&SubspaceSeed>,
    ) -> Result<(NumericOutcome, Option<SubspaceSeed>), DpzError> {
        if data.len() != self.len {
            return Err(DpzError::BadInput("data length does not match plan"));
        }
        let shape = self.shape;
        let ((coeffs, norm_min, norm_range), decompose_dct) = in_span(STAGE1_NAME, |span| {
            let out = self.decompose_dct(data);
            // Coefficient matrix: the pipeline's largest transient buffer.
            span.annotate("bytes", (shape.m * shape.n * 8) as f64);
            span.annotate("blocks", shape.m as f64);
            out
        });
        let (sampling_est, sampling) = in_span(SAMPLING_NAME, |span| {
            let est = self.sample(&coeffs)?;
            if let Some(est) = &est {
                span.annotate("k_estimate", est.k_estimate as f64);
            }
            Ok::<_, DpzError>(est)
        });
        let sampling_est = sampling_est?;
        let (proj, t_pca) = in_span(STAGE2_NAME, |span| {
            let proj = self.fit_pca(coeffs, sampling_est.as_ref(), warm)?;
            // Score matrix size: what stage 3 will quantize.
            span.annotate("k", proj.k as f64);
            span.annotate("bytes", (shape.n * proj.k * 8) as f64);
            Ok::<_, DpzError>(proj)
        });
        let proj = proj?;
        let (scores, quantize) = in_span(STAGE3_NAME, |span| {
            let scores = self.quantize(proj.scores);
            span.annotate("outliers", scores.outliers.len() as f64);
            scores
        });

        // Model rounding: f32-round the PCA projection/means/scales and
        // gather everything the container must persist. This closes the
        // numeric phase — what follows (entropy coding) touches only bytes.
        let k = proj.k;
        let model = &proj.pca;
        let basis: Vec<f32> = model
            .projection(k)
            .as_slice()
            .iter()
            .map(|&v| v as f32)
            .collect();
        let mean: Vec<f32> = model.mean().iter().map(|&v| v as f32).collect();
        let scale: Vec<f32> = model
            .feature_scale()
            .map(|s| s.iter().map(|&v| v as f32).collect())
            .unwrap_or_default();
        let n_outliers = scores.outliers.len();
        let outcome = NumericOutcome {
            payload: ContainerData {
                dims: dims.to_vec(),
                orig_len: data.len(),
                m: shape.m,
                n: shape.n,
                pad: shape.pad,
                norm_min,
                norm_range,
                k,
                transform_tag: self.transform_tag,
                dwt_levels: self.dwt_levels,
                p: scores.p,
                standardized: proj.standardize,
                basis,
                mean,
                scale,
                scores,
            },
            timings: StageTimings {
                decompose_dct,
                sampling,
                pca: t_pca,
                quantize,
                lossless: Duration::ZERO,
            },
            tve_achieved: proj.tve_achieved,
            sampling_est,
            n_outliers,
            orig_bytes: data.len() * 4,
        };
        Ok((outcome, proj.basis))
    }

    /// Stage 1 ([`decompose::stage1`]) on the plan's shape and transform.
    /// Returns the coefficient matrix and the `(min, range)` normalization.
    fn decompose_dct(&self, data: &[f32]) -> (Matrix, f64, f64) {
        let (coeffs, (norm_min, norm_range)) =
            decompose::stage1(data, self.shape, self.cfg.transform);
        (coeffs, norm_min, norm_range)
    }

    /// Sampling strategy (optional): Algorithm 2's VIF probe, subset-k
    /// estimate and predicted ratio, for the stats, the `sampling` span and
    /// the `dpz_sampling_*` gauges. Under [`Standardize::Auto`] its VIF also
    /// decides standardization; it never decides `k`. `None` when sampling
    /// is off.
    fn sample(&self, coeffs: &Matrix) -> Result<Option<SamplingEstimate>, DpzError> {
        let cfg = &self.cfg;
        if !cfg.sampling {
            return Ok(None);
        }
        let mut strat = SamplingStrategy::default();
        if let KSelection::Tve(tve) = cfg.selection {
            strat.tve = tve;
        }
        strat.estimate(coeffs).map(Some)
    }

    /// Stage 2: PCA fit (TVE-certified, rank-bounded for a fixed k, or the
    /// full spectrum for knee-point detection), k selection, and projection
    /// to scores. The coefficient matrix is the stage's to free: it is
    /// dropped when the stage returns.
    fn fit_pca(
        &self,
        coeffs: Matrix,
        est: Option<&SamplingEstimate>,
        warm: Option<&SubspaceSeed>,
    ) -> Result<Projection, DpzError> {
        let cfg = &self.cfg;
        let standardize = match cfg.standardize {
            Standardize::On => true,
            Standardize::Off => false,
            Standardize::Auto => est.is_some_and(|e| e.low_linearity),
        };
        let opts = PcaOptions { standardize };
        let (pca, sketch_scores, basis) = match cfg.selection {
            // The selection mode bounds the needed rank: route through the
            // rank-bounded solvers instead of the full O(M³) decomposition
            // whenever the bound is far below M.
            KSelection::Fixed(k_fixed) => fit_rank_margin(&coeffs, opts, k_fixed, warm)?,
            // The randomized range-finder sketches k0 + oversample probe
            // vectors directly on the data matrix — no M×M Gram, no
            // Householder reduction — then escalates the sketch until the
            // Ritz spectrum certifies the TVE target (the Ritz TVE is exact
            // for the produced basis, so the certificate is sound).
            KSelection::Tve(tve) if self.shape.m >= RANDOMIZED_MIN_M => {
                let k0 = (self.shape.m / 8).max(8);
                let fit = Pca::fit_tve_randomized(&coeffs, opts, tve, k0, &RF_OPTS, warm)?;
                record_pca_route(true, warm.is_some(), fit.warm_used);
                (fit.pca, fit.scores, Some(fit.basis))
            }
            // Tiny M cannot amortize the sketch; keep the exact solver.
            KSelection::Tve(tve) => (Pca::fit_tve_exact(&coeffs, opts, tve)?, None, None),
            // Knee-point detection inspects the whole spectrum.
            KSelection::KneePoint(_) => (Pca::fit(&coeffs, opts)?, None, None),
        };
        let choice = select_k(&pca, cfg.selection);
        // The randomized fitter already produced the projected scores from
        // its own sketch products; reuse them (trimmed to the selected
        // rank) instead of paying the explicit n·m·k projection again.
        let scores = match sketch_scores {
            Some(s) if s.cols() == choice.k => s,
            Some(s) if s.cols() > choice.k => s.leading_cols(choice.k),
            _ => pca.transform(&coeffs, choice.k)?,
        };
        Ok(Projection {
            pca,
            standardize,
            k: choice.k,
            tve_achieved: choice.tve_achieved,
            scores,
            basis,
        })
    }

    /// Stage 3: uniform symmetric quantization of the scores, which the
    /// stage consumes and frees.
    fn quantize(&self, scores: Matrix) -> QuantizedScores {
        quantize_scores(scores.as_slice(), self.scheme)
    }

    /// Entropy-code a numeric outcome into the final container (the
    /// lossless stage), producing byte-for-byte the same stream
    /// [`PipelinePlan::execute`] would have.
    pub(crate) fn encode(&self, outcome: NumericOutcome) -> Compressed {
        let NumericOutcome {
            payload,
            mut timings,
            tve_achieved,
            sampling_est,
            n_outliers,
            orig_bytes,
        } = outcome;
        let ((bytes, sections), lossless) = in_span(LOSSLESS_NAME, |span| {
            let out = container::serialize_with_backend(&payload, self.cfg.lossless);
            span.annotate("bytes", out.0.len() as f64);
            out
        });
        timings.lossless = lossless;

        let (m, n, k, standardize) = (payload.m, payload.n, payload.k, payload.standardized);
        // Per-stage ratio accounting (Table III semantics):
        //   stage 1&2 : original f32 -> f32 core (scores + basis + means[+scales])
        //   stage 3   : f32 core -> quantized sections (indices + outliers + model)
        //   zlib      : quantized sections -> entropy-coded output
        let core_f32 = (n * k + m * k + m + if standardize { m } else { 0 }) * 4;
        let stage3_raw = sections.total_raw();
        let cr_stage12 = orig_bytes as f64 / core_f32 as f64;
        let cr_stage3 = core_f32 as f64 / stage3_raw as f64;
        let cr_zlib = stage3_raw as f64 / sections.total_packed() as f64;
        let cr_total = orig_bytes as f64 / bytes.len() as f64;

        let stats = CompressionStats {
            m,
            n,
            k,
            tve_achieved,
            standardized: standardize,
            timings,
            sections,
            cr_stage12,
            cr_stage3,
            cr_zlib,
            cr_total,
            sampling: sampling_est,
        };
        record_compress_metrics(&stats, orig_bytes, bytes.len(), n_outliers);
        Compressed { bytes, stats }
    }
}

/// Compress `data` (shape `dims`) under `cfg`.
///
/// Static targets (`ErrorBound` / `RelBound`) plan once and run the stage
/// chain once. The control targets run their resolution loop
/// ([`crate::target`]) around it first:
///
/// * [`QualityTarget::Ratio`](crate::QualityTarget::Ratio) — FRaZ-style
///   bound search against the [`RatioOracle`](crate::RatioOracle)
///   (≤ [`target::MAX_ORACLE_PROBES`] oracle calls), confirmed against the
///   real artifact with one corrective, calibrated re-search allowed before
///   failing typed.
/// * [`QualityTarget::Psnr`](crate::QualityTarget::Psnr) — closed-form
///   bound, validated post-hoc against the real roundtrip with bounded
///   tighten-and-retry.
pub fn compress(data: &[f32], dims: &[usize], cfg: &DpzConfig) -> Result<Compressed, DpzError> {
    check_input(data, dims)?;
    cfg.target.validate()?;
    target::compress_to_target(data, cfg, |resolved| {
        PipelinePlan::new(data.len(), resolved)?.execute(data, dims)
    })
    .inspect(|out| record_result_gauges(out.stats.cr_total, Some(&out.stats)))
}

/// Acceptance slack for fixed-PSNR mode: the final artifact may sit this
/// far (dB) under the request before the mode fails typed.
pub const PSNR_SLACK_DB: f64 = 0.5;

/// Publish one encode's activity to the global telemetry registry: the
/// additive counters, summed over every stream a call writes (one per
/// chunk, one per control-loop attempt). Stage times are already there:
/// each stage span records `dpz_span_seconds{span=<stage>}`.
fn record_compress_metrics(
    stats: &CompressionStats,
    orig_bytes: usize,
    out_bytes: usize,
    n_outliers: usize,
) {
    let reg = dpz_telemetry::global();
    let labels = [("codec", "dpz"), ("op", "compress")];
    reg.counter("dpz_compressions_total").inc();
    reg.counter_with("dpz_bytes_in_total", &labels)
        .add(orig_bytes as u64);
    reg.counter_with("dpz_bytes_out_total", &labels)
        .add(out_bytes as u64);
    reg.counter_with("dpz_blocks_total", &[("codec", "dpz")])
        .add(stats.m as u64);
    reg.counter_with("dpz_outliers_total", &[("codec", "dpz")])
        .add(n_outliers as u64);
    // Which SIMD kernel backend served this compression (0 = scalar
    // fallback; see dpz_kernels::Backend::id for the mapping).
    reg.gauge("dpz_kernel_backend")
        .set(f64::from(dpz_kernels::backend().id()));
}

/// Publish what one public compress call returned: the artifact's ratio and,
/// where the writer reports stage stats, the first stream's `k` and TVE
/// (what the CLI summary prints). Set once per call from its result, so
/// neither the chunk that finished encoding last nor a control-loop attempt
/// the loop discarded decides the gauges.
pub(crate) fn record_result_gauges(cr_total: f64, first: Option<&CompressionStats>) {
    let reg = dpz_telemetry::global();
    reg.gauge("dpz_compression_ratio").set(cr_total);
    if let Some(stats) = first {
        reg.gauge("dpz_k_selected").set(stats.k as f64);
        reg.gauge("dpz_tve_achieved").set(stats.tve_achieved);
    }
}

/// Decompress a DPZ container, returning values and dimensions.
pub fn decompress(bytes: &[u8]) -> Result<(Vec<f32>, Vec<usize>), DpzError> {
    decompress_with_info(bytes).map(|(v, dims, _)| (v, dims))
}

/// [`decompress`] that also reports the container version and checksum
/// status (for CLI summaries and migration tooling).
pub fn decompress_with_info(
    bytes: &[u8],
) -> Result<(Vec<f32>, Vec<usize>, ContainerInfo), DpzError> {
    let mut root = span!("decompress");
    let result = (|| {
        let (payload, info) = container::deserialize_with_info(bytes)?;
        let (values, dims, _) = reconstruct(&payload)?;
        Ok((values, dims, info))
    })();
    let reg = dpz_telemetry::global();
    match &result {
        Ok((values, _, _)) => {
            root.annotate("bytes", (values.len() * 4) as f64);
            let labels = [("codec", "dpz"), ("op", "decompress")];
            reg.counter("dpz_decompressions_total").inc();
            reg.counter_with("dpz_bytes_in_total", &labels)
                .add(bytes.len() as u64);
            reg.counter_with("dpz_bytes_out_total", &labels)
                .add(values.len() as u64 * 4);
        }
        Err(_) => {
            reg.counter_with("dpz_decode_rejects_total", &[("codec", "dpz")])
                .inc();
        }
    }
    result
}

/// Undo stages 1 & 2 for a given scores matrix: re-expand through the
/// stored basis (`Z ≈ Y·Dᵀ`, plus scale/mean), inverse-transform every
/// block, denormalize, and re-flatten. Shared by [`reconstruct`] (with
/// dequantized scores) and the breakdown path (with exact scores), so the
/// inverse chain exists once.
fn expand_scores(scores: &Matrix, payload: &ContainerData) -> Result<Vec<f32>, DpzError> {
    let (m, n, k) = (payload.m, payload.n, payload.k);
    let basis = Matrix::from_vec(m, k, payload.basis.iter().map(|&v| f64::from(v)).collect())
        .map_err(|_| DpzError::Corrupt("basis shape"))?;
    let mut coeffs = scores.matmul(&basis.transpose())?;
    for r in 0..n {
        let row = coeffs.row_mut(r);
        if payload.standardized {
            if payload.scale.len() != m {
                return Err(DpzError::Corrupt("scale vector inconsistent"));
            }
            for (v, &s) in row.iter_mut().zip(&payload.scale) {
                *v *= f64::from(s);
            }
        }
        for (v, &mu) in row.iter_mut().zip(&payload.mean) {
            *v += f64::from(mu);
        }
    }
    // Inverse transform, denormalize, re-flatten.
    let shape = BlockShape {
        m,
        n,
        pad: payload.pad,
    };
    if payload.transform_tag == 1 {
        let mut blocks = decompose::idwt_blocks(&coeffs, payload.dwt_levels as usize);
        for v in blocks.as_mut_slice() {
            *v = (*v + 0.5) * payload.norm_range + payload.norm_min;
        }
        Ok(decompose::from_blocks(&blocks, shape, payload.orig_len))
    } else {
        // Fused path: single transpose + paired inverse DCT + denormalize.
        Ok(decompose::idct_blocks_to_raw(
            &coeffs,
            shape,
            payload.norm_min,
            payload.norm_range,
            payload.orig_len,
        ))
    }
}

/// [`reconstruct`] for sibling modules that hold a payload decoded outside
/// the DPZ1 path (the chunked driver's progressive streams).
pub(crate) fn reconstruct_values(
    payload: &ContainerData,
) -> Result<(Vec<f32>, Vec<usize>), DpzError> {
    reconstruct(payload).map(|(v, d, _)| (v, d))
}

/// Shared reconstruction path. Also returns the de-quantized scores matrix
/// for breakdown analyses.
fn reconstruct(payload: &ContainerData) -> Result<(Vec<f32>, Vec<usize>, Matrix), DpzError> {
    let (m, n, k) = (payload.m, payload.n, payload.k);
    if payload.basis.len() != m * k || payload.mean.len() != m {
        return Err(DpzError::Corrupt("model vectors inconsistent with header"));
    }
    // Scores (n x k).
    let score_vals = dequantize_scores(&payload.scores);
    let scores =
        Matrix::from_vec(n, k, score_vals).map_err(|_| DpzError::Corrupt("score matrix shape"))?;
    let values = expand_scores(&scores, payload)?;
    Ok((values, payload.dims.clone(), scores))
}

/// Per-stage accuracy data for Tables III/IV.
#[derive(Debug, Clone)]
pub struct CompressionBreakdown {
    /// Everything from the normal compression path.
    pub stats: CompressionStats,
    /// The compressed container.
    pub bytes: Vec<u8>,
    /// Final reconstruction (all stages, i.e. what `decompress` returns).
    pub reconstructed: Vec<f32>,
    /// PSNR of a stage-1&2-only reconstruction (no quantization: exact
    /// scores through the same k-component basis).
    pub psnr_stage12: f64,
    /// PSNR of the full reconstruction.
    pub psnr_final: f64,
}

impl CompressionBreakdown {
    /// Accuracy lost to stage 3 + lossless, in dB (Table IV's Δ PSNR).
    pub fn delta_psnr(&self) -> f64 {
        self.psnr_stage12 - self.psnr_final
    }
}

/// Compress and additionally measure where the error budget goes: the
/// stage-1&2-only PSNR (unquantized scores) versus the final PSNR.
///
/// The container comes from the *same* plan as [`compress`]. Stage 1 is
/// deterministic, so running it again yields bitwise the coefficients the
/// compression used; the stage-1&2 reconstruction projects them through
/// the *stored* (f32-rounded) model so basis rounding is attributed to
/// stage 1&2, as in the paper where stage 3 only adds quantization noise.
pub fn compress_with_breakdown(
    data: &[f32],
    dims: &[usize],
    cfg: &DpzConfig,
) -> Result<CompressionBreakdown, DpzError> {
    check_input(data, dims)?;
    let plan = PipelinePlan::new(data.len(), cfg)?;
    let (outcome, _) = plan.project(data, dims, None)?;
    let compressed = plan.encode(outcome);
    let (coeffs, _, _) = plan.decompose_dct(data);
    let payload = container::deserialize(&compressed.bytes)?;
    let (reconstructed, _, _) = reconstruct(&payload)?;

    // Center (and scale) the captured coefficients with the stored model,
    // project to exact (unquantized) scores, and run the shared inverse.
    let basis = Matrix::from_vec(
        payload.m,
        payload.k,
        payload.basis.iter().map(|&v| f64::from(v)).collect(),
    )
    .map_err(|_| DpzError::Corrupt("basis shape"))?;
    let mut centered = coeffs;
    for r in 0..payload.n {
        let row = centered.row_mut(r);
        for (v, &mu) in row.iter_mut().zip(&payload.mean) {
            *v -= f64::from(mu);
        }
        if payload.standardized {
            for (v, &s) in row.iter_mut().zip(&payload.scale) {
                *v /= f64::from(s);
            }
        }
    }
    let exact_scores = centered.matmul(&basis)?;
    let stage12 = expand_scores(&exact_scores, &payload)?;

    let psnr_stage12 = psnr(data, &stage12);
    let psnr_final = psnr(data, &reconstructed);
    record_result_gauges(compressed.stats.cr_total, Some(&compressed.stats));
    Ok(CompressionBreakdown {
        stats: compressed.stats,
        bytes: compressed.bytes,
        reconstructed,
        psnr_stage12,
        psnr_final,
    })
}

/// Local PSNR helper (range-based, matching `dpz-data`'s definition without
/// creating a dependency cycle). Shared with the fixed-PSNR validation loop.
pub(crate) fn psnr(original: &[f32], reconstructed: &[f32]) -> f64 {
    let n = original.len();
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut se = 0.0;
    for (&a, &b) in original.iter().zip(reconstructed) {
        let av = f64::from(a);
        lo = lo.min(av);
        hi = hi.max(av);
        let d = av - f64::from(b);
        se += d * d;
    }
    let mse = se / n as f64;
    if mse == 0.0 {
        return f64::INFINITY;
    }
    let range = (hi - lo).max(f64::MIN_POSITIVE);
    20.0 * range.log10() - 10.0 * mse.log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TveLevel;
    use dpz_linalg::fit::FitKind;

    fn smooth_field(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| {
                let r = (i / cols) as f32;
                let c = (i % cols) as f32;
                (0.04 * r).sin() * 40.0 + (0.03 * c).cos() * 25.0 + 100.0
            })
            .collect()
    }

    #[test]
    fn round_trip_shapes_and_quality() {
        let data = smooth_field(64, 96);
        let cfg = DpzConfig::strict().with_tve(TveLevel::SixNines);
        let out = compress(&data, &[64, 96], &cfg).unwrap();
        let (recon, dims) = decompress(&out.bytes).unwrap();
        assert_eq!(dims, vec![64, 96]);
        assert_eq!(recon.len(), data.len());
        let q = psnr(&data, &recon);
        assert!(q > 40.0, "PSNR too low: {q}");
        assert!(
            out.stats.cr_total > 1.0,
            "no compression: {}",
            out.stats.cr_total
        );
    }

    #[test]
    fn smooth_data_compresses_hard() {
        let data = smooth_field(128, 128);
        let cfg = DpzConfig::loose().with_tve(TveLevel::FiveNines);
        let out = compress(&data, &[128, 128], &cfg).unwrap();
        assert!(
            out.stats.cr_total > 15.0,
            "smooth field should compress >15x, got {:.1}",
            out.stats.cr_total
        );
    }

    #[test]
    fn tve_sweep_trades_rate_for_quality() {
        let data = smooth_field(96, 96);
        // Make it slightly rough so the spectrum has a tail.
        let data: Vec<f32> = data
            .iter()
            .enumerate()
            .map(|(i, &v)| v + ((i * 2654435761) % 1000) as f32 * 1e-3)
            .collect();
        let mut last_cr = f64::INFINITY;
        let mut last_psnr = 0.0;
        for level in [
            TveLevel::ThreeNines,
            TveLevel::FiveNines,
            TveLevel::SevenNines,
        ] {
            let cfg = DpzConfig::strict().with_tve(level);
            let out = compress(&data, &[96, 96], &cfg).unwrap();
            let (recon, _) = decompress(&out.bytes).unwrap();
            let q = psnr(&data, &recon);
            assert!(
                out.stats.cr_total <= last_cr * 1.001,
                "CR should fall as TVE tightens"
            );
            assert!(q >= last_psnr - 0.5, "PSNR should rise as TVE tightens");
            last_cr = out.stats.cr_total;
            last_psnr = q;
        }
    }

    #[test]
    fn knee_point_mode_works() {
        let data = smooth_field(80, 80);
        for fit in [FitKind::Interp1d, FitKind::Polynomial(7)] {
            let cfg = DpzConfig::loose().with_selection(KSelection::KneePoint(fit));
            let out = compress(&data, &[80, 80], &cfg).unwrap();
            let (recon, _) = decompress(&out.bytes).unwrap();
            assert_eq!(recon.len(), data.len());
            assert!(out.stats.k >= 1);
        }
    }

    #[test]
    fn sampling_path_round_trips() {
        let data = smooth_field(64, 64);
        let cfg = DpzConfig::loose()
            .with_tve(TveLevel::FiveNines)
            .with_sampling(true);
        let out = compress(&data, &[64, 64], &cfg).unwrap();
        assert!(out.stats.sampling.is_some());
        let (recon, _) = decompress(&out.bytes).unwrap();
        let q = psnr(&data, &recon);
        assert!(q > 35.0, "sampling path PSNR {q}");
    }

    #[test]
    fn breakdown_accounts_stage_losses() {
        let data = smooth_field(64, 64);
        let cfg = DpzConfig::strict().with_tve(TveLevel::FiveNines);
        let b = compress_with_breakdown(&data, &[64, 64], &cfg).unwrap();
        assert!(
            b.psnr_stage12 >= b.psnr_final - 1e-9,
            "stage 1&2 can only be better"
        );
        assert!(b.delta_psnr() >= -1e-9);
        // Multiplying the stage ratios reproduces (approximately) the total,
        // modulo the fixed-size header.
        let product = b.stats.cr_stage12 * b.stats.cr_stage3 * b.stats.cr_zlib;
        let ratio = product / b.stats.cr_total;
        assert!((0.9..1.2).contains(&ratio), "stage product off: {ratio}");
    }

    #[test]
    fn breakdown_bytes_match_plain_compress() {
        // The breakdown path must be the same graph, not a variant: its
        // container has to be byte-identical to a plain compress.
        let data = smooth_field(64, 96);
        let cfg = DpzConfig::strict().with_tve(TveLevel::FiveNines);
        let plain = compress(&data, &[64, 96], &cfg).unwrap();
        let b = compress_with_breakdown(&data, &[64, 96], &cfg).unwrap();
        assert_eq!(plain.bytes, b.bytes);
    }

    #[test]
    fn loose_vs_strict_quality_ordering() {
        let data = smooth_field(96, 64);
        let loose = compress_with_breakdown(&data, &[96, 64], &DpzConfig::loose()).unwrap();
        let strict = compress_with_breakdown(&data, &[96, 64], &DpzConfig::strict()).unwrap();
        assert!(
            strict.psnr_final >= loose.psnr_final,
            "strict {} should beat loose {}",
            strict.psnr_final,
            loose.psnr_final
        );
    }

    #[test]
    fn one_and_three_dimensional_inputs() {
        let data: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).sin()).collect();
        let out = compress(&data, &[4096], &DpzConfig::loose()).unwrap();
        let (recon, dims) = decompress(&out.bytes).unwrap();
        assert_eq!(dims, vec![4096]);
        assert_eq!(recon.len(), 4096);

        let out = compress(&data, &[16, 16, 16], &DpzConfig::loose()).unwrap();
        let (_, dims) = decompress(&out.bytes).unwrap();
        assert_eq!(dims, vec![16, 16, 16]);
    }

    #[test]
    fn awkward_length_with_padding() {
        let data: Vec<f32> = (0..997).map(|i| (i as f32 * 0.02).cos()).collect();
        let out = compress(&data, &[997], &DpzConfig::strict()).unwrap();
        let (recon, _) = decompress(&out.bytes).unwrap();
        assert_eq!(recon.len(), 997);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            compress(&[1.0], &[1], &DpzConfig::loose()),
            Err(DpzError::BadInput(_))
        ));
        assert!(matches!(
            compress(&[1.0, 2.0], &[3], &DpzConfig::loose()),
            Err(DpzError::BadInput(_))
        ));
        assert!(matches!(
            compress(&[1.0, f32::NAN], &[2], &DpzConfig::loose()),
            Err(DpzError::BadInput(_))
        ));
        // A dims product that overflows usize is a typed error, not a
        // multiply-overflow panic.
        assert!(matches!(
            compress(&[0.0; 4], &[1 << 33, 1 << 33, 4], &DpzConfig::loose()),
            Err(DpzError::BadInput(_))
        ));
    }

    #[test]
    fn plan_rejects_mismatched_buffers() {
        assert!(matches!(
            PipelinePlan::new(1, &DpzConfig::loose()),
            Err(DpzError::BadInput(_))
        ));
        let plan = PipelinePlan::new(64, &DpzConfig::loose()).unwrap();
        let short = vec![1.0f32; 32];
        assert!(matches!(
            plan.execute(&short, &[32]),
            Err(DpzError::BadInput("data length does not match plan"))
        ));
    }

    #[test]
    fn plan_reuse_is_deterministic() {
        let data = smooth_field(64, 64);
        let plan = PipelinePlan::new(data.len(), &DpzConfig::loose()).unwrap();
        let a = plan.execute(&data, &[64, 64]).unwrap();
        let b = plan.execute(&data, &[64, 64]).unwrap();
        assert_eq!(a.bytes, b.bytes, "plan reuse must be deterministic");
        // And identical to the one-shot wrapper.
        let c = compress(&data, &[64, 64], &DpzConfig::loose()).unwrap();
        assert_eq!(a.bytes, c.bytes);
    }

    #[test]
    fn decompress_rejects_garbage() {
        assert!(decompress(b"DPZ?nope").is_err());
        assert!(decompress(&[]).is_err());
    }

    #[test]
    fn stage_timings_total_sums_all_stages() {
        let t = StageTimings {
            decompose_dct: Duration::from_millis(1),
            sampling: Duration::from_millis(2),
            pca: Duration::from_millis(4),
            quantize: Duration::from_millis(8),
            lossless: Duration::from_millis(16),
        };
        assert_eq!(t.total(), Duration::from_millis(31));
        assert_eq!(StageTimings::default().total(), Duration::ZERO);
    }

    #[test]
    fn cr_product_matches_total_on_synthetic_field() {
        let data = smooth_field(96, 96);
        let out = compress(&data, &[96, 96], &DpzConfig::strict()).unwrap();
        let product = out.stats.cr_stage12 * out.stats.cr_stage3 * out.stats.cr_zlib;
        // The product ignores only the fixed-size container header, so it
        // must track the end-to-end ratio closely on a real-sized field.
        let ratio = product / out.stats.cr_total;
        assert!(
            (0.9..1.2).contains(&ratio),
            "cr_stage12*cr_stage3*cr_zlib = {product:.3} vs cr_total = {:.3}",
            out.stats.cr_total
        );
    }

    #[test]
    fn compress_populates_global_registry() {
        let data = smooth_field(64, 64);
        let before = dpz_telemetry::global().snapshot();
        let out = compress(&data, &[64, 64], &DpzConfig::loose()).unwrap();
        let delta = dpz_telemetry::global().snapshot().since(&before);
        // Other tests in this process also compress, so check lower bounds.
        assert!(delta.counter("dpz_compressions_total", &[]).unwrap() >= 1);
        let labels = [("codec", "dpz"), ("op", "compress")];
        assert!(delta.counter("dpz_bytes_in_total", &labels).unwrap() >= (data.len() * 4) as u64);
        assert!(delta.counter("dpz_bytes_out_total", &labels).unwrap() >= out.bytes.len() as u64);
        let pca = delta
            .histogram("dpz_span_seconds", &[("span", "stage2.pca")])
            .expect("pca span series");
        assert!(pca.count >= 1);
    }

    #[test]
    fn timings_are_recorded() {
        let data = smooth_field(64, 64);
        let out = compress(&data, &[64, 64], &DpzConfig::loose()).unwrap();
        let t = out.stats.timings;
        assert!(t.total() > Duration::ZERO);
        assert!(t.pca > Duration::ZERO);
    }

    #[test]
    fn dwt_transform_round_trips() {
        use crate::config::Stage1Transform;
        let data = smooth_field(64, 64);
        let cfg = DpzConfig::strict()
            .with_tve(TveLevel::SixNines)
            .with_transform(Stage1Transform::Dwt { levels: 4 });
        let out = compress(&data, &[64, 64], &cfg).unwrap();
        let payload = crate::container::deserialize(&out.bytes).unwrap();
        assert_eq!(payload.transform_tag, 1);
        assert!(payload.dwt_levels >= 1);
        let (recon, dims) = decompress(&out.bytes).unwrap();
        assert_eq!(dims, vec![64, 64]);
        let q = psnr(&data, &recon);
        assert!(q > 40.0, "DWT stage-1 PSNR too low: {q}");
    }

    #[test]
    fn dct_and_dwt_are_comparable_on_smooth_data() {
        use crate::config::Stage1Transform;
        let data = smooth_field(96, 96);
        let cfg_dct = DpzConfig::strict().with_tve(TveLevel::FiveNines);
        let cfg_dwt = cfg_dct.with_transform(Stage1Transform::Dwt { levels: 5 });
        let a = compress(&data, &[96, 96], &cfg_dct).unwrap();
        let b = compress(&data, &[96, 96], &cfg_dwt).unwrap();
        // The paper's claim: any orthonormal transform with good compaction
        // works. The two must land in the same ballpark, not be identical.
        let ratio = a.stats.cr_total / b.stats.cr_total;
        assert!(
            (0.2..5.0).contains(&ratio),
            "DCT {:.1}x vs DWT {:.1}x diverged",
            a.stats.cr_total,
            b.stats.cr_total
        );
    }

    #[test]
    fn constant_field_degenerates_gracefully() {
        let data = vec![7.25f32; 1024];
        let out = compress(&data, &[32, 32], &DpzConfig::loose()).unwrap();
        let (recon, _) = decompress(&out.bytes).unwrap();
        for v in &recon {
            assert!((v - 7.25).abs() < 1e-2, "constant field reconstruction {v}");
        }
        // The container header + DEFLATE framing dominate at this tiny size.
        assert!(
            out.stats.cr_total > 15.0,
            "constant field CR {}",
            out.stats.cr_total
        );
    }
}
