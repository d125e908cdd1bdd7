//! Implementation of the `dpz` command-line tool (argument parsing and
//! subcommands live here so they can be unit-tested; `src/bin/dpz.rs` is a
//! thin wrapper).
//!
//! ```text
//! dpz gen <dataset> <out.f32> [--scale tiny|small|default|paper] [--seed N]
//! dpz compress <in.f32> <out.dpz> --dims RxCxD [--codec dpz|dpzc|sz|zfp|auto]
//!     [--scheme loose|strict] [--tve NINES | --knee 1d|polyn] [--sampling]
//!     [--lossless deflate|tans] [--eb BOUND] [--precision BITS]
//! dpz decompress <in.dpz> <out.f32>
//! dpz info <in.dpz>
//! dpz eval <orig.f32> <recon.f32> [--compressed <file>]
//! ```

#![warn(missing_docs)]

use dpz_codec::{
    AutoCodec, Codec, CodecStats, DpzChunkedCodec, DpzCodec, Format, Registry, SzCodec, ZfpCodec,
};
use dpz_core::{
    ContainerInfo, DpzConfig, KSelection, LosslessBackend, QualityTarget, SeekableIndex,
    Stage1Transform, TveLevel,
};
use dpz_data::dataset::DEFAULT_SEED;
use dpz_data::io::{read_f32_file, write_f32_file};
use dpz_data::metrics;
use dpz_data::{Dataset, DatasetKind, Scale};
use dpz_linalg::fit::FitKind;
use std::fmt::Write as _;
use std::time::Instant;

/// CLI failure: message for stderr plus a suggestion to use `--help`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str =
    "dpz — multi-stage information-retrieval lossy compressor (CLUSTER'21 reproduction)

USAGE:
  dpz gen <dataset> <out.f32> [--scale tiny|small|default|paper] [--seed N]
  dpz compress <in.f32> <out.dpz> --dims RxC[xD] [--codec dpz|dpzc|sz|zfp|auto]
               [--scheme loose|strict] [--tve NINES] [--knee 1d|polyn] [--sampling]
               [--transform dct|dwt] [--lossless deflate|tans] [--chunks N (dpzc)]
               [--progressive (dpzc)] [--eb BOUND, --predictor lorenzo|auto (sz)]
               [--precision BITS | --rate BITS/VAL (zfp)]
               [--target-ratio R [--ratio-tol T] | --target-psnr DB |
                --rel-bound REL | --abs-bound P]
               [--threads N] [--verbose] [--metrics-out <file[.prom|.json]>]
               [--trace-out <trace.json>]
  dpz decompress <in.dpz> <out.f32> [--threads N] [--verbose] [--metrics-out <file>]
                 [--trace-out <trace.json>]
                 [--chunk N | --region A..B[,C..D,...] | --budget BYTES (dpzc)]
  dpz info <in.dpz>
  dpz eval <orig.f32> <recon.f32> [--compressed <file>]

DATASETS: Isotropic Channel CLDHGH CLDLOW PHIS FREQSH FLDSC HACC-x HACC-vx
NINES:    3..=8 (\"--tve 5\" = 99.999%)

QUALITY TARGETS (any codec, mutually exclusive):
  --target-ratio R   search the bound space until the compression ratio
                     lands within --ratio-tol (default 0.1) of R, or fail
                     with the best achievable ratio
  --target-psnr DB   pick the bound for a reconstruction quality of DB
                     decibels, validated against the real roundtrip
  --rel-bound REL    pointwise error at most REL x the input's value range
  --abs-bound P      absolute quantizer bound P (DPZ) / absolute error
                     bound (sz, zfp)

OBSERVABILITY:
  --verbose      record this run's spans and print a per-span digest (count,
                 total, p50/p99, MB/s) to stderr after the run
  --metrics-out  dump this run's metrics; '.json' writes the JSON form,
                 anything else the Prometheus text exposition
  --trace-out    record an event trace of this run and write it as Chrome
                 trace-event JSON (open in Perfetto or chrome://tracing)

PARALLELISM:
  --threads N    size of the work-stealing pool (default: DPZ_THREADS env,
                 then the machine's core count); N=1 forces sequential runs

RANDOM ACCESS (dpzc containers):
  --chunk N      decode only chunk N; reads and CRC-verifies just its bytes
  --region R     decode an axis-aligned region, one half-open range per
                 dimension (e.g. --region 0..100,250..300)
  --budget B     progressive streams only: reconstruct the full extent from
                 roughly the first B bytes, highest-energy components first
";

/// Parse dims like `1800x3600` or `128x128x128`.
pub fn parse_dims(s: &str) -> Result<Vec<usize>, CliError> {
    let dims: Result<Vec<usize>, _> = s.split(['x', 'X']).map(str::parse::<usize>).collect();
    let dims = dims.map_err(|_| err(format!("invalid --dims '{s}'")))?;
    if dims.is_empty() || dims.contains(&0) {
        return Err(err(format!("invalid --dims '{s}'")));
    }
    Ok(dims)
}

/// Pull the value following a `--flag`.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Honor `--threads N` by sizing the global pool, and return the effective
/// worker count for the summary line. The pool cannot be resized once it has
/// started, so a conflicting request is a hard error rather than a silent
/// fallback.
fn apply_threads(args: &[String]) -> Result<usize, CliError> {
    if let Some(v) = flag_value(args, "--threads") {
        let n: usize = v
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| err(format!("--threads expects a positive integer, got '{v}'")))?;
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .map_err(|e| err(format!("--threads {n}: {e}")))?;
    } else if has_flag(args, "--threads") {
        return Err(err("--threads needs a value"));
    }
    Ok(rayon::current_num_threads())
}

/// Per-run observability state: the registry snapshot backing
/// `--metrics-out`, and whether this run records the event journal (for
/// `--trace-out`, `--verbose` or both).
struct RunTelemetry {
    before: dpz_telemetry::Snapshot,
    journal: bool,
    trace_out: Option<String>,
}

impl Drop for RunTelemetry {
    fn drop(&mut self) {
        // An error between begin and finish must not leave the global
        // journal recording (stop is idempotent, so the normal path — which
        // already stopped it in `telemetry_finish` — is unaffected).
        if self.journal {
            dpz_telemetry::trace::stop();
        }
    }
}

/// Honor `--verbose`/`--trace-out` by starting the event journal, and
/// capture the registry state before the operation, so `--metrics-out` can
/// export only this run's activity.
fn telemetry_begin(args: &[String]) -> Result<RunTelemetry, CliError> {
    let trace_out = match flag_value(args, "--trace-out") {
        Some(path) => Some(path.to_string()),
        None if has_flag(args, "--trace-out") => return Err(err("--trace-out needs a file path")),
        None => None,
    };
    let journal = trace_out.is_some() || has_flag(args, "--verbose");
    if journal {
        dpz_telemetry::trace::start();
    }
    Ok(RunTelemetry {
        before: dpz_telemetry::global().snapshot(),
        journal,
        trace_out,
    })
}

/// Write the delta of global registry activity since `run` began to the
/// `--metrics-out` path, if any (`.json` selects JSON, else Prometheus
/// text). Drains the event journal: to the `--trace-out` path as Chrome trace
/// JSON, and for `--verbose` as a per-span digest on stderr.
fn telemetry_finish(args: &[String], run: RunTelemetry) -> Result<(), CliError> {
    let delta = dpz_telemetry::global().snapshot().since(&run.before);
    if run.journal {
        dpz_telemetry::trace::stop();
        let trace = dpz_telemetry::trace::drain();
        if let Some(path) = run.trace_out.as_deref() {
            std::fs::write(path, dpz_telemetry::trace::to_chrome_json(&trace))
                .map_err(|e| err(format!("write {path}: {e}")))?;
        }
        if has_flag(args, "--verbose") {
            eprint!("{}", span_digest(&dpz_telemetry::trace::summarize(&trace)));
        }
    }
    if let Some(path) = flag_value(args, "--metrics-out") {
        let text = if path.ends_with(".json") {
            dpz_telemetry::to_json(&delta)
        } else {
            dpz_telemetry::to_prometheus(&delta)
        };
        std::fs::write(path, text).map_err(|e| err(format!("write {path}: {e}")))?;
    } else if has_flag(args, "--metrics-out") {
        return Err(err("--metrics-out needs a file path"));
    }
    Ok(())
}

/// The `--verbose` digest: one line per span name, busiest first, from the
/// run's event journal.
fn span_digest(summary: &dpz_telemetry::trace::TraceSummary) -> String {
    let mut out = format!(
        "spans: {} names on {} threads, {} events dropped\n  {:<24} {:>6} {:>11} {:>10} {:>10} {:>9}\n",
        summary.spans.len(),
        summary.threads,
        summary.dropped,
        "span",
        "count",
        "total_ms",
        "p50_ms",
        "p99_ms",
        "MB/s"
    );
    for s in &summary.spans {
        let mbps = s.mb_per_s.map_or("-".to_string(), |v| format!("{v:.1}"));
        let _ = writeln!(
            out,
            "  {:<24} {:>6} {:>11.3} {:>10.3} {:>10.3} {mbps:>9}",
            s.name, s.count, s.total_ms, s.p50_ms, s.p99_ms
        );
    }
    out
}

/// One-line compression summary from the codec's own stats: ratio, `k` and
/// TVE (DPZ; for dpzc the first chunk's), and throughput over `secs`, the
/// wall clock of the codec call.
fn compress_summary(
    args: &[String],
    input: &str,
    output: &str,
    requested: &str,
    stats: &CodecStats,
    threads: usize,
    secs: f64,
) -> String {
    // For `--codec auto` the label shows both the request and the backend
    // the selector actually ran.
    let display = if requested == stats.codec {
        requested.to_string()
    } else {
        format!("{requested}:{}", stats.codec)
    };
    let mbps = if secs > 0.0 {
        stats.bytes_in as f64 / 1e6 / secs
    } else {
        0.0
    };
    let mut msg = format!(
        "compressed {input} -> {output} [{display}] {:.2}x",
        stats.ratio()
    );
    if let Some(dpz) = &stats.dpz {
        let _ = write!(msg, ", k={} tve={:.8}", dpz.k, dpz.tve_achieved);
    }
    let _ = write!(msg, ", {mbps:.1} MB/s, threads={threads}");
    if has_flag(args, "--verbose") {
        let _ = write!(
            msg,
            ", codec={}, kernel={}",
            stats.codec,
            dpz_kernels::backend_name()
        );
    }
    msg
}

/// Parse a float-valued flag, rejecting malformed values with the flag
/// name in the message.
fn float_flag(args: &[String], flag: &str) -> Result<Option<f64>, CliError> {
    match flag_value(args, flag) {
        Some(v) => v
            .parse::<f64>()
            .map(Some)
            .map_err(|_| err(format!("{flag} expects a number, got '{v}'"))),
        None if has_flag(args, flag) => Err(err(format!("{flag} needs a value"))),
        None => Ok(None),
    }
}

/// Parse the quality-target flags into a [`QualityTarget`], if any is
/// present. The four spellings are mutually exclusive, and every parsed
/// target is validated through [`QualityTarget::validate`] — nonsense
/// values (non-positive bounds, tolerance ≥ 1, PSNR ≤ 0) come back as
/// errors, never panics.
pub fn target_from_args(args: &[String]) -> Result<Option<QualityTarget>, CliError> {
    let ratio = float_flag(args, "--target-ratio")?;
    let tol = float_flag(args, "--ratio-tol")?;
    let psnr = float_flag(args, "--target-psnr")?;
    let rel = float_flag(args, "--rel-bound")?;
    let abs = float_flag(args, "--abs-bound")?;
    if tol.is_some() && ratio.is_none() {
        return Err(err("--ratio-tol requires --target-ratio"));
    }
    let mut targets = Vec::new();
    if let Some(r) = ratio {
        targets.push(QualityTarget::Ratio {
            target: r,
            tol: tol.unwrap_or(0.1),
        });
    }
    if let Some(db) = psnr {
        targets.push(QualityTarget::Psnr(db));
    }
    if let Some(r) = rel {
        targets.push(QualityTarget::RelBound(r));
    }
    if let Some(p) = abs {
        targets.push(QualityTarget::ErrorBound(p));
    }
    if targets.len() > 1 {
        return Err(err(
            "--target-ratio, --target-psnr, --rel-bound and --abs-bound are mutually exclusive",
        ));
    }
    match targets.pop() {
        Some(t) => {
            t.validate().map_err(|e| err(e.to_string()))?;
            Ok(Some(t))
        }
        None => Ok(None),
    }
}

/// Build a [`DpzConfig`] from the optional flags — the one construction
/// path every DPZ-family codec selection goes through (single-stream,
/// chunked, and progressive alike).
pub fn config_from_args(args: &[String]) -> Result<DpzConfig, CliError> {
    let mut cfg = match flag_value(args, "--scheme").unwrap_or("loose") {
        "loose" => DpzConfig::loose(),
        "strict" => DpzConfig::strict(),
        other => return Err(err(format!("unknown --scheme '{other}'"))),
    };
    if let Some(target) = target_from_args(args)? {
        cfg = cfg.with_target(target);
    }
    if let Some(nines) = flag_value(args, "--tve") {
        let n: u32 = nines.parse().map_err(|_| err("--tve expects 3..=8"))?;
        let level = match n {
            3 => TveLevel::ThreeNines,
            4 => TveLevel::FourNines,
            5 => TveLevel::FiveNines,
            6 => TveLevel::SixNines,
            7 => TveLevel::SevenNines,
            8 => TveLevel::EightNines,
            _ => return Err(err("--tve expects 3..=8")),
        };
        cfg = cfg.with_tve(level);
    }
    if let Some(fit) = flag_value(args, "--knee") {
        let kind = match fit {
            "1d" => FitKind::Interp1d,
            "polyn" => FitKind::Polynomial(7),
            other => return Err(err(format!("unknown --knee '{other}' (1d|polyn)"))),
        };
        cfg = cfg.with_selection(KSelection::KneePoint(kind));
    }
    if has_flag(args, "--sampling") {
        cfg = cfg.with_sampling(true);
    }
    if let Some(t) = flag_value(args, "--transform") {
        cfg = match t {
            "dct" => cfg.with_transform(Stage1Transform::Dct),
            "dwt" => cfg.with_transform(Stage1Transform::Dwt { levels: 5 }),
            other => return Err(err(format!("unknown --transform '{other}' (dct|dwt)"))),
        };
    }
    if let Some(b) = flag_value(args, "--lossless") {
        cfg = match b {
            "deflate" => cfg.with_lossless(LosslessBackend::Deflate),
            "tans" => cfg.with_lossless(LosslessBackend::Tans),
            other => {
                return Err(err(format!("unknown --lossless '{other}' (deflate|tans)")));
            }
        };
    }
    Ok(cfg)
}

/// Run the CLI; returns the text to print on success.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Err(err(USAGE));
    };
    match command.as_str() {
        "gen" => cmd_gen(&args[1..]),
        "compress" => cmd_compress(&args[1..]),
        "decompress" => cmd_decompress(&args[1..]),
        "info" => cmd_info(&args[1..]),
        "eval" => cmd_eval(&args[1..]),
        "--help" | "-h" | "help" => Ok(USAGE.to_string()),
        other => Err(err(format!("unknown command '{other}'\n\n{USAGE}"))),
    }
}

fn cmd_gen(args: &[String]) -> Result<String, CliError> {
    let (name, out) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(err("usage: dpz gen <dataset> <out.f32> [--scale ...]")),
    };
    let kind =
        DatasetKind::from_name(name).ok_or_else(|| err(format!("unknown dataset '{name}'")))?;
    let scale = match flag_value(args, "--scale") {
        Some(s) => Scale::from_name(s).ok_or_else(|| err(format!("unknown scale '{s}'")))?,
        None => Scale::Default,
    };
    let seed = match flag_value(args, "--seed") {
        Some(s) => s.parse().map_err(|_| err("--seed expects an integer"))?,
        None => DEFAULT_SEED,
    };
    let ds = Dataset::generate(kind, scale, seed);
    write_f32_file(out, &ds.data).map_err(|e| err(format!("write {out}: {e}")))?;
    let dims = ds
        .dims
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("x");
    Ok(format!(
        "wrote {} ({} values, dims {})",
        out,
        ds.len(),
        dims
    ))
}

/// The summary suffix naming a baseline's configured knob. A quality target
/// resolves its own bound or mode per input, so the knob is named only when
/// no target is given.
fn knob_suffix(args: &[String], knob: String) -> Result<String, CliError> {
    Ok(match target_from_args(args)? {
        Some(_) => String::new(),
        None => format!(" ({knob})"),
    })
}

/// Resolve `--codec` (plus its codec-specific flags) to a trait object and
/// a suffix for the summary line. Every compressor goes through the same
/// [`Codec`] path after this point.
fn codec_from_args(args: &[String]) -> Result<(Box<dyn Codec>, String), CliError> {
    let requested = flag_value(args, "--codec").unwrap_or("dpz");
    if has_flag(args, "--progressive") && requested != "dpzc" {
        return Err(err("--progressive requires --codec dpzc"));
    }
    match requested {
        "dpz" => {
            let cfg = config_from_args(args)?;
            Ok((Box::new(DpzCodec::new(cfg)), String::new()))
        }
        "dpzc" => {
            let cfg = config_from_args(args)?;
            let chunks: usize = flag_value(args, "--chunks")
                .unwrap_or("4")
                .parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| err("--chunks expects a positive integer"))?;
            if has_flag(args, "--progressive") {
                Ok((
                    Box::new(DpzChunkedCodec::progressive(cfg, chunks)),
                    format!(" (chunks={chunks}, progressive)"),
                ))
            } else {
                Ok((
                    Box::new(DpzChunkedCodec::new(cfg, chunks)),
                    format!(" (chunks={chunks})"),
                ))
            }
        }
        "sz" => {
            let eb: f64 = flag_value(args, "--eb")
                .unwrap_or("1e-3")
                .parse()
                .map_err(|_| err("--eb expects a float"))?;
            // The SzConfig constructor asserts on bad bounds; reject them
            // here as a typed error instead.
            if !(eb > 0.0 && eb.is_finite()) {
                return Err(err(format!("--eb must be positive and finite, got {eb}")));
            }
            let mut cfg = dpz_sz::SzConfig::with_error_bound(eb);
            if let Some(p) = flag_value(args, "--predictor") {
                cfg = match p {
                    "lorenzo" => cfg.with_predictor(dpz_sz::Predictor::Lorenzo),
                    "auto" => cfg.with_predictor(dpz_sz::Predictor::Auto),
                    other => {
                        return Err(err(format!("unknown --predictor '{other}' (lorenzo|auto)")))
                    }
                };
            }
            Ok((
                Box::new(SzCodec::new(cfg)),
                knob_suffix(args, format!("eb={eb:e}"))?,
            ))
        }
        "zfp" => {
            let mode = if let Some(r) = flag_value(args, "--rate") {
                let rate: f64 = r
                    .parse()
                    .map_err(|_| err("--rate expects bits per value"))?;
                dpz_zfp::ZfpMode::FixedRate(rate)
            } else {
                let prec: u32 = flag_value(args, "--precision")
                    .unwrap_or("20")
                    .parse()
                    .map_err(|_| err("--precision expects 1..=32"))?;
                dpz_zfp::ZfpMode::FixedPrecision(prec)
            };
            Ok((
                Box::new(ZfpCodec::new(mode)),
                knob_suffix(args, format!("{mode:?}"))?,
            ))
        }
        "auto" => Ok((Box::new(AutoCodec::new()), String::new())),
        other => Err(err(format!(
            "unknown --codec '{other}' (dpz|dpzc|sz|zfp|auto)"
        ))),
    }
}

fn cmd_compress(args: &[String]) -> Result<String, CliError> {
    let (input, output) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(err("usage: dpz compress <in.f32> <out.dpz> --dims RxC ...")),
    };
    let dims = parse_dims(flag_value(args, "--dims").ok_or_else(|| err("--dims is required"))?)?;
    let requested = flag_value(args, "--codec").unwrap_or("dpz").to_string();
    let (codec, suffix) = codec_from_args(args)?;
    let threads = apply_threads(args)?;
    let data = read_f32_file(input).map_err(|e| err(format!("read {input}: {e}")))?;
    let target = target_from_args(args)?;
    let run = telemetry_begin(args)?;
    let mut bytes = Vec::new();
    let start = Instant::now();
    // A quality target routes through the resolving entry point (identical
    // to compress_into for the DPZ codecs, whose config already carries the
    // target, but required for sz/zfp/auto which map it per input).
    let stats = match &target {
        Some(t) => codec.compress_with_target(&data, &dims, t, &mut bytes),
        None => codec.compress_into(&data, &dims, &mut bytes),
    }
    .map_err(|e| err(e.to_string()))?;
    let secs = start.elapsed().as_secs_f64();
    std::fs::write(output, &bytes).map_err(|e| err(format!("write {output}: {e}")))?;
    telemetry_finish(args, run)?;
    // Every stream the DPZ writers emit is checksummed: each DPZ1 section,
    // each DPZC chunk, and each section of a progressive chunk carries a
    // CRC-32.
    let crc = if matches!(stats.codec, "dpz" | "dpzc") {
        ", crc32"
    } else {
        ""
    };
    let summary = compress_summary(args, input, output, &requested, &stats, threads, secs);
    Ok(summary + crc + &suffix)
}

/// Human-readable checksum status for decode summaries.
fn crc_status(info: Option<ContainerInfo>) -> String {
    let crc = match info {
        Some(i) if i.checksummed => "crc=verified",
        Some(_) => "crc=absent (v1 container)",
        None => "crc=n/a",
    };
    match info {
        Some(i) if i.tans_sections > 0 => {
            format!("{crc}, tans-sections={}", i.tans_sections)
        }
        _ => crc.to_string(),
    }
}

/// Parse a `--region` spec like `0..100,250..300` into per-axis half-open
/// ranges.
fn parse_region(s: &str) -> Result<Vec<std::ops::Range<usize>>, CliError> {
    s.split(',')
        .map(|axis| {
            let (lo, hi) = axis
                .split_once("..")
                .ok_or_else(|| err(format!("invalid --region axis '{axis}' (want LO..HI)")))?;
            let lo: usize = lo
                .parse()
                .map_err(|_| err(format!("invalid --region bound '{lo}'")))?;
            let hi: usize = hi
                .parse()
                .map_err(|_| err(format!("invalid --region bound '{hi}'")))?;
            Ok(lo..hi)
        })
        .collect()
}

fn cmd_decompress(args: &[String]) -> Result<String, CliError> {
    let (input, output) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(err("usage: dpz decompress <in.dpz> <out.f32>")),
    };
    let picked = ["--chunk", "--region", "--budget"]
        .iter()
        .filter(|f| has_flag(args, f))
        .count();
    if picked > 1 {
        return Err(err("--chunk, --region and --budget are mutually exclusive"));
    }
    let threads = apply_threads(args)?;
    let bytes = std::fs::read(input).map_err(|e| err(format!("read {input}: {e}")))?;
    let run = telemetry_begin(args)?;
    // Partial reads go straight to dpz-core's DPZC reader, and their summary
    // reports the version and checksum state of the container's index;
    // everything else is the registry's magic-sniffing full decode.
    let index_info = |flag: &str| -> Result<Option<ContainerInfo>, CliError> {
        if !bytes.starts_with(Format::DpzChunked.magic()) {
            return Err(err(format!("{flag} requires a seekable container (dpzc)")));
        }
        let index = SeekableIndex::from_bytes(&bytes).map_err(|e| err(e.to_string()))?;
        Ok(Some(ContainerInfo {
            version: index.version,
            checksummed: index.chunks.iter().all(|c| c.crc.is_some()),
            tans_sections: 0,
        }))
    };
    let (values, dims, info, what) = if let Some(v) = flag_value(args, "--chunk") {
        let n: usize = v
            .parse()
            .map_err(|_| err(format!("--chunk expects an integer, got '{v}'")))?;
        let info = index_info("--chunk")?;
        let (values, dims) =
            dpz_core::decompress_chunk(&bytes, n).map_err(|e| err(e.to_string()))?;
        (values, dims, info, format!("chunk {n} of "))
    } else if let Some(v) = flag_value(args, "--region") {
        let region = parse_region(v)?;
        let info = index_info("--region")?;
        let (values, dims) =
            dpz_core::decompress_region(&bytes, &region).map_err(|e| err(e.to_string()))?;
        (values, dims, info, format!("region {v} of "))
    } else if let Some(v) = flag_value(args, "--budget") {
        let budget: usize = v
            .parse()
            .map_err(|_| err(format!("--budget expects a byte count, got '{v}'")))?;
        let info = index_info("--budget")?;
        let p = dpz_core::decompress_progressive(&bytes, budget).map_err(|e| err(e.to_string()))?;
        let what = format!(
            "progressive ({} of {} bytes, {} components, TVE {:.4}, PSNR est {:.1} dB) of ",
            p.bytes_used,
            bytes.len(),
            p.components_used.iter().sum::<usize>(),
            p.tve_achieved,
            p.psnr_estimate,
        );
        (p.values, p.dims, info, what)
    } else {
        let decoded = Registry::builtin()
            .decompress(&bytes)
            .map_err(|e| err(e.to_string()))?;
        (decoded.values, decoded.dims, decoded.info, String::new())
    };
    write_f32_file(output, &values).map_err(|e| err(format!("write {output}: {e}")))?;
    telemetry_finish(args, run)?;
    let dims = dims
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("x");
    Ok(format!(
        "decompressed {what}{input} -> {output} ({} values, dims {dims}, {}, threads={threads})",
        values.len(),
        crc_status(info),
    ))
}

/// `dpz info`: sniff the container's magic and summarize it — the DPZ1
/// header, the DPZC index (any container version), or the baseline format's
/// name and size.
fn cmd_info(args: &[String]) -> Result<String, CliError> {
    let input = args
        .first()
        .ok_or_else(|| err("usage: dpz info <in.dpz>"))?;
    let bytes = std::fs::read(input).map_err(|e| err(format!("read {input}: {e}")))?;
    let format = Format::ALL
        .into_iter()
        .find(|f| bytes.starts_with(f.magic()))
        .ok_or_else(|| err("unknown container magic"))?;
    let join_dims = |dims: &[usize]| {
        dims.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("x")
    };
    let ratio = |values: usize| values as f64 * 4.0 / bytes.len() as f64;
    Ok(match format {
        Format::Dpz => {
            let (payload, info) = dpz_core::container::deserialize_with_info(&bytes)
                .map_err(|e| err(e.to_string()))?;
            format!(
                "DPZ container: v{} ({}) dims {} ({} values)\n  M={} N={} pad={} k={}\n  P={:e} wide_index={} standardized={}\n  outliers={} container {} bytes (CR {:.2}x)",
                info.version,
                if info.checksummed {
                    "crc32 per section"
                } else {
                    "no checksums"
                },
                join_dims(&payload.dims),
                payload.orig_len,
                payload.m,
                payload.n,
                payload.pad,
                payload.k,
                payload.p,
                payload.scores.wide_index,
                payload.standardized,
                payload.scores.outliers.len(),
                bytes.len(),
                ratio(payload.orig_len),
            )
        }
        Format::DpzChunked => {
            let index = SeekableIndex::from_bytes(&bytes).map_err(|e| err(e.to_string()))?;
            let values: usize = index.chunks.iter().map(|c| c.values).sum();
            format!(
                "DPZC container: v{} ({}) dims {} ({values} values)\n  chunks={} progressive={}\n  container {} bytes (CR {:.2}x)",
                index.version,
                if index.chunks.iter().all(|c| c.crc.is_some()) {
                    "crc32 per chunk"
                } else {
                    "no checksums"
                },
                join_dims(&index.dims),
                index.chunks.len(),
                index.progressive.is_some(),
                bytes.len(),
                ratio(values),
            )
        }
        Format::Sz | Format::Zfp => format!(
            "{} container ({}): {} bytes",
            format.name(),
            String::from_utf8_lossy(format.magic()),
            bytes.len()
        ),
    })
}

fn cmd_eval(args: &[String]) -> Result<String, CliError> {
    let (orig_path, recon_path) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(err(
                "usage: dpz eval <orig.f32> <recon.f32> [--compressed f]",
            ))
        }
    };
    let orig = read_f32_file(orig_path).map_err(|e| err(format!("read {orig_path}: {e}")))?;
    let recon = read_f32_file(recon_path).map_err(|e| err(format!("read {recon_path}: {e}")))?;
    if orig.len() != recon.len() {
        return Err(err(format!(
            "length mismatch: {} vs {} values",
            orig.len(),
            recon.len()
        )));
    }
    let mut msg = format!(
        "PSNR {:.2} dB | MSE {:.3e} | max abs err {:.3e} | mean rel err θ {:.3e}",
        metrics::psnr(&orig, &recon),
        metrics::mse(&orig, &recon),
        metrics::max_abs_error(&orig, &recon),
        metrics::mean_relative_error(&orig, &recon),
    );
    if let Some(comp) = flag_value(args, "--compressed") {
        let size = std::fs::metadata(comp)
            .map_err(|e| err(format!("stat {comp}: {e}")))?
            .len() as usize;
        let _ = write!(
            msg,
            "\nCR {:.2}x | bit-rate {:.3} bits/value",
            metrics::compression_ratio(orig.len() * 4, size),
            metrics::bit_rate(orig.len(), size)
        );
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// The event journal is process-global: tests whose runs record it
    /// (`--verbose`, `--trace-out`) take turns, so one run's stop and drain
    /// never cut into another's recording.
    fn journal_turn() -> MutexGuard<'static, ()> {
        static JOURNAL: Mutex<()> = Mutex::new(());
        JOURNAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn dims_parsing() {
        assert_eq!(parse_dims("1800x3600").unwrap(), vec![1800, 3600]);
        assert_eq!(parse_dims("128X128X128").unwrap(), vec![128, 128, 128]);
        assert!(parse_dims("12x0").is_err());
        assert!(parse_dims("abc").is_err());
        assert!(parse_dims("").is_err());
    }

    #[test]
    fn config_parsing() {
        let cfg = config_from_args(&s(&["--scheme", "strict", "--tve", "7"])).unwrap();
        assert_eq!(cfg.target, QualityTarget::ErrorBound(1e-4));
        assert!(cfg.resolved_scheme().unwrap().wide_index);
        assert_eq!(cfg.selection, KSelection::Tve(0.9999999));
        let cfg = config_from_args(&s(&["--knee", "polyn", "--sampling"])).unwrap();
        assert!(matches!(
            cfg.selection,
            KSelection::KneePoint(FitKind::Polynomial(7))
        ));
        assert!(cfg.sampling);
        assert!(config_from_args(&s(&["--tve", "9"])).is_err());
        assert!(config_from_args(&s(&["--scheme", "wat"])).is_err());
        let cfg = config_from_args(&s(&["--lossless", "tans"])).unwrap();
        assert_eq!(cfg.lossless, LosslessBackend::Tans);
        assert_eq!(
            config_from_args(&[]).unwrap().lossless,
            LosslessBackend::Deflate
        );
        assert!(config_from_args(&s(&["--lossless", "lzma"])).is_err());
    }

    #[test]
    fn target_flag_parsing() {
        assert_eq!(target_from_args(&[]).unwrap(), None);
        assert_eq!(
            target_from_args(&s(&["--target-ratio", "8"])).unwrap(),
            Some(QualityTarget::Ratio {
                target: 8.0,
                tol: 0.1
            })
        );
        assert_eq!(
            target_from_args(&s(&["--target-ratio", "8", "--ratio-tol", "0.25"])).unwrap(),
            Some(QualityTarget::Ratio {
                target: 8.0,
                tol: 0.25
            })
        );
        assert_eq!(
            target_from_args(&s(&["--target-psnr", "60"])).unwrap(),
            Some(QualityTarget::Psnr(60.0))
        );
        assert_eq!(
            target_from_args(&s(&["--rel-bound", "1e-3"])).unwrap(),
            Some(QualityTarget::RelBound(1e-3))
        );
        assert_eq!(
            target_from_args(&s(&["--abs-bound", "1e-4"])).unwrap(),
            Some(QualityTarget::ErrorBound(1e-4))
        );
        // A target flag flows into the shared config builder.
        let cfg = config_from_args(&s(&["--target-psnr", "70"])).unwrap();
        assert_eq!(cfg.target, QualityTarget::Psnr(70.0));
    }

    #[test]
    fn bad_targets_are_typed_errors_not_panics() {
        for bad in [
            vec!["--target-ratio", "0.5"],
            vec!["--target-ratio", "8", "--ratio-tol", "1.5"],
            vec!["--target-psnr", "-10"],
            vec!["--rel-bound", "0"],
            vec!["--abs-bound", "-1e-3"],
            vec!["--abs-bound", "NaN"],
            vec!["--target-ratio", "8", "--target-psnr", "60"],
            vec!["--ratio-tol", "0.1"],
            vec!["--target-ratio"],
        ] {
            let e = target_from_args(&s(&bad)).unwrap_err();
            assert!(!e.0.is_empty(), "{bad:?}");
        }
        let e = run(&s(&[
            "compress", "a", "b", "--dims", "4x4", "--eb", "-1", "--codec", "sz",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--eb"), "{}", e.0);
    }

    #[test]
    fn tans_backend_round_trips_through_the_cli() {
        let dir = std::env::temp_dir().join("dpz_cli_tans");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("t.f32").to_string_lossy().into_owned();
        let packed = dir.join("t.dpz").to_string_lossy().into_owned();
        let restored = dir.join("t_out.f32").to_string_lossy().into_owned();

        run(&s(&[
            "gen", "FLDSC", &raw, "--scale", "tiny", "--seed", "3",
        ]))
        .unwrap();
        run(&s(&[
            "compress",
            &raw,
            &packed,
            "--dims",
            "45x90",
            "--lossless",
            "tans",
        ]))
        .unwrap();
        let bytes = std::fs::read(&packed).unwrap();
        assert_eq!(bytes[4], 3, "tANS output must be a v3 container");
        let msg = run(&s(&["decompress", &packed, &restored])).unwrap();
        assert!(msg.contains("4050 values"), "{msg}");
        assert!(msg.contains("tans-sections="), "{msg}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run(&s(&["--help"])).unwrap().contains("USAGE"));
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn end_to_end_gen_compress_decompress_eval() {
        let dir = std::env::temp_dir().join("dpz_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("f.f32").to_string_lossy().into_owned();
        let packed = dir.join("f.dpz").to_string_lossy().into_owned();
        let restored = dir.join("f_out.f32").to_string_lossy().into_owned();

        let msg = run(&s(&[
            "gen", "FLDSC", &raw, "--scale", "tiny", "--seed", "7",
        ]))
        .unwrap();
        assert!(msg.contains("45x90"), "{msg}");

        let msg = run(&s(&[
            "compress", &raw, &packed, "--dims", "45x90", "--scheme", "strict", "--tve", "6",
        ]))
        .unwrap();
        assert!(msg.contains("compressed"), "{msg}");

        let msg = run(&s(&["info", &packed])).unwrap();
        assert!(msg.contains("dims 45x90"), "{msg}");

        let msg = run(&s(&["decompress", &packed, &restored])).unwrap();
        assert!(msg.contains("4050 values"), "{msg}");

        let msg = run(&s(&["eval", &raw, &restored, "--compressed", &packed])).unwrap();
        assert!(msg.contains("PSNR"), "{msg}");
        assert!(msg.contains("CR"), "{msg}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_sniffs_every_container_format() {
        let dir = std::env::temp_dir().join("dpz_cli_info");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("i.f32").to_string_lossy().into_owned();
        run(&s(&["gen", "CLDHGH", &raw, "--scale", "tiny"])).unwrap();
        let info = |codec: &str, extra: &[&str]| {
            let packed = dir
                .join(format!("i.{codec}"))
                .to_string_lossy()
                .into_owned();
            let mut args = vec![
                "compress", &raw, &packed, "--dims", "45x90", "--codec", codec,
            ];
            args.extend_from_slice(extra);
            run(&s(&args)).unwrap();
            run(&s(&["info", &packed])).unwrap()
        };

        let msg = info("dpz", &[]);
        assert!(msg.starts_with("DPZ container: v2"), "{msg}");
        let msg = info("dpzc", &["--chunks", "4"]);
        assert!(
            msg.starts_with("DPZC container: v4 (crc32 per chunk) dims 45x90 (4050 values)")
                && msg.contains("chunks=4 progressive=false"),
            "{msg}"
        );
        let msg = info("dpzc", &["--chunks", "2", "--progressive"]);
        assert!(msg.contains("chunks=2 progressive=true"), "{msg}");
        let msg = info("sz", &[]);
        assert!(msg.starts_with("sz container (SZR1): "), "{msg}");
        let msg = info("zfp", &[]);
        assert!(msg.starts_with("zfp container (ZFR1): "), "{msg}");

        // Legacy chunked containers are summarized from their own index.
        for (v, crc) in [(1, "no checksums"), (2, "crc32 per chunk")] {
            let legacy = format!(
                "{}/../../tests/fixtures/legacy/dpzc-v{v}-loose-4x-64x96.bin",
                env!("CARGO_MANIFEST_DIR")
            );
            let msg = run(&s(&["info", &legacy])).unwrap();
            assert!(
                msg.starts_with(&format!("DPZC container: v{v} ({crc}) dims 64x96")),
                "{msg}"
            );
        }

        let garbage = dir.join("g.bin").to_string_lossy().into_owned();
        std::fs::write(&garbage, b"nope").unwrap();
        let e = run(&s(&["info", &garbage])).unwrap_err();
        assert!(e.0.contains("unknown container magic"), "{}", e.0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn summary_names_the_baseline_knob_only_without_a_target() {
        let dir = std::env::temp_dir().join("dpz_cli_knob_suffix");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("k.f32").to_string_lossy().into_owned();
        let packed = dir.join("k.bin").to_string_lossy().into_owned();
        run(&s(&["gen", "CLDHGH", &raw, "--scale", "tiny"])).unwrap();
        let compress = |extra: &[&str]| {
            let mut args = vec!["compress", &raw, &packed, "--dims", "45x90"];
            args.extend_from_slice(extra);
            run(&s(&args)).unwrap()
        };

        let msg = compress(&["--codec", "sz"]);
        assert!(msg.ends_with(" (eb=1e-3)"), "{msg}");
        let msg = compress(&["--codec", "zfp"]);
        assert!(msg.ends_with(" (FixedPrecision(20))"), "{msg}");
        // A target resolves its own bound or mode: naming the configured
        // knob would report a setting the run did not use.
        for target in [
            &["--target-ratio", "6", "--ratio-tol", "0.2"][..],
            &["--target-psnr", "60"],
            &["--rel-bound", "1e-4"],
        ] {
            for codec in ["sz", "zfp"] {
                let mut extra = vec!["--codec", codec];
                extra.extend_from_slice(target);
                let msg = compress(&extra);
                assert!(
                    !msg.contains("eb=") && !msg.contains("Fixed"),
                    "{codec} {target:?}: {msg}"
                );
            }
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_out_writes_prometheus_and_json() {
        let dir = std::env::temp_dir().join("dpz_cli_metrics");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("m.f32").to_string_lossy().into_owned();
        let packed = dir.join("m.dpz").to_string_lossy().into_owned();
        let restored = dir.join("m_out.f32").to_string_lossy().into_owned();
        let prom_path = dir.join("metrics.prom").to_string_lossy().into_owned();
        let json_path = dir.join("metrics.json").to_string_lossy().into_owned();
        run(&s(&["gen", "PHIS", &raw, "--scale", "tiny"])).unwrap();

        let msg = run(&s(&[
            "compress",
            &raw,
            &packed,
            "--dims",
            "45x90",
            "--metrics-out",
            &prom_path,
        ]))
        .unwrap();
        // The summary is one registry-derived line: ratio, k/TVE, throughput.
        assert!(!msg.contains('\n'), "expected one line: {msg}");
        assert!(
            msg.contains("compressed") && msg.contains("k=") && msg.contains("MB/s"),
            "{msg}"
        );

        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(
            prom.contains("dpz_span_seconds_count{span=\"stage2.pca\"}"),
            "{prom}"
        );
        assert!(
            prom.contains("dpz_bytes_in_total{codec=\"dpz\",op=\"compress\"}"),
            "{prom}"
        );
        assert!(
            prom.contains("dpz_bytes_out_total{codec=\"dpz\",op=\"compress\"}"),
            "{prom}"
        );
        assert!(prom.contains("dpz_k_selected"), "{prom}");
        assert!(prom.contains("dpz_tve_achieved"), "{prom}");
        assert!(prom.contains("dpz_span_seconds_bucket"), "{prom}");

        run(&s(&[
            "decompress",
            &packed,
            &restored,
            "--metrics-out",
            &json_path,
        ]))
        .unwrap();
        let snap = dpz_telemetry::from_json(&std::fs::read_to_string(&json_path).unwrap())
            .expect("metrics JSON parses back");
        assert!(snap.counter("dpz_decompressions_total", &[]).unwrap() >= 1);
        assert!(
            snap.counter(
                "dpz_bytes_in_total",
                &[("codec", "dpz"), ("op", "decompress")]
            )
            .unwrap()
                > 0
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_out_writes_chrome_trace_json() {
        use dpz_telemetry::json::JsonValue;
        let _turn = journal_turn();
        let dir = std::env::temp_dir().join("dpz_cli_trace");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("t.f32").to_string_lossy().into_owned();
        let packed = dir.join("t.dpzc").to_string_lossy().into_owned();
        let trace_path = dir.join("trace.json").to_string_lossy().into_owned();
        run(&s(&["gen", "PHIS", &raw, "--scale", "tiny"])).unwrap();

        // Chunked DPZ exercises every producer at once: per-stage spans,
        // per-chunk spans, and the worker pool.
        run(&s(&[
            "compress",
            &raw,
            &packed,
            "--dims",
            "45x90",
            "--codec",
            "dpzc",
            "--chunks",
            "2",
            "--trace-out",
            &trace_path,
        ]))
        .unwrap();
        // The journal is scoped to the traced run.
        assert!(!dpz_telemetry::trace::journal_enabled());

        let text = std::fs::read_to_string(&trace_path).unwrap();
        let doc = dpz_telemetry::json::parse(&text).expect("trace file is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        let str_field = |ev: &JsonValue, key: &str| {
            ev.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .unwrap_or_default()
        };

        // Every record carries the Chrome trace-event essentials, and every
        // complete event a microsecond timestamp/duration pair.
        assert!(!events.is_empty());
        for ev in events {
            assert!(
                ev.get("pid").is_some() && ev.get("name").is_some(),
                "{text}"
            );
            if str_field(ev, "ph") == "X" {
                assert!(ev.get("ts").and_then(JsonValue::as_f64).is_some());
                assert!(ev.get("dur").and_then(JsonValue::as_f64).is_some());
                assert!(ev.get("tid").and_then(JsonValue::as_f64).is_some());
            }
        }

        // All five pipeline stages show up as spans, under their own names
        // on the caller thread and on pool workers alike.
        let spans: Vec<String> = events
            .iter()
            .filter(|ev| str_field(ev, "ph") == "X")
            .map(|ev| str_field(ev, "name"))
            .collect();
        for stage in [
            "stage1.decompose_dct",
            "sampling",
            "stage2.pca",
            "stage3.quantize",
            "lossless",
        ] {
            assert!(
                spans.iter().any(|n| n == stage),
                "missing stage span '{stage}' in {spans:?}"
            );
        }

        // Per-chunk spans are tagged with their chunk index and byte count.
        assert!(
            events.iter().any(|ev| {
                str_field(ev, "name") == "chunk"
                    && ev
                        .get("args")
                        .and_then(|a| a.get("chunk"))
                        .and_then(JsonValue::as_f64)
                        .is_some()
            }),
            "no annotated chunk span in {spans:?}"
        );

        // thread_name metadata gives Perfetto one lane per thread.
        assert!(
            events
                .iter()
                .any(|ev| str_field(ev, "ph") == "M" && str_field(ev, "name") == "thread_name"),
            "{text}"
        );

        // The embedded self-describing summary rides along.
        assert!(
            doc.get("dpzSummary").and_then(|s| s.get("spans")).is_some(),
            "{text}"
        );

        let e = run(&s(&[
            "compress",
            &raw,
            &packed,
            "--dims",
            "45x90",
            "--trace-out",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--trace-out"), "{}", e.0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_flag_is_applied_and_echoed() {
        let dir = std::env::temp_dir().join("dpz_cli_threads");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("t.f32").to_string_lossy().into_owned();
        let packed = dir.join("t.dpz").to_string_lossy().into_owned();
        let restored = dir.join("t_out.f32").to_string_lossy().into_owned();
        run(&s(&["gen", "PHIS", &raw, "--scale", "tiny"])).unwrap();

        // Tests in this binary share one global pool; request whatever size
        // it already has (forcing initialization first) so the flag path is
        // exercised deterministically regardless of test order.
        let n = rayon::current_num_threads().to_string();
        let msg = run(&s(&[
            "compress",
            &raw,
            &packed,
            "--dims",
            "45x90",
            "--threads",
            &n,
        ]))
        .unwrap();
        assert!(msg.contains(&format!("threads={n}")), "{msg}");

        let msg = run(&s(&["decompress", &packed, &restored, "--threads", &n])).unwrap();
        assert!(msg.contains(&format!("threads={n}")), "{msg}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verbose_summary_reports_kernel_backend() {
        let _turn = journal_turn();
        let dir = std::env::temp_dir().join("dpz_cli_kernel");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("k.f32").to_string_lossy().into_owned();
        let packed = dir.join("k.dpz").to_string_lossy().into_owned();
        run(&s(&["gen", "PHIS", &raw, "--scale", "tiny"])).unwrap();

        let msg = run(&s(&[
            "compress",
            &raw,
            &packed,
            "--dims",
            "45x90",
            "--verbose",
        ]))
        .unwrap();
        assert!(
            msg.contains(&format!("kernel={}", dpz_kernels::backend_name())),
            "{msg}"
        );
        // The journal --verbose recorded is scoped to that run.
        assert!(!dpz_telemetry::trace::journal_enabled());

        // Without --verbose the summary stays as terse as before.
        let msg = run(&s(&["compress", &raw, &packed, "--dims", "45x90"])).unwrap();
        assert!(!msg.contains("kernel="), "{msg}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verbose_digest_has_one_row_per_span_name() {
        use dpz_telemetry::trace::{SpanStats, TraceSummary};
        let row = |name: &str, mb_per_s| SpanStats {
            name: name.to_string(),
            count: 4,
            p50_ms: 1.0,
            p99_ms: 2.0,
            total_ms: 5.0,
            mb_per_s,
        };
        let digest = span_digest(&TraceSummary {
            spans: vec![row("stage2.pca", None), row("chunk", Some(12.5))],
            threads: 3,
            dropped: 0,
        });
        let lines: Vec<&str> = digest.lines().collect();
        assert_eq!(lines.len(), 4, "{digest}");
        assert!(lines[0].contains("3 threads"), "{digest}");
        assert!(lines[2].trim_start().starts_with("stage2.pca "), "{digest}");
        assert!(lines[2].trim_end().ends_with('-'), "{digest}");
        assert!(lines[3].trim_end().ends_with("12.5"), "{digest}");
    }

    #[test]
    fn threads_flag_rejects_bad_values() {
        for bad in ["0", "-3", "many"] {
            let e = run(&s(&[
                "compress",
                "a",
                "b",
                "--dims",
                "4x4",
                "--threads",
                bad,
            ]))
            .unwrap_err();
            assert!(e.0.contains("--threads"), "{bad}: {}", e.0);
        }
        let e = run(&s(&["compress", "a", "b", "--dims", "4x4", "--threads"])).unwrap_err();
        assert!(e.0.contains("--threads"), "{}", e.0);
    }

    #[test]
    fn compress_requires_dims() {
        let e = run(&s(&["compress", "a", "b"])).unwrap_err();
        assert!(e.0.contains("--dims"));
    }

    #[test]
    fn baseline_codecs_round_trip_via_cli() {
        let dir = std::env::temp_dir().join("dpz_cli_codecs");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("c.f32").to_string_lossy().into_owned();
        run(&s(&["gen", "PHIS", &raw, "--scale", "tiny"])).unwrap();
        for (codec, extra) in [
            ("sz", vec!["--eb", "1e-2"]),
            ("zfp", vec!["--precision", "18"]),
        ] {
            let packed = dir
                .join(format!("c.{codec}"))
                .to_string_lossy()
                .into_owned();
            let restored = dir
                .join(format!("c_{codec}.f32"))
                .to_string_lossy()
                .into_owned();
            let mut argv = s(&[
                "compress", &raw, &packed, "--dims", "45x90", "--codec", codec,
            ]);
            argv.extend(s(&extra));
            let msg = run(&argv).unwrap();
            assert!(msg.contains("compressed"), "{msg}");
            let msg = run(&s(&["decompress", &packed, &restored])).unwrap();
            assert!(msg.contains("4050 values"), "{msg}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunked_and_auto_codecs_round_trip_via_cli() {
        let _turn = journal_turn();
        let dir = std::env::temp_dir().join("dpz_cli_trait_codecs");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("a.f32").to_string_lossy().into_owned();
        run(&s(&["gen", "PHIS", &raw, "--scale", "tiny"])).unwrap();

        // Chunked DPZ through the generic path, with the chunk count echoed.
        let packed = dir.join("a.dpzc").to_string_lossy().into_owned();
        let restored = dir.join("a_dpzc.f32").to_string_lossy().into_owned();
        let msg = run(&s(&[
            "compress", &raw, &packed, "--dims", "45x90", "--codec", "dpzc", "--chunks", "3",
        ]))
        .unwrap();
        assert!(
            msg.contains("[dpzc]") && msg.contains("(chunks=3)"),
            "{msg}"
        );
        let msg = run(&s(&["decompress", &packed, &restored])).unwrap();
        assert!(msg.contains("4050 values"), "{msg}");

        // Auto selection: the summary names the backend that actually ran,
        // and --verbose echoes it as codec= next to kernel=.
        let packed = dir.join("a.auto").to_string_lossy().into_owned();
        let restored = dir.join("a_auto.f32").to_string_lossy().into_owned();
        let msg = run(&s(&[
            "compress",
            &raw,
            &packed,
            "--dims",
            "45x90",
            "--codec",
            "auto",
            "--verbose",
        ]))
        .unwrap();
        assert!(msg.contains("[auto:"), "{msg}");
        assert!(
            msg.contains(", codec=") && msg.contains(", kernel="),
            "{msg}"
        );
        let msg = run(&s(&["decompress", &packed, &restored])).unwrap();
        assert!(msg.contains("4050 values"), "{msg}");

        let e = run(&s(&[
            "compress", &raw, &packed, "--dims", "45x90", "--codec", "dpzc", "--chunks", "0",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--chunks"), "{}", e.0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunked_summary_reports_the_first_chunks_k_and_tve() {
        // Every chunk sets the k/TVE gauges from whichever worker encodes
        // it, so the summary reads the codec's stats: for dpzc, the first
        // chunk's.
        let dir = std::env::temp_dir().join("dpz_cli_chunk_stats");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("a.f32").to_string_lossy().into_owned();
        let packed = dir.join("a.dpzc").to_string_lossy().into_owned();
        run(&s(&["gen", "CLDHGH", &raw, "--scale", "tiny"])).unwrap();
        let msg = run(&s(&[
            "compress", &raw, &packed, "--dims", "45x90", "--codec", "dpzc", "--chunks", "3",
        ]))
        .unwrap();

        let data = read_f32_file(&raw).unwrap();
        let out = dpz_core::compress_chunked(&data, &[45, 90], &DpzConfig::loose(), 3).unwrap();
        let first = &out.chunk_stats[0];
        let expect = format!(", k={} tve={:.8},", first.k, first.tve_achieved);
        assert!(msg.contains(&expect), "{msg} lacks {expect}");
        assert!(msg.ends_with(", crc32 (chunks=3)"), "{msg}");
        let last = out.chunk_stats.last().unwrap();
        assert_ne!(
            (first.k, format!("{:.8}", first.tve_achieved)),
            (last.k, format!("{:.8}", last.tve_achieved)),
            "the chunks must differ for this test to bite"
        );

        // A progressive write reports no stage stats, but its sections are
        // checksummed all the same, and the summary says so.
        let msg = run(&s(&[
            "compress",
            &raw,
            &packed,
            "--dims",
            "45x90",
            "--codec",
            "dpzc",
            "--chunks",
            "3",
            "--progressive",
        ]))
        .unwrap();
        assert!(!msg.contains(", k="), "{msg}");
        assert!(msg.ends_with(", crc32 (chunks=3, progressive)"), "{msg}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seekable_retrieval_flags_work_via_cli() {
        let dir = std::env::temp_dir().join("dpz_cli_seekable");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("a.f32").to_string_lossy().into_owned();
        run(&s(&["gen", "PHIS", &raw, "--scale", "tiny"])).unwrap();

        let packed = dir.join("a.dpzc").to_string_lossy().into_owned();
        run(&s(&[
            "compress", &raw, &packed, "--dims", "45x90", "--codec", "dpzc", "--chunks", "3",
        ]))
        .unwrap();

        // Single chunk: 45 rows over 3 chunks -> 15x90 per chunk.
        let out = dir.join("chunk.f32").to_string_lossy().into_owned();
        let msg = run(&s(&["decompress", &packed, &out, "--chunk", "1"])).unwrap();
        assert!(
            msg.contains("chunk 1 of") && msg.contains("1350 values") && msg.contains("dims 15x90"),
            "{msg}"
        );
        assert!(msg.contains("crc=verified"), "{msg}");

        // Region crossing a chunk boundary.
        let out = dir.join("region.f32").to_string_lossy().into_owned();
        let msg = run(&s(&[
            "decompress",
            &packed,
            &out,
            "--region",
            "10..20,30..60",
        ]))
        .unwrap();
        assert!(
            msg.contains("region 10..20,30..60") && msg.contains("300 values"),
            "{msg}"
        );
        assert!(msg.contains("dims 10x30"), "{msg}");
        assert!(msg.contains("crc=verified"), "{msg}");

        // Legacy containers serve partial reads too, and the summary reports
        // the checksum state their index parsed.
        let legacy = |v: u8| {
            format!(
                "{}/../../tests/fixtures/legacy/dpzc-v{v}-loose-4x-64x96.bin",
                env!("CARGO_MANIFEST_DIR")
            )
        };
        for (v, read, crc) in [
            (1, ["--chunk", "1"], "crc=absent (v1 container)"),
            (1, ["--region", "3..17,5..25"], "crc=absent (v1 container)"),
            (2, ["--chunk", "1"], "crc=verified"),
        ] {
            let mut argv = s(&["decompress", &legacy(v), &out]);
            argv.extend(s(&read));
            let msg = run(&argv).unwrap();
            assert!(msg.contains(crc), "v{v} {read:?}: {msg}");
        }

        // Retrieval flags are mutually exclusive and validated.
        let e = run(&s(&[
            "decompress",
            &packed,
            &out,
            "--chunk",
            "0",
            "--region",
            "0..1,0..1",
        ]))
        .unwrap_err();
        assert!(e.0.contains("mutually exclusive"), "{}", e.0);
        let e = run(&s(&["decompress", &packed, &out, "--region", "10-20"])).unwrap_err();
        assert!(e.0.contains("--region"), "{}", e.0);

        // Single-stream containers have no chunk index.
        let plain = dir.join("a.dpz").to_string_lossy().into_owned();
        run(&s(&["compress", &raw, &plain, "--dims", "45x90"])).unwrap();
        for read in [
            ["--chunk", "0"],
            ["--region", "0..1,0..1"],
            ["--budget", "99"],
        ] {
            let mut argv = s(&["decompress", &plain, &out]);
            argv.extend(s(&read));
            let e = run(&argv).unwrap_err();
            assert!(e.0.contains("requires a seekable container"), "{}", e.0);
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progressive_compress_and_budget_decode_via_cli() {
        let dir = std::env::temp_dir().join("dpz_cli_progressive");
        std::fs::create_dir_all(&dir).unwrap();
        let raw = dir.join("a.f32").to_string_lossy().into_owned();
        run(&s(&["gen", "PHIS", &raw, "--scale", "tiny"])).unwrap();

        let packed = dir.join("a.dpzp").to_string_lossy().into_owned();
        let msg = run(&s(&[
            "compress",
            &raw,
            &packed,
            "--dims",
            "45x90",
            "--codec",
            "dpzc",
            "--chunks",
            "3",
            "--progressive",
        ]))
        .unwrap();
        assert!(msg.contains("progressive"), "{msg}");

        // Ordinary decompress reads the whole stream back.
        let out = dir.join("full.f32").to_string_lossy().into_owned();
        let msg = run(&s(&["decompress", &packed, &out])).unwrap();
        assert!(msg.contains("4050 values"), "{msg}");

        // Budgeted decode reports how much it used and the quality reached.
        let out = dir.join("half.f32").to_string_lossy().into_owned();
        let size = std::fs::metadata(&packed).unwrap().len() as usize;
        let msg = run(&s(&[
            "decompress",
            &packed,
            &out,
            "--budget",
            &(size / 2).to_string(),
        ]))
        .unwrap();
        assert!(
            msg.contains("progressive (") && msg.contains("TVE") && msg.contains("4050 values"),
            "{msg}"
        );

        // --progressive outside dpzc is rejected.
        let e = run(&s(&[
            "compress",
            &raw,
            &packed,
            "--dims",
            "45x90",
            "--progressive",
        ]))
        .unwrap_err();
        assert!(e.0.contains("--progressive"), "{}", e.0);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_codec_rejected() {
        let e = run(&s(&[
            "compress", "a", "b", "--dims", "4x4", "--codec", "lz4",
        ]))
        .unwrap_err();
        assert!(e.0.contains("read a") || e.0.contains("unknown --codec"));
    }
}
