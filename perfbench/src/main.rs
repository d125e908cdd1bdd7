//! DPZ benchmark: end-to-end metrics with tracing off, per-layer metrics
//! from a separate traced run. See README.md beside this crate.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--setup-only` added, the process only sets up (inputs, pool, one
//! warm-up op) and prints its set-up time; untraced runs start such
//! processes to time cold set-ups.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod canary;
mod layers;
mod report;
mod runner;
mod spans;
mod stats;
mod sys;
mod workloads;

use dpz_data::{Dataset, DatasetKind, Scale};
use runner::{Expect, Record, Runner};
use spans::Spans;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;
use std::time::Instant;
use workloads::{Kind, Workload};

/// Cold set-ups per untraced run: this process's own and those of
/// `SETUP_PROCESSES - 1` set-up-only processes. `setup_s` is their median.
const SETUP_PROCESSES: usize = 3;
/// Where runs write their record and spans (relative to the repository
/// root, from which the benchmark runs).
const OUT_DIR: &str = "perfbench/out";

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        workloads::NAMES.join("|")
    )
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::get(value).ok_or_else(|| {
                    format!(
                        "unknown workload {value} (one of {})",
                        workloads::NAMES.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

fn sum(v: &[f64]) -> f64 {
    v.iter().sum()
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        sum(v) / v.len() as f64
    }
}

fn ms(v: &[f64]) -> Vec<f64> {
    v.iter().map(|s| s * 1e3).collect()
}

/// Human-readable notes printed beside the metrics and kept in the record.
type Notes = Vec<(String, String)>;

fn main() {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    let threads = args.workload.threads.count();
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .expect("the pool is sized once, before any parallel work");
    // Start the pool now, inside the set-up.
    let _ = rayon::pool_stats();

    let mut run = Runner::new(args.workload.clone(), args.seed);
    run.setup();
    let own_setup = process_start.elapsed().as_secs_f64();
    if args.setup_only {
        println!("setup {own_setup}");
        std::process::exit(if run.rec.failed == 0 { 0 } else { 1 });
    }
    let mut setup_rec = std::mem::take(&mut run.rec);

    let mut notes: Notes = vec![
        ("threads".into(), threads.to_string()),
        (
            "available_parallelism".into(),
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .to_string(),
        ),
        (
            "kernel_backend".into(),
            dpz_kernels::backend_name().to_string(),
        ),
    ];
    let (declared, values, measured) = if args.trace {
        let (values, recs) = traced(&mut run, &args, threads, &mut notes);
        (&report::PER_LAYER[..], values, recs)
    } else {
        let setups = cold_setups(own_setup, &argv, &mut setup_rec, &mut run.failures);
        notes.push(("setup_runs_s".into(), format!("{setups:.4?}")));
        run.run_for(args.seconds);
        let rec = std::mem::take(&mut run.rec);
        let values = end_to_end(&run, &rec, &setups, &mut notes);
        (&report::END_TO_END[..], values, vec![rec])
    };

    let attempted = setup_rec.attempted + measured.iter().map(|r| r.attempted).sum::<u64>();
    let failed = setup_rec.failed + measured.iter().map(|r| r.failed).sum::<u64>();
    notes.push((
        "error_rate".into(),
        format!(
            "{} ({failed} failed of {attempted} attempted)",
            failed as f64 / attempted.max(1) as f64
        ),
    ));
    if run.w.kind == Kind::Targets {
        notes.push((
            "target_miss_rate".into(),
            format!(
                "{} ({} of {} target ops outside their band or refused; not counted as failures)",
                run.targets.misses as f64 / run.targets.ops.max(1) as f64,
                run.targets.misses,
                run.targets.ops
            ),
        ));
    }
    let metrics = report::ordered(declared, &values);
    let correct = failed == 0 && run.faithfulness.is_empty();

    println!(
        "perfbench {} seed {} trace {}",
        run.w.name,
        args.seed,
        u8::from(args.trace)
    );
    for (name, unit, v) in &metrics {
        println!("  {name:<36} {v:>16.6} {unit}");
    }
    for (k, v) in &notes {
        println!("  # {k}: {v}");
    }
    for f in &run.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    if !run.faithfulness.is_empty() {
        eprintln!("perfbench: ==================== FAITHFULNESS CHECK FAILED ====================");
        for f in &run.faithfulness {
            eprintln!("perfbench: the composed layer calls no longer match the pipeline: {f}");
        }
        eprintln!("perfbench: per-layer numbers of this run do not describe the pipeline's work");
    }
    write_outputs(&run, &args, &metrics, &notes, &measured[0], correct);
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
}

/// Cold set-ups, each from a process's start to its first timed op, in
/// seconds: this process's own (`own`) and those of `SETUP_PROCESSES - 1`
/// set-up-only processes of the same workload and seed, started one after
/// another. A process that fails counts as a failed op.
fn cold_setups(
    own: f64,
    argv: &[String],
    rec: &mut Record,
    failures: &mut Vec<String>,
) -> Vec<f64> {
    let mut out = vec![own];
    let exe = std::env::current_exe();
    for _ in 1..SETUP_PROCESSES {
        rec.attempted += 1;
        let res = exe.as_ref().map_err(|e| e.to_string()).and_then(|exe| {
            let o = Command::new(exe)
                .args(argv)
                .arg("--setup-only")
                .output()
                .map_err(|e| e.to_string())?;
            let text = String::from_utf8_lossy(&o.stdout);
            let line = text
                .lines()
                .find_map(|l| l.strip_prefix("setup "))
                .ok_or_else(|| format!("set-up process: {}", String::from_utf8_lossy(&o.stderr)))?;
            match (o.status.success(), line.trim().parse::<f64>()) {
                (true, Ok(s)) => Ok(s),
                _ => Err(format!("set-up process exited with {}", o.status)),
            }
        });
        match res {
            Ok(s) => out.push(s),
            Err(e) => {
                rec.failed += 1;
                failures.push(e);
            }
        }
    }
    out
}

/// End-to-end metrics of one untraced measured segment.
fn end_to_end(
    run: &Runner,
    rec: &Record,
    setups: &[f64],
    notes: &mut Notes,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let seekable = run.w.kind == Kind::ChunkedReads;
    m.insert("compress_mb_s", rec.compress.median_mb_per_s());
    m.insert("decompress_mb_s", rec.decompress.median_mb_per_s());
    // Only a seekable artifact has region reads of its own. A region read
    // of any other artifact is a full decode: there the metric is a field's
    // median decode, averaged over the fields.
    let region_s = if seekable {
        stats::median(&rec.region.scaled)
    } else {
        rec.decompress.mean_key_median_s()
    };
    m.insert("region_p50_ms", 1e3 * region_s);
    notes.push((
        "measured_mb_s".into(),
        format!(
            "compress {}, decompress {} (Σ bytes ÷ Σ calls as measured, not scaled)",
            stats::mb_per_s(rec.compress.bytes, sum(&rec.compress.all)),
            stats::mb_per_s(rec.decompress.bytes, sum(&rec.decompress.all))
        ),
    ));
    let canary_factor = rec.compress.total_scaled_s() / sum(&rec.compress.all);
    notes.push((
        "canary_factor".into(),
        format!(
            "{canary_factor} (scaled ÷ measured compress time; 1 = the sizing host uncontended)"
        ),
    ));
    // Tails follow how often other tenants slow this process, so they are
    // printed as measured, not gated (README).
    let mut tails = vec![
        ("compress_tail_ms", &rec.compress.all),
        ("decompress_tail_ms", &rec.decompress.all),
    ];
    if seekable {
        tails.push(("region_tail_ms", &rec.region.all));
    }
    for (name, samples) in tails {
        let t = stats::tail(&ms(samples));
        notes.push((name.into(), format!("{} ms", t.value)));
        notes.push((
            format!("{name}.percentile"),
            format!("p{:.2} of {} samples", t.percentile, t.samples),
        ));
    }
    if seekable {
        notes.push((
            "region_reads".into(),
            format!(
                "{} region reads, {} single-chunk reads",
                rec.region.all.len(),
                rec.chunk.all.len()
            ),
        ));
        notes.push((
            "chunk_read_p50_ms".into(),
            (1e3 * stats::median(&rec.chunk.scaled)).to_string(),
        ));
    }
    notes.push(("cycles".into(), rec.cycle_s.len().to_string()));

    let (mut input, mut output, mut psnr, mut max_err) = (0u64, 0u64, f64::INFINITY, 0.0f64);
    for e in run.expect.values() {
        if let Expect::Artifact {
            len,
            input_bytes,
            quality,
            ..
        } = e
        {
            input += input_bytes;
            output += *len as u64;
            psnr = psnr.min(quality.psnr_db);
            max_err = max_err.max(quality.max_err_rel);
        }
    }
    m.insert("psnr_db", psnr);
    m.insert("ratio", stats::ratio(input, output));
    // An extreme-value statistic: it moves too much from seed to seed to
    // hold a bound, so it is printed, not gated.
    notes.push(("max_err_rel".into(), format!("{max_err} frac")));
    // The set-ups ran just before the measured loop, so the loop's mean
    // canary factor stands for the contention they met.
    m.insert("setup_s", stats::median(setups) * canary_factor);
    m.insert(
        "peak_rss_mb",
        sys::peak_rss_bytes().map_or(0.0, |b| b as f64 / 1e6),
    );
    m
}

/// The traced run: an untraced segment (the overhead baseline and the
/// source of pool and registry deltas), a traced segment, then the layer
/// profile and the hardware references.
fn traced(
    run: &mut Runner,
    args: &Args,
    threads: usize,
    notes: &mut Notes,
) -> (BTreeMap<&'static str, f64>, Vec<Record>) {
    let half = args.seconds / 2.0;
    // On suite_strict both halves compose each op from the layer calls, so
    // the halves differ only by the spans.
    run.composed = run.w.kind == Kind::Strict;
    let pool0 = rayon::pool_stats();
    let cpu0 = sys::cpu_seconds();
    let reg0 = dpz_telemetry::global().snapshot();
    let target_ops0 = run.targets.ops;
    let wall = Instant::now();
    run.run_for(half);
    let wall = wall.elapsed().as_secs_f64();
    let cpu = sys::cpu_seconds().zip(cpu0).map_or(0.0, |(b, a)| b - a);
    let pool1 = rayon::pool_stats();
    let reg = dpz_telemetry::global().snapshot().since(&reg0);
    let segment_target_ops = run.targets.ops - target_ops0;
    let untraced = std::mem::take(&mut run.rec);

    run.spans.set_enabled(true);
    run.run_for(half);
    run.composed = false;
    let traced = std::mem::take(&mut run.rec);

    // Layer profile: compose DPZ1 where the workload's own ops are not
    // DPZ1, read a seekable artifact where they do not read, and probe
    // where they do not target.
    let fields = std::sync::Arc::clone(&run.fields);
    let cfg = dpz_core::DpzConfig::loose();
    if run.w.kind != Kind::Strict {
        notes.push(("layer_profile_input".into(), "each field, loose".into()));
        for (i, f) in fields.iter().enumerate() {
            if let Some(c) = run.profile_dpz1(&f.ds.data, &f.ds.dims, &cfg) {
                run.note_composed(c, i == 0);
            }
        }
    }
    // Paper scale (CLDHGH 1800×3600) on a recorder of its own: the layers
    // at the size the paper evaluates, reported per layer and never gated,
    // because a field this size does not fit in a core's cache and its
    // timings follow other tenants' memory traffic on a shared host.
    let paper = {
        let ds = Dataset::generate(DatasetKind::Cldhgh, Scale::Paper, args.seed);
        std::mem::swap(&mut run.spans, run.paper_spans.insert(Spans::new(true)));
        let c = run.profile_dpz1(&ds.data, &ds.dims, &cfg);
        let paper_spans = run.paper_spans.as_mut().expect("set above");
        std::mem::swap(&mut run.spans, paper_spans);
        c.map(|c| (c.k, c.sketch_cols))
    };
    if run.w.kind != Kind::ChunkedReads {
        run.profile_seek(&fields[0]);
    }
    if run.w.kind != Kind::Targets {
        let ds = &fields[0].ds;
        let target = runner::targets()[0];
        for _ in 0..3 {
            run.ops += 1;
            let op = run.ops;
            let _ = run.spans.time("auto.probe_all", op, || {
                dpz_codec::AutoCodec::new().probe_all(&ds.data, &ds.dims, &target)
            });
        }
    }
    let kernels = layers::kernel_rates(
        run.profile_input
            .as_ref()
            .expect("a composed compression ran"),
    );
    let refs = layers::references(args.seed);
    notes.push((
        "ref.memcpy".into(),
        format!(
            "working set {} MiB (source + destination) = {:.1} x the {} MiB last-level cache",
            refs.memcpy_bytes >> 20,
            refs.memcpy_bytes as f64 / refs.llc_bytes as f64,
            refs.llc_bytes >> 20
        ),
    ));
    notes.push((
        "gemm.flop_per_byte".into(),
        "computed from the timed shape, not measured".into(),
    ));

    let totals = run.spans.totals();
    let span_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_self_ms());
    let span_s = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
    let div = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let counter = |name: &str| reg.counter(name, &[]).unwrap_or(0) as f64;
    let layer = &run.layer;
    let fits = layer.fits as f64;
    let cycles = untraced.cycle_s.len() as f64;

    let mut m = BTreeMap::new();
    let dct_gb_s = div(layer.dct_bytes as f64 / 1e9, span_s("decompose.dct"));
    m.insert("decompose.dct_ms", span_ms("decompose.dct"));
    m.insert("decompose.dct_gb_s", dct_gb_s);
    m.insert("decompose.dct_memcpy_frac", div(dct_gb_s, refs.memcpy_gb_s));
    m.insert("decompose.idct_ms", span_ms("decompose.idct"));
    m.insert("pca.fit_ms", span_ms("pca.fit"));
    m.insert("pca.k", div(layer.k as f64, fits));
    m.insert("pca.sketch_cols", div(layer.sketch_cols as f64, fits));
    m.insert(
        "pca.useful_cols_ratio",
        div(layer.k as f64, layer.sketch_cols as f64),
    );
    m.insert("pca.tve", div(layer.tve, fits));
    let hits = counter("dpz_pca_warm_hits_total");
    m.insert(
        "pca.warm_hit_ratio",
        div(hits, hits + counter("dpz_pca_warm_cold_fallbacks_total")),
    );
    m.insert("gemm.gflop_s", kernels.gemm_gflop_s);
    m.insert("gemm.flop_per_byte", kernels.gemm_flop_per_byte);
    m.insert("gemm.fma_frac", div(kernels.gemm_gflop_s, refs.fma_gflop_s));
    m.insert("quantize.ms", span_ms("quantize"));
    m.insert("dequantize.ms", span_ms("dequantize"));
    m.insert(
        "quantize.outlier_frac",
        div(layer.outliers as f64, layer.scores as f64),
    );
    m.insert("reconstruct.gemm_ms", span_ms("reconstruct.gemm"));
    m.insert("lossless.encode_ms", span_ms("lossless.encode"));
    m.insert("lossless.decode_ms", span_ms("lossless.decode"));
    m.insert("lossless.ratio", div(layer.raw as f64, layer.packed as f64));
    m.insert("deflate.mb_s", kernels.deflate_mb_s);
    m.insert(
        "deflate.memcpy_frac",
        div(kernels.deflate_mb_s / 1e3, refs.memcpy_gb_s),
    );
    m.insert("inflate.mb_s", kernels.inflate_mb_s);
    m.insert(
        "inflate.memcpy_frac",
        div(kernels.inflate_mb_s / 1e3, refs.memcpy_gb_s),
    );
    m.insert("crc32.gb_s", kernels.crc32_gb_s);
    m.insert(
        "crc32.memcpy_frac",
        div(kernels.crc32_gb_s, refs.memcpy_gb_s),
    );
    m.insert("seek.index_ms", span_ms("seek.index"));
    m.insert(
        "seek.bytes_read_per_read",
        div(run.seek.bytes_read as f64, run.seek.reads as f64),
    );
    m.insert(
        "seek.chunks_touched_per_read",
        div(run.seek.chunks_touched as f64, run.seek.reads as f64),
    );
    m.insert(
        "pool.tasks",
        div((pool1.tasks_executed - pool0.tasks_executed) as f64, cycles),
    );
    m.insert(
        "pool.steals",
        div((pool1.steals - pool0.steals) as f64, cycles),
    );
    m.insert("pool.cpu_util", div(cpu, wall * threads as f64));
    let tops = segment_target_ops as f64;
    let confirms = ["ratio", "psnr"]
        .iter()
        .map(|mode| {
            reg.counter("dpz_target_confirm_total", &[("mode", mode)])
                .unwrap_or(0) as f64
        })
        .sum::<f64>();
    m.insert(
        "target.oracle_calls",
        div(counter("dpz_target_oracle_calls_total"), tops),
    );
    m.insert("target.confirms", div(confirms, tops));
    m.insert(
        "target.psnr_retries",
        div(counter("dpz_target_psnr_retries_total"), tops),
    );
    m.insert(
        "target.miss_frac",
        div(run.targets.misses as f64, run.targets.ops as f64),
    );
    let probe_ms = span_ms("auto.probe_all");
    m.insert("auto.probe_ms", probe_ms);
    m.insert(
        "auto.probe_share",
        div(probe_ms, 1e3 * mean(&untraced.compress.all)),
    );
    let selected: u64 = run.targets.selected.values().sum();
    for (name, codec) in [
        ("auto.selected.dpz", "dpz"),
        ("auto.selected.sz", "sz"),
        ("auto.selected.zfp", "zfp"),
    ] {
        let n = run.targets.selected.get(codec).copied().unwrap_or(0);
        m.insert(name, div(n as f64, selected as f64));
    }
    m.insert(
        "attrib.compress_unattributed_frac",
        run.spans.unattributed_frac("dpz1.compress"),
    );
    m.insert(
        "attrib.decompress_unattributed_frac",
        run.spans.unattributed_frac("dpz1.decompress"),
    );
    let paper_totals = run
        .paper_spans
        .as_ref()
        .map(Spans::totals)
        .unwrap_or_default();
    let paper_ms = |name: &str, whole: bool| {
        paper_totals.get(name).map_or(0.0, |t| {
            let ns = if whole { t.total_ns } else { t.self_ns };
            div(ns as f64 / 1e6, t.count as f64)
        })
    };
    m.insert("paper.compress_ms", paper_ms("dpz1.compress", true));
    m.insert("paper.decompress_ms", paper_ms("dpz1.decompress", true));
    for (metric, span) in [
        ("paper.decompose.dct_ms", "decompose.dct"),
        ("paper.pca.fit_ms", "pca.fit"),
        ("paper.quantize.ms", "quantize"),
        ("paper.lossless.encode_ms", "lossless.encode"),
        ("paper.lossless.decode_ms", "lossless.decode"),
        ("paper.reconstruct.gemm_ms", "reconstruct.gemm"),
        ("paper.decompose.idct_ms", "decompose.idct"),
    ] {
        m.insert(metric, paper_ms(span, false));
    }
    let (paper_k, paper_sketch) = paper.unwrap_or((0, 0));
    m.insert("paper.pca.k", paper_k as f64);
    m.insert("paper.pca.sketch_cols", paper_sketch as f64);
    m.insert("ref.memcpy_gb_s", refs.memcpy_gb_s);
    m.insert("ref.fma_gflop_s", refs.fma_gflop_s);
    m.insert("ref.sz_canary_ms", refs.sz_canary_ms);
    // Op time of one pass over the inputs, each call at its input's median
    // scaled time, traced half against untraced half.
    let op_s = |r: &Record| {
        r.compress.median_pass_s()
            + r.decompress.median_pass_s()
            + r.region.median_pass_s()
            + r.chunk.median_pass_s()
    };
    m.insert(
        "trace.overhead_frac",
        div(op_s(&traced), op_s(&untraced)) - 1.0,
    );
    notes.push((
        "segments".into(),
        format!(
            "untraced {} cycles in {wall:.2} s, traced {} cycles",
            untraced.cycle_s.len(),
            traced.cycle_s.len()
        ),
    ));
    // Failed reads of the layer profile count with the run's other ops.
    let profile = std::mem::take(&mut run.rec);
    (m, vec![untraced, traced, profile])
}

/// Write the run record (and, for traced runs, the spans) under OUT_DIR.
/// A failed write is reported and does not fail the run.
fn write_outputs(
    run: &Runner,
    args: &Args,
    metrics: &[(&str, &str, f64)],
    notes: &Notes,
    rec: &Record,
    correct: bool,
) {
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        run.w.name,
        args.seed,
        u8::from(args.trace)
    );
    let esc = dpz_telemetry::json::escape;
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"workload\": \"{}\",", run.w.name);
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = writeln!(s, "  \"seconds\": {:?},", args.seconds);
    let _ = writeln!(s, "  \"correct\": {correct},");
    s.push_str("  \"metrics\": {");
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let v = if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".into()
        };
        let _ = write!(
            s,
            "{sep}    \"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("\n  },\n  \"notes\": {");
    for (i, (k, v)) in notes.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(s, "{sep}    \"{}\": \"{}\"", esc(k), esc(v));
    }
    // Every timed call of the (first) measured segment, in the order it ran.
    s.push_str("\n  },\n  \"samples_ms\": {");
    for (i, (name, v)) in [
        ("compress", &rec.compress.all),
        ("decompress", &rec.decompress.all),
        ("region", &rec.region.all),
        ("chunk", &rec.chunk.all),
        ("cycle", &rec.cycle_s),
    ]
    .into_iter()
    .enumerate()
    {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let v: Vec<String> = v.iter().map(|x| format!("{:?}", x * 1e3)).collect();
        let _ = write!(s, "{sep}    \"{name}\": [{}]", v.join(", "));
    }
    s.push_str("\n  },\n  \"outputs\": [");
    for (i, ((f, t), e)) in run.expect.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let name = &run.fields[*f].ds.name;
        let body = match e {
            Expect::Artifact {
                len,
                hash,
                decoded,
                k,
                codec,
                quality,
                in_band,
                ..
            } => format!(
                "\"bytes\": {len}, \"fnv1a\": \"{hash:016x}\", \"decoded_fnv1a\": \"{decoded:016x}\", \"codec\": \"{codec}\", \
                 \"k\": {}, \"psnr_db\": {:?}, \"max_err_rel\": {:?}, \"in_band\": {in_band}",
                k.map_or("null".to_string(), |k| k.to_string()),
                quality.psnr_db,
                quality.max_err_rel
            ),
            Expect::Miss { achievable } => format!("\"refused\": true, \"achievable\": {achievable:?}"),
        };
        let _ = write!(
            s,
            "{sep}    {{\"field\": \"{}\", \"target\": {t}, {body}}}",
            esc(name)
        );
    }
    s.push_str("\n  ],\n  \"failures\": [");
    let msgs: Vec<String> = run
        .failures
        .iter()
        .chain(&run.faithfulness)
        .map(|f| format!("\"{}\"", esc(f)))
        .collect();
    s.push_str(&msgs.join(", "));
    s.push_str("]\n}\n");

    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(OUT_DIR)?;
        std::fs::write(format!("{stem}.json"), &s)?;
        if args.trace {
            std::fs::write(format!("{stem}-spans.json"), run.spans.to_json())?;
        }
        if let Some(paper) = &run.paper_spans {
            std::fs::write(format!("{stem}-paper-spans.json"), paper.to_json())?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!("perfbench: could not write {stem}.json: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload suite_strict --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload.name, "suite_strict");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload suite_strict --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv(
            "--workload suite_strict --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv("--seed 1 --seconds 1")).is_err());
    }
}
