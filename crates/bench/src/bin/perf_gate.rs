//! Perf regression gate: measures the hot end-to-end paths (best-of-N wall
//! clock on the Figure 8 field) and compares them against a checked-in
//! baseline (`BENCH_pr*.json`, `gate` section), failing when any path
//! regresses by more than the allowed percentage.
//!
//! ```text
//! perf_gate [--samples N] [--out fresh.json]              # measure only
//! perf_gate --baseline BENCH_pr6.json [--max-regress PCT] # measure + gate
//! ```
//!
//! Host speed drifts between CI runs, so comparisons are normalized by the
//! SZ canary (a path this repo's PRs rarely touch): each fresh time is
//! scaled by `baseline_sz_ms / fresh_sz_ms` before the threshold check.
//!
//! The canary cannot correct for a *different machine class*: numbers taken
//! with another SIMD backend or worker count are incomparable, so each
//! emitted JSON records both under `host` and gating against a baseline
//! from a mismatched host is refused unless `--allow-backend-mismatch`.

use dpz_bench::harness::{stage_seconds, STAGES};
use dpz_bench::quality::QualityReport;
use dpz_core::{DpzConfig, TveLevel};
use dpz_data::metrics::value_range;
use dpz_data::{Dataset, DatasetKind, Scale};
use dpz_sz::SzConfig;
use dpz_telemetry::json::{self, JsonValue};
use std::hint::black_box;
use std::time::Instant;

/// One measured path: best-of-N milliseconds plus derived throughput.
struct Measurement {
    name: &'static str,
    ms: f64,
    mb_per_s: f64,
}

/// Stage-level wall clock of a compress path's best run, in milliseconds,
/// indexed like [`STAGES`]. Emitted under `stages` in the gate JSON so a
/// PR's effect on the *composition* of the time (eigensolve share vs
/// entropy share, …) is visible in the checked-in baselines, not just the
/// totals.
struct StageRow {
    name: &'static str,
    ms: [f64; 5],
}

/// Best-of-N wall-clock milliseconds of `f` (one warmup call first).
fn best_of<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    f();
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Best-of-N compress wall clock plus the stage timings of that fastest
/// run (the same run supplies both, so the breakdown sums to ~the total).
fn best_compress(samples: usize, data: &[f32], dims: &[usize], cfg: &DpzConfig) -> (f64, [f64; 5]) {
    dpz_core::compress(data, dims, cfg).unwrap(); // warmup
    let mut best = f64::INFINITY;
    let mut stages = [0.0; 5];
    for _ in 0..samples {
        let t = Instant::now();
        let c = dpz_core::compress(black_box(data), dims, cfg).unwrap();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if ms < best {
            best = ms;
            stages = stage_seconds(&c.stats.timings).map(|s| s * 1e3);
        }
    }
    (best, stages)
}

/// Quality assessments of the gated compress paths (same dataset the
/// timing gate uses). These feed the *non-blocking* quality-regression
/// check: a PSNR or ratio drop against the baseline prints a warning but
/// never fails the gate — timing regressions stay the only hard failure.
fn measure_quality() -> Vec<QualityReport> {
    let ds = Dataset::generate(DatasetKind::Cldhgh, Scale::Small, 2021);
    let mut out = Vec::new();
    for (label, cfg) in [
        (
            "dpz_loose",
            DpzConfig::loose().with_tve(TveLevel::FiveNines),
        ),
        (
            "dpz_strict",
            DpzConfig::strict().with_tve(TveLevel::FiveNines),
        ),
    ] {
        let Ok(c) = dpz_core::compress(&ds.data, &ds.dims, &cfg) else {
            continue;
        };
        let Ok((recon, _)) = dpz_core::decompress(&c.bytes) else {
            continue;
        };
        out.push(QualityReport::assess(
            &ds.name,
            label,
            &ds.data,
            &recon,
            c.bytes.len(),
            Some(&c.stats),
        ));
    }
    out
}

/// Allowed quality drift before the (non-blocking) warning fires.
const QUALITY_PSNR_SLACK_DB: f64 = 0.5;
const QUALITY_CR_SLACK_PCT: f64 = 5.0;

/// Non-blocking quality diff: warnings for every gated path whose PSNR
/// fell more than `QUALITY_PSNR_SLACK_DB` dB or whose ratio fell more than
/// `QUALITY_CR_SLACK_PCT` percent below the baseline's `quality` section.
/// A baseline without that section (pre-refactor files) diffs nothing.
fn quality_warnings(fresh: &[QualityReport], doc: &JsonValue) -> Vec<String> {
    let mut out = Vec::new();
    for r in fresh {
        let Some(base) = doc.get("quality").and_then(|q| q.get(&r.codec)) else {
            continue;
        };
        if let Some(base_psnr) = base.get("psnr_db").and_then(JsonValue::as_f64) {
            if r.psnr_db < base_psnr - QUALITY_PSNR_SLACK_DB {
                out.push(format!(
                    "{}: PSNR fell {:.2} dB (baseline {:.2}, fresh {:.2})",
                    r.codec,
                    base_psnr - r.psnr_db,
                    base_psnr,
                    r.psnr_db
                ));
            }
        }
        if let Some(base_cr) = base.get("cr_total").and_then(JsonValue::as_f64) {
            let pct = 100.0 * (1.0 - r.cr_total / base_cr);
            if pct > QUALITY_CR_SLACK_PCT {
                out.push(format!(
                    "{}: ratio fell {pct:.1}% (baseline {base_cr:.2}x, fresh {:.2}x)",
                    r.codec, r.cr_total
                ));
            }
        }
    }
    out
}

/// Measure every gated path on the bench_pipeline dataset.
fn measure(samples: usize) -> (Vec<Measurement>, Vec<StageRow>) {
    let ds = Dataset::generate(DatasetKind::Cldhgh, Scale::Small, 2021);
    let mb = ds.nbytes() as f64 / 1e6;
    let loose = DpzConfig::loose().with_tve(TveLevel::FiveNines);
    let strict = DpzConfig::strict().with_tve(TveLevel::FiveNines);
    let sz_cfg = SzConfig::with_error_bound(1e-4 * value_range(&ds.data));
    let strict_bytes = dpz_core::compress(&ds.data, &ds.dims, &strict)
        .unwrap()
        .bytes;

    let mut out = Vec::new();
    let mut stages = Vec::new();
    let mut record = |name, ms| {
        out.push(Measurement {
            name,
            ms,
            mb_per_s: mb / (ms / 1e3),
        });
    };
    let (ms, breakdown) = best_compress(samples, &ds.data, &ds.dims, &loose);
    record("compress_dpz_loose", ms);
    stages.push(StageRow {
        name: "compress_dpz_loose",
        ms: breakdown,
    });
    let (ms, breakdown) = best_compress(samples, &ds.data, &ds.dims, &strict);
    record("compress_dpz_strict", ms);
    stages.push(StageRow {
        name: "compress_dpz_strict",
        ms: breakdown,
    });
    record(
        "decompress_dpz_strict",
        best_of(samples, || {
            dpz_core::decompress(black_box(&strict_bytes)).unwrap();
        }),
    );
    record(
        "sz_canary",
        best_of(samples, || {
            dpz_sz::compress(black_box(&ds.data), &ds.dims, &sz_cfg);
        }),
    );
    (out, stages)
}

/// The fresh measurements as the JSON `gate` document the baseline embeds.
/// The `host` section records the kernel backend and worker count the
/// numbers were taken with, so a later gate run can refuse to compare
/// across incompatible hosts.
fn to_json(
    samples: usize,
    measured: &[Measurement],
    stages: &[StageRow],
    quality: &[QualityReport],
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"samples\": {samples},\n"));
    s.push_str(&format!(
        "  \"host\": {{ \"backend\": \"{}\", \"threads\": {} }},\n",
        dpz_kernels::backend_name(),
        rayon::current_num_threads()
    ));
    s.push_str("  \"gate\": {\n");
    for (i, m) in measured.iter().enumerate() {
        let sep = if i + 1 == measured.len() { "" } else { "," };
        s.push_str(&format!(
            "    \"{}\": {{ \"ms\": {:.3}, \"mb_per_s\": {:.1} }}{sep}\n",
            m.name, m.ms, m.mb_per_s
        ));
    }
    s.push_str("  },\n");
    s.push_str("  \"stages\": {\n");
    for (i, row) in stages.iter().enumerate() {
        let sep = if i + 1 == stages.len() { "" } else { "," };
        let fields = STAGES
            .iter()
            .zip(row.ms)
            .map(|(stage, ms)| format!("\"{stage}\": {ms:.3}"))
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!("    \"{}\": {{ {fields} }}{sep}\n", row.name));
    }
    s.push_str("  },\n");
    s.push_str("  \"quality\": {\n");
    for (i, r) in quality.iter().enumerate() {
        let sep = if i + 1 == quality.len() { "" } else { "," };
        s.push_str(&format!("    \"{}\": {}{sep}\n", r.codec, r.to_json()));
    }
    s.push_str("  }\n}\n");
    s
}

/// Baseline `gate.<name>.ms` values from a `BENCH_pr*.json` document.
fn baseline_ms(doc: &JsonValue, name: &str) -> Option<f64> {
    doc.get("gate")?.get(name)?.get("ms")?.as_f64()
}

/// Why the baseline host is incomparable to this one, if it is. The SZ
/// canary corrects for clock-speed drift but not for a different SIMD
/// backend or worker count — those scale each path unevenly, so comparing
/// across them silently mis-gates. A baseline without a `host` section
/// (pre-PR7 files) is accepted with a warning instead.
fn host_mismatch(doc: &JsonValue) -> Option<String> {
    let host = match doc.get("host") {
        Some(h) => h,
        None => {
            eprintln!("perf_gate: warning: baseline records no host section; cannot verify backend/thread match");
            return None;
        }
    };
    let base_backend = host.get("backend").and_then(JsonValue::as_str);
    let base_threads = host.get("threads").and_then(JsonValue::as_f64);
    let backend = dpz_kernels::backend_name();
    let threads = rayon::current_num_threads() as f64;
    if base_backend.is_some_and(|b| b != backend) {
        return Some(format!(
            "baseline was measured with kernel backend '{}', this host uses '{backend}'",
            base_backend.unwrap_or_default()
        ));
    }
    if base_threads.is_some_and(|t| t != threads) {
        return Some(format!(
            "baseline was measured with {} worker threads, this host uses {threads}",
            base_threads.unwrap_or_default()
        ));
    }
    None
}

/// Names of paths whose canary-normalized fresh time exceeds the baseline
/// by more than `max_regress_pct`, with their regression percentages.
fn regressions(
    fresh: &[Measurement],
    doc: &JsonValue,
    max_regress_pct: f64,
) -> Result<Vec<(String, f64)>, String> {
    let fresh_canary = fresh
        .iter()
        .find(|m| m.name == "sz_canary")
        .ok_or("fresh run has no sz_canary")?;
    let base_canary = baseline_ms(doc, "sz_canary").ok_or("baseline has no gate.sz_canary.ms")?;
    let scale = base_canary / fresh_canary.ms;
    let mut out = Vec::new();
    for m in fresh.iter().filter(|m| m.name != "sz_canary") {
        let Some(base) = baseline_ms(doc, m.name) else {
            return Err(format!("baseline has no gate.{}.ms", m.name));
        };
        let pct = 100.0 * (m.ms * scale / base - 1.0);
        if pct > max_regress_pct {
            out.push((m.name.to_string(), pct));
        }
    }
    Ok(out)
}

fn fail(msg: &str) -> ! {
    eprintln!("perf_gate: {msg}");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline: Option<String> = None;
    let mut out: Option<String> = None;
    let mut samples = 5usize;
    let mut max_regress = 10.0f64;
    let mut with_trace = false;
    let mut allow_backend_mismatch = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
                .clone()
        };
        match flag.as_str() {
            "--baseline" => baseline = Some(value()),
            "--out" => out = Some(value()),
            "--samples" => {
                samples = value()
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| fail("--samples expects a positive integer"))
            }
            "--max-regress" => {
                max_regress = value()
                    .parse()
                    .ok()
                    .filter(|p: &f64| p.is_finite() && *p >= 0.0)
                    .unwrap_or_else(|| fail("--max-regress expects a percentage"))
            }
            "--trace" => with_trace = true,
            "--allow-backend-mismatch" => allow_backend_mismatch = true,
            other => fail(&format!(
                "unknown flag '{other}' (--baseline/--out/--samples/--max-regress/--trace/--allow-backend-mismatch)"
            )),
        }
    }

    // --trace measures with the event journal recording, to quantify the
    // instrumentation overhead against a default (journal-off) run.
    if with_trace {
        dpz_telemetry::trace::start();
    }
    let (measured, stages) = measure(samples);
    let quality = measure_quality();
    if with_trace {
        dpz_telemetry::trace::stop();
        let trace = dpz_telemetry::trace::drain();
        println!(
            "journal: {} events from {} threads ({} dropped)",
            trace.events.len(),
            trace.threads.len(),
            trace.dropped
        );
    }
    println!("perf_gate — Cldhgh/Small, best of {samples}");
    for m in &measured {
        println!(
            "  {:<24} {:>9.3} ms  {:>7.1} MB/s",
            m.name, m.ms, m.mb_per_s
        );
    }
    for row in &stages {
        let fields = STAGES
            .iter()
            .zip(row.ms)
            .map(|(stage, ms)| format!("{stage} {ms:.2}"))
            .collect::<Vec<_>>()
            .join("  ");
        println!("  {:<24} [{fields}]", row.name);
    }
    for r in &quality {
        println!(
            "  {:<24} {:>7.2} dB  θ {:.3e}  CR {:.2}x",
            format!("quality_{}", r.codec),
            r.psnr_db,
            r.theta,
            r.cr_total
        );
    }
    if let Some(path) = &out {
        std::fs::write(path, to_json(samples, &measured, &stages, &quality))
            .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        println!("wrote {path}");
    }

    let Some(path) = baseline else { return };
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| fail(&format!("read {path}: {e}")));
    let doc = json::parse(&text).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    if let Some(why) = host_mismatch(&doc) {
        if allow_backend_mismatch {
            eprintln!("perf_gate: warning: {why} (continuing: --allow-backend-mismatch)");
        } else {
            fail(&format!(
                "{why}; refusing to compare (pass --allow-backend-mismatch to override)"
            ));
        }
    }
    // Quality diffs warn but never fail: quality is pinned byte-exactly by
    // the golden-artifact tests, so the gate's job here is visibility.
    for warning in quality_warnings(&quality, &doc) {
        eprintln!("gate: warning (non-blocking): quality: {warning}");
    }
    match regressions(&measured, &doc, max_regress) {
        Ok(regressed) if regressed.is_empty() => {
            println!("gate: OK (no path regressed > {max_regress:.0}% vs {path})");
        }
        Ok(regressed) => {
            for (name, pct) in &regressed {
                eprintln!("gate: {name} regressed {pct:.1}% (canary-normalized)");
            }
            std::process::exit(1);
        }
        Err(msg) => fail(&msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(name: &'static str, ms: f64) -> Measurement {
        Measurement {
            name,
            ms,
            mb_per_s: 1.0,
        }
    }

    #[test]
    fn gate_json_round_trips_and_flags_regressions() {
        let base = vec![
            fake("compress_dpz_loose", 10.0),
            fake("decompress_dpz_strict", 4.0),
            fake("sz_canary", 2.0),
        ];
        let stage_rows = vec![StageRow {
            name: "compress_dpz_loose",
            ms: [1.0, 0.5, 2.0, 0.25, 0.75],
        }];
        let quality = vec![QualityReport {
            dataset: "cldhgh".into(),
            codec: "dpz_loose".into(),
            n_values: 4096,
            value_range: 1.0,
            psnr_db: 72.0,
            mse: 1e-8,
            max_abs_error: 1e-3,
            theta: 1e-3,
            cr_total: 12.0,
            bit_rate: 2.6,
            cr_stage12: Some(2.0),
            cr_stage3: Some(4.0),
            cr_lossless: Some(1.5),
        }];
        let doc = json::parse(&to_json(5, &base, &stage_rows, &quality)).unwrap();
        assert_eq!(doc.get("samples").and_then(JsonValue::as_f64), Some(5.0));
        assert_eq!(baseline_ms(&doc, "sz_canary"), Some(2.0));

        // The quality section round-trips and diffs non-blockingly: an
        // identical fresh run raises no warnings, a worse one warns.
        let entry = doc
            .get("quality")
            .and_then(|q| q.get("dpz_loose"))
            .expect("quality.dpz_loose");
        assert_eq!(entry.get("psnr_db").and_then(JsonValue::as_f64), Some(72.0));
        assert!(quality_warnings(&quality, &doc).is_empty());
        let mut worse = quality.clone();
        worse[0].psnr_db = 70.0;
        worse[0].cr_total = 10.0;
        let warnings = quality_warnings(&worse, &doc);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("PSNR"), "{warnings:?}");

        // The per-stage breakdown round-trips alongside the gate totals
        // and uses the pipeline stage names.
        let row = doc
            .get("stages")
            .and_then(|s| s.get("compress_dpz_loose"))
            .expect("stages.compress_dpz_loose");
        assert_eq!(row.get("pca").and_then(JsonValue::as_f64), Some(2.0));
        for stage in STAGES {
            assert!(row.get(stage).is_some(), "missing stage {stage}");
        }

        // Identical fresh run: nothing regresses.
        assert!(regressions(&base, &doc, 10.0).unwrap().is_empty());

        // A 50% slowdown on one path trips the gate...
        let slow = vec![
            fake("compress_dpz_loose", 15.0),
            fake("decompress_dpz_strict", 4.0),
            fake("sz_canary", 2.0),
        ];
        let regressed = regressions(&slow, &doc, 10.0).unwrap();
        assert_eq!(regressed.len(), 1);
        assert_eq!(regressed[0].0, "compress_dpz_loose");
        assert!((regressed[0].1 - 50.0).abs() < 1e-9);

        // ...unless the canary slowed down identically (host drift).
        let drift = vec![
            fake("compress_dpz_loose", 15.0),
            fake("decompress_dpz_strict", 6.0),
            fake("sz_canary", 3.0),
        ];
        assert!(regressions(&drift, &doc, 10.0).unwrap().is_empty());

        // Missing baseline entries are a hard error, not a silent pass.
        let doc = json::parse(r#"{"gate": {"sz_canary": {"ms": 2.0}}}"#).unwrap();
        assert!(regressions(&base, &doc, 10.0).is_err());
    }

    #[test]
    fn host_mismatch_detection() {
        // Matching host: comparable.
        let same = format!(
            r#"{{"host": {{"backend": "{}", "threads": {}}}, "gate": {{}}}}"#,
            dpz_kernels::backend_name(),
            rayon::current_num_threads()
        );
        assert!(host_mismatch(&json::parse(&same).unwrap()).is_none());

        // Different backend: refused.
        let other = r#"{"host": {"backend": "not-a-real-backend", "threads": 1}, "gate": {}}"#;
        let why = host_mismatch(&json::parse(other).unwrap()).expect("mismatch");
        assert!(why.contains("not-a-real-backend"), "{why}");

        // Different thread count: refused.
        let other = format!(
            r#"{{"host": {{"backend": "{}", "threads": 100000}}, "gate": {{}}}}"#,
            dpz_kernels::backend_name()
        );
        let why = host_mismatch(&json::parse(&other).unwrap()).expect("mismatch");
        assert!(why.contains("worker threads"), "{why}");

        // Legacy baseline without a host section: comparable (with warning).
        assert!(host_mismatch(&json::parse(r#"{"gate": {}}"#).unwrap()).is_none());
    }
}
