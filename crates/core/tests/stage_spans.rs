//! The compression chain's telemetry contract: one span per stage, inside
//! `compress` on the caller's thread, in chain order, with the stage's
//! annotations, and `StageTimings` read off those spans. Every span carries
//! its own static name, whichever thread runs it: the chunked writers'
//! stage and chunk spans are named the same on the caller and on pool
//! workers.
//!
//! The event journal is process-global, so this file is its own test binary
//! and holds a single test: nothing else may emit into the journal while it
//! records.

use dpz_core::{compress, compress_chunked, compress_progressive, Compressed, DpzConfig};
use dpz_telemetry::trace::{self, EventKind, TraceEvent};
use std::time::Duration;

const STAGES: [&str; 5] = [
    "stage1.decompose_dct",
    "sampling",
    "stage2.pca",
    "stage3.quantize",
    "lossless",
];

fn smooth_field(rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| {
            let r = (i / cols) as f32;
            let c = (i % cols) as f32;
            (0.04 * r).sin() * 40.0 + (0.03 * c).cos() * 25.0 + 100.0
        })
        .collect()
}

/// Run `f` with the journal on; return its output and the spans it emitted.
fn journaled<T>(f: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
    trace::start();
    let out = f();
    trace::stop();
    let spans = trace::drain()
        .events
        .into_iter()
        .filter(|e| e.kind == EventKind::Span)
        .collect();
    (out, spans)
}

/// Compress once with the journal on; return the artifact and the spans.
fn journaled_compress(cfg: &DpzConfig) -> (Compressed, Vec<TraceEvent>) {
    let data = smooth_field(64, 96);
    journaled(|| compress(&data, &[64, 96], cfg).unwrap())
}

fn arg_keys(ev: &TraceEvent) -> Vec<&str> {
    ev.args.iter().map(|(k, _)| k.as_str()).collect()
}

fn arg(ev: &TraceEvent, key: &str) -> f64 {
    ev.args
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("{} has no {key} arg", ev.name))
}

/// Check the five stage spans of one `compress` and return them in chain
/// order.
fn stage_spans<'a>(out: &Compressed, spans: &'a [TraceEvent]) -> Vec<&'a TraceEvent> {
    let roots: Vec<&TraceEvent> = spans.iter().filter(|e| e.name == "compress").collect();
    assert_eq!(roots.len(), 1, "one compress span");
    let root = roots[0];
    let stages: Vec<&TraceEvent> = STAGES
        .iter()
        .map(|stage| {
            let hits: Vec<&TraceEvent> = spans.iter().filter(|e| e.name == *stage).collect();
            assert_eq!(hits.len(), 1, "one {stage} span");
            hits[0]
        })
        .collect();
    for pair in stages.windows(2) {
        assert!(
            pair[0].ts_ns < pair[1].ts_ns,
            "{} must start before {}",
            pair[0].name,
            pair[1].name
        );
    }
    for ev in &stages {
        assert_eq!(ev.thread, root.thread, "{} ran on the caller", ev.name);
        assert!(
            ev.ts_ns >= root.ts_ns && ev.ts_ns + ev.dur_ns <= root.ts_ns + root.dur_ns,
            "{} lies outside the compress window",
            ev.name
        );
    }

    let stats = &out.stats;
    let timings: [Duration; 5] = [
        stats.timings.decompose_dct,
        stats.timings.sampling,
        stats.timings.pca,
        stats.timings.quantize,
        stats.timings.lossless,
    ];
    for (ev, timing) in stages.iter().zip(timings) {
        assert!(
            timing.as_nanos() <= u128::from(ev.dur_ns),
            "{}: StageTimings {timing:?} exceeds the span's {} ns",
            ev.name,
            ev.dur_ns
        );
    }

    let [stage1, _, stage2, stage3, lossless] = stages[..] else {
        unreachable!("five stages")
    };
    assert_eq!(arg_keys(stage1), ["bytes", "blocks"]);
    assert_eq!(arg(stage1, "blocks"), stats.m as f64);
    assert_eq!(arg(stage1, "bytes"), (stats.m * stats.n * 8) as f64);
    assert_eq!(arg_keys(stage2), ["k", "bytes"]);
    assert_eq!(arg(stage2, "k"), stats.k as f64);
    assert_eq!(arg(stage2, "bytes"), (stats.n * stats.k * 8) as f64);
    assert_eq!(arg_keys(stage3), ["outliers"]);
    assert_eq!(arg_keys(lossless), ["bytes"]);
    assert_eq!(arg(lossless, "bytes"), out.bytes.len() as f64);
    stages
}

#[test]
fn compress_emits_one_annotated_span_per_stage() {
    // Sampling off: the sampling span still opens, and carries no args.
    let (out, spans) = journaled_compress(&DpzConfig::loose());
    let stages = stage_spans(&out, &spans);
    assert!(out.stats.sampling.is_none());
    assert!(stages[1].args.is_empty(), "{:?}", stages[1].args);

    // Sampling on: the sampling span reports the estimated k.
    let (out, spans) = journaled_compress(&DpzConfig::loose().with_sampling(true));
    let stages = stage_spans(&out, &spans);
    let est = out.stats.sampling.as_ref().expect("sampling ran");
    assert_eq!(arg_keys(stages[1]), ["k_estimate"]);
    assert_eq!(arg(stages[1], "k_estimate"), est.k_estimate as f64);

    // Chunked: the stage chain runs once per slab, on the caller or on a
    // pool worker. Every stage and chunk span, on every lane, carries
    // exactly its static name, with no prefix from what enclosed it.
    let chunks = 4;
    let data = smooth_field(64, 96);
    let (out, spans) =
        journaled(|| compress_chunked(&data, &[64, 96], &DpzConfig::loose(), chunks).unwrap());
    assert_eq!(out.chunk_stats.len(), chunks);
    let names: Vec<&str> = STAGES.iter().copied().chain(["chunk"]).collect();
    for ev in &spans {
        if names.iter().any(|name| ev.name.ends_with(name)) {
            assert!(
                names.contains(&ev.name.as_str()),
                "span {:?} on lane {} is not a static name",
                ev.name,
                ev.thread
            );
        }
    }
    for name in names {
        let hits = spans.iter().filter(|e| e.name == name).count();
        assert_eq!(hits, chunks, "one {name} span per chunk");
    }

    // The progressive writer runs the same slab pass, so each of its slabs
    // gets a chunk span too; it serializes without the lossless stage.
    let (_, spans) =
        journaled(|| compress_progressive(&data, &[64, 96], &DpzConfig::loose(), chunks).unwrap());
    for name in ["stage2.pca", "chunk"] {
        let hits = spans.iter().filter(|e| e.name == name).count();
        assert_eq!(hits, chunks, "one progressive {name} span per chunk");
    }
}
