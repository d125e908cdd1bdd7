//! The decode chain's telemetry contract, mirroring `stage_spans.rs` for
//! compress: `decompress` opens one child span per inverse stage, on the
//! caller's thread, in chain order, each inside the `decompress` window and
//! nested directly under it, for both stage-1 transforms.
//!
//! The event journal is process-global, so this file is its own test binary
//! and holds a single test: nothing else may emit into the journal while it
//! records.

use dpz_core::{compress, decompress, DpzConfig, Stage1Transform};
use dpz_telemetry::trace::{self, EventKind, TraceEvent};

const STAGES: [&str; 4] = [
    "lossless.decode",
    "stage3.dequantize",
    "stage2.reconstruct",
    "stage1.inverse",
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

fn end(ev: &TraceEvent) -> u64 {
    ev.ts_ns + ev.dur_ns
}

/// `inner` lies within `outer` on the same lane.
fn encloses(outer: &TraceEvent, inner: &TraceEvent) -> bool {
    outer.thread == inner.thread && outer.ts_ns <= inner.ts_ns && end(inner) <= end(outer)
}

/// Decode `bytes` with the journal on and check the four stage spans.
fn check_decode_spans(bytes: &[u8], expect: &[f32]) {
    trace::start();
    let (values, _) = decompress(bytes).expect("own artifact decodes");
    trace::stop();
    assert_eq!(values.len(), expect.len());
    let spans: Vec<TraceEvent> = trace::drain()
        .events
        .into_iter()
        .filter(|e| e.kind == EventKind::Span)
        .collect();

    let roots: Vec<&TraceEvent> = spans.iter().filter(|e| e.name == "decompress").collect();
    assert_eq!(roots.len(), 1, "one decompress span");
    let root = roots[0];
    let stages: Vec<&TraceEvent> = STAGES
        .iter()
        .map(|stage| {
            let hits: Vec<&TraceEvent> = spans.iter().filter(|e| e.name == *stage).collect();
            assert_eq!(hits.len(), 1, "one {stage} span");
            hits[0]
        })
        .collect();
    for ev in &stages {
        assert!(
            encloses(root, ev),
            "{} lies outside the decompress window on its lane",
            ev.name
        );
        // The parent is the innermost span enclosing this one.
        let parent = spans
            .iter()
            .filter(|p| !std::ptr::eq(*p, *ev) && encloses(p, ev))
            .min_by_key(|p| p.dur_ns)
            .expect("decompress encloses every stage");
        assert_eq!(parent.name, "decompress", "{}'s parent", ev.name);
    }
    for pair in stages.windows(2) {
        assert!(
            end(pair[0]) <= pair[1].ts_ns,
            "{} must end before {} starts",
            pair[0].name,
            pair[1].name
        );
    }
    let attributed: u64 = stages.iter().map(|ev| ev.dur_ns).sum();
    assert!(attributed <= root.dur_ns);
}

#[test]
fn decompress_emits_one_span_per_inverse_stage() {
    let data = smooth_field(64, 96);
    for cfg in [
        DpzConfig::loose(),
        DpzConfig::strict(),
        DpzConfig::loose().with_transform(Stage1Transform::Dwt { levels: 2 }),
    ] {
        let out = compress(&data, &[64, 96], &cfg).expect("compresses");
        check_decode_spans(&out.bytes, &data);
    }
}
