//! `AutoCodec`'s probe telemetry: one `compress_with_target` opens one span
//! per backend probe (`auto.probe_dpz`, `auto.probe_sz`, `auto.probe_zfp`),
//! in registry order, on the caller's thread, each holding its backend's own
//! work and ending before the winner compresses. A traced target op thus
//! shows what each probe costs.
//!
//! The event journal is process-global, so this file is its own test binary
//! and holds a single test: nothing else may emit into the journal while it
//! records.

use dpz_codec::{AutoCodec, Codec, QualityTarget};
use dpz_data::{Dataset, DatasetKind, Scale};
use dpz_telemetry::trace::{self, EventKind, TraceEvent};

const PROBES: [&str; 3] = ["auto.probe_dpz", "auto.probe_sz", "auto.probe_zfp"];

fn one<'a>(spans: &'a [TraceEvent], name: &str) -> &'a TraceEvent {
    let hits: Vec<&TraceEvent> = spans.iter().filter(|e| e.name == name).collect();
    assert_eq!(hits.len(), 1, "one {name} span");
    hits[0]
}

fn inside(inner: &TraceEvent, outer: &TraceEvent) -> bool {
    inner.ts_ns >= outer.ts_ns && inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns
}

#[test]
fn target_compress_spans_each_probe() {
    let ds = Dataset::generate(DatasetKind::Cldhgh, Scale::Tiny, 1);
    let auto = AutoCodec::new();
    for target in [
        QualityTarget::Psnr(60.0),
        QualityTarget::Ratio {
            target: 20.0,
            tol: 0.1,
        },
    ] {
        trace::start();
        let mut artifact = Vec::new();
        let res = auto.compress_with_target(&ds.data, &ds.dims, &target, &mut artifact);
        trace::stop();
        let spans: Vec<TraceEvent> = trace::drain()
            .events
            .into_iter()
            .filter(|e| e.kind == EventKind::Span)
            .collect();
        let probes: Vec<&TraceEvent> = PROBES.iter().map(|p| one(&spans, p)).collect();
        for pair in probes.windows(2) {
            assert!(
                pair[0].ts_ns + pair[0].dur_ns <= pair[1].ts_ns,
                "{target:?}: {} must end before {} starts",
                pair[0].name,
                pair[1].name
            );
        }
        let caller = probes[0].thread;
        for p in &probes {
            assert_eq!(p.thread, caller, "{target:?}: {} ran on the caller", p.name);
        }
        // Each baseline's kernel spans nest inside its own probe; the SZ
        // probe compresses at least once and decodes nothing.
        let (sz, zfp) = (probes[1], probes[2]);
        let in_probe = |name: &str, probe: &TraceEvent| {
            spans
                .iter()
                .filter(|e| e.name == name && inside(e, probe))
                .count()
        };
        assert!(in_probe("sz.compress", sz) >= 1, "{target:?}: SZ probe");
        assert_eq!(in_probe("sz.decompress", sz), 0, "{target:?}: SZ probe");
        assert_eq!(in_probe("zfp.compress", zfp), 1, "{target:?}: ZFP probe");
        assert_eq!(in_probe("zfp.decompress", zfp), 1, "{target:?}: ZFP probe");
        // The winner compresses after the last probe.
        if let Ok(stats) = res {
            let kernel = match stats.codec {
                "sz" => "sz.compress",
                "zfp" => "zfp.compress",
                _ => "compress",
            };
            let last = zfp.ts_ns + zfp.dur_ns;
            assert!(
                spans.iter().any(|e| e.name == kernel && e.ts_ns >= last),
                "{target:?}: {kernel} after the probes"
            );
        }
    }
}
