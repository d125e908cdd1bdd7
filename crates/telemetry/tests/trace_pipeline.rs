//! End-to-end tests for the event journal: wraparound overwrite semantics,
//! cross-thread ordering of the drained stream, and the Chrome export of a
//! live (not hand-built) trace.
//!
//! The journal is process-global, so every test that enables/drains it
//! holds `JOURNAL_LOCK` — otherwise a concurrent test's drain could steal
//! this test's events.

use dpz_telemetry::trace::{self, EventKind, RING_CAPACITY};
use std::sync::Mutex;

static JOURNAL_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn ring_overwrites_oldest_events_on_wraparound() {
    let _serial = JOURNAL_LOCK.lock().unwrap();
    trace::start();
    let extra = 257usize;
    // A dedicated thread gets a dedicated lane, so this test owns a whole
    // ring regardless of what the rest of the process is emitting.
    let handle = std::thread::Builder::new()
        .name("wrap-lane".to_string())
        .spawn(move || {
            for i in 0..RING_CAPACITY + extra {
                trace::instant(&format!("wrap_{i}"));
            }
        })
        .unwrap();
    handle.join().unwrap();
    trace::stop();
    let trace = trace::drain();

    let mut indices: Vec<usize> = trace
        .events
        .iter()
        .filter_map(|e| e.name.strip_prefix("wrap_").and_then(|n| n.parse().ok()))
        .collect();
    indices.sort_unstable();
    // The ring keeps exactly the newest RING_CAPACITY events; the first
    // `extra` were overwritten.
    assert_eq!(indices.len(), RING_CAPACITY);
    assert_eq!(indices[0], extra);
    assert_eq!(*indices.last().unwrap(), RING_CAPACITY + extra - 1);
    assert!(trace.dropped >= extra as u64);
    assert!(trace.threads.iter().any(|t| t.name == "wrap-lane"));
}

#[test]
fn drained_events_are_ordered_by_ts_across_threads() {
    let _serial = JOURNAL_LOCK.lock().unwrap();
    trace::start();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            std::thread::Builder::new()
                .name(format!("order-lane-{t}"))
                .spawn(move || {
                    for i in 0..100 {
                        trace::instant_with(&format!("order_t{t}"), &[("i", i as f64)]);
                    }
                })
                .unwrap()
        })
        .collect();
    for handle in threads {
        handle.join().unwrap();
    }
    trace::stop();
    let trace = trace::drain();

    let ours: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.name.starts_with("order_t"))
        .collect();
    assert_eq!(ours.len(), 400);
    // The merged stream is sorted by ts_ns even though four lanes fed it.
    assert!(trace.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    // Each emitting thread got its own lane.
    let mut tids: Vec<u64> = ours.iter().map(|e| e.thread).collect();
    tids.sort_unstable();
    tids.dedup();
    assert_eq!(tids.len(), 4);
    for t in 0..4 {
        let name = format!("order-lane-{t}");
        assert!(
            trace.threads.iter().any(|ti| ti.name == name),
            "missing lane {name}"
        );
    }
}

#[test]
fn spans_counters_and_drain_watermark_round_trip() {
    let _serial = JOURNAL_LOCK.lock().unwrap();
    trace::start();
    {
        let mut s = dpz_telemetry::span!("journal_root");
        s.annotate("bytes", 4096.0);
        let _child = dpz_telemetry::span!("journal_child");
        trace::counter("journal_gauge", 7.5);
    }
    trace::stop();
    let first = trace::drain();

    let root = first
        .events
        .iter()
        .find(|e| e.name == "journal_root")
        .expect("root span recorded");
    assert_eq!(root.kind, EventKind::Span);
    assert!(root.dur_ns > 0);
    assert_eq!(root.args, vec![("bytes".to_string(), 4096.0)]);
    let child = first
        .events
        .iter()
        .find(|e| e.name == "journal_child")
        .expect("child span recorded under its own name");
    // The child completes within the root's window.
    assert!(child.ts_ns >= root.ts_ns);
    assert!(child.ts_ns + child.dur_ns <= root.ts_ns + root.dur_ns);
    let gauge = first
        .events
        .iter()
        .find(|e| e.name == "journal_gauge")
        .expect("counter recorded");
    assert_eq!(gauge.kind, EventKind::Counter);
    assert_eq!(gauge.value, 7.5);

    // A second drain must not replay already-drained events.
    let second = trace::drain();
    assert!(
        !second.events.iter().any(|e| e.name.starts_with("journal_")),
        "drain watermark failed to advance"
    );

    // And the Chrome export of the live trace is valid JSON with a summary.
    let doc = dpz_telemetry::json::parse(&trace::to_chrome_json(&first)).expect("valid JSON");
    assert!(doc.get("traceEvents").unwrap().as_array().unwrap().len() >= 3);
    let summary = doc.get("dpzSummary").expect("embedded summary");
    let spans = summary.get("spans").unwrap().as_array().unwrap();
    assert!(spans
        .iter()
        .any(|s| s.get("name").unwrap().as_str() == Some("journal_root")));
}

#[test]
fn disabled_journal_records_nothing() {
    let _serial = JOURNAL_LOCK.lock().unwrap();
    trace::stop();
    trace::drain(); // clear anything left over
    trace::instant("ghost_event");
    trace::counter("ghost_counter", 1.0);
    let t = trace::drain();
    assert!(!t.events.iter().any(|e| e.name.starts_with("ghost_")));
}
