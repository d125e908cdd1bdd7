//! Structured event journal: per-thread lock-free ring buffers of trace
//! events, drained into Chrome trace-event JSON (loadable in Perfetto /
//! `chrome://tracing`) and a self-describing summary.
//!
//! ## Design
//!
//! Every thread that emits an event lazily registers a *lane*: a fixed-size
//! ring of plain-old-data slots made entirely of `AtomicU64`s. The owning
//! thread is the only writer, so a push is a handful of relaxed stores plus
//! two release stores of the slot's sequence number (invalidate, write
//! fields, publish). The drainer validates the sequence before and after
//! reading a slot and skips torn or overwritten entries, so no lock is ever
//! taken on the hot path. When a ring wraps, the oldest events are
//! overwritten — the journal keeps the newest [`RING_CAPACITY`] events per
//! thread and counts what it dropped.
//!
//! Event names and argument keys are interned to `u32` ids so slots stay
//! POD; ids resolve back to strings at drain time.
//!
//! ## Cost when off
//!
//! Every emit entry point starts with one relaxed atomic load of the
//! `enabled` flag and returns immediately when the journal is off. No lane
//! is registered, no memory is allocated, and nothing is interned until the
//! first event is actually recorded.
//!
//! ## Usage
//!
//! ```
//! dpz_telemetry::trace::start();
//! {
//!     let _s = dpz_telemetry::span!("work"); // spans feed the journal
//!     dpz_telemetry::trace::instant("checkpoint");
//!     dpz_telemetry::trace::counter("queue_depth", 3.0);
//! }
//! dpz_telemetry::trace::stop();
//! let trace = dpz_telemetry::trace::drain();
//! let chrome_json = dpz_telemetry::trace::to_chrome_json(&trace);
//! ```

use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::json;

/// Events retained per thread before the ring wraps (power of two).
pub const RING_CAPACITY: usize = 1 << 14;

/// Maximum arguments carried by one event (slots are fixed-size).
pub const MAX_ARGS: usize = 2;

/// What kind of event a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed timed region: `ts_ns..ts_ns + dur_ns`.
    Span,
    /// A point-in-time marker.
    Instant,
    /// A sampled counter value (`value`).
    Counter,
}

/// One materialized journal event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the journal epoch (start of the event for spans).
    pub ts_ns: u64,
    /// Duration in nanoseconds (spans only; 0 otherwise).
    pub dur_ns: u64,
    /// Counter value (counters only; 0.0 otherwise).
    pub value: f64,
    /// Lane id of the emitting thread (see [`Trace::threads`]).
    pub thread: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Event name (span name, counter name, …).
    pub name: String,
    /// Up to [`MAX_ARGS`] key/value annotations.
    pub args: Vec<(String, f64)>,
}

/// One registered thread lane.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadInfo {
    /// Stable per-process lane id (used as `tid` in the Chrome export).
    pub tid: u64,
    /// Thread name at registration time (`main`, `dpz-worker-3`, …).
    pub name: String,
}

/// Everything drained from the journal: events across all lanes, sorted by
/// start timestamp.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All events, ordered by `ts_ns`.
    pub events: Vec<TraceEvent>,
    /// The lanes that contributed events (plus any registered but idle).
    pub threads: Vec<ThreadInfo>,
    /// Events lost to ring wraparound since the previous drain.
    pub dropped: u64,
}

// ---------------------------------------------------------------------------
// String interning
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Interner {
    map: HashMap<String, u32>,
    names: Vec<String>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner::default()))
}

fn intern(name: &str) -> u32 {
    if let Some(&id) = interner().read().expect("interner lock").map.get(name) {
        return id;
    }
    let mut w = interner().write().expect("interner lock");
    if let Some(&id) = w.map.get(name) {
        return id;
    }
    let id = w.names.len() as u32;
    w.names.push(name.to_string());
    w.map.insert(name.to_string(), id);
    id
}

fn resolve(id: u32) -> String {
    interner()
        .read()
        .expect("interner lock")
        .names
        .get(id as usize)
        .cloned()
        .unwrap_or_else(|| format!("?{id}"))
}

// ---------------------------------------------------------------------------
// Slot encoding
// ---------------------------------------------------------------------------

// meta packs: name_id (24 bits) | kind (8 bits) | arg1_key (16) | arg2_key (16).
// Argument keys are intern-id + 1, so 0 means "no argument".
const NAME_BITS: u64 = 24;
const NAME_MASK: u64 = (1 << NAME_BITS) - 1;

fn pack_meta(kind: EventKind, name_id: u32, arg_keys: [u16; MAX_ARGS]) -> u64 {
    let kind = match kind {
        EventKind::Span => 0u64,
        EventKind::Instant => 1,
        EventKind::Counter => 2,
    };
    (name_id as u64 & NAME_MASK)
        | (kind << NAME_BITS)
        | ((arg_keys[0] as u64) << 32)
        | ((arg_keys[1] as u64) << 48)
}

fn unpack_meta(meta: u64) -> (EventKind, u32, [u16; MAX_ARGS]) {
    let kind = match (meta >> NAME_BITS) & 0xff {
        0 => EventKind::Span,
        1 => EventKind::Instant,
        _ => EventKind::Counter,
    };
    let name_id = (meta & NAME_MASK) as u32;
    let keys = [
        ((meta >> 32) & 0xffff) as u16,
        ((meta >> 48) & 0xffff) as u16,
    ];
    (kind, name_id, keys)
}

/// Intern an argument key into the 16-bit id space (0 = absent). Keys that
/// overflow the space are dropped rather than corrupting another key.
fn arg_key_id(key: &str) -> u16 {
    let id = intern(key) as u64 + 1;
    if id <= u16::MAX as u64 {
        id as u16
    } else {
        0
    }
}

#[derive(Debug)]
struct Slot {
    /// 0 = being written; `index + 1` = published for ring index `index`.
    seq: AtomicU64,
    ts: AtomicU64,
    /// Span duration in ns, or counter value `f64` bits.
    payload: AtomicU64,
    meta: AtomicU64,
    arg_bits: [AtomicU64; MAX_ARGS],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            ts: AtomicU64::new(0),
            payload: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            arg_bits: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }
}

#[derive(Debug)]
struct Ring {
    slots: Box<[Slot]>,
    /// Total events ever pushed to this ring (monotonic).
    head: AtomicU64,
    /// Events already handed out by previous drains.
    drained: AtomicU64,
}

#[derive(Debug, Clone, Copy)]
struct RawEvent {
    ts: u64,
    payload: u64,
    meta: u64,
    args: [u64; MAX_ARGS],
}

impl Ring {
    fn new() -> Ring {
        Ring {
            slots: (0..RING_CAPACITY).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// Push one event. Must only be called from the lane's owner thread.
    fn push(&self, ts: u64, payload: u64, meta: u64, args: [u64; MAX_ARGS]) {
        let index = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(index as usize) & (RING_CAPACITY - 1)];
        // Invalidate, fill, publish: a concurrent drainer observing seq !=
        // index+1 on either side of its reads discards the slot.
        slot.seq.store(0, Ordering::Release);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.payload.store(payload, Ordering::Relaxed);
        slot.meta.store(meta, Ordering::Relaxed);
        for (dst, src) in slot.arg_bits.iter().zip(args) {
            dst.store(src, Ordering::Relaxed);
        }
        slot.seq.store(index + 1, Ordering::Release);
        self.head.store(index + 1, Ordering::Release);
    }

    /// Read every undrained event still present in the ring. Returns the
    /// number of events lost to wraparound since the last drain.
    fn drain_into(&self, out: &mut Vec<RawEvent>) -> u64 {
        let head = self.head.load(Ordering::Acquire);
        let drained = self.drained.load(Ordering::Relaxed);
        let start = head.saturating_sub(RING_CAPACITY as u64).max(drained);
        for index in start..head {
            let slot = &self.slots[(index as usize) & (RING_CAPACITY - 1)];
            if slot.seq.load(Ordering::Acquire) != index + 1 {
                continue; // overwritten or mid-write
            }
            let raw = RawEvent {
                ts: slot.ts.load(Ordering::Relaxed),
                payload: slot.payload.load(Ordering::Relaxed),
                meta: slot.meta.load(Ordering::Relaxed),
                args: [
                    slot.arg_bits[0].load(Ordering::Relaxed),
                    slot.arg_bits[1].load(Ordering::Relaxed),
                ],
            };
            if slot.seq.load(Ordering::Acquire) != index + 1 {
                continue; // torn by a concurrent wraparound
            }
            out.push(raw);
        }
        self.drained.store(head, Ordering::Relaxed);
        start - drained
    }
}

#[derive(Debug)]
struct Lane {
    tid: u64,
    name: String,
    ring: Ring,
}

struct Journal {
    enabled: AtomicBool,
    epoch: Instant,
    lanes: Mutex<Vec<Arc<Lane>>>,
    next_tid: AtomicU64,
}

fn journal() -> &'static Journal {
    static JOURNAL: OnceLock<Journal> = OnceLock::new();
    JOURNAL.get_or_init(|| Journal {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        lanes: Mutex::new(Vec::new()),
        next_tid: AtomicU64::new(1),
    })
}

thread_local! {
    static LANE: OnceCell<Arc<Lane>> = const { OnceCell::new() };
}

fn with_lane(f: impl FnOnce(&Lane)) {
    LANE.with(|cell| {
        let lane = cell.get_or_init(|| {
            let j = journal();
            let tid = j.next_tid.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let lane = Arc::new(Lane {
                tid,
                name,
                ring: Ring::new(),
            });
            j.lanes
                .lock()
                .expect("journal lanes lock")
                .push(Arc::clone(&lane));
            lane
        });
        f(lane);
    });
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

/// Whether the journal is currently collecting events (one relaxed load).
#[inline]
pub fn journal_enabled() -> bool {
    journal().enabled.load(Ordering::Relaxed)
}

/// Start collecting events.
pub fn start() {
    journal().enabled.store(true, Ordering::Relaxed);
}

/// Stop collecting events (already-recorded events stay drainable).
pub fn stop() {
    journal().enabled.store(false, Ordering::Relaxed);
}

/// Nanoseconds since the journal epoch (process-wide monotonic origin).
#[inline]
pub fn now_ns() -> u64 {
    journal().epoch.elapsed().as_nanos() as u64
}

fn emit(kind: EventKind, name: &str, ts: u64, payload: u64, args: &[(&str, f64)]) {
    let name_id = intern(name);
    if name_id as u64 > NAME_MASK {
        return; // out of name-id space; drop rather than mislabel
    }
    let mut keys = [0u16; MAX_ARGS];
    let mut bits = [0u64; MAX_ARGS];
    for (i, (key, value)) in args.iter().take(MAX_ARGS).enumerate() {
        keys[i] = arg_key_id(key);
        bits[i] = value.to_bits();
    }
    let meta = pack_meta(kind, name_id, keys);
    with_lane(|lane| lane.ring.push(ts, payload, meta, bits));
}

/// Record a completed timed region that began at `start` and ended now.
/// Its timestamp is `start` itself on the journal clock, so a span opened
/// inside another on the same thread never appears to start before it.
pub fn complete(name: &str, start: Instant, args: &[(&str, f64)]) {
    if !journal_enabled() {
        return;
    }
    let ts = start.saturating_duration_since(journal().epoch).as_nanos() as u64;
    emit(EventKind::Span, name, ts, now_ns().saturating_sub(ts), args);
}

/// Record a point-in-time marker.
pub fn instant(name: &str) {
    instant_with(name, &[]);
}

/// Record a point-in-time marker with up to [`MAX_ARGS`] annotations.
pub fn instant_with(name: &str, args: &[(&str, f64)]) {
    if !journal_enabled() {
        return;
    }
    emit(EventKind::Instant, name, now_ns(), 0, args);
}

/// Record a counter sample (rendered as a counter track in Perfetto).
pub fn counter(name: &str, value: f64) {
    if !journal_enabled() {
        return;
    }
    emit(EventKind::Counter, name, now_ns(), value.to_bits(), &[]);
}

/// Drain all undrained events from every lane, sorted by `ts_ns`. Does not
/// stop collection; events recorded after the drain are returned next time.
pub fn drain() -> Trace {
    let j = journal();
    let lanes = j.lanes.lock().expect("journal lanes lock");
    let mut trace = Trace::default();
    for lane in lanes.iter() {
        let mut raw = Vec::new();
        trace.dropped += lane.ring.drain_into(&mut raw);
        trace.threads.push(ThreadInfo {
            tid: lane.tid,
            name: lane.name.clone(),
        });
        for ev in raw {
            let (kind, name_id, keys) = unpack_meta(ev.meta);
            let mut args = Vec::new();
            for (key_id, bits) in keys.iter().zip(ev.args) {
                if *key_id != 0 {
                    args.push((resolve(*key_id as u32 - 1), f64::from_bits(bits)));
                }
            }
            trace.events.push(TraceEvent {
                ts_ns: ev.ts,
                dur_ns: if kind == EventKind::Span {
                    ev.payload
                } else {
                    0
                },
                value: if kind == EventKind::Counter {
                    f64::from_bits(ev.payload)
                } else {
                    0.0
                },
                thread: lane.tid,
                kind,
                name: resolve(name_id),
                args,
            });
        }
    }
    drop(lanes);
    trace.events.sort_by_key(|e| e.ts_ns);
    trace.threads.sort_by_key(|t| t.tid);
    trace
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

/// Latency/throughput digest for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Span name.
    pub name: String,
    /// Number of completed spans.
    pub count: u64,
    /// Median duration, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile duration, milliseconds.
    pub p99_ms: f64,
    /// Total time across all spans, milliseconds.
    pub total_ms: f64,
    /// Throughput derived from `bytes` annotations, when present.
    pub mb_per_s: Option<f64>,
}

/// Self-describing digest of a [`Trace`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Per-span-name latency stats, sorted by total time descending.
    pub spans: Vec<SpanStats>,
    /// Last sampled value per counter name.
    pub counters: Vec<(String, f64)>,
    /// Number of thread lanes in the trace.
    pub threads: usize,
    /// Events lost to ring wraparound.
    pub dropped: u64,
}

fn percentile_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

/// Compute per-span p50/p99/total latency and `bytes`-derived throughput.
pub fn summarize(trace: &Trace) -> TraceSummary {
    let mut durations: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut bytes: BTreeMap<&str, f64> = BTreeMap::new();
    let mut counters: BTreeMap<&str, f64> = BTreeMap::new();
    for ev in &trace.events {
        match ev.kind {
            EventKind::Span => {
                durations.entry(&ev.name).or_default().push(ev.dur_ns);
                for (key, value) in &ev.args {
                    if key == "bytes" {
                        *bytes.entry(&ev.name).or_default() += value;
                    }
                }
            }
            EventKind::Counter => {
                counters.insert(&ev.name, ev.value);
            }
            EventKind::Instant => {}
        }
    }
    let mut spans: Vec<SpanStats> = durations
        .into_iter()
        .map(|(name, mut durs)| {
            durs.sort_unstable();
            let total_ns: u64 = durs.iter().sum();
            let mb_per_s = bytes.get(name).and_then(|&b| {
                if total_ns > 0 && b > 0.0 {
                    Some(b / (total_ns as f64 / 1e9) / 1e6)
                } else {
                    None
                }
            });
            SpanStats {
                name: name.to_string(),
                count: durs.len() as u64,
                p50_ms: percentile_ns(&durs, 0.50) / 1e6,
                p99_ms: percentile_ns(&durs, 0.99) / 1e6,
                total_ms: total_ns as f64 / 1e6,
                mb_per_s,
            }
        })
        .collect();
    spans.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));
    TraceSummary {
        spans,
        counters: counters
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        threads: trace.threads.len(),
        dropped: trace.dropped,
    }
}

fn summary_json(summary: &TraceSummary) -> String {
    let mut out = String::from("{\"spans\":[");
    for (i, s) in summary.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"count\":{},\"p50_ms\":{:.6},\"p99_ms\":{:.6},\"total_ms\":{:.6}",
            json::escape(&s.name),
            s.count,
            s.p50_ms,
            s.p99_ms,
            s.total_ms
        ));
        if let Some(mbps) = s.mb_per_s {
            out.push_str(&format!(",\"mb_per_s\":{mbps:.3}"));
        }
        out.push('}');
    }
    out.push_str("],\"counters\":[");
    for (i, (name, value)) in summary.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let value = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"value\":{value}}}",
            json::escape(name)
        ));
    }
    out.push_str(&format!(
        "],\"threads\":{},\"dropped_events\":{}}}",
        summary.threads, summary.dropped
    ));
    out
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

fn chrome_args(args: &[(String, f64)]) -> String {
    let pairs: Vec<String> = args
        .iter()
        .map(|(k, v)| {
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            format!("\"{}\":{v}", json::escape(k))
        })
        .collect();
    format!("{{{}}}", pairs.join(","))
}

/// Render a trace in the Chrome trace-event JSON object format. The result
/// loads in Perfetto / `chrome://tracing`; the digest from [`summarize`] is
/// embedded under the extra top-level `dpzSummary` key (the format allows
/// unknown keys).
pub fn to_chrome_json(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"dpz\"}}",
    );
    for thread in &trace.threads {
        out.push_str(&format!(
            ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            thread.tid,
            json::escape(&thread.name)
        ));
    }
    for ev in &trace.events {
        let ts_us = ev.ts_ns as f64 / 1e3;
        match ev.kind {
            EventKind::Span => {
                out.push_str(&format!(
                    ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3},\"dur\":{:.3},\"name\":\"{}\",\"cat\":\"dpz\",\"args\":{}}}",
                    ev.thread,
                    ev.dur_ns as f64 / 1e3,
                    json::escape(&ev.name),
                    chrome_args(&ev.args)
                ));
            }
            EventKind::Instant => {
                out.push_str(&format!(
                    ",\n{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3},\"name\":\"{}\",\"cat\":\"dpz\",\"s\":\"t\",\"args\":{}}}",
                    ev.thread,
                    json::escape(&ev.name),
                    chrome_args(&ev.args)
                ));
            }
            EventKind::Counter => {
                let value = if ev.value.is_finite() {
                    format!("{}", ev.value)
                } else {
                    "null".to_string()
                };
                out.push_str(&format!(
                    ",\n{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3},\"name\":\"{}\",\"args\":{{\"value\":{value}}}}}",
                    ev.thread,
                    json::escape(&ev.name)
                ));
            }
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"dpzSummary\":");
    out.push_str(&summary_json(&summarize(trace)));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_packing_round_trips() {
        for kind in [EventKind::Span, EventKind::Instant, EventKind::Counter] {
            let meta = pack_meta(kind, 123_456, [7, 65_535]);
            let (k, name_id, keys) = unpack_meta(meta);
            assert_eq!(k, kind);
            assert_eq!(name_id, 123_456);
            assert_eq!(keys, [7, 65_535]);
        }
    }

    #[test]
    fn interning_is_stable() {
        let a = intern("trace_test_stage1");
        let b = intern("trace_test_stage2");
        assert_ne!(a, b);
        assert_eq!(intern("trace_test_stage1"), a);
        assert_eq!(resolve(a), "trace_test_stage1");
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let durs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&durs, 0.50), 51.0); // round half up on 0-based rank
        assert_eq!(percentile_ns(&durs, 0.99), 99.0);
        assert_eq!(percentile_ns(&[], 0.5), 0.0);
    }

    #[test]
    fn summary_derives_throughput_from_bytes() {
        let trace = Trace {
            events: vec![TraceEvent {
                ts_ns: 0,
                dur_ns: 1_000_000_000, // 1 s
                value: 0.0,
                thread: 1,
                kind: EventKind::Span,
                name: "compress".to_string(),
                args: vec![("bytes".to_string(), 8_000_000.0)],
            }],
            threads: vec![ThreadInfo {
                tid: 1,
                name: "main".to_string(),
            }],
            dropped: 0,
        };
        let summary = summarize(&trace);
        assert_eq!(summary.spans.len(), 1);
        let s = &summary.spans[0];
        assert_eq!(s.count, 1);
        assert!((s.total_ms - 1000.0).abs() < 1e-9);
        assert!((s.mb_per_s.unwrap() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn chrome_export_is_valid_json_with_metadata() {
        let trace = Trace {
            events: vec![
                TraceEvent {
                    ts_ns: 1_500,
                    dur_ns: 2_500,
                    value: 0.0,
                    thread: 1,
                    kind: EventKind::Span,
                    name: "stage1.decompose_dct".to_string(),
                    args: vec![("bytes".to_string(), 64.0)],
                },
                TraceEvent {
                    ts_ns: 5_000,
                    dur_ns: 0,
                    value: 3.0,
                    thread: 1,
                    kind: EventKind::Counter,
                    name: "pool_idle".to_string(),
                    args: vec![],
                },
            ],
            threads: vec![ThreadInfo {
                tid: 1,
                name: "main".to_string(),
            }],
            dropped: 0,
        };
        let doc = json::parse(&to_chrome_json(&trace)).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // process_name + thread_name + 2 events
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some("process_name")
        );
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("thread_name"));
        let span = &events[2];
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(1.5));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(2.5));
        assert!(doc.get("dpzSummary").is_some());
    }
}
