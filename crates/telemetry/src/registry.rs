//! The metrics registry: named, labeled, thread-safe instruments.
//!
//! Three instrument kinds cover everything the pipeline reports:
//!
//! * [`Counter`] — monotonically increasing `u64` (bytes in/out, blocks,
//!   outliers, compressions run),
//! * [`Gauge`] — last-written `f64` (selected `k`, achieved TVE, VIF),
//! * [`Histogram`] — fixed-bucket cumulative distribution with sum and
//!   count (span latencies).
//!
//! Instruments are identified by a [`Key`] (metric name plus sorted label
//! pairs) and live behind `Arc`s, so handles can be cached and bumped from
//! any thread without holding the registry lock.

use crate::snapshot::{HistogramSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Default latency buckets in seconds (1 µs … 30 s, roughly exponential).
pub const LATENCY_BUCKETS_S: [f64; 10] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0];

/// Identity of one instrument: metric name + sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Prometheus-style metric name (`dpz_bytes_in_total`, …).
    pub name: String,
    /// Label pairs, sorted by label name for canonical identity.
    pub labels: Vec<(String, String)>,
}

impl Key {
    /// Build a key, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Key {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Key {
            name: name.to_string(),
            labels,
        }
    }
}

/// Monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-value gauge (an `f64` stored as atomic bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram with cumulative-count Prometheus semantics.
#[derive(Debug)]
pub struct Histogram {
    /// Upper bounds of the finite buckets, strictly increasing. An implicit
    /// `+Inf` bucket (the total count) always exists on top.
    bounds: Box<[f64]>,
    /// Per-bucket observation counts (NOT cumulative; cumulated on export).
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.into(),
            // One extra slot for the +Inf overflow bucket.
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // CAS loop: f64 addition over atomic bits.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Total observation count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// A set of named instruments that can be snapshotted atomically enough for
/// reporting (individual instrument reads are atomic; the snapshot as a
/// whole is best-effort consistent, which is fine for telemetry).
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<Key, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<Key, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<Key, Arc<Histogram>>>,
}

fn get_or_insert<T, F: FnOnce() -> T>(
    map: &RwLock<BTreeMap<Key, Arc<T>>>,
    key: Key,
    make: F,
) -> Arc<T> {
    if let Some(found) = map.read().expect("registry lock").get(&key) {
        return Arc::clone(found);
    }
    let mut w = map.write().expect("registry lock");
    Arc::clone(w.entry(key).or_insert_with(|| Arc::new(make())))
}

impl Registry {
    /// Fresh, empty registry (tests and scoped measurements).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Counter without labels.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Counter with labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        get_or_insert(&self.counters, Key::new(name, labels), Counter::default)
    }

    /// Gauge without labels.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Gauge with labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        get_or_insert(&self.gauges, Key::new(name, labels), Gauge::default)
    }

    /// Histogram without labels. `bounds` applies only on first creation.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, &[], bounds)
    }

    /// Histogram with labels. `bounds` applies only on first creation.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        get_or_insert(&self.histograms, Key::new(name, labels), || {
            Histogram::new(bounds)
        })
    }

    /// Point-in-time copy of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry lock")
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Drop every instrument (start a fresh measurement window).
    pub fn reset(&self) {
        self.counters.write().expect("registry lock").clear();
        self.gauges.write().expect("registry lock").clear();
        self.histograms.write().expect("registry lock").clear();
    }
}

/// The process-wide registry every instrumented crate reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_handles() {
        let r = Registry::new();
        r.counter("hits_total").add(3);
        r.counter("hits_total").inc();
        assert_eq!(r.counter("hits_total").get(), 4);
        // Different labels are different series.
        r.counter_with("hits_total", &[("codec", "sz")]).inc();
        assert_eq!(r.counter("hits_total").get(), 4);
        assert_eq!(r.counter_with("hits_total", &[("codec", "sz")]).get(), 1);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = Registry::new();
        r.counter_with("x_total", &[("a", "1"), ("b", "2")]).inc();
        r.counter_with("x_total", &[("b", "2"), ("a", "1")]).inc();
        assert_eq!(
            r.counter_with("x_total", &[("a", "1"), ("b", "2")]).get(),
            2
        );
    }

    #[test]
    fn gauge_overwrites() {
        let r = Registry::new();
        r.gauge("k").set(12.0);
        r.gauge("k").set(7.5);
        assert_eq!(r.gauge("k").get(), 7.5);
    }

    #[test]
    fn histogram_buckets_boundaries() {
        let r = Registry::new();
        let h = r.histogram("lat", &[1.0, 2.0, 4.0]);
        // A value exactly on a bound belongs to that bound's bucket
        // (Prometheus `le` semantics: bucket counts observations <= bound).
        for v in [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let hs = snap.histograms.values().next().unwrap();
        assert_eq!(hs.buckets, vec![2, 2, 2, 1]); // (..1], (1..2], (2..4], (4..)
        assert_eq!(hs.count, 7);
        assert!((hs.sum - 112.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn reset_clears_everything() {
        let r = Registry::new();
        r.counter("c_total").inc();
        r.gauge("g").set(1.0);
        r.histogram("h", &LATENCY_BUCKETS_S).observe(0.1);
        r.reset();
        let snap = r.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
    }
}
