//! # dpz-telemetry
//!
//! Zero-dependency observability for the DPZ compression pipeline: span
//! tracing, a global metrics registry, and Prometheus/JSON exporters.
//!
//! ## Spans
//!
//! Wrap a region in a [`span!`] guard and its wall-clock duration lands in
//! the `dpz_span_seconds{span="<name>"}` histogram of the [global
//! registry](registry::global). The name is static: a span records under
//! its own name on every thread, whatever span encloses it:
//!
//! ```
//! let _compress = dpz_telemetry::span!("compress");
//! {
//!     let _pca = dpz_telemetry::span!("stage2.pca"); // series: stage2.pca
//! }
//! ```
//!
//! When the [event journal](trace) is on, every span close also lands
//! there; [`trace::summarize`] digests it per span name.
//!
//! ## Metrics
//!
//! [`registry::global`] hands out named, labeled [`Counter`]s, [`Gauge`]s
//! and [`Histogram`]s that any thread can bump lock-free. A [`Snapshot`]
//! copies the whole registry at a point in time; [`Snapshot::since`] yields
//! the delta between two snapshots (how the bench harness attributes
//! activity to a single run).
//!
//! ## Event journal
//!
//! [`trace`] is a structured event journal behind the same spans: when
//! enabled ([`trace::start`]), every span close and instant marker lands in
//! a per-thread lock-free ring buffer; running totals live in the registry
//! alone. [`trace::drain`]
//! collects the events and [`trace::to_chrome_json`] renders them as Chrome
//! trace-event JSON for Perfetto / `chrome://tracing`, with a p50/p99 and
//! MB/s digest embedded. When the journal is off, the cost is one relaxed
//! atomic load per event site.
//!
//! ## Export
//!
//! [`to_prometheus`] renders a snapshot in the Prometheus text exposition
//! format; [`to_json`] / [`from_json`] round-trip it through JSON. The
//! [`json`] module exposes the underlying zero-dependency JSON parser.

pub mod export;
pub mod json;
pub mod registry;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use export::{from_json, to_json, to_prometheus, JsonError};
pub use registry::{global, Counter, Gauge, Histogram, Key, Registry, LATENCY_BUCKETS_S};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use span::Span;

/// Open a timed [`Span`]; bind it to keep the region alive:
///
/// ```
/// let _span = dpz_telemetry::span!("stage3.quantize");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::span($name)
    };
}
