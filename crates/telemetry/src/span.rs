//! Lightweight span tracing: RAII guards that time a region of code into
//! the global registry and, when the event journal is on, into the journal.
//!
//! A span's name is a `&'static str` and is the whole of its identity: the
//! duration lands in the `dpz_span_seconds{span="<name>"}` histogram of the
//! global registry under that name, whichever thread runs the span and
//! whatever encloses it. Nesting lives in the journal's timestamps instead
//! (Perfetto nests same-thread spans by time).

use crate::registry::{global, LATENCY_BUCKETS_S};
use std::time::Instant;

/// RAII guard for one timed region. Created by [`span`] (or the `span!`
/// macro); records its duration when dropped.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Instant,
    args: [Option<(&'static str, f64)>; crate::trace::MAX_ARGS],
}

/// Open a span named `name`.
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: Instant::now(),
        args: [None; crate::trace::MAX_ARGS],
    }
}

impl Span {
    /// Time elapsed since the span opened (for callers that keep
    /// duration-typed views like `StageTimings`).
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }

    /// Attach a numeric annotation (buffer size, chunk index, …) carried on
    /// the span's journal event. At most [`crate::trace::MAX_ARGS`] stick;
    /// re-annotating an existing key overwrites it.
    pub fn annotate(&mut self, key: &'static str, value: f64) {
        for slot in &mut self.args {
            match slot {
                Some((k, v)) if *k == key => {
                    *v = value;
                    return;
                }
                None => {
                    *slot = Some((key, value));
                    return;
                }
                Some(_) => {}
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        global()
            .histogram_with(
                "dpz_span_seconds",
                &[("span", self.name)],
                &LATENCY_BUCKETS_S,
            )
            .observe(secs);
        if crate::trace::journal_enabled() {
            let args: Vec<(&str, f64)> = self.args.iter().flatten().copied().collect();
            crate::trace::complete(self.name, self.start, &args);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_span_records_under_its_own_name() {
        let series = |name| {
            global()
                .snapshot()
                .histogram("dpz_span_seconds", &[("span", name)])
                .map_or(0, |h| h.count)
        };
        let before = series("span_test_inner");
        let outer = span("span_test_outer");
        drop(span("span_test_inner"));
        drop(outer);
        assert_eq!(series("span_test_inner"), before + 1);
        assert!(series("span_test_outer") >= 1);
        let dotted = global()
            .snapshot()
            .histogram(
                "dpz_span_seconds",
                &[("span", "span_test_outer.span_test_inner")],
            )
            .is_none();
        assert!(
            dotted,
            "the enclosing span leaked into the inner span's name"
        );
    }

    #[test]
    fn annotations_cap_at_max_args_and_overwrite() {
        let mut s = span("annotated");
        s.annotate("bytes", 10.0);
        s.annotate("chunk", 2.0);
        s.annotate("extra", 99.0); // no slot left; silently dropped
        s.annotate("bytes", 20.0); // overwrite
        assert_eq!(s.args[0], Some(("bytes", 20.0)));
        assert_eq!(s.args[1], Some(("chunk", 2.0)));
    }
}
