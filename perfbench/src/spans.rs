//! The benchmark's own in-memory span recorder. Spans wrap calls into the
//! workspace's public functions from the benchmark side; nothing inside the
//! crates is instrumented. A disabled recorder records nothing, so untraced
//! runs pay one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: name, start/end in nanoseconds since the recorder's
/// epoch, the enclosing span (index into the recorder) and the op id that
/// caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Spans::begin`]; pass it to [`Spans::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for op `op`, nested in the innermost open
    /// span.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span opened by [`Spans::begin`]. Spans close innermost first.
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(id), "spans must close innermost first");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op);
        let out = f();
        self.end(open);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals: (count, total ns, total self ns). A span's self time
    /// is its duration minus the time its direct children cover (children
    /// never overlap: the recorder is single-threaded and strictly nested).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let child_ns = self.child_ns();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration_ns();
            t.self_ns += s.duration_ns().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Share of root spans named `root` not covered by their children:
    /// `1 − Σ child time ÷ Σ root time` (0 when there is no such root).
    pub fn unattributed_frac(&self, root: &str) -> f64 {
        let child_ns = self.child_ns();
        let mut root_ns = 0u64;
        let mut covered = 0u64;
        for (s, c) in self.spans.iter().zip(child_ns) {
            if s.name == root {
                root_ns += s.duration_ns();
                covered += c;
            }
        }
        if root_ns == 0 {
            0.0
        } else {
            1.0 - covered as f64 / root_ns as f64
        }
    }

    /// Time covered by each span's direct children.
    fn child_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        child_ns
    }

    /// The spans as a JSON array (written out when a traced run ends).
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{sep}",
                sp.name, sp.start_ns, sp.end_ns, sp.op
            );
        }
        s.push(']');
        s
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean self time per span in milliseconds.
    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nesting_parents_and_self_time() {
        let mut s = Spans::new(true);
        let root = s.begin("op", 7);
        s.time("a", 7, || spin(200_000));
        s.time("b", 7, || spin(200_000));
        spin(100_000);
        s.end(root);
        let spans = s.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|x| x.op == 7 && x.end_ns >= x.start_ns));
        let totals = s.totals();
        let op = totals["op"];
        assert_eq!(
            op.self_ns,
            op.total_ns - totals["a"].total_ns - totals["b"].total_ns
        );
        let frac = s.unattributed_frac("op");
        assert!(frac > 0.0 && frac < 1.0, "{frac}");
        let json = dpz_telemetry::json::parse(&s.to_json()).expect("spans JSON parses");
        let arr = json.as_array().expect("array");
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("name").and_then(|v| v.as_str()), Some("a"));
        assert_eq!(arr[1].get("parent").and_then(|v| v.as_f64()), Some(0.0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let o = s.begin("op", 1);
        s.end(o);
        assert_eq!(s.time("x", 1, || 5), 5);
        assert!(s.spans().is_empty());
        assert_eq!(s.unattributed_frac("op"), 0.0);
    }
}
