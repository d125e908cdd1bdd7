//! Metric names, units and the result line the benchmark prints last.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by untraced runs, in declaration order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("compress_mb_s", "MB/s"),
    ("decompress_mb_s", "MB/s"),
    ("region_p50_ms", "ms"),
    ("ratio", "x"),
    ("psnr_db", "dB"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs, in declaration order.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("decompose.dct_ms", "ms"),
    ("decompose.dct_gb_s", "GB/s"),
    ("decompose.dct_memcpy_frac", "frac"),
    ("decompose.idct_ms", "ms"),
    ("pca.fit_ms", "ms"),
    ("pca.k", "count"),
    ("pca.sketch_cols", "count"),
    ("pca.useful_cols_ratio", "frac"),
    ("pca.tve", "frac"),
    ("pca.warm_hit_ratio", "frac"),
    ("gemm.gflop_s", "GFLOP/s"),
    ("gemm.flop_per_byte", "flop/B"),
    ("gemm.fma_frac", "frac"),
    ("quantize.ms", "ms"),
    ("dequantize.ms", "ms"),
    ("quantize.outlier_frac", "frac"),
    ("reconstruct.gemm_ms", "ms"),
    ("lossless.encode_ms", "ms"),
    ("lossless.decode_ms", "ms"),
    ("lossless.ratio", "x"),
    ("deflate.mb_s", "MB/s"),
    ("deflate.memcpy_frac", "frac"),
    ("inflate.mb_s", "MB/s"),
    ("inflate.memcpy_frac", "frac"),
    ("crc32.gb_s", "GB/s"),
    ("crc32.memcpy_frac", "frac"),
    ("seek.index_ms", "ms"),
    ("seek.bytes_read_per_read", "B"),
    ("seek.chunks_touched_per_read", "count"),
    ("pool.tasks", "count"),
    ("pool.steals", "count"),
    ("pool.cpu_util", "frac"),
    ("target.oracle_calls", "count"),
    ("target.confirms", "count"),
    ("target.psnr_retries", "count"),
    ("target.miss_frac", "frac"),
    ("auto.probe_ms", "ms"),
    ("auto.probe_share", "frac"),
    ("auto.selected.dpz", "frac"),
    ("auto.selected.sz", "frac"),
    ("auto.selected.zfp", "frac"),
    ("paper.compress_ms", "ms"),
    ("paper.decompress_ms", "ms"),
    ("paper.decompose.dct_ms", "ms"),
    ("paper.pca.fit_ms", "ms"),
    ("paper.pca.k", "count"),
    ("paper.pca.sketch_cols", "count"),
    ("paper.quantize.ms", "ms"),
    ("paper.lossless.encode_ms", "ms"),
    ("paper.lossless.decode_ms", "ms"),
    ("paper.reconstruct.gemm_ms", "ms"),
    ("paper.decompose.idct_ms", "ms"),
    ("attrib.compress_unattributed_frac", "frac"),
    ("attrib.decompress_unattributed_frac", "frac"),
    ("ref.memcpy_gb_s", "GB/s"),
    ("ref.fma_gflop_s", "GFLOP/s"),
    ("ref.sz_canary_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// The declared metrics with their measured values, in declaration order.
/// Every declared name must have been measured: a missing one is a bug in
/// the benchmark, not a property of the run.
pub fn ordered(
    declared: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    let extra: Vec<_> = values
        .keys()
        .filter(|k| !declared.iter().any(|(n, _)| n == *k))
        .collect();
    assert!(extra.is_empty(), "undeclared metrics {extra:?}");
    declared
        .iter()
        .map(|&(name, unit)| {
            let v = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, unit, v)
        })
        .collect()
}

/// The last line of a run: `correct`, `attempted`, `failed` and the
/// metrics as `{"value": v, "unit": u}`. Values print with every digit
/// (shortest round-trip form); a non-finite value cannot be written as JSON
/// and makes the run incorrect instead.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let correct = correct && metrics.iter().all(|m| m.2.is_finite());
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpz_telemetry::json::{self, JsonValue};

    #[test]
    fn result_line_round_trips_through_the_json_parser() {
        let metrics = [
            ("compress_mb_s", "MB/s", 22.613_456_789_012_3),
            ("setup_s", "s", 0.812_7),
            ("pca.k", "count", 24.0),
        ];
        let line = result_line(true, 1000, 0, &metrics);
        let doc = json::parse(&line).expect("valid JSON");
        let top = doc.as_object().expect("object");
        assert_eq!(
            top.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            doc.get("attempted").and_then(JsonValue::as_f64),
            Some(1000.0)
        );
        let m = doc.get("metrics").expect("metrics");
        for (name, unit, v) in metrics {
            let entry = m.get(name).expect("present");
            // Every digit survives the round trip.
            assert_eq!(entry.get("value").and_then(JsonValue::as_f64), Some(v));
            assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(unit));
        }
        assert!(
            line.contains("\"value\": 24.0"),
            "whole numbers still print as numbers: {line}"
        );
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let line = result_line(true, 1, 0, &[("psnr_db", "dB", f64::INFINITY)]);
        let doc = json::parse(&line).expect("still valid JSON");
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(false));
    }

    #[test]
    fn ordered_requires_every_declared_metric() {
        let mut values = BTreeMap::new();
        values.insert("ratio", 2.0);
        let r = std::panic::catch_unwind(|| ordered(&[("ratio", "x"), ("psnr_db", "dB")], &values));
        assert!(r.is_err());
        values.insert("psnr_db", 60.0);
        let o = ordered(&[("ratio", "x"), ("psnr_db", "dB")], &values);
        assert_eq!(o, vec![("ratio", "x", 2.0), ("psnr_db", "dB", 60.0)]);
    }

    /// BENCHMARK.json at the repository root declares exactly the metrics
    /// this benchmark emits, with the same units.
    #[test]
    fn benchmark_json_declares_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .expect("array")
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(JsonValue::as_str).expect("name");
                    let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
                    (name.to_string(), unit.to_string())
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
