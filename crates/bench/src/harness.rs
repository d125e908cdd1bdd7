//! Shared experiment plumbing: argument parsing, CSV output, table printing
//! and simple summary statistics.

use dpz_core::StageTimings;
use dpz_data::dataset::DEFAULT_SEED;
use dpz_data::Scale;
use dpz_telemetry::Snapshot;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Common command-line arguments of every experiment binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// Dataset scale.
    pub scale: Scale,
    /// Generator seed.
    pub seed: u64,
    /// Directory for CSV output.
    pub out_dir: PathBuf,
}

impl Args {
    /// Parse from `std::env::args`, exiting with a message on bad input.
    pub fn parse() -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse_from(&argv).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2);
        })
    }

    /// Parse from a slice (testable).
    pub fn parse_from(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            scale: Scale::Default,
            seed: DEFAULT_SEED,
            out_dir: PathBuf::from("results"),
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => {
                    let v = it.next().ok_or("--scale needs a value")?;
                    args.scale =
                        Scale::from_name(v).ok_or_else(|| format!("unknown scale '{v}'"))?;
                }
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    args.seed = v.parse().map_err(|_| "--seed expects an integer")?;
                }
                "--out" => {
                    let v = it.next().ok_or("--out needs a value")?;
                    args.out_dir = PathBuf::from(v);
                }
                other => {
                    return Err(format!(
                        "unknown flag '{other}' (expected --scale/--seed/--out)"
                    ))
                }
            }
        }
        Ok(args)
    }
}

/// Write rows as CSV into `<out_dir>/<name>.csv`, creating the directory.
pub fn write_csv(
    out_dir: &Path,
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("{name}.csv"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{}", header.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    f.flush()?;
    Ok(path)
}

/// Render rows as an aligned text table for stdout.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Five-number summary (min, q1, median, q3, max) for boxplot-style output.
pub fn five_number_summary(values: &[f64]) -> [f64; 5] {
    assert!(!values.is_empty(), "summary of empty data");
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = |p: f64| -> f64 {
        let pos = p * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let t = pos - lo as f64;
        v[lo] * (1.0 - t) + v[hi] * t
    };
    [v[0], q(0.25), q(0.5), q(0.75), v[v.len() - 1]]
}

/// Equal-width histogram over `[min, max]`; returns `(bin_centers, counts)`.
pub fn histogram(values: &[f32], bins: usize) -> (Vec<f64>, Vec<usize>) {
    assert!(bins > 0 && !values.is_empty());
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(f64::from(v)), hi.max(f64::from(v)))
        });
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let mut counts = vec![0usize; bins];
    for &v in values {
        let idx = (((f64::from(v) - lo) / span) * bins as f64) as usize;
        counts[idx.min(bins - 1)] += 1;
    }
    let centers = (0..bins)
        .map(|b| lo + span * (b as f64 + 0.5) / bins as f64)
        .collect();
    (centers, counts)
}

/// The DPZ pipeline stages, in execution order, named like the fields of
/// [`StageTimings`].
pub const STAGES: [&str; 5] = ["decompose_dct", "sampling", "pca", "quantize", "lossless"];

/// Per-stage wall-clock seconds of one compression, indexed like [`STAGES`].
pub fn stage_seconds(timings: &StageTimings) -> [f64; 5] {
    [
        timings.decompose_dct,
        timings.sampling,
        timings.pca,
        timings.quantize,
        timings.lossless,
    ]
    .map(|d| d.as_secs_f64())
}

/// Write a snapshot as a Prometheus exposition sidecar next to the CSVs:
/// `<out_dir>/<name>.prom`.
pub fn write_metrics_sidecar(
    out_dir: &Path,
    name: &str,
    metrics: &Snapshot,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("{name}.prom"));
    std::fs::write(&path, dpz_telemetry::to_prometheus(metrics))?;
    Ok(path)
}

/// Write a drained event journal as a Chrome trace-event sidecar next to
/// the CSVs: `<out_dir>/<name>.trace.json` (open in Perfetto or
/// chrome://tracing).
pub fn write_trace_sidecar(
    out_dir: &Path,
    name: &str,
    trace: &dpz_telemetry::trace::Trace,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(out_dir)?;
    let path = out_dir.join(format!("{name}.trace.json"));
    std::fs::write(&path, dpz_telemetry::trace::to_chrome_json(trace))?;
    Ok(path)
}

/// Format a float compactly for tables.
pub fn fmt(v: f64) -> String {
    if !v.is_finite() {
        return format!("{v}");
    }
    let a = v.abs();
    if a != 0.0 && !(1e-2..1e5).contains(&a) {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_defaults_and_flags() {
        let a = Args::parse_from(&[]).unwrap();
        assert_eq!(a.scale, Scale::Default);
        assert_eq!(a.seed, DEFAULT_SEED);
        let a =
            Args::parse_from(&sv(&["--scale", "tiny", "--seed", "7", "--out", "/tmp/x"])).unwrap();
        assert_eq!(a.scale, Scale::Tiny);
        assert_eq!(a.seed, 7);
        assert_eq!(a.out_dir, PathBuf::from("/tmp/x"));
        assert!(Args::parse_from(&sv(&["--scale"])).is_err());
        assert!(Args::parse_from(&sv(&["--bogus"])).is_err());
    }

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("dpz_bench_csv");
        let path = write_csv(&dir, "t", &["a", "b"], &[sv(&["1", "2"]), sv(&["3", "4"])]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table_is_aligned() {
        let t = format_table(&["name", "v"], &[sv(&["x", "10"]), sv(&["longer", "2"])]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn five_numbers() {
        let s = five_number_summary(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s, [1.0, 2.0, 3.0, 4.0, 5.0]);
        let s = five_number_summary(&[7.0]);
        assert_eq!(s, [7.0; 5]);
    }

    #[test]
    fn histogram_counts_everything() {
        let data: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let (centers, counts) = histogram(&data, 10);
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert_eq!(centers.len(), 10);
        assert!(counts.iter().all(|&c| c == 10));
    }

    #[test]
    fn stage_seconds_follow_stage_order() {
        use std::time::Duration;
        let t = StageTimings {
            pca: Duration::from_millis(250),
            lossless: Duration::from_millis(500),
            ..StageTimings::default()
        };
        assert_eq!(stage_seconds(&t), [0.0, 0.0, 0.25, 0.0, 0.5]);
    }

    #[test]
    fn metrics_sidecar_is_valid_prometheus() {
        let r = dpz_telemetry::Registry::new();
        r.counter_with(
            "dpz_bytes_in_total",
            &[("codec", "dpz"), ("op", "compress")],
        )
        .add(1024);
        let dir = std::env::temp_dir().join("dpz_bench_sidecar");
        let path = write_metrics_sidecar(&dir, "t", &r.snapshot()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("# TYPE dpz_bytes_in_total counter"));
        assert!(content.contains("dpz_bytes_in_total{codec=\"dpz\",op=\"compress\"} 1024"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_sidecar_is_valid_chrome_json() {
        use dpz_telemetry::trace;
        trace::start();
        {
            let _s = dpz_telemetry::span!("sidecar_probe");
        }
        trace::stop();
        let drained = trace::drain();
        let dir = std::env::temp_dir().join("dpz_bench_trace_sidecar");
        let path = write_trace_sidecar(&dir, "t", &drained).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let doc = dpz_telemetry::json::parse(&content).expect("chrome trace parses");
        assert!(doc.get("traceEvents").is_some());
        assert!(path.to_string_lossy().ends_with("t.trace.json"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fmt_picks_notation() {
        assert_eq!(fmt(1.5), "1.500");
        assert_eq!(fmt(0.0001), "1.000e-4");
        assert_eq!(fmt(1234567.0), "1.235e6");
    }
}
