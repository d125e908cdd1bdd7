//! Figure 9: breakdown of DPZ compression time per stage across the
//! evaluation suite. The paper's observation: stages 2 (PCA) and 3
//! (quantization + encoding) dominate.
//!
//! Stage timings are each compression's own `StageTimings`, read off its
//! stage spans; the same spans fill `dpz_span_seconds{span=<stage>}`, and
//! the suite's registry delta is written alongside the CSV as a Prometheus
//! sidecar.

use dpz_bench::harness::{
    format_table, stage_seconds, write_csv, write_metrics_sidecar, write_trace_sidecar, Args,
    STAGES,
};
use dpz_core::{compress, DpzConfig, TveLevel};
use dpz_data::standard_suite;

fn main() {
    let args = Args::parse();
    let cfg = DpzConfig::strict().with_tve(TveLevel::FiveNines);
    // Record the whole suite into the event journal; it is written next to
    // the .prom sidecar as a Perfetto-loadable trace.
    dpz_telemetry::trace::start();
    let header = [
        "dataset",
        "total_ms",
        "stage1_dct_%",
        "sampling_%",
        "stage2_pca_%",
        "stage3_quant_%",
        "lossless_%",
    ];
    let mut rows = Vec::new();
    let run_start = dpz_telemetry::global().snapshot();
    for ds in standard_suite(args.scale) {
        match compress(&ds.data, &ds.dims, &cfg) {
            Ok(out) => {
                let stages = stage_seconds(&out.stats.timings);
                let total: f64 = stages.iter().sum::<f64>().max(1e-12);
                let mut row = vec![ds.name.clone(), format!("{:.1}", total * 1e3)];
                row.extend(stages.iter().map(|s| format!("{:.1}", 100.0 * s / total)));
                rows.push(row);
            }
            Err(e) => eprintln!("{}: {e}", ds.name),
        }
    }
    println!("Figure 9 — DPZ compression-time breakdown (DPZ-s, five-nine TVE)\n");
    println!("stages: {}\n", STAGES.join(" -> "));
    println!("{}", format_table(&header, &rows));
    let path = write_csv(&args.out_dir, "fig9_time_breakdown", &header, &rows).expect("csv");
    println!("csv: {}", path.display());
    let suite_delta = dpz_telemetry::global().snapshot().since(&run_start);
    let prom = write_metrics_sidecar(&args.out_dir, "fig9_time_breakdown", &suite_delta)
        .expect("metrics sidecar");
    println!("metrics: {}", prom.display());
    dpz_telemetry::trace::stop();
    let events = dpz_telemetry::trace::drain();
    let trace =
        write_trace_sidecar(&args.out_dir, "fig9_time_breakdown", &events).expect("trace sidecar");
    println!("trace: {}", trace.display());
}
