//! Z-checker-style quality assessment report: roundtrips a dataset through
//! every operating point of the quality-target control plane — legacy
//! bounds, fixed-ratio, fixed-PSNR, and the baselines — and emits one
//! [`QualityReport`] per combination as
//! a table, a CSV, and a JSON document (`quality_report.json`) that CI
//! archives and `perf_gate` diffs non-blockingly.
//!
//! ```text
//! quality_report [--scale tiny|small|default|paper] [--seed N] [--out DIR]
//! ```

use dpz_bench::harness::{self, Args};
use dpz_bench::quality::{reports_to_json, QualityReport};
use dpz_codec::{Codec, DpzCodec, SzCodec, ZfpCodec};
use dpz_core::{DpzConfig, QualityTarget};
use dpz_data::{Dataset, DatasetKind};

/// Assess one codec at one target on one dataset.
fn assess(
    ds: &Dataset,
    label: &str,
    codec: &dyn Codec,
    target: Option<QualityTarget>,
) -> Option<QualityReport> {
    let mut bytes = Vec::new();
    let stats = match target {
        Some(t) => codec.compress_with_target(&ds.data, &ds.dims, &t, &mut bytes),
        None => codec.compress_into(&ds.data, &ds.dims, &mut bytes),
    };
    let stats = match stats {
        Ok(s) => s,
        Err(e) => {
            eprintln!("quality_report: {}/{label}: {e} (skipped)", ds.name);
            return None;
        }
    };
    let decoded = codec.decompress_from(&mut &bytes[..]).ok()?;
    Some(QualityReport::assess(
        &ds.name,
        label,
        &ds.data,
        &decoded.values,
        bytes.len(),
        stats.dpz.as_ref(),
    ))
}

fn main() {
    let args = Args::parse();
    let ds = Dataset::generate(DatasetKind::Cldhgh, args.scale, args.seed);

    let dpz = DpzCodec::new(DpzConfig::loose());
    let sz = SzCodec::default();
    let zfp = ZfpCodec::default();
    let runs: Vec<(&str, &dyn Codec, Option<QualityTarget>)> = vec![
        ("dpz-loose", &dpz, Some(QualityTarget::ErrorBound(1e-3))),
        ("dpz-strict", &dpz, Some(QualityTarget::ErrorBound(1e-4))),
        ("dpz-rel1e-3", &dpz, Some(QualityTarget::RelBound(1e-3))),
        (
            "dpz-ratio8",
            &dpz,
            Some(QualityTarget::Ratio {
                target: 8.0,
                tol: 0.1,
            }),
        ),
        ("dpz-psnr60", &dpz, Some(QualityTarget::Psnr(60.0))),
        ("sz-rel1e-3", &sz, Some(QualityTarget::RelBound(1e-3))),
        ("zfp-rel1e-3", &zfp, Some(QualityTarget::RelBound(1e-3))),
    ];

    let reports: Vec<QualityReport> = runs
        .into_iter()
        .filter_map(|(label, codec, target)| assess(&ds, label, codec, target))
        .collect();

    println!(
        "quality_report — {} ({} values, range {:.3e})",
        ds.name,
        ds.len(),
        reports.first().map_or(0.0, |r| r.value_range)
    );
    println!(
        "  {:<14} {:>9} {:>11} {:>11} {:>8} {:>8}",
        "codec", "psnr dB", "max err", "theta", "CR", "bits/val"
    );
    for r in &reports {
        println!(
            "  {:<14} {:>9.2} {:>11.3e} {:>11.3e} {:>8.2} {:>8.3}",
            r.codec, r.psnr_db, r.max_abs_error, r.theta, r.cr_total, r.bit_rate
        );
    }

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.codec.clone(),
                format!("{:.3}", r.psnr_db),
                format!("{:.6e}", r.max_abs_error),
                format!("{:.6e}", r.theta),
                format!("{:.4}", r.cr_total),
                format!("{:.4}", r.bit_rate),
            ]
        })
        .collect();
    let csv = harness::write_csv(
        &args.out_dir,
        "quality_report",
        &[
            "codec",
            "psnr_db",
            "max_abs_error",
            "theta",
            "cr_total",
            "bit_rate",
        ],
        &rows,
    )
    .expect("write CSV");
    let json_path = args.out_dir.join("quality_report.json");
    std::fs::write(&json_path, reports_to_json(&reports)).expect("write JSON");
    println!("wrote {} and {}", csv.display(), json_path.display());
}
