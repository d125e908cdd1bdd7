//! Figure 8: compression / decompression time versus achieved CR on the
//! Isotropic dataset, for DPZ-l, DPZ-s, SZ and ZFP — plus sampling vs
//! non-sampling DPZ compress time. The paper reports a ~1.23× average
//! sampling speedup from fitting only the estimated `k_e` components; here
//! `k` stays TVE-certified with or without sampling, so the ratio measures
//! what the estimator costs.

use dpz_bench::harness::{fmt, format_table, write_csv, Args};
use dpz_bench::runners::{
    run_dpz, run_sz_relative, run_zfp, RunResult, SZ_REL_BOUNDS, ZFP_PRECISIONS,
};
use dpz_core::{DpzConfig, TveLevel};
use dpz_data::{standard_suite, Dataset, DatasetKind};
use dpz_zfp::ZfpMode;

fn push(rows: &mut Vec<Vec<String>>, ds: &Dataset, run: &RunResult) {
    rows.push(vec![
        run.label.clone(),
        run.setting.clone(),
        fmt(run.report.compression_ratio),
        fmt(run.compress_time.as_secs_f64()),
        fmt(run.decompress_time.as_secs_f64()),
        fmt(run.compress_mbps(ds.nbytes())),
        fmt(run.decompress_mbps(ds.nbytes())),
    ]);
}

fn main() {
    let args = Args::parse();
    let ds = Dataset::generate(DatasetKind::Isotropic, args.scale, args.seed);
    let header = [
        "method",
        "setting",
        "cr",
        "comp_s",
        "decomp_s",
        "comp_MB/s",
        "decomp_MB/s",
    ];
    let mut rows = Vec::new();
    for level in TveLevel::SWEEP {
        for (label, base) in [
            ("DPZ-l", DpzConfig::loose()),
            ("DPZ-s", DpzConfig::strict()),
        ] {
            if let Ok((run, _)) = run_dpz(
                &ds,
                &base.with_tve(level),
                label,
                &format!("tve={}nines", level.nines()),
            ) {
                push(&mut rows, &ds, &run);
            }
        }
    }
    for rel in SZ_REL_BOUNDS {
        if let Ok(run) = run_sz_relative(&ds, rel) {
            push(&mut rows, &ds, &run);
        }
    }
    for prec in ZFP_PRECISIONS {
        if let Ok(run) = run_zfp(&ds, ZfpMode::FixedPrecision(prec)) {
            push(&mut rows, &ds, &run);
        }
    }
    println!("Figure 8 — (de)compression time vs CR on Isotropic\n");
    println!("{}", format_table(&header, &rows));
    let path = write_csv(&args.out_dir, "fig8_throughput", &header, &rows).expect("csv");
    println!("csv: {}", path.display());

    // Sampling speedup across the whole suite (paper: 1.23x average; here
    // the same certified fit plus the estimator).
    println!("\nSampling-strategy speedup (DPZ-l, five-nine TVE):");
    let header2 = ["dataset", "plain_s", "sampling_s", "speedup"];
    let mut rows2 = Vec::new();
    let mut ratios = Vec::new();
    for ds in standard_suite(args.scale) {
        let plain = run_dpz(
            &ds,
            &DpzConfig::loose().with_tve(TveLevel::FiveNines),
            "DPZ-l",
            "plain",
        );
        let sampled = run_dpz(
            &ds,
            &DpzConfig::loose()
                .with_tve(TveLevel::FiveNines)
                .with_sampling(true),
            "DPZ-l",
            "sampling",
        );
        if let (Ok((p, _)), Ok((s, _))) = (plain, sampled) {
            let speedup = p.compress_time.as_secs_f64() / s.compress_time.as_secs_f64();
            ratios.push(speedup);
            rows2.push(vec![
                ds.name.clone(),
                fmt(p.compress_time.as_secs_f64()),
                fmt(s.compress_time.as_secs_f64()),
                format!("{speedup:.2}x"),
            ]);
        }
    }
    println!("{}", format_table(&header2, &rows2));
    if !ratios.is_empty() {
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        println!("average speedup: {avg:.2}x (paper reports 1.23x)");
    }
    let path = write_csv(&args.out_dir, "fig8_sampling_speedup", &header2, &rows2).expect("csv");
    println!("csv: {}", path.display());
}
