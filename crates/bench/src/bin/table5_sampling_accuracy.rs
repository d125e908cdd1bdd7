//! Section V-C6: accuracy of the sampling strategy's compression-ratio
//! prediction. For S ∈ {5, 10} subsets and TVE from "five-nine" to
//! "seven-nine", run the estimator on the stage-1 coefficients, then the
//! real compressor, and count how often the certified artifact's CR falls
//! inside the predicted `CR_p` range (the paper reports 76.6 % for S = 10
//! vs 63.3 % for S = 5). The estimate never decides `k`, so the table lists
//! the estimated `k_e` beside the TVE-certified `k` the artifact keeps.

use dpz_bench::harness::{fmt, format_table, write_csv, Args};
use dpz_core::{compress, decompose, DpzConfig, SamplingStrategy, TveLevel};
use dpz_data::standard_suite;

const LEVELS: [TveLevel; 3] = [
    TveLevel::FiveNines,
    TveLevel::SixNines,
    TveLevel::SevenNines,
];

fn main() {
    let args = Args::parse();
    let header = [
        "dataset",
        "S",
        "tve",
        "k_e",
        "k",
        "cr_pred_low",
        "cr_pred_high",
        "cr_actual",
        "hit",
    ];
    let mut rows = Vec::new();
    let mut hits: std::collections::HashMap<usize, (usize, usize)> = Default::default();
    for s in [5usize, 10] {
        for ds in standard_suite(args.scale) {
            let cfg = DpzConfig::loose().with_sampling(true);
            let shape = decompose::choose_shape(ds.len());
            let (coeffs, _) = decompose::stage1(&ds.data, shape, cfg.transform);
            for level in LEVELS {
                let strat = SamplingStrategy {
                    subsets: s,
                    tve: level.fraction(),
                };
                let out = compress(&ds.data, &ds.dims, &cfg.with_tve(level));
                match (strat.estimate(&coeffs), out) {
                    (Ok(est), Ok(out)) => {
                        let (lo, hi) = est.cr_predicted;
                        let actual = out.stats.cr_total;
                        let hit = actual >= lo && actual <= hi;
                        let e = hits.entry(s).or_insert((0, 0));
                        e.0 += usize::from(hit);
                        e.1 += 1;
                        rows.push(vec![
                            ds.name.clone(),
                            s.to_string(),
                            format!("{}nines", level.nines()),
                            est.k_estimate.to_string(),
                            out.stats.k.to_string(),
                            fmt(lo),
                            fmt(hi),
                            fmt(actual),
                            hit.to_string(),
                        ]);
                    }
                    (Err(e), _) | (_, Err(e)) => {
                        eprintln!("{} S={s} {}: {e}", ds.name, level.nines())
                    }
                }
            }
        }
    }
    println!("Sampling-strategy CR prediction accuracy (Section V-C6)\n");
    println!("{}", format_table(&header, &rows));
    for s in [5usize, 10] {
        if let Some((hit, total)) = hits.get(&s) {
            println!(
                "S={s}: {hit}/{total} predictions in range ({:.1}%)  [paper: {}]",
                100.0 * *hit as f64 / *total as f64,
                if s == 10 { "76.6%" } else { "63.3%" }
            );
        }
    }
    let path = write_csv(&args.out_dir, "table5_sampling_accuracy", &header, &rows).expect("csv");
    println!("csv: {}", path.display());
}
