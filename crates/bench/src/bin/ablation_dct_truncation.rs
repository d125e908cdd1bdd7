//! Ablation (the paper's stated future work, Section VII): truncating DCT
//! coefficients *before* PCA. Keeping only the first `T·N` coefficient rows
//! shrinks the PCA sample set (faster stage 2) and the score matrix (higher
//! ratio) at the cost of discarding the high-frequency tail outright.
//! This harness sweeps the truncation fraction and reports the tradeoff.

use dpz_bench::harness::{fmt, format_table, write_csv, Args};
use dpz_core::decompose::{choose_shape, dct_blocks, from_blocks, idct_blocks, to_blocks};
use dpz_core::quantize::{dequantize_scores, quantize_scores};
use dpz_core::{DpzConfig, TveLevel};
use dpz_data::metrics::psnr;
use dpz_data::{Dataset, DatasetKind};
use dpz_deflate::{compress_with_level, CompressionLevel};
use dpz_linalg::{Matrix, Pca, PcaOptions};
use std::time::Instant;

const FRACTIONS: [f64; 5] = [1.0, 0.5, 0.25, 0.125, 0.0625];

fn main() {
    let args = Args::parse();
    let ds = Dataset::generate(DatasetKind::Fldsc, args.scale, args.seed);
    let shape = choose_shape(ds.len());

    // Stage 1 (shared): normalize + decompose + DCT.
    let (lo, hi) = ds
        .data
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(f64::from(v)), hi.max(f64::from(v)))
        });
    let range = if hi > lo { hi - lo } else { 1.0 };
    let mut blocks = to_blocks(&ds.data, shape);
    for v in blocks.as_mut_slice() {
        *v = (*v - lo) / range - 0.5;
    }
    let coeffs = dct_blocks(&blocks);
    let (n, m) = coeffs.shape();
    let strict = DpzConfig::strict().resolved_scheme().expect("static bound");

    let header = [
        "truncation",
        "rows_kept",
        "k",
        "pca_ms",
        "est_cr",
        "psnr_db",
    ];
    let mut rows = Vec::new();
    for frac in FRACTIONS {
        let keep_rows = ((n as f64 * frac).round() as usize).clamp(2, n);
        // Leading coefficient rows only.
        let mut head = Matrix::zeros(keep_rows, m);
        for r in 0..keep_rows {
            head.row_mut(r).copy_from_slice(coeffs.row(r));
        }

        let t = Instant::now();
        let pca = Pca::fit(&head, PcaOptions::default()).expect("pca");
        let k = pca.k_for_tve(TveLevel::FiveNines.fraction());
        let scores = pca.transform(&head, k).expect("transform");
        let pca_ms = t.elapsed().as_secs_f64() * 1e3;

        let quantized = quantize_scores(scores.as_slice(), strict);
        // Estimated compressed size: deflated indices + outliers + model.
        let packed_idx = compress_with_level(&quantized.indices, CompressionLevel::Default).len();
        let outlier_bytes: Vec<u8> = quantized
            .outliers
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let packed_out = compress_with_level(&outlier_bytes, CompressionLevel::Default).len();
        let model_bytes: Vec<u8> = pca
            .projection(k)
            .as_slice()
            .iter()
            .chain(pca.mean())
            .flat_map(|&v| (v as f32).to_le_bytes())
            .collect();
        let packed_model = compress_with_level(&model_bytes, CompressionLevel::Default).len();
        let est_cr = ds.nbytes() as f64 / (packed_idx + packed_out + packed_model).max(1) as f64;

        // Reconstruct: inverse PCA on the head, zero tail, inverse DCT.
        let score_mat =
            Matrix::from_vec(keep_rows, k, dequantize_scores(&quantized)).expect("scores");
        let head_recon = pca.inverse_transform(&score_mat).expect("inverse");
        let mut full = Matrix::zeros(n, m);
        for r in 0..keep_rows {
            full.row_mut(r).copy_from_slice(head_recon.row(r));
        }
        let mut recon_blocks = idct_blocks(&full);
        for v in recon_blocks.as_mut_slice() {
            *v = (*v + 0.5) * range + lo;
        }
        let recon = from_blocks(&recon_blocks, shape, ds.len());

        rows.push(vec![
            format!("{frac:.4}"),
            keep_rows.to_string(),
            k.to_string(),
            fmt(pca_ms),
            fmt(est_cr),
            fmt(psnr(&ds.data, &recon)),
        ]);
    }
    println!(
        "Ablation — DCT-coefficient truncation before PCA on FLDSC (DPZ-s core, five-nine TVE)\n"
    );
    println!("{}", format_table(&header, &rows));
    let path = write_csv(&args.out_dir, "ablation_dct_truncation", &header, &rows).expect("csv");
    println!("csv: {}", path.display());
}
