//! Ablation: block-count sweep. Section IV-A claims that, under the
//! constraint `M < N`, larger `M` (more blocks = more PCA features) yields
//! higher compression ratios — which is why DPZ picks the smallest ratio
//! `N/M > 1`. This harness forces several block shapes for the same data
//! and reports the resulting CR and PSNR.

use dpz_bench::harness::{fmt, format_table, write_csv, Args};
use dpz_core::container::{serialize, ContainerData};
use dpz_core::decompose::{dct_blocks, from_blocks, idct_blocks, to_blocks, BlockShape};
use dpz_core::quantize::{dequantize_scores, quantize_scores};
use dpz_core::{DpzConfig, TveLevel};
use dpz_data::metrics::psnr;
use dpz_data::{Dataset, DatasetKind};
use dpz_linalg::{Matrix, Pca, PcaOptions};

/// Compress with a forced block shape; returns (CR, PSNR, k).
fn run_with_shape(data: &[f32], dims: &[usize], shape: BlockShape) -> (f64, f64, usize) {
    // Range-normalize like the real pipeline so the quantizer sees the same
    // score scale regardless of the field's physical units.
    let (lo, hi) = data
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(f64::from(v)), hi.max(f64::from(v)))
        });
    let range = if hi > lo { hi - lo } else { 1.0 };
    let mut blocks = to_blocks(data, shape);
    for v in blocks.as_mut_slice() {
        *v = (*v - lo) / range - 0.5;
    }
    let coeffs = dct_blocks(&blocks);
    let pca = Pca::fit(&coeffs, PcaOptions::default()).expect("pca");
    let k = pca.k_for_tve(TveLevel::FiveNines.fraction());
    let scores = pca.transform(&coeffs, k).expect("transform");
    let strict = DpzConfig::strict().resolved_scheme().expect("static bound");
    let quantized = quantize_scores(scores.as_slice(), strict);
    let payload = ContainerData {
        dims: dims.to_vec(),
        orig_len: data.len(),
        m: shape.m,
        n: shape.n,
        pad: shape.pad,
        norm_min: lo,
        norm_range: range,
        k,
        transform_tag: 0,
        dwt_levels: 0,
        p: quantized.p,
        standardized: false,
        basis: pca
            .projection(k)
            .as_slice()
            .iter()
            .map(|&v| v as f32)
            .collect(),
        mean: pca.mean().iter().map(|&v| v as f32).collect(),
        scale: vec![],
        scores: quantized,
    };
    let (bytes, _) = serialize(&payload);

    // Reconstruct for PSNR.
    let score_mat =
        Matrix::from_vec(shape.n, k, dequantize_scores(&payload.scores)).expect("scores");
    let recon_coeffs = pca.inverse_transform(&score_mat).expect("inverse");
    let mut recon_blocks = idct_blocks(&recon_coeffs);
    for v in recon_blocks.as_mut_slice() {
        *v = (*v + 0.5) * range + lo;
    }
    let recon = from_blocks(&recon_blocks, shape, data.len());
    let cr = (data.len() * 4) as f64 / bytes.len() as f64;
    (cr, psnr(data, &recon), k)
}

fn main() {
    let args = Args::parse();
    let ds = Dataset::generate(DatasetKind::Fldsc, args.scale, args.seed);
    let len = ds.len();

    // Candidate shapes: exact divisors of the length only, so every block
    // stays aligned to the field's rows — padding-induced misalignment
    // destroys inter-block correlation and would confound the sweep.
    let mut shapes = Vec::new();
    let mut m = 2usize;
    while m * m * 2 <= len {
        if len.is_multiple_of(m) {
            let n = len / m;
            shapes.push(BlockShape { m, n, pad: 0 });
        }
        m += 1;
    }
    // Keep a handful spread across the ratio range, ending at the
    // pipeline's own choice (largest M).
    if shapes.len() > 7 {
        let step = shapes.len() / 7;
        let mut kept: Vec<BlockShape> = shapes.iter().copied().step_by(step.max(1)).collect();
        let last = *shapes.last().unwrap();
        if kept.last() != Some(&last) {
            kept.push(last);
        }
        shapes = kept;
    }

    let header = ["M", "N", "ratio_N/M", "k", "cr", "psnr_db"];
    let mut rows = Vec::new();
    for shape in shapes {
        let (cr, quality, k) = run_with_shape(&ds.data, &ds.dims, shape);
        rows.push(vec![
            shape.m.to_string(),
            shape.n.to_string(),
            format!("{:.1}", shape.n as f64 / shape.m as f64),
            k.to_string(),
            fmt(cr),
            fmt(quality),
        ]);
    }
    println!(
        "Ablation — block-count sweep on FLDSC (DPZ-s core, five-nine TVE; paper: larger M ⇒ higher CR)\n"
    );
    println!("{}", format_table(&header, &rows));
    let path = write_csv(&args.out_dir, "ablation_block_shape", &header, &rows).expect("csv");
    println!("csv: {}", path.display());
}
