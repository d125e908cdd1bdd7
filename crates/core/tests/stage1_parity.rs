//! The fused stage 1 (`dct_blocks_from_raw`, which `decompose::stage1` runs
//! for the DCT) matches the unfused reference — `to_blocks`, range
//! normalization, `dct_blocks` — bit for bit. Every sample-based predictor
//! (the ratio oracle, `AutoCodec`'s DPZ estimate) runs the pipeline's own
//! stage 1 on that equality: its coefficients are the ones the reference
//! chain produced.

use dpz_core::decompose::{
    choose_shape, dct_blocks, dct_blocks_from_raw, dwt_blocks, effective_dwt_levels, stage1,
    to_blocks,
};
use dpz_core::Stage1Transform;
use dpz_data::{Dataset, DatasetKind, Scale};
use dpz_linalg::Matrix;

/// `to_blocks` + normalize: the unfused block matrix, and the `(min,
/// range)` normalization with the pipeline's range floor of 1.
fn normalized_blocks(data: &[f32]) -> (Matrix, (f64, f64)) {
    let (lo, hi) = data
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(f64::from(v)), hi.max(f64::from(v)))
        });
    let range = if hi - lo > 0.0 { hi - lo } else { 1.0 };
    let mut blocks = to_blocks(data, choose_shape(data.len()));
    for v in blocks.as_mut_slice() {
        *v = (*v - lo) / range - 0.5;
    }
    (blocks, (lo, range))
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn fused_dct_equals_unfused_reference_bitwise() {
    let mut cases = 0;
    let mut padded = 0;
    for kind in DatasetKind::ALL {
        for scale in [Scale::Tiny, Scale::Small] {
            for seed in [1, 7, 2021] {
                let ds = Dataset::generate(kind, scale, seed);
                let len = ds.data.len();
                // The whole field, and prefixes whose lengths have no
                // square-ratio factorization, so the tail is padded.
                for n in [len, len - 1, len / 2 + 1, 4099] {
                    let data = &ds.data[..n.min(len)];
                    let shape = choose_shape(data.len());
                    padded += usize::from(shape.pad > 0);
                    let (blocks, (lo, range)) = normalized_blocks(data);
                    let reference = bits(&dct_blocks(&blocks));
                    let (fused, _) = dct_blocks_from_raw(data, shape, lo, range, Vec::new());
                    assert_eq!(
                        bits(&fused),
                        reference,
                        "{kind:?} {scale:?} seed {seed} n {n}"
                    );
                    let (staged, norm) = stage1(data, shape, Stage1Transform::Dct);
                    assert_eq!(norm, (lo, range));
                    assert_eq!(
                        bits(&staged),
                        reference,
                        "{kind:?} {scale:?} seed {seed} n {n}"
                    );
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 9 * 2 * 3 * 4);
    assert!(padded >= cases / 4, "only {padded} of {cases} cases pad");
}

#[test]
fn dwt_stage1_equals_unfused_reference_bitwise() {
    for kind in DatasetKind::ALL {
        let ds = Dataset::generate(kind, Scale::Tiny, 7);
        for n in [ds.data.len(), ds.data.len() - 1] {
            let data = &ds.data[..n];
            let shape = choose_shape(data.len());
            let (blocks, norm) = normalized_blocks(data);
            let reference = dwt_blocks(&blocks, effective_dwt_levels(shape.n, 5));
            let (staged, staged_norm) = stage1(data, shape, Stage1Transform::Dwt { levels: 5 });
            assert_eq!(staged_norm, norm);
            assert_eq!(bits(&staged), bits(&reference), "{kind:?} n {n}");
        }
    }
}
