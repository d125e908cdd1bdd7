//! Output pins for the four transform-combination pipelines (Figure 4).
//!
//! The PCA-bearing combos fit densely, and `Matrix::gram` reduces one
//! partial sum per pool worker, so their outputs change with the pool
//! width. This file is its own test binary so it can pin the pool at one
//! worker before the pool exists; at one worker the outputs are stable
//! across runs and kernel backends.

use dpz_core::combos::{lossy_roundtrip, TransformCombo};

/// FNV-1a, 64-bit, over the little-endian bytes of the values.
fn fnv1a_f32(values: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The combos module's unit-test field: 48×96, smooth, flattened.
fn field() -> Vec<f32> {
    let (rows, cols) = (48, 96);
    (0..rows * cols)
        .map(|i| {
            let r = (i / cols) as f32;
            let c = (i % cols) as f32;
            (0.07 * r).sin() * 12.0 + (0.05 * c).cos() * 8.0
        })
        .collect()
}

#[test]
fn combo_outputs_are_pinned_at_one_thread() {
    // Pin the pool before first use: the dense PCA fits reduce one Gram
    // partial per worker.
    std::env::set_var("DPZ_THREADS", "1");
    let data = field();
    let expected = [
        (TransformCombo::DctOnly, 0xe9b4_44d9_b916_96c4u64),
        (TransformCombo::PcaOnly, 0x1351_ed54_f746_66bf),
        (TransformCombo::DctOnPca, 0x960a_b44d_1663_7c92),
        (TransformCombo::PcaOnDct, 0x1e60_c151_5ffc_a354),
    ];
    let mut failures = Vec::new();
    for (combo, pinned) in expected {
        let h = fnv1a_f32(&lossy_roundtrip(&data, combo, 0.2).unwrap());
        if h != pinned {
            failures.push(format!(
                "{}: got {h:#018x}, pinned {pinned:#018x}",
                combo.label()
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
