//! `AutoCodec`'s quality-target path: artifacts toward a PSNR and a ratio
//! target are pinned, and every artifact is exactly what the probed winner
//! writes on its own toward the same target.

use dpz_codec::{AutoCodec, Codec, DpzCodec, QualityTarget};
use dpz_data::{Dataset, DatasetKind, Scale};

const PSNR60: QualityTarget = QualityTarget::Psnr(60.0);
const RATIO20: QualityTarget = QualityTarget::Ratio {
    target: 20.0,
    tol: 0.1,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The smooth field of the workspace's `golden_artifacts` pins.
fn smooth_field(rows: usize, cols: usize) -> Vec<f32> {
    (0..rows * cols)
        .map(|i| {
            let r = (i / cols) as f32;
            let c = (i % cols) as f32;
            (0.04 * r).sin() * 40.0 + (0.03 * c).cos() * 25.0 + 100.0
        })
        .collect()
}

/// (case, input, dims, target, selected codec, artifact FNV-1a or the
/// refusal's message).
type Pin<'a> = (
    &'a str,
    &'a [f32],
    &'a [usize],
    QualityTarget,
    &'a str,
    &'a str,
);

#[test]
fn target_artifacts_are_pinned() {
    let auto = AutoCodec::new();
    let smooth = smooth_field(64, 96);
    let cldhgh = Dataset::generate(DatasetKind::Cldhgh, Scale::Small, 1);
    let cases: [Pin; 4] = [
        (
            "smooth-64x96 psnr60",
            &smooth,
            &[64, 96],
            PSNR60,
            "dpz",
            "0xfcdb074330b4efc8",
        ),
        (
            "smooth-64x96 ratio20",
            &smooth,
            &[64, 96],
            RATIO20,
            "dpz",
            "quality target unreachable: requested 20.000, best achievable ≈ 24.047",
        ),
        (
            "CLDHGH-small-s1 psnr60",
            &cldhgh.data,
            &cldhgh.dims,
            PSNR60,
            "sz",
            "0xcfb818eb48b93c15",
        ),
        (
            "CLDHGH-small-s1 ratio20",
            &cldhgh.data,
            &cldhgh.dims,
            RATIO20,
            "sz",
            "0x35daed674f45b2fb",
        ),
    ];
    let mut drift = Vec::new();
    for (case, src, dims, target, codec, pin) in cases {
        let mut bytes = Vec::new();
        let (got_codec, got) = match auto.compress_with_target(src, dims, &target, &mut bytes) {
            Ok(stats) => (stats.codec, format!("{:#018x}", fnv1a(&bytes))),
            // A refusal names no codec; the probe says which one refused.
            Err(e) => {
                let winner = auto.probe(src, dims, &target).expect("probe");
                (winner.codec, e.to_string())
            }
        };
        if (got_codec, got.as_str()) != (codec, pin) {
            drift.push(format!("{case}: {got_codec} {got} (pinned {codec} {pin})"));
        }
    }
    assert!(
        drift.is_empty(),
        "AutoCodec target outcomes moved:\n{}",
        drift.join("\n")
    );
}

#[test]
fn artifact_is_what_the_probed_winner_writes() {
    let auto = AutoCodec::new();
    let dpz = DpzCodec::default();
    for kind in DatasetKind::ALL {
        let ds = Dataset::generate(kind, Scale::Tiny, 1);
        for target in [PSNR60, RATIO20] {
            let case = format!("{} {target:?}", kind.name());
            let mut via_auto = Vec::new();
            let auto_res = auto
                .compress_with_target(&ds.data, &ds.dims, &target, &mut via_auto)
                .map(|s| s.codec);
            let winner = auto
                .probe(&ds.data, &ds.dims, &target)
                .unwrap_or_else(|e| panic!("{case}: probe failed: {e}"));
            let codec: &dyn Codec = match winner.codec {
                "sz" => &auto.sz,
                "zfp" => &auto.zfp,
                "dpz" => &dpz,
                other => panic!("{case}: unexpected winner {other}"),
            };
            let mut direct = Vec::new();
            let direct_res = codec
                .compress_with_target(&ds.data, &ds.dims, &target, &mut direct)
                .map(|s| s.codec);
            assert_eq!(auto_res, direct_res, "{case}: outcome differs");
            assert!(via_auto == direct, "{case}: artifact differs");
        }
    }
}
