//! Property tests for the quality-target control plane: fixed-PSNR and
//! fixed-ratio modes either honor their contract or fail with the typed
//! [`DpzError::TargetUnreachable`], legacy `ErrorBound` targets stay
//! byte-identical to the golden pins, and every ratio search stays inside
//! its oracle-probe budget.

use dpz::prelude::*;
use dpz_core::container::{self, ContainerData};
use dpz_core::{
    bound_for_psnr, compress_chunked, compress_progressive, ratio_within, SeekableIndex,
    MAX_ORACLE_PROBES, PSNR_SLACK_DB, WIDE_INDEX_AUTO_THRESHOLD,
};
use dpz_data::metrics;
use proptest::prelude::*;

/// Strategy: a smooth 2-D "scientific-ish" field — sinusoid mixture plus
/// bounded noise — sized to exercise the real sampling/PCA path.
fn field_strategy() -> impl Strategy<Value = (Vec<f32>, Vec<usize>)> {
    (
        24usize..56,
        48usize..96,
        proptest::collection::vec((0.001f64..0.3, 0.001f64..0.3, -10.0f64..10.0), 1..5),
        0.0f64..0.15,
        any::<u64>(),
    )
        .prop_map(|(rows, cols, waves, noise_amp, seed)| {
            let mut s = seed | 1;
            let data = (0..rows * cols)
                .map(|i| {
                    let (r, c) = ((i / cols) as f64, (i % cols) as f64);
                    let mut v = 0.0;
                    for &(fr, fc, amp) in &waves {
                        v += amp * (fr * r).sin() * (fc * c).cos();
                    }
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    let noise = (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    (v + noise_amp * noise) as f32
                })
                .collect();
            (data, vec![rows, cols])
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Fixed-PSNR mode: a successful compression reconstructs at no more
    // than `PSNR_SLACK_DB` below the requested quality; anything else must
    // be the typed unreachable error, never a silent miss.
    #[test]
    fn fixed_psnr_meets_request_or_fails_typed(
        case in field_strategy(),
        db in 40.0f64..65.0,
    ) {
        let (data, dims) = case;
        let cfg = DpzConfig::loose().with_target(QualityTarget::Psnr(db));
        match dpz::core::compress(&data, &dims, &cfg) {
            Ok(out) => {
                let (recon, _) = dpz::core::decompress(&out.bytes).unwrap();
                let measured = metrics::psnr(&data, &recon);
                prop_assert!(
                    measured >= db - PSNR_SLACK_DB - 1e-6,
                    "requested {db:.1} dB, measured {measured:.2} dB"
                );
            }
            Err(DpzError::TargetUnreachable { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    // Fixed-ratio mode: a successful compression lands inside the
    // tolerance band around the requested ratio; a miss is the typed
    // unreachable error carrying the best achievable ratio. `fixed_k = 0`
    // keeps the default TVE selection; otherwise `KSelection::Fixed` sends
    // both the ratio oracle and stage 2 through the rank-bounded fit.
    #[test]
    fn fixed_ratio_lands_in_band_or_fails_typed(
        case in field_strategy(),
        target in 2.0f64..10.0,
        tol in 0.1f64..0.3,
        fixed_k in 0usize..8,
    ) {
        let (data, dims) = case;
        let mut cfg = DpzConfig::loose().with_target(QualityTarget::Ratio { target, tol });
        if fixed_k > 0 {
            cfg = cfg.with_selection(KSelection::Fixed(fixed_k));
        }
        match dpz::core::compress(&data, &dims, &cfg) {
            Ok(out) => {
                let cr = (data.len() * 4) as f64 / out.bytes.len() as f64;
                prop_assert!(
                    ratio_within(cr, target, tol),
                    "requested {target:.2}x ±{tol:.0e}, landed {cr:.2}x"
                );
                // The artifact must still round-trip like any other.
                let (recon, got_dims) = dpz::core::decompress(&out.bytes).unwrap();
                prop_assert_eq!(got_dims, dims);
                prop_assert_eq!(recon.len(), data.len());
            }
            Err(DpzError::TargetUnreachable { requested, achievable }) => {
                prop_assert!((requested - target).abs() < 1e-9);
                prop_assert!(achievable.is_finite() && achievable > 0.0);
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

/// FNV-1a, 64-bit — same digest the golden-artifact suite pins.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `QualityTarget::ErrorBound` is the legacy mode verbatim: routing the
/// bound through `with_target` must reproduce the pinned golden artifact
/// byte for byte.
#[test]
fn error_bound_target_is_byte_identical_to_golden_pin() {
    let field: Vec<f32> = (0..64 * 96)
        .map(|i| {
            let r = (i / 96) as f32;
            let c = (i % 96) as f32;
            (0.04 * r).sin() * 40.0 + (0.03 * c).cos() * 25.0 + 100.0
        })
        .collect();
    let legacy = dpz::core::compress(&field, &[64, 96], &DpzConfig::loose()).unwrap();
    let targeted = dpz::core::compress(
        &field,
        &[64, 96],
        &DpzConfig::loose().with_target(QualityTarget::ErrorBound(1e-3)),
    )
    .unwrap();
    assert_eq!(legacy.bytes, targeted.bytes);
    assert_eq!(
        fnv1a(&targeted.bytes),
        0x5b22_3216_eee0_5ee4,
        "ErrorBound(1e-3) must keep the dpz1-loose-64x96 golden pin"
    );
}

/// Every ratio search stays within the oracle budget: the telemetry
/// recorded per search averages at most [`MAX_ORACLE_PROBES`] calls (each
/// individual search is bounded, so the average is too, regardless of how
/// many searches other tests in this binary interleave).
#[test]
fn ratio_search_stays_inside_oracle_budget() {
    let field: Vec<f32> = (0..48 * 64)
        .map(|i| {
            let r = (i / 64) as f32;
            let c = (i % 64) as f32;
            (0.05 * r).sin() * 30.0 + (0.07 * c).cos() * 20.0
        })
        .collect();
    let reg = dpz_telemetry::global();
    let calls = reg.counter("dpz_target_oracle_calls_total");
    let searches = reg.histogram(
        "dpz_target_search_iters",
        &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0],
    );
    let (calls0, searches0) = (calls.get(), searches.count());

    let cfg = DpzConfig::loose().with_target(QualityTarget::Ratio {
        target: 4.0,
        tol: 0.25,
    });
    // Outcome (hit or typed miss) is covered by the property above; here
    // only the probe accounting matters.
    let _ = dpz::core::compress(&field, &[48, 64], &cfg);

    let new_searches = searches.count() - searches0;
    let new_calls = calls.get() - calls0;
    assert!(new_searches >= 1, "search must record telemetry");
    assert!(
        new_calls as f64 / new_searches as f64 <= f64::from(MAX_ORACLE_PROBES),
        "{new_calls} oracle calls over {new_searches} searches exceeds budget"
    );
}

/// `(P, wide_index)` of every DPZ1 or DPZP stream header in an artifact,
/// DPZC containers included (one per chunk).
fn stream_headers(bytes: &[u8]) -> Vec<(f64, bool)> {
    let header = |c: ContainerData| vec![(c.p, c.scores.wide_index)];
    match &bytes[..4] {
        b"DPZC" => {
            let index = SeekableIndex::from_bytes(bytes).unwrap();
            index
                .chunks
                .iter()
                .flat_map(|e| stream_headers(&bytes[e.offset..e.offset + e.len]))
                .collect()
        }
        b"DPZP" => header(container::deserialize_progressive(bytes, None).unwrap().0),
        _ => header(container::deserialize(bytes).unwrap()),
    }
}

/// The index width follows the bound on every writer: whatever a target
/// resolves to — a static bound, a PSNR bound (with the retry that divides
/// it by 4), a ratio search — each stream header has 2-byte indices exactly
/// when its `P` is below `WIDE_INDEX_AUTO_THRESHOLD`.
#[test]
fn index_width_follows_the_bound_on_every_writer() {
    let smooth: Vec<f32> = (0..64 * 96)
        .map(|i| {
            let r = (i / 96) as f32;
            let c = (i % 96) as f32;
            (0.04 * r).sin() * 40.0 + (0.03 * c).cos() * 25.0 + 100.0
        })
        .collect();
    let phis = Dataset::generate(DatasetKind::Phis, Scale::Tiny, 2021);
    let fields = [(&smooth[..], &[64, 96][..]), (&phis.data, &phis.dims)];
    let mut targets: Vec<QualityTarget> = [2e-3, 1e-3, 9.99e-4, 1e-4]
        .map(QualityTarget::ErrorBound)
        .to_vec();
    targets.extend([
        QualityTarget::RelBound(5e-4),
        QualityTarget::Psnr(40.0),
        QualityTarget::Psnr(60.0),
        QualityTarget::Psnr(70.0),
    ]);
    targets.extend(
        [3.0, 6.0, 12.0, 24.0, 48.0].map(|target| QualityTarget::Ratio { target, tol: 0.2 }),
    );

    let mut ratio_sides = [false; 2];
    for (data, dims) in fields {
        for target in &targets {
            let cfg = DpzConfig::loose().with_target(*target);
            let artifacts = [
                dpz::core::compress(data, dims, &cfg).map(|o| o.bytes),
                compress_chunked(data, dims, &cfg, 3).map(|o| o.bytes),
                compress_progressive(data, dims, &cfg, 3).map(|o| o.bytes),
            ];
            for bytes in artifacts {
                // A ratio outside the field's reach is refused typed.
                let bytes = match bytes {
                    Err(DpzError::TargetUnreachable { .. }) => continue,
                    other => other.unwrap(),
                };
                for (p, wide) in stream_headers(&bytes) {
                    assert_eq!(wide, p < WIDE_INDEX_AUTO_THRESHOLD, "{target:?}: P = {p:e}");
                    if matches!(target, QualityTarget::Ratio { .. }) {
                        ratio_sides[usize::from(wide)] = true;
                    }
                }
            }
        }
    }
    assert_eq!(
        ratio_sides, [true; 2],
        "ratio targets resolved on one side only"
    );

    // PHIS misses 60 dB at the closed-form bound, which is narrow; the
    // retry at a quarter of it is wide, and that is the artifact returned.
    let p0 = bound_for_psnr(60.0, 1.0);
    assert!(p0 >= WIDE_INDEX_AUTO_THRESHOLD && p0 / 4.0 < WIDE_INDEX_AUTO_THRESHOLD);
    let cfg = DpzConfig::loose().with_target(QualityTarget::Psnr(60.0));
    let out = dpz::core::compress(&phis.data, &phis.dims, &cfg).unwrap();
    assert_eq!(stream_headers(&out.bytes), [(p0 / 4.0, true)]);
}
