//! The probe's resolution contract: compressing an input at its probe's
//! `resolved` target writes exactly the bytes that compressing it at the
//! request writes, at every input size.

use dpz_codec::{Codec, DpzError, QualityTarget, Registry, SzCodec, PROBE_CAP};
use dpz_data::{Dataset, DatasetKind, Scale};
use dpz_sz::SzConfig;

const RATIO20: QualityTarget = QualityTarget::Ratio {
    target: 20.0,
    tol: 0.1,
};

fn compress(
    codec: &dyn Codec,
    src: &[f32],
    dims: &[usize],
    target: &QualityTarget,
) -> Result<Vec<u8>, DpzError> {
    let mut bytes = Vec::new();
    codec.compress_with_target(src, dims, target, &mut bytes)?;
    Ok(bytes)
}

/// `2 · PROBE_CAP` values of a noisy wave that grows ten times taller
/// after the prefix, so the whole input's value range is about ten times
/// the prefix's.
fn widening_field() -> Vec<f32> {
    (0..2 * PROBE_CAP)
        .map(|i| {
            let amp = if i < PROBE_CAP { 1.0 } else { 10.0 };
            let noise = ((i * 7919) % 1009) as f32 / 1009.0 - 0.5;
            amp * ((i as f32 * 0.013).sin() + 0.02 * noise)
        })
        .collect()
}

#[test]
fn sz_probe_resolves_beyond_the_prefix() {
    let src = widening_field();
    let dims = [src.len()];
    let sz = SzCodec::default();
    let probe = sz.probe(&src, &dims, &RATIO20).expect("probe");
    let QualityTarget::ErrorBound(eb) = probe.resolved else {
        panic!("SZ resolved a ratio to {:?}", probe.resolved);
    };
    assert_eq!(
        compress(&sz, &src, &dims, &probe.resolved),
        compress(&sz, &src, &dims, &RATIO20),
        "the probe resolved a bound the ratio request does not compress at"
    );
    // The prediction measures the prefix's 1-D view at that same bound.
    let mut sink = Vec::new();
    let at_eb = SzCodec::new(SzConfig {
        error_bound: eb,
        ..sz.cfg
    })
    .compress_into(&src[..PROBE_CAP], &[PROBE_CAP], &mut sink)
    .expect("prefix at eb");
    assert_eq!(probe.prefix_values, PROBE_CAP);
    assert_eq!(probe.predicted_cr, at_eb.ratio());
}

#[test]
fn every_builtin_codec_compresses_identically_at_its_resolved_target() {
    let targets = [
        QualityTarget::Psnr(60.0),
        RATIO20,
        QualityTarget::RelBound(1e-3),
    ];
    let registry = Registry::builtin();
    for kind in [DatasetKind::Cldhgh, DatasetKind::HaccX] {
        let ds = Dataset::generate(kind, Scale::Tiny, 1);
        for codec in registry.iter() {
            for target in &targets {
                let case = format!("{} {} {target:?}", kind.name(), codec.name());
                let Ok(probe) = codec.probe(&ds.data, &ds.dims, target) else {
                    continue;
                };
                assert_eq!(probe.codec, codec.name(), "{case}");
                assert_eq!(
                    compress(codec, &ds.data, &ds.dims, &probe.resolved),
                    compress(codec, &ds.data, &ds.dims, target),
                    "{case}: resolved {:?}",
                    probe.resolved
                );
            }
        }
    }
}
