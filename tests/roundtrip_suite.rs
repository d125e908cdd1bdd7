//! Integration: DPZ end-to-end over the whole nine-dataset evaluation suite.

use dpz::prelude::*;
use dpz_core::{compress, decompress};

#[test]
fn every_dataset_round_trips_with_reasonable_quality() {
    for ds in standard_suite(Scale::Tiny) {
        let cfg = DpzConfig::strict().with_tve(TveLevel::SixNines);
        let out = compress(&ds.data, &ds.dims, &cfg).unwrap_or_else(|e| panic!("{}: {e}", ds.name));
        let (recon, dims) = decompress(&out.bytes).unwrap();
        assert_eq!(dims, ds.dims, "{}", ds.name);
        assert_eq!(recon.len(), ds.len(), "{}", ds.name);
        let report = QualityReport::evaluate(&ds.data, &recon, out.bytes.len());
        assert!(
            report.psnr > 30.0,
            "{}: PSNR {:.1} dB too low at six-nine TVE",
            ds.name,
            report.psnr
        );
        assert!(
            report.mean_rel_error < 0.02,
            "{}: θ {}",
            ds.name,
            report.mean_rel_error
        );
    }
}

#[test]
fn compression_is_deterministic() {
    let ds = Dataset::generate(DatasetKind::Cldhgh, Scale::Tiny, 42);
    let cfg = DpzConfig::loose();
    let a = compress(&ds.data, &ds.dims, &cfg).unwrap();
    let b = compress(&ds.data, &ds.dims, &cfg).unwrap();
    assert_eq!(
        a.bytes, b.bytes,
        "same input + config must give identical streams"
    );
}

#[test]
fn loose_vs_strict_tradeoff_holds_suite_wide() {
    // DPZ-s must never be (meaningfully) worse in PSNR than DPZ-l at the
    // same TVE; DPZ-l usually wins on ratio for the compressible fields.
    for ds in standard_suite(Scale::Tiny) {
        let tve = TveLevel::FiveNines;
        let l = compress(&ds.data, &ds.dims, &DpzConfig::loose().with_tve(tve)).unwrap();
        let s = compress(&ds.data, &ds.dims, &DpzConfig::strict().with_tve(tve)).unwrap();
        let (rl, _) = decompress(&l.bytes).unwrap();
        let (rs, _) = decompress(&s.bytes).unwrap();
        let pl = QualityReport::evaluate(&ds.data, &rl, l.bytes.len()).psnr;
        let ps = QualityReport::evaluate(&ds.data, &rs, s.bytes.len()).psnr;
        assert!(
            ps >= pl - 0.5,
            "{}: strict {ps:.1} dB vs loose {pl:.1} dB",
            ds.name
        );
    }
}

#[test]
fn tve_dial_monotone_on_smooth_fields() {
    let ds = Dataset::generate(DatasetKind::Fldsc, Scale::Tiny, 2021);
    let mut last_psnr = 0.0;
    for level in [
        TveLevel::ThreeNines,
        TveLevel::FiveNines,
        TveLevel::SevenNines,
    ] {
        let out = compress(&ds.data, &ds.dims, &DpzConfig::strict().with_tve(level)).unwrap();
        let (recon, _) = decompress(&out.bytes).unwrap();
        let psnr = QualityReport::evaluate(&ds.data, &recon, out.bytes.len()).psnr;
        assert!(
            psnr >= last_psnr - 0.75,
            "PSNR fell from {last_psnr:.1} to {psnr:.1} when tightening TVE"
        );
        last_psnr = psnr;
    }
}

#[test]
fn sampling_agrees_with_plain_path_on_quality() {
    // The sample only reports: the TVE certificate still decides k. So the
    // sampled artifact meets the configured TVE, and unless the estimate's
    // VIF asks for standardization it is the plain artifact, byte for byte.
    let tve = TveLevel::FiveNines;
    for ds in standard_suite(Scale::Small) {
        for (scheme, base) in [
            ("loose", DpzConfig::loose()),
            ("strict", DpzConfig::strict()),
        ] {
            let cfg = base.with_tve(tve);
            let plain = compress(&ds.data, &ds.dims, &cfg).unwrap();
            let sampled = compress(&ds.data, &ds.dims, &cfg.with_sampling(true)).unwrap();
            let est = sampled.stats.sampling.as_ref().expect("sampling ran");
            assert!(
                sampled.stats.tve_achieved >= tve.fraction(),
                "{} {scheme}: sampled TVE {} below {} (k = {}, k_e = {})",
                ds.name,
                sampled.stats.tve_achieved,
                tve.fraction(),
                sampled.stats.k,
                est.k_estimate
            );
            if !est.low_linearity {
                assert!(
                    sampled.bytes == plain.bytes,
                    "{} {scheme}: sampled artifact differs from the plain one (k {} vs {})",
                    ds.name,
                    sampled.stats.k,
                    plain.stats.k
                );
            }
        }
    }
}
