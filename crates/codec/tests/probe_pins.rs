//! Byte pins for the kernels behind `AutoCodec`'s probes: SZ artifacts
//! under both predictors, ZFP artifacts and their decodes in every mode,
//! and the `probe_all` table itself. A faster Huffman builder, SZ pass or
//! ZFP decoder must leave every one of these unchanged.

use dpz_codec::{AutoCodec, CodecProbe, QualityTarget};
use dpz_core::decompose::value_extent;
use dpz_data::{Dataset, DatasetKind, Scale};
use dpz_sz::{Predictor, SzConfig};
use dpz_zfp::ZfpMode;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv_values(values: &[f32]) -> u64 {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    fnv1a(&bytes)
}

fn hex(h: u64) -> String {
    format!("{h:#018x}")
}

/// One Tiny field per dimensionality: HACC-vx (1-D, 8192), CLDHGH (2-D,
/// 45x90) and Isotropic (3-D, 16^3).
fn fields() -> [(&'static str, Dataset); 3] {
    [
        ("1d", Dataset::generate(DatasetKind::HaccVx, Scale::Tiny, 1)),
        ("2d", Dataset::generate(DatasetKind::Cldhgh, Scale::Tiny, 1)),
        (
            "3d",
            Dataset::generate(DatasetKind::Isotropic, Scale::Tiny, 1),
        ),
    ]
}

/// Compare `got` against `pins` by case name; report every drift at once,
/// with the value to pin.
fn check(what: &str, got: &[(String, String)], pins: &[(&str, &str)]) {
    assert_eq!(got.len(), pins.len(), "{what}: case count");
    let drift: Vec<String> = got
        .iter()
        .zip(pins)
        .filter(|((case, value), (pin_case, pin))| case != pin_case || value != pin)
        .map(|((case, value), (_, pin))| format!("(\"{case}\", \"{value}\"), // pinned {pin}"))
        .collect();
    assert!(drift.is_empty(), "{what} moved:\n{}", drift.join("\n"));
}

#[test]
fn sz_artifacts_are_pinned() {
    let mut got = Vec::new();
    for (dim, ds) in fields() {
        let (_, range) = value_extent(&ds.data);
        for (pname, predictor) in [("lorenzo", Predictor::Lorenzo), ("auto", Predictor::Auto)] {
            for (bname, rel) in [("1e-7", 1e-7), ("1e-4", 1e-4), ("1e-2", 1e-2)] {
                let cfg = SzConfig::with_error_bound(rel * range).with_predictor(predictor);
                let bytes = dpz_sz::compress(&ds.data, &ds.dims, &cfg);
                got.push((format!("{dim} {pname} {bname}"), hex(fnv1a(&bytes))));
            }
        }
    }
    const PINS: [(&str, &str); 18] = [
        ("1d lorenzo 1e-7", "0x558fab5aaa4d7b67"),
        ("1d lorenzo 1e-4", "0x8fc5e38e2642a5a9"),
        ("1d lorenzo 1e-2", "0x086f07fb3df2b32e"),
        ("1d auto 1e-7", "0xb31868d2907db4f6"),
        ("1d auto 1e-4", "0x601e0950b42178b8"),
        ("1d auto 1e-2", "0x870aefdb180d3d71"),
        ("2d lorenzo 1e-7", "0x02ac7a5e8009544f"),
        ("2d lorenzo 1e-4", "0xb28504279ec3b095"),
        ("2d lorenzo 1e-2", "0x67f5285bb453460e"),
        ("2d auto 1e-7", "0x4261cd036a1a907c"),
        ("2d auto 1e-4", "0x082a7bc8c7f7007f"),
        ("2d auto 1e-2", "0x1bcf551de6ac6070"),
        ("3d lorenzo 1e-7", "0x97e66ecea9f761e4"),
        ("3d lorenzo 1e-4", "0x79526c51356ff850"),
        ("3d lorenzo 1e-2", "0xdc3a4e2c807ae5e2"),
        ("3d auto 1e-7", "0x7519255c08407100"),
        ("3d auto 1e-4", "0xce7eda5cddc99331"),
        ("3d auto 1e-2", "0xba36a010ada54443"),
    ];
    check("SZ artifacts", &got, &PINS);
}

#[test]
fn zfp_artifacts_and_decodes_are_pinned() {
    let mut got = Vec::new();
    for (dim, ds) in fields() {
        let (_, range) = value_extent(&ds.data);
        for (mname, mode) in [
            ("precision", ZfpMode::FixedPrecision(16)),
            ("accuracy", ZfpMode::FixedAccuracy(1e-4 * range)),
            ("rate", ZfpMode::FixedRate(6.0)),
        ] {
            let bytes = dpz_zfp::compress(&ds.data, &ds.dims, mode);
            let (values, dims) = dpz_zfp::decompress(&bytes).expect("decode");
            assert_eq!(dims, ds.dims, "{dim} {mname}");
            got.push((
                format!("{dim} {mname}"),
                format!("{} {}", hex(fnv1a(&bytes)), hex(fnv_values(&values))),
            ));
        }
    }
    const PINS: [(&str, &str); 9] = [
        ("1d precision", "0xd114ebe3490c5ef4 0xaa79ea41d00bc568"),
        ("1d accuracy", "0xdea4af9aba9cbaf3 0xd67662f5f6adc33a"),
        ("1d rate", "0xb05076df20b67111 0x403520dfabdd1c65"),
        ("2d precision", "0x7f4699bb61aa361f 0xaac9553ae6103db7"),
        ("2d accuracy", "0xbd05cd9ef258e42c 0x43d64edc0dc980d0"),
        ("2d rate", "0x0acdf7d43a2a8d12 0xef2fa1f08fa683e1"),
        ("3d precision", "0xe2da5f2d1baa4a17 0x92e9707a8c1ab756"),
        ("3d accuracy", "0x6c27474f222659fb 0x848de94b5e44cf05"),
        ("3d rate", "0x8a7d7fc5cf250a38 0xa3dc1a8430482074"),
    ];
    check("ZFP artifacts and decodes", &got, &PINS);
}

/// One probe as exact bits: codec, predicted ratio and PSNR, and the
/// resolved target.
fn probe_row(p: &CodecProbe) -> String {
    let resolved = match p.resolved {
        QualityTarget::ErrorBound(b) => format!("eb:{:#x}", b.to_bits()),
        QualityTarget::RelBound(r) => format!("rel:{:#x}", r.to_bits()),
        QualityTarget::Psnr(db) => format!("psnr:{:#x}", db.to_bits()),
        QualityTarget::Ratio { target, tol } => {
            format!("ratio:{:#x}/{:#x}", target.to_bits(), tol.to_bits())
        }
    };
    format!(
        "{} {:#x} {:#x} {resolved};",
        p.codec,
        p.predicted_cr.to_bits(),
        p.predicted_psnr.to_bits()
    )
}

#[test]
fn probe_tables_are_pinned() {
    let auto = AutoCodec::new();
    let mut got = Vec::new();
    for kind in DatasetKind::ALL {
        let ds = Dataset::generate(kind, Scale::Tiny, 1);
        for (tname, target) in [
            ("psnr60", QualityTarget::Psnr(60.0)),
            (
                "ratio20",
                QualityTarget::Ratio {
                    target: 20.0,
                    tol: 0.1,
                },
            ),
        ] {
            let probes = auto
                .probe_all(&ds.data, &ds.dims, &target)
                .expect("probe_all");
            let table: String = probes.iter().map(probe_row).collect();
            got.push((
                format!("{} {tname}", kind.name()),
                hex(fnv1a(table.as_bytes())),
            ));
        }
    }
    const PINS: [(&str, &str); 18] = [
        ("Isotropic psnr60", "0x0e3cd3674ff1f697"),
        ("Isotropic ratio20", "0x8223fa74ad2476f6"),
        ("Channel psnr60", "0x297c6e46ee96eddd"),
        ("Channel ratio20", "0x29e412ab52f111f7"),
        ("CLDHGH psnr60", "0x3f2bafcf8a9c0a6d"),
        ("CLDHGH ratio20", "0xbaa146cb4d1382ad"),
        ("CLDLOW psnr60", "0xf431c4be448cb240"),
        ("CLDLOW ratio20", "0xb658b9401a47be02"),
        ("PHIS psnr60", "0x6594b812637b5f8a"),
        ("PHIS ratio20", "0x82cd0f4dd0fa7470"),
        ("FREQSH psnr60", "0x92430a02d9080c35"),
        ("FREQSH ratio20", "0xd480b24051a409f0"),
        ("FLDSC psnr60", "0xaf1a205dfdd813a0"),
        ("FLDSC ratio20", "0x38f325d0df56107a"),
        ("HACC-x psnr60", "0x8960f3318516bfa9"),
        ("HACC-x ratio20", "0xae4bf376b0ea1c39"),
        ("HACC-vx psnr60", "0xac20cccd36c5118b"),
        ("HACC-vx ratio20", "0x566ae0f8c94ce3e0"),
    ];
    check("probe_all tables", &got, &PINS);
}
