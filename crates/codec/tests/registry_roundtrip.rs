//! Satellite tests: every format round-trips through `dyn Codec` via the
//! registry, and hostile streams are rejected (never panic) at the trait
//! boundary.

use dpz_codec::{AutoCodec, Codec, DpzError, Format, Registry, Selection};

fn smooth_field(len: usize) -> Vec<f32> {
    (0..len).map(|i| (i as f32 * 0.013).sin() * 4.0).collect()
}

fn max_abs_err(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

#[test]
fn every_builtin_format_round_trips_through_trait_objects() {
    let registry = Registry::builtin();
    let data = smooth_field(4096);
    let dims = [64usize, 64];
    let range = 8.0f32; // data spans roughly [-4, 4]

    let mut seen = Vec::new();
    for codec in registry.iter() {
        let mut bytes = Vec::new();
        let stats = codec
            .compress_into(&data, &dims, &mut bytes)
            .unwrap_or_else(|e| panic!("{} compress failed: {e}", codec.name()));
        assert_eq!(stats.codec, codec.name());
        assert_eq!(stats.bytes_in, (data.len() * 4) as u64);
        assert_eq!(stats.bytes_out, bytes.len() as u64);
        assert!(stats.ratio() > 1.0, "{} did not compress", codec.name());

        // The stream must sniff back to the codec that wrote it.
        let (owner, format) = registry.sniff(&bytes).expect("probe");
        assert_eq!(owner.name(), codec.name());
        assert_eq!(format.name(), codec.name());

        let decoded = registry.decompress(&bytes).expect("decompress");
        assert_eq!(decoded.dims, dims);
        assert_eq!(decoded.format, format);
        let err = max_abs_err(&data, &decoded.values);
        assert!(
            err <= range * 0.02,
            "{}: reconstruction error {err} too large",
            codec.name()
        );
        seen.push(format);
    }
    assert_eq!(seen, Format::ALL, "registry must cover every format");
}

#[test]
fn registry_lookup_by_name_and_unknown_magic() {
    let registry = Registry::builtin();
    for format in Format::ALL {
        assert!(registry.get(format.name()).is_some(), "{format} missing");
    }
    assert!(registry.get("nope").is_none());
    assert!(registry.sniff(b"XXXX rest of stream").is_none());
    assert!(
        registry.sniff(b"DP").is_none(),
        "short header must not match"
    );
    match registry.decompress(b"XXXXjunk") {
        Err(DpzError::Corrupt(_)) => {}
        other => panic!("expected Corrupt for unknown magic, got {other:?}"),
    }
}

#[test]
fn hostile_fixtures_are_rejected_without_panicking() {
    let registry = Registry::builtin();
    let fixtures: [(&str, Vec<u8>); 3] = [
        ("overflow_dims_header", dpz_fuzz::overflow_dims_header()),
        ("overflow_chunk_lens", dpz_fuzz::overflow_chunk_lens()),
        ("deflate_bomb", dpz_fuzz::deflate_bomb_container(1)),
    ];
    for (name, bytes) in fixtures {
        // The magic is legitimate, so probe succeeds — rejection must come
        // from the decoder, as an error, not a panic.
        assert!(registry.sniff(&bytes).is_some(), "{name}: probe");
        match registry.decompress(&bytes) {
            Err(DpzError::Corrupt(_)) | Err(DpzError::Deflate(_)) => {}
            other => panic!("{name}: expected Corrupt/Deflate, got {other:?}"),
        }
    }
}

#[test]
fn baseline_codecs_reject_bad_geometry_instead_of_panicking() {
    let registry = Registry::builtin();
    let data = smooth_field(16);
    for name in ["sz", "zfp"] {
        let codec = registry.get(name).unwrap();
        let mut sink = Vec::new();
        // 4-D and zero-sized dims would trip asserts in the backend cores.
        for dims in [vec![2usize, 2, 2, 2], vec![16, 0], vec![4, 5]] {
            match codec.compress_into(&data, &dims, &mut sink) {
                Err(DpzError::BadInput(_)) => {}
                other => panic!("{name} {dims:?}: expected BadInput, got {other:?}"),
            }
        }
    }
}

#[test]
fn progressive_codec_round_trips_and_supports_budgets() {
    let registry = Registry::builtin();
    let data = smooth_field(4096);
    let dims = [64usize, 64];

    let codec = dpz_codec::DpzChunkedCodec::progressive(dpz_core::DpzConfig::loose(), 4);
    let mut bytes = Vec::new();
    let stats = codec
        .compress_into(&data, &dims, &mut bytes)
        .expect("compress");
    assert_eq!(stats.codec, "dpzc");
    assert!(stats.dpz.is_none(), "progressive has no stage stats");

    // The registry decodes it like any other chunked stream.
    let decoded = registry.decompress(&bytes).expect("full decode");
    assert_eq!(decoded.dims, dims);
    assert!(max_abs_err(&data, &decoded.values) <= 0.16);

    // Half the stream still reconstructs the full extent, coarser. The
    // mandatory floor (container framing + one component per chunk) may
    // exceed the nominal budget, so only the floor bounds `bytes_used`.
    let half = dpz_core::decompress_progressive(&bytes, bytes.len() / 2).expect("budget");
    assert_eq!(half.dims, dims);
    assert!(half.bytes_used <= bytes.len());
    assert!(half.tve_achieved > 0.0 && half.tve_achieved <= 1.0);
    let full = dpz_core::decompress_progressive(&bytes, bytes.len()).expect("full budget");
    assert!(half.bytes_used <= full.bytes_used);
    assert!(half.tve_achieved <= full.tve_achieved);
}

#[test]
fn auto_codec_selects_compresses_and_counts() {
    let auto = AutoCodec::new();
    let data = smooth_field(8192);
    let dims = [8192usize];

    let selection = auto.select(&data, &dims).expect("select");
    let reg = dpz_telemetry::global();
    let before = reg
        .counter_with(
            "dpz_codec_selected_total",
            &[("codec", selection.codec_name())],
        )
        .get();

    let mut bytes = Vec::new();
    let stats = auto.compress_into(&data, &dims, &mut bytes).expect("auto");
    assert_eq!(stats.codec, selection.codec_name());

    let after = reg
        .counter_with(
            "dpz_codec_selected_total",
            &[("codec", selection.codec_name())],
        )
        .get();
    assert_eq!(after, before + 1, "selection counter must increment");

    // AutoCodec decodes anything the registry does — including its own
    // output, whatever backend it chose.
    let decoded = auto.decompress_from(&mut &bytes[..]).expect("decode");
    assert_eq!(decoded.dims, dims);
    assert!(max_abs_err(&data, &decoded.values) <= 0.16);
}

#[test]
fn auto_codec_tiny_inputs_fall_back_to_sz() {
    let auto = AutoCodec::new();
    let data = smooth_field(32);
    assert_eq!(auto.select(&data, &[32]).unwrap(), Selection::Sz);
}

#[test]
fn auto_codec_prefers_dpz_on_highly_redundant_fields() {
    // Strongly correlated blocks: exactly the regime the paper's predictor
    // flags as high-CR for DPZ.
    let auto = AutoCodec::new();
    let data: Vec<f32> = (0..16384)
        .map(|i| ((i % 128) as f32 * 0.05).sin())
        .collect();
    match auto.select(&data, &[128, 128]).unwrap() {
        Selection::Dpz { cr_predicted, .. } => {
            assert!(cr_predicted > 1.0, "predictor should see redundancy")
        }
        other => panic!("expected DPZ selection, got {other:?}"),
    }
}
