//! Integration: container format stability and decoder robustness for all
//! three formats — corrupted or truncated streams must error, never panic.

use dpz::prelude::*;
use dpz::sz::SzConfig;
use dpz::zfp::ZfpMode;

fn dpz_stream() -> Vec<u8> {
    let ds = Dataset::generate(DatasetKind::Freqsh, Scale::Tiny, 3);
    dpz::core::compress(&ds.data, &ds.dims, &DpzConfig::loose())
        .unwrap()
        .bytes
}

#[test]
fn magic_bytes_are_stable() {
    let ds = Dataset::generate(DatasetKind::HaccX, Scale::Tiny, 3);
    assert_eq!(&dpz_stream()[..4], b"DPZ1");
    let sz = dpz::sz::compress(&ds.data, &ds.dims, &SzConfig::with_error_bound(1e-2));
    assert_eq!(&sz[..4], b"SZR1");
    let zfp = dpz::zfp::compress(&ds.data, &ds.dims, ZfpMode::FixedPrecision(12));
    assert_eq!(&zfp[..4], b"ZFR1");
}

#[test]
fn truncations_error_not_panic() {
    let stream = dpz_stream();
    for cut in 0..stream.len().min(64) {
        assert!(dpz::core::decompress(&stream[..cut]).is_err(), "cut {cut}");
    }
    // Also chop mid-payload and at the very end.
    for cut in [stream.len() / 2, stream.len() - 1] {
        assert!(dpz::core::decompress(&stream[..cut]).is_err(), "cut {cut}");
    }
}

#[test]
fn single_byte_flips_never_panic() {
    let stream = dpz_stream();
    // Flip a spread of positions across the container; decoding may fail or
    // (for payload bits) succeed with altered output — but must not panic.
    let step = (stream.len() / 97).max(1);
    for pos in (0..stream.len()).step_by(step) {
        let mut bad = stream.clone();
        bad[pos] ^= 0x55;
        let _ = dpz::core::decompress(&bad);
    }
}

#[test]
fn cross_format_confusion_is_rejected() {
    let ds = Dataset::generate(DatasetKind::HaccVx, Scale::Tiny, 3);
    let sz = dpz::sz::compress(&ds.data, &ds.dims, &SzConfig::with_error_bound(1e-2));
    let zfp = dpz::zfp::compress(&ds.data, &ds.dims, ZfpMode::FixedPrecision(12));
    assert!(dpz::core::decompress(&sz).is_err());
    assert!(dpz::core::decompress(&zfp).is_err());
    assert!(dpz::sz::decompress(&zfp).is_err());
    assert!(dpz::zfp::decompress(&sz).is_err());
    assert!(dpz::sz::decompress(&dpz_stream()).is_err());
    assert!(dpz::zfp::decompress(&dpz_stream()).is_err());
}

#[test]
fn empty_and_garbage_inputs() {
    for bytes in [&[][..], b"garbage", &[0u8; 1024]] {
        assert!(dpz::core::decompress(bytes).is_err());
        assert!(dpz::sz::decompress(bytes).is_err());
        assert!(dpz::zfp::decompress(bytes).is_err());
    }
}

// ---------------------------------------------------------------------------
// Adversarial headers: size fields chosen to overflow the decoder's
// arithmetic or to declare absurd allocations. Each case is a regression
// test for a panic (or unbounded allocation) the decode-hardening pass
// fixed; all must come back as `Err`, never a panic.
// ---------------------------------------------------------------------------

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[test]
fn overflowing_dims_product_is_rejected() {
    // Regression: `dims.iter().product::<usize>()` used to overflow-panic in
    // debug builds. Eight dims of u64::MAX/2 overflow any usize product.
    let stream = dpz_fuzz::overflow_dims_header();
    assert!(dpz::core::decompress(&stream).is_err());
}

#[test]
fn overflowing_chunk_lengths_are_rejected() {
    // Regression: `lens.iter().sum::<usize>()` in the DPZC directory parser.
    let stream = dpz_fuzz::overflow_chunk_lens();
    assert!(dpz::core::decompress_chunked(&stream).is_err());
    assert!(dpz::core::decompress_chunk(&stream, 0).is_err());
}

#[test]
fn forged_v4_footers_are_rejected_on_every_entry_point() {
    // The index footer is the seekable format's trust anchor: a truncated
    // footer, a forged chunk offset (CRC recomputed so only the structural
    // validation can catch it), and a permuted progressive component order
    // must all come back as errors — from the full decode and from the
    // random-access paths alike.
    for (name, bytes) in [
        ("truncated_footer", dpz_fuzz::truncated_footer()),
        ("forged_footer_offset", dpz_fuzz::forged_footer_offset()),
        (
            "permuted_component_order",
            dpz_fuzz::permuted_component_order(),
        ),
    ] {
        assert!(
            dpz::core::decompress_chunked(&bytes).is_err(),
            "{name}: full decode must reject"
        );
        assert!(
            dpz::core::decompress_chunk(&bytes, 0).is_err(),
            "{name}: chunk retrieval must reject"
        );
        assert!(
            dpz::core::decompress_region(&bytes, &[0..1, 0..1]).is_err(),
            "{name}: region retrieval must reject"
        );
    }
}

#[test]
fn overflowing_trailing_dims_in_v4_footer_are_rejected() {
    // Regression: the footer parser checked the product of all dims, then
    // multiplied the trailing dims unchecked. A zero slow axis keeps the
    // full product at 0 while 2^40 · 2^40 overflows. The footer CRC is
    // valid, so only the checked product can reject it.
    let mut bytes = b"DPZC".to_vec();
    bytes.extend_from_slice(&[4, 3]); // version, ndims
    for d in [0, 1 << 40, 1 << 40] {
        push_u64(&mut bytes, d);
    }
    bytes.push(0); // flags
    let mut footer = Vec::new();
    // Chunk count 1, then its entry: offset, len, rows, values, crc32.
    for v in [1, bytes.len() as u64, 0, 0, 0] {
        push_u64(&mut footer, v);
    }
    footer.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&footer);
    push_u64(&mut bytes, footer.len() as u64);
    bytes.extend_from_slice(&dpz::deflate::crc32(&footer).to_le_bytes());
    bytes.extend_from_slice(b"DPZF");

    assert!(matches!(
        dpz::core::SeekableIndex::from_bytes(&bytes),
        Err(DpzError::Corrupt(_))
    ));
    assert!(matches!(
        dpz::core::decompress_chunked(&bytes),
        Err(DpzError::Corrupt(_))
    ));
    let region = [0..1, 0..1, 0..1];
    assert!(matches!(
        dpz::core::decompress_region_from(&mut std::io::Cursor::new(&bytes), &region),
        Err(DpzError::Corrupt(_))
    ));
}

#[test]
fn max_ndims_header_is_rejected() {
    // ndims = 255 with a stream far too short to hold 255 dim fields.
    let mut stream = b"DPZ1".to_vec();
    stream.push(2);
    stream.push(255);
    stream.extend_from_slice(&[0u8; 64]);
    assert!(dpz::core::decompress(&stream).is_err());
}

#[test]
fn huge_declared_section_lengths_are_rejected() {
    // A header that parses cleanly but declares a near-usize::MAX packed
    // section length: must fail the bounds check, not allocate or
    // overflow `pos + n` in the cursor.
    let mut stream = b"DPZ1".to_vec();
    stream.push(2); // version
    stream.push(1); // ndims
    push_u64(&mut stream, 16); // dim
    push_u64(&mut stream, 16); // orig_len
    push_u64(&mut stream, 4); // m
    push_u64(&mut stream, 4); // n
    push_u64(&mut stream, 0); // pad
    stream.extend_from_slice(&0.0f64.to_le_bytes()); // norm_min
    stream.extend_from_slice(&1.0f64.to_le_bytes()); // norm_range
    push_u64(&mut stream, 2); // k
    stream.extend_from_slice(&[0, 0]); // transform, dwt levels
    stream.extend_from_slice(&1e-3f64.to_le_bytes()); // p
    stream.extend_from_slice(&[0, 0]); // wide_index, standardized
    push_u64(&mut stream, 48); // model declared raw
    for packed_len in [u64::MAX, u64::MAX - 7, u64::MAX / 2] {
        let mut bad = stream.clone();
        push_u64(&mut bad, packed_len);
        bad.extend_from_slice(&[0u8; 32]);
        assert!(dpz::core::decompress(&bad).is_err(), "len {packed_len}");
    }
}

#[test]
fn sz_implausible_value_count_is_rejected() {
    // SZR1 header declaring ~u64::MAX values backed by a handful of bytes.
    let mut stream = b"SZR1".to_vec();
    stream.push(1); // ndims
    push_u64(&mut stream, u64::MAX / 2); // dim
    stream.extend_from_slice(&[0u8; 64]);
    assert!(dpz::sz::decompress(&stream).is_err());
}

#[test]
fn zfp_bitstream_length_overflow_is_rejected() {
    // ZFR1 header whose bitstream length wraps `pos + bits_len`.
    let mut stream = b"ZFR1".to_vec();
    stream.push(1); // ndims
    push_u64(&mut stream, 64); // dim
    stream.push(0); // mode tag
    push_u64(&mut stream, 16); // mode param
    push_u64(&mut stream, u64::MAX - 8); // bits_len
    stream.extend_from_slice(&[0u8; 16]);
    assert!(dpz::zfp::decompress(&stream).is_err());
}

#[test]
fn deflate_bomb_section_is_rejected() {
    // A v2 container whose index section declares 40 raw bytes but packs a
    // multi-MiB zero run (>1000:1). The bounded inflate must reject it.
    let bomb = dpz_fuzz::deflate_bomb_container(8);
    assert!(dpz::core::decompress(&bomb).is_err());
}

// ---------------------------------------------------------------------------
// v3 containers: the per-section lossless-backend flag and the tANS stream
// are new attack surface. Same contract as everything above: corrupted
// streams error, never panic.
// ---------------------------------------------------------------------------

fn v3_stream() -> Vec<u8> {
    let ds = Dataset::generate(DatasetKind::Freqsh, Scale::Tiny, 3);
    let cfg = DpzConfig::loose().with_lossless(dpz::core::LosslessBackend::Tans);
    dpz::core::compress(&ds.data, &ds.dims, &cfg).unwrap().bytes
}

/// Offset of the first section's backend flag byte: fixed header is
/// magic(4) ver(1) ndims(1) dims(8·ndims) then 68 bytes of scalar fields.
fn first_flag_offset(stream: &[u8]) -> usize {
    assert_eq!(&stream[..4], b"DPZ1");
    assert_eq!(stream[4], 3, "fixture must be a v3 container");
    6 + 8 * stream[5] as usize + 68
}

#[test]
fn v3_truncations_error_not_panic() {
    let stream = v3_stream();
    let step = (stream.len() / 61).max(1);
    for cut in (0..stream.len()).step_by(step) {
        assert!(dpz::core::decompress(&stream[..cut]).is_err(), "cut {cut}");
    }
    assert!(dpz::core::decompress(&stream[..stream.len() - 1]).is_err());
}

#[test]
fn unknown_backend_flag_is_rejected() {
    let stream = v3_stream();
    let off = first_flag_offset(&stream);
    assert!(stream[off] <= 1, "offset {off} is not a backend flag");
    for forged in [2u8, 7, 0xFF] {
        let mut bad = stream.clone();
        bad[off] = forged;
        assert!(dpz::core::decompress(&bad).is_err(), "flag {forged}");
    }
}

#[test]
fn swapped_backend_flag_never_panics() {
    // Flipping the flag routes a section's bytes to the wrong entropy
    // decoder; the bytes are CRC-valid so decode gets all the way into the
    // coder. It must come back as a clean error.
    let stream = v3_stream();
    let off = first_flag_offset(&stream);
    let mut bad = stream.clone();
    bad[off] ^= 1;
    assert!(dpz::core::decompress(&bad).is_err());
}

#[test]
fn tans_bad_state_is_rejected() {
    // Decoder states forged out of the table range: the range check must
    // fire before any table lookup.
    let bad = dpz_fuzz::tans_bad_state();
    assert!(dpz::deflate::tans::decompress_bounded(&bad, 1 << 20).is_err());
}

#[test]
fn tans_oversized_declared_raw_size_is_rejected() {
    // Declared raw length of u32::MAX against a 1 MiB bound: must refuse
    // without allocating the declared size.
    let bad = dpz_fuzz::tans_oversized_raw_len();
    assert!(dpz::deflate::tans::decompress_bounded(&bad, 1 << 20).is_err());
}

#[test]
fn v3_containers_round_trip_with_backend_metadata() {
    let ds = Dataset::generate(DatasetKind::Freqsh, Scale::Tiny, 3);
    let cfg = DpzConfig::loose().with_lossless(dpz::core::LosslessBackend::Tans);
    let out = dpz::core::compress(&ds.data, &ds.dims, &cfg).unwrap();
    let (values, dims, info) = dpz::core::decompress_with_info(&out.bytes).unwrap();
    assert_eq!(info.version, 3);
    assert_eq!(dims, ds.dims);
    // The same payload through the default (v2/DEFLATE) path decodes to the
    // identical values: the backend changes bytes, never numerics.
    let v2 = dpz::core::compress(&ds.data, &ds.dims, &DpzConfig::loose()).unwrap();
    let (v2_values, _) = dpz::core::decompress(&v2.bytes).unwrap();
    assert_eq!(values, v2_values);
}

#[test]
fn v2_containers_verify_and_v1_still_decode() {
    let ds = Dataset::generate(DatasetKind::Freqsh, Scale::Tiny, 3);
    let out = dpz::core::compress(&ds.data, &ds.dims, &DpzConfig::loose()).unwrap();
    let (_, _, info) = dpz::core::decompress_with_info(&out.bytes).unwrap();
    assert_eq!(info.version, 2);
    assert!(info.checksummed);

    // A frozen v1 stream (no trailers) still decodes, to the same values as
    // the v2 framing of its own payload.
    let v1 = include_bytes!("fixtures/legacy/dpz1-v1-loose-64x96.bin");
    let (via_v1, dims_v1, info_v1) = dpz::core::decompress_with_info(v1).unwrap();
    assert_eq!(info_v1.version, 1);
    assert!(!info_v1.checksummed);
    let payload = dpz::core::container::deserialize(v1).unwrap();
    let (v2, _) = dpz::core::container::serialize(&payload);
    let (via_v2, dims_v2) = dpz::core::decompress(&v2).unwrap();
    assert_eq!(dims_v1, dims_v2);
    assert_eq!(via_v1, via_v2);
}

#[test]
fn container_reports_consistent_metadata() {
    let ds = Dataset::generate(DatasetKind::Cldlow, Scale::Tiny, 9);
    let out = dpz::core::compress(&ds.data, &ds.dims, &DpzConfig::strict()).unwrap();
    let payload = dpz::core::container::deserialize(&out.bytes).unwrap();
    assert_eq!(payload.dims, ds.dims);
    assert_eq!(payload.orig_len, ds.len());
    assert_eq!(payload.m, out.stats.m);
    assert_eq!(payload.n, out.stats.n);
    assert_eq!(payload.k, out.stats.k);
    assert_eq!(payload.p, 1e-4);
    assert!(payload.scores.wide_index);
}
