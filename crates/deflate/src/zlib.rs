//! zlib container (RFC 1950): 2-byte header, DEFLATE body, Adler-32 trailer.
//!
//! On top of the classic single-stream functions this module offers a
//! **multi-member** variant ([`compress_parallel`]): the payload is split
//! into fixed-size strips and each strip is deflated independently into a
//! complete zlib stream; the members are then concatenated. Every member is
//! a fully valid RFC 1950 stream, and [`decompress`] simply loops — so old
//! single-member streams decode unchanged, and multi-member streams decode
//! on any version that loops (forward + backward compatible).

use crate::deflate::{deflate_compress, CompressionLevel};
use crate::inflate::{inflate_into, Sink};
use crate::{DeflateError, Result};
use rayon::prelude::*;

/// Compute the Adler-32 checksum of `data` (RFC 1950 §8).
///
/// The summation loop lives in `dpz-kernels` (vectorized on AVX2 via the
/// SAD/MADD reduction, scalar NMAX-blocked otherwise).
pub fn adler32(data: &[u8]) -> u32 {
    dpz_kernels::checksum::adler32_update(1, data)
}

/// Compress with the default effort level.
pub fn compress(data: &[u8]) -> Vec<u8> {
    compress_with_level(data, CompressionLevel::Default)
}

/// Compress into a zlib stream at the given level.
pub fn compress_with_level(data: &[u8], level: CompressionLevel) -> Vec<u8> {
    let body = deflate_compress(data, level);
    let mut out = Vec::with_capacity(body.len() + 6);
    // CMF: method 8 (deflate), 32 KiB window (CINFO=7) -> 0x78.
    let cmf: u8 = 0x78;
    // FLG: set FCHECK so (cmf*256 + flg) % 31 == 0, FLEVEL by effort.
    let flevel: u8 = match level {
        CompressionLevel::Store | CompressionLevel::Fast => 0,
        CompressionLevel::Default => 2,
        CompressionLevel::Best => 3,
    };
    let mut flg = flevel << 6;
    let rem = (u16::from(cmf) * 256 + u16::from(flg)) % 31;
    if rem != 0 {
        flg += (31 - rem) as u8;
    }
    out.push(cmf);
    out.push(flg);
    out.extend_from_slice(&body);
    out.extend_from_slice(&adler32(data).to_be_bytes());
    out
}

/// Raw bytes per member when splitting for parallel compression: one member
/// per whole `MEMBER_BYTES` of input. The count follows the input length
/// alone, so the bytes are the same at every thread count. Below two
/// members' worth the output is the single-stream [`compress_with_level`]
/// output, byte for byte.
const MEMBER_BYTES: usize = 128 * 1024;

/// Compress into one *or more* concatenated zlib members, deflating the
/// members in parallel on the global thread pool.
///
/// The input is split into `len / MEMBER_BYTES` contiguous strips of equal
/// length (at least 128 KiB each); each strip becomes an independent,
/// complete RFC 1950 stream, and [`decompress`] concatenates them back
/// transparently. Input shorter than two strips is byte-identical to
/// [`compress_with_level`].
pub fn compress_parallel(data: &[u8], level: CompressionLevel) -> Vec<u8> {
    let members = data.len() / MEMBER_BYTES;
    if members <= 1 {
        return compress_with_level(data, level);
    }
    let strip = data.len().div_ceil(members);
    let parts: Vec<Vec<u8>> = data
        .par_chunks(strip)
        .map(|chunk| compress_with_level(chunk, level))
        .collect();
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for p in &parts {
        out.extend_from_slice(p);
    }
    out
}

/// Decompress one zlib member starting at the beginning of `data` onto the
/// end of `out`, producing at most `max_out` bytes. Returns the member's
/// total encoded length (header + deflate body + trailer).
fn decompress_member(data: &[u8], out: &mut Sink, max_out: usize) -> Result<usize> {
    if data.len() < 6 {
        return Err(DeflateError::UnexpectedEof);
    }
    let cmf = data[0];
    let flg = data[1];
    if cmf & 0x0F != 8 {
        return Err(DeflateError::BadHeader); // not deflate
    }
    if (u16::from(cmf) * 256 + u16::from(flg)) % 31 != 0 {
        return Err(DeflateError::BadHeader); // FCHECK failed
    }
    if flg & 0x20 != 0 {
        return Err(DeflateError::BadHeader); // FDICT unsupported
    }
    let body_len = inflate_into(&data[2..data.len() - 4], out, max_out)?;
    let trailer = 2 + body_len;
    if data.len() < trailer + 4 {
        return Err(DeflateError::UnexpectedEof);
    }
    let stored = u32::from_be_bytes([
        data[trailer],
        data[trailer + 1],
        data[trailer + 2],
        data[trailer + 3],
    ]);
    let actual = adler32(out.stream());
    if stored != actual {
        return Err(DeflateError::ChecksumMismatch {
            expected: stored,
            actual,
        });
    }
    Ok(trailer + 4)
}

/// Decompress a zlib stream — single-member or a concatenation of members
/// (see [`compress_parallel`]) — verifying every header and Adler-32
/// trailer. Single-member streams written by older versions decode exactly
/// as before.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>> {
    decompress_bounded(data, usize::MAX)
}

/// [`decompress`] with a hard cap on the total decoded size across all
/// members: the call fails with [`DeflateError::TooLarge`] the moment the
/// output would exceed `max_out` bytes, long before a decompression bomb
/// can exhaust memory. Callers should derive `max_out` from the size the
/// surrounding container *declared* for this payload.
pub fn decompress_bounded(data: &[u8], max_out: usize) -> Result<Vec<u8>> {
    let mut out = Sink::new();
    decompress_members(data, &mut out, max_out)?;
    Ok(out.into_vec())
}

/// Inflate every member of `data` straight onto the end of `out`, at most
/// `max_out` bytes in all.
fn decompress_members(data: &[u8], out: &mut Sink, max_out: usize) -> Result<()> {
    let mut pos = decompress_member(data, out, max_out)?;
    while pos < data.len() {
        let budget = max_out - out.len();
        pos += decompress_member(&data[pos..], out, budget)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adler32_known_vectors() {
        // Reference values from the zlib specification/tools.
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"a"), 0x0062_0062);
        assert_eq!(adler32(b"abc"), 0x024d_0127);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn adler32_long_input_no_overflow() {
        let data = vec![0xFFu8; 1_000_000];
        // Must not panic and must be stable.
        let a = adler32(&data);
        let b = adler32(&data);
        assert_eq!(a, b);
    }

    #[test]
    fn header_fcheck_valid() {
        let z = compress(b"header check");
        assert_eq!((u16::from(z[0]) * 256 + u16::from(z[1])) % 31, 0);
        assert_eq!(z[0] & 0x0F, 8);
    }

    #[test]
    fn round_trip() {
        let data = b"zlib container round trip".repeat(100);
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn rejects_wrong_method() {
        let mut z = compress(b"x");
        z[0] = (z[0] & 0xF0) | 0x07; // method 7
        assert!(matches!(decompress(&z), Err(DeflateError::BadHeader)));
    }

    #[test]
    fn rejects_fdict() {
        let mut z = compress(b"x");
        z[1] |= 0x20;
        // Repair FCHECK so only FDICT triggers.
        let rem = (u16::from(z[0]) * 256 + u16::from(z[1] & !0x1F)) % 31;
        z[1] = (z[1] & !0x1F) | ((31 - rem) % 31) as u8;
        assert!(matches!(decompress(&z), Err(DeflateError::BadHeader)));
    }

    #[test]
    fn rejects_short_input() {
        assert_eq!(decompress(&[0x78]), Err(DeflateError::UnexpectedEof));
    }

    fn mixed_payload(n: usize) -> Vec<u8> {
        let mut s = 0x9E3779B9u64;
        (0..n)
            .map(|i| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                if i % 3 == 0 {
                    (s >> 32) as u8
                } else {
                    (i % 251) as u8
                }
            })
            .collect()
    }

    #[test]
    fn parallel_small_input_is_byte_identical_to_single_stream() {
        // Below the member threshold the parallel path must not change the
        // bytes at all (the container format stays stable for small blobs).
        let data = mixed_payload(2 * MEMBER_BYTES - 1);
        assert_eq!(
            compress_parallel(&data, CompressionLevel::Default),
            compress_with_level(&data, CompressionLevel::Default)
        );
    }

    #[test]
    fn parallel_round_trips_large_inputs() {
        for &n in &[MEMBER_BYTES, 2 * MEMBER_BYTES + 17, 5 * MEMBER_BYTES] {
            let data = mixed_payload(n);
            let packed = compress_parallel(&data, CompressionLevel::Fast);
            assert_eq!(decompress(&packed).unwrap(), data, "n={n}");
        }
    }

    #[test]
    fn many_members_fill_each_byte_of_room_once() {
        // 64 members, each expanding past the first reservation: the room
        // one member leaves is the next one's, so the bytes zero-filled
        // stay within the output plus one member's growth, unbounded or
        // at the exact bound. A decoder that cut the room after every
        // member and regrew it from the whole buffer would fill 31.6 times
        // the output here.
        let data = mixed_payload(64 * MEMBER_BYTES);
        for level in [CompressionLevel::Store, CompressionLevel::Fast] {
            let packed = compress_parallel(&data, level);
            for max_out in [usize::MAX, data.len()] {
                let mut out = Sink::new();
                decompress_members(&packed, &mut out, max_out).unwrap();
                let filled = out.zero_filled();
                assert!(
                    filled <= data.len() + 2 * MEMBER_BYTES,
                    "{level:?}, bound {max_out}: {filled} bytes zero-filled for {}",
                    data.len()
                );
                assert!(out.into_vec() == data, "{level:?}, bound {max_out}");
            }
        }
    }

    #[test]
    fn decompress_handles_hand_concatenated_members() {
        // Members written by the plain single-stream encoder, glued
        // together: decompress must see one logical payload regardless of
        // worker count.
        let a = b"first member ".repeat(300);
        let b = b"second member, different content ".repeat(200);
        let c: Vec<u8> = vec![0u8; 10_000];
        let mut glued = compress(&a);
        glued.extend_from_slice(&compress(&b));
        glued.extend_from_slice(&compress(&c));
        let mut expect = a.clone();
        expect.extend_from_slice(&b);
        expect.extend_from_slice(&c);
        assert_eq!(decompress(&glued).unwrap(), expect);
    }

    #[test]
    fn single_member_streams_from_old_writer_still_decode() {
        // `compress_with_level` is the PR-1-era writer; its output must
        // decode byte-identically through the looping decoder.
        let data = mixed_payload(3 * MEMBER_BYTES);
        let old = compress_with_level(&data, CompressionLevel::Default);
        assert_eq!(decompress(&old).unwrap(), data);
    }

    #[test]
    fn bounded_decompress_caps_across_members() {
        // The cap applies to the *sum* of members, not to each one.
        let a = b"member one ".repeat(50);
        let b = b"member two ".repeat(50);
        let mut glued = compress(&a);
        glued.extend_from_slice(&compress(&b));
        let total = a.len() + b.len();
        let mut expect = a.clone();
        expect.extend_from_slice(&b);
        assert_eq!(decompress_bounded(&glued, total).unwrap(), expect);
        assert!(matches!(
            decompress_bounded(&glued, total - 1),
            Err(DeflateError::TooLarge { .. })
        ));
        assert!(matches!(
            decompress_bounded(&glued, a.len()),
            Err(DeflateError::TooLarge { .. })
        ));
    }

    #[test]
    fn corrupted_second_member_is_detected() {
        let a = b"alpha ".repeat(100);
        let b = b"beta ".repeat(100);
        let first = compress(&a);
        let mut glued = first.clone();
        glued.extend_from_slice(&compress(&b));
        let n = glued.len();
        glued[n - 1] ^= 0xFF; // break member 2's adler trailer
        match decompress(&glued) {
            Err(DeflateError::ChecksumMismatch { .. }) | Err(DeflateError::Corrupt(_)) => {}
            other => panic!("expected checksum/corrupt error, got {other:?}"),
        }
        // Truncated second member: a dangling partial header is an error,
        // not silently ignored trailing bytes.
        let mut trunc = first;
        trunc.extend_from_slice(&[0x78]);
        assert!(decompress(&trunc).is_err());
    }
}
