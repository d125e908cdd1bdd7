//! DEFLATE decoder (RFC 1951).
//!
//! A Huffman block decodes in two loops over one set of tables. The fast
//! loop runs while at least 8 input bytes and 258 bytes of output budget
//! remain: one word refill then covers a whole literal/length/distance
//! step, no step can run out of input or trip the output bound, and matches
//! copy in word steps. The checked step decodes one symbol with every check
//! in place. It serves the stream tail and the last bytes below the bound,
//! and takes over every symbol the fast loop declines, so each error comes
//! from one place.

use crate::bitio::BitReader;
use crate::deflate::{
    fixed_dist_lengths, fixed_lit_lengths, CLC_ORDER, DIST_BASE, DIST_EXTRA, LENGTH_BASE,
    LENGTH_EXTRA,
};
use crate::huffman::{entry_extra, entry_len, LutDecoder, DOUBLE, EXTRA_SHIFT, LONG};
use crate::lz77::MAX_MATCH;
use crate::{DeflateError, Result};
use std::sync::OnceLock;

/// Initial output reservation ceiling. The decoder must never size a buffer
/// from untrusted input alone, so the up-front guess is clamped here and the
/// buffer grows geometrically from then on, never past the caller's bound.
const INITIAL_RESERVE_CAP: usize = 64 * 1024;

/// Bytes a word-step match copy may write past the match's end.
const COPY_SLACK: usize = 8;

// inflate's tags in the symbol-map bits of a table entry. Length and
// distance entries carry no tag: their value is the base, and the extra-bit
// count sits beside it.
const LITERAL: u32 = 1 << 25;
const END_OF_BLOCK: u32 = 1 << 26;
const INVALID: u32 = 1 << 27;

/// Table value of a literal/length symbol.
fn litlen_value(sym: usize) -> u32 {
    match sym {
        0..=255 => sym as u32 | LITERAL,
        256 => END_OF_BLOCK,
        257..=285 => {
            u32::from(LENGTH_BASE[sym - 257]) | (u32::from(LENGTH_EXTRA[sym - 257]) << EXTRA_SHIFT)
        }
        _ => INVALID,
    }
}

/// Table value of a distance symbol.
fn dist_value(sym: usize) -> u32 {
    match sym {
        0..=29 => u32::from(DIST_BASE[sym]) | (u32::from(DIST_EXTRA[sym]) << EXTRA_SHIFT),
        _ => INVALID,
    }
}

/// Decompress a raw DEFLATE stream into bytes.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>> {
    inflate_consumed(data).map(|(out, _)| out)
}

/// Decompress a raw DEFLATE stream, failing with [`DeflateError::TooLarge`]
/// as soon as the output would exceed `max_out` bytes.
///
/// This is the decompression-bomb guard: a few hundred input bytes can
/// legally inflate to megabytes (stored-block-free RLE approaches ~1030:1),
/// so any decoder fed untrusted data must bound the output by what the
/// surrounding container *declared* — the bound trips after at most
/// `max_out` bytes have been materialized, never after.
pub fn inflate_bounded(data: &[u8], max_out: usize) -> Result<Vec<u8>> {
    inflate_consumed_bounded(data, max_out).map(|(out, _)| out)
}

/// Decompress a raw DEFLATE stream and also report how many input bytes the
/// stream occupied (rounded up to the byte after the final block).
///
/// The consumed count lets callers parse *concatenated* streams — e.g. the
/// multi-member zlib container — by restarting after each member.
pub fn inflate_consumed(data: &[u8]) -> Result<(Vec<u8>, usize)> {
    inflate_consumed_bounded(data, usize::MAX)
}

/// [`inflate_consumed`] with the [`inflate_bounded`] output cap.
pub fn inflate_consumed_bounded(data: &[u8], max_out: usize) -> Result<(Vec<u8>, usize)> {
    let mut out = Sink::new();
    let used = inflate_into(data, &mut out, max_out)?;
    Ok((out.into_vec(), used))
}

/// Decode one raw DEFLATE stream onto the end of `out`, writing at most
/// `max_out` bytes of it, and return the input bytes the stream occupied.
pub(crate) fn inflate_into(data: &[u8], out: &mut Sink, max_out: usize) -> Result<usize> {
    inflate_stream::<true>(data, out, max_out)
}

/// [`inflate_into`], with (`FAST`) or without the fast loop. Both decode
/// every stream to the same bytes or the same error.
fn inflate_stream<const FAST: bool>(data: &[u8], sink: &mut Sink, max_out: usize) -> Result<usize> {
    let mut r = BitReader::new(data);
    sink.begin(max_out, data.len());
    decode_blocks::<FAST>(&mut r, sink)?;
    // Discard the final block's bit padding so byte_position() is exact.
    r.align_to_byte();
    Ok(r.byte_position())
}

/// Decoded output, shared by consecutive streams (the members of a zlib
/// stream). The buffer's length runs ahead of the bytes written (`pos`):
/// zero-filled room that stores and word copies write into without a
/// capacity check. The room is never cut while streams decode, so each
/// stream writes into what the last one left and every byte is
/// zero-filled once; it is cut back to `pos` when the output is taken.
pub(crate) struct Sink {
    buf: Vec<u8>,
    /// Where the current stream's output starts.
    start: usize,
    /// End of the bytes written so far.
    pos: usize,
    /// The current stream's bound on its output.
    max_out: usize,
    /// Bytes of room zero-filled so far.
    #[cfg(test)]
    zero_filled: usize,
}

impl Sink {
    pub(crate) fn new() -> Sink {
        Sink {
            buf: Vec::new(),
            start: 0,
            pos: 0,
            max_out: 0,
            #[cfg(test)]
            zero_filled: 0,
        }
    }

    /// Start a stream at the end of the output that may write at most
    /// `max_out` bytes; its encoded form is `input_len` bytes long.
    fn begin(&mut self, max_out: usize, input_len: usize) {
        self.start = self.pos;
        self.max_out = max_out;
        // Reserve from the *smaller* of a heuristic on the input size and
        // the caller's bound, clamped to a fixed ceiling: untrusted lengths
        // must not drive a large up-front allocation.
        let initial = input_len
            .saturating_mul(2)
            .min(max_out)
            .min(INITIAL_RESERVE_CAP);
        if self.pos + initial > self.buf.len() {
            self.grow(self.pos + initial);
        }
    }

    /// Bytes every stream has written.
    pub(crate) fn len(&self) -> usize {
        self.pos
    }

    /// The current stream's output.
    pub(crate) fn stream(&self) -> &[u8] {
        &self.buf[self.start..self.pos]
    }

    /// Bytes of room zero-filled so far, the room still unused included.
    #[cfg(test)]
    pub(crate) fn zero_filled(&self) -> usize {
        self.zero_filled
    }

    /// The output, without the room.
    pub(crate) fn into_vec(mut self) -> Vec<u8> {
        self.buf.truncate(self.pos);
        self.buf
    }

    /// Bytes this stream has written.
    #[inline(always)]
    fn written(&self) -> usize {
        self.pos - self.start
    }

    /// Bytes the stream may still write before the bound.
    #[inline(always)]
    fn room(&self) -> usize {
        self.max_out - self.written()
    }

    /// Make the next `n` bytes, plus the copy slack, writable. Callers
    /// check `n <= room()` first, so the buffer never grows past the bound
    /// plus the slack.
    #[inline(always)]
    fn reserve(&mut self, n: usize) {
        let need = self.pos + n + COPY_SLACK;
        if need > self.buf.len() {
            self.grow(need);
        }
    }

    /// Lengthen the buffer to at least `need` (> its length) by doubling
    /// this stream's share of it, so the room follows the stream's own
    /// output, not what earlier streams wrote.
    #[cold]
    fn grow(&mut self, need: usize) {
        let cap = (self.start.saturating_add(self.max_out)).saturating_add(COPY_SLACK);
        let doubled = self.start + 2 * (self.buf.len() - self.start);
        let len = doubled.max(need).min(cap);
        #[cfg(test)]
        {
            self.zero_filled += len - self.buf.len();
        }
        self.buf.resize(len, 0);
    }

    fn too_large(&self) -> DeflateError {
        DeflateError::TooLarge {
            limit: self.max_out,
        }
    }
}

fn decode_blocks<const FAST: bool>(r: &mut BitReader<'_>, sink: &mut Sink) -> Result<()> {
    loop {
        let bfinal = r.read_bit()?;
        let btype = r.read_bits(2)?;
        match btype {
            0b00 => read_stored_block(r, sink)?,
            0b01 => {
                let (lit, dist) = fixed_tables();
                read_huffman_block::<FAST>(r, sink, lit, dist)?;
            }
            0b10 => {
                let (lit, dist) = read_dynamic_tables(r)?;
                read_huffman_block::<FAST>(r, sink, &lit, &dist)?;
            }
            _ => return Err(DeflateError::Corrupt("reserved block type 11")),
        }
        if bfinal == 1 {
            return Ok(());
        }
    }
}

fn read_stored_block(r: &mut BitReader<'_>, sink: &mut Sink) -> Result<()> {
    r.align_to_byte();
    let mut header = [0u8; 4];
    r.read_bytes(&mut header)?;
    let len = u16::from_le_bytes([header[0], header[1]]);
    let nlen = u16::from_le_bytes([header[2], header[3]]);
    if len != !nlen {
        return Err(DeflateError::Corrupt("stored block LEN/NLEN mismatch"));
    }
    let len = usize::from(len);
    if sink.room() < len {
        return Err(sink.too_large());
    }
    sink.reserve(len);
    r.read_bytes(&mut sink.buf[sink.pos..sink.pos + len])?;
    sink.pos += len;
    Ok(())
}

/// The fixed-block decode tables (RFC 1951 §3.2.6) never change; build the
/// lookup tables once per process.
fn fixed_tables() -> (&'static LutDecoder, &'static LutDecoder) {
    static TABLES: OnceLock<(LutDecoder, LutDecoder)> = OnceLock::new();
    let (lit, dist) = TABLES.get_or_init(|| {
        (
            LutDecoder::from_lengths_mapped(&fixed_lit_lengths(), true, litlen_value)
                .expect("fixed litlen code"),
            LutDecoder::from_lengths_mapped(&fixed_dist_lengths(), false, dist_value)
                .expect("fixed dist code"),
        )
    });
    (lit, dist)
}

/// Parse the dynamic block header into literal/length and distance decoders.
fn read_dynamic_tables(r: &mut BitReader<'_>) -> Result<(LutDecoder, LutDecoder)> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(DeflateError::Corrupt("dynamic header counts out of range"));
    }
    let mut clc_lengths = [0u8; 19];
    for &sym in CLC_ORDER.iter().take(hclen) {
        clc_lengths[sym] = r.read_bits(3)? as u8;
    }
    let clc = LutDecoder::from_lengths(&clc_lengths, false)?;

    // Decode hlit + hdist code lengths with the RLE alphabet.
    let total = hlit + hdist;
    let mut lengths = Vec::with_capacity(total);
    while lengths.len() < total {
        let sym = clc.read(r)?;
        match sym {
            0..=15 => lengths.push(sym as u8),
            16 => {
                let &prev = lengths
                    .last()
                    .ok_or(DeflateError::Corrupt("repeat code with no previous length"))?;
                let count = 3 + r.read_bits(2)? as usize;
                for _ in 0..count {
                    lengths.push(prev);
                }
            }
            17 => {
                let count = 3 + r.read_bits(3)? as usize;
                lengths.extend(std::iter::repeat_n(0u8, count));
            }
            18 => {
                let count = 11 + r.read_bits(7)? as usize;
                lengths.extend(std::iter::repeat_n(0u8, count));
            }
            _ => return Err(DeflateError::Corrupt("invalid code length symbol")),
        }
    }
    if lengths.len() != total {
        return Err(DeflateError::Corrupt(
            "code length run overflows header counts",
        ));
    }
    if lengths[256] == 0 {
        return Err(DeflateError::Corrupt("end-of-block symbol has no code"));
    }
    let lit = LutDecoder::from_lengths_mapped(&lengths[..hlit], true, litlen_value)?;
    let dist = LutDecoder::from_lengths_mapped(&lengths[hlit..], false, dist_value)?;
    Ok((lit, dist))
}

/// Append `len` bytes starting `d` back from `pos`, in 8-byte steps. A step
/// may write up to 7 bytes past the match's end (callers reserve
/// `COPY_SLACK`); those bytes lie past the output and are overwritten or
/// cut. A distance under 8 (the RLE case) first copies bytewise until the
/// output holds a whole multiple of its period of at least 8 bytes, then
/// steps by that multiple, writing exactly the bytes the byte-at-a-time
/// definition would.
#[inline(always)]
fn copy_match(buf: &mut [u8], pos: usize, d: usize, len: usize) {
    let end = pos + len;
    let step = d * 8usize.div_ceil(d);
    let mut o = pos;
    let head_end = (pos + step - d).min(end);
    while o < head_end {
        buf[o] = buf[o - d];
        o += 1;
    }
    while o < end {
        let word: [u8; 8] = buf[o - step..o - step + 8]
            .try_into()
            .expect("slice of 8 bytes");
        buf[o..o + 8].copy_from_slice(&word);
        o += 8;
    }
}

fn read_huffman_block<const FAST: bool>(
    r: &mut BitReader<'_>,
    sink: &mut Sink,
    lit: &LutDecoder,
    dist: &LutDecoder,
) -> Result<()> {
    loop {
        if FAST {
            fast_loop(r, sink, lit, dist);
        }
        if checked_step(r, sink, lit, dist)? {
            return Ok(());
        }
    }
}

/// Low `n` bits set.
#[inline(always)]
fn low_mask(n: u32) -> u64 {
    (1u64 << n) - 1
}

/// Decode while no step can fail: at least 8 input bytes remain, so one
/// word refill covers a whole literal/length/distance step (at most
/// 15 + 5 + 15 + 13 = 48 of the 56 bits it leaves), and at least 258 bytes
/// of output budget remain, so no step can trip the bound. Returns, without
/// consuming it, at the first symbol that needs a check: the end of the
/// block, an invalid or undefined code, a distance past the output start.
#[inline(always)]
fn fast_loop(r: &mut BitReader<'_>, sink: &mut Sink, lit: &LutDecoder, dist: &LutDecoder) {
    // The last output position a step may start at.
    let Some(budget) = sink.max_out.checked_sub(MAX_MATCH) else {
        return;
    };
    let last = sink.start.saturating_add(budget);
    while r.has_word() && sink.pos <= last {
        sink.reserve(MAX_MATCH);
        let end = last.min(sink.buf.len() - MAX_MATCH - COPY_SLACK);
        // Decode on copies held in locals, so stores into the output need
        // not reload the reader's state.
        let mut bits = r.clone();
        let (pos, stopped) = fast_steps(
            &mut bits,
            &mut sink.buf[..],
            sink.pos,
            end,
            sink.start,
            lit,
            dist,
        );
        *r = bits;
        sink.pos = pos;
        if stopped {
            return;
        }
    }
}

/// Write a literal entry's byte, or both bytes of a pair, at `at` (at most
/// 4); return the offset after them. A single literal's second byte is 0,
/// written past the output and not counted.
#[inline(always)]
fn put_literals(window: &mut [u8; 8], at: usize, e: u32) -> usize {
    window[at..at + 2].copy_from_slice(&(e as u16).to_le_bytes());
    at + 1 + usize::from(e & DOUBLE != 0)
}

/// [`fast_loop`]'s steps from output position `pos` while it is at most
/// `end`; `start` is where the stream's output begins. Returns the new
/// position and whether a symbol stopped the loop.
#[inline(always)]
fn fast_steps(
    r: &mut BitReader<'_>,
    buf: &mut [u8],
    mut pos: usize,
    end: usize,
    start: usize,
    lit: &LutDecoder,
    dist: &LutDecoder,
) -> (usize, bool) {
    while pos <= end && r.has_word() {
        r.refill_word();
        let bits = r.bits();
        let e = lit.lookup(bits);
        let len = entry_len(e);
        if e & (LITERAL | DOUBLE) != 0 {
            // Up to two more literal entries from the same refill: each
            // takes at most 15 of the 56 bits, and the three write at most
            // 6 bytes (plus a zero) into an 8-byte window at `pos`.
            let window: &mut [u8; 8] = (&mut buf[pos..pos + 8])
                .try_into()
                .expect("slice of 8 bytes");
            let mut n = put_literals(window, 0, e);
            r.consume(len);
            for _ in 0..2 {
                let e = lit.lookup(r.bits());
                if e & (LITERAL | DOUBLE) == 0 {
                    break;
                }
                n = put_literals(window, n, e);
                r.consume(entry_len(e));
            }
            pos += n;
            continue;
        }
        if e & (END_OF_BLOCK | INVALID | LONG) != 0 || len == 0 {
            return (pos, true);
        }
        let extra = entry_extra(e);
        let mlen = (e & 0xFFFF) as usize + ((bits >> len) & low_mask(extra)) as usize;
        let used = len + extra;
        let de = dist.lookup(bits >> used);
        let dlen = entry_len(de);
        if de & (INVALID | LONG) != 0 || dlen == 0 {
            return (pos, true);
        }
        let dextra = entry_extra(de);
        let d = (de & 0xFFFF) as usize + ((bits >> (used + dlen)) & low_mask(dextra)) as usize;
        if d > pos - start {
            return (pos, true);
        }
        r.consume(used + dlen + dextra);
        copy_match(buf, pos, d, mlen);
        pos += mlen;
    }
    (pos, false)
}

/// Decode one symbol with every check in place: the reference semantics of
/// every outcome, and the only path near the end of the input or of the
/// output budget. Returns whether the block ended.
fn checked_step(
    r: &mut BitReader<'_>,
    sink: &mut Sink,
    lit: &LutDecoder,
    dist: &LutDecoder,
) -> Result<bool> {
    let e = lit.read_entry(r)?.raw();
    if e & DOUBLE != 0 {
        if sink.room() < 2 {
            return Err(sink.too_large());
        }
        sink.reserve(2);
        sink.buf[sink.pos] = e as u8;
        sink.buf[sink.pos + 1] = (e >> 8) as u8;
        sink.pos += 2;
    } else if e & LITERAL != 0 {
        if sink.room() < 1 {
            return Err(sink.too_large());
        }
        sink.reserve(1);
        sink.buf[sink.pos] = e as u8;
        sink.pos += 1;
    } else if e & END_OF_BLOCK != 0 {
        return Ok(true);
    } else if e & INVALID != 0 {
        return Err(DeflateError::Corrupt("invalid literal/length symbol"));
    } else {
        let len = (e & 0xFFFF) as usize + r.read_bits(entry_extra(e))? as usize;
        let de = dist.read_entry(r)?.raw();
        if de & INVALID != 0 {
            return Err(DeflateError::Corrupt("invalid distance code"));
        }
        let d = (de & 0xFFFF) as usize + r.read_bits(entry_extra(de))? as usize;
        if d > sink.written() {
            return Err(DeflateError::Corrupt("distance beyond output start"));
        }
        if sink.room() < len {
            return Err(sink.too_large());
        }
        sink.reserve(len);
        copy_match(&mut sink.buf, sink.pos, d, len);
        sink.pos += len;
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::{deflate_compress, CompressionLevel};

    #[test]
    fn inflate_known_fixed_block() {
        // A hand-checkable stream: compress then immediately decode.
        let data = b"aaaaaaaaaaaaaaaaaaaaaaaabbbb";
        let packed = deflate_compress(data, CompressionLevel::Default);
        assert_eq!(inflate(&packed).unwrap(), data);
    }

    #[test]
    fn rejects_reserved_block_type() {
        // BFINAL=1, BTYPE=11.
        let stream = [0b0000_0111u8];
        assert_eq!(
            inflate(&stream),
            Err(DeflateError::Corrupt("reserved block type 11"))
        );
    }

    #[test]
    fn rejects_bad_stored_nlen() {
        // BFINAL=1, BTYPE=00, aligned; LEN=1, NLEN=wrong, one byte payload.
        let stream = [0b0000_0001u8, 0x01, 0x00, 0x00, 0x00, 0xAA];
        assert!(matches!(inflate(&stream), Err(DeflateError::Corrupt(_))));
    }

    #[test]
    fn rejects_distance_past_start() {
        // Build a valid stream then tamper is fiddly; instead decode a fixed
        // block that immediately references distance 1 with no history.
        // Fixed code for length 257+0 (sym 257, 7 bits: 0000001) and distance
        // code 0 (5 bits). Construct via encoder for reliability, then check
        // decoding a *crafted* stream errors. Simplest: stream of a single
        // match at the very beginning produced by hand.
        use crate::bitio::BitWriter;
        use crate::huffman::Encoder;
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(0b01, 2); // fixed
        let lit = Encoder::from_lengths(&crate::deflate::fixed_lit_lengths());
        let dist = Encoder::from_lengths(&crate::deflate::fixed_dist_lengths());
        lit.write(&mut w, 257); // length 3, no extra
        dist.write(&mut w, 0); // distance 1 — but output is empty
        lit.write(&mut w, 256);
        let stream = w.finish();
        assert_eq!(
            inflate(&stream),
            Err(DeflateError::Corrupt("distance beyond output start"))
        );
    }

    #[test]
    fn truncated_dynamic_header() {
        let data = b"dynamic header please ".repeat(50);
        let packed = deflate_compress(&data, CompressionLevel::Default);
        // Cut inside the header.
        assert!(inflate(&packed[..3]).is_err());
    }

    #[test]
    fn empty_stored_block() {
        let packed = deflate_compress(&[], CompressionLevel::Store);
        assert_eq!(inflate(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn multi_block_concatenation() {
        let data: Vec<u8> = (0..200_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let packed = deflate_compress(&data, CompressionLevel::Fast);
        assert_eq!(inflate(&packed).unwrap(), data);
    }

    #[test]
    fn consumed_reports_exact_stream_length() {
        let data = b"consumed length probe ".repeat(40);
        let packed = deflate_compress(&data, CompressionLevel::Default);
        // Append trailing garbage; the decoder must stop at the real end.
        let mut padded = packed.clone();
        padded.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
        let (out, used) = inflate_consumed(&padded).unwrap();
        assert_eq!(out, data);
        assert_eq!(used, packed.len());
    }

    #[test]
    fn overlapping_copy_rle() {
        let data = vec![9u8; 1000];
        let packed = deflate_compress(&data, CompressionLevel::Best);
        assert_eq!(inflate(&packed).unwrap(), data);
    }

    #[test]
    fn bounded_inflate_accepts_exact_fit() {
        let data = b"bounded but legal".repeat(100);
        let packed = deflate_compress(&data, CompressionLevel::Default);
        assert_eq!(inflate_bounded(&packed, data.len()).unwrap(), data);
    }

    #[test]
    fn bounded_inflate_trips_on_rle_bomb() {
        // ~1000:1 bomb: a megabyte of zeros packs into ~1 KiB. The bound
        // must trip without materializing more than `cap` bytes.
        let data = vec![0u8; 1 << 20];
        let packed = deflate_compress(&data, CompressionLevel::Best);
        assert!(packed.len() < 8192, "bomb input is {} bytes", packed.len());
        for cap in [0usize, 1, 100, data.len() - 1] {
            assert_eq!(
                inflate_bounded(&packed, cap),
                Err(DeflateError::TooLarge { limit: cap }),
                "cap {cap}"
            );
        }
    }

    /// Decode through the fast loop and through the checked step alone.
    fn both_loops(data: &[u8], max_out: usize) -> [Result<(Vec<u8>, usize)>; 2] {
        let run = |fast: bool| {
            let mut out = Sink::new();
            let used = if fast {
                inflate_stream::<true>(data, &mut out, max_out)
            } else {
                inflate_stream::<false>(data, &mut out, max_out)
            };
            used.map(|n| (out.into_vec(), n))
        };
        [run(true), run(false)]
    }

    #[test]
    fn stored_block_between_huffman_blocks() {
        // A fixed block long enough for word refills, a stored block, then a
        // compressed block: the stored block's raw bytes start inside a
        // refilled accumulator, so `read_bytes` drains buffered bytes before
        // copying.
        use crate::bitio::BitWriter;
        use crate::huffman::Encoder;
        let lit = Encoder::from_lengths(&fixed_lit_lengths());
        let mut w = BitWriter::new();
        w.write_bits(0, 1); // not final
        w.write_bits(0b01, 2); // fixed
        let head: Vec<u8> = (0..300u32).map(|i| (i * 7 % 251) as u8).collect();
        for &b in &head {
            lit.write(&mut w, usize::from(b));
        }
        lit.write(&mut w, 256);
        w.write_bits(0, 1); // not final
        w.write_bits(0b00, 2); // stored
        w.align_to_byte();
        let raw: Vec<u8> = (0..77u8).collect();
        w.write_bytes(&(raw.len() as u16).to_le_bytes());
        w.write_bytes(&(!(raw.len() as u16)).to_le_bytes());
        w.write_bytes(&raw);
        let tail = b"a dynamic block to finish, a dynamic block to finish".repeat(20);
        let mut stream = w.finish();
        stream.extend_from_slice(&deflate_compress(&tail, CompressionLevel::Default));
        let mut expect = head;
        expect.extend_from_slice(&raw);
        expect.extend_from_slice(&tail);
        for got in both_loops(&stream, usize::MAX) {
            let (out, used) = got.unwrap();
            assert_eq!(out, expect);
            assert_eq!(used, stream.len());
        }
        // Cut anywhere, both loops fail the same way.
        for cut in 0..stream.len() {
            let [fast, checked] = both_loops(&stream[..cut], usize::MAX);
            assert_eq!(fast, checked, "cut {cut}");
            assert!(fast.is_err(), "cut {cut}");
        }
    }

    /// Bytes that compress to every block type: runs, a small alphabet and
    /// noise.
    fn mixed(seed: u64, n: usize) -> Vec<u8> {
        let mut s = seed | 1;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let run = 1 + (s >> 40) as usize % 300;
            match s % 3 {
                0 => out.extend(std::iter::repeat_n((s >> 8) as u8, run)),
                1 => out.extend((0..run).map(|i| (i % 7) as u8)),
                _ => out.extend((0..run).map(|i| (s >> (i % 56)) as u8)),
            }
        }
        out.truncate(n);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn fast_and_checked_loops_agree(seed in proptest::prelude::any::<u64>()) {
            let n = (seed >> 48) as usize % 40_000;
            let data = mixed(seed, n);
            for level in [
                CompressionLevel::Store,
                CompressionLevel::Fast,
                CompressionLevel::Default,
                CompressionLevel::Best,
            ] {
                let packed = deflate_compress(&data, level);
                // Unbounded, exact, one byte short, and a bound that trips
                // mid-stream, where the fast loop runs.
                for max_out in [usize::MAX, data.len(), data.len().saturating_sub(1), data.len() / 2] {
                    let [fast, checked] = both_loops(&packed, max_out);
                    proptest::prop_assert_eq!(&fast, &checked);
                    if max_out >= data.len() {
                        proptest::prop_assert_eq!(fast.unwrap().0, data.clone());
                    }
                }
                // Byte-mutated streams: the same bytes or the same error.
                let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
                for _ in 0..16 {
                    if packed.is_empty() {
                        break;
                    }
                    let mut bad = packed.clone();
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    let at = (s >> 8) as usize % bad.len();
                    bad[at] ^= 1 + (s as u8 % 255);
                    let [fast, checked] = both_loops(&bad, data.len() + 1000);
                    proptest::prop_assert_eq!(fast, checked);
                }
            }
        }
    }

    #[test]
    fn bounded_inflate_trips_on_stored_blocks() {
        // Stored blocks take the other write path; cap must apply there too.
        let mut s = 1u64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 33) as u8
            })
            .collect();
        let packed = deflate_compress(&data, CompressionLevel::Store);
        assert!(matches!(
            inflate_bounded(&packed, 10),
            Err(DeflateError::TooLarge { limit: 10 })
        ));
        assert_eq!(inflate_bounded(&packed, data.len()).unwrap(), data);
    }
}
