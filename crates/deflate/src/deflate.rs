//! DEFLATE block encoder (RFC 1951).
//!
//! The input is tokenized once with [`crate::lz77`]; tokens are then grouped
//! into blocks (each covering at most 64 KiB of raw bytes so a *stored*
//! fallback is always representable) and each block is emitted in whichever
//! of the three representations is smallest: stored, fixed Huffman, or
//! dynamic Huffman with the RLE-compressed code-length header.

use crate::bitio::BitWriter;
use crate::huffman::{build_code_lengths, Encoder, MAX_BITS};
use crate::lz77::{tokenize, MatchParams, Token};

/// Compression effort presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionLevel {
    /// No compression: stored blocks only.
    Store,
    /// Short hash chains, greedy matching.
    Fast,
    /// zlib-like default effort.
    Default,
    /// Maximum effort (long chains, lazy matching).
    Best,
}

/// Length code table: lengths 3..=258 map to codes 257..=285 with extra bits.
pub(crate) const LENGTH_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
pub(crate) const LENGTH_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];

/// Distance code table: distances 1..=32768 map to codes 0..=29.
pub(crate) const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
pub(crate) const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Transmission order of the code-length-code lengths (RFC 1951 §3.2.7).
pub(crate) const CLC_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// End-of-block symbol in the literal/length alphabet.
const EOB: usize = 256;
/// Maximum bytes a single block may cover (stored LEN is 16-bit).
const MAX_BLOCK_BYTES: usize = 65_535;

/// `LENGTH_CODE[len]`: the length code offset (0..=28) of match length
/// `len` (3..=258), the last `LENGTH_BASE` entry not above `len`.
const LENGTH_CODE: [u8; 259] = {
    let mut table = [0u8; 259];
    let (mut len, mut code) = (3usize, 0usize);
    while len <= 258 {
        while code + 1 < LENGTH_BASE.len() && LENGTH_BASE[code + 1] as usize <= len {
            code += 1;
        }
        table[len] = code as u8;
        len += 1;
    }
    table
};

/// Distance codes indexed as zlib's `d_code` does: `dist − 1` below 256
/// directly, larger ones by `256 + ((dist − 1) >> 7)`. Every code from 16
/// up starts at a multiple of 128 plus one, so each 128-distance stretch
/// above 256 shares one code.
const DIST_CODE: [u8; 512] = {
    let mut table = [0u8; 512];
    let mut i = 0usize;
    while i < 512 {
        // The smallest distance this slot stands for.
        let dist = if i < 256 { i + 1 } else { ((i - 256) << 7) + 1 };
        let mut code = 0usize;
        while code + 1 < DIST_BASE.len() && DIST_BASE[code + 1] as usize <= dist {
            code += 1;
        }
        table[i] = code as u8;
        i += 1;
    }
    table
};

/// Map a match length (3..=258) to `(code offset 0..28, extra value, extra bits)`.
#[inline]
pub(crate) fn length_symbol(len: usize) -> (usize, u32, u8) {
    debug_assert!((3..=258).contains(&len));
    let idx = usize::from(LENGTH_CODE[len]);
    let extra = (len as u16 - LENGTH_BASE[idx]) as u32;
    (idx, extra, LENGTH_EXTRA[idx])
}

/// Map a distance (1..=32768) to `(dist code, extra value, extra bits)`.
#[inline]
pub(crate) fn dist_symbol(dist: usize) -> (usize, u32, u8) {
    debug_assert!((1..=32768).contains(&dist));
    let d = dist - 1;
    let idx = usize::from(if d < 256 {
        DIST_CODE[d]
    } else {
        DIST_CODE[256 + (d >> 7)]
    });
    let extra = (dist as u16 - DIST_BASE[idx]) as u32;
    (idx, extra, DIST_EXTRA[idx])
}

/// Fixed literal/length code lengths (RFC 1951 §3.2.6).
pub(crate) fn fixed_lit_lengths() -> Vec<u8> {
    let mut l = vec![8u8; 288];
    for v in l.iter_mut().take(256).skip(144) {
        *v = 9;
    }
    for v in l.iter_mut().take(280).skip(256) {
        *v = 7;
    }
    l
}

/// Fixed distance code lengths: all 5 bits.
pub(crate) fn fixed_dist_lengths() -> Vec<u8> {
    vec![5u8; 30]
}

/// Compress `data` into a raw DEFLATE stream.
pub fn deflate_compress(data: &[u8], level: CompressionLevel) -> Vec<u8> {
    let mut w = BitWriter::new();
    match level {
        CompressionLevel::Store => {
            write_stored_blocks(&mut w, data);
        }
        _ => {
            let params = match level {
                CompressionLevel::Fast => MatchParams::fast(),
                CompressionLevel::Best => MatchParams::best(),
                _ => MatchParams::default_level(),
            };
            let tokens = tokenize(data, &params);
            write_token_blocks(&mut w, data, &tokens);
        }
    }
    w.finish()
}

/// Emit the whole input as stored blocks (always at least one, so empty
/// input still produces a valid final block).
fn write_stored_blocks(w: &mut BitWriter, data: &[u8]) {
    let mut chunks: Vec<&[u8]> = data.chunks(MAX_BLOCK_BYTES).collect();
    if chunks.is_empty() {
        chunks.push(&[]);
    }
    let last = chunks.len() - 1;
    for (i, chunk) in chunks.into_iter().enumerate() {
        write_stored_block(w, chunk, i == last);
    }
}

fn write_stored_block(w: &mut BitWriter, bytes: &[u8], bfinal: bool) {
    w.write_bits(bfinal as u32, 1);
    w.write_bits(0b00, 2); // BTYPE = stored
    w.align_to_byte();
    let len = bytes.len() as u16;
    w.write_bytes(&len.to_le_bytes());
    w.write_bytes(&(!len).to_le_bytes());
    w.write_bytes(bytes);
}

/// A contiguous run of tokens plus the byte span of input it covers.
struct BlockSlice<'t> {
    tokens: &'t [Token],
    byte_start: usize,
    byte_end: usize,
}

/// Group tokens into blocks covering at most `MAX_BLOCK_BYTES` each.
fn split_blocks<'t>(tokens: &'t [Token]) -> Vec<BlockSlice<'t>> {
    let mut blocks = Vec::new();
    let mut start_tok = 0usize;
    let mut start_byte = 0usize;
    let mut byte = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        let tlen = match t {
            Token::Literal(_) => 1,
            Token::Match { len, .. } => *len as usize,
        };
        if byte + tlen - start_byte > MAX_BLOCK_BYTES {
            blocks.push(BlockSlice {
                tokens: &tokens[start_tok..i],
                byte_start: start_byte,
                byte_end: byte,
            });
            start_tok = i;
            start_byte = byte;
        }
        byte += tlen;
    }
    blocks.push(BlockSlice {
        tokens: &tokens[start_tok..],
        byte_start: start_byte,
        byte_end: byte,
    });
    blocks
}

fn write_token_blocks(w: &mut BitWriter, data: &[u8], tokens: &[Token]) {
    let blocks = split_blocks(tokens);
    let last = blocks.len() - 1;
    for (i, block) in blocks.iter().enumerate() {
        write_best_block(w, data, block, i == last);
    }
}

/// Histogram of literal/length and distance symbols for a token run.
struct Histogram {
    lit: [u64; 288],
    dist: [u64; 30],
    /// Total extra bits required by the matches themselves.
    extra_bits: u64,
}

fn histogram(tokens: &[Token]) -> Histogram {
    let mut h = Histogram {
        lit: [0; 288],
        dist: [0; 30],
        extra_bits: 0,
    };
    // Literals dominate DPZ token streams (quantized indices rarely repeat
    // at match length), so batch them through the unrolled multi-table
    // byte-histogram kernel instead of bumping one counter per token.
    let mut batch = [0u8; 1024];
    let mut n = 0usize;
    let flush = |h: &mut Histogram, bytes: &[u8]| {
        let lit: &mut [u64; 256] = (&mut h.lit[..256]).try_into().expect("256-entry prefix");
        dpz_kernels::checksum::byte_histogram(bytes, lit);
    };
    for t in tokens {
        match *t {
            Token::Literal(b) => {
                batch[n] = b;
                n += 1;
                if n == batch.len() {
                    flush(&mut h, &batch);
                    n = 0;
                }
            }
            Token::Match { len, dist } => {
                let (lc, _, le) = length_symbol(len as usize);
                let (dc, _, de) = dist_symbol(dist as usize);
                h.lit[257 + lc] += 1;
                h.dist[dc] += 1;
                h.extra_bits += u64::from(le) + u64::from(de);
            }
        }
    }
    if n > 0 {
        flush(&mut h, &batch[..n]);
    }
    h.lit[EOB] += 1;
    h
}

/// Cost in bits of coding the histogram with the given tables.
fn body_cost(h: &Histogram, lit_len: &[u8], dist_len: &[u8]) -> u64 {
    let mut bits = h.extra_bits;
    // The tables may be trimmed to the last used symbol, so only index them
    // for symbols that actually occur.
    for (sym, &f) in h.lit.iter().enumerate() {
        if f > 0 {
            bits += f * u64::from(lit_len[sym]);
        }
    }
    for (sym, &f) in h.dist.iter().enumerate() {
        if f > 0 {
            bits += f * u64::from(dist_len[sym]);
        }
    }
    bits
}

/// RLE-compress the concatenated code-length sequence using symbols 16/17/18
/// (RFC 1951 §3.2.7). Returns `(symbol, extra value, extra bits)` triples.
fn rle_code_lengths(lengths: &[u8]) -> Vec<(u8, u32, u8)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < lengths.len() {
        let v = lengths[i];
        let mut run = 1usize;
        while i + run < lengths.len() && lengths[i + run] == v {
            run += 1;
        }
        if v == 0 {
            let mut left = run;
            while left >= 11 {
                let take = left.min(138);
                out.push((18, (take - 11) as u32, 7));
                left -= take;
            }
            if left >= 3 {
                out.push((17, (left - 3) as u32, 3));
                left = 0;
            }
            for _ in 0..left {
                out.push((0, 0, 0));
            }
        } else {
            out.push((v, 0, 0));
            let mut left = run - 1;
            while left >= 3 {
                let take = left.min(6);
                out.push((16, (take - 3) as u32, 2));
                left -= take;
            }
            for _ in 0..left {
                out.push((v, 0, 0));
            }
        }
        i += run;
    }
    out
}

/// Everything needed to emit a dynamic-Huffman block, plus its exact bit cost.
struct DynamicPlan {
    lit_lengths: Vec<u8>,
    dist_lengths: Vec<u8>,
    rle: Vec<(u8, u32, u8)>,
    clc_lengths: Vec<u8>,
    hclen: usize,
    header_bits: u64,
}

fn plan_dynamic(h: &Histogram) -> DynamicPlan {
    let lit_lengths_full = build_code_lengths(&h.lit, MAX_BITS);
    let dist_lengths_full = build_code_lengths(&h.dist, MAX_BITS);

    // Trim trailing zeros, respecting the minimum counts (257 lit, 1 dist).
    let hlit = lit_lengths_full
        .iter()
        .rposition(|&l| l > 0)
        .map(|p| p + 1)
        .unwrap_or(0)
        .max(257);
    let hdist = dist_lengths_full
        .iter()
        .rposition(|&l| l > 0)
        .map(|p| p + 1)
        .unwrap_or(0)
        .max(1);
    let lit_lengths = lit_lengths_full[..hlit].to_vec();
    let dist_lengths = dist_lengths_full[..hdist].to_vec();

    // RLE over the concatenated sequence.
    let mut all = lit_lengths.clone();
    all.extend_from_slice(&dist_lengths);
    let rle = rle_code_lengths(&all);

    // Code-length-code table over the 19 RLE symbols (max 7 bits).
    let mut clc_freq = [0u64; 19];
    for &(sym, _, _) in &rle {
        clc_freq[sym as usize] += 1;
    }
    let clc_lengths = build_code_lengths(&clc_freq, 7);
    let hclen = CLC_ORDER
        .iter()
        .rposition(|&s| clc_lengths[s] > 0)
        .map(|p| p + 1)
        .unwrap_or(0)
        .max(4);

    let mut header_bits = 5 + 5 + 4 + 3 * hclen as u64;
    for &(sym, _, eb) in &rle {
        header_bits += u64::from(clc_lengths[sym as usize]) + u64::from(eb);
    }
    DynamicPlan {
        lit_lengths,
        dist_lengths,
        rle,
        clc_lengths,
        hclen,
        header_bits,
    }
}

fn write_best_block(w: &mut BitWriter, data: &[u8], block: &BlockSlice<'_>, bfinal: bool) {
    let h = histogram(block.tokens);
    let plan = plan_dynamic(&h);

    let fixed_lit = fixed_lit_lengths();
    let fixed_dist = fixed_dist_lengths();
    let cost_fixed = 3 + body_cost(&h, &fixed_lit, &fixed_dist);
    let cost_dynamic = 3 + plan.header_bits + body_cost(&h, &plan.lit_lengths, &plan.dist_lengths);
    let raw = &data[block.byte_start..block.byte_end];
    // Stored: header + alignment (worst case 7 bits) + 32-bit LEN/NLEN + body.
    let cost_stored = 3 + 7 + 32 + 8 * raw.len() as u64;

    if cost_stored < cost_fixed && cost_stored < cost_dynamic {
        write_stored_block(w, raw, bfinal);
        return;
    }
    w.write_bits(bfinal as u32, 1);
    if cost_fixed <= cost_dynamic {
        w.write_bits(0b01, 2); // BTYPE = fixed
        let lit_enc = Encoder::from_lengths(&fixed_lit);
        let dist_enc = Encoder::from_lengths(&fixed_dist);
        write_block_body(w, block.tokens, &lit_enc, &dist_enc);
    } else {
        w.write_bits(0b10, 2); // BTYPE = dynamic
        w.write_bits((plan.lit_lengths.len() - 257) as u32, 5);
        w.write_bits((plan.dist_lengths.len() - 1) as u32, 5);
        w.write_bits((plan.hclen - 4) as u32, 4);
        for &s in CLC_ORDER.iter().take(plan.hclen) {
            w.write_bits(u32::from(plan.clc_lengths[s]), 3);
        }
        let clc_enc = Encoder::from_lengths(&plan.clc_lengths);
        for &(sym, extra, eb) in &plan.rle {
            clc_enc.write(w, sym as usize);
            if eb > 0 {
                w.write_bits(extra, u32::from(eb));
            }
        }
        let lit_enc = Encoder::from_lengths(&plan.lit_lengths);
        let dist_enc = Encoder::from_lengths(&plan.dist_lengths);
        write_block_body(w, block.tokens, &lit_enc, &dist_enc);
    }
}

fn write_block_body(w: &mut BitWriter, tokens: &[Token], lit: &Encoder, dist: &Encoder) {
    for t in tokens {
        match *t {
            Token::Literal(b) => lit.write(w, b as usize),
            Token::Match { len, dist: d } => {
                let (lc, lx, le) = length_symbol(len as usize);
                lit.write(w, 257 + lc);
                if le > 0 {
                    w.write_bits(lx, u32::from(le));
                }
                let (dc, dx, de) = dist_symbol(d as usize);
                dist.write(w, dc);
                if de > 0 {
                    w.write_bits(dx, u32::from(de));
                }
            }
        }
    }
    lit.write(w, EOB);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inflate::inflate;

    fn roundtrip(data: &[u8], level: CompressionLevel) -> Vec<u8> {
        let packed = deflate_compress(data, level);
        let out = inflate(&packed).expect("inflate failed");
        assert_eq!(out, data);
        packed
    }

    #[test]
    fn length_symbol_boundaries() {
        assert_eq!(length_symbol(3), (0, 0, 0));
        assert_eq!(length_symbol(10), (7, 0, 0));
        assert_eq!(length_symbol(11), (8, 0, 1));
        assert_eq!(length_symbol(12), (8, 1, 1));
        assert_eq!(length_symbol(257), (27, 30, 5));
        assert_eq!(length_symbol(258), (28, 0, 0));
    }

    #[test]
    fn dist_symbol_boundaries() {
        assert_eq!(dist_symbol(1), (0, 0, 0));
        assert_eq!(dist_symbol(4), (3, 0, 0));
        assert_eq!(dist_symbol(5), (4, 0, 1));
        assert_eq!(dist_symbol(6), (4, 1, 1));
        assert_eq!(dist_symbol(32768), (29, 8191, 13));
    }

    #[test]
    fn code_tables_match_a_base_search_everywhere() {
        // The search the tables replaced: the last base not above the value.
        let search = |bases: &[u16], v: usize| match bases.binary_search(&(v as u16)) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        for len in 3..=258 {
            let idx = search(&LENGTH_BASE, len);
            let want = (
                idx,
                (len - LENGTH_BASE[idx] as usize) as u32,
                LENGTH_EXTRA[idx],
            );
            assert_eq!(length_symbol(len), want, "length {len}");
        }
        for dist in 1..=32768 {
            let idx = search(&DIST_BASE, dist);
            let want = (
                idx,
                (dist - DIST_BASE[idx] as usize) as u32,
                DIST_EXTRA[idx],
            );
            assert_eq!(dist_symbol(dist), want, "distance {dist}");
        }
    }

    #[test]
    fn rle_handles_long_zero_runs() {
        let mut lens = vec![0u8; 150];
        lens.push(5);
        let rle = rle_code_lengths(&lens);
        // 150 zeros = one 138-run + one 12-run (or equivalent), then the 5.
        let zeros: usize = rle
            .iter()
            .map(|&(s, x, _)| match s {
                18 => 11 + x as usize,
                17 => 3 + x as usize,
                0 => 1,
                _ => 0,
            })
            .sum();
        assert_eq!(zeros, 150);
        assert_eq!(rle.last().unwrap().0, 5);
    }

    #[test]
    fn rle_handles_value_repeats() {
        let lens = vec![7u8; 10];
        let rle = rle_code_lengths(&lens);
        assert_eq!(rle[0].0, 7);
        let repeated: usize = rle
            .iter()
            .map(|&(s, x, _)| match s {
                16 => 3 + x as usize,
                7 => 1,
                _ => 0,
            })
            .sum();
        assert_eq!(repeated, 10);
    }

    #[test]
    fn stored_only_level() {
        let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        let packed = roundtrip(&data, CompressionLevel::Store);
        // Stored framing adds ~5 bytes per 64 KiB block.
        assert!(packed.len() >= data.len());
        assert!(packed.len() < data.len() + 64);
    }

    #[test]
    fn empty_input_valid_stream() {
        roundtrip(&[], CompressionLevel::Default);
        roundtrip(&[], CompressionLevel::Store);
    }

    #[test]
    fn single_byte() {
        roundtrip(&[0x42], CompressionLevel::Default);
    }

    #[test]
    fn text_compresses_well() {
        let data = "incompressible is a strange word for compressors. "
            .repeat(200)
            .into_bytes();
        let packed = roundtrip(&data, CompressionLevel::Default);
        assert!(
            packed.len() * 5 < data.len(),
            "{} -> {}",
            data.len(),
            packed.len()
        );
    }

    #[test]
    fn random_data_falls_back_near_stored() {
        let mut s = 424242u64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 17) as u8
            })
            .collect();
        let packed = roundtrip(&data, CompressionLevel::Default);
        // Must not blow up on incompressible input.
        assert!(packed.len() < data.len() + 1024);
    }

    #[test]
    fn multi_block_input() {
        // > 64 KiB of compressible data forces multiple blocks.
        let data = b"0123456789abcdef".repeat(20_000);
        roundtrip(&data, CompressionLevel::Fast);
        roundtrip(&data, CompressionLevel::Best);
    }

    #[test]
    fn fixed_tables_match_rfc_shape() {
        let lit = fixed_lit_lengths();
        assert_eq!(lit[0], 8);
        assert_eq!(lit[143], 8);
        assert_eq!(lit[144], 9);
        assert_eq!(lit[255], 9);
        assert_eq!(lit[256], 7);
        assert_eq!(lit[279], 7);
        assert_eq!(lit[280], 8);
        assert_eq!(lit[287], 8);
        assert!(fixed_dist_lengths().iter().all(|&l| l == 5));
    }
}
