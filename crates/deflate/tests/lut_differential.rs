//! Differential properties: the table decoder (`LutDecoder`) against the
//! canonical bit walk (`Decoder`) it replaced, on shared inputs. For every
//! code-length set both must build or both must refuse with the same error,
//! and on every bitstream — valid, truncated or garbage — both must return
//! the same symbols and then the same error, call for call.
//!
//! Two alphabet shapes: DEFLATE's 288-symbol literal/length and 30-symbol
//! distance alphabets at up to 15 bits, and SZ's 64 Ki quantizer alphabets
//! at up to 24 bits, deep enough to reach the canonical walk behind the
//! subtables.

use dpz_deflate::bitio::{BitReader, BitWriter};
use dpz_deflate::huffman::{build_code_lengths, Decoder, Encoder, LutDecoder};
use proptest::prelude::*;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Frequencies over `alphabet` symbols, `used` of them present: a
/// Fibonacci-like run on a few symbols forces deep codes, the rest are
/// geometric around a random centre, the shape of a quantizer histogram.
fn frequencies(rng: &mut Rng, alphabet: usize, used: usize) -> Vec<u64> {
    let mut freqs = vec![0u64; alphabet];
    let centre = rng.below(alphabet as u64) as usize;
    for i in 0..used {
        let off = i / 2;
        let sym = if i % 2 == 0 {
            (centre + off) % alphabet
        } else {
            (centre + alphabet - off - 1) % alphabet
        };
        freqs[sym] = 1 + (1u64 << 20 >> off.min(20)) + rng.below(8);
    }
    let (mut a, mut b) = (1u64, 1u64);
    for _ in 0..rng.below(40) {
        let sym = rng.below(alphabet as u64) as usize;
        freqs[sym] = freqs[sym].max(a);
        let c = a.saturating_add(b);
        a = b;
        b = c;
    }
    freqs
}

/// A code-length set: complete, made incomplete by dropping symbols, or
/// random lengths (usually oversubscribed).
fn code_lengths(rng: &mut Rng, alphabet: usize, max_bits: usize) -> Vec<u8> {
    let used = 1 + rng.below(alphabet.min(4096) as u64) as usize;
    let freqs = frequencies(rng, alphabet, used);
    let mut lengths = build_code_lengths(&freqs, max_bits);
    match rng.below(4) {
        0 => {
            for l in lengths.iter_mut() {
                if *l > 0 && rng.below(4) == 0 {
                    *l = 0;
                }
            }
        }
        1 => {
            for l in lengths.iter_mut().take(64) {
                *l = rng.below(max_bits as u64 + 1) as u8;
            }
        }
        _ => {}
    }
    lengths
}

/// Symbols with a code, for building valid streams.
fn coded(lengths: &[u8]) -> Vec<usize> {
    (0..lengths.len()).filter(|&s| lengths[s] > 0).collect()
}

/// Decode `bytes` with both decoders until the first error (or `limit`
/// symbols) and require identical results call for call.
fn same_outcomes(walk: &Decoder, lut: &LutDecoder, bytes: &[u8], limit: usize) {
    let mut a = BitReader::new(bytes);
    let mut b = BitReader::new(bytes);
    for i in 0..limit {
        let x = walk.read(&mut a);
        let y = lut.read(&mut b);
        prop_assert_eq!(&x, &y, "symbol {}", i);
        if x.is_err() {
            return;
        }
    }
}

/// Build both decoders from `lengths` and run every stream shape through
/// them.
fn check(rng: &mut Rng, lengths: &[u8]) {
    let walk = Decoder::from_lengths(lengths);
    let lut = LutDecoder::from_lengths(lengths, false);
    prop_assert_eq!(walk.as_ref().err(), lut.as_ref().err());
    let (Ok(walk), Ok(lut)) = (walk, lut) else {
        return;
    };
    // Valid streams, decoded past their end into the zero padding.
    let syms = coded(lengths);
    let mut bytes = Vec::new();
    if !syms.is_empty() {
        let enc = Encoder::from_lengths(lengths);
        let mut w = BitWriter::new();
        let n = 1 + rng.below(2000) as usize;
        for _ in 0..n {
            let s = syms[rng.below(syms.len() as u64) as usize];
            enc.write(&mut w, s);
        }
        bytes = w.finish();
        same_outcomes(&walk, &lut, &bytes, n + 64);
        // Truncated at a random byte.
        let cut = rng.below(bytes.len() as u64 + 1) as usize;
        same_outcomes(&walk, &lut, &bytes[..cut], usize::MAX);
    }
    // Garbage, and a valid stream with a flipped byte.
    let garbage: Vec<u8> = (0..rng.below(512)).map(|_| rng.next() as u8).collect();
    same_outcomes(&walk, &lut, &garbage, usize::MAX);
    if !bytes.is_empty() {
        let at = rng.below(bytes.len() as u64) as usize;
        bytes[at] ^= 1 + rng.below(255) as u8;
        same_outcomes(&walk, &lut, &bytes, usize::MAX);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn deflate_alphabets_decode_like_the_walk(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        for alphabet in [288usize, 30, 19] {
            let lengths = code_lengths(&mut rng, alphabet, 15);
            check(&mut rng, &lengths);
        }
    }

    #[test]
    fn sz_alphabets_decode_like_the_walk(seed in any::<u64>()) {
        let mut rng = Rng(seed | 1);
        let lengths = code_lengths(&mut rng, 1 << 16, 24);
        check(&mut rng, &lengths);
    }
}

#[test]
fn deep_sz_codes_reach_the_walk_and_agree() {
    // A Fibonacci histogram over 64 symbols of a 64 Ki alphabet gives codes
    // up to the 24-bit limit: past the subtables, into the canonical walk.
    let mut freqs = vec![0u64; 1 << 16];
    let (mut a, mut b) = (1u64, 1u64);
    for i in 0..64 {
        freqs[1000 + 977 * i] = a;
        let c = a.saturating_add(b);
        a = b;
        b = c;
    }
    let lengths = build_code_lengths(&freqs, 24);
    assert_eq!(lengths.iter().copied().max(), Some(24));
    let mut rng = Rng(7);
    for _ in 0..20 {
        check(&mut rng, &lengths);
    }
}

#[test]
fn empty_and_oversized_codes_agree_with_the_walk() {
    // No codes at all: building works, every read fails the same way.
    let empty = vec![0u8; 300];
    check(&mut Rng(3), &empty);
    // Longer than the table decoder's 24-bit limit: refused at build.
    let mut deep = vec![0u8; 40];
    for (i, l) in deep.iter_mut().enumerate().take(26) {
        *l = (i + 1) as u8;
    }
    deep[26] = 26;
    assert!(Decoder::from_lengths(&deep).is_ok());
    assert!(LutDecoder::from_lengths(&deep, false).is_err());
}
