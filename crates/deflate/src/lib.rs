//! # dpz-deflate
//!
//! A from-scratch implementation of the DEFLATE compressed data format
//! (RFC 1951) and the zlib container (RFC 1950), replacing the `zlib`
//! dependency the DPZ paper uses as its final lossless stage.
//!
//! Pipeline:
//!
//! * [`lz77`] — hash-chain string matching with one-step lazy evaluation
//!   (window 32 KiB, matches 3..=258 bytes),
//! * [`huffman`] — canonical, length-limited Huffman code construction, the
//!   bounded table decoder every decode path uses, and the bit-walk
//!   reference it is tested against,
//! * [`deflate`] — block encoder choosing per block between *stored*, *fixed
//!   Huffman* and *dynamic Huffman* representations,
//! * [`inflate`] — the full decoder,
//! * [`zlib`] — header/Adler-32 framing plus the top-level
//!   [`compress`]/[`decompress`] entry points,
//! * [`tans`] — an interleaved tabled-ANS coder, the alternative entropy
//!   backend for DPZ container sections (no string matcher, near-entropy
//!   rates on skewed index streams, branch-free decode loop).
//!
//! The API mirrors what DPZ needs: compress a byte buffer, get the bytes
//! back verbatim. Round-trip fidelity is enforced by unit tests in every
//! module and by property tests over arbitrary inputs.

#![warn(missing_docs)]

pub mod bitio;
pub mod crc32;
pub mod deflate;
pub mod huffman;
pub mod inflate;
pub mod lz77;
pub mod tans;
pub mod zlib;

pub use crc32::crc32;
pub use deflate::CompressionLevel;
pub use zlib::{compress, compress_parallel, compress_with_level, decompress, decompress_bounded};

/// Errors produced while decoding a compressed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeflateError {
    /// The input ended in the middle of a structure.
    UnexpectedEof,
    /// A block header, code or symbol violated the format.
    Corrupt(&'static str),
    /// The zlib header is malformed or uses an unsupported method.
    BadHeader,
    /// The decompressed output would exceed the caller's declared bound —
    /// the decompression-bomb guard (see [`inflate::inflate_bounded`]).
    TooLarge {
        /// The output cap that was exceeded.
        limit: usize,
    },
    /// The Adler-32 checksum of the decompressed data does not match.
    ChecksumMismatch {
        /// Checksum stored in the stream trailer.
        expected: u32,
        /// Checksum computed over the decoded bytes.
        actual: u32,
    },
}

impl std::fmt::Display for DeflateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeflateError::UnexpectedEof => write!(f, "unexpected end of compressed input"),
            DeflateError::Corrupt(what) => write!(f, "corrupt deflate stream: {what}"),
            DeflateError::BadHeader => write!(f, "bad zlib header"),
            DeflateError::TooLarge { limit } => {
                write!(
                    f,
                    "decompressed output exceeds the declared bound of {limit} bytes"
                )
            }
            DeflateError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "adler32 mismatch: stored {expected:#010x}, computed {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for DeflateError {}

/// Result alias for decode paths.
pub type Result<T> = std::result::Result<T, DeflateError>;

#[cfg(test)]
mod roundtrip_tests {
    use super::*;

    fn cases() -> Vec<Vec<u8>> {
        let mut v: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![42; 1],
            b"hello world".to_vec(),
            vec![0; 100_000],
            (0..=255u8).collect(),
            (0..50_000).map(|i| (i % 256) as u8).collect(),
            b"abcabcabcabcabcabcabcabcabcabc".to_vec(),
        ];
        // Pseudo-random hard-to-compress payload.
        let mut s = 0x12345678u64;
        v.push(
            (0..30_000)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s >> 24) as u8
                })
                .collect(),
        );
        // Text-like payload.
        v.push(
            "the quick brown fox jumps over the lazy dog. "
                .repeat(500)
                .into_bytes(),
        );
        v
    }

    #[test]
    fn compress_decompress_identity() {
        for (i, case) in cases().iter().enumerate() {
            let packed = compress(case);
            let unpacked = decompress(&packed).unwrap_or_else(|e| panic!("case {i}: {e}"));
            assert_eq!(&unpacked, case, "case {i} round trip failed");
        }
    }

    #[test]
    fn all_levels_round_trip() {
        let data = "abcdefg".repeat(4000).into_bytes();
        for level in [
            CompressionLevel::Store,
            CompressionLevel::Fast,
            CompressionLevel::Default,
            CompressionLevel::Best,
        ] {
            let packed = compress_with_level(&data, level);
            assert_eq!(decompress(&packed).unwrap(), data, "{level:?}");
        }
    }

    #[test]
    fn repetitive_data_actually_compresses() {
        let data = vec![7u8; 65_536];
        let packed = compress(&data);
        assert!(
            packed.len() < data.len() / 50,
            "constant data should compress >50x, got {} -> {}",
            data.len(),
            packed.len()
        );
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let packed = compress(b"some reasonably long input to compress");
        for cut in [0, 1, 2, packed.len() / 2, packed.len() - 1] {
            assert!(decompress(&packed[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn corrupted_checksum_detected() {
        let mut packed = compress(b"checksum guard");
        let n = packed.len();
        packed[n - 1] ^= 0xFF;
        match decompress(&packed) {
            Err(DeflateError::ChecksumMismatch { .. }) | Err(DeflateError::Corrupt(_)) => {}
            other => panic!("expected checksum/corrupt error, got {other:?}"),
        }
    }
}
