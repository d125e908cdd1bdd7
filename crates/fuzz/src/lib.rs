//! Deterministic, structure-aware corruption fuzzing for every DPZ decode
//! path.
//!
//! The decode-hardening contract says *no byte stream may panic, abort, or
//! force an outsized allocation in any decoder* — this crate is the
//! executable form of that contract. It needs no external fuzzing engine:
//! a seeded [`Xoshiro256`] drives a mutator that knows where the interesting
//! header fields live in each container format, so a few thousand iterations
//! reach the arithmetic-overflow and bomb paths that random byte noise
//! almost never hits.
//!
//! Mutation kinds (chosen per iteration):
//!
//! 1. **Truncation** at a random offset (header, directory, or payload).
//! 2. **Header-field substitution**: a known field offset is overwritten
//!    with an "interesting" integer (0, 1, powers of two, `u64::MAX/2`,
//!    `u64::MAX`, …) — the class that used to trigger `attempt to multiply
//!    with overflow` panics.
//! 3. **Cross-format splice**: the body of one format grafted behind
//!    another format's magic, and magic-swaps between formats.
//! 4. **Byte flips**: 1–8 random single-byte XORs anywhere in the stream.
//! 5. **Random garbage**: fresh random bytes, optionally behind a valid
//!    magic so parsing proceeds past the first check.
//! 6. **Backend-flag attack**: a v3 section's lossless-backend byte is
//!    swapped (Deflate ↔ tANS) or forged to an unknown id; non-v3 streams
//!    get the container version byte forged instead.
//! 7. **Footer attack**: a v4 DPZC stream's index footer is truncated, has
//!    an offset/length field forged (with the footer CRC recomputed so
//!    parsing reaches the field validation), gets its stored CRC flipped,
//!    or has footer records permuted. Streams without a v4 tail get their
//!    version byte forged instead.
//!
//! Every mutated stream is fed to the real decoder under
//! `std::panic::catch_unwind`; a panic fails the run with the format, seed
//! and iteration number so the case can be replayed exactly. Decoders are
//! allowed to *succeed* on a mutation (e.g. a flip inside an unchecked v1
//! payload) — the contract is "no panic", not "always reject".
//!
//! Run the bounded suite via `cargo test -p dpz-fuzz`; crank iterations with
//! the `DPZ_FUZZ_ITERS` environment variable (the CI fuzz-smoke job uses
//! 10 000 per format).

#![warn(missing_docs)]

use dpz_data::rng::Xoshiro256;
use dpz_deflate::crc32;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Every decode surface the repo ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// The single-stream DPZ1 container (`dpz_core::decompress`).
    Dpz,
    /// The DPZC chunked container (`dpz_core::decompress_chunked`).
    Chunked,
    /// The SZR1 predictor/Huffman container (`dpz_sz::decompress`).
    Sz,
    /// The ZFR1 bit-plane container (`dpz_zfp::decompress`).
    Zfp,
    /// A bare zlib stream (`dpz_deflate::decompress_bounded`).
    Zlib,
    /// A bare tANS stream (`dpz_deflate::tans::decompress_bounded`), the
    /// v3 container's alternative section backend.
    Tans,
}

impl Format {
    /// All fuzzed formats.
    pub const ALL: [Format; 6] = [
        Format::Dpz,
        Format::Chunked,
        Format::Sz,
        Format::Zfp,
        Format::Zlib,
        Format::Tans,
    ];

    /// Container magic, where the format has one.
    fn magic(self) -> &'static [u8] {
        match self {
            Format::Dpz => b"DPZ1",
            Format::Chunked => b"DPZC",
            Format::Sz => b"SZR1",
            Format::Zfp => b"ZFR1",
            Format::Zlib => &[0x78, 0x9C],
            // tANS streams carry no magic; the container's section flag
            // selects the decoder.
            Format::Tans => &[],
        }
    }

    /// Byte offsets of size-like header fields worth substituting. These are
    /// the fields whose arithmetic used to be unchecked; keeping the list in
    /// one place makes the mutator track format changes.
    fn field_offsets(self) -> &'static [usize] {
        match self {
            // magic(4) ver(1) ndims(1) dims(2×8) orig(8) m(8) n(8) pad(8)
            // norm(16) k(8) flags(2+8+2) model_raw(8) model_packed(8)
            Format::Dpz => &[6, 14, 22, 30, 38, 46, 70, 90, 98],
            // v4: magic(4) ver(1) ndims(1) dims(2×8) flags(1) streams…
            // The dims offsets are shared with the legacy v1/v2 layout
            // (count/lens live in the tail footer now — mutation kind 7
            // owns those); 22/30/38 land in the first chunk stream's own
            // header, which is a DPZ1/DPZP fixed header.
            Format::Chunked => &[6, 14, 22, 30, 38],
            // magic(4) ndims(1) dims(8) eb(8) radius(4) pred(1) …
            Format::Sz => &[5, 13, 21, 26, 34],
            // magic(4) ndims(1) dims(8) mode(1) param(8) bits_len(8)
            Format::Zfp => &[5, 14, 22],
            Format::Zlib => &[0, 2, 8],
            // table_log(1) raw_len(4) state0(2) state1(2) npairs(2) freqs…
            // Substitution here forges out-of-range decoder states and
            // oversized declared raw sizes — the two tANS-specific
            // hardening paths.
            Format::Tans => &[0, 1, 5, 7, 9, 11],
        }
    }
}

/// Cap for [`Format::Zlib`] decodes: generous next to every corpus payload,
/// tiny next to a bomb.
const ZLIB_FUZZ_CAP: usize = 1 << 20;

/// What one decode attempt did.
enum Outcome {
    Accepted,
    Rejected,
    Panicked(String),
}

/// The shared codec set every container format decodes through. Built once;
/// the registry is immutable and `Sync`.
fn registry() -> &'static dpz_codec::Registry {
    static REG: OnceLock<dpz_codec::Registry> = OnceLock::new();
    REG.get_or_init(dpz_codec::Registry::builtin)
}

/// Feed `bytes` to `format`'s decoder, catching panics.
///
/// Container formats go through the production `Codec` trait objects — the
/// same surface the CLI and registry expose. Each format targets its *own*
/// codec by name (not magic sniffing), so magic-swap mutations still reach
/// the decoder under test rather than being re-routed.
fn try_decode(format: Format, bytes: &[u8]) -> Outcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let codec_name = match format {
            Format::Dpz => "dpz",
            Format::Chunked => "dpzc",
            Format::Sz => "sz",
            Format::Zfp => "zfp",
            Format::Zlib => {
                return dpz_deflate::decompress_bounded(bytes, ZLIB_FUZZ_CAP)
                    .map(drop)
                    .map_err(drop)
            }
            Format::Tans => {
                return dpz_deflate::tans::decompress_bounded(bytes, ZLIB_FUZZ_CAP)
                    .map(drop)
                    .map_err(drop)
            }
        };
        registry()
            .get(codec_name)
            .expect("builtin registry covers every container format")
            .decompress_from(&mut &bytes[..])
            .map(drop)
            .map_err(drop)
    }));
    match result {
        Ok(Ok(())) => Outcome::Accepted,
        Ok(Err(())) => Outcome::Rejected,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Outcome::Panicked(msg)
        }
    }
}

/// One valid stream per shape variant, per format — the mutation substrate.
pub struct Corpus {
    dpz: Vec<Vec<u8>>,
    chunked: Vec<Vec<u8>>,
    sz: Vec<Vec<u8>>,
    zfp: Vec<Vec<u8>>,
    zlib: Vec<Vec<u8>>,
    tans: Vec<Vec<u8>>,
}

impl Corpus {
    /// Build valid container streams from seeded synthetic fields.
    pub fn generate(seed: u64) -> Corpus {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let field: Vec<f32> = (0..1024)
            .map(|i| {
                let r = (i / 32) as f32;
                let c = (i % 32) as f32;
                (0.1 * r).sin() * 5.0 + (0.07 * c).cos() * 3.0 + rng.normal() as f32 * 0.01
            })
            .collect();
        let line: Vec<f32> = (0..600).map(|i| (i as f32 * 0.02).sin() * 4.0).collect();

        let cfg = dpz_core::DpzConfig::loose();
        // v3 containers: every section carries a lossless-backend flag byte
        // and sections above the size floor switch to the tANS coder — the
        // newest revision the fuzz contract must cover.
        let v3 = cfg.with_lossless(dpz_core::LosslessBackend::Tans);
        let dpz = vec![
            dpz_core::compress(&field, &[32, 32], &cfg).unwrap().bytes,
            dpz_core::compress(&line, &[600], &cfg).unwrap().bytes,
            dpz_core::compress(&field, &[32, 32], &v3).unwrap().bytes,
        ];
        let chunked = vec![
            dpz_core::compress_chunked(&field, &[32, 32], &cfg, 2)
                .unwrap()
                .bytes,
            dpz_core::compress_chunked(&field, &[32, 32], &v3, 2)
                .unwrap()
                .bytes,
            // The legacy v2 directory framing, still a live decode path
            // (frozen bytes: no writer emits it any more).
            include_bytes!("../../../tests/fixtures/legacy/dpzc-v2-loose-4x-64x96.bin").to_vec(),
            // Progressive streams: energy-ordered components behind the
            // same DPZC magic, with per-component spans in the footer.
            dpz_core::compress_progressive(&field, &[32, 32], &cfg, 2)
                .unwrap()
                .bytes,
        ];
        let sz_cfg = dpz_sz::SzConfig::with_error_bound(1e-3);
        let sz_auto = sz_cfg.with_predictor(dpz_sz::Predictor::Auto);
        let sz = vec![
            dpz_sz::compress(&line, &[600], &sz_cfg),
            dpz_sz::compress(&field, &[32, 32], &sz_auto),
        ];
        let zfp = vec![
            dpz_zfp::compress(&field, &[32, 32], dpz_zfp::ZfpMode::FixedPrecision(16)),
            dpz_zfp::compress(&line, &[600], dpz_zfp::ZfpMode::FixedAccuracy(1e-3)),
        ];
        let raw: Vec<u8> = (0..4096).map(|_| (rng.next_u64() >> 32) as u8).collect();
        let zlib = vec![
            dpz_deflate::compress(&raw),
            dpz_deflate::compress(&vec![0u8; 2048]),
        ];
        // Skewed-histogram bytes (what quantized indices look like) plus
        // uniform noise: one stream with a rich tANS table, one near-raw.
        let skewed: Vec<u8> = (0..2048).map(|i| ((i * i) % 23) as u8).collect();
        let tans = vec![
            dpz_deflate::tans::compress(&skewed),
            dpz_deflate::tans::compress(&raw),
        ];
        Corpus {
            dpz,
            chunked,
            sz,
            zfp,
            zlib,
            tans,
        }
    }

    fn streams(&self, format: Format) -> &[Vec<u8>] {
        match format {
            Format::Dpz => &self.dpz,
            Format::Chunked => &self.chunked,
            Format::Sz => &self.sz,
            Format::Zfp => &self.zfp,
            Format::Zlib => &self.zlib,
            Format::Tans => &self.tans,
        }
    }

    /// A random stream of a random *other* format, for splicing.
    fn foreign(&self, format: Format, rng: &mut Xoshiro256) -> &[u8] {
        loop {
            let other = Format::ALL[rng.below(Format::ALL.len())];
            if other != format {
                let streams = self.streams(other);
                return &streams[rng.below(streams.len())];
            }
        }
    }
}

/// Integer values that historically break size arithmetic.
const INTERESTING: [u64; 12] = [
    0,
    1,
    2,
    7,
    255,
    65_535,
    1 << 20,
    1 << 31,
    1 << 32,
    u64::MAX / 2,
    u64::MAX - 1,
    u64::MAX,
];

/// Byte offsets of every v3 section's lossless-backend flag, found by
/// walking the section chain (flag, declared_raw u64, packed_len u64,
/// packed bytes, crc32). Empty for anything that is not a v3 DPZ1 stream.
fn v3_section_flag_offsets(bytes: &[u8]) -> Vec<usize> {
    if bytes.len() < 6 || &bytes[..4] != b"DPZ1" || bytes[4] < 3 {
        return Vec::new();
    }
    let ndims = bytes[5] as usize;
    // Fixed header tail after the dims: orig/m/n/pad (32) + norm (16) +
    // k (8) + transform/dwt (2) + p (8) + wide/standardized (2).
    let mut off = 6 + 8 * ndims + 68;
    let mut out = Vec::new();
    for _ in 0..3 {
        if off >= bytes.len() {
            break;
        }
        out.push(off);
        let Some(pl) = bytes
            .get(off + 9..off + 17)
            .and_then(|s| <[u8; 8]>::try_from(s).ok())
        else {
            break;
        };
        let packed = u64::from_le_bytes(pl) as usize;
        off = match off
            .checked_add(1 + 16 + 4)
            .and_then(|o| o.checked_add(packed))
        {
            Some(o) => o,
            None => break,
        };
    }
    out
}

/// v4 DPZC tail layout (16 bytes): `footer_len u64 | footer_crc32 u32 |
/// "DPZF"`.
const DPZC_TAIL_LEN: usize = 16;

/// The `[start, end)` span of a v4 DPZC stream's index footer, or `None`
/// when `bytes` does not carry a well-formed v4 tail.
fn dpzc_footer_span(bytes: &[u8]) -> Option<(usize, usize)> {
    let n = bytes.len();
    if n < 6 + DPZC_TAIL_LEN
        || &bytes[..4] != b"DPZC"
        || bytes[4] != 4
        || &bytes[n - 4..] != b"DPZF"
    {
        return None;
    }
    let flen = u64::from_le_bytes(bytes[n - 16..n - 8].try_into().ok()?);
    let flen = usize::try_from(flen).ok()?;
    let end = n - DPZC_TAIL_LEN;
    let start = end.checked_sub(flen)?;
    (start >= 6).then_some((start, end))
}

/// Recompute the stored footer CRC after a deliberate footer edit, so the
/// forged bytes reach the field validation instead of dying at the
/// checksum gate.
fn refresh_footer_crc(bytes: &mut [u8]) {
    let n = bytes.len();
    if let Some((start, end)) = dpzc_footer_span(bytes) {
        let crc = crc32(&bytes[start..end]).to_le_bytes();
        bytes[n - 8..n - 4].copy_from_slice(&crc);
    }
}

/// Produce one mutated stream from a corpus entry.
fn mutate(base: &[u8], format: Format, corpus: &Corpus, rng: &mut Xoshiro256) -> Vec<u8> {
    match rng.below(7) {
        // Truncation: anywhere from empty to one-byte-short.
        0 => base[..rng.below(base.len().max(1))].to_vec(),
        // Structure-aware field substitution.
        1 => {
            let mut out = base.to_vec();
            let offsets = format.field_offsets();
            let off = offsets[rng.below(offsets.len())];
            let value = if rng.below(4) == 0 {
                rng.next_u64()
            } else {
                INTERESTING[rng.below(INTERESTING.len())]
            };
            let bytes = value.to_le_bytes();
            for (i, b) in bytes.iter().enumerate() {
                if off + i < out.len() {
                    out[off + i] = *b;
                }
            }
            out
        }
        // Cross-format splice.
        2 => {
            let foreign = corpus.foreign(format, rng);
            let magic = format.magic();
            match rng.below(3) {
                // This format's magic, the other format's body.
                0 => {
                    let mut out = magic.to_vec();
                    out.extend_from_slice(&foreign[foreign.len().min(magic.len())..]);
                    out
                }
                // Head of this stream, tail of the other.
                1 => {
                    let cut = rng.below(base.len().max(1));
                    let mut out = base[..cut].to_vec();
                    out.extend_from_slice(&foreign[rng.below(foreign.len().max(1))..]);
                    out
                }
                // The other stream verbatim (wrong decoder entirely).
                _ => foreign.to_vec(),
            }
        }
        // Byte flips.
        3 => {
            let mut out = base.to_vec();
            if !out.is_empty() {
                for _ in 0..1 + rng.below(8) {
                    let i = rng.below(out.len());
                    out[i] ^= 1 << rng.below(8);
                }
            }
            out
        }
        // Random garbage, sometimes behind a valid magic.
        4 => {
            let len = rng.below(512);
            let mut out = if rng.below(2) == 0 {
                format.magic().to_vec()
            } else {
                Vec::new()
            };
            out.extend((0..len).map(|_| (rng.next_u64() >> 56) as u8));
            out
        }
        // Lossless-backend flag attack: swap a v3 section's coder byte
        // (Deflate <-> tANS, so the right bytes hit the wrong decoder) or
        // forge an unknown backend id. Non-v3 streams get their container
        // version byte forged instead, exercising the version dispatch.
        5 => {
            let mut out = base.to_vec();
            let flags = v3_section_flag_offsets(&out);
            if flags.is_empty() {
                if out.len() > 4 {
                    out[4] = (rng.next_u64() % 8) as u8;
                }
            } else {
                let off = flags[rng.below(flags.len())];
                out[off] = match rng.below(3) {
                    0 => out[off] ^ 1,
                    1 => 2 + (rng.next_u64() % 254) as u8,
                    _ => 0xFF,
                };
            }
            out
        }
        // Footer attack (v4 DPZC only): the index footer is the seekable
        // trust anchor, so it gets its own mutation class. Streams without
        // a v4 tail fall back to forging the version byte.
        _ => {
            let mut out = base.to_vec();
            let Some((start, end)) = dpzc_footer_span(&out) else {
                if out.len() > 4 {
                    out[4] = (rng.next_u64() % 8) as u8;
                }
                return out;
            };
            match rng.below(4) {
                // Truncate somewhere inside the footer or tail.
                0 => {
                    out.truncate(start + rng.below(out.len() - start));
                    out
                }
                // Forge an 8-byte field (offset, length, rows, span end…)
                // with an interesting integer; recompute the CRC so the
                // value reaches the structural validation.
                1 => {
                    let span = end - start;
                    if span >= 8 {
                        let off = start + rng.below(span - 7);
                        let v = if rng.below(4) == 0 {
                            rng.next_u64()
                        } else {
                            INTERESTING[rng.below(INTERESTING.len())]
                        };
                        out[off..off + 8].copy_from_slice(&v.to_le_bytes());
                        refresh_footer_crc(&mut out);
                    }
                    out
                }
                // Flip a bit in the stored footer CRC itself.
                2 => {
                    let n = out.len();
                    out[n - 8 + rng.below(4)] ^= 1 << rng.below(8);
                    out
                }
                // Swap two 16-byte records inside the footer (component
                // spans, halves of chunk entries), CRC kept honest — the
                // ordering invariants must catch it.
                _ => {
                    let span = end - start;
                    if span >= 32 {
                        let slots = span / 16;
                        let a = start + 16 * rng.below(slots);
                        let b = start + 16 * rng.below(slots);
                        for i in 0..16 {
                            out.swap(a + i, b + i);
                        }
                        refresh_footer_crc(&mut out);
                    }
                    out
                }
            }
        }
    }
}

/// Tally of one fuzz run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzReport {
    /// Mutations fed to the decoder.
    pub iterations: usize,
    /// Decodes that returned `Err` (the expected outcome).
    pub rejected: usize,
    /// Decodes that still succeeded (benign mutations).
    pub accepted: usize,
}

/// Run `iters` seeded mutations against `format`'s decoder.
///
/// # Panics
///
/// Panics — failing the enclosing test — if any decoder invocation panics,
/// reporting the format, seed and iteration for exact replay.
pub fn run(format: Format, seed: u64, iters: usize) -> FuzzReport {
    let corpus = Corpus::generate(seed);
    // Decouple the mutation stream from corpus generation so adding corpus
    // entries doesn't shift every subsequent case.
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xD9F2_0071 ^ format as u64);
    let mut report = FuzzReport {
        iterations: iters,
        rejected: 0,
        accepted: 0,
    };
    for iter in 0..iters {
        let streams = corpus.streams(format);
        let base = &streams[rng.below(streams.len())];
        let mutated = mutate(base, format, &corpus, &mut rng);
        match try_decode(format, &mutated) {
            Outcome::Accepted => report.accepted += 1,
            Outcome::Rejected => report.rejected += 1,
            Outcome::Panicked(msg) => panic!(
                "decoder panic: format {format:?} seed {seed} iteration {iter} \
                 ({} mutated bytes): {msg}",
                mutated.len()
            ),
        }
    }
    report
}

/// Iteration count for in-tree tests: `DPZ_FUZZ_ITERS` env var, default 500.
pub fn iters_from_env() -> usize {
    std::env::var("DPZ_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500)
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// The overflow-header repro from the hardening work: a DPZ1 header whose
/// eight dims are each `u64::MAX / 2`, so their product overflows `usize`.
/// Must decode to `Err`, never an `attempt to multiply with overflow` panic.
pub fn overflow_dims_header() -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"DPZ1");
    out.push(2); // version
    out.push(8); // ndims
    for _ in 0..8 {
        push_u64(&mut out, u64::MAX / 2);
    }
    // Enough zeroed header tail to reach the dims-product check.
    out.extend_from_slice(&[0u8; 128]);
    out
}

/// A DPZC directory whose chunk lengths sum past `usize::MAX`.
pub fn overflow_chunk_lens() -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"DPZC");
    out.push(1); // v1: reaches the length sum without a crc column
    out.push(1); // ndims
    push_u64(&mut out, 16);
    push_u64(&mut out, 3); // count
    for _ in 0..3 {
        push_u64(&mut out, u64::MAX / 2);
    }
    out
}

/// A syntactically valid v2 DPZ1 container whose index section *declares*
/// 40 raw bytes but whose packed stream inflates to `payload_mib` MiB of
/// zeros — a classic decompression bomb with correct CRCs, so decode gets
/// all the way to the inflate bound before rejecting.
pub fn deflate_bomb_container(payload_mib: usize) -> Vec<u8> {
    let section = |out: &mut Vec<u8>, declared_raw: u64, raw: &[u8]| {
        let packed = dpz_deflate::compress_with_level(raw, dpz_deflate::CompressionLevel::Fast);
        push_u64(out, declared_raw);
        push_u64(out, packed.len() as u64);
        out.extend_from_slice(&packed);
        out.extend_from_slice(&crc32(&packed).to_le_bytes());
    };
    let mut out = Vec::new();
    out.extend_from_slice(b"DPZ1");
    out.push(2); // version
    out.push(2); // ndims
    push_u64(&mut out, 10);
    push_u64(&mut out, 8);
    push_u64(&mut out, 80); // orig_len
    push_u64(&mut out, 8); // m
    push_u64(&mut out, 10); // n
    push_u64(&mut out, 0); // pad
    out.extend_from_slice(&0.0f64.to_le_bytes()); // norm_min
    out.extend_from_slice(&1.0f64.to_le_bytes()); // norm_range
    push_u64(&mut out, 4); // k
    out.push(0); // transform
    out.push(0); // dwt levels
    out.extend_from_slice(&1e-3f64.to_le_bytes()); // p
    out.push(0); // wide_index
    out.push(0); // standardized
                 // Model: (m*k + m) * 4 = 160 bytes, honest.
    section(&mut out, 160, &[0u8; 160]);
    // Indices: declares n*k = 40 raw bytes, inflates to megabytes.
    section(&mut out, 40, &vec![0u8; payload_mib << 20]);
    // Outliers: honest empty section.
    section(&mut out, 0, &[]);
    out
}

/// A well-formed v4 chunked stream for the footer fixtures.
fn seekable_fixture_base(progressive: bool) -> Vec<u8> {
    let field: Vec<f32> = (0..1024)
        .map(|i| {
            let r = (i / 32) as f32;
            let c = (i % 32) as f32;
            (0.1 * r).sin() * 5.0 + (0.07 * c).cos() * 3.0
        })
        .collect();
    let cfg = dpz_core::DpzConfig::loose();
    if progressive {
        dpz_core::compress_progressive(&field, &[32, 32], &cfg, 2)
            .unwrap()
            .bytes
    } else {
        dpz_core::compress_chunked(&field, &[32, 32], &cfg, 2)
            .unwrap()
            .bytes
    }
}

/// A v4 chunked container cut off midway through its index footer: the
/// tail magic is gone, so the stream must be rejected as corrupt — not
/// parsed as a legacy directory, not panicked on.
pub fn truncated_footer() -> Vec<u8> {
    let mut out = seekable_fixture_base(false);
    let (start, end) = dpzc_footer_span(&out).expect("v4 fixture has a footer");
    out.truncate(start + (end - start) / 2);
    out
}

/// A v4 chunked container whose second chunk's footer offset points past
/// the payload, with the footer CRC recomputed so only the contiguity
/// validation can catch the forgery.
pub fn forged_footer_offset() -> Vec<u8> {
    let mut out = seekable_fixture_base(false);
    let (start, _) = dpzc_footer_span(&out).expect("v4 fixture has a footer");
    // Footer layout: count u64, then 36-byte chunk records starting with
    // the offset field.
    let off = start + 8 + 36;
    out[off..off + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    refresh_footer_crc(&mut out);
    out
}

/// A progressive v4 container whose first chunk's component records are
/// swapped (CRC kept honest): the energy-descending span order is broken,
/// so the footer must be rejected as an invalid progressive layout.
pub fn permuted_component_order() -> Vec<u8> {
    let mut out = seekable_fixture_base(true);
    let (start, _) = dpzc_footer_span(&out).expect("v4 fixture has a footer");
    let count = u64::from_le_bytes(out[start..start + 8].try_into().unwrap()) as usize;
    // Component records for chunk 0 sit after the chunk table and the
    // chunk's own k/model_end pair.
    let comp0 = start + 8 + count * 36 + 16;
    for i in 0..16 {
        out.swap(comp0 + i, comp0 + 16 + i);
    }
    refresh_footer_crc(&mut out);
    out
}

/// A structurally valid tANS stream whose decoder states are forged out of
/// the table range (`state < 1<<table_log` or `>= 2<<table_log`). Decode
/// must reject it up front, never index a table out of bounds.
pub fn tans_bad_state() -> Vec<u8> {
    let skewed: Vec<u8> = (0..1024).map(|i| ((i * 7) % 17) as u8).collect();
    let mut out = dpz_deflate::tans::compress(&skewed);
    // Layout: table_log(1) raw_len(4) state0(2) state1(2) …
    out[5] = 0xFF;
    out[6] = 0xFF;
    out
}

/// A valid tANS stream whose declared raw length is forged to `u32::MAX`.
/// The bounded decoder must refuse past its limit instead of allocating
/// 4 GiB or decoding garbage forever.
pub fn tans_oversized_raw_len() -> Vec<u8> {
    let skewed: Vec<u8> = (0..1024).map(|i| ((i * 7) % 17) as u8).collect();
    let mut out = dpz_deflate::tans::compress(&skewed);
    out[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_streams_decode_cleanly() {
        let corpus = Corpus::generate(1);
        for format in Format::ALL {
            for (i, stream) in corpus.streams(format).iter().enumerate() {
                match try_decode(format, stream) {
                    Outcome::Accepted => {}
                    _ => panic!("corpus stream {i} for {format:?} must decode"),
                }
            }
        }
    }

    #[test]
    fn fuzz_every_format_bounded() {
        let iters = iters_from_env();
        for format in Format::ALL {
            let report = run(format, 0xDEFA_CED5, iters);
            assert_eq!(report.iterations, iters);
            // Structure-aware mutation must actually exercise reject paths.
            assert!(
                report.rejected > iters / 4,
                "{format:?}: only {}/{iters} rejected — mutator too tame?",
                report.rejected
            );
        }
    }

    #[test]
    fn fuzz_is_deterministic() {
        let a = run(Format::Dpz, 7, 100);
        let b = run(Format::Dpz, 7, 100);
        assert_eq!(a, b);
    }

    #[test]
    fn crafted_overflow_headers_are_rejected() {
        assert!(matches!(
            try_decode(Format::Dpz, &overflow_dims_header()),
            Outcome::Rejected
        ));
        assert!(matches!(
            try_decode(Format::Chunked, &overflow_chunk_lens()),
            Outcome::Rejected
        ));
    }

    #[test]
    fn bomb_container_is_rejected() {
        // 96 MiB declared-as-40-bytes: must reject at the inflate bound.
        let bomb = deflate_bomb_container(96);
        assert!(matches!(try_decode(Format::Dpz, &bomb), Outcome::Rejected));
    }

    #[test]
    fn crafted_tans_streams_are_rejected() {
        assert!(matches!(
            try_decode(Format::Tans, &tans_bad_state()),
            Outcome::Rejected
        ));
        assert!(matches!(
            try_decode(Format::Tans, &tans_oversized_raw_len()),
            Outcome::Rejected
        ));
    }

    #[test]
    fn footer_span_finder_matches_v4_layout() {
        let corpus = Corpus::generate(5);
        // v4 plain and progressive streams both expose a footer span.
        for idx in [0usize, 3] {
            let stream = &corpus.chunked[idx];
            let (start, end) = dpzc_footer_span(stream).expect("v4 stream");
            assert!(start < end && end == stream.len() - DPZC_TAIL_LEN);
            let count = u64::from_le_bytes(stream[start..start + 8].try_into().unwrap());
            assert_eq!(count, 2, "fixture writes two chunks");
        }
        // Legacy reencodes and other formats have none.
        assert!(dpzc_footer_span(&corpus.chunked[2]).is_none());
        assert!(dpzc_footer_span(&corpus.dpz[0]).is_none());
    }

    #[test]
    fn crafted_footer_fixtures_are_rejected() {
        for (name, bytes) in [
            ("truncated_footer", truncated_footer()),
            ("forged_footer_offset", forged_footer_offset()),
            ("permuted_component_order", permuted_component_order()),
        ] {
            match try_decode(Format::Chunked, &bytes) {
                Outcome::Rejected => {}
                Outcome::Accepted => panic!("{name}: forged stream must not decode"),
                Outcome::Panicked(m) => panic!("{name}: decoder panicked: {m}"),
            }
        }
    }

    #[test]
    fn v3_flag_walker_finds_three_sections() {
        let corpus = Corpus::generate(3);
        // The third dpz corpus entry is the v3/tANS one.
        let v3 = &corpus.dpz[2];
        assert_eq!(v3[4], 3, "expected a v3 container");
        let flags = v3_section_flag_offsets(v3);
        assert_eq!(flags.len(), 3, "model/indices/outliers sections");
        for &off in &flags {
            assert!(v3[off] <= 1, "flag byte at {off} is a known backend");
        }
        // v2 streams and other formats yield no flag offsets.
        assert!(v3_section_flag_offsets(&corpus.dpz[0]).is_empty());
        assert!(v3_section_flag_offsets(&corpus.chunked[0]).is_empty());
    }
}
