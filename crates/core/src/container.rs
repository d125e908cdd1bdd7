//! Self-describing DPZ stream format and its errors.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "DPZ1" | version u8 | ndims u8 | dims u64×ndims
//! | orig_len u64 | M u64 | N u64 | pad u64
//! | norm_min f64 | norm_range f64 | k u64
//! | transform u8 | dwt_levels u8 | P f64 | wide_index u8 | standardized u8
//! | model section   (u64 raw len, u64 packed len, DEFLATE bytes[, crc32 u32])
//! | indices section (u64 raw len, u64 packed len, DEFLATE bytes[, crc32 u32])
//! | outlier section (u64 count, u64 packed len, DEFLATE bytes[, crc32 u32])
//! ```
//!
//! Version 2 appends a CRC-32 trailer (over the *packed* bytes) to every
//! section, so container corruption is detected before any inflate work.
//! Version-1 streams — identical layout minus the trailers — still decode;
//! [`deserialize_with_info`] reports which form was seen.
//!
//! Version 3 prefixes every section with a one-byte [`LosslessBackend`]
//! flag (0 = DEFLATE, 1 = tANS), letting each section pick its entropy
//! coder independently. The writer emits v3 *only* when at least one
//! section actually uses tANS; with the default DEFLATE backend the output
//! is byte-identical to version 2, and v1/v2 streams keep decoding.
//!
//! The *model* section is the PCA projection matrix `D` (`M×k` `f32`,
//! row-major), the `M` feature means (`f32`), and — when standardization was
//! applied — the `M` feature scales (`f32`). Every section is compressed
//! with `dpz-deflate` (the paper's "zlib add-on" applied to indices and
//! out-of-range points; compressing the model too is strictly beneficial).
//!
//! **Decode hardening contract:** no byte stream may panic, abort, or force
//! a large allocation. All header arithmetic is checked (overflow ⇒
//! [`DpzError::Corrupt`]); every section inflate is bounded by the size the
//! validated header implies, so declared-small-but-inflates-huge bombs fail
//! fast with [`DeflateError::TooLarge`].

use crate::decompose::effective_dwt_levels;
use crate::quantize::{dequantize_scores, QuantizedScores};
use dpz_deflate::{
    compress_parallel, crc32, decompress_bounded, tans, CompressionLevel, DeflateError,
};

const MAGIC: &[u8; 4] = b"DPZ1";
/// Default writer version (per-section CRC-32 trailers, DEFLATE sections).
const VERSION: u8 = 2;
/// Writer version when any section uses the tANS backend.
const VERSION_TANS: u8 = 3;
/// Oldest version the decoder still accepts (pre-checksum layout).
const MIN_VERSION: u8 = 1;
/// Sections smaller than this stay on DEFLATE even under the tANS backend:
/// the tANS frequency-table header dominates tiny payloads.
const TANS_MIN_SECTION: usize = 256;

/// Entropy coder used for a container section's packed bytes.
///
/// The default, [`LosslessBackend::Deflate`], reproduces the paper's "zlib
/// add-on" byte-for-byte (a v2 container). [`LosslessBackend::Tans`]
/// switches bulky sections to the interleaved tabled-ANS coder in
/// `dpz_deflate::tans` — an order-0 coder with no string matcher, which
/// trades a little ratio on match-heavy payloads for a much faster,
/// branch-light decode loop — and stamps the container as version 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LosslessBackend {
    /// LZ77 + Huffman per RFC 1951 (the v2 default).
    #[default]
    Deflate,
    /// Interleaved tabled-ANS; forces a version-3 container.
    Tans,
}

/// Errors from DPZ compression or decompression.
#[derive(Debug, Clone, PartialEq)]
pub enum DpzError {
    /// Malformed or truncated container.
    Corrupt(&'static str),
    /// Failure in a DEFLATE section.
    Deflate(DeflateError),
    /// Numerical failure (eigensolver non-convergence etc.).
    Numeric(String),
    /// Input that cannot be compressed (too small, wrong shape, …).
    BadInput(&'static str),
    /// I/O failure on a streaming source or sink (codec trait paths).
    Io(String),
    /// Rejected configuration (non-positive bound, tolerance outside
    /// `(0, 1)`, unresolved data-dependent target handed to a plan, …).
    InvalidConfig(String),
    /// A fixed-ratio or fixed-PSNR target the control loop could not land
    /// within tolerance for this input.
    TargetUnreachable {
        /// What the caller asked for (ratio, or PSNR in dB).
        requested: f64,
        /// The closest the search/confirmation got.
        achievable: f64,
    },
}

impl std::fmt::Display for DpzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpzError::Corrupt(w) => write!(f, "corrupt DPZ stream: {w}"),
            DpzError::Deflate(e) => write!(f, "DPZ section: {e}"),
            DpzError::Numeric(w) => write!(f, "numerical failure: {w}"),
            DpzError::BadInput(w) => write!(f, "bad input: {w}"),
            DpzError::Io(w) => write!(f, "i/o failure: {w}"),
            DpzError::InvalidConfig(w) => write!(f, "invalid configuration: {w}"),
            DpzError::TargetUnreachable {
                requested,
                achievable,
            } => write!(
                f,
                "quality target unreachable: requested {requested:.3}, best achievable ≈ {achievable:.3}"
            ),
        }
    }
}

impl std::error::Error for DpzError {}

impl From<DeflateError> for DpzError {
    fn from(e: DeflateError) -> Self {
        DpzError::Deflate(e)
    }
}

impl From<dpz_linalg::LinalgError> for DpzError {
    fn from(e: dpz_linalg::LinalgError) -> Self {
        DpzError::Numeric(e.to_string())
    }
}

/// Raw vs. DEFLATE-packed sizes per section — the inputs to the paper's
/// per-stage compression-ratio breakdown (Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SectionSizes {
    /// PCA basis + means (+ scales) before/after DEFLATE.
    pub model_raw: usize,
    /// Packed model bytes.
    pub model_packed: usize,
    /// Quantizer index stream before/after DEFLATE.
    pub indices_raw: usize,
    /// Packed index bytes.
    pub indices_packed: usize,
    /// Outlier payload before/after DEFLATE.
    pub outliers_raw: usize,
    /// Packed outlier bytes.
    pub outliers_packed: usize,
}

impl SectionSizes {
    /// Total raw bytes entering the lossless stage.
    pub fn total_raw(&self) -> usize {
        self.model_raw + self.indices_raw + self.outliers_raw
    }

    /// Total packed bytes leaving the lossless stage.
    pub fn total_packed(&self) -> usize {
        self.model_packed + self.indices_packed + self.outliers_packed
    }
}

/// Everything the encoder must persist.
#[derive(Debug, Clone)]
pub struct ContainerData {
    /// Original array dimensions.
    pub dims: Vec<usize>,
    /// Original flattened length.
    pub orig_len: usize,
    /// Block count (features).
    pub m: usize,
    /// Block length (samples).
    pub n: usize,
    /// Padding appended during decomposition.
    pub pad: usize,
    /// Offset removed during range normalization (the data minimum).
    pub norm_min: f64,
    /// Scale removed during range normalization (the data range; 1 for
    /// constant data so denormalization is a no-op).
    pub norm_range: f64,
    /// Retained components.
    pub k: usize,
    /// Stage-1 transform tag: 0 = DCT, 1 = DWT.
    pub transform_tag: u8,
    /// DWT levels actually applied (0 for DCT).
    pub dwt_levels: u8,
    /// Quantizer error bound.
    pub p: f64,
    /// Whether features were standardized before PCA.
    pub standardized: bool,
    /// Projection matrix `D` (`M×k`, row-major), as f32.
    pub basis: Vec<f32>,
    /// Feature means (length `M`).
    pub mean: Vec<f32>,
    /// Feature scales (length `M`) when standardized.
    pub scale: Vec<f32>,
    /// Quantized scores.
    pub scores: QuantizedScores,
}

fn push_u64(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

/// Serialize to the current default (version 2, checksummed, DEFLATE)
/// container format, also reporting per-section sizes.
pub fn serialize(data: &ContainerData) -> (Vec<u8>, SectionSizes) {
    serialize_with_backend(data, LosslessBackend::Deflate)
}

/// Serialize with an explicit entropy backend. DEFLATE produces the v2
/// layout byte-for-byte; tANS upgrades the container to v3 with a
/// per-section backend flag (tiny sections stay on DEFLATE — see
/// `TANS_MIN_SECTION` — so a v3 stream may legitimately mix coders).
pub fn serialize_with_backend(
    data: &ContainerData,
    backend: LosslessBackend,
) -> (Vec<u8>, SectionSizes) {
    let version = match backend {
        LosslessBackend::Deflate => VERSION,
        LosslessBackend::Tans => VERSION_TANS,
    };
    let model = model_section(data);
    // DEFLATE sections are multi-member zlib: parallel strips, with small
    // sections falling back to a byte-identical single member (see
    // `dpz_deflate::compress_parallel`). tANS sections are one stream.
    let (model_packed, model_backend) = pack_section(&model, backend);
    let (indices_packed, indices_backend) = pack_section(&data.scores.indices, backend);
    let outlier_bytes: Vec<u8> = data
        .scores
        .outliers
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let (outliers_packed, outliers_backend) = pack_section(&outlier_bytes, backend);

    let sizes = SectionSizes {
        model_raw: model.len(),
        model_packed: model_packed.len(),
        indices_raw: data.scores.indices.len(),
        indices_packed: indices_packed.len(),
        outliers_raw: outlier_bytes.len(),
        outliers_packed: outliers_packed.len(),
    };

    // Each section: backend flag byte (version >= 3 only; DEFLATE is
    // implied in v2), raw length, packed length, packed bytes, and a CRC-32
    // trailer over the packed bytes (absent in the decode-only v1 layout).
    let section = |out: &mut Vec<u8>, b: LosslessBackend, raw_len: usize, packed: &[u8]| {
        if version >= VERSION_TANS {
            out.push(match b {
                LosslessBackend::Deflate => 0,
                LosslessBackend::Tans => 1,
            });
        }
        push_u64(out, raw_len);
        push_u64(out, packed.len());
        out.extend_from_slice(packed);
        out.extend_from_slice(&crc32(packed).to_le_bytes());
    };

    let mut out = Vec::with_capacity(sizes.total_packed() + 128);
    out.extend_from_slice(MAGIC);
    out.push(version);
    write_header(&mut out, data);
    section(&mut out, model_backend, model.len(), &model_packed);
    let n_indices = data.scores.indices.len();
    section(&mut out, indices_backend, n_indices, &indices_packed);
    let n_outliers = data.scores.outliers.len();
    section(&mut out, outliers_backend, n_outliers, &outliers_packed);
    (out, sizes)
}

/// Pack one section under the requested backend, returning the bytes and
/// the flag actually used (the tANS header does not pay for itself on tiny
/// or >4 GiB payloads, so those fall back to DEFLATE).
fn pack_section(raw: &[u8], backend: LosslessBackend) -> (Vec<u8>, LosslessBackend) {
    match backend {
        LosslessBackend::Tans
            if raw.len() >= TANS_MIN_SECTION && raw.len() <= u32::MAX as usize =>
        {
            (tans::compress(raw), LosslessBackend::Tans)
        }
        _ => (
            compress_parallel(raw, CompressionLevel::Default),
            LosslessBackend::Deflate,
        ),
    }
}

/// Write the header fields DPZ1 and DPZP share, from `ndims` through the
/// `standardized` flag (each format writes its own magic and version
/// first).
fn write_header(out: &mut Vec<u8>, data: &ContainerData) {
    out.push(data.dims.len() as u8);
    for &d in &data.dims {
        push_u64(out, d);
    }
    push_u64(out, data.orig_len);
    push_u64(out, data.m);
    push_u64(out, data.n);
    push_u64(out, data.pad);
    out.extend_from_slice(&data.norm_min.to_le_bytes());
    out.extend_from_slice(&data.norm_range.to_le_bytes());
    push_u64(out, data.k);
    out.push(data.transform_tag);
    out.push(data.dwt_levels);
    out.extend_from_slice(&data.p.to_le_bytes());
    out.push(u8::from(data.scores.wide_index));
    out.push(u8::from(data.standardized));
}

/// The raw model section both formats store: basis ++ mean ++ scale.
fn model_section(data: &ContainerData) -> Vec<u8> {
    let mut model = Vec::with_capacity((data.basis.len() + 2 * data.mean.len()) * 4);
    for &v in data.basis.iter().chain(&data.mean).chain(&data.scale) {
        model.extend_from_slice(&v.to_le_bytes());
    }
    model
}

/// Read the header fields DPZ1 and DPZP share (after magic and version)
/// and validate them: every size they imply is consistent and
/// overflow-free. Returns the payload with the model and the quantized
/// scores still empty, plus the raw length of the model section the header
/// implies.
fn read_header(cur: &mut Cursor<'_>) -> Result<(ContainerData, usize), DpzError> {
    let ndims = cur.u8()? as usize;
    if ndims == 0 || ndims > 8 {
        return Err(DpzError::Corrupt("implausible dimensionality"));
    }
    let mut dims = Vec::with_capacity(ndims);
    for _ in 0..ndims {
        dims.push(cur.u64()?);
    }
    let orig_len = cur.u64()?;
    let m = cur.u64()?;
    let n = cur.u64()?;
    let pad = cur.u64()?;
    let norm_min = cur.f64()?;
    let norm_range = cur.f64()?;
    let k = cur.u64()?;
    let transform_tag = cur.u8()?;
    let dwt_levels = cur.u8()?;
    if transform_tag > 1 || (transform_tag == 0 && dwt_levels != 0) {
        return Err(DpzError::Corrupt("unknown stage-1 transform"));
    }
    // The inverse DWT asserts a depth the block length supports.
    if effective_dwt_levels(n, dwt_levels.into()) != usize::from(dwt_levels) {
        return Err(DpzError::Corrupt("infeasible DWT depth"));
    }
    let p = cur.f64()?;
    let wide_index = cur.u8()? != 0;
    let standardized = cur.u8()? != 0;
    // Every size that combines attacker-controlled header fields goes
    // through checked arithmetic: the eight-large-dims header must land in
    // `Corrupt`, not an `attempt to multiply with overflow` panic.
    if checked_product(&dims, "dims overflow")? != orig_len {
        return Err(DpzError::Corrupt("dims do not match length"));
    }
    if m == 0
        || n == 0
        || orig_len
            .checked_add(pad)
            .is_none_or(|padded| m.checked_mul(n) != Some(padded))
    {
        return Err(DpzError::Corrupt("inconsistent block shape"));
    }
    if k == 0 || k > m {
        return Err(DpzError::Corrupt("invalid component count"));
    }
    // `!(x > 0.0)` rather than `x <= 0.0`: NaN must also be rejected.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(p > 0.0) || !p.is_finite() {
        return Err(DpzError::Corrupt("invalid error bound"));
    }
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !norm_min.is_finite() || !(norm_range > 0.0) || !norm_range.is_finite() {
        return Err(DpzError::Corrupt("invalid normalization"));
    }
    let model_len = checked_product(&[m, k], "model size overflow")?
        .checked_add(m)
        .and_then(|v| v.checked_add(if standardized { m } else { 0 }))
        .and_then(|v| v.checked_mul(4))
        .ok_or(DpzError::Corrupt("model size overflow"))?;
    let bins = if wide_index {
        u32::from(u16::MAX)
    } else {
        u32::from(u8::MAX)
    };
    let scores = QuantizedScores {
        indices: Vec::new(),
        wide_index,
        outliers: Vec::new(),
        p,
        bins,
        len: 0,
    };
    let data = ContainerData {
        dims,
        orig_len,
        m,
        n,
        pad,
        norm_min,
        norm_range,
        k,
        transform_tag,
        dwt_levels,
        p,
        standardized,
        basis: Vec::new(),
        mean: Vec::new(),
        scale: Vec::new(),
        scores,
    };
    Ok((data, model_len))
}

/// Read the model section (`raw len`, then the packed section) into
/// `data`'s basis (all `k` stored components, `M×k` row-major), mean and
/// scale. The raw length must be the `model_len` the header implies.
fn read_model(
    cur: &mut Cursor<'_>,
    data: &mut ContainerData,
    model_len: usize,
    checksummed: bool,
    backend: LosslessBackend,
) -> Result<(), DpzError> {
    if cur.u64()? != model_len {
        return Err(DpzError::Corrupt("model section shape mismatch"));
    }
    let model = cur.section(
        model_len,
        checksummed,
        backend,
        "model section checksum mismatch",
    )?;
    // Split in place, leaving the basis where it was decoded: `read_header`
    // checked that m·k fits, and the scale is empty unless standardized.
    let mut basis = f32s_from(&model);
    let mk = data.m * data.k;
    data.scale = basis.split_off(mk + data.m);
    data.mean = basis.split_off(mk);
    data.basis = basis;
    Ok(())
}

/// Bounded little-endian reader over a byte slice: the one parser for the
/// DPZ1/DPZP headers and the DPZC header, index footer and legacy
/// directory. A read past the end is `Corrupt(truncated)`, so each format
/// keeps its own truncation message.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    truncated: &'static str,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8], truncated: &'static str) -> Self {
        Cursor {
            buf,
            pos: 0,
            truncated,
        }
    }

    /// Whether every byte has been read.
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DpzError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or(DpzError::Corrupt(self.truncated))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, DpzError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DpzError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<usize, DpzError> {
        let b = self.take(8)?;
        let v = u64::from_le_bytes(b.try_into().unwrap());
        usize::try_from(v).map_err(|_| DpzError::Corrupt("size overflows usize"))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, DpzError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read a section's backend flag: explicit byte in v3+, implicitly
    /// DEFLATE before that.
    fn backend(&mut self, version: u8) -> Result<LosslessBackend, DpzError> {
        if version < VERSION_TANS {
            return Ok(LosslessBackend::Deflate);
        }
        match self.u8()? {
            0 => Ok(LosslessBackend::Deflate),
            1 => Ok(LosslessBackend::Tans),
            _ => Err(DpzError::Corrupt("unknown section backend")),
        }
    }

    /// Read one packed section (`packed_len` + bytes `[+ crc]`), verify the
    /// trailer when present, and unpack it with the flagged backend under
    /// the `expected_raw` bound the validated header implies. The CRC is
    /// checked *before* any entropy decode so corrupt payloads are rejected
    /// at container speed.
    fn section(
        &mut self,
        expected_raw: usize,
        checksummed: bool,
        backend: LosslessBackend,
        what: &'static str,
    ) -> Result<Vec<u8>, DpzError> {
        let packed_len = self.u64()?;
        let packed = self.take(packed_len)?;
        if checksummed {
            let stored = self.u32()?;
            if crc32(packed) != stored {
                return Err(DpzError::Corrupt(what));
            }
        }
        let raw = match backend {
            LosslessBackend::Deflate => decompress_bounded(packed, expected_raw)?,
            LosslessBackend::Tans => tans::decompress_bounded(packed, expected_raw)?,
        };
        if raw.len() != expected_raw {
            return Err(DpzError::Corrupt("section size mismatch"));
        }
        Ok(raw)
    }
}

/// Multiply header-derived sizes with overflow turned into a decode error —
/// the fix for the `dims.iter().product()` panic class.
pub(crate) fn checked_product(factors: &[usize], what: &'static str) -> Result<usize, DpzError> {
    factors
        .iter()
        .try_fold(1usize, |acc, &f| acc.checked_mul(f))
        .ok_or(DpzError::Corrupt(what))
}

fn f32s_from(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Decode-time metadata that is not part of the payload itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerInfo {
    /// Format version byte found in the stream.
    pub version: u8,
    /// Whether per-section CRC-32 trailers were present and verified (always
    /// true for version >= 2 streams — a mismatch is a hard decode error).
    pub checksummed: bool,
    /// How many of the three sections were tANS-coded (0 for v1/v2 streams
    /// and for v3 streams that happened to stay on DEFLATE throughout).
    pub tans_sections: u8,
}

/// Parse a container back into its parts.
pub fn deserialize(bytes: &[u8]) -> Result<ContainerData, DpzError> {
    deserialize_with_info(bytes).map(|(data, _)| data)
}

/// Parse a container, also reporting the format version and checksum status.
pub fn deserialize_with_info(bytes: &[u8]) -> Result<(ContainerData, ContainerInfo), DpzError> {
    let mut cur = Cursor::new(bytes, "truncated stream");
    if cur.take(4)? != MAGIC {
        return Err(DpzError::Corrupt("bad magic"));
    }
    let version = cur.u8()?;
    if !(MIN_VERSION..=VERSION_TANS).contains(&version) {
        return Err(DpzError::Corrupt("unsupported version"));
    }
    let checksummed = version >= 2;
    let (mut data, model_len) = read_header(&mut cur)?;
    let (n, k) = (data.n, data.k);

    let mut tans_sections = 0u8;
    let mut count_tans = |b: LosslessBackend| {
        tans_sections += u8::from(b == LosslessBackend::Tans);
        b
    };

    let model_backend = count_tans(cur.backend(version)?);
    read_model(&mut cur, &mut data, model_len, checksummed, model_backend)?;

    let index_width = if data.scores.wide_index { 2 } else { 1 };
    let nk = checked_product(&[n, k], "index size overflow")?;
    let expected_indices = checked_product(&[nk, index_width], "index size overflow")?;
    let indices_backend = count_tans(cur.backend(version)?);
    let indices_raw = cur.u64()?;
    if indices_raw != expected_indices {
        return Err(DpzError::Corrupt("index stream length mismatch"));
    }
    data.scores.indices = cur.section(
        expected_indices,
        checksummed,
        indices_backend,
        "index section checksum mismatch",
    )?;

    let outliers_backend = count_tans(cur.backend(version)?);
    let n_outliers = cur.u64()?;
    // Outliers are escaped scores, so there can never be more than n·k.
    if n_outliers > nk {
        return Err(DpzError::Corrupt("implausible outlier count"));
    }
    let expected_outliers = checked_product(&[n_outliers, 4], "outlier size overflow")?;
    let outlier_bytes = cur.section(
        expected_outliers,
        checksummed,
        outliers_backend,
        "outlier section checksum mismatch",
    )?;
    data.scores.outliers = f32s_from(&outlier_bytes);
    data.scores.len = nk;

    Ok((
        data,
        ContainerInfo {
            version,
            checksummed,
            tans_sections,
        },
    ))
}

/// Magic for the progressive ("DPZP") inner stream: the same model as a
/// DPZ1 container, but with the index/outlier payload split per PCA
/// component so a prefix of the stream decodes to a coarse reconstruction.
pub(crate) const PROGRESSIVE_MAGIC: &[u8; 4] = b"DPZP";
/// Only progressive stream version so far.
pub(crate) const PROGRESSIVE_VERSION: u8 = 1;

/// Byte span of one energy-ordered component inside a progressive stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentSpan {
    /// Exclusive end offset of the component's sections, relative to the
    /// start of the stream. Component `i` occupies `prev_end..end`.
    pub end: usize,
    /// Captured energy: the sum of squared dequantized scores this
    /// component contributes across all rows.
    pub energy: f64,
}

/// Byte layout of a progressive stream, as recorded in the DPZC v4 footer
/// so readers can budget a prefix without parsing the stream itself.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProgressiveLayout {
    /// End offset of the header + model section (= start of component 0).
    pub model_end: usize,
    /// Per-component spans in stored order (energy-descending).
    pub components: Vec<ComponentSpan>,
}

/// The quantizer code in one index cell (one byte, or two little-endian).
fn index_code(cell: &[u8]) -> u16 {
    match *cell {
        [lo, hi] => u16::from_le_bytes([lo, hi]),
        _ => u16::from(cell[0]),
    }
}

/// Serialize to the progressive layout: the DPZ1 header fields under the
/// `DPZP` magic, the whole model section first (mandatory for any decode),
/// then one `(column id, indices, outliers)` section group per PCA
/// component, ordered by descending captured energy. Sections are always
/// DEFLATE with CRC-32 trailers — a prefix cannot be guarded by a
/// whole-stream checksum, so every section carries its own.
pub fn serialize_progressive(data: &ContainerData) -> (Vec<u8>, ProgressiveLayout) {
    let (n, k) = (data.n, data.k);
    let width = if data.scores.wide_index { 2 } else { 1 };
    let escape = data.scores.bins as u16;
    // Split the row-major n×k index stream into per-column streams, routing
    // each escape's outlier (stored in scan order) to its owning column.
    let mut col_indices: Vec<Vec<u8>> = vec![Vec::with_capacity(n * width); k];
    let mut col_outliers: Vec<Vec<f32>> = vec![Vec::new(); k];
    let mut next_outlier = data.scores.outliers.iter();
    for row in 0..n {
        for col in 0..k {
            let off = (row * k + col) * width;
            let cell = &data.scores.indices[off..off + width];
            col_indices[col].extend_from_slice(cell);
            if index_code(cell) == escape {
                if let Some(&v) = next_outlier.next() {
                    col_outliers[col].push(v);
                }
            }
        }
    }
    // Captured energy per component = Σ over rows of the dequantized
    // score². Ties (and NaNs from non-finite outliers) keep PCA order —
    // the sort is stable.
    let vals = dequantize_scores(&data.scores);
    let energy: Vec<f64> = (0..k)
        .map(|c| {
            (0..n)
                .map(|r| {
                    let v = vals[r * k + c];
                    v * v
                })
                .sum()
        })
        .collect();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        energy[b]
            .partial_cmp(&energy[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let section = |out: &mut Vec<u8>, declared: usize, raw: &[u8]| {
        let packed = compress_parallel(raw, CompressionLevel::Default);
        push_u64(out, declared);
        push_u64(out, packed.len());
        out.extend_from_slice(&packed);
        out.extend_from_slice(&crc32(&packed).to_le_bytes());
    };

    let mut out = Vec::new();
    out.extend_from_slice(PROGRESSIVE_MAGIC);
    out.push(PROGRESSIVE_VERSION);
    write_header(&mut out, data);
    let model = model_section(data);
    section(&mut out, model.len(), &model);
    let model_end = out.len();

    let mut layout = ProgressiveLayout {
        model_end,
        components: Vec::with_capacity(k),
    };
    for &col in &order {
        push_u64(&mut out, col);
        section(&mut out, col_indices[col].len(), &col_indices[col]);
        let ob: Vec<u8> = col_outliers[col]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        section(&mut out, col_outliers[col].len(), &ob);
        layout.components.push(ComponentSpan {
            end: out.len(),
            energy: energy[col],
        });
    }
    (out, layout)
}

/// Parse a progressive stream, reconstructing a [`ContainerData`] from the
/// first `max_components` stored components (all of them when `None`).
/// Returns the payload — with `k` shrunk to the decoded component count and
/// the basis/index/outlier payload reassembled to match — plus the number
/// of components actually used. A truncated stream that still contains the
/// model and at least the requested components decodes fine: parsing never
/// looks past the last section it needs.
pub fn deserialize_progressive(
    bytes: &[u8],
    max_components: Option<usize>,
) -> Result<(ContainerData, usize), DpzError> {
    let mut cur = Cursor::new(bytes, "truncated stream");
    if cur.take(4)? != PROGRESSIVE_MAGIC {
        return Err(DpzError::Corrupt("bad magic"));
    }
    if cur.u8()? != PROGRESSIVE_VERSION {
        return Err(DpzError::Corrupt("unsupported version"));
    }
    let (mut data, model_len) = read_header(&mut cur)?;
    let (m, n, k) = (data.m, data.n, data.k);
    read_model(
        &mut cur,
        &mut data,
        model_len,
        true,
        LosslessBackend::Deflate,
    )?;

    let take_k = max_components.unwrap_or(k).min(k).max(1);
    let width = if data.scores.wide_index { 2 } else { 1 };
    let per_col_indices = checked_product(&[n, width], "index size overflow")?;
    let escape = data.scores.bins as u16;

    let mut cols = Vec::with_capacity(take_k);
    let mut col_streams: Vec<Vec<u8>> = Vec::with_capacity(take_k);
    let mut col_outliers: Vec<Vec<f32>> = Vec::with_capacity(take_k);
    let mut seen = vec![false; k];
    for _ in 0..take_k {
        let col = cur.u64()?;
        if col >= k || seen[col] {
            return Err(DpzError::Corrupt("invalid progressive column id"));
        }
        seen[col] = true;
        let idx_raw = cur.u64()?;
        if idx_raw != per_col_indices {
            return Err(DpzError::Corrupt("index stream length mismatch"));
        }
        let stream = cur.section(
            per_col_indices,
            true,
            LosslessBackend::Deflate,
            "index section checksum mismatch",
        )?;
        let n_escapes = stream
            .chunks_exact(width)
            .filter(|&c| index_code(c) == escape)
            .count();
        let n_out = cur.u64()?;
        if n_out != n_escapes {
            return Err(DpzError::Corrupt("implausible outlier count"));
        }
        let ob = cur.section(
            checked_product(&[n_out, 4], "outlier size overflow")?,
            true,
            LosslessBackend::Deflate,
            "outlier section checksum mismatch",
        )?;
        cols.push(col);
        col_streams.push(stream);
        col_outliers.push(f32s_from(&ob));
    }

    // Reassemble a row-major n×take_k index stream and scan-order outliers.
    let mut indices = Vec::with_capacity(n * take_k * width);
    let mut outliers = Vec::new();
    let mut next: Vec<std::slice::Iter<'_, f32>> = col_outliers.iter().map(|v| v.iter()).collect();
    for row in 0..n {
        for (j, stream) in col_streams.iter().enumerate() {
            let cell = &stream[row * width..(row + 1) * width];
            indices.extend_from_slice(cell);
            if index_code(cell) == escape {
                // Count was validated against the escapes above.
                outliers.push(
                    *next[j]
                        .next()
                        .ok_or(DpzError::Corrupt("implausible outlier count"))?,
                );
            }
        }
    }
    // Select the decoded components' basis columns, in stored order.
    let mut basis = Vec::with_capacity(m * take_k);
    for i in 0..m {
        for &c in &cols {
            basis.push(data.basis[i * k + c]);
        }
    }
    data.basis = basis;
    data.k = take_k;
    data.scores.indices = indices;
    data.scores.outliers = outliers;
    data.scores.len = n * take_k;
    Ok((data, take_k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DpzConfig;
    use crate::quantize::quantize_scores;

    fn sample_container() -> ContainerData {
        let scores: Vec<f64> = (0..40).map(|i| (i as f64 * 0.31).sin() * 0.1).collect();
        let q = quantize_scores(&scores, DpzConfig::loose().resolved_scheme().unwrap());
        ContainerData {
            dims: vec![10, 8],
            orig_len: 80,
            m: 8,
            n: 10,
            pad: 0,
            norm_min: -1.5,
            norm_range: 3.0,
            k: 4,
            transform_tag: 0,
            dwt_levels: 0,
            p: q.p,
            standardized: false,
            basis: (0..32).map(|i| i as f32 * 0.01).collect(),
            mean: vec![0.5; 8],
            scale: vec![],
            scores: q,
        }
    }

    #[test]
    fn round_trip() {
        let data = sample_container();
        let (bytes, sizes) = serialize(&data);
        assert!(sizes.total_raw() > 0);
        let parsed = deserialize(&bytes).unwrap();
        assert_eq!(parsed.dims, data.dims);
        assert_eq!(parsed.k, 4);
        assert_eq!(parsed.basis, data.basis);
        assert_eq!(parsed.mean, data.mean);
        assert_eq!(parsed.scores, data.scores);
    }

    #[test]
    fn round_trip_with_scale() {
        let mut data = sample_container();
        data.standardized = true;
        data.scale = vec![2.0; 8];
        let (bytes, _) = serialize(&data);
        let parsed = deserialize(&bytes).unwrap();
        assert!(parsed.standardized);
        assert_eq!(parsed.scale, data.scale);
    }

    #[test]
    fn rejects_bad_magic() {
        let (mut bytes, _) = serialize(&sample_container());
        bytes[0] = b'X';
        assert!(matches!(
            deserialize(&bytes),
            Err(DpzError::Corrupt("bad magic"))
        ));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let (bytes, _) = serialize(&sample_container());
        for cut in [0, 3, 5, 20, bytes.len() / 2, bytes.len() - 1] {
            assert!(deserialize(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn rejects_inconsistent_header() {
        let mut data = sample_container();
        data.k = 0;
        let (bytes, _) = serialize(&data);
        assert!(deserialize(&bytes).is_err());
        let mut data = sample_container();
        data.orig_len = 81; // dims product mismatch
        let (bytes, _) = serialize(&data);
        assert!(deserialize(&bytes).is_err());
        // n = 10 halves once before turning odd: one DWT level at most.
        let mut data = sample_container();
        data.transform_tag = 1;
        data.dwt_levels = 3;
        let infeasible = Err(DpzError::Corrupt("infeasible DWT depth"));
        assert_eq!(deserialize(&serialize(&data).0).map(|_| ()), infeasible);
        let progressive = serialize_progressive(&data).0;
        assert_eq!(
            deserialize_progressive(&progressive, None).map(|_| ()),
            infeasible
        );
    }

    /// A frozen v1 (pre-checksum) stream: the loose 64×96 golden field,
    /// written by the retired v1 writer.
    const V1_FIXTURE: &[u8] =
        include_bytes!("../../../tests/fixtures/legacy/dpz1-v1-loose-64x96.bin");

    #[test]
    fn v2_streams_carry_crc_trailers_and_report_checksummed() {
        let (data, _) = deserialize_with_info(V1_FIXTURE).unwrap();
        let (v2, _) = serialize(&data);
        // Three u32 trailers is the only layout difference.
        assert_eq!(v2.len(), V1_FIXTURE.len() + 12);
        let (_, info) = deserialize_with_info(&v2).unwrap();
        assert_eq!(
            info,
            ContainerInfo {
                version: 2,
                checksummed: true,
                tans_sections: 0
            }
        );
    }

    #[test]
    fn v1_streams_still_decode() {
        let (parsed, info) = deserialize_with_info(V1_FIXTURE).unwrap();
        assert_eq!(
            info,
            ContainerInfo {
                version: 1,
                checksummed: false,
                tans_sections: 0
            }
        );
        assert_eq!(parsed.dims, vec![64, 96]);
        // Decoding is independent of the framing: the v2 re-serialization
        // of the parsed payload parses back to the same parts.
        let again = deserialize(&serialize(&parsed).0).unwrap();
        assert_eq!(again.basis, parsed.basis);
        assert_eq!(again.mean, parsed.mean);
        assert_eq!(again.scores, parsed.scores);
    }

    #[test]
    fn corrupted_packed_section_fails_crc() {
        let (bytes, sizes) = serialize(&sample_container());
        // Flip a byte inside the packed model payload: the stored CRC no
        // longer matches, and decode must say so (not an inflate error).
        let mut corrupt = bytes.clone();
        let model_start = bytes.len() - 12 // three crc trailers
            - sizes.outliers_packed - 16
            - sizes.indices_packed - 16
            - sizes.model_packed;
        corrupt[model_start + sizes.model_packed / 2] ^= 0xFF;
        assert!(matches!(
            deserialize(&corrupt),
            Err(DpzError::Corrupt("model section checksum mismatch"))
        ));
    }

    /// A container whose index stream is large enough to clear
    /// [`TANS_MIN_SECTION`], so the tANS backend actually engages.
    fn bulky_container() -> ContainerData {
        // Mostly-zero scores quantize to a heavily skewed index stream —
        // the shape tANS is good at.
        let scores: Vec<f64> = (0..4000)
            .map(|i| if i % 13 == 0 { 0.05 } else { 0.0 })
            .collect();
        let q = quantize_scores(&scores, DpzConfig::loose().resolved_scheme().unwrap());
        ContainerData {
            dims: vec![100, 80],
            orig_len: 8000,
            m: 8,
            n: 1000,
            pad: 0,
            norm_min: 0.0,
            norm_range: 1.0,
            k: 4,
            transform_tag: 0,
            dwt_levels: 0,
            p: q.p,
            standardized: false,
            basis: (0..32).map(|i| i as f32 * 0.01).collect(),
            mean: vec![0.5; 8],
            scale: vec![],
            scores: q,
        }
    }

    #[test]
    fn tans_backend_round_trips_as_v3() {
        let data = bulky_container();
        let (bytes, sizes) = serialize_with_backend(&data, LosslessBackend::Tans);
        assert_eq!(bytes[4], 3, "tANS output must be a v3 container");
        assert!(sizes.indices_packed < sizes.indices_raw);
        let (parsed, info) = deserialize_with_info(&bytes).unwrap();
        assert_eq!(info.version, 3);
        assert!(info.checksummed);
        assert!(
            info.tans_sections >= 1,
            "the 4000-byte index stream must have used tANS"
        );
        assert_eq!(parsed.scores, data.scores);
        assert_eq!(parsed.basis, data.basis);
    }

    #[test]
    fn deflate_backend_stays_byte_identical_to_v2() {
        let data = bulky_container();
        let (default_bytes, _) = serialize(&data);
        let (explicit, _) = serialize_with_backend(&data, LosslessBackend::Deflate);
        assert_eq!(default_bytes, explicit);
        assert_eq!(default_bytes[4], 2);
    }

    #[test]
    fn v3_sections_below_threshold_fall_back_to_deflate() {
        // Every section of the small sample is under TANS_MIN_SECTION, so a
        // tANS request still produces DEFLATE sections — in a v3 frame.
        let (bytes, _) = serialize_with_backend(&sample_container(), LosslessBackend::Tans);
        assert_eq!(bytes[4], 3);
        let (_, info) = deserialize_with_info(&bytes).unwrap();
        assert_eq!(info.tans_sections, 0);
    }

    #[test]
    fn unknown_backend_flag_is_rejected() {
        let data = bulky_container();
        let (mut bytes, _) = serialize_with_backend(&data, LosslessBackend::Tans);
        // The model section's flag byte sits right after the fixed header.
        let header_len = 4 + 1 + 1 + 8 * data.dims.len() + 8 * 4 + 8 * 2 + 8 + 1 + 1 + 8 + 1 + 1;
        assert!(bytes[header_len] <= 1);
        bytes[header_len] = 7;
        assert!(matches!(
            deserialize(&bytes),
            Err(DpzError::Corrupt("unknown section backend"))
        ));
    }

    #[test]
    fn corrupt_tans_section_fails_crc_before_decode() {
        let data = bulky_container();
        let (bytes, _) = serialize_with_backend(&data, LosslessBackend::Tans);
        // Flip one byte near the end of the index payload (inside the tANS
        // bitstream): the CRC must catch it.
        let mut corrupt = bytes.clone();
        let off = corrupt.len() - 60;
        corrupt[off] ^= 0xFF;
        assert!(deserialize(&corrupt).is_err());
    }

    #[test]
    fn rejects_future_version() {
        let (mut bytes, _) = serialize(&sample_container());
        bytes[4] = 9;
        assert!(matches!(
            deserialize(&bytes),
            Err(DpzError::Corrupt("unsupported version"))
        ));
    }

    #[test]
    fn overflowing_dims_header_is_corrupt_not_panic() {
        // Regression: eight near-max dims used to hit `attempt to multiply
        // with overflow` in debug builds via `dims.iter().product()`.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(VERSION);
        bytes.push(8); // ndims
        for _ in 0..8 {
            bytes.extend_from_slice(&(u64::MAX / 2).to_le_bytes());
        }
        // Enough trailing zeros to reach the dims-product check.
        bytes.extend_from_slice(&[0u8; 128]);
        assert!(matches!(
            deserialize(&bytes),
            Err(DpzError::Corrupt("dims overflow"))
        ));
    }

    #[test]
    fn huge_declared_section_len_is_error_not_allocation() {
        // A valid header followed by a section whose packed_len claims more
        // bytes than the stream holds must fail as truncation, and a
        // packed_len near usize::MAX must not overflow cursor math.
        let data = sample_container();
        let (bytes, _) = serialize(&data);
        // Locate the model packed_len field: header is fixed-size up to it.
        let header_len = 4 + 1 + 1 + 8 * data.dims.len() + 8 * 4 + 8 * 2 + 8 + 1 + 1 + 8 + 1 + 1;
        let packed_len_off = header_len + 8; // after model_raw
        let mut evil = bytes.clone();
        evil[packed_len_off..packed_len_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(deserialize(&evil).is_err());
        let mut evil = bytes;
        evil[packed_len_off..packed_len_off + 8].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        assert!(deserialize(&evil).is_err());
    }

    #[test]
    fn section_sizes_add_up() {
        let (_, sizes) = serialize(&sample_container());
        assert_eq!(
            sizes.total_raw(),
            sizes.model_raw + sizes.indices_raw + sizes.outliers_raw
        );
        assert!(sizes.total_packed() > 0);
    }

    #[test]
    fn progressive_full_decode_matches_original_scores() {
        let data = sample_container();
        let (bytes, layout) = serialize_progressive(&data);
        assert_eq!(layout.components.len(), data.k);
        assert_eq!(layout.components.last().unwrap().end, bytes.len());
        // Energies are stored in descending order.
        for w in layout.components.windows(2) {
            assert!(w[0].energy >= w[1].energy);
        }
        let (full, used) = deserialize_progressive(&bytes, None).unwrap();
        assert_eq!(used, data.k);
        assert_eq!(full.dims, data.dims);
        // All components present ⇒ the dequantized score grid matches the
        // original up to column permutation; check total energy instead of
        // byte equality.
        let orig = dequantize_scores(&data.scores);
        let got = dequantize_scores(&full.scores);
        let e = |v: &[f64]| v.iter().map(|&x| x * x).sum::<f64>();
        assert!((e(&orig) - e(&got)).abs() < 1e-9);
    }

    #[test]
    fn progressive_prefix_decodes_with_fewer_components() {
        let data = sample_container();
        let (bytes, layout) = serialize_progressive(&data);
        // A prefix holding the model + first two components is enough.
        let prefix = &bytes[..layout.components[1].end];
        let (partial, used) = deserialize_progressive(prefix, Some(2)).unwrap();
        assert_eq!(used, 2);
        assert_eq!(partial.k, 2);
        assert_eq!(partial.basis.len(), partial.m * 2);
        assert_eq!(partial.scores.len, partial.n * 2);
        // But three components cannot come out of that prefix.
        assert!(deserialize_progressive(prefix, Some(3)).is_err());
    }

    #[test]
    fn progressive_rejects_corrupt_column_ids_and_crc() {
        let data = sample_container();
        let (bytes, layout) = serialize_progressive(&data);
        // The first component's column-id u64 sits right at model_end.
        let mut evil = bytes.clone();
        evil[layout.model_end..layout.model_end + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            deserialize_progressive(&evil, None),
            Err(DpzError::Corrupt("invalid progressive column id"))
        ));
        // A flipped byte inside a component payload trips that section's CRC.
        let mut evil = bytes;
        let mid = (layout.model_end + layout.components[0].end) / 2;
        evil[mid] ^= 0xFF;
        assert!(deserialize_progressive(&evil, None).is_err());
    }
}
