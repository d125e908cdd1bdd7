//! Chunked parallel compression — the scalability extension the paper lists
//! as future work ("we plan to expand the DPZ algorithm to exploit
//! parallelism for better scalability").
//!
//! The array is split into slabs along its slowest axis; each slab is an
//! independent DPZ stream compressed on a rayon worker. Benefits:
//!
//! * near-linear multi-core compression scaling (each slab runs the full
//!   DCT→PCA→quantize pipeline independently),
//! * slab-granular **random access**: [`decompress_chunk`] and
//!   [`decompress_region`] decode only the slabs they touch,
//! * bounded memory: the `M×M` covariance is per-slab.
//!
//! The cost is a per-slab model (basis + means), so very small slabs trade
//! ratio for parallelism; 4–16 slabs is a good range at the default scales.
//!
//! ## Container versions
//!
//! Legacy (v1/v2) layout, decode-only — directory *before* the payload:
//! `magic "DPZC" | version u8 | ndims u8 | dims u64×ndims
//! | chunk count u64 | chunk byte lengths u64×count
//! | chunk crc32 u32×count (version 2) | streams…`.
//!
//! Version 4 (the current writer, `VERSION_SEEKABLE`) moves the directory
//! into an **index footer** so a seekable reader can locate, size, and
//! CRC-verify exactly the chunks a query touches without walking the
//! payload:
//!
//! ```text
//! magic "DPZC" | 4 u8 | ndims u8 | dims u64×ndims | flags u8
//! | chunk streams…
//! | footer: count u64
//!           per chunk: offset u64 | len u64 | rows u64 | values u64 | crc32 u32
//!           (flags bit 0) per chunk: k u64 | model_end u64
//!                                    per component: end u64 | energy f64
//! | tail: footer_len u64 | footer_crc32 u32 | magic "DPZF"
//! ```
//!
//! Version 3 is deliberately **skipped**: in the DPZ1 family the version-3
//! byte means "per-section tANS backend flags", and keeping that number
//! unambiguous across both formats avoids a false-versioning trap for
//! tooling that sniffs only `bytes[4]`.
//!
//! Flags bit 0 ([`FLAG_PROGRESSIVE`]) marks a **progressive** container:
//! each chunk is a `DPZP` stream (see
//! [`crate::container::serialize_progressive`]) whose PCA components are
//! stored in descending captured-energy order, and the footer records each
//! component's byte range, so [`decompress_progressive`] can reconstruct
//! from any prefix budget and refine with later bytes. A prefix cannot be
//! guarded by the whole-chunk CRC, so progressive sections each carry their
//! own CRC-32 trailer instead.
//!
//! Every version is read through one [`SeekableIndex`]: the v4 footer, or
//! for a legacy v1/v2 container the front directory plus each chunk
//! stream's own header (for its rows). So legacy containers serve chunk and
//! region reads too, from a slice or a `Read + Seek` source alike, and
//! [`decompress_chunked_with_info`] reports which version was seen.

use crate::config::DpzConfig;
use crate::container::{self, checked_product, ContainerInfo, DpzError, ProgressiveLayout};
use crate::decompose::extract_region;
use crate::pipeline::{
    decompress_with_info, record_result_gauges, Compressed, CompressionStats, NumericOutcome,
    PipelinePlan,
};
use crate::target::{self, TargetArtifact};
use dpz_deflate::crc32;
use dpz_linalg::SubspaceSeed;
use dpz_telemetry::span;
use rayon::prelude::*;
use std::io::{Cursor, Read, Seek, SeekFrom};
use std::ops::Range;

const MAGIC: &[u8; 4] = b"DPZC";
/// Tail sentinel closing a seekable container.
const TAIL_MAGIC: &[u8; 4] = b"DPZF";
/// Tail size: footer_len u64 + footer_crc32 u32 + tail magic.
const TAIL_LEN: usize = 16;
/// Current writer version (index footer + tail).
const VERSION_SEEKABLE: u8 = 4;
/// Newest legacy version (per-chunk CRC-32 column before the payload).
const VERSION_CRC: u8 = 2;
/// Oldest version the decoder still accepts (pre-checksum layout).
const MIN_VERSION: u8 = 1;

/// Projection wave width for the pipelined chunk driver. Deliberately a
/// constant rather than `rayon::current_num_threads()`: the cross-chunk
/// warm-start chain follows wave boundaries, so a thread-count-dependent
/// width would make the compressed bytes depend on the host's core count.
const PROJECT_WAVE: usize = 8;
/// Container flag: chunks are progressive `DPZP` streams with per-component
/// byte ranges in the footer.
pub const FLAG_PROGRESSIVE: u8 = 1;

/// Result of a chunked compression.
#[derive(Debug, Clone)]
pub struct ChunkedCompressed {
    /// The multi-chunk container.
    pub bytes: Vec<u8>,
    /// Per-chunk stats from the inner pipeline (empty for progressive
    /// containers, whose entropy stage bypasses the stats-producing coder).
    pub chunk_stats: Vec<CompressionStats>,
    /// End-to-end ratio (original bytes / container bytes).
    pub cr_total: f64,
}

impl TargetArtifact for ChunkedCompressed {
    fn ratio(&self) -> f64 {
        self.cr_total
    }

    fn decode(&self) -> Result<Vec<f32>, DpzError> {
        decompress_chunked(&self.bytes).map(|(values, _)| values)
    }
}

fn check_chunk_input(data: &[f32], dims: &[usize]) -> Result<(), DpzError> {
    if dims.is_empty() || checked_product(dims, "dims overflow").ok() != Some(data.len()) {
        return Err(DpzError::BadInput("dims do not match data length"));
    }
    if data.len() < 4 {
        return Err(DpzError::BadInput("too small to chunk"));
    }
    crate::pipeline::check_input(data, dims)
}

/// The slab layout both writers share: slabs along the slowest axis, and
/// at most two distinct slab lengths (full slabs and a ragged tail), so two
/// plans cover every chunk.
struct Slabs<'a> {
    dims: &'a [usize],
    /// Values per row along the slowest axis.
    rest: usize,
    /// Values in a full slab.
    slab_values: usize,
    full: PipelinePlan,
    tail: Option<PipelinePlan>,
}

impl<'a> Slabs<'a> {
    fn plan(
        len: usize,
        dims: &'a [usize],
        cfg: &DpzConfig,
        chunks: usize,
    ) -> Result<Self, DpzError> {
        let slow = dims[0];
        let rest: usize = dims[1..].iter().product::<usize>().max(1);
        // Every slab, the ragged tail included, must hold the two values a
        // plan needs. That only binds when a row is a single value: then a
        // slab takes at least two rows, and one more while the tail would
        // be a lone row.
        let mut rows = slow
            .div_ceil(chunks.clamp(1, slow))
            .max(2usize.div_ceil(rest));
        while (slow % rows) * rest == 1 {
            rows += 1;
        }
        let slab_values = rows * rest;
        let full = PipelinePlan::new(slab_values, cfg)?;
        let tail = match len % slab_values {
            0 => None,
            l => Some(PipelinePlan::new(l, cfg)?),
        };
        Ok(Slabs {
            dims,
            rest,
            slab_values,
            full,
            tail,
        })
    }

    /// Slab height along the slowest axis.
    fn rows(&self, slab: &[f32]) -> usize {
        slab.len() / self.rest
    }

    /// Run one slab's numeric stages through its plan, with the slab's own
    /// dims. `warm` seeds full-size slabs only: the ragged tail has a
    /// different block shape, so a full-slab basis can never seed it; it
    /// fits cold and passes nothing on.
    fn project(
        &self,
        slab: &[f32],
        warm: Option<&SubspaceSeed>,
    ) -> Result<(NumericOutcome, Option<SubspaceSeed>), DpzError> {
        let mut slab_dims = self.dims.to_vec();
        slab_dims[0] = self.rows(slab);
        match &self.tail {
            Some(tail) if slab.len() != self.slab_values => tail
                .project(slab, &slab_dims, None)
                .map(|(outcome, _)| (outcome, None)),
            _ => self.full.project(slab, &slab_dims, warm),
        }
    }

    /// Frame the slab streams (in slab order) as a seekable v4 container.
    fn assemble(
        &self,
        data: &[f32],
        streams: &[Vec<u8>],
        progressive: Option<&[ProgressiveLayout]>,
        chunk_stats: Vec<CompressionStats>,
    ) -> ChunkedCompressed {
        let rows: Vec<usize> = data
            .chunks(self.slab_values)
            .map(|slab| self.rows(slab))
            .collect();
        let bytes = assemble_seekable(self.dims, streams, &rows, self.rest, progressive);
        dpz_telemetry::global()
            .counter("dpz_chunks_total")
            .add(streams.len() as u64);
        ChunkedCompressed {
            cr_total: (data.len() * 4) as f64 / bytes.len() as f64,
            bytes,
            chunk_stats,
        }
    }
}

/// Compress `data` as `chunks` independent slabs (in parallel).
///
/// Each slab must still be large enough to decompose (≥ 2 values); `chunks`
/// is clamped accordingly. The output is a seekable v4 container.
///
/// Data-dependent quality targets ([`crate::QualityTarget::Ratio`] /
/// [`crate::QualityTarget::Psnr`]) are resolved **once, against the whole
/// input**, before any slab is planned — every chunk then shares the same
/// resolved bound, and the control loop confirms against the aggregate
/// container.
pub fn compress_chunked(
    data: &[f32],
    dims: &[usize],
    cfg: &DpzConfig,
    chunks: usize,
) -> Result<ChunkedCompressed, DpzError> {
    check_chunk_input(data, dims)?;
    cfg.target.validate()?;
    target::compress_to_target(data, cfg, |resolved| {
        compress_chunked_resolved(data, dims, resolved, chunks)
    })
    .inspect(|out| record_result_gauges(out.cr_total, out.chunk_stats.first()))
}

fn compress_chunked_resolved(
    data: &[f32],
    dims: &[usize],
    cfg: &DpzConfig,
    chunks: usize,
) -> Result<ChunkedCompressed, DpzError> {
    let _root = span!("compress_chunked");
    // The chunked driver is the plain pipeline's stage chain run once per
    // slab through the shared slab plans.
    let slabs = Slabs::plan(data.len(), dims, cfg, chunks)?;

    // Two-phase pipelined execution: each slab's numeric stages
    // (DCT → PCA → quantize, via `PipelinePlan::project`) and its entropy
    // coding (`PipelinePlan::encode`) are separate tasks. Slabs are
    // taken in fixed-width waves; `rayon::join` runs wave `w`'s entropy
    // coding concurrently with wave `w+1`'s numeric stages, so the DEFLATE
    // or tANS work of finished slabs overlaps the transform math of later
    // ones instead of serializing behind it. At most two waves of numeric
    // outcomes are ever alive — the bounded in-flight queue that keeps
    // memory proportional to the wave width, not the chunk count.
    //
    // Cross-chunk basis warm-start rides the same wave structure: the
    // converged PCA sketch basis of wave `w`'s last full-size slab seeds
    // every fit in wave `w+1`. The fitter's TVE gate rejects a seed whose
    // subspace no longer explains the data (dissimilar consecutive chunks
    // fall back to a cold randomized fit), so quality never depends on the
    // handoff — only the iteration count does. The wave width is a fixed
    // constant, NOT the rayon pool width: the warm-start chain (and thus
    // every artifact byte) must be identical no matter how many threads the
    // host has. Within a wave each slab sees the same seed, so per-chunk
    // output is also independent of intra-wave scheduling. The container is
    // therefore deterministic for a given input and config, but — unlike
    // the pre-warm-start driver — chunk streams are no longer byte-equal to
    // compressing each slab in isolation (the seed changes which basis the
    // sketch converges to; the TVE certificate is unchanged).
    let project_one = |(index, chunk): (usize, &[f32]), warm: Option<&SubspaceSeed>| {
        let mut chunk_span = span!("chunk");
        chunk_span.annotate("chunk", index as f64);
        chunk_span.annotate("bytes", (chunk.len() * 4) as f64);
        slabs.project(chunk, warm)
    };
    let encode_wave = |outcomes: Vec<NumericOutcome>| -> Vec<Compressed> {
        outcomes
            .into_par_iter()
            .map(|o| slabs.full.encode(o))
            .collect()
    };

    let slab_data: Vec<(usize, &[f32])> = data.chunks(slabs.slab_values).enumerate().collect();
    let mut streams = Vec::with_capacity(slab_data.len());
    let mut chunk_stats = Vec::with_capacity(slab_data.len());
    let mut pending: Option<Vec<NumericOutcome>> = None;
    let mut warm: Option<SubspaceSeed> = None;
    for wave_slabs in slab_data.chunks(PROJECT_WAVE) {
        let seed = warm.as_ref();
        let (encoded, projected) = rayon::join(
            || pending.take().map(&encode_wave),
            || {
                wave_slabs
                    .par_iter()
                    .map(|&s| project_one(s, seed))
                    .collect::<Vec<Result<_, DpzError>>>()
            },
        );
        for c in encoded.into_iter().flatten() {
            streams.push(c.bytes);
            chunk_stats.push(c.stats);
        }
        let mut wave_outcomes = Vec::with_capacity(projected.len());
        let mut wave_basis: Option<SubspaceSeed> = None;
        for r in projected {
            let (outcome, basis) = r?;
            // Last full-size slab's converged basis seeds the next wave; a
            // wave that produced none (dense routing) keeps the prior seed.
            if basis.is_some() {
                wave_basis = basis;
            }
            wave_outcomes.push(outcome);
        }
        if wave_basis.is_some() {
            warm = wave_basis;
        }
        pending = Some(wave_outcomes);
    }
    for c in pending.take().map(&encode_wave).into_iter().flatten() {
        streams.push(c.bytes);
        chunk_stats.push(c.stats);
    }

    Ok(slabs.assemble(data, &streams, None, chunk_stats))
}

/// Compress `data` as a **progressive** seekable container: every slab is a
/// `DPZP` stream whose components are stored by descending captured energy,
/// with per-component byte ranges in the footer. Decode the whole thing
/// with [`decompress_chunked`], or a prefix with [`decompress_progressive`].
pub fn compress_progressive(
    data: &[f32],
    dims: &[usize],
    cfg: &DpzConfig,
    chunks: usize,
) -> Result<ChunkedCompressed, DpzError> {
    check_chunk_input(data, dims)?;
    cfg.target.validate()?;
    target::compress_to_target(data, cfg, |resolved| {
        compress_progressive_resolved(data, dims, resolved, chunks)
    })
    .inspect(|out| record_result_gauges(out.cr_total, None))
}

fn compress_progressive_resolved(
    data: &[f32],
    dims: &[usize],
    cfg: &DpzConfig,
    chunks: usize,
) -> Result<ChunkedCompressed, DpzError> {
    let _root = span!("compress_progressive");
    let slabs = Slabs::plan(data.len(), dims, cfg, chunks)?;
    let slab_data: Vec<&[f32]> = data.chunks(slabs.slab_values).collect();
    let results: Vec<Result<(Vec<u8>, ProgressiveLayout), DpzError>> = slab_data
        .par_iter()
        .map(|chunk| {
            let (outcome, _) = slabs.project(chunk, None)?;
            Ok(container::serialize_progressive(&outcome.into_payload()))
        })
        .collect();
    let mut streams = Vec::with_capacity(slab_data.len());
    let mut layouts = Vec::with_capacity(slab_data.len());
    for r in results {
        let (bytes, layout) = r?;
        streams.push(bytes);
        layouts.push(layout);
    }
    Ok(slabs.assemble(data, &streams, Some(&layouts), Vec::new()))
}

fn push_u64(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

/// Build a seekable v4 container: header, streams, index footer, tail.
fn assemble_seekable(
    dims: &[usize],
    streams: &[Vec<u8>],
    rows: &[usize],
    rest: usize,
    progressive: Option<&[ProgressiveLayout]>,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION_SEEKABLE);
    out.push(dims.len() as u8);
    for &d in dims {
        push_u64(&mut out, d);
    }
    out.push(if progressive.is_some() {
        FLAG_PROGRESSIVE
    } else {
        0
    });
    let header_len = out.len();
    for s in streams {
        out.extend_from_slice(s);
    }

    let mut footer = Vec::new();
    push_u64(&mut footer, streams.len());
    let mut offset = header_len;
    for (i, s) in streams.iter().enumerate() {
        push_u64(&mut footer, offset);
        push_u64(&mut footer, s.len());
        push_u64(&mut footer, rows[i]);
        push_u64(&mut footer, rows[i] * rest);
        footer.extend_from_slice(&crc32(s).to_le_bytes());
        offset += s.len();
    }
    if let Some(layouts) = progressive {
        for l in layouts {
            push_u64(&mut footer, l.components.len());
            push_u64(&mut footer, l.model_end);
            for c in &l.components {
                push_u64(&mut footer, c.end);
                footer.extend_from_slice(&c.energy.to_le_bytes());
            }
        }
    }
    out.extend_from_slice(&footer);
    push_u64(&mut out, footer.len());
    out.extend_from_slice(&crc32(&footer).to_le_bytes());
    out.extend_from_slice(TAIL_MAGIC);
    out
}

/// One chunk's entry in the container index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Absolute byte offset of the chunk stream within the container.
    pub offset: usize,
    /// Byte length of the chunk stream.
    pub len: usize,
    /// Slab height along the slowest axis.
    pub rows: usize,
    /// Raw value count (`rows ×` product of the remaining dims).
    pub values: usize,
    /// CRC-32 of the chunk stream bytes; `None` in version-1 containers,
    /// which store none.
    pub crc: Option<u32>,
}

impl ChunkEntry {
    /// Check a whole chunk stream against the stored CRC-32, if any.
    fn verify(&self, stream: &[u8]) -> Result<(), DpzError> {
        match self.crc {
            Some(crc) if crc32(stream) != crc => Err(DpzError::Corrupt("chunk checksum mismatch")),
            _ => Ok(()),
        }
    }
}

/// Byte range of one energy-ordered component (footer copy of
/// [`container::ComponentSpan`], offsets relative to the chunk stream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentEntry {
    /// Exclusive end offset within the chunk stream.
    pub end: usize,
    /// Captured energy of the component.
    pub energy: f64,
}

/// Per-chunk progressive layout from the footer.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveEntry {
    /// Stored component count.
    pub k: usize,
    /// End of the header + model section within the chunk stream.
    pub model_end: usize,
    /// Component spans in stored (energy-descending) order.
    pub components: Vec<ComponentEntry>,
}

/// The index of a DPZC container, of any version: everything a reader
/// needs to locate, size, and verify chunks without touching the payload.
/// [`SeekableIndex::read`] fetches only the header and the v4 footer (or
/// the legacy directory and each chunk's stream header) from a
/// `Read + Seek` source.
#[derive(Debug, Clone, PartialEq)]
pub struct SeekableIndex {
    /// Container version byte (1, 2 or 4).
    pub version: u8,
    /// Array dimensions.
    pub dims: Vec<usize>,
    /// Container flag byte (bit 0 = progressive; always 0 before v4).
    pub flags: u8,
    /// Byte length of everything before the first chunk stream (the
    /// header, plus the directory in v1/v2).
    pub header_len: usize,
    /// Total container length in bytes.
    pub total_len: usize,
    /// Per-chunk index entries, in slab order.
    pub chunks: Vec<ChunkEntry>,
    /// Per-chunk progressive layouts when bit 0 of `flags` is set.
    pub progressive: Option<Vec<ProgressiveEntry>>,
}

fn io_error(e: std::io::Error) -> DpzError {
    DpzError::Io(e.to_string())
}

/// Read `len` bytes at `offset` of a source whose bytes end at `end`. A
/// span past `end` is `Corrupt(what)` before anything is allocated, so no
/// read can allocate more than the source holds.
fn read_at<R: Read + Seek>(
    r: &mut R,
    offset: usize,
    len: usize,
    end: usize,
    what: &'static str,
) -> Result<Vec<u8>, DpzError> {
    if offset.checked_add(len).is_none_or(|stop| stop > end) {
        return Err(DpzError::Corrupt(what));
    }
    r.seek(SeekFrom::Start(offset as u64)).map_err(io_error)?;
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(io_error)?;
    Ok(buf)
}

/// Check that index entries tile the container: chunk streams back to back
/// from `start` to `end` (an entry pointing anywhere else, or overlapping,
/// is a forgery, not a variant), each a slab of whole rows, together
/// covering `dims` exactly. `rest` is the value count of one row.
fn check_tiling(
    chunks: &[ChunkEntry],
    dims: &[usize],
    rest: usize,
    start: usize,
    end: usize,
) -> Result<(), DpzError> {
    const SHAPE: DpzError = DpzError::Corrupt("chunk shape inconsistent");
    let mut next = start;
    let (mut rows, mut values) = (0usize, 0usize);
    for e in chunks {
        if e.offset != next {
            return Err(DpzError::Corrupt("chunk offsets not contiguous"));
        }
        next = e
            .offset
            .checked_add(e.len)
            .ok_or(DpzError::Corrupt("chunk lengths overflow"))?;
        if e.rows == 0 || e.rows.checked_mul(rest) != Some(e.values) {
            return Err(SHAPE);
        }
        rows = rows.checked_add(e.rows).ok_or(SHAPE)?;
        values = values.checked_add(e.values).ok_or(SHAPE)?;
    }
    if next != end {
        return Err(DpzError::Corrupt("chunk payload length mismatch"));
    }
    if rows != dims[0] || values != checked_product(dims, "dims overflow")? {
        return Err(SHAPE);
    }
    Ok(())
}

/// Read and verify the v4 tail and footer, and parse the footer against the
/// header-derived geometry.
fn read_footer<R: Read + Seek>(
    r: &mut R,
    dims: &[usize],
    rest: usize,
    flags: u8,
    header_len: usize,
    total_len: usize,
) -> Result<(Vec<ChunkEntry>, Option<Vec<ProgressiveEntry>>), DpzError> {
    const TRUNCATED: &str = "truncated chunk footer";
    if total_len < header_len + TAIL_LEN {
        return Err(DpzError::Corrupt(TRUNCATED));
    }
    let tail = read_at(r, total_len - TAIL_LEN, TAIL_LEN, total_len, TRUNCATED)?;
    if &tail[12..] != TAIL_MAGIC {
        return Err(DpzError::Corrupt("bad footer magic"));
    }
    let mut cur = container::Cursor::new(&tail, TRUNCATED);
    let footer_len = cur.u64()?;
    let stored_crc = cur.u32()?;
    if footer_len > total_len - header_len - TAIL_LEN {
        return Err(DpzError::Corrupt(TRUNCATED));
    }
    let footer_start = total_len - TAIL_LEN - footer_len;
    let footer = read_at(r, footer_start, footer_len, total_len, TRUNCATED)?;
    if crc32(&footer) != stored_crc {
        return Err(DpzError::Corrupt("footer checksum mismatch"));
    }
    if flags & !FLAG_PROGRESSIVE != 0 {
        return Err(DpzError::Corrupt("unknown container flags"));
    }
    let mut cur = container::Cursor::new(&footer, TRUNCATED);
    let count = cur.u64()?;
    if count == 0 || count > 1 << 20 {
        return Err(DpzError::Corrupt("implausible chunk count"));
    }
    // Collected, not preallocated: the entries parsed are bounded by the
    // footer bytes read, not by the declared count.
    let chunks = (0..count)
        .map(|_| {
            Ok(ChunkEntry {
                offset: cur.u64()?,
                len: cur.u64()?,
                rows: cur.u64()?,
                values: cur.u64()?,
                crc: Some(cur.u32()?),
            })
        })
        .collect::<Result<Vec<_>, DpzError>>()?;
    check_tiling(&chunks, dims, rest, header_len, footer_start)?;
    let progressive = if flags & FLAG_PROGRESSIVE != 0 {
        let mut entries = Vec::with_capacity(count);
        for e in &chunks {
            let k = cur.u64()?;
            if k == 0 || k > 1 << 16 {
                return Err(DpzError::Corrupt("implausible component count"));
            }
            let model_end = cur.u64()?;
            if model_end == 0 || model_end >= e.len {
                return Err(DpzError::Corrupt("invalid progressive layout"));
            }
            let mut components = Vec::with_capacity(k);
            let mut prev = model_end;
            for _ in 0..k {
                let end = cur.u64()?;
                let energy = cur.f64()?;
                if end <= prev || end > e.len {
                    return Err(DpzError::Corrupt("invalid progressive layout"));
                }
                if !energy.is_finite() || energy < 0.0 {
                    return Err(DpzError::Corrupt("invalid component energy"));
                }
                components.push(ComponentEntry { end, energy });
                prev = end;
            }
            if prev != e.len {
                return Err(DpzError::Corrupt("invalid progressive layout"));
            }
            entries.push(ProgressiveEntry {
                k,
                model_end,
                components,
            });
        }
        Some(entries)
    } else {
        None
    };
    if !cur.at_end() {
        return Err(DpzError::Corrupt("footer length mismatch"));
    }
    Ok((chunks, progressive))
}

/// Build the legacy (v1/v2) index from the front directory that starts at
/// `dir_start`: `count` chunk lengths, then (v2) as many CRC-32s, then the
/// streams. The directory stores no shape, so each chunk's rows are read
/// from its own DPZ1 header. Returns the entries and the offset of the
/// first stream.
fn read_directory<R: Read + Seek>(
    r: &mut R,
    version: u8,
    count: usize,
    dims: &[usize],
    rest: usize,
    dir_start: usize,
    total_len: usize,
) -> Result<(Vec<ChunkEntry>, usize), DpzError> {
    /// A DPZ1 header up to its slowest dim: magic, version, ndims, dims[0].
    const STREAM_HEAD: usize = 14;
    const TRUNCATED: &str = "truncated chunk directory";
    if count == 0 || count > 1 << 20 {
        return Err(DpzError::Corrupt("implausible chunk count"));
    }
    let crc_len = if version >= VERSION_CRC { 4 } else { 0 };
    let dir = read_at(r, dir_start, count * (8 + crc_len), total_len, TRUNCATED)?;
    let mut cur = container::Cursor::new(&dir, TRUNCATED);
    let lens = (0..count)
        .map(|_| cur.u64())
        .collect::<Result<Vec<_>, _>>()?;
    let payload_start = dir_start + dir.len();
    // Checked fold: near-usize::MAX lengths must not wrap into a bogus total
    // that aliases the payload length.
    let payload_len = lens
        .iter()
        .try_fold(0usize, |acc, &l| acc.checked_add(l))
        .ok_or(DpzError::Corrupt("chunk lengths overflow"))?;
    if payload_len != total_len - payload_start {
        return Err(DpzError::Corrupt("chunk payload length mismatch"));
    }
    let mut chunks = Vec::with_capacity(count);
    let mut offset = payload_start;
    for len in lens {
        let crc = if crc_len > 0 { Some(cur.u32()?) } else { None };
        let head = read_at(
            r,
            offset,
            STREAM_HEAD,
            offset + len,
            "unreadable chunk header",
        )?;
        let rows = container::Cursor::new(&head[6..], "unreadable chunk header").u64()?;
        chunks.push(ChunkEntry {
            offset,
            len,
            rows,
            values: rows
                .checked_mul(rest)
                .ok_or(DpzError::Corrupt("chunk shape inconsistent"))?,
            crc,
        });
        offset += len;
    }
    check_tiling(&chunks, dims, rest, payload_start, total_len)?;
    Ok((chunks, payload_start))
}

impl SeekableIndex {
    /// Parse a whole in-memory container's index.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DpzError> {
        SeekableIndex::read(&mut Cursor::new(bytes))
    }

    /// Read the index from a seekable source, touching **only** the header
    /// and the v4 footer — the point of the v4 layout — or, for a legacy
    /// v1/v2 container, the header, the directory and the first bytes of
    /// every chunk stream.
    pub fn read<R: Read + Seek>(r: &mut R) -> Result<Self, DpzError> {
        let total_len = usize::try_from(r.seek(SeekFrom::End(0)).map_err(io_error)?)
            .map_err(|_| DpzError::Corrupt("size overflows usize"))?;
        let head = read_at(r, 0, 6, total_len, "bad chunk magic")?;
        if &head[..4] != MAGIC {
            return Err(DpzError::Corrupt("bad chunk magic"));
        }
        let version = head[4];
        let legacy = (MIN_VERSION..=VERSION_CRC).contains(&version);
        if !legacy && version != VERSION_SEEKABLE {
            return Err(DpzError::Corrupt("unsupported chunk version"));
        }
        let ndims = usize::from(head[5]);
        if ndims == 0 || ndims > 8 {
            return Err(DpzError::Corrupt("implausible dimensionality"));
        }
        // The dims, then the v4 flag byte or the legacy chunk count.
        let fields = read_at(
            r,
            6,
            8 * ndims + if legacy { 8 } else { 1 },
            total_len,
            "truncated chunk header",
        )?;
        let mut cur = container::Cursor::new(&fields, "truncated chunk header");
        let dims = (0..ndims)
            .map(|_| cur.u64())
            .collect::<Result<Vec<_>, _>>()?;
        // Checked up front: eight huge dims must be a decode error, not a
        // multiply-overflow panic. The trailing dims are checked on their
        // own: a zero slow axis keeps the full product small while they
        // alone overflow.
        checked_product(&dims, "dims overflow")?;
        let rest = checked_product(&dims[1..], "dims overflow")?.max(1);
        let end_of_fields = 6 + fields.len();
        let (flags, header_len, chunks, progressive) = if legacy {
            let count = cur.u64()?;
            let (chunks, header_len) =
                read_directory(r, version, count, &dims, rest, end_of_fields, total_len)?;
            (0, header_len, chunks, None)
        } else {
            let flags = cur.u8()?;
            let (chunks, progressive) =
                read_footer(r, &dims, rest, flags, end_of_fields, total_len)?;
            (flags, end_of_fields, chunks, progressive)
        };
        Ok(SeekableIndex {
            version,
            dims,
            flags,
            header_len,
            total_len,
            chunks,
            progressive,
        })
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Whether the container carries progressive component layouts.
    pub fn is_progressive(&self) -> bool {
        self.progressive.is_some()
    }

    fn entry(&self, i: usize) -> Result<&ChunkEntry, DpzError> {
        self.chunks
            .get(i)
            .ok_or(DpzError::BadInput("chunk index out of range"))
    }

    /// One seek-and-read of a chunk's stream bytes.
    fn fetch<R: Read + Seek>(&self, r: &mut R, e: &ChunkEntry) -> Result<Vec<u8>, DpzError> {
        read_at(
            r,
            e.offset,
            e.len,
            self.total_len,
            "truncated chunk payload",
        )
    }

    /// Fetch one chunk's stream bytes from a seekable source and verify its
    /// CRC, when the container stores one. Reads exactly `chunks[i].len`
    /// bytes.
    pub fn read_chunk<R: Read + Seek>(&self, r: &mut R, i: usize) -> Result<Vec<u8>, DpzError> {
        let e = self.entry(i)?;
        let stream = self.fetch(r, e)?;
        e.verify(&stream)?;
        Ok(stream)
    }
}

/// Count a decode failure against the dpzc reject series. Every public
/// decode entry point funnels its fallible body through here so telemetry
/// sees random-access and region rejects, not just full decodes.
fn counted<T>(f: impl FnOnce() -> Result<T, DpzError>) -> Result<T, DpzError> {
    let result = f();
    if result.is_err() {
        dpz_telemetry::global()
            .counter_with("dpz_decode_rejects_total", &[("codec", "dpzc")])
            .inc();
    }
    result
}

/// Decode one chunk stream, dispatching on its inner magic: `DPZ1` (plain
/// pipeline) or `DPZP` (progressive, decoded in full here).
fn decode_stream(stream: &[u8]) -> Result<(Vec<f32>, Vec<usize>, ContainerInfo), DpzError> {
    if stream.starts_with(container::PROGRESSIVE_MAGIC) {
        let (payload, _) = container::deserialize_progressive(stream, None)?;
        let (values, dims) = crate::pipeline::reconstruct_values(&payload)?;
        Ok((
            values,
            dims,
            ContainerInfo {
                version: container::PROGRESSIVE_VERSION,
                checksummed: true,
                tans_sections: 0,
            },
        ))
    } else {
        decompress_with_info(stream)
    }
}

/// The one step every DPZC read takes per chunk. `stream` is the chunk's
/// bytes (a slice of the in-memory container, or one seek-and-read), or a
/// progressive prefix of them. A whole stream is checked against the
/// entry's CRC-32 when there is one (a prefix is not covered by it; its
/// sections carry their own). Then `decode` runs, and the slab must match
/// the entry: its rows, the container's trailing dims, its value count.
fn decode_chunk<T>(
    dims: &[usize],
    e: &ChunkEntry,
    stream: &[u8],
    decode: impl FnOnce(&[u8]) -> Result<(Vec<f32>, Vec<usize>, T), DpzError>,
) -> Result<(Vec<f32>, Vec<usize>, T), DpzError> {
    if stream.len() == e.len {
        e.verify(stream)?;
    }
    let (values, slab_dims, side) = decode(stream)?;
    if slab_dims.first() != Some(&e.rows) || slab_dims[1..] != dims[1..] || values.len() != e.values
    {
        return Err(DpzError::Corrupt("chunk dims inconsistent with index"));
    }
    Ok((values, slab_dims, side))
}

/// Concatenate decoded parts in chunk order, collecting each part's side
/// value. The first failed part's error wins. (Growing one buffer part by
/// part measured faster on full decodes than collecting the parts and
/// calling `concat`.)
fn stitch<T>(parts: Vec<Result<(Vec<f32>, T), DpzError>>) -> Result<(Vec<f32>, Vec<T>), DpzError> {
    let mut out = Vec::new();
    let mut side = Vec::new();
    for p in parts {
        let (v, t) = p?;
        out.extend_from_slice(&v);
        side.push(t);
    }
    Ok((out, side))
}

/// Uncounted full decode: every chunk, as a slice of `bytes`, through
/// [`decode_chunk`] in parallel.
fn full_decode(bytes: &[u8]) -> Result<(Vec<f32>, Vec<usize>, ContainerInfo), DpzError> {
    let _root = span!("decompress_chunked");
    let index = SeekableIndex::from_bytes(bytes)?;
    // CRC verification rides inside the same parallel pass as the decode;
    // results are examined in chunk order, so a corrupt stream fails
    // deterministically regardless of worker scheduling.
    let parts: Vec<Result<(Vec<f32>, ContainerInfo), DpzError>> = index
        .chunks
        .par_iter()
        .map(|e| {
            let stream = &bytes[e.offset..e.offset + e.len];
            let (v, _, info) = decode_chunk(&index.dims, e, stream, decode_stream)?;
            Ok((v, info))
        })
        .collect();
    let (values, infos) = stitch(parts)?;
    let tans_sections = infos
        .iter()
        .fold(0u8, |acc, info| acc.saturating_add(info.tans_sections));
    Ok((
        values,
        index.dims,
        ContainerInfo {
            version: index.version,
            checksummed: index.version >= VERSION_CRC,
            tans_sections,
        },
    ))
}

/// Decompress a chunked container (chunks in parallel), returning the full
/// array and its dimensions.
pub fn decompress_chunked(bytes: &[u8]) -> Result<(Vec<f32>, Vec<usize>), DpzError> {
    decompress_chunked_with_info(bytes).map(|(v, dims, _)| (v, dims))
}

/// [`decompress_chunked`] that also reports the container version, checksum
/// status, and the aggregate (saturating) tANS section count across the
/// inner chunk streams.
pub fn decompress_chunked_with_info(
    bytes: &[u8],
) -> Result<(Vec<f32>, Vec<usize>, ContainerInfo), DpzError> {
    counted(|| full_decode(bytes))
}

/// Number of chunks in a chunked container.
pub fn chunk_count(bytes: &[u8]) -> Result<usize, DpzError> {
    counted(|| SeekableIndex::from_bytes(bytes).map(|index| index.chunks.len()))
}

/// Decompress a single chunk (random access). Returns the slab's values and
/// its dims (slowest axis shrunk to the slab height). Only the requested
/// chunk's bytes are CRC-verified — the point of random access.
pub fn decompress_chunk(bytes: &[u8], index: usize) -> Result<(Vec<f32>, Vec<usize>), DpzError> {
    decompress_chunk_from(&mut Cursor::new(bytes), index)
}

/// [`decompress_chunk`] against a seekable source: reads only the index
/// (see [`SeekableIndex::read`]) and the requested chunk's bytes.
pub fn decompress_chunk_from<R: Read + Seek>(
    r: &mut R,
    index: usize,
) -> Result<(Vec<f32>, Vec<usize>), DpzError> {
    counted(|| {
        let idx = SeekableIndex::read(r)?;
        let e = idx.entry(index)?;
        let stream = idx.fetch(r, e)?;
        let (values, dims, _) = decode_chunk(&idx.dims, e, &stream, decode_stream)?;
        Ok((values, dims))
    })
}

fn validate_region(dims: &[usize], region: &[Range<usize>]) -> Result<(), DpzError> {
    if region.len() != dims.len() {
        return Err(DpzError::BadInput("region rank does not match dims"));
    }
    for (r, &d) in region.iter().zip(dims) {
        if r.start >= r.end || r.end > d {
            return Err(DpzError::BadInput("empty or out-of-range region"));
        }
    }
    Ok(())
}

/// Chunks overlapping `rows` along axis 0, with the overlap rebased to each
/// chunk's local row coordinates.
fn overlapping_chunks<'a>(
    chunks: &'a [ChunkEntry],
    rows: &Range<usize>,
) -> Vec<(&'a ChunkEntry, Range<usize>)> {
    let mut selected = Vec::new();
    let mut row0 = 0usize;
    for e in chunks {
        let lo = rows.start.max(row0);
        let hi = rows.end.min(row0 + e.rows);
        if lo < hi {
            selected.push((e, lo - row0..hi - row0));
        }
        row0 += e.rows;
    }
    selected
}

/// Decompress an axis-aligned sub-region (`lo..hi` per axis). Only the
/// chunks overlapping the region along the slowest axis are CRC-verified
/// and decoded. Returns the region's values and its dims.
pub fn decompress_region(
    bytes: &[u8],
    region: &[Range<usize>],
) -> Result<(Vec<f32>, Vec<usize>), DpzError> {
    decompress_region_from(&mut Cursor::new(bytes), region)
}

/// [`decompress_region`] against a seekable source: reads only the index
/// (see [`SeekableIndex::read`]) and the overlapping chunks' bytes.
pub fn decompress_region_from<R: Read + Seek>(
    r: &mut R,
    region: &[Range<usize>],
) -> Result<(Vec<f32>, Vec<usize>), DpzError> {
    counted(|| {
        let index = SeekableIndex::read(r)?;
        validate_region(&index.dims, region)?;
        // A reader is stateful, so the overlapping chunks are fetched in
        // order, one seek-and-read each; they then decode and crop in
        // parallel.
        let mut fetched = Vec::new();
        for (e, local_rows) in overlapping_chunks(&index.chunks, &region[0]) {
            fetched.push((e, local_rows, index.fetch(r, e)?));
        }
        let parts: Vec<Result<(Vec<f32>, ()), DpzError>> = fetched
            .par_iter()
            .map(|(e, local_rows, stream)| {
                let (values, slab_dims, _) = decode_chunk(&index.dims, e, stream, decode_stream)?;
                let mut local = region.to_vec();
                local[0] = local_rows.clone();
                Ok((extract_region(&values, &slab_dims, &local), ()))
            })
            .collect();
        let (values, _) = stitch(parts)?;
        Ok((values, region.iter().map(|r| r.end - r.start).collect()))
    })
}

/// Result of a budgeted progressive decode.
#[derive(Debug, Clone)]
pub struct ProgressiveDecoded {
    /// Reconstructed values (full array extent, reduced fidelity).
    pub values: Vec<f32>,
    /// Array dimensions.
    pub dims: Vec<usize>,
    /// Container-prefix bytes the reconstruction actually consumed
    /// (header + footer + tail + the decoded component prefixes).
    pub bytes_used: usize,
    /// Components decoded per chunk.
    pub components_used: Vec<usize>,
    /// Fraction of the total captured score energy included (1.0 when every
    /// component was decoded, or when the container holds zero energy).
    pub tve_achieved: f64,
    /// PSNR estimate in dB, from the footer's energy model: the omitted
    /// energy, scaled by each chunk's normalization range, approximates the
    /// reconstruction MSE. Infinite when nothing was omitted. An *estimate*
    /// — the exact figure requires the original data.
    pub psnr_estimate: f64,
}

/// Reconstruct a progressive container from a byte budget. The model and
/// highest-energy component of every chunk are mandatory (budgets below
/// that floor are clamped — check `bytes_used` for the actual spend); the
/// remaining budget buys components globally by descending energy, each
/// chunk consuming its stream strictly in prefix order. Growing the budget
/// only ever adds components, so the achieved TVE and the PSNR estimate are
/// monotonically non-decreasing in `budget_bytes`.
pub fn decompress_progressive(
    bytes: &[u8],
    budget_bytes: usize,
) -> Result<ProgressiveDecoded, DpzError> {
    counted(|| {
        let index = SeekableIndex::from_bytes(bytes)?;
        let entries = index
            .progressive
            .as_ref()
            .ok_or(DpzError::BadInput("not a progressive container"))?;
        let payload_bytes: usize = index.chunks.iter().map(|e| e.len).sum();
        let overhead = index.total_len - payload_bytes;

        // Mandatory floor: model + first (highest-energy) component per
        // chunk. Everything past that is bought greedily by energy.
        let mut take: Vec<usize> = vec![1; entries.len()];
        let mandatory: usize =
            overhead + entries.iter().map(|p| p.components[0].end).sum::<usize>();
        struct Cand {
            chunk: usize,
            comp: usize,
            cost: usize,
            energy: f64,
        }
        let mut cands = Vec::new();
        for (ci, p) in entries.iter().enumerate() {
            for j in 1..p.components.len() {
                cands.push(Cand {
                    chunk: ci,
                    comp: j,
                    cost: p.components[j].end - p.components[j - 1].end,
                    energy: p.components[j].energy,
                });
            }
        }
        // Stable sort: within a chunk energies are non-increasing, so each
        // chunk's candidates stay in component order and the prefix
        // constraint below never skips.
        cands.sort_by(|a, b| {
            b.energy
                .partial_cmp(&a.energy)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut remaining = budget_bytes.saturating_sub(mandatory);
        let mut closed = vec![false; entries.len()];
        for c in &cands {
            if closed[c.chunk] || c.comp != take[c.chunk] {
                continue;
            }
            if c.cost <= remaining {
                remaining -= c.cost;
                take[c.chunk] += 1;
            } else {
                // A chunk's stream is consumed in prefix order: once one
                // component doesn't fit, later (cheaper) ones can't be
                // reached either.
                closed[c.chunk] = true;
            }
        }

        let work: Vec<(&ChunkEntry, &ProgressiveEntry, usize)> = index
            .chunks
            .iter()
            .zip(entries.iter())
            .zip(take.iter())
            .map(|((e, p), &k)| (e, p, k))
            .collect();
        let parts: Vec<Result<(Vec<f32>, f64), DpzError>> = work
            .par_iter()
            .map(|&(e, p, k)| {
                let prefix = &bytes[e.offset..e.offset + p.components[k - 1].end];
                let (v, _, range) = decode_chunk(&index.dims, e, prefix, |s| {
                    let (payload, _) = container::deserialize_progressive(s, Some(k))?;
                    let (v, dims) = crate::pipeline::reconstruct_values(&payload)?;
                    Ok((v, dims, payload.norm_range))
                })?;
                Ok((v, range))
            })
            .collect();
        let (values, ranges) = stitch(parts)?;
        let expected = values.len();

        let mut total_energy = 0.0;
        let mut included_energy = 0.0;
        let mut mse_est = 0.0;
        let mut peak = 0.0f64;
        for ((p, &k), &range) in entries.iter().zip(&take).zip(&ranges) {
            let mut omitted = 0.0;
            for (j, c) in p.components.iter().enumerate() {
                total_energy += c.energy;
                if j < k {
                    included_energy += c.energy;
                } else {
                    omitted += c.energy;
                }
            }
            mse_est += omitted * range * range / expected as f64;
            peak = peak.max(range);
        }
        let tve_achieved = if total_energy > 0.0 {
            included_energy / total_energy
        } else {
            1.0
        };
        let psnr_estimate = if mse_est > 0.0 && peak > 0.0 {
            10.0 * ((peak * peak) / mse_est).log10()
        } else {
            f64::INFINITY
        };
        let bytes_used = overhead
            + entries
                .iter()
                .zip(&take)
                .map(|(p, &k)| p.components[k - 1].end)
                .sum::<usize>();
        Ok(ProgressiveDecoded {
            values,
            dims: index.dims,
            bytes_used,
            components_used: take,
            tve_achieved,
            psnr_estimate,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TveLevel;
    use crate::container::LosslessBackend;

    fn field(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| {
                let r = (i / cols) as f32;
                let c = (i % cols) as f32;
                (0.05 * r).sin() * 10.0 + (0.04 * c).cos() * 5.0
            })
            .collect()
    }

    /// Frozen legacy streams written by the retired v1/v2 writers: the
    /// 64×96 golden field of `tests/golden_artifacts.rs` ([`golden_field`]),
    /// loose, 4 chunks.
    const LEGACY_V1: &[u8] =
        include_bytes!("../../../tests/fixtures/legacy/dpzc-v1-loose-4x-64x96.bin");
    const LEGACY_V2: &[u8] =
        include_bytes!("../../../tests/fixtures/legacy/dpzc-v2-loose-4x-64x96.bin");

    /// The field behind [`LEGACY_V1`] and [`LEGACY_V2`].
    fn golden_field() -> Vec<f32> {
        (0..64 * 96)
            .map(|i| {
                let r = (i / 96) as f32;
                let c = (i % 96) as f32;
                (0.04 * r).sin() * 40.0 + (0.03 * c).cos() * 25.0 + 100.0
            })
            .collect()
    }

    #[test]
    fn chunked_round_trip_matches_dims() {
        let data = field(64, 48);
        let cfg = DpzConfig::strict().with_tve(TveLevel::SixNines);
        let out = compress_chunked(&data, &[64, 48], &cfg, 4).unwrap();
        assert_eq!(out.chunk_stats.len(), 4);
        let (recon, dims) = decompress_chunked(&out.bytes).unwrap();
        assert_eq!(dims, vec![64, 48]);
        assert_eq!(recon.len(), data.len());
        // Quality in the same regime as whole-field compression.
        let mse: f64 = data
            .iter()
            .zip(&recon)
            .map(|(a, b)| {
                let d = f64::from(*a) - f64::from(*b);
                d * d
            })
            .sum::<f64>()
            / data.len() as f64;
        assert!(mse < 1.0, "chunked mse {mse}");
    }

    #[test]
    fn single_value_rows_chunk_at_every_count() {
        // With one value per row, a slab of one row, or a ragged tail of
        // one, would be a buffer too small to decompose: the layout must
        // take more rows instead, whatever the chunk count asked for.
        let mut shapes: Vec<Vec<usize>> = (4..=24).map(|len| vec![len]).collect();
        shapes.push(vec![7, 1]);
        shapes.push(vec![3, 2, 1]);
        for dims in shapes {
            let len: usize = dims.iter().product();
            let data: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).sin() * 3.0).collect();
            for chunks in 1..=len + 1 {
                for progressive in [false, true] {
                    let case = format!("dims {dims:?}, {chunks} chunks, progressive {progressive}");
                    let write = if progressive {
                        compress_progressive
                    } else {
                        compress_chunked
                    };
                    let out = write(&data, &dims, &DpzConfig::loose(), chunks)
                        .unwrap_or_else(|e| panic!("{case}: {e}"));
                    let (values, got) = decompress_chunked(&out.bytes)
                        .unwrap_or_else(|e| panic!("{case}: decode: {e}"));
                    assert_eq!(got, dims, "{case}");
                    assert_eq!(values.len(), len, "{case}");
                }
            }
        }
    }

    #[test]
    fn uneven_slabs_handled() {
        // 10 rows into 4 chunks -> 3+3+3+1.
        let data = field(10, 40);
        let out = compress_chunked(&data, &[10, 40], &DpzConfig::loose(), 4).unwrap();
        let (recon, dims) = decompress_chunked(&out.bytes).unwrap();
        assert_eq!(dims, vec![10, 40]);
        assert_eq!(recon.len(), 400);
    }

    #[test]
    fn random_access_single_chunk() {
        let data = field(32, 32);
        let out = compress_chunked(&data, &[32, 32], &DpzConfig::loose(), 4).unwrap();
        assert_eq!(chunk_count(&out.bytes).unwrap(), 4);
        let (slab, dims) = decompress_chunk(&out.bytes, 2).unwrap();
        assert_eq!(dims, vec![8, 32]);
        // Chunk 2 covers rows 16..24.
        for (i, v) in slab.iter().enumerate() {
            let expect = data[16 * 32 + i];
            assert!((v - expect).abs() < 0.5, "idx {i}: {v} vs {expect}");
        }
        assert!(decompress_chunk(&out.bytes, 9).is_err());
    }

    #[test]
    fn random_access_last_ragged_chunk_reports_chunk_local_dims() {
        // 10 rows into 4 chunks -> slabs of 3+3+3+1 rows. The final chunk
        // must report its *own* shape ([1, 40]), not the whole-array dims.
        let data = field(10, 40);
        let out = compress_chunked(&data, &[10, 40], &DpzConfig::loose(), 4).unwrap();
        assert_eq!(chunk_count(&out.bytes).unwrap(), 4);
        let (slab, dims) = decompress_chunk(&out.bytes, 3).unwrap();
        assert_eq!(dims, vec![1, 40], "ragged tail must have chunk-local dims");
        assert_eq!(slab.len(), 40);
        for (i, v) in slab.iter().enumerate() {
            let expect = data[9 * 40 + i];
            assert!((v - expect).abs() < 0.5, "idx {i}: {v} vs {expect}");
        }
        // A full-height interior chunk reports its slab shape too.
        let (_, dims) = decompress_chunk(&out.bytes, 1).unwrap();
        assert_eq!(dims, vec![3, 40]);
    }

    #[test]
    fn one_chunk_equals_plain_pipeline() {
        let data = field(16, 16);
        let cfg = DpzConfig::loose();
        let chunked = compress_chunked(&data, &[16, 16], &cfg, 1).unwrap();
        let (a, _) = decompress_chunked(&chunked.bytes).unwrap();
        let plain = crate::pipeline::compress(&data, &[16, 16], &cfg).unwrap();
        let (b, _) = crate::pipeline::decompress(&plain.bytes).unwrap();
        assert_eq!(a, b, "single chunk must reproduce the plain pipeline");
    }

    /// 16 slabs of 128 rows x 256 cols: each slab decomposes to M = 128
    /// blocks, which routes stage 2 through the randomized range-finder
    /// (sketch·4 < M) — the shape the cross-wave warm-start rides on.
    const WARM_ROWS_PER_CHUNK: usize = 128;
    const WARM_COLS: usize = 256;
    const WARM_CHUNKS: usize = 16;

    #[test]
    fn warm_start_chains_across_waves_on_similar_chunks() {
        // Every chunk carries identical data, so wave 2's fits (chunks
        // 8..16) are seeded with the exact converged basis of their own
        // matrix — the warm path must engage and hit the TVE target on the
        // first sketch.
        let rows = WARM_ROWS_PER_CHUNK * WARM_CHUNKS;
        let data: Vec<f32> = (0..rows * WARM_COLS)
            .map(|i| {
                let r = ((i / WARM_COLS) % WARM_ROWS_PER_CHUNK) as f32;
                let c = (i % WARM_COLS) as f32;
                (0.05 * r).sin() * 10.0
                    + (0.04 * c).cos() * 5.0
                    + (0.03 * r).cos() * (0.02 * c).sin() * 2.0
            })
            .collect();
        let cfg = DpzConfig::loose().with_tve(TveLevel::FiveNines);
        let before = dpz_telemetry::global().snapshot();
        let out = compress_chunked(&data, &[rows, WARM_COLS], &cfg, WARM_CHUNKS).unwrap();
        let delta = dpz_telemetry::global().snapshot().since(&before);
        assert!(
            delta.counter("dpz_pca_warm_hits_total", &[]).unwrap_or(0) >= 1,
            "wave 2 should reuse the converged basis from wave 1"
        );
        // Quality certificate holds for every chunk, warm or cold.
        let target = TveLevel::FiveNines.fraction();
        for (i, s) in out.chunk_stats.iter().enumerate() {
            assert!(
                s.tve_achieved >= target,
                "chunk {i} tve {} < {target}",
                s.tve_achieved
            );
        }
        let (recon, dims) = decompress_chunked(&out.bytes).unwrap();
        assert_eq!(dims, vec![rows, WARM_COLS]);
        let max_err = data
            .iter()
            .zip(&recon)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_err < 0.5, "round-trip error {max_err}");
    }

    #[test]
    fn dissimilar_chunks_fall_back_to_cold_fits_with_no_quality_loss() {
        // First half: smooth low-rank data. Second half: pseudo-noise with
        // a completely different (much flatter) spectrum. The wave-2 warm
        // seed comes from the smooth regime and cannot certify the noise
        // chunks' TVE, so the fitter must fall back to cold fits — and
        // those must be *identical* to compressing the noise half with no
        // warm chain at all (the gate leaves no residue).
        let rows = WARM_ROWS_PER_CHUNK * WARM_CHUNKS;
        let half = rows / 2;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut noise = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        };
        let data: Vec<f32> = (0..rows * WARM_COLS)
            .map(|i| {
                let r = i / WARM_COLS;
                let c = (i % WARM_COLS) as f32;
                if r < half {
                    (0.05 * r as f32).sin() * 10.0 + (0.04 * c).cos() * 5.0
                } else {
                    noise() * 8.0
                }
            })
            .collect();
        let cfg = DpzConfig::loose().with_tve(TveLevel::FiveNines);
        let before = dpz_telemetry::global().snapshot();
        let out = compress_chunked(&data, &[rows, WARM_COLS], &cfg, WARM_CHUNKS).unwrap();
        let delta = dpz_telemetry::global().snapshot().since(&before);
        assert!(
            delta
                .counter("dpz_pca_warm_cold_fallbacks_total", &[])
                .unwrap_or(0)
                >= 1,
            "noise chunks must reject the smooth-regime warm seed"
        );
        // No quality loss from the rejected handoff: every chunk still
        // certifies the TVE target.
        let target = TveLevel::FiveNines.fraction();
        for (i, s) in out.chunk_stats.iter().enumerate() {
            assert!(
                s.tve_achieved >= target,
                "chunk {i} tve {} < {target}",
                s.tve_achieved
            );
        }
        // Bitwise parity with a cold compression of the noise half alone:
        // a gated-out warm seed must leave artifacts identical to never
        // having offered one. (Chunks 8.. of the combined container line up
        // with chunks 0.. of the standalone second half, whose first wave
        // runs cold by construction.)
        let cold = compress_chunked(
            &data[half * WARM_COLS..],
            &[half, WARM_COLS],
            &cfg,
            WARM_CHUNKS / 2,
        )
        .unwrap();
        for i in 0..WARM_CHUNKS / 2 {
            let (warm_vals, _) = decompress_chunk(&out.bytes, WARM_CHUNKS / 2 + i).unwrap();
            let (cold_vals, _) = decompress_chunk(&cold.bytes, i).unwrap();
            assert_eq!(
                warm_vals, cold_vals,
                "noise chunk {i} decoded differently under the warm chain"
            );
        }
    }

    #[test]
    fn corrupt_directory_rejected() {
        let data = field(16, 16);
        let out = compress_chunked(&data, &[16, 16], &DpzConfig::loose(), 2).unwrap();
        assert!(decompress_chunked(&out.bytes[..10]).is_err());
        let mut bad = out.bytes.clone();
        bad[0] = b'X';
        assert!(decompress_chunked(&bad).is_err());
        assert!(decompress_chunked(&[]).is_err());
    }

    #[test]
    fn v4_writer_emits_index_footer() {
        let data = field(16, 16);
        let out = compress_chunked(&data, &[16, 16], &DpzConfig::loose(), 2).unwrap();
        assert_eq!(out.bytes[4], VERSION_SEEKABLE);
        assert_eq!(&out.bytes[out.bytes.len() - 4..], TAIL_MAGIC);
        let idx = SeekableIndex::from_bytes(&out.bytes).unwrap();
        assert_eq!(idx.chunk_count(), 2);
        assert!(!idx.is_progressive());
        assert_eq!(idx.dims, vec![16, 16]);
        assert_eq!(idx.chunks[0].rows + idx.chunks[1].rows, 16);
        assert_eq!(idx.chunks[0].offset, idx.header_len);
        assert_eq!(
            idx.chunks[1].offset,
            idx.chunks[0].offset + idx.chunks[0].len
        );
    }

    #[test]
    fn legacy_reencodes_still_decode() {
        let data = golden_field();
        let out = compress_chunked(&data, &[64, 96], &DpzConfig::loose(), 4).unwrap();
        let (b, dims_b, info4) = decompress_chunked_with_info(&out.bytes).unwrap();
        assert_eq!(info4.version, VERSION_SEEKABLE);
        assert!(info4.checksummed);
        for (version, legacy) in [(1u8, LEGACY_V1), (2, LEGACY_V2)] {
            assert_eq!(legacy[4], version);
            let (a, dims_a, info) = decompress_chunked_with_info(legacy).unwrap();
            assert_eq!(info.version, version);
            assert_eq!(info.checksummed, version >= 2);
            assert_eq!(a, b, "v{version} stream must decode identically");
            assert_eq!(dims_a, dims_b);
            assert_eq!(chunk_count(legacy).unwrap(), 4);
        }
    }

    #[test]
    fn corrupted_chunk_payload_fails_crc() {
        let data = field(16, 16);
        let out = compress_chunked(&data, &[16, 16], &DpzConfig::loose(), 2).unwrap();
        let idx = SeekableIndex::from_bytes(&out.bytes).unwrap();
        let e = idx.chunks[1];
        let mut bad = out.bytes.clone();
        bad[e.offset + e.len / 2] ^= 0xFF; // inside the last chunk's stream
        assert!(matches!(
            decompress_chunked(&bad),
            Err(DpzError::Corrupt("chunk checksum mismatch"))
        ));
        // Random access to an *undamaged* chunk still works; the damaged
        // one fails alone.
        assert!(decompress_chunk(&bad, 0).is_ok());
        assert!(decompress_chunk(&bad, 1).is_err());
    }

    #[test]
    fn truncated_or_forged_footer_rejected() {
        let data = field(16, 16);
        let out = compress_chunked(&data, &[16, 16], &DpzConfig::loose(), 2).unwrap();
        let n = out.bytes.len();
        // Cuts inside the tail, the footer, and the payload all fail.
        for cut in [n - 1, n - 8, n - TAIL_LEN, n - TAIL_LEN - 5, n / 2] {
            assert!(decompress_chunked(&out.bytes[..cut]).is_err(), "cut {cut}");
        }
        // Forged footer_len (tail still intact) must be caught.
        let mut bad = out.bytes.clone();
        bad[n - TAIL_LEN..n - 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decompress_chunked(&bad).is_err());
        // Flipping a footer byte breaks the footer CRC.
        let mut bad = out.bytes.clone();
        bad[n - TAIL_LEN - 3] ^= 0xFF;
        assert!(matches!(
            decompress_chunked(&bad),
            Err(DpzError::Corrupt("footer checksum mismatch"))
        ));
    }

    #[test]
    fn unknown_flags_and_versions_rejected() {
        let data = field(16, 16);
        let out = compress_chunked(&data, &[16, 16], &DpzConfig::loose(), 2).unwrap();
        let idx = SeekableIndex::from_bytes(&out.bytes).unwrap();
        let mut bad = out.bytes.clone();
        bad[idx.header_len - 1] |= 0x02; // unknown flag bit
        assert!(matches!(
            decompress_chunked(&bad),
            Err(DpzError::Corrupt("unknown container flags"))
        ));
        // Version 3 is skipped in the DPZC family; 5 is the future.
        for v in [3u8, 5u8] {
            let mut bad = out.bytes.clone();
            bad[4] = v;
            assert!(matches!(
                decompress_chunked(&bad),
                Err(DpzError::Corrupt("unsupported chunk version"))
            ));
        }
    }

    /// `Read + Seek` wrapper counting every byte actually read.
    struct CountingReader<R> {
        inner: R,
        read_bytes: usize,
    }

    impl<R: Read> Read for CountingReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read_bytes += n;
            Ok(n)
        }
    }

    impl<R: Seek> Seek for CountingReader<R> {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    fn counting(bytes: &[u8]) -> CountingReader<std::io::Cursor<&[u8]>> {
        CountingReader {
            inner: std::io::Cursor::new(bytes),
            read_bytes: 0,
        }
    }

    #[test]
    fn seekable_chunk_reads_only_requested_bytes() {
        let data = field(32, 32);
        let out = compress_chunked(&data, &[32, 32], &DpzConfig::loose(), 4).unwrap();
        let idx = SeekableIndex::from_bytes(&out.bytes).unwrap();
        let last = idx.chunks.last().unwrap();
        let overhead = idx.header_len + (idx.total_len - (last.offset + last.len));

        let mut r = counting(&out.bytes);
        let (slab, dims) = decompress_chunk_from(&mut r, 2).unwrap();
        assert_eq!(dims, vec![8, 32]);
        assert_eq!(
            r.read_bytes,
            overhead + idx.chunks[2].len,
            "must read exactly the index overhead plus the one chunk"
        );
        assert!(r.read_bytes < out.bytes.len());
        let (expect, _) = decompress_chunk(&out.bytes, 2).unwrap();
        assert_eq!(slab, expect);
        // Out-of-range index errors through the seekable path too.
        assert!(decompress_chunk_from(&mut counting(&out.bytes), 9).is_err());
    }

    #[test]
    fn seekable_region_reads_only_overlapping_chunks() {
        let data = field(32, 32);
        let out = compress_chunked(&data, &[32, 32], &DpzConfig::loose(), 4).unwrap();
        let idx = SeekableIndex::from_bytes(&out.bytes).unwrap();
        let last = idx.chunks.last().unwrap();
        let overhead = idx.header_len + (idx.total_len - (last.offset + last.len));

        // Rows 4..12 touch chunks 0 and 1 (8 rows each) only.
        let region = vec![4..12, 10..30];
        let mut r = counting(&out.bytes);
        let (vals, dims) = decompress_region_from(&mut r, &region).unwrap();
        assert_eq!(dims, vec![8, 20]);
        assert_eq!(
            r.read_bytes,
            overhead + idx.chunks[0].len + idx.chunks[1].len
        );
        assert!(r.read_bytes < out.bytes.len());
        let (in_mem, in_dims) = decompress_region(&out.bytes, &region).unwrap();
        assert_eq!(vals, in_mem);
        assert_eq!(dims, in_dims);
        // A legacy container serves the same read as the v4 container of
        // its field.
        let v4 = compress_chunked(&golden_field(), &[64, 96], &DpzConfig::loose(), 4).unwrap();
        assert_eq!(
            decompress_region_from(&mut counting(LEGACY_V2), &region).unwrap(),
            decompress_region_from(&mut counting(&v4.bytes), &region).unwrap()
        );
    }

    #[test]
    fn region_queries_match_full_decode_crop() {
        let data = field(20, 30);
        let out = compress_chunked(&data, &[20, 30], &DpzConfig::loose(), 4).unwrap();
        let (full, dims) = decompress_chunked(&out.bytes).unwrap();
        let region = vec![3..17, 5..25];
        let (vals, rdims) = decompress_region(&out.bytes, &region).unwrap();
        assert_eq!(rdims, vec![14, 20]);
        assert_eq!(vals, extract_region(&full, &dims, &region));
        // Values stay close to the original data in the cropped window.
        for (i, v) in vals.iter().enumerate() {
            let (r, c) = (3 + i / 20, 5 + i % 20);
            let expect = data[r * 30 + c];
            assert!((v - expect).abs() < 0.5, "({r},{c}): {v} vs {expect}");
        }
    }

    #[test]
    fn ragged_tail_region_queries_work() {
        // 10 rows into 4 chunks -> 3+3+3+1; rows 8..10 straddle the last
        // full chunk and the 1-row ragged tail.
        let data = field(10, 40);
        let out = compress_chunked(&data, &[10, 40], &DpzConfig::loose(), 4).unwrap();
        let (full, dims) = decompress_chunked(&out.bytes).unwrap();
        let region = vec![8..10, 12..29];
        let (vals, rdims) = decompress_region(&out.bytes, &region).unwrap();
        assert_eq!(rdims, vec![2, 17]);
        assert_eq!(vals, extract_region(&full, &dims, &region));
        // A region entirely inside the ragged tail also works.
        let (tail_vals, tail_dims) = decompress_region(&out.bytes, &[9..10, 0..40]).unwrap();
        assert_eq!(tail_dims, vec![1, 40]);
        assert_eq!(tail_vals, extract_region(&full, &dims, &[9..10, 0..40]));
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a 1-D region IS one range
    fn region_rejects_bad_ranges() {
        let data = field(16, 16);
        let out = compress_chunked(&data, &[16, 16], &DpzConfig::loose(), 2).unwrap();
        assert!(decompress_region(&out.bytes, &[0..16]).is_err()); // rank
        assert!(decompress_region(&out.bytes, &[0..16, 5..5]).is_err()); // empty
        assert!(decompress_region(&out.bytes, &[0..17, 0..16]).is_err()); // oob
    }

    #[test]
    fn legacy_containers_serve_partial_reads() {
        let v4 = compress_chunked(&golden_field(), &[64, 96], &DpzConfig::loose(), 4).unwrap();
        let region = vec![3..17, 5..25];
        for (version, legacy) in [(1u8, LEGACY_V1), (2, LEGACY_V2)] {
            let idx = SeekableIndex::from_bytes(legacy).unwrap();
            assert_eq!(idx.version, version);
            assert!(idx.chunks.iter().all(|e| e.crc.is_some() == (version >= 2)));
            assert!(idx
                .chunks
                .iter()
                .all(|e| e.rows == 16 && e.values == 16 * 96));
            for i in 0..4 {
                assert_eq!(
                    decompress_chunk_from(&mut counting(legacy), i).unwrap(),
                    decompress_chunk(&v4.bytes, i).unwrap(),
                    "v{version} chunk {i}"
                );
            }
            // Rows 3..17 touch chunks 0 and 1 only, so the read stays well
            // short of the whole container.
            let mut r = counting(legacy);
            let got = decompress_region_from(&mut r, &region).unwrap();
            assert_eq!(got, decompress_region(&v4.bytes, &region).unwrap());
            assert_eq!(got, decompress_region(legacy, &region).unwrap());
            assert!(
                r.read_bytes < legacy.len() - idx.chunks[3].len,
                "v{version}: read {} of {} bytes",
                r.read_bytes,
                legacy.len()
            );
        }
    }

    #[test]
    fn damaged_legacy_chunk_header_fails_every_read() {
        // The legacy index takes each chunk's rows from its stream header,
        // so a damaged header in the last chunk fails reads of the first.
        let idx = SeekableIndex::from_bytes(LEGACY_V1).unwrap();
        let mut bad = LEGACY_V1.to_vec();
        bad[idx.chunks[3].offset + 6] ^= 0x01; // rows 16 -> 17
        assert!(matches!(
            decompress_chunk(&bad, 0),
            Err(DpzError::Corrupt("chunk shape inconsistent"))
        ));
        assert!(decompress_region(&bad, &[0..2, 0..2]).is_err());
    }

    #[test]
    fn forged_row_counts_are_rejected_by_every_read() {
        // A footer that splits 16 rows as 7 + 9 (values 112 + 144) still
        // tiles the array, and its CRC is recomputed, so only the check of
        // each decoded [8, 16] slab against its entry can catch it.
        let data = field(16, 16);
        let out = compress_chunked(&data, &[16, 16], &DpzConfig::loose(), 2).unwrap();
        let n = out.bytes.len();
        let footer_len = usize::try_from(u64::from_le_bytes(
            out.bytes[n - 16..n - 8].try_into().unwrap(),
        ))
        .unwrap();
        let footer_start = n - TAIL_LEN - footer_len;
        let mut bad = out.bytes.clone();
        for (i, (rows, values)) in [(7u64, 112u64), (9, 144)].into_iter().enumerate() {
            let at = footer_start + 8 + 36 * i + 16;
            bad[at..at + 8].copy_from_slice(&rows.to_le_bytes());
            bad[at + 8..at + 16].copy_from_slice(&values.to_le_bytes());
        }
        let crc = crc32(&bad[footer_start..n - TAIL_LEN]);
        bad[n - 8..n - 4].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(SeekableIndex::from_bytes(&bad).unwrap().chunks[0].rows, 7);

        let forged = Err(DpzError::Corrupt("chunk dims inconsistent with index"));
        let region = [0..16, 0..16];
        for i in 0..2 {
            assert_eq!(decompress_chunk(&bad, i), forged, "chunk {i}");
            assert_eq!(decompress_chunk_from(&mut counting(&bad), i), forged);
        }
        assert_eq!(decompress_region(&bad, &region), forged);
        assert_eq!(decompress_region_from(&mut counting(&bad), &region), forged);
        assert_eq!(decompress_chunked(&bad), forged);
    }

    #[test]
    fn progressive_budgets_refine_monotonically() {
        let data = field(64, 48);
        let cfg = DpzConfig::strict().with_tve(TveLevel::SixNines);
        let out = compress_progressive(&data, &[64, 48], &cfg, 4).unwrap();
        let idx = SeekableIndex::from_bytes(&out.bytes).unwrap();
        assert!(idx.is_progressive());

        // The whole container still decodes through the ordinary path.
        let (full, dims) = decompress_chunked(&out.bytes).unwrap();
        assert_eq!(dims, vec![64, 48]);

        let total = out.bytes.len();
        let budgets = [total / 4, total / 2, 3 * total / 4, total];
        let mut prev_psnr = f64::NEG_INFINITY;
        let mut prev_tve = -1.0;
        let mut decoded = Vec::new();
        for &b in &budgets {
            let d = decompress_progressive(&out.bytes, b).unwrap();
            assert_eq!(d.dims, vec![64, 48]);
            assert_eq!(d.values.len(), data.len());
            assert!(d.bytes_used <= total);
            assert!(
                d.psnr_estimate >= prev_psnr,
                "psnr must not regress: {} -> {}",
                prev_psnr,
                d.psnr_estimate
            );
            assert!(d.tve_achieved >= prev_tve);
            assert!(d.tve_achieved <= 1.0 + 1e-12);
            prev_psnr = d.psnr_estimate;
            prev_tve = d.tve_achieved;
            decoded.push(d);
        }
        // The full budget reproduces the ordinary decode exactly and
        // reports every component used.
        let last = decoded.last().unwrap();
        assert_eq!(last.values, full);
        let entries = idx.progressive.as_ref().unwrap();
        for (used, p) in last.components_used.iter().zip(entries) {
            assert_eq!(*used, p.k);
        }
        assert!((last.tve_achieved - 1.0).abs() < 1e-12);
        // The quarter budget really did decode fewer components, and the
        // true reconstruction error shrinks as the budget grows.
        let first = &decoded[0];
        assert!(
            first.components_used.iter().sum::<usize>()
                < last.components_used.iter().sum::<usize>(),
            "quarter budget must drop components"
        );
        assert!(first.psnr_estimate < last.psnr_estimate);
        let mse = |vals: &[f32]| {
            data.iter()
                .zip(vals)
                .map(|(a, b)| {
                    let d = f64::from(*a) - f64::from(*b);
                    d * d
                })
                .sum::<f64>()
                / data.len() as f64
        };
        assert!(mse(&last.values) <= mse(&first.values));
        // A budget of zero clamps to the mandatory floor.
        let floor = decompress_progressive(&out.bytes, 0).unwrap();
        assert!(floor.components_used.iter().all(|&k| k >= 1));
        assert!(floor.bytes_used > 0);
        // Non-progressive containers refuse the progressive entry point.
        let plain = compress_chunked(&data, &[64, 48], &cfg, 4).unwrap();
        assert!(matches!(
            decompress_progressive(&plain.bytes, total),
            Err(DpzError::BadInput("not a progressive container"))
        ));
    }

    #[test]
    fn progressive_rejects_permuted_footer() {
        let data = field(32, 32);
        let out = compress_progressive(&data, &[32, 32], &DpzConfig::loose(), 2).unwrap();
        // Swapping two component records breaks the strictly-increasing end
        // offsets; the forged footer (CRC recomputed) must be rejected.
        let idx = SeekableIndex::from_bytes(&out.bytes).unwrap();
        let entries = idx.progressive.as_ref().unwrap();
        assert!(entries[0].k >= 2, "need two components to permute");
        let n = out.bytes.len();
        let footer_len = usize::try_from(u64::from_le_bytes(
            out.bytes[n - 16..n - 8].try_into().unwrap(),
        ))
        .unwrap();
        let footer_start = n - TAIL_LEN - footer_len;
        // First progressive record sits after count + per-chunk entries.
        let comp0 = footer_start + 8 + idx.chunks.len() * 36 + 16;
        let mut bad = out.bytes.clone();
        let (a, b) = (comp0, comp0 + 16);
        for i in 0..16 {
            bad.swap(a + i, b + i);
        }
        let crc = crc32(&bad[footer_start..n - TAIL_LEN]);
        bad[n - 8..n - 4].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decompress_chunked(&bad),
            Err(DpzError::Corrupt("invalid progressive layout"))
        ));
    }

    #[test]
    fn all_decode_entry_points_count_rejects() {
        let data = field(16, 16);
        let out = compress_chunked(&data, &[16, 16], &DpzConfig::loose(), 2).unwrap();
        let before = dpz_telemetry::global().snapshot();
        assert!(decompress_chunked(b"DPZCxxxx").is_err());
        assert!(chunk_count(b"not even magic").is_err());
        assert!(decompress_chunk(&out.bytes, 99).is_err());
        assert!(decompress_region(&out.bytes, &[0..99, 0..99]).is_err());
        assert!(decompress_progressive(&out.bytes, 1024).is_err());
        assert!(decompress_chunk_from(&mut counting(&out.bytes), 99).is_err());
        let delta = dpz_telemetry::global().snapshot().since(&before);
        assert!(
            delta
                .counter("dpz_decode_rejects_total", &[("codec", "dpzc")])
                .unwrap_or(0)
                >= 6,
            "every entry point must count its reject"
        );
    }

    #[test]
    fn chunked_info_aggregates_inner_tans_sections() {
        let data = field(64, 96);
        let cfg = DpzConfig::strict()
            .with_tve(TveLevel::SixNines)
            .with_lossless(LosslessBackend::Tans);
        let out = compress_chunked(&data, &[64, 96], &cfg, 2).unwrap();
        let idx = SeekableIndex::from_bytes(&out.bytes).unwrap();
        let mut expect = 0u8;
        for e in &idx.chunks {
            let (_, _, info) =
                decompress_with_info(&out.bytes[e.offset..e.offset + e.len]).unwrap();
            expect = expect.saturating_add(info.tans_sections);
        }
        assert!(
            expect >= 1,
            "inner chunks must actually engage tANS for this test to bite"
        );
        let (_, _, outer) = decompress_chunked_with_info(&out.bytes).unwrap();
        assert_eq!(outer.tans_sections, expect);
        // Legacy streams aggregate too: a frozen v2 framing of these same
        // chunk streams.
        let legacy =
            include_bytes!("../../../tests/fixtures/legacy/dpzc-v2-tans-strict-2x-64x96.bin");
        let (_, _, li) = decompress_chunked_with_info(legacy).unwrap();
        assert_eq!(li.version, 2);
        assert_eq!(li.tans_sections, expect);
    }

    #[test]
    fn overflowing_chunk_lengths_are_corrupt_not_panic() {
        // Regression: a directory whose lengths sum past usize::MAX used to
        // wrap `lens.iter().sum()` (debug: add-overflow panic; release: a
        // bogus aliased total).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(1); // v1: no crc column needed to reach the sum
        bytes.push(1); // ndims
        bytes.extend_from_slice(&16u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes()); // count
        for _ in 0..3 {
            bytes.extend_from_slice(&(u64::MAX / 2).to_le_bytes());
        }
        assert!(matches!(
            decompress_chunked(&bytes),
            Err(DpzError::Corrupt("chunk lengths overflow"))
        ));
    }

    #[test]
    fn overflowing_dims_are_corrupt_not_panic() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(1);
        bytes.push(8);
        for _ in 0..8 {
            bytes.extend_from_slice(&(u64::MAX / 2).to_le_bytes());
        }
        bytes.extend_from_slice(&1u64.to_le_bytes()); // count
        bytes.extend_from_slice(&0u64.to_le_bytes()); // one empty chunk
        assert!(matches!(
            decompress_chunked(&bytes),
            Err(DpzError::Corrupt("dims overflow"))
        ));
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(compress_chunked(&[1.0, 2.0], &[3], &DpzConfig::loose(), 2).is_err());
        assert!(compress_chunked(&[1.0], &[1], &DpzConfig::loose(), 2).is_err());
        assert!(compress_progressive(&[1.0, 2.0], &[3], &DpzConfig::loose(), 2).is_err());
    }
}
