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
//! Legacy v1/v2 containers still decode through every full-stream entry
//! point; [`decompress_chunked_with_info`] reports which form was seen.

use crate::config::DpzConfig;
use crate::container::{self, checked_product, ContainerInfo, DpzError, ProgressiveLayout};
use crate::decompose::extract_region;
use crate::pipeline::{
    decompress, decompress_with_info, Compressed, CompressionStats, NumericOutcome, PipelinePlan,
};
use crate::pool::BufferPool;
use crate::target::{self, TargetArtifact};
use dpz_deflate::crc32;
use dpz_linalg::SubspaceSeed;
use dpz_telemetry::span;
use rayon::prelude::*;
use std::io::{Cursor, Read, Seek, SeekFrom};
use std::ops::Range;
use std::sync::Arc;

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
/// plans over one shared pool cover every chunk and recycle the
/// block-matrix scratch across rayon workers.
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
        let slab_values = slow.div_ceil(chunks.clamp(1, slow)) * rest;
        let pool = Arc::new(BufferPool::new());
        let full = PipelinePlan::with_pool(slab_values, cfg, Arc::clone(&pool))?;
        let tail = match len % slab_values {
            0 => None,
            l => Some(PipelinePlan::with_pool(l, cfg, pool)?),
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

/// One chunk's entry in the v4 index footer.
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
    /// CRC-32 of the chunk stream bytes.
    pub crc: u32,
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

/// Parsed v4 index: everything a seekable reader needs to locate, size, and
/// verify chunks without touching the payload. [`SeekableIndex::read`]
/// fetches only the header, tail, and footer from a `Read + Seek` source.
#[derive(Debug, Clone, PartialEq)]
pub struct SeekableIndex {
    /// Array dimensions.
    pub dims: Vec<usize>,
    /// Container flag byte (bit 0 = progressive).
    pub flags: u8,
    /// Byte length of the fixed header (= offset of the first chunk).
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

/// Bounded little-endian cursor over the footer bytes.
struct FooterCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> FooterCursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DpzError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(DpzError::Corrupt("truncated chunk footer"))?;
        if end > self.buf.len() {
            return Err(DpzError::Corrupt("truncated chunk footer"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u64(&mut self) -> Result<usize, DpzError> {
        let b = self.take(8)?;
        usize::try_from(u64::from_le_bytes(b.try_into().unwrap()))
            .map_err(|_| DpzError::Corrupt("size overflows usize"))
    }

    fn u32(&mut self) -> Result<u32, DpzError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, DpzError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Validate and parse the footer body against the header-derived geometry.
/// `payload_end` is the absolute offset one past the last chunk stream.
fn parse_footer(
    footer: &[u8],
    dims: &[usize],
    flags: u8,
    header_len: usize,
    payload_end: usize,
) -> Result<(Vec<ChunkEntry>, Option<Vec<ProgressiveEntry>>), DpzError> {
    if flags & !FLAG_PROGRESSIVE != 0 {
        return Err(DpzError::Corrupt("unknown container flags"));
    }
    let total = checked_product(dims, "dims overflow")?;
    // Checked separately: a zero slow axis keeps `total` small while the
    // remaining dims alone overflow.
    let rest = checked_product(&dims[1..], "dims overflow")?.max(1);
    let mut cur = FooterCursor {
        buf: footer,
        pos: 0,
    };
    let count = cur.u64()?;
    if count == 0 || count > 1 << 20 {
        return Err(DpzError::Corrupt("implausible chunk count"));
    }
    let mut chunks = Vec::with_capacity(count);
    let mut next_offset = header_len;
    let mut rows_sum = 0usize;
    let mut values_sum = 0usize;
    for _ in 0..count {
        let offset = cur.u64()?;
        let len = cur.u64()?;
        let rows = cur.u64()?;
        let values = cur.u64()?;
        let crc = cur.u32()?;
        // Chunk streams are written back-to-back; an index entry pointing
        // anywhere else (or overlapping) is a forgery, not a variant.
        if offset != next_offset {
            return Err(DpzError::Corrupt("chunk offsets not contiguous"));
        }
        next_offset = offset
            .checked_add(len)
            .ok_or(DpzError::Corrupt("chunk lengths overflow"))?;
        if rows == 0
            || rows.checked_mul(rest) != Some(values)
            || rows_sum.checked_add(rows).is_none()
            || values_sum.checked_add(values).is_none()
        {
            return Err(DpzError::Corrupt("chunk shape inconsistent"));
        }
        rows_sum += rows;
        values_sum += values;
        chunks.push(ChunkEntry {
            offset,
            len,
            rows,
            values,
            crc,
        });
    }
    if next_offset != payload_end {
        return Err(DpzError::Corrupt("chunk payload length mismatch"));
    }
    if rows_sum != dims[0] || values_sum != total {
        return Err(DpzError::Corrupt("chunk shape inconsistent"));
    }
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
    if cur.pos != footer.len() {
        return Err(DpzError::Corrupt("footer length mismatch"));
    }
    Ok((chunks, progressive))
}

impl SeekableIndex {
    /// Parse a whole in-memory v4 container's index.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DpzError> {
        SeekableIndex::read(&mut std::io::Cursor::new(bytes))
    }

    /// Read the index from a seekable source, touching **only** the header,
    /// tail, and footer bytes — the point of the v4 layout. Legacy (v1/v2)
    /// containers are rejected with [`DpzError::BadInput`]; decode those
    /// through the full-stream entry points instead.
    pub fn read<R: Read + Seek>(r: &mut R) -> Result<Self, DpzError> {
        let total_len = usize::try_from(r.seek(SeekFrom::End(0)).map_err(io_error)?)
            .map_err(|_| DpzError::Corrupt("size overflows usize"))?;
        r.seek(SeekFrom::Start(0)).map_err(io_error)?;
        let mut head = [0u8; 6];
        r.read_exact(&mut head).map_err(io_error)?;
        if &head[..4] != MAGIC {
            return Err(DpzError::Corrupt("bad chunk magic"));
        }
        let version = head[4];
        if version != VERSION_SEEKABLE {
            return Err(if (MIN_VERSION..=VERSION_CRC).contains(&version) {
                DpzError::BadInput("seekable retrieval requires a v4 container")
            } else {
                DpzError::Corrupt("unsupported chunk version")
            });
        }
        let ndims = head[5] as usize;
        if ndims == 0 || ndims > 8 {
            return Err(DpzError::Corrupt("implausible dimensionality"));
        }
        let mut rest_hdr = vec![0u8; 8 * ndims + 1];
        r.read_exact(&mut rest_hdr).map_err(io_error)?;
        let mut dims = Vec::with_capacity(ndims);
        for c in rest_hdr[..8 * ndims].chunks_exact(8) {
            let v = u64::from_le_bytes(c.try_into().unwrap());
            dims.push(usize::try_from(v).map_err(|_| DpzError::Corrupt("size overflows usize"))?);
        }
        let flags = rest_hdr[8 * ndims];
        let header_len = 6 + 8 * ndims + 1;
        if total_len < header_len + TAIL_LEN {
            return Err(DpzError::Corrupt("truncated chunk footer"));
        }

        r.seek(SeekFrom::End(-(TAIL_LEN as i64)))
            .map_err(io_error)?;
        let mut tail = [0u8; TAIL_LEN];
        r.read_exact(&mut tail).map_err(io_error)?;
        if &tail[12..] != TAIL_MAGIC {
            return Err(DpzError::Corrupt("bad footer magic"));
        }
        let footer_len = usize::try_from(u64::from_le_bytes(tail[..8].try_into().unwrap()))
            .map_err(|_| DpzError::Corrupt("size overflows usize"))?;
        let stored_crc = u32::from_le_bytes(tail[8..12].try_into().unwrap());
        if footer_len > total_len - header_len - TAIL_LEN {
            return Err(DpzError::Corrupt("truncated chunk footer"));
        }
        let footer_start = total_len - TAIL_LEN - footer_len;
        r.seek(SeekFrom::Start(footer_start as u64))
            .map_err(io_error)?;
        let mut footer = vec![0u8; footer_len];
        r.read_exact(&mut footer).map_err(io_error)?;
        if crc32(&footer) != stored_crc {
            return Err(DpzError::Corrupt("footer checksum mismatch"));
        }
        let (chunks, progressive) = parse_footer(&footer, &dims, flags, header_len, footer_start)?;
        Ok(SeekableIndex {
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

    /// Fetch one chunk's stream bytes from a seekable source and verify its
    /// CRC. Reads exactly `chunks[i].len` bytes.
    pub fn read_chunk<R: Read + Seek>(&self, r: &mut R, i: usize) -> Result<Vec<u8>, DpzError> {
        let e = self
            .chunks
            .get(i)
            .ok_or(DpzError::BadInput("chunk index out of range"))?;
        r.seek(SeekFrom::Start(e.offset as u64)).map_err(io_error)?;
        let mut buf = vec![0u8; e.len];
        r.read_exact(&mut buf).map_err(io_error)?;
        if crc32(&buf) != e.crc {
            return Err(DpzError::Corrupt("chunk checksum mismatch"));
        }
        Ok(buf)
    }
}

/// Parsed legacy (v1/v2) chunk directory.
struct Directory<'a> {
    dims: Vec<usize>,
    /// Byte range of each chunk stream within `payload`.
    ranges: Vec<(usize, usize)>,
    /// Stored per-chunk CRC-32 values (empty for version-1 containers).
    crcs: Vec<u32>,
    payload: &'a [u8],
    info: ContainerInfo,
}

impl Directory<'_> {
    /// Verify the stored CRC of chunk `i` against its payload bytes.
    /// Version-1 directories have no checksums and trivially pass.
    fn check_chunk(&self, i: usize) -> Result<(), DpzError> {
        if let Some(&stored) = self.crcs.get(i) {
            let (lo, hi) = self.ranges[i];
            if crc32(&self.payload[lo..hi]) != stored {
                return Err(DpzError::Corrupt("chunk checksum mismatch"));
            }
        }
        Ok(())
    }
}

fn parse_directory(bytes: &[u8]) -> Result<Directory<'_>, DpzError> {
    let need = |ok: bool| {
        if ok {
            Ok(())
        } else {
            Err(DpzError::Corrupt("truncated chunk directory"))
        }
    };
    need(bytes.len() >= 6)?;
    if &bytes[..4] != MAGIC {
        return Err(DpzError::Corrupt("bad chunk magic"));
    }
    let version = bytes[4];
    if !(MIN_VERSION..=VERSION_CRC).contains(&version) {
        return Err(DpzError::Corrupt("unsupported chunk version"));
    }
    let checksummed = version >= 2;
    let ndims = bytes[5] as usize;
    if ndims == 0 || ndims > 8 {
        return Err(DpzError::Corrupt("implausible dimensionality"));
    }
    let mut pos = 6;
    let u64_at = |p: &mut usize| -> Result<usize, DpzError> {
        need(bytes.len() >= p.checked_add(8).ok_or(DpzError::Corrupt("size overflow"))?)?;
        let v = u64::from_le_bytes(bytes[*p..*p + 8].try_into().unwrap());
        *p += 8;
        usize::try_from(v).map_err(|_| DpzError::Corrupt("size overflow"))
    };
    let mut dims = Vec::with_capacity(ndims);
    for _ in 0..ndims {
        dims.push(u64_at(&mut pos)?);
    }
    // Validate the dims product up front (checked: eight huge dims must be a
    // decode error, not a multiply-overflow panic in the stitch step).
    checked_product(&dims, "dims overflow")?;
    let count = u64_at(&mut pos)?;
    if count == 0 || count > 1 << 20 {
        return Err(DpzError::Corrupt("implausible chunk count"));
    }
    let mut lens = Vec::with_capacity(count);
    for _ in 0..count {
        lens.push(u64_at(&mut pos)?);
    }
    let mut crcs = Vec::new();
    if checksummed {
        crcs.reserve(count);
        for _ in 0..count {
            need(bytes.len() >= pos + 4)?;
            crcs.push(u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()));
            pos += 4;
        }
    }
    let payload = &bytes[pos..];
    // Checked fold: a directory of near-usize::MAX lengths used to wrap the
    // plain `iter().sum()` and alias a bogus total onto the payload length.
    let total = lens
        .iter()
        .try_fold(0usize, |acc, &l| acc.checked_add(l))
        .ok_or(DpzError::Corrupt("chunk lengths overflow"))?;
    if total != payload.len() {
        return Err(DpzError::Corrupt("chunk payload length mismatch"));
    }
    let mut ranges = Vec::with_capacity(count);
    let mut offset = 0;
    for len in lens {
        ranges.push((offset, offset + len));
        offset += len;
    }
    Ok(Directory {
        dims,
        ranges,
        crcs,
        payload,
        info: ContainerInfo {
            version,
            checksummed,
            // Placeholder; the decode paths aggregate the inner streams'
            // per-section backend flags into this field.
            tans_sections: 0,
        },
    })
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

/// Append decoded parts, in chunk order, into one buffer of exactly
/// `expected` values, collecting each part's side value. The first failed
/// part's error wins, and overflow is rejected before it is copied.
fn stitch<T>(
    parts: impl IntoIterator<Item = Result<(Vec<f32>, T), DpzError>>,
    expected: usize,
) -> Result<(Vec<f32>, Vec<T>), DpzError> {
    let mut out = Vec::new();
    let mut side = Vec::new();
    for p in parts {
        let (v, t) = p?;
        if out.len() + v.len() > expected {
            return Err(DpzError::Corrupt("stitched length mismatch"));
        }
        out.extend_from_slice(&v);
        side.push(t);
    }
    if out.len() != expected {
        return Err(DpzError::Corrupt("stitched length mismatch"));
    }
    Ok((out, side))
}

/// Aggregate (saturating) tANS section count across inner chunk streams.
fn total_tans_sections(infos: &[ContainerInfo]) -> u8 {
    infos
        .iter()
        .fold(0u8, |acc, info| acc.saturating_add(info.tans_sections))
}

/// Uncounted full decode shared by every entry point; dispatches on the
/// container version byte.
fn full_decode(bytes: &[u8]) -> Result<(Vec<f32>, Vec<usize>, ContainerInfo), DpzError> {
    let _root = span!("decompress_chunked");
    if bytes.len() < 6 || &bytes[..4] != MAGIC {
        return Err(DpzError::Corrupt("bad chunk magic"));
    }
    if bytes[4] > VERSION_CRC {
        let index = SeekableIndex::from_bytes(bytes)?;
        // CRC verification rides inside the same parallel pass as the
        // decode; results are examined in chunk order, so a corrupt stream
        // fails deterministically regardless of worker scheduling.
        let parts: Vec<Result<(Vec<f32>, ContainerInfo), DpzError>> = index
            .chunks
            .par_iter()
            .map(|e| {
                let s = &bytes[e.offset..e.offset + e.len];
                if crc32(s) != e.crc {
                    return Err(DpzError::Corrupt("chunk checksum mismatch"));
                }
                let (v, _, info) = decode_stream(s)?;
                if v.len() != e.values {
                    return Err(DpzError::Corrupt("stitched length mismatch"));
                }
                Ok((v, info))
            })
            .collect();
        let (out, infos) = stitch(parts, checked_product(&index.dims, "dims overflow")?)?;
        Ok((
            out,
            index.dims,
            ContainerInfo {
                version: VERSION_SEEKABLE,
                checksummed: true,
                tans_sections: total_tans_sections(&infos),
            },
        ))
    } else {
        let dir = parse_directory(bytes)?;
        let indexed: Vec<(usize, (usize, usize))> =
            dir.ranges.iter().copied().enumerate().collect();
        let parts: Vec<Result<(Vec<f32>, ContainerInfo), DpzError>> = indexed
            .par_iter()
            .map(|&(i, (lo, hi))| {
                dir.check_chunk(i)?;
                let (v, _, info) = decompress_with_info(&dir.payload[lo..hi])?;
                Ok((v, info))
            })
            .collect();
        let (out, infos) = stitch(parts, checked_product(&dir.dims, "dims overflow")?)?;
        let mut info = dir.info;
        info.tans_sections = total_tans_sections(&infos);
        Ok((out, dir.dims, info))
    }
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
    counted(|| {
        if bytes.len() < 6 || &bytes[..4] != MAGIC {
            return Err(DpzError::Corrupt("bad chunk magic"));
        }
        if bytes[4] > VERSION_CRC {
            Ok(SeekableIndex::from_bytes(bytes)?.chunks.len())
        } else {
            Ok(parse_directory(bytes)?.ranges.len())
        }
    })
}

/// Decompress a single chunk (random access). Returns the slab's values and
/// its dims (slowest axis shrunk to the slab height). Only the requested
/// chunk's bytes are CRC-verified — the point of random access.
pub fn decompress_chunk(bytes: &[u8], index: usize) -> Result<(Vec<f32>, Vec<usize>), DpzError> {
    counted(|| {
        if bytes.len() < 6 || &bytes[..4] != MAGIC {
            return Err(DpzError::Corrupt("bad chunk magic"));
        }
        if bytes[4] > VERSION_CRC {
            read_chunk_values(&mut Cursor::new(bytes), index)
        } else {
            let dir = parse_directory(bytes)?;
            let &(lo, hi) = dir
                .ranges
                .get(index)
                .ok_or(DpzError::BadInput("chunk index out of range"))?;
            dir.check_chunk(index)?;
            decompress(&dir.payload[lo..hi])
        }
    })
}

/// [`decompress_chunk`] against a seekable source: reads only the header,
/// footer, and the requested chunk's bytes. v4 containers only.
pub fn decompress_chunk_from<R: Read + Seek>(
    r: &mut R,
    index: usize,
) -> Result<(Vec<f32>, Vec<usize>), DpzError> {
    counted(|| read_chunk_values(r, index))
}

/// Uncounted body of the seekable single-chunk read shared by
/// [`decompress_chunk`] and [`decompress_chunk_from`]: index, one chunk's
/// CRC-verified bytes, decode.
fn read_chunk_values<R: Read + Seek>(
    r: &mut R,
    index: usize,
) -> Result<(Vec<f32>, Vec<usize>), DpzError> {
    let idx = SeekableIndex::read(r)?;
    let stream = idx.read_chunk(r, index)?;
    let (v, d, _) = decode_stream(&stream)?;
    Ok((v, d))
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
fn overlapping_chunks(chunks: &[ChunkEntry], rows: &Range<usize>) -> Vec<(usize, Range<usize>)> {
    let mut selected = Vec::new();
    let mut row0 = 0usize;
    for (i, e) in chunks.iter().enumerate() {
        let lo = rows.start.max(row0);
        let hi = rows.end.min(row0 + e.rows);
        if lo < hi {
            selected.push((i, lo - row0..hi - row0));
        }
        row0 += e.rows;
    }
    selected
}

fn stitch_region_parts(
    parts: Vec<Result<Vec<f32>, DpzError>>,
    region: &[Range<usize>],
) -> Result<(Vec<f32>, Vec<usize>), DpzError> {
    let out_dims: Vec<usize> = region.iter().map(|r| r.end - r.start).collect();
    let parts = parts.into_iter().map(|p| p.map(|v| (v, ())));
    let (out, _) = stitch(parts, checked_product(&out_dims, "dims overflow")?)?;
    Ok((out, out_dims))
}

/// Extract the slab-local sub-region from one decoded chunk.
fn crop_chunk(
    values: &[f32],
    slab_dims: &[usize],
    entry: &ChunkEntry,
    local_rows: Range<usize>,
    region: &[Range<usize>],
) -> Result<Vec<f32>, DpzError> {
    if slab_dims.len() != region.len() || slab_dims[0] != entry.rows || values.len() != entry.values
    {
        return Err(DpzError::Corrupt("chunk dims inconsistent with footer"));
    }
    let mut local: Vec<Range<usize>> = Vec::with_capacity(region.len());
    local.push(local_rows);
    local.extend(region[1..].iter().cloned());
    Ok(extract_region(values, slab_dims, &local))
}

/// Decompress an axis-aligned sub-region (`lo..hi` per axis). On a v4
/// container only the chunks overlapping the region along the slowest axis
/// are CRC-verified and decoded; legacy containers fall back to a full
/// decode plus crop. Returns the region's values and its dims.
pub fn decompress_region(
    bytes: &[u8],
    region: &[Range<usize>],
) -> Result<(Vec<f32>, Vec<usize>), DpzError> {
    counted(|| {
        if bytes.len() < 6 || &bytes[..4] != MAGIC {
            return Err(DpzError::Corrupt("bad chunk magic"));
        }
        if bytes[4] > VERSION_CRC {
            let index = SeekableIndex::from_bytes(bytes)?;
            validate_region(&index.dims, region)?;
            let selected = overlapping_chunks(&index.chunks, &region[0]);
            let parts: Vec<Result<Vec<f32>, DpzError>> = selected
                .par_iter()
                .map(|(i, local_rows)| {
                    let e = &index.chunks[*i];
                    let s = &bytes[e.offset..e.offset + e.len];
                    if crc32(s) != e.crc {
                        return Err(DpzError::Corrupt("chunk checksum mismatch"));
                    }
                    let (v, slab_dims, _) = decode_stream(s)?;
                    crop_chunk(&v, &slab_dims, e, local_rows.clone(), region)
                })
                .collect();
            stitch_region_parts(parts, region)
        } else {
            // Legacy streams have no index: decode everything, then crop.
            let (values, dims, _) = full_decode(bytes)?;
            validate_region(&dims, region)?;
            let out = extract_region(&values, &dims, region);
            let out_dims: Vec<usize> = region.iter().map(|r| r.end - r.start).collect();
            Ok((out, out_dims))
        }
    })
}

/// [`decompress_region`] against a seekable source: reads only the header,
/// footer, and the overlapping chunks' bytes. v4 containers only.
pub fn decompress_region_from<R: Read + Seek>(
    r: &mut R,
    region: &[Range<usize>],
) -> Result<(Vec<f32>, Vec<usize>), DpzError> {
    counted(|| {
        let index = SeekableIndex::read(r)?;
        validate_region(&index.dims, region)?;
        let selected = overlapping_chunks(&index.chunks, &region[0]);
        // Sequential fetch (one seek per chunk), decode as we go: a Read +
        // Seek source is stateful, so the parallel in-memory path doesn't
        // apply here.
        let mut parts = Vec::with_capacity(selected.len());
        for (i, local_rows) in selected {
            let e = index.chunks[i];
            let stream = index.read_chunk(r, i)?;
            let part = decode_stream(&stream)
                .and_then(|(v, slab_dims, _)| crop_chunk(&v, &slab_dims, &e, local_rows, region));
            parts.push(part);
        }
        stitch_region_parts(parts, region)
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
                let prefix_len = p.components[k - 1].end;
                let s = &bytes[e.offset..e.offset + prefix_len];
                let (payload, _) = container::deserialize_progressive(s, Some(k))?;
                let range = payload.norm_range;
                let (v, _) = crate::pipeline::reconstruct_values(&payload)?;
                if v.len() != e.values {
                    return Err(DpzError::Corrupt("stitched length mismatch"));
                }
                Ok((v, range))
            })
            .collect();
        let expected = checked_product(&index.dims, "dims overflow")?;
        let (values, ranges) = stitch(parts, expected)?;

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
        // Legacy containers refuse the seekable entry points.
        assert!(matches!(
            decompress_region_from(&mut counting(LEGACY_V2), &region),
            Err(DpzError::BadInput(_))
        ));
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
    fn legacy_region_falls_back_to_full_decode() {
        let data = golden_field();
        let out = compress_chunked(&data, &[64, 96], &DpzConfig::loose(), 4).unwrap();
        let region = vec![3..17, 5..25];
        let (a, da) = decompress_region(LEGACY_V2, &region).unwrap();
        let (b, db) = decompress_region(&out.bytes, &region).unwrap();
        assert_eq!(a, b);
        assert_eq!(da, db);
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
