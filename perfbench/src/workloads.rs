//! Workload definitions and their seeded inputs. A definition never depends
//! on the seed; the seed only picks the generated field values and the
//! read plan.

use dpz_data::rng::Xoshiro256;
use dpz_data::{Dataset, DatasetKind, Scale};
use std::ops::Range;

/// Chunk count of the seekable workload (`compress_chunked(.., 8)`).
pub const CHUNKS: usize = 8;
/// Region reads per cycle that stay inside one chunk.
pub const REGION_READS_INSIDE: usize = 8;
/// Region reads per cycle that straddle a chunk boundary. Two thirds of the
/// reads touch one chunk, so the median is a one-chunk read whatever the
/// seed, and the tail is a two-chunk read.
pub const REGION_READS_STRADDLE: usize = 4;
/// Single-chunk reads per cycle.
pub const CHUNK_READS: usize = 4;
/// Region extent of the seekable workload's reads (rows × columns).
pub const REGION_SHAPE: [usize; 2] = [100, 400];
/// Targets of the target workload: half PSNR, half ratio.
pub const PSNR_TARGET_DB: f64 = 60.0;
pub const RATIO_TARGET: f64 = 20.0;
pub const RATIO_TOL: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    One,
    /// `std::thread::available_parallelism()`.
    Nproc,
}

impl Threads {
    pub fn count(self) -> usize {
        match self {
            Threads::One => 1,
            Threads::Nproc => std::thread::available_parallelism().map_or(1, usize::from),
        }
    }
}

/// Scale of every workload's fields.
pub const SCALE: Scale = Scale::Small;
/// Draws of each Table I field per run. How much work a field costs moves
/// with its values (the PCA rank, the randomized fitter's escalations):
/// one draw's strict compress throughput differs by 10% between seeds, so a
/// run averages over three.
pub const DRAWS: u64 = 3;

/// What one op of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `dpz_core::compress` then `dpz_core::decompress` per field, with
    /// `DpzConfig::strict()`.
    Strict,
    /// Per field: `compress_chunked(.., CHUNKS)` with `DpzConfig::loose()`,
    /// a full `decompress_chunked`, then region and single-chunk reads
    /// through a counting `Read + Seek`.
    ChunkedReads,
    /// `AutoCodec::compress_with_target` per field, once toward
    /// `Psnr(PSNR_TARGET_DB)` and once toward `Ratio { RATIO_TARGET,
    /// RATIO_TOL }`, each followed by a registry decode.
    Targets,
}

/// A workload runs `kind` over `DRAWS` draws of the nine Table I fields
/// (`DatasetKind::ALL`) at `SCALE`, on a pool of `threads`.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub threads: Threads,
}

pub const NAMES: [&str; 3] = ["suite_strict", "suite_targets", "suite_dpzc_reads"];

impl Workload {
    pub fn get(name: &str) -> Option<Workload> {
        let (name, kind, threads) = match name {
            "suite_strict" => ("suite_strict", Kind::Strict, Threads::One),
            "suite_targets" => ("suite_targets", Kind::Targets, Threads::One),
            "suite_dpzc_reads" => ("suite_dpzc_reads", Kind::ChunkedReads, Threads::Nproc),
            _ => return None,
        };
        Some(Workload {
            name,
            kind,
            threads,
        })
    }

    /// Generate the inputs at `scale` (the runner uses [`SCALE`]) for
    /// `seed`: draw `d` of each field is `Dataset::generate(kind, scale,
    /// seed ^ (d << 32))`, so draw 0 is the field at `seed` itself.
    pub fn inputs(&self, scale: Scale, seed: u64) -> Vec<Field> {
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x5EED_BE4C_0000_0001);
        (0..DRAWS)
            .flat_map(|d| DatasetKind::ALL.iter().map(move |&kind| (d, kind)))
            .map(|(d, kind)| {
                let ds = Dataset::generate(kind, scale, seed ^ (d << 32));
                let (reads, chunk_reads) = if self.kind == Kind::ChunkedReads {
                    let slabs = ds.dims[0].div_ceil(rows_per_slab(&ds.dims));
                    (
                        read_plan(&ds.dims, &mut rng),
                        (0..CHUNK_READS).map(|_| rng.below(slabs)).collect(),
                    )
                } else {
                    (Vec::new(), Vec::new())
                };
                Field {
                    ds,
                    reads,
                    chunk_reads,
                }
            })
            .collect()
    }
}

/// One generated field and its seeded read plan.
pub struct Field {
    pub ds: Dataset,
    /// Seekable region reads (chunked workload only).
    pub reads: Vec<Vec<Range<usize>>>,
    /// Chunk indices read alone (chunked workload only).
    pub chunk_reads: Vec<usize>,
}

/// Rows per slab of a `CHUNKS`-way chunked artifact (the slab geometry of
/// `compress_chunked`).
pub fn rows_per_slab(dims: &[usize]) -> usize {
    dims[0].div_ceil(CHUNKS.clamp(1, dims[0]))
}

/// Seekable reads: `REGION_READS_INSIDE` regions inside one slab, then
/// `REGION_READS_STRADDLE` regions across a slab boundary, each of
/// `REGION_SHAPE` (clamped to the field) along the first two axes and the
/// full extent of any further axes.
fn read_plan(dims: &[usize], rng: &mut Xoshiro256) -> Vec<Vec<Range<usize>>> {
    let rps = rows_per_slab(dims);
    let slabs = dims[0].div_ceil(rps);
    let h = REGION_SHAPE[0].min(rps).max(2);
    let mut out = Vec::new();
    for i in 0..REGION_READS_INSIDE + REGION_READS_STRADDLE {
        let r0 = if i < REGION_READS_INSIDE || slabs < 2 {
            let slab = rng.below(slabs);
            let top = slab * rps;
            let avail = (dims[0] - top).min(rps);
            top + rng.below(avail.saturating_sub(h) + 1)
        } else {
            // A boundary b = s·rps with rows on both sides of it.
            let b = (1 + rng.below(slabs - 1)) * rps;
            let below = (dims[0] - b).min(h - 1);
            b - h + 1 + rng.below(below.max(1)).min(h - 2)
        };
        let mut region = Vec::with_capacity(dims.len());
        region.push(r0..(r0 + h).min(dims[0]));
        if let Some(&cols) = dims.get(1) {
            let w = REGION_SHAPE[1].min(cols);
            let c0 = rng.below(cols - w + 1);
            region.push(c0..c0 + w);
        }
        region.extend(dims.iter().skip(2).map(|&d| 0..d));
        out.push(region);
    }
    out
}

/// The seekable read plan of a field of shape `dims` for `seed` (used to
/// profile the seekable layer on workloads whose ops do not read).
pub fn read_plan_for(dims: &[usize], seed: u64) -> Vec<Vec<Range<usize>>> {
    read_plan(
        dims,
        &mut Xoshiro256::seed_from_u64(seed ^ 0x5EED_BE4C_0000_0002),
    )
}

/// Chunks a region touches along the slab axis.
pub fn chunks_touched(rows: &Range<usize>, rps: usize) -> usize {
    (rows.end - 1) / rps - rows.start / rps + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_unknown_is_none() {
        for name in NAMES {
            assert_eq!(Workload::get(name).expect("defined").name, name);
        }
        assert!(Workload::get("nope").is_none());
    }

    #[test]
    fn seed_changes_inputs_but_not_the_definition() {
        for name in NAMES {
            let w = Workload::get(name).expect("defined");
            // A small stand-in scale keeps the test fast; the definition is
            // what must not move.
            let a = w.inputs(Scale::Tiny, 1);
            let b = w.inputs(Scale::Tiny, 2);
            let a2 = w.inputs(Scale::Tiny, 1);
            assert_eq!(Workload::get(name), Workload::get(name));
            assert_eq!(a.len(), DRAWS as usize * DatasetKind::ALL.len());
            assert_ne!(
                a[0].ds.data,
                a[DatasetKind::ALL.len()].ds.data,
                "draws differ"
            );
            for ((x, y), x2) in a.iter().zip(&b).zip(&a2) {
                assert_eq!(x.ds.dims, y.ds.dims, "{name}: same shapes");
                assert_ne!(x.ds.data, y.ds.data, "{name}: seed moves the values");
                assert_eq!(x.ds.data, x2.ds.data, "{name}: same seed, same values");
                assert_eq!(x.reads, x2.reads);
                assert_eq!(x.reads.len(), y.reads.len());
                assert_eq!(x.chunk_reads.len(), y.chunk_reads.len());
            }
        }
    }

    #[test]
    fn read_plan_mixes_one_and_two_chunk_reads() {
        let dims = Scale::Paper.dims(DatasetKind::Cldhgh);
        let mut rng = Xoshiro256::seed_from_u64(9);
        let plan = read_plan(&dims, &mut rng);
        let rps = rows_per_slab(&dims);
        assert_eq!(rps, 225);
        let touched: Vec<usize> = plan.iter().map(|r| chunks_touched(&r[0], rps)).collect();
        assert_eq!(touched[..REGION_READS_INSIDE], [1; REGION_READS_INSIDE]);
        assert_eq!(touched[REGION_READS_INSIDE..], [2; REGION_READS_STRADDLE]);
        for r in &plan {
            assert_eq!(r[0].len(), 100);
            assert_eq!(r[1].len(), 400);
            assert!(r[0].end <= dims[0] && r[1].end <= dims[1]);
        }
        // Reads outnumber the one write per cycle by at least 8:1.
        assert!(plan.len() + CHUNK_READS >= 8);
    }
}
