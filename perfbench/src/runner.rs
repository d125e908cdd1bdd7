//! The closed-loop runner: one client sends a workload's ops back to back,
//! times each call, and checks every output.

use crate::canary::Canary;
use crate::layers::{self, Composed};
use crate::spans::Spans;
use crate::stats::{self, fnv1a, fnv1a_f32, Quality, Timed};
use crate::workloads::{self, Field, Kind, Workload};
use dpz_codec::{AutoCodec, Codec, Registry};
use dpz_core::{DpzConfig, DpzError, QualityTarget, SeekableIndex};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io::{Cursor, Read, Seek, SeekFrom};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// Timings of one measured segment.
#[derive(Debug, Default)]
pub struct Record {
    pub compress: Timed,
    pub decompress: Timed,
    /// Seekable region reads (`suite_dpzc_reads` only).
    pub region: Timed,
    /// Single-chunk reads (`suite_dpzc_reads` only).
    pub chunk: Timed,
    pub cycle_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// What the first op of a run produced for one (field, target) key; later
/// ops must reproduce it exactly.
#[derive(Debug, Clone)]
pub enum Expect {
    Artifact {
        len: usize,
        hash: u64,
        decoded: u64,
        k: Option<usize>,
        codec: &'static str,
        input_bytes: u64,
        quality: Quality,
        in_band: bool,
    },
    /// The target was refused as unreachable (`TargetUnreachable`).
    Miss { achievable: f64 },
}

/// Aggregates of the composed pipeline's decisions (traced runs).
#[derive(Debug, Default)]
pub struct LayerAcc {
    pub fits: u64,
    pub k: u64,
    pub sketch_cols: u64,
    pub tve: f64,
    pub outliers: u64,
    pub scores: u64,
    pub raw: u64,
    pub packed: u64,
    /// Bytes the fused DCT ingest reads (f32 input) and writes (f64
    /// coefficients), from the matrix sizes.
    pub dct_bytes: u64,
}

#[derive(Debug, Default)]
pub struct SeekAcc {
    pub reads: u64,
    pub bytes_read: u64,
    pub chunks_touched: u64,
}

#[derive(Debug, Default)]
pub struct TargetAcc {
    pub ops: u64,
    pub misses: u64,
    pub selected: BTreeMap<&'static str, u64>,
}

/// `Read + Seek` over an in-memory artifact that counts the bytes read.
struct Counting<'a> {
    inner: Cursor<&'a [u8]>,
    bytes: u64,
}

impl<'a> Counting<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Counting {
            inner: Cursor::new(bytes),
            bytes: 0,
        }
    }
}

impl Read for Counting<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

impl Seek for Counting<'_> {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        self.inner.seek(pos)
    }
}

type ReadExpect = (Vec<u64>, Vec<(Vec<usize>, u64)>);

pub struct Runner {
    pub w: Workload,
    pub seed: u64,
    pub fields: Arc<Vec<Field>>,
    pub spans: Spans,
    /// Ops started so far (span op ids).
    pub ops: u64,
    pub rec: Record,
    pub expect: BTreeMap<(usize, usize), Expect>,
    /// Expected hashes of each field's seekable reads, and dims and hash of
    /// each chunk, from the field's first full decode.
    read_expect: BTreeMap<usize, ReadExpect>,
    /// Compose strict ops from public layer calls (both halves of a traced
    /// run on `suite_strict`).
    pub composed: bool,
    pub failures: Vec<String>,
    pub faithfulness: Vec<String>,
    pub layer: LayerAcc,
    pub seek: SeekAcc,
    pub targets: TargetAcc,
    /// First composed compression of field 0, kept for kernel rates.
    pub profile_input: Option<Composed>,
    /// Spans of the paper-scale layer profile (traced runs).
    pub paper_spans: Option<Spans>,
    canary: Canary,
}

pub fn targets() -> [QualityTarget; 2] {
    [
        QualityTarget::Psnr(workloads::PSNR_TARGET_DB),
        QualityTarget::Ratio {
            target: workloads::RATIO_TARGET,
            tol: workloads::RATIO_TOL,
        },
    ]
}

fn region_dims(region: &[Range<usize>]) -> Vec<usize> {
    region.iter().map(|r| r.end - r.start).collect()
}

impl Runner {
    /// A runner with tracing off; the traced run turns it on after its
    /// untraced half.
    pub fn new(w: Workload, seed: u64) -> Runner {
        Runner {
            w,
            seed,
            fields: Arc::new(Vec::new()),
            spans: Spans::new(false),
            ops: 0,
            rec: Record::default(),
            expect: BTreeMap::new(),
            read_expect: BTreeMap::new(),
            composed: false,
            failures: Vec::new(),
            faithfulness: Vec::new(),
            layer: LayerAcc::default(),
            seek: SeekAcc::default(),
            targets: TargetAcc::default(),
            profile_input: None,
            paper_spans: None,
            canary: Canary::default(),
        }
    }

    fn next_op(&mut self) -> u64 {
        self.ops += 1;
        self.ops
    }

    fn fail(&mut self, what: String) {
        self.rec.failed += 1;
        if self.failures.len() < 32 {
            self.failures.push(what);
        }
    }

    /// Generate the inputs and run one warm-up op (the first op of a cycle).
    pub fn setup(&mut self) {
        self.fields = Arc::new(self.w.inputs(workloads::SCALE, self.seed));
        match self.w.kind {
            Kind::Strict => self.strict_op(0),
            Kind::ChunkedReads => self.chunked_op(0, false),
            Kind::Targets => self.target_op(0, 0),
        }
    }

    /// Run whole cycles until `seconds` have passed (at least one cycle).
    pub fn run_for(&mut self, seconds: f64) {
        let start = Instant::now();
        loop {
            let t = Instant::now();
            self.cycle();
            self.rec.cycle_s.push(t.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    fn cycle(&mut self) {
        let n = self.fields.len();
        match self.w.kind {
            Kind::Strict => (0..n).for_each(|f| self.strict_op(f)),
            Kind::ChunkedReads => (0..n).for_each(|f| self.chunked_op(f, true)),
            Kind::Targets => {
                for f in 0..n {
                    for t in 0..targets().len() {
                        self.target_op(f, t);
                    }
                }
            }
        }
    }

    /// Check one decoded output against its input and against the first
    /// output of the same key. Returns the key's expectation when the
    /// output is sound.
    #[allow(clippy::too_many_arguments)]
    fn check(
        &mut self,
        key: (usize, usize),
        input: &[f32],
        input_dims: &[usize],
        artifact: &[u8],
        values: &[f32],
        dims: &[usize],
        k: Option<usize>,
        codec: &'static str,
    ) -> Option<Expect> {
        let name = self.w.name;
        if dims != input_dims || values.len() != input.len() {
            self.fail(format!(
                "{name} {key:?}: decoded dims {dims:?}, expected {input_dims:?}"
            ));
            return None;
        }
        if values.iter().any(|v| !v.is_finite()) {
            self.fail(format!("{name} {key:?}: non-finite decoded value"));
            return None;
        }
        let hash = fnv1a(artifact);
        let decoded = fnv1a_f32(values);
        let Some(first) = self.expect.get(&key).cloned() else {
            let quality = stats::quality(input, values);
            let e = Expect::Artifact {
                len: artifact.len(),
                hash,
                decoded,
                k,
                codec,
                input_bytes: (input.len() * 4) as u64,
                quality,
                in_band: self.in_band(key.1, input.len(), artifact.len(), quality),
            };
            self.expect.insert(key, e.clone());
            return Some(e);
        };
        let same = match &first {
            Expect::Artifact {
                len,
                hash: h,
                decoded: d,
                k: k0,
                ..
            } => {
                *len == artifact.len()
                    && *h == hash
                    && *d == decoded
                    && (k.is_none() || k0.is_none() || k == *k0)
            }
            Expect::Miss { .. } => false,
        };
        if same {
            return Some(first);
        }
        let what = format!(
            "{name} {key:?}: output differs from the run's first op (len {}, hash {hash:016x}, k {k:?})",
            artifact.len()
        );
        if self.composed {
            self.faithfulness.push(what.clone());
        }
        self.fail(what);
        None
    }

    /// Whether an artifact meets its target (the target workload's band
    /// check; always true elsewhere).
    fn in_band(&self, target: usize, values: usize, artifact: usize, q: Quality) -> bool {
        if self.w.kind != Kind::Targets {
            return true;
        }
        match targets()[target] {
            QualityTarget::Ratio { target, tol } => dpz_core::ratio_within(
                stats::ratio((values * 4) as u64, artifact as u64),
                target,
                tol,
            ),
            QualityTarget::Psnr(db) => q.psnr_db >= db - dpz_core::PSNR_SLACK_DB,
            _ => true,
        }
    }

    fn strict_op(&mut self, f: usize) {
        let fields = Arc::clone(&self.fields);
        let field = &fields[f];
        let (data, dims) = (&field.ds.data[..], &field.ds.dims[..]);
        let cfg = DpzConfig::strict();
        let op = self.next_op();
        let factor = self.canary.factor();
        self.rec.attempted += 1;

        let root = self.spans.begin(
            if self.composed {
                "dpz1.compress"
            } else {
                "op.compress"
            },
            op,
        );
        let t = Instant::now();
        let (res, composed) = if self.composed {
            match layers::compress(&mut self.spans, op, data, dims, &cfg) {
                Ok(c) => (Ok((c.bytes.clone(), Some(c.k))), Some(c)),
                Err(e) => (Err(e), None),
            }
        } else {
            let res = dpz_core::compress(data, dims, &cfg).map(|c| (c.bytes, Some(c.stats.k)));
            (res, None)
        };
        let cs = t.elapsed().as_secs_f64();
        self.spans.end(root);
        self.rec
            .compress
            .push((f, 0), field.ds.nbytes() as u64, cs, factor);
        if let Some(c) = composed {
            self.note_composed(c, f == 0);
        }
        let (bytes, k) = match res {
            Ok(x) => x,
            Err(e) => return self.fail(format!("{}: compress field {f}: {e}", self.w.name)),
        };

        let root = self.spans.begin(
            if self.composed {
                "dpz1.decompress"
            } else {
                "op.decompress"
            },
            op,
        );
        let t = Instant::now();
        let dec = if self.composed {
            layers::decompress(&mut self.spans, op, &bytes)
        } else {
            dpz_core::decompress(&bytes)
        };
        let ds = t.elapsed().as_secs_f64();
        self.spans.end(root);
        self.decoded(f, 0, &bytes, dec, (ds, factor), k, "dpz");
    }

    /// Record a full decode (its seconds and the op's canary factor) and
    /// its checks.
    #[allow(clippy::too_many_arguments)]
    fn decoded(
        &mut self,
        f: usize,
        target: usize,
        artifact: &[u8],
        dec: Result<(Vec<f32>, Vec<usize>), DpzError>,
        (decode_s, factor): (f64, f64),
        k: Option<usize>,
        codec: &'static str,
    ) -> Option<Vec<f32>> {
        let fields = Arc::clone(&self.fields);
        let field = &fields[f];
        self.rec.attempted += 1;
        let (values, dims) = match dec {
            Ok(x) => x,
            Err(e) => {
                self.fail(format!("{}: decompress field {f}: {e}", self.w.name));
                return None;
            }
        };
        self.rec
            .decompress
            .push((f, target), (values.len() * 4) as u64, decode_s, factor);
        let e = self.check(
            (f, target),
            &field.ds.data,
            &field.ds.dims,
            artifact,
            &values,
            &dims,
            k,
            codec,
        )?;
        if self.w.kind == Kind::Targets {
            self.targets.ops += 1;
            if let Expect::Artifact { in_band, .. } = e {
                self.targets.misses += u64::from(!in_band);
            }
            *self.targets.selected.entry(codec).or_default() += 1;
        }
        Some(values)
    }

    pub fn note_composed(&mut self, c: Composed, keep: bool) {
        let acc = &mut self.layer;
        acc.fits += 1;
        acc.k += c.k as u64;
        acc.sketch_cols += c.sketch_cols as u64;
        acc.tve += c.tve;
        acc.outliers += c.outliers as u64;
        acc.scores += c.scores as u64;
        acc.raw += c.sections.total_raw() as u64;
        acc.packed += c.sections.total_packed() as u64;
        let len = c.shape.m * c.shape.n - c.shape.pad;
        acc.dct_bytes += (4 * len + 8 * c.shape.m * c.shape.n) as u64;
        if keep && self.profile_input.is_none() {
            self.profile_input = Some(c);
        }
    }

    fn chunked_op(&mut self, f: usize, reads: bool) {
        let fields = Arc::clone(&self.fields);
        let field = &fields[f];
        let (data, dims) = (&field.ds.data[..], &field.ds.dims[..]);
        let cfg = DpzConfig::loose();
        let op = self.next_op();
        let factor = self.canary.factor();
        self.rec.attempted += 1;
        let root = self.spans.begin("op.compress", op);
        let t = Instant::now();
        let res = dpz_core::compress_chunked(data, dims, &cfg, workloads::CHUNKS);
        let cs = t.elapsed().as_secs_f64();
        self.spans.end(root);
        self.rec
            .compress
            .push((f, 0), field.ds.nbytes() as u64, cs, factor);
        let bytes = match res {
            Ok(c) => c.bytes,
            Err(e) => return self.fail(format!("{}: compress_chunked: {e}", self.w.name)),
        };

        let root = self.spans.begin("op.decompress", op);
        let t = Instant::now();
        let dec = dpz_core::decompress_chunked(&bytes);
        let ds = t.elapsed().as_secs_f64();
        self.spans.end(root);
        let Some(values) = self.decoded(f, 0, &bytes, dec, (ds, factor), None, "dpzc") else {
            return;
        };
        let rps = workloads::rows_per_slab(dims);
        if let Entry::Vacant(slot) = self.read_expect.entry(f) {
            let reads = field
                .reads
                .iter()
                .map(|r| fnv1a_f32(&dpz_core::extract_region(&values, dims, r)))
                .collect();
            let row: usize = dims[1..].iter().product();
            let chunks = (0..dims[0].div_ceil(rps))
                .map(|c| {
                    let rows = c * rps..((c + 1) * rps).min(dims[0]);
                    let mut cdims = dims.to_vec();
                    cdims[0] = rows.len();
                    (cdims, fnv1a_f32(&values[rows.start * row..rows.end * row]))
                })
                .collect();
            slot.insert((reads, chunks));
        }
        if !reads {
            return;
        }
        for (i, region) in field.reads.iter().enumerate() {
            let op = self.next_op();
            self.rec.attempted += 1;
            let mut r = Counting::new(&bytes);
            let root = self.spans.begin("op.region_read", op);
            let t = Instant::now();
            let got = dpz_core::decompress_region_from(&mut r, region);
            let rs = t.elapsed().as_secs_f64();
            self.spans.end(root);
            self.rec.region.push((f, i), 0, rs, factor);
            self.seek.reads += 1;
            self.seek.bytes_read += r.bytes;
            self.seek.chunks_touched += workloads::chunks_touched(&region[0], rps) as u64;
            if self.spans.enabled() {
                // The index read on its own, after the timed read so that
                // it does not warm the cache for it.
                let mut r = Counting::new(&bytes);
                let idx = self
                    .spans
                    .time("seek.index", op, || SeekableIndex::read(&mut r));
                if let Err(e) = idx {
                    self.fail(format!("{}: index read: {e}", self.w.name));
                }
            }
            match got {
                Ok((v, d))
                    if d == region_dims(region) && fnv1a_f32(&v) == self.read_expect[&f].0[i] => {}
                Ok(_) => self.fail(format!(
                    "{}: region {region:?} differs from the full decode",
                    self.w.name
                )),
                Err(e) => self.fail(format!("{}: region {region:?}: {e}", self.w.name)),
            }
        }
        for &c in &field.chunk_reads {
            let op = self.next_op();
            self.rec.attempted += 1;
            let mut r = Counting::new(&bytes);
            let root = self.spans.begin("op.chunk_read", op);
            let t = Instant::now();
            let got = dpz_core::decompress_chunk_from(&mut r, c);
            let rs = t.elapsed().as_secs_f64();
            self.spans.end(root);
            self.rec.chunk.push((f, c), 0, rs, factor);
            self.seek.reads += 1;
            self.seek.bytes_read += r.bytes;
            self.seek.chunks_touched += 1;
            match got {
                Ok((v, d)) if (d.clone(), fnv1a_f32(&v)) == self.read_expect[&f].1[c] => {}
                Ok(_) => self.fail(format!(
                    "{}: chunk {c} differs from the full decode",
                    self.w.name
                )),
                Err(e) => self.fail(format!("{}: chunk {c}: {e}", self.w.name)),
            }
        }
    }

    fn target_op(&mut self, f: usize, t: usize) {
        let fields = Arc::clone(&self.fields);
        let field = &fields[f];
        let (data, dims) = (&field.ds.data[..], &field.ds.dims[..]);
        let target = targets()[t];
        let op = self.next_op();
        let factor = self.canary.factor();
        let auto = AutoCodec::new();
        if self.spans.enabled() {
            // The probe table on the same input, outside the timed op.
            let _ = self
                .spans
                .time("auto.probe_all", op, || auto.probe_all(data, dims, &target));
        }
        self.rec.attempted += 1;
        let root = self.spans.begin("op.compress", op);
        let start = Instant::now();
        let mut artifact = Vec::new();
        let res = auto.compress_with_target(data, dims, &target, &mut artifact);
        let cs = start.elapsed().as_secs_f64();
        self.spans.end(root);
        self.rec
            .compress
            .push((f, t), field.ds.nbytes() as u64, cs, factor);
        let stats = match res {
            Ok(s) => s,
            Err(DpzError::TargetUnreachable { achievable, .. }) => {
                // A typed refusal is a target miss, not a broken op; it must
                // repeat like any other outcome.
                self.targets.ops += 1;
                self.targets.misses += 1;
                match self.expect.get(&(f, t)) {
                    None => {
                        self.expect.insert((f, t), Expect::Miss { achievable });
                    }
                    Some(Expect::Miss { .. }) => {}
                    Some(Expect::Artifact { .. }) => self.fail(format!(
                        "{}: field {f} target {t}: refused after succeeding",
                        self.w.name
                    )),
                }
                return;
            }
            Err(e) => return self.fail(format!("{}: field {f} target {t}: {e}", self.w.name)),
        };
        let root = self.spans.begin("op.decompress", op);
        let start = Instant::now();
        let dec = Registry::builtin()
            .decompress(&artifact)
            .map(|d| (d.values, d.dims));
        let ds = start.elapsed().as_secs_f64();
        self.spans.end(root);
        self.decoded(
            f,
            t,
            &artifact,
            dec,
            (ds, factor),
            stats.dpz.map(|s| s.k),
            stats.codec,
        );
    }

    /// Composed DPZ1 compress and decode of `data` under `cfg`, each checked
    /// bitwise against the black-box calls (the layer profile of workloads
    /// whose own ops are not DPZ1, and of the paper-scale field).
    pub fn profile_dpz1(
        &mut self,
        data: &[f32],
        dims: &[usize],
        cfg: &DpzConfig,
    ) -> Option<Composed> {
        let reference = dpz_core::compress(data, dims, cfg);
        let op = self.next_op();
        let root = self.spans.begin("dpz1.compress", op);
        let composed = layers::compress(&mut self.spans, op, data, dims, cfg);
        self.spans.end(root);
        let (reference, c) = match (reference, composed) {
            (Ok(r), Ok(c)) => (r, c),
            (r, c) => {
                let msg = format!(
                    "profile compress: black box {:?}, composed {:?}",
                    r.err(),
                    c.err()
                );
                self.faithfulness.push(msg);
                return None;
            }
        };
        if c.bytes != reference.bytes || c.k != reference.stats.k {
            self.faithfulness.push(format!(
                "{}: composed compress differs (k {} vs {}, {} vs {} bytes)",
                self.w.name,
                c.k,
                reference.stats.k,
                c.bytes.len(),
                reference.bytes.len()
            ));
        }
        let bytes = reference.bytes;
        let root = self.spans.begin("dpz1.decompress", op);
        let mine = layers::decompress(&mut self.spans, op, &bytes);
        self.spans.end(root);
        let same = match (dpz_core::decompress(&bytes), mine) {
            (Ok((a, da)), Ok((b, db))) => da == db && fnv1a_f32(&a) == fnv1a_f32(&b),
            _ => false,
        };
        if !same {
            self.faithfulness.push(format!(
                "{}: composed decode differs from dpz_core::decompress",
                self.w.name
            ));
        }
        Some(c)
    }

    /// Seekable reads with spans, for workloads whose own ops do not read
    /// a seekable artifact: one `CHUNKS`-way artifact of `field` and its
    /// seeded read plan.
    pub fn profile_seek(&mut self, field: &Field) {
        let (data, dims) = (&field.ds.data[..], &field.ds.dims[..]);
        let bytes =
            match dpz_core::compress_chunked(data, dims, &DpzConfig::loose(), workloads::CHUNKS) {
                Ok(c) => c.bytes,
                Err(e) => return self.fail(format!("profile compress_chunked: {e}")),
            };
        let rps = workloads::rows_per_slab(dims);
        for region in workloads::read_plan_for(dims, self.seed) {
            let op = self.next_op();
            let mut r = Counting::new(&bytes);
            let _ = self
                .spans
                .time("seek.index", op, || SeekableIndex::read(&mut r));
            let mut r = Counting::new(&bytes);
            let got = self.spans.time("op.region_read", op, || {
                dpz_core::decompress_region_from(&mut r, &region)
            });
            if let Err(e) = got {
                self.fail(format!("profile region {region:?}: {e}"));
            }
            self.seek.reads += 1;
            self.seek.bytes_read += r.bytes;
            self.seek.chunks_touched += workloads::chunks_touched(&region[0], rps) as u64;
        }
    }
}
