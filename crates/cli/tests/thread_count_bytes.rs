//! Artifacts do not follow the pool width. Each case compresses strict in
//! its own `dpz` process at `DPZ_THREADS` 1, 2, 3, 4 and 8, and the five
//! artifacts must hash alike:
//!
//! - a white-noise field whose two sections each span two whole 128 KiB
//!   zlib members: member counts follow the section length alone;
//! - HACC-vx Small, whose 128 KiB index section is one member;
//! - FREQSH Small, whose strict artifact, length included, moves with the
//!   last bits of its covariance.
//!
//! The last two fit PCA densely, through `Matrix::gram`, which sums every
//! covariance element in the same order at any width.

use std::path::{Path, PathBuf};
use std::process::Command;

const THREADS: [usize; 5] = [1, 2, 3, 4, 8];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A scratch directory of this test's own.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpz_threads_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn dpz(args: &[&str], threads: Option<usize>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dpz"));
    cmd.args(args);
    if let Some(n) = threads {
        cmd.env("DPZ_THREADS", n.to_string());
    }
    let out = cmd.output().expect("run dpz");
    assert!(
        out.status.success(),
        "dpz {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Compress `input` strict once per pool width, each in its own process.
fn artifacts(dir: &Path, input: &Path, dims: &str) -> Vec<Vec<u8>> {
    THREADS
        .iter()
        .map(|&n| {
            let out = dir.join(format!("out.{n}.dpz"));
            let (input, out_s) = (input.to_str().unwrap(), out.to_str().unwrap());
            dpz(
                &[
                    "compress", input, out_s, "--dims", dims, "--scheme", "strict",
                ],
                Some(n),
            );
            std::fs::read(&out).expect("read artifact")
        })
        .collect()
}

/// Every run's artifact hashes like the one-worker run's.
fn assert_one_hash(runs: &[Vec<u8>]) {
    let first = fnv1a(&runs[0]);
    for (n, run) in THREADS.iter().zip(runs) {
        assert_eq!(fnv1a(run), first, "artifact hash at DPZ_THREADS={n} vs 1");
    }
}

#[test]
fn two_member_sections_are_identical_at_every_thread_count() {
    let (rows, cols) = (256usize, 520usize);
    let mut s = 0x2545_f491_4f6c_dd1du64;
    let values: Vec<u8> = (0..rows * cols)
        .flat_map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s >> 40) as f32 / (1u64 << 24) as f32).to_le_bytes()
        })
        .collect();
    let dir = scratch("noise");
    let field = dir.join("noise.f32");
    std::fs::write(&field, values).expect("write field");
    let runs = artifacts(&dir, &field, &format!("{rows}x{cols}"));
    // Noise keeps every component under a strict TVE: model and index
    // sections of ~260 KiB each, two members apiece.
    let payload = dpz_core::container::deserialize(&runs[0]).expect("decodes");
    assert!(payload.scores.indices.len() >= 2 * 128 * 1024);
    assert!(payload.basis.len() * 4 >= 2 * 128 * 1024);
    assert_one_hash(&runs);
    std::fs::remove_dir_all(&dir).ok();
}

/// Generate the Small-scale `dataset` and compress it at every width.
fn small_strict_runs(dataset: &str, dims: &str) -> (PathBuf, Vec<Vec<u8>>) {
    let dir = scratch(dataset);
    let field = dir.join("field.f32");
    dpz(
        &["gen", dataset, field.to_str().unwrap(), "--scale", "small"],
        None,
    );
    let runs = artifacts(&dir, &field, dims);
    (dir, runs)
}

#[test]
fn hacc_vx_small_strict_is_identical_at_every_thread_count() {
    let (dir, runs) = small_strict_runs("HACC-vx", "65536");
    let payload = dpz_core::container::deserialize(&runs[0]).expect("decodes");
    assert_eq!(payload.scores.indices.len(), 128 * 1024);
    assert_one_hash(&runs);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn freqsh_small_strict_is_identical_at_every_thread_count() {
    let (dir, runs) = small_strict_runs("FREQSH", "180x360");
    assert_one_hash(&runs);
    std::fs::remove_dir_all(&dir).ok();
}
