//! zlib member counts follow the section length, not the pool width. Each
//! case compresses in its own `dpz` process at `DPZ_THREADS` 1, 2, 3, 4 and
//! 8; the cases are the ones whose sections used to split into one member
//! per worker.
//!
//! A strict white-noise field, whose two sections each span two whole
//! 128 KiB members, must give one artifact hash. HACC-vx Small strict (a
//! 128 KiB index section, one member) must give one packed index section;
//! its PCA basis still differs by rounding between one worker and several
//! (the Gram reduction follows the pool width), so its bytes are not
//! compared whole.

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

/// The packed (still-zlib) bytes of a v2 DPZ1 container's model, index and
/// outlier sections. Each section is its raw length, its packed length,
/// the packed bytes and a CRC-32; they follow the magic, the version, the
/// dimension count, the dimensions and 68 bytes of fixed header fields.
fn packed_sections(bytes: &[u8]) -> Vec<&[u8]> {
    assert_eq!(&bytes[..5], b"DPZ1\x02", "a v2 DPZ1 container");
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let mut at = 6 + 8 * usize::from(bytes[5]) + 68;
    let sections = (0..3)
        .map(|_| {
            let packed = u64_at(at + 8);
            let section = &bytes[at + 16..at + 16 + packed];
            at += 16 + packed + 4;
            section
        })
        .collect();
    assert_eq!(at, bytes.len(), "sections end the container");
    sections
}

/// `key` of every run equals the one-worker run's.
fn assert_same<T: PartialEq + std::fmt::Debug>(
    what: &str,
    runs: &[Vec<u8>],
    key: impl Fn(&[u8]) -> T,
) {
    let first = key(&runs[0]);
    for (n, run) in THREADS.iter().zip(runs) {
        assert_eq!(key(run), first, "{what} at DPZ_THREADS={n} vs 1");
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
    assert_same("artifact hash", &runs, fnv1a);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hacc_vx_small_strict_has_one_index_section_at_every_thread_count() {
    let dir = scratch("hacc");
    let field = dir.join("hacc.f32");
    dpz(
        &[
            "gen",
            "HACC-vx",
            field.to_str().unwrap(),
            "--scale",
            "small",
        ],
        None,
    );
    let runs = artifacts(&dir, &field, "65536");
    let index_section = |bytes: &[u8]| {
        let payload = dpz_core::container::deserialize(bytes).expect("decodes");
        assert_eq!(payload.scores.indices.len(), 128 * 1024);
        fnv1a(packed_sections(bytes)[1])
    };
    assert_same("packed index section hash", &runs, index_section);
    std::fs::remove_dir_all(&dir).ok();
}
