//! Peak live heap of a compression, in units of its stage-1 block matrix.
//!
//! Stage 1 builds one `M×N` matrix of `f64` per buffer, and stages 2–3
//! read it once. No buffer may outlive the stage that reads it last, so a
//! warm `compress` must never hold four such matrices at once, and a
//! chunked write, whose slabs each build a block matrix of their own, must
//! stay under one block matrix of the whole field.
//!
//! A counting global allocator tracks live and peak bytes. This file is its
//! own test binary because `#[global_allocator]` is per binary, and because
//! the thread count must be pinned to one before the pool exists: every
//! worker would hold a slab of its own in flight.

use dpz_core::decompose::choose_shape;
use dpz_core::{compress, compress_chunked, DpzConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method hands its arguments unchanged to `System` and
// returns what `System` returned; the counters only read the sizes.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let out = System.realloc(ptr, layout, new_size);
        if !out.is_null() {
            // Count the new block before the old one is gone, as a moving
            // realloc holds both.
            grow(new_size);
            shrink(layout.size());
        }
        out
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// The counters are process-wide, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const ROWS: usize = 256;
const COLS: usize = 1024;

/// A smooth 256×1024 field: 256 blocks of 1024 values, so one block matrix
/// is 2 MiB.
fn field() -> Vec<f32> {
    (0..ROWS * COLS)
        .map(|i| {
            let r = (i / COLS) as f32;
            let c = (i % COLS) as f32;
            (0.04 * r).sin() * 40.0 + (0.03 * c).cos() * 25.0 + 100.0
        })
        .collect()
}

/// Bytes of one `M×N` block matrix of `f64` for a buffer of `len` values.
fn block_matrix_bytes(len: usize) -> usize {
    let shape = choose_shape(len);
    shape.m * shape.n * std::mem::size_of::<f64>()
}

/// Run `f` once to warm up (pool, per-worker scratch, telemetry series),
/// then again, and return the second run's peak live heap above what was
/// live when it started.
fn warm_peak<T>(mut f: impl FnMut() -> T) -> usize {
    drop(f());
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    drop(f());
    PEAK.load(Ordering::Relaxed) - base
}

fn setup() -> std::sync::MutexGuard<'static, ()> {
    let turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Pin the pool before first use: one thread, one buffer in flight.
    std::env::set_var("DPZ_THREADS", "1");
    turn
}

#[test]
fn warm_compress_holds_fewer_than_four_block_matrices() {
    let _turn = setup();
    let data = field();
    let matrix = block_matrix_bytes(data.len());
    assert_eq!(matrix, 2 << 20);
    let peak = warm_peak(|| compress(&data, &[ROWS, COLS], &DpzConfig::loose()).unwrap());
    let matrices = peak as f64 / matrix as f64;
    eprintln!("warm compress: peak {peak} B = {matrices:.2} block matrices");
    assert!(
        peak < 4 * matrix,
        "a warm compress peaked at {matrices:.2} block matrices ({peak} B)"
    );
}

#[test]
fn chunked_write_stays_under_one_block_matrix() {
    let _turn = setup();
    let data = field();
    let matrix = block_matrix_bytes(data.len());
    let peak =
        warm_peak(|| compress_chunked(&data, &[ROWS, COLS], &DpzConfig::loose(), 8).unwrap());
    let matrices = peak as f64 / matrix as f64;
    eprintln!("compress_chunked(.., 8): peak {peak} B = {matrices:.2} block matrices");
    assert!(
        peak < matrix,
        "an 8-chunk write peaked at {matrices:.2} block matrices of the whole field ({peak} B)"
    );
}
