//! Steady-state allocation discipline for the stage-1 transform.
//!
//! The PR-2 acceptance bar: transforming a 256x1024 field does O(1) heap
//! allocations once warm — the per-worker DCT/FFT scratch must absorb the
//! former per-block `vec![Complex; n]`. A counting global allocator makes
//! the bound measurable; this file is its own test binary because
//! `#[global_allocator]` is per-binary and the thread-count pin must happen
//! before the pool exists.

use dpz_core::decompose::{choose_shape, dct_blocks, idct_blocks};
use dpz_linalg::Matrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The counter is process-wide, so the tests take turns: one test's
/// warm-up allocations must not land inside another's measured window.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn transform_blocks_is_alloc_free_after_warmup() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Pin the pool before first use so the bound is host-independent.
    std::env::set_var("DPZ_THREADS", "4");

    // A 256x1024 field: shape m=256 blocks of length n=1024 (radix-2 FFT).
    let shape = choose_shape(256 * 1024);
    assert_eq!((shape.m, shape.n), (256, 1024));
    let data: Vec<f64> = (0..shape.m * shape.n)
        .map(|i| (i as f64 * 0.001).sin())
        .collect();
    let blocks = Matrix::from_vec(shape.n, shape.m, data).unwrap();

    // Warm-up: builds the pool, per-thread scratch, transpose buffers.
    let warm = dct_blocks(&blocks);
    let _ = idct_blocks(&warm);

    // Steady state: the only allocations left are the O(workers) transpose /
    // fan-out bookkeeping — emphatically NOT O(m) per-block scratch vectors.
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = dct_blocks(&blocks);
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        delta <= 64,
        "dct_blocks did {delta} allocations in steady state (expected <= 64; \
         per-block scratch would cost >= {})",
        shape.m
    );

    // And the result still inverts correctly.
    let round = idct_blocks(&out);
    let err = round.max_abs_diff(&blocks);
    assert!(err < 1e-9, "round-trip error {err}");
}

#[test]
fn dct_2d_with_scratch_is_alloc_free_after_warmup() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use dpz_linalg::dct::{dct2_2d_with, dct3_2d_with, Dct2dScratch};

    // Non-power-of-two row length exercises the Bluestein FFT path; the
    // power-of-two column length interleaves the direct radix-2 path through
    // the same cached scratch, so this also proves the twiddle/chirp caches
    // tolerate alternating transform sizes without reallocating.
    let (rows, cols) = (64usize, 96usize);
    let mut buf: Vec<f64> = (0..rows * cols).map(|i| (i as f64 * 0.013).cos()).collect();
    let orig = buf.clone();
    let mut scratch = Dct2dScratch::new();

    // Warm-up builds both 1-D plans and every FFT/DCT buffer.
    dct2_2d_with(&mut buf, rows, cols, &mut scratch);
    dct3_2d_with(&mut buf, rows, cols, &mut scratch);

    let before = ALLOCS.load(Ordering::Relaxed);
    dct2_2d_with(&mut buf, rows, cols, &mut scratch);
    dct3_2d_with(&mut buf, rows, cols, &mut scratch);
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "2-D DCT with warm scratch performed {delta} allocations"
    );

    // Two forward/inverse round trips must still reproduce the input.
    let err = buf
        .iter()
        .zip(&orig)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(err < 1e-9, "2-D round-trip error {err}");
}
