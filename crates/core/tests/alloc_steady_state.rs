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
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's allocations, for measurements of work that never
    /// leaves the calling thread (other threads' allocations, such as an
    /// idle pool's, cannot land in them). Const-initialized and without a
    /// destructor, so the allocator can read it without allocating.
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
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
fn dct_scratch_is_alloc_free_across_alternating_lengths() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use dpz_linalg::{Dct1d, DctScratch};

    // Length 64 runs the radix-2 FFT and 96 (= 2^5 * 3) the mixed-radix
    // engine; alternating them through one scratch proves its FFT and DCT
    // buffers tolerate switching transform sizes without reallocating.
    let plans = [Dct1d::new(64), Dct1d::new(96)];
    let mut bufs: Vec<Vec<f64>> = plans
        .iter()
        .map(|p| (0..p.len()).map(|i| (i as f64 * 0.013).cos()).collect())
        .collect();
    let orig = bufs.clone();
    let mut scratch = DctScratch::new();
    let round = |bufs: &mut [Vec<f64>], scratch: &mut DctScratch| {
        for (plan, buf) in plans.iter().zip(bufs.iter_mut()) {
            plan.forward_with(buf, scratch);
            plan.inverse_with(buf, scratch);
        }
    };

    // Warm-up grows every FFT/DCT buffer for both lengths.
    round(&mut bufs, &mut scratch);

    // The transforms run on this thread alone, so count only its
    // allocations.
    let before = THREAD_ALLOCS.with(Cell::get);
    round(&mut bufs, &mut scratch);
    round(&mut bufs, &mut scratch);
    let delta = THREAD_ALLOCS.with(Cell::get) - before;
    assert_eq!(
        delta, 0,
        "1-D DCT with warm scratch performed {delta} allocations"
    );

    // Three forward/inverse round trips must still reproduce the input.
    for (buf, orig) in bufs.iter().zip(&orig) {
        let err = buf
            .iter()
            .zip(orig)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(err < 1e-9, "round-trip error {err}");
    }
}
