//! Peak live heap of an SZ compression.
//!
//! The prediction pass builds the decoder's reconstruction, 8 bytes per
//! value, and coding never reads it: `compress` must free it before the
//! coder's buffers grow, where `compress_reconstructed`, which returns it,
//! holds it to the end.
//!
//! A counting global allocator tracks live and peak bytes. This file is its
//! own test binary because `#[global_allocator]` is per binary.

use dpz_sz::{compress, compress_reconstructed, Predictor, SzConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// Run `f` once to warm up (telemetry series), then again, and return the
/// second run's peak live heap above what was live when it started.
fn warm_peak<T>(mut f: impl FnMut() -> T) -> usize {
    drop(f());
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    drop(f());
    PEAK.load(Ordering::Relaxed) - base
}

#[test]
fn compress_frees_the_reconstruction_before_coding() {
    let (rows, cols) = (180, 360);
    let data: Vec<f32> = (0..rows * cols)
        .map(|i| {
            let r = (i / cols) as f32;
            let c = (i % cols) as f32;
            (0.04 * r).sin() * 40.0 + (0.03 * c).cos() * 25.0 + 100.0
        })
        .collect();
    let (lo, hi) = data
        .iter()
        .fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let reconstruction = data.len() * std::mem::size_of::<f64>();
    for predictor in [Predictor::Lorenzo, Predictor::Auto] {
        let cfg = SzConfig {
            predictor,
            ..SzConfig::with_error_bound(1e-4 * f64::from(hi - lo))
        };
        let dims = [rows, cols];
        let coded = warm_peak(|| compress(&data, &dims, &cfg));
        let kept = warm_peak(|| compress_reconstructed(&data, &dims, &cfg));
        eprintln!("{predictor:?}: compress peak {coded} B, compress_reconstructed peak {kept} B");
        assert!(
            coded + reconstruction <= kept,
            "{predictor:?}: compress peaked at {coded} B, under {} B less than \
             compress_reconstructed's {kept} B",
            reconstruction
        );
    }
}
