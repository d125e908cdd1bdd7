//! A shared free-list for the pipeline's large `f64` scratch buffers.

use std::sync::Mutex;

/// Largest number of idle buffers a pool retains; beyond this, released
/// buffers are dropped (steady-state pipelines never exceed a handful).
const POOL_MAX_IDLE: usize = 8;

/// A shared free-list of `f64` scratch buffers.
///
/// The stage-1 block matrix is the pipeline's largest transient allocation
/// (`M·N` doubles — the input itself, widened). Re-executing a plan, or
/// compressing many chunks through shared plans, would otherwise allocate
/// and free it once per buffer; the pool recycles those backing stores. It
/// is `Mutex`-protected so rayon workers in the chunked driver can share
/// one pool — contention is negligible because acquire/release happen once
/// per chunk, not per element.
#[derive(Default)]
pub(crate) struct BufferPool {
    free: Mutex<Vec<Vec<f64>>>,
}

/// Cached handles for the pool's global metrics, resolved once.
struct PoolMetrics {
    reuse: std::sync::Arc<dpz_telemetry::Counter>,
    miss: std::sync::Arc<dpz_telemetry::Counter>,
    idle: std::sync::Arc<dpz_telemetry::Gauge>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static METRICS: std::sync::OnceLock<PoolMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = dpz_telemetry::global();
        PoolMetrics {
            reuse: r.counter("dpz_buffer_pool_reuse_total"),
            miss: r.counter("dpz_buffer_pool_miss_total"),
            idle: r.gauge("dpz_buffer_pool_idle"),
        }
    })
}

impl BufferPool {
    /// An empty pool.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Take a buffer of exactly `len` elements (contents unspecified, but
    /// every element is initialized). Reuses the largest-capacity idle
    /// buffer when one exists.
    pub(crate) fn acquire(&self, len: usize) -> Vec<f64> {
        let (reused, idle_left) = {
            let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
            let reused = (0..free.len())
                .max_by_key(|&i| free[i].capacity())
                .map(|i| free.swap_remove(i));
            (reused, free.len())
        };
        let metrics = pool_metrics();
        metrics.idle.set(idle_left as f64);
        match reused {
            Some(mut buf) => {
                metrics.reuse.inc();
                dpz_telemetry::trace::counter(
                    "dpz_buffer_pool_reuse_total",
                    metrics.reuse.get() as f64,
                );
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                metrics.miss.inc();
                dpz_telemetry::trace::counter(
                    "dpz_buffer_pool_miss_total",
                    metrics.miss.get() as f64,
                );
                vec![0.0; len]
            }
        }
    }

    /// Return a buffer to the pool for reuse.
    pub(crate) fn release(&self, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        let idle = {
            let mut free = self.free.lock().unwrap_or_else(|e| e.into_inner());
            if free.len() < POOL_MAX_IDLE {
                free.push(buf);
            }
            free.len()
        };
        pool_metrics().idle.set(idle as f64);
    }

    /// Number of idle buffers currently held.
    #[cfg(test)]
    pub(crate) fn idle(&self) -> usize {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_pool_recycles_backing_stores() {
        let pool = BufferPool::new();
        let a = pool.acquire(1024);
        let ptr = a.as_ptr();
        pool.release(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.acquire(512);
        assert_eq!(b.as_ptr(), ptr, "smaller request reuses the same store");
        assert_eq!(b.len(), 512);
        pool.release(b);
        let c = pool.acquire(4096); // larger: may reallocate, must still work
        assert_eq!(c.len(), 4096);
    }

    #[test]
    fn buffer_pool_bounds_idle_buffers() {
        let pool = BufferPool::new();
        for _ in 0..32 {
            pool.release(vec![0.0; 16]);
        }
        assert!(pool.idle() <= POOL_MAX_IDLE);
    }

    #[test]
    fn buffer_pool_exports_reuse_miss_metrics() {
        let before = dpz_telemetry::global().snapshot();
        let pool = BufferPool::new();
        let a = pool.acquire(64); // miss: empty pool
        pool.release(a);
        let b = pool.acquire(32); // reuse
        drop(b);
        let delta = dpz_telemetry::global().snapshot().since(&before);
        assert!(
            delta
                .counter("dpz_buffer_pool_miss_total", &[])
                .unwrap_or(0)
                >= 1
        );
        assert!(
            delta
                .counter("dpz_buffer_pool_reuse_total", &[])
                .unwrap_or(0)
                >= 1
        );
    }
}
