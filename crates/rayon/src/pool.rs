//! Persistent work-stealing thread pool backing the `par_*` adapters.
//!
//! The pool is created lazily on first use and lives for the rest of the
//! process. Each worker owns a deque (a "chandelier" of per-worker queues):
//! tasks are pushed round-robin, a worker pops its own queue from the front
//! and, when that runs dry, steals from the *back* of a sibling's queue so
//! contiguous work stays with its owner. Implemented std-only — `Mutex`ed
//! `VecDeque`s rather than lock-free Chase–Lev deques — because the tasks the
//! shim schedules are coarse (one per worker strip), so queue-lock cost is
//! noise next to task cost.
//!
//! Sizing: `ThreadPoolBuilder::num_threads` (rayon-compatible) wins, then the
//! `DPZ_THREADS` environment variable, then `available_parallelism`. A
//! one-thread pool spawns no workers at all: every `par_*` call degenerates to
//! deterministic, sequential, in-place execution on the caller's thread.
//!
//! Blocking semantics: a thread that submits a scope of tasks *helps* — while
//! waiting for its scope to finish it pops and runs pool tasks, so nested
//! `par_*` calls from inside a worker cannot deadlock. Panics inside a task
//! are caught, carried to the scope owner and re-thrown there; the worker
//! thread survives and the pool stays usable.
//!
//! The pool publishes `dpz_pool_threads`, `dpz_pool_tasks_total` and
//! `dpz_pool_steals_total` to the global `dpz_telemetry` registry so the
//! fig8/fig9 harnesses can attribute throughput to pool activity.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A unit of work queued on the pool.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle worker sleeps before re-scanning the queues. Producers
/// notify on every push, so this is only a lost-wakeup backstop.
const IDLE_PARK: Duration = Duration::from_millis(50);

/// Counters and size of the global pool, for observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads the pool runs (1 means fully sequential).
    pub threads: usize,
    /// Tasks executed since pool creation.
    pub tasks_executed: u64,
    /// Tasks taken from a sibling worker's queue.
    pub steals: u64,
}

/// State shared between workers, producers and helping waiters.
struct Shared {
    /// One deque per worker; producers push round-robin.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Pushed-but-not-yet-taken task count (sleep heuristic only).
    pending: AtomicUsize,
    /// Paired with `wake`: guards the sleep decision against lost wakeups.
    sleep: Mutex<()>,
    wake: Condvar,
    /// Round-robin cursor for queue selection.
    next: AtomicUsize,
    tasks_total: AtomicU64,
    steals_total: AtomicU64,
}

impl Shared {
    /// Pop a task for worker `id`: own queue first (front), then steal from
    /// siblings (back).
    fn take(&self, id: usize) -> Option<Task> {
        if let Some(t) = self.queues[id].lock().expect("queue lock").pop_front() {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            return Some(t);
        }
        let k = self.queues.len();
        for off in 1..k {
            let q = (id + off) % k;
            if let Some(t) = self.queues[q].lock().expect("queue lock").pop_back() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                self.steals_total.fetch_add(1, Ordering::Relaxed);
                telemetry().steals.inc();
                dpz_telemetry::trace::instant_with("pool.steal", &[("victim", q as f64)]);
                return Some(t);
            }
        }
        None
    }

    /// Pop any available task (used by helping waiters, which have no home
    /// queue). Front pops so helpers drain in submission order.
    fn take_any(&self) -> Option<Task> {
        for q in &self.queues {
            if let Some(t) = q.lock().expect("queue lock").pop_front() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                return Some(t);
            }
        }
        None
    }

    fn run(&self, task: Task) {
        self.tasks_total.fetch_add(1, Ordering::Relaxed);
        telemetry().tasks.inc();
        if dpz_telemetry::trace::journal_enabled() {
            let t0 = std::time::Instant::now();
            task();
            dpz_telemetry::trace::complete("pool.task", t0, &[]);
        } else {
            task();
        }
    }
}

/// Telemetry handles, resolved once so the hot path only bumps atomics.
struct PoolTelemetry {
    tasks: Arc<dpz_telemetry::Counter>,
    steals: Arc<dpz_telemetry::Counter>,
}

fn telemetry() -> &'static PoolTelemetry {
    static T: OnceLock<PoolTelemetry> = OnceLock::new();
    T.get_or_init(|| {
        let reg = dpz_telemetry::global();
        PoolTelemetry {
            tasks: reg.counter("dpz_pool_tasks_total"),
            steals: reg.counter("dpz_pool_steals_total"),
        }
    })
}

/// The persistent pool. One global instance; tests may build private ones.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
}

impl ThreadPool {
    /// Build a pool with `threads` workers. `threads <= 1` spawns no OS
    /// threads: all work runs inline on the submitting thread.
    pub(crate) fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            next: AtomicUsize::new(0),
            tasks_total: AtomicU64::new(0),
            steals_total: AtomicU64::new(0),
        });
        if threads > 1 {
            for id in 0..threads {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dpz-rayon-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("spawn pool worker");
            }
        }
        ThreadPool { shared, threads }
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execution counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads,
            tasks_executed: self.shared.tasks_total.load(Ordering::Relaxed),
            steals: self.shared.steals_total.load(Ordering::Relaxed),
        }
    }

    /// Queue a ready task and wake a sleeper.
    fn push(&self, task: Task) {
        let k = self.shared.queues.len();
        let q = self.shared.next.fetch_add(1, Ordering::Relaxed) % k;
        self.shared.queues[q]
            .lock()
            .expect("queue lock")
            .push_back(task);
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        // Take the sleep lock so a worker between its "pending == 0" check
        // and its wait cannot miss this notification.
        let _g = self.shared.sleep.lock().expect("sleep lock");
        self.shared.wake.notify_all();
    }

    /// Run `tasks`, which may borrow from the caller's stack, to completion.
    /// The caller blocks — helping execute queued work in the meantime — so
    /// every borrow outlives every task. Panics from tasks are re-thrown
    /// here once all tasks have settled.
    pub(crate) fn scope<'scope>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>) {
        if tasks.is_empty() {
            return;
        }
        if self.threads <= 1 {
            // Sequential pool: run in submission order on this thread.
            for t in tasks {
                t();
            }
            return;
        }
        let latch = Arc::new(Latch::new(tasks.len()));
        for t in tasks {
            // SAFETY: `scope` does not return until `latch` reports every
            // task finished (wait below), so the `'scope` borrows captured
            // by `t` are live for the task's whole execution.
            let t: Task =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Task>(t) };
            let latch = Arc::clone(&latch);
            self.push(Box::new(move || {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(t)) {
                    latch.record_panic(payload);
                }
                latch.complete_one();
            }));
        }
        // Help: run pool tasks (ours or anyone's) while the scope drains.
        while !latch.is_done() {
            match self.shared.take_any() {
                Some(task) => self.shared.run(task),
                None => latch.wait_brief(),
            }
        }
        if let Some(payload) = latch.take_panic() {
            resume_unwind(payload);
        }
    }
}

fn worker_loop(shared: &Shared, id: usize) {
    loop {
        match shared.take(id) {
            Some(task) => shared.run(task),
            None => {
                let idle_from =
                    dpz_telemetry::trace::journal_enabled().then(std::time::Instant::now);
                let guard = shared.sleep.lock().expect("sleep lock");
                if shared.pending.load(Ordering::Acquire) == 0 {
                    let _ = shared
                        .wake
                        .wait_timeout(guard, IDLE_PARK)
                        .expect("sleep wait");
                    // Idle windows render as their own spans in the worker's
                    // timeline lane, so utilization gaps are visible.
                    if let Some(t0) = idle_from {
                        dpz_telemetry::trace::complete("pool.idle", t0, &[]);
                    }
                }
            }
        }
    }
}

/// Completion latch for one scope: counts tasks down and carries the first
/// panic payload back to the scope owner.
struct Latch {
    remaining: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: AtomicUsize::new(count),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().expect("panic lock");
        // First panic wins, like rayon.
        slot.get_or_insert(payload);
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().expect("panic lock").take()
    }

    fn complete_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = self.done.lock().expect("done lock");
            *done = true;
            self.cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Sleep until completion or a short timeout (helper re-scans queues
    /// afterwards, so the timeout only bounds idle latency).
    fn wait_brief(&self) {
        let done = self.done.lock().expect("done lock");
        if !*done {
            let _ = self
                .cv
                .wait_timeout(done, Duration::from_millis(1))
                .expect("latch wait");
        }
    }
}

/// `num_threads` override installed by [`ThreadPoolBuilder::build_global`]
/// before the pool exists.
static REQUESTED: Mutex<Option<usize>> = Mutex::new(None);
static POOL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool, created on first use.
pub(crate) fn global_pool() -> &'static ThreadPool {
    POOL.get_or_init(|| {
        let threads = resolve_threads();
        let pool = ThreadPool::new(threads);
        dpz_telemetry::global()
            .gauge("dpz_pool_threads")
            .set(threads as f64);
        pool
    })
}

/// Worker-count policy: builder override, then `DPZ_THREADS`, then hardware.
fn resolve_threads() -> usize {
    if let Some(n) = *REQUESTED.lock().expect("requested lock") {
        return n.max(1);
    }
    if let Some(n) = env_threads(std::env::var("DPZ_THREADS").ok().as_deref()) {
        return n;
    }
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Only this crate's own unit tests keep the historical >= 2 floor, so
    // concurrency is still exercised on single-core CI machines; everyone
    // else gets the true hardware width.
    #[cfg(test)]
    {
        hw.max(2)
    }
    #[cfg(not(test))]
    {
        hw
    }
}

/// Parse a `DPZ_THREADS` value: positive integers only.
pub(crate) fn env_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// Number of workers in the global pool (its true size — a one-core machine
/// without overrides reports 1, not the former floor of 2).
pub fn current_num_threads() -> usize {
    global_pool().threads()
}

/// Counters of the global pool.
pub fn pool_stats() -> PoolStats {
    global_pool().stats()
}

/// Error from [`ThreadPoolBuilder::build_global`]: the pool was already
/// running with a different size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadPoolBuildError {
    current: usize,
    requested: usize,
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "global thread pool already initialized with {} threads (requested {})",
            self.current, self.requested
        )
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// rayon-compatible global pool configuration.
///
/// ```
/// rayon::ThreadPoolBuilder::new().num_threads(2).build_global().ok();
/// ```
#[derive(Debug, Default, Clone)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    /// Fresh builder with every knob at its default.
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Request an exact worker count (0 keeps the automatic policy).
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Install this configuration as the global pool. Succeeds if the pool
    /// is not built yet, or is already running at the requested size;
    /// errors otherwise (the pool cannot be resized once threads exist).
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        if let Some(n) = self.num_threads {
            if let Some(pool) = POOL.get() {
                if pool.threads() != n {
                    return Err(ThreadPoolBuildError {
                        current: pool.threads(),
                        requested: n,
                    });
                }
                return Ok(());
            }
            *REQUESTED.lock().expect("requested lock") = Some(n);
        }
        let _ = global_pool();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn env_threads_parses_strictly() {
        assert_eq!(env_threads(Some("4")), Some(4));
        assert_eq!(env_threads(Some(" 8 ")), Some(8));
        assert_eq!(env_threads(Some("0")), None);
        assert_eq!(env_threads(Some("-2")), None);
        assert_eq!(env_threads(Some("lots")), None);
        assert_eq!(env_threads(None), None);
    }

    #[test]
    fn single_thread_pool_runs_inline_in_order() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let seen = Mutex::new(Vec::new());
        let caller = std::thread::current().id();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..8)
            .map(|i| {
                let seen = &seen;
                Box::new(move || {
                    assert_eq!(std::thread::current().id(), caller);
                    seen.lock().unwrap().push(i);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope(tasks);
        assert_eq!(*seen.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn pool_executes_every_task_and_counts() {
        let pool = ThreadPool::new(3);
        let hits = AtomicUsize::new(0);
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..64)
            .map(|_| {
                let hits = &hits;
                Box::new(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope(tasks);
        assert_eq!(hits.load(Ordering::Relaxed), 64);
        let stats = pool.stats();
        assert_eq!(stats.threads, 3);
        assert!(stats.tasks_executed >= 64);
    }

    #[test]
    fn builder_zero_keeps_automatic_policy() {
        let b = ThreadPoolBuilder::new().num_threads(0);
        assert_eq!(b.num_threads, None);
    }
}
