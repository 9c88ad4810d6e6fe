//! Long-lived parked worker pool for wave dispatch.
//!
//! The parallel engines historically spawned one scoped thread per
//! worker per wave. A wave over a small injection batch fires a handful
//! of reactions, so thread creation dominated its cost — and a service
//! multiplexing thousands of sessions pays that cost on every wave of
//! every stream. This module keeps a fixed set of workers **parked** on
//! a condvar between waves and leases them to whichever wave runs next.
//!
//! Only waves of two or more workers come here. A one-worker wave runs
//! its body inline on the calling thread (`parallel::run_workers`): with
//! no peer to overlap, a lease would be a pure condvar round trip.
//!
//! # Leasing discipline
//!
//! [`WorkerPool::try_run_scoped`] is all-or-nothing: a wave needing `k`
//! workers either reserves `k` parked workers atomically or is refused
//! and falls back to per-wave scoped spawn. Partial grants are never
//! made, so two concurrent waves can not deadlock each other by each
//! holding half of the other's workers, and a pool worker that itself
//! drives a session (the service's scheduler threads are pool clients
//! too) can always make progress: lease if the pool has room, spawn if
//! it does not.
//!
//! # Safety model
//!
//! Jobs carry a raw pointer to the caller's borrowed closure. That is
//! sound because the lease is **scoped**: `try_run_scoped` blocks until
//! every leased job has finished running, so the closure strictly
//! outlives every use of the pointer — the same lifetime argument as
//! `std::thread::scope`, enforced by the completion latch instead of a
//! join.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One unit of leased work: run `body(index)` then count the latch down.
struct Job {
    /// Lifetime-erased borrow of the leasing caller's closure; only
    /// used before the job's latch releases (see the module safety
    /// model), which is what makes the erasure sound.
    body: &'static (dyn Fn(usize) + Sync),
    index: usize,
    latch: Arc<Latch>,
}

/// Completion latch: `try_run_scoped` parks on it until all `k` leased
/// jobs have run (panicking jobs count down too — the lease must never
/// dangle the borrow).
struct Latch {
    remaining: Mutex<usize>,
    cv: Condvar,
}

impl Latch {
    fn new(k: usize) -> Arc<Latch> {
        Arc::new(Latch {
            remaining: Mutex::new(k),
            cv: Condvar::new(),
        })
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.cv.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().unwrap();
        while *left > 0 {
            left = self.cv.wait(left).unwrap();
        }
    }
}

struct PoolState {
    /// Workers parked (or about to park) and not reserved by any lease.
    free: usize,
    queue: VecDeque<Job>,
    shutdown: bool,
}

struct PoolInner {
    state: Mutex<PoolState>,
    work: Condvar,
}

/// A fixed-size set of parked threads leased wave-by-wave. See the
/// module docs for the leasing discipline and safety model.
pub struct WorkerPool {
    inner: Arc<PoolInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
    size: usize,
    leases: AtomicU64,
    refusals: AtomicU64,
}

impl WorkerPool {
    /// Start a pool of `size` parked workers.
    pub fn new(size: usize) -> Arc<WorkerPool> {
        let size = size.max(1);
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                free: size,
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let handles = (0..size)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("gamma-pool-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning a pool worker")
            })
            .collect();
        Arc::new(WorkerPool {
            inner,
            handles,
            size,
            leases: AtomicU64::new(0),
            refusals: AtomicU64::new(0),
        })
    }

    /// The process-wide pool every session leases from by default.
    /// Oversubscribed ×2 relative to the hardware so concurrent small
    /// waves from independent sessions overlap instead of queueing
    /// (parked workers cost nothing while idle).
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let hw = std::thread::available_parallelism().map_or(4, |n| n.get());
            WorkerPool::new((hw * 2).max(8))
        })
    }

    /// Number of workers owned by the pool.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Leases granted / refused since startup (refused waves fell back
    /// to per-wave spawn).
    pub fn lease_stats(&self) -> (u64, u64) {
        (
            self.leases.load(Ordering::Relaxed),
            self.refusals.load(Ordering::Relaxed),
        )
    }

    /// Run `body(0..k)` on `k` leased workers, blocking until every call
    /// returns. All-or-nothing: returns `false` without running anything
    /// if fewer than `k` workers are parked right now — the caller falls
    /// back to scoped spawn, which keeps nested leases live-locked never
    /// and deadlocked never (see the module docs).
    pub fn try_run_scoped(&self, k: usize, body: &(dyn Fn(usize) + Sync)) -> bool {
        if k == 0 {
            return true;
        }
        let latch = {
            let mut state = self.inner.state.lock().unwrap();
            if state.shutdown || state.free < k {
                drop(state);
                self.refusals.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            state.free -= k;
            let latch = Latch::new(k);
            // SAFETY: `latch.wait()` below blocks this call until every
            // queued job has finished running, so the erased borrow is
            // dropped by every worker before the real lifetime ends —
            // the same guarantee `std::thread::scope` gives its spawns.
            let body: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
            for index in 0..k {
                state.queue.push_back(Job {
                    body,
                    index,
                    latch: Arc::clone(&latch),
                });
            }
            latch
        };
        if k == 1 {
            self.inner.work.notify_one();
        } else {
            self.inner.work.notify_all();
        }
        self.leases.fetch_add(1, Ordering::Relaxed);
        latch.wait();
        true
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().unwrap();
            state.shutdown = true;
        }
        self.inner.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// How a parallel wave acquires its worker threads.
///
/// Lives on the [`crate::session::Session`], not in the serialized
/// engine config: dispatch is a process-local execution concern (an
/// `Arc` into a thread pool), and the same snapshot must restore under
/// either policy with byte-identical results — only wave latency
/// changes.
#[derive(Clone)]
pub enum WaveDispatch {
    /// Lease parked workers from a pool, falling back to per-wave
    /// scoped spawn whenever the pool can not seat the whole wave.
    Parked(Arc<WorkerPool>),
    /// Spawn scoped threads every wave (the historical behaviour; kept
    /// as the measurable baseline — harness step `S10`). Like
    /// [`WaveDispatch::Parked`], it applies to waves of two or more
    /// workers only.
    SpawnPerWave,
}

impl Default for WaveDispatch {
    fn default() -> Self {
        WaveDispatch::Parked(Arc::clone(WorkerPool::global()))
    }
}

impl std::fmt::Debug for WaveDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaveDispatch::Parked(pool) => write!(f, "Parked({} workers)", pool.size()),
            WaveDispatch::SpawnPerWave => write!(f, "SpawnPerWave"),
        }
    }
}

impl WaveDispatch {
    /// Run `body(0..k)` on `k` concurrent workers, however acquired,
    /// returning once every call has finished. Returns `true` when the
    /// wave ran on leased pool workers.
    pub(crate) fn run(&self, k: usize, body: &(dyn Fn(usize) + Sync)) -> bool {
        if let WaveDispatch::Parked(pool) = self {
            if pool.try_run_scoped(k, body) {
                return true;
            }
        }
        std::thread::scope(|scope| {
            for w in 0..k {
                scope.spawn(move || body(w));
            }
        });
        false
    }
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let job = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = inner.work.wait(state).unwrap();
            }
        };
        // Wave bodies catch their own panics (lost-worker accounting);
        // this outer catch only protects the pool's bookkeeping from a
        // panic escaping that layer — the latch and the free count must
        // be restored no matter what. The free count is restored
        // *before* the latch releases so a caller returning from
        // `try_run_scoped` deterministically finds its workers parked
        // again for the next lease.
        let _ = catch_unwind(AssertUnwindSafe(|| (job.body)(job.index)));
        {
            let mut state = inner.state.lock().unwrap();
            state.free += 1;
        }
        job.latch.count_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn leases_run_every_index_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        assert!(pool.try_run_scoped(4, &|w| {
            hits[w].fetch_add(1, Ordering::SeqCst);
        }));
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn oversized_lease_is_refused_whole() {
        let pool = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        assert!(!pool.try_run_scoped(3, &|_| {
            ran.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        let (leases, refusals) = pool.lease_stats();
        assert_eq!((leases, refusals), (0, 1));
        // The refusal reserved nothing: a fitting lease still succeeds.
        assert!(pool.try_run_scoped(2, &|_| {
            ran.fetch_add(1, Ordering::SeqCst);
        }));
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn workers_return_to_the_pool_after_each_lease() {
        let pool = WorkerPool::new(2);
        for _ in 0..50 {
            assert!(pool.try_run_scoped(2, &|_| {}));
        }
        let (leases, _) = pool.lease_stats();
        assert_eq!(leases, 50);
    }

    #[test]
    fn panicking_job_releases_the_lease() {
        let pool = WorkerPool::new(2);
        assert!(pool.try_run_scoped(2, &|w| {
            if w == 0 {
                panic!("boom");
            }
        }));
        // Both workers parked again.
        assert!(pool.try_run_scoped(2, &|_| {}));
    }

    #[test]
    fn concurrent_leases_from_many_threads() {
        let pool = WorkerPool::new(4);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..25 {
                        // 2-worker leases race; refused ones run inline
                        // to keep the count honest.
                        let leased = pool.try_run_scoped(2, &|_| {
                            total.fetch_add(1, Ordering::SeqCst);
                        });
                        if !leased {
                            total.fetch_add(2, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 8 * 25 * 2);
    }

    #[test]
    fn nested_lease_falls_back_instead_of_deadlocking() {
        let pool = WorkerPool::new(2);
        let entry = std::sync::Barrier::new(2);
        let exit = std::sync::Barrier::new(2);
        let inner_ran = AtomicUsize::new(0);
        assert!(pool.try_run_scoped(2, &|_| {
            // Rendezvous on both sides of the attempt: both workers are
            // provably mid-job while either attempts, so the pool is
            // fully leased and the nested attempt must refuse
            // immediately (never block) so the caller can spawn
            // instead.
            entry.wait();
            let leased = pool.try_run_scoped(1, &|_| {});
            assert!(!leased);
            inner_ran.fetch_add(1, Ordering::SeqCst);
            exit.wait();
        }));
        assert_eq!(inner_ran.load(Ordering::SeqCst), 2);
    }
}
