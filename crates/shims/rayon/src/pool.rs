//! The work-stealing thread pool behind the parallel iterators.
//!
//! A *job* is a contiguous index range `[0, n)` executed by a closure
//! `f(start, end)` over disjoint subranges. The chunking layer in
//! [`crate::iter`] submits one index per planned chunk, so the pool never
//! decides chunk sizes; it only decides which thread runs which indices.
//! Distribution is work-stealing over per-thread deques:
//!
//! * Every worker (and every submitting caller) owns a deque of *spans*
//!   (job + subrange). The owner pushes and pops at the **back** (LIFO, so
//!   it always resumes the range nearest what it just executed), thieves
//!   steal from the **front** (FIFO, so a thief takes the largest,
//!   coldest span — the classic Chase-Lev discipline, here under a mutex
//!   per deque since this shim favors auditability over lock-freedom).
//! * Before executing a span, a thread keeps **splitting it in half** —
//!   pushing the far half onto its own deque and waking one sleeper — as
//!   long as idle workers exist and the span holds at least two indices.
//!   It then runs what is left as one sequential sweep. With no idle
//!   workers, no splits happen.
//! * The submitting caller participates through its own deque: it executes
//!   the root span itself, then drains its deque and steals back its own
//!   job's spans until the job completes. Every span therefore always sits
//!   in some registered deque or is being executed, and a deque's owner
//!   drains it before sleeping — so jobs finish even if every steal misses,
//!   and nested submissions from inside a worker cannot deadlock.
//!
//! Determinism is unaffected by any of this: which thread executes which
//! span never influences *values* — the chunking layer above merges
//! per-chunk results in index order — so `PBW_THREADS=1` and a 64-wide
//! stealing pool produce byte-identical output (pinned by the
//! cross-thread-count conformance suite).
//!
//! ## Sizing
//!
//! The default width is, in priority order: `PBW_THREADS`, then
//! `RAYON_NUM_THREADS`, then `std::thread::available_parallelism()`. A width
//! of 1 short-circuits every parallel entry point to plain sequential
//! execution on the caller. [`ThreadPool::install`] overrides the width for
//! the duration of a closure on the calling thread — this is what the
//! cross-thread-count conformance suite uses to compare `PBW_THREADS ∈
//! {1, 2, 8}` inside one process.
//!
//! ## Safety
//!
//! The one `unsafe` construction in this crate is the lifetime erasure in
//! [`run_range_tasks`]: the borrowed task closure is stored in the
//! heap-allocated job as a raw pointer so workers can reach it. Soundness
//! argument: a thread dereferences the pointer only while executing a span
//! it removed from a deque, and a span's items are counted into the job's
//! completion total only *after* `f` returns on them — so any live span
//! (queued or executing) keeps `done < n`, which keeps the submitting
//! caller blocked inside `run_range_tasks`, which keeps the borrow alive
//! for every dereference. Once `done == n` no span of the job exists
//! anywhere, so no dereference can happen after the caller returns.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Lock a pool mutex, recovering from poisoning: pool state is only counters
/// and queues of `Arc`s, all valid at every instruction boundary, and task
/// panics are already routed through the owning job's panic slot.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A lifetime-erased `&(dyn Fn(usize, usize) + Sync)` (see the module docs
/// for the soundness argument).
struct RangeFn(*const (dyn Fn(usize, usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine) and
// `run_range_tasks` guarantees it outlives every dereference.
unsafe impl Send for RangeFn {}
unsafe impl Sync for RangeFn {}

/// One submitted job: the range `[0, n)`, completion tracked item-by-item
/// in `done`, first panic captured for the caller.
struct Job {
    func: RangeFn,
    n: usize,
    done: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    finished: Mutex<bool>,
    cv: Condvar,
}

impl Job {
    /// Count `k` items finished; the last item flips `finished` and wakes
    /// the submitting caller.
    fn complete(&self, k: usize) {
        if self.done.fetch_add(k, Ordering::AcqRel) + k == self.n {
            *lock(&self.finished) = true;
            self.cv.notify_all();
        }
    }

    fn is_finished(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.n
    }

    fn wait_finished(&self) {
        let mut fin = lock(&self.finished);
        while !*fin {
            fin = self.cv.wait(fin).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A contiguous piece of one job, owned by whichever deque it sits in.
struct Span {
    job: Arc<Job>,
    start: usize,
    end: usize,
}

/// Spans a fresh deque holds before its ring buffer must reallocate.
/// Splitting produces at most ~2x a dispatch's chunk count in live spans,
/// so this covers any realistic job; pre-reserving keeps steady-state
/// dispatches free of timing-dependent growth reallocations (the
/// alloc-budget suite counts allocations per superstep exactly).
const DEQUE_CAPACITY: usize = 256;

/// One thread's work queue. The owner uses the back, thieves the front.
struct Deque {
    q: Mutex<VecDeque<Span>>,
}

impl Deque {
    fn new() -> Self {
        Deque {
            q: Mutex::new(VecDeque::with_capacity(DEQUE_CAPACITY)),
        }
    }

    fn push_back(&self, span: Span) {
        lock(&self.q).push_back(span);
    }

    fn pop_back(&self) -> Option<Span> {
        lock(&self.q).pop_back()
    }

    /// Steal from the cold end. With `want`, take only the front-most span
    /// of that job (a participating caller helps its own job, never gets
    /// entangled in someone else's).
    fn steal_front(&self, want: Option<&Arc<Job>>) -> Option<Span> {
        let mut q = lock(&self.q);
        match want {
            None => q.pop_front(),
            Some(job) => {
                let pos = q.iter().position(|s| Arc::ptr_eq(&s.job, job))?;
                q.remove(pos)
            }
        }
    }
}

/// The process-global worker pool. Workers are spawned lazily, detached, and
/// live for the rest of the process.
struct Pool {
    /// Every registered deque: one per worker, plus one per thread that has
    /// ever submitted a job. Steals scan this list.
    deques: Mutex<Vec<&'static Deque>>,
    /// Workers currently waiting for work — the split policy's signal.
    idle: AtomicUsize,
    /// Wake generation: bumped (under the mutex) whenever a span is pushed,
    /// so a worker that advertised itself idle cannot miss a push that
    /// raced its final steal check.
    wake_gen: Mutex<u64>,
    wake_cv: Condvar,
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        deques: Mutex::new(Vec::new()),
        idle: AtomicUsize::new(0),
        wake_gen: Mutex::new(0),
        wake_cv: Condvar::new(),
        spawned: Mutex::new(0),
    })
}

thread_local! {
    /// This thread's deque: a worker's is set when it starts, a caller's is
    /// created at its first submission. A plain reference, so no access
    /// ever registers a thread-local destructor (which allocates).
    static MY_DEQUE: Cell<Option<&'static Deque>> = const { Cell::new(None) };
}

/// Create a deque and register it for the lifetime of the process.
fn register_deque() -> &'static Deque {
    let d: &'static Deque = Box::leak(Box::new(Deque::new()));
    lock(&pool().deques).push(d);
    d
}

/// This thread's registered deque, creating and registering it on first use.
fn my_deque() -> &'static Deque {
    MY_DEQUE.with(|cell| {
        cell.get().unwrap_or_else(|| {
            let d = register_deque();
            cell.set(Some(d));
            d
        })
    })
}

impl Pool {
    /// Make sure at least `want` workers exist (they are never torn down).
    /// Each worker's deque is created and registered here, on the spawning
    /// thread, so everything a spawn allocates is allocated by the dispatch
    /// that asked for the worker.
    fn ensure_workers(&'static self, want: usize) {
        let mut spawned = lock(&self.spawned);
        while *spawned < want {
            *spawned += 1;
            let name = format!("pbw-rayon-worker-{spawned}");
            let me = register_deque();
            std::thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(me))
                .expect("failed to spawn pool worker");
        }
    }

    /// Announce newly-pushed work: bump the generation and wake one sleeper.
    fn wake_one(&self) {
        *lock(&self.wake_gen) += 1;
        self.wake_cv.notify_one();
    }

    /// Steal one span from any registered deque but `me` — front-most span,
    /// optionally restricted to `want`'s job. Scanning holds the registry
    /// lock; per-deque locks nest inside it (always in that order, so no
    /// cycle). Steals happen at chunk granularity, so neither lock is hot.
    fn steal(&self, me: &Deque, want: Option<&Arc<Job>>) -> Option<Span> {
        let deques = lock(&self.deques);
        for &d in deques.iter() {
            if std::ptr::eq(d, me) {
                continue;
            }
            if let Some(span) = d.steal_front(want) {
                return Some(span);
            }
        }
        None
    }
}

/// Execute one span: offer the far half to idle workers while the range
/// still holds two indices, then run the rest as one sweep.
fn execute(p: &'static Pool, me: &Deque, span: Span) {
    let Span {
        job,
        start,
        mut end,
    } = span;
    // SAFETY: see the module docs — this span's items are not yet counted
    // done, so the submitting caller (owner of the borrow) is still parked.
    let f = unsafe { &*job.func.0 };
    while end - start >= 2 && p.idle.load(Ordering::Relaxed) > 0 {
        let mid = start + (end - start) / 2;
        me.push_back(Span {
            job: Arc::clone(&job),
            start: mid,
            end,
        });
        p.wake_one();
        end = mid;
    }
    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(start, end))) {
        lock(&job.panic).get_or_insert(payload);
    }
    job.complete(end - start);
}

fn worker_loop(me: &'static Deque) {
    MY_DEQUE.with(|cell| cell.set(Some(me)));
    let p = pool();
    loop {
        if let Some(span) = me.pop_back() {
            execute(p, me, span);
            continue;
        }
        if let Some(span) = p.steal(me, None) {
            execute(p, me, span);
            continue;
        }
        // Go idle: record the wake generation, advertise idleness, re-check
        // for work that raced in, then sleep until the generation moves.
        // A push between the generation read and the wait cannot be lost —
        // it bumps the generation under the same mutex the wait watches.
        let gen = *lock(&p.wake_gen);
        p.idle.fetch_add(1, Ordering::SeqCst);
        if let Some(span) = p.steal(me, None) {
            p.idle.fetch_sub(1, Ordering::SeqCst);
            execute(p, me, span);
            continue;
        }
        let mut g = lock(&p.wake_gen);
        while *g == gen {
            g = p.wake_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        drop(g);
        p.idle.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run `f` over disjoint subranges covering `[0, n)` across the pool plus
/// the calling thread, returning when every index has been executed.
/// Panics inside `f` are re-thrown on the caller (first one wins). With an
/// effective width of 1, or `n == 1`, `f(0, n)` runs sequentially on the
/// caller.
pub fn run_range_tasks(n: usize, f: &(dyn Fn(usize, usize) + Sync)) {
    if n == 0 {
        return;
    }
    let threads = current_num_threads();
    if threads <= 1 || n == 1 {
        f(0, n);
        return;
    }
    // SAFETY of the transmute: only erases the pointee's lifetime so it can
    // live in the non-generic `Job`; validity is argued in the module docs
    // (dereferences only happen while this frame is alive).
    let erased: *const (dyn Fn(usize, usize) + Sync + 'static) =
        unsafe { std::mem::transmute(f as *const (dyn Fn(usize, usize) + Sync)) };
    let job = Arc::new(Job {
        func: RangeFn(erased),
        n,
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
        finished: Mutex::new(false),
        cv: Condvar::new(),
    });
    let p = pool();
    p.ensure_workers((threads - 1).min(n));
    let me = my_deque();
    // Execute the root span directly: splits (not an initial broadcast)
    // recruit workers, so a pool with no idle capacity costs nothing extra.
    execute(
        p,
        me,
        Span {
            job: Arc::clone(&job),
            start: 0,
            end: n,
        },
    );
    // Help until done: drain our own deque (which can also hold spans of an
    // outer job when this is a nested submission — executing those is
    // harmless progress), then steal back our own job's spans. Sleeping is
    // safe only once both come up empty: nobody pushes to our deque but us.
    loop {
        if job.is_finished() {
            break;
        }
        if let Some(span) = me.pop_back() {
            execute(p, me, span);
            continue;
        }
        if let Some(span) = p.steal(me, Some(&job)) {
            execute(p, me, span);
            continue;
        }
        job.wait_finished();
        break;
    }
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Run `f(0) .. f(n-1)` across the pool plus the calling thread, returning
/// when all `n` tasks have finished — the index-at-a-time surface `join`
/// and the tests use, layered over [`run_range_tasks`].
pub fn run_tasks(n: usize, f: &(dyn Fn(usize) + Sync)) {
    run_range_tasks(n, &|start, end| {
        for i in start..end {
            f(i);
        }
    });
}

thread_local! {
    /// Per-thread width override installed by [`ThreadPool::install`];
    /// 0 means "no override".
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

fn default_threads() -> usize {
    for var in ["PBW_THREADS", "RAYON_NUM_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The effective parallel width for the calling thread: a
/// [`ThreadPool::install`] override if one is active, otherwise the
/// process-wide default (`PBW_THREADS` / `RAYON_NUM_THREADS` /
/// `available_parallelism`, read once).
pub fn current_num_threads() -> usize {
    let o = OVERRIDE.with(Cell::get);
    if o > 0 {
        return o;
    }
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(default_threads)
}

/// Builder mirroring `rayon::ThreadPoolBuilder` for the subset the
/// workspace uses: `num_threads` + `build`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Building a pool cannot fail in this shim; the type exists so call sites
/// written against upstream (`.build().unwrap()`) compile unchanged.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error (unreachable in the offline shim)")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// A builder with the default width (0 = resolve from the environment).
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `n` threads; 0 keeps the environment-resolved default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build a pool handle.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            width: self.num_threads,
        })
    }
}

/// A width handle over the shared global pool.
///
/// Divergence from upstream, deliberately accepted: upstream pools own their
/// workers and `install` migrates the closure onto one of them; this shim
/// has a single global worker set and `install` only pins the parallel
/// *width* seen by parallel calls made from the closure (which runs on the
/// calling thread). Deterministic results do not depend on the difference.
#[derive(Debug)]
pub struct ThreadPool {
    width: usize,
}

impl ThreadPool {
    /// The width parallel calls under [`ThreadPool::install`] will see.
    pub fn current_num_threads(&self) -> usize {
        if self.width > 0 {
            self.width
        } else {
            current_num_threads()
        }
    }

    /// Run `op` with this pool's width installed for the calling thread
    /// (restored afterwards, panic-safe).
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R,
    {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                OVERRIDE.with(|c| c.set(self.0));
            }
        }
        let prev = OVERRIDE.with(|c| {
            let prev = c.get();
            c.set(self.width);
            prev
        });
        let _restore = Restore(prev);
        op()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn wide(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn all_tasks_run_exactly_once() {
        for width in [1, 2, 8] {
            wide(width).install(|| {
                let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
                run_tasks(100, &|i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                    "width {width}"
                );
            });
        }
    }

    #[test]
    fn range_tasks_cover_range_disjointly() {
        for width in [2, 8] {
            wide(width).install(|| {
                let hits: Vec<AtomicU64> = (0..997).map(|_| AtomicU64::new(0)).collect();
                run_range_tasks(997, &|start, end| {
                    assert!(start < end && end <= 997);
                    for h in &hits[start..end] {
                        h.fetch_add(1, Ordering::SeqCst);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                    "width {width}"
                );
            });
        }
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        for width in [1, 4] {
            let err = std::panic::catch_unwind(|| {
                wide(width).install(|| {
                    run_tasks(16, &|i| {
                        if i == 7 {
                            panic!("boom-{i}");
                        }
                    });
                })
            })
            .unwrap_err();
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("boom-7"), "width {width}: {msg}");
        }
    }

    #[test]
    fn nested_jobs_complete() {
        wide(4).install(|| {
            let total = AtomicU64::new(0);
            run_tasks(4, &|_| {
                run_tasks(4, &|j| {
                    total.fetch_add(j as u64 + 1, Ordering::SeqCst);
                });
            });
            assert_eq!(total.load(Ordering::SeqCst), 4 * (1 + 2 + 3 + 4));
        });
    }

    #[test]
    fn stealing_recruits_other_threads() {
        // Pieces that sleep give sleeping workers time to wake and steal,
        // so more than one thread must end up executing — even on one core
        // (the caller spends its piece blocked in `sleep`, yielding the
        // core). Warm the pool first so workers exist and are idle; retry a
        // few times to absorb scheduler noise.
        use std::collections::HashSet;
        use std::sync::Mutex as StdMutex;
        wide(4).install(|| {
            run_tasks(8, &|_| {
                std::thread::sleep(std::time::Duration::from_millis(1))
            });
            for attempt in 0..3 {
                let seen: StdMutex<HashSet<std::thread::ThreadId>> = StdMutex::new(HashSet::new());
                run_range_tasks(8, &|_, _| {
                    seen.lock().unwrap().insert(std::thread::current().id());
                    std::thread::sleep(std::time::Duration::from_millis(2));
                });
                let n = seen.lock().unwrap().len();
                if n >= 2 {
                    return;
                }
                assert!(
                    attempt < 2,
                    "no steal observed in 3 attempts (got {n} thread)"
                );
            }
        });
    }

    #[test]
    fn install_overrides_and_restores() {
        let outside = current_num_threads();
        wide(7).install(|| assert_eq!(current_num_threads(), 7));
        assert_eq!(current_num_threads(), outside);
        // Panic inside install still restores the width.
        let _ = std::panic::catch_unwind(|| wide(5).install(|| panic!("x")));
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn width_zero_builder_keeps_default() {
        let pool = ThreadPoolBuilder::new().build().unwrap();
        assert_eq!(pool.current_num_threads(), current_num_threads());
    }
}
