//! Offline stand-in for `rayon` — with a real thread pool.
//!
//! The build environment has no registry access, so upstream rayon cannot be
//! fetched. Unlike the earlier sequential stand-in, this shim actually runs
//! parallel chains on a pool of `std::thread` workers ([`mod@pool`]): work is
//! split into contiguous index chunks sized by a calibrated autotuner
//! ([`mod@tune`]), distributed by work-stealing over per-thread deques
//! (owner LIFO, thieves FIFO, splitting while idle workers exist), and chunk
//! results are merged back **in index order** ([`mod@iter`]).
//!
//! Contract kept from upstream: `par_iter` / `par_iter_mut` /
//! `par_chunks_mut` / `into_par_iter` with `map` / `zip` / `enumerate` /
//! `collect` (including `collect::<Result<_, _>>()`), `join`,
//! `current_num_threads`, `ThreadPoolBuilder` → [`ThreadPool::install`],
//! and the work-stealing deque scheduler with split-until-floor chunking.
//! Results are element-for-element identical to sequential execution at
//! every thread count — the deterministic ordered merge is the
//! load-bearing guarantee the workspace's cross-thread-count conformance
//! suite checks.
//!
//! Contract NOT kept: scoped pools that own their workers (here `install`
//! only pins the parallel *width* for the calling thread; workers come from
//! one global pool), and parallel `sum`/`reduce` (deliberately omitted —
//! floating-point tree reductions would re-associate with the chunk count
//! and break cross-thread-count bit-equality; collect in order, reduce
//! sequentially).
//!
//! Sizing: `PBW_THREADS` overrides `RAYON_NUM_THREADS` overrides
//! `std::thread::available_parallelism()`; a width of 1 short-circuits to
//! sequential execution on the caller.

pub mod iter;
pub mod pool;
pub mod tune;

pub use pool::{current_num_threads, ThreadPool, ThreadPoolBuilder};

use std::sync::Mutex;

/// Everything a `use rayon::prelude::*;` site expects.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelIterator, ParallelSliceExt,
    };
}

/// Run `a` and `b` potentially in parallel, returning both results. The
/// caller always executes at least one closure itself, so `join` never
/// deadlocks under nesting; panics propagate to the caller.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let funcs = (Mutex::new(Some(a)), Mutex::new(Some(b)));
    let out = (Mutex::new(None), Mutex::new(None));
    pool::run_tasks(2, &|i| {
        if i == 0 {
            let f = pool::lock(&funcs.0).take().expect("join task 0 ran twice");
            *pool::lock(&out.0) = Some(f());
        } else {
            let f = pool::lock(&funcs.1).take().expect("join task 1 ran twice");
            *pool::lock(&out.1) = Some(f());
        }
    });
    let ra = out.0.into_inner().unwrap_or_else(|e| e.into_inner());
    let rb = out.1.into_inner().unwrap_or_else(|e| e.into_inner());
    (
        ra.expect("join task 0 did not finish"),
        rb.expect("join task 1 did not finish"),
    )
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn par_iter_chains_like_rayon_call_sites() {
        let xs = vec![1u64, 2, 3];
        let mut ys = vec![10u64, 20, 30];
        let out: Vec<u64> = ys
            .par_iter_mut()
            .zip(xs.par_iter())
            .enumerate()
            .map(|(i, (y, x))| {
                *y += x;
                *y + i as u64
            })
            .collect();
        assert_eq!(out, vec![11, 23, 35]);
        assert_eq!(ys, vec![11, 22, 33]);
    }

    #[test]
    fn fallible_collect_works() {
        let xs = vec![1i32, 2, 3];
        let ok: Result<Vec<i32>, ()> = xs.par_iter().map(|&x| Ok(x * 2)).collect();
        assert_eq!(ok.unwrap(), vec![2, 4, 6]);
        let err: Result<Vec<i32>, i32> = xs
            .par_iter()
            .map(|&x| if x == 2 { Err(x) } else { Ok(x) })
            .collect();
        assert_eq!(err.unwrap_err(), 2);
    }

    #[test]
    fn range_into_par_iter() {
        let v: Vec<usize> = (0..5usize).into_par_iter().map(|i| i * i).collect();
        assert_eq!(v, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = super::join(|| 1 + 1, || "x");
        assert_eq!((a, b), (2, "x"));
    }

    #[test]
    fn join_runs_both_at_width_8() {
        super::ThreadPoolBuilder::new()
            .num_threads(8)
            .build()
            .unwrap()
            .install(|| {
                let (a, b) =
                    super::join(|| (0..100u64).sum::<u64>(), || (0..10u64).product::<u64>());
                assert_eq!((a, b), (4950, 0));
            });
    }
}
