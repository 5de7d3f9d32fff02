//! Parallel speedup of the real thread pool behind the `rayon` shim:
//! the same workload pinned to 1-, 4-, and 8-thread pools via
//! `ThreadPool::install`. Two workloads:
//!
//! * `ring_superstep/p1024` — the raw BSP engine hot path (per-processor
//!   compute + injection metering) on a 1024-processor ring.
//! * `faults_sweep/quick` — the full `faults` experiment, whose φ-sweep
//!   and erosion sweep fan sweep points out through `par_iter`.
//!
//! Medians are recorded in `BENCH_parallel.json` at the repo root together
//! with the host's core count — speedup is bounded by physical cores, so a
//! 1-core CI box legitimately reports ≈1×. The core-aware gate in
//! `scripts/bench_gate.sh --parallel` asserts a ≥2× floor at 4 threads on
//! hosts with nproc ≥ 4 and degrades to an overhead ceiling (threads=8 at
//! most 1.25× threads=1) on narrower containers, where the static chunk
//! plan keeps wide pools cheap: the BSP closure pass cuts the ring's 16
//! blocks into at most 4 chunks of at least 4 blocks each, and a job too
//! short for two chunks runs inline.

use criterion::{criterion_group, criterion_main, Criterion};
use pbw_models::MachineParams;
use pbw_sim::BspMachine;
use rayon::{ThreadPool, ThreadPoolBuilder};

fn pool(width: usize) -> ThreadPool {
    ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("shim pool is infallible")
}

fn bench_ring_superstep(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_speedup/ring_superstep_p1024");
    group.sample_size(20);
    let p = 1024usize;
    let mp = MachineParams::from_gap(p, 16, 8);
    for width in [1usize, 4, 8] {
        let pool = pool(width);
        group.bench_function(&format!("threads_{width}"), |b| {
            let mut machine: BspMachine<u64, u64> = BspMachine::new(mp, |_| 0);
            b.iter(|| {
                pool.install(|| {
                    machine.superstep(|pid, s, inbox, out| {
                        *s = s.wrapping_add(inbox.iter().sum::<u64>());
                        // Some per-processor arithmetic so compute, not
                        // barrier bookkeeping, dominates the superstep.
                        let mut acc = *s ^ pid as u64;
                        for k in 0..256u64 {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                        }
                        out.send((pid + 1) % mp.p, acc);
                    })
                })
            })
        });
    }
    group.finish();
}

fn bench_faults_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_speedup/faults_sweep_quick");
    group.sample_size(10);
    for width in [1usize, 4, 8] {
        let pool = pool(width);
        group.bench_function(&format!("threads_{width}"), |b| {
            b.iter(|| pool.install(|| pbw_bench::experiments::faults::faults_seeded(true, 7)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ring_superstep, bench_faults_sweep);
criterion_main!(benches);
