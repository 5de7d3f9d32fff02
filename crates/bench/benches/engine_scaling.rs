//! How per-superstep engine cost scales with `p` when only a few
//! processors are doing anything — the workloads the active-set execution
//! path (PR 5) exists for. Pinned by the CI regression gate alongside
//! `engine_hotpath` (see `scripts/bench_gate.sh` / `BENCH_engine.json`).
//!
//! Scenarios:
//!
//! * `sparse_1pct/p{1024,32768,1048576}` — a fixed unbalanced workload
//!   (10 senders × 16 messages, ~1% of p at p=1024) run through
//!   `superstep_active` while `p` grows 1024×. The active set and message
//!   count are held constant, so any growth across the sweep is engine
//!   overhead that still scales with `p`; the paper-facing acceptance bar
//!   is < 2× from p=2¹⁰ to p=2²⁰.
//! * `dense_1pct/p{1024,65536}` — the same shape of workload forced down
//!   the dense all-processor path, as the O(p) baseline the README
//!   scaling table contrasts against.
//! * `broadcast_tree/p{1024,65536,262144}` — a complete fan-out-4
//!   broadcast tree (p−1 messages over ⌈log₄ p⌉ supersteps) where each
//!   round's frontier is discovered by the engine itself: only the seed
//!   round declares a sender, relay rounds wake on retained inboxes
//!   alone. The deepest leg pins the wide-frontier regime the bitset
//!   frontier masks exist for.
//! * `density_sweep/p65536/active{1,4,16,64,100}pct` — one dense-entry
//!   superstep whose sender count sweeps the active fraction 1% → 100% in
//!   ×4 steps. Delivery walks only the discovered senders at every
//!   density, so the regression gate pins the whole curve of the dense
//!   closure pass plus sender-list delivery, not one regime.
//! * `sample_sort_exchange/p32` — the steady-state all-to-all bucket
//!   exchange of the sample-sort workload (PR 8): every key re-sent every
//!   superstep through explicit `send_at` slots, pinning the
//!   explicit-slot resolution path the synthetic scenarios never touch.

use criterion::{criterion_group, criterion_main, Criterion};
use pbw_algos::sample_sort::{keyset, KeyDist, SampleSortConfig, SampleSortProgram, Sampling};
use pbw_models::MachineParams;
use pbw_sim::{BspMachine, Outbox};

/// The fixed unbalanced workload: `SENDERS` processors, each sending
/// `FANOUT` messages to destinations scattered over the whole machine.
const SENDERS: usize = 10;
const FANOUT: usize = 16;

fn sparse_body(p: usize) -> impl Fn(usize, &mut u64, &[u64], &mut Outbox<u64>) {
    move |pid, s, inbox, out| {
        *s = s.wrapping_add(inbox.iter().sum::<u64>());
        if pid < SENDERS {
            for k in 0..FANOUT {
                out.send((pid * 97 + k * 31 + 1) % p, (pid + k) as u64);
            }
        }
    }
}

fn bench_sparse_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_scaling");
    group.sample_size(15);
    for &p in &[1usize << 10, 1 << 15, 1 << 20] {
        let mp = MachineParams::from_gap(p, 16, 8);
        let active: Vec<usize> = (0..SENDERS).collect();
        group.bench_function(&format!("sparse_1pct/p{p}"), |b| {
            let mut machine: BspMachine<u64, u64> = BspMachine::new(mp, |_| 0);
            let body = sparse_body(p);
            b.iter(|| machine.superstep_active(&active, &body))
        });
    }
    for &p in &[1usize << 10, 1 << 16] {
        let mp = MachineParams::from_gap(p, 16, 8);
        group.bench_function(&format!("dense_1pct/p{p}"), |b| {
            let mut machine: BspMachine<u64, u64> = BspMachine::new(mp, |_| 0);
            let body = sparse_body(p);
            b.iter(|| machine.superstep(&body))
        });
    }
    for &p in &[1usize << 10, 1 << 16, 1 << 18] {
        let mp = MachineParams::from_gap(p, 16, 8);
        // Relay rounds remaining after the seed: one per tree level whose
        // first node (0, 1, 5, 21, …) still has an in-range child.
        let rounds = {
            let mut first = 0usize;
            let mut levels = 0u32;
            while 4 * first + 1 < p {
                first = 4 * first + 1;
                levels += 1;
            }
            levels.saturating_sub(1)
        };
        group.bench_function(&format!("broadcast_tree/p{p}"), |b| {
            let mut machine: BspMachine<(), u32> = BspMachine::new(mp, |_| ());
            let seed = move |pid: usize, _s: &mut (), _in: &[u32], out: &mut Outbox<u32>| {
                if pid == 0 {
                    for c in 1..=4usize {
                        if c < p {
                            out.send(c, 0);
                        }
                    }
                }
            };
            let relay = move |pid: usize, _s: &mut (), inbox: &[u32], out: &mut Outbox<u32>| {
                if pid != 0 && !inbox.is_empty() {
                    for c in 1..=4usize {
                        let child = 4 * pid + c;
                        if child < p {
                            out.send(child, 0);
                        }
                    }
                }
            };
            b.iter(|| {
                machine.superstep_active(&[0], seed);
                for _ in 0..rounds {
                    machine.superstep_active(&[], relay);
                }
            })
        });
    }
    {
        // The same grid point as `reproduce sorting` (p = 32, n/p = 64,
        // n = 2048 keys moved per iteration), held at the exchange
        // superstep: splitters installed, every send an explicit
        // `send_at`, buffers at their high-water marks.
        let p = 32;
        let per = 64;
        let mp = MachineParams::from_gap(p, 4, 8);
        let cfg = SampleSortConfig {
            ratio: 8,
            sampling: Sampling::Seeded,
            seed: 7,
        };
        let prog = SampleSortProgram::new(p, keyset(KeyDist::Uniform, p * per, 7), cfg);
        group.bench_function(&format!("sample_sort_exchange/p{p}"), |b| {
            let mut machine = prog.machine(mp);
            for _ in 0..prog.exchange_step() {
                prog.apply_next(&mut machine, false);
            }
            b.iter(|| prog.step_exchange(&mut machine))
        });
    }
    group.finish();
}

fn bench_density_sweep(c: &mut Criterion) {
    // One dense-entry superstep per iteration: every closure runs, then
    // delivery walks just the discovered senders. Sweeping the active
    // fraction 1% → 100% in ×4 steps pins the cost from a near-idle
    // machine to an all-to-all one, including the 1/16 point where
    // `superstep_auto` would switch closure passes.
    let mut group = c.benchmark_group("density_sweep");
    group.sample_size(10);
    let p = 1usize << 16;
    let mp = MachineParams::from_gap(p, 16, 8);
    const SWEEP_FANOUT: usize = 4;
    for &pct in &[1usize, 4, 16, 64, 100] {
        let senders = (p * pct / 100).max(1);
        group.bench_function(&format!("p{p}/active{pct}pct"), |b| {
            let mut machine: BspMachine<u64, u64> = BspMachine::new(mp, |_| 0);
            let body = move |pid: usize, s: &mut u64, inbox: &[u64], out: &mut Outbox<u64>| {
                *s = s.wrapping_add(inbox.iter().sum::<u64>());
                if pid < senders {
                    for k in 0..SWEEP_FANOUT {
                        out.send((pid * 97 + k * 31 + 1) % p, (pid + k) as u64);
                    }
                }
            };
            b.iter(|| machine.superstep(body))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sparse_sweep, bench_density_sweep);
criterion_main!(benches);
