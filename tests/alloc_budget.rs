//! Allocation budget for the superstep hot path.
//!
//! The delivery paths of [`pbw_sim::BspMachine`], [`pbw_sim::QsmMachine`]
//! and [`pbw_pram::Pram`] are designed to be allocation-free at steady
//! state: message arenas, outboxes, contexts, slot tables and audit scratch
//! are all recycled, so once every recycled buffer has grown to its working
//! size, a superstep performs a *constant* number of heap allocations no
//! matter how many messages it moves.
//!
//! This suite proves that contract with a counting [`GlobalAlloc`] wrapper:
//! for each engine it measures allocations per superstep at a small and at a
//! 16× larger message volume (after a warmup that lets the recycled buffers
//! reach their high-water marks) and asserts the two counts are *equal* —
//! O(1) in volume — and under a small absolute budget. The remaining
//! constant is the per-superstep profile snapshot (one `SuperstepProfile`
//! clone) plus the thread-pool dispatch (O(threads), volume-independent),
//! which the second test bounds at a parallel pool width too.
//!
//! Width-1 measurements run inline on the measuring thread, so they read
//! that thread's own count, which allocations by other test threads cannot
//! reach. The width-8 measurement spreads over pool workers and reads the
//! process-wide count, so the tests still take one lock to keep their
//! measured sections apart.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use parallel_bandwidth::algos::sample_sort::{
    keyset, KeyDist, SampleSortConfig, SampleSortProgram, Sampling,
};
use parallel_bandwidth::faults::FaultScript;
use parallel_bandwidth::models::MachineParams;
use parallel_bandwidth::pram::{AccessMode, Pram};
use parallel_bandwidth::sched::workload::{Msg, Workload};
use parallel_bandwidth::sched::{EagerSend, RecoveryConfig, RecoveryPhase, RecoverySession};
use parallel_bandwidth::sim::{BspMachine, Fate, QsmMachine};
use parallel_bandwidth::trace::NullSink;

/// Counts every allocation and reallocation routed through the global
/// allocator, process-wide and per thread, with the bytes each one asked
/// for (a reallocation counts its new size; deallocations are free and
/// irrelevant to the budget).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // A const-initialized `Cell` needs no lazy init or destructor, so this
    // never allocates; `try_with` only fails during thread teardown.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations so far: this thread's own at pool width 1, where every
/// parallel pass runs inline on the caller, and the process-wide count at
/// wider widths, where pool workers allocate too.
fn allocs() -> u64 {
    if rayon::current_num_threads() == 1 {
        THREAD_ALLOCS.with(Cell::get)
    } else {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// Bytes this thread has asked the allocator for so far (width 1 only).
fn thread_bytes() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

const P: usize = 64;
const WARMUP: u64 = 8;
const MEASURED: u64 = 16;

/// Allocations per steady-state BSP superstep at the given per-processor
/// fanout (messages per processor per superstep).
fn bsp_allocs_per_superstep(fanout: usize) -> u64 {
    let mp = MachineParams::from_gap(P, 2, 4);
    let mut bsp: BspMachine<u64, u64> = BspMachine::new(mp, |pid| pid as u64);
    let round = |bsp: &mut BspMachine<u64, u64>| {
        bsp.superstep(|pid, state, inbox, out| {
            *state = state.wrapping_add(inbox.iter().sum::<u64>());
            for k in 0..fanout {
                out.send((pid + k + 1) % P, (pid * fanout + k) as u64);
            }
        });
    };
    for _ in 0..WARMUP {
        round(&mut bsp);
    }
    let before = allocs();
    for _ in 0..MEASURED {
        round(&mut bsp);
    }
    (allocs() - before) / MEASURED
}

/// Allocations per steady-state QSM phase at the given per-processor
/// read+write request count.
fn qsm_allocs_per_phase(reqs: usize) -> u64 {
    let mp = MachineParams::from_gap(P, 2, 4);
    // Reads target the upper half of shared memory, writes the lower half,
    // so no location is ever both read and written in one phase.
    let mut qsm: QsmMachine<u64> = QsmMachine::new(mp, 2 * P, |pid| pid as u64);
    let round = |qsm: &mut QsmMachine<u64>| {
        qsm.phase(|pid, state, results, ctx| {
            *state = state.wrapping_add(results.len() as u64);
            for k in 0..reqs {
                ctx.read(P + (pid + k) % P);
                ctx.write(pid, k as i64);
            }
        });
    };
    for _ in 0..WARMUP {
        round(&mut qsm);
    }
    let before = allocs();
    for _ in 0..MEASURED {
        round(&mut qsm);
    }
    (allocs() - before) / MEASURED
}

/// Allocations per steady-state QSM phase whose requests all name their
/// injection slots (`read_at`/`write_at`), at the given per-processor
/// read+write request count.
fn qsm_explicit_slot_allocs_per_phase(reqs: usize) -> u64 {
    let mp = MachineParams::from_gap(P, 2, 4);
    let mut qsm: QsmMachine<u64> = QsmMachine::new(mp, 2 * P, |pid| pid as u64);
    let round = |qsm: &mut QsmMachine<u64>| {
        qsm.phase(|pid, state, results, ctx| {
            *state = state.wrapping_add(results.len() as u64);
            // Descending pinned slots, so resolution has to sort them.
            for k in 0..reqs {
                let slot = 2 * (reqs - k) as u64;
                ctx.read_at(P + (pid + k) % P, slot);
                ctx.write_at(pid, k as i64, slot + 1);
            }
        });
    };
    for _ in 0..WARMUP {
        round(&mut qsm);
    }
    let before = allocs();
    for _ in 0..MEASURED {
        round(&mut qsm);
    }
    (allocs() - before) / MEASURED
}

/// Allocations per steady-state PRAM step of `p` processors at the given
/// per-processor operation count.
fn pram_allocs_per_step(p: usize, ops: usize) -> u64 {
    let mut pram = Pram::new(AccessMode::Erew, p);
    let round = |pram: &mut Pram| {
        pram.step(p, |pid, ctx| {
            // Re-reading one's own cell is legal under EREW and scales the
            // access volume without changing the access pattern.
            let mut v = 0;
            for _ in 0..ops {
                v = ctx.read(pid);
            }
            ctx.write(pid, v + 1);
        });
    };
    for _ in 0..WARMUP {
        round(&mut pram);
    }
    let before = allocs();
    for _ in 0..MEASURED {
        round(&mut pram);
    }
    (allocs() - before) / MEASURED
}

/// Allocations per steady-state superstep on a machine that is being
/// checkpointed and rolled back: snapshot capture itself allocates (it
/// clones states, inboxes and the pending queue — that cost is priced by
/// the recovery driver as an h-relation, not hidden), but the supersteps
/// *between* snapshots and the supersteps replayed *after* a restore must
/// stay on the allocation-free hot path. Returns the per-superstep counts
/// (between snapshots, after restore).
fn checkpointed_bsp_allocs_per_superstep(fanout: usize) -> (u64, u64) {
    let mp = MachineParams::from_gap(P, 2, 4);
    let mut bsp: BspMachine<u64, u64> = BspMachine::new(mp, |pid| pid as u64);
    let round = |bsp: &mut BspMachine<u64, u64>| {
        bsp.superstep(|pid, state, inbox, out| {
            *state = state.wrapping_add(inbox.iter().sum::<u64>());
            for k in 0..fanout {
                out.send((pid + k + 1) % P, (pid * fanout + k) as u64);
            }
        });
    };
    for _ in 0..WARMUP {
        round(&mut bsp);
    }
    let ckpt = bsp.checkpoint();
    let before = allocs();
    for _ in 0..MEASURED {
        round(&mut bsp);
    }
    let between = (allocs() - before) / MEASURED;
    bsp.restore(&ckpt);
    let before = allocs();
    for _ in 0..MEASURED {
        round(&mut bsp);
    }
    let replayed = (allocs() - before) / MEASURED;
    (between, replayed)
}

/// Allocations per steady-state *active-set* superstep with a fixed
/// 64-sender workload on a `p`-processor machine: the sparse path's
/// per-superstep cost must not depend on `p` at all, so the count at
/// p = 1k and p = 64k must come out equal.
fn sparse_bsp_allocs_per_superstep(p: usize) -> u64 {
    let mp = MachineParams::from_gap(p, 2, 4);
    let mut bsp: BspMachine<u64, u64> = BspMachine::new(mp, |pid| pid as u64);
    let active: Vec<usize> = (0..64).map(|i| i * (p / 64)).collect();
    let stride = p / 64;
    let round = |bsp: &mut BspMachine<u64, u64>| {
        bsp.superstep_active(&active, |pid, state, inbox, out| {
            *state = state.wrapping_add(inbox.iter().sum::<u64>());
            // Only the declared senders forward; their receivers (woken
            // automatically next superstep to consume their inboxes) stay
            // silent, keeping the frontier at a fixed 64 + 256 processors.
            if pid % stride == 0 {
                for k in 0..4usize {
                    out.send((pid + k + 1) % p, (pid + k) as u64);
                }
            }
        });
    };
    for _ in 0..WARMUP {
        round(&mut bsp);
    }
    let before = allocs();
    for _ in 0..MEASURED {
        round(&mut bsp);
    }
    (allocs() - before) / MEASURED
}

/// Allocations per steady-state *mask-discovered* superstep (PR 10): after
/// one seeding superstep the declared active set stays empty, so every
/// subsequent frontier is discovered purely by iterating the inbox
/// [`pbw_models::FrontierMask`]. The workload is a 64-member ring inside a
/// `p`-processor machine (each member messages the next, so the frontier
/// self-sustains without redeclaration). Returns allocations per superstep
/// once every recycled buffer has reached its high-water mark.
fn masked_bsp_allocs_per_superstep(p: usize, fanout: usize) -> u64 {
    let mp = MachineParams::from_gap(p, 2, 4);
    let mut bsp: BspMachine<u64, u64> = BspMachine::new(mp, |pid| pid as u64);
    let stride = p / 64;
    let members: Vec<usize> = (0..64).map(|i| i * stride).collect();
    let round = |bsp: &mut BspMachine<u64, u64>, active: &[usize]| {
        bsp.superstep_active(active, |pid, state, inbox, out| {
            *state = state.wrapping_add(inbox.iter().sum::<u64>());
            if pid % stride == 0 {
                let i = pid / stride;
                for k in 0..fanout {
                    out.send(((i + k + 1) % 64) * stride, (pid + k) as u64);
                }
            }
        });
    };
    // Seed the mask once, then let it carry the frontier unaided.
    round(&mut bsp, &members);
    for _ in 0..WARMUP {
        round(&mut bsp, &[]);
    }
    let before = allocs();
    for _ in 0..MEASURED {
        round(&mut bsp, &[]);
    }
    (allocs() - before) / MEASURED
}

/// Allocations per steady-state sample-sort *exchange* superstep at the
/// given per-processor block size. The program is driven through its real
/// prefix (local sort, sample gather, splitter selection and broadcast) so
/// the exchange runs with splitters installed, then the exchange body is
/// re-issued as a standing workload: splitter storage short-circuits before
/// touching the heap, the bucket partition walks the resident key vector,
/// and every send lands in a recycled arena — so the count must not move
/// between a 1× and a 16× block.
fn sample_sort_exchange_allocs_per_superstep(per: usize) -> u64 {
    let p = 8;
    let mp = MachineParams::from_gap(p, 2, 4);
    let cfg = SampleSortConfig {
        ratio: 4,
        sampling: Sampling::Seeded,
        seed: 7,
    };
    let prog = SampleSortProgram::new(p, keyset(KeyDist::Uniform, p * per, 7), cfg);
    let mut machine = prog.machine(mp);
    for _ in 0..prog.exchange_step() {
        prog.apply_next(&mut machine, false);
    }
    for _ in 0..WARMUP {
        prog.step_exchange(&mut machine);
    }
    let before = allocs();
    for _ in 0..MEASURED {
        prog.step_exchange(&mut machine);
    }
    (allocs() - before) / MEASURED
}

/// Allocations of the first ack superstep of a [`RecoverySession`] on a
/// fixed 8-sender workload inside a `p`-processor machine. One scripted
/// drop in the send superstep leaves a flit outstanding, so the protocol's
/// next step is round 1's ack. The ack relation, the ack superstep and the
/// delivery scan must all cost O(messages) in allocations: the count must
/// not depend on `p`.
fn recovery_ack_allocs(p: usize) -> u64 {
    let sends: Vec<Vec<Msg>> = (0..p)
        .map(|src| match src {
            0..=7 => vec![
                Msg {
                    dest: 8 + src,
                    len: 2,
                },
                Msg {
                    dest: 16 + src,
                    len: 1,
                },
            ],
            _ => Vec::new(),
        })
        .collect();
    let wl = Workload::new(sends);
    let hook = FaultScript::new().with_fate(0, 0, 0, Fate::Drop);
    let cfg = RecoveryConfig::default();
    let mut session = RecoverySession::new(
        std::sync::Arc::new(NullSink),
        &wl,
        &EagerSend,
        MachineParams::from_gap(p, 2, 4),
        7,
        Some(std::sync::Arc::new(hook)),
        &cfg,
    );
    assert_eq!(session.step(), RecoveryPhase::Send);
    let before = allocs();
    let phase = session.step();
    let count = allocs() - before;
    assert_eq!(phase, RecoveryPhase::Ack(1));
    count
}

/// Per-superstep allocation count must not grow with message volume, and
/// must stay under a small absolute budget. `budget` covers the profile
/// snapshot, the amortized `profiles` push and the pool dispatch; it is
/// deliberately generous so the test fails on O(volume) regressions, not on
/// constant-factor drift.
fn assert_o1(engine: &str, low: u64, high: u64, budget: u64) {
    assert_eq!(
        low, high,
        "{engine}: allocations per superstep grew with message volume \
         ({low} at 1x vs {high} at 16x)"
    );
    assert!(
        high <= budget,
        "{engine}: {high} allocations per superstep exceeds the budget of {budget}"
    );
}

/// Serializes the measured sections: the width-8 test reads the
/// process-wide count, which any concurrent measurement would pollute.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn steady_state_supersteps_allocate_o1_sequential() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            assert_o1(
                "bsp",
                bsp_allocs_per_superstep(1),
                bsp_allocs_per_superstep(16),
                16,
            );
            assert_o1("qsm", qsm_allocs_per_phase(1), qsm_allocs_per_phase(16), 16);
            assert_o1(
                "pram",
                pram_allocs_per_step(P, 1),
                pram_allocs_per_step(P, 16),
                16,
            );
        });
}

/// Explicit-slot resolution is shared with the BSP engine and keeps its
/// claim set in the recycled slot buffer, so a QSM phase whose every
/// request names a slot allocates exactly as often at 1x as at 16x volume.
#[test]
fn explicit_slot_qsm_phases_stay_on_the_allocation_free_path() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            assert_o1(
                "qsm explicit slots",
                qsm_explicit_slot_allocs_per_phase(1),
                qsm_explicit_slot_allocs_per_phase(16),
                16,
            );
        });
}

/// Checkpoint/rollback recovery must not perturb the hot path: supersteps
/// between snapshots and supersteps replayed after a restore allocate O(1)
/// in message volume, exactly like an uncheckpointed run. (The snapshot
/// clone itself is allowed to allocate — it happens every k supersteps at
/// the barrier, not per message.)
#[test]
fn checkpointed_supersteps_stay_on_the_allocation_free_path() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            let (between_lo, replay_lo) = checkpointed_bsp_allocs_per_superstep(1);
            let (between_hi, replay_hi) = checkpointed_bsp_allocs_per_superstep(16);
            assert_o1("bsp between snapshots", between_lo, between_hi, 16);
            assert_o1("bsp after restore", replay_lo, replay_hi, 16);
            // And checkpointing must not have knocked the run off the plain
            // steady-state budget measured by the uncheckpointed probe.
            assert_eq!(
                between_hi,
                bsp_allocs_per_superstep(16),
                "a superstep between snapshots allocates more than an uncheckpointed one"
            );
        });
}

/// The active-set path (PR 5): with the sender set held fixed at 64
/// processors, allocations per superstep must be identical on a 1k- and a
/// 64k-processor machine — any O(p) clear or per-processor buffer sneaking
/// back into the sparse path shows up here as a count difference.
#[test]
fn sparse_superstep_allocations_do_not_scale_with_p() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            let small = sparse_bsp_allocs_per_superstep(1 << 10);
            let large = sparse_bsp_allocs_per_superstep(1 << 16);
            assert_eq!(
                small, large,
                "sparse path allocations scale with p ({small} at p=1k vs {large} at p=64k)"
            );
            assert!(
                small <= 16,
                "{small} allocations per sparse superstep exceeds the budget of 16"
            );
        });
}

/// The mask-discovered frontier path (PR 10): a masked superstep allocates
/// *nothing* at steady state — mask insertion, word iteration and the O(1)
/// epoch clear never touch the heap, at any machine size and any message
/// volume. What remains per superstep is exactly the retained profile
/// snapshot every execution path pays (the per-superstep `SuperstepProfile`
/// history owns its injection histogram, so it cannot be recycled), which
/// the test pins as an exact constant: any allocation the mask machinery
/// itself performed would push the count above the snapshot floor.
#[test]
fn masked_supersteps_allocate_nothing_at_steady_state() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            let small = masked_bsp_allocs_per_superstep(1 << 10, 4);
            let large = masked_bsp_allocs_per_superstep(1 << 16, 4);
            let heavy = masked_bsp_allocs_per_superstep(1 << 10, 16);
            assert_eq!(
                small, large,
                "masked-path allocations scale with p ({small} at p=1k vs {large} at p=64k)"
            );
            assert_eq!(
                small, heavy,
                "masked-path allocations scale with volume ({small} at 4x vs {heavy} at 16x)"
            );
            // The snapshot constant is exactly 2: `snapshot_reset` clones
            // the accumulated profile for the report and `profiles.push`
            // clones it again for the retained history — each clone owns a
            // non-empty injection histogram, so neither can be recycled.
            // Anything above 2 is an allocation the mask machinery itself
            // performed; the dense path's own constant is higher (its
            // all-processor pass keeps extra scratch), so the masked path
            // must also stay strictly at the floor.
            assert_eq!(
                small, 2,
                "{small} allocations per masked superstep; the mask path must \
                 allocate nothing beyond the two profile-snapshot clones"
            );
        });
}

/// The recovery ack round: the ack relation is built in O(messages), so
/// with the workload and the scripted drop held fixed, one ack step
/// allocates exactly as often on a 1k- as on a 16k-processor machine. A
/// p×p "heard" table would add one allocation per row.
#[test]
fn recovery_ack_round_allocations_do_not_scale_with_p() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            let small = recovery_ack_allocs(1 << 10);
            let large = recovery_ack_allocs(1 << 14);
            assert_eq!(
                small, large,
                "ack-step allocations scale with p ({small} at p=1k vs {large} at p=16k)"
            );
        });
}

/// The sample-sort all-to-all (PR 8): a *real-algorithm* superstep, not a
/// synthetic fanout loop, must sit on the same allocation-free steady
/// state. Every key moves every superstep, so a 16× block means 16× the
/// message volume through the same recycled arenas — any per-key or
/// per-bucket allocation sneaking into the exchange closure shows up as a
/// count difference between the two volumes.
#[test]
fn sample_sort_exchange_stays_on_the_allocation_free_path() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            assert_o1(
                "sample-sort exchange",
                sample_sort_exchange_allocs_per_superstep(32),
                sample_sort_exchange_allocs_per_superstep(512),
                16,
            );
        });
}

#[test]
fn steady_state_supersteps_allocate_o1_parallel() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .unwrap()
        .install(|| {
            // The pool dispatch allocates O(threads) per parallel pass —
            // still independent of message volume. Chunk counts are a pure
            // function of p and the width, and a worker's spawn allocates
            // inside the dispatch that asks for it, so the counts compare
            // exactly.
            assert_o1(
                "bsp",
                bsp_allocs_per_superstep(1),
                bsp_allocs_per_superstep(16),
                256,
            );
            assert_o1(
                "qsm",
                qsm_allocs_per_phase(1),
                qsm_allocs_per_phase(16),
                256,
            );
            // A PRAM step of P processors is under its 1024-processor
            // chunk minimum and would run inline; 4096 make 4 chunks.
            assert_o1(
                "pram",
                pram_allocs_per_step(4096, 1),
                pram_allocs_per_step(4096, 16),
                256,
            );
        });
}

/// Bytes one `new` call asks the allocator for, measured at width 1 after
/// a warmup construction has initialized the process-wide trace sink.
fn construction_bytes<T>(new: impl Fn() -> T) -> u64 {
    drop(new());
    let before = thread_bytes();
    let machine = new();
    let bytes = thread_bytes() - before;
    drop(machine);
    bytes
}

/// Construction pays for the processor states, the two inbox arenas'
/// segment tables and a few bitsets — about 42 bytes per processor for a
/// `BspMachine<u64, u64>` — and a send lane per block of 64 pids, never
/// per-processor send storage.
#[test]
fn bsp_construction_allocates_at_most_48_bytes_per_processor() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            let p = 1 << 16;
            let mp = MachineParams::from_gap(p, 2, 4);
            let bytes = construction_bytes(|| BspMachine::<u64, u64>::new(mp, |pid| pid as u64));
            assert!(
                bytes <= 48 * p as u64,
                "BspMachine::new allocated {bytes} bytes at p = {p}: {:.1} per processor, \
                 budget 48",
                bytes as f64 / p as f64
            );
        });
}

/// The QSM machine pays the same per-processor storage as BSP plus, per
/// shared word, the word itself and its 16-byte contention-tally cell.
#[test]
fn qsm_construction_allocates_at_most_48_bytes_per_processor_plus_24_per_word() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            let p = 1 << 16;
            let size = p;
            let mp = MachineParams::from_gap(p, 2, 4);
            let bytes = construction_bytes(|| QsmMachine::<u64>::new(mp, size, |pid| pid as u64));
            let budget = (48 * p + 24 * size) as u64;
            assert!(
                bytes <= budget,
                "QsmMachine::new allocated {bytes} bytes at p = size = {p}, budget {budget}"
            );
        });
}

/// A fresh machine's first superstep grows its send storage from nothing.
/// With one lane per 64-pid block that costs a few allocations per block,
/// not a few per sending processor: at most p/4 when all p send once.
#[test]
fn a_fresh_machines_first_superstep_allocates_per_block_not_per_sender() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            let p = 4096;
            let mp = MachineParams::from_gap(p, 2, 4);
            drop(BspMachine::<u64, u64>::new(mp, |pid| pid as u64));
            let mut bsp: BspMachine<u64, u64> = BspMachine::new(mp, |pid| pid as u64);
            let before = allocs();
            bsp.superstep(|pid, _state, _inbox, out| out.send((pid + 1) % p, pid as u64));
            let count = allocs() - before;
            assert!(
                count <= p as u64 / 4,
                "first superstep made {count} allocations at p = {p}, budget {}",
                p / 4
            );
        });
}

/// Bytes per message that the first superstep of a fresh
/// `BspMachine<u64, u64>` at p = 4096 asks for when every pid posts 64
/// messages, all pinned with `send_at` or all plain.
fn first_superstep_bytes_per_message(pinned: bool) -> f64 {
    let p = 4096;
    let fanout = 64;
    let mp = MachineParams::from_gap(p, 2, 4);
    drop(BspMachine::<u64, u64>::new(mp, |pid| pid as u64));
    let mut bsp: BspMachine<u64, u64> = BspMachine::new(mp, |pid| pid as u64);
    let before = thread_bytes();
    bsp.superstep(|pid, _state, _inbox, out| {
        for k in 0..fanout {
            let dest = (pid + k + 1) % p;
            if pinned {
                out.send_at(dest, k as u64, k as u64);
            } else {
                out.send(dest, k as u64);
            }
        }
    });
    (thread_bytes() - before) as f64 / (p * fanout) as f64
}

/// A pinned send costs one more 8-byte slot in its lane than a plain send,
/// and nothing per pin beside it: about 56 bytes per pinned message against
/// 40.1 per plain one in a fresh machine's first superstep.
#[test]
fn a_fresh_machines_first_superstep_asks_at_most_64_bytes_per_pinned_send() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| {
            let pinned = first_superstep_bytes_per_message(true);
            let plain = first_superstep_bytes_per_message(false);
            assert!(
                pinned <= 64.0,
                "first superstep asked for {pinned:.1} bytes per pinned send, budget 64"
            );
            assert!(
                plain <= 40.5,
                "first superstep asked for {plain:.1} bytes per plain send, budget 40.5"
            );
        });
}
