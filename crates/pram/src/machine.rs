//! The step-synchronous PRAM engine.
//!
//! One [`Pram::step`] call runs a closure once per (virtual) processor, in
//! parallel with rayon. Within a step a processor may read shared cells
//! (values from the *pre-step* memory), read the ROM, and write shared cells
//! (applied at the end of the step). The engine audits every access:
//!
//! * **EREW** — at most one processor may read a cell and at most one may
//!   write it per step; a cell read by one processor and written by another
//!   in the same step is a hazard.
//! * **CREW** — concurrent reads allowed; writes exclusive.
//! * **CRCW (Arbitrary)** — concurrent reads and writes allowed; when
//!   several processors write one cell, an arbitrary one succeeds. For
//!   reproducibility the engine lets the lowest processor id win, a valid
//!   instance of the Arbitrary rule.
//! * **QRQW** — concurrent accesses allowed but queued: the step's time is
//!   the maximum, over cells, of the number of accesses to that cell.
//!
//! ### Time and work accounting
//!
//! A step in which every processor performs `O(1)` memory operations is one
//! PRAM step. The engine charges `time += max(1, max_i ops_i)` (so a
//! processor issuing `k` operations honestly costs `k` time) plus, under
//! QRQW, the maximum cell queue. Work is `Σ_i max(1, ops_i)` over
//! processors that were invoked.
//!
//! The number of processors is *per step*: the paper's Section 4.1
//! algorithms freely use `p²` or `p·⌈lg lg p⌉` virtual processors for
//! constant-time sub-steps, and so do we.

use crate::Word;
use pbw_models::{AccessTally, CellAccess};
use pbw_trace::{TraceEvent, TraceSink, TraceSource};
use rayon::prelude::*;
use std::sync::Arc;

/// Concurrent-access discipline enforced by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Exclusive read, exclusive write.
    Erew,
    /// Concurrent read, exclusive write.
    Crew,
    /// Queued read, queued write: concurrent access costs time equal to the
    /// longest per-cell queue (Gibbons–Matias–Ramachandran).
    Qrqw,
    /// Concurrent read, concurrent write with the Arbitrary resolution rule.
    CrcwArbitrary,
}

/// Errors raised when a program violates the selected access mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PramError {
    /// Two processors read the same cell under an exclusive-read mode.
    ReadConflict { addr: usize, contention: u64 },
    /// Two processors wrote the same cell under an exclusive-write mode.
    WriteConflict { addr: usize, contention: u64 },
    /// A cell was both read and written (by different processors) in one
    /// step under an exclusive mode, so the read's value is ill-defined.
    ReadWriteHazard { addr: usize },
    /// Access outside shared memory.
    BadAddress { addr: usize, size: usize },
    /// Access outside the ROM.
    BadRomAddress { addr: usize, size: usize },
}

impl std::fmt::Display for PramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PramError::ReadConflict { addr, contention } => {
                write!(
                    f,
                    "{contention} concurrent reads of cell {addr} under exclusive-read mode"
                )
            }
            PramError::WriteConflict { addr, contention } => {
                write!(
                    f,
                    "{contention} concurrent writes of cell {addr} under exclusive-write mode"
                )
            }
            PramError::ReadWriteHazard { addr } => {
                write!(
                    f,
                    "cell {addr} both read and written in one exclusive-mode step"
                )
            }
            PramError::BadAddress { addr, size } => {
                write!(f, "shared address {addr} out of bounds (size {size})")
            }
            PramError::BadRomAddress { addr, size } => {
                write!(f, "ROM address {addr} out of bounds (size {size})")
            }
        }
    }
}

impl std::error::Error for PramError {}

/// Accounting for one executed step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// Time charged for this step (`max(1, max_i ops_i)`, plus queueing
    /// under QRQW).
    pub time: u64,
    /// Work charged (`Σ_i max(1, ops_i)`).
    pub work: u64,
    /// Maximum per-cell read contention observed.
    pub max_read_contention: u64,
    /// Maximum per-cell write contention observed.
    pub max_write_contention: u64,
}

#[derive(Debug, Default, Clone)]
struct ProcRecord {
    reads: Vec<usize>,
    rom_reads: u64,
    writes: Vec<(usize, Word)>,
}

impl ProcRecord {
    /// Empty the record for the next step, keeping its capacity.
    fn clear(&mut self) {
        self.reads.clear();
        self.rom_reads = 0;
        self.writes.clear();
    }
}

/// Per-processor handle passed to step closures.
pub struct PramCtx<'a> {
    mem: &'a [Word],
    rom: &'a [Word],
    rec: &'a mut ProcRecord,
    fault: Option<PramError>,
}

impl<'a> PramCtx<'a> {
    /// Read a shared cell (value as of the start of the step).
    pub fn read(&mut self, addr: usize) -> Word {
        if addr >= self.mem.len() {
            self.fault.get_or_insert(PramError::BadAddress {
                addr,
                size: self.mem.len(),
            });
            return 0;
        }
        self.rec.reads.push(addr);
        self.mem[addr]
    }

    /// Read a ROM cell (concurrently readable in every mode; the PRAM(m)
    /// input lives here).
    pub fn read_rom(&mut self, addr: usize) -> Word {
        if addr >= self.rom.len() {
            self.fault.get_or_insert(PramError::BadRomAddress {
                addr,
                size: self.rom.len(),
            });
            return 0;
        }
        self.rec.rom_reads += 1;
        self.rom[addr]
    }

    /// Write a shared cell (applied at the end of the step).
    pub fn write(&mut self, addr: usize, value: Word) {
        if addr >= self.mem.len() {
            self.fault.get_or_insert(PramError::BadAddress {
                addr,
                size: self.mem.len(),
            });
            return;
        }
        self.rec.writes.push((addr, value));
    }

    /// Number of ROM cells.
    pub fn rom_len(&self) -> usize {
        self.rom.len()
    }

    /// Number of shared cells.
    pub fn mem_len(&self) -> usize {
        self.mem.len()
    }
}

/// A step-synchronous PRAM (optionally a PRAM(m): `mem.len() = m` cells plus
/// a ROM).
///
/// ```
/// use pbw_pram::{AccessMode, Pram};
///
/// // Arbitrary-CRCW: 8 processors race to write one cell — the lowest id
/// // wins (a deterministic instance of the Arbitrary rule).
/// let mut pram = Pram::new(AccessMode::CrcwArbitrary, 4);
/// pram.step(8, |pid, ctx| ctx.write(0, 100 + pid as i64));
/// assert_eq!(pram.mem()[0], 100);
///
/// // The same program is an exclusive-write violation under EREW:
/// let mut erew = Pram::new(AccessMode::Erew, 4);
/// assert!(erew.try_step(8, |pid, ctx| ctx.write(0, pid as i64)).is_err());
/// ```
#[derive(Clone)]
pub struct Pram {
    mem: Vec<Word>,
    rom: Vec<Word>,
    mode: AccessMode,
    time: u64,
    work: u64,
    steps: u64,
    sink: Arc<dyn TraceSink>,
    trace_label: String,
    /// Recycled per-processor access records; grown to the largest `nprocs`
    /// seen, cleared (capacity kept) at the start of every step.
    records: Vec<ProcRecord>,
    /// Contention-audit tally, one entry per shared cell; reset in
    /// O(cells touched), so a step never pays for the cells it leaves alone.
    tally: AccessTally,
}

impl std::fmt::Debug for Pram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pram")
            .field("mem", &self.mem)
            .field("rom", &self.rom)
            .field("mode", &self.mode)
            .field("time", &self.time)
            .field("work", &self.work)
            .field("steps", &self.steps)
            .finish_non_exhaustive()
    }
}

impl Pram {
    /// A PRAM with `size` shared cells and no ROM.
    ///
    /// The machine captures the process-wide trace sink
    /// ([`pbw_trace::global_sink`]) at construction; use [`Pram::set_sink`]
    /// to attach a specific sink instead.
    pub fn new(mode: AccessMode, size: usize) -> Self {
        Self::with_rom(mode, size, Vec::new())
    }

    /// A PRAM(m): `m` shared cells plus a concurrently readable ROM holding
    /// the input (Mansour–Nisan–Vishkin). Reading the ROM never violates an
    /// exclusive mode and never counts toward shared-cell contention.
    pub fn with_rom(mode: AccessMode, m: usize, rom: Vec<Word>) -> Self {
        Self {
            mem: vec![0; m],
            rom,
            mode,
            time: 0,
            work: 0,
            steps: 0,
            sink: pbw_trace::global_sink(),
            trace_label: String::new(),
            records: Vec::new(),
            tally: AccessTally::new(m),
        }
    }

    /// Attach a trace sink, replacing the one captured at construction.
    pub fn set_sink(&mut self, sink: Arc<dyn TraceSink>) -> &mut Self {
        self.sink = sink;
        self
    }

    /// Label stamped on every trace event this machine emits.
    pub fn set_trace_label(&mut self, label: impl Into<String>) -> &mut Self {
        self.trace_label = label.into();
        self
    }

    /// The access mode.
    pub fn mode(&self) -> AccessMode {
        self.mode
    }

    /// Shared memory contents.
    pub fn mem(&self) -> &[Word] {
        &self.mem
    }

    /// Mutable shared memory (setup only; not charged).
    pub fn mem_mut(&mut self) -> &mut [Word] {
        &mut self.mem
    }

    /// ROM contents.
    pub fn rom(&self) -> &[Word] {
        &self.rom
    }

    /// Total time charged so far.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Total work charged so far.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Number of `step` calls so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Add `t` to the time counter without executing anything. Used by
    /// primitives that *compute* the result of a well-known algorithm
    /// directly but must charge its published cost (each caller documents
    /// what is being charged).
    pub fn charge_time(&mut self, t: u64) {
        self.time += t;
    }

    /// Add `w` to the work counter (see [`Pram::charge_time`]).
    pub fn charge_work(&mut self, w: u64) {
        self.work += w;
    }

    /// Execute one step with `nprocs` (virtual) processors, panicking on
    /// access-mode violations.
    pub fn step<F>(&mut self, nprocs: usize, f: F) -> StepReport
    where
        F: Fn(usize, &mut PramCtx<'_>) + Sync,
    {
        self.try_step(nprocs, f)
            .unwrap_or_else(|e| panic!("PRAM step failed: {e}"))
    }

    /// Execute one step, returning access-mode violations as errors.
    pub fn try_step<F>(&mut self, nprocs: usize, f: F) -> Result<StepReport, PramError>
    where
        F: Fn(usize, &mut PramCtx<'_>) + Sync,
    {
        // Run the processors in parallel over the recycled records, at
        // least 1024 to a pool chunk (DESIGN §13). The fallible collect
        // reports the lowest-pid fault, matching the old sequential
        // first-fault scan.
        if self.records.len() < nprocs {
            self.records.resize_with(nprocs, ProcRecord::default);
        }
        {
            let Self {
                ref mem,
                ref rom,
                ref mut records,
                ..
            } = *self;
            let run: Result<Vec<()>, PramError> = records[..nprocs]
                .par_iter_mut()
                .with_min_len(1024)
                .enumerate()
                .map(|(pid, rec)| {
                    rec.clear();
                    let mut ctx = PramCtx {
                        mem,
                        rom,
                        rec,
                        fault: None,
                    };
                    f(pid, &mut ctx);
                    match ctx.fault.take() {
                        Some(e) => Err(e),
                        None => Ok(()),
                    }
                })
                .collect();
            run?;
        }

        let Self {
            ref mut mem,
            ref records,
            ref mut tally,
            mode,
            ..
        } = *self;
        let records = &records[..nprocs];

        // Contention audit: how many distinct processors read and wrote
        // each touched cell. A read and a write of one cell by the *same*
        // processor is an ordinary local read-modify-write, legal in every
        // mode. Exclusive modes report the lowest violating address,
        // classified read conflict, then write conflict, then hazard.
        tally.clear();
        for (pid, rec) in records.iter().enumerate().rev() {
            for &addr in &rec.reads {
                tally.read(pid, addr);
            }
            for &(addr, _) in &rec.writes {
                tally.write(pid, addr);
            }
        }
        let mut max_r = 0u64;
        let mut max_w = 0u64;
        let mut bad: Option<(usize, CellAccess)> = None;
        for (addr, c) in tally.cells() {
            max_r = max_r.max(c.readers);
            max_w = max_w.max(c.writers);
            let cross_rw = c.readers > 0
                && c.writers > 0
                && !(c.readers == 1 && c.writers == 1 && c.reader == c.writer);
            let violation = match mode {
                AccessMode::Erew => c.readers > 1 || c.writers > 1 || cross_rw,
                AccessMode::Crew => c.writers > 1 || cross_rw,
                AccessMode::Qrqw | AccessMode::CrcwArbitrary => false,
            };
            if violation && bad.is_none_or(|(b, _)| addr < b) {
                bad = Some((addr, c));
            }
        }
        if let Some((addr, c)) = bad {
            return Err(match mode {
                AccessMode::Erew if c.readers > 1 => PramError::ReadConflict {
                    addr,
                    contention: c.readers,
                },
                _ if c.writers > 1 => PramError::WriteConflict {
                    addr,
                    contention: c.writers,
                },
                _ => PramError::ReadWriteHazard { addr },
            });
        }

        // Apply writes from the highest pid down, each processor's in
        // program order: a cell keeps the last write of its lowest writer
        // (a deterministic instance of the Arbitrary rule).
        for rec in records.iter().rev() {
            for &(addr, value) in &rec.writes {
                mem[addr] = value;
            }
        }

        // Accounting.
        let mut max_ops = 0u64;
        let mut work = 0u64;
        for rec in records {
            let ops = rec.reads.len() as u64 + rec.writes.len() as u64 + rec.rom_reads;
            max_ops = max_ops.max(ops);
            work += ops.max(1);
        }
        let mut time = max_ops.max(1);
        if mode == AccessMode::Qrqw {
            time = time.max(max_r).max(max_w);
        }
        if self.sink.enabled() {
            self.emit_trace(nprocs, max_r.max(max_w));
        }
        self.time += time;
        self.work += work;
        self.steps += 1;
        Ok(StepReport {
            time,
            work,
            max_read_contention: max_r,
            max_write_contention: max_w,
        })
    }

    /// Synthesize a trace event for one executed step.
    ///
    /// The PRAM has no explicit machine parameters or injection slots, so the
    /// event uses the natural mapping: `p` = this step's processor count,
    /// `m` = the number of shared cells (the PRAM(m) bandwidth), `g = L = 1`,
    /// and the pipelined injection view in which a processor issues its k-th
    /// memory operation at step `k` (hence `m_t` = processors with more than
    /// `t` operations, and at most one injection per processor per slot).
    fn emit_trace(&self, nprocs: usize, kappa: u64) {
        let records = &self.records[..nprocs];
        let mut builder = pbw_models::ProfileBuilder::new();
        let mut per_proc_sent: Vec<u64> = Vec::with_capacity(records.len());
        let mut per_proc_recv: Vec<u64> = Vec::with_capacity(records.len());
        let mut total_ops = 0u64;
        for rec in records {
            let reads = rec.reads.len() as u64 + rec.rom_reads;
            let writes = rec.writes.len() as u64;
            builder.record_memory_ops(reads, writes);
            per_proc_sent.push(reads + writes);
            per_proc_recv.push(reads);
            total_ops += reads + writes;
        }
        builder.record_contention(kappa);
        let max_ops = per_proc_sent.iter().copied().max().unwrap_or(0);
        for t in 0..max_ops {
            let m_t = per_proc_sent.iter().filter(|&&ops| ops > t).count() as u64;
            builder.record_injections(t, m_t);
        }
        let params = pbw_models::MachineParams::new_unchecked(
            records.len().max(1),
            1,
            self.mem.len().max(1),
            1,
        );
        self.sink.record(TraceEvent::for_superstep(
            TraceSource::Pram,
            self.trace_label.clone(),
            self.steps,
            params,
            builder.build(),
            per_proc_sent,
            per_proc_recv,
            u64::from(max_ops > 0),
            total_ops,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_across_steps() {
        let mut pram = Pram::new(AccessMode::Erew, 8);
        pram.step(4, |pid, ctx| ctx.write(pid, pid as Word * 2));
        assert_eq!(&pram.mem()[..4], &[0, 2, 4, 6]);
        pram.step(4, |pid, ctx| {
            let v = ctx.read(pid);
            ctx.write(pid + 4, v + 1);
        });
        assert_eq!(&pram.mem()[4..8], &[1, 3, 5, 7]);
    }

    #[test]
    fn reads_see_pre_step_memory() {
        let mut pram = Pram::new(AccessMode::Erew, 2);
        pram.mem_mut()[0] = 10;
        // Proc 0 reads cell 0 while proc 1 writes cell 1; then swap roles —
        // but within one step a read of a written cell is a hazard, so use
        // disjoint cells and check the read got the old value.
        pram.step(2, |pid, ctx| {
            if pid == 0 {
                let v = ctx.read(0);
                assert_eq!(v, 10);
                ctx.write(0, v + 1); // same proc read+write its own cell: fine
            }
        });
        assert_eq!(pram.mem()[0], 11);
    }

    #[test]
    fn erew_rejects_concurrent_read() {
        let mut pram = Pram::new(AccessMode::Erew, 4);
        let err = pram.try_step(4, |_pid, ctx| {
            ctx.read(0);
        });
        assert_eq!(
            err.unwrap_err(),
            PramError::ReadConflict {
                addr: 0,
                contention: 4
            }
        );
    }

    #[test]
    fn erew_rejects_concurrent_write() {
        let mut pram = Pram::new(AccessMode::Erew, 4);
        let err = pram.try_step(3, |_pid, ctx| ctx.write(2, 1));
        assert_eq!(
            err.unwrap_err(),
            PramError::WriteConflict {
                addr: 2,
                contention: 3
            }
        );
    }

    #[test]
    fn erew_rejects_read_write_hazard() {
        let mut pram = Pram::new(AccessMode::Erew, 4);
        let err = pram.try_step(2, |pid, ctx| {
            if pid == 0 {
                ctx.read(1);
            } else {
                ctx.write(1, 5);
            }
        });
        assert_eq!(err.unwrap_err(), PramError::ReadWriteHazard { addr: 1 });
    }

    #[test]
    fn crew_allows_concurrent_read_rejects_concurrent_write() {
        let mut pram = Pram::new(AccessMode::Crew, 4);
        assert!(pram
            .try_step(4, |_pid, ctx| {
                ctx.read(0);
            })
            .is_ok());
        let err = pram.try_step(2, |_pid, ctx| ctx.write(0, 1));
        assert!(matches!(
            err.unwrap_err(),
            PramError::WriteConflict { addr: 0, .. }
        ));
    }

    #[test]
    fn crcw_arbitrary_lowest_pid_wins() {
        let mut pram = Pram::new(AccessMode::CrcwArbitrary, 4);
        pram.step(8, |pid, ctx| ctx.write(0, 100 + pid as Word));
        assert_eq!(pram.mem()[0], 100);
    }

    #[test]
    fn last_write_within_processor_wins() {
        let mut pram = Pram::new(AccessMode::CrcwArbitrary, 2);
        pram.step(1, |_pid, ctx| {
            ctx.write(0, 1);
            ctx.write(0, 2);
            ctx.write(0, 3);
        });
        assert_eq!(pram.mem()[0], 3);
        // Across processors the lowest pid wins, with its last write.
        pram.step(4, |pid, ctx| {
            for k in 0..3 {
                ctx.write(1, 10 * pid as Word + k);
            }
        });
        assert_eq!(pram.mem()[1], 2);
    }

    #[test]
    fn qrqw_charges_queue_time() {
        let mut pram = Pram::new(AccessMode::Qrqw, 4);
        let r = pram.step(6, |_pid, ctx| {
            ctx.read(3);
        });
        assert_eq!(r.time, 6); // queue of 6 readers
        assert_eq!(r.max_read_contention, 6);
        let r2 = pram.step(6, |pid, ctx| {
            ctx.read(pid % 4);
        });
        assert_eq!(r2.time, 2); // at most 2 readers per cell
    }

    #[test]
    fn crcw_charges_unit_time_for_concurrent_access() {
        let mut pram = Pram::new(AccessMode::CrcwArbitrary, 4);
        let r = pram.step(64, |_pid, ctx| {
            ctx.read(0);
        });
        assert_eq!(r.time, 1);
        assert_eq!(r.max_read_contention, 64);
    }

    #[test]
    fn multi_op_step_charges_ops() {
        let mut pram = Pram::new(AccessMode::Erew, 16);
        let r = pram.step(2, |pid, ctx| {
            for k in 0..4 {
                ctx.read(pid * 8 + k);
            }
        });
        assert_eq!(r.time, 4);
        assert_eq!(r.work, 8);
    }

    #[test]
    fn rom_reads_are_concurrent_in_erew() {
        let mut pram = Pram::with_rom(AccessMode::Erew, 2, vec![7, 8, 9]);
        // Every processor reads ROM cell 1: no exclusivity violation.
        pram.step(16, |pid, ctx| {
            let v = ctx.read_rom(1);
            if pid == 0 {
                ctx.write(0, v);
            }
        });
        assert_eq!(pram.mem()[0], 8);
    }

    #[test]
    fn bad_address_reported() {
        let mut pram = Pram::new(AccessMode::Erew, 4);
        let err = pram.try_step(1, |_pid, ctx| {
            ctx.read(10);
        });
        assert_eq!(
            err.unwrap_err(),
            PramError::BadAddress { addr: 10, size: 4 }
        );
    }

    #[test]
    fn bad_rom_address_reported() {
        let mut pram = Pram::with_rom(AccessMode::Erew, 4, vec![1]);
        let err = pram.try_step(1, |_pid, ctx| {
            ctx.read_rom(3);
        });
        assert_eq!(
            err.unwrap_err(),
            PramError::BadRomAddress { addr: 3, size: 1 }
        );
    }

    #[test]
    fn double_read_by_one_processor_is_not_a_conflict() {
        let mut pram = Pram::new(AccessMode::Erew, 4);
        assert!(pram
            .try_step(1, |_pid, ctx| {
                ctx.read(0);
                ctx.read(0);
            })
            .is_ok());
    }

    #[test]
    fn explicit_charges_accumulate() {
        let mut pram = Pram::new(AccessMode::CrcwArbitrary, 1);
        pram.charge_time(5);
        pram.charge_work(50);
        assert_eq!(pram.time(), 5);
        assert_eq!(pram.work(), 50);
    }

    #[test]
    fn trace_events_synthesize_profile() {
        use pbw_trace::RecordingSink;
        let sink = Arc::new(RecordingSink::new());
        let mut pram = Pram::new(AccessMode::Qrqw, 8);
        pram.set_sink(sink.clone()).set_trace_label("qrqw");
        pram.step(4, |pid, ctx| {
            ctx.read(3);
            ctx.write(pid + 4, 1);
        });
        let events = sink.take();
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.source, TraceSource::Pram);
        assert_eq!(ev.label, "qrqw");
        assert_eq!(ev.superstep, 0);
        // 4 processors × (1 read + 1 write): pipelined histogram [4, 4].
        assert_eq!(ev.profile.injections, vec![4, 4]);
        assert_eq!(ev.profile.total_messages, 8);
        assert_eq!(ev.delivered, 8);
        assert_eq!(ev.profile.max_contention, 4);
        assert_eq!(ev.params.p, 4);
        assert_eq!(ev.params.m, 8);
        assert_eq!(ev.max_proc_slot_injections, 1);
    }

    #[test]
    fn time_and_work_accumulate_across_steps() {
        let mut pram = Pram::new(AccessMode::CrcwArbitrary, 8);
        pram.step(4, |pid, ctx| ctx.write(pid, 1));
        pram.step(4, |pid, ctx| {
            ctx.read(pid);
        });
        assert_eq!(pram.time(), 2);
        assert_eq!(pram.work(), 8);
        assert_eq!(pram.steps(), 2);
    }
}
