//! # pbw-sim
//!
//! An executable bulk-synchronous machine simulator for the models of the
//! SPAA'97 paper *"Modeling Parallel Bandwidth: Local vs. Global
//! Restrictions"*.
//!
//! Two engines are provided:
//!
//! * [`bsp::BspMachine`] — a message-passing machine. Algorithms run as
//!   closures invoked once per processor per superstep (executed in parallel
//!   with rayon); they read their inbox, mutate their local state, and post
//!   messages through an [`bsp::Outbox`], optionally pinning each message to an
//!   explicit *injection slot* — the knob that globally-limited algorithms
//!   use to stay within the aggregate bandwidth `m`.
//! * [`qsm::QsmMachine`] — a shared-memory machine in the QSM style:
//!   processors issue pipelined read/write requests against a shared array,
//!   values become visible in the next phase, concurrent reads *or* writes
//!   (never both) per location are allowed, and location contention `κ` is
//!   metered.
//!
//! Both engines record an exact [`pbw_models::SuperstepProfile`] for every
//! superstep, so one execution can be priced under BSP(g), BSP(m), QSM(g),
//! QSM(m) and the self-scheduling metric simultaneously (see
//! [`summary::CostSummary`]).
//!
//! ## Design notes
//!
//! * Determinism: superstep closures receive a processor id and may use
//!   [`rng::proc_rng`] for per-processor reproducible randomness; message
//!   delivery order is fixed (by source pid, then send order), independent of
//!   rayon's scheduling. Fault fates ([`hook::DeliveryHook`]) are pure in
//!   the delivery context, so they may be *computed* in any order (QSM does
//!   it in a parallel pass) and are *applied* in the fixed delivery order;
//!   runs — including their trace streams — are byte-identical at every
//!   `PBW_THREADS` setting.
//! * Non-receipt is observable: a processor can branch on an *empty* inbox,
//!   as required by the Section 4.2 ternary broadcast.

pub(crate) mod arena;
pub mod bsp;
pub mod density;
pub mod hook;
pub(crate) mod lane;
pub mod qsm;
pub mod rng;
pub mod summary;
pub mod timeline;

pub use bsp::{BspMachine, MachineCheckpoint, Outbox};
pub use hook::{BatchDests, DeliveryCtx, DeliveryHook, Fate, FaultStats};
pub use pbw_models::FrontierMask;
pub use qsm::{QsmCtx, QsmMachine, Word};
pub use summary::CostSummary;

/// Processor identifier.
pub type Pid = usize;

/// Errors raised by the simulation engines when a program violates model
/// rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A processor attempted two message injections in the same step of a
    /// superstep (the BSP(m) model allows at most one per processor per
    /// step).
    DuplicateSlot { pid: Pid, slot: u64 },
    /// A message was addressed to a processor id `>= p`.
    BadDestination { pid: Pid, dest: Pid },
    /// A QSM phase both read and wrote the same shared location (Section 2
    /// permits concurrent reads or concurrent writes to a location, not
    /// both).
    ReadWriteConflict { addr: usize },
    /// A QSM access was outside the shared address space.
    BadAddress { addr: usize, size: usize },
    /// A declared active set named a processor id `>= p`. Rejected before
    /// the superstep touches any state, so pending inboxes survive.
    BadActivePid { pid: Pid, p: usize },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::DuplicateSlot { pid, slot } => write!(
                f,
                "processor {pid} injected two messages at step {slot} of one superstep"
            ),
            SimError::BadDestination { pid, dest } => {
                write!(
                    f,
                    "processor {pid} sent a message to nonexistent processor {dest}"
                )
            }
            SimError::ReadWriteConflict { addr } => write!(
                f,
                "shared location {addr} was both read and written in one QSM phase"
            ),
            SimError::BadAddress { addr, size } => {
                write!(f, "shared address {addr} out of bounds (size {size})")
            }
            SimError::BadActivePid { pid, p } => write!(
                f,
                "active set names processor {pid}, but the machine has {p} processors"
            ),
        }
    }
}

impl std::error::Error for SimError {}
