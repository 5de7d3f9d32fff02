//! The chunk floor figure reported alongside pool results.
//!
//! Chunk sizes come from the static plan in [`crate::iter`]: a pure
//! function of the job length, the pool width and the minimum chunk length
//! the call site declares with
//! [`with_min_len`](crate::iter::IndexedParallelIterator::with_min_len).
//! Nothing is timed. [`chunk_floor_ns`] remains as the constant dispatch
//! budget the per-site minimums were chosen against, so reports that print
//! it keep their field.

/// Wall-clock work one parallel chunk should carry to amortize its
/// dispatch (a wake, a steal and the completion accounting), in ns. A
/// constant: the chunk plan times nothing.
pub const fn chunk_floor_ns() -> u64 {
    50_000
}
