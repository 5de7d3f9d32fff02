//! Index-chunked parallel iterators with a deterministic ordered merge.
//!
//! Everything here is driven by one invariant: **the output of a parallel
//! iterator chain is a pure function of the input order, never of thread
//! scheduling**. A chain is split into contiguous index chunks
//! ([`IndexedParallelIterator::split_at`]), chunks are executed by whichever
//! pool thread steals them first, each chunk's results land in its own
//! pre-allocated slot, and the slots are concatenated in chunk order. The
//! chunk *boundaries* come from a static plan (`chunk_count`): a pure
//! function of the job length, the pool width and the minimum chunk length
//! the chain declares with [`IndexedParallelIterator::with_min_len`].
//! Every per-element computation sees exactly the indices and values it
//! would see sequentially, and the merge is always in index order — so
//! `PBW_THREADS=1` and `PBW_THREADS=64` produce identical values. The only
//! construct whose result could observe chunk boundaries is
//! [`IndexedParallelIterator::fold_chunks`], which is restricted to merges
//! that are exact under regrouping (see its docs).
//!
//! Deliberately absent: parallel `sum`/`reduce`. A tree reduction over
//! floats re-associates with the chunk count, which would make results
//! depend on the thread configuration — exactly what the workspace's
//! cross-thread-count conformance suite forbids. Collect with an ordered
//! merge, then reduce sequentially.

use std::ops::Range;
use std::sync::Mutex;

use crate::pool::{current_num_threads, lock, run_range_tasks};

/// A splittable, exactly-sized source of parallel work.
///
/// Unlike upstream rayon's producer/consumer plumbing, this shim keeps one
/// object-level trait: a chain knows its length, can split itself at an
/// index, and can lower itself to a sequential iterator for one chunk.
pub trait IndexedParallelIterator: Sized + Send {
    /// Element type flowing through the chain.
    type Item: Send;
    /// The sequential iterator a chunk lowers to.
    type SeqIter: Iterator<Item = Self::Item>;

    /// Exact number of elements.
    fn len(&self) -> usize;

    /// Whether the chain is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Split into `[0, mid)` and `[mid, len)`. Callers guarantee
    /// `mid <= len()`.
    fn split_at(self, mid: usize) -> (Self, Self);

    /// Lower to a sequential iterator over this (chunk of the) chain.
    fn seq_iter(self) -> Self::SeqIter;

    /// The fewest items one chunk of this chain may hold (see
    /// [`with_min_len`](Self::with_min_len)); 1 unless declared.
    fn min_len(&self) -> usize {
        1
    }

    /// Declare that no chunk of this chain should hold fewer than `min`
    /// items, as upstream rayon's `with_min_len` does. A job too short to
    /// cut into two such chunks runs inline on the caller. `map` and
    /// `enumerate` keep the declaration; `zip` keeps the larger of its two
    /// sides'.
    fn with_min_len(self, min: usize) -> MinLen<Self> {
        MinLen { base: self, min }
    }

    /// Transform every element with `f`.
    ///
    /// `F: Clone` because each chunk carries its own copy across the split;
    /// closures capturing only shared references are `Copy`, so engine call
    /// sites satisfy this for free.
    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Clone + Send,
        R: Send,
    {
        Map { base: self, f }
    }

    /// Pair elements with `other`, truncating to the shorter side.
    fn zip<B>(self, other: B) -> Zip<Self, B>
    where
        B: IndexedParallelIterator,
    {
        Zip { a: self, b: other }
    }

    /// Attach the global element index (stable across splits).
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate {
            base: self,
            offset: 0,
        }
    }

    /// Execute the chain in parallel and collect into `C` with the
    /// deterministic ordered merge.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }

    /// Fold each index chunk sequentially with `fold` (starting from
    /// `identity()`), then combine the per-chunk accumulators **in chunk
    /// order** with `merge`.
    ///
    /// Chunk *boundaries* vary with the configured thread count, so the
    /// result is thread-count independent only when `merge` is associative
    /// over chunk regrouping — exact for integer sums, maxima, and
    /// histogram addition; **not** for floating-point reductions, which is
    /// why this shim offers no parallel `sum`.
    fn fold_chunks<A, ID, F, M>(self, identity: ID, fold: F, merge: M) -> A
    where
        A: Send,
        ID: Fn() -> A + Sync,
        F: Fn(A, Self::Item) -> A + Sync,
        M: Fn(A, A) -> A,
    {
        let parts = run_chunks(self, |iter| iter.fold(identity(), &fold));
        parts.into_iter().fold(identity(), merge)
    }
}

/// Split `p` into at most `k` contiguous chunks of near-equal length, in
/// index order.
fn balanced_chunks<P: IndexedParallelIterator>(mut p: P, k: usize) -> Vec<P> {
    let mut remaining = p.len();
    let k = k.clamp(1, remaining.max(1));
    let mut chunks = Vec::with_capacity(k);
    for left in (2..=k).rev() {
        let take = remaining.div_ceil(left);
        let (head, tail) = p.split_at(take);
        chunks.push(head);
        p = tail;
        remaining -= take;
    }
    chunks.push(p);
    chunks
}

/// The static chunk plan: the number of chunks a job of `n` items is cut
/// into at pool width `width` when its chain declares `min_len`.
///
/// The chunk length is `len = max(min_len, ⌈n / 4·width⌉)`, and the job
/// becomes `⌊n / len⌋` balanced chunks, so there are at most `4·width` of
/// them and each holds at least `len` items. A result of 0 or 1 means the
/// job runs inline on the caller.
fn chunk_count(n: usize, width: usize, min_len: usize) -> usize {
    let len = min_len.max(n.div_ceil(4 * width)).max(1);
    n / len
}

/// Run `per_chunk` over index chunks of `p` on the pool and return the
/// per-chunk results **in chunk order** — the ordered-merge primitive
/// behind every collect.
fn run_chunks<P, R, F>(p: P, per_chunk: F) -> Vec<R>
where
    P: IndexedParallelIterator,
    R: Send,
    F: Fn(P::SeqIter) -> R + Sync,
{
    let threads = current_num_threads();
    let k = if threads > 1 {
        chunk_count(p.len(), threads, p.min_len())
    } else {
        1
    };
    if k <= 1 {
        return vec![per_chunk(p.seq_iter())];
    }
    let inputs: Vec<Mutex<Option<P>>> = balanced_chunks(p, k)
        .into_iter()
        .map(|c| Mutex::new(Some(c)))
        .collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..k).map(|_| Mutex::new(None)).collect();
    run_range_tasks(k, &|lo, hi| {
        for i in lo..hi {
            let chunk = lock(&inputs[i]).take().expect("chunk claimed twice");
            *lock(&outputs[i]) = Some(per_chunk(chunk.seq_iter()));
        }
    });
    outputs
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(|e| e.into_inner()))
        .map(|r| r.expect("task completed without storing its result"))
        .collect()
}

/// Collect the elements of a parallel chain, order-preserving.
pub trait FromParallelIterator<T: Send>: Sized {
    /// Build `Self` from the chain's elements in index order.
    fn from_par_iter<P>(p: P) -> Self
    where
        P: IndexedParallelIterator<Item = T>;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P>(p: P) -> Self
    where
        P: IndexedParallelIterator<Item = T>,
    {
        let n = p.len();
        let parts = run_chunks(p, |iter| iter.collect::<Vec<T>>());
        let mut out = Vec::with_capacity(n);
        for part in parts {
            out.extend(part);
        }
        out
    }
}

/// Fallible collect. Each chunk short-circuits at its first error; the
/// chunk-ordered merge then surfaces the error with the **lowest global
/// index**, which is exactly what a sequential `collect::<Result<..>>()`
/// returns — so success/failure and the chosen error are thread-count
/// independent. (Unlike the sequential form, elements *after* a failing
/// index in other chunks may still have been computed; chains used with
/// fallible collect must be side-effect free, which engine validation
/// passes are.)
impl<T: Send, E: Send> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_par_iter<P>(p: P) -> Self
    where
        P: IndexedParallelIterator<Item = Result<T, E>>,
    {
        let n = p.len();
        let parts = run_chunks(p, |iter| iter.collect::<Result<Vec<T>, E>>());
        let mut out = Vec::with_capacity(n);
        for part in parts {
            out.extend(part?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Producers
// ---------------------------------------------------------------------------

/// Borrowing producer over a slice (`par_iter`).
pub struct ParIter<'a, T>(&'a [T]);

impl<'a, T: Sync> IndexedParallelIterator for ParIter<'a, T> {
    type Item = &'a T;
    type SeqIter = std::slice::Iter<'a, T>;

    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at(mid);
        (ParIter(l), ParIter(r))
    }
    fn seq_iter(self) -> Self::SeqIter {
        self.0.iter()
    }
}

/// Mutably borrowing producer over a slice (`par_iter_mut`).
pub struct ParIterMut<'a, T>(&'a mut [T]);

impl<'a, T: Send> IndexedParallelIterator for ParIterMut<'a, T> {
    type Item = &'a mut T;
    type SeqIter = std::slice::IterMut<'a, T>;

    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at_mut(mid);
        (ParIterMut(l), ParIterMut(r))
    }
    fn seq_iter(self) -> Self::SeqIter {
        self.0.iter_mut()
    }
}

/// Mutably borrowing producer over consecutive `size`-element chunks of a
/// slice (`par_chunks_mut`); the last chunk may be shorter. One item is one
/// whole chunk, so a split never cuts inside a chunk.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> IndexedParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    type SeqIter = std::slice::ChunksMut<'a, T>;

    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let at = (mid * self.size).min(self.slice.len());
        let (l, r) = self.slice.split_at_mut(at);
        let size = self.size;
        (
            ParChunksMut { slice: l, size },
            ParChunksMut { slice: r, size },
        )
    }
    fn seq_iter(self) -> Self::SeqIter {
        self.slice.chunks_mut(self.size)
    }
}

/// Consuming producer over a `Vec` (`into_par_iter`).
pub struct ParVec<T>(Vec<T>);

impl<T: Send> IndexedParallelIterator for ParVec<T> {
    type Item = T;
    type SeqIter = std::vec::IntoIter<T>;

    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let mut head = self.0;
        let tail = head.split_off(mid);
        (ParVec(head), ParVec(tail))
    }
    fn seq_iter(self) -> Self::SeqIter {
        self.0.into_iter()
    }
}

/// Producer over an integer range (`(0..n).into_par_iter()`). A newtype so
/// the parallel `map` never collides with `Iterator::map` on the range
/// itself.
pub struct ParRange<T>(Range<T>);

/// `.par_iter()` / `.par_iter_mut()` on slices and `Vec`s.
pub trait ParallelSliceExt<T> {
    /// Borrowing parallel iterator over the elements.
    fn par_iter(&self) -> ParIter<'_, T>;
    /// Mutably borrowing parallel iterator over the elements.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
    /// Mutably borrowing parallel iterator over consecutive
    /// `chunk_size`-element chunks, the last possibly shorter.
    ///
    /// # Panics
    /// Panics if `chunk_size` is 0.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T> ParallelSliceExt<T> for [T] {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter(self)
    }
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut(self)
    }
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk size must be non-zero");
        ParChunksMut {
            slice: self,
            size: chunk_size,
        }
    }
}

impl<T> ParallelSliceExt<T> for Vec<T> {
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter(self.as_slice())
    }
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut(self.as_mut_slice())
    }
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        self.as_mut_slice().par_chunks_mut(chunk_size)
    }
}

/// Conversion into a parallel iterator (`into_par_iter`).
pub trait IntoParallelIterator {
    /// Element type of the resulting chain.
    type Item: Send;
    /// The producer this converts into.
    type Iter: IndexedParallelIterator<Item = Self::Item>;

    /// Consume `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParVec<T>;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec(self)
    }
}

macro_rules! impl_range_producer {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            type Iter = ParRange<$t>;
            fn into_par_iter(self) -> ParRange<$t> {
                ParRange(self)
            }
        }

        impl IndexedParallelIterator for ParRange<$t> {
            type Item = $t;
            type SeqIter = Range<$t>;

            fn len(&self) -> usize {
                if self.0.end <= self.0.start {
                    0
                } else {
                    (self.0.end - self.0.start) as usize
                }
            }
            fn split_at(self, mid: usize) -> (Self, Self) {
                let m = self.0.start + mid as $t;
                (ParRange(self.0.start..m), ParRange(m..self.0.end))
            }
            fn seq_iter(self) -> Range<$t> {
                self.0
            }
        }
    )*};
}

impl_range_producer!(usize, u32, u64);

// ---------------------------------------------------------------------------
// Adaptors
// ---------------------------------------------------------------------------

/// Minimum-chunk-length declaration ([`IndexedParallelIterator::with_min_len`]).
pub struct MinLen<P> {
    base: P,
    min: usize,
}

impl<P> IndexedParallelIterator for MinLen<P>
where
    P: IndexedParallelIterator,
{
    type Item = P::Item;
    type SeqIter = P::SeqIter;

    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(mid);
        let min = self.min;
        (MinLen { base: l, min }, MinLen { base: r, min })
    }
    fn seq_iter(self) -> Self::SeqIter {
        self.base.seq_iter()
    }
    fn min_len(&self) -> usize {
        self.min.max(self.base.min_len())
    }
}

/// Parallel `map` adaptor.
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> IndexedParallelIterator for Map<P, F>
where
    P: IndexedParallelIterator,
    F: Fn(P::Item) -> R + Clone + Send,
    R: Send,
{
    type Item = R;
    type SeqIter = MapSeq<P::SeqIter, F>;

    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(mid);
        (
            Map {
                base: l,
                f: self.f.clone(),
            },
            Map { base: r, f: self.f },
        )
    }
    fn seq_iter(self) -> Self::SeqIter {
        MapSeq {
            inner: self.base.seq_iter(),
            f: self.f,
        }
    }
    fn min_len(&self) -> usize {
        self.base.min_len()
    }
}

/// Sequential lowering of [`Map`].
pub struct MapSeq<I, F> {
    inner: I,
    f: F,
}

impl<I, F, R> Iterator for MapSeq<I, F>
where
    I: Iterator,
    F: Fn(I::Item) -> R,
{
    type Item = R;
    fn next(&mut self) -> Option<R> {
        self.inner.next().map(&self.f)
    }
}

/// Parallel `zip` adaptor (truncates to the shorter side).
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A, B> IndexedParallelIterator for Zip<A, B>
where
    A: IndexedParallelIterator,
    B: IndexedParallelIterator,
{
    type Item = (A::Item, B::Item);
    type SeqIter = std::iter::Zip<A::SeqIter, B::SeqIter>;

    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(mid);
        let (bl, br) = self.b.split_at(mid);
        (Zip { a: al, b: bl }, Zip { a: ar, b: br })
    }
    fn seq_iter(self) -> Self::SeqIter {
        self.a.seq_iter().zip(self.b.seq_iter())
    }
    fn min_len(&self) -> usize {
        self.a.min_len().max(self.b.min_len())
    }
}

/// Parallel `enumerate` adaptor; `offset` keeps indices global across
/// splits.
pub struct Enumerate<P> {
    base: P,
    offset: usize,
}

impl<P> IndexedParallelIterator for Enumerate<P>
where
    P: IndexedParallelIterator,
{
    type Item = (usize, P::Item);
    type SeqIter = EnumerateSeq<P::SeqIter>;

    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(mid);
        (
            Enumerate {
                base: l,
                offset: self.offset,
            },
            Enumerate {
                base: r,
                offset: self.offset + mid,
            },
        )
    }
    fn seq_iter(self) -> Self::SeqIter {
        EnumerateSeq {
            inner: self.base.seq_iter(),
            next: self.offset,
        }
    }
    fn min_len(&self) -> usize {
        self.base.min_len()
    }
}

/// Sequential lowering of [`Enumerate`].
pub struct EnumerateSeq<I> {
    inner: I,
    next: usize,
}

impl<I: Iterator> Iterator for EnumerateSeq<I> {
    type Item = (usize, I::Item);
    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next()?;
        let i = self.next;
        self.next += 1;
        Some((i, item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPoolBuilder;

    fn at_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
        ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn collect_preserves_order_at_every_width() {
        let input: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = input.iter().map(|x| x * 3 + 1).collect();
        for width in [1, 2, 3, 8, 64] {
            let got: Vec<u64> = at_width(width, || input.par_iter().map(|&x| x * 3 + 1).collect());
            assert_eq!(got, expect, "width {width}");
        }
    }

    #[test]
    fn par_iter_mut_touches_every_element_once() {
        for width in [1, 2, 8] {
            let mut v = vec![0u32; 1000];
            at_width(width, || {
                let _: Vec<()> = v
                    .par_iter_mut()
                    .enumerate()
                    .map(|(i, x)| *x += i as u32 + 1)
                    .collect();
            });
            assert!(
                v.iter().enumerate().all(|(i, &x)| x == i as u32 + 1),
                "width {width}"
            );
        }
    }

    #[test]
    fn par_chunks_mut_hands_out_whole_chunks_in_order() {
        for width in [1, 2, 8] {
            for (n, size) in [(1000usize, 7usize), (64, 64), (65, 64), (3, 8), (0, 4)] {
                let mut v = vec![0usize; n];
                let mut seen = vec![0usize; n.div_ceil(size)];
                at_width(width, || {
                    let _: Vec<()> = v
                        .par_chunks_mut(size)
                        .zip(seen.par_iter_mut())
                        .enumerate()
                        .map(|(c, (chunk, len))| {
                            *len = chunk.len();
                            for (i, x) in chunk.iter_mut().enumerate() {
                                *x = c * size + i;
                            }
                        })
                        .collect();
                });
                assert_eq!(v, (0..n).collect::<Vec<_>>(), "width {width} n {n}");
                let expect: Vec<usize> = (0..n.div_ceil(size))
                    .map(|c| size.min(n - c * size))
                    .collect();
                assert_eq!(seen, expect, "width {width} n {n} size {size}");
            }
        }
    }

    #[test]
    fn enumerate_indices_are_global() {
        for width in [1, 2, 8] {
            let v = vec![7u8; 513];
            let idx: Vec<usize> =
                at_width(width, || v.par_iter().enumerate().map(|(i, _)| i).collect());
            assert_eq!(idx, (0..513).collect::<Vec<_>>(), "width {width}");
        }
    }

    #[test]
    fn fallible_collect_returns_lowest_index_error() {
        for width in [1, 2, 8] {
            let got: Result<Vec<usize>, usize> = at_width(width, || {
                (0..100usize)
                    .into_par_iter()
                    .map(|i| if i % 37 == 36 { Err(i) } else { Ok(i) })
                    .collect()
            });
            assert_eq!(got, Err(36), "width {width}");
            let ok: Result<Vec<usize>, usize> =
                at_width(width, || (0..100usize).into_par_iter().map(Ok).collect());
            assert_eq!(ok.unwrap(), (0..100).collect::<Vec<_>>(), "width {width}");
        }
    }

    #[test]
    fn zip_truncates_to_shorter() {
        let a = vec![1u32, 2, 3, 4, 5];
        let b = vec![10u32, 20, 30];
        for width in [1, 4] {
            let got: Vec<u32> = at_width(width, || {
                a.par_iter().zip(b.par_iter()).map(|(x, y)| x + y).collect()
            });
            assert_eq!(got, vec![11, 22, 33], "width {width}");
        }
    }

    #[test]
    fn empty_and_single_element_chains() {
        for width in [1, 8] {
            let empty: Vec<u8> = at_width(width, || {
                Vec::<u8>::new().into_par_iter().map(|x| x).collect()
            });
            assert!(empty.is_empty());
            let one: Vec<u8> = at_width(width, || {
                vec![42u8].into_par_iter().map(|x| x + 1).collect()
            });
            assert_eq!(one, vec![43]);
        }
    }

    #[test]
    fn balanced_chunks_cover_everything_in_order() {
        for (n, k) in [(10usize, 3usize), (1, 4), (17, 17), (100, 7), (0, 3)] {
            let chunks = balanced_chunks(ParRange(0..n), k);
            let flat: Vec<usize> = chunks.into_iter().flat_map(|c| c.seq_iter()).collect();
            assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} k={k}");
        }
    }

    /// Chunk lengths the plan gives a job of `n` items at `width` under
    /// `min_len`; one chunk of `n` when the job runs inline.
    fn plan_lens(n: usize, width: usize, min_len: usize) -> Vec<usize> {
        match chunk_count(n, width, min_len) {
            0 | 1 => vec![n],
            k => balanced_chunks(ParRange(0..n), k)
                .iter()
                .map(IndexedParallelIterator::len)
                .collect(),
        }
    }

    #[test]
    fn chunk_plan_pins_exact_boundaries() {
        for (n, width, min_len, want) in [
            // Four chunks of the declared minimum.
            (16, 8, 4, vec![4; 4]),
            // `sort`'s lane pass at width 2: 8 blocks, two chunks of 4.
            (8, 2, 4, vec![4, 4]),
            // PRAM's p = 512 step under its 1024-processor minimum: inline.
            (512, 8, 1024, vec![512]),
            // Exactly one minimum's worth, or just under two: inline.
            (4, 8, 4, vec![4]),
            (7, 2, 4, vec![7]),
            // Long jobs stop at 4·width chunks, each at least ⌈n / 4w⌉.
            (256, 2, 4, vec![32; 8]),
            (16384, 8, 4, vec![512; 32]),
            (10, 2, 1, vec![2; 5]),
            (1000, 2, 1, vec![125; 8]),
            // An uneven cut: ⌈11 / 8⌉ = 2, so five chunks, the first one
            // carrying the remainder.
            (11, 2, 1, vec![3, 2, 2, 2, 2]),
            (0, 8, 1, vec![0]),
            (1, 8, 1, vec![1]),
        ] {
            assert_eq!(
                plan_lens(n, width, min_len),
                want,
                "n={n} width={width} min_len={min_len}"
            );
        }
    }

    #[test]
    fn zip_keeps_the_larger_minimum_through_map_and_enumerate() {
        let a = vec![0u8; 100];
        let b = vec![0u8; 100];
        let plain = a.par_iter().zip(b.par_iter()).map(|x| x).enumerate();
        assert_eq!(plain.min_len(), 1);
        let left = a
            .par_iter()
            .with_min_len(7)
            .zip(b.par_iter().with_min_len(3))
            .map(|x| x)
            .enumerate();
        assert_eq!(left.min_len(), 7);
        let right = a
            .par_iter()
            .map(|x| x)
            .with_min_len(3)
            .zip(b.par_iter().enumerate().with_min_len(7))
            .enumerate()
            .map(|x| x);
        assert_eq!(right.min_len(), 7);
        // Splitting keeps the declaration on both halves.
        let (l, r) = right.split_at(40);
        assert_eq!((l.min_len(), r.min_len()), (7, 7));
    }

    #[test]
    fn a_job_within_its_minimum_runs_on_the_caller_at_width_8() {
        let caller = std::thread::current().id();
        for n in [1usize, 63, 64, 127] {
            let ids: Vec<std::thread::ThreadId> = at_width(8, || {
                (0..n)
                    .into_par_iter()
                    .with_min_len(64)
                    .map(|_| std::thread::current().id())
                    .collect()
            });
            assert_eq!(ids.len(), n);
            assert!(ids.iter().all(|&id| id == caller), "n={n}");
        }
    }

    mod plan_props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // Any (len, width, min_len) the plan can see yields at most
            // 4·width chunks, each holding at least `min_len` items unless
            // the job runs inline, that concatenate in order to the
            // identity permutation — the cutting path run_chunks takes.
            #[test]
            fn planned_chunks_are_identity_permutation(
                len in 0usize..5_000,
                width in 2usize..16,
                min_len in 1usize..2_000,
            ) {
                let k = chunk_count(len, width, min_len);
                prop_assert!(k <= 4 * width);
                if k > 1 {
                    let chunks = balanced_chunks(ParRange(0..len), k);
                    prop_assert_eq!(chunks.len(), k);
                    prop_assert!(chunks.iter().all(|c| c.len() >= min_len));
                    let flat: Vec<usize> =
                        chunks.into_iter().flat_map(|c| c.seq_iter()).collect();
                    prop_assert_eq!(flat, (0..len).collect::<Vec<_>>());
                } else {
                    // Inline: fewer than two minimums' worth, or too short
                    // for two ⌈len / 4·width⌉ chunks.
                    prop_assert!(len < 2 * min_len.max(len.div_ceil(4 * width)));
                }
            }

            // End to end through the stealing pool: a parallel collect at a
            // random width is the identity map, i.e. stealing and splitting
            // never reorder, drop, or duplicate elements.
            #[test]
            fn stolen_collect_is_identity(
                len in 0usize..3_000,
                width in 1usize..12,
            ) {
                let got: Vec<usize> = crate::ThreadPoolBuilder::new()
                    .num_threads(width)
                    .build()
                    .unwrap()
                    .install(|| (0..len).into_par_iter().map(|i| i).collect());
                prop_assert_eq!(got, (0..len).collect::<Vec<_>>());
            }
        }
    }
}
