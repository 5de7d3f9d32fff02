//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every op is one root span; each timed call into a crate is a child of
//! whatever span is open when it starts (the scheduler wrapper's spans open
//! inside a recovery step, so they nest under it). Spans are kept in a
//! per-thread buffer and written out when the run ends. When tracing is
//! off, [`span`] only runs its closure and the root span's duration is
//! still measured, since the op times are the end-to-end metric.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `sim.bsp.dense`.
    pub name: &'static str,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for an op's root.
    pub parent: Option<usize>,
    /// Op the span belongs to.
    pub op: u32,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        op: 0,
    });
}

fn now_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turn span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

fn begin(name: &'static str) -> Option<usize> {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return None;
        }
        let span = Span {
            name,
            start_ns: now_ns(t.epoch),
            end_ns: 0,
            parent: t.open.last().copied(),
            op: t.op,
        };
        t.spans.push(span);
        let idx = t.spans.len() - 1;
        t.open.push(idx);
        Some(idx)
    })
}

fn end(idx: Option<usize>, name: Option<&'static str>) {
    let Some(idx) = idx else { return };
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end_ns = now_ns(t.epoch);
        let popped = t.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        let span = &mut t.spans[idx];
        span.end_ns = end_ns;
        if let Some(name) = name {
            span.name = name;
        }
    });
}

/// Run `f` inside a span called `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let idx = begin(name);
    let out = f();
    end(idx, None);
    out
}

/// Run `f` inside a span named after its result (for calls such as a
/// recovery step, whose kind is known only once it returns).
pub fn span_named<R>(f: impl FnOnce() -> R, name: impl FnOnce(&R) -> &'static str) -> R {
    let idx = begin("pending");
    let out = f();
    let name = idx.map(|_| name(&out));
    end(idx, name);
    out
}

/// Run op number `id` as a root span; returns its result and wall time.
pub fn op<R>(id: u32, f: impl FnOnce() -> R) -> (R, Duration) {
    TRACER.with(|t| t.borrow_mut().op = id);
    let idx = begin("op");
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed();
    end(idx, None);
    (out, wall)
}

/// Take every recorded span, leaving the buffer empty.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are merged first, so
/// overlapping or adjacent children are not counted twice, and clipped to
/// the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - covered(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Totals of one span name over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Per-name totals, in name order.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += self_ns;
    }
    out
}

/// Share of each op's wall time covered by its child spans, one value per
/// root span, in op order.
pub fn child_coverage(spans: &[Span]) -> Vec<f64> {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.parent.is_none())
        .map(|(s, self_ns)| {
            let d = s.duration_ns().max(1) as f64;
            1.0 - self_ns as f64 / d
        })
        .collect()
}

/// Write spans as JSON lines (line number = span index).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
            s.op, s.name, s.start_ns, s.end_ns, parent
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_with_nested_children() {
        // op [0,100) > a [10,60) > b [20,40); c [70,90) under op.
        let spans = vec![
            sp("op", 0, 100, None),
            sp("a", 10, 60, Some(0)),
            sp("b", 20, 40, Some(1)),
            sp("c", 70, 90, Some(0)),
        ];
        // The grandchild only reduces its own parent's self time.
        assert_eq!(self_times(&spans), vec![30, 30, 20, 20]);
        assert_eq!(child_coverage(&spans), vec![0.7]);
    }

    #[test]
    fn self_time_with_adjacent_and_overlapping_children() {
        // Adjacent children [0,30) and [30,50) cover 50; an overlapping
        // third [40,60) adds only 10; a child running past the parent's
        // end is clipped.
        let spans = vec![
            sp("op", 0, 80, None),
            sp("x", 0, 30, Some(0)),
            sp("y", 30, 50, Some(0)),
            sp("z", 40, 60, Some(0)),
            sp("w", 75, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 80 - 60 - 5);
        let t = totals(&spans);
        assert_eq!(t["op"].self_ns, 15);
        assert_eq!(t["x"].total_ns, 30);
        assert_eq!(t["w"].self_ns, 15);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![sp("op", 5, 5, None), sp("leaf", 7, 19, None)];
        assert_eq!(self_times(&spans), vec![0, 12]);
        assert_eq!(child_coverage(&spans), vec![1.0, 0.0]);
    }

    #[test]
    fn recorded_spans_nest_and_are_named() {
        set_enabled(true);
        let (v, _) = op(3, || {
            span("outer", || {
                span_named(|| 41 + 1, |r| if *r == 42 { "inner" } else { "bad" })
            })
        });
        set_enabled(false);
        let spans = take();
        assert_eq!(v, 42);
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["op", "outer", "inner"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
        // Disabled: nothing is recorded, results still flow.
        assert_eq!(span("ignored", || 7), 7);
        assert!(take().is_empty());
    }
}
