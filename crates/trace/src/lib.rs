//! # pbw-trace
//!
//! Superstep cost-trace observability for the parallel-bandwidth workspace.
//!
//! Every bound in the paper is a statement about *per-superstep* model costs
//! (`max(w, g·h, L)` vs `max(w, h, c_m, L)`), but an engine run normally
//! reports only totals. This crate defines one structured [`TraceEvent`] per
//! superstep — the exact [`SuperstepProfile`], per-processor traffic, the
//! [`Breakdown`] naming which term bound the step under each model family,
//! per-slot penalty contributions, and the superstep's price under every
//! model — plus a pluggable [`TraceSink`] the engines emit into.
//!
//! Three sinks are provided:
//!
//! * [`NullSink`] — the default. [`TraceSink::enabled`] returns `false`, so
//!   instrumented engines skip event construction entirely: tracing is
//!   zero-cost when off (verified by the A/B benchmark in `crates/bench`).
//! * [`RecordingSink`] — collects events in memory; what the conformance and
//!   property tests read back.
//! * [`JsonlSink`] — streams one JSON object per event to a file; wired into
//!   the `reproduce` binary behind `--trace <path>`.
//!
//! Engines capture the *global default sink* ([`global_sink`]) when they are
//! constructed, so `reproduce --trace` needs no plumbing through experiment
//! code; tests inject sinks explicitly (`set_sink` on the engines) to stay
//! isolated from the global.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use pbw_models::breakdown::{Breakdown, Dominant};
use pbw_models::{CostSummary, MachineParams, PenaltyFn, SuperstepProfile};

/// Which engine (or pipeline stage) emitted an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSource {
    /// The message-passing superstep engine (`pbw-sim`).
    Bsp,
    /// The shared-memory phase engine (`pbw-sim`).
    Qsm,
    /// The PRAM-family simulator (`pbw-pram`).
    Pram,
    /// A scheduler's slot assignment audited offline (`pbw-core`).
    Schedule,
    /// The dynamic router of Section 6.2 (`pbw-adversary`).
    Router,
}

impl TraceSource {
    /// Stable lowercase name used in the JSON-lines output.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceSource::Bsp => "bsp",
            TraceSource::Qsm => "qsm",
            TraceSource::Pram => "pram",
            TraceSource::Schedule => "schedule",
            TraceSource::Router => "router",
        }
    }
}

impl std::fmt::Display for TraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-superstep fault-injection counters, stamped on events emitted by an
/// engine with a delivery hook attached (see `pbw-sim::hook`). `None` on the
/// event means the run was a reliable network — the schema distinguishes "no
/// faults occurred" (all-zero counters) from "faults were impossible".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct FaultCounters {
    /// Messages the network lost this superstep.
    pub dropped: u64,
    /// Spurious copies created this superstep (they arrive next superstep).
    pub duplicated: u64,
    /// Messages diverted into the delay queue this superstep.
    pub delayed: u64,
    /// Messages whose injection slot the router displaced.
    pub displaced: u64,
    /// Processors stalled for the whole superstep.
    pub stalled_procs: u64,
    /// Previously delayed/duplicated payloads that arrived at this boundary.
    pub late_arrivals: u64,
    /// Payloads destroyed this superstep because their destination was
    /// crash-stopped when custody would have transferred.
    pub crashed: u64,
    /// Processors crash-stopped for the whole superstep.
    pub crashed_procs: u64,
    /// Retransmission round this superstep belongs to (0 = original send;
    /// stamped by the recovery protocol in `pbw-core`, not the engines).
    pub retransmit_round: u32,
}

impl FaultCounters {
    /// Whether every counter is zero (the event would be indistinguishable
    /// from a fault-free superstep apart from the hook being attached).
    pub fn is_zero(&self) -> bool {
        *self == FaultCounters::default()
    }
}

/// A checkpoint/rollback annotation stamped on the superstep event at which
/// the recovery driver acted. Absent on ordinary supersteps; the JSON-lines
/// schema renders it as a `"recovery"` object so soak-harness diffs see
/// recovery decisions, not just their cost side effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum RecoveryMark {
    /// A superstep-consistent snapshot was committed at this boundary.
    Checkpoint {
        /// Total payloads captured in the snapshot (inboxes + pending
        /// network) — the state volume the checkpoint h-relation moved.
        payloads: u64,
    },
    /// The machine was rolled back to the snapshot taken at `to` before
    /// this superstep ran.
    Rollback {
        /// Superstep index the machine rewound from.
        from: u64,
        /// Superstep index of the restored snapshot.
        to: u64,
    },
}

/// One structured record per superstep (or QSM phase, PRAM step, router
/// batch): everything needed to re-derive the step's price under every model.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TraceEvent {
    /// Emitting engine.
    pub source: TraceSource,
    /// Free-form label (experiment id, scheduler name, …); empty if unset.
    pub label: String,
    /// 0-based superstep / phase / batch index within the run.
    pub superstep: u64,
    /// Machine configuration the step was priced under.
    pub params: MachineParams,
    /// The exact profile the engine recorded for this step.
    pub profile: SuperstepProfile,
    /// Messages sent by each processor this step (empty when the emitter
    /// only knows aggregates, e.g. offline schedule audits).
    pub per_proc_sent: Vec<u64>,
    /// Messages received by each processor this step.
    pub per_proc_recv: Vec<u64>,
    /// Largest number of injections any single processor charged to one
    /// slot — the BSP(m) pipelining rule requires this to be ≤ 1.
    pub max_proc_slot_injections: u64,
    /// Messages actually delivered at the superstep boundary.
    pub delivered: u64,
    /// All cost terms of this step under both model families.
    pub breakdown: Breakdown,
    /// Which term bound the step under BSP(g).
    pub dominant_bsp_g: Dominant,
    /// Which term bound the step under BSP(m) with the exponential penalty.
    pub dominant_bsp_m: Dominant,
    /// This single step priced under every model of the paper.
    pub costs: CostSummary,
    /// Per-slot exponential penalty charges `f_m(m_t)`, one per step `t` of
    /// the superstep (so `Σ slot_penalties = c_m`).
    pub slot_penalties: Vec<f64>,
    /// Fault-injection counters; `None` when the emitting engine ran without
    /// a delivery hook (reliable network).
    pub faults: Option<FaultCounters>,
    /// Checkpoint/rollback annotation; `None` on ordinary supersteps.
    pub recovery: Option<RecoveryMark>,
}

impl TraceEvent {
    /// Build the full event for one recorded superstep: prices the profile
    /// under every model, computes the term breakdown and the per-slot
    /// penalty contributions.
    #[allow(clippy::too_many_arguments)]
    pub fn for_superstep(
        source: TraceSource,
        label: impl Into<String>,
        superstep: u64,
        params: MachineParams,
        profile: SuperstepProfile,
        per_proc_sent: Vec<u64>,
        per_proc_recv: Vec<u64>,
        max_proc_slot_injections: u64,
        delivered: u64,
    ) -> Self {
        let breakdown = Breakdown::of(params, &profile);
        let costs = CostSummary::price(params, std::slice::from_ref(&profile));
        let slot_penalties = profile
            .injections
            .iter()
            .map(|&m_t| PenaltyFn::Exponential.charge(m_t, params.m))
            .collect();
        TraceEvent {
            source,
            label: label.into(),
            superstep,
            params,
            profile,
            per_proc_sent,
            per_proc_recv,
            max_proc_slot_injections,
            delivered,
            dominant_bsp_g: breakdown.dominant_bsp_g(),
            dominant_bsp_m: breakdown.dominant_bsp_m(),
            breakdown,
            costs,
            slot_penalties,
            faults: None,
            recovery: None,
        }
    }

    /// Stamp fault counters on the event (builder-style, used by engines
    /// running with a delivery hook).
    pub fn with_faults(mut self, faults: FaultCounters) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Stamp a checkpoint/rollback annotation on the event (builder-style,
    /// used by engines driven under a recovery protocol).
    pub fn with_recovery(mut self, mark: RecoveryMark) -> Self {
        self.recovery = Some(mark);
        self
    }

    /// Render the event as one line of JSON (no trailing newline).
    ///
    /// Hand-written rather than driven by serde: the offline `serde` shim
    /// (see `crates/shims/README.md`) only provides no-op derives, and the
    /// schema here is small and flat enough that explicit rendering doubles
    /// as its documentation (mirrored in `crates/trace/README.md`).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        push_str_field(&mut s, "source", self.source.as_str());
        s.push(',');
        push_str_field(&mut s, "label", &self.label);
        s.push_str(&format!(",\"superstep\":{}", self.superstep));
        s.push_str(&format!(
            ",\"params\":{{\"p\":{},\"g\":{},\"m\":{},\"l\":{}}}",
            self.params.p, self.params.g, self.params.m, self.params.l
        ));
        let p = &self.profile;
        s.push_str(&format!(
            ",\"profile\":{{\"max_work\":{},\"max_sent\":{},\"max_received\":{},\
             \"total_messages\":{},\"injections\":{},\"max_reads\":{},\
             \"max_writes\":{},\"max_contention\":{}}}",
            p.max_work,
            p.max_sent,
            p.max_received,
            p.total_messages,
            json_u64_array(&p.injections),
            p.max_reads,
            p.max_writes,
            p.max_contention
        ));
        s.push_str(",\"per_proc_sent\":");
        s.push_str(&json_u64_array(&self.per_proc_sent));
        s.push_str(",\"per_proc_recv\":");
        s.push_str(&json_u64_array(&self.per_proc_recv));
        s.push_str(&format!(
            ",\"max_proc_slot_injections\":{},\"delivered\":{}",
            self.max_proc_slot_injections, self.delivered
        ));
        let b = &self.breakdown;
        s.push_str(&format!(
            ",\"breakdown\":{{\"work\":{},\"local_traffic\":{},\"global_traffic\":{},\
             \"bandwidth\":{},\"ss_bandwidth\":{},\"contention\":{},\"latency\":{}}}",
            json_f64(b.work),
            json_f64(b.local_traffic),
            json_f64(b.global_traffic),
            json_f64(b.bandwidth),
            json_f64(b.ss_bandwidth),
            json_f64(b.contention),
            json_f64(b.latency)
        ));
        s.push_str(&format!(
            ",\"dominant\":{{\"bsp_g\":\"{}\",\"bsp_m\":\"{}\"}}",
            self.dominant_bsp_g, self.dominant_bsp_m
        ));
        let c = &self.costs;
        s.push_str(&format!(
            ",\"costs\":{{\"bsp_g\":{},\"bsp_m_linear\":{},\"bsp_m_exp\":{},\
             \"bsp_m_self\":{},\"qsm_g\":{},\"qsm_m_linear\":{},\"qsm_m_exp\":{}}}",
            json_f64(c.bsp_g),
            json_f64(c.bsp_m_linear),
            json_f64(c.bsp_m_exp),
            json_f64(c.bsp_m_self),
            json_f64(c.qsm_g),
            json_f64(c.qsm_m_linear),
            json_f64(c.qsm_m_exp)
        ));
        s.push_str(",\"slot_penalties\":[");
        for (i, v) in self.slot_penalties.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&json_f64(*v));
        }
        s.push(']');
        if let Some(fc) = &self.faults {
            s.push_str(&format!(
                ",\"faults\":{{\"dropped\":{},\"duplicated\":{},\"delayed\":{},\
                 \"displaced\":{},\"stalled_procs\":{},\"late_arrivals\":{},\
                 \"crashed\":{},\"crashed_procs\":{},\"retransmit_round\":{}}}",
                fc.dropped,
                fc.duplicated,
                fc.delayed,
                fc.displaced,
                fc.stalled_procs,
                fc.late_arrivals,
                fc.crashed,
                fc.crashed_procs,
                fc.retransmit_round
            ));
        }
        match &self.recovery {
            Some(RecoveryMark::Checkpoint { payloads }) => {
                s.push_str(&format!(
                    ",\"recovery\":{{\"kind\":\"checkpoint\",\"payloads\":{payloads}}}"
                ));
            }
            Some(RecoveryMark::Rollback { from, to }) => {
                s.push_str(&format!(
                    ",\"recovery\":{{\"kind\":\"rollback\",\"from\":{from},\"to\":{to}}}"
                ));
            }
            None => {}
        }
        s.push('}');
        s
    }
}

fn push_str_field(s: &mut String, key: &str, value: &str) {
    s.push('"');
    s.push_str(key);
    s.push_str("\":\"");
    for ch in value.chars() {
        match ch {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
    s.push('"');
}

fn json_u64_array(xs: &[u64]) -> String {
    let mut s = String::with_capacity(xs.len() * 4 + 2);
    s.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&x.to_string());
    }
    s.push(']');
    s
}

/// JSON has no Infinity/NaN literal; saturated penalties render as `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Lock a sink mutex, recovering from poisoning. Trace data is append-only
/// metadata: a thread that panicked mid-`record` left at worst one garbled
/// event, which must not cascade assertion failures into unrelated traced
/// tests sharing the process-wide sink.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where trace events go. Implementations must be shareable across the
/// engines' rayon workers, hence `Send + Sync`; `record` takes `&self` so a
/// sink behind an `Arc` needs interior mutability.
pub trait TraceSink: Send + Sync {
    /// Whether emitters should construct events at all. Engines check this
    /// once per superstep and skip every per-event allocation when `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Accept one event.
    fn record(&self, event: TraceEvent);
}

/// The default sink: tracing off. [`TraceSink::enabled`] is `false`, so
/// instrumented hot paths never reach [`TraceSink::record`].
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: TraceEvent) {}
}

/// In-memory sink for tests and the breakdown APIs.
#[derive(Debug, Default)]
pub struct RecordingSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl RecordingSink {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clone of everything recorded so far, in emission order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        lock_unpoisoned(&self.events).clone()
    }

    /// Drain everything recorded so far.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *lock_unpoisoned(&self.events))
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.events).len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RecordingSink {
    fn record(&self, event: TraceEvent) {
        lock_unpoisoned(&self.events).push(event);
    }
}

/// Streams one JSON object per event to a writer, newline-delimited.
pub struct JsonlSink {
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// Create (truncate) `path` and stream events into it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(file)))
    }

    /// Stream events into an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            writer: Mutex::new(BufWriter::new(writer)),
        }
    }

    /// Flush buffered lines to the underlying writer.
    pub fn flush(&self) -> io::Result<()> {
        lock_unpoisoned(&self.writer).flush()
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: TraceEvent) {
        let mut w = lock_unpoisoned(&self.writer);
        // Trace output is best-effort: a full disk should not abort the
        // experiment being traced.
        let _ = writeln!(w, "{}", event.to_json());
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = lock_unpoisoned(&self.writer).flush();
    }
}

static GLOBAL_SINK: Mutex<Option<Arc<dyn TraceSink>>> = Mutex::new(None);

fn null_sink() -> Arc<dyn TraceSink> {
    static NULL: OnceLock<Arc<NullSink>> = OnceLock::new();
    let null: Arc<dyn TraceSink> = NULL.get_or_init(|| Arc::new(NullSink)).clone();
    null
}

/// Install `sink` as the process-wide default that engines capture at
/// construction time. Returns the previously installed sink, if any.
pub fn set_global_sink(sink: Arc<dyn TraceSink>) -> Option<Arc<dyn TraceSink>> {
    lock_unpoisoned(&GLOBAL_SINK).replace(sink)
}

/// Reset the process-wide default back to [`NullSink`].
pub fn clear_global_sink() -> Option<Arc<dyn TraceSink>> {
    lock_unpoisoned(&GLOBAL_SINK).take()
}

/// The current process-wide default sink ([`NullSink`] unless
/// [`set_global_sink`] was called). Engines call this once in their
/// constructors; per-superstep paths only touch the captured `Arc`.
pub fn global_sink() -> Arc<dyn TraceSink> {
    lock_unpoisoned(&GLOBAL_SINK)
        .clone()
        .unwrap_or_else(null_sink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbw_models::ProfileBuilder;

    fn sample_event(label: &str) -> TraceEvent {
        let params = MachineParams::from_gap(64, 8, 16);
        let mut b = ProfileBuilder::new();
        b.record_work(5).record_traffic(3, 2);
        b.record_injection(0)
            .record_injection(0)
            .record_injection(2);
        TraceEvent::for_superstep(
            TraceSource::Bsp,
            label,
            7,
            params,
            b.build(),
            vec![3, 0],
            vec![1, 2],
            1,
            3,
        )
    }

    #[test]
    fn for_superstep_prices_and_decomposes() {
        let ev = sample_event("unit");
        // g·h = 8·3 = 24; c_m = 3 occupied-slot charges (all m_t ≤ m).
        assert_eq!(ev.breakdown.local_traffic, 24.0);
        assert_eq!(ev.slot_penalties, vec![1.0, 0.0, 1.0]);
        let c_m: f64 = ev.slot_penalties.iter().sum();
        assert_eq!(ev.breakdown.bandwidth, c_m);
        // Single-step pricing matches CostSummary on the same profile.
        let direct = CostSummary::price(ev.params, std::slice::from_ref(&ev.profile));
        assert_eq!(ev.costs, direct);
        assert_eq!(ev.dominant_bsp_g, Dominant::Traffic);
        // BSP(m): max(w=5, h=3, c_m=2, L=16) → L binds.
        assert_eq!(ev.dominant_bsp_m, Dominant::Latency);
    }

    #[test]
    fn json_line_is_well_formed() {
        let ev = sample_event("quote\"me");
        let line = ev.to_json();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"source\":\"bsp\""));
        assert!(line.contains("\"label\":\"quote\\\"me\""));
        assert!(line.contains("\"injections\":[2,0,1]"));
        assert!(line.contains("\"dominant\":{\"bsp_g\":\"h\",\"bsp_m\":\"L\"}"));
        // Balanced braces and brackets (no nested strings with braces here
        // beyond the escaped label, which contains none).
        let opens = line.matches('{').count();
        let closes = line.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn saturated_penalty_renders_null() {
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn recording_sink_accumulates_in_order() {
        let sink = RecordingSink::new();
        assert!(sink.is_empty());
        sink.record(sample_event("a"));
        sink.record(sample_event("b"));
        assert_eq!(sink.len(), 2);
        let events = sink.take();
        assert_eq!(events[0].label, "a");
        assert_eq!(events[1].label, "b");
        assert!(sink.is_empty());
    }

    #[test]
    fn null_sink_is_disabled() {
        assert!(!NullSink.enabled());
        let sink = RecordingSink::new();
        assert!(sink.enabled());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // A writer that counts newlines through a shared handle.
        struct CountingWriter(Arc<AtomicUsize>);
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.fetch_add(
                    buf.iter().filter(|&&b| b == b'\n').count(),
                    Ordering::SeqCst,
                );
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let lines = Arc::new(AtomicUsize::new(0));
        let sink = JsonlSink::new(Box::new(CountingWriter(lines.clone())));
        sink.record(sample_event("x"));
        sink.record(sample_event("y"));
        sink.flush().unwrap();
        assert_eq!(lines.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn fault_counters_render_only_when_present() {
        let plain = sample_event("plain");
        assert!(!plain.to_json().contains("\"faults\""));
        let faulty = sample_event("faulty").with_faults(FaultCounters {
            dropped: 2,
            late_arrivals: 1,
            retransmit_round: 3,
            ..Default::default()
        });
        let line = faulty.to_json();
        assert!(line.contains(
            "\"faults\":{\"dropped\":2,\"duplicated\":0,\"delayed\":0,\"displaced\":0,\
             \"stalled_procs\":0,\"late_arrivals\":1,\"crashed\":0,\"crashed_procs\":0,\
             \"retransmit_round\":3}"
        ));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn recovery_marks_render_only_when_present() {
        let plain = sample_event("plain");
        assert!(!plain.to_json().contains("\"recovery\""));
        let ck = sample_event("ck").with_recovery(RecoveryMark::Checkpoint { payloads: 12 });
        assert!(ck
            .to_json()
            .contains("\"recovery\":{\"kind\":\"checkpoint\",\"payloads\":12}"));
        let rb = sample_event("rb").with_recovery(RecoveryMark::Rollback { from: 9, to: 6 });
        let line = rb.to_json();
        assert!(line.contains("\"recovery\":{\"kind\":\"rollback\",\"from\":9,\"to\":6}"));
        assert_eq!(line.matches('{').count(), line.matches('}').count());
    }

    #[test]
    fn zero_counters_are_distinguishable_from_no_hook() {
        assert!(FaultCounters::default().is_zero());
        let ev = sample_event("hooked").with_faults(FaultCounters::default());
        assert_eq!(ev.faults, Some(FaultCounters::default()));
        assert!(ev.to_json().contains("\"faults\":{\"dropped\":0"));
    }

    #[test]
    fn recording_sink_survives_a_poisoning_panic() {
        let sink = Arc::new(RecordingSink::new());
        sink.record(sample_event("before"));
        // Poison the mutex: panic while holding the lock on another thread.
        let poisoner = sink.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.events.lock().unwrap();
            panic!("poison the recording sink");
        })
        .join();
        // Every accessor must keep working on the poisoned lock.
        sink.record(sample_event("after"));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.snapshot().len(), 2);
        let events = sink.take();
        assert_eq!(events[0].label, "before");
        assert_eq!(events[1].label, "after");
    }

    #[test]
    fn global_sink_defaults_to_null_and_round_trips() {
        // Serialize against other tests touching the global: this test is
        // the only one in this crate that does.
        let before = clear_global_sink();
        assert!(!global_sink().enabled());
        let rec = Arc::new(RecordingSink::new());
        set_global_sink(rec.clone());
        assert!(global_sink().enabled());
        global_sink().record(sample_event("via-global"));
        assert_eq!(rec.len(), 1);
        clear_global_sink();
        assert!(!global_sink().enabled());
        if let Some(prev) = before {
            set_global_sink(prev);
        }
    }
}
