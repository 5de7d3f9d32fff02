//! Trace-layer conformance: every event a [`RecordingSink`] captures from a
//! real engine run must be a *faithful* account of that run.
//!
//! Three invariants, checked at quickstart scale:
//!
//! 1. **Message conservation** — the injection histogram sums to exactly the
//!    messages the engine reports delivered (`Σ_t m_t == delivered`).
//! 2. **Injection rule** — no processor ever injects more than one message
//!    in one machine step (`max_proc_slot_injections ≤ 1` for rule-abiding
//!    programs).
//! 3. **Cost reproducibility** — re-pricing the *recorded* profiles under
//!    each cost model reproduces the engine's own run totals bit-for-bit:
//!    the trace is sufficient to audit the run, no engine internals needed.

mod common;

use std::sync::Arc;

use common::{assert_conserves_messages, quickstart_params, run_bsp_hot_sender};
use parallel_bandwidth::models::{
    BspG, BspM, CostModel, PenaltyFn, QsmG, QsmM, SelfSchedulingBspM,
};
use parallel_bandwidth::sim::{CostSummary, QsmMachine};
use parallel_bandwidth::trace::{RecordingSink, TraceSource};

#[test]
fn bsp_trace_conserves_messages_and_respects_injection_rule() {
    let params = quickstart_params();
    let sink = Arc::new(RecordingSink::new());
    let machine = run_bsp_hot_sender(params, 4096, 8, 3, sink.clone());
    let events = sink.take();
    assert_eq!(events.len(), 3, "one event per superstep");
    for (i, ev) in events.iter().enumerate() {
        assert_eq!(ev.source, TraceSource::Bsp);
        assert_eq!(ev.label, "conformance-bsp");
        assert_eq!(ev.superstep, i as u64);
        assert_eq!(ev.params, params);
        assert_conserves_messages(ev);
        // Auto-slot assignment pipelines sends: the engine must never let a
        // processor inject twice in one step, and the trace must prove it.
        assert_eq!(
            ev.max_proc_slot_injections, 1,
            "superstep {i} violates one-injection-per-processor-per-step"
        );
        // The recorded event mirrors the profile the engine kept.
        assert_eq!(ev.profile, machine.profiles()[i]);
    }
}

#[test]
fn bsp_costs_recomputed_from_trace_match_engine_totals() {
    let params = quickstart_params();
    let sink = Arc::new(RecordingSink::new());
    let machine = run_bsp_hot_sender(params, 4096, 8, 3, sink.clone());
    let events = sink.take();
    let profiles: Vec<_> = events.iter().map(|ev| ev.profile.clone()).collect();

    // Re-price the run under every model from the *trace*, then ask the
    // engine for its own totals — they must agree exactly (same floats, same
    // summation order).
    let models: Vec<Box<dyn CostModel>> = vec![
        Box::new(BspG {
            g: params.g,
            l: params.l,
        }),
        Box::new(BspM {
            m: params.m,
            l: params.l,
            penalty: PenaltyFn::Linear,
        }),
        Box::new(BspM {
            m: params.m,
            l: params.l,
            penalty: PenaltyFn::Exponential,
        }),
        Box::new(SelfSchedulingBspM {
            m: params.m,
            l: params.l,
        }),
    ];
    for model in &models {
        let from_trace = model.run_cost(&profiles);
        let from_engine = machine.cost(model.as_ref());
        assert_eq!(
            from_trace.to_bits(),
            from_engine.to_bits(),
            "trace-recomputed cost {from_trace} != engine cost {from_engine}"
        );
    }

    // Each event's embedded CostSummary is exactly the summary of its own
    // superstep.
    for ev in &events {
        let expect = CostSummary::price(params, std::slice::from_ref(&ev.profile));
        assert_eq!(ev.costs, expect);
    }
}

#[test]
fn qsm_trace_conserves_requests_and_reprices_exactly() {
    // Quickstart-scale shared-memory run: a write phase, a concurrent-read
    // phase (contention p/8), and a scatter-read phase.
    let params = quickstart_params();
    let p = params.p;
    let sink = Arc::new(RecordingSink::new());
    let mut qsm: QsmMachine<i64> = QsmMachine::new(params, 2 * p, |_| 0);
    qsm.set_sink(sink.clone())
        .set_trace_label("conformance-qsm");
    qsm.phase(|pid, _s, _res, ctx| ctx.write(pid, pid as i64));
    qsm.phase(|pid, _s, _res, ctx| ctx.read(pid / 8));
    qsm.phase(|pid, _s, _res, ctx| {
        for k in 0..4u64 {
            ctx.read((pid + k as usize * 7) % p);
        }
    });
    let events = sink.take();
    assert_eq!(events.len(), 3);
    for (i, ev) in events.iter().enumerate() {
        assert_eq!(ev.source, TraceSource::Qsm);
        assert_eq!(ev.superstep, i as u64);
        // Conservation for QSM: the histogram covers every request served.
        let injected: u64 = ev.profile.injections.iter().sum();
        assert_eq!(injected, ev.delivered);
        let issued: u64 = ev.per_proc_sent.iter().sum();
        assert_eq!(issued, ev.delivered);
        assert_eq!(ev.max_proc_slot_injections, 1);
        assert_eq!(ev.profile, qsm.profiles()[i]);
    }
    // Phase 2: all p processors hit p/8 cells, 8 readers per cell.
    assert_eq!(events[1].profile.max_contention, 8);

    // Bit-exact re-pricing from the recorded profiles.
    let profiles: Vec<_> = events.iter().map(|ev| ev.profile.clone()).collect();
    let models: Vec<Box<dyn CostModel>> = vec![
        Box::new(QsmG { g: params.g }),
        Box::new(QsmM {
            m: params.m,
            penalty: PenaltyFn::Linear,
        }),
        Box::new(QsmM {
            m: params.m,
            penalty: PenaltyFn::Exponential,
        }),
    ];
    for model in &models {
        assert_eq!(
            model.run_cost(&profiles).to_bits(),
            qsm.cost(model.as_ref()).to_bits()
        );
    }
}

#[test]
fn trace_breakdown_slot_penalties_sum_to_bandwidth_term() {
    // The per-slot penalty vector in an event is the exact decomposition of
    // its exponential bandwidth term: summed in slot order, exactly as
    // `total_charge` sums, Σ_t f_m(m_t) == breakdown.bandwidth.
    let params = quickstart_params();
    let sink = Arc::new(RecordingSink::new());
    let _machine = run_bsp_hot_sender(params, 2048, 4, 2, sink.clone());
    for ev in sink.take() {
        assert_eq!(ev.slot_penalties.len(), ev.profile.injections.len());
        let total: f64 = ev.slot_penalties.iter().sum();
        let expect = PenaltyFn::Exponential.total_charge(&ev.profile.injections, params.m);
        assert_eq!(total, expect, "slot penalties sum != c_m");
    }
}
