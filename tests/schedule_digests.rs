//! Golden start-table digests for every scheduler.
//!
//! Each scheduler draws its offsets from per-processor ChaCha streams keyed
//! by `(seed, pid)`. Changing how a schedule is stored must not change
//! which slot any message gets, so this suite pins an FNV-1a digest of each
//! scheduler's start table — processor by processor, the row length and
//! then its slots — on a unit Zipf relation and a multi-flit
//! variable-length relation at two seeds each, and of both QSM request
//! schedules on a fixed batch. The recorded values were computed when
//! `Schedule::starts` was still one vector per processor.

use parallel_bandwidth::sched::flits::{OverheadSend, UnbalancedFlitSend};
use parallel_bandwidth::sched::qsm_sched::{
    schedule_requests, schedule_requests_consecutive, RequestBatch,
};
use parallel_bandwidth::sched::schedulers::TemplateSend;
use parallel_bandwidth::sched::workload::{variable_length, zipf_senders};
use parallel_bandwidth::sched::{
    EagerSend, OfflineOptimal, Scheduler, UnbalancedConsecutiveSend, UnbalancedGranularSend,
    UnbalancedSend,
};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }
}

/// Digest of a start table given as its per-processor rows.
fn digest<'a, R>(rows: impl Iterator<Item = R>) -> u64
where
    R: IntoIterator<Item = &'a u64>,
{
    rows.fold(Fnv::new(), |h, row| {
        let slots: Vec<u64> = row.into_iter().copied().collect();
        slots
            .iter()
            .fold(h.word(slots.len() as u64), |h, &s| h.word(s))
    })
    .0
}

const M: usize = 16;
const SCHED_SEED: u64 = 5;

fn unit_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(UnbalancedSend::new(0.3)),
        Box::new(UnbalancedConsecutiveSend::new(0.3)),
        Box::new(UnbalancedGranularSend::default()),
        Box::new(OfflineOptimal),
        Box::new(EagerSend),
        Box::new(TemplateSend::new(0.3, 3)),
        Box::new(UnbalancedFlitSend::new(0.3)),
    ]
}

fn flit_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![Box::new(EagerSend), Box::new(UnbalancedFlitSend::new(0.3))]
}

/// A fixed request batch: processor 0 is a hot requester, the rest ask
/// for 0–4 addresses each.
fn batch() -> RequestBatch {
    const MSIZE: usize = 97;
    let reqs = (0..64)
        .map(|i: usize| {
            let count = if i == 0 { 200 } else { i % 5 };
            (0..count).map(|k| (i * 7 + k * 13) % MSIZE).collect()
        })
        .collect();
    RequestBatch::new(reqs, MSIZE)
}

/// Every digest this suite pins, labelled `workload/seed/scheduler`.
fn digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for seed in [7u64, 11] {
        let relations = [
            ("zipf", zipf_senders(256, 16, 1.1, seed), unit_schedulers()),
            (
                "varlen",
                variable_length(128, 4, 3.0, seed),
                flit_schedulers(),
            ),
        ];
        for (name, wl, schedulers) in relations {
            for s in schedulers {
                let plan = s.schedule(&wl, M, SCHED_SEED);
                out.push((
                    format!("{name}/{seed}/{}", s.name()),
                    digest(plan.starts.iter()),
                ));
            }
            let plan = OverheadSend::new(0.3, 2).schedule(&wl, M, SCHED_SEED);
            out.push((
                format!("{name}/{seed}/Overhead-Send"),
                digest(plan.window_starts.iter()),
            ));
        }
    }
    let b = batch();
    out.push((
        "requests/window".to_string(),
        digest(schedule_requests(&b, 8, 0.3, 3).starts.iter()),
    ));
    out.push((
        "requests/consecutive".to_string(),
        digest(schedule_requests_consecutive(&b, 8, 0.3, 3).starts.iter()),
    ));
    out
}

#[test]
fn every_scheduler_keeps_its_recorded_start_table_digest() {
    // On unit messages the flit scheduler lays out exactly what
    // Unbalanced-Send does, and a 2-slot overhead makes every message a
    // 3-slot block laid out as Template-Send with separation 3 lays out
    // its slots: those pairs share a digest.
    let expected: &[(&str, u64)] = &[
        ("zipf/7/Unbalanced-Send", 0xe9f74305f1638761),
        ("zipf/7/Unbalanced-Consecutive-Send", 0xdd811c22ab8c2561),
        ("zipf/7/Unbalanced-Granular-Send", 0x011e4243b335720a),
        ("zipf/7/Offline-Optimal", 0x17eae4ae41b91c0e),
        ("zipf/7/Eager (oblivious)", 0x6b4088ae2e49abb8),
        ("zipf/7/Template-Send", 0x69614b433baee0c1),
        ("zipf/7/Unbalanced-Flit-Send", 0xe9f74305f1638761),
        ("zipf/7/Overhead-Send", 0x69614b433baee0c1),
        ("varlen/7/Eager (oblivious)", 0x3ca8782c327c74c9),
        ("varlen/7/Unbalanced-Flit-Send", 0x20002ac95e505c45),
        ("varlen/7/Overhead-Send", 0xb76f59017659e133),
        ("zipf/11/Unbalanced-Send", 0x4d701f828c97ac06),
        ("zipf/11/Unbalanced-Consecutive-Send", 0xf6651a1281be0406),
        ("zipf/11/Unbalanced-Granular-Send", 0x246321343196f07f),
        ("zipf/11/Offline-Optimal", 0x9d804f48be5a652e),
        ("zipf/11/Eager (oblivious)", 0xeff4414c13c2ba18),
        ("zipf/11/Template-Send", 0x1d17502e50a5c52f),
        ("zipf/11/Unbalanced-Flit-Send", 0x4d701f828c97ac06),
        ("zipf/11/Overhead-Send", 0x1d17502e50a5c52f),
        ("varlen/11/Eager (oblivious)", 0xfcee26cacbf96945),
        ("varlen/11/Unbalanced-Flit-Send", 0x71b3698937f387ad),
        ("varlen/11/Overhead-Send", 0xcca573abe6bee6d4),
        ("requests/window", 0xfaae0de1ac82483a),
        ("requests/consecutive", 0x70fe4f83d5c9057a),
    ];
    let got = digests();
    let table: String = got
        .iter()
        .map(|(k, v)| format!("(\"{k}\", {v:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), expected.len(), "digests now:\n{table}");
    for ((k, v), &(ek, ev)) in got.iter().zip(expected) {
        assert_eq!((k.as_str(), *v), (ek, ev), "digests now:\n{table}");
    }
}
