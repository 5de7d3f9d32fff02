//! # pbw-check
//!
//! A bounded model checker for the `parallel-bandwidth` engines. Unlike a
//! property test, which samples the fault space, the checker **enumerates
//! it exhaustively** over a small domain (few processors, few supersteps,
//! few messages) and drives the *real* engines — [`pbw_sim::BspMachine`],
//! [`pbw_core::RecoverySession`], the schedulers — never a model of them.
//!
//! Five invariant families are checked:
//!
//! 1. **Conservation** — at every superstep boundary of every reachable
//!    fault assignment (crash-stop failures included), the fault ledger
//!    balances (`injected + duplicated + restored == delivered +
//!    dropped + crashed + in_flight`), and at quiescence the ledger is
//!    *reconstructible from the script alone*: dropped == scripted drops
//!    among consulted messages, crashed == payloads whose custody
//!    transfer lands on a scripted-dead destination, and so on.
//! 2. **Recovery termination** — under *every* drop pattern expressible in
//!    the domain, the ack/retransmit protocol drains: all flits delivered,
//!    rounds bounded by the number of faulted supersteps, and idle time
//!    exactly `Σ_r backoff(r)` (the bounded-exponential-backoff contract).
//! 3. **Sparse ≡ dense** — the active-set (`superstep_active`) and dense
//!    (`superstep`) execution paths produce *byte-identical* behaviour
//!    (canonical state hash at every explored node, full trace render at
//!    every leaf) for every fault assignment, not just clean runs.
//! 4. **Crash recovery** — for every single-processor crash window in the
//!    domain, checkpoint/rollback recovery terminates, delivers every
//!    flit (post-recovery delivery state ≡ the crash-free run), keeps the
//!    extended ledger conserved, and replays deterministically.
//! 5. **Cost envelope** — for every unit workload in the domain, the
//!    offline optimal is exactly `max(⌈n/m⌉, x̄)` slots with no overload,
//!    and Unbalanced-Send respects its window structure, its engine replay
//!    matches its analytic profile, and — whenever its w.h.p. event holds —
//!    its BSP(m) time is within the Theorem 6.2 target.
//!
//! Every counterexample carries a serialized [`FaultScript`] and enough
//! context to re-run it verbatim through [`replay`], so a checker finding
//! becomes a committed regression test by pasting two strings.
//!
//! Exploration is budgeted ([`Budget`], `PBW_CHECK_BUDGET` env var): each
//! engine execution costs one unit, and a report always states whether the
//! walk was exhaustive or truncated — a truncated pass is reported as such,
//! never silently presented as full coverage.

pub mod crash;
pub mod envelope;
pub mod machine;
pub mod program;
pub mod record;
pub mod recovery;

use std::fmt;

pub use pbw_faults::{FaultScript, ScriptKey};
use pbw_sim::Fate;

/// The exploration domain: how big a world the checker enumerates.
#[derive(Debug, Clone)]
pub struct Domain {
    /// Number of simulated processors.
    pub p: usize,
    /// Supersteps whose messages get enumerated fates (runs may extend
    /// further to drain delayed traffic).
    pub supersteps: u64,
    /// Cap on fate decisions per superstep (the catalog programs stay well
    /// under it; exceeding it marks the walk truncated).
    pub max_messages: usize,
    /// Non-deliver fate alphabet enumerated per message.
    pub fates: Vec<Fate>,
    /// Whether to enumerate per-superstep processor stalls.
    pub stalls: bool,
    /// Whether to enumerate per-superstep crash-stop failures (a crashed
    /// processor skips its closure, its unread inbox evaporates, and
    /// in-flight payloads addressed to it are written off to the ledger's
    /// `crashed` column).
    pub crashes: bool,
}

impl Domain {
    /// The CI domain: `p = 3`, 3 supersteps, ≤ 4 scripted messages per
    /// superstep, fates {drop, dup, delay 1}, stalls and crashes on.
    pub fn ci() -> Self {
        Domain {
            p: 3,
            supersteps: 3,
            max_messages: 4,
            fates: vec![Fate::Drop, Fate::Duplicate, Fate::Delay(1)],
            stalls: true,
            crashes: true,
        }
    }

    /// The widest supported domain: `p = 4`, 4 supersteps, ≤ 6 messages,
    /// plus longer delays and slot displacement.
    pub fn wide() -> Self {
        Domain {
            p: 4,
            supersteps: 4,
            max_messages: 6,
            fates: vec![
                Fate::Drop,
                Fate::Duplicate,
                Fate::Delay(1),
                Fate::Delay(2),
                Fate::Displace(1),
            ],
            stalls: true,
            crashes: true,
        }
    }

    /// A deliberately tiny domain for the crate's own unit tests.
    pub fn tiny() -> Self {
        Domain {
            p: 2,
            supersteps: 2,
            max_messages: 3,
            fates: vec![Fate::Drop, Fate::Delay(1)],
            stalls: true,
            crashes: true,
        }
    }
}

/// A shared execution budget: every engine run costs one unit. When the
/// budget runs dry the walk stops and the report is marked truncated.
#[derive(Debug)]
pub struct Budget {
    max: u64,
    used: u64,
}

/// Default budget when `PBW_CHECK_BUDGET` is unset: comfortably above the
/// ~352k engine runs the crash-enabled wide domain needs (the CI domain
/// needs under 8k), far below anything slow.
pub const DEFAULT_BUDGET: u64 = 450_000;

impl Budget {
    /// A budget of `max` engine executions.
    pub fn new(max: u64) -> Self {
        Budget { max, used: 0 }
    }

    /// Read the budget from `PBW_CHECK_BUDGET` (engine executions), or
    /// [`DEFAULT_BUDGET`] if unset/unparsable.
    pub fn from_env() -> Self {
        let max = std::env::var("PBW_CHECK_BUDGET")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_BUDGET);
        Budget::new(max)
    }

    /// Try to spend `n` units; `false` (and no spend) once exhausted.
    pub fn try_charge(&mut self, n: u64) -> bool {
        if self.used + n > self.max {
            return false;
        }
        self.used += n;
        true
    }

    /// Units spent so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The configured ceiling.
    pub fn max(&self) -> u64 {
        self.max
    }
}

/// One counterexample: everything needed to reproduce it verbatim.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Invariant family ("conservation", "recovery", "sparse-dense",
    /// "crash-recovery", "envelope").
    pub family: &'static str,
    /// What was being driven (program/workload name, p, config).
    pub subject: String,
    /// The serialized [`FaultScript`] (`"clean"` for fault-free subjects).
    pub script: String,
    /// What went wrong, human-readable.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample [{}] {}", self.family, self.subject)?;
        writeln!(f, "  script: {}", self.script)?;
        write!(f, "  detail: {}", self.detail)
    }
}

/// Stored-violation cap per family; everything beyond it is counted in
/// [`FamilyReport::suppressed`] rather than materialized.
const MAX_STORED_VIOLATIONS: usize = 24;

/// What one invariant family's walk did.
#[derive(Debug)]
pub struct FamilyReport {
    /// Family name.
    pub family: &'static str,
    /// Engine executions charged to this family.
    pub runs: u64,
    /// Nodes pruned because a canonically-equal state was already explored.
    pub dedup_hits: u64,
    /// Terminal states fully audited.
    pub leaves: u64,
    /// Counterexamples found (the first `MAX_STORED_VIOLATIONS`, 24).
    pub violations: Vec<Violation>,
    /// Counterexamples found beyond the storage cap.
    pub suppressed: u64,
    /// Whether the walk ran out of budget (or hit a domain cap) before
    /// finishing — i.e. this is *not* an exhaustiveness certificate.
    pub truncated: bool,
}

impl FamilyReport {
    pub(crate) fn new(family: &'static str) -> Self {
        FamilyReport {
            family,
            runs: 0,
            dedup_hits: 0,
            leaves: 0,
            violations: Vec::new(),
            suppressed: 0,
            truncated: false,
        }
    }

    pub(crate) fn record(&mut self, v: Violation) {
        if self.violations.len() < MAX_STORED_VIOLATIONS {
            self.violations.push(v);
        } else {
            self.suppressed += 1;
        }
    }

    /// Total counterexamples, stored or not.
    pub fn n_violations(&self) -> u64 {
        self.violations.len() as u64 + self.suppressed
    }
}

/// The whole checker run.
#[derive(Debug)]
pub struct CheckReport {
    /// One report per invariant family.
    pub families: Vec<FamilyReport>,
    /// Budget units spent.
    pub budget_used: u64,
    /// Budget ceiling.
    pub budget_max: u64,
}

impl CheckReport {
    /// No counterexamples anywhere (truncation is reported separately).
    pub fn ok(&self) -> bool {
        self.families.iter().all(|f| f.n_violations() == 0)
    }

    /// Whether any family's walk was cut short.
    pub fn truncated(&self) -> bool {
        self.families.iter().any(|f| f.truncated)
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pbw-check: {} / {} budget units spent",
            self.budget_used, self.budget_max
        )?;
        for fam in &self.families {
            writeln!(
                f,
                "  {:<12} {:>8} runs  {:>7} dedup  {:>7} leaves  {:>4} violations  [{}]",
                fam.family,
                fam.runs,
                fam.dedup_hits,
                fam.leaves,
                fam.n_violations(),
                if fam.truncated {
                    "TRUNCATED"
                } else {
                    "exhaustive"
                },
            )?;
        }
        for fam in &self.families {
            for v in &fam.violations {
                writeln!(f, "{v}")?;
            }
            if fam.suppressed > 0 {
                writeln!(
                    f,
                    "  ({} further {} counterexample(s) suppressed)",
                    fam.suppressed, fam.family
                )?;
            }
        }
        Ok(())
    }
}

/// Run all five invariant families under one shared budget.
pub fn run_all(domain: &Domain, budget: &mut Budget) -> CheckReport {
    let mf = machine::explore(domain, budget);
    let rec = recovery::explore(domain, budget);
    let cr = crash::explore(domain, budget);
    let env = envelope::check(domain, budget);
    CheckReport {
        families: vec![mf.conservation, mf.sparse_dense, rec, cr, env],
        budget_used: budget.used(),
        budget_max: budget.max(),
    }
}

/// Re-run a serialized counterexample exactly as the explorer's leaf audit
/// would — the bridge from a checker finding to a committed regression
/// test. Each function returns `Err` with every defect found, `Ok(())` if
/// the invariants now hold.
pub mod replay {
    use crate::machine::check_leaf;
    use crate::program::Program;
    use crate::recovery::replay_recovery;
    use pbw_faults::FaultScript;

    /// Replay a machine-family (conservation / sparse≡dense)
    /// counterexample: `program` is a catalog name (`ring`, `fanout`,
    /// `echo`, `crossfire`), `script` the serialized [`FaultScript`].
    pub fn machine(program: &str, p: usize, supersteps: u64, script: &str) -> Result<(), String> {
        let prog = Program::by_name(program, p)
            .ok_or_else(|| format!("unknown checker program `{program}`"))?;
        let script: FaultScript = script.parse().map_err(|e| format!("{e}"))?;
        let defects = check_leaf(&prog, &script, supersteps);
        let all: Vec<String> = defects
            .conservation
            .into_iter()
            .chain(defects.sparse_dense)
            .collect();
        if all.is_empty() {
            Ok(())
        } else {
            Err(all.join("; "))
        }
    }

    /// Replay a recovery-family counterexample: `workload` is a catalog
    /// name (`hot`, `ring`), `script` a drop-only [`FaultScript`].
    pub fn recovery(
        workload: &str,
        p: usize,
        charge_acks: bool,
        script: &str,
    ) -> Result<(), String> {
        let script: FaultScript = script.parse().map_err(|e| format!("{e}"))?;
        replay_recovery(workload, p, charge_acks, &script)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_domain_is_fully_verified() {
        let mut budget = Budget::new(100_000);
        let report = run_all(&Domain::tiny(), &mut budget);
        assert!(report.ok(), "unexpected counterexamples:\n{report}");
        assert!(!report.truncated(), "tiny domain must fit the budget");
        assert!(report.families.iter().all(|f| f.leaves > 0));
        assert_eq!(report.families.len(), 5);
    }

    #[test]
    fn exhausted_budget_reports_truncation_not_failure() {
        let mut budget = Budget::new(10);
        let report = run_all(&Domain::tiny(), &mut budget);
        assert!(report.truncated());
        assert!(report.ok(), "truncation is not a counterexample");
        assert!(budget.used() <= 10);
    }

    #[test]
    fn machine_replay_accepts_a_clean_counterexample_script() {
        replay::machine("ring", 2, 2, "drop@0/0.0").expect("invariants hold on the real engine");
        replay::machine("ring", 2, 2, "delay1@0/1.0 stall@1/p0").expect("delay+stall holds too");
        assert!(replay::machine("no-such-program", 2, 2, "clean").is_err());
        assert!(replay::machine("ring", 2, 2, "garbage").is_err());
    }

    #[test]
    fn recovery_replay_accepts_a_drop_script() {
        replay::recovery("hot", 2, true, "drop@0/0.0").expect("protocol recovers from one drop");
        assert!(replay::recovery("hot", 2, true, "dup@0/0.0").is_err());
        assert!(replay::recovery("no-such-workload", 2, true, "clean").is_err());
    }
}
