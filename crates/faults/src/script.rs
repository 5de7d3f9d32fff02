//! Explicit, enumerable fault scripts.
//!
//! A [`FaultScript`] is the *extensional* counterpart of the seeded
//! [`FaultPlan`](crate::FaultPlan): instead of deriving each message's
//! [`Fate`] from a ChaCha stream, it stores an explicit table keyed by
//! `(superstep, src, msg_idx)` plus an explicit stall set keyed by
//! `(superstep, pid)`. Everything not listed is delivered cleanly.
//!
//! Scripts exist for *enumeration*: the `pbw-check` bounded model checker
//! walks the space of all scripts over a small domain and needs (a) a hook
//! whose fate assignment it controls position-by-position and (b) a
//! canonical, human-readable serialization so a failing script can be
//! pasted into a unit test verbatim. [`fmt::Display`] and [`FromStr`] are
//! that format and round-trip exactly:
//!
//! ```
//! use pbw_faults::FaultScript;
//!
//! let s: FaultScript = "drop@0/1.0 delay2@1/0.1 stall@1/p2".parse().unwrap();
//! assert_eq!(s.to_string(), "drop@0/1.0 delay2@1/0.1 stall@1/p2");
//! assert_eq!(FaultScript::new().to_string(), "clean");
//! ```
//!
//! Grammar (tokens separated by single spaces, in the canonical order
//! below; `clean` denotes the empty script):
//!
//! ```text
//! script  := "clean" | token (" " token)*
//! token   := fate "@" superstep "/" src "." msg_idx
//!          | "stall@" superstep "/p" pid
//!          | "crash@" superstep "/p" pid
//! fate    := "drop" | "dup" | "delay" K | "displace" D
//! ```
//!
//! Canonical order: all fate tokens sorted by `(superstep, src, msg_idx)`,
//! then all stall tokens sorted by `(superstep, pid)`, then all crash
//! tokens sorted the same way — the iteration order of the underlying
//! B-tree maps, so `Display` is deterministic and two equal scripts always
//! render identically.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;

use pbw_sim::{DeliveryCtx, DeliveryHook, Fate, Pid};

/// Key of one scripted message: `(superstep, src, msg_idx)` — the same
/// coordinates a [`DeliveryCtx`] presents and a [`FaultPlan`](crate::FaultPlan)
/// keys its streams by.
pub type ScriptKey = (u64, Pid, usize);

/// An explicit fate table + stall set: fates keyed by `(superstep, src,
/// msg_idx)`, stalls by `(superstep, pid)`, everything unlisted delivered
/// cleanly — the enumerable counterpart of [`FaultPlan`](crate::FaultPlan).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultScript {
    fates: BTreeMap<ScriptKey, Fate>,
    stalls: BTreeSet<(u64, Pid)>,
    crashes: BTreeSet<(u64, Pid)>,
}

impl FaultScript {
    /// The empty (all-deliver) script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Script a fate for `(superstep, src, msg_idx)` (builder-style).
    /// Scripting [`Fate::Deliver`] removes any existing entry — clean
    /// delivery is the default, so the canonical form never stores it.
    pub fn with_fate(mut self, superstep: u64, src: Pid, msg_idx: usize, fate: Fate) -> Self {
        self.set_fate(superstep, src, msg_idx, fate);
        self
    }

    /// Script a whole-superstep stall for `pid` (builder-style).
    pub fn with_stall(mut self, superstep: u64, pid: Pid) -> Self {
        self.stalls.insert((superstep, pid));
        self
    }

    /// Script a whole-superstep crash for `pid` (builder-style). Unlike a
    /// stall, a crashed processor's inbox and incoming traffic are
    /// destroyed; script one entry per dead superstep for multi-step
    /// outages.
    pub fn with_crash(mut self, superstep: u64, pid: Pid) -> Self {
        self.crashes.insert((superstep, pid));
        self
    }

    /// Script a fate in place; see [`FaultScript::with_fate`].
    pub fn set_fate(&mut self, superstep: u64, src: Pid, msg_idx: usize, fate: Fate) {
        let key = (superstep, src, msg_idx);
        if fate == Fate::Deliver {
            self.fates.remove(&key);
        } else {
            self.fates.insert(key, fate);
        }
    }

    /// The scripted fate for a message ([`Fate::Deliver`] if unlisted).
    pub fn fate_at(&self, superstep: u64, src: Pid, msg_idx: usize) -> Fate {
        self.fates
            .get(&(superstep, src, msg_idx))
            .copied()
            .unwrap_or(Fate::Deliver)
    }

    /// Whether the script perturbs nothing.
    pub fn is_clean(&self) -> bool {
        self.fates.is_empty() && self.stalls.is_empty() && self.crashes.is_empty()
    }

    /// Number of non-deliver fate entries.
    pub fn n_fates(&self) -> usize {
        self.fates.len()
    }

    /// Number of scripted stalls.
    pub fn n_stalls(&self) -> usize {
        self.stalls.len()
    }

    /// Number of scripted crash processor-supersteps.
    pub fn n_crashes(&self) -> usize {
        self.crashes.len()
    }

    /// Iterate the non-deliver fate entries in canonical order.
    pub fn fates(&self) -> impl Iterator<Item = (ScriptKey, Fate)> + '_ {
        self.fates.iter().map(|(&k, &f)| (k, f))
    }

    /// Iterate the scripted stalls in canonical order.
    pub fn stalls(&self) -> impl Iterator<Item = (u64, Pid)> + '_ {
        self.stalls.iter().copied()
    }

    /// Iterate the scripted crashes in canonical order.
    pub fn crashes(&self) -> impl Iterator<Item = (u64, Pid)> + '_ {
        self.crashes.iter().copied()
    }

    /// Whether `pid` is scripted dead at `superstep` — the query
    /// [`DeliveryHook::crashed`] delegates to, exposed for the checker's
    /// ledger reconstruction.
    pub fn crashed_at(&self, superstep: u64, pid: Pid) -> bool {
        self.crashes.contains(&(superstep, pid))
    }

    /// Count scripted entries whose fate satisfies `pred` among the given
    /// consulted keys — the checker's independent ledger reconstruction:
    /// e.g. expected drops = `count_matching(keys, |f| f == Fate::Drop)`.
    pub fn count_matching(
        &self,
        consulted: impl IntoIterator<Item = ScriptKey>,
        pred: impl Fn(Fate) -> bool,
    ) -> u64 {
        consulted
            .into_iter()
            .filter(|&(s, src, idx)| pred(self.fate_at(s, src, idx)))
            .count() as u64
    }
}

impl DeliveryHook for FaultScript {
    fn fate(&self, ctx: &DeliveryCtx) -> Fate {
        self.fate_at(ctx.superstep, ctx.src, ctx.msg_idx)
    }

    fn stalled(&self, superstep: u64, pid: Pid) -> bool {
        self.stalls.contains(&(superstep, pid))
    }

    fn crashed(&self, superstep: u64, pid: Pid) -> bool {
        self.crashed_at(superstep, pid)
    }
}

impl fmt::Display for FaultScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("clean");
        }
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                f.write_str(" ")?;
            }
            first = false;
            Ok(())
        };
        for (&(superstep, src, idx), &fate) in &self.fates {
            sep(f)?;
            match fate {
                Fate::Deliver => unreachable!("canonical form never stores Deliver"),
                Fate::Drop => write!(f, "drop@{superstep}/{src}.{idx}")?,
                Fate::Duplicate => write!(f, "dup@{superstep}/{src}.{idx}")?,
                Fate::Delay(k) => write!(f, "delay{k}@{superstep}/{src}.{idx}")?,
                Fate::Displace(d) => write!(f, "displace{d}@{superstep}/{src}.{idx}")?,
            }
        }
        for &(superstep, pid) in &self.stalls {
            sep(f)?;
            write!(f, "stall@{superstep}/p{pid}")?;
        }
        for &(superstep, pid) in &self.crashes {
            sep(f)?;
            write!(f, "crash@{superstep}/p{pid}")?;
        }
        Ok(())
    }
}

/// Why a script failed to parse (the offending token is embedded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptParseError {
    token: String,
    reason: &'static str,
}

impl fmt::Display for ScriptParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad script token `{}`: {}", self.token, self.reason)
    }
}

impl std::error::Error for ScriptParseError {}

fn bad(token: &str, reason: &'static str) -> ScriptParseError {
    ScriptParseError {
        token: token.to_string(),
        reason,
    }
}

impl FromStr for FaultScript {
    type Err = ScriptParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut script = FaultScript::new();
        let s = s.trim();
        if s.is_empty() || s == "clean" {
            return Ok(script);
        }
        for token in s.split_whitespace() {
            let (head, pos) = token
                .split_once('@')
                .ok_or_else(|| bad(token, "missing `@`"))?;
            let (step_s, rest) = pos
                .split_once('/')
                .ok_or_else(|| bad(token, "missing `/` after superstep"))?;
            let superstep: u64 = step_s
                .parse()
                .map_err(|_| bad(token, "superstep is not a number"))?;
            if head == "stall" || head == "crash" {
                let pid_s = rest
                    .strip_prefix('p')
                    .ok_or_else(|| bad(token, "stall/crash target must be `p<pid>`"))?;
                let pid: Pid = pid_s
                    .parse()
                    .map_err(|_| bad(token, "pid is not a number"))?;
                if head == "stall" {
                    script.stalls.insert((superstep, pid));
                } else {
                    script.crashes.insert((superstep, pid));
                }
                continue;
            }
            let (src_s, idx_s) = rest
                .split_once('.')
                .ok_or_else(|| bad(token, "missing `.` between src and msg_idx"))?;
            let src: Pid = src_s
                .parse()
                .map_err(|_| bad(token, "src is not a number"))?;
            let idx: usize = idx_s
                .parse()
                .map_err(|_| bad(token, "msg_idx is not a number"))?;
            let fate = if head == "drop" {
                Fate::Drop
            } else if head == "dup" {
                Fate::Duplicate
            } else if let Some(k) = head.strip_prefix("delay") {
                let k: u32 = k
                    .parse()
                    .map_err(|_| bad(token, "delay magnitude is not a number"))?;
                if k == 0 {
                    return Err(bad(token, "delay magnitude must be ≥ 1"));
                }
                Fate::Delay(k)
            } else if let Some(d) = head.strip_prefix("displace") {
                let d: u64 = d
                    .parse()
                    .map_err(|_| bad(token, "displacement is not a number"))?;
                if d == 0 {
                    return Err(bad(token, "displacement must be ≥ 1"));
                }
                Fate::Displace(d)
            } else {
                return Err(bad(token, "unknown fate"));
            };
            script.set_fate(superstep, src, idx, fate);
        }
        Ok(script)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_script_delivers_everything() {
        let s = FaultScript::new();
        assert!(s.is_clean());
        assert_eq!(s.fate_at(0, 0, 0), Fate::Deliver);
        assert!(!s.stalled(3, 1));
        assert_eq!(s.to_string(), "clean");
        assert_eq!("clean".parse::<FaultScript>().unwrap(), s);
        assert_eq!("".parse::<FaultScript>().unwrap(), s);
    }

    #[test]
    fn display_parse_round_trips() {
        let s = FaultScript::new()
            .with_fate(0, 1, 0, Fate::Drop)
            .with_fate(1, 0, 1, Fate::Delay(2))
            .with_fate(1, 2, 0, Fate::Duplicate)
            .with_fate(2, 0, 0, Fate::Displace(3))
            .with_stall(1, 2)
            .with_stall(0, 0)
            .with_crash(2, 1);
        let text = s.to_string();
        assert_eq!(
            text,
            "drop@0/1.0 delay2@1/0.1 dup@1/2.0 displace3@2/0.0 stall@0/p0 stall@1/p2 crash@2/p1"
        );
        let back: FaultScript = text.parse().unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn crash_tokens_are_distinct_from_stalls() {
        let s: FaultScript = "crash@1/p0".parse().unwrap();
        assert!(s.crashed_at(1, 0));
        assert!(!s.crashed_at(0, 0));
        assert!(!s.stalled(1, 0));
        assert_eq!(s.n_crashes(), 1);
        assert_eq!(s.n_stalls(), 0);
        assert!(!s.is_clean());
        assert_eq!(s.to_string(), "crash@1/p0");
        assert!("crash@1/0".parse::<FaultScript>().is_err());
    }

    #[test]
    fn scripting_deliver_erases_the_entry() {
        let mut s = FaultScript::new().with_fate(0, 0, 0, Fate::Drop);
        assert_eq!(s.n_fates(), 1);
        s.set_fate(0, 0, 0, Fate::Deliver);
        assert!(s.is_clean());
    }

    #[test]
    fn hook_impl_matches_the_table() {
        let s = FaultScript::new()
            .with_fate(2, 1, 3, Fate::Drop)
            .with_stall(2, 0);
        let ctx = DeliveryCtx {
            superstep: 2,
            src: 1,
            dest: 0,
            msg_idx: 3,
            slot: 0,
        };
        assert_eq!(s.fate(&ctx), Fate::Drop);
        assert_eq!(s.fate(&DeliveryCtx { msg_idx: 2, ..ctx }), Fate::Deliver);
        assert!(s.stalled(2, 0));
        assert!(!s.stalled(1, 0));
    }

    #[test]
    fn count_matching_reconstructs_ledger_expectations() {
        let s = FaultScript::new()
            .with_fate(0, 0, 0, Fate::Drop)
            .with_fate(0, 1, 0, Fate::Duplicate)
            .with_fate(1, 0, 0, Fate::Drop);
        let consulted = vec![(0u64, 0usize, 0usize), (0, 1, 0), (0, 2, 0)];
        assert_eq!(s.count_matching(consulted.clone(), |f| f == Fate::Drop), 1);
        assert_eq!(
            s.count_matching(consulted.clone(), |f| f == Fate::Duplicate),
            1
        );
        assert_eq!(s.count_matching(consulted, |f| f == Fate::Deliver), 1);
    }

    #[test]
    fn bad_tokens_are_rejected_with_the_offender_named() {
        for bad in [
            "drop0/1.0",
            "drop@x/1.0",
            "drop@0:1.0",
            "drop@0/1",
            "frob@0/1.0",
            "delay0@0/1.0",
            "displace0@0/1.0",
            "stall@0/2",
        ] {
            let err = bad.parse::<FaultScript>().unwrap_err();
            assert!(err.to_string().contains("bad script token"), "{bad}: {err}");
        }
    }
}
