//! Machine-readable lint diagnostics, and the spec-mode front end.
//!
//! [`lint`] reports on a `ProgSpec` in the spec's own coordinates: the
//! rules of [`vmlint`](crate::vmlint) run on the analysis of the kernels
//! the spec compiles to, and each position maps back to the spec op the
//! instruction was compiled from.
//!
//! The JSON schema emitted by [`Diag::to_json`] is **stable** — CI
//! baselines and downstream tooling depend on it (see the golden-file
//! tests). One object per diagnostic:
//!
//! ```json
//! {"rule": "mixed-access-race", "severity": "error", "thread": 1,
//!  "segment": 0, "op": 0, "lines": [1],
//!  "message": "plain load of line 1 races with a critical write on thread 0"}
//! ```
//!
//! `thread`/`segment`/`op` are indices into the spec (`null` for
//! program-level diagnostics); `lines` are *spec* line indices.

use crate::vmlint::{self, View};
use crate::VmAnalysis;
use guestvm::spec::{ProgSpec, Segment, SpecProgram};
use guestvm::{Instr, Kernel};
use std::collections::BTreeMap;

/// Diagnostic severity, ordered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Hygiene note; never affects the exit code.
    Note,
    /// A hazard worth knowing about (guaranteed overflow, hand-off
    /// cycle, no-op compute).
    Warn,
    /// A statically-certain race class (`tmlint` exits 1).
    Error,
}

impl Severity {
    pub fn name(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diag {
    /// Stable rule identifier (kebab-case).
    pub rule: &'static str,
    pub severity: Severity,
    /// Offending thread index, if attributable.
    pub thread: Option<usize>,
    /// Offending segment index within the thread.
    pub segment: Option<usize>,
    /// Offending op index within the segment.
    pub op: Option<usize>,
    /// Spec lines involved, sorted ascending.
    pub lines: Vec<u64>,
    pub message: String,
}

impl Diag {
    /// The stable JSON form (one object, no trailing newline).
    pub fn to_json(&self) -> String {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |n| n.to_string());
        let lines: Vec<String> = self.lines.iter().map(u64::to_string).collect();
        format!(
            "{{\"rule\": \"{}\", \"severity\": \"{}\", \"thread\": {}, \
             \"segment\": {}, \"op\": {}, \"lines\": [{}], \"message\": \"{}\"}}",
            self.rule,
            self.severity.name(),
            opt(self.thread),
            opt(self.segment),
            opt(self.op),
            lines.join(", "),
            self.message.replace('\\', "\\\\").replace('"', "\\\""),
        )
    }

    /// Human-readable one-liner.
    pub fn render(&self) -> String {
        let mut at = String::new();
        if let Some(t) = self.thread {
            at.push_str(&format!(" thread {t}"));
            if let Some(s) = self.segment {
                at.push_str(&format!(" segment {s}"));
                if let Some(o) = self.op {
                    at.push_str(&format!(" op {o}"));
                }
            }
        }
        format!(
            "{}[{}]{}: {}",
            self.severity.name(),
            self.rule,
            at,
            self.message
        )
    }
}

/// Run every rule on `a`, the analysis of `spec`
/// ([`VmAnalysis::of_spec`]), and report in spec coordinates:
/// `thread`/`segment`/`op` index the spec and `lines` are spec lines.
pub fn lint(a: &VmAnalysis, spec: &ProgSpec) -> Vec<Diag> {
    let kernels = SpecProgram::compile_all(spec);
    assert_eq!(
        a.threads.len(),
        kernels.len(),
        "analysis is not of this spec"
    );
    let sites = spec
        .threads
        .iter()
        .zip(&kernels)
        .map(|(segs, k)| spec_sites(segs, k))
        .collect();
    vmlint::run(
        a,
        &View::Spec {
            lines: spec.lines,
            sites,
        },
    )
}

/// Spec position of each instruction of `k`, one thread's compiled
/// segments. The spec compiler opens every critical segment with one
/// `CritBegin` and lowers every op to exactly one `Load`/`Store`/
/// `Compute` (plus register set-up), in program order, so the two
/// sequences zip.
fn spec_sites(segs: &[Segment], k: &Kernel) -> BTreeMap<usize, (usize, Option<usize>)> {
    let mut want = segs.iter().enumerate().flat_map(|(s, seg)| {
        let open = seg.critical.then_some((s, None));
        open.into_iter()
            .chain((0..seg.ops.len()).map(move |o| (s, Some(o))))
    });
    let sites: BTreeMap<_, _> = k
        .instrs
        .iter()
        .enumerate()
        .filter(|(_, i)| {
            matches!(
                i,
                Instr::CritBegin | Instr::Load(..) | Instr::Store(..) | Instr::Compute(_)
            )
        })
        .map(|(pc, _)| (pc, want.next().expect("one instruction per spec op")))
        .collect();
    assert!(
        want.next().is_none(),
        "every spec op compiles to an instruction"
    );
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockiller::SystemKind;

    fn diags(system: SystemKind, spec: &str, tiny_l1: bool) -> Vec<Diag> {
        let spec = ProgSpec::parse(spec).expect("test specs are valid");
        let mut ex = tmverify::Explorer::new(system, spec.clone());
        ex.tiny_l1 = tiny_l1;
        lint(&VmAnalysis::of_spec(system, &spec, ex.config()), &spec)
    }

    fn rules(d: &[Diag]) -> Vec<&'static str> {
        d.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn mixed_access_race_flagged_on_demo_spec() {
        let d = diags(SystemKind::LockillerRwi, "2/c:L0,S1/p:L1", false);
        assert!(rules(&d).contains(&"mixed-access-race"), "{d:?}");
        let race = d.iter().find(|d| d.rule == "mixed-access-race").unwrap();
        assert_eq!(race.severity, Severity::Error);
        assert_eq!(
            (race.thread, race.segment, race.op),
            (Some(1), Some(0), Some(0))
        );
        assert_eq!(race.lines, vec![1]);
    }

    #[test]
    fn capacity_overflow_flagged_under_tiny_l1_only() {
        let spec = "6/c:L0,L1,L2,S0/c:L3,L4,L5,S3";
        let tiny = diags(SystemKind::LockillerTm, spec, true);
        assert_eq!(
            tiny.iter()
                .filter(|d| d.rule == "capacity-overflow")
                .count(),
            2,
            "{tiny:?}"
        );
        let full = diags(SystemKind::LockillerTm, spec, false);
        assert!(!rules(&full).contains(&"capacity-overflow"), "{full:?}");
    }

    #[test]
    fn handoff_cycle_flagged_on_the_ring() {
        let d = diags(SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0", false);
        let cyc = d.iter().find(|d| d.rule == "handoff-cycle").expect("cycle");
        assert_eq!(cyc.lines, vec![0, 1]);
        // Disjoint critical sections have no cycle.
        let d = diags(SystemKind::LockillerRwi, "2/c:L0,S0/c:L1,S1", false);
        assert!(!rules(&d).contains(&"handoff-cycle"), "{d:?}");
    }

    #[test]
    fn hazard_rules_are_quiet_on_race_free_kernels() {
        // The corpus ring kernels: no plain segments, no overflow under
        // the default geometry — only the (true-positive) hand-off
        // cycle may fire, never the other two hazard classes.
        for (system, spec) in [
            (SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0"),
            (SystemKind::LockillerRwi, "3/c:L0,S1/c:L1,S2/c:L2,S0"),
            (SystemKind::LockillerTm, "3/c:L0,S1/c:L1,S2/c:L2,S0"),
        ] {
            let d = diags(system, spec, false);
            assert!(!rules(&d).contains(&"mixed-access-race"), "{spec}: {d:?}");
            assert!(!rules(&d).contains(&"capacity-overflow"), "{spec}: {d:?}");
        }
        // And a genuinely hazard-free disjoint kernel is fully quiet.
        let d = diags(SystemKind::LockillerTm, "2/c:L0,S0,L0/c:L1,S1,L1", false);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn hygiene_rules() {
        let d = diags(SystemKind::LockillerRwi, "3/c:S0,C0/c:L0", false);
        assert!(rules(&d).contains(&"noop-compute"), "{d:?}");
        assert!(rules(&d).contains(&"unused-line"), "{d:?}");
        assert!(!rules(&d).contains(&"dead-store"), "store to L0 is read");
        let d = diags(SystemKind::LockillerRwi, "2/c:S0/c:L1", false);
        assert!(rules(&d).contains(&"dead-store"), "{d:?}");
    }

    #[test]
    fn diag_json_shape_is_stable() {
        let d = Diag {
            rule: "mixed-access-race",
            severity: Severity::Error,
            thread: Some(1),
            segment: Some(0),
            op: Some(2),
            lines: vec![1, 3],
            message: "a \"quoted\" message".to_string(),
        };
        assert_eq!(
            d.to_json(),
            "{\"rule\": \"mixed-access-race\", \"severity\": \"error\", \
             \"thread\": 1, \"segment\": 0, \"op\": 2, \"lines\": [1, 3], \
             \"message\": \"a \\\"quoted\\\" message\"}"
        );
        let parsed = sim_core::json::parse(&d.to_json()).expect("valid json");
        assert_eq!(
            parsed.get("rule").and_then(sim_core::json::Json::as_str),
            Some("mixed-access-race")
        );
    }
}
