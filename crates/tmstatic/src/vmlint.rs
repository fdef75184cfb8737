//! The lint rules: one rule set over a [`VmAnalysis`], behind both
//! `tmlint` modes.
//!
//! Diagnostics use the [`Diag`] type and its **stable** JSON schema. A
//! [`View`] decides how positions and lines are named:
//!
//! - **Kernel view** ([`lint_kernels`]): `thread` is the simulated
//!   thread (kernel index), `segment` is the critical-region ordinal
//!   within that kernel (`null` for plain code), `op` is the offending
//!   **instruction pc**, and `lines` are *physical* cache-line numbers.
//! - **Spec view** ([`lint`](crate::lint)): the analysis ran on the
//!   kernels a `ProgSpec` compiles to, and every position maps back to
//!   the spec's (thread, segment, op) indices and every line to its
//!   *spec* line index, so spec-mode output reads as the source.
//!
//! Every rule reports **proven facts only**: where the abstract
//! footprint widened to Top the lint stays silent rather than guessing
//! — the conservative direction for diagnostics (no false alarms). The
//! pruning side inverts the polarity: [`VmAnalysis::independence`]
//! degrades Top to *no table* (no missed conflicts). Between the two,
//! widening can cost precision but never soundness.

use crate::lint::{Diag, Severity};
use crate::vmabs::{AbsLines, LoopBound};
use crate::VmAnalysis;
use guestvm::spec::SpecProgram;
use sim_core::types::LineAddr;
use std::collections::{BTreeMap, BTreeSet};

/// How diagnostics name positions and lines (see the module docs).
pub(crate) enum View {
    Kernel,
    Spec {
        /// Declared arena size, in spec lines.
        lines: u64,
        /// Per thread: pc → `(segment, op)` of each instruction compiled
        /// from a spec op, and `(segment, None)` for the `CritBegin`
        /// opening a critical segment.
        sites: Vec<BTreeMap<usize, (usize, Option<usize>)>>,
    },
}

impl View {
    /// `(segment, op)` of the instruction at `pc` of thread `t`, which
    /// sits in the critical region with ordinal `region`, if any.
    fn site(&self, t: usize, region: Option<usize>, pc: usize) -> (Option<usize>, Option<usize>) {
        match self {
            View::Kernel => (region, Some(pc)),
            View::Spec { sites, .. } => match sites[t].get(&pc) {
                Some(&(segment, op)) => (Some(segment), op),
                None => (None, None),
            },
        }
    }

    /// Spec line index of a physical line (spec view only).
    fn spec_line(&self, l: LineAddr) -> Option<u64> {
        match self {
            View::Kernel => None,
            View::Spec { lines, .. } => {
                l.0.checked_sub(SpecProgram::data_line(0).0)
                    .filter(|i| i < lines)
            }
        }
    }

    /// Line numbers as reported in `Diag::lines`; the spec view drops
    /// lines outside the arena (the fallback lock).
    fn lines(&self, phys: &BTreeSet<LineAddr>) -> Vec<u64> {
        match self {
            View::Kernel => phys.iter().map(|l| l.0).collect(),
            View::Spec { .. } => phys.iter().filter_map(|&l| self.spec_line(l)).collect(),
        }
    }

    /// One line, as named in a message.
    fn line(&self, l: LineAddr) -> String {
        match self.spec_line(l) {
            Some(i) => format!("line {i}"),
            None => format!("phys line {}", l.0),
        }
    }

    /// Where in a message the pc goes; specs have no pcs.
    fn at(&self, pc: usize) -> String {
        match self {
            View::Kernel => format!(" at pc {pc}"),
            View::Spec { .. } => String::new(),
        }
    }

    /// What a critical region is called.
    fn region(&self) -> &'static str {
        match self {
            View::Kernel => "region",
            View::Spec { .. } => "segment",
        }
    }

    /// Lines declared whether or not anything accesses them: the spec
    /// arena. Kernels declare none.
    fn declared(&self) -> Vec<LineAddr> {
        match self {
            View::Kernel => Vec::new(),
            View::Spec { lines, .. } => (0..*lines).map(SpecProgram::data_line).collect(),
        }
    }
}

/// Run every rule in the kernel view; deterministic order (rule,
/// thread, pc).
pub fn lint_kernels(a: &VmAnalysis) -> Vec<Diag> {
    run(a, &View::Kernel)
}

/// Run every rule; diagnostics are ordered by rule, then position, so
/// the output is deterministic.
pub(crate) fn run(a: &VmAnalysis, v: &View) -> Vec<Diag> {
    let mut out = Vec::new();
    mixed_access_race(a, v, &mut out);
    capacity_overflow(a, v, &mut out);
    handoff_cycle(a, v, &mut out);
    rollback_unsafe_store(a, v, &mut out);
    unreachable_instruction(a, v, &mut out);
    unbounded_loop(a, v, &mut out);
    dead_store(a, v, &mut out);
    unused_line(a, v, &mut out);
    noop_compute(a, v, &mut out);
    out
}

/// Ordinal of the critical region beginning at `begin` within thread
/// `t`'s kernel (regions are sorted by begin pc).
fn region_ordinal(a: &VmAnalysis, t: usize, begin: usize) -> Option<usize> {
    a.threads[t]
        .abs
        .regions
        .iter()
        .position(|r| r.begin == begin)
}

/// (a) Mixed-access race: a plain access in one kernel provably
/// overlaps a line another kernel provably writes inside a critical
/// region — the HyTM fast/slow-path hazard, visible through computed
/// addresses too.
fn mixed_access_race(a: &VmAnalysis, v: &View, out: &mut Vec<Diag>) {
    for (t, f) in a.threads.iter().enumerate() {
        for op in f.abs.ops.iter().filter(|o| o.crit.is_none()) {
            let Some(op_lines) = op.lines.lines() else {
                continue; // widened: nothing proven
            };
            for (u, g) in a.threads.iter().enumerate() {
                if u == t {
                    continue;
                }
                let Some(w) = g.abs.crit_writes.lines() else {
                    continue;
                };
                let hit: BTreeSet<LineAddr> = op_lines.intersection(w).copied().collect();
                let Some(&shown) = hit.first() else {
                    continue;
                };
                let verb = if op.is_write { "store" } else { "load" };
                let (segment, pos) = v.site(t, None, op.pc);
                out.push(Diag {
                    rule: "mixed-access-race",
                    severity: Severity::Error,
                    thread: Some(t),
                    segment,
                    op: pos,
                    lines: v.lines(&hit),
                    message: format!(
                        "plain {verb}{} of {} races with a critical write on thread {u}",
                        v.at(op.pc),
                        v.line(shown),
                    ),
                });
                break; // one diagnostic per op
            }
        }
    }
}

/// (b) Capacity overflow: a critical region's proven footprint maps
/// more lines to one L1 set than the speculative ways — overflow is
/// guaranteed on every HTM attempt (and, on switchingMode systems,
/// signature spills).
fn capacity_overflow(a: &VmAnalysis, v: &View, out: &mut Vec<Diag>) {
    if !a.system.uses_htm() {
        return;
    }
    let ways = a.cfg.speculative_ways();
    let budget = a.cfg.signature_line_budget();
    let subscribes = !a.system.policy().htmlock;
    for (t, f) in a.threads.iter().enumerate() {
        for (s, region) in f.abs.regions.iter().enumerate() {
            let Some(mut phys) = region.lines() else {
                continue; // widened region: overflow unprovable
            };
            if subscribes {
                phys.insert(SpecProgram::LOCK_LINE);
            }
            let mut per_set: BTreeMap<usize, usize> = BTreeMap::new();
            for &line in &phys {
                *per_set.entry(a.cfg.l1_set_of(line)).or_default() += 1;
            }
            let Some((&set, &n)) = per_set.iter().find(|&(_, &n)| n > ways) else {
                continue;
            };
            let sig = if phys.len() > budget {
                format!(" and exceeds the {budget}-line signature budget")
            } else {
                String::new()
            };
            let (segment, op) = v.site(t, Some(s), region.begin);
            out.push(Diag {
                rule: "capacity-overflow",
                severity: Severity::Warn,
                thread: Some(t),
                segment,
                op,
                lines: v.lines(&phys),
                message: format!(
                    "critical {} maps {n} lines to L1 set {set} \
                     (associativity {ways}): speculative overflow is guaranteed{sig}",
                    v.region()
                ),
            });
        }
    }
}

/// (c) Hand-off cycle: a cycle in the cross-thread line-dependency
/// graph over critical regions (thread `t` depends on `u` when `t`
/// provably touches, inside a critical region, a line `u` provably
/// writes inside one) — the deadlock/livelock shape of the
/// `2/c:L0,S1/c:L1,S0` kernel.
fn handoff_cycle(a: &VmAnalysis, v: &View, out: &mut Vec<Diag>) {
    let n = a.threads.len();
    // Precise critical footprints; a widened one proves no edge.
    let crit: Vec<Option<(BTreeSet<LineAddr>, &BTreeSet<LineAddr>)>> = a
        .threads
        .iter()
        .map(|f| {
            let (r, w) = (f.abs.crit_reads.lines()?, f.abs.crit_writes.lines()?);
            Some((r.union(w).copied().collect(), w))
        })
        .collect();
    // Lines `u` writes critically that `t` touches critically.
    let handed = |t: usize, u: usize| -> BTreeSet<LineAddr> {
        match (&crit[t], &crit[u]) {
            (Some((touched, _)), Some((_, written))) if t != u => {
                touched.intersection(written).copied().collect()
            }
            _ => BTreeSet::new(),
        }
    };
    // Transitive closure of the (tiny) thread graph; threads reaching
    // each other form a strongly connected component, and a multi-node
    // component is a hand-off cycle.
    let mut reach: Vec<Vec<bool>> = (0..n)
        .map(|t| (0..n).map(|u| !handed(t, u).is_empty()).collect())
        .collect();
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                reach[i][j] |= reach[i][k] && reach[k][j];
            }
        }
    }
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let members: Vec<usize> = (start..n)
            .filter(|&u| u == start || (reach[start][u] && reach[u][start]))
            .collect();
        for &u in &members {
            seen[u] = true;
        }
        if members.len() < 2 {
            continue;
        }
        let mut lines: BTreeSet<LineAddr> = BTreeSet::new();
        for &t in &members {
            for &u in &members {
                lines.extend(handed(t, u));
            }
        }
        let names: Vec<String> = members.iter().map(usize::to_string).collect();
        out.push(Diag {
            rule: "handoff-cycle",
            severity: Severity::Warn,
            thread: Some(start),
            segment: None,
            op: None,
            lines: v.lines(&lines),
            message: format!(
                "critical {}s of threads {} form a line hand-off cycle",
                v.region(),
                names.join(", ")
            ),
        });
    }
}

/// (d) Rollback-unsafe store: a store pc reachable both inside and
/// outside a critical region. An abort restores the `CritBegin`
/// register snapshot and re-executes from there, so the plain-context
/// incarnation of the store can be resurrected with rolled-back
/// operands. `Kernel::validate` rejects this shape; the lint diagnoses
/// hand-built kernels that bypass it.
fn rollback_unsafe_store(a: &VmAnalysis, v: &View, out: &mut Vec<Diag>) {
    for (t, f) in a.threads.iter().enumerate() {
        for pc in f.abs.rollback_unsafe() {
            let lines: BTreeSet<LineAddr> = f
                .abs
                .ops
                .iter()
                .filter(|o| o.pc == pc)
                .filter_map(|o| o.lines.lines())
                .flatten()
                .copied()
                .collect();
            let (segment, op) = v.site(t, None, pc);
            out.push(Diag {
                rule: "rollback-unsafe-store",
                severity: Severity::Error,
                thread: Some(t),
                segment,
                op,
                lines: v.lines(&lines),
                message: format!(
                    "store at pc {pc} is reachable both inside and outside a \
                     critical region: an abort rollback can resurrect it with \
                     stale registers"
                ),
            });
        }
    }
}

/// (e) Unreachable instruction: never visited by the abstract fixpoint
/// (which over-approximates reachability, so this is a proof).
fn unreachable_instruction(a: &VmAnalysis, v: &View, out: &mut Vec<Diag>) {
    for (t, f) in a.threads.iter().enumerate() {
        for (pc, &r) in f.abs.reachable.iter().enumerate() {
            if !r {
                let (segment, op) = v.site(t, None, pc);
                out.push(Diag {
                    rule: "unreachable-instruction",
                    severity: Severity::Warn,
                    thread: Some(t),
                    segment,
                    op,
                    lines: vec![],
                    message: format!("instruction at pc {pc} can never execute"),
                });
            }
        }
    }
}

/// (f) Unbounded loop: provably no feasible exit. Inside a critical
/// region this is an error — the transaction can never commit and the
/// fallback path spins under the lock forever.
fn unbounded_loop(a: &VmAnalysis, v: &View, out: &mut Vec<Diag>) {
    for (t, f) in a.threads.iter().enumerate() {
        for l in &f.abs.loops {
            if l.bound != LoopBound::Unbounded {
                continue;
            }
            let (rule, severity, place): (&'static str, _, _) = if l.in_crit {
                (
                    "unbounded-loop-in-crit",
                    Severity::Error,
                    " inside a critical region",
                )
            } else {
                ("unbounded-loop", Severity::Warn, "")
            };
            let (segment, op) = v.site(t, None, l.from);
            out.push(Diag {
                rule,
                severity,
                thread: Some(t),
                segment,
                op,
                lines: vec![],
                message: format!(
                    "loop at pc {} -> {} has no feasible exit{place}",
                    l.from, l.head
                ),
            });
        }
    }
}

/// (g) Dead store: a proven store target no kernel can ever read.
/// Requires *every* read footprint in the program to be precise —
/// one widened reader and nothing is provably dead.
fn dead_store(a: &VmAnalysis, v: &View, out: &mut Vec<Diag>) {
    let mut read: BTreeSet<LineAddr> = BTreeSet::new();
    for f in &a.threads {
        for s in [&f.abs.crit_reads, &f.abs.plain_reads] {
            match s {
                AbsLines::Lines(ls) => read.extend(ls.iter().copied()),
                AbsLines::Top => return,
            }
        }
    }
    for (t, f) in a.threads.iter().enumerate() {
        for op in f.abs.ops.iter().filter(|o| o.is_write && !o.is_read) {
            let Some(lines) = op.lines.lines() else {
                continue;
            };
            if lines.iter().any(|l| read.contains(l)) {
                continue;
            }
            let Some(&dead) = lines.first() else {
                continue;
            };
            let region = op.crit.and_then(|b| region_ordinal(a, t, b));
            let (segment, pos) = v.site(t, region, op.pc);
            out.push(Diag {
                rule: "dead-store",
                severity: Severity::Note,
                thread: Some(t),
                segment,
                op: pos,
                lines: v.lines(lines),
                message: format!("store to {} is never loaded by any thread", v.line(dead)),
            });
        }
    }
}

/// (h) Unused line: declared in the arena but provably never accessed.
/// One widened footprint and no line is provably unused.
fn unused_line(a: &VmAnalysis, v: &View, out: &mut Vec<Diag>) {
    let mut touched = AbsLines::empty();
    for f in &a.threads {
        touched.union_with(&f.abs.touched());
    }
    if touched.is_top() {
        return;
    }
    for l in v.declared() {
        if !touched.contains(l) {
            out.push(Diag {
                rule: "unused-line",
                severity: Severity::Note,
                thread: None,
                segment: None,
                op: None,
                lines: v.lines(&[l].into()),
                message: format!("declared {} is never accessed", v.line(l)),
            });
        }
    }
}

/// (i) No-op compute: a reachable `Compute(0)` (`C0` in a spec) does
/// nothing; almost always a typo.
fn noop_compute(a: &VmAnalysis, v: &View, out: &mut Vec<Diag>) {
    for (t, f) in a.threads.iter().enumerate() {
        for &pc in &f.abs.noop_compute {
            let (segment, op) = v.site(t, None, pc);
            out.push(Diag {
                rule: "noop-compute",
                severity: Severity::Warn,
                thread: Some(t),
                segment,
                op,
                lines: Vec::new(),
                message: format!("C0{} computes zero instructions (no-op)", v.at(pc)),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestvm::{Instr, Kernel, KernelBuilder, ProgSpec};
    use lockiller::SystemKind;
    use sim_core::config::SystemConfig;

    fn lint_spec(spec: &str, system: SystemKind) -> Vec<Diag> {
        let spec = ProgSpec::parse(spec).unwrap();
        let kernels = SpecProgram::compile_all(&spec);
        let a = VmAnalysis::new(system, SystemConfig::testing(2), &kernels);
        lint_kernels(&a)
    }

    #[test]
    fn mixed_race_matches_spec_level_lint() {
        // The CI demo kernel: thread 1 plain-reads what thread 0
        // critically writes.
        let diags = lint_spec("2/c:L0,S1/p:L1", SystemKind::LockillerTm);
        let race: Vec<&Diag> = diags
            .iter()
            .filter(|d| d.rule == "mixed-access-race")
            .collect();
        assert_eq!(race.len(), 1);
        assert_eq!(race[0].thread, Some(1));
        assert_eq!(race[0].lines, vec![SpecProgram::data_line(1).0]);
        assert_eq!(race[0].severity, Severity::Error);
    }

    #[test]
    fn disjoint_program_is_clean() {
        let diags = lint_spec("2/c:L0,S0/c:L1,S1", SystemKind::LockillerTm);
        assert!(
            diags.iter().all(|d| d.severity < Severity::Error),
            "unexpected errors: {diags:?}"
        );
    }

    #[test]
    fn rollback_unsafe_and_unbounded_loops_report() {
        // Hand-built kernel bypassing validate(): a store reachable in
        // both contexts plus a spin loop inside the critical region.
        let k = Kernel {
            name: "evil".into(),
            nregs: 2,
            instrs: vec![
                Instr::Imm(0, 64),
                Instr::Load(1, 0, 0),
                Instr::Br(guestvm::Cond::Eq, 1, 0, 5),
                Instr::CritBegin,
                Instr::Jmp(6),
                Instr::Store(0, 0, 1),
                Instr::Store(0, 0, 1),
                Instr::Jmp(6), // spin: never reaches CritEnd
                Instr::CritEnd,
                Instr::Halt,
            ],
        };
        assert!(k.validate().is_err());
        let a = VmAnalysis::new(SystemKind::LockillerTm, SystemConfig::testing(2), &[k]);
        let diags = lint_kernels(&a);
        let rules: Vec<&str> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"rollback-unsafe-store"), "{rules:?}");
        assert!(rules.contains(&"unbounded-loop-in-crit"), "{rules:?}");
        assert!(rules.contains(&"unreachable-instruction"), "{rules:?}");
        let rb = diags
            .iter()
            .find(|d| d.rule == "rollback-unsafe-store")
            .unwrap();
        assert_eq!(rb.op, Some(6));
    }

    #[test]
    fn dead_store_goes_silent_when_any_reader_widens() {
        // Thread 0 stores line 30 nobody reads -> dead-store...
        let mut b = KernelBuilder::new("w", 2);
        b.imm(0, 240).imm(1, 1).store(0, 0, 1).halt();
        let a = VmAnalysis::new(
            SystemKind::LockillerTm,
            SystemConfig::testing(2),
            &[b.build()],
        );
        assert!(lint_kernels(&a).iter().any(|d| d.rule == "dead-store"));
        // ...but a Top reader elsewhere withdraws the proof.
        let mut b = KernelBuilder::new("w", 2);
        b.imm(0, 240).imm(1, 1).store(0, 0, 1).halt();
        let mut top = KernelBuilder::new("r", 2);
        top.imm(0, 64).load(1, 0, 0).load(1, 1, 0).halt();
        let a = VmAnalysis::new(
            SystemKind::LockillerTm,
            SystemConfig::testing(2),
            &[b.build(), top.build()],
        );
        assert!(lint_kernels(&a).iter().all(|d| d.rule != "dead-store"));
    }

    #[test]
    fn json_schema_round_trips_through_existing_renderer() {
        let diags = lint_spec("2/c:L0,S1/p:L1", SystemKind::LockillerTm);
        let j = diags
            .iter()
            .find(|d| d.rule == "mixed-access-race")
            .unwrap()
            .to_json();
        assert!(j.starts_with("{\"rule\": \"mixed-access-race\""), "{j}");
        assert!(j.contains("\"severity\": \"error\""), "{j}");
    }

    #[test]
    fn spec_hygiene_rules_fire_on_kernels() {
        // The hand-off ring in kernel coordinates: physical lines, and
        // the cycle named by its critical regions.
        let d = lint_spec("2/c:L0,S1/c:L1,S0", SystemKind::LockillerRwi);
        let cyc = d.iter().find(|d| d.rule == "handoff-cycle").expect("cycle");
        assert_eq!(cyc.lines, vec![2, 3]);
        assert_eq!(
            cyc.message,
            "critical regions of threads 0, 1 form a line hand-off cycle"
        );
        // A compute of zero instructions, reported at its pc; kernels
        // declare no arena, so no line is ever "unused".
        let mut b = KernelBuilder::new("noop", 1);
        b.compute(3).compute(0).halt();
        let a = VmAnalysis::new(
            SystemKind::LockillerTm,
            SystemConfig::testing(2),
            &[b.build()],
        );
        let d = lint_kernels(&a);
        let rules: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["noop-compute"], "{d:?}");
        assert_eq!((d[0].segment, d[0].op), (None, Some(1)));
        assert_eq!(
            d[0].message,
            "C0 at pc 1 computes zero instructions (no-op)"
        );
    }

    #[test]
    fn handoff_cycle_needs_precise_footprints() {
        // Thread 0 critically reads line 9, which thread 1 critically
        // writes; thread 1 critically reads line 10. Whether thread 0
        // critically writes line 10 decides the cycle — and a store to a
        // widened (loaded) address proves nothing.
        let thread0 = |precise: bool| {
            let mut b = KernelBuilder::new("t0", 3);
            b.imm(0, 64).load(1, 0, 0); // r1 = mem[64]: Top
            if precise {
                b.imm(1, 80); // word 80 -> line 10
            }
            b.crit_begin();
            b.store(1, 0, 1).load(2, 0, 8); // write [r1], read line 9
            b.crit_end().halt();
            b.build()
        };
        let mut t1 = KernelBuilder::new("t1", 2);
        t1.crit_begin();
        t1.imm(0, 72).store(0, 0, 0).load(1, 0, 8); // write 9, read 10
        t1.crit_end().halt();
        let t1 = t1.build();
        for (precise, cycle) in [(true, true), (false, false)] {
            let a = VmAnalysis::new(
                SystemKind::LockillerTm,
                SystemConfig::testing(2),
                &[thread0(precise), t1.clone()],
            );
            let found = lint_kernels(&a).iter().any(|d| d.rule == "handoff-cycle");
            assert_eq!(found, cycle, "precise = {precise}");
        }
    }
}
