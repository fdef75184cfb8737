//! Conflict forensics: who aborted whom, on which line, and whether the
//! recovery decision paid off.
//!
//! A recording already tells us *that* aborts happened ([`Recorder`]
//! spans) and *where* conflicts were resolved ([`ConflictEvent`]s from
//! the coherence layer). This module joins the two into three artifacts:
//!
//! 1. **Attacker/victim matrix** — per core pair: conflict edges,
//!    aborts caused, and wasted cycles. Wasted cycles are the durations
//!    of aborted transaction attempts, attributed to the most recent
//!    conflicting attacker; attempts with no recorded conflict edge
//!    (capacity, faults, self-aborts with the NACK long past) land in a
//!    dedicated "unattributed" row so the matrix total reconciles
//!    *exactly* with `RunStats::aborted_cycles`.
//! 2. **Per-line hotspot table** — lines ranked by aborts caused, with
//!    the [`AbortCause`] split plus NACK / signature-reject pressure.
//! 3. **Recovery ledger** — every transaction attempt that survived at
//!    least one NACK, tracked to its eventual commit, proactive switch,
//!    or abort: the "fraction of recoveries that saved work".

use crate::recorder::{ConflictEvent, Recorder, SpanEnd, SpanKind, Track};
use sim_core::json::escape;
use sim_core::obs::{ConflictResolution, RecoveryAction};
use sim_core::stats::{AbortCause, RunStats};
use sim_core::types::{Cycle, LineAddr};

/// Core×core conflict accounting. Rows are attackers (index `threads`
/// is the "unattributed" environment row), columns are victims.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConflictMatrix {
    pub threads: usize,
    /// Conflict edges (NACKs + aborts + signature rejects) per pair.
    pub conflicts: Vec<Vec<u64>>,
    /// Aborted victim attempts attributed to each attacker.
    pub aborts: Vec<Vec<u64>>,
    /// Wasted (aborted-speculation) cycles attributed to each attacker.
    pub wasted: Vec<Vec<Cycle>>,
}

impl ConflictMatrix {
    fn new(threads: usize) -> ConflictMatrix {
        ConflictMatrix {
            threads,
            conflicts: vec![vec![0; threads]; threads + 1],
            aborts: vec![vec![0; threads]; threads + 1],
            wasted: vec![vec![0; threads]; threads + 1],
        }
    }

    pub fn total_conflicts(&self) -> u64 {
        self.conflicts.iter().flatten().sum()
    }

    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().flatten().sum()
    }

    /// Sum of all wasted-cycle weights; reconciles (±0) with
    /// [`RunStats::aborted_cycles`] for the same run.
    pub fn total_wasted(&self) -> Cycle {
        self.wasted.iter().flatten().sum()
    }
}

/// One cache line's conflict record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineHotspot {
    pub line: LineAddr,
    /// Aborts this line caused, split by [`AbortCause`] index.
    pub aborts: [u64; 6],
    pub nacks: u64,
    pub sig_rejects: u64,
    /// Wasted cycles of aborted attempts attributed to this line.
    pub wasted: Cycle,
}

impl LineHotspot {
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }
}

/// Where the transaction attempts that took at least one NACK /
/// signature reject ended up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryLedger {
    /// Transaction attempts that were NACKed or signature-rejected at
    /// least once.
    pub nacked_attempts: u64,
    /// ... and still committed in HTM: the recovery saved the work.
    pub saved: u64,
    /// ... and committed via a granted proactive switch (STL).
    pub switched: u64,
    /// ... and aborted anyway: the NACK only postponed the loss.
    pub lost: u64,
    /// ... still open at end-of-run truncation.
    pub truncated: u64,
    /// Total NACK edges observed (including outside transactions).
    pub nacks: u64,
    /// Total signature-reject edges observed.
    pub sig_rejects: u64,
    /// Reject follow-up split: requester-abort-itself / retry-later /
    /// wait-for-wakeup decisions.
    pub rai: u64,
    pub rri: u64,
    pub rwi: u64,
    /// Cycles spent parked by the recovery mechanism (all Park spans).
    pub park_cycles: Cycle,
}

impl RecoveryLedger {
    /// Fraction of NACK-surviving attempts whose work was saved
    /// (committed in HTM or via a proactive switch). NaN-free.
    pub fn saved_fraction(&self) -> f64 {
        let saved = self.saved + self.switched;
        if self.nacked_attempts == 0 {
            0.0
        } else {
            saved as f64 / self.nacked_attempts as f64
        }
    }
}

/// The full forensics analysis of one recording.
#[derive(Clone, Debug)]
pub struct ForensicsReport {
    pub matrix: ConflictMatrix,
    /// All conflicted lines, sorted by (aborts caused, NACKs) descending.
    pub hotspots: Vec<LineHotspot>,
    pub ledger: RecoveryLedger,
}

/// Schema version of [`ForensicsReport::to_json`].
pub const BLAME_JSON_SCHEMA: u64 = 1;

/// Derive the forensics artifacts from a finished recording.
///
/// Every aborted `Txn` span contributes its full duration as wasted
/// cycles exactly once, so `report.matrix.total_wasted()` equals the
/// run's `RunStats::aborted_cycles()` — the reconciliation that
/// [`ForensicsReport::reconcile`] checks.
pub fn analyze(rec: &Recorder, threads: usize) -> ForensicsReport {
    let mut matrix = ConflictMatrix::new(threads);
    let mut hotspots: Vec<LineHotspot> = Vec::new();
    let mut ledger = RecoveryLedger::default();

    // Conflict edges grouped per victim, preserving cycle order, so span
    // attribution below can binary-search its window.
    let mut by_victim: Vec<Vec<&ConflictEvent>> = vec![Vec::new(); threads];
    for c in rec.conflicts() {
        let e = &c.edge;
        let attacker = if e.attacker < threads {
            e.attacker
        } else {
            threads
        };
        if e.victim < threads {
            matrix.conflicts[attacker][e.victim] += 1;
            by_victim[e.victim].push(c);
        }
        let h = hotspot_mut(&mut hotspots, e.line);
        match e.resolution {
            ConflictResolution::Abort(cause) => h.aborts[cause.index()] += 1,
            ConflictResolution::Nack => {
                h.nacks += 1;
                ledger.nacks += 1;
            }
            ConflictResolution::SigReject => {
                h.sig_rejects += 1;
                ledger.sig_rejects += 1;
            }
        }
        match e.action {
            RecoveryAction::Rai => ledger.rai += 1,
            RecoveryAction::Rri => ledger.rri += 1,
            RecoveryAction::Rwi => ledger.rwi += 1,
            RecoveryAction::None => {}
        }
    }

    for span in rec.spans() {
        match span.kind {
            SpanKind::Park => ledger.park_cycles += span.duration(),
            SpanKind::Txn => {}
            _ => continue,
        }
        if span.kind != SpanKind::Txn {
            continue;
        }
        let Track::Core(victim) = span.track else {
            continue;
        };
        if victim >= threads {
            continue;
        }
        // Edges this attempt received, in [start, end] of the span.
        // Per-victim edges are cycle-ordered (the engine drains them in
        // event order), so the window is a contiguous slice.
        let edges = &by_victim[victim];
        let lo = edges.partition_point(|c| c.cycle < span.start);
        let hi = edges.partition_point(|c| c.cycle <= span.end);
        let window = &edges[lo..hi];

        let rejected = window
            .iter()
            .any(|c| !matches!(c.edge.resolution, ConflictResolution::Abort(_)));
        if rejected {
            ledger.nacked_attempts += 1;
            match span.outcome {
                SpanEnd::Commit => ledger.saved += 1,
                SpanEnd::Switched => ledger.switched += 1,
                SpanEnd::Abort(_) => ledger.lost += 1,
                _ => ledger.truncated += 1,
            }
        }

        if let SpanEnd::Abort(cause) = span.outcome {
            // Attribute the whole aborted attempt once: prefer the last
            // protocol abort edge, then the last reject edge, else the
            // unattributed row (capacity/fault/local aborts).
            let blame = window
                .iter()
                .rev()
                .find(|c| matches!(c.edge.resolution, ConflictResolution::Abort(_)))
                .or_else(|| window.last());
            let attacker = blame
                .map(|c| c.edge.attacker.min(threads))
                .unwrap_or(threads);
            matrix.aborts[attacker][victim] += 1;
            matrix.wasted[attacker][victim] += span.duration();
            if let Some(c) = blame {
                hotspot_mut(&mut hotspots, c.edge.line).wasted += span.duration();
            } else {
                // Keep the cause split visible even without a line: the
                // unattributed aborts still reconcile via the matrix.
                let _ = cause;
            }
        }
    }

    hotspots.sort_by(|a, b| {
        (b.total_aborts(), b.nacks, b.sig_rejects, a.line.0).cmp(&(
            a.total_aborts(),
            a.nacks,
            a.sig_rejects,
            b.line.0,
        ))
    });

    ForensicsReport {
        matrix,
        hotspots,
        ledger,
    }
}

fn hotspot_mut(hotspots: &mut Vec<LineHotspot>, line: LineAddr) -> &mut LineHotspot {
    if let Some(i) = hotspots.iter().position(|h| h.line == line) {
        return &mut hotspots[i];
    }
    hotspots.push(LineHotspot {
        line,
        aborts: [0; 6],
        nacks: 0,
        sig_rejects: 0,
        wasted: 0,
    });
    hotspots.last_mut().unwrap()
}

impl ForensicsReport {
    /// Check the wasted-work identity against the run's statistics:
    /// the matrix total must equal the aborted-speculation phase bucket
    /// cycle-for-cycle.
    pub fn reconcile(&self, stats: &RunStats) -> Result<(), String> {
        let matrix = self.matrix.total_wasted();
        let phases = stats.aborted_cycles();
        if matrix == phases {
            Ok(())
        } else {
            Err(format!(
                "wasted-cycle mismatch: matrix total {matrix} != RunStats aborted cycles {phases}"
            ))
        }
    }

    /// Encode as a JSON document (schema [`BLAME_JSON_SCHEMA`]).
    pub fn to_json(&self, top_lines: usize) -> String {
        fn arr2(m: &[Vec<u64>]) -> String {
            let rows: Vec<String> = m
                .iter()
                .map(|row| {
                    let cells: Vec<String> = row.iter().map(u64::to_string).collect();
                    format!("[{}]", cells.join(","))
                })
                .collect();
            format!("[{}]", rows.join(","))
        }
        let mut hot = Vec::new();
        for h in self.hotspots.iter().take(top_lines) {
            let causes: Vec<String> = AbortCause::ALL
                .iter()
                .map(|c| format!("\"{}\":{}", c.name(), h.aborts[c.index()]))
                .collect();
            hot.push(format!(
                "{{\"line\":\"{}\",\"aborts\":{{{}}},\"total_aborts\":{},\"nacks\":{},\"sig_rejects\":{},\"wasted\":{}}}",
                escape(&format!("{:?}", h.line)),
                causes.join(","),
                h.total_aborts(),
                h.nacks,
                h.sig_rejects,
                h.wasted,
            ));
        }
        let l = &self.ledger;
        format!(
            concat!(
                "{{\"schema\":{},\"threads\":{},",
                "\"matrix\":{{\"conflicts\":{},\"aborts\":{},\"wasted\":{}}},",
                "\"total_conflicts\":{},\"total_aborts\":{},\"total_wasted\":{},",
                "\"hotspots\":{},",
                "\"ledger\":{{\"nacked_attempts\":{},\"saved\":{},\"switched\":{},",
                "\"lost\":{},\"truncated\":{},\"saved_fraction\":{:.6},",
                "\"nacks\":{},\"sig_rejects\":{},\"rai\":{},\"rri\":{},\"rwi\":{},",
                "\"park_cycles\":{}}}}}\n",
            ),
            BLAME_JSON_SCHEMA,
            self.matrix.threads,
            arr2(&self.matrix.conflicts),
            arr2(&self.matrix.aborts),
            arr2(&self.matrix.wasted),
            self.matrix.total_conflicts(),
            self.matrix.total_aborts(),
            self.matrix.total_wasted(),
            format!("[{}]", hot.join(",")),
            l.nacked_attempts,
            l.saved,
            l.switched,
            l.lost,
            l.truncated,
            l.saved_fraction(),
            l.nacks,
            l.sig_rejects,
            l.rai,
            l.rri,
            l.rwi,
            l.park_cycles,
        )
    }

    /// Render the three artifacts as terminal tables.
    pub fn render(&self, top_lines: usize) -> String {
        let m = &self.matrix;
        let n = m.threads;
        let mut out = String::new();
        out.push_str(&format!(
            "conflict forensics: {} cores, {} conflict edges ({} nack, {} sig-reject), {} attributed aborts, {} wasted cycles\n",
            n,
            m.total_conflicts(),
            self.ledger.nacks,
            self.ledger.sig_rejects,
            m.total_aborts(),
            m.total_wasted(),
        ));

        out.push_str("\nattacker × victim (conflicts / aborts caused / wasted kcycles):\n");
        if n <= 16 {
            out.push_str("  atk\\vic");
            for v in 0..n {
                out.push_str(&format!("{v:>14}"));
            }
            out.push('\n');
            for a in 0..=n {
                let label = if a < n {
                    format!("c{a}")
                } else {
                    "env".to_string()
                };
                if m.conflicts[a].iter().sum::<u64>() == 0 && m.aborts[a].iter().sum::<u64>() == 0 {
                    continue;
                }
                out.push_str(&format!("  {label:<7}"));
                for v in 0..n {
                    if m.conflicts[a][v] == 0 && m.aborts[a][v] == 0 {
                        out.push_str(&format!("{:>14}", "."));
                    } else {
                        out.push_str(&format!(
                            "{:>14}",
                            format!(
                                "{}/{}/{:.0}k",
                                m.conflicts[a][v],
                                m.aborts[a][v],
                                m.wasted[a][v] as f64 / 1e3
                            )
                        ));
                    }
                }
                out.push('\n');
            }
        } else {
            // Wide systems: top pairs only.
            let mut pairs: Vec<(usize, usize)> = (0..=n)
                .flat_map(|a| (0..n).map(move |v| (a, v)))
                .filter(|&(a, v)| m.conflicts[a][v] > 0 || m.aborts[a][v] > 0)
                .collect();
            pairs.sort_by_key(|&(a, v)| std::cmp::Reverse((m.wasted[a][v], m.conflicts[a][v])));
            for &(a, v) in pairs.iter().take(top_lines) {
                let label = if a < n { format!("c{a}") } else { "env".into() };
                out.push_str(&format!(
                    "  {label:>4} -> c{v:<3} {:>8} conflicts {:>7} aborts {:>12} wasted\n",
                    m.conflicts[a][v], m.aborts[a][v], m.wasted[a][v]
                ));
            }
        }

        out.push_str(&format!(
            "\ntop {} lines by aborts caused:\n  line           aborts  mc lock mutex non_tran  nacks  sig  wasted\n",
            top_lines.min(self.hotspots.len())
        ));
        for h in self.hotspots.iter().take(top_lines) {
            out.push_str(&format!(
                "  {:<14} {:>6} {:>3} {:>4} {:>5} {:>8} {:>6} {:>4} {:>7}\n",
                format!("{:?}", h.line),
                h.total_aborts(),
                h.aborts[AbortCause::Mc.index()],
                h.aborts[AbortCause::Lock.index()],
                h.aborts[AbortCause::Mutex.index()],
                h.aborts[AbortCause::NonTran.index()],
                h.nacks,
                h.sig_rejects,
                h.wasted,
            ));
        }

        let l = &self.ledger;
        out.push_str(&format!(
            concat!(
                "\nrecovery ledger:\n",
                "  nacked attempts {:>8}   saved {:>8}   switched {:>6}   lost {:>8}   truncated {:>4}\n",
                "  saved fraction  {:>7.1}%   follow-ups: rai {} / rri {} / rwi {}   park cycles {}\n",
            ),
            l.nacked_attempts,
            l.saved,
            l.switched,
            l.lost,
            l.truncated,
            l.saved_fraction() * 100.0,
            l.rai,
            l.rri,
            l.rwi,
            l.park_cycles,
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::trace;
    use lockiller::{Trace, TraceKind};
    use sim_core::obs::ConflictEdge;
    use sim_core::types::CoreId;

    fn conflict(
        t: &mut Trace,
        cycle: Cycle,
        attacker: CoreId,
        victim: CoreId,
        line: u64,
        resolution: ConflictResolution,
        action: RecoveryAction,
    ) {
        t.record_conflict(
            cycle,
            ConflictEdge {
                attacker,
                victim,
                line: LineAddr(line),
                attacker_prio: 1,
                victim_prio: 0,
                resolution,
                action,
            },
        );
    }

    /// A `Txn` span from `start` to `end`, closed by `outcome` (`Commit`
    /// or `Abort`).
    fn txn(t: &mut Trace, core: CoreId, start: Cycle, end: Cycle, outcome: TraceKind) {
        t.record(start, core, TraceKind::TxBegin);
        t.record(end, core, outcome);
    }

    #[test]
    fn attribution_prefers_abort_edge_and_reconciles() {
        let mut t = trace(&[]);
        // Core 1 gets NACKed by core 0, then aborted by core 2.
        conflict(
            &mut t,
            12,
            0,
            1,
            0x40,
            ConflictResolution::Nack,
            RecoveryAction::Rwi,
        );
        conflict(
            &mut t,
            18,
            2,
            1,
            0x41,
            ConflictResolution::Abort(AbortCause::Mc),
            RecoveryAction::None,
        );
        txn(&mut t, 1, 10, 20, TraceKind::Abort(AbortCause::Mc));
        // Core 2 aborts for capacity with no conflict edge: unattributed.
        txn(&mut t, 2, 5, 35, TraceKind::Abort(AbortCause::Of));
        // Core 0 commits after a NACK: a saved recovery.
        conflict(
            &mut t,
            42,
            2,
            0,
            0x40,
            ConflictResolution::Nack,
            RecoveryAction::Rwi,
        );
        txn(&mut t, 0, 40, 50, TraceKind::Commit);
        let rec = Recorder::from_trace(&t, 60);

        let r = analyze(&rec, 3);
        assert_eq!(r.matrix.aborts[2][1], 1, "abort edge wins attribution");
        assert_eq!(r.matrix.wasted[2][1], 10);
        assert_eq!(r.matrix.aborts[3][2], 1, "capacity abort unattributed");
        assert_eq!(r.matrix.wasted[3][2], 30);
        assert_eq!(r.matrix.total_wasted(), 40);
        assert_eq!(r.matrix.conflicts[0][1], 1);
        assert_eq!(r.ledger.nacked_attempts, 2);
        assert_eq!(r.ledger.saved, 1);
        assert_eq!(r.ledger.lost, 1);
        assert!((r.ledger.saved_fraction() - 0.5).abs() < 1e-9);

        let mut stats = RunStats::default();
        stats.phases[sim_core::stats::Phase::Aborted.index()] = 40;
        r.reconcile(&stats).unwrap();
        stats.phases[sim_core::stats::Phase::Aborted.index()] = 41;
        assert!(r.reconcile(&stats).is_err());
    }

    #[test]
    fn nack_edge_attributes_local_self_abort() {
        // RAI: the victim aborts itself after a NACK — no protocol abort
        // edge exists, the NACKer still gets the blame.
        let mut t = trace(&[]);
        conflict(
            &mut t,
            15,
            0,
            1,
            0x80,
            ConflictResolution::Nack,
            RecoveryAction::Rai,
        );
        txn(&mut t, 1, 10, 17, TraceKind::Abort(AbortCause::Mc));
        let rec = Recorder::from_trace(&t, 20);
        let r = analyze(&rec, 2);
        assert_eq!(r.matrix.aborts[0][1], 1);
        assert_eq!(r.matrix.wasted[0][1], 7);
        assert_eq!(r.ledger.rai, 1);
        assert_eq!(r.ledger.lost, 1);
    }

    #[test]
    fn hotspots_rank_by_aborts_then_nacks() {
        let mut t = trace(&[]);
        for i in 0..3 {
            conflict(
                &mut t,
                i,
                0,
                1,
                0x10,
                ConflictResolution::Nack,
                RecoveryAction::Rwi,
            );
        }
        conflict(
            &mut t,
            5,
            0,
            1,
            0x20,
            ConflictResolution::Abort(AbortCause::Mc),
            RecoveryAction::None,
        );
        let rec = Recorder::from_trace(&t, 10);
        let r = analyze(&rec, 2);
        assert_eq!(r.hotspots[0].line, LineAddr(0x20));
        assert_eq!(r.hotspots[0].total_aborts(), 1);
        assert_eq!(r.hotspots[1].line, LineAddr(0x10));
        assert_eq!(r.hotspots[1].nacks, 3);
    }

    #[test]
    fn json_round_trips_through_parser() {
        let mut t = trace(&[]);
        conflict(
            &mut t,
            3,
            0,
            1,
            0x40,
            ConflictResolution::SigReject,
            RecoveryAction::Rwi,
        );
        txn(&mut t, 1, 1, 9, TraceKind::Abort(AbortCause::Lock));
        let rec = Recorder::from_trace(&t, 10);
        let r = analyze(&rec, 2);
        let doc = r.to_json(8);
        let v = sim_core::json::parse(&doc).unwrap();
        assert_eq!(
            v.get("schema").and_then(sim_core::json::Json::as_f64),
            Some(BLAME_JSON_SCHEMA as f64)
        );
        assert_eq!(
            v.get("total_wasted").and_then(sim_core::json::Json::as_f64),
            Some(8.0)
        );
        let rendered = r.render(8);
        assert!(rendered.contains("recovery ledger"));
        assert!(rendered.contains("sig-reject"));
    }
}
