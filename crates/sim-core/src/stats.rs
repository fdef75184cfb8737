//! Statistics collected during a simulation run: the execution-time
//! breakdown of Figs. 9/11, the abort-cause taxonomy of Fig. 10, and the
//! commit-rate counters of Fig. 8.
//!
//! [`RunStats::to_json`] encodes a run as one compact JSON object with a
//! fixed field order (the `stats.json` artifact, the golden and
//! determinism fingerprints). Every field is an integer (or a list /
//! optional string of them), so equal runs encode to equal bytes.

use crate::json::escape;
use crate::latency::LatencyStats;
use crate::types::{CoreId, Cycle};

/// Execution-time categories, matching the paper's breakdown figures.
///
/// `Htm` and `Aborted` split speculative execution by its eventual outcome;
/// `SwitchLock` is Fig. 11's extra category for transactions that finished
/// in STL mode after a successful proactive switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Speculative transaction cycles that ended in a commit.
    Htm,
    /// Speculative transaction cycles that ended in an abort.
    Aborted,
    /// Lock-transaction cycles (fallback path / CGL critical sections /
    /// TL-mode HTMLock transactions).
    Lock,
    /// Cycles of a transaction that committed in STL mode after a
    /// successful proactive switch (Fig. 11's `switchLock`).
    SwitchLock,
    /// Non-transactional work and barrier waits.
    NonTran,
    /// Spinning on / waiting for the fallback (or CGL) lock.
    WaitLock,
    /// Abort processing and post-reject stalls (rollback).
    Rollback,
}

impl Phase {
    pub const ALL: [Phase; 7] = [
        Phase::Htm,
        Phase::Aborted,
        Phase::Lock,
        Phase::SwitchLock,
        Phase::NonTran,
        Phase::WaitLock,
        Phase::Rollback,
    ];

    pub fn index(self) -> usize {
        match self {
            Phase::Htm => 0,
            Phase::Aborted => 1,
            Phase::Lock => 2,
            Phase::SwitchLock => 3,
            Phase::NonTran => 4,
            Phase::WaitLock => 5,
            Phase::Rollback => 6,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Phase::Htm => "htm",
            Phase::Aborted => "aborted",
            Phase::Lock => "lock",
            Phase::SwitchLock => "switchLock",
            Phase::NonTran => "non-tran",
            Phase::WaitLock => "waitlock",
            Phase::Rollback => "rollback",
        }
    }
}

/// Why a transaction aborted — the six categories of Fig. 10.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// Conflict with another HTM transaction.
    Mc,
    /// Conflict with a lock transaction (HTMLock TL/STL mode).
    Lock,
    /// Conflict with the fallback path (the fallback-lock line itself:
    /// lock-subscription aborts).
    Mutex,
    /// Conflict with a non-transactional access (excluding lock/mutex).
    NonTran,
    /// Cache overflow (capacity / associativity, including LLC
    /// back-invalidation).
    Of,
    /// Exception (demand-paging fault inside the transaction).
    Fault,
}

impl AbortCause {
    pub const ALL: [AbortCause; 6] = [
        AbortCause::Mc,
        AbortCause::Lock,
        AbortCause::Mutex,
        AbortCause::NonTran,
        AbortCause::Of,
        AbortCause::Fault,
    ];

    pub fn index(self) -> usize {
        match self {
            AbortCause::Mc => 0,
            AbortCause::Lock => 1,
            AbortCause::Mutex => 2,
            AbortCause::NonTran => 3,
            AbortCause::Of => 4,
            AbortCause::Fault => 5,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            AbortCause::Mc => "mc",
            AbortCause::Lock => "lock",
            AbortCause::Mutex => "mutex",
            AbortCause::NonTran => "non_tran",
            AbortCause::Of => "of",
            AbortCause::Fault => "fault",
        }
    }
}

/// Per-core phase accounting. The engine switches the current phase as the
/// core moves through its program; speculative cycles park in a pending
/// bucket until the transaction's fate (commit/abort) is known.
#[derive(Clone, Debug, Default)]
pub struct PhaseTracker {
    bucket: [Cycle; 7],
    /// Cycles of the in-flight transaction attempt, attributed on outcome.
    pending_spec: Cycle,
}

impl PhaseTracker {
    pub fn add(&mut self, phase: Phase, cycles: Cycle) {
        self.bucket[phase.index()] += cycles;
    }

    /// Accumulate speculative cycles whose outcome is not yet known.
    pub fn add_pending_spec(&mut self, cycles: Cycle) {
        self.pending_spec += cycles;
    }

    /// Resolve the pending speculative cycles into `Htm` (committed) or
    /// `Aborted`, or `SwitchLock` for an STL-mode finish.
    pub fn resolve_spec(&mut self, into: Phase) {
        debug_assert!(matches!(
            into,
            Phase::Htm | Phase::Aborted | Phase::SwitchLock
        ));
        self.bucket[into.index()] += self.pending_spec;
        self.pending_spec = 0;
    }

    pub fn pending(&self) -> Cycle {
        self.pending_spec
    }

    pub fn get(&self, phase: Phase) -> Cycle {
        self.bucket[phase.index()]
    }

    pub fn total(&self) -> Cycle {
        self.bucket.iter().sum::<Cycle>() + self.pending_spec
    }
}

/// `num / den` as f64, 0.0 when the denominator is 0 (never NaN).
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Aggregate statistics for one simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Simulated cycles from parallel-region start to last thread exit.
    pub cycles: Cycle,
    /// Number of worker threads simulated.
    pub threads: usize,
    /// Speculative transaction attempts started (xbegin count).
    pub tx_starts: u64,
    /// Committed HTM transactions (speculative commits, incl. STL finishes).
    pub commits: u64,
    /// Commits that finished in STL mode after a proactive switch.
    pub stl_commits: u64,
    /// Critical sections executed on the fallback/CGL lock path.
    pub lock_commits: u64,
    /// Aborts by cause.
    pub aborts: [u64; 6],
    /// Requests rejected by the recovery mechanism (NACKs observed).
    pub rejects: u64,
    /// Requests rejected by the LLC overflow signatures.
    pub sig_rejects: u64,
    /// Wake-up messages delivered.
    pub wakeups: u64,
    /// Parked requests that hit the safety-net timeout (should be 0).
    pub wakeup_timeouts: u64,
    /// Successful proactive switches to STL mode.
    pub switches_granted: u64,
    /// Proactive switch attempts that did not switch: denied, or
    /// answered after the transaction had aborted.
    pub switches_denied: u64,
    /// Transactions that fell back to the lock path.
    pub fallbacks: u64,
    /// NoC messages sent.
    pub messages: u64,
    /// Total NoC hop traversals.
    pub hops: u64,
    /// Total NoC flit-hop traversals (hops weighted by message size).
    pub flit_hops: u64,
    /// Cycles NoC messages spent queueing behind busy links.
    pub noc_queue_cycles: u64,
    /// Busy (flit-carrying) cycles per directed mesh link, indexed
    /// `node * 4 + direction` (E/W/N/S). Empty if the run recorded no
    /// link-level traffic breakdown.
    pub noc_link_busy: Vec<u64>,
    /// LLC tag hits per bank.
    pub bank_hits: Vec<u64>,
    /// LLC tag misses per bank.
    pub bank_misses: Vec<u64>,
    /// Requests that queued behind a busy directory entry, per bank.
    pub bank_queued: Vec<u64>,
    /// High-water mark of the per-bank directory queue depth.
    pub bank_queue_peak: Vec<u64>,
    /// Trace events dropped because the bounded trace store filled up
    /// (0 on untraced runs and on traced runs that fit the cap).
    pub trace_dropped: u64,
    /// Sum over committed transactions of their read-set size (L1 lines).
    pub rs_lines_sum: u64,
    /// Sum over committed transactions of their write-set size (L1 lines).
    pub ws_lines_sum: u64,
    /// Sum over committed transactions of their duration in cycles
    /// (xbegin to xend, final successful attempt only).
    pub tx_cycles_sum: u64,
    /// Discrete events the engine's main loop popped and dispatched
    /// (simulator self-metric; deterministic for a given spec).
    pub events_processed: u64,
    /// High-water mark of the engine's event-queue depth (self-metric).
    pub event_queue_peak: u64,
    /// Summed per-core phase breakdown.
    pub phases: [Cycle; 7],
    /// Per-core totals (diagnostics).
    pub per_core_cycles: Vec<Cycle>,
    /// Per-transaction latency distributions: per-outcome-class total
    /// latencies plus park/fallback-hold/first-abort phase histograms.
    pub latency: LatencyStats,
    /// First single-writer/multiple-reader violation the live checker
    /// observed, if any (checked mode only): a human-readable description
    /// of the offending line and sharer set. `None` on a correct run.
    pub swmr_violation: Option<String>,
}

impl RunStats {
    pub fn new(threads: usize) -> RunStats {
        RunStats {
            threads,
            per_core_cycles: vec![0; threads],
            ..Default::default()
        }
    }

    pub fn record_abort(&mut self, cause: AbortCause) {
        self.aborts[cause.index()] += 1;
    }

    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Commit rate as defined in the paper's Fig. 8: committed speculative
    /// attempts over all speculative attempts. 0.0 on an empty run — every
    /// ratio helper returns 0.0 rather than NaN when its denominator is 0.
    pub fn commit_rate(&self) -> f64 {
        ratio(self.commits, self.commits + self.total_aborts())
    }

    pub fn phase(&self, p: Phase) -> Cycle {
        self.phases[p.index()]
    }

    pub fn abort_count(&self, c: AbortCause) -> u64 {
        self.aborts[c.index()]
    }

    /// Mean read-set size of committed transactions, in cache lines.
    pub fn avg_read_set(&self) -> f64 {
        ratio(self.rs_lines_sum, self.commits)
    }

    /// Mean write-set size of committed transactions, in cache lines.
    pub fn avg_write_set(&self) -> f64 {
        ratio(self.ws_lines_sum, self.commits)
    }

    /// Mean committed-transaction length in cycles.
    pub fn avg_tx_len(&self) -> f64 {
        ratio(self.tx_cycles_sum, self.commits)
    }

    /// Fraction of aborts attributed to `cause` (Fig. 10's y-axis).
    pub fn abort_fraction(&self, cause: AbortCause) -> f64 {
        ratio(self.aborts[cause.index()], self.total_aborts())
    }

    /// Speculative cycles thrown away by aborts — the forensics layer's
    /// "wasted work" total (its conflict matrix must reconcile with this
    /// exactly).
    pub fn aborted_cycles(&self) -> Cycle {
        self.phase(Phase::Aborted)
    }

    /// Fraction of all attributed cycles that were wasted in aborted
    /// speculation. NaN-free: 0.0 on an empty run.
    pub fn wasted_fraction(&self) -> f64 {
        ratio(self.phase(Phase::Aborted), self.phases.iter().sum())
    }

    /// Mean hops per NoC message.
    pub fn avg_hops_per_msg(&self) -> f64 {
        ratio(self.hops, self.messages)
    }

    /// Utilization of one directed mesh link: busy cycles over run cycles.
    pub fn link_utilization(&self, link: usize) -> f64 {
        let busy = self.noc_link_busy.get(link).copied().unwrap_or(0);
        ratio(busy, self.cycles)
    }

    /// Utilization of the busiest mesh link (the NoC hot spot).
    pub fn max_link_utilization(&self) -> f64 {
        (0..self.noc_link_busy.len())
            .map(|l| self.link_utilization(l))
            .fold(0.0, f64::max)
    }

    /// Aggregate LLC tag hit rate across all banks.
    pub fn llc_hit_rate(&self) -> f64 {
        let hits: u64 = self.bank_hits.iter().sum();
        let misses: u64 = self.bank_misses.iter().sum();
        ratio(hits, hits + misses)
    }

    /// Encode as a single-line JSON object (field order fixed).
    pub fn to_json(&self) -> String {
        fn arr(v: &[u64]) -> String {
            let items: Vec<String> = v.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(","))
        }
        let mut out = String::with_capacity(512);
        out.push('{');
        out.push_str(&format!("\"cycles\":{},", self.cycles));
        out.push_str(&format!("\"threads\":{},", self.threads));
        out.push_str(&format!("\"tx_starts\":{},", self.tx_starts));
        out.push_str(&format!("\"commits\":{},", self.commits));
        out.push_str(&format!("\"stl_commits\":{},", self.stl_commits));
        out.push_str(&format!("\"lock_commits\":{},", self.lock_commits));
        out.push_str(&format!("\"aborts\":{},", arr(&self.aborts)));
        out.push_str(&format!("\"rejects\":{},", self.rejects));
        out.push_str(&format!("\"sig_rejects\":{},", self.sig_rejects));
        out.push_str(&format!("\"wakeups\":{},", self.wakeups));
        out.push_str(&format!("\"wakeup_timeouts\":{},", self.wakeup_timeouts));
        out.push_str(&format!("\"switches_granted\":{},", self.switches_granted));
        out.push_str(&format!("\"switches_denied\":{},", self.switches_denied));
        out.push_str(&format!("\"fallbacks\":{},", self.fallbacks));
        out.push_str(&format!("\"messages\":{},", self.messages));
        out.push_str(&format!("\"hops\":{},", self.hops));
        out.push_str(&format!("\"flit_hops\":{},", self.flit_hops));
        out.push_str(&format!("\"noc_queue_cycles\":{},", self.noc_queue_cycles));
        out.push_str(&format!("\"noc_link_busy\":{},", arr(&self.noc_link_busy)));
        out.push_str(&format!("\"bank_hits\":{},", arr(&self.bank_hits)));
        out.push_str(&format!("\"bank_misses\":{},", arr(&self.bank_misses)));
        out.push_str(&format!("\"bank_queued\":{},", arr(&self.bank_queued)));
        out.push_str(&format!(
            "\"bank_queue_peak\":{},",
            arr(&self.bank_queue_peak)
        ));
        out.push_str(&format!("\"trace_dropped\":{},", self.trace_dropped));
        out.push_str(&format!("\"rs_lines_sum\":{},", self.rs_lines_sum));
        out.push_str(&format!("\"ws_lines_sum\":{},", self.ws_lines_sum));
        out.push_str(&format!("\"tx_cycles_sum\":{},", self.tx_cycles_sum));
        out.push_str(&format!("\"events_processed\":{},", self.events_processed));
        out.push_str(&format!("\"event_queue_peak\":{},", self.event_queue_peak));
        out.push_str(&format!("\"phases\":{},", arr(&self.phases)));
        out.push_str(&format!(
            "\"per_core_cycles\":{},",
            arr(&self.per_core_cycles)
        ));
        out.push_str(&format!("\"latency\":{},", self.latency.to_json()));
        match &self.swmr_violation {
            Some(msg) => out.push_str(&format!("\"swmr_violation\":\"{}\"", escape(msg))),
            None => out.push_str("\"swmr_violation\":null"),
        }
        out.push('}');
        out
    }

    pub fn merge_core(&mut self, core: CoreId, tracker: &PhaseTracker) {
        for p in Phase::ALL {
            self.phases[p.index()] += tracker.get(p);
        }
        if core < self.per_core_cycles.len() {
            self.per_core_cycles[core] = tracker.total();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_unique() {
        let mut seen = [false; 7];
        for p in Phase::ALL {
            assert!(!seen[p.index()]);
            seen[p.index()] = true;
        }
    }

    #[test]
    fn abort_cause_indices_unique() {
        let mut seen = [false; 6];
        for c in AbortCause::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
    }

    #[test]
    fn pending_spec_resolution() {
        let mut t = PhaseTracker::default();
        t.add_pending_spec(100);
        assert_eq!(t.pending(), 100);
        t.resolve_spec(Phase::Aborted);
        assert_eq!(t.get(Phase::Aborted), 100);
        assert_eq!(t.pending(), 0);
        t.add_pending_spec(50);
        t.resolve_spec(Phase::Htm);
        assert_eq!(t.get(Phase::Htm), 50);
        assert_eq!(t.total(), 150);
    }

    #[test]
    fn commit_rate_math() {
        let mut s = RunStats::new(2);
        s.commits = 3;
        s.record_abort(AbortCause::Mc);
        assert!((s.commit_rate() - 0.75).abs() < 1e-12);
        assert!((s.abort_fraction(AbortCause::Mc) - 1.0).abs() < 1e-12);
        assert_eq!(s.abort_fraction(AbortCause::Of), 0.0);
    }

    #[test]
    fn ratio_helpers_are_zero_not_nan_on_empty_runs() {
        let s = RunStats::new(2);
        let values = [
            s.commit_rate(),
            s.abort_fraction(AbortCause::Mc),
            s.avg_read_set(),
            s.avg_write_set(),
            s.avg_tx_len(),
            s.avg_hops_per_msg(),
            s.link_utilization(0),
            s.max_link_utilization(),
            s.llc_hit_rate(),
        ];
        for v in values {
            assert!(!v.is_nan(), "ratio helper returned NaN on empty run");
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn noc_and_llc_ratio_helpers() {
        let mut s = RunStats::new(2);
        s.cycles = 1000;
        s.messages = 4;
        s.hops = 10;
        s.noc_link_busy = vec![0, 500, 250];
        s.bank_hits = vec![3, 1];
        s.bank_misses = vec![1, 3];
        assert!((s.avg_hops_per_msg() - 2.5).abs() < 1e-12);
        assert!((s.link_utilization(1) - 0.5).abs() < 1e-12);
        assert_eq!(s.link_utilization(99), 0.0, "out-of-range link is 0");
        assert!((s.max_link_utilization() - 0.5).abs() < 1e-12);
        assert!((s.llc_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_core_accumulates() {
        let mut s = RunStats::new(2);
        let mut t0 = PhaseTracker::default();
        t0.add(Phase::NonTran, 10);
        t0.add(Phase::Lock, 5);
        let mut t1 = PhaseTracker::default();
        t1.add(Phase::NonTran, 7);
        s.merge_core(0, &t0);
        s.merge_core(1, &t1);
        assert_eq!(s.phase(Phase::NonTran), 17);
        assert_eq!(s.phase(Phase::Lock), 5);
        assert_eq!(s.per_core_cycles, vec![15, 7]);
    }
}
