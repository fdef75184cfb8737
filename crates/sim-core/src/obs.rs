//! Observability vocabulary shared by the layers that emit it.
//!
//! A run has one recording, the engine's `lockiller::Trace`; `tmobs`
//! derives spans, conflict forensics and metric series from it. This
//! module owns only what the *emitting* layers below the engine need to
//! name: conflict edges ([`ConflictEdge`]), which `coherence` records
//! when the engine arms it, and the metric vocabulary ([`Metric`],
//! [`MetricSpec`]) that the engine, `coherence` and `noc` sample and
//! register. Keeping it here (like [`crate::stats`]) lets those crates
//! emit without depending on the observability crate.
//!
//! Recording is write-only: nothing recorded feeds back into timing or
//! protocol decisions, so a recorded run is bit-identical to an
//! unrecorded one.

use crate::stats::AbortCause;
use crate::types::{CoreId, LineAddr};

/// How a detected conflict was resolved by the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictResolution {
    /// The victim's transaction was aborted (requester-wins outcome);
    /// the cause is what [`crate::stats::RunStats`] records for it.
    Abort(AbortCause),
    /// The victim's request was NACKed by the line owner (recovery
    /// systems: the requester must retry, park, or self-abort).
    Nack,
    /// The victim's request was rejected by the LLC overflow signatures
    /// of a lock-mode transaction.
    SigReject,
}

impl ConflictResolution {
    pub fn name(self) -> &'static str {
        match self {
            ConflictResolution::Abort(_) => "abort",
            ConflictResolution::Nack => "nack",
            ConflictResolution::SigReject => "sig_reject",
        }
    }
}

/// The rejected requester's follow-up, per the paper's reject-action
/// taxonomy (Lockiller-RAI / -RRI / -RWI).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Requester-abort-itself: the NACKed transaction aborts locally.
    Rai,
    /// Requester-retry-it: park for a fixed pause, then reissue.
    Rri,
    /// Requester-wait-it: park until a wake-up (or safety-net timeout).
    Rwi,
    /// No follow-up decision (the victim was aborted outright).
    None,
}

impl RecoveryAction {
    pub fn name(self) -> &'static str {
        match self {
            RecoveryAction::Rai => "rai",
            RecoveryAction::Rri => "rri",
            RecoveryAction::Rwi => "rwi",
            RecoveryAction::None => "-",
        }
    }
}

/// One conflict edge: `attacker` kept (or took) the cache line,
/// `victim` lost the round. For an `Abort` resolution the attacker is
/// the requester and the victim the aborted owner; for `Nack` /
/// `SigReject` the attacker is the owner that rejected the `victim`'s
/// request. Priorities are the raw arbitration inputs (`u64::MAX` is
/// the lock-mode sentinel).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictEdge {
    pub attacker: CoreId,
    pub victim: CoreId,
    pub line: LineAddr,
    pub attacker_prio: u64,
    pub victim_prio: u64,
    pub resolution: ConflictResolution,
    /// The rejected requester's follow-up; [`RecoveryAction::None`] for
    /// `Abort` resolutions.
    pub action: RecoveryAction,
}

/// One time-series metric. Indexed variants form families (one series
/// per LLC bank / NoC link).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Metric {
    /// Cores currently executing a speculative (HTM) transaction.
    TxRunning,
    /// Cores currently parked by the recovery mechanism.
    Parked,
    /// Cores inside a lock section (TL/STL lock transaction or fallback).
    LockHeld,
    /// Cumulative speculative commits.
    Commits,
    /// Cumulative aborts (all causes).
    Aborts,
    /// Cumulative fallback-path entries.
    Fallbacks,
    /// Cumulative discrete events the engine's main loop has dispatched
    /// (simulator self-metric).
    EventsProcessed,
    /// Instantaneous depth of the engine's event queue (self-metric).
    EventQueueDepth,
    /// Requests queued behind busy directory entries at this LLC bank.
    BankQueueDepth(u16),
    /// Directory entries with a request in flight at this LLC bank.
    BankBusy(u16),
    /// Cumulative NoC messages injected.
    NocMessages,
    /// Cumulative cycles messages spent queueing behind busy links.
    NocQueueCycles,
    /// Cumulative busy (flit-carrying) cycles of one directed mesh link;
    /// the index is `node * 4 + direction` (E/W/N/S).
    LinkBusy(u16),
}

impl Metric {
    /// Canonical dotted metric name used by every exporter.
    pub fn name(self) -> String {
        match self {
            Metric::TxRunning => "engine.tx_running".into(),
            Metric::Parked => "engine.parked".into(),
            Metric::LockHeld => "engine.lock_held".into(),
            Metric::Commits => "engine.commits".into(),
            Metric::Aborts => "engine.aborts".into(),
            Metric::Fallbacks => "engine.fallbacks".into(),
            Metric::EventsProcessed => "engine.events_processed".into(),
            Metric::EventQueueDepth => "engine.event_queue_depth".into(),
            Metric::BankQueueDepth(b) => format!("llc.bank{b}.queue_depth"),
            Metric::BankBusy(b) => format!("llc.bank{b}.busy"),
            Metric::NocMessages => "noc.messages".into(),
            Metric::NocQueueCycles => "noc.queue_cycles".into(),
            Metric::LinkBusy(l) => {
                let dir = ["E", "W", "N", "S"][(l % 4) as usize];
                format!("noc.link{}{dir}.busy", l / 4)
            }
        }
    }

    /// Monotone cumulative counters (vs instantaneous gauges). Exporters
    /// may difference consecutive samples of counters to show rates.
    pub fn is_counter(self) -> bool {
        matches!(
            self,
            Metric::Commits
                | Metric::Aborts
                | Metric::Fallbacks
                | Metric::EventsProcessed
                | Metric::NocMessages
                | Metric::NocQueueCycles
                | Metric::LinkBusy(_)
        )
    }
}

/// Static registration record for one metric, contributed by the crate
/// that owns the signal (`lockiller::engine`, `coherence::memsys`,
/// `noc::mesh`) and collected into the `tmobs` registry.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub metric: Metric,
    /// Canonical name (matches [`Metric::name`]).
    pub name: String,
    pub unit: &'static str,
    pub help: &'static str,
}

impl MetricSpec {
    pub fn new(metric: Metric, unit: &'static str, help: &'static str) -> MetricSpec {
        MetricSpec {
            name: metric.name(),
            metric,
            unit,
            help,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_stable() {
        let metrics = [
            Metric::TxRunning,
            Metric::Parked,
            Metric::LockHeld,
            Metric::Commits,
            Metric::Aborts,
            Metric::Fallbacks,
            Metric::EventsProcessed,
            Metric::EventQueueDepth,
            Metric::BankQueueDepth(0),
            Metric::BankQueueDepth(3),
            Metric::BankBusy(0),
            Metric::NocMessages,
            Metric::NocQueueCycles,
            Metric::LinkBusy(0),
            Metric::LinkBusy(5),
        ];
        let mut names: Vec<String> = metrics.iter().map(|m| m.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), metrics.len());
        assert_eq!(Metric::LinkBusy(5).name(), "noc.link1W.busy");
        assert_eq!(Metric::BankQueueDepth(3).name(), "llc.bank3.queue_depth");
    }

    #[test]
    fn conflict_vocabulary_names_are_stable() {
        assert_eq!(ConflictResolution::Nack.name(), "nack");
        assert_eq!(ConflictResolution::SigReject.name(), "sig_reject");
        assert_eq!(ConflictResolution::Abort(AbortCause::Mc).name(), "abort");
        assert_eq!(RecoveryAction::Rai.name(), "rai");
        assert_eq!(RecoveryAction::Rri.name(), "rri");
        assert_eq!(RecoveryAction::Rwi.name(), "rwi");
        assert_eq!(RecoveryAction::None.name(), "-");
        let e = ConflictEdge {
            attacker: 1,
            victim: 2,
            line: LineAddr(0x40),
            attacker_prio: 7,
            victim_prio: 3,
            resolution: ConflictResolution::Nack,
            action: RecoveryAction::Rwi,
        };
        assert_eq!(e, e);
    }
}
