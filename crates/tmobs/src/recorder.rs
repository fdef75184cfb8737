//! The recording `tmobs` exports: spans paired from a run's span-level
//! `lockiller::Trace`, plus its metric sample rows and conflict edges.
//!
//! Pairing is deliberately tolerant: an end with no matching open span
//! is counted (not an error), and spans still open when the run finishes
//! are auto-closed at the final cycle with [`SpanEnd::End`]. Both
//! situations are legitimate — e.g. a transaction still running when the
//! last thread exits, or a recording derived from a truncated trace.

pub use lockiller::trace::{ConflictEvent, SampleRow};
use lockiller::{Trace, TraceKind};
use sim_core::stats::AbortCause;
use sim_core::types::{CoreId, Cycle};

/// Where a span lives in the exported trace: one track per core plus
/// the shared LLC track.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Track {
    /// Per-core track (txn attempts, lock sections, park intervals).
    Core(CoreId),
    /// The LLC / HLA-arbiter track (authorization grants).
    Llc,
}

/// Kinds of simulated-time spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Speculative transaction attempt (`xbegin` .. commit/abort/switch).
    Txn,
    /// TL-mode lock transaction (`hlbegin` .. `hlend`).
    TlLock,
    /// STL continuation after a granted proactive switch (.. `hlend`).
    StlLock,
    /// Fallback-path critical section.
    Fallback,
    /// Recovery park: reject .. wake-up/retry/timeout.
    Park,
    /// LLC authorization (HLA) arbitration: request .. grant/deny.
    HlaArb,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Txn => "txn",
            SpanKind::TlLock => "tl-lock",
            SpanKind::StlLock => "stl-lock",
            SpanKind::Fallback => "fallback",
            SpanKind::Park => "park",
            SpanKind::HlaArb => "hla-arb",
        }
    }
}

/// How a span ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanEnd {
    /// Transaction committed (HTM commit, or STL finish at `hlend`).
    Commit,
    /// Transaction aborted with this cause.
    Abort(AbortCause),
    /// Txn converted into an STL lock transaction (proactive switch).
    Switched,
    /// HLA arbitration granted.
    Granted,
    /// HLA arbitration denied.
    Denied,
    /// Park ended by a wake-up message.
    Woken,
    /// Park ended by the RetryLater pause elapsing.
    Retried,
    /// Park ended by the wake-up safety-net timeout.
    Timeout,
    /// Ordinary close (lock/fallback sections) or end-of-run truncation.
    End,
}

impl SpanEnd {
    pub fn name(self) -> &'static str {
        match self {
            SpanEnd::Commit => "commit",
            SpanEnd::Abort(_) => "abort",
            SpanEnd::Switched => "switched",
            SpanEnd::Granted => "granted",
            SpanEnd::Denied => "denied",
            SpanEnd::Woken => "woken",
            SpanEnd::Retried => "retried",
            SpanEnd::Timeout => "timeout",
            SpanEnd::End => "end",
        }
    }
}

/// A closed span in simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub track: Track,
    pub kind: SpanKind,
    /// The acting core (equals the track core on per-core tracks; the
    /// requester on the LLC track).
    pub core: CoreId,
    pub start: Cycle,
    pub end: Cycle,
    pub outcome: SpanEnd,
}

impl Span {
    pub fn duration(&self) -> Cycle {
        self.end - self.start
    }
}

/// Per-core state span derivation needs beyond the events themselves.
#[derive(Clone, Copy, Debug, Default)]
struct CoreState {
    parked: bool,
    in_stl: bool,
    hla_pending: bool,
}

/// A run's recording, derived from its trace ([`Recorder::from_trace`]).
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<Span>,
    /// Spans still open during derivation, in open order. Linear search
    /// is fine: at most a handful per core are ever open at once.
    open: Vec<Span>,
    samples: Vec<SampleRow>,
    conflicts: Vec<ConflictEvent>,
    unmatched_ends: u64,
    auto_closed: u64,
    end_cycle: Cycle,
}

impl Recorder {
    /// Closed spans, in close order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Conflict edges, in emission order.
    pub fn conflicts(&self) -> &[ConflictEvent] {
        &self.conflicts
    }

    /// Sample rows, in emission (cycle) order.
    pub fn samples(&self) -> &[SampleRow] {
        &self.samples
    }

    /// End events that found no matching open span.
    pub fn unmatched_ends(&self) -> u64 {
        self.unmatched_ends
    }

    /// Spans force-closed at the run's last cycle.
    pub fn auto_closed(&self) -> u64 {
        self.auto_closed
    }

    /// The run's last simulated cycle.
    pub fn end_cycle(&self) -> Cycle {
        self.end_cycle
    }

    /// Closed spans of one kind.
    pub fn spans_of(&self, kind: SpanKind) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// Derive the recording of a finished run from its span-level trace
    /// (`Runner::spans`); DESIGN.md §12 tabulates which event opens or
    /// closes which span. `end` is the run's last cycle
    /// (`RunStats::cycles`): spans still open there are auto-closed.
    pub fn from_trace(trace: &Trace, end: Cycle) -> Recorder {
        let mut rec = Recorder::default();
        let mut cores: Vec<CoreState> = Vec::new();
        for e in trace.events() {
            let (t, c) = (e.cycle, e.core);
            if c >= cores.len() {
                cores.resize(c + 1, CoreState::default());
            }
            let st = &mut cores[c];
            match e.kind {
                TraceKind::TxBegin => rec.begin(t, c, SpanKind::Txn),
                TraceKind::Commit => rec.end(t, c, SpanKind::Txn, SpanEnd::Commit),
                TraceKind::Abort(cause) => {
                    if std::mem::take(&mut st.parked) {
                        rec.end(t, c, SpanKind::Park, SpanEnd::End);
                    }
                    st.in_stl = false;
                    rec.end(t, c, SpanKind::Txn, SpanEnd::Abort(cause));
                }
                TraceKind::HlaRequest => {
                    st.hla_pending = true;
                    rec.begin(t, c, SpanKind::HlaArb);
                }
                TraceKind::HlBegin => {
                    if std::mem::take(&mut st.hla_pending) {
                        rec.end(t, c, SpanKind::HlaArb, SpanEnd::Granted);
                    }
                    rec.begin(t, c, SpanKind::TlLock);
                }
                TraceKind::HlEnd => {
                    if std::mem::take(&mut st.in_stl) {
                        rec.end(t, c, SpanKind::StlLock, SpanEnd::Commit);
                    } else {
                        rec.end(t, c, SpanKind::TlLock, SpanEnd::End);
                    }
                }
                TraceKind::SwitchGranted => {
                    st.hla_pending = false;
                    st.in_stl = true;
                    rec.end(t, c, SpanKind::HlaArb, SpanEnd::Granted);
                    rec.end(t, c, SpanKind::Txn, SpanEnd::Switched);
                    rec.begin(t, c, SpanKind::StlLock);
                }
                TraceKind::SwitchDenied => {
                    st.hla_pending = false;
                    rec.end(t, c, SpanKind::HlaArb, SpanEnd::Denied);
                }
                TraceKind::Fallback => rec.begin(t, c, SpanKind::Fallback),
                TraceKind::FallbackEnd => rec.end(t, c, SpanKind::Fallback, SpanEnd::End),
                TraceKind::Parked => {
                    st.parked = true;
                    rec.begin(t, c, SpanKind::Park);
                }
                TraceKind::Retried => {
                    st.parked = false;
                    rec.end(t, c, SpanKind::Park, SpanEnd::Retried);
                }
                TraceKind::Woken => {
                    if std::mem::take(&mut st.parked) {
                        rec.end(t, c, SpanKind::Park, SpanEnd::Woken);
                    }
                }
                TraceKind::WakeTimeout => {
                    st.parked = false;
                    rec.end(t, c, SpanKind::Park, SpanEnd::Timeout);
                }
                TraceKind::Rejected { .. }
                | TraceKind::Read { .. }
                | TraceKind::Write { .. }
                | TraceKind::NackSent { .. }
                | TraceKind::WakeSent { .. } => {}
            }
        }
        rec.samples = trace.samples().to_vec();
        rec.conflicts = trace.conflicts().to_vec();
        rec.finish(end);
        rec
    }

    fn begin(&mut self, cycle: Cycle, core: CoreId, kind: SpanKind) {
        self.open.push(Span {
            track: track_of(kind, core),
            kind,
            core,
            start: cycle,
            end: cycle,
            outcome: SpanEnd::End,
        });
    }

    fn end(&mut self, cycle: Cycle, core: CoreId, kind: SpanKind, end: SpanEnd) {
        // Most-recent matching open span wins (spans of one kind on one
        // track never genuinely interleave, but closing LIFO keeps
        // nesting sane if they ever did).
        let track = track_of(kind, core);
        let found = self
            .open
            .iter()
            .rposition(|s| s.track == track && s.kind == kind && s.core == core);
        if let Some(i) = found {
            let mut s = self.open.remove(i);
            s.end = cycle;
            s.outcome = end;
            self.spans.push(s);
        } else {
            self.unmatched_ends += 1;
        }
    }

    /// Close the spans still open at the run's last cycle.
    fn finish(&mut self, cycle: Cycle) {
        self.end_cycle = cycle;
        for mut s in std::mem::take(&mut self.open) {
            s.end = cycle.max(s.start);
            s.outcome = SpanEnd::End;
            self.spans.push(s);
            self.auto_closed += 1;
        }
    }
}

/// HLA arbitration lives on the LLC track; every other span on its
/// core's.
fn track_of(kind: SpanKind, core: CoreId) -> Track {
    if kind == SpanKind::HlaArb {
        Track::Llc
    } else {
        Track::Core(core)
    }
}

/// A span-level trace holding `events`, for unit tests of the
/// derivation and the exporters.
#[cfg(test)]
pub(crate) fn trace(events: &[(Cycle, CoreId, TraceKind)]) -> Trace {
    let mut t = Trace::new(lockiller::TraceLevel::Spans { sample_every: 1 });
    for &(cycle, core, kind) in events {
        t.record(cycle, core, kind);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::obs::{ConflictEdge, Metric};

    #[test]
    fn pairs_begin_and_end() {
        let r = Recorder::from_trace(
            &trace(&[
                (10, 0, TraceKind::TxBegin),
                (12, 1, TraceKind::TxBegin),
                (20, 0, TraceKind::Commit),
            ]),
            30,
        );
        assert_eq!(r.spans().len(), 2);
        let s = &r.spans()[0];
        assert_eq!((s.start, s.end, s.outcome), (10, 20, SpanEnd::Commit));
        // Core 1's span was auto-closed at the final cycle.
        let s = &r.spans()[1];
        assert_eq!((s.core, s.end, s.outcome), (1, 30, SpanEnd::End));
        assert_eq!(r.auto_closed(), 1);
        assert_eq!(r.unmatched_ends(), 0);
        assert_eq!(r.end_cycle(), 30);
    }

    #[test]
    fn unmatched_end_is_counted_not_fatal() {
        let r = Recorder::from_trace(&trace(&[(5, 0, TraceKind::Retried)]), 9);
        assert_eq!(r.unmatched_ends(), 1);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn derivation_follows_the_per_core_state() {
        let r = Recorder::from_trace(
            &trace(&[
                (1, 0, TraceKind::TxBegin),
                (2, 0, TraceKind::HlaRequest),
                (3, 0, TraceKind::SwitchGranted),
                (4, 1, TraceKind::HlaRequest),
                (5, 1, TraceKind::HlBegin),
                (6, 0, TraceKind::HlEnd),
                (7, 1, TraceKind::HlEnd),
                (8, 2, TraceKind::TxBegin),
                (9, 2, TraceKind::Parked),
                (10, 2, TraceKind::Abort(AbortCause::Mc)),
                // A wake-up that overtook its reject parks nothing.
                (11, 2, TraceKind::Woken),
            ]),
            20,
        );
        let got: Vec<String> = r
            .spans()
            .iter()
            .map(|s| {
                format!(
                    "{}:{}@{}-{}",
                    s.kind.name(),
                    s.outcome.name(),
                    s.start,
                    s.end
                )
            })
            .collect();
        assert_eq!(
            got.join(" "),
            "hla-arb:granted@2-3 txn:switched@1-3 hla-arb:granted@4-5 stl-lock:commit@3-6 \
             tl-lock:end@5-7 park:end@9-10 txn:abort@8-10"
        );
        assert!(r.spans_of(SpanKind::HlaArb).all(|s| s.track == Track::Llc));
        assert_eq!((r.unmatched_ends(), r.auto_closed()), (0, 0));
    }

    #[test]
    fn samples_group_by_cycle() {
        let mut t = trace(&[]);
        t.record_samples(0, vec![(Metric::Commits, 0), (Metric::Aborts, 0)]);
        t.record_samples(2000, vec![(Metric::Commits, 7)]);
        // The final row lands on the last periodic row's cycle.
        t.record_samples(2000, vec![(Metric::Commits, 9)]);
        let r = Recorder::from_trace(&t, 2000);
        assert_eq!(r.samples().len(), 2);
        assert_eq!(r.samples()[0].values.len(), 2);
        assert_eq!(r.samples()[1].cycle, 2000);
        assert_eq!(r.samples()[1].values.len(), 2);
    }

    #[test]
    fn conflicts_are_recorded_in_order() {
        use sim_core::obs::{ConflictResolution, RecoveryAction};
        use sim_core::types::LineAddr;
        let mut t = trace(&[]);
        for c in 0..3u64 {
            t.record_conflict(
                c,
                ConflictEdge {
                    attacker: 0,
                    victim: 1,
                    line: LineAddr(c),
                    attacker_prio: 1,
                    victim_prio: 0,
                    resolution: ConflictResolution::Nack,
                    action: RecoveryAction::Rwi,
                },
            );
        }
        let r = Recorder::from_trace(&t, 3);
        assert_eq!(r.conflicts().len(), 3);
        assert_eq!(r.conflicts()[2].edge.line, LineAddr(2));
    }

    #[test]
    fn lifo_matching_of_same_key_spans() {
        let r = Recorder::from_trace(
            &trace(&[
                (1, 0, TraceKind::Parked),
                (5, 0, TraceKind::Parked),
                (6, 0, TraceKind::Retried),
            ]),
            9,
        );
        // The inner (most recent) span closed first.
        assert_eq!(r.spans()[0].start, 5);
        assert_eq!(r.spans()[1].start, 1);
    }
}
