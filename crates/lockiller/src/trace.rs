//! Structured execution tracing: the engine records each transactional
//! event (begin/commit/abort/fallback/switch/reject/park) once, with its
//! cycle, into the run's [`Trace`]. The trace is the run's only
//! recording: the checkers (`tmcheck`, `tmverify`) and the timeline read
//! its events, and `tmobs` derives its spans, conflict forensics and
//! metric series from a span-level trace ([`TraceLevel::Spans`]).

use sim_core::obs::{ConflictEdge, Metric};
use sim_core::stats::AbortCause;
use sim_core::types::{CoreId, Cycle, LineAddr};

/// One traced event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// `xbegin` — a speculative attempt starts.
    TxBegin,
    /// `xend` — speculative commit.
    Commit,
    /// Abort delivered to the guest, with its cause.
    Abort(AbortCause),
    /// The retry loop gave up and took the fallback path.
    Fallback,
    /// TL lock transaction entered (`hlbegin`).
    HlBegin,
    /// TL/STL lock transaction finished (`hlend`).
    HlEnd,
    /// Proactive switch authorized: the transaction continues as STL.
    SwitchGranted,
    /// Proactive switch denied (another lock transaction active).
    SwitchDenied,
    /// This core's request was rejected by the recovery mechanism
    /// (`by_sig` = by the LLC overflow signatures).
    Rejected { by_sig: bool },
    /// A wake-up arrived and the parked request retried.
    Woken,
    /// Fallback critical section finished (lock released).
    FallbackEnd,
    /// A parked request hit the wake-up safety-net timeout and retried
    /// without a wake-up (liveness escape hatch; should never fire).
    WakeTimeout,
    /// Access-level: a load resolved its value. `txn` is the per-attempt
    /// transaction id (0 = non-transactional), `prio` the recovery
    /// priority the core held at that instant. Checked mode only.
    Read { line: LineAddr, txn: u64, prio: u64 },
    /// Access-level: a store resolved. `buffered` distinguishes HTM
    /// writes (visible at commit) from immediate lock-mode / non-tx
    /// writes (visible at this event). Checked mode only.
    Write {
        line: LineAddr,
        txn: u64,
        buffered: bool,
    },
    /// Protocol-level: this core NACKed `to`'s request for `line`.
    /// Checked mode only.
    NackSent { to: CoreId, line: LineAddr },
    /// Protocol-level: this core sent a wake-up to `to`. Checked mode
    /// only.
    WakeSent { to: CoreId },
    /// Span fact: this core asked the LLC for HLA authorization (TL
    /// entry under switchingMode, or a proactive switch).
    HlaRequest,
    /// Span fact: a rejected request parked (RetryLater pause or
    /// WaitWakeup).
    Parked,
    /// Span fact: the RetryLater pause elapsed and the parked request
    /// retried.
    Retried,
}

impl TraceKind {
    /// Compact single-character glyph for timeline rendering; `None` for
    /// the span facts, so a timeline draws one run the same way at every
    /// trace level.
    pub fn glyph(self) -> Option<char> {
        Some(match self {
            TraceKind::TxBegin => '(',
            TraceKind::Commit => ')',
            TraceKind::Abort(_) => 'x',
            TraceKind::Fallback => 'F',
            TraceKind::HlBegin => '[',
            TraceKind::HlEnd => ']',
            TraceKind::SwitchGranted => 'S',
            TraceKind::SwitchDenied => 's',
            TraceKind::Rejected { .. } => 'r',
            TraceKind::Woken => 'w',
            TraceKind::FallbackEnd => 'f',
            TraceKind::WakeTimeout => 'T',
            TraceKind::Read { .. } => 'L',
            TraceKind::Write { .. } => 'W',
            TraceKind::NackSent { .. } => 'n',
            TraceKind::WakeSent { .. } => 'k',
            TraceKind::HlaRequest | TraceKind::Parked | TraceKind::Retried => return None,
        })
    }

    /// Facts only span derivation needs, recorded at
    /// [`TraceLevel::Spans`] only.
    pub fn is_span_fact(self) -> bool {
        matches!(
            self,
            TraceKind::HlaRequest | TraceKind::Parked | TraceKind::Retried
        )
    }
}

/// A `(cycle, core, kind)` record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub cycle: Cycle,
    pub core: CoreId,
    pub kind: TraceKind,
}

/// Default event-storage bound: ~4M events (≈130 MB). Large enough for
/// every checked-mode run the test suite performs; a hard ceiling so a
/// long traced run degrades into a truncated trace plus a drop counter
/// instead of unbounded memory growth.
pub const DEFAULT_TRACE_CAP: usize = 4 << 20;

/// How much of a run the engine records: the runner's one recording
/// option (`Runner::tracing`, `Runner::spans`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceLevel {
    /// Nothing (checked mode records events regardless).
    #[default]
    Off,
    /// Transactional events: attempt-level, plus access- and
    /// protocol-level ones in checked mode.
    Events,
    /// Events plus the span facts ([`TraceKind::is_span_fact`]), the
    /// coherence layer's conflict edges, and one metric sample row every
    /// `sample_every` cycles plus a final row when the run completes.
    Spans { sample_every: Cycle },
}

/// A conflict edge, stamped with the simulated cycle of the arbitration
/// decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictEvent {
    pub cycle: Cycle,
    pub edge: ConflictEdge,
}

/// Every metric observed at one sample tick, in emission order.
#[derive(Clone, Debug)]
pub struct SampleRow {
    pub cycle: Cycle,
    pub values: Vec<(Metric, u64)>,
}

/// The run's recording, owned by the engine; off by default (zero cost
/// beyond a branch). Event storage is bounded: once `cap` events are
/// held, further events are counted in `dropped` rather than stored, so
/// the retained prefix stays contiguous (what the trace checkers
/// analyze). Conflict edges and sample rows sit in their own vectors:
/// a conflict edge would widen every event, and checked mode records
/// one event per access.
#[derive(Debug, Default)]
pub struct Trace {
    level: TraceLevel,
    cap: usize,
    dropped: u64,
    events: Vec<TraceEvent>,
    conflicts: Vec<ConflictEvent>,
    samples: Vec<SampleRow>,
}

impl Trace {
    pub fn new(level: TraceLevel) -> Trace {
        Trace::with_capacity(level, DEFAULT_TRACE_CAP)
    }

    /// A trace at `level` with an explicit event-storage bound.
    pub fn with_capacity(level: TraceLevel, cap: usize) -> Trace {
        Trace {
            level,
            cap,
            ..Trace::default()
        }
    }

    /// The metric sampling interval; `Some` iff the trace records spans.
    pub fn sample_every(&self) -> Option<Cycle> {
        match self.level {
            TraceLevel::Spans { sample_every } => Some(sample_every),
            TraceLevel::Off | TraceLevel::Events => None,
        }
    }

    #[inline]
    pub fn record(&mut self, cycle: Cycle, core: CoreId, kind: TraceKind) {
        match self.level {
            TraceLevel::Off => return,
            // Span facts stay out of an events-level trace: the schedule
            // explorer hashes each checked run's trace length into its
            // exploration digest, so a checked trace must not gain events.
            TraceLevel::Events if kind.is_span_fact() => return,
            TraceLevel::Events | TraceLevel::Spans { .. } => {}
        }
        if self.events.len() < self.cap {
            self.events.push(TraceEvent { cycle, core, kind });
        } else {
            self.dropped += 1;
        }
    }

    /// Record a conflict edge resolved at `cycle` (span level).
    pub fn record_conflict(&mut self, cycle: Cycle, edge: ConflictEdge) {
        self.conflicts.push(ConflictEvent { cycle, edge });
    }

    /// Record metric samples taken at `cycle` (span level), joining the
    /// previous row when it has the same cycle (the final row can land
    /// on the last periodic one).
    pub fn record_samples(&mut self, cycle: Cycle, values: Vec<(Metric, u64)>) {
        match self.samples.last_mut() {
            Some(row) if row.cycle == cycle => row.values.extend(values),
            _ => self.samples.push(SampleRow { cycle, values }),
        }
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Conflict edges, in resolution order.
    pub fn conflicts(&self) -> &[ConflictEvent] {
        &self.conflicts
    }

    /// Metric sample rows, in cycle order.
    pub fn samples(&self) -> &[SampleRow] {
        &self.samples
    }

    /// Events discarded because the storage bound was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Render a compact ASCII timeline: one lane per core, one column per
/// `cycles_per_col` cycles; multiple events in a column keep the last
/// glyph. Span facts have no glyph and take no part.
pub fn render_timeline(events: &[TraceEvent], threads: usize, width: usize) -> String {
    let drawn: Vec<(&TraceEvent, char)> = events
        .iter()
        .filter_map(|e| Some((e, e.kind.glyph()?)))
        .collect();
    let Some(last) = drawn.iter().map(|(e, _)| e.cycle).max() else {
        return String::from("(no events)\n");
    };
    let end = last + 1;
    let per_col = end.div_ceil(width as u64).max(1);
    let cols = end.div_ceil(per_col) as usize;
    let mut lanes = vec![vec!['.'; cols]; threads];
    for (e, glyph) in drawn {
        let col = (e.cycle / per_col) as usize;
        if e.core < threads && col < cols {
            lanes[e.core][col] = glyph;
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "timeline: {end} cycles, {per_col} cycles/column\n\
         legend: ( begin  ) commit  x abort  r rejected  w woken  T timeout  \
         F fallback  f fallback end  [ hlbegin  ] hlend  S switch  s switch denied\n"
    ));
    for (c, lane) in lanes.iter().enumerate() {
        out.push_str(&format!("core {c:>2} |"));
        out.extend(lane.iter());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::default();
        t.record(5, 0, TraceKind::TxBegin);
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::new(TraceLevel::Events);
        t.record(1, 0, TraceKind::TxBegin);
        t.record(9, 1, TraceKind::Commit);
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].kind, TraceKind::TxBegin);
        assert_eq!(t.events()[1].cycle, 9);
    }

    #[test]
    fn capped_trace_counts_drops_and_keeps_prefix() {
        let mut t = Trace::with_capacity(TraceLevel::Events, 2);
        t.record(1, 0, TraceKind::TxBegin);
        t.record(2, 0, TraceKind::Commit);
        t.record(3, 0, TraceKind::TxBegin);
        t.record(4, 0, TraceKind::Commit);
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.events()[1].cycle, 2, "prefix retained, not a ring");
        // Taking the events does not reset the drop counter.
        let _ = t.take();
        assert_eq!(t.dropped(), 2);
    }

    /// Every kind except the span facts, attempt-level ones first.
    const ATTEMPT_LEVEL: usize = 12;
    const DRAWN: [TraceKind; 16] = [
        TraceKind::TxBegin,
        TraceKind::Commit,
        TraceKind::Abort(AbortCause::Mc),
        TraceKind::Fallback,
        TraceKind::HlBegin,
        TraceKind::HlEnd,
        TraceKind::SwitchGranted,
        TraceKind::SwitchDenied,
        TraceKind::Rejected { by_sig: false },
        TraceKind::Woken,
        TraceKind::FallbackEnd,
        TraceKind::WakeTimeout,
        TraceKind::Read {
            line: LineAddr(0),
            txn: 0,
            prio: 0,
        },
        TraceKind::Write {
            line: LineAddr(0),
            txn: 0,
            buffered: false,
        },
        TraceKind::NackSent {
            to: 0,
            line: LineAddr(0),
        },
        TraceKind::WakeSent { to: 0 },
    ];

    #[test]
    fn glyphs_are_unique() {
        let mut glyphs: Vec<char> = DRAWN.iter().filter_map(|k| k.glyph()).collect();
        glyphs.sort_unstable();
        glyphs.dedup();
        assert_eq!(glyphs.len(), DRAWN.len());
        for k in [TraceKind::HlaRequest, TraceKind::Parked, TraceKind::Retried] {
            assert_eq!(k.glyph(), None, "{k:?}");
        }
    }

    fn ev(cycle: Cycle, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            cycle,
            core: 0,
            kind,
        }
    }

    #[test]
    fn legend_names_every_attempt_level_glyph() {
        let s = render_timeline(&[ev(0, TraceKind::TxBegin)], 1, 10);
        let legend = s.lines().find(|l| l.starts_with("legend:")).unwrap();
        for k in &DRAWN[..ATTEMPT_LEVEL] {
            let g = k.glyph().unwrap();
            assert!(legend.contains(&format!(" {g} ")), "{k:?}: {legend}");
        }
    }

    #[test]
    fn span_facts_are_recorded_at_span_level_only() {
        let facts = [TraceKind::HlaRequest, TraceKind::Parked, TraceKind::Retried];
        for (level, kept) in [
            (TraceLevel::Events, 1),
            (TraceLevel::Spans { sample_every: 1 }, 4),
        ] {
            let mut t = Trace::new(level);
            t.record(0, 0, TraceKind::TxBegin);
            for k in facts {
                t.record(1, 0, k);
            }
            assert_eq!(t.events().len(), kept, "{level:?}");
        }
        // Without a glyph, a span fact does not stretch the timeline.
        let events = [ev(0, TraceKind::TxBegin), ev(99, TraceKind::Retried)];
        let drawn = render_timeline(&events, 1, 80);
        assert_eq!(drawn, render_timeline(&events[..1], 1, 80));
    }

    #[test]
    fn timeline_renders_lanes() {
        let events = vec![
            TraceEvent {
                cycle: 0,
                core: 0,
                kind: TraceKind::TxBegin,
            },
            TraceEvent {
                cycle: 50,
                core: 0,
                kind: TraceKind::Commit,
            },
            TraceEvent {
                cycle: 25,
                core: 1,
                kind: TraceKind::Abort(AbortCause::Mc),
            },
        ];
        let s = render_timeline(&events, 2, 10);
        assert!(s.contains("core  0 |"));
        assert!(s.contains("core  1 |"));
        assert!(s.contains('('));
        assert!(s.contains('x'));
    }

    #[test]
    fn timeline_handles_empty() {
        assert_eq!(render_timeline(&[], 2, 10), "(no events)\n");
    }

    #[test]
    fn timeline_drops_out_of_range_cores() {
        // An event on a core >= the lane count must be dropped silently
        // rather than panicking or growing the lane set.
        let events = vec![
            TraceEvent {
                cycle: 0,
                core: 0,
                kind: TraceKind::TxBegin,
            },
            TraceEvent {
                cycle: 3,
                core: 7,
                kind: TraceKind::Commit,
            },
        ];
        let s = render_timeline(&events, 2, 10);
        assert!(s.contains("core  0 |"));
        assert!(s.contains("core  1 |"));
        assert!(!s.contains("core  7"));
        // The out-of-range commit glyph must not leak into any lane
        // (the legend line legitimately contains one).
        let leaked = s.lines().any(|l| l.starts_with("core") && l.contains(')'));
        assert!(!leaked, "dropped event rendered anyway:\n{s}");
    }

    #[test]
    fn timeline_width_one_collapses_to_single_column() {
        let events = vec![
            TraceEvent {
                cycle: 0,
                core: 0,
                kind: TraceKind::TxBegin,
            },
            TraceEvent {
                cycle: 99,
                core: 0,
                kind: TraceKind::Commit,
            },
        ];
        let s = render_timeline(&events, 1, 1);
        // Both events land in the one column; the later glyph wins.
        let lane = s.lines().find(|l| l.starts_with("core  0")).unwrap();
        let cells: String = lane.split('|').nth(1).unwrap().to_string();
        assert_eq!(cells, ")");
    }

    #[test]
    fn timeline_single_cycle_run() {
        // All events at cycle 0: end = 1, so per_col = 1 and exactly one
        // column exists regardless of the requested width.
        let events = vec![TraceEvent {
            cycle: 0,
            core: 0,
            kind: TraceKind::Fallback,
        }];
        let s = render_timeline(&events, 1, 80);
        let lane = s.lines().find(|l| l.starts_with("core  0")).unwrap();
        let cells = lane.split('|').nth(1).unwrap();
        assert_eq!(cells, "F");
        assert!(s.contains("1 cycles, 1 cycles/column"));
    }
}
