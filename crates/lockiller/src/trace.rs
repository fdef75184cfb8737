//! Structured execution tracing: the engine can record per-core
//! transactional events (begin/commit/abort/fallback/switch/reject) with
//! cycle timestamps, for debugging, visualization, and tests that assert
//! on event orderings rather than aggregate counters.

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
}

impl TraceKind {
    /// Compact single-character glyph for timeline rendering.
    pub fn glyph(self) -> char {
        match self {
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
        }
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

/// Event sink owned by the engine; disabled by default (zero cost beyond
/// a branch). Storage is bounded: once `cap` events are held, further
/// events are counted in `dropped` rather than stored, so the retained
/// prefix stays contiguous (what the trace checkers analyze).
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    cap: usize,
    dropped: u64,
    events: Vec<TraceEvent>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace {
            enabled: false,
            cap: DEFAULT_TRACE_CAP,
            dropped: 0,
            events: Vec::new(),
        }
    }
}

impl Trace {
    pub fn enabled() -> Trace {
        Trace {
            enabled: true,
            ..Trace::default()
        }
    }

    /// Enabled trace with an explicit event-storage bound.
    pub fn with_capacity(cap: usize) -> Trace {
        Trace {
            enabled: true,
            cap,
            ..Trace::default()
        }
    }

    #[inline]
    pub fn record(&mut self, cycle: Cycle, core: CoreId, kind: TraceKind) {
        if self.enabled {
            if self.events.len() < self.cap {
                self.events.push(TraceEvent { cycle, core, kind });
            } else {
                self.dropped += 1;
            }
        }
    }

    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    pub fn take(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Events discarded because the storage bound was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Render a compact ASCII timeline: one lane per core, one column per
/// `cycles_per_col` cycles; multiple events in a column keep the last
/// glyph.
pub fn render_timeline(events: &[TraceEvent], threads: usize, width: usize) -> String {
    if events.is_empty() {
        return String::from("(no events)\n");
    }
    let end = events.iter().map(|e| e.cycle).max().unwrap() + 1;
    let per_col = end.div_ceil(width as u64).max(1);
    let cols = end.div_ceil(per_col) as usize;
    let mut lanes = vec![vec!['.'; cols]; threads];
    for e in events {
        let col = (e.cycle / per_col) as usize;
        if e.core < threads && col < cols {
            lanes[e.core][col] = e.kind.glyph();
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "timeline: {end} cycles, {per_col} cycles/column\n\
         legend: ( begin  ) commit  x abort  r rejected  w woken  F fallback  [ hlbegin  ] hlend  S switch\n"
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
        let mut t = Trace::enabled();
        t.record(1, 0, TraceKind::TxBegin);
        t.record(9, 1, TraceKind::Commit);
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].kind, TraceKind::TxBegin);
        assert_eq!(t.events()[1].cycle, 9);
    }

    #[test]
    fn capped_trace_counts_drops_and_keeps_prefix() {
        let mut t = Trace::with_capacity(2);
        t.record(1, 0, TraceKind::TxBegin);
        t.record(2, 0, TraceKind::Commit);
        t.record(3, 0, TraceKind::TxBegin);
        t.record(4, 0, TraceKind::Commit);
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.events()[1].cycle, 2, "prefix retained, not a ring");
        // Taking the events does not reset the drop counter: the engine
        // reads it afterwards to populate `RunStats::trace_dropped`.
        let _ = t.take();
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn glyphs_are_unique() {
        let kinds = [
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
        let mut glyphs: Vec<char> = kinds.iter().map(|k| k.glyph()).collect();
        glyphs.sort_unstable();
        glyphs.dedup();
        assert_eq!(glyphs.len(), kinds.len());
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
