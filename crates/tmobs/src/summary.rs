//! Terminal renderer: a per-core occupancy heatmap over simulated time
//! (the span-level companion to `lockiller::trace::render_timeline`'s
//! event glyphs), plus abort, NoC, and LLC tables and percentile rows
//! for the latency classes and the recording's own distributions.

use crate::latency::{render_hist_table, render_latency_table};
use crate::recorder::{Recorder, SpanKind, Track};
use sim_core::latency::LatencyHist;
use sim_core::obs::Metric;
use sim_core::stats::{AbortCause, RunStats};

/// Shade ramp for bucket occupancy (0% .. 100%).
const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Heatmap width in columns.
const WIDTH: usize = 64;

fn ramp(frac: f64) -> char {
    let i = (frac * (RAMP.len() - 1) as f64).round() as usize;
    RAMP[i.min(RAMP.len() - 1)]
}

/// Fraction of each of `width` equal time buckets covered by the given
/// span kinds on `core`'s track.
fn occupancy(rec: &Recorder, core: usize, kinds: &[SpanKind], end: u64, width: usize) -> Vec<f64> {
    let per = end.div_ceil(width as u64).max(1);
    let mut cover = vec![0u64; width];
    for s in rec.spans() {
        if s.track != Track::Core(core) || !kinds.contains(&s.kind) {
            continue;
        }
        let (lo, hi) = (s.start, s.end.max(s.start));
        let first = (lo / per) as usize;
        let last = ((hi.saturating_sub(1)) / per) as usize;
        for (b, c) in cover
            .iter_mut()
            .enumerate()
            .take(width.min(last + 1))
            .skip(first)
        {
            let b_lo = b as u64 * per;
            let b_hi = b_lo + per;
            *c += hi.min(b_hi).saturating_sub(lo.max(b_lo));
        }
    }
    cover.iter().map(|&c| c as f64 / per as f64).collect()
}

/// Render the full terminal summary for a recorded run.
pub fn render_summary(rec: &Recorder, stats: &RunStats) -> String {
    let mut out = String::new();
    let end = rec.end_cycle().max(stats.cycles).max(1);
    out.push_str(&format!(
        "run: {} cycles, {} threads | commits={} aborts={} commit_rate={:.3} fallbacks={}\n",
        end,
        stats.threads,
        stats.commits,
        stats.total_aborts(),
        stats.commit_rate(),
        stats.fallbacks
    ));
    out.push_str(&format!(
        "spans: {} recorded ({} auto-closed, {} unmatched ends) | trace events dropped: {}\n",
        rec.spans().len(),
        rec.auto_closed(),
        rec.unmatched_ends(),
        stats.trace_dropped
    ));

    // Occupancy heatmap: shade = fraction of the bucket the core spent
    // inside an atomic section (txn or lock); a lane per core.
    let busy_kinds = [
        SpanKind::Txn,
        SpanKind::TlLock,
        SpanKind::StlLock,
        SpanKind::Fallback,
    ];
    out.push_str(&format!(
        "\natomic-section occupancy ({} cycles/column, shade {})\n",
        end.div_ceil(WIDTH as u64).max(1),
        RAMP.iter().collect::<String>()
    ));
    for core in 0..stats.threads {
        let occ = occupancy(rec, core, &busy_kinds, end, WIDTH);
        let lane: String = occ.iter().map(|&f| ramp(f)).collect();
        out.push_str(&format!("core {core:>2} |{lane}|\n"));
    }
    let parked: Vec<_> = (0..stats.threads)
        .map(|c| {
            occupancy(rec, c, &[SpanKind::Park], end, WIDTH)
                .iter()
                .sum::<f64>()
                / WIDTH as f64
        })
        .collect();
    if parked.iter().any(|&p| p > 0.0) {
        out.push_str("parked  |");
        out.push_str(
            &parked
                .iter()
                .map(|&p| format!("{:>5.1}% ", p * 100.0))
                .collect::<String>(),
        );
        out.push_str("| (mean park fraction per core)\n");
    }

    // Abort causes, labeled by the taxonomy's display names with a
    // NaN-free share column (`abort_fraction` returns 0.0 on empty runs,
    // and zero-count causes are skipped anyway).
    if stats.total_aborts() > 0 {
        out.push_str("\naborts by cause:\n");
        for cause in AbortCause::ALL {
            let n = stats.aborts[cause.index()];
            if n > 0 {
                out.push_str(&format!(
                    "  {:<9} {n:>8} {:>5.1}%\n",
                    cause.name(),
                    stats.abort_fraction(cause) * 100.0
                ));
            }
        }
        out.push_str(&format!(
            "  wasted speculation: {} cycles ({:.1}% of attributed time)\n",
            stats.aborted_cycles(),
            stats.wasted_fraction() * 100.0
        ));
    }

    // NoC and LLC.
    out.push_str(&format!(
        "\nnoc: {} msgs, {:.2} hops/msg, {} queue-cycles, max link util {:.1}%\n",
        stats.messages,
        stats.avg_hops_per_msg(),
        stats.noc_queue_cycles,
        stats.max_link_utilization() * 100.0
    ));
    let peak_bank = stats
        .bank_queue_peak
        .iter()
        .enumerate()
        .max_by_key(|&(_, &p)| p);
    if let Some((bank, &peak)) = peak_bank {
        out.push_str(&format!(
            "llc: hit rate {:.1}%, deepest bank queue {peak} (bank {bank})\n",
            stats.llc_hit_rate() * 100.0
        ));
    }

    out.push('\n');
    out.push_str(&render_latency_table(stats));

    // Distributions only the recording holds. Park waits are not among
    // them: the engine records the same histogram as `park_wait` above.
    let mut txn_length = LatencyHist::new();
    for s in rec.spans_of(SpanKind::Txn) {
        txn_length.record(s.duration());
    }
    let mut bank_queue_depth = LatencyHist::new();
    for row in rec.samples() {
        for &(metric, value) in &row.values {
            if matches!(metric, Metric::BankQueueDepth(_)) {
                bank_queue_depth.record(value);
            }
        }
    }
    out.push('\n');
    out.push_str(&render_hist_table(
        "recorded distributions (txn_length: cycles, bank_queue_depth: queued requests):",
        &[
            ("txn_length", &txn_length),
            ("bank_queue_depth", &bank_queue_depth),
        ],
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::trace;
    use lockiller::TraceKind;

    #[test]
    fn ramp_is_monotone_and_bounded() {
        assert_eq!(ramp(0.0), ' ');
        assert_eq!(ramp(1.0), '@');
        assert_eq!(ramp(7.0), '@');
    }

    #[test]
    fn occupancy_covers_full_span() {
        let rec = Recorder::from_trace(
            &trace(&[(0, 0, TraceKind::TxBegin), (100, 0, TraceKind::Commit)]),
            100,
        );
        let occ = occupancy(&rec, 0, &[SpanKind::Txn], 100, 10);
        assert!(occ.iter().all(|&f| (f - 1.0).abs() < 1e-9), "{occ:?}");
        let none = occupancy(&rec, 1, &[SpanKind::Txn], 100, 10);
        assert!(none.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn summary_renders_lanes_for_every_thread() {
        let rec = Recorder::default();
        let mut stats = RunStats::new(3);
        stats.threads = 3;
        stats.cycles = 500;
        let s = render_summary(&rec, &stats);
        assert!(s.contains("core  0 |"));
        assert!(s.contains("core  2 |"));
        assert!(s.contains("noc:"));
        // The latency table is always present, with every class row and
        // no NaN/Inf even though nothing was recorded.
        assert!(s.contains("transaction latency by outcome class"));
        assert!(s.contains("htm_commit"));
        assert!(!s.contains("NaN"));
    }

    #[test]
    fn distributions_are_percentile_rows() {
        let row = |s: &str, name: &str| -> Vec<String> {
            let line = s
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("{name} ")))
                .unwrap_or_else(|| panic!("no {name} row:\n{s}"));
            line.split_whitespace()
                .skip(1)
                .map(str::to_string)
                .collect()
        };
        let stats = RunStats::new(2);
        let empty = render_summary(&Recorder::default(), &stats);
        for name in ["txn_length", "bank_queue_depth"] {
            assert_eq!(row(&empty, name), ["0", "0", "0", "0", "0", "0", "0.0"]);
        }
        assert!(!empty.contains("park_latency"));
        assert!(!empty.contains("NaN") && !empty.contains("inf"), "{empty}");

        let mut t = trace(&[
            (0, 0, TraceKind::TxBegin),
            (40, 0, TraceKind::Commit),
            (50, 0, TraceKind::TxBegin),
            (250, 0, TraceKind::Commit),
        ]);
        t.record_samples(
            0,
            vec![
                (Metric::BankQueueDepth(0), 3),
                (Metric::BankQueueDepth(1), 0),
                (Metric::Commits, 99),
            ],
        );
        let rec = Recorder::from_trace(&t, 250);
        let s = render_summary(&rec, &stats);
        assert_eq!(row(&s, "txn_length")[0], "2");
        assert_eq!(row(&s, "txn_length")[5], "200");
        assert_eq!(row(&s, "bank_queue_depth")[0], "2");
        assert_eq!(row(&s, "bank_queue_depth")[5], "3");
    }
}
