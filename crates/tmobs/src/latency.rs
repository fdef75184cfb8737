//! Latency rendering: the per-transaction-class percentile table shown
//! by `tmtrace summary`, and the same layout for any other named
//! histograms (the summary's recorded distributions).
//!
//! The class numbers come from `RunStats::latency` — the engine's
//! deterministic log-bucketed histograms — so everything here is
//! presentation: the quantile math (including the NaN-free empty-class
//! behavior) lives in `sim_core::latency`.

use sim_core::latency::{LatencyHist, TxnClass};
use sim_core::stats::RunStats;

/// Width of the class table's name column.
const CLASS_WIDTH: usize = 15;

fn header(first: &str, width: usize) -> String {
    format!(
        "  {first:<width$} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}\n",
        "count", "p50", "p90", "p99", "p999", "max", "mean"
    )
}

fn row(name: &str, width: usize, h: &LatencyHist) -> String {
    format!(
        "  {name:<width$} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10.1}\n",
        h.count(),
        h.p50(),
        h.p90(),
        h.p99(),
        h.p999(),
        h.max(),
        h.mean()
    )
}

/// Render the per-class latency percentile table plus the three
/// lifecycle-phase distributions. Every class row is always present —
/// empty classes print zeros, never NaN/Inf.
pub fn render_latency_table(stats: &RunStats) -> String {
    let mut out = String::from("transaction latency by outcome class (simulated cycles):\n");
    out.push_str(&header("class", CLASS_WIDTH));
    for c in TxnClass::ALL {
        out.push_str(&row(c.name(), CLASS_WIDTH, stats.latency.class(c)));
    }
    out.push_str("lifecycle phases:\n");
    let lat = &stats.latency;
    for (name, h) in [
        ("park_wait", &lat.park),
        ("fallback_hold", &lat.fallback_hold),
        ("first_abort", &lat.first_abort),
    ] {
        out.push_str(&row(name, CLASS_WIDTH, h));
    }
    out
}

/// Render named histograms under `title` with the class table's columns;
/// the name column widens to fit the longest name.
pub(crate) fn render_hist_table(title: &str, hists: &[(&str, &LatencyHist)]) -> String {
    let width = hists
        .iter()
        .map(|(name, _)| name.len())
        .fold(CLASS_WIDTH, usize::max);
    let mut out = format!("{title}\n");
    out.push_str(&header("name", width));
    for (name, h) in hists {
        out.push_str(&row(name, width, h));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::latency::TxnClass;
    use sim_core::stats::AbortCause;

    #[test]
    fn table_has_every_class_row_and_no_nan() {
        let stats = RunStats::new(2);
        let t = render_latency_table(&stats);
        for c in TxnClass::ALL {
            assert!(t.contains(c.name()), "missing class row {}", c.name());
        }
        assert!(t.contains("park_wait"));
        assert!(t.contains("fallback_hold"));
        assert!(t.contains("first_abort"));
        assert!(!t.contains("NaN") && !t.contains("inf"), "{t}");
    }

    #[test]
    fn table_shows_recorded_percentiles() {
        let mut stats = RunStats::new(2);
        for _ in 0..10 {
            stats.latency.record_class(TxnClass::HtmCommit, 100);
        }
        stats
            .latency
            .record_class(TxnClass::Retry(AbortCause::Of), 7);
        let t = render_latency_table(&stats);
        let htm_row = t
            .lines()
            .find(|l| l.trim_start().starts_with("htm_commit"))
            .unwrap();
        assert!(htm_row.contains("10"), "{htm_row}");
    }

    #[test]
    fn hist_table_aligns_long_names_with_the_header() {
        let mut h = LatencyHist::new();
        h.record(3);
        let t = render_hist_table("t:", &[("short", &h), ("a_rather_long_name", &h)]);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines[0], "t:");
        let width = lines[1].len();
        assert!(lines[2..].iter().all(|l| l.len() == width), "{t}");
        assert!(lines[3].starts_with("  a_rather_long_name        1"), "{t}");
    }
}
