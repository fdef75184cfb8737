//! Exporters for the engine's host-side self-profile (`tmprof`).
//!
//! The emitting side lives in `sim_core::prof` (the engine brackets its
//! hot-loop phases with [`sim_core::prof::HostProf`] scopes); this
//! module turns the finished [`ProfReport`] into artifacts:
//!
//! - [`flame`] — collapsed-stack flamegraph text (`path;sub;phase N`,
//!   one line per phase, self-time in integer microseconds), loadable by
//!   any flamegraph renderer and summable by plain `awk`;
//! - [`chrome_prof`] — a Chrome trace-event document with the phase tree
//!   as nested slices (aggregate durations laid out depth-first, not a
//!   timeline — the profile is a tree of totals);
//! - [`prof_json`] — the stable JSON block merged into
//!   `<stem>.selfprof.json` (schema v2) and `BENCH_engine.json`;
//! - [`phase_shares`] — per-phase self-time shares (they sum to 1.0
//!   exactly: self times partition the root total);
//! - [`render_prof`] — a terminal table, biggest self-time first.
//!
//! Reconciliation guarantee (asserted by tests and the CI gate): the sum
//! of [`flame`] values equals the report's total within one microsecond
//! per phase — far inside the millisecond the acceptance bar asks for.

use sim_core::prof::{ProfNode, ProfReport};

/// Collapsed-stack flamegraph text: one `path value` line per phase in
/// depth-first order, `value` = self-time in integer microseconds
/// (rounded). Zero-valued lines are kept so the phase inventory is
/// stable run to run.
pub fn flame(report: &ProfReport) -> String {
    let mut out = String::new();
    for n in &report.nodes {
        out.push_str(&format!("{} {}\n", n.path, round_us(n.self_ns)));
    }
    out
}

fn round_us(ns: u64) -> u64 {
    (ns + 500) / 1000
}

/// Sum of the values in a collapsed-stack document produced by [`flame`]
/// (microseconds). Returns `None` on any malformed line.
pub fn flame_total_us(text: &str) -> Option<u64> {
    let mut sum = 0u64;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let (_, v) = line.rsplit_once(' ')?;
        sum += v.parse::<u64>().ok()?;
    }
    Some(sum)
}

/// Chrome trace-event JSON of the phase tree: nested `X` slices whose
/// durations are the aggregate per-phase totals, laid out depth-first
/// (each child starts where its previous sibling ended). Load in
/// Perfetto to see the tree as a flame chart; the time axis is
/// *aggregate host microseconds*, not a timeline.
pub fn chrome_prof(report: &ProfReport) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    // Depth-first layout: a node starts at its parent's start plus the
    // totals of the siblings flattened before it. Nodes arrive
    // parent-before-child, so starts resolve in one pass.
    let mut starts: Vec<u64> = vec![0; report.nodes.len()];
    let mut cursor: Vec<u64> = vec![0; report.nodes.len()];
    let mut first = true;
    for (i, n) in report.nodes.iter().enumerate() {
        let (ts, parent_slot) = match parent_index(report, i) {
            Some(p) => (starts[p] + cursor[p], Some(p)),
            None => (0, None),
        };
        starts[i] = ts;
        if let Some(p) = parent_slot {
            cursor[p] += n.total_ns;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"calls\":{},\"self_us\":{},\"allocs\":{}}}}}",
            crate::json::escape(n.name),
            ts / 1000,
            n.total_ns / 1000,
            n.calls,
            n.self_ns / 1000,
            n.allocs
        ));
    }
    out.push_str("]}");
    out
}

/// Index (into `report.nodes`) of `report.nodes[i]`'s parent: the node
/// whose path is `i`'s path minus its last segment.
fn parent_index(report: &ProfReport, i: usize) -> Option<usize> {
    let path = &report.nodes[i].path;
    let (parent_path, _) = path.rsplit_once(';')?;
    report.nodes.iter().position(|n| n.path == parent_path)
}

/// The stable JSON block for a host profile (no surrounding key): totals,
/// event counters, and one entry per phase keyed by full scope path.
/// Milliseconds to 3 decimals everywhere a duration appears, matching
/// the `phases` fields it sits next to in `selfprof.json`.
pub fn prof_json(report: &ProfReport) -> String {
    let mut out = format!(
        "{{\"total_ms\":{:.3},\"events\":{},\"queue_depth_mean\":{:.2},\"nodes\":[",
        report.total_ns as f64 / 1e6,
        report.events,
        report.q_depth_mean()
    );
    for (i, n) in report.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"path\":\"{}\",\"total_ms\":{:.3},\"self_ms\":{:.3},\"calls\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
            crate::json::escape(&n.path),
            n.total_ns as f64 / 1e6,
            n.self_ns as f64 / 1e6,
            n.calls,
            n.allocs,
            n.alloc_bytes
        ));
    }
    out.push_str("]}");
    out
}

/// Per-phase share of total host time (self-time basis), keyed by full
/// scope path, in depth-first report order. Shares sum to 1.0 exactly
/// when any time was recorded — self times partition the root total.
pub fn phase_shares(report: &ProfReport) -> Vec<(String, f64)> {
    report
        .self_shares()
        .into_iter()
        .map(|(p, s)| (p.to_string(), s))
        .collect()
}

/// Terminal table: phases by self-time, descending.
pub fn render_prof(report: &ProfReport) -> String {
    let total = (report.total_ns as f64).max(1.0);
    let mut rows: Vec<&ProfNode> = report.nodes.iter().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
    let mut out = format!(
        "host profile: {:.3} ms, {} events (queue depth mean {:.1})\n",
        report.total_ns as f64 / 1e6,
        report.events,
        report.q_depth_mean()
    );
    out.push_str("  self%   self ms  total ms      calls  phase\n");
    for n in rows {
        out.push_str(&format!(
            "  {:>5.1} {:>9.3} {:>9.3} {:>10}  {}\n",
            n.self_ns as f64 / total * 100.0,
            n.self_ns as f64 / 1e6,
            n.total_ns as f64 / 1e6,
            n.calls,
            n.path
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::prof::{HostProf, ProfPhase};

    fn sample_report() -> ProfReport {
        let mut p = HostProf::start();
        for _ in 0..3 {
            p.enter(ProfPhase::EvRecv);
            p.enter(ProfPhase::GuestResume);
            p.exit();
            p.exit();
            p.enter(ProfPhase::EvNet);
            p.enter(ProfPhase::Coherence);
            p.exit();
            p.exit();
            p.note_event(2);
        }
        p.report()
    }

    #[test]
    fn flame_reconciles_with_report_total() {
        let r = sample_report();
        let text = flame(&r);
        let sum = flame_total_us(&text).expect("well-formed flame output");
        // Rounding error is bounded by 0.5 us per line — far under 1 ms.
        let total_us = r.total_ns / 1000;
        assert!(
            sum.abs_diff(total_us) <= r.nodes.len() as u64,
            "flame sum {sum} vs total {total_us}"
        );
        // Every node appears exactly once.
        assert_eq!(text.lines().count(), r.nodes.len());
        assert!(text.starts_with("run "));
        assert!(text.contains("run;ev_recv;guest_resume "));
    }

    #[test]
    fn chrome_prof_is_valid_json_with_nested_slices() {
        let r = sample_report();
        let doc = chrome_prof(&r);
        let v = crate::json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), r.nodes.len());
        // The root slice spans the whole profile.
        let root = &events[0];
        assert_eq!(root.get("name").unwrap().as_str().unwrap(), "run");
        assert_eq!(root.get("ts").unwrap().as_f64().unwrap(), 0.0);
        // Children nest inside their parent's [ts, ts+dur).
        let rd = root.get("dur").unwrap().as_f64().unwrap();
        for e in &events[1..] {
            let ts = e.get("ts").unwrap().as_f64().unwrap();
            let dur = e.get("dur").unwrap().as_f64().unwrap();
            assert!(ts + dur <= rd + 1.0, "slice escapes the root");
        }
    }

    #[test]
    fn prof_json_parses_and_shares_sum_to_one() {
        let r = sample_report();
        let doc = prof_json(&r);
        let v = crate::json::parse(&doc).expect("valid JSON");
        let nodes = v.get("nodes").unwrap().as_arr().unwrap();
        assert_eq!(nodes.len(), r.nodes.len());
        let total = v.get("total_ms").unwrap().as_f64().unwrap();
        let self_sum: f64 = nodes
            .iter()
            .map(|n| n.get("self_ms").unwrap().as_f64().unwrap())
            .sum();
        // Emitted at 3 decimals; the sum matches total within rounding.
        assert!((self_sum - total).abs() < 0.01 * nodes.len() as f64);
        let shares = phase_shares(&r);
        let s: f64 = shares.iter().map(|(_, v)| v).sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn render_prof_lists_every_phase() {
        let r = sample_report();
        let table = render_prof(&r);
        for n in &r.nodes {
            assert!(table.contains(&n.path), "missing {}", n.path);
        }
    }
}
