//! The metrics: their declaration in `BENCHMARK.json`, and how each is
//! computed from what a workload run measured.
//!
//! `BENCHMARK.json` is the single source of names, units, directions
//! and bounds; this module supplies values, and a test asserts the two
//! name sets are equal. Sources: host times from the benchmark's own
//! spans over untraced reps (medians), deterministic counts from
//! `RunStats`/`ExploreReport`, and phase shares from the traced rep's
//! `ProfReport`. A metric a workload has no source for reads 0.

use crate::measure::Measured;
use crate::stats::median;
use sim_core::json::{parse, Json};
use sim_core::prof::ProfReport;
use sim_core::stats::RunStats;

#[derive(Clone, Debug, PartialEq)]
pub struct Decl {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the baseline median by which
    /// the metric may worsen.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Declared {
    pub end_to_end: Vec<Decl>,
    pub per_layer: Vec<Decl>,
}

impl Declared {
    /// `BENCHMARK.json` as compiled into this binary.
    pub fn get() -> Declared {
        Declared::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is valid")
    }

    fn parse(text: &str) -> Result<Declared, String> {
        let doc = parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing array {key:?}"))
        };
        let decls = |key: &str| -> Result<Vec<Decl>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("{key} entry without {k:?}"))
                    };
                    Ok(Decl {
                        name: s("name")?,
                        unit: s("unit")?,
                        higher_is_better: s("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Declared {
            end_to_end: decls("end_to_end")?,
            per_layer: decls("per_layer")?,
        })
    }
}

/// The per-layer metrics that are pure functions of the simulated inputs
/// and the seed: a change meant only to make the simulator faster must
/// leave every one of them identical. The rest are host measurements.
pub const EXACT: [&str; 21] = [
    "guest.vm_points",
    "event.queue_depth_mean",
    "event.queue_peak",
    "engine.events",
    "coherence.rejects",
    "coherence.bank_queued",
    "coherence.llc_miss_ratio",
    "noc.messages",
    "noc.flit_hops",
    "noc.queue_cycles",
    "htm.commit_ratio",
    "htm.aborts",
    "htm.lock_commits",
    "htm.wakeups",
    "htm.wakeup_timeouts",
    "sim.cycles",
    "dpor.schedules",
    "dpor.useful_ratio",
    "dpor.pruned_sleep",
    "dpor.pruned_dedup",
    "dpor.frontier_peak",
];

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Share of profiled host time spent in phases named `leaf` (self time,
/// summed over every path ending in `leaf`).
pub fn leaf_share(profiles: &[ProfReport], leaf: &str) -> f64 {
    let total: u64 = profiles.iter().map(|p| p.total_ns).sum();
    ratio(leaf_sum(profiles, leaf, |n| n.self_ns) as f64, total as f64)
}

/// Mean self time per entry into phases named `leaf`, in ns.
fn leaf_ns(profiles: &[ProfReport], leaf: &str) -> f64 {
    ratio(
        leaf_sum(profiles, leaf, |n| n.self_ns) as f64,
        leaf_sum(profiles, leaf, |n| n.calls) as f64,
    )
}

fn leaf_sum(
    profiles: &[ProfReport],
    leaf: &str,
    f: impl Fn(&sim_core::prof::ProfNode) -> u64,
) -> u64 {
    profiles
        .iter()
        .flat_map(|p| &p.nodes)
        .filter(|n| n.name == leaf)
        .map(f)
        .sum()
}

/// The end-to-end metrics, in declaration order.
pub fn end_to_end(m: &Measured) -> Vec<(&'static str, f64)> {
    let throughput: Vec<f64> = m
        .rep_work
        .iter()
        .zip(&m.rep_wall_s)
        .map(|(&w, &s)| ratio(w as f64, s))
        .collect();
    vec![
        ("wall_s", median(&m.rep_wall_s)),
        ("throughput", median(&throughput)),
        ("setup_s", median(&m.setup_s)),
        ("peak_rss_mb", m.peak_rss_mb),
    ]
}

/// The per-layer metrics, in declaration order.
pub fn per_layer(m: &Measured) -> Vec<(&'static str, f64)> {
    let stats: Vec<&RunStats> = m.stats.values().collect();
    let sum = |f: &dyn Fn(&RunStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&RunStats) -> u64| stats.iter().map(|s| f(s)).max().unwrap_or(0) as f64;
    let ex = || m.explores.values();
    let ex_sum = |f: &dyn Fn(&tmverify::ExploreReport) -> u64| ex().map(f).sum::<u64>() as f64;
    let p = &m.profiles;
    let wall = median(&m.rep_wall_s);
    let events = sum(&|s| s.events_processed);
    let schedules = ex_sum(&|r| r.schedules);
    let llc_misses = sum(&|s| s.bank_misses.iter().sum());
    let llc_lookups = llc_misses + sum(&|s| s.bank_hits.iter().sum());
    vec![
        ("stamp.setup_ms", median(&m.stamp_setup_s) * 1e3),
        ("guest.resume_share", leaf_share(p, "guest_resume")),
        ("guest.resume_ns", leaf_ns(p, "guest_resume")),
        ("guest.vm_points", m.vm_points as f64),
        ("event.dequeue_share", leaf_share(p, "dequeue")),
        ("event.dequeue_ns", leaf_ns(p, "dequeue")),
        (
            "event.queue_depth_mean",
            ratio(
                p.iter().map(|r| r.q_depth_sum).sum::<u64>() as f64,
                p.iter().map(|r| r.events).sum::<u64>() as f64,
            ),
        ),
        ("event.queue_peak", max(&|s| s.event_queue_peak)),
        ("engine.ns_per_event", ratio(wall * 1e9, events)),
        ("engine.events", events),
        ("engine.run_self_share", leaf_share(p, "run")),
        ("engine.stamp_share", leaf_share(p, "stamp")),
        ("coherence.share", leaf_share(p, "coherence")),
        ("coherence.ns", leaf_ns(p, "coherence")),
        ("coherence.rejects", sum(&|s| s.rejects + s.sig_rejects)),
        (
            "coherence.bank_queued",
            sum(&|s| s.bank_queued.iter().sum()),
        ),
        ("coherence.llc_miss_ratio", ratio(llc_misses, llc_lookups)),
        ("noc.share", leaf_share(p, "ev_net")),
        ("noc.messages", sum(&|s| s.messages)),
        ("noc.flit_hops", sum(&|s| s.flit_hops)),
        ("noc.queue_cycles", sum(&|s| s.noc_queue_cycles)),
        (
            "htm.commit_ratio",
            ratio(sum(&|s| s.commits), sum(&|s| s.tx_starts)),
        ),
        ("htm.aborts", sum(&RunStats::total_aborts)),
        ("htm.lock_commits", sum(&|s| s.lock_commits)),
        ("htm.wakeups", sum(&|s| s.wakeups)),
        ("htm.wakeup_timeouts", sum(&|s| s.wakeup_timeouts)),
        ("sim.cycles", sum(&|s| s.cycles)),
        ("dpor.schedules", schedules),
        ("dpor.ms_per_schedule", ratio(wall * 1e3, schedules)),
        (
            "dpor.replay_ms",
            ratio(median(&m.rep_replay_s) * 1e3, m.explores.len() as f64),
        ),
        (
            "dpor.useful_ratio",
            ratio(schedules - ex_sum(&|r| r.redundant), schedules),
        ),
        ("dpor.pruned_sleep", ex_sum(&|r| r.pruned_sleep)),
        ("dpor.pruned_dedup", ex_sum(&|r| r.pruned_dedup)),
        (
            "dpor.frontier_peak",
            ex().map(|r| r.frontier_peak).max().unwrap_or(0) as f64,
        ),
        ("tmstatic.analyze_us", median(&m.analyze_s) * 1e6),
        (
            "prof.overhead_frac",
            if wall > 0.0 {
                m.traced_wall_s / wall - 1.0
            } else {
                0.0
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declaration_parses() {
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
        let d = Declared::get();
        assert!(d.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(d
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn emitted_names_equal_the_declared_sets() {
        let d = Declared::get();
        let m = Measured::default();
        let names = |v: Vec<(&str, f64)>| {
            v.into_iter()
                .map(|(n, _)| n.to_string())
                .collect::<Vec<_>>()
        };
        let decl = |v: &[Decl]| v.iter().map(|m| m.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(end_to_end(&m)), decl(&d.end_to_end));
        assert_eq!(names(per_layer(&m)), decl(&d.per_layer));
        let layers = names(per_layer(&m));
        assert!(EXACT.iter().all(|e| layers.iter().any(|n| n == e)));
        // An empty measurement yields no NaN or infinity anywhere.
        assert!(end_to_end(&m)
            .iter()
            .chain(&per_layer(&m))
            .all(|(_, v)| v.is_finite()));
    }
}
