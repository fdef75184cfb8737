//! tmlab — parallel batch execution for the experiment harness.
//!
//! The experiment harness evaluates hundreds of *independent* simulation
//! points (system × workload × threads × cache config). Each point is
//! bit-deterministic on its own (one single-threaded event loop), so the
//! batch is embarrassingly parallel:
//!
//! - [`pool::run_ordered`] — a scoped work-stealing thread pool (std
//!   only) that fans points across host cores and returns results in
//!   submission order, so any `--jobs` value produces byte-identical
//!   batch output;
//! - [`BatchReport`] — the host-side accounting of every batch
//!   (per-point wall-clock, busy time, parallel efficiency), written as
//!   `BENCH_lab.json`.
//!
//! `crate::lab::Lab::run_many` drives the pool and fills the report;
//! nothing is kept across invocations, so every number a figure prints
//! was simulated by the code that printed it.

pub mod pool;

use crate::lab::ConfigPoint;
use lockiller::system::SystemKind;
use sim_core::json;
use stamp::WorkloadKind;

/// One simulation point, as the experiment harness names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Point {
    pub system: SystemKind,
    pub workload: WorkloadKind,
    pub threads: usize,
    pub cfg: ConfigPoint,
}

impl Point {
    pub(crate) fn label(&self) -> String {
        format!(
            "{}/{}/{}t/{:?}",
            self.system.name(),
            self.workload.name(),
            self.threads,
            self.cfg
        )
    }
}

/// One simulated point's accounting in a [`BatchReport`].
#[derive(Clone, Debug)]
pub struct PointReport {
    pub label: String,
    pub wall_ms: f64,
}

/// Host-side accounting for one or more batches (the harness accumulates
/// across every figure into a single report).
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Distinct points simulated.
    pub simulated: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Whole-batch wall-clock.
    pub wall_ms: f64,
    /// Sum of the individual simulations' wall-clocks.
    pub busy_ms: f64,
    /// Per-point accounting, in completion-independent submission order.
    pub points: Vec<PointReport>,
}

impl BatchReport {
    /// How much of the theoretical `jobs`-way speedup the batch realised:
    /// `busy / (wall * jobs)`. 1.0 means perfectly parallel, `1/jobs`
    /// means effectively serial. Zero when nothing was simulated.
    pub fn parallel_efficiency(&self) -> f64 {
        let denom = self.wall_ms * self.jobs as f64;
        if denom <= 0.0 {
            0.0
        } else {
            self.busy_ms / denom
        }
    }

    /// Machine-readable form (`BENCH_lab.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"simulated\":{},\"jobs\":{},\"wall_ms\":{:.3},\"busy_ms\":{:.3},\
             \"parallel_efficiency\":{:.4},\"points\":[",
            self.simulated,
            self.jobs,
            self.wall_ms,
            self.busy_ms,
            self.parallel_efficiency(),
        ));
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"wall_ms\":{:.3}}}",
                json::escape(&p.label),
                p.wall_ms
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lab::Lab;
    use stamp::Scale;

    fn some_points() -> Vec<Point> {
        let mut pts = Vec::new();
        for system in [
            SystemKind::Cgl,
            SystemKind::Baseline,
            SystemKind::LockillerTm,
        ] {
            for threads in [2usize, 4] {
                pts.push(Point {
                    system,
                    workload: WorkloadKind::Ssca2,
                    threads,
                    cfg: ConfigPoint::Typical,
                });
            }
        }
        pts
    }

    fn labels(report: &BatchReport) -> Vec<&str> {
        report.points.iter().map(|p| p.label.as_str()).collect()
    }

    #[test]
    fn any_job_count_gives_identical_ordered_results() {
        let points = some_points();
        let mut seq = Lab::new(Scale::Tiny);
        let baseline = seq.run_many(&points);
        for jobs in [2, 4, 8] {
            let mut par = Lab::new(Scale::Tiny);
            par.jobs(jobs);
            let got = par.run_many(&points);
            assert_eq!(baseline, got, "jobs={jobs} diverged from sequential");
            assert_eq!(
                labels(seq.report()),
                labels(par.report()),
                "jobs={jobs} reordered the batch report"
            );
        }
    }
}
