//! tmlab — parallel batch executor with a persistent run cache.
//!
//! The experiment harness evaluates hundreds of *independent* simulation
//! points (system × workload × threads × cache config). Each point is
//! bit-deterministic on its own (one single-threaded event loop),
//! so the batch is embarrassingly parallel, and its results are worth
//! keeping: most figures share points, and most re-invocations change
//! nothing at all.
//!
//! This module supplies both halves:
//!
//! - [`pool::run_ordered`] — a scoped work-stealing thread pool (std
//!   only) that fans points across host cores and returns results in
//!   submission order, so any `--jobs` value produces byte-identical
//!   batch output;
//! - [`cache::RunCache`] — a versioned JSONL file keyed by
//!   [`cache::point_key`] (FxHash over the effective
//!   `SystemConfig::stable_hash()`, system, workload, threads, seed,
//!   scale) that makes `experiments` incremental across invocations;
//! - [`Executor`] — the coordinator gluing them together: deduplicates
//!   in-flight keys, consults the cache, simulates only the misses, and
//!   accounts everything into a [`BatchReport`] (per-point wall-clock,
//!   cache hit rate, host parallel efficiency) for `BENCH_lab.json`.
//!
//! `crate::lab::Lab` layers its figure-facing memoization on top.

pub mod cache;
pub mod pool;

pub use cache::{point_key, PointMeta, RunCache, CACHE_VERSION};

use crate::lab::ConfigPoint;
use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use sim_core::fxhash::FxHashMap;
use sim_core::json;
use sim_core::stats::RunStats;
use stamp::{Scale, Workload, WorkloadKind};
use std::time::Instant;
use tmobs::BatchProgress;

/// One simulation point, as the experiment harness names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Point {
    pub system: SystemKind,
    pub workload: WorkloadKind,
    pub threads: usize,
    pub cfg: ConfigPoint,
}

impl Point {
    fn label(&self) -> String {
        format!(
            "{}/{}/{}t/{:?}",
            self.system.name(),
            self.workload.name(),
            self.threads,
            self.cfg
        )
    }
}

/// One point's accounting in a [`BatchReport`].
#[derive(Clone, Debug)]
pub struct PointReport {
    pub label: String,
    pub cached: bool,
    pub wall_ms: f64,
}

/// Host-side accounting for one or more batches (the harness accumulates
/// across every figure into a single report).
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Points requested (before in-flight dedup).
    pub requested: usize,
    /// Distinct points after dedup.
    pub unique: usize,
    /// Served from the persistent cache.
    pub cache_hits: usize,
    /// Actually simulated this invocation.
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
    /// Fraction of unique points served from the persistent cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.unique == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.unique as f64
        }
    }

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
            "\"requested\":{},\"unique\":{},\"cache_hits\":{},\"simulated\":{},\
             \"jobs\":{},\"wall_ms\":{:.3},\"busy_ms\":{:.3},\
             \"cache_hit_rate\":{:.4},\"parallel_efficiency\":{:.4},\"points\":[",
            self.requested,
            self.unique,
            self.cache_hits,
            self.simulated,
            self.jobs,
            self.wall_ms,
            self.busy_ms,
            self.cache_hit_rate(),
            self.parallel_efficiency(),
        ));
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"cached\":{},\"wall_ms\":{:.3}}}",
                json::escape(&p.label),
                p.cached,
                p.wall_ms
            ));
        }
        out.push_str("]}");
        out
    }
}

/// The batch coordinator: owns the run parameters shared by every point
/// (scale, seed, host parallelism) but no state — the cache and report
/// are passed per call so `Lab` keeps ownership.
#[derive(Clone, Copy, Debug)]
pub struct Executor {
    pub scale: Scale,
    pub seed: u64,
    pub jobs: usize,
    pub verbose: bool,
}

impl Executor {
    /// Run `points`, returning their statistics in submission order.
    ///
    /// Duplicate points are simulated once (in-flight dedup); points
    /// found in `cache` are not simulated at all; everything simulated
    /// is written back to `cache`. Accounting lands in `report`.
    pub fn run(
        &self,
        points: &[Point],
        mut cache: Option<&mut RunCache>,
        report: &mut BatchReport,
    ) -> Vec<RunStats> {
        let t_batch = Instant::now();

        // Dedup in-flight keys: one simulation per distinct key, however
        // many submitted points map onto it.
        let mut key_to_slot: FxHashMap<u64, usize> = FxHashMap::default();
        let mut slots: Vec<(u64, Point, PointMeta)> = Vec::new();
        let mut order: Vec<usize> = Vec::with_capacity(points.len());
        for p in points {
            let meta = self.meta_for(p);
            let mut cfg = p.cfg.config();
            cfg.policy = p.system.policy();
            let key = point_key(&cfg, &meta);
            let slot = *key_to_slot.entry(key).or_insert_with(|| {
                slots.push((key, *p, meta));
                slots.len() - 1
            });
            order.push(slot);
        }

        // Partition into cache hits and points to simulate.
        let mut results: Vec<Option<RunStats>> = vec![None; slots.len()];
        let mut todo: Vec<(usize, Point)> = Vec::new();
        for (slot, (key, p, _)) in slots.iter().enumerate() {
            match cache.as_deref().and_then(|c| c.get(*key)) {
                Some(hit) => {
                    results[slot] = Some(hit.clone());
                    report.points.push(PointReport {
                        label: p.label(),
                        cached: true,
                        wall_ms: 0.0,
                    });
                }
                None => todo.push((slot, *p)),
            }
        }
        let hits = slots.len() - todo.len();

        // Simulate the misses on the pool.
        let progress = BatchProgress::new(todo.len(), self.verbose);
        let scale = self.scale;
        let seed = self.seed;
        let simulated = pool::run_ordered(self.jobs, todo, |_, (slot, p)| {
            let t0 = Instant::now();
            let mut prog = Workload::with_scale(p.workload, p.threads, scale);
            let stats = Runner::new(p.system)
                .threads(p.threads)
                .config(p.cfg.config())
                .seed(seed)
                .run(&mut prog)
                .stats;
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            progress.tick(&p.label(), false, wall_ms);
            (slot, stats, wall_ms)
        });

        // Commit results: memory, persistent cache, accounting.
        for (slot, stats, wall_ms) in simulated {
            let (key, p, meta) = &slots[slot];
            if let Some(c) = cache.as_deref_mut() {
                if let Err(e) = c.put(*key, meta, &stats) {
                    eprintln!("tmlab: cache write failed ({}): {e}", c.path().display());
                }
            }
            report.points.push(PointReport {
                label: p.label(),
                cached: false,
                wall_ms,
            });
            report.busy_ms += wall_ms;
            results[slot] = Some(stats);
        }

        report.requested += points.len();
        report.unique += slots.len();
        report.cache_hits += hits;
        report.simulated += slots.len() - hits;
        report.jobs = report.jobs.max(self.jobs.max(1));
        report.wall_ms += t_batch.elapsed().as_secs_f64() * 1e3;

        order
            .into_iter()
            .map(|slot| results[slot].clone().expect("executor lost a slot"))
            .collect()
    }

    fn meta_for(&self, p: &Point) -> PointMeta {
        PointMeta {
            system: p.system.name().to_string(),
            workload: p.workload.name().to_string(),
            threads: p.threads,
            seed: self.seed,
            scale: self.scale.name().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(jobs: usize) -> Executor {
        Executor {
            scale: Scale::Tiny,
            seed: 0xC0FFEE,
            jobs,
            verbose: false,
        }
    }

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

    #[test]
    fn any_job_count_gives_identical_ordered_results() {
        let points = some_points();
        let mut r1 = BatchReport::default();
        let baseline = exec(1).run(&points, None, &mut r1);
        for jobs in [2, 4, 8] {
            let mut r = BatchReport::default();
            let got = exec(jobs).run(&points, None, &mut r);
            assert_eq!(baseline, got, "jobs={jobs} diverged from sequential");
        }
    }

    #[test]
    fn duplicate_points_simulate_once() {
        let mut points = some_points();
        let n = points.len();
        points.extend(some_points()); // every point twice
        let mut report = BatchReport::default();
        let out = exec(2).run(&points, None, &mut report);
        assert_eq!(out.len(), 2 * n);
        assert_eq!(report.requested, 2 * n);
        assert_eq!(report.unique, n);
        assert_eq!(report.simulated, n);
        assert_eq!(out[0], out[n]);
    }

    #[test]
    fn report_json_is_well_formed() {
        let points = some_points();
        let mut report = BatchReport::default();
        let _ = exec(2).run(&points, None, &mut report);
        let doc = json::parse(&report.to_json()).expect("BENCH_lab.json must parse");
        assert_eq!(
            doc.get("unique").and_then(json::Json::as_f64),
            Some(points.len() as f64)
        );
        assert!(doc.get("parallel_efficiency").is_some());
        assert_eq!(
            doc.get("points")
                .and_then(json::Json::as_arr)
                .map(<[json::Json]>::len),
            Some(points.len())
        );
    }
}
