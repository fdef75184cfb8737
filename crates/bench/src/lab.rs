//! The figure-facing runner: one simulation per (system, workload,
//! threads, config) point, memoized so figures sharing points (every
//! speedup figure needs the CGL baseline) do not re-simulate.
//!
//! Single-point lookups hit an in-memory memo. [`Lab::run_many`] fans
//! the memo misses of a whole batch across host cores ([`Lab::jobs`])
//! on [`crate::tmlab::pool::run_ordered`] and accounts each simulation
//! into the [`BatchReport`] behind `BENCH_lab.json`. Figures call
//! [`Lab::prefetch`] with their whole point list up front so the
//! subsequent per-cell [`Lab::run`] calls are memo hits. The memo lives
//! as long as the `Lab`: nothing is read from or written to disk.

pub use crate::tmlab::Point;
use crate::tmlab::{pool, BatchReport, PointReport};
use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use sim_core::config::SystemConfig;
use sim_core::stats::RunStats;
use stamp::{Scale, Workload, WorkloadKind};
use std::collections::{HashMap, HashSet};
use std::time::Instant;
use tmobs::BatchProgress;

/// Hardware configuration points used by the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConfigPoint {
    /// Table I: 32 KB L1 / 8 MB LLC.
    Typical,
    /// Fig. 13: 8 KB L1 / 1 MB LLC.
    SmallCache,
    /// Fig. 13: 128 KB L1 / 32 MB LLC.
    LargeCache,
}

impl ConfigPoint {
    pub fn config(self) -> SystemConfig {
        match self {
            ConfigPoint::Typical => SystemConfig::table1(),
            ConfigPoint::SmallCache => SystemConfig::small_cache(),
            ConfigPoint::LargeCache => SystemConfig::large_cache(),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ConfigPoint::Typical => "typical (32KB L1 / 8MB LLC)",
            ConfigPoint::SmallCache => "small (8KB L1 / 1MB LLC)",
            ConfigPoint::LargeCache => "large (128KB L1 / 32MB LLC)",
        }
    }
}

/// The memoizing runner.
pub struct Lab {
    scale: Scale,
    seed: u64,
    jobs: usize,
    memo: HashMap<Point, RunStats>,
    report: BatchReport,
    pub verbose: bool,
}

impl Lab {
    pub fn new(scale: Scale) -> Lab {
        Lab {
            scale,
            seed: 0xC0FFEE,
            jobs: 1,
            memo: HashMap::new(),
            report: BatchReport::default(),
            verbose: false,
        }
    }

    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Host worker threads used for batched points (default 1, i.e. the
    /// sequential reference behaviour).
    pub fn jobs(&mut self, n: usize) -> &mut Lab {
        self.jobs = n.max(1);
        self
    }

    /// Host-side accounting accumulated over every batch so far.
    pub fn report(&self) -> &BatchReport {
        &self.report
    }

    /// Run (or recall) a whole batch of points, in order. Memo hits cost
    /// nothing; the rest, each distinct point once, are simulated in one
    /// fan-out over `jobs` host threads.
    pub fn run_many(&mut self, points: &[Point]) -> Vec<RunStats> {
        let mut seen = HashSet::new();
        let misses: Vec<Point> = points
            .iter()
            .filter(|p| !self.memo.contains_key(p) && seen.insert(**p))
            .copied()
            .collect();
        if !misses.is_empty() {
            self.simulate(misses);
        }
        points.iter().map(|p| self.memo[p].clone()).collect()
    }

    /// Simulate `points` (distinct, none memoized) on the pool and
    /// account each into the report.
    fn simulate(&mut self, points: Vec<Point>) {
        let t_batch = Instant::now();
        let n = points.len();
        let progress = BatchProgress::new(n, self.verbose);
        let (scale, seed) = (self.scale, self.seed);
        let done = pool::run_ordered(self.jobs, points, |_, p| {
            let t0 = Instant::now();
            let mut prog = Workload::with_scale(p.workload, p.threads, scale);
            let stats = Runner::new(p.system)
                .threads(p.threads)
                .config(p.cfg.config())
                .seed(seed)
                .run(&mut prog)
                .stats;
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            progress.tick(&p.label(), wall_ms);
            (p, stats, wall_ms)
        });
        for (p, stats, wall_ms) in done {
            self.report.points.push(PointReport {
                label: p.label(),
                wall_ms,
            });
            self.report.busy_ms += wall_ms;
            self.memo.insert(p, stats);
        }
        self.report.simulated += n;
        self.report.jobs = self.report.jobs.max(self.jobs);
        self.report.wall_ms += t_batch.elapsed().as_secs_f64() * 1e3;
    }

    /// Batch-run `points` for their side effect on the memo (figures call
    /// this first so later per-cell lookups never simulate).
    pub fn prefetch(&mut self, points: &[Point]) {
        let _ = self.run_many(points);
    }

    /// Run (or recall) one simulation point.
    pub fn run(
        &mut self,
        system: SystemKind,
        workload: WorkloadKind,
        threads: usize,
        cfg: ConfigPoint,
    ) -> RunStats {
        let point = Point {
            system,
            workload,
            threads,
            cfg,
        };
        if let Some(s) = self.memo.get(&point) {
            return s.clone();
        }
        if self.verbose {
            eprintln!(
                "  [run] {} / {} / {} threads / {}",
                system.name(),
                workload.name(),
                threads,
                cfg.name()
            );
        }
        self.run_many(&[point])
            .pop()
            .expect("run_many returns one result per point")
    }

    /// Speedup of `system` over CGL on the same point (the paper's
    /// speedup definition: same code, same threads, elision overloaded).
    /// A degenerate zero-cycle run yields 0.0 (never NaN/inf), matching
    /// the `RunStats` ratio helpers.
    pub fn speedup(
        &mut self,
        system: SystemKind,
        workload: WorkloadKind,
        threads: usize,
        cfg: ConfigPoint,
    ) -> f64 {
        let cgl = self.run(SystemKind::Cgl, workload, threads, cfg).cycles as f64;
        let sys = self.run(system, workload, threads, cfg).cycles as f64;
        if sys == 0.0 {
            0.0
        } else {
            cgl / sys
        }
    }

    /// Geometric mean of speedups over all nine workloads.
    pub fn avg_speedup(&mut self, system: SystemKind, threads: usize, cfg: ConfigPoint) -> f64 {
        let mut logsum = 0.0;
        for w in WorkloadKind::ALL {
            logsum += self.speedup(system, w, threads, cfg).ln();
        }
        (logsum / WorkloadKind::ALL.len() as f64).exp()
    }

    /// Export every simulated point as CSV (for external plotting).
    /// Columns are stable; one row per point.
    pub fn dump_csv(&self) -> String {
        let mut rows: Vec<(&Point, &RunStats)> = self.memo.iter().collect();
        rows.sort_by_key(|(p, _)| {
            (
                p.workload.name(),
                p.threads,
                p.system.name(),
                format!("{:?}", p.cfg),
            )
        });
        let mut out = String::from(
            "system,workload,threads,config,cycles,tx_starts,commits,stl_commits,\
             lock_commits,aborts_mc,aborts_lock,aborts_mutex,aborts_nontran,aborts_of,\
             aborts_fault,rejects,sig_rejects,wakeups,fallbacks,switches_granted,\
             switches_denied,messages
",
        );
        for (p, s) in rows {
            out.push_str(&format!(
                "{},{},{},{:?},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}
",
                p.system.name(),
                p.workload.name(),
                p.threads,
                p.cfg,
                s.cycles,
                s.tx_starts,
                s.commits,
                s.stl_commits,
                s.lock_commits,
                s.aborts[0],
                s.aborts[1],
                s.aborts[2],
                s.aborts[3],
                s.aborts[4],
                s.aborts[5],
                s.rejects,
                s.sig_rejects,
                s.wakeups,
                s.fallbacks,
                s.switches_granted,
                s.switches_denied,
                s.messages,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_memoizes_points() {
        let mut lab = Lab::new(Scale::Tiny);
        let a = lab.run(
            SystemKind::Cgl,
            WorkloadKind::Ssca2,
            2,
            ConfigPoint::Typical,
        );
        assert_eq!(lab.report().simulated, 1);
        let b = lab.run(
            SystemKind::Cgl,
            WorkloadKind::Ssca2,
            2,
            ConfigPoint::Typical,
        );
        assert_eq!(lab.report().simulated, 1, "second call must hit the memo");
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn speedup_is_cgl_relative() {
        let mut lab = Lab::new(Scale::Tiny);
        let s = lab.speedup(
            SystemKind::Cgl,
            WorkloadKind::Ssca2,
            2,
            ConfigPoint::Typical,
        );
        assert!((s - 1.0).abs() < 1e-12, "CGL vs CGL must be 1.0");
    }

    #[test]
    fn run_many_matches_sequential_runs() {
        let points: Vec<Point> = [2usize, 4]
            .iter()
            .flat_map(|&t| {
                [SystemKind::Cgl, SystemKind::Baseline].map(|system| Point {
                    system,
                    workload: WorkloadKind::KmeansLow,
                    threads: t,
                    cfg: ConfigPoint::Typical,
                })
            })
            .collect();
        let mut par = Lab::new(Scale::Tiny);
        par.jobs(4);
        let batched = par.run_many(&points);
        let mut seq = Lab::new(Scale::Tiny);
        for (p, b) in points.iter().zip(batched) {
            let s = seq.run(p.system, p.workload, p.threads, p.cfg);
            assert_eq!(s, b, "parallel batch diverged on {p:?}");
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
    fn duplicate_points_simulate_once() {
        let points = some_points();
        let n = points.len();
        let twice: Vec<Point> = points.iter().chain(&points).copied().collect();
        let mut lab = Lab::new(Scale::Tiny);
        lab.jobs(2);
        let out = lab.run_many(&twice);
        assert_eq!(out.len(), 2 * n);
        assert_eq!(lab.report().simulated, n);
        assert_eq!(lab.report().points.len(), n);
        assert_eq!(out[..n], out[n..]);
    }

    #[test]
    fn report_json_is_well_formed() {
        use sim_core::json::{self, Json};
        let points = some_points();
        let mut lab = Lab::new(Scale::Tiny);
        lab.jobs(2);
        lab.prefetch(&points);
        let doc = json::parse(&lab.report().to_json()).expect("BENCH_lab.json must parse");
        assert_eq!(
            doc.get("simulated").and_then(Json::as_f64),
            Some(points.len() as f64)
        );
        assert!(doc.get("parallel_efficiency").is_some());
        let rows = doc.get("points").and_then(Json::as_arr).expect("points");
        assert_eq!(rows.len(), points.len());
        // Nothing is cached across invocations, so no key may claim so.
        for obj in rows.iter().chain([&doc]) {
            let Json::Obj(fields) = obj else {
                panic!("not an object: {obj:?}")
            };
            assert!(fields.iter().all(|(k, _)| !k.contains("cache")), "{obj:?}");
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut lab = Lab::new(Scale::Tiny);
        lab.run(
            SystemKind::Baseline,
            WorkloadKind::Ssca2,
            2,
            ConfigPoint::Typical,
        );
        let csv = lab.dump_csv();
        assert!(csv.starts_with("system,workload"));
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.contains("Baseline,ssca2,2"));
    }
}
