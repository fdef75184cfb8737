//! Running one workload: a warm-up pass, timed reps with set-up batches
//! paced between them, and a traced rep, with every output checked.
//!
//! Timed reps run untraced; only the last rep turns on the engine's
//! `Runner::profile()` phase tree, which supplies the per-layer shares.
//! All host times are the benchmark's own spans around public calls
//! into each layer.

use crate::golden::Golden;
use crate::spans::{SpanId, Spans};
use crate::workloads::{DporCase, SimPoint, Workload};
use lockiller::Backend;
use sim_core::fxhash::FxHasher;
use sim_core::prof::ProfReport;
use sim_core::stats::RunStats;
use stamp::Scale;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use tmverify::{ExploreReport, Explorer};

/// How long and how often to measure.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub scale: Scale,
    pub seed: u64,
    /// Timed reps continue until this much time has passed...
    pub seconds: f64,
    /// ...and at least this many have run.
    pub min_reps: usize,
    /// Set-up batches; `setup_s` is their median.
    pub setup_batches: usize,
}

/// Everything one workload run measured, before it becomes metrics.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    /// Reference fingerprint per operation (the first successful rep's).
    pub outputs: BTreeMap<String, String>,
    /// Per set-up batch, mean per build: all of it, its construction plus
    /// `Program::setup` part, and its static-analysis part.
    pub setup_s: Vec<f64>,
    pub stamp_setup_s: Vec<f64>,
    pub analyze_s: Vec<f64>,
    /// Points the capability probe put on the VM backend.
    pub vm_points: usize,
    /// Per timed rep: wall time, work done (simulated cycles or explored
    /// schedules) and total replay time.
    pub rep_wall_s: Vec<f64>,
    pub rep_work: Vec<u64>,
    pub rep_replay_s: Vec<f64>,
    pub traced_wall_s: f64,
    /// Per simulation point or exploration case, from the first rep that
    /// produced it (they are deterministic).
    pub stats: BTreeMap<String, RunStats>,
    pub explores: BTreeMap<&'static str, ExploreReport>,
    /// One per simulation point, from the traced rep.
    pub profiles: Vec<ProfReport>,
    pub peak_rss_mb: f64,
}

#[derive(Clone, Copy, PartialEq)]
enum RepKind {
    Warmup,
    Timed,
    Traced,
}

impl RepKind {
    fn name(self) -> &'static str {
        match self {
            RepKind::Warmup => "warmup",
            RepKind::Timed => "timed",
            RepKind::Traced => "traced",
        }
    }
}

/// Minimum duration of one set-up batch.
const SETUP_BATCH: Duration = Duration::from_millis(10);

struct Bench<'a> {
    workload: &'a str,
    plan: Plan,
    golden: Option<&'a Golden>,
    spans: &'a mut Spans,
    m: Measured,
    /// Operations whose failure was already printed.
    reported: std::collections::BTreeSet<String>,
}

/// Run workload `name` under `plan`, recording spans into `spans`.
/// `golden` is consulted only if it applies to the plan's seed and
/// scale. A failed operation is counted, never fatal.
pub fn measure(
    name: &str,
    plan: Plan,
    golden: Option<&Golden>,
    spans: &mut Spans,
) -> Result<Measured, String> {
    let w = crate::workloads::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let root = spans.open(name, None);
    let mut s = Bench {
        workload: name,
        plan,
        golden: golden.filter(|g| g.applies(plan.seed, plan.scale)),
        spans,
        m: Measured::default(),
        reported: Default::default(),
    };
    match &w {
        Workload::Sim(points) => s.reps(
            root,
            |s, min| s.sim_setup(points, root, min),
            |s, backends, rep, kind| s.sim_rep(points, backends, rep, kind),
        ),
        Workload::Dpor(cases) => s.reps(
            root,
            |s, min| s.dpor_setup(cases, root, min),
            |s, explorers, rep, kind| s.dpor_rep(cases, explorers, rep, kind),
        ),
    }?;
    s.spans.close(root);
    Ok(s.m)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The message of a caught panic.
fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| panic_message(e.as_ref()))
}

fn stats_fingerprint(stats: &RunStats) -> String {
    let mut h = FxHasher::default();
    h.write(stats.to_json().as_bytes());
    format!("{:016x}", h.finish())
}

fn explore_fingerprint(r: &ExploreReport) -> String {
    let verdict = if r.is_clean() { "clean" } else { "violation" };
    format!("{:016x} {verdict} {}", r.digest, r.schedules)
}

impl Bench<'_> {
    /// Count one operation and check its output against earlier reps
    /// and the golden file.
    fn check(&mut self, key: String, out: Result<String, String>) {
        self.m.attempted += 1;
        let fp = match out {
            Ok(fp) => fp,
            Err(msg) => return self.fail(&key, &format!("panicked: {msg}")),
        };
        if let Some(want) = self.golden.and_then(|g| g.outputs.get(&key)) {
            if *want != fp {
                return self.fail(&key, &format!("output {fp} differs from golden {want}"));
            }
        } else if self.golden.is_some() {
            return self.fail(&key, "has no golden entry (run `tmbench bless`)");
        }
        match self.m.outputs.get(&key) {
            Some(first) if *first != fp => {
                let msg = format!("output {fp} differs from an earlier rep's {first}");
                self.fail(&key, &msg);
            }
            Some(_) => {}
            None => {
                self.m.outputs.insert(key, fp);
            }
        }
    }

    /// Count a failure; print the first one per operation.
    fn fail(&mut self, key: &str, why: &str) {
        self.m.failed += 1;
        if self.reported.insert(key.to_string()) {
            eprintln!("[tmbench {}] FAILED {key}: {why}", self.workload);
        }
    }

    /// A warm-up pass (one set-up, whose product every rep runs on, and
    /// one discarded rep), timed reps until both `seconds` and `min_reps`
    /// are reached, then one traced rep. The timed set-up batches are
    /// paced evenly across the timed reps, so a burst of interference
    /// from outside the process cannot land on all of them. Peak RSS is
    /// read after the warm-up pass, which runs every point once with a
    /// fixed sequence of allocations; later reps only repeat that work.
    fn reps<T>(
        &mut self,
        root: SpanId,
        mut setup: impl FnMut(&mut Self, Duration) -> T,
        mut rep: impl FnMut(&mut Self, &T, SpanId, RepKind) -> u64,
    ) -> Result<(), String> {
        let mut run = |s: &mut Self, input: &T, kind: RepKind, i: usize| {
            let id = s.spans.open("rep", Some(root));
            s.spans.arg(id, "kind", format!("\"{}\"", kind.name()));
            s.spans.arg(id, "index", i.to_string());
            let work = rep(s, input, id, kind);
            let wall = secs(s.spans.close(id));
            match kind {
                RepKind::Warmup => {}
                RepKind::Timed => {
                    s.m.rep_wall_s.push(wall);
                    s.m.rep_work.push(work);
                }
                RepKind::Traced => s.m.traced_wall_s = wall,
            }
        };
        let input = setup(self, Duration::ZERO);
        run(self, &input, RepKind::Warmup, 0);
        self.m.peak_rss_mb = crate::host::peak_rss_mb()?;
        self.m.setup_s.clear();
        self.m.stamp_setup_s.clear();
        self.m.analyze_s.clear();
        let (batches, seconds) = (self.plan.setup_batches.max(1), self.plan.seconds);
        let start = Instant::now();
        let mut n = 0;
        loop {
            let elapsed = secs(start.elapsed());
            let due = if seconds > 0.0 {
                (elapsed / seconds * batches as f64) as usize + 1
            } else {
                batches
            };
            while self.m.setup_s.len() < due.min(batches) {
                black_box(setup(self, SETUP_BATCH));
            }
            if n >= self.plan.min_reps && elapsed >= seconds {
                break;
            }
            run(self, &input, RepKind::Timed, n);
            n += 1;
        }
        run(self, &input, RepKind::Traced, 0);
        Ok(())
    }

    /// One set-up batch: repeats `build` until `min` has passed (so a
    /// set-up of microseconds is still timed well above clock
    /// resolution), at least once, and records the mean per build in
    /// `setup_s`. `build` returns its product and the time its layer
    /// part took; returns the last product and the mean layer time per
    /// build.
    fn setup_batch<T>(
        &mut self,
        root: SpanId,
        min: Duration,
        mut build: impl FnMut(&mut Self) -> (T, f64),
    ) -> (T, f64) {
        let id = self.spans.open("setup", Some(root));
        self.spans
            .arg(id, "batch", self.m.setup_s.len().to_string());
        let (start, mut builds, mut part) = (Instant::now(), 0u32, 0.0);
        let mut last = None;
        while builds == 0 || start.elapsed() < min {
            let (product, part_s) = build(self);
            last = Some(black_box(product));
            part += part_s;
            builds += 1;
        }
        self.spans.arg(id, "builds", builds.to_string());
        let n = f64::from(builds);
        self.m.setup_s.push(secs(self.spans.close(id)) / n);
        (last.expect("at least one build"), part / n)
    }

    /// Build every point's inputs (construction, `Program::setup`, the
    /// capability probe); returns the backend the probe chose per point.
    fn sim_setup(&mut self, points: &[SimPoint], root: SpanId, min: Duration) -> Vec<Backend> {
        let (backends, stamp_s) = self.setup_batch(root, min, |s| {
            let mut stamp_s = 0.0;
            let backends: Vec<Backend> = points
                .iter()
                .map(|p| {
                    let t = Instant::now();
                    let mut prog = p.build(s.plan.scale);
                    let lock_addr = prog.setup(p.threads);
                    stamp_s += secs(t.elapsed());
                    prog.backend(p, s.plan.seed, lock_addr)
                })
                .collect();
            (backends, stamp_s)
        });
        self.m.stamp_setup_s.push(stamp_s);
        self.m.vm_points = backends.iter().filter(|&&b| b == Backend::Vm).count();
        backends
    }

    /// One rep over every point; returns the simulated cycles it ran.
    fn sim_rep(
        &mut self,
        points: &[SimPoint],
        backends: &[Backend],
        rep: SpanId,
        kind: RepKind,
    ) -> u64 {
        let mut cycles = 0;
        for (p, &backend) in points.iter().zip(backends) {
            let label = p.label();
            let id = self.spans.open("point", Some(rep));
            self.spans.arg(id, "point", format!("\"{label}\""));
            self.spans
                .arg(id, "backend", format!("\"{}\"", backend.name()));
            let setup = self.spans.open("setup", Some(id));
            let mut prog = p.build(self.plan.scale);
            self.spans.close(setup);
            let mut runner = p.runner(self.plan.seed, backend);
            if kind == RepKind::Traced {
                runner = runner.profile();
            }
            let run = self.spans.open("run", Some(id));
            let out = catch(|| prog.run(&runner));
            self.spans.close(run);
            let fp = out.map(|mut out| {
                cycles += out.stats.cycles;
                if let Some(prof) = out.host_prof.take() {
                    self.layer_args(id, &prof);
                    self.m.profiles.push(prof);
                }
                let fp = stats_fingerprint(&out.stats);
                self.m.stats.entry(label.clone()).or_insert(out.stats);
                fp
            });
            self.spans.close(id);
            self.check(format!("{}/{label}", self.workload), fp);
        }
        cycles
    }

    /// The traced rep's layer numbers, on the point's span.
    fn layer_args(&mut self, id: SpanId, prof: &ProfReport) {
        let one = std::slice::from_ref(prof);
        for (key, leaf) in [
            ("guest_resume_share", "guest_resume"),
            ("dequeue_share", "dequeue"),
            ("coherence_share", "coherence"),
            ("noc_share", "ev_net"),
            ("stamp_share", "stamp"),
            ("run_self_share", "run"),
        ] {
            let share = crate::metrics::leaf_share(one, leaf);
            self.spans.arg(id, key, format!("{share}"));
        }
        self.spans.arg(id, "events", prof.events.to_string());
        self.spans
            .arg(id, "queue_depth_mean", format!("{}", prof.q_depth_mean()));
    }

    /// Build every case's explorer, including the static analysis behind
    /// the pruned case's independence table.
    fn dpor_setup(&mut self, cases: &[DporCase], root: SpanId, min: Duration) -> Vec<Explorer> {
        let (explorers, analyze_s) = self.setup_batch(root, min, |s| {
            let mut analyze_s = 0.0;
            let explorers: Vec<Explorer> = cases
                .iter()
                .map(|c| {
                    let mut ex = c.explorer(s.plan.scale);
                    if c.pruned {
                        let t = Instant::now();
                        // `VmAnalysis::new` memoizes per-kernel results for
                        // the life of the process, so the abstract
                        // interpreter runs uncached first: every build pays
                        // for the analysis.
                        let kernels = ex.kernels();
                        for (tid, k) in kernels.iter().enumerate() {
                            black_box(tmstatic::analyze(k, tid, kernels.len()));
                        }
                        ex.prune = tmstatic::VmAnalysis::new(c.system, ex.config(), &kernels)
                            .independence();
                        analyze_s += secs(t.elapsed());
                    }
                    ex
                })
                .collect();
            (explorers, analyze_s)
        });
        self.m.analyze_s.push(analyze_s);
        self.m.vm_points = explorers.len();
        explorers
    }

    /// One rep over every case; returns the schedules it explored.
    fn dpor_rep(
        &mut self,
        cases: &[DporCase],
        explorers: &[Explorer],
        rep: SpanId,
        kind: RepKind,
    ) -> u64 {
        let mut schedules = 0;
        let mut replay_s = 0.0;
        for (c, ex) in cases.iter().zip(explorers) {
            let id = self.spans.open("case", Some(rep));
            self.spans.arg(id, "case", format!("\"{}\"", c.name));
            let mut ex = ex.clone();
            ex.profile = kind == RepKind::Traced;
            let e = self.spans.open("explore", Some(id));
            let report = catch(|| ex.explore());
            self.spans.close(e);
            let r = self.spans.open("replay", Some(id));
            let replay = catch(|| ex.replay(&[]));
            replay_s += secs(self.spans.close(r));
            self.spans.close(id);
            let fp = report.map(|r| {
                schedules += r.schedules;
                let fp = explore_fingerprint(&r);
                self.m.explores.entry(c.name).or_insert(r);
                fp
            });
            self.check(format!("{}/{}/explore", self.workload, c.name), fp);
            let verdict = replay.map(|v| format!("{} violation(s)", v.len()));
            self.check(format!("{}/{}/replay", self.workload, c.name), verdict);
        }
        if kind == RepKind::Timed {
            self.m.rep_replay_s.push(replay_s);
        }
        schedules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{DEFAULT_SEED, NAMES};

    fn tiny() -> Plan {
        Plan {
            scale: Scale::Tiny,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            min_reps: 1,
            setup_batches: 1,
        }
    }

    #[test]
    fn tiny_smoke_of_every_workload() {
        for w in NAMES {
            let m = measure(w, tiny(), None, &mut Spans::new()).unwrap();
            assert_eq!(m.failed, 0, "{w}");
            assert!(m.attempted > 0, "{w}");
            assert_eq!(m.rep_wall_s.len(), 1, "{w}: one timed rep");
            for (name, v) in crate::metrics::end_to_end(&m) {
                assert!(v > 0.0 && v.is_finite(), "{w}: {name} = {v}");
            }
            for (name, v) in crate::metrics::per_layer(&m) {
                assert!(v.is_finite(), "{w}: {name} = {v}");
            }
            // Self times partition each traced point's host time.
            for p in &m.profiles {
                let sum: f64 = p.self_shares().iter().map(|(_, s)| s).sum();
                assert!((sum - 1.0).abs() <= 0.01, "{w}: shares sum to {sum}");
            }
            let expect_profiles = if w == "dpor" { 0 } else { m.stats.len() };
            assert_eq!(m.profiles.len(), expect_profiles, "{w}");
        }
    }

    #[test]
    fn corrupted_golden_entry_counts_as_failures_without_aborting() {
        let w = "vm-baseline";
        let clean = measure(w, tiny(), None, &mut Spans::new()).unwrap();
        assert_eq!(clean.failed, 0);
        let mut golden = Golden {
            seed: DEFAULT_SEED,
            scale: Scale::Tiny.name().to_string(),
            outputs: clean.outputs.clone(),
        };
        let m = measure(w, tiny(), Some(&golden), &mut Spans::new()).unwrap();
        assert_eq!(m.failed, 0, "the run's own outputs pass as golden");

        let key = golden.outputs.keys().next().unwrap().clone();
        golden.outputs.insert(key, "0000000000000000".to_string());
        let m = measure(w, tiny(), Some(&golden), &mut Spans::new()).unwrap();
        // Warm-up, one timed and one traced rep each fail that point once.
        assert_eq!(m.failed, 3);
        assert_eq!(m.attempted, clean.attempted, "every operation still ran");

        // A golden file for another seed is not consulted.
        golden.seed = 7;
        let m = measure(w, tiny(), Some(&golden), &mut Spans::new()).unwrap();
        assert_eq!(m.failed, 0);
    }
}
