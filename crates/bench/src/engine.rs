//! Engine throughput and latency battery.
//!
//! `experiments engine` sweeps the STAMP ladder on the simulated CMP and
//! writes `BENCH_engine.json`, the input to the `tmtrace perf-diff` CI
//! gate. Every point carries two blocks:
//!
//! - `deterministic`: simulated cycles, commit/abort counters, and the
//!   per-class latency percentiles from [`sim_core::latency`]. These are
//!   pure functions of (system, workload, threads, config, seed) and
//!   must be byte-identical on every machine — the gate runs them at 0%
//!   tolerance by default.
//! - `host`: wall-clock, simulated-cycles/sec, commits/sec, host-ns
//!   per simulated cycle, and (unless `--no-profile`) a `phases` object
//!   of per-phase self-time shares from the engine's `tmprof` scope
//!   profile (`sim_core::prof`) — shares sum to 1.0, so `tmtrace
//!   perf-diff --top-phases` can attribute a host regression to the
//!   phase that moved. Machine-dependent; `perf-diff` reports them
//!   without gating unless `--host-tolerance` is given.
//!
//! The battery re-runs its first point and asserts the latency
//! histograms come back byte-identical (the determinism acceptance
//! check), then pushes the whole suite through the shared [`Lab`]'s
//! parallel executor and asserts the batched stats agree with the
//! direct runs — which also makes `BENCH_lab.json` record real traffic
//! on every `experiments engine` invocation. After the ladder rows comes
//! one `intruder-flow` row: the flow-reassembly kernel program
//! ([`stamp::vm::IntruderFlow`]), which is not a ladder workload.

use crate::lab::{ConfigPoint, Lab, Point};
use lockiller::program::Program;
use lockiller::system::SystemKind;
use lockiller::Runner;
use sim_core::latency::{LatencyHist, TxnClass};
use sim_core::prof::ProfReport;
use sim_core::stats::RunStats;
use stamp::{Workload, WorkloadKind};
use std::io::Write;
use std::path::Path;

/// Must match `Lab`'s default seed: the executor cross-check below
/// compares a direct run against the lab's batched run of the same
/// point, and they only agree if they were seeded identically.
const SEED: u64 = 0xC0FFEE;

/// One thread count keeps the battery cheap; 8 threads is past the
/// contention knee on every ladder workload at Small/Full scale.
const THREADS: usize = 8;

fn suite(quick: bool) -> Vec<Point> {
    let workloads: Vec<WorkloadKind> = if quick {
        vec![
            WorkloadKind::Ssca2,
            WorkloadKind::KmeansLow,
            WorkloadKind::Intruder,
        ]
    } else {
        WorkloadKind::ALL.to_vec()
    };
    let systems: &[SystemKind] = if quick {
        &[SystemKind::LockillerTm]
    } else {
        &[SystemKind::Baseline, SystemKind::LockillerTm]
    };
    let mut points = Vec::new();
    for &system in systems {
        for &workload in &workloads {
            points.push(Point {
                system,
                workload,
                threads: THREADS,
                cfg: ConfigPoint::Typical,
            });
        }
    }
    points
}

/// Run `prog` at a ladder point's settings, inline, so the point's
/// wall-clock is attributable to exactly one simulation; returns (stats,
/// wall-clock ms, host profile). With `profile` the engine's `tmprof`
/// scope profiler rides along; the stats are byte-identical either way
/// (the determinism self-check in [`run`] re-runs the first point
/// unprofiled and asserts exactly that).
fn run_point<P: Program>(
    p: &Point,
    prog: &mut P,
    profile: bool,
) -> (RunStats, f64, Option<ProfReport>) {
    let t0 = std::time::Instant::now();
    let mut runner = Runner::new(p.system)
        .threads(p.threads)
        .config(p.cfg.config())
        .seed(SEED);
    if profile {
        runner = runner.profile();
    }
    let mut out = runner.run(prog);
    let prof = out.host_prof.take();
    (out.stats, t0.elapsed().as_secs_f64() * 1e3, prof)
}

fn hist_json(h: &LatencyHist) -> String {
    format!(
        "{{\"count\":{},\"p50\":{},\"p99\":{},\"p999\":{},\"max\":{}}}",
        h.count(),
        h.p50(),
        h.p99(),
        h.p999(),
        h.max()
    )
}

/// The `"phases"` object of a point's host block: per-phase self-time
/// shares of the engine's scope profile, keyed by full scope path.
/// Phase paths contain only `[a-z_;]`, so no JSON escaping is needed.
/// Emitted at 4 decimals; with ~a dozen phases the rounding error keeps
/// the sum within 1.0 ± 0.001, inside the gate's ± 0.01 bar.
fn phases_json(report: &ProfReport) -> String {
    let mut out = String::from("{");
    for (i, (path, share)) in tmobs::phase_shares(report).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{path}\":{share:.4}"));
    }
    out.push('}');
    out
}

/// One battery row: simulate `prog` at `p`'s settings, log it, and
/// append its JSON row (named `name`) to `rows`; returns the stats.
fn run_row<P: Program>(
    p: &Point,
    name: &str,
    prog: &mut P,
    profile: bool,
    rows: &mut Vec<String>,
) -> RunStats {
    let (stats, wall_ms, prof) = run_point(p, prog, profile);
    assert!(stats.cycles > 0, "{p:?}: zero-cycle run");
    eprintln!(
        "[engine {} / {name} / {} threads: {} cycles, {} commits, {wall_ms:.0} ms]",
        p.system.name(),
        p.threads,
        stats.cycles,
        stats.commits,
    );
    rows.push(point_json(
        p.system.name(),
        name,
        p.threads,
        &stats,
        wall_ms,
        prof.as_ref(),
    ));
    stats
}

/// One point's JSON row: the deterministic block from `stats`, and the
/// machine-dependent `host` block from the wall-clock and profile.
fn point_json(
    system: &str,
    workload: &str,
    threads: usize,
    stats: &RunStats,
    wall_ms: f64,
    prof: Option<&ProfReport>,
) -> String {
    let mut latency = String::from("{");
    for c in TxnClass::ALL {
        latency.push_str(&format!(
            "\"{}\":{},",
            c.name(),
            hist_json(stats.latency.class(c))
        ));
    }
    latency.push_str(&format!(
        "\"park\":{},\"fallback_hold\":{},\"first_abort\":{}}}",
        hist_json(&stats.latency.park),
        hist_json(&stats.latency.fallback_hold),
        hist_json(&stats.latency.first_abort)
    ));
    let wall_s = wall_ms / 1e3;
    let per_sec = |n: u64| if wall_s > 0.0 { n as f64 / wall_s } else { 0.0 };
    let ns_per_cycle = if stats.cycles == 0 {
        0.0
    } else {
        wall_ms * 1e6 / stats.cycles as f64
    };
    // Host block: machine-dependent, never gated at 0%.
    let phases = prof
        .map(|r| format!(",\"phases\":{}", phases_json(r)))
        .unwrap_or_default();
    format!(
        "  {{\"system\":\"{system}\",\"workload\":\"{workload}\",\"threads\":{threads},\
         \"deterministic\":{{\"cycles\":{},\"commits\":{},\"stl_commits\":{},\
         \"lock_commits\":{},\"aborts\":{},\"events_processed\":{},\
         \"event_queue_peak\":{},\"latency\":{latency}}},\
         \"host\":{{\"wall_ms\":{wall_ms:.3},\"sim_cycles_per_sec\":{:.1},\
         \"commits_per_sec\":{:.1},\"ns_per_cycle\":{ns_per_cycle:.3}{phases}}}}}",
        stats.cycles,
        stats.commits,
        stats.stl_commits,
        stats.lock_commits,
        stats.total_aborts(),
        stats.events_processed,
        stats.event_queue_peak,
        per_sec(stats.cycles),
        per_sec(stats.commits),
    )
}

/// Run the battery and write `BENCH_engine.json`. `profile` (the
/// default; `--no-profile` clears it) attaches the engine's scope
/// profiler to every point and records per-phase self-time shares in
/// each `host` block; because the profiler only reads the host clock,
/// the deterministic leaves must not move — the determinism self-check
/// below re-runs the first point *unprofiled* and asserts byte-identical
/// stats, and the CI `perf-diff` gate checks a `--no-profile` battery at
/// 0%. Panics if the engine loses determinism (latency histograms
/// differ between identical runs, or the lab executor disagrees with a
/// direct run).
pub fn run(lab: &mut Lab, quick: bool, profile: bool, path: &Path) -> std::io::Result<()> {
    let points = suite(quick);
    let scale = lab.scale();
    let mut rows = Vec::new();
    let mut direct: Vec<RunStats> = Vec::new();
    for p in &points {
        let mut prog = Workload::with_scale(p.workload, p.threads, scale);
        direct.push(run_row(p, p.workload.name(), &mut prog, profile, &mut rows));
    }
    // The flow-reassembly kernel is not a ladder workload (the ladder's
    // intruder uses host-side tmlib containers); it runs at the ladder's
    // LockillerTM settings.
    let pf = Point {
        system: SystemKind::LockillerTm,
        workload: WorkloadKind::Intruder, // settings only; prog below
        threads: THREADS,
        cfg: ConfigPoint::Typical,
    };
    let mut flow = stamp::vm::IntruderFlow::new(scale, THREADS);
    run_row(&pf, "intruder-flow", &mut flow, profile, &mut rows);

    // Determinism self-check: an identically-seeded re-run of the first
    // point must reproduce the latency histograms byte for byte. The
    // re-run is always *unprofiled*, so when the battery profiles (the
    // default) this is also the zero-cost check: attaching the scope
    // profiler must not move a single simulated bit.
    let (p0, s0) = (&points[0], &direct[0]);
    let mut prog = Workload::with_scale(p0.workload, p0.threads, scale);
    let (again, _, _) = run_point(p0, &mut prog, false);
    assert_eq!(
        s0.latency.to_json(),
        again.latency.to_json(),
        "{p0:?}: latency histograms are not deterministic"
    );
    assert_eq!(
        s0.to_json(),
        again.to_json(),
        "{p0:?}: run statistics are not deterministic"
    );

    // Cross-check the lab's (possibly parallel) batch against the direct
    // runs, point for point. This also puts real traffic into the lab's
    // batch report → BENCH_lab.json.
    let batched = lab.run_many(&points);
    for (p, (d, b)) in points.iter().zip(direct.iter().zip(&batched)) {
        assert_eq!(
            d.to_json(),
            b.to_json(),
            "{p:?}: lab batch diverged from a direct run"
        );
    }

    // Schema 2: points carry `host.phases` (absent under --no-profile).
    // `tmtrace perf-diff` refuses to compare across schema versions, so
    // bumping this forces a deliberate re-bless of ci/engine-baseline.json.
    // `profiled` is a string so the diff flattener treats it as identity
    // metadata — a profiled run gated against an unprofiled baseline must
    // differ only in (report-only) host leaves.
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "{{\"schema\":2,\"quick\":{},\"threads\":{},\"profiled\":\"{}\",\
         \"determinism_checked\":true,\"points\":[\n{}\n]}}",
        quick,
        THREADS,
        profile,
        rows.join(",\n")
    )?;
    eprintln!("[engine perf report in {}]", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::json::{self, Json};
    use stamp::Scale;

    #[test]
    fn quick_battery_writes_gateable_json() {
        let dir = std::env::temp_dir().join("lockiller-engine-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_engine.json");
        // Tiny scale keeps the test cheap; the binary uses Small/Full.
        let mut lab = Lab::new(Scale::Tiny);
        run(&mut lab, true, true, &path).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        let v = json::parse(&doc).expect("BENCH_engine.json parses");
        assert_eq!(
            v.get("schema").and_then(Json::as_f64),
            Some(2.0),
            "host.phases rows are a schema-2 artifact"
        );
        let pts = v.get("points").and_then(Json::as_arr).unwrap();
        // 3 suite points + the intruder-flow row.
        assert_eq!(pts.len(), 4, "quick suite is 4 points");
        assert_eq!(
            pts[3].get("workload").and_then(Json::as_str),
            Some("intruder-flow")
        );
        for p in pts {
            let det = p.get("deterministic").unwrap();
            assert!(det.get("cycles").and_then(Json::as_f64).unwrap() > 0.0);
            let lat = det.get("latency").unwrap();
            for class in ["htm_commit", "stl_commit", "lock_commit", "park"] {
                let h = lat.get(class).unwrap_or_else(|| panic!("missing {class}"));
                assert!(h.get("p99").and_then(Json::as_f64).is_some());
            }
            let host = p.get("host").unwrap();
            assert!(
                host.get("sim_cycles_per_sec")
                    .and_then(Json::as_f64)
                    .unwrap()
                    > 0.0
            );
            // Every profiled point attributes its host time to engine
            // phases, and self-time shares partition the total.
            let phases = host.get("phases").expect("host.phases present");
            let shares: Vec<f64> = match phases {
                Json::Obj(fields) => fields
                    .iter()
                    .map(|(_, v)| v.as_f64().expect("share is a number"))
                    .collect(),
                other => panic!("host.phases is not an object: {other:?}"),
            };
            assert!(!shares.is_empty(), "empty phase profile");
            let sum: f64 = shares.iter().sum();
            assert!(
                (sum - 1.0).abs() <= 0.01,
                "phase shares sum to {sum}, not 1.0"
            );
        }
        // The batch cross-check routed the suite through the lab.
        assert_eq!(lab.report().simulated, 3);
        // Same battery *without* profiling: deterministic leaves must not
        // move for the profiler opt-out (the engine-perf-smoke gate's
        // zero-cost check runs this comparison via `tmtrace perf-diff` at
        // 0% tolerance) — the profiled and unprofiled batteries may
        // differ only in host leaves.
        let plain_path = dir.join("BENCH_engine_plain.json");
        run(&mut Lab::new(Scale::Tiny), true, false, &plain_path).unwrap();
        let plain_doc = std::fs::read_to_string(&plain_path).unwrap();
        let deltas = tmobs::diff_docs(&doc, &plain_doc, 0.0).unwrap();
        let det: Vec<_> = deltas
            .iter()
            .filter(|d| !d.path.contains(".host."))
            .collect();
        assert!(
            det.is_empty(),
            "unprofiled battery moved deterministic leaves: {det:?}"
        );
        // The gate's own invariant: a document perf-diffed against
        // itself has no deterministic deltas.
        assert!(tmobs::diff_docs(&doc, &doc, 0.0).unwrap().is_empty());
    }
}
