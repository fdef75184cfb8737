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
//! on every `experiments engine` invocation.
//!
//! **Backend axis.** Every `host` block carries a `backend` field
//! (`"threads"` or `"vm"`, see [`lockiller::Backend`]). The battery
//! always appends a backend-comparison section: each VM-capable ladder
//! point plus the `intruder-flow` kernel program runs on *both*
//! backends, the deterministic outputs are asserted byte-equal (a third,
//! wall-clock-facing differential check), and the VM rows record
//! `speedup_vs_threads` — host wall-time ratio of the interpreted
//! compiled kernel over the hand-written `Program::run` body
//! (`Backend::Threads`, whose name predates its coroutines).
//! `experiments engine --backend vm`
//! additionally runs the main suite's capable points on the VM; the
//! deterministic leaves of `BENCH_engine.json` must not move, which is
//! exactly what the CI `perf-diff` gate checks at 0% tolerance.

use crate::lab::{ConfigPoint, Lab, Point};
use lockiller::program::Program;
use lockiller::system::SystemKind;
use lockiller::{Backend, Runner};
use sim_core::latency::{LatencyHist, TxnClass};
use sim_core::prof::ProfReport;
use sim_core::stats::RunStats;
use stamp::{Scale, Workload, WorkloadKind};
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

/// Ladder workloads whose kernels compile to `guestvm` bytecode and can
/// therefore run on either execution backend.
fn vm_capable(w: WorkloadKind) -> bool {
    matches!(w, WorkloadKind::KmeansHigh | WorkloadKind::KmeansLow)
}

/// The same call the lab executor makes for a cache miss, run inline so
/// the point's wall-clock is attributable to exactly one simulation.
/// With `profile` the engine's `tmprof` scope profiler rides along; the
/// stats are byte-identical either way (the determinism self-check in
/// [`run`] re-runs the first point unprofiled and asserts exactly that).
fn run_point(
    p: &Point,
    scale: Scale,
    backend: Backend,
    profile: bool,
) -> (RunStats, Option<ProfReport>) {
    let mut prog = Workload::with_scale(p.workload, p.threads, scale);
    let mut runner = Runner::new(p.system)
        .threads(p.threads)
        .config(p.cfg.config())
        .seed(SEED)
        .backend(backend);
    if profile {
        runner = runner.profile();
    }
    let mut out = runner.run(&mut prog);
    let prof = out.host_prof.take();
    (out.stats, prof)
}

/// Run any program at a ladder point's settings under `backend`,
/// returning (stats, wall-clock ms, host profile).
fn timed_run<P: Program>(
    p: &Point,
    prog: &mut P,
    backend: Backend,
    profile: bool,
) -> (RunStats, f64, Option<ProfReport>) {
    let t0 = std::time::Instant::now();
    let mut runner = Runner::new(p.system)
        .threads(p.threads)
        .config(p.cfg.config())
        .seed(SEED)
        .backend(backend);
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

/// Machine-dependent inputs to a point's `host` block, as opposed to
/// the deterministic [`RunStats`] they ride alongside.
struct HostSide<'a> {
    wall_ms: f64,
    backend: Backend,
    speedup_vs_threads: Option<f64>,
    prof: Option<&'a ProfReport>,
}

fn point_json(
    system: &str,
    workload: &str,
    threads: usize,
    stats: &RunStats,
    host: HostSide<'_>,
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
    let wall_ms = host.wall_ms;
    let wall_s = wall_ms / 1e3;
    let per_sec = |n: u64| if wall_s > 0.0 { n as f64 / wall_s } else { 0.0 };
    let ns_per_cycle = if stats.cycles == 0 {
        0.0
    } else {
        wall_ms * 1e6 / stats.cycles as f64
    };
    // Host block: machine-dependent, never gated at 0%. `backend` is
    // identity metadata (a string, invisible to the diff flattener);
    // `speedup_vs_threads` only appears on VM comparison rows.
    let speedup = host
        .speedup_vs_threads
        .map(|s| format!(",\"speedup_vs_threads\":{s:.2}"))
        .unwrap_or_default();
    let phases = host
        .prof
        .map(|r| format!(",\"phases\":{}", phases_json(r)))
        .unwrap_or_default();
    format!(
        "  {{\"system\":\"{system}\",\"workload\":\"{workload}\",\"threads\":{threads},\
         \"deterministic\":{{\"cycles\":{},\"commits\":{},\"stl_commits\":{},\
         \"lock_commits\":{},\"aborts\":{},\"events_processed\":{},\
         \"event_queue_peak\":{},\"latency\":{latency}}},\
         \"host\":{{\"backend\":\"{}\",\"wall_ms\":{wall_ms:.3},\
         \"sim_cycles_per_sec\":{:.1},\
         \"commits_per_sec\":{:.1},\"ns_per_cycle\":{ns_per_cycle:.3}{speedup}{phases}}}}}",
        stats.cycles,
        stats.commits,
        stats.stl_commits,
        stats.lock_commits,
        stats.total_aborts(),
        stats.events_processed,
        stats.event_queue_peak,
        host.backend.name(),
        per_sec(stats.cycles),
        per_sec(stats.commits),
    )
}

/// Run the battery and write `BENCH_engine.json`. `backend` selects the
/// guest execution core for the main suite; points whose workload does
/// not compile to bytecode always run on the host backend, so
/// `--backend vm` changes host metrics only — the deterministic leaves
/// must be identical, which the CI `perf-diff` gate enforces. `profile`
/// (the default; `--no-profile` clears it) attaches the engine's scope
/// profiler to every point and records per-phase self-time shares in
/// each `host` block; because the profiler only reads the host clock,
/// the deterministic leaves again must not move — the determinism
/// self-check below re-runs the first point *unprofiled* and asserts
/// byte-identical stats. Panics if the engine loses determinism (latency
/// histograms differ between identical runs, the lab executor disagrees
/// with a direct run, or the two backends diverge).
pub fn run(
    lab: &mut Lab,
    quick: bool,
    backend: Backend,
    profile: bool,
    path: &Path,
) -> std::io::Result<()> {
    let points = suite(quick);
    let mut rows = Vec::new();
    let mut direct: Vec<RunStats> = Vec::new();
    for p in &points {
        let be = if vm_capable(p.workload) {
            backend
        } else {
            Backend::Threads
        };
        let t0 = std::time::Instant::now();
        let (stats, prof) = run_point(p, lab.scale(), be, profile);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(stats.cycles > 0, "{p:?}: zero-cycle run");
        eprintln!(
            "[engine {} / {} / {} threads ({}): {} cycles, {} commits, {:.0} ms]",
            p.system.name(),
            p.workload.name(),
            p.threads,
            be.name(),
            stats.cycles,
            stats.commits,
            wall_ms
        );
        rows.push(point_json(
            p.system.name(),
            p.workload.name(),
            p.threads,
            &stats,
            HostSide {
                wall_ms,
                backend: be,
                speedup_vs_threads: None,
                prof: prof.as_ref(),
            },
        ));
        direct.push(stats);
    }

    // Backend comparison: every VM-capable ladder point plus the
    // VM-native intruder-flow kernel runs on both backends.
    // Deterministic outputs must match byte for byte; the VM rows
    // record the host-side speedup of the interpreted kernel over the
    // hand-written body.
    let mut best_speedup: (f64, String) = (0.0, String::new());
    {
        fn compare<P: Program>(
            p: &Point,
            name: &str,
            mut mk: impl FnMut() -> P,
            profile: bool,
            rows: &mut Vec<String>,
            best_speedup: &mut (f64, String),
        ) {
            let (st, wall_t, prof_t) = timed_run(p, &mut mk(), Backend::Threads, profile);
            let (sv, wall_v, prof_v) = timed_run(p, &mut mk(), Backend::Vm, profile);
            assert_eq!(
                st.to_json(),
                sv.to_json(),
                "{}/{name}: VM backend diverged from the host backend",
                p.system.name(),
            );
            let speedup = if wall_v > 0.0 { wall_t / wall_v } else { 0.0 };
            eprintln!(
                "[engine {} / {name} / {} threads: vm backend {:.2}x host speedup \
                 over host-Rust guests ({wall_t:.0} ms -> {wall_v:.0} ms)]",
                p.system.name(),
                p.threads,
                speedup,
            );
            if name == "intruder-flow" {
                rows.push(point_json(
                    p.system.name(),
                    name,
                    p.threads,
                    &st,
                    HostSide {
                        wall_ms: wall_t,
                        backend: Backend::Threads,
                        speedup_vs_threads: None,
                        prof: prof_t.as_ref(),
                    },
                ));
            }
            rows.push(point_json(
                p.system.name(),
                name,
                p.threads,
                &sv,
                HostSide {
                    wall_ms: wall_v,
                    backend: Backend::Vm,
                    speedup_vs_threads: Some(speedup),
                    prof: prof_v.as_ref(),
                },
            ));
            if speedup > best_speedup.0 {
                *best_speedup = (speedup, format!("{}/{name}", p.system.name()));
            }
        }
        let scale = lab.scale();
        for p in &points {
            if vm_capable(p.workload) {
                let (w, t) = (p.workload, p.threads);
                compare(
                    p,
                    w.name(),
                    || Workload::with_scale(w, t, scale),
                    profile,
                    &mut rows,
                    &mut best_speedup,
                );
            }
        }
        // The VM-native flow-reassembly kernel is not a ladder workload
        // (the ladder's intruder uses host-side tmlib containers); it
        // joins the battery here with both backends reported.
        let pf = Point {
            system: SystemKind::LockillerTm,
            workload: WorkloadKind::Intruder, // settings only; prog below
            threads: THREADS,
            cfg: ConfigPoint::Typical,
        };
        compare(
            &pf,
            "intruder-flow",
            || stamp::vm::IntruderFlow::new(scale, THREADS),
            profile,
            &mut rows,
            &mut best_speedup,
        );
    }
    eprintln!(
        "[engine best vm-vs-host-Rust host speedup: {:.2}x on {}]",
        best_speedup.0, best_speedup.1
    );

    // Determinism self-check: an identically-seeded re-run of the first
    // point must reproduce the latency histograms byte for byte. The
    // re-run is always *unprofiled*, so when the battery profiles (the
    // default) this is also the zero-cost check: attaching the scope
    // profiler must not move a single simulated bit.
    let (p0, s0) = (&points[0], &direct[0]);
    let (again, _) = run_point(p0, lab.scale(), Backend::Threads, false);
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

    // Cross-check the lab's (possibly parallel, possibly cached)
    // executor against the direct runs, point for point. This also puts
    // real traffic into the lab's batch report → BENCH_lab.json.
    let batched = lab.run_many(&points);
    for (p, (d, b)) in points.iter().zip(direct.iter().zip(&batched)) {
        assert_eq!(
            d.to_json(),
            b.to_json(),
            "{p:?}: lab executor diverged from a direct run"
        );
    }

    // Schema 2: points carry `host.phases` (absent under --no-profile).
    // `tmtrace perf-diff` refuses to compare across schema versions, so
    // bumping this forces a deliberate re-bless of ci/engine-baseline.json.
    // `profiled` is a string so the diff flattener treats it as identity
    // metadata, like `host.backend` — a profiled run gated against an
    // unprofiled baseline must differ only in (report-only) host leaves.
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

    #[test]
    fn quick_battery_writes_gateable_json() {
        let dir = std::env::temp_dir().join("lockiller-engine-bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_engine.json");
        // Tiny scale keeps the test cheap; the binary uses Small/Full.
        let mut lab = Lab::new(Scale::Tiny);
        run(&mut lab, true, Backend::Threads, true, &path).unwrap();
        let doc = std::fs::read_to_string(&path).unwrap();
        let v = json::parse(&doc).expect("BENCH_engine.json parses");
        assert_eq!(
            v.get("schema").and_then(Json::as_f64),
            Some(2.0),
            "host.phases rows are a schema-2 artifact"
        );
        let pts = v.get("points").and_then(Json::as_arr).unwrap();
        // 3 suite points + kmeans vm twin + intruder-flow on both backends.
        assert_eq!(pts.len(), 6, "quick suite is 6 points");
        let mut vm_rows = 0;
        for p in pts {
            let host = p.get("host").unwrap();
            let backend = host
                .get("backend")
                .and_then(Json::as_str)
                .expect("host.backend present");
            if backend == "vm" {
                vm_rows += 1;
                assert!(
                    host.get("speedup_vs_threads")
                        .and_then(Json::as_f64)
                        .is_some(),
                    "vm rows carry speedup_vs_threads"
                );
            }
        }
        assert_eq!(vm_rows, 2, "kmeans twin + intruder-flow vm rows");
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
        // The executor cross-check routed the suite through the lab.
        assert_eq!(lab.report().requested, 3);
        // Same battery on the VM backend *without* profiling:
        // deterministic leaves must move for neither the backend swap
        // (the CI guestvm-smoke gate runs this same comparison via
        // `tmtrace perf-diff` at 0% tolerance) nor the profiler opt-out
        // (the engine-perf-smoke gate's zero-cost check) — the profiled
        // and unprofiled batteries may differ only in host leaves.
        let vm_path = dir.join("BENCH_engine_vm.json");
        run(
            &mut Lab::new(Scale::Tiny),
            true,
            Backend::Vm,
            false,
            &vm_path,
        )
        .unwrap();
        let vm_doc = std::fs::read_to_string(&vm_path).unwrap();
        let deltas = tmobs::diff_docs(&doc, &vm_doc, 0.0).unwrap();
        let det: Vec<_> = deltas
            .iter()
            .filter(|d| !d.path.contains(".host."))
            .collect();
        assert!(
            det.is_empty(),
            "VM-backend battery moved deterministic leaves: {det:?}"
        );
        // The gate's own invariant: a document perf-diffed against
        // itself has no deterministic deltas.
        assert!(tmobs::diff_docs(&doc, &doc, 0.0).unwrap().is_empty());
    }
}
