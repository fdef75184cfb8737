//! Exact leaves of four LockillerTM points at Small scale, 8 threads,
//! the Table I configuration and seed 0xC0FFEE: ssca2, kmeans and
//! intruder from the STAMP ladder, and the flow-reassembly kernel
//! program (`stamp::vm::IntruderFlow`), which is not a ladder workload.
//! The figure battery's leaves (`ci/battery-leaves.jsonl`) are all at
//! Full scale, so these points are pinned here.
//!
//! Per point: cycles, commit counters, aborts, events processed, the
//! event-queue peak, and an FxHash of the latency histograms' JSON,
//! which fixes every per-class quantile. Each point runs again with the
//! engine's scope profiler attached and must give the same
//! `RunStats::to_json()`: profiling only reads the host clock.

use lockiller::program::Program;
use lockiller::system::SystemKind;
use lockiller::Runner;
use sim_core::config::SystemConfig;
use sim_core::fxhash::FxHasher;
use sim_core::stats::RunStats;
use stamp::vm::IntruderFlow;
use stamp::{Scale, Workload, WorkloadKind};
use std::hash::Hasher;

const THREADS: usize = 8;

/// A point's expected leaves: cycles, commits, stl_commits,
/// lock_commits, aborts, events_processed, event_queue_peak, and the
/// FxHash of `stats.latency.to_json()`.
type Leaves = [u64; 8];

fn run<P: Program>(prog: &mut P, profile: bool) -> RunStats {
    let mut runner = Runner::new(SystemKind::LockillerTm)
        .threads(THREADS)
        .config(SystemConfig::table1())
        .seed(0xC0FFEE);
    if profile {
        runner = runner.profile();
    }
    let out = runner.run(prog);
    assert_eq!(out.host_prof.is_some(), profile);
    out.stats
}

fn leaves(s: &RunStats) -> Leaves {
    let mut h = FxHasher::default();
    h.write(s.latency.to_json().as_bytes());
    [
        s.cycles,
        s.commits,
        s.stl_commits,
        s.lock_commits,
        s.total_aborts(),
        s.events_processed,
        s.event_queue_peak,
        h.finish(),
    ]
}

/// Run the point `make` builds, plain and profiled, and check both.
fn check<P: Program>(name: &str, want: Leaves, make: impl Fn() -> P) {
    let plain = run(&mut make(), false);
    assert_eq!(leaves(&plain), want, "{name}: leaves moved");
    let profiled = run(&mut make(), true);
    assert_eq!(
        plain.to_json(),
        profiled.to_json(),
        "{name}: profiling moved the run statistics"
    );
}

#[test]
fn lockillertm_small_points_keep_their_exact_leaves() {
    for (kind, want) in [
        (
            WorkloadKind::Ssca2,
            [10556, 384, 0, 0, 15, 9463, 20, 0x0e0c_a6a5_7d95_47e7],
        ),
        (
            WorkloadKind::KmeansLow,
            [30459, 384, 0, 0, 18, 113017, 39, 0xb187_efb8_c21e_ccdd],
        ),
        (
            WorkloadKind::Intruder,
            [77454, 380, 0, 88, 1028, 68654, 177, 0x93b9_c7d8_a7ef_9563],
        ),
    ] {
        check(kind.name(), want, || {
            Workload::with_scale(kind, THREADS, Scale::Small)
        });
    }
    check(
        "intruder-flow",
        [81626, 427, 0, 135, 1265, 58909, 490, 0x6c24_7411_ba35_bc86],
        || IntruderFlow::new(Scale::Small, THREADS),
    );
}
