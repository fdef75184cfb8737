//! The spin lane against all-real events. An unscheduled, unchecked run
//! keeps spinners' L1-hit iterations off the event queue (the engine's
//! spin lane); a run under a scheduler dispatches every event through the
//! queue. A FIFO scheduler picks what the queue would pop, so the two
//! runs of a point must agree exactly: statistics (cycles, phase times,
//! event counts, queue peak, every counter) and final memory.

use lockiller::runner::{RunOutput, Runner};
use lockiller::sched::{EvDesc, Scheduler};
use lockiller::system::SystemKind;
use sim_core::config::SystemConfig;
use sim_core::types::Cycle;
use stamp::{Scale, Workload, WorkloadKind};

/// Always the earliest-scheduled front event: the queue's own order.
struct Fifo;

impl Scheduler for Fifo {
    fn pick(&mut self, _at: Cycle, _options: &[EvDesc], _state_fp: &dyn Fn() -> u64) -> usize {
        0
    }
}

/// Small scale on optimized builds; debug builds (which also assert
/// that a spinner's L1 never changes while it is on the lane) run the
/// same points at Tiny scale.
const SCALE: Scale = if cfg!(debug_assertions) {
    Scale::Tiny
} else {
    Scale::Small
};

fn run(system: SystemKind, workload: WorkloadKind, threads: usize, fifo: bool) -> RunOutput {
    let mut prog = Workload::with_scale(workload, threads, SCALE);
    let runner = Runner::new(system)
        .threads(threads)
        .config(SystemConfig::table1());
    if fifo {
        runner.run_scheduled(&mut prog, &mut Fifo)
    } else {
        runner.run(&mut prog)
    }
}

/// Intruder, kmeans+ and labyrinth at 8 and 32 threads on `system`.
fn lane_runs_equal_fifo_scheduled_runs(system: SystemKind) {
    for workload in [
        WorkloadKind::Intruder,
        WorkloadKind::KmeansHigh,
        WorkloadKind::Labyrinth,
    ] {
        for threads in [8, 32] {
            let lane = run(system, workload, threads, false);
            let real = run(system, workload, threads, true);
            let point = format!("{}/{}/{threads}t", system.name(), workload.name());
            assert_eq!(lane.stats.to_json(), real.stats.to_json(), "{point}");
            assert_eq!(lane.mem.digest(), real.mem.digest(), "{point}");
        }
    }
}

#[test]
fn cgl_lane_runs_equal_fifo_scheduled_runs() {
    lane_runs_equal_fifo_scheduled_runs(SystemKind::Cgl);
}

#[test]
fn baseline_lane_runs_equal_fifo_scheduled_runs() {
    lane_runs_equal_fifo_scheduled_runs(SystemKind::Baseline);
}

#[test]
fn lockillertm_lane_runs_equal_fifo_scheduled_runs() {
    lane_runs_equal_fifo_scheduled_runs(SystemKind::LockillerTm);
}
