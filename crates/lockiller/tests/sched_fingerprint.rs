//! The state fingerprint a scheduler may take at a pick point is a pure
//! read: a run whose scheduler hashes the state at every pick produces
//! the same statistics, trace and memory as one whose scheduler never
//! does, so the engine can hand the hash over lazily.

use lockiller::runner::Runner;
use lockiller::sched::{EvDesc, Scheduler};
use lockiller::{Backend, RunOutput, SystemKind};
use sim_core::config::SystemConfig;
use sim_core::types::Cycle;
use stamp::{Scale, Workload, WorkloadKind};

/// Rotates through the candidates (pick `n mod len` at the `n`-th front),
/// so the schedule differs from FIFO, and optionally takes the state
/// fingerprint at every pick.
struct Rotate {
    read_fp: bool,
    picks: usize,
    fps: Vec<u64>,
}

impl Scheduler for Rotate {
    fn pick(&mut self, _at: Cycle, options: &[EvDesc], state_fp: &dyn Fn() -> u64) -> usize {
        if self.read_fp {
            self.fps.push(state_fp());
        }
        self.picks += 1;
        self.picks % options.len()
    }
}

/// kmeans+ at tiny scale on 4 cores, run as its compiled kernel.
fn run(read_fp: bool) -> (RunOutput, Rotate) {
    let mut sched = Rotate {
        read_fp,
        picks: 0,
        fps: Vec::new(),
    };
    let mut prog = Workload::with_scale(WorkloadKind::KmeansHigh, 4, Scale::Tiny);
    let out = Runner::new(SystemKind::LockillerTm)
        .threads(4)
        .config(SystemConfig::testing(4))
        .backend(Backend::Vm)
        .tracing()
        .run_scheduled(&mut prog, &mut sched);
    (out, sched)
}

#[test]
fn reading_the_fingerprint_has_no_side_effects() {
    let (lazy, never) = run(false);
    let (eager, every) = run(true);
    assert!(lazy.end.is_done() && eager.end.is_done());
    assert!(never.fps.is_empty());
    assert!(
        every.picks > 0,
        "the kernel must reach multi-candidate fronts"
    );
    assert_eq!(every.picks, never.picks, "same fronts in both runs");
    assert_eq!(every.fps.len(), every.picks, "one hash per pick");
    assert!(
        every.fps.windows(2).any(|w| w[0] != w[1]),
        "the fingerprint tracks the state"
    );
    assert_eq!(eager.stats.to_json(), lazy.stats.to_json());
    assert_eq!(eager.trace_events(), lazy.trace_events());
    assert_eq!(eager.mem.digest(), lazy.mem.digest());
}
