//! Cross-crate integration tests asserting the paper's *qualitative*
//! claims hold on the reproduction, at reduced scale: each test maps to a
//! section of the evaluation (§IV-B) and checks the direction of an
//! effect, not absolute numbers.

use lockillertm::lockiller::{Runner, SystemKind};
use lockillertm::sim_core::config::SystemConfig;
use lockillertm::sim_core::stats::AbortCause;
use lockillertm::stamp::{Scale, Workload, WorkloadKind};

fn run(
    kind: SystemKind,
    w: WorkloadKind,
    threads: usize,
) -> lockillertm::sim_core::stats::RunStats {
    let mut prog = Workload::with_scale(w, threads, Scale::Tiny);
    Runner::new(kind)
        .threads(threads)
        .config(SystemConfig::testing(threads.max(2)))
        .run(&mut prog)
        .into_stats()
}

/// §IV-B(a): recovery + insts-based priority raises the commit rate
/// versus requester-win across the contended workloads (Fig. 8).
#[test]
fn recovery_raises_commit_rate() {
    let mut base_sum = 0.0;
    let mut rwi_sum = 0.0;
    let mut n = 0.0;
    for w in [
        WorkloadKind::Intruder,
        WorkloadKind::KmeansHigh,
        WorkloadKind::VacationHigh,
    ] {
        base_sum += run(SystemKind::Baseline, w, 4).commit_rate();
        rwi_sum += run(SystemKind::LockillerRwi, w, 4).commit_rate();
        n += 1.0;
    }
    assert!(
        rwi_sum / n >= base_sum / n,
        "recovery must not lower the average commit rate ({:.3} vs {:.3})",
        rwi_sum / n,
        base_sum / n
    );
}

/// §IV-B(b): the HTMLock mechanism eliminates `mutex` aborts entirely
/// (Fig. 10: "the HTMLock mechanism eliminates transaction aborts due to
/// mutex").
#[test]
fn htmlock_eliminates_mutex_aborts() {
    for w in [WorkloadKind::Yada, WorkloadKind::VacationHigh] {
        let rwil = run(SystemKind::LockillerRwil, w, 2);
        let full = run(SystemKind::LockillerTm, w, 2);
        assert_eq!(
            rwil.abort_count(AbortCause::Mutex),
            0,
            "{}: RWIL saw mutex aborts",
            w.name()
        );
        assert_eq!(
            full.abort_count(AbortCause::Mutex),
            0,
            "{}: full saw mutex aborts",
            w.name()
        );
    }
}

/// §IV-B(c): switchingMode reduces capacity (`of`) aborts when the L1 is
/// small (Fig. 10: "the switchingMode mechanism significantly reduces
/// aborts due to cache overflow").
#[test]
fn switching_mode_reduces_of_aborts() {
    let mut cfg = SystemConfig::testing(2);
    cfg.mem.l1 = lockillertm::sim_core::config::CacheGeometry { sets: 4, ways: 2 };
    let run_small = |kind: SystemKind| {
        let mut prog = Workload::with_scale(WorkloadKind::Labyrinth, 2, Scale::Tiny);
        Runner::new(kind)
            .threads(2)
            .config(cfg.clone())
            .run(&mut prog)
            .into_stats()
    };
    let rwil = run_small(SystemKind::LockillerRwil);
    let full = run_small(SystemKind::LockillerTm);
    assert!(
        full.abort_count(AbortCause::Of) <= rwil.abort_count(AbortCause::Of),
        "switchingMode must not increase of aborts ({} vs {})",
        full.abort_count(AbortCause::Of),
        rwil.abort_count(AbortCause::Of)
    );
    assert!(full.switches_granted > 0, "switchingMode never engaged");
}

/// §III-C: switchingMode does NOT rescue exception (fault) aborts — the
/// paper explicitly chooses not to support switching on exceptions.
#[test]
fn switching_mode_does_not_cover_faults() {
    let s = run(SystemKind::LockillerTm, WorkloadKind::Yada, 2);
    assert!(s.abort_count(AbortCause::Fault) > 0, "yada must fault");
}

/// Every Table-II system produces a valid (serializable) result on every
/// workload: the per-workload `validate` oracle passes, which `run`
/// enforces by panicking otherwise.
#[test]
fn all_systems_all_workloads_serializable() {
    for w in WorkloadKind::ALL {
        for kind in SystemKind::ALL {
            run(kind, w, 2);
        }
    }
}

/// Determinism across the full stack: same seed, same system, same
/// workload => byte-identical statistics.
#[test]
fn full_stack_determinism() {
    for kind in [SystemKind::Baseline, SystemKind::LockillerTm] {
        let a = run(kind, WorkloadKind::Intruder, 4);
        let b = run(kind, WorkloadKind::Intruder, 4);
        assert_eq!(a.cycles, b.cycles, "{}: cycles diverged", kind.name());
        assert_eq!(a.commits, b.commits);
        assert_eq!(a.aborts, b.aborts);
        assert_eq!(a.rejects, b.rejects);
        assert_eq!(a.messages, b.messages);
    }
}

/// No wake-up is ever lost: the safety-net timeout never fires in any
/// recovery configuration.
#[test]
fn no_wakeup_timeouts_anywhere() {
    for w in [
        WorkloadKind::KmeansHigh,
        WorkloadKind::Intruder,
        WorkloadKind::VacationHigh,
    ] {
        for kind in [
            SystemKind::LosaTmSafu,
            SystemKind::LockillerRwi,
            SystemKind::LockillerRwil,
            SystemKind::LockillerTm,
        ] {
            let s = run(kind, w, 4);
            assert_eq!(
                s.wakeup_timeouts,
                0,
                "{} / {}: lost wake-up",
                kind.name(),
                w.name()
            );
        }
    }
}

/// The full system must beat the baseline on high-contention workloads
/// at high thread counts (the paper's bottom line, Fig. 12 direction).
#[test]
fn lockillertm_beats_baseline_under_contention() {
    let mut full = 0u64;
    let mut base = 0u64;
    for w in [
        WorkloadKind::KmeansHigh,
        WorkloadKind::VacationHigh,
        WorkloadKind::Yada,
    ] {
        full += run(SystemKind::LockillerTm, w, 4).cycles;
        base += run(SystemKind::Baseline, w, 4).cycles;
    }
    assert!(
        full < base,
        "LockillerTM ({full} cycles) must beat Baseline ({base} cycles) on contended workloads"
    );
}

/// DESIGN.md §8 contention-class table: the ports must land in their
/// documented classes — labyrinth has the biggest write sets, ssca2 and
/// kmeans the smallest transactions.
#[test]
fn workload_characterization_classes() {
    let measure = |w: WorkloadKind| {
        let mut prog = Workload::with_scale(w, 4, Scale::Small);
        Runner::new(SystemKind::Baseline)
            .threads(4)
            .config(SystemConfig::testing(4))
            .run(&mut prog)
            .into_stats()
    };
    let lab = measure(WorkloadKind::Labyrinth);
    let km = measure(WorkloadKind::KmeansHigh);
    let ss = measure(WorkloadKind::Ssca2);
    let vac = measure(WorkloadKind::VacationHigh);

    assert!(
        lab.avg_write_set() > vac.avg_write_set(),
        "labyrinth writes whole paths ({:.1} lines) and must out-write vacation ({:.1})",
        lab.avg_write_set(),
        vac.avg_write_set()
    );
    assert!(
        lab.avg_tx_len() > ss.avg_tx_len(),
        "labyrinth txs ({:.0} cycles) must dwarf ssca2's ({:.0})",
        lab.avg_tx_len(),
        ss.avg_tx_len()
    );
    assert!(
        km.avg_write_set() <= 3.0,
        "kmeans accumulator txs must stay tiny ({:.1} lines)",
        km.avg_write_set()
    );
    assert!(
        vac.avg_read_set() > km.avg_read_set(),
        "vacation's tree lookups ({:.1} lines) must out-read kmeans ({:.1})",
        vac.avg_read_set(),
        km.avg_read_set()
    );
}
