//! End-to-end exploration tests: full coverage of clean configs,
//! determinism across worker counts, and the three injected protocol
//! bugs — each must be caught and shrunk to a replayable witness.

use lockiller::SystemKind;
use sim_core::config::FaultInject;
use tmcheck::CheckKind;
use tmverify::progs::ProgSpec;
use tmverify::Explorer;

fn ring(system: SystemKind, cores: usize, lines: u64) -> Explorer {
    let mut ex = Explorer::new(system, ProgSpec::conflict_ring(cores, lines));
    ex.no_safety_net = true;
    ex
}

#[test]
fn clean_two_core_two_line_space_is_fully_covered() {
    let rep = ring(SystemKind::LockillerRwi, 2, 2).explore();
    assert!(
        rep.is_clean(),
        "clean config must verify clean:\n{}",
        rep.render()
    );
    assert!(
        rep.complete(),
        "bounded space must drain:\n{}",
        rep.render()
    );
    assert!(rep.schedules > 1, "tie-breaks must exist to explore");
    assert_eq!(rep.exit_code(), 0);
    assert!(rep.witness.is_none());
}

#[test]
fn exploration_is_deterministic_across_jobs_and_reruns() {
    let mut base = ring(SystemKind::LockillerTm, 3, 2);
    let a = base.explore();
    let b = base.explore();
    base.jobs = 4;
    let c = base.explore();
    for (label, rep) in [("rerun", &b), ("jobs=4", &c)] {
        assert_eq!(a.digest, rep.digest, "{label} digest diverged");
        assert_eq!(a.schedules, rep.schedules, "{label}");
        assert_eq!(a.pruned_sleep, rep.pruned_sleep, "{label}");
        assert_eq!(a.pruned_dedup, rep.pruned_dedup, "{label}");
        assert_eq!(a.redundant, rep.redundant, "{label}");
        assert_eq!(a.max_depth, rep.max_depth, "{label}");
    }
    assert!(a.complete() && a.is_clean(), "{}", a.render());
}

#[test]
fn state_dedup_only_prunes_never_changes_the_verdict() {
    let mut ex = ring(SystemKind::LockillerRwi, 2, 2);
    let with = ex.explore();
    ex.state_dedup = false;
    let without = ex.explore();
    assert_eq!(with.is_clean(), without.is_clean());
    assert_eq!(without.pruned_dedup, 0);
    assert!(
        without.schedules >= with.schedules,
        "dedup must not add schedules: {} < {}",
        without.schedules,
        with.schedules
    );
}

/// Re-run a witness end-to-end the way `tmverify replay` does.
fn reproduces(w: &tmobs::Witness) -> bool {
    let ex = Explorer::from_witness(w).expect("witness must reconstruct");
    ex.replay(&w.decisions)
        .iter()
        .any(|v| v.check.name() == w.violation_kind)
}

#[test]
fn injected_dropped_wakeup_is_caught_with_minimal_witness() {
    let mut ex = ring(SystemKind::LockillerRwi, 2, 2);
    ex.inject = FaultInject {
        drop_wakeups: true,
        ..FaultInject::default()
    };
    let rep = ex.explore();
    assert_eq!(rep.exit_code(), 1, "{}", rep.render());
    assert!(
        rep.space
            .per_kind
            .iter()
            .any(|(k, _)| matches!(k, CheckKind::Liveness | CheckKind::Deadlock)),
        "a dropped wake-up must surface as liveness or deadlock:\n{}",
        rep.render()
    );
    let w = rep.witness.expect("violation must produce a witness");
    assert!(
        reproduces(&w),
        "shrunk witness must replay:\n{}",
        w.render()
    );
    // ddmin must not leave trailing default decisions around.
    assert_ne!(w.decisions.last(), Some(&0));
}

#[test]
fn injected_double_grant_is_caught_with_minimal_witness() {
    // Two transactions with three distinct lines each overflow the tiny
    // (2-line) L1, forcing STL switch requests; the rogue arbiter then
    // grants both.
    let spec = ProgSpec::parse("6/c:L0,L1,L2,S0/c:L3,L4,L5,S3").unwrap();
    let mut ex = Explorer::new(SystemKind::LockillerTm, spec);
    ex.no_safety_net = true;
    ex.tiny_l1 = true;
    ex.inject = FaultInject {
        double_grant: true,
        ..FaultInject::default()
    };
    let rep = ex.explore();
    assert_eq!(rep.exit_code(), 1, "{}", rep.render());
    assert!(
        rep.space
            .per_kind
            .iter()
            .any(|(k, _)| *k == CheckKind::GrantExclusivity),
        "the arbiter bug must trip grant exclusivity:\n{}",
        rep.render()
    );
    let w = rep.witness.expect("violation must produce a witness");
    assert!(
        reproduces(&w),
        "shrunk witness must replay:\n{}",
        w.render()
    );
}

#[test]
fn injected_priority_decay_is_caught_with_minimal_witness() {
    // Two reads per transaction so the decayed priority is re-observed
    // within one attempt.
    let spec = ProgSpec::parse("2/c:L0,L1,S0/c:L0,L1,S1").unwrap();
    let mut ex = Explorer::new(SystemKind::LockillerRwi, spec);
    ex.no_safety_net = true;
    ex.inject = FaultInject {
        prio_decay: true,
        ..FaultInject::default()
    };
    let rep = ex.explore();
    assert_eq!(rep.exit_code(), 1, "{}", rep.render());
    assert!(
        rep.space
            .per_kind
            .iter()
            .any(|(k, _)| *k == CheckKind::Priority),
        "decaying priorities must trip the priority invariant:\n{}",
        rep.render()
    );
    let w = rep.witness.expect("violation must produce a witness");
    assert!(
        reproduces(&w),
        "shrunk witness must replay:\n{}",
        w.render()
    );
}

#[test]
fn regression_corpus_still_reproduces() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut seen = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable witness");
        let w = tmobs::Witness::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            reproduces(&w),
            "{} no longer reproduces:\n{}",
            path.display(),
            w.render()
        );
        seen += 1;
    }
    assert!(seen >= 3, "corpus must cover the three injected bugs");
}

#[test]
fn random_specs_verify_clean_on_uninjected_systems() {
    let mut rng = proptest::Rng::new(0x7e57);
    for i in 0..4 {
        let spec = ProgSpec::random(&mut rng, 2, 3);
        let mut ex = Explorer::new(SystemKind::LockillerRwi, spec.clone());
        ex.no_safety_net = true;
        ex.max_schedules = 400;
        let rep = ex.explore();
        assert!(
            rep.is_clean(),
            "random spec #{i} {} found a violation on a clean system:\n{}",
            spec.render(),
            rep.render()
        );
    }
}

/// The engine's host-side scope profiler (`Runner::profile`) reads only
/// the host clock: turning it on for every run of an exploration must
/// not move the decision digest or any coverage counter. The per-run
/// profiles merge into one tree whose self times still partition its
/// total exactly.
#[test]
fn host_profiling_never_moves_an_exploration_digest() {
    let mut ex = ring(SystemKind::LockillerTm, 3, 2);
    let plain = ex.explore();
    ex.profile = true;
    let profiled = ex.explore();
    assert!(plain.profile.is_none());
    let prof = profiled.profile.as_ref().expect("profiled runs merge");
    let self_sum: u64 = prof.nodes.iter().map(|n| n.self_ns).sum();
    assert_eq!(
        self_sum, prof.total_ns,
        "merged self times partition the total"
    );
    assert_eq!(
        prof.node("run").map(|n| n.calls),
        Some(profiled.schedules),
        "one root entry per merged run"
    );
    assert!(prof.node("run;dequeue;sched_pick").is_some());
    assert_eq!(plain.to_json(), profiled.to_json());
    assert_eq!(plain.digest, profiled.digest, "profiling moved the digest");
    assert_eq!(plain.schedules, profiled.schedules);
    assert_eq!(plain.pruned_sleep, profiled.pruned_sleep);
    assert_eq!(plain.pruned_dedup, profiled.pruned_dedup);
    assert_eq!(plain.redundant, profiled.redundant);
    assert_eq!(plain.max_depth, profiled.max_depth);
    assert_eq!(plain.is_clean(), profiled.is_clean());
}
