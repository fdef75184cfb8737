//! Golden-file test pinning whole explorations, count for count.
//!
//! `tests/golden/explore_corpus.jsonl` holds, for a fixed corpus of
//! explorations, each `ExploreReport::to_json()` line (schedules,
//! sleep/dedup pruning, frontier peak, per-kind verdicts, decision
//! digest) and, for a violating run, its shrunk witness. State
//! deduplication is keyed on `Engine::state_fingerprint` and the sleep
//! sets on `Engine::event_id`, so any change to which states or events
//! those hashes tell apart moves `pruned_dedup`, the digest or a
//! witness here. The corpus covers the tmbench `dpor` cases (at a
//! reduced budget), the conflict rings on all five system families, the
//! tiny-L1, retry-budget and no-dedup variants, every fault-injection
//! detector and a spread of fixed-seed random specs.
//!
//! To bless a deliberate change, regenerate with:
//!
//! ```text
//! TMVERIFY_BLESS=1 cargo test -p tmverify --test explore_golden
//! ```

use lockiller::{Backend, SystemKind};
use tmverify::dpor::inject_by_name;
use tmverify::progs::ProgSpec;
use tmverify::Explorer;

const GOLDEN: &str = "tests/golden/explore_corpus.jsonl";

/// Schedule budget for the tmbench `dpor` cases (the full spaces take
/// thousands of runs).
const DPOR_SCHEDULES: u64 = 60;

const SYSTEMS: [SystemKind; 5] = [
    SystemKind::Cgl,
    SystemKind::Baseline,
    SystemKind::LockillerRwil,
    SystemKind::LockillerRwi,
    SystemKind::LockillerTm,
];

fn explorer(system: SystemKind, prog: &str) -> Explorer {
    let mut ex = Explorer::new(system, ProgSpec::parse(prog).expect("corpus specs parse"));
    ex.no_safety_net = true;
    ex
}

/// The tmbench `dpor` cases: VM backend, one job, no safety net.
fn dpor_case(system: SystemKind, prog: &str, max: u64, pruned: bool) -> Explorer {
    let mut ex = explorer(system, prog);
    ex.backend = Backend::Vm;
    ex.max_schedules = max;
    if pruned {
        ex.prune = tmstatic::VmAnalysis::new(system, ex.config(), &ex.kernels()).independence();
        assert!(ex.prune.is_some(), "the disjoint kernel is prunable");
    }
    ex
}

fn corpus() -> Vec<(String, Explorer)> {
    let mut cases = Vec::new();
    let mut add = |name: String, ex: Explorer| cases.push((name, ex));
    let ring2 = "2/c:L0,S1/c:L1,S0";
    let ring4 = "2/c:L0,S1/c:L1,S0/c:L0,S1/c:L1,S0";
    let overflow = "6/c:L0,L1,L2,S0/c:L3,L4,L5,S3";
    let disjoint = "3/c:L0,S0/c:L1,S1/c:L2,S2";
    let ring44 = ProgSpec::conflict_ring(4, 4).render();
    add(
        "dpor/ring-4c2l-rwi".into(),
        dpor_case(SystemKind::LockillerRwi, ring4, DPOR_SCHEDULES, false),
    );
    add(
        "dpor/conflict-ring-4x4-tm".into(),
        dpor_case(SystemKind::LockillerTm, &ring44, DPOR_SCHEDULES, false),
    );
    add(
        "dpor/disjoint-3c3l-tm".into(),
        dpor_case(SystemKind::LockillerTm, disjoint, DPOR_SCHEDULES, false),
    );
    add(
        "dpor/disjoint-3c3l-tm-pruned".into(),
        dpor_case(SystemKind::LockillerTm, disjoint, DPOR_SCHEDULES, true),
    );
    for system in SYSTEMS {
        for (cores, lines) in [(2, 2), (3, 3)] {
            let prog = ProgSpec::conflict_ring(cores, lines).render();
            let mut ex = explorer(system, &prog);
            ex.max_schedules = 80;
            add(format!("ring-{cores}c{lines}l/{}", system.name()), ex);
        }
    }
    for system in [SystemKind::LockillerRwil, SystemKind::LockillerTm] {
        let mut ex = explorer(system, overflow);
        ex.tiny_l1 = true;
        ex.max_schedules = 80;
        add(format!("tiny-l1/{}", system.name()), ex);
    }
    for retries in [None, Some(0), Some(1)] {
        let mut ex = explorer(SystemKind::LockillerTm, "3/c:L0,S1/c:L1,S2/c:L2,S0");
        ex.retries = retries;
        ex.max_schedules = 80;
        add(format!("retries-{retries:?}/LockillerTM"), ex);
    }
    let mut ex = explorer(SystemKind::LockillerRwi, ring2);
    ex.state_dedup = false;
    add("no-dedup/ring-2c2l".into(), ex);
    // Every fault-injection knob: the three bugs explore.rs asserts are
    // caught, plus the lost update and the second exclusive copy.
    let detectors = [
        ("drop-wakeups", SystemKind::LockillerRwi, ring2),
        ("double-grant", SystemKind::LockillerTm, overflow),
        (
            "prio-decay",
            SystemKind::LockillerRwi,
            "2/c:L0,L1,S0/c:L0,L1,S1",
        ),
        ("ignore-conflicts", SystemKind::LockillerRwi, ring2),
        ("drop-nack", SystemKind::LockillerRwi, ring2),
    ];
    for (fault, system, prog) in detectors {
        let mut ex = explorer(system, prog);
        // The rogue arbiter needs STL switches: a 2-line L1 forces them.
        ex.tiny_l1 = fault == "double-grant";
        ex.max_schedules = 200;
        assert!(inject_by_name(&mut ex.inject, fault));
        add(format!("detector/{fault}"), ex);
    }
    let mut rng = proptest::Rng::new(0x601d);
    for i in 0..10 {
        let threads = 2 + i % 2;
        let system = SYSTEMS[i % SYSTEMS.len()];
        let spec = ProgSpec::random(&mut rng, threads, 3);
        let mut ex = explorer(system, &spec.render());
        ex.max_schedules = 40;
        if i % 3 == 0 {
            ex.backend = Backend::Vm;
        }
        add(format!("random-{i}/{}", system.name()), ex);
    }
    cases
}

/// One `# name prog` header, the report's JSON line and, when the run
/// found a violation, its shrunk witness.
fn record(name: &str, ex: &Explorer) -> String {
    let rep = ex.explore();
    let mut out = format!("# {name} {}\n{}\n", ex.spec.render(), rep.to_json());
    if let Some(w) = &rep.witness {
        out.push_str(&format!(
            "witness {} {:?} {}\n",
            w.violation_kind, w.decisions, w.violation_message
        ));
    }
    out
}

#[test]
fn explorations_match_the_recorded_corpus() {
    let got: String = corpus().iter().map(|(n, ex)| record(n, ex)).collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    if std::env::var_os("TMVERIFY_BLESS").is_some() {
        std::fs::write(&path, &got).expect("golden is writable");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{GOLDEN}:{} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{GOLDEN}: line count"
    );
}
