//! Exploration-budget accounting for the `tmverify` model checker.
//!
//! `experiments verify` runs a fixed battery of small configurations
//! through exhaustive schedule exploration and writes the budget
//! statistics (schedules executed, reduction effectiveness, wall
//! clock) to `BENCH_verify.json`, the same convention as
//! `BENCH_lab.json` / `BENCH_forensics.json`: a regression in these
//! numbers means the state space or the pruning changed.
//!
//! Each row also records `pruned_schedules` / `pruned_digest`: the
//! result of a second exploration with the `tmstatic` independence
//! table installed (the table comes from the bytecode abstract
//! interpreter over the explorer's own compiled kernels) —
//! equal to the baseline when the premises don't hold. The battery
//! asserts:
//!
//! - the pruned run reproduces the baseline verdict and never adds
//!   schedules, strictly reducing them on both `disjoint-3c3l-tm` rows;
//! - a *vacuous* table (`prunable: false` — premises hold but no core
//!   is pure) leaves the exploration **byte-identical** (digest
//!   equality), the no-behavior-change half of the pruning contract;
//! - rows differing only in backend (`ring-3c3l-tm` vs its `-vm` twin)
//!   produce identical digests — both backends run the spec's compiled
//!   kernel, so the explored spaces must match run-for-run.

use lockiller::{Backend, SystemKind};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use tmverify::progs::ProgSpec;
use tmverify::Explorer;

struct Entry {
    name: &'static str,
    system: SystemKind,
    prog: &'static str,
    backend: Backend,
    inject_drop_wakeups: bool,
    expect_clean: bool,
}

const SUITE: &[Entry] = &[
    Entry {
        name: "ring-2c2l-rwi",
        system: SystemKind::LockillerRwi,
        prog: "2/c:L0,S1/c:L1,S0",
        backend: Backend::Threads,
        inject_drop_wakeups: false,
        expect_clean: true,
    },
    Entry {
        name: "ring-3c3l-rwi",
        system: SystemKind::LockillerRwi,
        prog: "3/c:L0,S1/c:L1,S2/c:L2,S0",
        backend: Backend::Threads,
        inject_drop_wakeups: false,
        expect_clean: true,
    },
    Entry {
        name: "ring-3c3l-tm",
        system: SystemKind::LockillerTm,
        prog: "3/c:L0,S1/c:L1,S2/c:L2,S0",
        backend: Backend::Threads,
        inject_drop_wakeups: false,
        expect_clean: true,
    },
    Entry {
        name: "ring-3c3l-tm-vm",
        system: SystemKind::LockillerTm,
        prog: "3/c:L0,S1/c:L1,S2/c:L2,S0",
        backend: Backend::Vm,
        inject_drop_wakeups: false,
        expect_clean: true,
    },
    Entry {
        name: "ring-4c2l-rwi",
        system: SystemKind::LockillerRwi,
        prog: "2/c:L0,S1/c:L1,S0/c:L0,S1/c:L1,S0",
        backend: Backend::Threads,
        inject_drop_wakeups: false,
        expect_clean: true,
    },
    Entry {
        name: "disjoint-3c3l-tm",
        system: SystemKind::LockillerTm,
        prog: "3/c:L0,S0/c:L1,S1/c:L2,S2",
        backend: Backend::Threads,
        inject_drop_wakeups: false,
        expect_clean: true,
    },
    Entry {
        name: "disjoint-3c3l-tm-vm",
        system: SystemKind::LockillerTm,
        prog: "3/c:L0,S0/c:L1,S1/c:L2,S2",
        backend: Backend::Vm,
        inject_drop_wakeups: false,
        expect_clean: true,
    },
    Entry {
        name: "detector-drop-wakeups",
        system: SystemKind::LockillerRwi,
        prog: "2/c:L0,S1/c:L1,S0",
        backend: Backend::Threads,
        inject_drop_wakeups: true,
        expect_clean: false,
    },
];

/// Run the battery and write `BENCH_verify.json`; panics if a config's
/// verdict flips (a clean config finding a violation, or the detector
/// row going blind) or any pruning-contract assert fails.
pub fn run(quick: bool, jobs: usize, path: &Path) -> std::io::Result<()> {
    let mut rows = Vec::new();
    // Digest of the first row seen per (system, prog, inject) triple:
    // backend twins must match it exactly.
    let mut twin_digest: HashMap<(&str, &str, bool), (&str, u64)> = HashMap::new();
    for e in SUITE {
        if quick && e.name.starts_with("ring-4c") {
            continue;
        }
        let spec = ProgSpec::parse(e.prog).expect("suite specs are valid");
        let mut ex = Explorer::new(e.system, spec);
        ex.no_safety_net = true;
        ex.jobs = jobs.max(1);
        ex.inject.drop_wakeups = e.inject_drop_wakeups;
        ex.backend = e.backend;
        let start = std::time::Instant::now();
        let rep = ex.explore();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(
            rep.is_clean(),
            e.expect_clean,
            "{}: verdict flipped:\n{}",
            e.name,
            rep.render()
        );
        assert!(rep.complete(), "{}: space no longer drains", e.name);
        let key = (e.system.name(), e.prog, e.inject_drop_wakeups);
        match twin_digest.get(&key) {
            Some(&(twin, digest)) => assert_eq!(
                rep.digest, digest,
                "{}: exploration digest diverges from backend twin {twin}",
                e.name
            ),
            None => {
                twin_digest.insert(key, (e.name, rep.digest));
            }
        }

        // Re-explore with the independence table of the explorer's own
        // kernels, which every explored run executes.
        let table = tmstatic::VmAnalysis::new(e.system, ex.config(), &ex.kernels()).independence();
        let prunable = table
            .as_ref()
            .is_some_and(lockiller::StaticIndependence::can_refine_any);
        let (pruned_schedules, pruned_digest) = match table {
            Some(table) => {
                let vacuous = !table.can_refine_any();
                let mut pruned = ex.clone();
                pruned.prune = Some(table);
                let prep = pruned.explore();
                assert_eq!(
                    prep.is_clean(),
                    rep.is_clean(),
                    "{}: static pruning flipped the verdict:\n{}",
                    e.name,
                    prep.render()
                );
                assert!(prep.complete(), "{}: pruned space no longer drains", e.name);
                assert!(
                    prep.schedules <= rep.schedules,
                    "{}: pruning added schedules ({} > {})",
                    e.name,
                    prep.schedules,
                    rep.schedules
                );
                if vacuous {
                    assert_eq!(
                        prep.digest, rep.digest,
                        "{}: a vacuous table must leave exploration byte-identical",
                        e.name
                    );
                }
                (prep.schedules, prep.digest)
            }
            None => (rep.schedules, rep.digest),
        };
        if e.name.starts_with("disjoint-3c3l-tm") {
            assert!(
                pruned_schedules < rep.schedules,
                "{}: static pruning must be strict here ({} !< {})",
                e.name,
                pruned_schedules,
                rep.schedules
            );
        }
        eprintln!(
            "[verify {}: {} schedule(s) ({} pruned), {} sleep-pruned, {} deduped, {:.0} ms]",
            e.name, rep.schedules, pruned_schedules, rep.pruned_sleep, rep.pruned_dedup, wall_ms
        );
        rows.push(format!(
            "  {{\"name\": \"{}\", \"system\": \"{}\", \"prog\": \"{}\", \
             \"backend\": \"{}\", \"wall_ms\": {:.3}, \"pruned_schedules\": {}, \
             \"pruned_digest\": \"{:016x}\", \"prunable\": {}, \"report\": {}}}",
            e.name,
            e.system.name(),
            e.prog,
            e.backend.name(),
            wall_ms,
            pruned_schedules,
            pruned_digest,
            prunable,
            rep.to_json()
        ));
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{\"verify\": [\n{}\n]}}", rows.join(",\n"))?;
    eprintln!("[verification budget report in {}]", path.display());
    Ok(())
}
