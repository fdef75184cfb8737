//! DPOR pruning integration: the static independence table must only
//! ever *remove* schedules, never change a verdict — and where it
//! proves nothing, exploration must stay bit-identical to the unpruned
//! baseline (digest equality is the regression oracle).

use lockiller::SystemKind;
use tmstatic::VmAnalysis;
use tmverify::progs::ProgSpec;
use tmverify::Explorer;

fn explorer(system: SystemKind, prog: &str) -> Explorer {
    let spec = ProgSpec::parse(prog).expect("test specs are valid");
    let mut ex = Explorer::new(system, spec);
    ex.no_safety_net = true;
    ex
}

/// The independence table for `ex`'s own kernels and geometry — the
/// kernels every explored run executes.
fn table(ex: &Explorer) -> Option<lockiller::StaticIndependence> {
    VmAnalysis::new(ex.system, ex.config(), &ex.kernels()).independence()
}

fn with_table(ex: &Explorer) -> Explorer {
    let table = table(ex).expect("premises must hold for these kernels");
    let mut pruned = ex.clone();
    pruned.prune = Some(table);
    pruned
}

#[test]
fn empty_table_is_bit_identical() {
    // A default (empty) table refines nothing: every exploration count
    // and the order-sensitive digest must match the unpruned run.
    let base = explorer(SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0");
    let mut pruned = base.clone();
    pruned.prune = Some(lockiller::StaticIndependence::default());
    let (a, b) = (base.explore(), pruned.explore());
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.schedules, b.schedules);
    assert!(b.static_prune && !a.static_prune);
}

#[test]
fn ring_table_proves_nothing_and_stays_identical() {
    // Every ring thread aborts/parks, so the analysis marks no core
    // pure: the table is present but can never refine a pair.
    let base = explorer(SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0");
    let pruned = with_table(&base);
    assert_eq!(pruned.prune.as_ref().unwrap().pure, 0);
    let (a, b) = (base.explore(), pruned.explore());
    assert_eq!(a.digest, b.digest, "no pure cores => no behavior change");
    assert_eq!(a.schedules, b.schedules);
    assert!(a.is_clean() && a.complete());
}

#[test]
fn disjoint_htmlock_kernel_prunes_strictly_with_same_verdict() {
    // Three conflict-free threads on LockillerTm (HTMLock: no lock
    // subscription) are all pure with disjoint bank footprints, so
    // commit-class global events stop generating backtrack points.
    let base = explorer(SystemKind::LockillerTm, "3/c:L0,S0/c:L1,S1/c:L2,S2");
    let pruned = with_table(&base);
    assert_eq!(pruned.prune.as_ref().unwrap().pure, 0b111);
    let (a, b) = (base.explore(), pruned.explore());
    assert!(a.is_clean() && a.complete(), "{}", a.render());
    assert!(b.is_clean() && b.complete(), "{}", b.render());
    assert!(
        b.schedules < a.schedules,
        "static pruning must strictly reduce the disjoint kernel: {} !< {}",
        b.schedules,
        a.schedules
    );
}

#[test]
fn pruned_exploration_is_deterministic_across_jobs() {
    let mut pruned = with_table(&explorer(
        SystemKind::LockillerTm,
        "3/c:L0,S0/c:L1,S1/c:L2,S2",
    ));
    let a = pruned.explore();
    pruned.jobs = 4;
    let b = pruned.explore();
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.schedules, b.schedules);
}

#[test]
fn injection_disables_the_table() {
    // Fault injection voids the analysis premises; the explorer must
    // ignore the table and report the same space as the unpruned run.
    let mut base = explorer(SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0");
    base.inject.drop_wakeups = true;
    let mut pruned = base.clone();
    pruned.prune = Some(lockiller::StaticIndependence {
        bank_foot: vec![0b01, 0b10],
        pure: 0b11, // a deliberately wrong table: must not be consulted
    });
    let (a, b) = (base.explore(), pruned.explore());
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.schedules, b.schedules);
    assert!(!b.static_prune, "injection must disable static pruning");
    assert_eq!(a.is_clean(), b.is_clean());
}

#[test]
fn corpus_witnesses_unaffected_by_analysis_premises() {
    // Every corpus witness kernel still gets an analysis without
    // panicking, and witnesses replay regardless of what it computes
    // (replay never consults the table).
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../tmverify/tests/corpus");
    let mut seen = 0;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable witness");
        let w = tmobs::Witness::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let ex = Explorer::from_witness(&w).expect("witness reconstructs");
        let _ = table(&ex);
        assert!(
            ex.replay(&w.decisions)
                .iter()
                .any(|v| v.check.name() == w.violation_kind),
            "{} stopped reproducing",
            path.display()
        );
        seen += 1;
    }
    assert!(seen >= 3);
}

// ---------------------------------------------------------------------
// `Backend::Vm` pruning (the tmbench `dpor` setting): the same table
// must satisfy the same contract when the explorer starts its guests
// through `Program::guest_exec` — strict schedule reduction where purity
// is proven, bit-identical exploration where the table is vacuous, and
// no divergence between the two backends, which run the same kernel,
// with or without a table installed.
// ---------------------------------------------------------------------

#[test]
fn vm_backend_prunes_strictly_from_bytecode_table() {
    let mut base = explorer(SystemKind::LockillerTm, "3/c:L0,S0/c:L1,S1/c:L2,S2");
    base.backend = lockiller::Backend::Vm;
    let table = table(&base).expect("disjoint kernels prove the premises");
    assert_eq!(table.pure, 0b111);
    assert!(table.can_refine_any());
    let mut pruned = base.clone();
    pruned.prune = Some(table);
    let (a, b) = (base.explore(), pruned.explore());
    assert!(a.is_clean() && a.complete(), "{}", a.render());
    assert!(b.is_clean() && b.complete(), "{}", b.render());
    assert!(b.static_prune);
    assert!(
        b.schedules < a.schedules,
        "bytecode table must strictly reduce the vm-backend exploration: {} !< {}",
        b.schedules,
        a.schedules
    );
}

#[test]
fn vacuous_bytecode_table_keeps_vm_exploration_bit_identical() {
    // Ring kernels: every thread aborts/parks, so vmabs proves no core
    // pure — installing the table must not change a single run.
    let mut base = explorer(SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0");
    base.backend = lockiller::Backend::Vm;
    let table = table(&base).expect("ring premises hold");
    assert!(!table.can_refine_any(), "ring threads are impure");
    let mut pruned = base.clone();
    pruned.prune = Some(table);
    let (a, b) = (base.explore(), pruned.explore());
    assert_eq!(a.digest, b.digest, "vacuous table must be bit-identical");
    assert_eq!(a.schedules, b.schedules);
}

#[test]
fn backends_agree_on_digests_with_and_without_pruning() {
    // Both backends run the spec's compiled kernel, so the exploration
    // digests must agree backend-to-backend — pruned and unpruned alike,
    // with one table installed on both. The ring tables are vacuous, so
    // their pruned explorations also equal the unpruned one.
    for (prog, prunable) in [
        ("3/c:L0,S0/c:L1,S1/c:L2,S2", true),
        ("2/c:L0,S1/c:L1,S0", false),
        ("3/c:L0,S1/c:L1,S2/c:L2,S0", false),
    ] {
        let threads_ex = explorer(SystemKind::LockillerTm, prog);
        let mut vm_ex = threads_ex.clone();
        vm_ex.backend = lockiller::Backend::Vm;
        let (t, v) = (threads_ex.explore(), vm_ex.explore());
        assert_eq!(t.digest, v.digest, "{prog}: unpruned backends diverge");
        assert_eq!(t.schedules, v.schedules);

        let table = table(&vm_ex).expect("premises hold for these kernels");
        assert_eq!(table.can_refine_any(), prunable, "{prog}");
        let mut tp = threads_ex.clone();
        tp.prune = Some(table.clone());
        let mut vp = vm_ex.clone();
        vp.prune = Some(table);
        let (tp, vp) = (tp.explore(), vp.explore());
        assert_eq!(tp.digest, vp.digest, "{prog}: pruned backends diverge");
        assert_eq!(tp.schedules, vp.schedules);
        if !prunable {
            assert_eq!(tp.digest, t.digest, "{prog}: vacuous table changed the run");
            assert_eq!(tp.schedules, t.schedules);
        }
    }
}
