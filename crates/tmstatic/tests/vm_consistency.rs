//! Spec mode is exact: for every `ProgSpec`, the analysis of
//! `SpecProgram::compile_all` must see *exactly* the spec's own line
//! sets — footprints per thread and per critical segment, pushed through
//! the arena layout (`data_line`) — with nothing widened, so every
//! verdict, pruning table and spec-mode diagnostic is as precise as the
//! spec itself. The compiler is a straight-line translator; a divergence
//! names the spec, thread, and set so the offending translation is
//! immediately identifiable.

use lockiller::SystemKind;
use sim_core::types::LineAddr;
use std::collections::BTreeSet;
use tmstatic::vmabs::AbsLines;
use tmstatic::{lint, VmAnalysis};
use tmverify::progs::{Op, ProgSpec, Segment, SpecProgram};
use tmverify::Explorer;

/// Physical lines of the spec lines a group of segments loads or stores.
fn phys<'a>(segs: impl Iterator<Item = &'a Segment>, store: bool) -> BTreeSet<LineAddr> {
    segs.flat_map(|s| &s.ops)
        .filter_map(|op| match *op {
            Op::Load(l) if !store => Some(SpecProgram::data_line(l)),
            Op::Store(l) if store => Some(SpecProgram::data_line(l)),
            _ => None,
        })
        .collect()
}

fn exact<'a>(label: &str, name: &str, set: &'a AbsLines) -> &'a BTreeSet<LineAddr> {
    set.lines()
        .unwrap_or_else(|| panic!("{label}: {name} widened on a straight-line kernel"))
}

/// Assert the analysis of `spec`'s compiled kernels is exact under
/// `system`.
fn assert_consistent(system: SystemKind, spec: &ProgSpec, tiny_l1: bool) {
    let mut ex = Explorer::new(system, spec.clone());
    ex.tiny_l1 = tiny_l1;
    let a = VmAnalysis::of_spec(system, spec, ex.config());
    let label = format!("{} on {}", spec.render(), system.name());

    assert_eq!(spec.threads.len(), a.threads.len(), "{label}: thread count");
    for (t, (segs, vt)) in spec.threads.iter().zip(&a.threads).enumerate() {
        let crit = || segs.iter().filter(|s| s.critical);
        let plain = || segs.iter().filter(|s| !s.critical);
        for (name, want, got) in [
            ("crit_reads", phys(crit(), false), &vt.abs.crit_reads),
            ("crit_writes", phys(crit(), true), &vt.abs.crit_writes),
            ("plain_reads", phys(plain(), false), &vt.abs.plain_reads),
            ("plain_writes", phys(plain(), true), &vt.abs.plain_writes),
        ] {
            assert_eq!(
                &want,
                exact(&label, name, got),
                "{label}: thread {t} {name} diverges from the spec"
            );
        }
        // Per-region footprints against the critical segments, in
        // program order.
        assert_eq!(
            crit().count(),
            vt.abs.regions.len(),
            "{label}: thread {t} critical-region count"
        );
        for (j, (seg, region)) in crit().zip(&vt.abs.regions).enumerate() {
            let one = std::iter::once(seg);
            assert_eq!(
                &phys(one.clone(), false),
                exact(&label, "region reads", &region.reads),
                "{label}: thread {t} region {j} reads"
            );
            assert_eq!(
                &phys(one, true),
                exact(&label, "region writes", &region.writes),
                "{label}: thread {t} region {j} writes"
            );
        }
        assert_eq!(vt.has_critical, crit().count() > 0, "{label}: thread {t}");
        assert!(!vt.overflow_unknown, "{label}: thread {t} overflow unknown");
    }

    // Precision of the table: only a proven overflow or LLC eviction may
    // withhold it, never a widened footprint.
    let eviction = a
        .llc_eviction_possible()
        .unwrap_or_else(|| panic!("{label}: LLC eviction undecided"));
    let overflow = a.threads.iter().any(|t| t.overflow);
    assert_eq!(
        a.independence().is_some(),
        !overflow && !eviction,
        "{label}: table availability"
    );

    // Spec-mode diagnostics point at real spec positions.
    for d in lint(&a, spec) {
        if let (Some(t), Some(s)) = (d.thread, d.segment) {
            let seg = &spec.threads[t][s];
            assert!(d.op.is_none_or(|k| k < seg.ops.len()), "{label}: {d:?}");
        }
        assert!(d.lines.iter().all(|&l| l < spec.lines), "{label}: {d:?}");
    }
}

const SYSTEMS: [SystemKind; 5] = [
    SystemKind::Cgl,
    SystemKind::Baseline,
    SystemKind::LockillerRwi,
    SystemKind::LockillerRwil,
    SystemKind::LockillerTm,
];

#[test]
fn corpus_witness_specs_agree() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../tmverify/tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 3);
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable witness");
        let w = tmobs::Witness::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let system = SystemKind::from_name(&w.system).expect("witness system exists");
        let spec = ProgSpec::parse(&w.prog).expect("witness prog parses");
        assert_consistent(system, &spec, w.tiny_l1);
    }
}

#[test]
fn characteristic_specs_agree_across_all_systems() {
    for system in SYSTEMS {
        for prog in [
            "2/c:L0,S1/p:L1",            // mixed-access demo
            "2/c:L0,S1/c:L1,S0",         // hand-off ring
            "3/c:L0,S0/c:L1,S1/c:L2,S2", // disjoint (prunable)
            "2/p:C5,L0/p:S0,C2",         // plain-only
            "3/c:S0,C0;p:C0/c:L0",       // no-ops and an unused line
        ] {
            let spec = ProgSpec::parse(prog).expect("test spec parses");
            assert_consistent(system, &spec, false);
        }
    }
}

#[test]
fn overflow_spec_agrees_under_tiny_l1() {
    let spec = ProgSpec::parse("6/c:L0,L1,L2,S0/c:L3,L4,L5,S3").unwrap();
    for system in [SystemKind::LockillerTm, SystemKind::LockillerRwi] {
        assert_consistent(system, &spec, true);
        assert_consistent(system, &spec, false);
    }
}

#[test]
fn random_specs_agree() {
    for seed in 0..10u64 {
        let mut rng = proptest::Rng::new(0xC0 + seed);
        let spec = ProgSpec::random(&mut rng, 2 + (seed as usize % 3), 4);
        for system in SYSTEMS {
            assert_consistent(system, &spec, false);
        }
    }
}
