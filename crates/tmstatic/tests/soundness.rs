//! Soundness property: the static may-conflict relation must
//! over-approximate the dynamic one. Every `ConflictEdge` the memory
//! system records during a real run — on the injected-bug corpus
//! kernels and on batches of deterministically generated random specs —
//! must be predicted by [`VmAnalysis::may_conflict`] over the kernels
//! the spec compiles to. A miss is a bug in `tmstatic`, never in the
//! simulator. (`vm_soundness.rs` checks the same property, plus every
//! traced access, on STAMP kernel programs and on computed-address
//! kernels.)
//!
//! This doubles as the layout cross-check: if
//! `SpecProgram::LOCK_LINE`/`data_line` ever drifted from the runner's
//! real arena layout, dynamic edges would land on physical lines the
//! analysis maps to nothing and the prediction would fail.

use lockiller::{Runner, SystemKind};
use tmstatic::VmAnalysis;
use tmverify::progs::{ProgSpec, SpecProgram};
use tmverify::Explorer;

/// Run `spec` to completion under the explorer's geometry with conflict
/// recording armed; assert every recorded edge is statically predicted.
fn assert_sound(system: SystemKind, spec: &ProgSpec, tiny_l1: bool, label: &str) -> usize {
    let mut ex = Explorer::new(system, spec.clone());
    ex.tiny_l1 = tiny_l1;
    let cfg = ex.config();
    let analysis = VmAnalysis::of_spec(system, spec, cfg.clone());

    let mut prog = SpecProgram::new(spec.clone());
    let out = Runner::new(system)
        .threads(spec.num_threads())
        .config(cfg)
        .retries(2)
        .seed(0)
        .spans(500)
        .run(&mut prog);
    assert!(
        out.end.is_done(),
        "{label}: run must complete for the recording to be total"
    );
    let trace = out.trace.expect("span-level trace");
    for ev in trace.conflicts() {
        let e = &ev.edge;
        assert!(
            analysis.may_conflict(e.attacker, e.victim, e.line),
            "{label}: dynamic conflict not statically predicted: \
             attacker {} victim {} line L{} ({:?} at cycle {})",
            e.attacker,
            e.victim,
            e.line.0,
            e.resolution,
            ev.cycle,
        );
    }
    trace.conflicts().len()
}

#[test]
fn corpus_kernels_are_statically_predicted() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../tmverify/tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    assert!(entries.len() >= 3, "corpus must cover the injected bugs");
    let mut edges = 0;
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable witness");
        let w = tmobs::Witness::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let system = SystemKind::from_name(&w.system).expect("witness system exists");
        let spec = ProgSpec::parse(&w.prog).expect("witness prog parses");
        edges += assert_sound(system, &spec, w.tiny_l1, &w.prog);
    }
    assert!(edges > 0, "the corpus kernels must actually conflict");
}

#[test]
fn ring_kernels_are_statically_predicted_across_systems() {
    let mut edges = 0;
    for system in [
        SystemKind::Cgl,
        SystemKind::Baseline,
        SystemKind::LockillerRwi,
        SystemKind::LockillerRwil,
        SystemKind::LockillerTm,
    ] {
        for (threads, lines) in [(2, 2), (3, 2), (3, 3)] {
            let spec = ProgSpec::conflict_ring(threads, lines);
            edges += assert_sound(system, &spec, false, &format!("{} ring", system.name()));
        }
    }
    assert!(edges > 0);
}

#[test]
fn overflowing_kernel_with_signatures_is_statically_predicted() {
    // Tiny L1 forces both transactions to overflow and switch to STL
    // mode on LockillerTm: conflict edges can come from Bloom-signature
    // matches (including false positives on disjoint line sets), which
    // the static relation must cover.
    let spec = ProgSpec::parse("6/c:L0,L1,L2,S0/c:L3,L4,L5,S3").unwrap();
    assert_sound(SystemKind::LockillerTm, &spec, true, "overflow kernel");
    assert_sound(
        SystemKind::LockillerRwi,
        &spec,
        true,
        "overflow kernel (subscribing)",
    );
}

#[test]
fn random_specs_are_statically_predicted() {
    let mut edges = 0;
    for seed in 0..8u64 {
        let mut rng = proptest::Rng::new(0x50DA + seed);
        let spec = ProgSpec::random(&mut rng, 2 + (seed as usize % 2), 3);
        for system in [SystemKind::LockillerRwi, SystemKind::LockillerTm] {
            edges += assert_sound(
                system,
                &spec,
                false,
                &format!("random #{seed} {}", spec.render()),
            );
        }
    }
    assert!(edges > 0, "random batch must exercise some conflicts");
}
