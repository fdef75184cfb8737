//! Golden-file tests for the `tmlint --json` diagnostic schema.
//!
//! The JSON emitted per diagnostic is a machine interface (CI baselines
//! are diffed line-by-line against it), so its exact shape — key order,
//! rule names, severities, line lists — is pinned here. To bless a
//! deliberate change, regenerate with:
//!
//! ```text
//! tmlint --prog SPEC [--system NAME] [--tiny-l1] --json > tests/golden/NAME.jsonl
//! ```

use lockiller::SystemKind;
use tmstatic::{lint, VmAnalysis};
use tmverify::progs::ProgSpec;
use tmverify::Explorer;

fn lint_json(system: SystemKind, prog: &str, tiny_l1: bool) -> String {
    let spec = ProgSpec::parse(prog).expect("golden specs parse");
    let mut ex = Explorer::new(system, spec.clone());
    ex.tiny_l1 = tiny_l1;
    let analysis = VmAnalysis::of_spec(system, &spec, ex.config());
    let mut out = String::new();
    for d in lint(&analysis, &spec) {
        out.push_str(&d.to_json());
        out.push('\n');
    }
    out
}

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn mixed_access_race_diagnostics_match_golden() {
    let got = lint_json(SystemKind::LockillerRwi, "2/c:L0,S1/p:L1", false);
    assert_eq!(got, golden("mixed_access.jsonl"));
    assert!(got.contains(r#""rule": "mixed-access-race""#));
    assert!(got.contains(r#""severity": "error""#));
}

#[test]
fn capacity_overflow_diagnostics_match_golden() {
    let got = lint_json(
        SystemKind::LockillerTm,
        "6/c:L0,L1,L2,S0/c:L3,L4,L5,S3",
        true,
    );
    assert_eq!(got, golden("capacity_overflow.jsonl"));
    // One warning per overflowing critical segment, both attributed.
    assert_eq!(got.matches(r#""rule": "capacity-overflow""#).count(), 2);
}

#[test]
fn handoff_cycle_diagnostics_match_golden() {
    let got = lint_json(SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0", false);
    assert_eq!(got, golden("handoff_cycle.jsonl"));
    assert!(got.contains(r#""rule": "handoff-cycle""#));
}

#[test]
fn race_free_corpus_kernels_raise_no_errors() {
    // Acceptance: zero false positives (error severity) on the
    // conflict-ring kernels the verify corpus is built from.
    for system in [SystemKind::LockillerRwi, SystemKind::LockillerTm] {
        for (threads, lines) in [(2, 2), (3, 3), (4, 2)] {
            let spec = ProgSpec::conflict_ring(threads, lines);
            let ex = Explorer::new(system, spec.clone());
            let analysis = VmAnalysis::of_spec(system, &spec, ex.config());
            let errors: Vec<_> = lint(&analysis, &spec)
                .into_iter()
                .filter(|d| d.severity == tmstatic::Severity::Error)
                .collect();
            assert!(
                errors.is_empty(),
                "{} ring {threads}x{lines}: false positives {errors:?}",
                system.name()
            );
        }
    }
}

#[test]
fn spec_corpus_diagnostics_match_golden() {
    // Every spec-mode rule (hygiene included) on hand-picked and random
    // specs across all five systems, with the tiny L1 on one HTMLock and
    // one lock-subscribing system. The golden was recorded from the
    // spec-level analysis this crate used to carry, so it pins spec-mode
    // output to that implementation's, byte for byte. Each run is headed
    // by a `# SPEC SYSTEM [--tiny-l1]` line.
    let mut specs = vec![
        "3/c:S0,C0;p:C0/c:L0".to_string(),
        "5/c:L0,S1;p:C0,S3/c:S0,L1,L2,L4/p:L1".to_string(),
    ];
    for seed in 0..6u64 {
        let mut rng = proptest::Rng::new(0x11A7 + seed);
        specs.push(ProgSpec::random(&mut rng, 2 + seed as usize % 3, 5).render());
    }
    let systems = [
        SystemKind::Cgl,
        SystemKind::Baseline,
        SystemKind::LockillerRwi,
        SystemKind::LockillerRwil,
        SystemKind::LockillerTm,
    ];
    let runs = systems.iter().map(|&s| (s, false)).chain([
        (SystemKind::LockillerRwi, true),
        (SystemKind::LockillerTm, true),
    ]);
    let mut got = String::new();
    for prog in &specs {
        for (system, tiny_l1) in runs.clone() {
            let flag = if tiny_l1 { " --tiny-l1" } else { "" };
            got.push_str(&format!("# {prog} {}{flag}\n", system.name()));
            got.push_str(&lint_json(system, prog, tiny_l1));
        }
    }
    assert_eq!(got, golden("spec_corpus.jsonl"));
}
