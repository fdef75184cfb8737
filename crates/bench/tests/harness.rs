//! Harness self-tests: every experiment function runs end-to-end at Tiny
//! scale and emits the rows its figure needs.

use lockiller_bench::experiments as ex;
use lockiller_bench::lab::Lab;
use stamp::Scale;

fn tiny_lab() -> Lab {
    Lab::new(Scale::Tiny)
}

#[test]
fn tables_render() {
    let t1 = ex::table1();
    assert!(t1.contains("Number of Cores") && t1.contains("32"));
    assert!(t1.contains("2-D mesh (4x8)"));
    let t2 = ex::table2();
    assert!(t2.contains("LockillerTM-RWIL"));
    assert!(t2.contains("switchingMode"));
}

#[test]
fn fig1_has_all_workloads() {
    let mut lab = tiny_lab();
    let out = ex::fig1(&mut lab);
    for w in stamp::WorkloadKind::ALL {
        assert!(out.contains(w.name()), "missing {}", w.name());
    }
    assert_eq!(lab.report().simulated, 18, "9 workloads x (CGL + Baseline)");
}

#[test]
fn fig8_reports_commit_rates() {
    let mut lab = tiny_lab();
    let out = ex::fig8(&mut lab, true);
    assert!(out.contains("LockillerTM-RWI"));
    assert!(out.contains('%'));
}

#[test]
fn fig10_reports_abort_causes() {
    let mut lab = tiny_lab();
    let out = ex::fig10(&mut lab);
    for c in sim_core::stats::AbortCause::ALL {
        assert!(out.contains(c.name()), "missing cause column {}", c.name());
    }
}

#[test]
fn characterization_reports_all_workloads() {
    let mut lab = tiny_lab();
    let out = ex::characterize(&mut lab);
    assert!(out.contains("tx cycles"));
    assert!(out.contains("labyrinth"));
}

#[test]
fn plots_write_svgs() {
    let mut lab = tiny_lab();
    let dir = std::env::temp_dir().join("lockiller_plot_test");
    let written = ex::plots(&mut lab, true, &dir).expect("plots");
    assert_eq!(written.len(), 3);
    for p in written {
        let svg = std::fs::read_to_string(&p).unwrap();
        assert!(svg.starts_with("<svg"), "{p} is not svg");
        assert!(svg.ends_with("</svg>\n"));
    }
}
