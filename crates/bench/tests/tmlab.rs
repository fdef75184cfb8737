//! End-to-end test of the lab's parallel batches: any job count gives
//! the sequential reference's results exactly, at Tiny scale.

use lockiller::system::SystemKind;
use lockiller_bench::lab::{ConfigPoint, Lab, Point};
use stamp::{Scale, WorkloadKind};

fn sweep() -> Vec<Point> {
    let mut pts = Vec::new();
    for system in [
        SystemKind::Cgl,
        SystemKind::Baseline,
        SystemKind::LockillerTm,
    ] {
        for threads in [2usize, 4] {
            for workload in [WorkloadKind::Ssca2, WorkloadKind::KmeansLow] {
                pts.push(Point {
                    system,
                    workload,
                    threads,
                    cfg: ConfigPoint::Typical,
                });
            }
        }
    }
    pts
}

#[test]
fn parallel_batches_match_sequential_lab_exactly() {
    let points = sweep();
    let mut seq = Lab::new(Scale::Tiny);
    let reference: Vec<_> = points
        .iter()
        .map(|p| seq.run(p.system, p.workload, p.threads, p.cfg))
        .collect();
    for jobs in [2usize, 4, 8] {
        let mut par = Lab::new(Scale::Tiny);
        par.jobs(jobs);
        let got = par.run_many(&points);
        assert_eq!(reference, got, "jobs={jobs} diverged from sequential Lab");
    }
}
