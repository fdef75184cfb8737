//! Thread-scaling sweep of one STAMP workload across the Table-II
//! systems — a miniature Fig. 7 row you can read in a terminal.
//!
//! ```text
//! cargo run --release --example stamp_sweep [workload]
//! ```
//! where `workload` is one of: genome intruder kmeans+ kmeans labyrinth
//! ssca2 vacation+ vacation yada (default: intruder).

use lockillertm::lockiller::{Runner, SystemKind};
use lockillertm::sim_core::cli::Args;
use lockillertm::stamp::{Scale, Workload, WorkloadKind};

fn main() {
    let arg = Args::from_env().next().unwrap_or_else(|| "intruder".into());
    let Some(kind) = WorkloadKind::from_name(&arg) else {
        eprintln!("unknown workload {arg}; options:");
        for w in WorkloadKind::ALL {
            eprintln!("  {}", w.name());
        }
        std::process::exit(2);
    };

    let systems = [
        SystemKind::Cgl,
        SystemKind::Baseline,
        SystemKind::LosaTmSafu,
        SystemKind::LockillerRwi,
        SystemKind::LockillerTm,
    ];
    println!(
        "workload: {} — speedup vs CGL (higher is better)\n",
        kind.name()
    );
    print!("{:<8}", "threads");
    for s in systems.iter().skip(1) {
        print!(" {:>16}", s.name());
    }
    println!();

    for threads in [2usize, 4, 8] {
        let mut cgl = 0u64;
        print!("{threads:<8}");
        for &sys in &systems {
            let mut prog = Workload::with_scale(kind, threads, Scale::Small);
            let stats = Runner::new(sys).threads(threads).run(&mut prog).stats;
            if sys == SystemKind::Cgl {
                cgl = stats.cycles;
            } else {
                print!(" {:>15.2}x", cgl as f64 / stats.cycles as f64);
            }
        }
        println!();
    }
}
