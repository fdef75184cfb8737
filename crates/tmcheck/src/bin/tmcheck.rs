//! Checked-mode CLI: run STAMP workloads under the trace checkers and
//! report violations. Exit status is non-zero if any run is not clean,
//! so CI can gate on it. Each run's line is printed as it finishes; a
//! reader that closes stdout early stops the checks, and the command
//! exits with the status of the runs checked so far.
//!
//! ```text
//! tmcheck [--workload NAME|all] [--system NAME|all] [--threads N]
//!         [--scale tiny|small|full] [--seed N] [-v]
//! ```
//!
//! Defaults: all workloads, the four-system ladder Baseline /
//! LockillerRWI / LockillerRWIL / LockillerTM, 4 threads, tiny scale.
//! `--threads` takes 1..=32, the core count of every hardware preset.
//! `--seed` is decimal, or hexadecimal with a `0x` prefix, as in
//! `lockiller_sim` and `tmtrace`.

use lockiller::system::SystemKind;
use sim_core::cli::report;
use sim_core::config::{SystemConfig, MAX_CORES};
use sim_core::rng::parse_seed;
use stamp::{Scale, Workload, WorkloadKind};
use std::io::Write;
use tmcheck::harness::{checked_config, run_checked};

/// The representative system ladder checked by default: no recovery,
/// recovery with wake-ups, +HTMLock, +switching (the paper's progression
/// from Table II).
const DEFAULT_SYSTEMS: [SystemKind; 4] = [
    SystemKind::Baseline,
    SystemKind::LockillerRwi,
    SystemKind::LockillerRwil,
    SystemKind::LockillerTm,
];

struct Args {
    workloads: Vec<WorkloadKind>,
    systems: Vec<SystemKind>,
    threads: usize,
    scale: Scale,
    seed: u64,
    verbose: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: tmcheck [--workload NAME|all] [--system NAME|all] [--threads N]\n\
         \x20              [--scale tiny|small|full] [--seed N] [-v]\n\
         --seed N: decimal, or hex with a 0x prefix"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: WorkloadKind::ALL.to_vec(),
        systems: DEFAULT_SYSTEMS.to_vec(),
        threads: 4,
        scale: Scale::Tiny,
        seed: 0xC0FFEE,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" | "-w" => {
                let v = val();
                if v != "all" {
                    let Some(k) = WorkloadKind::from_name(&v) else {
                        eprintln!("unknown workload {v:?}");
                        usage();
                    };
                    args.workloads = vec![k];
                }
            }
            "--system" | "-s" => {
                let v = val();
                if v == "all" {
                    args.systems = SystemKind::ALL.to_vec();
                } else {
                    let Some(k) = SystemKind::from_name(&v) else {
                        eprintln!("unknown system {v:?}");
                        usage();
                    };
                    args.systems = vec![k];
                }
            }
            "--threads" | "-t" => {
                args.threads = val().parse().unwrap_or_else(|_| usage());
                if !(1..=MAX_CORES).contains(&args.threads) {
                    eprintln!("--threads takes 1..={MAX_CORES}");
                    usage();
                }
            }
            "--scale" => args.scale = Scale::from_name(&val()).unwrap_or_else(|| usage()),
            "--seed" => args.seed = parse_seed(&val()).unwrap_or_else(|| usage()),
            "-v" | "--verbose" => args.verbose = true,
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let cfg = match args.scale {
        Scale::Tiny | Scale::Small => checked_config(args.threads),
        Scale::Full => {
            let mut c = SystemConfig::table1();
            c.check = sim_core::config::CheckCfg::on();
            c
        }
    };

    report("tmcheck", |out| {
        let mut failures = 0usize;
        let mut runs = 0usize;
        for &wk in &args.workloads {
            for &sys in &args.systems {
                runs += 1;
                let mut prog = Workload::with_scale(wk, args.threads, args.scale);
                let run = run_checked(sys, args.threads, cfg.clone(), args.seed, &mut prog);
                let tag = format!("{:<10} {:<14}", wk.name(), sys.name());
                if run.is_clean() {
                    writeln!(
                        out,
                        "ok   {tag} {:>8} events {:>6} txns {:>6} commits",
                        run.report.events, run.report.committed_txns, run.stats.commits
                    )?;
                } else {
                    failures += 1;
                    out.status = 1;
                    writeln!(out, "FAIL {tag}")?;
                    write!(out, "{}", run.report.render())?;
                    if let Err(e) = &run.validation {
                        writeln!(out, "  [validation] {e}")?;
                    }
                }
                if args.verbose {
                    writeln!(
                        out,
                        "     aborts={:?} rejects={} wakeups={} timeouts={}",
                        run.stats.aborts,
                        run.stats.rejects,
                        run.stats.wakeups,
                        run.stats.wakeup_timeouts
                    )?;
                }
            }
        }
        writeln!(out, "{runs} runs, {failures} failure(s)")
    })
}
