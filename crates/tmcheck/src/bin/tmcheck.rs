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
//! `lockiller_sim` and `tmtrace`. A malformed command line prints
//! `tmcheck: MSG` and the usage text and exits 2.

use lockiller::system::SystemKind;
use sim_core::cli::{report, usage_error, Args, Usage};
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

const USAGE: &str = "usage: tmcheck [--workload NAME|all] [--system NAME|all] [--threads N]\n\
     \x20              [--scale tiny|small|full] [--seed N] [-v]\n\
     --seed N: decimal, or hex with a 0x prefix";

struct Opts {
    workloads: Vec<WorkloadKind>,
    systems: Vec<SystemKind>,
    threads: usize,
    scale: Scale,
    seed: u64,
    verbose: bool,
}

fn parse_args(mut args: Args) -> Result<Opts, Usage> {
    let mut o = Opts {
        workloads: WorkloadKind::ALL.to_vec(),
        systems: DEFAULT_SYSTEMS.to_vec(),
        threads: 4,
        scale: Scale::Tiny,
        seed: 0xC0FFEE,
        verbose: false,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" | "-w" => {
                o.workloads = args.read("--workload", |v| match v {
                    "all" => Some(WorkloadKind::ALL.to_vec()),
                    _ => WorkloadKind::from_name(v).map(|k| vec![k]),
                })?;
            }
            "--system" | "-s" => {
                o.systems = args.read("--system", |v| match v {
                    "all" => Some(SystemKind::ALL.to_vec()),
                    _ => SystemKind::from_name(v).map(|k| vec![k]),
                })?;
            }
            "--threads" | "-t" => o.threads = args.number("--threads", 1..=MAX_CORES)?,
            "--scale" => o.scale = args.read("--scale", Scale::from_name)?,
            "--seed" => o.seed = args.read("--seed", parse_seed)?,
            "-v" | "--verbose" => o.verbose = true,
            other => return Err(Usage::unknown(other)),
        }
    }
    Ok(o)
}

fn main() {
    let o = parse_args(Args::from_env()).unwrap_or_else(|e| usage_error("tmcheck", USAGE, &e));
    let cfg = match o.scale {
        Scale::Tiny | Scale::Small => checked_config(o.threads),
        Scale::Full => {
            let mut c = SystemConfig::table1();
            c.check = sim_core::config::CheckCfg::on();
            c
        }
    };

    report("tmcheck", |out| {
        let mut failures = 0usize;
        let mut runs = 0usize;
        for &wk in &o.workloads {
            for &sys in &o.systems {
                runs += 1;
                let mut prog = Workload::with_scale(wk, o.threads, o.scale);
                let run = run_checked(sys, o.threads, cfg.clone(), o.seed, &mut prog);
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
                if o.verbose {
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

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::SimRng;

    #[test]
    fn every_flag_reaches_its_field() {
        let o = parse_args(Args::new([
            "-w", "ssca2", "-s", "all", "-t", "2", "--scale", "small", "--seed", "16", "-v",
        ]))
        .unwrap();
        assert_eq!(o.workloads, [WorkloadKind::Ssca2]);
        assert_eq!(o.systems, SystemKind::ALL);
        assert_eq!(
            (o.threads, o.scale, o.seed, o.verbose),
            (2, Scale::Small, 16, true)
        );
        let o = parse_args(Args::new(["--workload", "all", "--system", "cgl"])).unwrap();
        assert_eq!(o.workloads, WorkloadKind::ALL);
        assert_eq!(o.systems, [SystemKind::Cgl]);
    }

    /// About 10,000 argvs of up to six of the binary's own tokens: the
    /// parser returns for each, and refuses with a message unless the
    /// argv asked for help.
    #[test]
    fn no_argv_panics_the_parser() {
        let flags = [
            "--workload",
            "-w",
            "--system",
            "-s",
            "--threads",
            "-t",
            "--scale",
            "--seed",
            "-v",
            "--verbose",
        ];
        let values = [
            "0",
            "33",
            "257",
            "-1",
            "0x10",
            "18446744073709551616",
            "",
            "all",
        ];
        let names = [
            SystemKind::ALL.map(SystemKind::name).to_vec(),
            WorkloadKind::ALL.map(WorkloadKind::name).to_vec(),
            Scale::ALL.map(Scale::name).to_vec(),
        ]
        .concat();
        let tokens = [&flags[..], &values, &names, &["--junk", "-h", "--help"]].concat();
        let mut rng = SimRng::new(34);
        for _ in 0..10_000 {
            let argv: Vec<&str> = (0..rng.below(7))
                .map(|_| tokens[rng.below(tokens.len() as u64) as usize])
                .collect();
            match parse_args(Args::new(argv.clone())) {
                Err(Usage::Help) => assert!(argv.iter().any(|a| ["-h", "--help"].contains(a))),
                Err(Usage::Error(msg)) => assert!(!msg.is_empty(), "{argv:?}"),
                Ok(_) => {}
            }
        }
    }
}
