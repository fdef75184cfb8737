//! Schedule-exploration CLI: exhaustively check small configurations,
//! or replay a recorded witness.
//!
//! ```text
//! tmverify [explore] [--system NAME] [--prog SPEC | --cores N --lines N]
//!          [--inject FAULT]... [--safety-net] [--tiny-l1]
//!          [--retries N] [--depth-bound N] [--max-schedules N]
//!          [--max-cycles N] [--jobs N] [--no-state-dedup]
//!          [--random-prog SEED]
//!          [--out FILE] [--bench-json FILE] [--profile] [-v]
//! tmverify replay WITNESS.json
//! ```
//!
//! Defaults: the 2-core/2-line conflict-ring kernel (`2/c:L0,S1/c:L1,S0`)
//! on LockillerRwi with the wake-up safety net *disabled* (exploration
//! wants lost wake-ups to surface as deadlocks, not 200k-cycle stalls);
//! `--safety-net` turns its 200,000-cycle timeout back on.
//! `--prog` takes the DSL documented in `tmverify::progs`;
//! `--random-prog SEED` generates a deterministic random kernel instead.
//! Injections: ignore-conflicts, drop-nack, drop-wakeups, double-grant,
//! prio-decay. `--cores` takes 1..=32 (the modelled core limit) and
//! `--lines` 1..=65536 (`progs::MAX_LINES`, the bound `--prog` specs obey),
//! `--jobs` 1..=256 (`sim_core::cli::MAX_JOBS`).
//! `--profile` profiles every explored run on the host clock and prints
//! the merged phase tree, heaviest self time first, after the report.
//! Stdout carries only the report (and `-v`'s JSON); the header line and
//! the `wrote …` / `witness written to …` notices go to stderr, and the
//! files are written before the report, so a reader that closes stdout
//! early loses only the rest of the report: the command still exits
//! with its verdict's status.
//!
//! Exit codes — `explore`: 0 clean and complete, 1 violation found
//! (witness written to `--out`, default `tmverify-witness.json`),
//! 2 budget exhausted before the space was covered, bad usage, or an
//! unwritable `--bench-json` or `--out` path (`tmverify: cannot write
//! PATH: ERR`, before the report).
//! `replay`: 0 witness reproduces its violation, 1 it does not,
//! 2 unreadable witness. A malformed command line prints
//! `tmverify: MSG` and the usage text and exits 2.

use lockiller::SystemKind;
use sim_core::cli::{report, usage_error, write_file, Args, Usage, MAX_JOBS};
use sim_core::config::MAX_CORES;
use std::io::Write;
use std::path::PathBuf;
use tmverify::dpor::{inject_by_name, Explorer, INJECT_NAMES};
use tmverify::progs::{ProgSpec, MAX_LINES};

const BIN: &str = "tmverify";

fn usage() -> String {
    format!(
        "usage: tmverify [explore] [--system NAME] [--prog SPEC | --cores N --lines N]\n\
         \x20               [--inject FAULT]... [--safety-net] [--tiny-l1]\n\
         \x20               [--retries N] [--depth-bound N] [--max-schedules N]\n\
         \x20               [--max-cycles N] [--jobs N] [--no-state-dedup]\n\
         \x20               [--random-prog SEED]\n\
         \x20               [--out FILE] [--bench-json FILE] [--profile] [-v]\n\
         \x20      tmverify replay WITNESS.json\n\
         injections: {}",
        INJECT_NAMES.join(", ")
    )
}

/// What a command line asks for.
enum Opts {
    Explore(Explore),
    Replay(String),
}

struct Explore {
    explorer: Explorer,
    out: PathBuf,
    bench_json: Option<PathBuf>,
    verbose: bool,
}

fn parse_args(mut args: Args) -> Result<Opts, Usage> {
    if args.peek() == Some("replay") {
        args.next();
        let path = args
            .next()
            .ok_or_else(|| Usage::Error("replay needs a witness file".into()))?;
        return Ok(Opts::Replay(path));
    }
    let (mut prog, mut random_seed, mut cores, mut lines) = (None, None, 2, 2);
    let mut ex = Explorer::new(
        SystemKind::LockillerRwi,
        ProgSpec::conflict_ring(cores, lines),
    );
    // Exploration defaults differ from simulation defaults: lost
    // wake-ups should deadlock, not ride the safety-net timeout.
    ex.no_safety_net = true;
    let mut out = PathBuf::from("tmverify-witness.json");
    let (mut bench_json, mut verbose) = (None, false);
    while let Some(a) = args.next() {
        match a.as_str() {
            "explore" => {}
            "--system" | "-s" => ex.system = args.read("--system", SystemKind::from_name)?,
            "--prog" | "-p" => prog = Some(args.value("--prog")?),
            "--random-prog" => random_seed = Some(args.parse("--random-prog")?),
            "--cores" | "-c" => cores = args.number("--cores", 1..=MAX_CORES)?,
            "--lines" | "-l" => lines = args.number("--lines", 1..=MAX_LINES)?,
            "--inject" => {
                args.read("--inject", |v| {
                    inject_by_name(&mut ex.inject, v).then_some(())
                })?;
            }
            "--safety-net" => ex.no_safety_net = false,
            "--tiny-l1" => ex.tiny_l1 = true,
            "--retries" => ex.retries = Some(args.parse("--retries")?),
            "--depth-bound" => ex.depth_bound = args.parse("--depth-bound")?,
            "--max-schedules" => ex.max_schedules = args.parse("--max-schedules")?,
            "--max-cycles" => ex.max_cycles = args.parse("--max-cycles")?,
            "--jobs" | "-j" => ex.jobs = args.number("--jobs", 1..=MAX_JOBS)?,
            "--no-state-dedup" => ex.state_dedup = false,
            "--out" | "-o" => out = args.value("--out")?.into(),
            "--bench-json" => bench_json = Some(args.value("--bench-json")?.into()),
            "--profile" => ex.profile = true,
            "-v" | "--verbose" => verbose = true,
            other => return Err(Usage::unknown(other)),
        }
    }
    ex.spec = if let Some(seed) = random_seed {
        ProgSpec::random(&mut proptest::Rng::new(seed), cores, lines)
    } else if let Some(p) = &prog {
        ProgSpec::parse(p).map_err(|e| Usage::Error(e.to_string()))?
    } else {
        ProgSpec::conflict_ring(cores, lines)
    };
    Ok(Opts::Explore(Explore {
        explorer: ex,
        out,
        bench_json,
        verbose,
    }))
}

/// `tmverify replay WITNESS.json`: 0 when the witness reproduces its
/// violation, 1 when it does not, 2 when it cannot be read.
fn cmd_replay(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tmverify: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let w = match tmobs::Witness::parse(&text) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("tmverify: {path}: {e}");
            std::process::exit(2);
        }
    };
    let ex = match Explorer::from_witness(&w) {
        Ok(ex) => ex,
        Err(e) => {
            eprintln!("tmverify: {path}: {e}");
            std::process::exit(2);
        }
    };
    let violations = ex.replay(&w.decisions);
    let reproduced = violations
        .iter()
        .any(|v| v.check.name() == w.violation_kind);
    report(BIN, |out| {
        write!(out, "{}", w.render())?;
        if reproduced {
            return writeln!(
                out,
                "reproduced: {} violation under the recorded schedule",
                w.violation_kind
            );
        }
        out.status = 1;
        if violations.is_empty() {
            writeln!(out, "NOT reproduced: schedule ran clean")
        } else {
            writeln!(
                out,
                "NOT reproduced: expected {}, observed {}",
                w.violation_kind,
                violations
                    .iter()
                    .map(|v| v.check.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
    })
}

fn main() {
    let opts = parse_args(Args::from_env()).unwrap_or_else(|e| usage_error(BIN, &usage(), &e));
    let opts = match opts {
        Opts::Replay(path) => cmd_replay(&path),
        Opts::Explore(opts) => opts,
    };
    let ex = &opts.explorer;
    eprintln!(
        "tmverify: exploring {} on {} (inject: [{}], safety net {}, dedup {}, jobs {})",
        ex.spec.render(),
        ex.system.name(),
        tmverify::dpor::inject_names(&ex.inject).join(", "),
        if ex.no_safety_net { "off" } else { "on" },
        if ex.state_dedup { "on" } else { "off" },
        ex.jobs.max(1),
    );
    let rep = ex.explore();
    if let Some(path) = &opts.bench_json {
        write_file(BIN, path, rep.to_json() + "\n");
        eprintln!("wrote {}", path.display());
    }
    if let Some(w) = &rep.witness {
        write_file(BIN, &opts.out, w.to_json() + "\n");
        eprintln!("witness written to {}", opts.out.display());
    }
    report(BIN, |out| {
        out.status = rep.exit_code();
        write!(out, "{}", rep.render())?;
        if let Some(prof) = &rep.profile {
            write!(out, "{}", tmobs::tmprof::render_prof(prof))?;
        }
        if opts.verbose {
            writeln!(out, "{}", rep.to_json())?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::SimRng;

    #[test]
    fn every_flag_reaches_its_field() {
        let Ok(Opts::Explore(o)) = parse_args(Args::new([
            "explore",
            "-s",
            "lockillertm",
            "-c",
            "3",
            "-l",
            "4",
            "--inject",
            "drop-nack",
            "--inject",
            "prio-decay",
            "--safety-net",
            "--tiny-l1",
            "--retries",
            "5",
            "--depth-bound",
            "6",
            "--max-schedules",
            "7",
            "--max-cycles",
            "8",
            "-j",
            "9",
            "--no-state-dedup",
            "-o",
            "w.json",
            "--bench-json",
            "b.json",
            "--profile",
            "-v",
        ])) else {
            panic!("an exploration")
        };
        let ex = &o.explorer;
        assert_eq!(ex.system, SystemKind::LockillerTm);
        assert_eq!(ex.spec, ProgSpec::conflict_ring(3, 4));
        let injected = tmverify::dpor::inject_names(&ex.inject);
        assert_eq!(injected, ["drop-nack", "prio-decay"]);
        assert!(!ex.no_safety_net && ex.tiny_l1 && !ex.state_dedup && ex.profile);
        assert_eq!((ex.retries, ex.depth_bound), (Some(5), 6));
        assert_eq!((ex.max_schedules, ex.max_cycles, ex.jobs), (7, 8, 9));
        assert_eq!(o.out, PathBuf::from("w.json"));
        assert_eq!(o.bench_json, Some(PathBuf::from("b.json")));
        assert!(o.verbose);
        let spec = "2/c:L0/c:L1";
        let Ok(Opts::Explore(o)) = parse_args(Args::new(["-p", spec])) else {
            panic!("an exploration")
        };
        assert_eq!(o.explorer.spec, ProgSpec::parse(spec).unwrap());
        assert!(o.explorer.no_safety_net, "the safety net is off by default");
        let Ok(Opts::Explore(o)) = parse_args(Args::new(["--random-prog", "7", "-c", "3"])) else {
            panic!("an exploration")
        };
        let random = ProgSpec::random(&mut proptest::Rng::new(7), 3, 2);
        assert_eq!(o.explorer.spec, random);
        let Ok(Opts::Replay(path)) = parse_args(Args::new(["replay", "w.json"])) else {
            panic!("a replay")
        };
        assert_eq!(path, "w.json");
    }

    /// About 10,000 argvs of up to six of the binary's own tokens: the
    /// parser returns for each, and refuses with a message unless the
    /// argv asked for help.
    #[test]
    fn no_argv_panics_the_parser() {
        let flags = [
            "explore",
            "replay",
            "--system",
            "-s",
            "--prog",
            "-p",
            "--random-prog",
            "--cores",
            "-c",
            "--lines",
            "-l",
            "--inject",
            "--safety-net",
            "--tiny-l1",
            "--retries",
            "--depth-bound",
            "--max-schedules",
            "--max-cycles",
            "--jobs",
            "-j",
            "--no-state-dedup",
            "--out",
            "-o",
            "--bench-json",
            "--profile",
            "-v",
            "--verbose",
        ];
        let values = [
            "0",
            "2",
            "33",
            "257",
            "-1",
            "0x10",
            "18446744073709551616",
            "",
            "all",
        ];
        let names = [
            "2/c:L0,S1/c:L1,S0",
            "2/c:L5",
            "intruder",
            "kmeans+",
            "tiny",
            "full",
        ];
        let systems = SystemKind::ALL.map(SystemKind::name);
        let tokens = [
            &flags[..],
            &values,
            &names,
            &systems,
            &INJECT_NAMES,
            &["--junk", "-h", "--help"],
        ]
        .concat();
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
