//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--verbose] [--jobs N] [--csv FILE]
//!             [--bench-json FILE] [EXPERIMENT...]
//! EXPERIMENT: table1 table2 fig1 fig7..fig13 headline ablation
//!             characterize plots forensics all (the default)
//! ```
//!
//! `--quick` runs the reduced thread sweep {2, 8, 32} at Small workload
//! scale; the default runs {2,4,8,16,32} at Full scale (the numbers
//! recorded in EXPERIMENTS.md).
//!
//! `--jobs N` fans simulation points across N host threads; results are
//! byte-identical for every N. Every point is simulated by this
//! invocation: nothing is kept on disk between runs. `--bench-json FILE`
//! writes the host-side accounting (per-point wall-clock, parallel
//! efficiency) as JSON; default `BENCH_lab.json`.
//!
//! A malformed command line prints `experiments: MSG` and the usage
//! text and exits 2 before anything runs: an unknown option, a value
//! flag without its value, a `--jobs` value outside 1..=256
//! (`sim_core::cli::MAX_JOBS`) or an unknown experiment name.
//!
//! Each experiment's text goes to stdout as soon as it is done. A reader
//! that closes early ends the run quietly, with status 0; an output file
//! that cannot be written (`--csv`, `--bench-json`, `figures/`,
//! `BENCH_forensics.json`) prints `experiments: cannot write PATH: ERR`
//! and exits 2.

use lockiller_bench::experiments as ex;
use lockiller_bench::lab::Lab;
use sim_core::cli::{cannot_write, report, usage_error, write_file, Args, Usage, MAX_JOBS};
use stamp::Scale;
use std::io::Write;
use std::path::Path;

const BIN: &str = "experiments";

/// Every experiment name; `all` runs each one but [`NOT_IN_ALL`], in
/// this order.
const EXPERIMENTS: [&str; 16] = [
    "table1",
    "table2",
    "fig1",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "headline",
    "ablation",
    "characterize",
    "plots",
    "forensics",
    "all",
];

const NOT_IN_ALL: [&str; 4] = ["ablation", "characterize", "plots", "all"];

fn usage() -> String {
    format!(
        "usage: experiments [--quick] [--verbose] [--jobs N] [--csv FILE] \
         [--bench-json FILE] [EXPERIMENT...]\nEXPERIMENT: {}",
        EXPERIMENTS.join(" ")
    )
}

struct Opts {
    quick: bool,
    verbose: bool,
    jobs: usize,
    csv: Option<String>,
    bench_json: String,
    what: Vec<String>,
}

fn parse_args(mut args: Args) -> Result<Opts, Usage> {
    let mut o = Opts {
        quick: false,
        verbose: false,
        jobs: 1,
        csv: None,
        bench_json: "BENCH_lab.json".to_string(),
        what: Vec::new(),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => o.quick = true,
            "--verbose" => o.verbose = true,
            "--csv" => o.csv = Some(args.value("--csv")?),
            "--bench-json" => o.bench_json = args.value("--bench-json")?,
            "--jobs" => o.jobs = args.number("--jobs", 1..=MAX_JOBS)?,
            flag if flag.starts_with('-') => return Err(Usage::unknown(flag)),
            _ => o.what.push(arg),
        }
    }
    if o.what.is_empty() {
        o.what.push("all".into());
    }
    if let Some(name) = o.what.iter().find(|w| !EXPERIMENTS.contains(&w.as_str())) {
        return Err(Usage::Error(format!("unknown experiment {name}")));
    }
    Ok(o)
}

fn main() {
    let o = parse_args(Args::from_env()).unwrap_or_else(|e| usage_error(BIN, &usage(), &e));

    let scale = if o.quick { Scale::Small } else { Scale::Full };
    let mut lab = Lab::new(scale);
    lab.verbose = o.verbose;
    lab.jobs(o.jobs);

    report(BIN, |out| {
        let names = o.what.iter().flat_map(|w| match w.as_str() {
            "all" => EXPERIMENTS
                .into_iter()
                .filter(|n| !NOT_IN_ALL.contains(n))
                .collect(),
            name => vec![name],
        });
        for name in names {
            // Each experiment's text is written as soon as it is done.
            let text = match name {
                "table1" => ex::table1(),
                "table2" => ex::table2(),
                "fig1" => ex::fig1(&mut lab),
                "fig7" => ex::fig7(&mut lab, o.quick),
                "fig8" => ex::fig8(&mut lab, o.quick),
                "fig9" => ex::fig9(&mut lab, o.quick),
                "fig10" => ex::fig10(&mut lab),
                "fig11" => ex::fig11(&mut lab),
                "fig12" => ex::fig12(&mut lab, o.quick),
                "fig13" => ex::fig13(&mut lab, o.quick),
                "headline" => ex::headline(&mut lab, o.quick),
                "ablation" => lockiller_bench::ablation::run_all(scale),
                "characterize" => ex::characterize(&mut lab),
                "plots" => {
                    let dir = Path::new("figures");
                    let written = ex::plots(&mut lab, o.quick, dir)
                        .unwrap_or_else(|e| cannot_write(BIN, dir, &e));
                    let lines: Vec<String> = written.iter().map(|p| format!("wrote {p}")).collect();
                    lines.join("\n")
                }
                "forensics" => {
                    let path = Path::new("BENCH_forensics.json");
                    ex::forensics(o.quick, path).unwrap_or_else(|e| cannot_write(BIN, path, &e))
                }
                _ => unreachable!("experiment names are checked before any runs"),
            };
            writeln!(out, "{text}")?;
        }
        if let Some(path) = &o.csv {
            write_file(BIN, Path::new(path), lab.dump_csv());
            eprintln!("[csv written to {path}]");
        }
        let batch = lab.report();
        write_file(BIN, Path::new(&o.bench_json), batch.to_json());
        eprintln!(
            "[{} simulation points run in {:.1}s with {} jobs; parallel efficiency {:.0}%; \
             report in {}]",
            batch.simulated,
            batch.wall_ms / 1e3,
            batch.jobs,
            batch.parallel_efficiency() * 100.0,
            o.bench_json,
        );
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::SimRng;

    #[test]
    fn every_flag_reaches_its_field() {
        let o = parse_args(Args::new([
            "--quick",
            "--verbose",
            "--jobs",
            "3",
            "--csv",
            "points.csv",
            "--bench-json",
            "lab.json",
            "fig1",
            "all",
        ]))
        .unwrap();
        assert!(o.quick && o.verbose);
        assert_eq!(o.jobs, 3);
        assert_eq!(o.csv.as_deref(), Some("points.csv"));
        assert_eq!(o.bench_json, "lab.json");
        assert_eq!(o.what, ["fig1", "all"]);
    }

    /// About 10,000 argvs of up to six of the binary's own tokens: the
    /// parser returns for each, and refuses with a message unless the
    /// argv asked for help.
    #[test]
    fn no_argv_panics_the_parser() {
        let flags = ["--quick", "--verbose", "--jobs", "--csv", "--bench-json"];
        let values = ["0", "33", "257", "-1", "0x10", "18446744073709551616", ""];
        let names = [
            lockiller::SystemKind::ALL
                .map(lockiller::SystemKind::name)
                .to_vec(),
            stamp::WorkloadKind::ALL
                .map(stamp::WorkloadKind::name)
                .to_vec(),
            Scale::ALL.map(Scale::name).to_vec(),
        ]
        .concat();
        let tokens = [
            &flags[..],
            &EXPERIMENTS,
            &values,
            &names,
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
