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
//! Any other `--` flag, a value flag without its value, a `--jobs`
//! value outside 1..=256 (`sim_core::cli::MAX_JOBS`) and an unknown
//! experiment name are usage errors (exit 2), found before anything
//! runs.
//!
//! Each experiment's text goes to stdout as soon as it is done. A reader
//! that closes early ends the run quietly, with status 0; an output file
//! that cannot be written (`--csv`, `--bench-json`, `figures/`,
//! `BENCH_forensics.json`) prints `experiments: cannot write PATH: ERR`
//! and exits 2.

use lockiller_bench::experiments as ex;
use lockiller_bench::lab::Lab;
use sim_core::cli::{cannot_write, report, write_file, MAX_JOBS};
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

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: experiments [--quick] [--verbose] [--jobs N] [--csv FILE] \
         [--bench-json FILE] [EXPERIMENT...]\nEXPERIMENT: {}",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut verbose = false;
    let mut jobs = 1;
    let mut csv_path = None;
    let mut bench_json = "BENCH_lab.json".to_string();
    let mut what: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || match args.next() {
            Some(v) if !v.starts_with("--") => v,
            _ => usage(&format!("{arg} takes a value")),
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--verbose" => verbose = true,
            "--csv" => csv_path = Some(value()),
            "--bench-json" => bench_json = value(),
            "--jobs" => {
                let v = value();
                jobs = match v.parse::<usize>() {
                    Ok(j) if (1..=MAX_JOBS).contains(&j) => j,
                    _ => usage(&format!(
                        "--jobs takes a job count, got {v:?} (1..={MAX_JOBS})"
                    )),
                };
            }
            flag if flag.starts_with("--") => usage(&format!("unknown option {flag}")),
            _ => what.push(arg),
        }
    }
    if what.is_empty() {
        what.push("all".into());
    }
    if let Some(name) = what.iter().find(|w| !EXPERIMENTS.contains(&w.as_str())) {
        usage(&format!("unknown experiment {name}"));
    }

    let scale = if quick { Scale::Small } else { Scale::Full };
    let mut lab = Lab::new(scale);
    lab.verbose = verbose;
    lab.jobs(jobs);

    report(BIN, |out| {
        let names = what.iter().flat_map(|w| match w.as_str() {
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
                "fig7" => ex::fig7(&mut lab, quick),
                "fig8" => ex::fig8(&mut lab, quick),
                "fig9" => ex::fig9(&mut lab, quick),
                "fig10" => ex::fig10(&mut lab),
                "fig11" => ex::fig11(&mut lab),
                "fig12" => ex::fig12(&mut lab, quick),
                "fig13" => ex::fig13(&mut lab, quick),
                "headline" => ex::headline(&mut lab, quick),
                "ablation" => lockiller_bench::ablation::run_all(scale),
                "characterize" => ex::characterize(&mut lab),
                "plots" => {
                    let dir = Path::new("figures");
                    let written = ex::plots(&mut lab, quick, dir)
                        .unwrap_or_else(|e| cannot_write(BIN, dir, &e));
                    let lines: Vec<String> = written.iter().map(|p| format!("wrote {p}")).collect();
                    lines.join("\n")
                }
                "forensics" => {
                    let path = Path::new("BENCH_forensics.json");
                    ex::forensics(quick, path).unwrap_or_else(|e| cannot_write(BIN, path, &e))
                }
                _ => unreachable!("experiment names are checked before any runs"),
            };
            writeln!(out, "{text}")?;
        }
        if let Some(path) = &csv_path {
            write_file(BIN, Path::new(path), lab.dump_csv());
            eprintln!("[csv written to {path}]");
        }
        let batch = lab.report();
        write_file(BIN, Path::new(&bench_json), batch.to_json());
        eprintln!(
            "[{} simulation points run in {:.1}s with {} jobs; parallel efficiency {:.0}%; \
             report in {bench_json}]",
            batch.simulated,
            batch.wall_ms / 1e3,
            batch.jobs,
            batch.parallel_efficiency() * 100.0,
        );
        Ok(())
    })
}
