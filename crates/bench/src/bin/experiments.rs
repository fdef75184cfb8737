//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--verbose] [--jobs N] [--csv FILE]
//!             [--bench-json FILE] [--no-profile]
//!             [table1|table2|fig1|fig7..fig13|headline|ablation|characterize|forensics|verify|engine|all]
//! ```
//!
//! `--quick` runs the reduced thread sweep {2, 8, 32} at Small workload
//! scale; the default runs {2,4,8,16,32} at Full scale (the numbers
//! recorded in EXPERIMENTS.md).
//!
//! `--no-profile` drops the `tmprof` engine scope profiler from the
//! `engine` battery: points lose their `host.phases` attribution block
//! but simulate identically — another leaves-must-not-move axis the CI
//! `engine-perf-smoke` gate checks at 0% tolerance.
//!
//! `--jobs N` fans simulation points across N host threads; results are
//! byte-identical for every N. Every point is simulated by this
//! invocation: nothing is kept on disk between runs. `--bench-json FILE`
//! writes the host-side accounting (per-point wall-clock, parallel
//! efficiency) as JSON; default `BENCH_lab.json`.
//!
//! Any other `--` flag, a value flag without its value, and a `--jobs`
//! value that is not a count are usage errors (exit 2).

use lockiller_bench::experiments as ex;
use lockiller_bench::lab::Lab;
use stamp::Scale;

const USAGE: &str = "usage: experiments [--quick] [--verbose] [--jobs N] [--csv FILE] \
                     [--bench-json FILE] [--no-profile] [EXPERIMENT...]";

fn usage(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut verbose = false;
    let mut profile = true;
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
            "--no-profile" => profile = false,
            "--csv" => csv_path = Some(value()),
            "--bench-json" => bench_json = value(),
            "--jobs" => {
                let v = value();
                jobs = v
                    .parse::<usize>()
                    .unwrap_or_else(|_| usage(&format!("--jobs takes a job count, got {v:?}")));
            }
            flag if flag.starts_with("--") => usage(&format!("unknown option {flag}")),
            _ => what.push(arg),
        }
    }
    if what.is_empty() {
        what.push("all".into());
    }

    let scale = if quick { Scale::Small } else { Scale::Full };
    let mut lab = Lab::new(scale);
    lab.verbose = verbose;
    lab.jobs(jobs);

    for w in &what {
        match w.as_str() {
            "table1" => {
                ex::table1();
            }
            "table2" => {
                ex::table2();
            }
            "fig1" => {
                ex::fig1(&mut lab);
            }
            "fig7" => {
                ex::fig7(&mut lab, quick);
            }
            "fig8" => {
                ex::fig8(&mut lab, quick);
            }
            "fig9" => {
                ex::fig9(&mut lab, quick);
            }
            "fig10" => {
                ex::fig10(&mut lab);
            }
            "fig11" => {
                ex::fig11(&mut lab);
            }
            "fig12" => {
                ex::fig12(&mut lab, quick);
            }
            "fig13" => {
                ex::fig13(&mut lab, quick);
            }
            "headline" => {
                ex::headline(&mut lab, quick);
            }
            "ablation" => {
                lockiller_bench::ablation::run_all(scale);
            }
            "characterize" => {
                ex::characterize(&mut lab);
            }
            "plots" => {
                ex::plots(&mut lab, quick, std::path::Path::new("figures")).expect("write plots");
            }
            "forensics" => {
                ex::forensics(quick, std::path::Path::new("BENCH_forensics.json"))
                    .expect("write forensics json");
            }
            "verify" => {
                lockiller_bench::verify::run(
                    quick,
                    jobs,
                    std::path::Path::new("BENCH_verify.json"),
                )
                .expect("write verify json");
            }
            "engine" => {
                lockiller_bench::engine::run(
                    &mut lab,
                    quick,
                    profile,
                    std::path::Path::new("BENCH_engine.json"),
                )
                .expect("write engine json");
            }
            "all" => {
                ex::table1();
                ex::table2();
                ex::fig1(&mut lab);
                ex::fig7(&mut lab, quick);
                ex::fig8(&mut lab, quick);
                ex::fig9(&mut lab, quick);
                ex::fig10(&mut lab);
                ex::fig11(&mut lab);
                ex::fig12(&mut lab, quick);
                ex::fig13(&mut lab, quick);
                ex::headline(&mut lab, quick);
                ex::forensics(quick, std::path::Path::new("BENCH_forensics.json"))
                    .expect("write forensics json");
                lockiller_bench::verify::run(
                    quick,
                    jobs,
                    std::path::Path::new("BENCH_verify.json"),
                )
                .expect("write verify json");
                lockiller_bench::engine::run(
                    &mut lab,
                    quick,
                    profile,
                    std::path::Path::new("BENCH_engine.json"),
                )
                .expect("write engine json");
            }
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = csv_path {
        std::fs::write(&path, lab.dump_csv()).expect("write csv");
        eprintln!("[csv written to {path}]");
    }
    let report = lab.report();
    std::fs::write(&bench_json, report.to_json()).expect("write bench json");
    eprintln!(
        "[{} simulation points run in {:.1}s with {} jobs; parallel efficiency {:.0}%; \
         report in {bench_json}]",
        report.simulated,
        report.wall_ms / 1e3,
        report.jobs,
        report.parallel_efficiency() * 100.0,
    );
}
