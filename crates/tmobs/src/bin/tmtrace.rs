//! Observability CLI: run one STAMP workload on one Table-II system at
//! span level and write the artifacts derived from its trace to disk.
//!
//! ```text
//! tmtrace [run]  [--workload NAME] [--system NAME] [--threads N]
//!                [--scale tiny|small|full] [--seed N] [--sample CYCLES]
//!                [--out DIR] [--timeline] [--validate] [-v]
//! tmtrace blame  [same options] [--top N]
//! tmtrace flame  [same options]
//! tmtrace diff   A.json B.json [--threshold PCT]
//! tmtrace witness FILE.json [...]
//! ```
//!
//! Defaults: intruder on LockillerTM, 4 threads, tiny scale, artifacts
//! under `tmtrace-out/`. `--validate` re-parses the written Chrome trace
//! and checks its structural invariants (exit status 1 on failure, so CI
//! can gate on it). Load the `.trace.json` in <https://ui.perfetto.dev>.
//!
//! `blame` additionally renders the conflict forensics (attacker/victim
//! matrix, per-line hotspots, recovery ledger), writes `<stem>.blame.json`,
//! and fails (exit 1) if the matrix's wasted-cycle total does not
//! reconcile with the run's aborted-cycle statistics. Both `run` and
//! `blame` write `<stem>.stats.json` so a later `tmtrace diff` can gate
//! on run-to-run regressions: `diff` exits 0 when no numeric leaf differs
//! beyond the threshold (default 0%: any change), 1 otherwise.
//!
//! `flame` runs the session with `tmprof` engine profiling enabled: the
//! engine's phase tree sits under the session's `run;simulate` scope,
//! beside `run;setup` and `run;export`. It additionally writes
//! `<stem>.flame.txt` (collapsed-stack flamegraph, self-time in
//! microseconds) and `<stem>.prof.trace.json` (the phase tree as nested
//! Chrome-trace slices); the `selfprof.json` gains the schema-v2
//! `"prof"` block, and the command fails (exit 1) if the flamegraph
//! totals do not reconcile with it to the millisecond. `-v` prints the
//! session's phase table on every run.
//!
//! `--threads` takes 1..=32, the core count of every hardware preset.
//! `--seed` is decimal, or hexadecimal with a `0x` prefix, as in
//! `lockiller_sim` and `tmcheck`.
//!
//! `witness` renders `tmverify` schedule-witness files (see
//! `tmobs::witness`) without re-executing them; use `tmverify replay`
//! to re-run one.
//!
//! A malformed command line prints `tmtrace: MSG` and the usage text
//! and exits 2. A reader that closes stdout early ends the report
//! quietly: the command exits with the status of the work done so far
//! (`diff` and `witness` with the status they settled before writing).
//! An `--out` directory or artifact that cannot be written prints
//! `tmtrace: cannot write PATH: ERR` and exits 2.

use lockiller::system::SystemKind;
use sim_core::cli::{cannot_write, report, usage_error, write_file, Args, Usage};
use sim_core::config::MAX_CORES;
use sim_core::rng::parse_seed;
use stamp::{Scale, WorkloadKind};
use std::io::Write;
use tmobs::{diff_docs, run_trace, validate_chrome, TraceConfig};

const BIN: &str = "tmtrace";

const USAGE: &str = "usage: tmtrace [run]  [--workload NAME] [--system NAME] [--threads N]\n\
     \x20              [--scale tiny|small|full] [--seed N] [--sample CYCLES]\n\
     \x20              [--out DIR] [--timeline] [--validate] [-v]\n\
     \x20      tmtrace blame [same options] [--top N]\n\
     \x20      tmtrace flame [same options]\n\
     \x20      tmtrace diff  A.json B.json [--threshold PCT]\n\
     \x20      tmtrace witness FILE.json [...]\n\
     --seed N: decimal, or hex with a 0x prefix";

enum Cmd {
    Run,
    Blame,
    Flame,
}

/// One traced point: `run`, `blame` or `flame`.
struct Point {
    cmd: Cmd,
    cfg: TraceConfig,
    out: std::path::PathBuf,
    timeline: bool,
    validate: bool,
    verbose: bool,
    top: usize,
}

/// What a command line asks for.
enum Opts {
    Point(Point),
    Diff { files: Vec<String>, threshold: f64 },
    Witness(Vec<String>),
}

fn parse_args(mut args: Args) -> Result<Opts, Usage> {
    // `diff` and `witness` take positional files, and only as the first
    // argument.
    match args.peek() {
        Some("diff") => {
            args.next();
            let (mut files, mut threshold) = (Vec::new(), 0.0);
            while let Some(a) = args.next() {
                match a.as_str() {
                    "--threshold" => threshold = args.parse("--threshold")?,
                    flag if flag.starts_with('-') => return Err(Usage::unknown(flag)),
                    _ => files.push(a),
                }
            }
            if files.len() != 2 {
                return Err(Usage::Error("diff needs exactly two JSON files".into()));
            }
            return Ok(Opts::Diff { files, threshold });
        }
        Some("witness") => {
            args.next();
            let paths: Vec<String> = args.collect();
            if paths.iter().any(|p| p == "-h" || p == "--help") {
                return Err(Usage::Help);
            }
            if paths.is_empty() {
                return Err(Usage::Error("witness needs at least one file".into()));
            }
            return Ok(Opts::Witness(paths));
        }
        _ => {}
    }
    let mut p = Point {
        cmd: Cmd::Run,
        cfg: TraceConfig::new(WorkloadKind::Intruder, SystemKind::LockillerTm),
        out: std::path::PathBuf::from("tmtrace-out"),
        timeline: false,
        validate: false,
        verbose: false,
        top: 10,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "run" => p.cmd = Cmd::Run,
            "blame" => p.cmd = Cmd::Blame,
            "flame" => {
                p.cmd = Cmd::Flame;
                p.cfg.profile = true;
            }
            "--workload" | "-w" => {
                p.cfg.workload = args.read("--workload", WorkloadKind::from_name)?;
            }
            "--system" | "-s" => p.cfg.system = args.read("--system", SystemKind::from_name)?,
            "--threads" | "-t" => p.cfg.threads = args.number("--threads", 1..=MAX_CORES)?,
            "--scale" => p.cfg.scale = args.read("--scale", Scale::from_name)?,
            "--seed" => p.cfg.seed = args.read("--seed", parse_seed)?,
            "--sample" => p.cfg.sample_every = args.parse("--sample")?,
            "--top" => p.top = args.parse("--top")?,
            "--out" | "-o" => p.out = args.value("--out")?.into(),
            "--timeline" => p.timeline = true,
            "--validate" => p.validate = true,
            "-v" | "--verbose" => p.verbose = true,
            other => return Err(Usage::unknown(other)),
        }
    }
    Ok(Opts::Point(p))
}

/// `tmtrace diff A.json B.json [--threshold PCT]`: exit 0 when every
/// numeric leaf agrees within the threshold, 1 when any delta is flagged.
fn cmd_diff(files: &[String], threshold: f64) -> ! {
    let read = |p: &str| -> String {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let (a, b) = (read(&files[0]), read(&files[1]));
    let deltas = diff_docs(&a, &b, threshold).unwrap_or_else(|e| {
        eprintln!("diff FAILED: {e}");
        std::process::exit(2);
    });
    report(BIN, |out| {
        out.status = i32::from(!deltas.is_empty());
        if deltas.is_empty() {
            return writeln!(
                out,
                "no deltas beyond {threshold}% between {} and {}",
                files[0], files[1]
            );
        }
        writeln!(
            out,
            "{} delta(s) beyond {threshold}% between {} and {}:",
            deltas.len(),
            files[0],
            files[1]
        )?;
        for d in &deltas {
            writeln!(out, "  {}", d.render())?;
        }
        Ok(())
    })
}

/// `tmtrace witness FILE.json [...]`: render witness files. Exit 0 when
/// every file parses, 2 otherwise; the files before the first bad one
/// are rendered.
fn cmd_witness(paths: &[String]) -> ! {
    let witnesses: Vec<Result<tmobs::Witness, String>> = paths
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            tmobs::Witness::parse(&text).map_err(|e| format!("{path}: {e}"))
        })
        .collect();
    report(BIN, |out| {
        out.status = if witnesses.iter().all(Result::is_ok) {
            0
        } else {
            2
        };
        for (path, w) in paths.iter().zip(&witnesses) {
            match w {
                Ok(w) => write!(out, "{path}:\n{}", w.render())?,
                Err(e) => {
                    out.flush()?;
                    eprintln!("{e}");
                    break;
                }
            }
        }
        Ok(())
    })
}

fn main() {
    match parse_args(Args::from_env()).unwrap_or_else(|e| usage_error(BIN, USAGE, &e)) {
        Opts::Point(p) => trace(&p),
        Opts::Diff { files, threshold } => cmd_diff(&files, threshold),
        Opts::Witness(paths) => cmd_witness(&paths),
    }
}

/// `tmtrace [run|blame|flame]`: trace one point and write its artifacts.
fn trace(point: &Point) -> ! {
    let art = run_trace(&point.cfg);

    if let Err(e) = &art.validation {
        eprintln!("workload validation FAILED: {e}");
        std::process::exit(1);
    }

    std::fs::create_dir_all(&point.out).unwrap_or_else(|e| cannot_write(BIN, &point.out, &e));
    let stem = format!(
        "{}-{}",
        point.cfg.workload.name(),
        point.cfg.system.name().to_lowercase()
    );
    let trace_path = point.out.join(format!("{stem}.trace.json"));
    let jsonl_path = point.out.join(format!("{stem}.metrics.jsonl"));
    let summary_path = point.out.join(format!("{stem}.summary.txt"));
    let stats_path = point.out.join(format!("{stem}.stats.json"));
    let selfprof_path = point.out.join(format!("{stem}.selfprof.json"));
    write_file(BIN, &trace_path, &art.chrome_json);
    write_file(BIN, &jsonl_path, &art.metrics_jsonl);
    write_file(BIN, &summary_path, &art.summary);
    write_file(BIN, &stats_path, art.stats.to_json());
    write_file(BIN, &selfprof_path, &art.selfprof_json);

    report(BIN, |out| {
        if matches!(point.cmd, Cmd::Flame) {
            let prof = art.host_prof.as_ref().expect("flame runs with profiling");
            let flame_text = tmobs::flame(prof);
            let flame_path = point.out.join(format!("{stem}.flame.txt"));
            let prof_trace_path = point.out.join(format!("{stem}.prof.trace.json"));
            write_file(BIN, &flame_path, &flame_text);
            write_file(BIN, &prof_trace_path, tmobs::chrome_prof(prof));
            write!(out, "{}", tmobs::render_prof(prof))?;
            // The acceptance bar: collapsed-stack totals reconcile with the
            // archived selfprof.json to the millisecond.
            let flame_ms =
                tmobs::flame_total_us(&flame_text).expect("well-formed flame") as f64 / 1e3;
            let prof_ms = prof.total_ns as f64 / 1e6;
            if (flame_ms - prof_ms).abs() >= 1.0 {
                eprintln!(
                    "flame reconciliation FAILED: flame {flame_ms:.3} ms vs profile {prof_ms:.3} ms"
                );
                out.status = 1;
                return Ok(());
            }
            writeln!(
                out,
                "reconciled: flame {flame_ms:.3} ms == profile {prof_ms:.3} ms (< 1 ms apart)"
            )?;
            writeln!(out, "wrote {}", flame_path.display())?;
            writeln!(out, "wrote {}", prof_trace_path.display())?;
        }

        if matches!(point.cmd, Cmd::Blame) {
            let blame_path = point.out.join(format!("{stem}.blame.json"));
            let doc = art.forensics.to_json(point.top);
            if let Err(e) = sim_core::json::parse(&doc) {
                eprintln!("blame JSON validation FAILED: {e}");
                out.status = 1;
                return Ok(());
            }
            write_file(BIN, &blame_path, &doc);
            write!(out, "{}", art.forensics.render(point.top))?;
            match art.forensics.reconcile(&art.stats) {
                Ok(()) => writeln!(
                    out,
                    "\nreconciled: matrix wasted cycles == RunStats aborted cycles ({})",
                    art.stats.aborted_cycles()
                )?,
                Err(e) => {
                    eprintln!("\nblame reconciliation FAILED: {e}");
                    out.status = 1;
                    return Ok(());
                }
            }
            writeln!(out, "wrote {}", blame_path.display())?;
        } else {
            write!(out, "{}", art.summary)?;
        }
        if point.timeline {
            write!(out, "{}", art.timeline)?;
        }
        // `flame` printed the same table above.
        if point.verbose && !matches!(point.cmd, Cmd::Flame) {
            write!(out, "{}", art.profile)?;
        }
        writeln!(
            out,
            "wrote {} ({} spans, {} sample rows, {} conflict edges)",
            trace_path.display(),
            art.recorder.spans().len(),
            art.recorder.samples().len(),
            art.recorder.conflicts().len()
        )?;
        writeln!(out, "wrote {}", jsonl_path.display())?;
        writeln!(out, "wrote {}", summary_path.display())?;
        writeln!(out, "wrote {}", stats_path.display())?;
        writeln!(out, "wrote {}", selfprof_path.display())?;
        writeln!(out, "open the trace at https://ui.perfetto.dev")?;

        if point.validate {
            let written = std::fs::read_to_string(&trace_path).expect("re-read trace");
            match validate_chrome(&written) {
                Ok(s) => writeln!(
                    out,
                    "validated: {} spans on {} tracks, {} counter samples in {} series, {} instants",
                    s.spans, s.tracks, s.counters, s.counter_series, s.instants
                )?,
                Err(e) => {
                    eprintln!("trace validation FAILED: {e}");
                    out.status = 1;
                }
            }
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
        let Ok(Opts::Point(p)) = parse_args(Args::new([
            "flame",
            "-w",
            "kmeans",
            "-s",
            "baseline",
            "-t",
            "8",
            "--scale",
            "small",
            "--seed",
            "0x10",
            "--sample",
            "500",
            "--top",
            "3",
            "-o",
            "dir",
            "--timeline",
            "--validate",
            "-v",
        ])) else {
            panic!("a point")
        };
        assert!(matches!(p.cmd, Cmd::Flame) && p.cfg.profile);
        assert_eq!(p.cfg.workload, WorkloadKind::KmeansLow);
        assert_eq!(p.cfg.system, SystemKind::Baseline);
        assert_eq!(
            (p.cfg.threads, p.cfg.scale, p.cfg.seed),
            (8, Scale::Small, 16)
        );
        assert_eq!((p.cfg.sample_every, p.top), (500, 3));
        assert_eq!(p.out, std::path::Path::new("dir"));
        assert!(p.timeline && p.validate && p.verbose);
        let Ok(Opts::Diff { files, threshold }) =
            parse_args(Args::new(["diff", "a.json", "--threshold", "5", "b.json"]))
        else {
            panic!("a diff")
        };
        assert_eq!(
            (files, threshold),
            (vec!["a.json".into(), "b.json".into()], 5.0)
        );
        let Ok(Opts::Witness(paths)) = parse_args(Args::new(["witness", "w.json"])) else {
            panic!("a witness")
        };
        assert_eq!(paths, ["w.json"]);
    }

    /// About 10,000 argvs of up to six of the binary's own tokens: the
    /// parser returns for each, and refuses with a message unless the
    /// argv asked for help.
    #[test]
    fn no_argv_panics_the_parser() {
        let flags = [
            "run",
            "blame",
            "flame",
            "diff",
            "witness",
            "--workload",
            "-w",
            "--system",
            "-s",
            "--threads",
            "-t",
            "--scale",
            "--seed",
            "--sample",
            "--top",
            "--out",
            "-o",
            "--timeline",
            "--validate",
            "-v",
            "--verbose",
            "--threshold",
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
