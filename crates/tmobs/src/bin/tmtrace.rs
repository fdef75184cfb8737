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
//! A reader that closes stdout early ends the report quietly: the
//! command exits with the status of the work done so far (`diff` and
//! `witness` with the status they settled before writing). An `--out`
//! directory or artifact that cannot be written prints
//! `tmtrace: cannot write PATH: ERR` and exits 2.

use lockiller::system::SystemKind;
use sim_core::cli::{cannot_write, report, write_file};
use sim_core::config::MAX_CORES;
use sim_core::rng::parse_seed;
use stamp::{Scale, WorkloadKind};
use std::io::Write;
use tmobs::{diff_docs, run_trace, validate_chrome, TraceConfig};

const BIN: &str = "tmtrace";

enum Cmd {
    Run,
    Blame,
    Flame,
}

struct Args {
    cmd: Cmd,
    cfg: TraceConfig,
    out: std::path::PathBuf,
    timeline: bool,
    validate: bool,
    verbose: bool,
    top: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: tmtrace [run]  [--workload NAME] [--system NAME] [--threads N]\n\
         \x20              [--scale tiny|small|full] [--seed N] [--sample CYCLES]\n\
         \x20              [--out DIR] [--timeline] [--validate] [-v]\n\
         \x20      tmtrace blame [same options] [--top N]\n\
         \x20      tmtrace flame [same options]\n\
         \x20      tmtrace diff  A.json B.json [--threshold PCT]\n\
         \x20      tmtrace witness FILE.json [...]\n\
         --seed N: decimal, or hex with a 0x prefix"
    );
    std::process::exit(2);
}

fn parse_args(mut it: std::env::Args) -> Args {
    let mut args = Args {
        cmd: Cmd::Run,
        cfg: TraceConfig::new(WorkloadKind::Intruder, SystemKind::LockillerTm),
        out: std::path::PathBuf::from("tmtrace-out"),
        timeline: false,
        validate: false,
        verbose: false,
        top: 10,
    };
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "run" => args.cmd = Cmd::Run,
            "blame" => args.cmd = Cmd::Blame,
            "flame" => {
                args.cmd = Cmd::Flame;
                args.cfg.profile = true;
            }
            "--workload" | "-w" => {
                let v = val();
                let Some(k) = WorkloadKind::from_name(&v) else {
                    eprintln!("unknown workload {v:?}");
                    usage();
                };
                args.cfg.workload = k;
            }
            "--system" | "-s" => {
                let v = val();
                let Some(k) = SystemKind::from_name(&v) else {
                    eprintln!("unknown system {v:?}");
                    usage();
                };
                args.cfg.system = k;
            }
            "--threads" | "-t" => {
                let threads = val().parse().unwrap_or_else(|_| usage());
                if !(1..=MAX_CORES).contains(&threads) {
                    eprintln!("--threads takes 1..={MAX_CORES}");
                    usage();
                }
                args.cfg.threads = threads;
            }
            "--scale" => args.cfg.scale = Scale::from_name(&val()).unwrap_or_else(|| usage()),
            "--seed" => args.cfg.seed = parse_seed(&val()).unwrap_or_else(|| usage()),
            "--sample" => {
                args.cfg.sample_every = val().parse().unwrap_or_else(|_| usage());
            }
            "--top" => args.top = val().parse().unwrap_or_else(|_| usage()),
            "--out" | "-o" => args.out = val().into(),
            "--timeline" => args.timeline = true,
            "--validate" => args.validate = true,
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

/// `tmtrace diff A.json B.json [--threshold PCT]`: exit 0 when every
/// numeric leaf agrees within the threshold, 1 when any delta is flagged.
fn cmd_diff(mut it: std::env::Args) -> ! {
    let mut files: Vec<String> = Vec::new();
    let mut threshold = 0.0f64;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
            path => files.push(path.to_string()),
        }
    }
    if files.len() != 2 {
        eprintln!("diff needs exactly two JSON files");
        usage();
    }
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
fn cmd_witness(it: std::env::Args) -> ! {
    let paths: Vec<String> = it.collect();
    if paths.iter().any(|p| p == "-h" || p == "--help") {
        usage();
    }
    if paths.is_empty() {
        eprintln!("witness needs at least one file");
        usage();
    }
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
    let mut it = std::env::args();
    // Skip argv[0]. `diff` and `witness` have their own grammars
    // (positional files); dispatch before the flag parser sees them.
    it.next();
    let args = match std::env::args().nth(1).as_deref() {
        Some("diff") => {
            it.next();
            cmd_diff(it)
        }
        Some("witness") => {
            it.next();
            cmd_witness(it)
        }
        _ => parse_args(it),
    };

    let art = run_trace(&args.cfg);

    if let Err(e) = &art.validation {
        eprintln!("workload validation FAILED: {e}");
        std::process::exit(1);
    }

    std::fs::create_dir_all(&args.out).unwrap_or_else(|e| cannot_write(BIN, &args.out, &e));
    let stem = format!(
        "{}-{}",
        args.cfg.workload.name(),
        args.cfg.system.name().to_lowercase()
    );
    let trace_path = args.out.join(format!("{stem}.trace.json"));
    let jsonl_path = args.out.join(format!("{stem}.metrics.jsonl"));
    let summary_path = args.out.join(format!("{stem}.summary.txt"));
    let stats_path = args.out.join(format!("{stem}.stats.json"));
    let selfprof_path = args.out.join(format!("{stem}.selfprof.json"));
    write_file(BIN, &trace_path, &art.chrome_json);
    write_file(BIN, &jsonl_path, &art.metrics_jsonl);
    write_file(BIN, &summary_path, &art.summary);
    write_file(BIN, &stats_path, art.stats.to_json());
    write_file(BIN, &selfprof_path, &art.selfprof_json);

    report(BIN, |out| {
        if matches!(args.cmd, Cmd::Flame) {
            let prof = art.host_prof.as_ref().expect("flame runs with profiling");
            let flame_text = tmobs::flame(prof);
            let flame_path = args.out.join(format!("{stem}.flame.txt"));
            let prof_trace_path = args.out.join(format!("{stem}.prof.trace.json"));
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

        if matches!(args.cmd, Cmd::Blame) {
            let blame_path = args.out.join(format!("{stem}.blame.json"));
            let doc = art.forensics.to_json(args.top);
            if let Err(e) = sim_core::json::parse(&doc) {
                eprintln!("blame JSON validation FAILED: {e}");
                out.status = 1;
                return Ok(());
            }
            write_file(BIN, &blame_path, &doc);
            write!(out, "{}", art.forensics.render(args.top))?;
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
        if args.timeline {
            write!(out, "{}", art.timeline)?;
        }
        // `flame` printed the same table above.
        if args.verbose && !matches!(args.cmd, Cmd::Flame) {
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

        if args.validate {
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
