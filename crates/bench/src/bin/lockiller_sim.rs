//! Command-line simulator driver: run one workload on one system and
//! print the full statistics report.
//!
//! ```text
//! lockiller_sim --system LockillerTM --workload vacation+ --threads 8 \
//!               [--scale tiny|small|full] [--cache typical|small|large] \
//!               [--retries N] [--seed N] [--timeline]
//! ```
//!
//! `--seed` is decimal, or hexadecimal with a `0x` prefix, as in
//! `tmtrace` and `tmcheck`.
//!
//! `--threads` takes 1..=32, the core count of every hardware preset.
//! A reader that closes stdout early ends the report quietly (exit 0).

use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use lockiller::trace::render_timeline;
use sim_core::cli::report;
use sim_core::config::MAX_CORES;
use sim_core::rng::parse_seed;
use sim_core::stats::{AbortCause, Phase};
use stamp::{Scale, Workload, WorkloadKind};
use std::io::Write;

fn usage() -> ! {
    eprintln!(
        "usage: lockiller_sim --system <name> --workload <name> [--threads N]\n\
         \x20                  [--scale tiny|small|full] [--cache typical|small|large]\n\
         \x20                  [--retries N] [--seed N] [--timeline]\n\
         --seed N:  decimal, or hex with a 0x prefix\n\
         systems:   {}\n\
         workloads: {}",
        SystemKind::ALL.map(lockiller::SystemKind::name).join(" "),
        WorkloadKind::ALL.map(stamp::WorkloadKind::name).join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut system = SystemKind::LockillerTm;
    let mut workload = WorkloadKind::VacationHigh;
    let mut threads = 4usize;
    let mut scale = Scale::Small;
    let mut cache = "typical".to_string();
    let mut retries: Option<u32> = None;
    let mut seed = 0xC0FFEEu64;
    let mut timeline = false;

    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--system" => {
                let v = take(&mut i);
                system = SystemKind::from_name(&v).unwrap_or_else(|| usage());
            }
            "--workload" => {
                let v = take(&mut i);
                workload = WorkloadKind::from_name(&v).unwrap_or_else(|| usage());
            }
            "--threads" => {
                threads = take(&mut i).parse().unwrap_or_else(|_| usage());
                if !(1..=MAX_CORES).contains(&threads) {
                    eprintln!("--threads takes 1..={MAX_CORES}");
                    usage();
                }
            }
            "--scale" => scale = Scale::from_name(&take(&mut i)).unwrap_or_else(|| usage()),
            "--cache" => cache = take(&mut i),
            "--retries" => retries = Some(take(&mut i).parse().unwrap_or_else(|_| usage())),
            "--seed" => seed = parse_seed(&take(&mut i)).unwrap_or_else(|| usage()),
            "--timeline" => timeline = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
        i += 1;
    }

    let cfg = match cache.as_str() {
        "typical" => sim_core::config::SystemConfig::table1(),
        "small" => sim_core::config::SystemConfig::small_cache(),
        "large" => sim_core::config::SystemConfig::large_cache(),
        _ => usage(),
    };

    let mut prog = Workload::with_scale(workload, threads, scale);
    let mut runner = Runner::new(system).threads(threads).config(cfg).seed(seed);
    if let Some(r) = retries {
        runner = runner.retries(r);
    }

    report("lockiller_sim", |out| {
        writeln!(
            out,
            "{} / {} / {threads} threads / {cache} cache / scale {scale:?}\n",
            system.name(),
            workload.name(),
        )?;
        let (stats, trace) = if timeline {
            let mut run = runner.tracing().run(&mut prog);
            let trace = run.take_trace_events();
            (run.stats, trace)
        } else {
            (runner.run(&mut prog).stats, Vec::new())
        };

        writeln!(out, "cycles                {}", stats.cycles)?;
        writeln!(
            out,
            "speculative commits   {} ({} after STL switch)",
            stats.commits, stats.stl_commits
        )?;
        writeln!(out, "lock-path sections    {}", stats.lock_commits)?;
        writeln!(
            out,
            "commit rate           {:.1}%",
            stats.commit_rate() * 100.0
        )?;
        writeln!(out, "aborts                {}", stats.total_aborts())?;
        for c in AbortCause::ALL {
            if stats.abort_count(c) > 0 {
                writeln!(out, "  {:<10} {}", c.name(), stats.abort_count(c))?;
            }
        }
        writeln!(
            out,
            "recovery rejects      {} (+{} by signature)",
            stats.rejects, stats.sig_rejects
        )?;
        writeln!(out, "wake-ups              {}", stats.wakeups)?;
        writeln!(out, "fallbacks             {}", stats.fallbacks)?;
        writeln!(
            out,
            "switches              {} granted / {} denied",
            stats.switches_granted, stats.switches_denied
        )?;
        writeln!(
            out,
            "NoC                   {} messages, {} hops",
            stats.messages, stats.hops
        )?;
        writeln!(
            out,
            "avg committed tx      {:.0} cycles, {:.1} read lines, {:.1} written lines",
            stats.avg_tx_len(),
            stats.avg_read_set(),
            stats.avg_write_set()
        )?;
        let total: u64 = Phase::ALL.iter().map(|p| stats.phase(*p)).sum();
        if total > 0 {
            writeln!(out, "time breakdown:")?;
            for p in Phase::ALL {
                let frac = stats.phase(p) as f64 / total as f64;
                if frac > 0.0005 {
                    writeln!(out, "  {:<10} {:>5.1}%", p.name(), frac * 100.0)?;
                }
            }
        }
        if timeline {
            writeln!(out, "\n{}", render_timeline(&trace, threads, 110))?;
        }
        Ok(())
    })
}
