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
//! A malformed command line prints `lockiller_sim: MSG` and the usage
//! text and exits 2. A reader that closes stdout early ends the report
//! quietly (exit 0).

use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use lockiller::trace::render_timeline;
use lockiller_bench::lab::ConfigPoint;
use sim_core::cli::{report, usage_error, Args, Usage};
use sim_core::config::MAX_CORES;
use sim_core::rng::parse_seed;
use sim_core::stats::{AbortCause, Phase};
use stamp::{Scale, Workload, WorkloadKind};
use std::io::Write;

const BIN: &str = "lockiller_sim";

/// `--cache` names and the presets they stand for.
const CACHES: [(&str, ConfigPoint); 3] = [
    ("typical", ConfigPoint::Typical),
    ("small", ConfigPoint::SmallCache),
    ("large", ConfigPoint::LargeCache),
];

fn usage() -> String {
    format!(
        "usage: lockiller_sim --system <name> --workload <name> [--threads N]\n\
         \x20                  [--scale tiny|small|full] [--cache typical|small|large]\n\
         \x20                  [--retries N] [--seed N] [--timeline]\n\
         --seed N:  decimal, or hex with a 0x prefix\n\
         systems:   {}\n\
         workloads: {}",
        SystemKind::ALL.map(lockiller::SystemKind::name).join(" "),
        WorkloadKind::ALL.map(stamp::WorkloadKind::name).join(" ")
    )
}

struct Opts {
    system: SystemKind,
    workload: WorkloadKind,
    threads: usize,
    scale: Scale,
    cache: (&'static str, ConfigPoint),
    retries: Option<u32>,
    seed: u64,
    timeline: bool,
}

fn parse_args(mut args: Args) -> Result<Opts, Usage> {
    let mut o = Opts {
        system: SystemKind::LockillerTm,
        workload: WorkloadKind::VacationHigh,
        threads: 4,
        scale: Scale::Small,
        cache: CACHES[0],
        retries: None,
        seed: 0xC0FFEE,
        timeline: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--system" => o.system = args.read("--system", SystemKind::from_name)?,
            "--workload" => o.workload = args.read("--workload", WorkloadKind::from_name)?,
            "--threads" => o.threads = args.number("--threads", 1..=MAX_CORES)?,
            "--scale" => o.scale = args.read("--scale", Scale::from_name)?,
            "--cache" => {
                o.cache = args.read("--cache", |v| CACHES.into_iter().find(|c| c.0 == v))?;
            }
            "--retries" => o.retries = Some(args.parse("--retries")?),
            "--seed" => o.seed = args.read("--seed", parse_seed)?,
            "--timeline" => o.timeline = true,
            other => return Err(Usage::unknown(other)),
        }
    }
    Ok(o)
}

fn main() {
    let o = parse_args(Args::from_env()).unwrap_or_else(|e| usage_error(BIN, &usage(), &e));

    let mut prog = Workload::with_scale(o.workload, o.threads, o.scale);
    let mut runner = Runner::new(o.system)
        .threads(o.threads)
        .config(o.cache.1.config())
        .seed(o.seed);
    if let Some(r) = o.retries {
        runner = runner.retries(r);
    }

    report(BIN, |out| {
        writeln!(
            out,
            "{} / {} / {} threads / {} cache / scale {:?}\n",
            o.system.name(),
            o.workload.name(),
            o.threads,
            o.cache.0,
            o.scale,
        )?;
        let (stats, trace) = if o.timeline {
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
        if o.timeline {
            writeln!(out, "\n{}", render_timeline(&trace, o.threads, 110))?;
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
        let o = parse_args(Args::new([
            "--system",
            "baseline",
            "--workload",
            "kmeans+",
            "--threads",
            "32",
            "--scale",
            "full",
            "--cache",
            "large",
            "--retries",
            "7",
            "--seed",
            "0x10",
            "--timeline",
        ]))
        .unwrap();
        assert_eq!(o.system, SystemKind::Baseline);
        assert_eq!(o.workload, WorkloadKind::KmeansHigh);
        assert_eq!((o.threads, o.scale), (32, Scale::Full));
        assert_eq!(o.cache, ("large", ConfigPoint::LargeCache));
        assert_eq!((o.retries, o.seed, o.timeline), (Some(7), 16, true));
    }

    /// About 10,000 argvs of up to six of the binary's own tokens: the
    /// parser returns for each, and refuses with a message unless the
    /// argv asked for help.
    #[test]
    fn no_argv_panics_the_parser() {
        let flags = [
            "--system",
            "--workload",
            "--threads",
            "--scale",
            "--cache",
            "--retries",
            "--seed",
            "--timeline",
            "typical",
            "small",
            "large",
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
