//! Static lint CLI for `ProgSpec` kernels and compiled VM bytecode.
//!
//! ```text
//! tmlint --prog SPEC [--system NAME] [--tiny-l1] [--json]
//!        [--baseline FILE] [--table]
//! tmlint kernel (--prog SPEC | --stamp kmeans+|kmeans|intruder-flow) [--threads N]
//!        [--system NAME] [--tiny-l1] [--json] [--baseline FILE] [--table]
//! ```
//!
//! `--threads` takes 1..=32, the most cores a system models.
//!
//! Both modes run one analysis: the guest bytecode is abstractly
//! interpreted (`tmstatic::vmabs`) and projected onto the system
//! (`tmstatic::VmAnalysis`), and one rule set (`tmstatic::vmlint`)
//! reports on it. `--prog` compiles the spec under the standard runner
//! arena layout — exactly what `tmverify` explores;
//! `--stamp` (kernel mode only) takes a STAMP kernel program by the name
//! every other binary uses (`kmeans+`, `kmeans`, `intruder-flow`); any
//! other name is bad usage. The modes differ only in
//! how diagnostics name positions: the default spec mode reports
//! (thread, segment, op) indices of the spec and spec line indices
//! (`tmstatic::lint`); kernel mode reports (thread, critical-region
//! ordinal, instruction pc) and physical line numbers
//! (`tmstatic::lint_kernels`). Both share the simulator geometry
//! `tmverify` explores (`--tiny-l1` matches the explorer's shrunk L1),
//! the stable one-JSON-object-per-line schema, and the `--baseline`
//! diff protocol. `--table` reports the DPOR pruning table the analysis
//! would hand the explorer.
//!
//! `--baseline FILE` compares against a checked-in baseline (the
//! `--json` output of a blessed run): only diagnostics *not* present in
//! the baseline count. CI uses this to fail on new diagnostics without
//! re-litigating known ones.
//!
//! Exit codes: 0 no (new) error-severity diagnostics, 1 at least one
//! (new) error, 2 bad usage or unreadable input. A malformed command
//! line, a `--prog` spec that does not parse included, prints
//! `tmlint: MSG` and the usage text and exits 2.

use lockiller::SystemKind;
use sim_core::cli::{report, usage_error, Args, Report, Usage};
use sim_core::config::MAX_CORES;
use std::io::{self, Write};
use tmstatic::{lint, lint_kernels, Diag, Severity, VmAnalysis};
use tmverify::progs::ProgSpec;
use tmverify::Explorer;

const BIN: &str = "tmlint";

const USAGE: &str = "usage: tmlint --prog SPEC [--system NAME] [--tiny-l1] [--json]\n\
     \x20             [--baseline FILE] [--table]\n\
     \x20      tmlint kernel (--prog SPEC | --stamp kmeans+|kmeans|intruder-flow) [--threads N]\n\
     \x20             [--system NAME] [--tiny-l1] [--json] [--baseline FILE] [--table]";

/// The bytecode of a STAMP kernel program for N threads.
type StampKernels = fn(usize) -> Vec<guestvm::Kernel>;

/// What to lint: a `--prog` spec (in kernel mode, the kernels it
/// compiles to), or a `--stamp` program by name at `--threads`.
enum Subject {
    Prog(ProgSpec),
    Stamp(String, StampKernels, usize),
}

struct Opts {
    kernel_mode: bool,
    subject: Subject,
    system: SystemKind,
    tiny_l1: bool,
    json: bool,
    table: bool,
    baseline: Option<std::path::PathBuf>,
}

fn parse_args(mut args: Args) -> Result<Opts, Usage> {
    let kernel_mode = args.peek() == Some("kernel");
    if kernel_mode {
        args.next();
    }
    let (mut prog, mut stamp, mut threads) = (None, None, 2);
    let (mut system, mut tiny_l1, mut json, mut table) =
        (SystemKind::LockillerRwi, false, false, false);
    let mut baseline = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--prog" | "-p" => prog = Some(args.value("--prog")?),
            "--stamp" if kernel_mode => {
                stamp = Some(args.read("--stamp", |v| Some((v.to_string(), stamp_kernels(v)?)))?);
            }
            "--threads" if kernel_mode => threads = args.number("--threads", 1..=MAX_CORES)?,
            "--system" | "-s" => system = args.read("--system", SystemKind::from_name)?,
            "--tiny-l1" => tiny_l1 = true,
            "--json" => json = true,
            "--table" => table = true,
            "--baseline" => baseline = Some(args.value("--baseline")?.into()),
            other => return Err(Usage::unknown(other)),
        }
    }
    let subject = match (prog, stamp) {
        (Some(p), None) => {
            Subject::Prog(ProgSpec::parse(&p).map_err(|e| Usage::Error(e.to_string()))?)
        }
        (None, Some((name, kernels))) => Subject::Stamp(name, kernels, threads),
        _ if !kernel_mode => return Err(Usage::Error("--prog is required".into())),
        _ => {
            let msg = "kernel mode needs exactly one of --prog / --stamp";
            return Err(Usage::Error(msg.into()));
        }
    };
    Ok(Opts {
        kernel_mode,
        subject,
        system,
        tiny_l1,
        json,
        table,
        baseline,
    })
}

/// Print the diagnostics, tagging those the optional baseline already
/// holds. The status, settled before the first line, is 1 iff a new
/// diagnostic is an error.
fn print_diags(out: &mut Report, diags: &[Diag], o: &Opts, subject: &str) -> io::Result<()> {
    let known: Vec<String> = match &o.baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => text.lines().map(str::to_string).collect(),
            Err(e) => {
                eprintln!("tmlint: cannot read {}: {e}", path.display());
                std::process::exit(2);
            }
        },
        None => Vec::new(),
    };
    let is_new = |d: &Diag| !known.contains(&d.to_json());
    let new_any = diags.iter().filter(|d| is_new(d)).count();
    out.status = i32::from(
        diags
            .iter()
            .any(|d| is_new(d) && d.severity == Severity::Error),
    );
    for d in diags {
        if o.json {
            writeln!(out, "{}", d.to_json())?;
        } else {
            let tag = if o.baseline.is_some() && !is_new(d) {
                " (baseline)"
            } else {
                ""
            };
            writeln!(out, "{}{tag}", d.render())?;
        }
    }
    if !o.json {
        eprintln!(
            "tmlint: {} diagnostic(s){} on {} ({})",
            diags.len(),
            if o.baseline.is_some() {
                format!(", {new_any} new vs baseline")
            } else {
                String::new()
            },
            subject,
            o.system.name(),
        );
    }
    Ok(())
}

fn print_table(t: Option<lockiller::StaticIndependence>) {
    match t {
        Some(t) => {
            let foot: Vec<String> = t.bank_foot.iter().map(|f| format!("{f:#b}")).collect();
            eprintln!(
                "tmlint: pruning table: pure={:#b} bank_foot=[{}]",
                t.pure,
                foot.join(", ")
            );
        }
        None => eprintln!("tmlint: pruning table unavailable (premises not provable)"),
    }
}

/// Explorer-identical geometry for `threads` simulated threads.
fn geometry(threads: usize, tiny_l1: bool) -> sim_core::config::SystemConfig {
    // Reuse Explorer::config so tmlint can never drift from what
    // `tmverify` simulates; the spec itself is irrelevant beyond its
    // thread count.
    let mut ex = Explorer::new(
        SystemKind::LockillerRwi,
        ProgSpec::conflict_ring(threads, 1),
    );
    ex.tiny_l1 = tiny_l1;
    ex.config()
}

fn main() {
    let o = parse_args(Args::from_env()).unwrap_or_else(|e| usage_error(BIN, USAGE, &e));
    let (a, diags, subject) = match (o.kernel_mode, &o.subject) {
        (false, Subject::Prog(spec)) => {
            let cfg = geometry(spec.num_threads(), o.tiny_l1);
            let a = VmAnalysis::of_spec(o.system, spec, cfg);
            let diags = lint(&a, spec);
            (a, diags, spec.render())
        }
        (_, subject) => {
            let (kernels, subject) = match subject {
                Subject::Prog(spec) => (
                    tmverify::progs::SpecProgram::compile_all(spec),
                    format!("kernels of {}", spec.render()),
                ),
                Subject::Stamp(name, kernels, threads) => {
                    (kernels(*threads), format!("stamp {name} x{threads}"))
                }
            };
            let cfg = geometry(kernels.len(), o.tiny_l1);
            let a = VmAnalysis::new(o.system, cfg, &kernels);
            let diags = lint_kernels(&a);
            (a, diags, subject)
        }
    };
    report(BIN, |out| {
        print_diags(out, &diags, &o, &subject)?;
        if o.table {
            print_table(a.independence());
        }
        Ok(())
    })
}

/// The STAMP kernel programs `--stamp` takes, named as
/// [`stamp::WorkloadKind::name`] names them (kmeans+ is the
/// high-contention kmeans), or `intruder-flow`: each compiles its
/// bytecode at `Scale::Tiny`.
fn stamp_kernels(name: &str) -> Option<StampKernels> {
    use stamp::kmeans::Kmeans;
    use stamp::{Scale, WorkloadKind};
    match WorkloadKind::from_name(name) {
        Some(WorkloadKind::KmeansHigh) => {
            Some(|threads| Kmeans::new(Scale::Tiny, threads, true).compile_standalone())
        }
        Some(WorkloadKind::KmeansLow) => {
            Some(|threads| Kmeans::new(Scale::Tiny, threads, false).compile_standalone())
        }
        _ if name.eq_ignore_ascii_case("intruder-flow") => {
            Some(|threads| stamp::vm::IntruderFlow::new(Scale::Tiny, threads).compile_standalone())
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::SimRng;

    #[test]
    fn every_flag_reaches_its_field() {
        let spec = "2/c:L0,S1/c:L1,S0";
        let args = ["-p", spec, "-s", "lockillertm", "--tiny-l1", "--json"];
        let o = parse_args(Args::new(
            [&args[..], &["--table", "--baseline", "b.jsonl"]].concat(),
        ))
        .unwrap();
        assert!(!o.kernel_mode);
        assert!(matches!(&o.subject, Subject::Prog(p) if *p == ProgSpec::parse(spec).unwrap()));
        assert_eq!(o.system, SystemKind::LockillerTm);
        assert!(o.tiny_l1 && o.json && o.table);
        assert_eq!(o.baseline, Some("b.jsonl".into()));
        let o = parse_args(Args::new([
            "kernel",
            "--stamp",
            "KMEANS+",
            "--threads",
            "3",
        ]))
        .unwrap();
        assert!(o.kernel_mode);
        let Subject::Stamp(name, kernels, threads) = o.subject else {
            panic!("a stamp program")
        };
        assert_eq!((name.as_str(), kernels(threads).len()), ("KMEANS+", 3));
    }

    /// About 10,000 argvs of up to six of the binary's own tokens: the
    /// parser returns for each, and refuses with a message unless the
    /// argv asked for help.
    #[test]
    fn no_argv_panics_the_parser() {
        let flags = [
            "kernel",
            "--prog",
            "-p",
            "--stamp",
            "--threads",
            "--system",
            "-s",
            "--tiny-l1",
            "--json",
            "--table",
            "--baseline",
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
        let kernels = [
            "2/c:L0,S1/p:L1",
            "2/c:L5",
            "kmeans+",
            "kmeans",
            "intruder-flow",
        ];
        let names = [
            SystemKind::ALL.map(SystemKind::name).to_vec(),
            stamp::WorkloadKind::ALL
                .map(stamp::WorkloadKind::name)
                .to_vec(),
            stamp::Scale::ALL.map(stamp::Scale::name).to_vec(),
        ]
        .concat();
        let junk = ["--junk", "-h", "--help"];
        let tokens = [&flags[..], &values, &kernels, &names, &junk].concat();
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
