//! Static lint CLI for `ProgSpec` kernels and compiled VM bytecode.
//!
//! ```text
//! tmlint --prog SPEC [--system NAME] [--tiny-l1] [--json]
//!        [--baseline FILE] [--table]
//! tmlint kernel (--prog SPEC | --stamp NAME) [--threads N]
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
//! (new) error, 2 bad usage or unreadable input.

use lockiller::SystemKind;
use sim_core::cli::{report, Report};
use sim_core::config::MAX_CORES;
use std::io::{self, Write};
use tmstatic::{lint, lint_kernels, Diag, Severity, VmAnalysis};
use tmverify::progs::ProgSpec;
use tmverify::Explorer;

fn usage() -> ! {
    eprintln!(
        "usage: tmlint --prog SPEC [--system NAME] [--tiny-l1] [--json]\n\
         \x20             [--baseline FILE] [--table]\n\
         \x20      tmlint kernel (--prog SPEC | --stamp NAME) [--threads N]\n\
         \x20             [--system NAME] [--tiny-l1] [--json] [--baseline FILE] [--table]"
    );
    std::process::exit(2);
}

struct Opts {
    kernel_mode: bool,
    prog: Option<String>,
    stamp: Option<String>,
    threads: usize,
    system: SystemKind,
    tiny_l1: bool,
    json: bool,
    table: bool,
    baseline: Option<std::path::PathBuf>,
}

fn parse_args() -> Opts {
    let mut it = std::env::args().skip(1).peekable();
    let kernel_mode = it.peek().is_some_and(|a| a == "kernel");
    if kernel_mode {
        it.next();
    }
    let mut o = Opts {
        kernel_mode,
        prog: None,
        stamp: None,
        threads: 2,
        system: SystemKind::LockillerRwi,
        tiny_l1: false,
        json: false,
        table: false,
        baseline: None,
    };
    while let Some(a) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--prog" | "-p" => o.prog = Some(val()),
            "--stamp" if kernel_mode => o.stamp = Some(val()),
            "--threads" if kernel_mode => {
                let v = val();
                let Some(n) = v
                    .parse::<usize>()
                    .ok()
                    .filter(|n| (1..=MAX_CORES).contains(n))
                else {
                    eprintln!("tmlint: --threads takes 1..={MAX_CORES}, got {v:?}");
                    usage();
                };
                o.threads = n;
            }
            "--system" | "-s" => {
                let v = val();
                let Some(k) = SystemKind::from_name(&v) else {
                    eprintln!("tmlint: unknown system {v:?}");
                    usage();
                };
                o.system = k;
            }
            "--tiny-l1" => o.tiny_l1 = true,
            "--json" => o.json = true,
            "--table" => o.table = true,
            "--baseline" => o.baseline = Some(val().into()),
            "-h" | "--help" => usage(),
            other => {
                eprintln!("tmlint: unknown argument {other:?}");
                usage();
            }
        }
    }
    o
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

fn parse_spec(prog: &str) -> ProgSpec {
    ProgSpec::parse(prog).unwrap_or_else(|e| {
        eprintln!("tmlint: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let o = parse_args();
    let (a, diags, subject) = match (o.kernel_mode, &o.prog, &o.stamp) {
        (false, Some(p), None) => {
            let spec = parse_spec(p);
            let cfg = geometry(spec.num_threads(), o.tiny_l1);
            let a = VmAnalysis::of_spec(o.system, &spec, cfg);
            let diags = lint(&a, &spec);
            (a, diags, spec.render())
        }
        (false, ..) => {
            eprintln!("tmlint: --prog is required");
            usage();
        }
        (true, p, s) => {
            let (kernels, subject) = match (p, s) {
                (Some(p), None) => {
                    let spec = parse_spec(p);
                    let subject = format!("kernels of {}", spec.render());
                    (tmverify::progs::SpecProgram::compile_all(&spec), subject)
                }
                (None, Some(name)) => (
                    stamp_kernels(name, o.threads),
                    format!("stamp {name} x{}", o.threads),
                ),
                _ => {
                    eprintln!("tmlint: kernel mode needs exactly one of --prog / --stamp");
                    usage();
                }
            };
            let cfg = geometry(kernels.len(), o.tiny_l1);
            let a = VmAnalysis::new(o.system, cfg, &kernels);
            let diags = lint_kernels(&a);
            (a, diags, subject)
        }
    };
    report("tmlint", |out| {
        print_diags(out, &diags, &o, &subject)?;
        if o.table {
            print_table(a.independence());
        }
        Ok(())
    })
}

/// The bytecode of a STAMP kernel program at `Scale::Tiny`: a ladder
/// workload named as [`stamp::WorkloadKind::name`] names it (kmeans+ is
/// the high-contention kmeans), or `intruder-flow`.
fn stamp_kernels(name: &str, threads: usize) -> Vec<guestvm::Kernel> {
    use stamp::kmeans::Kmeans;
    use stamp::{Scale, WorkloadKind};
    match WorkloadKind::from_name(name) {
        Some(WorkloadKind::KmeansHigh) => {
            Kmeans::new(Scale::Tiny, threads, true).compile_standalone()
        }
        Some(WorkloadKind::KmeansLow) => {
            Kmeans::new(Scale::Tiny, threads, false).compile_standalone()
        }
        _ if name.eq_ignore_ascii_case("intruder-flow") => {
            stamp::vm::IntruderFlow::new(Scale::Tiny, threads).compile_standalone()
        }
        _ => {
            eprintln!("tmlint: {name:?} is not a kernel program (kmeans+, kmeans, intruder-flow)");
            usage();
        }
    }
}
