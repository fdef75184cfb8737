//! `tmbench` — the benchmark of the LockillerTM simulator.
//!
//! ```text
//! tmbench [run] --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//!               [--out FILE] [--chrome-trace FILE] [--tag TEXT]
//! tmbench bless
//! tmbench compare A.jsonl B.jsonl
//! ```
//!
//! `run` measures one workload and prints, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. `--out` appends the full record (both sets plus host
//! facts) as one JSON line, the input of `compare`. `all` runs each
//! workload in a child process so each reports its own peak RSS.
//! `bless` rewrites `golden.json`; see `README.md`.

mod compare;
mod golden;
mod host;
mod measure;
mod metrics;
mod spans;
mod stats;
mod workloads;

use golden::Golden;
use measure::{Measured, Plan};
use metrics::Declared;
use sim_core::json::{escape, Json};
use std::io::Write;
use std::process::ExitCode;
use workloads::{DEFAULT_SEED, NAMES};

const USAGE: &str = "usage:
  tmbench [run] --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
                [--out FILE] [--chrome-trace FILE] [--tag TEXT]
  tmbench bless
  tmbench compare A.jsonl B.jsonl
workloads: stamp-host, vm-lockiller, vm-baseline, dpor";

/// Timed reps per run at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Set-up batches per run; `setup_s` is their median.
const SETUP_BATCHES: usize = 21;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    chrome_trace: Option<String>,
    tag: String,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        out: None,
        chrome_trace: None,
        tag: String::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => r.workload = value()?.clone(),
            "--seed" => r.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                r.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(r.seconds.is_finite() && r.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                r.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out" => r.out = Some(value()?.clone()),
            "--chrome-trace" => r.chrome_trace = Some(value()?.clone()),
            "--tag" => r.tag = value()?.clone(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if r.workload != "all" && !NAMES.contains(&r.workload.as_str()) {
        return Err(format!("--workload must be one of {NAMES:?} or all"));
    }
    if r.workload == "all" && r.chrome_trace.is_some() {
        return Err("--chrome-trace takes one workload, not all".to_string());
    }
    Ok(r)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("bless") if args.len() == 1 => bless(),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        Some("run") => parse_run(&args[1..]).and_then(|r| run(&r)),
        Some(a) if a.starts_with("--") => parse_run(&args).and_then(|r| run(&r)),
        _ => Err("expected a command".to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tmbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(r: &RunArgs) -> Result<ExitCode, String> {
    if r.workload == "all" {
        return run_all(r);
    }
    let cpus = host::cpus_allowed_list();
    if host::count_cpus(&cpus).is_none_or(|n| n > 1) {
        eprintln!(
            "[tmbench] warning: CPUs {cpus} allowed; host times are steadier pinned to one \
             (run.sh pins with taskset)"
        );
    }
    let plan = Plan {
        scale: stamp::Scale::Full,
        seed: r.seed,
        seconds: r.seconds,
        min_reps: MIN_REPS,
        setup_batches: SETUP_BATCHES,
    };
    let golden = Golden::committed()?;
    let mut spans = spans::Spans::new();
    let m = measure::measure(&r.workload, plan, Some(&golden), &mut spans)?;
    if let Some(path) = &r.chrome_trace {
        std::fs::write(path, spans.chrome_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    let decl = Declared::get();
    let e2e = metrics::end_to_end(&m);
    let layers = metrics::per_layer(&m);
    report(&r.workload, &m, &decl, &e2e, &layers);
    if let Some(path) = &r.out {
        let line = record(r, &cpus, &m, &e2e, &layers);
        append(path, &line)?;
    }
    let (shown, decls) = if r.trace {
        (&layers, &decl.per_layer)
    } else {
        (&e2e, &decl.end_to_end)
    };
    let metrics: Vec<String> = shown
        .iter()
        .zip(decls)
        .map(|((name, v), d)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(*v),
                escape(&d.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failed == 0,
        m.attempted,
        m.failed,
        metrics.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}

/// A JSON number with every digit Rust prints for `v` (NaN-free).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_obj(pairs: &[(&str, f64)]) -> String {
    let fields: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The full record `--out` appends: one JSON line per workload run.
fn record(
    r: &RunArgs,
    cpus: &str,
    m: &Measured,
    e2e: &[(&str, f64)],
    layers: &[(&str, f64)],
) -> String {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    format!(
        "{{\"workload\":\"{}\",\"tag\":\"{}\",\"seed\":{},\"seconds\":{},\"unix_time\":{unix_time},\
         \"cpus_allowed\":\"{}\",\"nproc\":{},\"reps\":{},\"setup_batches\":{},\
         \"attempted\":{},\"failed\":{},\"end_to_end\":{},\"per_layer\":{}}}",
        escape(&r.workload),
        escape(&r.tag),
        r.seed,
        r.seconds,
        escape(cpus),
        host::nproc(),
        m.rep_wall_s.len(),
        m.setup_s.len(),
        m.attempted,
        m.failed,
        json_obj(e2e),
        json_obj(layers)
    )
}

fn append(path: &str, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("{path}: {e}"))
}

/// Human-readable summary on stderr.
fn report(
    workload: &str,
    m: &Measured,
    decl: &Declared,
    e2e: &[(&str, f64)],
    layers: &[(&str, f64)],
) {
    let mut out = format!(
        "[tmbench {workload}] {} timed rep(s), {} set-up batch(es), {}/{} operation(s) failed\n",
        m.rep_wall_s.len(),
        m.setup_s.len(),
        m.failed,
        m.attempted
    );
    for ((name, v), d) in e2e
        .iter()
        .chain(layers)
        .zip(decl.end_to_end.iter().chain(&decl.per_layer))
    {
        out.push_str(&format!("  {name:<26} {v:>16.6} {}\n", d.unit));
    }
    eprint!("{out}");
}

/// `--workload all`: each workload in its own child process, one after
/// another; the last line aggregates them with `workload.metric` keys.
fn run_all(r: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", w, "--seed", &r.seed.to_string()])
            .args(["--seconds", &r.seconds.to_string()])
            .args(["--trace", if r.trace { "1" } else { "0" }, "--tag", &r.tag]);
        if let Some(out) = &r.out {
            cmd.args(["--out", out]);
        }
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        if !out.status.success() {
            return Err(format!("workload {w} exited with {}", out.status));
        }
        let last = stdout.lines().last().unwrap_or_default();
        let doc = sim_core::json::parse(last).map_err(|e| format!("{w}: result line: {e}"))?;
        let field = |k: &str| {
            doc.get(k)
                .ok_or_else(|| format!("{w}: result has no {k:?}"))
        };
        correct &= field("correct")? == &Json::Bool(true);
        attempted += field("attempted")?.as_f64().unwrap_or(0.0) as u64;
        failed += field("failed")?.as_f64().unwrap_or(0.0) as u64;
        if let Json::Obj(kv) = field("metrics")? {
            for (name, v) in kv {
                let value = v.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
                metrics.push(format!(
                    "\"{w}.{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    num(value),
                    escape(unit)
                ));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(ExitCode::SUCCESS)
}

/// Re-record every workload's outputs at the default seed into
/// `golden.json` (one untimed pass each; outputs must repeat across the
/// pass's reps).
fn bless() -> Result<ExitCode, String> {
    let plan = Plan {
        scale: stamp::Scale::Full,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        min_reps: 1,
        setup_batches: 1,
    };
    let mut outputs = std::collections::BTreeMap::new();
    for w in NAMES {
        let m = measure::measure(w, plan, None, &mut spans::Spans::new())?;
        if m.failed > 0 {
            return Err(format!(
                "{w}: {} operation(s) failed; not blessing",
                m.failed
            ));
        }
        eprintln!("[tmbench bless] {w}: {} output(s)", m.outputs.len());
        outputs.extend(m.outputs);
    }
    let g = Golden {
        seed: DEFAULT_SEED,
        scale: stamp::Scale::Full.name().to_string(),
        outputs,
    };
    std::fs::write(golden::PATH, g.to_json()).map_err(|e| format!("{}: {e}", golden::PATH))?;
    eprintln!("[tmbench bless] wrote {}", golden::PATH);
    Ok(ExitCode::SUCCESS)
}
