//! Command-line behaviour: a `lockiller_sim` thread count outside the
//! modelled cores is a usage error (exit 2), never a panic, while one
//! thread still runs; `--seed` reads decimal or `0x` hex, and anything
//! else is a usage error. `experiments` treats an unknown flag, a value flag
//! without its value, a job count that is not a number and an unknown
//! experiment name as usage errors too, found before any experiment runs,
//! never as a silently different run. `-h` and `--help` print the usage
//! text alone. Neither binary panics when its reader has closed, and an
//! output file `experiments` cannot write is a plain error (exit 2).

use std::process::{Command, Output, Stdio};

/// Run `bin` in a fresh temporary directory with its stdout a pipe whose
/// read end is already closed, so its first write meets a closed reader.
fn with_closed_stdout(bin: &str, args: &[&str]) -> Output {
    let name = std::path::Path::new(bin)
        .file_name()
        .unwrap()
        .to_string_lossy();
    let dir = std::env::temp_dir().join(format!("{name}-closed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("the binary runs");
    std::fs::remove_dir_all(&dir).ok();
    out
}

fn lockiller_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lockiller_sim"))
        .args(args)
        .output()
        .expect("lockiller_sim runs")
}

#[test]
fn thread_counts_outside_the_cores_are_usage_errors() {
    for threads in ["0", "33", "64"] {
        let out = lockiller_sim(&["--threads", threads]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: {err}");
        assert!(err.contains("--threads takes 1..=32"), "{err}");
        assert!(err.contains("usage: lockiller_sim"), "{err}");
    }
}

#[test]
fn one_thread_runs() {
    let out = lockiller_sim(&["--workload", "kmeans", "--scale", "tiny", "--threads", "1"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("cycles"));
}

#[test]
fn seed_is_decimal_or_prefixed_hex() {
    let run = |seed: &str| {
        lockiller_sim(&[
            "--workload",
            "intruder",
            "--system",
            "Baseline",
            "--scale",
            "tiny",
            "--threads",
            "2",
            "--seed",
            seed,
        ])
    };
    let (dec, hex) = (run("16"), run("0x10"));
    assert_eq!(dec.status.code(), Some(0), "{dec:?}");
    assert_eq!(dec.stdout, hex.stdout, "--seed 16 and --seed 0x10 differ");
    for bad in ["c0ffee", "0x", "ten"] {
        let out = run(bad);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--seed {bad}: {err}");
        assert!(err.contains("usage: lockiller_sim"), "{err}");
    }
}

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments runs")
}

#[test]
fn experiments_rejects_a_job_count_that_is_not_a_number() {
    let out = experiments(&["--jobs", "abc", "table2"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("--jobs takes 1..=256, got \"abc\""), "{err}");
}

#[test]
fn experiments_rejects_unknown_flags_and_missing_values() {
    for (args, want) in [
        (&["--quik", "fig1"][..], "unknown option --quik"),
        (&["--no-cache", "table2"], "unknown option --no-cache"),
        (
            &["--cache", "lab.jsonl", "table2"],
            "unknown option --cache",
        ),
        (&["table1", "--csv"], "--csv takes a value"),
        (&["--csv", "--quick", "table1"], "--csv takes a value"),
        (&["table2", "--bench-json"], "--bench-json takes a value"),
        (&["table2", "--jobs"], "--jobs takes a value"),
        (
            &["--jobs", "0", "table2"],
            "--jobs takes 1..=256, got \"0\"",
        ),
        (
            &["--jobs", "257", "table2"],
            "--jobs takes 1..=256, got \"257\"",
        ),
        (
            &["--jobs", "18446744073709551615", "table2"],
            "--jobs takes 1..=256, got \"18446744073709551615\"",
        ),
        (&["table2", "bogus"], "unknown experiment bogus"),
        (&["engine"], "unknown experiment engine"),
        (&["verify"], "unknown experiment verify"),
        (&["--no-profile", "table2"], "unknown option --no-profile"),
    ] {
        let out = experiments(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(want), "{args:?}: {err}");
        assert!(err.contains("usage: experiments"), "{args:?}: {err}");
        // The usage lists every experiment name, `plots` included.
        assert!(err.contains(" plots "), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
    }
}

#[test]
fn help_prints_the_usage_text_alone() {
    for bin in [
        env!("CARGO_BIN_EXE_experiments"),
        env!("CARGO_BIN_EXE_lockiller_sim"),
    ] {
        for flag in ["-h", "--help"] {
            let out = Command::new(bin)
                .arg(flag)
                .output()
                .expect("the binary runs");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {flag}: {err}");
            assert!(err.starts_with("usage: "), "{bin} {flag}: {err}");
            assert!(out.stdout.is_empty(), "{bin} {flag} ran");
        }
    }
}

#[test]
fn reports_end_quietly_when_their_reader_closes() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_experiments"), &["table1", "table2"][..]),
        (
            env!("CARGO_BIN_EXE_lockiller_sim"),
            &["--workload", "kmeans", "--scale", "tiny", "--threads", "2"],
        ),
    ] {
        let out = with_closed_stdout(bin, args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(!err.contains("panicked"), "{bin}: {err}");
        // Nothing failed but the report: the status of the work so far.
        assert_eq!(out.status.code(), Some(0), "{bin}: {err}");
    }
}

#[test]
fn an_unwritable_bench_json_is_a_plain_error() {
    let path = std::env::temp_dir()
        .join(format!("experiments-missing-{}", std::process::id()))
        .join("lab.json");
    let out = experiments(&["--bench-json", path.to_str().unwrap(), "table2"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains(&format!("experiments: cannot write {}", path.display())),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
    // The experiment ran and printed before the write failed.
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("TABLE II."));
}
