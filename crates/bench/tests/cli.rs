//! Command-line behaviour: a `lockiller_sim` thread count outside the
//! modelled cores is a usage error (exit 2), never a panic, while one
//! thread still runs. `experiments` treats an unknown flag, a value flag
//! without its value and a job count that is not a number as usage
//! errors too, never as a silently different run.

use std::process::{Command, Output};

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
    assert!(
        err.contains("--jobs takes a job count, got \"abc\""),
        "{err}"
    );
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
    ] {
        let out = experiments(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(want), "{args:?}: {err}");
        assert!(err.contains("usage: experiments"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
    }
}
