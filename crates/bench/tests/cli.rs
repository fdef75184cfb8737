//! Command-line behaviour: a `lockiller_sim` thread count outside the
//! modelled cores is a usage error (exit 2), never a panic, while one
//! thread still runs; an `experiments` job count that is not a number is
//! a usage error too, never a silent single-job run.

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

#[test]
fn experiments_rejects_a_job_count_that_is_not_a_number() {
    let run = |args: &[&str], env: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
        cmd.args(args).arg("--no-cache").arg("table2");
        match env {
            Some(v) => cmd.env("LOCKILLER_JOBS", v),
            None => cmd.env_remove("LOCKILLER_JOBS"),
        };
        cmd.output().expect("experiments runs")
    };
    for (out, name) in [
        (run(&["--jobs", "abc"], None), "--jobs"),
        (run(&[], Some("abc")), "LOCKILLER_JOBS"),
    ] {
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {err}");
        assert!(err.contains(&format!("{name} takes a job count")), "{err}");
        assert!(err.contains("\"abc\""), "{err}");
    }
}
