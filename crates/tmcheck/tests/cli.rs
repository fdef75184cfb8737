//! `tmcheck` command-line behaviour: a thread count outside the modelled
//! cores is a usage error (exit 2), never a panic; `--seed` reads
//! decimal or `0x` hex, and anything else is a usage error; a reader
//! that closes early ends the checks quietly, never with a panic.

use std::process::{Command, Output, Stdio};

fn tmcheck(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tmcheck"))
        .args(args)
        .output()
        .expect("tmcheck runs")
}

#[test]
fn seed_is_decimal_or_prefixed_hex() {
    let run = |seed: &str| {
        tmcheck(&[
            "--workload",
            "intruder",
            "--system",
            "Baseline",
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
        assert!(err.contains("usage: tmcheck"), "{err}");
    }
}

#[test]
fn thread_counts_outside_the_cores_are_usage_errors() {
    for threads in ["0", "33", "64"] {
        let out = tmcheck(&["--threads", threads]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: {err}");
        assert!(err.contains("--threads takes 1..=32"), "{err}");
        assert!(err.contains("usage: tmcheck"), "{err}");
    }
}

#[test]
fn checks_end_quietly_when_their_reader_closes() {
    // The read end is closed before the first run's line is written.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_tmcheck"))
        .args(["--workload", "ssca2", "--threads", "2"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("tmcheck runs");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    // The one run checked so far is clean.
    assert_eq!(out.status.code(), Some(0), "{err}");
}
