//! `tmverify` command-line behaviour: out-of-range sizes and malformed
//! witness files are usage errors (exit 2), never panics, a value flag
//! never takes the option after it as its value, the safety net is off
//! unless `--safety-net` turns it on, `--profile` prints the merged host
//! profile after an unchanged report, stdout does not depend on the job
//! count or the output paths, a reader that closes early changes neither
//! the status nor the files, and a witness path that cannot be written
//! exits 2, not 1.

use std::process::{Command, Output, Stdio};

fn tmverify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tmverify"))
        .args(args)
        .output()
        .expect("tmverify runs")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn core_counts_beyond_the_model_are_usage_errors() {
    let threads33 = format!("1{}", "/c:L0".repeat(33));
    for args in [
        vec!["--cores", "40"],
        vec!["--cores", "33", "--random-prog", "7"],
        vec!["--cores", "0"],
        vec!["--lines", "0"],
        vec!["--prog", threads33.as_str()],
    ] {
        let out = tmverify(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: tmverify"), "{args:?}: {err}");
    }
}

#[test]
fn oversized_specs_are_usage_errors() {
    for (args, why) in [
        (
            vec!["--prog", "18446744073709551615/c:L0"],
            "lines exceed the 65536-line maximum",
        ),
        (
            vec!["--prog", "1/c:C18446744073709551615"],
            "computes more than 4294967296 instructions",
        ),
        (vec!["--lines", "65537"], "--lines takes 1..=65536"),
        (vec!["--lines", "18446744073709551615"], "--lines takes"),
        (vec!["--jobs", "0"], "--jobs takes 1..=256"),
        (vec!["-j", "257"], "--jobs takes 1..=256"),
        (vec!["--jobs", "18446744073709551615"], "--jobs takes"),
    ] {
        let out = tmverify(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(why), "{args:?}: {err}");
    }
}

/// Run `tmverify replay` on a witness file holding `text`.
fn replay(name: &str, text: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("tmverify-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("witness.json");
    std::fs::write(&path, text).unwrap();
    let out = tmverify(&["replay", path.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[test]
fn deeply_nested_witness_is_rejected() {
    let out = replay("deep", &("[".repeat(100_000) + &"]".repeat(100_000)));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("nesting deeper than 128"), "{err}");
}

#[test]
fn witness_with_bad_decisions_is_rejected() {
    let w = tmobs::Witness {
        version: tmobs::WITNESS_VERSION,
        title: "bad decisions".into(),
        system: "LockillerTM".into(),
        cores: 2,
        lines: 2,
        prog: "2/c:L0,S1/c:L1,S0".into(),
        inject: vec!["drop-wakeups".into()],
        no_safety_net: true,
        tiny_l1: false,
        retries: None,
        decisions: vec![7],
        violation_kind: "deadlock".into(),
        violation_message: String::new(),
    };
    let text = w.to_json().replace("[7]", "[1e30, -1, 0.5]");
    let out = replay("decisions", &text);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("\"decisions\""), "{err}");
    assert!(!stdout(&out).contains("reproduced"), "{}", stdout(&out));
}

#[test]
fn witness_with_too_many_threads_is_rejected() {
    let w = tmobs::Witness {
        version: tmobs::WITNESS_VERSION,
        title: "wide".into(),
        system: "LockillerTM".into(),
        cores: 33,
        lines: 1,
        prog: format!("1{}", "/c:L0".repeat(33)),
        inject: Vec::new(),
        no_safety_net: true,
        tiny_l1: false,
        retries: None,
        decisions: Vec::new(),
        violation_kind: "deadlock".into(),
        violation_message: String::new(),
    };
    assert!(tmverify::Explorer::from_witness(&w).is_err());
    let out = replay("wide", &w.to_json());
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("32-core maximum"), "{err}");
}

#[test]
fn profile_flag_prints_the_merged_phase_tree() {
    let plain = tmverify(&["--cores", "2", "--lines", "2"]);
    let profiled = tmverify(&["--cores", "2", "--lines", "2", "--profile"]);
    assert_eq!(plain.status.code(), Some(0));
    assert_eq!(profiled.status.code(), Some(0));
    let (plain, profiled) = (stdout(&plain), stdout(&profiled));
    assert!(
        profiled.starts_with(&plain),
        "the report must not move:\n{plain}\n---\n{profiled}"
    );
    let table = &profiled[plain.len()..];
    assert!(table.starts_with("host profile:"), "{table}");
    assert!(table.contains("run;dequeue;sched_pick"), "{table}");
}

#[test]
fn stdout_is_identical_across_job_counts_and_output_paths() {
    let dir = std::env::temp_dir().join(format!("tmverify-cli-jobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |jobs: &str, name: &str| {
        let json = dir.join(name);
        let path = json.to_str().unwrap();
        let args = ["--cores", "3", "--lines", "3", "--jobs", jobs];
        let out = tmverify(&[&args[..], &["--bench-json", path]].concat());
        assert_eq!(out.status.code(), Some(0), "{}", stdout(&out));
        assert!(json.exists(), "--bench-json {name} was not written");
        (
            stdout(&out),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let ((a, _), (b, err)) = (run("2", "verify-a.json"), run("4", "verify-b.json"));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(a, b);
    assert!(a.contains("schedule(s) explored"), "{a}");
    // The header and the file notice still reach the user, on stderr.
    assert!(err.contains("jobs 4") && err.contains("wrote "), "{err}");
}

#[test]
fn a_closed_reader_keeps_the_verdict_and_the_witness() {
    let dir = std::env::temp_dir().join(format!("tmverify-cli-closed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let witness = dir.join("w.json");
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_tmverify"))
        .args([
            "--inject",
            "drop-wakeups",
            "--out",
            witness.to_str().unwrap(),
        ])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("tmverify runs");
    let written = witness.exists();
    std::fs::remove_dir_all(&dir).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(out.status.code(), Some(1), "the violation's status: {err}");
    assert!(written, "the witness is written before the report");
}

#[test]
fn an_unwritable_witness_path_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("tmverify-cli-nodir-{}", std::process::id()));
    let witness = dir.join("missing").join("w.json");
    let out = tmverify(&[
        "--inject",
        "drop-wakeups",
        "--out",
        witness.to_str().unwrap(),
    ]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "not the violation's 1: {err}");
    assert!(err.contains("cannot write"), "{err}");
    assert!(!witness.exists());
}

#[test]
fn a_value_flag_never_takes_the_next_option() {
    let dir = std::env::temp_dir().join(format!("tmverify-cli-swallow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_tmverify"))
        .args(["--inject", "drop-wakeups", "--out", "--profile"])
        .current_dir(&dir)
        .output()
        .expect("tmverify runs");
    let swallowed = dir.join("--profile").exists();
    std::fs::remove_dir_all(&dir).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("tmverify: --out takes a value"), "{err}");
    assert!(!swallowed, "the witness went to a file named --profile");
}

#[test]
fn the_safety_net_is_off_unless_asked_for() {
    for (args, header) in [
        (&[][..], "safety net off"),
        (&["--safety-net"], "safety net on"),
    ] {
        let out = tmverify(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(err.contains(header), "{args:?}: {err}");
    }
    let out = tmverify(&["--no-safety-net"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("unknown option --no-safety-net"), "{err}");
}
