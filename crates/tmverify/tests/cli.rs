//! `tmverify` command-line behaviour: out-of-range sizes are usage
//! errors (exit 2), never panics, and `--profile` prints the merged host
//! profile after an unchanged report.

use std::process::{Command, Output};

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
fn witness_with_too_many_threads_is_rejected() {
    let dir = std::env::temp_dir().join(format!("tmverify-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wide.json");
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
    std::fs::write(&path, w.to_json()).unwrap();
    let out = tmverify(&["replay", path.to_str().unwrap()]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("32-core maximum"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
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
