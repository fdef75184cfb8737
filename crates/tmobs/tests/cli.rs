//! `tmtrace` command-line behaviour: a thread count outside the modelled
//! cores is a usage error (exit 2), never a panic; `--seed` reads
//! decimal or `0x` hex, and anything else is a usage error; a value flag
//! never takes the option after it as its value; a report whose reader
//! closes early ends quietly with the command's status; an `--out`
//! directory that cannot be created is a plain error (exit 2).

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

fn tmtrace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tmtrace"))
        .args(args)
        .output()
        .expect("tmtrace runs")
}

#[test]
fn seed_is_decimal_or_prefixed_hex() {
    let out = std::env::temp_dir().join(format!("tmtrace-seed-{}", std::process::id()));
    let dir = out.to_str().expect("temp path is UTF-8");
    let run = |seed: &str| {
        tmtrace(&[
            "--workload",
            "intruder",
            "--system",
            "Baseline",
            "--scale",
            "tiny",
            "--threads",
            "2",
            "--out",
            dir,
            "--seed",
            seed,
        ])
    };
    let (dec, hex) = (run("16"), run("0x10"));
    std::fs::remove_dir_all(&out).ok();
    assert_eq!(dec.status.code(), Some(0), "{dec:?}");
    assert_eq!(dec.stdout, hex.stdout, "--seed 16 and --seed 0x10 differ");
    for bad in ["c0ffee", "0x", "ten"] {
        let out = run(bad);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--seed {bad}: {err}");
        assert!(err.contains("usage: tmtrace"), "{err}");
    }
}

#[test]
fn thread_counts_outside_the_cores_are_usage_errors() {
    for threads in ["0", "33", "64"] {
        let out = tmtrace(&["--threads", threads]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: {err}");
        assert!(err.contains("--threads takes 1..=32"), "{err}");
        assert!(err.contains("usage: tmtrace"), "{err}");
    }
}

#[test]
fn diff_ends_quietly_when_its_reader_closes() {
    let dir = std::env::temp_dir().join(format!("tmtrace-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // 2,000 leaves that all differ: about 180 KiB of report, more than a
    // pipe holds, so the writer meets the closed pipe mid-report.
    let doc = |base: u64| {
        let leaves: Vec<String> = (0..2000)
            .map(|i| format!("\"leaf{i}\":{}", base + i))
            .collect();
        format!("{{{}}}", leaves.join(","))
    };
    let (a, b) = (dir.join("a.json"), dir.join("b.json"));
    std::fs::write(&a, doc(0)).expect("write a.json");
    std::fs::write(&b, doc(1)).expect("write b.json");
    let mut child = Command::new(env!("CARGO_BIN_EXE_tmtrace"))
        .args(["diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("tmtrace runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("first line");
    // The reader is dropped: the rest of the report meets a closed pipe.
    let out = child.wait_with_output().expect("tmtrace exits");
    std::fs::remove_dir_all(&dir).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(first.starts_with("2000 delta(s)"), "{first}");
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn an_unwritable_out_directory_is_a_plain_error() {
    // A regular file where the artifact directory should go.
    let file = std::env::temp_dir().join(format!("tmtrace-out-file-{}", std::process::id()));
    std::fs::write(&file, "").expect("temp file");
    let out = tmtrace(&["--threads", "2", "--out", file.to_str().unwrap()]);
    std::fs::remove_file(&file).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(
        err.contains(&format!("tmtrace: cannot write {}", file.display())),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn a_value_flag_never_takes_the_next_option() {
    let dir = std::env::temp_dir().join(format!("tmtrace-swallow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_tmtrace"))
        .args(["--threads", "2", "--out", "--validate"])
        .current_dir(&dir)
        .output()
        .expect("tmtrace runs");
    let swallowed = dir.join("--validate").exists();
    std::fs::remove_dir_all(&dir).ok();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("tmtrace: --out takes a value"), "{err}");
    assert!(err.contains("usage: tmtrace"), "{err}");
    assert!(
        !swallowed,
        "the artifacts went to a directory named --validate"
    );
}
