//! `tmtrace` command-line behaviour: a thread count outside the modelled
//! cores is a usage error (exit 2), never a panic.

use std::process::Command;

#[test]
fn thread_counts_outside_the_cores_are_usage_errors() {
    for threads in ["0", "33", "64"] {
        let out = Command::new(env!("CARGO_BIN_EXE_tmtrace"))
            .args(["--threads", threads])
            .output()
            .expect("tmtrace runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: {err}");
        assert!(err.contains("--threads takes 1..=32"), "{err}");
        assert!(err.contains("usage: tmtrace"), "{err}");
    }
}
