//! The `tmlint` binary end to end: both modes analyze under the geometry
//! `tmverify` explores for the program's own thread count, so their
//! pruning tables equal the explorer's; exit codes follow the contract
//! (1 on an error diagnostic, 2 on bad input).

use lockiller::SystemKind;
use std::process::Command;
use tmstatic::VmAnalysis;
use tmverify::progs::ProgSpec;
use tmverify::Explorer;

/// `(exit code, stdout, stderr)` of one `tmlint` invocation.
fn tmlint(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tmlint"))
        .args(args)
        .output()
        .expect("tmlint runs");
    (
        out.status.code().expect("tmlint exits normally"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

fn table_line(stderr: &str) -> &str {
    stderr
        .lines()
        .find(|l| l.starts_with("tmlint: pruning table"))
        .unwrap_or_else(|| panic!("no table line in {stderr:?}"))
}

#[test]
fn both_modes_print_the_explorers_table() {
    let prog = "3/c:L0,S0/c:L1,S1/c:L2,S2";
    let ex = Explorer::new(SystemKind::LockillerTm, ProgSpec::parse(prog).unwrap());
    let t = VmAnalysis::new(ex.system, ex.config(), &ex.kernels())
        .independence()
        .expect("disjoint kernels prove the premises");
    assert_eq!(t.bank_foot.len(), 3, "one footprint per explored core");
    let foot: Vec<String> = t.bank_foot.iter().map(|f| format!("{f:#b}")).collect();
    let want = format!(
        "tmlint: pruning table: pure={:#b} bank_foot=[{}]",
        t.pure,
        foot.join(", ")
    );
    for mode in [&[][..], &["kernel"][..]] {
        let args = [
            mode,
            &["--prog", prog, "--system", "LockillerTM", "--table"],
        ]
        .concat();
        let (code, _, stderr) = tmlint(&args);
        assert_eq!(code, 0, "{args:?}: {stderr}");
        assert_eq!(table_line(&stderr), want, "{args:?}");
    }
}

#[test]
fn exit_codes_follow_the_contract() {
    for mode in [&[][..], &["kernel"][..]] {
        let race = [mode, &["--prog", "2/c:L0,S1/p:L1", "--json"]].concat();
        let (code, stdout, _) = tmlint(&race);
        assert_eq!(code, 1, "{race:?}");
        assert!(
            stdout.contains(r#""rule": "mixed-access-race""#),
            "{stdout}"
        );
        for spec in [
            "2/c:L5",
            "1/c:C18446744073709551615",
            "18446744073709551615/c:L0",
        ] {
            let bad = [mode, &["--prog", spec]].concat();
            assert_eq!(tmlint(&bad).0, 2, "{bad:?}");
        }
    }
    // A thread count outside 1..=32 is bad usage: never a panic, never
    // silently clamped.
    for threads in ["0", "33"] {
        let args = ["kernel", "--stamp", "kmeans", "--threads", threads];
        let (code, _, stderr) = tmlint(&args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains("--threads takes 1..=32"), "{stderr}");
    }
    // `--stamp` names kernel programs as every other binary names
    // workloads: kmeans+ is the high-contention kmeans, whose
    // accumulator races are error diagnostics; a name no binary uses is
    // bad usage.
    let stamp = |name: &str| {
        tmlint(&[
            "kernel",
            "--stamp",
            name,
            "--threads",
            "2",
            "--system",
            "LockillerTM",
            "--json",
        ])
    };
    let (code, stdout, stderr) = stamp("kmeans+");
    assert_eq!(code, 1, "{stderr}");
    assert!(
        stdout.contains(r#""rule": "mixed-access-race""#),
        "{stdout}"
    );
    for name in ["kmeans-low", "genome"] {
        let (code, stdout, stderr) = stamp(name);
        assert_eq!(code, 2, "{name}: {stderr}");
        assert!(stdout.is_empty(), "{name}: {stdout}");
    }
}
