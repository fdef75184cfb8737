//! `tmprof` artifact round-trips: JSON escaping, the schema-v2
//! self-profile document, the collapsed-stack flamegraph golden
//! structure, the session's one phase tree (setup, simulate with the
//! engine grafted beneath it, export), and the acceptance reconciliation
//! — `tmtrace flame` per-phase totals must agree with
//! `<stem>.selfprof.json` to the millisecond.

use lockiller::system::SystemKind;
use lockiller::Runner;
use sim_core::json::{self, Json};
use sim_core::prof::{HostProf, ProfPhase, ProfReport};
use stamp::{Scale, Workload, WorkloadKind};
use tmobs::TraceConfig;

#[test]
fn escape_handles_quotes_backslashes_and_controls() {
    assert_eq!(json::escape(r#"say "hi""#), r#"say \"hi\""#);
    assert_eq!(json::escape(r"back\slash"), r"back\\slash");
    assert_eq!(
        json::escape("line\nbreak\ttab\rcr"),
        r"line\nbreak\ttab\rcr"
    );
    assert_eq!(json::escape("bell\u{7}"), "bell\\u0007");
    // Unicode above the control range passes through unescaped.
    assert_eq!(json::escape("相位φ→done"), "相位φ→done");
    assert_eq!(json::escape(""), "");
}

/// Golden test for the collapsed-stack export: a fixed scope sequence
/// must produce exactly these stack lines, in exactly this (depth-first,
/// first-entered) order. Values are host timings and vary; the *paths*
/// are the contract that flamegraph tooling and CI's stack greps key on.
#[test]
fn flame_export_matches_golden_stack_structure() {
    let mut p = HostProf::start();
    for _ in 0..2 {
        p.enter(ProfPhase::Dequeue);
        p.enter(ProfPhase::SchedPick);
        p.exit();
        p.exit();
        p.enter(ProfPhase::EvRecv);
        p.enter(ProfPhase::GuestResume);
        p.exit();
        p.enter(ProfPhase::Coherence);
        p.exit();
        p.exit();
        p.enter(ProfPhase::EvRespond);
        p.enter(ProfPhase::Stamp);
        p.exit();
        p.exit();
        p.note_event(1);
    }
    let report = p.report();
    let golden = [
        "run",
        "run;dequeue",
        "run;dequeue;sched_pick",
        "run;ev_recv",
        "run;ev_recv;guest_resume",
        "run;ev_recv;coherence",
        "run;ev_respond",
        "run;ev_respond;stamp",
    ];
    let text = tmobs::flame(&report);
    let paths: Vec<&str> = text
        .lines()
        .map(|l| l.rsplit_once(' ').expect("`path value` lines").0)
        .collect();
    assert_eq!(paths, golden, "flame stack structure changed:\n{text}");
    // And every line's value parses — the whole document sums.
    assert!(tmobs::flame_total_us(&text).is_some());
}

/// The acceptance bar: the flamegraph exported from a real traced run
/// reconciles with the `"prof"` block of its own `selfprof.json` to the
/// millisecond.
#[test]
fn flame_reconciles_with_selfprof_json_to_the_millisecond() {
    let mut cfg = TraceConfig::new(
        stamp::WorkloadKind::KmeansLow,
        lockiller::system::SystemKind::LockillerTm,
    );
    cfg.threads = 2;
    cfg.profile = true;
    let art = tmobs::run_trace(&cfg);
    let report = art.host_prof.as_ref().expect("profiled trace");
    let flame_ms = tmobs::flame_total_us(&tmobs::flame(report)).unwrap() as f64 / 1e3;
    let v = json::parse(&art.selfprof_json).expect("selfprof.json parses");
    let prof = v.get("prof").expect("schema-2 prof block");
    let total_ms = prof.get("total_ms").and_then(Json::as_f64).unwrap();
    assert!(
        (flame_ms - total_ms).abs() < 1.0,
        "flame sum {flame_ms} ms vs selfprof prof.total_ms {total_ms} ms"
    );
    // The prof block's own nodes partition the same total.
    let self_sum: f64 = prof
        .get("nodes")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|n| n.get("self_ms").and_then(Json::as_f64).unwrap())
        .sum();
    assert!((self_sum - total_ms).abs() < 1.0);
    // An unprofiled trace of the same config carries no prof block and
    // simulates identically (the zero-cost guarantee, artifact-level).
    let mut plain_cfg = cfg.clone();
    plain_cfg.profile = false;
    let plain = tmobs::run_trace(&plain_cfg);
    assert!(plain.host_prof.is_none());
    assert!(json::parse(&plain.selfprof_json)
        .unwrap()
        .get("prof")
        .is_none());
    assert_eq!(
        plain.stats.to_json(),
        art.stats.to_json(),
        "profiling moved the simulated stats"
    );
}

fn self_sum(r: &ProfReport) -> u64 {
    r.nodes.iter().map(|n| n.self_ns).sum()
}

/// A real engine profile grafted under a session's `run;simulate` scope
/// keeps every engine node, self time and call count, and self times
/// still partition the session's total exactly.
#[test]
fn grafted_engine_profile_keeps_every_node() {
    let mut session = HostProf::start();
    session.enter(ProfPhase::Setup);
    let mut prog = Workload::with_scale(WorkloadKind::KmeansLow, 2, Scale::Tiny);
    session.exit();
    session.enter(ProfPhase::Simulate);
    let out = Runner::new(SystemKind::LockillerTm)
        .threads(2)
        .profile()
        .run(&mut prog);
    session.exit();
    session.enter(ProfPhase::Export);
    session.exit();
    let engine = out.host_prof.expect("profiled run");
    let mut tree = session.report();
    tree.graft("run;simulate", &engine);
    assert_eq!(self_sum(&tree), tree.total_ns);
    for n in &engine.nodes[1..] {
        let path = format!("run;simulate;{}", n.path.strip_prefix("run;").unwrap());
        let g = tree.node(&path).unwrap_or_else(|| panic!("{path} missing"));
        assert_eq!((g.self_ns, g.calls), (n.self_ns, n.calls), "{path}");
    }
    assert_eq!(tree.nodes.len(), engine.nodes.len() + 3);
    assert_eq!(tree.events, engine.events);
}

/// The `phases` of a `selfprof.json` document and their sum against
/// `total_ms`.
fn phases_and_total(doc: &str) -> (Vec<String>, f64, f64) {
    let v = json::parse(doc).expect("selfprof.json parses");
    assert_eq!(v.get("schema").and_then(Json::as_f64), Some(2.0));
    assert!(v
        .get("engine")
        .and_then(|e| e.get("ns_per_cycle"))
        .is_some());
    let Some(Json::Obj(phases)) = v.get("phases") else {
        panic!("phases is not an object: {doc}");
    };
    let names = phases.iter().map(|(k, _)| k.clone()).collect();
    let sum = phases.iter().filter_map(|(_, d)| d.as_f64()).sum();
    (
        names,
        sum,
        v.get("total_ms").and_then(Json::as_f64).unwrap(),
    )
}

/// `run_trace` times itself as one tree: a profiled session nests the
/// engine's phases under `run;simulate` beside `run;setup` and
/// `run;export`, and both profiled and unprofiled `selfprof.json`
/// phases sum to `total_ms`.
#[test]
fn traced_session_is_one_phase_tree() {
    let mut cfg = TraceConfig::new(WorkloadKind::KmeansLow, SystemKind::LockillerTm);
    cfg.threads = 2;
    cfg.profile = true;
    let art = tmobs::run_trace(&cfg);
    let tree = art.host_prof.as_ref().expect("profiled trace");
    assert_eq!(self_sum(tree), tree.total_ns);
    let top: Vec<&str> = tree
        .nodes
        .iter()
        .map(|n| n.path.as_str())
        .filter(|p| p.matches(';').count() == 1)
        .collect();
    assert_eq!(top, ["run;setup", "run;simulate", "run;export"]);
    assert!(tree.node("run;simulate;dequeue").is_some());
    assert!(
        art.profile.contains("run;simulate;dequeue"),
        "{}",
        art.profile
    );
    let mut plain_cfg = cfg.clone();
    plain_cfg.profile = false;
    let plain = tmobs::run_trace(&plain_cfg);
    assert!(plain.profile.contains("run;export"), "{}", plain.profile);
    for doc in [&art.selfprof_json, &plain.selfprof_json] {
        let (names, sum, total) = phases_and_total(doc);
        assert_eq!(names, ["setup", "simulate", "export", "epilogue"]);
        assert!(
            (sum - total).abs() <= 0.01,
            "phases {sum} ms vs total {total} ms"
        );
    }
}
