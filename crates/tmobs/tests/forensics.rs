//! Conflict-forensics acceptance tests: attaching the forensics sink
//! never changes a run (byte-identical RunStats JSON), the blame
//! matrix's wasted cycles reconcile exactly with the aborted-cycle
//! statistics, a run diffed against itself reports zero deltas, and
//! bounded recorder storage keeps the exporters well-formed.

use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::{GuestFuture, Program};
use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use sim_core::obs::ObsHandle;
use sim_core::types::Addr;
use std::sync::{Arc, Mutex};
use tmobs::{
    diff_docs, export_chrome, export_jsonl, forensics, run_trace, validate_chrome, MetricsRegistry,
    Recorder, TraceConfig, TraceMeta,
};

/// Litmus workload: every thread increments one shared counter, forcing
/// conflicts, aborts, and (on Lockiller systems) NACKs and parks.
struct Counter {
    per_thread: u64,
    threads: usize,
    addr: Addr,
}

impl Counter {
    fn new(per_thread: u64, threads: usize) -> Counter {
        Counter {
            per_thread,
            threads,
            addr: Addr::NULL,
        }
    }
}

impl Program for Counter {
    fn name(&self) -> &str {
        "counter"
    }

    fn setup(&mut self, s: &mut SetupCtx, _threads: usize) {
        self.addr = s.alloc(8);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let addr = self.addr;
            for _ in 0..self.per_thread {
                ctx.critical(async |tx| {
                    let v = tx.load(addr).await?;
                    tx.compute(20).await?;
                    tx.store(addr, v + 1).await?;
                    Ok(())
                })
                .await;
                ctx.compute(30).await;
            }
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        let got = mem.read(self.addr);
        let want = self.per_thread * self.threads as u64;
        if got == want {
            Ok(())
        } else {
            Err(format!("counter = {got}, want {want}"))
        }
    }
}

const THREADS: usize = 4;
const SEED: u64 = 0xBEEF;

fn recorded_run(kind: SystemKind) -> (sim_core::stats::RunStats, Recorder) {
    let (handle, rec) = Recorder::shared(500);
    let mut prog = Counter::new(40, THREADS);
    let out = Runner::new(kind)
        .threads(THREADS)
        .seed(SEED)
        .obs(handle)
        .run(&mut prog);
    let rec = std::mem::take(&mut *rec.lock().unwrap());
    (out.stats, rec)
}

#[test]
fn forensics_sink_never_changes_the_run() {
    for kind in [
        SystemKind::Baseline,
        SystemKind::LockillerRai,
        SystemKind::LockillerRri,
        SystemKind::LockillerTm,
    ] {
        let mut prog = Counter::new(25, THREADS);
        let plain = Runner::new(kind)
            .threads(THREADS)
            .seed(SEED)
            .run(&mut prog)
            .stats;
        let (observed, rec) = {
            let (handle, rec) = Recorder::shared(100);
            let mut prog = Counter::new(25, THREADS);
            let out = Runner::new(kind)
                .threads(THREADS)
                .seed(SEED)
                .obs(handle)
                .run(&mut prog);
            let taken = std::mem::take(&mut *rec.lock().unwrap());
            (out.stats, taken)
        };
        // Byte-identical statistics even though the observed run recorded
        // conflict edges the plain run never materialized.
        assert_eq!(
            plain.to_json(),
            observed.to_json(),
            "forensics sink changed the run on {}",
            kind.name()
        );
        if kind != SystemKind::Baseline {
            assert!(
                !rec.conflicts().is_empty(),
                "{}: conflict-heavy run recorded no conflict edges",
                kind.name()
            );
        }
    }
}

#[test]
fn wasted_cycles_reconcile_exactly_across_systems() {
    for kind in [
        SystemKind::Baseline,
        SystemKind::LockillerRai,
        SystemKind::LockillerRri,
        SystemKind::LockillerRwi,
        SystemKind::LockillerRwil,
        SystemKind::LockillerTm,
    ] {
        let (stats, rec) = recorded_run(kind);
        let report = forensics::analyze(&rec, THREADS);
        report
            .reconcile(&stats)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        // The ledger partitions every NACKed attempt into an outcome.
        let l = &report.ledger;
        assert_eq!(
            l.saved + l.switched + l.lost + l.truncated,
            l.nacked_attempts,
            "{}: ledger outcomes must partition nacked attempts",
            kind.name()
        );
        // Attributed aborts cover every aborted attempt.
        assert_eq!(
            report.matrix.total_aborts(),
            stats.total_aborts(),
            "{}: matrix aborts must cover all aborts",
            kind.name()
        );
    }
}

#[test]
fn blame_on_intruder_lockillertm_is_nonempty_and_self_diffs_clean() {
    let mut cfg = TraceConfig::new(stamp::WorkloadKind::Intruder, SystemKind::LockillerTm);
    cfg.threads = 8;
    let art = run_trace(&cfg);
    art.validation.expect("workload validation");
    let f = &art.forensics;
    assert!(f.matrix.total_conflicts() > 0, "empty conflict matrix");
    assert!(!f.hotspots.is_empty(), "no hotspot lines");
    f.reconcile(&art.stats)
        .expect("wasted-cycle reconciliation");
    // Blame JSON is valid and carries the reconciled total.
    let doc = f.to_json(10);
    let v = tmobs::json::parse(&doc).expect("blame json parses");
    assert_eq!(
        v.get("total_wasted").and_then(tmobs::json::Json::as_f64),
        Some(art.stats.aborted_cycles() as f64)
    );
    // A run diffed against itself reports zero deltas; rerunning the
    // same config is byte-identical.
    let again = run_trace(&cfg);
    let (a, b) = (art.stats.to_json(), again.stats.to_json());
    assert_eq!(a, b);
    assert!(diff_docs(&a, &b, 0.0).unwrap().is_empty());
    assert!(diff_docs(&doc, &again.forensics.to_json(10), 0.0)
        .unwrap()
        .is_empty());
    // And a perturbed document is flagged.
    let tweaked = a.replace("\"commits\":", "\"commits\":1");
    assert!(!diff_docs(&a, &tweaked, 0.0).unwrap().is_empty());
}

#[test]
fn capped_recorder_keeps_exports_well_formed() {
    // Tiny span cap: the conflict-heavy run must overflow it.
    let rec = Arc::new(Mutex::new(Recorder::with_span_cap(8)));
    let handle = ObsHandle::new(rec.clone(), 500);
    let mut prog = Counter::new(40, THREADS);
    let out = Runner::new(SystemKind::LockillerTm)
        .threads(THREADS)
        .seed(SEED)
        .obs(handle)
        .run(&mut prog);
    let rec = std::mem::take(&mut *rec.lock().unwrap());
    assert_eq!(rec.spans().len(), 8);
    assert!(rec.dropped_spans() > 0, "cap was never exceeded");
    // Both exporters stay structurally valid on the truncated recording.
    let meta = TraceMeta {
        workload: "counter".into(),
        system: SystemKind::LockillerTm.name().into(),
        threads: THREADS,
        seed: SEED,
    };
    let doc = export_chrome(&rec, &meta, &out.stats);
    let s = validate_chrome(&doc).expect("capped chrome trace invalid");
    assert_eq!(s.spans, 8);
    let reg = MetricsRegistry::for_config(&sim_core::config::SystemConfig::table1());
    for line in export_jsonl(&rec, &reg, &out.stats)
        .lines()
        .filter(|l| !l.is_empty())
    {
        tmobs::json::parse(line).expect("capped jsonl line invalid");
    }
}
