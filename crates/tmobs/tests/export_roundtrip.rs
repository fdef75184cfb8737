//! Exporter round-trip and determinism tests: the Chrome trace parses
//! and nests, the JSONL series is byte-identical across identically
//! seeded runs, span data agrees with the engine's structured trace and
//! RunStats, and attaching a recorder never changes a simulation.

use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::{GuestFuture, Program};
use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use lockiller::TraceKind;
use sim_core::obs::{SpanEnd, SpanKind};
use sim_core::stats::RunStats;
use sim_core::types::Addr;
use tmobs::{export_chrome, export_jsonl, validate_chrome, MetricsRegistry, Recorder, TraceMeta};

/// Litmus workload: every thread increments one shared counter, forcing
/// conflicts, aborts, and (on Lockiller systems) parks.
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

fn traced_run(kind: SystemKind) -> (RunStats, Vec<lockiller::TraceEvent>, Recorder) {
    let (handle, rec) = Recorder::shared(500);
    let mut prog = Counter::new(40, THREADS);
    let runner = Runner::new(kind).threads(THREADS).seed(SEED).obs(handle);
    let mut out = runner.tracing().no_validate().run(&mut prog);
    let events = out.take_trace_events();
    let (stats, mem) = (out.stats, out.mem);
    prog.validate(&mem).expect("counter total wrong");
    let rec = std::mem::take(&mut *rec.lock().unwrap());
    (stats, events, rec)
}

#[test]
fn chrome_export_parses_and_nests() {
    let (stats, _events, rec) = traced_run(SystemKind::LockillerTm);
    assert!(rec.is_finished());
    let meta = TraceMeta {
        workload: "counter".into(),
        system: SystemKind::LockillerTm.name().into(),
        threads: THREADS,
        seed: SEED,
    };
    let doc = export_chrome(&rec, &meta, &stats);
    let s = validate_chrome(&doc).unwrap();
    assert_eq!(s.spans, rec.spans().len());
    assert!(s.spans > 0, "no spans recorded");
    assert!(s.counters > 0, "no counter samples recorded");
    // Per-core tracks plus metric series covering the NoC and LLC.
    assert!(s.tracks >= 2);
    assert!(doc.contains("\"name\":\"core 0\""));
    assert!(doc.contains("noc.messages"));
    assert!(doc.contains("llc.bank"));
    // The latency histograms ride along in otherData.
    assert!(doc.contains("\"latency\":{\"classes\":{\"htm_commit\":"));
    // The heavy conflict load must show real outcomes in the spans.
    let commits = rec
        .spans_of(SpanKind::Txn)
        .filter(|s| s.outcome == SpanEnd::Commit)
        .count();
    assert!(commits > 0);
    let _ = stats;
}

#[test]
fn span_data_agrees_with_structured_trace_and_stats() {
    let (stats, events, rec) = traced_run(SystemKind::LockillerTm);
    // Every speculative commit in RunStats appears as a Txn span closed
    // with Commit, and matches the engine trace's Commit events.
    let span_commits = rec
        .spans_of(SpanKind::Txn)
        .filter(|s| s.outcome == SpanEnd::Commit)
        .count() as u64;
    let trace_commits = events
        .iter()
        .filter(|e| e.kind == TraceKind::Commit)
        .count() as u64;
    assert_eq!(span_commits, trace_commits);
    assert_eq!(span_commits + stats.stl_commits, stats.commits);
    // Aborted attempts match too.
    let span_aborts = rec
        .spans_of(SpanKind::Txn)
        .filter(|s| matches!(s.outcome, SpanEnd::Abort(_)))
        .count() as u64;
    let trace_aborts = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::Abort(_)))
        .count() as u64;
    assert_eq!(span_aborts, trace_aborts);
    // Park spans pair with recovery activity: woken spans need wakeups.
    let woken = rec
        .spans_of(SpanKind::Park)
        .filter(|s| s.outcome == SpanEnd::Woken)
        .count() as u64;
    assert!(woken <= stats.wakeups);
}

#[test]
fn jsonl_is_deterministic_across_identical_seeds() {
    let reg = MetricsRegistry::for_config(&sim_core::config::SystemConfig::table1());
    let (stats_a, _, rec_a) = traced_run(SystemKind::LockillerTm);
    let (stats_b, _, rec_b) = traced_run(SystemKind::LockillerTm);
    // Byte-identical exports — including the embedded latency
    // histograms, which must be bit-deterministic run to run.
    assert_eq!(
        export_jsonl(&rec_a, &reg, &stats_a),
        export_jsonl(&rec_b, &reg, &stats_b)
    );
    let meta = TraceMeta {
        workload: "counter".into(),
        system: "LockillerTM".into(),
        threads: THREADS,
        seed: SEED,
    };
    assert_eq!(
        export_chrome(&rec_a, &meta, &stats_a),
        export_chrome(&rec_b, &meta, &stats_b)
    );
    // Sample rows land exactly on the sampling grid.
    let (_, _, rec) = traced_run(SystemKind::LockillerTm);
    let on_grid = rec.samples().iter().filter(|r| r.cycle % 500 == 0).count();
    // All rows except the final flush (emitted at end-of-run) align.
    assert!(rec.samples().len() - on_grid <= 1);
}

#[test]
fn observability_does_not_perturb_the_simulation() {
    for kind in [
        SystemKind::Baseline,
        SystemKind::LockillerRwi,
        SystemKind::LockillerTm,
    ] {
        let mut prog = Counter::new(25, THREADS);
        let plain = Runner::new(kind)
            .threads(THREADS)
            .seed(SEED)
            .run(&mut prog)
            .stats;
        let (handle, _rec) = Recorder::shared(100);
        let mut prog = Counter::new(25, THREADS);
        let observed = Runner::new(kind)
            .threads(THREADS)
            .seed(SEED)
            .obs(handle)
            .run(&mut prog)
            .stats;
        assert_eq!(
            format!("{plain:?}"),
            format!("{observed:?}"),
            "attaching a recorder changed the run on {}",
            kind.name()
        );
    }
}

#[test]
fn summary_and_timeline_render_from_one_run() {
    let (stats, events, rec) = traced_run(SystemKind::LockillerRwil);
    let summary = tmobs::render_summary(&rec, &stats);
    assert!(summary.contains("core  0 |"));
    assert!(summary.contains("txn_length"));
    assert!(summary.contains("noc:"));
    let timeline = lockiller::render_timeline(&events, THREADS, 80);
    assert!(timeline.contains("core  0 |"));
    // The two views describe the same run: if the timeline shows any
    // commit glyph, the recorder must hold a committed Txn span.
    let timeline_has_commit = timeline
        .lines()
        .any(|l| l.starts_with("core") && l.contains(')'));
    let spans_have_commit = rec
        .spans_of(SpanKind::Txn)
        .any(|s| s.outcome == SpanEnd::Commit);
    assert_eq!(timeline_has_commit, spans_have_commit);
}
