//! Exporter round-trip and determinism tests: the Chrome trace parses
//! and nests, the JSONL series is byte-identical across identically
//! seeded runs, the spans derived from a trace agree with its events and
//! reconcile with RunStats, and recording spans never changes a
//! simulation.

use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::{GuestFuture, Program};
use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use lockiller::TraceKind;
use sim_core::stats::RunStats;
use sim_core::types::Addr;
use tmobs::{
    export_chrome, export_jsonl, validate_chrome, MetricsRegistry, Recorder, SpanEnd, SpanKind,
    TraceMeta,
};

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
    let mut prog = Counter::new(40, THREADS);
    let runner = Runner::new(kind).threads(THREADS).seed(SEED).spans(500);
    let mut out = runner.no_validate().run(&mut prog);
    prog.validate(&out.mem).expect("counter total wrong");
    let trace = out.trace.take().expect("span-level trace");
    let rec = Recorder::from_trace(&trace, out.stats.cycles);
    (out.stats, trace.events().to_vec(), rec)
}

#[test]
fn chrome_export_parses_and_nests() {
    let (stats, _events, rec) = traced_run(SystemKind::LockillerTm);
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
        let mut prog = Counter::new(25, THREADS);
        let observed = Runner::new(kind)
            .threads(THREADS)
            .seed(SEED)
            .spans(100)
            .run(&mut prog)
            .stats;
        assert_eq!(
            format!("{plain:?}"),
            format!("{observed:?}"),
            "recording spans changed the run on {}",
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

/// The engine's `park` histogram and the recording's `Park` spans are
/// the same distribution on every completed run with parks, which is
/// why the summary shows park waits once (`park_wait`). Every other
/// span count reconciles exactly with the run's counters too, and the
/// last four points reach all 12 span kind/outcome pairs: small-cache
/// vacation switches (granted and denied), small-cache labyrinth
/// arbitrates TL entry, RRI intruder retries and falls back, and
/// checked RWI intruder with dropped wake-ups times out.
#[test]
fn park_spans_form_the_engine_park_histogram() {
    use sim_core::config::{CheckCfg, SystemConfig};
    use stamp::{Scale, WorkloadKind as W};
    use SpanKind::{Fallback, HlaArb, Park, StlLock, TlLock, Txn};
    use SystemKind::{LockillerRri as Rri, LockillerRwi as Rwi, LockillerTm as Tm};
    let (table1, small) = (SystemConfig::table1(), SystemConfig::small_cache());
    let mut dropped = table1.clone();
    dropped.check = CheckCfg::on();
    dropped.check.fault.drop_wakeups = true;
    let mut points = Vec::new();
    for workload in [W::Intruder, W::VacationLow, W::Yada] {
        for system in [Tm, Rwi] {
            points.push((workload, system, 4, Scale::Tiny, table1.clone()));
        }
    }
    points.extend([
        (W::VacationLow, Tm, 4, Scale::Small, small.clone()),
        (W::Labyrinth, Tm, 8, Scale::Tiny, small),
        (W::Intruder, Rri, 4, Scale::Tiny, table1),
        (W::Intruder, Rwi, 4, Scale::Tiny, dropped),
    ]);
    let mut pairs = std::collections::BTreeSet::new();
    for (workload, system, threads, scale, hw) in points {
        let mut cfg = tmobs::TraceConfig::new(workload, system);
        (cfg.threads, cfg.scale, cfg.hw) = (threads, scale, hw);
        let art = tmobs::run_trace(&cfg);
        let (rec, st) = (&art.recorder, &art.stats);
        let point = format!("{}/{}/{threads}", workload.name(), system.name());
        assert_eq!(art.validation, Ok(()), "{point}");
        let incomplete = (rec.auto_closed(), rec.unmatched_ends(), st.trace_dropped);
        assert_eq!(incomplete, (0, 0, 0), "{point} did not complete");
        let mut spans = sim_core::latency::LatencyHist::new();
        for s in rec.spans_of(Park) {
            spans.record(s.duration());
        }
        assert!(spans.count() > 0, "{point} has no parks");
        assert_eq!(spans, st.latency.park, "{point}");
        let count = |kind, outcome: &str| {
            let hit = |s: &&tmobs::Span| outcome.is_empty() || s.outcome.name() == outcome;
            rec.spans_of(kind).filter(hit).count() as u64
        };
        let locked = count(TlLock, "") + count(Fallback, "");
        let htm_commits = st.commits - st.stl_commits;
        for (what, got, want) in [
            ("txn", count(Txn, ""), st.tx_starts),
            ("txn commit", count(Txn, "commit"), htm_commits),
            ("txn abort", count(Txn, "abort"), st.total_aborts()),
            ("txn switched", count(Txn, "switched"), st.switches_granted),
            ("stl commit", count(StlLock, "commit"), st.stl_commits),
            ("hla denied", count(HlaArb, "denied"), st.switches_denied),
            ("park timeout", count(Park, "timeout"), st.wakeup_timeouts),
            ("locked", locked, st.lock_commits),
            ("locked", locked, st.fallbacks),
        ] {
            assert_eq!(got, want, "{point}: {what} spans");
        }
        for s in rec.spans() {
            pairs.insert((s.kind.name(), s.outcome.name()));
        }
    }
    let all = "fallback end hla-arb denied hla-arb granted park end park retried park timeout \
               park woken stl-lock commit tl-lock end txn abort txn commit txn switched";
    let words: Vec<&str> = all.split_whitespace().collect();
    let want = words.chunks(2).map(|p| (p[0], p[1])).collect();
    assert_eq!(pairs, want);
}
