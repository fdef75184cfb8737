//! Focused engine-behaviour tests: the elided-lock runtime's dispatch
//! (ttest/hlend), retry-budget edge cases, RRI pause semantics, LosaTM's
//! progression priority, and phase accounting invariants.

use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::{GuestFuture, Program};
use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use sim_core::config::SystemConfig;
use sim_core::stats::Phase;
use sim_core::types::Addr;

struct Counter {
    per_thread: u64,
    threads: usize,
    addr: Addr,
}

impl Counter {
    fn new(per_thread: u64) -> Counter {
        Counter {
            per_thread,
            threads: 0,
            addr: Addr::NULL,
        }
    }
}

impl Program for Counter {
    fn name(&self) -> &str {
        "counter"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        self.threads = threads;
        self.addr = s.alloc(8);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let addr = self.addr;
            for _ in 0..self.per_thread {
                ctx.critical(async |tx| {
                    let v = tx.load(addr).await?;
                    tx.compute(25).await?;
                    tx.store(addr, v + 1).await?;
                    Ok(())
                })
                .await;
                ctx.compute(15).await;
            }
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        let got = mem.read(self.addr);
        let want = self.per_thread * self.threads as u64;
        if got == want {
            Ok(())
        } else {
            Err(format!("counter {got} != {want}"))
        }
    }
}

/// A shared counter whose critical sections, in every fourth round of a
/// thread, first store to `stores` words `stride` words apart: lines of
/// one L1 set, enough to overflow it, so LockillerTM requests a proactive
/// switch while other cores' probes and the LLC's back-invalidations
/// race the request.
struct SetOverflow {
    stride: u64,
    spacing: u64,
    stores: u64,
    threads: usize,
    counter: Addr,
    base: Addr,
}

const OVERFLOW_ROUNDS: u64 = 12;

impl Program for SetOverflow {
    fn name(&self) -> &str {
        "set-overflow"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        self.threads = threads;
        self.counter = s.alloc(8);
        self.base = s.alloc(self.stride * self.stores + self.spacing * threads as u64 + 8);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let t = ctx.tid as u64;
            let mine = self.base.add(self.spacing * t);
            for r in 0..OVERFLOW_ROUNDS {
                let spill = r % 4 == t % 4;
                ctx.critical(async |tx| {
                    if spill {
                        for k in 0..self.stores {
                            tx.store(mine.add(k * self.stride), r).await?;
                        }
                    }
                    let v = tx.load(self.counter).await?;
                    tx.compute(40).await?;
                    tx.store(self.counter, v + 1).await?;
                    Ok(())
                })
                .await;
                ctx.compute(20 + 7 * t).await;
            }
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        let got = mem.read(self.counter);
        let want = OVERFLOW_ROUNDS * self.threads as u64;
        if got == want {
            Ok(())
        } else {
            Err(format!("counter {got} != {want}"))
        }
    }
}

fn runner(kind: SystemKind, threads: usize) -> Runner {
    Runner::new(kind)
        .threads(threads)
        .config(SystemConfig::testing(threads.max(2)))
}

/// An abort that races a switchingMode request is delivered once. At
/// these points a probe replayed after a denied switch, or a
/// back-invalidation while the request is in flight, aborts the
/// transaction before the arbiter's answer is handled; every attempt must
/// still end in exactly one commit or one abort.
#[test]
fn abort_racing_a_switch_request_is_delivered_once() {
    // (stride, spacing, stores, retries)
    for (stride, spacing, stores, retries) in [
        (128, 128, 9, 1),
        (1024, 1024, 5, 8),
        (1024, 1024, 6, 2),
        (1024, 1024, 6, 8),
    ] {
        let mut prog = SetOverflow {
            stride,
            spacing,
            stores,
            threads: 0,
            counter: Addr::NULL,
            base: Addr::NULL,
        };
        let s = runner(SystemKind::LockillerTm, 8)
            .retries(retries)
            .run(&mut prog)
            .stats;
        assert_eq!(
            s.tx_starts,
            s.commits + s.total_aborts(),
            "stride {stride}, {stores} stores, {retries} retries: an attempt was aborted twice"
        );
        assert!(s.switches_granted + s.switches_denied > 0);
    }
}

/// A zero retry budget sends every critical section straight down the
/// fallback path — correctness must hold with no speculation at all.
#[test]
fn zero_retries_uses_fallback_only() {
    for kind in [
        SystemKind::Baseline,
        SystemKind::LockillerRwil,
        SystemKind::LockillerTm,
    ] {
        let mut prog = Counter::new(15);
        let stats = runner(kind, 2).retries(0).run(&mut prog).stats;
        assert_eq!(
            stats.commits,
            0,
            "{}: nothing should commit speculatively",
            kind.name()
        );
        assert_eq!(
            stats.lock_commits,
            30,
            "{}: all criticals on the lock path",
            kind.name()
        );
        assert_eq!(stats.fallbacks, 30);
    }
}

/// With HTMLock, fallback (TL) critical sections still record read/write
/// sets and collide with HTM transactions only on actual conflicts; the
/// counter stays exact either way.
#[test]
fn mixed_tl_and_htm_execution_is_sound() {
    let mut prog = Counter::new(40);
    let stats = runner(SystemKind::LockillerRwil, 4)
        .retries(2)
        .run(&mut prog)
        .stats;
    assert!(
        stats.lock_commits > 0,
        "small budget must produce TL sections"
    );
    assert!(
        stats.commits > 0,
        "HTM transactions must still commit alongside TL"
    );
}

/// RRI (retry-after-pause) must make progress and stay exact without any
/// wake-up machinery.
#[test]
fn rri_pause_retry_progresses() {
    let mut prog = Counter::new(30);
    let stats = runner(SystemKind::LockillerRri, 4).run(&mut prog).stats;
    assert!(stats.rejects > 0, "recovery should reject under contention");
    assert_eq!(stats.wakeups, 0, "RRI must not use wake-ups");
}

/// RAI self-aborts on reject: abort count reflects that, and wake-ups are
/// sent (the rejecter's table drains) but nothing waits on them.
#[test]
fn rai_self_abort_on_reject() {
    let mut prog = Counter::new(30);
    let stats = runner(SystemKind::LockillerRai, 4).run(&mut prog).stats;
    assert!(stats.rejects > 0);
    assert!(
        stats.total_aborts() >= stats.rejects,
        "each reject self-aborts under RAI"
    );
}

/// LosaTM-SAFU (progression priority) is a functioning recovery system:
/// produces rejects, exact results, no lost wake-ups.
#[test]
fn losatm_progression_priority_works() {
    let mut prog = Counter::new(40);
    let stats = runner(SystemKind::LosaTmSafu, 4).run(&mut prog).stats;
    assert!(stats.rejects > 0);
    assert_eq!(stats.wakeup_timeouts, 0);
}

/// Aggregate phase cycles equal aggregate per-core cycles (no time lost
/// or double-counted) on every system.
#[test]
fn phase_accounting_is_complete() {
    for kind in SystemKind::ALL {
        let mut prog = Counter::new(20);
        let stats = runner(kind, 4).run(&mut prog).stats;
        let phase_sum: u64 = Phase::ALL.iter().map(|p| stats.phase(*p)).sum();
        let core_sum: u64 = stats.per_core_cycles.iter().sum();
        assert_eq!(phase_sum, core_sum, "{}: phase cycles leaked", kind.name());
        for &c in &stats.per_core_cycles {
            assert!(
                c <= stats.cycles,
                "{}: a core outlived the run",
                kind.name()
            );
        }
    }
}

/// Speculative cycles resolve into htm/aborted in proportion to commit
/// outcomes: a 100%-commit run has zero `aborted` time.
#[test]
fn uncontended_run_has_no_aborted_time() {
    let mut prog = Counter::new(20);
    let stats = runner(SystemKind::LockillerTm, 1).run(&mut prog).stats;
    assert_eq!(stats.phase(Phase::Aborted), 0);
    assert_eq!(stats.phase(Phase::Rollback), 0);
    assert!(stats.phase(Phase::Htm) > 0);
}

/// Seeds matter only through workload randomness: the deterministic
/// counter gives identical cycle counts for different seeds.
#[test]
fn seed_only_affects_workload_randomness() {
    let run = |seed: u64| {
        let mut prog = Counter::new(15);
        runner(SystemKind::LockillerTm, 2)
            .seed(seed)
            .run(&mut prog)
            .stats
            .cycles
    };
    assert_eq!(run(1), run(2), "counter program consumes no randomness");
}

/// Thread counts beyond the configured cores are rejected loudly.
#[test]
#[should_panic(expected = "exceeds")]
fn too_many_threads_panics() {
    let mut prog = Counter::new(1);
    let _ = Runner::new(SystemKind::Cgl)
        .threads(8)
        .config(SystemConfig::testing(4))
        .run(&mut prog);
}

/// A zero thread count names the allowed range instead of claiming it
/// exceeds the cores.
#[test]
#[should_panic(expected = "thread count 0 is outside 1..=4")]
fn zero_threads_panics_naming_the_range() {
    let mut prog = Counter::new(1);
    let _ = Runner::new(SystemKind::Cgl)
        .threads(0)
        .config(SystemConfig::testing(4))
        .run(&mut prog);
}

/// Validation failures surface as panics carrying the workload name.
#[test]
#[should_panic(expected = "validation failed")]
fn validation_failure_panics() {
    struct Broken;
    impl Program for Broken {
        fn name(&self) -> &str {
            "broken"
        }
        fn setup(&mut self, _s: &mut SetupCtx, _t: usize) {}
        fn run<'a>(&'a self, _ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
            Box::pin(async {})
        }
        fn validate(&self, _mem: &FlatMem) -> Result<(), String> {
            Err("intentional".into())
        }
    }
    let _ = runner(SystemKind::Cgl, 1).run(&mut Broken);
}

/// `no_validate` suppresses the oracle (for tests probing failure paths).
#[test]
fn no_validate_skips_oracle() {
    struct Broken;
    impl Program for Broken {
        fn name(&self) -> &str {
            "broken"
        }
        fn setup(&mut self, _s: &mut SetupCtx, _t: usize) {}
        fn run<'a>(&'a self, _ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
            Box::pin(async {})
        }
        fn validate(&self, _mem: &FlatMem) -> Result<(), String> {
            Err("intentional".into())
        }
    }
    let stats = runner(SystemKind::Cgl, 1)
        .no_validate()
        .run(&mut Broken)
        .stats;
    assert_eq!(stats.commits, 0);
}

/// Sequential critical sections reset the re-entrancy guard; nesting is
/// prevented at compile time by the `&mut self` receiver.
#[test]
fn sequential_criticals_reset_guard() {
    struct TwoCrits {
        addr: Addr,
    }
    impl Program for TwoCrits {
        fn name(&self) -> &str {
            "two-crits"
        }
        fn setup(&mut self, s: &mut SetupCtx, _t: usize) {
            self.addr = s.alloc(8);
        }
        fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
            Box::pin(async move {
                let addr = self.addr;
                ctx.critical(async |tx| tx.store(addr, 1).await).await;
                ctx.critical(async |tx| tx.store(addr, 2).await).await;
            })
        }
        fn validate(&self, mem: &FlatMem) -> Result<(), String> {
            if mem.read(self.addr) == 2 {
                Ok(())
            } else {
                Err("second critical lost".into())
            }
        }
    }
    let mut prog = TwoCrits { addr: Addr::NULL };
    let _ = runner(SystemKind::LockillerTm, 1).run(&mut prog);
}

/// Trace events come out in causal order with matched begin/end pairs.
#[test]
fn trace_events_are_causally_ordered() {
    use lockiller::trace::TraceKind;
    let mut prog = Counter::new(10);
    let mut out = runner(SystemKind::LockillerRwi, 2).tracing().run(&mut prog);
    let trace = out.take_trace_events();
    let stats = out.stats;
    assert!(!trace.is_empty());
    // Cycles non-decreasing.
    for w in trace.windows(2) {
        assert!(w[0].cycle <= w[1].cycle, "trace out of order");
    }
    // Per core: begins == commits + aborts (every attempt resolves).
    for core in 0..2 {
        let begins = trace
            .iter()
            .filter(|e| e.core == core && e.kind == TraceKind::TxBegin)
            .count();
        let commits = trace
            .iter()
            .filter(|e| e.core == core && e.kind == TraceKind::Commit)
            .count();
        let aborts = trace
            .iter()
            .filter(|e| e.core == core && matches!(e.kind, TraceKind::Abort(_)))
            .count();
        assert_eq!(begins, commits + aborts, "core {core}: unresolved attempts");
    }
    // Aggregates agree with RunStats.
    let total_commits = trace.iter().filter(|e| e.kind == TraceKind::Commit).count() as u64;
    assert_eq!(total_commits, stats.commits);
}

/// The `tmprof` scope profiler only reads the host clock: with it
/// attached, every simulated output — stats, latency histograms, the
/// structured event trace — must be byte-identical to an unprofiled
/// run, and the report it returns must partition its own total.
#[test]
fn host_profiler_is_zero_cost_and_partitions_its_total() {
    let run = |profile: bool| {
        let mut prog = Counter::new(40);
        let mut r = runner(SystemKind::LockillerTm, 4).seed(7).tracing();
        if profile {
            r = r.profile();
        }
        let mut out = r.run(&mut prog);
        let trace = out.take_trace_events();
        (out, trace)
    };
    let (mut plain, trace_plain) = run(false);
    let (mut profiled, trace_profiled) = run(true);
    assert_eq!(
        plain.stats, profiled.stats,
        "profiler moved simulated stats"
    );
    assert_eq!(
        trace_plain, trace_profiled,
        "profiler moved the event trace"
    );
    assert!(plain.host_prof.take().is_none());
    let report = profiled.host_prof.take().expect("profiled run reports");
    // Self times partition the root total exactly, so shares sum to 1.
    let self_sum: u64 = report.nodes.iter().map(|n| n.self_ns).sum();
    assert_eq!(self_sum, report.total_ns, "self times must partition");
    assert_eq!(report.nodes[0].path, "run");
    // Every dispatched event was counted at the dequeue scope.
    assert_eq!(report.events, profiled.stats.events_processed);
    assert!(report.q_depth_mean() >= 1.0, "popped event counts as 1");
    // The hot phases all appear under their documented scope paths.
    for path in ["run;dequeue", "run;ev_recv", "run;ev_respond"] {
        assert!(
            report.node(path).is_some(),
            "missing phase {path} in {:?}",
            report.nodes.iter().map(|n| &n.path).collect::<Vec<_>>()
        );
    }
}
