//! Per-transaction latency accounting: exact cycle assertions against
//! the engine's independently-recorded event trace, the class-count
//! invariants the histograms must satisfy on contended runs, and the
//! bit-determinism the perf gate depends on.

use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::{GuestFuture, Program};
use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use lockiller::{TraceEvent, TraceKind};
use sim_core::latency::TxnClass;
use sim_core::stats::AbortCause;
use sim_core::types::Addr;

/// One uncontended read-modify-write transaction.
struct OneTxn {
    addr: Addr,
}

impl Program for OneTxn {
    fn name(&self) -> &str {
        "one-txn"
    }

    fn setup(&mut self, s: &mut SetupCtx, _threads: usize) {
        self.addr = s.alloc(8);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let addr = self.addr;
            ctx.critical(async |tx| {
                let v = tx.load(addr).await?;
                tx.store(addr, v + 1).await?;
                Ok(())
            })
            .await;
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        match mem.read(self.addr) {
            1 => Ok(()),
            got => Err(format!("counter = {got}, want 1")),
        }
    }
}

/// One transaction whose write set cannot fit in the L1: the HTM
/// attempt aborts with `Of` and the runtime takes the fallback lock.
struct Overflow {
    base: Addr,
    lines: u64,
}

impl Program for Overflow {
    fn name(&self) -> &str {
        "overflow"
    }

    fn setup(&mut self, s: &mut SetupCtx, _threads: usize) {
        self.base = s.alloc(self.lines * 64);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let (base, lines) = (self.base, self.lines);
            ctx.critical(async |tx| {
                for i in 0..lines {
                    tx.store(Addr(base.0 + i * 64), i).await?;
                }
                Ok(())
            })
            .await;
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        for i in 0..self.lines {
            let got = mem.read(Addr(self.base.0 + i * 64));
            if got != i {
                return Err(format!("line {i} = {got}, want {i}"));
            }
        }
        Ok(())
    }
}

/// Shared-counter contention: forces retries, parks, and (on Lockiller
/// systems) lock-mode commits.
struct Counter {
    per_thread: u64,
    threads: usize,
    addr: Addr,
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

fn cycle_of(events: &[TraceEvent], kind: TraceKind) -> u64 {
    events
        .iter()
        .find(|e| e.kind == kind)
        .unwrap_or_else(|| panic!("no {kind:?} event in trace"))
        .cycle
}

#[test]
fn uncontended_htm_commit_latency_matches_the_trace_exactly() {
    let mut prog = OneTxn { addr: Addr::NULL };
    let mut out = Runner::new(SystemKind::LockillerTm)
        .threads(1)
        .seed(7)
        .tracing()
        .run(&mut prog);
    let events = out.take_trace_events();
    let lat = &out.stats.latency;
    // The single lifecycle spans TxBegin → Commit; the hooks fire at the
    // same cycles the trace records, so the histogram's raw sum (and its
    // min/max, which are exact) must equal the trace's span.
    let span = cycle_of(&events, TraceKind::Commit) - cycle_of(&events, TraceKind::TxBegin);
    let h = lat.class(TxnClass::HtmCommit);
    assert_eq!(h.count(), 1);
    assert_eq!(h.sum(), span);
    assert_eq!(h.min(), span);
    assert_eq!(h.max(), span);
    // Nothing else happened: no park, no lock hold, no abort.
    assert_eq!(lat.park.count(), 0);
    assert_eq!(lat.fallback_hold.count(), 0);
    assert_eq!(lat.first_abort.count(), 0);
    for c in TxnClass::ALL {
        if c != TxnClass::HtmCommit {
            assert_eq!(lat.class(c).count(), 0, "{} must be empty", c.name());
        }
    }
}

#[test]
fn overflow_fallback_latency_matches_the_trace_exactly() {
    // 1024 lines = 64 KB write set against a 32 KB L1: guaranteed Of.
    let mut prog = Overflow {
        base: Addr::NULL,
        lines: 1024,
    };
    let mut out = Runner::new(SystemKind::Baseline)
        .threads(1)
        .seed(7)
        .tracing()
        .run(&mut prog);
    let events = out.take_trace_events();
    let stats = &out.stats;
    let lat = &stats.latency;
    assert_eq!(stats.lock_commits, 1, "overflow must take the fallback");
    let t_begin = cycle_of(&events, TraceKind::TxBegin);
    let t_abort = cycle_of(&events, TraceKind::Abort(AbortCause::Of));
    let t_fallback = cycle_of(&events, TraceKind::Fallback);
    // The aborted HTM attempt: known cycles, asserted exactly.
    let retry_of = lat.class(TxnClass::Retry(AbortCause::Of));
    assert_eq!(retry_of.count(), 1);
    assert_eq!(retry_of.sum(), t_abort - t_begin);
    assert_eq!(lat.first_abort.count(), 1);
    assert_eq!(lat.first_abort.sum(), t_abort - t_begin);
    // The fallback critical section: both histograms end at the same
    // (unobserved) release cycle, so their difference is the known span
    // from lifecycle start to lock acquisition.
    let total = lat.class(TxnClass::LockCommit);
    assert_eq!(total.count(), 1);
    assert_eq!(lat.fallback_hold.count(), 1);
    assert_eq!(total.sum() - lat.fallback_hold.sum(), t_fallback - t_begin);
    assert_eq!(lat.class(TxnClass::HtmCommit).count(), 0);
}

#[test]
fn contended_run_satisfies_the_class_count_invariants() {
    const THREADS: usize = 4;
    let mut prog = Counter {
        per_thread: 40,
        threads: THREADS,
        addr: Addr::NULL,
    };
    let mut out = Runner::new(SystemKind::LockillerTm)
        .threads(THREADS)
        .seed(0xBEEF)
        .tracing()
        .run(&mut prog);
    let events = out.take_trace_events();
    let stats = &out.stats;
    let lat = &stats.latency;
    // Every committed lifecycle lands in exactly one commit class.
    assert_eq!(
        lat.class(TxnClass::HtmCommit).count(),
        stats.commits - stats.stl_commits
    );
    assert_eq!(lat.class(TxnClass::StlCommit).count(), stats.stl_commits);
    assert_eq!(lat.class(TxnClass::LockCommit).count(), stats.lock_commits);
    // Every abort produced exactly one retry-class sample.
    let retries: u64 = AbortCause::ALL
        .iter()
        .map(|&c| lat.class(TxnClass::Retry(c)).count())
        .sum();
    assert_eq!(retries, stats.total_aborts());
    // Every lock-mode commit held the lock exactly once.
    assert_eq!(
        lat.fallback_hold.count(),
        stats.lock_commits + stats.stl_commits
    );
    // A first-abort is recorded at most once per lifecycle, and only
    // for lifecycles that aborted.
    assert!(lat.first_abort.count() <= stats.total_aborts());
    // The contended counter must actually exercise the park path, and
    // every traced wake-up ended a recorded park span.
    assert!(lat.park.count() > 0, "contended run never parked");
    let woken = events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::Woken | TraceKind::WakeTimeout))
        .count() as u64;
    assert!(lat.park.count() >= woken);
}

#[test]
fn latency_histograms_are_bit_deterministic() {
    let run = || {
        let mut prog = Counter {
            per_thread: 40,
            threads: 4,
            addr: Addr::NULL,
        };
        Runner::new(SystemKind::LockillerTm)
            .threads(4)
            .seed(0xBEEF)
            .run(&mut prog)
            .stats
    };
    let (a, b) = (run(), run());
    assert_eq!(
        a.latency.to_json(),
        b.latency.to_json(),
        "latency histograms must be byte-identical across identical runs"
    );
    assert_eq!(a.latency.digest(), b.latency.digest());
    assert_eq!(a.to_json(), b.to_json());
}
