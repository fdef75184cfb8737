//! Runs that end early on the host backend: a blown cycle budget and a
//! deadlock both return their `RunEnd` promptly, with every guest body
//! dropped where it was suspended. Guest bodies run on the caller's
//! thread, so an early end has no thread to release or join.

use lockiller::flatmem::SetupCtx;
use lockiller::guest::GuestCtx;
use lockiller::program::{GuestFuture, Program};
use lockiller::runner::Runner;
use lockiller::sched::{EvDesc, RunEnd, Scheduler};
use lockiller::system::SystemKind;
use sim_core::config::SystemConfig;
use sim_core::types::{Addr, Cycle};
use std::cell::{Cell, RefCell};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The engine's own tie-break: always the first candidate.
struct Fifo;

impl Scheduler for Fifo {
    fn pick(&mut self, _at: Cycle, _options: &[EvDesc], _state_fp: u64) -> usize {
        0
    }
}

/// Counts the guest bodies dropped, finished or not.
struct DropCount<'a>(&'a Cell<usize>);

impl Drop for DropCount<'_> {
    fn drop(&mut self) {
        self.0.set(self.0.get() + 1);
    }
}

/// What every guest body records about where it ran and how it ended.
#[derive(Default)]
struct Probe {
    dropped: Cell<usize>,
    ran_on: RefCell<Vec<ThreadId>>,
}

impl Probe {
    /// Enter a guest body: note the host thread and arm the drop count.
    fn enter(&self) -> DropCount<'_> {
        self.ran_on.borrow_mut().push(std::thread::current().id());
        DropCount(&self.dropped)
    }

    /// Every one of `threads` bodies ran on this thread and was dropped.
    fn assert_released(&self, threads: usize) {
        let me = std::thread::current().id();
        let ran_on = self.ran_on.borrow();
        assert_eq!(ran_on.len(), threads, "every guest body started");
        assert!(
            ran_on.iter().all(|&t| t == me),
            "guest bodies must run on the caller's thread"
        );
        assert_eq!(self.dropped.get(), threads, "every guest body dropped");
    }
}

/// Increments a shared counter forever: only a cycle budget ends it.
struct Endless {
    addr: Addr,
    probe: Probe,
}

impl Program for Endless {
    fn name(&self) -> &str {
        "endless"
    }

    fn setup(&mut self, s: &mut SetupCtx, _threads: usize) {
        self.addr = s.alloc(8);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let _armed = self.probe.enter();
            let addr = self.addr;
            loop {
                ctx.critical(async |tx| {
                    let v = tx.load(addr).await?;
                    tx.store(addr, v + 1).await
                })
                .await;
            }
        })
    }
}

#[test]
fn cycle_budget_returns_cycle_limit() {
    let mut prog = Endless {
        addr: Addr::NULL,
        probe: Probe::default(),
    };
    let start = Instant::now();
    let out = Runner::new(SystemKind::LockillerTm)
        .threads(2)
        .config(SystemConfig::testing(2))
        .max_cycles(20_000)
        .run_scheduled(&mut prog, &mut Fifo);
    assert!(
        matches!(out.end, RunEnd::CycleLimit { at } if at > 20_000),
        "{:?}",
        out.end
    );
    assert!(start.elapsed() < Duration::from_secs(10), "slow early end");
    prog.probe.assert_released(2);
}

/// Thread 0 takes the fallback lock (a demand-paging fault sends its
/// first attempt there) and never releases it: it waits at a barrier
/// inside the lock section. Thread 1 arrives much later, conflicts with
/// the lock transaction, and is parked until a wake-up that can only
/// come when the lock is released. With the wake-up safety net off,
/// nothing is left to happen.
struct LockHolder {
    addr: Addr,
    probe: Probe,
}

impl Program for LockHolder {
    fn name(&self) -> &str {
        "lock-holder"
    }

    fn setup(&mut self, s: &mut SetupCtx, _threads: usize) {
        self.addr = s.alloc(8);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let _armed = self.probe.enter();
            let addr = self.addr;
            if ctx.tid == 0 {
                ctx.critical(async |tx| {
                    tx.page_touch(1 << 30).await?;
                    tx.store(addr, 1).await?;
                    tx.g.barrier().await;
                    Ok(())
                })
                .await;
            } else {
                ctx.compute(50_000).await;
                ctx.critical(async |tx| tx.store(addr, 2).await).await;
                ctx.barrier().await;
            }
        })
    }
}

#[test]
fn unreleased_fallback_lock_returns_deadlock() {
    let mut prog = LockHolder {
        addr: Addr::NULL,
        probe: Probe::default(),
    };
    let mut policy = SystemKind::LockillerTm.policy();
    policy.wakeup_timeout = Cycle::MAX;
    let start = Instant::now();
    let out = Runner::new(SystemKind::LockillerTm)
        .threads(2)
        .config(SystemConfig::testing(2))
        .policy(policy)
        .no_validate()
        .run_scheduled(&mut prog, &mut Fifo);
    assert_eq!(out.end, RunEnd::Deadlock { stuck: vec![0, 1] });
    assert_eq!(out.stats.fallbacks, 1, "thread 0 took the fallback lock");
    assert!(out.stats.rejects > 0, "thread 1 was parked, not spinning");
    assert!(start.elapsed() < Duration::from_secs(10), "slow early end");
    prog.probe.assert_released(2);
}
