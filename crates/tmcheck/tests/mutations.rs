//! Checker-validation (mutation) tests: each fault-injection knob breaks
//! the protocol in a distinct way, and the corresponding checker must
//! report a violation with a concrete witness. This is the evidence that
//! the checkers actually detect what they claim to detect — a checker
//! that passes on correct runs AND on broken runs checks nothing.

use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::{GuestFuture, Program};
use lockiller::system::SystemKind;
use sim_core::types::Addr;
use tmcheck::harness::{checked_config, run_checked};
use tmcheck::CheckKind;

/// Shared counter incremented in critical sections: the canonical
/// conflict generator (load / compute / store forces a wide window).
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
                    tx.compute(30).await?;
                    tx.store(addr, v + 1).await?;
                    Ok(())
                })
                .await;
                ctx.compute(10).await;
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

/// Knob 1: the protocol ignores transactional conflict bits, so two
/// speculative read-modify-writes interleave and both commit — a lost
/// update the DSG checker must flag as a cycle.
#[test]
fn ignore_conflicts_breaks_serializability() {
    let mut cfg = checked_config(2);
    cfg.check.fault.ignore_conflicts = true;
    let mut prog = Counter::new(25);
    let run = run_checked(SystemKind::Baseline, 2, cfg, 1, &mut prog);
    assert!(
        run.report.has(CheckKind::Serializability),
        "conflict-blind protocol must produce a DSG cycle:\n{}",
        run.report.render()
    );
    // The witness names the sections involved.
    let v = run
        .report
        .violations
        .iter()
        .find(|v| v.check == CheckKind::Serializability)
        .unwrap();
    assert!(v.message.contains("DSG cycle"), "witness: {}", v.message);
    // And the lost update shows up in the output too.
    assert!(
        run.validation.is_err(),
        "lost updates must corrupt the counter"
    );
}

/// Knob 2: the arbitration loser acknowledges the probe as if it held
/// nothing but keeps its modified line, so the directory hands out a
/// second exclusive copy — the live SWMR checker must catch the dual
/// ownership.
#[test]
fn drop_nack_breaks_swmr() {
    let mut cfg = checked_config(4);
    cfg.check.fault.drop_nack = true;
    let mut prog = Counter::new(25);
    let run = run_checked(SystemKind::LockillerRwi, 4, cfg, 1, &mut prog);
    assert!(
        run.report.has(CheckKind::Swmr),
        "a swallowed NACK must leave two exclusive copies:\n{}",
        run.report.render()
    );
    let v = run
        .report
        .violations
        .iter()
        .find(|v| v.check == CheckKind::Swmr)
        .unwrap();
    assert!(v.message.contains("at cycle"), "witness: {}", v.message);
}

/// Knob 3: NACKs still flow but wake-ups are silently dropped, so parked
/// requesters starve — the liveness checker must flag the unpaired NACK.
/// With four contending threads the starvation is usually cut short by a
/// conflicting probe aborting the parked core, so the run completes; the
/// pairing check catches the drop regardless.
#[test]
fn drop_wakeups_breaks_nack_pairing() {
    let mut cfg = checked_config(4);
    cfg.check.fault.drop_wakeups = true;
    let mut prog = Counter::new(25);
    let run = run_checked(SystemKind::LockillerRwi, 4, cfg, 1, &mut prog);
    assert!(
        run.report.has(CheckKind::Liveness),
        "dropped wake-ups must leave unpaired NACKs:\n{}",
        run.report.render()
    );
    let v = run
        .report
        .violations
        .iter()
        .find(|v| v.check == CheckKind::Liveness)
        .unwrap();
    assert!(v.message.contains("NACKed"), "witness: {}", v.message);
}

/// Write-only transactions with a long in-transaction tail: thread 1's
/// first store lands while thread 0 (further along, higher priority)
/// holds the line speculatively written, so thread 1 is rejected holding
/// nothing another core would ever probe. With the wake-up dropped,
/// nothing releases it and it starves to the safety-net timeout.
struct Starver {
    addr: Addr,
}

impl Program for Starver {
    fn name(&self) -> &str {
        "starver"
    }

    fn setup(&mut self, s: &mut SetupCtx, _threads: usize) {
        self.addr = s.alloc(8);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let addr = self.addr;
            if ctx.tid == 0 {
                ctx.critical(async |tx| {
                    tx.store(addr, 1).await?;
                    tx.compute(600).await
                })
                .await;
            } else {
                // Arrive mid-window, when thread 0's write bit is set and its
                // instruction-based priority is far ahead.
                ctx.compute(300).await;
                ctx.critical(async |tx| {
                    tx.store(addr, 2).await?;
                    tx.compute(5).await
                })
                .await;
            }
        })
    }
}

/// Knob 3, starvation shape: the parked requester holds nothing, so no
/// probe ever aborts it and the run only finishes because the safety-net
/// timeout fires — which the liveness checker reports.
#[test]
fn drop_wakeups_starves_to_timeout() {
    let mut cfg = checked_config(2);
    cfg.check.fault.drop_wakeups = true;
    let mut prog = Starver { addr: Addr::NULL };
    let run = run_checked(SystemKind::LockillerRwi, 2, cfg, 1, &mut prog);
    assert!(
        run.stats.wakeup_timeouts > 0,
        "the safety net should have fired"
    );
    assert!(
        run.report.has(CheckKind::Liveness),
        "the timeout must surface as a liveness violation:\n{}",
        run.report.render()
    );
    let timeout = run
        .report
        .violations
        .iter()
        .any(|v| v.check == CheckKind::Liveness && v.message.contains("safety-net"));
    assert!(timeout, "{}", run.report.render());
}

/// Sanity: the same workload with no fault injected is clean on every
/// knob's system — the mutations above fail because of the fault, not
/// because of the workload.
#[test]
fn no_fault_is_clean() {
    for kind in [SystemKind::Baseline, SystemKind::LockillerRwi] {
        let mut prog = Counter::new(25);
        let run = run_checked(kind, 4, checked_config(4), 1, &mut prog);
        assert!(
            run.is_clean(),
            "{} should be clean without faults:\n{}",
            kind.name(),
            run.report.render()
        );
    }
}
