//! Memory-model litmus tests: the simulated machine is sequentially
//! consistent by construction (a single event queue totally orders all
//! value operations, and the MESI protocol enforces SWMR). These classic
//! litmus shapes pin that down — if a future optimization broke the
//! ordering, the forbidden outcomes would appear here.

use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::{GuestFuture, Program};
use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use sim_core::config::SystemConfig;
use sim_core::types::Addr;

/// Message passing: T0 writes data then flag; T1 spins on flag then reads
/// data. Forbidden outcome: flag seen but stale data.
struct MessagePassing {
    data: Addr,
    flag: Addr,
    result: Addr,
}

impl Program for MessagePassing {
    fn name(&self) -> &str {
        "litmus-mp"
    }

    fn setup(&mut self, s: &mut SetupCtx, _t: usize) {
        self.data = s.alloc(8);
        self.flag = s.alloc(8);
        self.result = s.alloc(8);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            if ctx.tid == 0 {
                ctx.store(self.data, 42).await;
                ctx.store(self.flag, 1).await;
            } else {
                while ctx.load(self.flag).await == 0 {
                    ctx.compute(8).await;
                }
                let d = ctx.load(self.data).await;
                ctx.store(self.result, d).await;
            }
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        let got = mem.read(self.result);
        if got == 42 {
            Ok(())
        } else {
            Err(format!("message passing violated: read {got} after flag"))
        }
    }
}

#[test]
fn message_passing_is_ordered() {
    for seed in [1u64, 2, 3, 4, 5] {
        let mut prog = MessagePassing {
            data: Addr::NULL,
            flag: Addr::NULL,
            result: Addr::NULL,
        };
        let _ = Runner::new(SystemKind::Baseline)
            .threads(2)
            .config(SystemConfig::testing(2))
            .seed(seed)
            .run(&mut prog);
    }
}

/// Store buffering (Dekker): T0: x=1; r0=y. T1: y=1; r1=x.
/// Under SC, (r0, r1) == (0, 0) is forbidden.
struct StoreBuffering {
    x: Addr,
    y: Addr,
    r0: Addr,
    r1: Addr,
}

impl Program for StoreBuffering {
    fn name(&self) -> &str {
        "litmus-sb"
    }

    fn setup(&mut self, s: &mut SetupCtx, _t: usize) {
        self.x = s.alloc(8);
        self.y = s.alloc(8);
        self.r0 = s.alloc(8);
        self.r1 = s.alloc(8);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            if ctx.tid == 0 {
                ctx.store(self.x, 1).await;
                let v = ctx.load(self.y).await;
                ctx.store(self.r0, v).await;
            } else {
                ctx.store(self.y, 1).await;
                let v = ctx.load(self.x).await;
                ctx.store(self.r1, v).await;
            }
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        let (r0, r1) = (mem.read(self.r0), mem.read(self.r1));
        if r0 == 0 && r1 == 0 {
            Err("store buffering observed: both threads read 0 — not SC".into())
        } else {
            Ok(())
        }
    }
}

#[test]
fn no_store_buffering() {
    for seed in [1u64, 7, 13] {
        let mut prog = StoreBuffering {
            x: Addr::NULL,
            y: Addr::NULL,
            r0: Addr::NULL,
            r1: Addr::NULL,
        };
        let _ = Runner::new(SystemKind::Baseline)
            .threads(2)
            .config(SystemConfig::testing(2))
            .seed(seed)
            .run(&mut prog);
    }
}

/// Coherence (CoRR): a single location's writes are seen in a single
/// total order by all readers — two readers must not see {1 then 2} and
/// {2 then 1} respectively.
struct CoRR {
    x: Addr,
    /// Two observations per reader thread.
    obs: Addr,
}

impl Program for CoRR {
    fn name(&self) -> &str {
        "litmus-corr"
    }

    fn setup(&mut self, s: &mut SetupCtx, _t: usize) {
        self.x = s.alloc(8);
        self.obs = s.alloc(4 * 8);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            match ctx.tid {
                0 => ctx.store(self.x, 1).await,
                1 => ctx.store(self.x, 2).await,
                reader => {
                    let a = ctx.load(self.x).await;
                    ctx.compute(5).await;
                    let b = ctx.load(self.x).await;
                    let base = (reader - 2) as u64 * 16;
                    ctx.store(self.obs.add(base), a).await;
                    ctx.store(self.obs.add(base + 8), b).await;
                }
            }
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        let r = |i: u64| mem.read(self.obs.add(i * 8));
        let (a0, b0, a1, b1) = (r(0), r(1), r(2), r(3));
        // Each reader's pair must be non-decreasing in SOME total write
        // order; the two observed orders must not contradict each other.
        let saw_12 = a0 == 1 && b0 == 2 || a1 == 1 && b1 == 2;
        let saw_21 = a0 == 2 && b0 == 1 || a1 == 2 && b1 == 1;
        if saw_12 && saw_21 {
            Err(format!(
                "coherence violated: contradictory orders ({a0},{b0}) ({a1},{b1})"
            ))
        } else {
            Ok(())
        }
    }
}

#[test]
fn coherence_order_is_total() {
    for seed in 1u64..=6 {
        let mut prog = CoRR {
            x: Addr::NULL,
            obs: Addr::NULL,
        };
        let _ = Runner::new(SystemKind::Baseline)
            .threads(4)
            .config(SystemConfig::testing(4))
            .seed(seed)
            .run(&mut prog);
    }
}

/// Transactional atomicity litmus: a transaction writing two locations is
/// seen entirely or not at all by a non-transactional snapshot pair...
/// (the reader uses a transaction too, so both sides are atomic).
struct AtomicPair {
    a: Addr,
    b: Addr,
    bad: Addr,
}

impl Program for AtomicPair {
    fn name(&self) -> &str {
        "litmus-atomic-pair"
    }

    fn setup(&mut self, s: &mut SetupCtx, _t: usize) {
        self.a = s.alloc(8);
        self.b = s.alloc(8);
        self.bad = s.alloc(8);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let (a, b, bad) = (self.a, self.b, self.bad);
            if ctx.tid.is_multiple_of(2) {
                for i in 1..=20u64 {
                    ctx.critical(async |tx| {
                        tx.store(a, i).await?;
                        tx.compute(15).await?;
                        tx.store(b, i).await?;
                        Ok(())
                    })
                    .await;
                }
            } else {
                for _ in 0..20 {
                    let torn = ctx
                        .critical(async |tx| {
                            let x = tx.load(a).await?;
                            tx.compute(10).await?;
                            let y = tx.load(b).await?;
                            Ok(x != y)
                        })
                        .await;
                    if torn {
                        ctx.store(bad, 1).await;
                    }
                    ctx.compute(12).await;
                }
            }
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        if mem.read(self.bad) != 0 {
            Err("atomicity violated: reader saw a torn pair".into())
        } else {
            Ok(())
        }
    }
}

#[test]
fn transactions_never_tear() {
    for kind in [
        SystemKind::Baseline,
        SystemKind::LockillerRwi,
        SystemKind::LockillerTm,
    ] {
        let mut prog = AtomicPair {
            a: Addr::NULL,
            b: Addr::NULL,
            bad: Addr::NULL,
        };
        let _ = Runner::new(kind)
            .threads(4)
            .config(SystemConfig::testing(4))
            .run(&mut prog);
    }
}
