//! The switchingMode mechanism in action: a transaction whose footprint
//! exceeds the L1 would abort with a capacity overflow on every retry in
//! plain best-effort HTM — LockillerTM instead switches it to STL mode
//! mid-flight, keeping all completed work (§III-C, Figs. 6/10/11).
//!
//! ```text
//! cargo run --release --example switching_demo
//! ```

use lockillertm::lockiller::flatmem::{FlatMem, SetupCtx};
use lockillertm::lockiller::guest::GuestCtx;
use lockillertm::lockiller::{GuestFuture, Program, Runner, SystemKind};
use lockillertm::sim_core::config::{CacheGeometry, SystemConfig};
use lockillertm::sim_core::stats::{AbortCause, Phase};
use lockillertm::sim_core::types::Addr;

/// Each thread repeatedly sums and increments a region larger than L1.
struct BigScan {
    lines: u64,
    rounds: u64,
    base: Addr,
}

impl Program for BigScan {
    fn name(&self) -> &str {
        "big-scan"
    }

    fn setup(&mut self, s: &mut SetupCtx, _threads: usize) {
        self.base = s.alloc(self.lines * 8);
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            for _ in 0..self.rounds {
                let base = self.base;
                let lines = self.lines;
                ctx.critical(async |tx| {
                    for i in 0..lines {
                        let a = base.add(i * 8);
                        let v = tx.load(a).await?;
                        tx.store(a, v + 1).await?;
                    }
                    Ok(())
                })
                .await;
                ctx.compute(100).await;
            }
        })
    }

    fn validate(&self, _mem: &FlatMem) -> Result<(), String> {
        Ok(())
    }
}

fn main() {
    // A deliberately small L1 (64 lines) that a 100-line transaction
    // cannot fit — the Fig. 13 "small cache" regime in miniature.
    let mut cfg = SystemConfig::testing(2);
    cfg.mem.l1 = CacheGeometry { sets: 16, ways: 4 };

    println!("transaction footprint: 100 lines; L1 capacity: 64 lines\n");
    for kind in [
        SystemKind::Baseline,
        SystemKind::LockillerRwil,
        SystemKind::LockillerTm,
    ] {
        let mut prog = BigScan {
            lines: 100,
            rounds: 4,
            base: Addr::NULL,
        };
        let stats = Runner::new(kind)
            .threads(2)
            .config(cfg.clone())
            .run(&mut prog)
            .stats;
        println!("{}:", kind.name());
        println!("  cycles                 {}", stats.cycles);
        println!(
            "  capacity (of) aborts   {}",
            stats.abort_count(AbortCause::Of)
        );
        println!(
            "  fallback-lock sections {} (serialized)",
            stats.lock_commits
        );
        println!(
            "  proactive switches     {} granted, {} denied",
            stats.switches_granted, stats.switches_denied
        );
        println!(
            "  STL commits            {} (work saved: {} cycles in switchLock)",
            stats.stl_commits,
            stats.phase(Phase::SwitchLock)
        );
        println!();
    }
    println!(
        "Baseline burns every overflowing attempt; RWIL saves parallelism by\n\
         running the fallback as a lock transaction; full LockillerTM avoids\n\
         the rollback entirely by switching the running transaction to STL."
    );
}
