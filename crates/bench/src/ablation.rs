//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! - **retry budget** (`TME_MAX_RETRIES` in Listing 1): how many HTM
//!   attempts before the fallback path;
//! - **priority metric**: insts-based (the paper) vs progression-based
//!   (LosaTM) vs FCFS vs plain requester-win;
//! - **reject action**: self-abort vs timed retry vs wake-up;
//! - **signature size**: Bloom false positives vs spurious rejects.

use crate::table::{ratio, render};
use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use sim_core::config::SystemConfig;
use stamp::{Scale, Workload, WorkloadKind};

fn cycles_with(
    kind: SystemKind,
    w: WorkloadKind,
    threads: usize,
    scale: Scale,
    tweak: impl FnOnce(&mut SystemConfig),
    retries: Option<u32>,
) -> u64 {
    let mut cfg = SystemConfig::table1();
    tweak(&mut cfg);
    let mut prog = Workload::with_scale(w, threads, scale);
    let mut r = Runner::new(kind).threads(threads).config(cfg);
    if let Some(n) = retries {
        r = r.retries(n);
    }
    r.run(&mut prog).stats.cycles
}

/// Retry-budget sweep on a contended workload: too few retries serialize
/// early; too many burn cycles in friendly-fire before falling back.
pub fn ablation_retries(scale: Scale) -> String {
    let w = WorkloadKind::VacationHigh;
    let threads = 8;
    let mut rows = Vec::new();
    for budget in [1u32, 2, 4, 8, 16, 32] {
        let base = cycles_with(
            SystemKind::Baseline,
            w,
            threads,
            scale,
            |_| {},
            Some(budget),
        );
        let full = cycles_with(
            SystemKind::LockillerTm,
            w,
            threads,
            scale,
            |_| {},
            Some(budget),
        );
        rows.push(vec![
            budget.to_string(),
            base.to_string(),
            full.to_string(),
            ratio(base as f64 / full as f64),
        ]);
    }
    let out = format!(
        "ABLATION: HTM retry budget ({} @{threads} threads)\n{}",
        w.name(),
        render(
            &["retries", "Baseline cycles", "LockillerTM cycles", "gain"],
            &rows
        )
    );
    out
}

/// Priority-metric ablation: the recovery framework with each arbitration
/// policy (Table II's RAI/RRI/RWI vs RWL vs LosaTM's progression).
pub fn ablation_priority(scale: Scale) -> String {
    let systems = [
        ("requester-win", SystemKind::Baseline),
        ("FCFS + wakeup (RWL)", SystemKind::LockillerRwl),
        ("progression (LosaTM)", SystemKind::LosaTmSafu),
        ("insts-based (RWI)", SystemKind::LockillerRwi),
    ];
    let workloads = [
        WorkloadKind::KmeansHigh,
        WorkloadKind::Intruder,
        WorkloadKind::VacationHigh,
    ];
    let mut rows = Vec::new();
    for (label, sys) in systems {
        let mut row = vec![label.to_string()];
        for w in workloads {
            let c = cycles_with(sys, w, 8, scale, |_| {}, None);
            row.push(c.to_string());
        }
        rows.push(row);
    }
    let out = format!(
        "ABLATION: priority metric (cycles @8 threads; lower is better)\n{}",
        render(&["policy", "kmeans+", "intruder", "vacation+"], &rows)
    );
    out
}

/// Reject-action ablation across the three LockillerTM variants.
pub fn ablation_reject_action(scale: Scale) -> String {
    let systems = [
        ("SelfAbort (RAI)", SystemKind::LockillerRai),
        ("RetryLater (RRI)", SystemKind::LockillerRri),
        ("WaitWakeup (RWI)", SystemKind::LockillerRwi),
    ];
    let mut rows = Vec::new();
    for (label, sys) in systems {
        let mut row = vec![label.to_string()];
        for w in [WorkloadKind::KmeansHigh, WorkloadKind::VacationHigh] {
            let mut prog = Workload::with_scale(w, 8, scale);
            let s = Runner::new(sys).threads(8).run(&mut prog).stats;
            row.push(format!("{} ({:.0}%)", s.cycles, s.commit_rate() * 100.0));
        }
        rows.push(row);
    }
    let out = format!(
        "ABLATION: reject action (cycles + commit rate @8 threads)\n{}",
        render(&["action", "kmeans+", "vacation+"], &rows)
    );
    out
}

/// Signature-size sweep: smaller Bloom signatures raise false-positive
/// rejects during lock-transaction overflow episodes.
pub fn ablation_signature(scale: Scale) -> String {
    let mut rows = Vec::new();
    for bits in [64usize, 128, 512, 1024, 4096] {
        let mut cfg = SystemConfig::small_cache(); // overflow-heavy regime
        cfg.mem.signature_bits = bits;
        let mut prog = Workload::with_scale(WorkloadKind::Labyrinth, 8, scale);
        let s = Runner::new(SystemKind::LockillerTm)
            .threads(8)
            .config(cfg)
            .run(&mut prog)
            .stats;
        rows.push(vec![
            bits.to_string(),
            s.cycles.to_string(),
            s.sig_rejects.to_string(),
            s.rejects.to_string(),
        ]);
    }
    let out = format!(
        "ABLATION: overflow-signature size (labyrinth, small cache, 8 threads)\n{}",
        render(
            &["sig bits", "cycles", "sig rejects", "nack rejects"],
            &rows
        )
    );
    out
}

pub fn run_all(scale: Scale) -> String {
    let mut out = String::new();
    out.push_str(&ablation_retries(scale));
    out.push('\n');
    out.push_str(&ablation_priority(scale));
    out.push('\n');
    out.push_str(&ablation_reject_action(scale));
    out.push('\n');
    out.push_str(&ablation_signature(scale));
    out
}
