//! Checked-mode execution harness: run any [`Program`] on any system with
//! `CheckCfg` enabled, then feed the resulting trace through every
//! checker and fold in the live SWMR result and the program's own output
//! validation.

use crate::{check_trace, CheckKind, CheckOpts, Report, Violation};
use lockiller::program::Program;
use lockiller::runner::Runner;
use lockiller::system::SystemKind;
use sim_core::config::{CheckCfg, SystemConfig};
use sim_core::stats::RunStats;

/// Everything a checked run produces.
pub struct CheckedRun {
    pub stats: RunStats,
    pub report: Report,
    /// The program's own memory-image validation (the serializability
    /// oracle the integration tests use), run here explicitly so checked
    /// mode reports it alongside trace violations instead of panicking.
    pub validation: Result<(), String>,
}

impl CheckedRun {
    /// Clean trace *and* valid output.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean() && self.validation.is_ok()
    }
}

/// Run `prog` on `kind` with checking enabled and analyze the trace.
///
/// `cfg.check.enabled` is forced on; any fault-injection knobs already
/// set on `cfg.check.fault` are preserved (that is how the mutation
/// tests prove each checker actually fires).
pub fn run_checked<P: Program>(
    kind: SystemKind,
    threads: usize,
    mut cfg: SystemConfig,
    seed: u64,
    prog: &mut P,
) -> CheckedRun {
    cfg.check.enabled = true;
    let runner = Runner::new(kind).threads(threads).seed(seed).config(cfg);
    let mut out = runner.tracing().no_validate().run(prog);
    let trace = out.take_trace_events();
    let (stats, mem) = (out.stats, out.mem);
    let mut report = check_trace(&trace, CheckOpts::for_system(kind));
    if let Some(msg) = &stats.swmr_violation {
        report.violations.push(Violation {
            check: CheckKind::Swmr,
            message: msg.clone(),
        });
    }
    let validation = prog.validate(&mem);
    CheckedRun {
        stats,
        report,
        validation,
    }
}

/// Convenience: a testing-scale config with checking on.
pub fn checked_config(threads: usize) -> SystemConfig {
    let mut cfg = SystemConfig::testing(threads.max(2));
    cfg.check = CheckCfg::on();
    cfg
}
