//! One-call tracing harness: run a STAMP workload on a Table-II system
//! with a recorder attached and return every artifact (`tmtrace` is a
//! thin CLI over this; tests drive it directly).

use crate::chrome::{export_chrome, TraceMeta};
use crate::forensics::{self, ForensicsReport};
use crate::jsonl::export_jsonl;
use crate::recorder::Recorder;
use crate::registry::MetricsRegistry;
use crate::summary::render_summary;
use crate::tmprof::{prof_json, render_prof};
use lockiller::system::SystemKind;
use lockiller::Runner;
use sim_core::config::SystemConfig;
use sim_core::obs::ObsHandle;
use sim_core::prof::{HostProf, ProfPhase, ProfReport};
use sim_core::stats::RunStats;
use sim_core::types::Cycle;
use stamp::{Scale, Workload, WorkloadKind};

/// What to run and how to sample it.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    pub workload: WorkloadKind,
    pub system: SystemKind,
    pub threads: usize,
    pub scale: Scale,
    pub seed: u64,
    /// Metric sampling interval in simulated cycles.
    pub sample_every: Cycle,
    /// Hardware configuration (Table I by default).
    pub hw: SystemConfig,
    /// Enable `tmprof` host-side engine profiling (see `sim_core::prof`):
    /// the engine's phase tree is grafted under the session's
    /// `run;simulate` scope, the artifacts gain the whole tree
    /// ([`TraceArtifacts::host_prof`]) and `selfprof_json` gains a
    /// `"prof"` block. Pure host observation — the simulated outcome is
    /// byte-identical either way.
    pub profile: bool,
}

impl TraceConfig {
    pub fn new(workload: WorkloadKind, system: SystemKind) -> TraceConfig {
        TraceConfig {
            workload,
            system,
            threads: 4,
            scale: Scale::Tiny,
            seed: 0xC0FFEE,
            sample_every: ObsHandle::DEFAULT_SAMPLE_EVERY,
            hw: SystemConfig::table1(),
            profile: false,
        }
    }
}

/// Everything a traced run produces.
#[derive(Debug)]
pub struct TraceArtifacts {
    pub stats: RunStats,
    pub recorder: Recorder,
    /// Chrome trace-event JSON (load in Perfetto / chrome://tracing).
    pub chrome_json: String,
    /// Metrics time series (schema line + one JSON object per tick).
    pub metrics_jsonl: String,
    /// Terminal summary (occupancy heatmap, tables, histograms).
    pub summary: String,
    /// Event-glyph timeline from the engine's structured trace.
    pub timeline: String,
    /// The session's host profile as a [`render_prof`] table: setup,
    /// simulate (with the engine's phases when profiled) and export.
    pub profile: String,
    /// Schema-2 self-profile JSON: the four session phases and their
    /// total in milliseconds, engine self-metrics (events processed,
    /// host-ns per simulated cycle, event-queue high-water) and, when
    /// profiled, the whole phase tree — `tmtrace` archives it for CI.
    pub selfprof_json: String,
    /// The workload's own post-run validation result.
    pub validation: Result<(), String>,
    /// Conflict forensics (attacker/victim matrix, hotspots, recovery
    /// ledger) derived from the recording; `tmtrace blame` renders it.
    pub forensics: ForensicsReport,
    /// The session's phase tree with the engine's grafted under
    /// `run;simulate`; `Some` iff [`TraceConfig::profile`] was set.
    /// `tmtrace flame` exports it.
    pub host_prof: Option<ProfReport>,
}

/// Run `cfg` to completion and export all artifacts.
pub fn run_trace(cfg: &TraceConfig) -> TraceArtifacts {
    let mut prof = HostProf::start();
    prof.enter(ProfPhase::Setup);
    let mut prog = Workload::with_scale(cfg.workload, cfg.threads, cfg.scale);
    let (handle, rec) = Recorder::shared(cfg.sample_every);
    let mut runner = Runner::new(cfg.system)
        .config(cfg.hw.clone())
        .threads(cfg.threads)
        .seed(cfg.seed)
        .obs(handle);
    if cfg.profile {
        runner = runner.profile();
    }
    prof.exit();
    prof.enter(ProfPhase::Simulate);
    let mut out = runner.tracing().no_validate().run(&mut prog);
    let events = out.take_trace_events();
    let engine_prof = out.host_prof.take();
    let (stats, mem) = (out.stats, out.mem);
    prof.exit();
    prof.enter(ProfPhase::Export);
    let validation = lockiller::Program::validate(&prog, &mem);
    let recorder = std::mem::take(&mut *rec.lock().expect("recorder poisoned"));
    let registry = MetricsRegistry::for_config(&cfg.hw);
    let meta = TraceMeta {
        workload: cfg.workload.name().to_string(),
        system: cfg.system.name().to_string(),
        threads: cfg.threads,
        seed: cfg.seed,
    };
    let chrome_json = export_chrome(&recorder, &meta, &stats);
    let metrics_jsonl = export_jsonl(&recorder, &registry, &stats);
    let summary = render_summary(&recorder, &stats);
    let timeline = lockiller::render_timeline(&events, cfg.threads, 100);
    let forensics = forensics::analyze(&recorder, cfg.threads);
    prof.exit();
    let mut tree = prof.report();
    if let Some(engine) = &engine_prof {
        tree.graft("run;simulate", engine);
    }
    let selfprof_json = selfprof_json(&tree, &stats, engine_prof.is_some());
    TraceArtifacts {
        stats,
        recorder,
        chrome_json,
        metrics_jsonl,
        summary,
        timeline,
        profile: render_prof(&tree),
        selfprof_json,
        validation,
        forensics,
        host_prof: engine_prof.map(|_| tree),
    }
}

/// The schema-2 `selfprof.json` document. `phases` holds the totals of
/// the session's setup, simulate and export scopes plus the root's self
/// time as `epilogue`, so the four sum to `total_ms`. The `engine` block
/// samples the run's stats: simulated work done, host cost per simulated
/// cycle (from the simulate scope) and the event-queue high-water; every
/// ratio is 0 (never NaN/Inf) when its denominator is 0. A profiled run
/// appends the whole phase tree as the `"prof"` block.
fn selfprof_json(tree: &ProfReport, stats: &RunStats, profiled: bool) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let total = |phase: ProfPhase| {
        tree.node(&format!("run;{}", phase.name()))
            .map_or(0, |n| n.total_ns)
    };
    let simulate_ns = total(ProfPhase::Simulate);
    let ns_per_cycle = if stats.cycles == 0 {
        0.0
    } else {
        simulate_ns as f64 / stats.cycles as f64
    };
    let cycles_per_sec = if simulate_ns == 0 {
        0.0
    } else {
        stats.cycles as f64 * 1e9 / simulate_ns as f64
    };
    let mut doc = format!(
        "{{\"schema\":2,\"phases\":{{\"setup\":{:.3},\"simulate\":{:.3},\"export\":{:.3},\"epilogue\":{:.3}}},\"total_ms\":{:.3}",
        ms(total(ProfPhase::Setup)),
        ms(simulate_ns),
        ms(total(ProfPhase::Export)),
        ms(tree.nodes[0].self_ns),
        ms(tree.total_ns)
    );
    doc.push_str(&format!(
        ",\"engine\":{{\"sim_cycles\":{},\"events_processed\":{},\"event_queue_peak\":{},\"ns_per_cycle\":{ns_per_cycle:.3},\"sim_cycles_per_sec\":{cycles_per_sec:.1}}}",
        stats.cycles, stats.events_processed, stats.event_queue_peak
    ));
    if profiled {
        doc.push_str(&format!(",\"prof\":{}", prof_json(tree)));
    }
    doc.push('}');
    doc
}
