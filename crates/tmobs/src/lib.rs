//! # tmobs — observability for the LockillerTM simulator
//!
//! The emitting layers (`lockiller`, `coherence`, `noc`) speak the small
//! vocabulary defined in `sim_core::obs`; this crate owns everything on
//! the *consuming* side:
//!
//! - [`recorder::Recorder`] — a run's recording, derived from its
//!   span-level `lockiller::Trace`: closed [`recorder::Span`]s paired
//!   from the trace's events, per-tick metric sample rows, and conflict
//!   edges;
//! - [`registry::MetricsRegistry`] — the union of every layer's metric
//!   registrations;
//! - exporters: [`chrome`] (Chrome trace-event JSON, loadable in
//!   Perfetto — one track per core plus LLC and NoC tracks), [`jsonl`]
//!   (metrics time series, one JSON object per sample tick), and
//!   [`summary`] (terminal occupancy heatmap, abort/NoC/LLC tables, and
//!   percentile rows for the latency classes and the recording's
//!   transaction lengths and bank queue depths);
//! - [`forensics`] — conflict forensics derived from a recording: the
//!   attacker/victim matrix with wasted-cycle weights, the per-line
//!   hotspot table, and the recovery-outcome ledger (`tmtrace blame`);
//! - [`diff`] — schema-agnostic numeric JSON diff used as a run-to-run
//!   regression detector (`tmtrace diff`, bench, CI);
//! - [`latency`] — percentile tables of the deterministic log-bucketed
//!   histograms (`sim_core::latency::LatencyHist`): the per-transaction-
//!   class table and the same rows for any named histogram;
//! - [`witness`] — replayable schedule witnesses written by the
//!   `tmverify` explorer (`tmtrace witness` renders them, `tmverify
//!   replay` re-executes them);
//! - [`session`] — a one-call harness running a STAMP workload on a
//!   Table-II system at span level, returning all artifacts
//!   and timing its own setup / simulate / export phases as
//!   `sim_core::prof::HostProf` scopes (`<stem>.selfprof.json`);
//! - [`tmprof`] — exporters for the scope-based host profile
//!   (`sim_core::prof`): collapsed-stack flamegraph, Chrome-trace
//!   nesting, the schema-v2 `selfprof.json` `"prof"` block, and the
//!   per-phase shares `experiments engine` records (`tmtrace flame`);
//! - [`batch::BatchProgress`] — thread-safe completion counter + stderr
//!   progress lines for batch runs (the bench crate's `Lab::run_many`);
//! - the `tmtrace` CLI binary, which writes the artifacts to disk.
//!
//! The engine records each event once, into its trace; everything here
//! is derived from a finished run. Recording never changes a
//! simulation's outcome: it is write-only (see `sim_core::obs`).

pub mod batch;
pub mod chrome;
pub mod diff;
pub mod forensics;
pub mod jsonl;
pub mod latency;
pub mod recorder;
pub mod registry;
pub mod session;
pub mod summary;
pub mod tmprof;
pub mod witness;

pub use batch::BatchProgress;
pub use chrome::{export_chrome, validate_chrome, ChromeSummary, TraceMeta};
pub use diff::{check_schema_match, diff_docs, diff_values, top_phase_movers, MetricDelta};
pub use forensics::{analyze, ConflictMatrix, ForensicsReport, LineHotspot, RecoveryLedger};
pub use jsonl::export_jsonl;
pub use latency::render_latency_table;
pub use recorder::{ConflictEvent, Recorder, SampleRow, Span, SpanEnd, SpanKind, Track};
pub use registry::MetricsRegistry;
pub use session::{run_trace, TraceArtifacts, TraceConfig};
pub use summary::render_summary;
pub use tmprof::{chrome_prof, flame, flame_total_us, phase_shares, prof_json, render_prof};
pub use witness::{Witness, WITNESS_VERSION};
