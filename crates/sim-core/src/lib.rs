//! Foundation crate for the LockillerTM reproduction: core identifiers,
//! deterministic discrete-event machinery, system configuration (Table I of
//! the paper), statistics plumbing, and small utility types shared by every
//! other crate in the workspace.
//!
//! Nothing in this crate knows about caches, transactions, or workloads; it
//! is the substrate the CMP simulator is assembled from.

pub mod cli;
pub mod config;
pub mod event;
pub mod fxhash;
pub mod json;
pub mod latency;
pub mod obs;
pub mod prof;
pub mod rng;
pub mod stats;
pub mod types;

pub use config::{CacheGeometry, MemConfig, PolicyConfig, SystemConfig};
pub use event::EventQueue;
pub use latency::{LatencyHist, LatencyStats, TxnClass, TxnLifecycle};
pub use obs::{Metric, MetricSpec};
pub use prof::{HostProf, ProfNode, ProfPhase, ProfReport};
pub use rng::SimRng;
pub use stats::{AbortCause, Phase, RunStats};
pub use types::{Addr, CoreId, Cycle, LineAddr, WORDS_PER_LINE};
