//! Static conflict/independence analysis over guest kernels.
//!
//! Every thread of a guest program is a `guestvm` bytecode [`Kernel`](guestvm::Kernel):
//! hand-built, compiled from a STAMP workload, or compiled from a
//! [`ProgSpec`](tmverify::progs::ProgSpec). Which lines a thread can
//! touch, and whether the access happens inside a critical section, is
//! decidable before a single schedule runs — exactly for straight-line
//! spec kernels, and as a sound over-approximation for computed
//! addresses and loops. This crate computes that information once:
//!
//! - [`vmabs`] abstractly interprets each kernel into line footprints,
//!   loop bounds and reachability;
//! - [`VmAnalysis`] projects the footprints onto a system and cache
//!   geometry: capacity, abort/park sources, fallback contagion, lock
//!   footprint and purity (the analysis lattice in `DESIGN.md` §16).
//!
//! and uses it two ways:
//!
//! - **Lints** ([`lint`] for specs, [`lint_kernels`] for bytecode):
//!   machine-readable diagnostics for statically decidable hazards —
//!   the HyTM fast/slow-path *mixed-access race* (a plain access to a
//!   line some other thread writes transactionally), guaranteed
//!   *capacity overflow*, *hand-off cycles* in the cross-thread
//!   line-dependency graph, rollback-unsafe stores, unreachable code,
//!   unbounded loops, and dead-store/unused-line/no-op hygiene. The
//!   `tmlint` binary exposes them with a stable JSON schema and a CI
//!   baseline mode.
//! - **DPOR pruning** ([`VmAnalysis::independence`]): a
//!   [`StaticIndependence`](lockiller::StaticIndependence) table
//!   refining the dynamic conflict relation used by `tmverify`'s
//!   sleep-set DPOR on either backend, so statically-independent step
//!   pairs never generate backtrack points. The table is only
//!   constructed when its soundness premises are proven for the whole
//!   program (precise footprints, no possible capacity overflow, no
//!   possible LLC eviction).
//!
//! The analysis is deliberately an *over-approximation*: every conflict
//! the simulator can dynamically observe must be statically predicted
//! ([`VmAnalysis::may_conflict`]); the soundness tests assert exactly
//! that against recorded [`ConflictEdge`](sim_core::obs::ConflictEdge)s.

pub mod analysis;
pub mod lint;
pub mod vmabs;
pub mod vmlint;

pub use analysis::VmAnalysis;
pub use lint::{lint, Diag, Severity};
pub use vmabs::{analyze, analyze_cached, KernelAbs, LoopBound};
pub use vmlint::lint_kernels;
