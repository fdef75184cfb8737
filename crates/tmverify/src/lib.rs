//! tmverify — exhaustive schedule exploration for the recovery/HTMLock
//! protocol.
//!
//! The deterministic simulator's only nondeterminism is the order in
//! which same-cycle events dispatch. This crate drives the engine
//! through *every* such ordering of small configurations (2–4 cores, a
//! handful of cache lines, short STAMP-style kernels) via the
//! [`lockiller::Scheduler`] seam, pruning the schedule tree with
//! sleep-set DPOR and state-fingerprint deduplication (see [`dpor`]).
//!
//! Every explored schedule is checked with `tmcheck` (serializability,
//! protocol invariants) plus two whole-space properties: deadlock
//! freedom and TL/STL grant exclusivity. Violating schedules are
//! shrunk ddmin-style ([`shrink`]) to a minimal decision sequence and
//! written as a replayable witness (`tmobs::Witness`) that both
//! `tmverify replay` and `tmtrace witness` understand.
//!
//! Quickstart:
//!
//! ```text
//! cargo run -p tmverify -- --system lockiller-rwi --cores 2 --lines 2
//! ```

pub mod dpor;
pub mod shrink;

/// The guest-program corpus (`ProgSpec` DSL + `SpecProgram`): moved to
/// the `guestvm` crate so specs compile to bytecode kernels, re-exported
/// under its historical path for `tmstatic`/`tmlab` and the CLI.
pub use guestvm::spec as progs;

pub use dpor::{ExploreReport, Explorer};
pub use progs::{Op, ProgSpec, Segment, SpecProgram};
pub use shrink::ddmin;
