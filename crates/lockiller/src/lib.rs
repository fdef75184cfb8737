//! # LockillerTM — the paper's contribution
//!
//! This crate assembles the CMP simulator substrate (`sim-core`, `noc`,
//! `coherence`) into a full transactional-memory system and implements the
//! three LockillerTM mechanisms plus every baseline the paper evaluates:
//!
//! - the **recovery mechanism** with insts-based dynamic priority
//!   (§III-A): configured through [`SystemKind`], executed by the
//!   coherence layer's NACK/reject/wake-up machinery;
//! - the **HTMLock mechanism** (§III-B): the `hlbegin`/`hlend` runtime in
//!   [`guest`], lock transactions with globally-highest priority, and LLC
//!   overflow signatures;
//! - the **switchingMode mechanism** (§III-C): transparent proactive
//!   switching to STL mode on capacity overflow, driven by the engine.
//!
//! [`system::SystemKind`] names the nine Table-II systems; [`runner::Runner`]
//! executes a [`program::Program`] (a multi-threaded guest workload) on a
//! chosen system and returns a [`runner::RunOutput`] (statistics, final
//! memory image, optional event trace).
//!
//! Every simulated thread is an [`exec::GuestExec`]: an `async` body
//! over a [`guest::GuestCtx`], resumed as a coroutine by the
//! single-threaded discrete-event engine on its own thread. A program
//! has one body: host-Rust for most STAMP ports, an interpreter over the
//! compiled `guestvm` kernel for kernel programs (whichever
//! [`exec::Backend`] starts it). Every body reaches the engine through
//! the one retry protocol in [`guest::GuestCtx::critical`], and every
//! simulation is bit-deterministic.

pub mod engine;
pub mod exec;
pub mod flatmem;
pub mod guest;
mod lane;
pub mod program;
pub mod runner;
pub mod sched;
pub mod system;
pub mod trace;

pub use exec::{Backend, GuestEnv, GuestExec};
pub use flatmem::{FlatMem, SetupCtx};
pub use guest::{Abort, GuestCtx, GuestOp, GuestResp, TTest, TxCtx};
pub use program::{GuestFuture, Program};
pub use runner::{RunOutput, Runner};
pub use sched::{EvClass, EvDesc, RunEnd, Scheduler, StaticIndependence};
pub use system::SystemKind;
pub use trace::{render_timeline, Trace, TraceEvent, TraceKind, TraceLevel, DEFAULT_TRACE_CAP};
