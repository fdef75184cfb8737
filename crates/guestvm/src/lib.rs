//! # guestvm — guest kernels as bytecode
//!
//! A compiled form of guest programs: a thread body becomes a small
//! register-machine kernel that the engine runs on the same coroutine
//! core as host-Rust guests, and that `tmstatic` analyses statically:
//!
//! - [`ir`] — a compact register-machine bytecode ([`ir::Kernel`])
//!   guest kernels compile into, with static validation and a
//!   label-resolving [`ir::KernelBuilder`];
//! - [`interp`] — the fetch/execute core, plus [`interp::run_on_ctx`],
//!   which runs a kernel over a plain [`lockiller::GuestCtx`]: plain ops
//!   become the awaited `GuestCtx` calls and critical sections run under
//!   `GuestCtx::critical`, the one implementation of the paper's
//!   elided-lock retry protocol (Listings 1–2);
//! - [`spec`] — the `ProgSpec` corpus DSL (shared with `tmverify` /
//!   `tmstatic`), whose [`spec::SpecProgram`] runs a hand-written loop on
//!   the host backend and its compiled kernel on the VM backend.
//!
//! Programs that compile to kernels return a
//! [`lockiller::GuestExec::from_body`] guest over `run_on_ctx` from
//! `Program::guest_exec` ([`lockiller::Backend::Vm`]). The design
//! contract is **bit-identity**: a kernel that issues the op stream of a
//! program's hand-written body produces byte-equal run statistics,
//! traces, memory images, and state fingerprints. The differential tests
//! in this crate and the CI `guestvm-smoke` job enforce it, which pins
//! the compiler and the interpreter.

pub mod interp;
pub mod ir;
pub mod spec;

pub use interp::{run_on_ctx, Fetch, Frame, OpAt};
pub use ir::{BinOp, Cond, Instr, Kernel, KernelBuilder, KernelError, Label, Reg};
pub use spec::{Op, ParseError, ProgSpec, Segment, SpecProgram};
