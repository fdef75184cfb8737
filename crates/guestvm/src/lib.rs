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
//!   `tmstatic`), whose [`spec::SpecProgram`] runs the kernel a spec
//!   compiles to.
//!
//! A kernel program's compiled kernel is its one body: its
//! `Program::run` is `run_on_ctx` over the thread's kernel, and its
//! `Program::guest_exec` returns that same body, so both
//! [`lockiller::Backend`]s run the kernel. The hand-written bodies the
//! compilers were written from live on in tests as independent oracles
//! (the spec loop in `tests/differential.rs`, kmeans in the `stamp`
//! crate's `kmeans` tests). The contract is **bit-identity**: a kernel
//! issues its oracle's op stream, so the two produce byte-equal run
//! statistics, traces, memory images, and state fingerprints, which
//! pins the compiler and the interpreter.

pub mod interp;
pub mod ir;
pub mod spec;

pub use interp::{run_on_ctx, Fetch, Frame, OpAt};
pub use ir::{BinOp, Cond, Instr, Kernel, KernelBuilder, KernelError, Label, Reg};
pub use spec::{Op, ParseError, ProgSpec, Segment, SpecProgram};
