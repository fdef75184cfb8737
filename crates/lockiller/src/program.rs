//! The workload interface: a `Program` is a multi-threaded guest
//! application (e.g., one STAMP benchmark with fixed inputs).

use crate::exec::{GuestEnv, GuestExec};
use crate::flatmem::{FlatMem, SetupCtx};
use crate::guest::GuestCtx;
use std::future::Future;
use std::pin::Pin;

/// A guest thread's body: the coroutine [`Program::run`] returns. It
/// borrows the program and the thread's [`GuestCtx`], and is polled on
/// the engine's thread (see [`GuestExec`]).
pub type GuestFuture<'a> = Pin<Box<dyn Future<Output = ()> + 'a>>;

/// A guest workload.
///
/// Lifecycle: [`Program::setup`] builds the shared data structures in
/// simulated memory (un-timed, before the region of interest), then
/// [`Program::run`] executes on every simulated thread concurrently, and
/// finally [`Program::validate`] checks the resulting memory image —
/// the serializability oracle used by the integration tests.
pub trait Program {
    fn name(&self) -> &str;

    /// Build inputs and shared structures; record their addresses in
    /// `self` for the thread bodies to use.
    fn setup(&mut self, s: &mut SetupCtx, threads: usize);

    /// Thread body; `ctx.tid` identifies the simulated thread. Write it
    /// as `Box::pin(async move { ... })`, awaiting every `ctx` operation.
    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a>;

    /// Construct the guest one simulated thread runs on
    /// [`crate::Backend::Vm`]. Returning `None` (the default) marks a
    /// program without a compiled kernel; kernel programs, whose `run`
    /// interprets their `guestvm` bytecode (`guestvm::run_on_ctx`),
    /// return their `run` body through [`GuestExec::from_body`], so both
    /// backends run the one kernel. Called after [`Program::setup`],
    /// once per thread.
    fn guest_exec(&self, env: GuestEnv) -> Option<GuestExec<'_>> {
        let _ = env;
        None
    }

    /// Post-run invariant check on the final memory image.
    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        let _ = mem;
        Ok(())
    }
}
