//! The guest execution seam: how the engine drives a simulated thread.
//!
//! A [`GuestExec`] is a *resumable* guest: the engine hands it the
//! response to its previous operation and gets the next operation back,
//! synchronously, on the engine's own thread. The engine calls
//! [`GuestExec::resume`] at exactly the points where a guest's previous
//! operation completes, so event order, state fingerprints, and every
//! `RunStats` digest are independent of which backend implements it.
//!
//! Two backends implement the trait:
//!
//! - `HostGuest` — host-Rust guests: the `Program::run` body is an
//!   `async` coroutine, and `resume` polls it once. Both halves of the
//!   single-slot mailbox protocol between the body and the engine live
//!   in this module. Any `Program` works here.
//! - `guestvm::GuestVm` (separate crate) — the bytecode VM: guest
//!   kernels compile to a compact op-stream bytecode and `resume` is a
//!   plain function call into a state machine that also supports
//!   snapshot/restore. Programs opt in by returning a VM from
//!   [`crate::Program::guest_exec`].
//!
//! [`Backend`] selects between them on [`crate::Runner`].

use crate::guest::{GuestCtx, GuestOp, GuestResp};
use crate::program::{GuestFuture, Program};
use sim_core::rng::SimRng;
use sim_core::types::Addr;
use std::cell::Cell;
use std::future::poll_fn;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Which guest execution core a [`crate::Runner`] drives.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Host-Rust guests (`HostGuest`): every [`crate::Program`] runs
    /// here, its `run` body polled in-process as a coroutine. The name
    /// predates the coroutines (guests used to run on OS threads) and is
    /// kept because CLIs, CI jobs, and benchmark records use it.
    #[default]
    Threads,
    /// Bytecode VM: requires the program to provide a [`GuestExec`] via
    /// [`crate::Program::guest_exec`]. Bit-identical to
    /// [`Backend::Threads`] on the same kernel, and checkpointable.
    Vm,
}

impl Backend {
    /// Stable lowercase name (used in `BENCH_engine.json` and CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Vm => "vm",
        }
    }

    /// Parse a CLI/JSON backend name.
    pub fn from_name(s: &str) -> Option<Backend> {
        match s.to_ascii_lowercase().as_str() {
            "threads" | "thread" | "rendezvous" => Some(Backend::Threads),
            "vm" | "guestvm" => Some(Backend::Vm),
            _ => None,
        }
    }
}

/// Everything a guest needs to construct its execution state for one
/// simulated thread; handed to [`crate::Program::guest_exec`] by the
/// runner (the single guest-construction entry point).
#[derive(Clone, Debug)]
pub struct GuestEnv {
    /// Simulated thread id (== core id).
    pub tid: usize,
    /// Total simulated threads in the run.
    pub threads: usize,
    /// Per-thread deterministic RNG (forked from the run seed; becomes
    /// `GuestCtx.rng` on the host backend).
    pub rng: SimRng,
    /// Guest-side runtime policy (retry budget, fallback kind, CGL).
    pub policy: crate::guest::GuestPolicy,
    /// Address of the global fallback/CGL lock word.
    pub lock_addr: Addr,
}

/// Opaque saved guest state for backends that support cheap
/// checkpointing (see [`GuestExec::snapshot`]).
pub struct GuestSnapshot(pub Box<dyn std::any::Any + Send>);

/// A resumable guest: the engine's view of one simulated thread.
///
/// ## Contract
///
/// The engine calls [`GuestExec::resume`] exactly once per `Recv`
/// rendezvous point. The **first** call carries a synthetic
/// [`GuestResp::Done`] kick (there is no previous operation to answer);
/// every later call carries the response to the operation returned by
/// the previous call. After the guest returns [`GuestOp::Exit`] the
/// engine never calls `resume` again.
///
/// Guests execute in zero simulated time: all host-side work inside
/// `resume` happens "between cycles" and must be deterministic — the
/// returned op may depend only on the response history and the guest's
/// own state.
///
/// A run that ends early (deadlock / cycle budget) simply drops its
/// guests mid-body; nothing else needs releasing.
pub trait GuestExec {
    /// Deliver `resp` and return the guest's next operation.
    fn resume(&mut self, resp: GuestResp) -> GuestOp;

    /// Capture the guest's complete execution state, if the backend
    /// supports cheap checkpointing (the VM does; a host-Rust coroutine
    /// cannot — a suspended future is not clonable).
    fn snapshot(&self) -> Option<GuestSnapshot> {
        None
    }

    /// Restore state captured by [`GuestExec::snapshot`] on the same
    /// guest. Returns `false` (state unchanged) if the snapshot is not
    /// one of this guest's or the backend has no checkpoint support.
    fn restore(&mut self, snap: &GuestSnapshot) -> bool {
        let _ = snap;
        false
    }
}

/// Contents of the single-slot mailbox between a host-Rust guest and its
/// [`HostGuest`]: the op a suspended guest issued, or the response the
/// engine left for it.
#[derive(Clone, Copy, Debug, Default)]
enum Mail {
    #[default]
    Empty,
    Op(GuestOp),
    Resp(GuestResp),
}

/// The mailbox shared by a [`GuestCtx`] and its [`HostGuest`]. Both
/// halves of the protocol live here: [`Mailbox::call`] on the guest side,
/// [`HostGuest::resume`] on the engine side.
#[derive(Clone, Default)]
pub(crate) struct Mailbox(Rc<Cell<Mail>>);

impl Mailbox {
    /// Post `op` to the engine, suspend once, and return the response the
    /// engine left in the mailbox before resuming this guest.
    pub(crate) async fn call(&self, op: GuestOp) -> GuestResp {
        self.0.set(Mail::Op(op));
        let mut posted = false;
        poll_fn(|_| {
            if !posted {
                posted = true;
                return Poll::Pending;
            }
            match self.0.take() {
                Mail::Resp(r) => Poll::Ready(r),
                m => panic!("guest resumed without a response ({m:?})"),
            }
        })
        .await
    }
}

/// Host-Rust guest: the engine-side adapter that owns one thread's
/// [`Program::run`] coroutine and polls it with a no-op waker. The body
/// suspends exactly once per operation, leaving the op in the shared
/// mailbox; `resume` first leaves the response there for the suspended
/// operation, then polls until the body's next suspension.
///
/// The first `resume` carries the engine's synthetic `Done` kick: the
/// body has not started, so its first operation overwrites the kick
/// unread. A finished body answers with [`GuestOp::Exit`], once.
pub(crate) struct HostGuest<'g> {
    mailbox: Mailbox,
    /// `None` once the body has finished.
    body: Option<GuestFuture<'g>>,
}

impl<'g> HostGuest<'g> {
    /// Start `prog`'s body for the simulated thread described by `env`.
    pub(crate) fn new<P: Program + ?Sized>(prog: &'g P, env: GuestEnv) -> Self {
        let mailbox = Mailbox::default();
        let mut ctx = GuestCtx::new(env, mailbox.clone());
        HostGuest {
            mailbox,
            body: Some(Box::pin(async move { prog.run(&mut ctx).await })),
        }
    }
}

impl GuestExec for HostGuest<'_> {
    fn resume(&mut self, resp: GuestResp) -> GuestOp {
        let body = self.body.as_mut().expect("guest resumed after Exit");
        self.mailbox.0.set(Mail::Resp(resp));
        match body.as_mut().poll(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(()) => {
                self.body = None;
                GuestOp::Exit
            }
            Poll::Pending => match self.mailbox.0.take() {
                Mail::Op(op) => op,
                m => panic!("guest body suspended without an operation ({m:?})"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatmem::SetupCtx;
    use crate::guest::GuestPolicy;
    use crate::runner::Runner;
    use crate::system::SystemKind;
    use sim_core::config::SystemConfig;

    fn env() -> GuestEnv {
        GuestEnv {
            tid: 0,
            threads: 1,
            rng: SimRng::new(1),
            policy: GuestPolicy {
                coarse_grained_lock: false,
                htmlock: true,
                max_retries: 4,
                fallback_on_capacity: true,
            },
            lock_addr: Addr(0),
        }
    }

    /// Store, load, then compute for as many instructions as the load
    /// returned: three ops, the third depending on a delivered response.
    struct ThreeOps;

    impl Program for ThreeOps {
        fn name(&self) -> &str {
            "three-ops"
        }
        fn setup(&mut self, _s: &mut SetupCtx, _threads: usize) {}
        fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
            Box::pin(async move {
                ctx.store(Addr(8), 5).await;
                let v = ctx.load(Addr(8)).await;
                ctx.compute(v).await;
            })
        }
    }

    #[test]
    fn first_resume_returns_the_first_op() {
        let mut g = HostGuest::new(&ThreeOps, env());
        assert_eq!(g.resume(GuestResp::Done), GuestOp::Store(Addr(8), 5));
    }

    #[test]
    fn finished_body_yields_exactly_one_exit() {
        let mut g = HostGuest::new(&ThreeOps, env());
        let ops = [
            g.resume(GuestResp::Done),
            g.resume(GuestResp::Done),
            g.resume(GuestResp::Value(3)),
            g.resume(GuestResp::Done),
        ];
        assert_eq!(
            ops,
            [
                GuestOp::Store(Addr(8), 5),
                GuestOp::Load(Addr(8)),
                GuestOp::Compute(3),
                GuestOp::Exit,
            ]
        );
        let again =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.resume(GuestResp::Done)));
        assert!(
            again.is_err(),
            "a finished guest must not yield a second op"
        );
    }

    #[test]
    #[should_panic(expected = "guest 0 failed: bad input")]
    fn guest_panic_surfaces_from_runner_run() {
        struct Panicker;
        impl Program for Panicker {
            fn name(&self) -> &str {
                "panicker"
            }
            fn setup(&mut self, _s: &mut SetupCtx, _threads: usize) {}
            fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
                Box::pin(async move {
                    ctx.compute(10).await;
                    panic!("guest {} failed: bad input", ctx.tid);
                })
            }
        }
        let _ = Runner::new(SystemKind::Baseline)
            .threads(1)
            .config(SystemConfig::testing(2))
            .run(&mut Panicker);
    }
}
