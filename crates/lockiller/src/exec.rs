//! The guest execution seam: how the engine drives a simulated thread.
//!
//! Every simulated thread is a [`GuestExec`]: an `async` body over a
//! [`GuestCtx`], polled as a coroutine on the engine's own thread. The
//! engine hands it the response to its previous operation and gets the
//! next operation back ([`GuestExec::resume`]), at exactly the points
//! where that operation completes. [`GuestExec::from_body`] builds every
//! guest, so every body shares one mailbox protocol and one best-effort
//! retry protocol ([`GuestCtx::critical`]).
//!
//! A [`Backend`] names which constructor a runner starts each thread
//! with: the program's [`Program::run`] body, or the guest
//! [`Program::guest_exec`] returns. A program has one body: a kernel
//! program's `run` interprets its compiled `guestvm` bytecode
//! (`guestvm::run_on_ctx`) and its `guest_exec` returns that same body,
//! so both backends run the kernel. Event order, state fingerprints and
//! every `RunStats` digest depend only on the op stream a body issues.

use crate::guest::{GuestCtx, GuestOp, GuestResp};
use crate::program::{GuestFuture, Program};
use sim_core::rng::SimRng;
use sim_core::types::Addr;
use std::cell::Cell;
use std::future::poll_fn;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

/// Which constructor a [`crate::Runner`] starts each simulated thread
/// with. Both run the program's one body (see the module docs); the
/// axis stays because the benchmark harness records which constructor
/// a point used.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The program's [`Program::run`] body: every [`crate::Program`]
    /// runs here. The name predates the coroutines (guests used to run
    /// on OS threads).
    #[default]
    Threads,
    /// The guest [`Program::guest_exec`] returns: only kernel programs
    /// provide one, and it runs the same kernel as [`Backend::Threads`].
    Vm,
}

impl Backend {
    /// Stable lowercase name (benchmark records use it).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Vm => "vm",
        }
    }
}

/// Everything a guest needs to construct its execution state for one
/// simulated thread: the runner builds one per thread and hands it to
/// [`GuestExec::from_body`] (directly, or through [`Program::guest_exec`]
/// on [`Backend::Vm`]), which turns it into the body's [`GuestCtx`].
#[derive(Clone, Debug)]
pub struct GuestEnv {
    /// Simulated thread id (== core id).
    pub tid: usize,
    /// Total simulated threads in the run.
    pub threads: usize,
    /// Per-thread deterministic RNG (forked from the run seed; becomes
    /// `GuestCtx.rng`).
    pub rng: SimRng,
    /// Guest-side runtime policy (retry budget, fallback kind, CGL).
    pub policy: crate::guest::GuestPolicy,
    /// Address of the global fallback/CGL lock word.
    pub lock_addr: Addr,
}

/// Contents of the single-slot mailbox between a guest body and its
/// [`GuestExec`]: the op a suspended body issued, or the response the
/// engine left for it.
#[derive(Clone, Copy, Debug, Default)]
enum Mail {
    #[default]
    Empty,
    Op(GuestOp),
    Resp(GuestResp),
}

/// The mailbox shared by a [`GuestCtx`] and its [`GuestExec`]. Both
/// halves of the protocol live here: [`Mailbox::call`] on the guest side,
/// [`GuestExec::resume`] on the engine side.
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

/// A resumable guest: the engine's view of one simulated thread. It owns
/// the thread's body coroutine and polls it with a no-op waker. The body
/// suspends exactly once per operation, leaving the op in the shared
/// mailbox; [`GuestExec::resume`] first leaves the response there for
/// the suspended operation, then polls until the body's next suspension.
///
/// ## Contract
///
/// The engine calls [`GuestExec::resume`] exactly once per `Recv`
/// rendezvous point. The **first** call carries a synthetic
/// [`GuestResp::Done`] kick: the body has not started, so its first
/// operation overwrites the kick unread. Every later call carries the
/// response to the operation returned by the previous call. A finished
/// body answers with [`GuestOp::Exit`], once; the engine never calls
/// `resume` again.
///
/// Guests execute in zero simulated time: all host-side work inside
/// `resume` happens "between cycles" and must be deterministic — the
/// returned op may depend only on the response history and the guest's
/// own state. A run that ends early (deadlock / cycle budget) simply
/// drops its guests mid-body; nothing else needs releasing.
pub struct GuestExec<'g> {
    mailbox: Mailbox,
    /// `None` once the body has finished.
    body: Option<GuestFuture<'g>>,
}

impl<'g> GuestExec<'g> {
    /// Build the guest for the simulated thread described by `env`:
    /// `body` runs over that thread's [`GuestCtx`] from the first
    /// [`GuestExec::resume`] on. The one constructor of every guest.
    pub fn from_body(env: GuestEnv, body: impl AsyncFnOnce(&mut GuestCtx) + 'g) -> Self {
        let mailbox = Mailbox::default();
        let mut ctx = GuestCtx::new(env, mailbox.clone());
        GuestExec {
            mailbox,
            body: Some(Box::pin(async move { body(&mut ctx).await })),
        }
    }

    /// Start `prog`'s [`Program::run`] body for the simulated thread
    /// described by `env`.
    pub(crate) fn new<P: Program + ?Sized>(prog: &'g P, env: GuestEnv) -> Self {
        Self::from_body(env, async move |ctx| prog.run(ctx).await)
    }

    /// Deliver `resp` and return the guest's next operation.
    pub fn resume(&mut self, resp: GuestResp) -> GuestOp {
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
    async fn three_ops(ctx: &mut GuestCtx) {
        ctx.store(Addr(8), 5).await;
        let v = ctx.load(Addr(8)).await;
        ctx.compute(v).await;
    }

    struct ThreeOps;

    impl Program for ThreeOps {
        fn name(&self) -> &str {
            "three-ops"
        }
        fn setup(&mut self, _s: &mut SetupCtx, _threads: usize) {}
        fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
            Box::pin(three_ops(ctx))
        }
    }

    /// The same body started through each constructor: a program's
    /// `run`, and a bare body as `Program::guest_exec` impls pass it.
    fn guests() -> [(&'static str, GuestExec<'static>); 2] {
        [
            ("new", GuestExec::new(&ThreeOps, env())),
            ("from_body", GuestExec::from_body(env(), three_ops)),
        ]
    }

    #[test]
    fn first_resume_returns_the_first_op() {
        for (how, mut g) in guests() {
            assert_eq!(
                g.resume(GuestResp::Done),
                GuestOp::Store(Addr(8), 5),
                "{how}"
            );
        }
    }

    #[test]
    fn finished_body_yields_exactly_one_exit() {
        for (how, mut g) in guests() {
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
                ],
                "{how}"
            );
            let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                g.resume(GuestResp::Done)
            }));
            assert!(
                again.is_err(),
                "{how}: a finished guest must not yield a second op"
            );
        }
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
