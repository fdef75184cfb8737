//! Guest-program API and the transactional runtime (Listings 1 and 2 of
//! the paper).
//!
//! A host-Rust guest ([`crate::exec::Backend::Threads`]) is a coroutine:
//! every [`GuestCtx`]/[`TxCtx`] operation is an `async fn` that writes its
//! [`GuestOp`] into a single-slot mailbox shared with the engine and then
//! suspends once. The engine-side adapter (`HostGuest` in
//! [`crate::exec`], which owns the mailbox protocol) polls the guest's
//! body on the engine's own thread, takes the op from the mailbox, and
//! on the next poll leaves the [`GuestResp`] there for the suspended
//! operation to pick up — so each operation completes only
//! when the engine delivers its response at the correct simulated cycle.
//! (The VM backend replays the exact same protocol as a bytecode state
//! machine — `guestvm` mirrors [`GuestCtx::critical`] op for op.)
//! [`GuestCtx::critical`] implements
//! `lock_acquire_elided`/`lock_release_elided`:
//!
//! - **CGL**: plain spin-lock critical section, no speculation;
//! - **Baseline**: `xbegin`, subscribe to the fallback lock (a
//!   transactional load of the lock word — acquiring the lock then aborts
//!   every subscriber), `_xabort` if the lock is held, bounded retries,
//!   then a fallback critical section under the lock;
//! - **HTMLock systems**: the subscription is removed (the paper's grey
//!   modification to Listing 1); the fallback executes `hlbegin`/`hlend`
//!   as a TL lock transaction running concurrently with HTM transactions;
//! - **switchingMode**: the engine may switch a running transaction to STL
//!   transparently; `lock_release_elided` dispatches on `_ttest`
//!   (Listing 2) and skips the lock release for STL finishes.
//!
//! Transaction bodies are async closures receiving a [`TxCtx`] whose
//! memory operations return `Result<_, Abort>`: an abort unwinds the body
//! via `?` and the retry loop re-executes it, exactly like hardware
//! rolling back to the xbegin.

use crate::exec::{GuestEnv, Mailbox};
use sim_core::rng::SimRng;
use sim_core::stats::AbortCause;
use sim_core::types::Addr;

/// `_ttest` return values (Listing 2 dispatch), namespaced so new modes
/// can be added without colliding with downstream constants.
pub struct TTest;

impl TTest {
    /// `_ttest` return value in STL mode (agreed constant, §III-C).
    pub const STL: u64 = 0x0FFF_FFFF;
    /// `_ttest` return value in TL mode.
    pub const TL: u64 = 0x1FFF_FFFF;
    /// `_ttest` return value inside a plain HTM transaction (nesting
    /// depth 1).
    pub const HTM: u64 = 1;
}

/// Operations a guest sends to the engine.
///
/// Non-exhaustive: the VM backend may grow ops without breaking
/// downstream crates; match with a wildcard arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GuestOp {
    /// `n` non-memory instructions.
    Compute(u64),
    Load(Addr),
    Store(Addr, u64),
    /// Compare-and-swap; responds with the previous value.
    Cas(Addr, u64, u64),
    /// `xbegin`.
    TxBegin,
    /// `xend` (the engine dispatches to `hlend` semantics when the
    /// transaction switched to STL — see `lock_release_elided`).
    TxCommit,
    /// `_xabort` — explicit abort (lock observed taken at subscription).
    TxAbortUser,
    /// `_ttest`.
    TTest,
    /// `hlbegin` — enter TL mode (caller holds the software lock).
    HlBegin,
    /// `hlend` — leave TL/STL mode.
    HlEnd,
    /// Phase annotations for the execution-time breakdown.
    SpinBegin,
    SpinEnd,
    FallbackBegin,
    FallbackEnd,
    /// First-touch notification from the allocator (demand paging).
    PageTouch(u64),
    Barrier,
    Exit,
}

/// Engine responses.
///
/// Non-exhaustive for the same reason as [`GuestOp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum GuestResp {
    Done,
    Value(u64),
    /// The transaction aborted; control must unwind to the retry loop.
    Aborted(AbortCause),
}

/// Abort token propagated by `?` through transaction bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort {
    pub cause: AbortCause,
}

/// Policy knobs the guest-side runtime needs (copied from the system's
/// `PolicyConfig` at spawn).
#[derive(Clone, Copy, Debug)]
pub struct GuestPolicy {
    pub coarse_grained_lock: bool,
    pub htmlock: bool,
    pub max_retries: u32,
    pub fallback_on_capacity: bool,
}

/// The guest side of the engine mailbox plus the runtime state.
pub struct GuestCtx {
    pub tid: usize,
    pub threads: usize,
    pub rng: SimRng,
    policy: GuestPolicy,
    lock_addr: Addr,
    mailbox: Mailbox,
    in_critical: bool,
}

impl GuestCtx {
    pub(crate) fn new(env: GuestEnv, mailbox: Mailbox) -> GuestCtx {
        GuestCtx {
            tid: env.tid,
            threads: env.threads,
            rng: env.rng,
            policy: env.policy,
            lock_addr: env.lock_addr,
            mailbox,
            in_critical: false,
        }
    }

    /// Post `o` to the engine and return its response (one suspension).
    async fn op(&self, o: GuestOp) -> GuestResp {
        self.mailbox.call(o).await
    }

    async fn op_infallible(&self, o: GuestOp) -> GuestResp {
        match self.op(o).await {
            GuestResp::Aborted(c) => panic!("unexpected abort ({c:?}) outside a transaction"),
            r => r,
        }
    }

    // ---------------- non-transactional primitives ----------------

    pub async fn load(&self, a: Addr) -> u64 {
        match self.op_infallible(GuestOp::Load(a)).await {
            GuestResp::Value(v) => v,
            r => panic!("bad response to load: {r:?}"),
        }
    }

    pub async fn store(&self, a: Addr, v: u64) {
        self.op_infallible(GuestOp::Store(a, v)).await;
    }

    pub async fn cas(&self, a: Addr, expected: u64, new: u64) -> u64 {
        match self.op_infallible(GuestOp::Cas(a, expected, new)).await {
            GuestResp::Value(v) => v,
            r => panic!("bad response to cas: {r:?}"),
        }
    }

    pub async fn compute(&self, n: u64) {
        self.op_infallible(GuestOp::Compute(n)).await;
    }

    pub async fn page_touch(&self, page: u64) -> Result<(), Abort> {
        match self.op(GuestOp::PageTouch(page)).await {
            GuestResp::Aborted(c) => Err(Abort { cause: c }),
            _ => Ok(()),
        }
    }

    pub async fn barrier(&self) {
        self.op_infallible(GuestOp::Barrier).await;
    }

    // ---------------- spin lock (test-and-test-and-set) ----------------

    async fn spin_acquire(&self) {
        self.op_infallible(GuestOp::SpinBegin).await;
        loop {
            if self.load(self.lock_addr).await == 0 && self.cas(self.lock_addr, 0, 1).await == 0 {
                break;
            }
            self.compute(16).await;
        }
        self.op_infallible(GuestOp::SpinEnd).await;
    }

    async fn spin_until_free(&self) {
        self.op_infallible(GuestOp::SpinBegin).await;
        while self.load(self.lock_addr).await != 0 {
            self.compute(16).await;
        }
        self.op_infallible(GuestOp::SpinEnd).await;
    }

    async fn release_lock(&self) {
        self.store(self.lock_addr, 0).await;
    }

    // ---------------- the elided-lock critical section ----------------

    /// Execute `f` as a critical section under the active system's
    /// concurrency control. Shared state touched by `f` must live in
    /// simulated memory (so aborts roll it back); host-side locals must be
    /// re-initialized inside the closure.
    pub async fn critical<T>(
        &mut self,
        mut f: impl AsyncFnMut(&mut TxCtx) -> Result<T, Abort>,
    ) -> T {
        assert!(
            !self.in_critical,
            "nested critical sections are not supported"
        );
        self.in_critical = true;
        let v = self.critical_inner(&mut f).await;
        self.in_critical = false;
        v
    }

    async fn critical_inner<T>(
        &mut self,
        f: &mut impl AsyncFnMut(&mut TxCtx) -> Result<T, Abort>,
    ) -> T {
        if self.policy.coarse_grained_lock {
            self.spin_acquire().await;
            self.op_infallible(GuestOp::FallbackBegin).await;
            let v = run_infallible(self, f).await;
            self.op_infallible(GuestOp::FallbackEnd).await;
            self.release_lock().await;
            return v;
        }

        // lock_acquire_elided (Listing 1).
        let mut retries = self.policy.max_retries;
        while retries > 0 {
            match self.try_htm(f).await {
                Ok(v) => return v,
                Err(HtmFail::LockTaken) => {
                    // Subscribed lock observed held: wait until free, then
                    // burn one retry (Listing 1 decrements per iteration).
                    self.spin_until_free().await;
                    retries -= 1;
                }
                Err(HtmFail::Abort(cause)) => {
                    let hopeless = matches!(cause, AbortCause::Of | AbortCause::Fault);
                    if hopeless && self.policy.fallback_on_capacity {
                        retries = 0;
                    } else {
                        retries -= 1;
                    }
                }
            }
        }

        // Fallback path: lock_acquire + (hlbegin | plain critical section).
        self.spin_acquire().await;
        let (begin, end) = if self.policy.htmlock {
            (GuestOp::HlBegin, GuestOp::HlEnd)
        } else {
            (GuestOp::FallbackBegin, GuestOp::FallbackEnd)
        };
        self.op_infallible(begin).await;
        let v = run_infallible(self, f).await;
        self.op_infallible(end).await;
        self.release_lock().await;
        v
    }

    /// One speculative attempt: xbegin, optional lock subscription, body,
    /// then `lock_release_elided` (Listing 2) with its ttest dispatch.
    async fn try_htm<T>(
        &mut self,
        f: &mut impl AsyncFnMut(&mut TxCtx) -> Result<T, Abort>,
    ) -> Result<T, HtmFail> {
        if let GuestResp::Aborted(c) = self.op(GuestOp::TxBegin).await {
            return Err(HtmFail::Abort(c));
        }

        match self.speculate(f).await {
            Err(a) => {
                if a.cause == AbortCause::Mutex && !self.policy.htmlock {
                    Err(HtmFail::LockTaken)
                } else {
                    Err(HtmFail::Abort(a.cause))
                }
            }
            Ok(v) => {
                // lock_release_elided (Listing 2): dispatch on _ttest.
                match self.op(GuestOp::TTest).await {
                    GuestResp::Aborted(c) => Err(HtmFail::Abort(c)),
                    GuestResp::Value(TTest::STL) => {
                        // Switched transaction: hlend, no lock to release.
                        self.op_infallible(GuestOp::HlEnd).await;
                        Ok(v)
                    }
                    GuestResp::Value(_) => match self.op(GuestOp::TxCommit).await {
                        GuestResp::Aborted(c) => Err(HtmFail::Abort(c)),
                        _ => Ok(v),
                    },
                    r => panic!("bad ttest response: {r:?}"),
                }
            }
        }
    }

    /// The speculative body of one attempt: the Baseline lock
    /// subscription, then `f`.
    async fn speculate<T>(
        &mut self,
        f: &mut impl AsyncFnMut(&mut TxCtx) -> Result<T, Abort>,
    ) -> Result<T, Abort> {
        let mut tx = TxCtx { g: self };
        if !tx.g.policy.htmlock {
            // Baseline subscription: the fallback lock joins the read
            // set; abort explicitly if it is already held.
            let lock_addr = tx.g.lock_addr;
            if tx.load(lock_addr).await? != 0 {
                return match tx.g.op(GuestOp::TxAbortUser).await {
                    GuestResp::Aborted(_) => Err(Abort {
                        cause: AbortCause::Mutex,
                    }),
                    r => panic!("xabort must abort, got {r:?}"),
                };
            }
        }
        f(&mut tx).await
    }
}

/// Why a speculative attempt failed.
enum HtmFail {
    LockTaken,
    Abort(AbortCause),
}

/// Run the body on the non-speculative path, where aborts cannot occur.
async fn run_infallible<T>(
    g: &mut GuestCtx,
    f: &mut impl AsyncFnMut(&mut TxCtx) -> Result<T, Abort>,
) -> T {
    let mut tx = TxCtx { g };
    match f(&mut tx).await {
        Ok(v) => v,
        Err(a) => panic!("abort on the non-speculative path: {a:?}"),
    }
}

/// Memory operations inside a critical section. On the speculative path
/// these can fail with [`Abort`]; on lock/CGL paths they never do, so the
/// same body code serves every system.
pub struct TxCtx<'a> {
    pub g: &'a mut GuestCtx,
}

impl TxCtx<'_> {
    pub async fn load(&mut self, a: Addr) -> Result<u64, Abort> {
        match self.g.op(GuestOp::Load(a)).await {
            GuestResp::Value(v) => Ok(v),
            GuestResp::Aborted(c) => Err(Abort { cause: c }),
            r => panic!("bad response to tx load: {r:?}"),
        }
    }

    pub async fn store(&mut self, a: Addr, v: u64) -> Result<(), Abort> {
        match self.g.op(GuestOp::Store(a, v)).await {
            GuestResp::Aborted(c) => Err(Abort { cause: c }),
            _ => Ok(()),
        }
    }

    pub async fn compute(&mut self, n: u64) -> Result<(), Abort> {
        match self.g.op(GuestOp::Compute(n)).await {
            GuestResp::Aborted(c) => Err(Abort { cause: c }),
            _ => Ok(()),
        }
    }

    pub async fn page_touch(&mut self, page: u64) -> Result<(), Abort> {
        self.g.page_touch(page).await
    }

    /// Thread id of the owning guest (handy for per-thread structures).
    pub fn tid(&self) -> usize {
        self.g.tid
    }
}
