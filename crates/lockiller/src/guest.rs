//! Guest-program API and the transactional runtime (Listings 1 and 2 of
//! the paper).
//!
//! Every guest is a coroutine: each [`GuestCtx`]/[`TxCtx`] operation is
//! an `async fn` that writes its [`GuestOp`] into a single-slot mailbox
//! shared with the engine and then suspends once. The engine-side
//! adapter ([`crate::exec::GuestExec`], which owns the mailbox protocol)
//! polls the guest's body on the engine's own thread, takes the op from
//! the mailbox, and on the next poll leaves the [`GuestResp`] there for
//! the suspended operation to pick up — so each operation completes only
//! when the engine delivers its response at the correct simulated cycle.
//! This holds for every body: a compiled `guestvm` kernel runs through
//! the same calls (`guestvm::run_on_ctx`), so [`GuestCtx::critical`] is
//! the only implementation of
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
//!
//! Waiting on the fallback lock (the CGL and fallback acquires, and
//! Baseline's wait after finding its subscribed lock held) is one
//! [`GuestOp::SpinWait`]: the engine runs the test-and-test-and-set loop
//! itself, issuing the same loads, CAS and pauses a guest-side loop
//! would, without resuming the guest between them.

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
/// Non-exhaustive: the engine may grow ops (a new system's ISA
/// extension) without breaking downstream crates; match with a wildcard
/// arm.
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
    /// Wait on the fallback lock word, test-and-test-and-set style
    /// (Listing 1's spin). The engine runs the whole loop: it loads the
    /// word until it reads 0, pausing `Compute(16)` after each non-zero
    /// read; with `acquire` it then CASes the word 0 → 1 and resumes
    /// spinning if the CAS lost. Each load, CAS and pause is an ordinary
    /// op with its own events, exactly as if the guest had issued it.
    /// Responds `Done` once the lock was seen free (with `acquire`: once
    /// this core took it); the wait is the core's `waitlock` phase.
    SpinWait {
        acquire: bool,
    },
    /// Phase annotations for the execution-time breakdown.
    FallbackBegin,
    FallbackEnd,
    /// First-touch notification from the allocator (demand paging).
    PageTouch(u64),
    Barrier,
    Exit,
    /// Test builds only: the phase annotations the guest-side spin loop
    /// sat between before `SpinWait` replaced it. That loop is kept as
    /// the oracle `SpinWait` is checked against (`tests::guest_spin`).
    #[cfg(test)]
    SpinBegin,
    #[cfg(test)]
    SpinEnd,
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
    /// Test builds only: spin with the guest-side oracle loop instead of
    /// [`GuestOp::SpinWait`].
    #[cfg(test)]
    pub(crate) guest_spin: bool,
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
            #[cfg(test)]
            guest_spin: false,
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

    /// Take the fallback lock: one [`GuestOp::SpinWait`], whose loop the
    /// engine runs.
    async fn spin_acquire(&self) {
        self.spin_wait(true).await;
    }

    /// Wait until the fallback lock is free, without taking it.
    async fn spin_until_free(&self) {
        self.spin_wait(false).await;
    }

    async fn spin_wait(&self, acquire: bool) {
        #[cfg(test)]
        if self.guest_spin {
            return tests::guest_spin(self, acquire).await;
        }
        self.op_infallible(GuestOp::SpinWait { acquire }).await;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatmem::SetupCtx;
    use crate::program::{GuestFuture, Program};
    use crate::runner::{RunOutput, Runner};
    use crate::system::SystemKind;
    use sim_core::config::SystemConfig;
    use sim_core::stats::Phase;

    /// The guest-side test-and-test-and-set loop [`GuestOp::SpinWait`]
    /// replaced, op for op: the oracle the engine-run loop must match.
    pub(super) async fn guest_spin(g: &GuestCtx, acquire: bool) {
        g.op_infallible(GuestOp::SpinBegin).await;
        if acquire {
            loop {
                if g.load(g.lock_addr).await == 0 && g.cas(g.lock_addr, 0, 1).await == 0 {
                    break;
                }
                g.compute(16).await;
            }
        } else {
            while g.load(g.lock_addr).await != 0 {
                g.compute(16).await;
            }
        }
        g.op_infallible(GuestOp::SpinEnd).await;
    }

    /// Contended critical sections on one shared counter. Every fourth
    /// one first touches a page no one has touched yet: a demand-paging
    /// fault, which a speculative attempt cannot survive, so it goes
    /// straight to the fallback lock. Lock waits of every kind follow:
    /// CGL acquires, fallback acquires, and Baseline's wait after finding
    /// its subscribed lock held.
    struct Contended {
        rounds: u64,
        counter: Addr,
        guest_spin: bool,
    }

    impl Program for Contended {
        fn name(&self) -> &str {
            "contended"
        }

        fn setup(&mut self, s: &mut SetupCtx, _threads: usize) {
            self.counter = s.alloc(8);
        }

        fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
            Box::pin(async move {
                ctx.guest_spin = self.guest_spin;
                let counter = self.counter;
                for round in 0..self.rounds {
                    let fresh_page = (round % 4 == ctx.tid as u64 % 4)
                        .then_some(1 << 20 | (ctx.tid as u64) << 8 | round);
                    ctx.critical(async |tx| {
                        if let Some(page) = fresh_page {
                            tx.page_touch(page).await?;
                        }
                        let v = tx.load(counter).await?;
                        tx.compute(40).await?;
                        tx.store(counter, v + 1).await?;
                        Ok(())
                    })
                    .await;
                    ctx.compute(20 + 7 * ctx.tid as u64).await;
                }
            })
        }
    }

    fn contended(guest_spin: bool) -> Contended {
        Contended {
            rounds: 12,
            counter: Addr::NULL,
            guest_spin,
        }
    }

    fn runner(kind: SystemKind) -> Runner {
        Runner::new(kind)
            .threads(8)
            .config(SystemConfig::testing(8))
            .retries(2)
    }

    fn run(kind: SystemKind, guest_spin: bool) -> RunOutput {
        let mut prog = contended(guest_spin);
        let out = runner(kind).tracing().run(&mut prog);
        assert_eq!(out.mem.read(prog.counter), 8 * 12, "{kind:?}");
        out
    }

    /// Always the earliest-scheduled front event: the queue's own order,
    /// with every event dispatched through the queue.
    struct Fifo;

    impl crate::sched::Scheduler for Fifo {
        fn pick(
            &mut self,
            _at: sim_core::types::Cycle,
            _options: &[crate::sched::EvDesc],
            _state_fp: &dyn Fn() -> u64,
        ) -> usize {
            0
        }
    }

    /// `SpinWait` against the guest-side loop it replaced: the same run
    /// statistics, trace and final memory on CGL, Baseline and
    /// LockillerTM. Unscheduled and unchecked, so the engine-run loop
    /// also puts its L1-hit iterations on the spin lane.
    #[test]
    fn spin_wait_matches_the_guest_side_loop() {
        for kind in [
            SystemKind::Cgl,
            SystemKind::Baseline,
            SystemKind::LockillerTm,
        ] {
            let (engine, guest) = (run(kind, false), run(kind, true));
            assert!(
                engine.stats.phase(Phase::WaitLock) > 0 && engine.stats.fallbacks > 0,
                "{kind:?}: the run must wait on the lock"
            );
            assert_eq!(engine.stats.to_json(), guest.stats.to_json(), "{kind:?}");
            assert_eq!(engine.trace_events(), guest.trace_events(), "{kind:?}");
            assert_eq!(engine.mem.digest(), guest.mem.digest(), "{kind:?}");
        }
    }

    /// The spin lane leaves the memory system exactly as all-real events
    /// do: the spinners' deferred L1 hits land, so every LRU stamp and
    /// L1 clock matches a FIFO-scheduled run (which never uses the lane).
    /// Statistics and memory cannot show those hits: a spin only ends
    /// after a miss, once the lock holder's release invalidated the line
    /// the hits touched.
    #[test]
    fn spin_lane_leaves_the_l1s_as_real_events_do() {
        for kind in [
            SystemKind::Cgl,
            SystemKind::Baseline,
            SystemKind::LockillerTm,
        ] {
            let lane = runner(kind).run(&mut contended(false));
            let real = runner(kind).run_scheduled(&mut contended(false), &mut Fifo);
            assert_eq!(lane.stats.to_json(), real.stats.to_json(), "{kind:?}");
            assert_eq!(lane.mem.digest(), real.mem.digest(), "{kind:?}");
            assert_eq!(lane.ms_fingerprint, real.ms_fingerprint, "{kind:?}");
        }
    }
}
