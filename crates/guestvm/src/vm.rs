//! The resumable guest VM: `lockiller`'s guest-side runtime
//! (`GuestCtx::critical`, Listings 1 and 2 of the paper) re-implemented
//! as an explicit state machine behind the [`GuestExec`] seam.
//!
//! Every [`GuestVm::resume`] call applies the engine's response to the
//! in-flight operation, advances the interpreter to the next
//! op-producing instruction, and returns that op — a plain function
//! call over plain data, which is what makes the guest checkpointable.
//!
//! # Bit-identity
//!
//! The VM must emit **exactly** the `GuestOp` sequence the hand-written
//! runtime in `lockiller::guest` emits for the same kernel and response
//! history. The protocol below is therefore a transliteration of
//! `critical_inner`/`try_htm` (same op order, same retry accounting,
//! same panic conditions); the differential suite asserts byte-equal
//! run statistics, traces, and memory images across backends for the
//! whole program corpus. When editing either side, edit both.
//!
//! # Snapshot / restore
//!
//! The whole execution state is plain data (registers + a `Waiting`
//! tag), so [`GuestExec::snapshot`] is a deep copy — this is what lets
//! schedule explorers backtrack a guest without re-running it.

use crate::interp::{Fetch, Frame};
use crate::ir::Kernel;
use lockiller::exec::{GuestEnv, GuestExec, GuestSnapshot};
use lockiller::guest::{GuestOp, GuestPolicy, GuestResp, TTest};
use sim_core::stats::AbortCause;
use sim_core::types::Addr;
use std::sync::Arc;

/// Which register state a critical section is executing under (the
/// paper's code paths: speculative HTM, or one of the lock-held modes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BodyKind {
    /// Speculative attempt: body ops may abort.
    Htm,
    /// Lock-held section (`hl` selects `HlBegin`/`HlEnd` vs
    /// `FallbackBegin`/`FallbackEnd` bracketing). Aborts are fatal.
    Lock { hl: bool },
}

/// After `spin_acquire` succeeds, which section follows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AfterAcquire {
    /// CGL systems: plain critical section under the global lock.
    Cgl,
    /// Retry budget exhausted: the elided lock's fallback path.
    Fallback,
}

/// The operation currently in flight — what the next response answers.
/// Each variant is one rendezvous point of the hand-written runtime.
#[derive(Clone, Debug)]
enum Waiting {
    /// Nothing issued yet (next `resume` carries the synthetic kick).
    Start,
    /// Plain (non-critical) op; `Some(reg)` receives a `Value` response.
    Plain(Option<u8>),
    /// `TxBegin` of a speculative attempt.
    TxBegin,
    /// Baseline lock subscription: transactional load of the lock word.
    SubLoad,
    /// `TxAbortUser` after observing the subscribed lock held.
    XAbort,
    /// A body op on the speculative path.
    Body(Option<u8>),
    /// `TTest` of `lock_release_elided` (Listing 2).
    TTest,
    /// `HlEnd` after `TTest` reported STL (switched transaction).
    HlEndSwitched,
    /// `TxCommit` (xend).
    TxCommit,
    /// `spin_until_free` (subscribed lock seen held): its `SpinBegin`,
    /// lock load, backoff compute, `SpinEnd`.
    SufBegin,
    SufLoad,
    SufCompute,
    SufEnd,
    /// `spin_acquire` (CGL entry or fallback): its `SpinBegin`, lock
    /// load, CAS, backoff compute, `SpinEnd`.
    SaBegin(AfterAcquire),
    SaLoad(AfterAcquire),
    SaCas(AfterAcquire),
    SaCompute(AfterAcquire),
    SaEnd(AfterAcquire),
    /// `FallbackBegin` / `HlBegin` bracketing a lock-held section.
    SecBegin {
        hl: bool,
    },
    /// A body op on a lock-held path.
    LockBody {
        hl: bool,
        dst: Option<u8>,
    },
    /// `FallbackEnd` / `HlEnd` of a lock-held section.
    SecEnd,
    /// The lock-release store (`lock <- 0`).
    ReleaseStore,
    /// `Exit` returned; `resume` must never be called again.
    Exited,
}

/// In-progress critical section (one `CritBegin`..`CritEnd` region).
#[derive(Clone, Debug)]
struct Crit {
    /// First body instruction (just past `CritBegin`).
    body_pc: usize,
    /// Registers at `CritBegin` — restored on every body (re)entry.
    saved_regs: Vec<u64>,
    /// Remaining speculative attempts (Listing 1's `retries`).
    retries: u32,
}

/// The complete, cloneable execution state of one simulated thread.
#[derive(Clone, Debug)]
struct VmState {
    tid: usize,
    threads: usize,
    policy: GuestPolicy,
    lock_addr: Addr,
    frame: Frame,
    waiting: Waiting,
    crit: Option<Crit>,
}

/// Why a speculative attempt failed (mirrors `guest::HtmFail`).
enum HtmFail {
    LockTaken,
    Abort(AbortCause),
}

/// In-process resumable guest: one simulated thread executing a
/// [`Kernel`], implementing [`GuestExec`] for the engine.
pub struct GuestVm {
    kernel: Arc<Kernel>,
    st: VmState,
}

impl GuestVm {
    /// Build a guest for one simulated thread. `env.rng` is unused:
    /// kernels are closed programs whose behaviour is a pure function of
    /// the bytecode and the response history.
    pub fn new(kernel: Arc<Kernel>, env: &GuestEnv) -> GuestVm {
        let frame = Frame::new(&kernel);
        GuestVm {
            kernel,
            st: VmState {
                tid: env.tid,
                threads: env.threads,
                policy: env.policy,
                lock_addr: env.lock_addr,
                frame,
                waiting: Waiting::Start,
                crit: None,
            },
        }
    }

    /// Boxed constructor for [`lockiller::Program::guest_exec`] impls.
    pub fn boxed(kernel: Arc<Kernel>, env: &GuestEnv) -> Box<dyn GuestExec + 'static> {
        Box::new(GuestVm::new(kernel, env))
    }

    /// The kernel this guest runs (diagnostics).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }
}

/// Extract the `Value` payload of a response to `what`, with the same
/// panic the hand-written runtime raises on a malformed response.
fn value(resp: GuestResp, what: &str) -> u64 {
    match resp {
        GuestResp::Value(v) => v,
        r => panic!("bad response to {what}: {r:?}"),
    }
}

/// Panic exactly like `op_infallible` on an abort outside speculation.
fn infallible(resp: GuestResp) -> GuestResp {
    match resp {
        GuestResp::Aborted(c) => panic!("unexpected abort ({c:?}) outside a transaction"),
        r => r,
    }
}

impl VmState {
    /// The two policy-dependent entry ops of a critical section.
    fn enter_crit(&mut self, k: &Kernel) -> GuestOp {
        let body_pc = self.frame.pc;
        let saved_regs = self.frame.regs.clone();
        let retries = self.policy.max_retries;
        self.crit = Some(Crit {
            body_pc,
            saved_regs,
            retries,
        });
        if self.policy.coarse_grained_lock {
            // CGL: spin_acquire, then a plain locked section.
            self.waiting = Waiting::SaBegin(AfterAcquire::Cgl);
            return GuestOp::SpinBegin;
        }
        self.next_attempt(k)
    }

    /// Listing 1's `while retries > 0` head: begin a speculative
    /// attempt, or fall back to the lock once the budget is gone.
    fn next_attempt(&mut self, _k: &Kernel) -> GuestOp {
        let retries = self.crit.as_ref().expect("in critical section").retries;
        if retries > 0 {
            self.waiting = Waiting::TxBegin;
            GuestOp::TxBegin
        } else {
            self.waiting = Waiting::SaBegin(AfterAcquire::Fallback);
            GuestOp::SpinBegin
        }
    }

    /// A speculative attempt failed: route to `spin_until_free` (lock
    /// observed held) or straight to retry accounting.
    fn attempt_failed(&mut self, k: &Kernel, fail: &HtmFail) -> GuestOp {
        match fail {
            HtmFail::LockTaken => {
                // Wait until the lock frees, then burn one retry (the
                // decrement happens at SufEnd, as in the hand-written
                // runtime's `spin_until_free(); retries -= 1;`).
                self.waiting = Waiting::SufBegin;
                GuestOp::SpinBegin
            }
            HtmFail::Abort(cause) => {
                let hopeless = matches!(cause, AbortCause::Of | AbortCause::Fault);
                let crit = self.crit.as_mut().expect("in critical section");
                if hopeless && self.policy.fallback_on_capacity {
                    crit.retries = 0;
                } else {
                    crit.retries -= 1;
                }
                self.next_attempt(k)
            }
        }
    }

    /// Classify a body abort exactly like `try_htm`'s match on the body
    /// result: `Mutex` without htmlock means the subscribed lock was
    /// taken.
    fn body_abort(&mut self, k: &Kernel, cause: AbortCause) -> GuestOp {
        let fail = if cause == AbortCause::Mutex && !self.policy.htmlock {
            HtmFail::LockTaken
        } else {
            HtmFail::Abort(cause)
        };
        self.attempt_failed(k, &fail)
    }

    /// (Re-)enter the critical-section body: restore the registers
    /// captured at `CritBegin` (hardware register rollback) and run to
    /// the first body op or the section end.
    fn enter_body(&mut self, k: &Kernel, kind: BodyKind) -> GuestOp {
        let crit = self.crit.as_ref().expect("in critical section");
        self.frame.regs.copy_from_slice(&crit.saved_regs);
        self.frame.pc = crit.body_pc;
        self.body_step(k, kind)
    }

    /// Advance inside the body until the next op or `CritEnd`.
    fn body_step(&mut self, k: &Kernel, kind: BodyKind) -> GuestOp {
        match self.frame.fetch(k, self.tid, self.threads) {
            Fetch::Op(o) => {
                self.waiting = match kind {
                    BodyKind::Htm => Waiting::Body(o.dst),
                    BodyKind::Lock { hl } => Waiting::LockBody { hl, dst: o.dst },
                };
                o.op
            }
            Fetch::CritEnd => match kind {
                BodyKind::Htm => {
                    // lock_release_elided (Listing 2): dispatch on _ttest.
                    self.waiting = Waiting::TTest;
                    GuestOp::TTest
                }
                BodyKind::Lock { hl } => {
                    self.waiting = Waiting::SecEnd;
                    if hl {
                        GuestOp::HlEnd
                    } else {
                        GuestOp::FallbackEnd
                    }
                }
            },
            Fetch::CritBegin => unreachable!("validated kernel: nested sections"),
            Fetch::Halt => unreachable!("validated kernel: Halt inside a section"),
        }
    }

    /// The critical section committed/completed: resume plain execution
    /// after `CritEnd` (the frame already points there).
    fn crit_done(&mut self, k: &Kernel) -> GuestOp {
        self.crit = None;
        self.run_plain(k)
    }

    /// Advance outside any critical section until the next op, a
    /// `CritBegin`, or program end.
    fn run_plain(&mut self, k: &Kernel) -> GuestOp {
        match self.frame.fetch(k, self.tid, self.threads) {
            Fetch::Op(o) => {
                self.waiting = Waiting::Plain(o.dst);
                o.op
            }
            Fetch::CritBegin => self.enter_crit(k),
            Fetch::CritEnd => unreachable!("validated kernel: CritEnd outside a section"),
            Fetch::Halt => {
                self.waiting = Waiting::Exited;
                GuestOp::Exit
            }
        }
    }

    fn step(&mut self, k: &Kernel, resp: GuestResp) -> GuestOp {
        // Every transition: consume the response for the in-flight op,
        // then advance to the next op. The `Waiting` variants below are
        // in one-to-one correspondence with the rendezvous points of
        // `lockiller::guest` — see the module docs.
        let waiting = std::mem::replace(&mut self.waiting, Waiting::Start);
        match waiting {
            Waiting::Start => {
                // Synthetic kick; no op is in flight.
                self.run_plain(k)
            }
            Waiting::Plain(dst) => {
                match infallible(resp) {
                    GuestResp::Value(v) => self.frame.put(dst, v),
                    _ => {
                        if dst.is_some() {
                            panic!("bad response to load: {resp:?}");
                        }
                    }
                }
                self.run_plain(k)
            }

            // ---- speculative attempt (try_htm) ----
            Waiting::TxBegin => match resp {
                GuestResp::Aborted(c) => self.attempt_failed(k, &HtmFail::Abort(c)),
                _ => {
                    if !self.policy.htmlock {
                        // Baseline subscription: the fallback lock joins
                        // the read set.
                        self.waiting = Waiting::SubLoad;
                        GuestOp::Load(self.lock_addr)
                    } else {
                        self.enter_body(k, BodyKind::Htm)
                    }
                }
            },
            Waiting::SubLoad => match resp {
                GuestResp::Aborted(c) => self.body_abort(k, c),
                GuestResp::Value(0) => self.enter_body(k, BodyKind::Htm),
                GuestResp::Value(_) => {
                    // Lock already held: abort explicitly.
                    self.waiting = Waiting::XAbort;
                    GuestOp::TxAbortUser
                }
                r => panic!("bad response to tx load: {r:?}"),
            },
            Waiting::XAbort => match resp {
                GuestResp::Aborted(_) => self.body_abort(k, AbortCause::Mutex),
                r => panic!("xabort must abort, got {r:?}"),
            },
            Waiting::Body(dst) => match resp {
                GuestResp::Aborted(c) => self.body_abort(k, c),
                GuestResp::Value(v) => {
                    self.frame.put(dst, v);
                    self.body_step(k, BodyKind::Htm)
                }
                _ if dst.is_some() => panic!("bad response to tx load: {resp:?}"),
                _ => self.body_step(k, BodyKind::Htm),
            },
            Waiting::TTest => match resp {
                GuestResp::Aborted(c) => self.attempt_failed(k, &HtmFail::Abort(c)),
                GuestResp::Value(TTest::STL) => {
                    // Switched transaction: hlend, no lock to release.
                    self.waiting = Waiting::HlEndSwitched;
                    GuestOp::HlEnd
                }
                GuestResp::Value(_) => {
                    self.waiting = Waiting::TxCommit;
                    GuestOp::TxCommit
                }
                r => panic!("bad ttest response: {r:?}"),
            },
            // `HlEnd` after an STL switch and the lock-release store
            // both complete the critical section.
            Waiting::HlEndSwitched | Waiting::ReleaseStore => {
                let _ = infallible(resp);
                self.crit_done(k)
            }
            Waiting::TxCommit => match resp {
                GuestResp::Aborted(c) => self.attempt_failed(k, &HtmFail::Abort(c)),
                _ => self.crit_done(k),
            },

            // ---- spin_until_free (subscribed lock observed held) ----
            // `SpinBegin` acknowledged and backoff-compute finished both
            // lead to the next poll of the lock word.
            Waiting::SufBegin | Waiting::SufCompute => {
                let _ = infallible(resp);
                self.waiting = Waiting::SufLoad;
                GuestOp::Load(self.lock_addr)
            }
            Waiting::SufLoad => match infallible(resp) {
                GuestResp::Value(0) => {
                    self.waiting = Waiting::SufEnd;
                    GuestOp::SpinEnd
                }
                GuestResp::Value(_) => {
                    self.waiting = Waiting::SufCompute;
                    GuestOp::Compute(16)
                }
                r => panic!("bad response to load: {r:?}"),
            },
            Waiting::SufEnd => {
                let _ = infallible(resp);
                self.crit.as_mut().expect("in critical section").retries -= 1;
                self.next_attempt(k)
            }

            // ---- spin_acquire (CGL entry / fallback path) ----
            Waiting::SaBegin(next) | Waiting::SaCompute(next) => {
                let _ = infallible(resp);
                self.waiting = Waiting::SaLoad(next);
                GuestOp::Load(self.lock_addr)
            }
            Waiting::SaLoad(next) => match infallible(resp) {
                GuestResp::Value(0) => {
                    self.waiting = Waiting::SaCas(next);
                    GuestOp::Cas(self.lock_addr, 0, 1)
                }
                GuestResp::Value(_) => {
                    self.waiting = Waiting::SaCompute(next);
                    GuestOp::Compute(16)
                }
                r => panic!("bad response to load: {r:?}"),
            },
            Waiting::SaCas(next) => match value(infallible(resp), "cas") {
                0 => {
                    self.waiting = Waiting::SaEnd(next);
                    GuestOp::SpinEnd
                }
                _ => {
                    self.waiting = Waiting::SaCompute(next);
                    GuestOp::Compute(16)
                }
            },
            Waiting::SaEnd(next) => {
                let _ = infallible(resp);
                let hl = match next {
                    // CGL always uses the plain fallback brackets.
                    AfterAcquire::Cgl => false,
                    AfterAcquire::Fallback => self.policy.htmlock,
                };
                self.waiting = Waiting::SecBegin { hl };
                if hl {
                    GuestOp::HlBegin
                } else {
                    GuestOp::FallbackBegin
                }
            }

            // ---- lock-held section ----
            Waiting::SecBegin { hl } => {
                let _ = infallible(resp);
                self.enter_body(k, BodyKind::Lock { hl })
            }
            Waiting::LockBody { hl, dst } => match resp {
                GuestResp::Aborted(c) => {
                    panic!("abort on the non-speculative path: Abort {{ cause: {c:?} }}")
                }
                GuestResp::Value(v) => {
                    self.frame.put(dst, v);
                    self.body_step(k, BodyKind::Lock { hl })
                }
                _ if dst.is_some() => panic!("bad response to tx load: {resp:?}"),
                _ => self.body_step(k, BodyKind::Lock { hl }),
            },
            Waiting::SecEnd => {
                let _ = infallible(resp);
                self.waiting = Waiting::ReleaseStore;
                GuestOp::Store(self.lock_addr, 0)
            }
            Waiting::Exited => panic!("resume after Exit"),
        }
    }
}

impl GuestExec for GuestVm {
    fn resume(&mut self, resp: GuestResp) -> GuestOp {
        self.st.step(&self.kernel, resp)
    }

    fn snapshot(&self) -> Option<GuestSnapshot> {
        Some(GuestSnapshot(Box::new(self.st.clone())))
    }

    fn restore(&mut self, snap: &GuestSnapshot) -> bool {
        match snap.0.downcast_ref::<VmState>() {
            Some(s) if s.frame.regs.len() == self.st.frame.regs.len() => {
                self.st = s.clone();
                true
            }
            _ => false,
        }
    }
}
