//! The execution core: a register frame plus the fetch loop that turns
//! bytecode into a stream of [`GuestOp`]s.
//!
//! [`run_on_ctx`] drives a kernel over a [`GuestCtx`]: every fetched op
//! becomes the corresponding awaited `GuestCtx` call, and critical
//! sections become [`GuestCtx::critical`] closures, so the hand-written
//! runtime supplies the whole retry protocol. The differential tests pin
//! this interpreter and the kernel compilers against hand-written
//! oracle bodies kept in the tests.

use crate::ir::{Instr, Kernel, Reg};
use lockiller::guest::{GuestCtx, GuestOp};
use sim_core::types::Addr;

/// One thread's register file and program counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub regs: Vec<u64>,
    pub pc: usize,
}

/// An op-instruction fetched from the stream: the engine rendezvous to
/// perform, plus the register its `Value` response lands in (loads and
/// CAS).
#[derive(Clone, Copy, Debug)]
pub struct OpAt {
    pub op: GuestOp,
    pub dst: Option<Reg>,
}

/// What [`Frame::fetch`] stopped on.
#[derive(Clone, Copy, Debug)]
pub enum Fetch {
    /// An engine op; the pc already points past it (delivery of the
    /// response via [`Frame::put`] resumes at the next instruction).
    Op(OpAt),
    CritBegin,
    CritEnd,
    Halt,
}

impl Frame {
    pub fn new(k: &Kernel) -> Frame {
        Frame {
            regs: vec![0; k.nregs],
            pc: 0,
        }
    }

    #[inline]
    fn r(&self, r: Reg) -> u64 {
        self.regs[r as usize]
    }

    /// Deliver an op's `Value` response into its destination register.
    #[inline]
    pub fn put(&mut self, dst: Option<Reg>, v: u64) {
        if let Some(r) = dst {
            self.regs[r as usize] = v;
        }
    }

    /// Execute pure instructions until the next op / structural point.
    /// Guaranteed to terminate on a validated kernel only if the kernel
    /// has no pure infinite loop; compiled kernels never emit one (every
    /// loop body performs at least one op).
    pub fn fetch(&mut self, k: &Kernel, tid: usize, threads: usize) -> Fetch {
        loop {
            let i = k.instrs[self.pc];
            self.pc += 1;
            match i {
                Instr::Imm(rd, v) => self.regs[rd as usize] = v,
                Instr::Mov(rd, ra) => self.regs[rd as usize] = self.r(ra),
                Instr::Bin(op, rd, ra, rb) => {
                    self.regs[rd as usize] = op.eval(self.r(ra), self.r(rb));
                }
                Instr::BinI(op, rd, ra, imm) => {
                    self.regs[rd as usize] = op.eval(self.r(ra), imm);
                }
                Instr::Jmp(t) => self.pc = t,
                Instr::Br(c, ra, rb, t) => {
                    if c.holds(self.r(ra), self.r(rb)) {
                        self.pc = t;
                    }
                }
                Instr::Tid(rd) => self.regs[rd as usize] = tid as u64,
                Instr::Threads(rd) => self.regs[rd as usize] = threads as u64,
                Instr::Load(rd, ra, off) => {
                    return Fetch::Op(OpAt {
                        op: GuestOp::Load(Addr(self.r(ra).wrapping_add(off))),
                        dst: Some(rd),
                    })
                }
                Instr::Store(ra, off, rv) => {
                    return Fetch::Op(OpAt {
                        op: GuestOp::Store(Addr(self.r(ra).wrapping_add(off)), self.r(rv)),
                        dst: None,
                    })
                }
                Instr::Cas(rd, ra, re, rn) => {
                    return Fetch::Op(OpAt {
                        op: GuestOp::Cas(Addr(self.r(ra)), self.r(re), self.r(rn)),
                        dst: Some(rd),
                    })
                }
                Instr::Compute(n) => {
                    return Fetch::Op(OpAt {
                        op: GuestOp::Compute(n),
                        dst: None,
                    })
                }
                Instr::ComputeR(ra) => {
                    return Fetch::Op(OpAt {
                        op: GuestOp::Compute(self.r(ra)),
                        dst: None,
                    })
                }
                Instr::PageTouch(ra) => {
                    return Fetch::Op(OpAt {
                        op: GuestOp::PageTouch(self.r(ra)),
                        dst: None,
                    })
                }
                Instr::Barrier => {
                    return Fetch::Op(OpAt {
                        op: GuestOp::Barrier,
                        dst: None,
                    })
                }
                Instr::CritBegin => return Fetch::CritBegin,
                Instr::CritEnd => return Fetch::CritEnd,
                Instr::Halt => {
                    self.pc -= 1; // stay on Halt: fetch is idempotent at the end
                    return Fetch::Halt;
                }
            }
        }
    }
}

/// Run `kernel` to completion over a [`GuestCtx`]: the body of every
/// kernel program's guest. Plain ops map to the awaited `GuestCtx` calls
/// and each critical section runs under [`GuestCtx::critical`] with the
/// registers captured at `CritBegin` restored on every (re-)execution
/// of the body — the hardware's register rollback to the `xbegin`.
pub async fn run_on_ctx(kernel: &Kernel, ctx: &mut GuestCtx) {
    let tid = ctx.tid;
    let threads = ctx.threads;
    let mut f = Frame::new(kernel);
    loop {
        match f.fetch(kernel, tid, threads) {
            Fetch::Halt => return,
            Fetch::CritEnd => unreachable!("validated kernel: CritEnd outside a section"),
            Fetch::Op(o) => match o.op {
                GuestOp::Load(a) => {
                    let v = ctx.load(a).await;
                    f.put(o.dst, v);
                }
                GuestOp::Store(a, v) => ctx.store(a, v).await,
                GuestOp::Cas(a, e, n) => {
                    let v = ctx.cas(a, e, n).await;
                    f.put(o.dst, v);
                }
                GuestOp::Compute(n) => ctx.compute(n).await,
                GuestOp::Barrier => ctx.barrier().await,
                GuestOp::PageTouch(p) => ctx
                    .page_touch(p)
                    .await
                    .expect("abort on a plain page touch"),
                other => unreachable!("fetch produced non-kernel op {other:?}"),
            },
            Fetch::CritBegin => {
                let body_pc = f.pc;
                let saved = f.regs.clone();
                let frame = &mut f;
                ctx.critical(async |tx| {
                    // Register rollback: every execution of the body
                    // starts from the state captured at CritBegin.
                    frame.regs.copy_from_slice(&saved);
                    frame.pc = body_pc;
                    loop {
                        match frame.fetch(kernel, tid, threads) {
                            Fetch::CritEnd => return Ok(()),
                            Fetch::Op(o) => match o.op {
                                GuestOp::Load(a) => {
                                    let v = tx.load(a).await?;
                                    frame.put(o.dst, v);
                                }
                                GuestOp::Store(a, v) => tx.store(a, v).await?,
                                GuestOp::Compute(n) => tx.compute(n).await?,
                                GuestOp::PageTouch(p) => tx.page_touch(p).await?,
                                other => {
                                    unreachable!("validated kernel: {other:?} inside a section")
                                }
                            },
                            Fetch::CritBegin => unreachable!("validated kernel: nested sections"),
                            Fetch::Halt => unreachable!("validated kernel: Halt inside a section"),
                        }
                    }
                })
                .await;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, Cond, KernelBuilder};

    fn fetch_ops(k: &Kernel) -> Vec<GuestOp> {
        // Drive a frame standalone, feeding zero for every load.
        let mut f = Frame::new(k);
        let mut ops = Vec::new();
        loop {
            match f.fetch(k, 0, 1) {
                Fetch::Halt => return ops,
                Fetch::Op(o) => {
                    ops.push(o.op);
                    f.put(o.dst, 0);
                }
                Fetch::CritBegin | Fetch::CritEnd => {}
            }
        }
    }

    #[test]
    fn pure_instrs_run_inline() {
        let mut b = KernelBuilder::new("sum", 3);
        // r0 = 0; for r1 in 10,9,..,1 { r0 += r1 }; store r0 to word 8.
        let loop_top = b.label();
        b.imm(0, 0).imm(1, 10).imm(2, 0);
        b.bind(loop_top);
        b.bin(BinOp::Add, 0, 0, 1);
        b.bini(BinOp::Sub, 1, 1, 1);
        b.br(Cond::Ne, 1, 2, loop_top);
        b.imm(1, 8);
        b.store(1, 0, 0);
        b.halt();
        let k = b.build();
        let ops = fetch_ops(&k);
        assert_eq!(ops, vec![GuestOp::Store(Addr(8), 55)]);
    }

    #[test]
    fn fetch_is_idempotent_at_halt() {
        let mut b = KernelBuilder::new("h", 1);
        b.halt();
        let k = b.build();
        let mut f = Frame::new(&k);
        assert!(matches!(f.fetch(&k, 0, 1), Fetch::Halt));
        assert!(matches!(f.fetch(&k, 0, 1), Fetch::Halt));
    }

    #[test]
    fn tid_and_threads_materialize() {
        let mut b = KernelBuilder::new("t", 2);
        b.push(Instr::Tid(0));
        b.push(Instr::Threads(1));
        b.store(1, 0, 0); // mem[threads] <- tid
        b.halt();
        let k = b.build();
        let mut f = Frame::new(&k);
        match f.fetch(&k, 3, 8) {
            Fetch::Op(o) => assert_eq!(o.op, GuestOp::Store(Addr(8), 3)),
            other => panic!("{other:?}"),
        }
    }
}
