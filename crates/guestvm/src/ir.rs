//! The kernel IR: a compact register-machine bytecode that guest
//! programs compile into.
//!
//! The instruction set splits into **pure** instructions (register
//! arithmetic, moves, branches — executed inline by the interpreter in
//! zero simulated time, exactly like host-side Rust between two
//! `GuestCtx` calls) and **op** instructions (loads,
//! stores, CAS, compute, barrier, page touches — each producing exactly
//! one [`lockiller::GuestOp`] rendezvous with the engine).
//!
//! Critical sections are bracketed by [`Instr::CritBegin`] /
//! [`Instr::CritEnd`]; the interpreter runs the enclosed op stream under
//! `GuestCtx::critical`, the `lock_acquire_elided` retry protocol (see
//! [`crate::interp::run_on_ctx`]), restoring the registers captured at
//! `CritBegin` on every re-execution — the software analogue of
//! hardware register rollback on abort.
//!
//! All arithmetic is wrapping two's-complement on `u64`; division and
//! remainder by zero yield 0 (total and deterministic — a kernel can
//! never fault the host). Shift counts are masked to the low 6 bits.

use std::fmt;

/// Register index. Kernels declare how many registers they use
/// ([`Kernel::nregs`], at most [`MAX_REGS`]).
pub type Reg = u8;

/// Upper bound on registers per kernel (keeps frames small; raise if a
/// compiled program ever needs more).
pub const MAX_REGS: usize = 64;

/// Two-operand ALU operations (wrapping; `Div`/`Rem` by zero give 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

impl BinOp {
    /// Evaluate the operation (total: no panic for any input).
    #[inline]
    pub fn eval(self, a: u64, b: u64) -> u64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => a.checked_div(b).unwrap_or(0),
            BinOp::Rem => a.checked_rem(b).unwrap_or(0),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
        }
    }
}

/// Branch conditions (unsigned comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Ge,
}

impl Cond {
    #[inline]
    pub fn holds(self, a: u64, b: u64) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => a < b,
            Cond::Ge => a >= b,
        }
    }
}

/// One bytecode instruction. `usize` operands are absolute instruction
/// indices (resolved from labels by [`KernelBuilder`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    // ----- pure (zero simulated time) -----
    /// `rd <- imm`.
    Imm(Reg, u64),
    /// `rd <- ra`.
    Mov(Reg, Reg),
    /// `rd <- ra <op> rb`.
    Bin(BinOp, Reg, Reg, Reg),
    /// `rd <- ra <op> imm`.
    BinI(BinOp, Reg, Reg, u64),
    /// Unconditional jump.
    Jmp(usize),
    /// Conditional branch: jump when `ra <cond> rb`.
    Br(Cond, Reg, Reg, usize),
    /// `rd <- tid` (simulated thread id).
    Tid(Reg),
    /// `rd <- threads` (simulated thread count).
    Threads(Reg),
    // ----- ops (one engine rendezvous each) -----
    /// `rd <- mem[ra + off]` (word-addressed).
    Load(Reg, Reg, u64),
    /// `mem[ra + off] <- rv`.
    Store(Reg, u64, Reg),
    /// `rd <- cas(mem[ra], expected=re, new=rn)` — plain regions only.
    Cas(Reg, Reg, Reg, Reg),
    /// `n` non-memory instructions of simulated work.
    Compute(u64),
    /// Register-valued compute (`ra` simulated instructions).
    ComputeR(Reg),
    /// First-touch page notification (page number in `ra`).
    PageTouch(Reg),
    /// Global barrier — plain regions only.
    Barrier,
    // ----- structure -----
    /// Enter a critical section (run under the elided-lock protocol).
    CritBegin,
    /// Leave the critical section.
    CritEnd,
    /// Guest done (the guest's body returns, so it yields `GuestOp::Exit`).
    Halt,
}

impl fmt::Display for Instr {
    /// Stable one-line assembly rendering — used in [`KernelError`]
    /// diagnostics and `tmlint kernel` output, so keep it byte-stable.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = |o: BinOp| match o {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
        };
        let cond = |c: Cond| match c {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Ge => "ge",
        };
        match *self {
            Instr::Imm(rd, v) => write!(f, "r{rd} <- {v}"),
            Instr::Mov(rd, ra) => write!(f, "r{rd} <- r{ra}"),
            Instr::Bin(o, rd, ra, rb) => write!(f, "r{rd} <- r{ra} {} r{rb}", op(o)),
            Instr::BinI(o, rd, ra, v) => write!(f, "r{rd} <- r{ra} {} {v}", op(o)),
            Instr::Jmp(t) => write!(f, "jmp {t}"),
            Instr::Br(c, ra, rb, t) => write!(f, "br.{} r{ra}, r{rb} -> {t}", cond(c)),
            Instr::Tid(rd) => write!(f, "r{rd} <- tid"),
            Instr::Threads(rd) => write!(f, "r{rd} <- threads"),
            Instr::Load(rd, ra, off) => write!(f, "r{rd} <- load [r{ra}+{off}]"),
            Instr::Store(ra, off, rv) => write!(f, "store [r{ra}+{off}] <- r{rv}"),
            Instr::Cas(rd, ra, re, rn) => write!(f, "r{rd} <- cas [r{ra}], r{re}, r{rn}"),
            Instr::Compute(n) => write!(f, "compute {n}"),
            Instr::ComputeR(ra) => write!(f, "compute r{ra}"),
            Instr::PageTouch(ra) => write!(f, "pagetouch r{ra}"),
            Instr::Barrier => write!(f, "barrier"),
            Instr::CritBegin => write!(f, "crit_begin"),
            Instr::CritEnd => write!(f, "crit_end"),
            Instr::Halt => write!(f, "halt"),
        }
    }
}

impl Instr {
    /// Dense encoding for [`Kernel::content_hash`]: a stable operation
    /// tag plus every operand widened to `u64`. Two instructions encode
    /// equal iff they are equal.
    fn encode(self) -> [u64; 5] {
        let o = |o: BinOp| o as u64;
        let c = |c: Cond| c as u64;
        match self {
            Instr::Imm(rd, v) => [0, rd as u64, v, 0, 0],
            Instr::Mov(rd, ra) => [1, rd as u64, ra as u64, 0, 0],
            Instr::Bin(b, rd, ra, rb) => [2, o(b), rd as u64, ra as u64, rb as u64],
            Instr::BinI(b, rd, ra, v) => [3, o(b), rd as u64, ra as u64, v],
            Instr::Jmp(t) => [4, t as u64, 0, 0, 0],
            Instr::Br(cc, ra, rb, t) => [5, c(cc), ra as u64, rb as u64, t as u64],
            Instr::Tid(rd) => [6, rd as u64, 0, 0, 0],
            Instr::Threads(rd) => [7, rd as u64, 0, 0, 0],
            Instr::Load(rd, ra, off) => [8, rd as u64, ra as u64, off, 0],
            Instr::Store(ra, off, rv) => [9, ra as u64, off, rv as u64, 0],
            Instr::Cas(rd, ra, re, rn) => [10, rd as u64, ra as u64, re as u64, rn as u64],
            Instr::Compute(n) => [11, n, 0, 0, 0],
            Instr::ComputeR(ra) => [12, ra as u64, 0, 0, 0],
            Instr::PageTouch(ra) => [13, ra as u64, 0, 0, 0],
            Instr::Barrier => [14, 0, 0, 0, 0],
            Instr::CritBegin => [15, 0, 0, 0, 0],
            Instr::CritEnd => [16, 0, 0, 0, 0],
            Instr::Halt => [17, 0, 0, 0, 0],
        }
    }
}

/// A validated guest kernel: the bytecode one simulated thread runs.
#[derive(Clone, Debug)]
pub struct Kernel {
    /// Diagnostic name (shows up in panics, not in the simulation).
    pub name: String,
    /// Registers used (frame size); all register operands are `< nregs`.
    pub nregs: usize,
    pub instrs: Vec<Instr>,
}

/// Static validation failure for a kernel (see [`Kernel::validate`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelError {
    /// Index of the offending instruction.
    pub at: usize,
    /// Rendered form of the offending instruction ([`Instr`]'s
    /// `Display`), or empty when the failure is not tied to one
    /// (undersized kernel, `nregs` over the cap).
    pub instr: String,
    pub message: String,
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.instr.is_empty() {
            write!(f, "kernel: instr {}: {}", self.at, self.message)
        } else {
            write!(
                f,
                "kernel: instr {} `{}`: {}",
                self.at, self.instr, self.message
            )
        }
    }
}

impl std::error::Error for KernelError {}

impl Kernel {
    /// Build and validate. Panics on an invalid kernel — compilation
    /// bugs, not data errors (use [`Kernel::validate`] to inspect).
    pub fn new(name: impl Into<String>, nregs: usize, instrs: Vec<Instr>) -> Kernel {
        let k = Kernel {
            name: name.into(),
            nregs,
            instrs,
        };
        if let Err(e) = k.validate() {
            panic!("kernel {:?}: {e}", k.name);
        }
        k
    }

    /// Stable content hash over `nregs` and the instruction stream.
    ///
    /// The diagnostic [`Kernel::name`] is deliberately excluded: two
    /// kernels with identical bytecode hash equal, which is what lets
    /// static analyses (`tmstatic::vmabs`) cache results per kernel
    /// *content* rather than per instance. FNV-1a, byte-stable across
    /// runs and platforms.
    pub fn content_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let fold = |mut h: u64, x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            h
        };
        let mut h = fold(OFFSET, self.nregs as u64);
        h = fold(h, self.instrs.len() as u64);
        for i in &self.instrs {
            for w in i.encode() {
                h = fold(h, w);
            }
        }
        h
    }

    /// Static checks: register and branch-target ranges, and a
    /// reachability dataflow proving every instruction executes in a
    /// consistent critical/plain context — no nested `CritBegin`, no
    /// `CritEnd` outside a section, no `Cas`/`Barrier`/`Halt` inside
    /// one, and no path that falls off the end of the bytecode.
    pub fn validate(&self) -> Result<(), KernelError> {
        let err = |at: usize, message: String| {
            Err(KernelError {
                at,
                instr: self
                    .instrs
                    .get(at)
                    .map(ToString::to_string)
                    .unwrap_or_default(),
                message,
            })
        };
        // Kernel-level failures carry no offending instruction.
        let kernel_err = |message: String| {
            Err(KernelError {
                at: 0,
                instr: String::new(),
                message,
            })
        };
        if self.nregs > MAX_REGS {
            return kernel_err(format!("nregs {} exceeds {MAX_REGS}", self.nregs));
        }
        if self.instrs.is_empty() {
            return kernel_err("empty kernel".into());
        }
        let n = self.instrs.len();
        let reg_ok = |r: Reg| (r as usize) < self.nregs;
        for (at, i) in self.instrs.iter().enumerate() {
            let regs: Vec<Reg> = match *i {
                Instr::Imm(a, _)
                | Instr::Tid(a)
                | Instr::Threads(a)
                | Instr::ComputeR(a)
                | Instr::PageTouch(a) => vec![a],
                Instr::Mov(a, b)
                | Instr::Load(a, b, _)
                | Instr::BinI(_, a, b, _)
                | Instr::Store(a, _, b)
                | Instr::Br(_, a, b, _) => vec![a, b],
                Instr::Bin(_, a, b, c) => vec![a, b, c],
                Instr::Cas(a, b, c, d) => vec![a, b, c, d],
                _ => vec![],
            };
            if let Some(&r) = regs.iter().find(|&&r| !reg_ok(r)) {
                return err(
                    at,
                    format!("register r{r} out of range (nregs {})", self.nregs),
                );
            }
            if let Instr::Jmp(t) | Instr::Br(_, _, _, t) = *i {
                if t >= n {
                    return err(at, format!("branch target {t} out of range ({n} instrs)"));
                }
            }
        }
        // Critical-context dataflow to fixpoint. `state[pc]` is a bitmask:
        // bit 0 = reachable outside a critical section, bit 1 = inside.
        let mut state = vec![0u8; n];
        let mut work = vec![(0usize, 0u8)];
        while let Some((pc, ctx)) = work.pop() {
            let bit = 1u8 << ctx;
            if state[pc] & bit != 0 {
                continue;
            }
            state[pc] |= bit;
            if state[pc] == 0b11 {
                return err(
                    pc,
                    "reachable both inside and outside a critical section".into(),
                );
            }
            let in_crit = ctx == 1;
            let mut succ: Vec<(usize, u8)> = Vec::new();
            match self.instrs[pc] {
                Instr::Halt => {
                    if in_crit {
                        return err(pc, "Halt inside a critical section".into());
                    }
                    continue;
                }
                Instr::CritBegin => {
                    if in_crit {
                        return err(pc, "nested CritBegin".into());
                    }
                    succ.push((pc + 1, 1));
                }
                Instr::CritEnd => {
                    if !in_crit {
                        return err(pc, "CritEnd outside a critical section".into());
                    }
                    succ.push((pc + 1, 0));
                }
                Instr::Cas(..) if in_crit => {
                    return err(pc, "Cas inside a critical section".into());
                }
                Instr::Barrier if in_crit => {
                    return err(pc, "Barrier inside a critical section".into());
                }
                Instr::Jmp(t) => succ.push((t, ctx)),
                Instr::Br(_, _, _, t) => {
                    succ.push((t, ctx));
                    succ.push((pc + 1, ctx));
                }
                _ => succ.push((pc + 1, ctx)),
            }
            for (t, c) in succ {
                if t >= n {
                    return err(pc, "control flow falls off the end (missing Halt?)".into());
                }
                work.push((t, c));
            }
        }
        Ok(())
    }
}

/// Forward-label builder for [`Kernel`]s: emit instructions in order,
/// create labels with [`KernelBuilder::label`], bind them with
/// [`KernelBuilder::bind`], and reference them from jumps/branches
/// before or after binding.
pub struct KernelBuilder {
    name: String,
    nregs: usize,
    instrs: Vec<Instr>,
    /// Label id -> bound instruction index.
    bound: Vec<Option<usize>>,
    /// (instr index, label id) pairs to patch at build time.
    fixups: Vec<(usize, Label)>,
}

/// An abstract jump target (see [`KernelBuilder::label`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Label(usize);

impl KernelBuilder {
    pub fn new(name: impl Into<String>, nregs: usize) -> KernelBuilder {
        KernelBuilder {
            name: name.into(),
            nregs,
            instrs: Vec::new(),
            bound: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// Create an unbound label.
    pub fn label(&mut self) -> Label {
        self.bound.push(None);
        Label(self.bound.len() - 1)
    }

    /// Bind `l` to the next emitted instruction.
    pub fn bind(&mut self, l: Label) {
        assert!(self.bound[l.0].is_none(), "label bound twice");
        self.bound[l.0] = Some(self.instrs.len());
    }

    /// Append a raw instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    // Convenience emitters (thin wrappers so compiled code reads close
    // to the hand-written guest bodies it mirrors).
    pub fn imm(&mut self, rd: Reg, v: u64) -> &mut Self {
        self.push(Instr::Imm(rd, v))
    }
    pub fn mov(&mut self, rd: Reg, ra: Reg) -> &mut Self {
        self.push(Instr::Mov(rd, ra))
    }
    pub fn bin(&mut self, op: BinOp, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.push(Instr::Bin(op, rd, ra, rb))
    }
    pub fn bini(&mut self, op: BinOp, rd: Reg, ra: Reg, imm: u64) -> &mut Self {
        self.push(Instr::BinI(op, rd, ra, imm))
    }
    pub fn load(&mut self, rd: Reg, ra: Reg, off: u64) -> &mut Self {
        self.push(Instr::Load(rd, ra, off))
    }
    pub fn store(&mut self, ra: Reg, off: u64, rv: Reg) -> &mut Self {
        self.push(Instr::Store(ra, off, rv))
    }
    pub fn cas(&mut self, rd: Reg, ra: Reg, re: Reg, rn: Reg) -> &mut Self {
        self.push(Instr::Cas(rd, ra, re, rn))
    }
    pub fn compute(&mut self, n: u64) -> &mut Self {
        self.push(Instr::Compute(n))
    }
    pub fn compute_r(&mut self, ra: Reg) -> &mut Self {
        self.push(Instr::ComputeR(ra))
    }
    pub fn barrier(&mut self) -> &mut Self {
        self.push(Instr::Barrier)
    }
    pub fn crit_begin(&mut self) -> &mut Self {
        self.push(Instr::CritBegin)
    }
    pub fn crit_end(&mut self) -> &mut Self {
        self.push(Instr::CritEnd)
    }
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instr::Halt)
    }

    /// Jump to `l`.
    pub fn jmp(&mut self, l: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), l));
        self.push(Instr::Jmp(usize::MAX))
    }

    /// Branch to `l` when `ra <cond> rb`.
    pub fn br(&mut self, cond: Cond, ra: Reg, rb: Reg, l: Label) -> &mut Self {
        self.fixups.push((self.instrs.len(), l));
        self.push(Instr::Br(cond, ra, rb, usize::MAX))
    }

    /// Patch labels, validate, and produce the kernel (panics on an
    /// invalid kernel — a compiler bug, not input data).
    pub fn build(mut self) -> Kernel {
        for (at, l) in std::mem::take(&mut self.fixups) {
            let target = self.bound[l.0].unwrap_or_else(|| panic!("label {l:?} never bound"));
            match &mut self.instrs[at] {
                Instr::Jmp(t) | Instr::Br(_, _, _, t) => *t = target,
                other => panic!("fixup at non-branch {other:?}"),
            }
        }
        Kernel::new(self.name, self.nregs, self.instrs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_is_total() {
        assert_eq!(BinOp::Div.eval(7, 0), 0);
        assert_eq!(BinOp::Rem.eval(7, 0), 0);
        assert_eq!(BinOp::Add.eval(u64::MAX, 1), 0);
        assert_eq!(BinOp::Sub.eval(0, 1), u64::MAX);
        assert_eq!(BinOp::Shl.eval(1, 64), 1); // count masked to 6 bits
        assert_eq!(BinOp::Mul.eval(3, 5), 15);
    }

    #[test]
    fn builder_patches_labels() {
        let mut b = KernelBuilder::new("t", 2);
        let done = b.label();
        b.imm(0, 1).imm(1, 1);
        b.br(Cond::Eq, 0, 1, done);
        b.compute(99);
        b.bind(done);
        b.halt();
        let k = b.build();
        assert_eq!(k.instrs[2], Instr::Br(Cond::Eq, 0, 1, 4));
    }

    #[test]
    fn validate_rejects_bad_kernels() {
        let bad = |instrs: Vec<Instr>| Kernel {
            name: "bad".into(),
            nregs: 2,
            instrs,
        };
        // Register out of range.
        assert!(bad(vec![Instr::Imm(7, 0), Instr::Halt]).validate().is_err());
        // Falls off the end.
        assert!(bad(vec![Instr::Imm(0, 0)]).validate().is_err());
        // Nested critical sections.
        assert!(bad(vec![
            Instr::CritBegin,
            Instr::CritBegin,
            Instr::CritEnd,
            Instr::CritEnd,
            Instr::Halt
        ])
        .validate()
        .is_err());
        // CritEnd without CritBegin.
        assert!(bad(vec![Instr::CritEnd, Instr::Halt]).validate().is_err());
        // Barrier inside a critical section.
        assert!(bad(vec![
            Instr::CritBegin,
            Instr::Barrier,
            Instr::CritEnd,
            Instr::Halt
        ])
        .validate()
        .is_err());
        // Cas inside a critical section.
        assert!(bad(vec![
            Instr::CritBegin,
            Instr::Cas(0, 0, 0, 1),
            Instr::CritEnd,
            Instr::Halt
        ])
        .validate()
        .is_err());
        // Halt inside a critical section.
        assert!(bad(vec![Instr::CritBegin, Instr::Halt]).validate().is_err());
        // Branch target out of range.
        assert!(bad(vec![Instr::Jmp(9), Instr::Halt]).validate().is_err());
        // A good one for contrast.
        assert!(bad(vec![
            Instr::CritBegin,
            Instr::Load(0, 1, 0),
            Instr::CritEnd,
            Instr::Halt
        ])
        .validate()
        .is_ok());
    }

    #[test]
    fn kernel_error_renders_offending_instruction() {
        // Instruction-level failure: index + rendered form + reason.
        let e = Kernel {
            name: "bad".into(),
            nregs: 2,
            instrs: vec![Instr::CritBegin, Instr::Cas(0, 0, 0, 1), Instr::Halt],
        }
        .validate()
        .unwrap_err();
        assert_eq!(e.at, 1);
        assert_eq!(e.instr, "r0 <- cas [r0], r0, r1");
        assert_eq!(
            e.to_string(),
            "kernel: instr 1 `r0 <- cas [r0], r0, r1`: Cas inside a critical section"
        );
        // Register-range failure names the register and the instruction.
        let e = Kernel {
            name: "bad".into(),
            nregs: 2,
            instrs: vec![Instr::Imm(7, 3), Instr::Halt],
        }
        .validate()
        .unwrap_err();
        assert_eq!(
            e.to_string(),
            "kernel: instr 0 `r7 <- 3`: register r7 out of range (nregs 2)"
        );
        // Kernel-level failure carries no instruction backtick block.
        let e = Kernel {
            name: "bad".into(),
            nregs: 2,
            instrs: vec![],
        }
        .validate()
        .unwrap_err();
        assert_eq!(e.instr, "");
        assert_eq!(e.to_string(), "kernel: instr 0: empty kernel");
    }

    #[test]
    fn content_hash_ignores_name_but_not_code() {
        let k = |name: &str, nregs: usize, instrs: Vec<Instr>| Kernel {
            name: name.into(),
            nregs,
            instrs,
        };
        let a = k("a", 2, vec![Instr::Imm(0, 1), Instr::Halt]);
        let renamed = k("b", 2, vec![Instr::Imm(0, 1), Instr::Halt]);
        assert_eq!(a.content_hash(), renamed.content_hash());
        // Any operand or structural change must move the hash.
        let operand = k("a", 2, vec![Instr::Imm(0, 2), Instr::Halt]);
        let reg = k("a", 2, vec![Instr::Imm(1, 1), Instr::Halt]);
        let frame = k("a", 3, vec![Instr::Imm(0, 1), Instr::Halt]);
        let longer = k(
            "a",
            2,
            vec![Instr::Imm(0, 1), Instr::Compute(0), Instr::Halt],
        );
        for other in [&operand, &reg, &frame, &longer] {
            assert_ne!(a.content_hash(), other.content_hash());
        }
        // Distinct opcodes with identical operand words must differ.
        let begin = k("a", 1, vec![Instr::CritBegin, Instr::CritEnd, Instr::Halt]);
        let end = k("a", 1, vec![Instr::Barrier, Instr::Barrier, Instr::Halt]);
        assert_ne!(begin.content_hash(), end.content_hash());
    }

    #[test]
    fn validate_rejects_mixed_context() {
        // pc 3 reachable both inside (fallthrough from CritBegin path)
        // and outside (jump around it) a critical section.
        let k = Kernel {
            name: "mixed".into(),
            nregs: 1,
            instrs: vec![
                Instr::Imm(0, 0),
                Instr::Br(Cond::Eq, 0, 0, 4), // jump into the tail, plain
                Instr::CritBegin,
                Instr::Load(0, 0, 0), // also reached in-crit… wait: pc4 is target
                Instr::Load(0, 0, 0), // reached plain via branch, in-crit by fallthrough
                Instr::CritEnd,
                Instr::Halt,
            ],
        };
        assert!(k.validate().is_err());
    }
}
