//! vmabs — abstract interpretation over `guestvm` bytecode kernels.
//!
//! Every footprint the whole-program analysis
//! ([`VmAnalysis`](crate::VmAnalysis)) reasons about comes from here:
//! the per-thread line sets are recovered from the [`Kernel`] bytecode
//! itself — the artifact `--backend vm` actually executes, and what a
//! `ProgSpec` compiles to — so indexed addressing and data-dependent
//! loops are expressible. The analysis is a classic worklist abstract
//! interpretation:
//!
//! - **Value domain** ([`AbsVal`]): per-register constants, bounded
//!   stride intervals (`{base + k·stride | k < count}`, no wrap),
//!   power-of-two congruence classes (`v ≡ base mod 2^k`, the sound
//!   residue of an unbounded stride under wrapping arithmetic), and
//!   Top. Joins keep arithmetic progressions exact where possible;
//!   widening (applied after [`WIDEN_AFTER`] joins at one node)
//!   escalates bounded → congruence → Top, so back-edges terminate.
//! - **Line domain** ([`AbsLines`]): per-thread sets of physical
//!   [`LineAddr`]s with an explicit Top, enumerated from address
//!   values under the [`MAX_LINES`]/[`MAX_COUNT`] caps.
//! - **Taint**: one bit per register marking values derived from a
//!   memory response (`Load`/`Cas` destinations), which is what makes
//!   a loop bound *data-dependent* rather than static.
//!
//! States are keyed by `(pc, context)` where the context is plain code
//! or a critical region identified by its `CritBegin` pc — the same
//! split [`Kernel::validate`]'s dataflow proves consistent, except the
//! interpreter tolerates inconsistent kernels so lint can report them
//! (see [`KernelAbs::rollback_unsafe`]).
//!
//! Everything footprint-shaped is a sound *over-approximation* of any
//! execution (`tests/vm_soundness.rs` checks dynamically traced line
//! accesses and conflict edges against it, on both backends); loop
//! *bound* classification is diagnostic only, except that
//! [`LoopBound::Unbounded`] is itself a proof (no abstract state can
//! take any exit, hence no concrete one can). Where precision is lost
//! the analysis degrades *soundly*: a Top footprint silently disables
//! the lints that would need it and makes
//! [`VmAnalysis::independence`](crate::VmAnalysis::independence) return
//! `None` (no pruning) rather than an unsound table.

use guestvm::{BinOp, Cond, Instr, Kernel};
use sim_core::types::{LineAddr, LINE_SHIFT, WORDS_PER_LINE};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Cardinality cap on bounded stride intervals: joins that would exceed
/// it widen to a congruence class.
pub const MAX_COUNT: u64 = 4096;

/// Cap on the distinct lines one memory op may contribute precisely;
/// beyond it the op's line set widens to Top.
pub const MAX_LINES: usize = 64;

/// Joins observed at one `(pc, context)` node before widening replaces
/// joining (guarantees termination on back-edges).
const WIDEN_AFTER: u32 = 24;

// ---------------------------------------------------------------------
// Value domain
// ---------------------------------------------------------------------

/// Abstract `u64` value. All sets are exact or over-approximating —
/// never under-approximating — with respect to the VM's wrapping
/// arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbsVal {
    /// Exactly one value.
    Const(u64),
    /// `{base + k*stride | 0 <= k < count}` with `stride >= 1`,
    /// `count >= 2`, and `base + (count-1)*stride` not wrapping.
    Range { base: u64, stride: u64, count: u64 },
    /// `{v | v mod modulus == base}` with `modulus` a power of two
    /// `>= 2` and `base < modulus`. This is the sound residue of an
    /// unbounded stride: congruence mod a power of two survives the
    /// `2^64` wrap because the modulus divides `2^64`.
    Congr { base: u64, modulus: u64 },
    /// Any value.
    Top,
}

/// Largest power-of-two divisor of `x` as a modulus, or `None` when no
/// useful (>= 2) modulus exists.
fn pow2_mod(x: u64) -> Option<u64> {
    if x == 0 {
        return None; // gcd-with-zero callers handle 0 separately
    }
    let m = 1u64 << x.trailing_zeros().min(63);
    (m >= 2).then_some(m)
}

fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Congruence-class over-approximation of `{base + k*stride | k >= 0}`
/// under wrapping arithmetic.
fn congr_of(base: u64, stride: u64) -> AbsVal {
    match pow2_mod(stride) {
        Some(m) => AbsVal::Congr {
            base: base & (m - 1),
            modulus: m,
        },
        None if stride == 0 => AbsVal::Const(base),
        None => AbsVal::Top,
    }
}

/// Canonicalizing arithmetic-progression constructor. Accepts any
/// wrapping `stride` (including "negative" steps); re-bases descending
/// progressions, collapses trivial ones to `Const`, and falls back to
/// the congruence over-approximation when the progression wraps or
/// exceeds [`MAX_COUNT`].
fn ap(base: u64, stride: u64, count: u64) -> AbsVal {
    if count == 0 || count == 1 || stride == 0 {
        return AbsVal::Const(base);
    }
    // Descending step: re-base at the smallest element.
    let (base, stride) = if stride > i64::MAX as u64 {
        (
            base.wrapping_add(stride.wrapping_mul(count - 1)),
            stride.wrapping_neg(),
        )
    } else {
        (base, stride)
    };
    if count > MAX_COUNT {
        return congr_of(base, stride);
    }
    let span = (count as u128 - 1) * stride as u128;
    if base as u128 + span > u64::MAX as u128 {
        return congr_of(base, stride);
    }
    AbsVal::Range {
        base,
        stride,
        count,
    }
}

impl AbsVal {
    /// `(representative, step)` characterization used by congruence
    /// joins: every element is `≡ representative (mod d)` for any `d`
    /// dividing `step` (step 0 = the single value itself).
    fn base_step(self) -> Option<(u64, u64)> {
        match self {
            AbsVal::Const(c) => Some((c, 0)),
            AbsVal::Range { base, stride, .. } => Some((base, stride)),
            AbsVal::Congr { base, modulus } => Some((base, modulus)),
            AbsVal::Top => None,
        }
    }

    /// Largest element of a bounded value.
    fn max(self) -> Option<u64> {
        match self {
            AbsVal::Const(c) => Some(c),
            AbsVal::Range {
                base,
                stride,
                count,
            } => Some(base + stride * (count - 1)),
            _ => None,
        }
    }

    /// Smallest element, when one exists.
    fn min(self) -> Option<u64> {
        match self {
            AbsVal::Const(c) => Some(c),
            AbsVal::Range { base, .. } | AbsVal::Congr { base, .. } => Some(base),
            AbsVal::Top => None,
        }
    }

    /// Membership test (over-approximating on `Top`).
    pub fn contains(self, v: u64) -> bool {
        match self {
            AbsVal::Const(c) => v == c,
            AbsVal::Range {
                base,
                stride,
                count,
            } => v >= base && (v - base).is_multiple_of(stride) && (v - base) / stride < count,
            AbsVal::Congr { base, modulus } => v & (modulus - 1) == base,
            AbsVal::Top => true,
        }
    }

    /// Least upper bound. Keeps arithmetic progressions exact where the
    /// result stays bounded, otherwise escalates to congruence / Top.
    pub fn join(self, other: AbsVal) -> AbsVal {
        if self == other {
            return self;
        }
        let (Some((b1, s1)), Some((b2, s2))) = (self.base_step(), other.base_step()) else {
            return AbsVal::Top;
        };
        // Bounded ∪ bounded can stay a bounded progression.
        if let (Some(m1), Some(m2)) = (self.max(), other.max()) {
            let lo = self.min().unwrap().min(other.min().unwrap());
            let hi = m1.max(m2);
            let g = gcd(gcd(s1, s2), b1.abs_diff(b2));
            if g == 0 {
                // Both are the same constant (caught above) — unreachable,
                // but stay total.
                return self;
            }
            return ap(lo, g, (hi - lo) / g + 1);
        }
        // Anything involving a congruence class joins as congruences.
        let g = gcd(gcd(s1, s2), b1.abs_diff(b2));
        congr_of(b1, g)
    }

    /// Widening: like [`AbsVal::join`] but guaranteed to climb the
    /// finite chain bounded → congruence (shrinking modulus) → Top, so
    /// fixpoints terminate regardless of how values evolve.
    fn widen(self, other: AbsVal) -> AbsVal {
        let j = self.join(other);
        if j == self {
            return self;
        }
        match j {
            AbsVal::Const(_) | AbsVal::Congr { .. } | AbsVal::Top => j,
            AbsVal::Range { base, stride, .. } => congr_of(base, stride),
        }
    }
}

/// Transfer function for the pure ALU (`Bin`/`BinI`). Total and sound:
/// any case not modeled exactly returns a superset.
fn eval_bin(op: BinOp, a: AbsVal, b: AbsVal) -> AbsVal {
    use AbsVal::{Const, Top};
    if let (Const(x), Const(y)) = (a, b) {
        return Const(op.eval(x, y));
    }
    match op {
        BinOp::Add => abs_add(a, b),
        BinOp::Sub => abs_add(a, abs_neg(b)),
        BinOp::Mul => abs_mul(a, b),
        BinOp::Shl => match b {
            // Shl by a constant is Mul by a power of two (count masked
            // to 6 bits, exactly like `BinOp::eval`).
            Const(c) => abs_mul(a, Const(1u64 << (c & 63))),
            _ => Top,
        },
        _ => Top,
    }
}

/// Exact negation: wrapping negation is a bijection mapping
/// progressions to progressions and congruence classes to congruence
/// classes.
fn abs_neg(v: AbsVal) -> AbsVal {
    match v {
        AbsVal::Const(c) => AbsVal::Const(c.wrapping_neg()),
        AbsVal::Range {
            base,
            stride,
            count,
        } => ap(base.wrapping_neg(), stride.wrapping_neg(), count),
        AbsVal::Congr { base, modulus } => AbsVal::Congr {
            base: base.wrapping_neg() & (modulus - 1),
            modulus,
        },
        AbsVal::Top => AbsVal::Top,
    }
}

fn abs_add(a: AbsVal, b: AbsVal) -> AbsVal {
    use AbsVal::{Congr, Const, Range, Top};
    match (a, b) {
        (Top, _) | (_, Top) => Top,
        (Const(x), Const(y)) => Const(x.wrapping_add(y)),
        // Adding a constant is a bijection mod 2^64: exact.
        (Const(c), v) | (v, Const(c)) => match v {
            Range {
                base,
                stride,
                count,
            } => ap(base.wrapping_add(c), stride, count),
            Congr { base, modulus } => Congr {
                base: base.wrapping_add(c) & (modulus - 1),
                modulus,
            },
            _ => unreachable!("Const and Top handled above"),
        },
        // Bounded + bounded stays a bounded progression on the gcd
        // stride when the sum of maxima does not wrap.
        (
            Range {
                base: b1,
                stride: s1,
                count: n1,
            },
            Range {
                base: b2,
                stride: s2,
                count: n2,
            },
        ) => {
            let g = gcd(s1, s2);
            let (lo, hi) = (
                b1 as u128 + b2 as u128,
                (b1 + s1 * (n1 - 1)) as u128 + (b2 + s2 * (n2 - 1)) as u128,
            );
            if hi > u64::MAX as u128 {
                congr_of(b1.wrapping_add(b2), g)
            } else {
                ap(lo as u64, g, ((hi - lo) as u64) / g + 1)
            }
        }
        // Congruence arithmetic: sum of residues mod the gcd modulus.
        (x, y) => {
            let ((b1, s1), (b2, s2)) = (x.base_step().unwrap(), y.base_step().unwrap());
            congr_of(b1.wrapping_add(b2), gcd(s1, s2))
        }
    }
}

fn abs_mul(a: AbsVal, b: AbsVal) -> AbsVal {
    use AbsVal::{Congr, Const, Range, Top};
    match (a, b) {
        (Const(0), _) | (_, Const(0)) => Const(0),
        (Const(x), Const(y)) => Const(x.wrapping_mul(y)),
        // Multiplying by a constant distributes exactly mod 2^64.
        (Const(c), v) | (v, Const(c)) => match v {
            Range {
                base,
                stride,
                count,
            } => ap(base.wrapping_mul(c), stride.wrapping_mul(c), count),
            Congr { base, modulus } => {
                let tz = modulus.trailing_zeros() + c.trailing_zeros();
                if tz >= 64 {
                    // modulus * c ≡ 0 mod 2^64: every element collapses.
                    Const(base.wrapping_mul(c))
                } else {
                    congr_of(base.wrapping_mul(c), 1u64 << tz)
                }
            }
            _ => Top,
        },
        _ => Top,
    }
}

/// Restrict `v` to `{x ∈ v | x < n}`. `None` = provably empty (the
/// branch edge is infeasible).
fn clip_lt(v: AbsVal, n: u64) -> Option<AbsVal> {
    if n == 0 {
        return None;
    }
    match v {
        AbsVal::Const(c) => (c < n).then_some(v),
        AbsVal::Range {
            base,
            stride,
            count,
        } => {
            if base >= n {
                return None;
            }
            Some(ap(base, stride, count.min((n - 1 - base) / stride + 1)))
        }
        AbsVal::Congr { base, modulus } => {
            if base >= n {
                return None;
            }
            Some(ap(base, modulus, (n - 1 - base) / modulus + 1))
        }
        AbsVal::Top => Some(ap(0, 1, n)),
    }
}

/// Restrict `v` to `{x ∈ v | x >= n}`. `None` = provably empty.
fn clip_ge(v: AbsVal, n: u64) -> Option<AbsVal> {
    match v {
        AbsVal::Const(c) => (c >= n).then_some(v),
        AbsVal::Range {
            base,
            stride,
            count,
        } => {
            if base >= n {
                return Some(v);
            }
            let skip = (n - base).div_ceil(stride);
            if skip >= count {
                return None;
            }
            Some(ap(base + skip * stride, stride, count - skip))
        }
        // Unbounded above: keeping the whole class is sound.
        AbsVal::Congr { .. } | AbsVal::Top => Some(v),
    }
}

/// Branch refinement: the abstract values of `(ra, rb)` on the edge
/// where `ra <cond> rb` is `holds`. `None` = that edge is infeasible.
/// `same_reg` marks `Br(c, r, r, _)`, where both sides are one value.
fn refine(
    cond: Cond,
    holds: bool,
    same_reg: bool,
    a: AbsVal,
    b: AbsVal,
) -> Option<(AbsVal, AbsVal)> {
    use AbsVal::Const;
    // Normalize to the positive condition on this edge.
    let cond = if holds {
        cond
    } else {
        match cond {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Ge => Cond::Lt,
        }
    };
    if same_reg {
        // r == r always; r != r / r < r never.
        return match cond {
            Cond::Eq | Cond::Ge => Some((a, b)),
            Cond::Ne | Cond::Lt => None,
        };
    }
    match cond {
        Cond::Eq => match (a, b) {
            (Const(x), Const(y)) => (x == y).then_some((a, b)),
            (Const(c), v) => v.contains(c).then_some((a, Const(c))),
            (v, Const(c)) => v.contains(c).then_some((Const(c), b)),
            _ => Some((a, b)),
        },
        Cond::Ne => match (a, b) {
            (Const(x), Const(y)) => (x != y).then_some((a, b)),
            // Dropping a matching endpoint keeps decrement-style loop
            // exits precise (`br ne i, zero` patterns).
            (Const(c), v) => Some((a, drop_endpoint(v, c))),
            (v, Const(c)) => Some((drop_endpoint(v, c), b)),
            _ => Some((a, b)),
        },
        Cond::Lt => match (a, b) {
            (v, Const(n)) => Some((clip_lt(v, n)?, b)),
            (Const(c), v) => {
                let n = c.checked_add(1)?;
                Some((a, clip_ge(v, n)?))
            }
            _ => Some((a, b)),
        },
        Cond::Ge => match (a, b) {
            (v, Const(n)) => Some((clip_ge(v, n)?, b)),
            (Const(c), v) => Some((a, clip_lt(v, c.checked_add(1)?)?)),
            _ => Some((a, b)),
        },
    }
}

/// Remove `c` from `v` when it is an endpoint of a bounded progression
/// (exact enough for loop-exit refinement; otherwise returns `v`).
fn drop_endpoint(v: AbsVal, c: u64) -> AbsVal {
    if let AbsVal::Range {
        base,
        stride,
        count,
    } = v
    {
        if c == base {
            return ap(base + stride, stride, count - 1);
        }
        if c == base + stride * (count - 1) {
            return ap(base, stride, count - 1);
        }
    }
    v
}

// ---------------------------------------------------------------------
// Line domain
// ---------------------------------------------------------------------

/// A set of physical cache lines with an explicit Top ("any line").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AbsLines {
    Lines(BTreeSet<LineAddr>),
    Top,
}

impl AbsLines {
    pub fn empty() -> AbsLines {
        AbsLines::Lines(BTreeSet::new())
    }

    pub fn is_top(&self) -> bool {
        matches!(self, AbsLines::Top)
    }

    pub fn is_empty(&self) -> bool {
        matches!(self, AbsLines::Lines(s) if s.is_empty())
    }

    /// Precise contents, when the set did not widen.
    pub fn lines(&self) -> Option<&BTreeSet<LineAddr>> {
        match self {
            AbsLines::Lines(s) => Some(s),
            AbsLines::Top => None,
        }
    }

    pub fn contains(&self, l: LineAddr) -> bool {
        match self {
            AbsLines::Lines(s) => s.contains(&l),
            AbsLines::Top => true,
        }
    }

    pub fn insert(&mut self, l: LineAddr) {
        if let AbsLines::Lines(s) = self {
            s.insert(l);
        }
    }

    pub fn union_with(&mut self, other: &AbsLines) {
        match (&mut *self, other) {
            (AbsLines::Lines(a), AbsLines::Lines(b)) => a.extend(b.iter().copied()),
            _ => *self = AbsLines::Top,
        }
    }

    /// Can the two sets share a line? Top intersects anything
    /// non-empty.
    pub fn intersects(&self, other: &AbsLines) -> bool {
        match (self, other) {
            (AbsLines::Lines(a), AbsLines::Lines(b)) => a.iter().any(|l| b.contains(l)),
            (AbsLines::Top, AbsLines::Top) => true,
            (AbsLines::Top, AbsLines::Lines(s)) | (AbsLines::Lines(s), AbsLines::Top) => {
                !s.is_empty()
            }
        }
    }
}

/// Lines a memory access at abstract word address `addr` can touch.
fn lines_of(addr: AbsVal) -> AbsLines {
    let line = |w: u64| LineAddr(w >> LINE_SHIFT);
    match addr {
        AbsVal::Const(a) => AbsLines::Lines([line(a)].into()),
        AbsVal::Range {
            base,
            stride,
            count,
        } => {
            let last = base + stride * (count - 1);
            if stride <= WORDS_PER_LINE {
                // Steps of at most a line can never skip one: the
                // touched lines are exactly the contiguous range.
                let (lo, hi) = (base >> LINE_SHIFT, last >> LINE_SHIFT);
                if (hi - lo) as usize + 1 > MAX_LINES {
                    return AbsLines::Top;
                }
                AbsLines::Lines((lo..=hi).map(LineAddr).collect())
            } else {
                let mut s = BTreeSet::new();
                for k in 0..count {
                    s.insert(line(base + k * stride));
                    if s.len() > MAX_LINES {
                        return AbsLines::Top;
                    }
                }
                AbsLines::Lines(s)
            }
        }
        AbsVal::Congr { .. } | AbsVal::Top => AbsLines::Top,
    }
}

// ---------------------------------------------------------------------
// Abstract interpretation over one kernel
// ---------------------------------------------------------------------

/// Execution context of a program point: plain code, or inside the
/// critical region opened by the `CritBegin` at the given pc.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Ctx {
    Plain,
    Crit(usize),
}

#[derive(Clone, PartialEq, Eq)]
struct AbsState {
    regs: Vec<AbsVal>,
    /// Bit `r` set = register `r` derives from a memory response.
    taint: u64,
}

impl AbsState {
    fn merge(&mut self, other: &AbsState, widening: bool) -> bool {
        let mut changed = false;
        for (mine, theirs) in self.regs.iter_mut().zip(&other.regs) {
            let next = if widening {
                mine.widen(*theirs)
            } else {
                mine.join(*theirs)
            };
            if next != *mine {
                *mine = next;
                changed = true;
            }
        }
        if self.taint | other.taint != self.taint {
            self.taint |= other.taint;
            changed = true;
        }
        changed
    }
}

/// Loop-bound classification for one CFG back-edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopBound {
    /// The abstract fixpoint bounds the loop without widening and every
    /// feasible exit condition is untainted and non-Top. The payload
    /// estimates the iteration-state count (largest induction-register
    /// range at the loop head) — diagnostic, not a proof of the exact
    /// trip count.
    Bounded(u64),
    /// Some feasible exit condition reads a register derived from a
    /// memory response: iteration count depends on shared data.
    DataDependent,
    /// *Proof* of divergence: no abstract state at any exit edge is
    /// feasible, so no concrete execution leaves the loop.
    Unbounded,
    /// Widening destroyed the bound and no stronger class applies.
    Unknown,
}

/// One CFG back-edge and its classification.
#[derive(Clone, Debug)]
pub struct LoopAbs {
    /// pc of the branch/jump instruction forming the back-edge.
    pub from: usize,
    /// Loop head (the back-edge target).
    pub head: usize,
    /// The back-edge executes inside a critical region.
    pub in_crit: bool,
    pub bound: LoopBound,
}

/// Footprint of one critical region (all ops reachable in its context).
#[derive(Clone, Debug)]
pub struct RegionAbs {
    /// pc of the `CritBegin` opening the region.
    pub begin: usize,
    pub reads: AbsLines,
    pub writes: AbsLines,
}

impl RegionAbs {
    /// Distinct lines touched (read or written), `None` when widened.
    pub fn lines(&self) -> Option<BTreeSet<LineAddr>> {
        let (r, w) = (self.reads.lines()?, self.writes.lines()?);
        Some(r.union(w).copied().collect())
    }
}

/// One memory op (`Load`/`Store`/`Cas`) at one program point and
/// context.
#[derive(Clone, Debug)]
pub struct OpAbs {
    pub pc: usize,
    /// `Some(begin_pc)` when the op executes inside a critical region.
    pub crit: Option<usize>,
    pub is_read: bool,
    pub is_write: bool,
    pub lines: AbsLines,
}

/// Geometry-independent analysis result for one `(kernel, tid,
/// threads)` triple — everything [`VmAnalysis`](crate::VmAnalysis)
/// later projects onto a concrete system and cache geometry is derived
/// from these line sets.
#[derive(Clone, Debug)]
pub struct KernelAbs {
    /// Union footprints split by context.
    pub crit_reads: AbsLines,
    pub crit_writes: AbsLines,
    pub plain_reads: AbsLines,
    pub plain_writes: AbsLines,
    /// Per-critical-region footprints (sorted by `begin`).
    pub regions: Vec<RegionAbs>,
    /// Every reachable memory op × context.
    pub ops: Vec<OpAbs>,
    /// Back-edge classification.
    pub loops: Vec<LoopAbs>,
    /// Per-pc reachability in the abstract fixpoint.
    pub reachable: Vec<bool>,
    /// pcs reachable both inside and outside a critical section
    /// (kernels passing [`Kernel::validate`] have none).
    pub mixed: Vec<usize>,
    /// Reachable `Compute(0)` pcs: instructions that do nothing.
    pub noop_compute: Vec<usize>,
    pub has_critical: bool,
    pub has_barrier: bool,
    pub has_pagetouch: bool,
    pub has_cas: bool,
}

impl KernelAbs {
    /// Store pcs reachable both inside and outside a critical section —
    /// the rollback hazard: an abort of the critical entry restores the
    /// `CritBegin` register snapshot and re-executes the store, so a
    /// plain-context execution of the same pc can be resurrected with
    /// stale operands. Kernels accepted by [`Kernel::validate`] are
    /// rollback-safe by construction; this re-proves it independently
    /// and diagnoses hand-built kernels that are not.
    pub fn rollback_unsafe(&self) -> Vec<usize> {
        self.mixed
            .iter()
            .copied()
            .filter(|&pc| {
                self.ops
                    .iter()
                    .any(|o| o.pc == pc && o.is_write && o.crit.is_some())
                    && self
                        .ops
                        .iter()
                        .any(|o| o.pc == pc && o.is_write && o.crit.is_none())
            })
            .collect()
    }

    /// All lines the kernel can touch, any context.
    pub fn touched(&self) -> AbsLines {
        let mut out = AbsLines::empty();
        for s in [
            &self.crit_reads,
            &self.crit_writes,
            &self.plain_reads,
            &self.plain_writes,
        ] {
            out.union_with(s);
        }
        out
    }

    /// All lines the kernel can write, any context.
    pub fn written(&self) -> AbsLines {
        let mut out = AbsLines::empty();
        out.union_with(&self.crit_writes);
        out.union_with(&self.plain_writes);
        out
    }
}

/// Run the abstract interpreter over `k` as simulated thread `tid` of
/// `threads`. Total: malformed kernels (unvalidated literals) produce a
/// result too, with the inconsistencies surfaced in
/// [`KernelAbs::mixed`] / [`KernelAbs::reachable`].
pub fn analyze(k: &Kernel, tid: usize, threads: usize) -> KernelAbs {
    let n = k.instrs.len();
    let init = AbsState {
        // The VM zero-initializes every register frame.
        regs: vec![AbsVal::Const(0); k.nregs],
        taint: 0,
    };
    let mut states: BTreeMap<(usize, Ctx), AbsState> = BTreeMap::new();
    let mut visits: BTreeMap<(usize, Ctx), u32> = BTreeMap::new();
    let mut widened: BTreeSet<usize> = BTreeSet::new();
    let mut work: Vec<(usize, Ctx)> = Vec::new();
    if n > 0 {
        states.insert((0, Ctx::Plain), init);
        work.push((0, Ctx::Plain));
    }
    while let Some((pc, ctx)) = work.pop() {
        let st = states[&(pc, ctx)].clone();
        for ((spc, sctx), sstate) in successors(k, pc, ctx, &st, tid, threads) {
            if spc >= n {
                continue; // falls off the end; validate() reports it
            }
            let key = (spc, sctx);
            match states.get_mut(&key) {
                None => {
                    states.insert(key, sstate);
                    work.push(key);
                }
                Some(old) => {
                    let v = visits.entry(key).or_insert(0);
                    *v += 1;
                    let widening = *v > WIDEN_AFTER;
                    if old.merge(&sstate, widening) {
                        if widening {
                            widened.insert(spc);
                        }
                        work.push(key);
                    }
                }
            }
        }
    }

    // Project the fixpoint onto footprints, flags, and reachability.
    let mut abs = KernelAbs {
        crit_reads: AbsLines::empty(),
        crit_writes: AbsLines::empty(),
        plain_reads: AbsLines::empty(),
        plain_writes: AbsLines::empty(),
        regions: Vec::new(),
        ops: Vec::new(),
        loops: Vec::new(),
        reachable: vec![false; n],
        mixed: Vec::new(),
        noop_compute: Vec::new(),
        has_critical: false,
        has_barrier: false,
        has_pagetouch: false,
        has_cas: false,
    };
    let mut regions: BTreeMap<usize, RegionAbs> = BTreeMap::new();
    for (&(pc, ctx), st) in &states {
        abs.reachable[pc] = true;
        if let Ctx::Crit(begin) = ctx {
            regions.entry(begin).or_insert_with(|| RegionAbs {
                begin,
                reads: AbsLines::empty(),
                writes: AbsLines::empty(),
            });
        }
        match k.instrs[pc] {
            Instr::CritBegin => abs.has_critical = true,
            Instr::Barrier => abs.has_barrier = true,
            Instr::PageTouch(_) => abs.has_pagetouch = true,
            Instr::Cas(..) => abs.has_cas = true,
            _ => {}
        }
        let access = |ra: usize, off: u64| lines_of(abs_add(st.regs[ra], AbsVal::Const(off)));
        let (reads, writes) = match k.instrs[pc] {
            Instr::Load(_, ra, off) => (Some(access(ra as usize, off)), None),
            Instr::Store(ra, off, _) => (None, Some(access(ra as usize, off))),
            Instr::Cas(_, ra, ..) => {
                let l = access(ra as usize, 0);
                (Some(l.clone()), Some(l))
            }
            _ => (None, None),
        };
        let crit = match ctx {
            Ctx::Plain => None,
            Ctx::Crit(b) => Some(b),
        };
        if let Some(r) = &reads {
            match crit {
                Some(b) => {
                    abs.crit_reads.union_with(r);
                    regions.get_mut(&b).unwrap().reads.union_with(r);
                }
                None => abs.plain_reads.union_with(r),
            }
        }
        if let Some(w) = &writes {
            match crit {
                Some(b) => {
                    abs.crit_writes.union_with(w);
                    regions.get_mut(&b).unwrap().writes.union_with(w);
                }
                None => abs.plain_writes.union_with(w),
            }
        }
        if reads.is_some() || writes.is_some() {
            let mut lines = AbsLines::empty();
            if let Some(r) = &reads {
                lines.union_with(r);
            }
            if let Some(w) = &writes {
                lines.union_with(w);
            }
            abs.ops.push(OpAbs {
                pc,
                crit,
                is_read: reads.is_some(),
                is_write: writes.is_some(),
                lines,
            });
        }
    }
    abs.regions = regions.into_values().collect();
    // Context-mixed pcs: reachable both plain and inside some region.
    for pc in 0..n {
        let plain = states.contains_key(&(pc, Ctx::Plain));
        let crit = states
            .range((pc, Ctx::Crit(0))..=(pc, Ctx::Crit(usize::MAX)))
            .next()
            .is_some();
        if plain && crit {
            abs.mixed.push(pc);
        }
    }
    abs.noop_compute = (0..n)
        .filter(|&pc| abs.reachable[pc] && k.instrs[pc] == Instr::Compute(0))
        .collect();
    abs.loops = classify_loops(k, &states, &widened);
    abs
}

/// Successor states of one `(pc, ctx)` node (the pure-instruction
/// transfer function plus control flow).
fn successors(
    k: &Kernel,
    pc: usize,
    ctx: Ctx,
    st: &AbsState,
    tid: usize,
    threads: usize,
) -> Vec<((usize, Ctx), AbsState)> {
    let mut out = Vec::new();
    let mut next = st.clone();
    let set = |s: &mut AbsState, rd: u8, v: AbsVal, taint: bool| {
        s.regs[rd as usize] = v;
        if taint {
            s.taint |= 1 << rd;
        } else {
            s.taint &= !(1 << rd);
        }
    };
    match k.instrs[pc] {
        Instr::Imm(rd, v) => set(&mut next, rd, AbsVal::Const(v), false),
        Instr::Mov(rd, ra) => {
            let (v, t) = (st.regs[ra as usize], st.taint >> ra & 1 != 0);
            set(&mut next, rd, v, t);
        }
        Instr::Bin(op, rd, ra, rb) => {
            let v = eval_bin(op, st.regs[ra as usize], st.regs[rb as usize]);
            let t = (st.taint >> ra | st.taint >> rb) & 1 != 0;
            set(&mut next, rd, v, t);
        }
        Instr::BinI(op, rd, ra, imm) => {
            let v = eval_bin(op, st.regs[ra as usize], AbsVal::Const(imm));
            set(&mut next, rd, v, st.taint >> ra & 1 != 0);
        }
        Instr::Tid(rd) => set(&mut next, rd, AbsVal::Const(tid as u64), false),
        Instr::Threads(rd) => set(&mut next, rd, AbsVal::Const(threads as u64), false),
        // Memory responses are unknown values derived from shared data.
        Instr::Load(rd, ..) | Instr::Cas(rd, ..) => set(&mut next, rd, AbsVal::Top, true),
        Instr::Jmp(t) => {
            out.push(((t, ctx), next));
            return out;
        }
        Instr::Br(cond, ra, rb, t) => {
            let (a, b) = (st.regs[ra as usize], st.regs[rb as usize]);
            for (holds, target) in [(true, t), (false, pc + 1)] {
                if let Some((ra2, rb2)) = refine(cond, holds, ra == rb, a, b) {
                    let mut s = st.clone();
                    s.regs[ra as usize] = ra2;
                    s.regs[rb as usize] = rb2;
                    out.push(((target, ctx), s));
                }
            }
            return out;
        }
        Instr::CritBegin => {
            out.push(((pc + 1, Ctx::Crit(pc)), next));
            return out;
        }
        Instr::CritEnd => {
            out.push(((pc + 1, Ctx::Plain), next));
            return out;
        }
        Instr::Halt => return out,
        Instr::Store(..)
        | Instr::Compute(_)
        | Instr::ComputeR(_)
        | Instr::PageTouch(_)
        | Instr::Barrier => {}
    }
    out.push(((pc + 1, ctx), next));
    out
}

/// Static CFG successors of `pc` (context-free; `Halt` has none).
fn cfg_succ(k: &Kernel, pc: usize) -> Vec<usize> {
    let n = k.instrs.len();
    let step = |t: usize| (t < n).then_some(t);
    match k.instrs[pc] {
        Instr::Halt => vec![],
        Instr::Jmp(t) => step(t).into_iter().collect(),
        Instr::Br(_, _, _, t) => step(t).into_iter().chain(step(pc + 1)).collect(),
        _ => step(pc + 1).into_iter().collect(),
    }
}

/// Find CFG back-edges (iterative DFS) and classify each natural loop.
fn classify_loops(
    k: &Kernel,
    states: &BTreeMap<(usize, Ctx), AbsState>,
    widened: &BTreeSet<usize>,
) -> Vec<LoopAbs> {
    let n = k.instrs.len();
    if n == 0 {
        return Vec::new();
    }
    // Iterative DFS from entry; gray = on the current stack.
    let mut color = vec![0u8; n]; // 0 white, 1 gray, 2 black
    let mut back_edges: Vec<(usize, usize)> = Vec::new();
    let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
    color[0] = 1;
    while let Some(&mut (pc, ref mut i)) = stack.last_mut() {
        let succ = cfg_succ(k, pc);
        if *i < succ.len() {
            let t = succ[*i];
            *i += 1;
            match color[t] {
                0 => {
                    color[t] = 1;
                    stack.push((t, 0));
                }
                1 => back_edges.push((pc, t)),
                _ => {}
            }
        } else {
            color[pc] = 2;
            stack.pop();
        }
    }
    back_edges.sort_unstable();
    back_edges.dedup();

    // Predecessor map for natural-loop bodies.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for pc in 0..n {
        for t in cfg_succ(k, pc) {
            preds[t].push(pc);
        }
    }

    let reachable_states = |pc: usize| {
        states
            .range((pc, Ctx::Plain)..=(pc, Ctx::Crit(usize::MAX)))
            .map(|(_, st)| st)
    };
    let reachable = |pc: usize| reachable_states(pc).next().is_some();

    back_edges
        .iter()
        .map(|&(from, head)| {
            // Natural loop body: head plus everything reaching `from`
            // without passing through `head`.
            let mut body: BTreeSet<usize> = [head, from].into();
            let mut grow = vec![from];
            while let Some(x) = grow.pop() {
                if x == head {
                    continue;
                }
                for &p in &preds[x] {
                    if body.insert(p) {
                        grow.push(p);
                    }
                }
            }
            let in_crit = states
                .range((from, Ctx::Crit(0))..=(from, Ctx::Crit(usize::MAX)))
                .next()
                .is_some();
            if !reachable(from) {
                // The back-edge itself never executes.
                return LoopAbs {
                    from,
                    head,
                    in_crit,
                    bound: LoopBound::Bounded(0),
                };
            }

            // Feasible exits: an edge (or Halt) leaving the body that
            // some reachable abstract state can actually take.
            let mut any_exit = false;
            let mut tainted_exit = false;
            let mut vague_exit = false;
            for &x in &body {
                if !reachable(x) {
                    continue;
                }
                match k.instrs[x] {
                    Instr::Halt => any_exit = true,
                    Instr::Br(cond, ra, rb, t) => {
                        for (holds, target) in [(true, t), (false, x + 1)] {
                            if target >= k.instrs.len() || body.contains(&target) {
                                continue;
                            }
                            let feasible = reachable_states(x).any(|st| {
                                refine(
                                    cond,
                                    holds,
                                    ra == rb,
                                    st.regs[ra as usize],
                                    st.regs[rb as usize],
                                )
                                .is_some()
                            });
                            if feasible {
                                any_exit = true;
                                for st in reachable_states(x) {
                                    if (st.taint >> ra | st.taint >> rb) & 1 != 0 {
                                        tainted_exit = true;
                                    }
                                    if st.regs[ra as usize] == AbsVal::Top
                                        || st.regs[rb as usize] == AbsVal::Top
                                    {
                                        vague_exit = true;
                                    }
                                }
                            }
                        }
                    }
                    _ => {
                        if cfg_succ(k, x).iter().any(|t| !body.contains(t)) {
                            any_exit = true;
                        }
                    }
                }
            }
            let bound = if !any_exit {
                LoopBound::Unbounded
            } else if tainted_exit {
                LoopBound::DataDependent
            } else if body.iter().any(|pc| widened.contains(pc)) || vague_exit {
                LoopBound::Unknown
            } else {
                // Converged without widening: the head's register ranges
                // bound the distinct iteration states.
                let est = reachable_states(head)
                    .flat_map(|st| st.regs.iter())
                    .map(|v| match *v {
                        AbsVal::Range { count, .. } => count,
                        _ => 1,
                    })
                    .max()
                    .unwrap_or(1);
                LoopBound::Bounded(est)
            };
            LoopAbs {
                from,
                head,
                in_crit,
                bound,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Content-hash keyed cache
// ---------------------------------------------------------------------

type CacheKey = (u64, usize, usize);

fn cache() -> &'static Mutex<HashMap<CacheKey, Arc<KernelAbs>>> {
    static CACHE: OnceLock<Mutex<HashMap<CacheKey, Arc<KernelAbs>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// [`analyze`] memoized on `(Kernel::content_hash, tid, threads)`.
///
/// Kernels are immutable after construction and the hash covers the
/// full instruction stream (name excluded), so one analysis serves
/// every snapshot/backtrack/re-exploration of the same bytecode — a
/// DPOR exploration re-creating VM instances per schedule analyzes each
/// distinct kernel exactly once per process.
pub fn analyze_cached(k: &Kernel, tid: usize, threads: usize) -> Arc<KernelAbs> {
    let key = (k.content_hash(), tid, threads);
    if let Some(hit) = cache().lock().unwrap().get(&key) {
        CACHE_HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(hit);
    }
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
    let abs = Arc::new(analyze(k, tid, threads));
    cache()
        .lock()
        .unwrap()
        .entry(key)
        .or_insert_with(|| Arc::clone(&abs))
        .clone()
}

/// Process-lifetime `(hits, misses)` counters of [`analyze_cached`].
pub fn cache_counters() -> (u64, u64) {
    (
        CACHE_HITS.load(Ordering::Relaxed),
        CACHE_MISSES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VmAnalysis;
    use guestvm::spec::SpecProgram;
    use guestvm::{KernelBuilder, ProgSpec};
    use lockiller::SystemKind;
    use sim_core::config::{CacheGeometry, SystemConfig};

    fn testing_cfg() -> SystemConfig {
        SystemConfig::testing(2)
    }

    #[test]
    fn value_domain_algebra() {
        use AbsVal::*;
        // Join of constants is an exact two-element progression.
        assert_eq!(
            Const(8).join(Const(24)),
            Range {
                base: 8,
                stride: 16,
                count: 2
            }
        );
        // Extending by a member is a no-op; by a new point refines gcd.
        let r = Const(0).join(Const(8)).join(Const(16));
        assert_eq!(
            r,
            Range {
                base: 0,
                stride: 8,
                count: 3
            }
        );
        assert_eq!(r.join(Const(12)).join(Const(4)), ap(0, 4, 5));
        // Wrapping join degrades to a congruence class, never a lie.
        let w = Const(0).join(Const(u64::MAX - 7));
        assert!(w.contains(u64::MAX - 7) && w.contains(0));
        // Negative-stride progressions re-base.
        assert_eq!(ap(16, 8u64.wrapping_neg(), 3), ap(0, 8, 3));
        // Membership after mul/add transfer stays sound.
        let v = eval_bin(BinOp::Mul, ap(0, 1, 4), Const(8));
        for k in 0..4u64 {
            assert!(v.contains(k * 8), "{v:?} must contain {}", k * 8);
        }
        let v = eval_bin(BinOp::Add, v, Const(5));
        assert!(v.contains(5) && v.contains(29));
    }

    #[test]
    fn widening_terminates_and_congruence_survives_wrap() {
        // Repeated widening must reach a fixpoint quickly.
        let mut v = AbsVal::Const(10);
        for i in 0..200u64 {
            v = v.widen(AbsVal::Const(10 + i * 8));
        }
        assert!(matches!(
            v,
            AbsVal::Congr {
                modulus: 8,
                base: 2
            } | AbsVal::Top
        ));
        // The congruence class is wrap-sound: stride-8 steps stay in
        // the class across 2^64.
        if let AbsVal::Congr { base, modulus } = v {
            let far = base.wrapping_sub(modulus * 3);
            assert!(v.contains(far));
        }
    }

    #[test]
    fn refine_clips_and_detects_infeasible_edges() {
        // i in {v ≡ 0 mod 8}; i < 32 refines to {0,8,16,24}.
        let i = AbsVal::Congr {
            base: 0,
            modulus: 8,
        };
        assert_eq!(clip_lt(i, 32), Some(ap(0, 8, 4)));
        assert_eq!(clip_lt(AbsVal::Const(5), 3), None);
        assert_eq!(clip_ge(ap(0, 4, 4), 13), None);
        assert_eq!(clip_ge(ap(0, 4, 4), 5), Some(ap(8, 4, 2)));
        // Same-register branches: eq always holds, ne never.
        assert!(refine(Cond::Ne, true, true, AbsVal::Top, AbsVal::Top).is_none());
        assert!(refine(Cond::Eq, true, true, AbsVal::Top, AbsVal::Top).is_some());
    }

    #[test]
    fn straight_line_footprints_are_exact() {
        let mut b = KernelBuilder::new("s", 2);
        b.imm(0, 80).load(1, 0, 0); // plain read of word 80 -> line 10
        b.crit_begin();
        b.imm(0, 160).imm(1, 7).store(0, 0, 1); // crit write line 20
        b.load(1, 0, 8); // crit read line 21
        b.crit_end();
        b.halt();
        let abs = analyze(&b.build(), 0, 1);
        assert_eq!(abs.plain_reads.lines().unwrap().len(), 1);
        assert!(abs.plain_reads.contains(LineAddr(10)));
        assert!(abs.crit_writes.contains(LineAddr(20)));
        assert!(abs.crit_reads.contains(LineAddr(21)));
        assert!(abs.plain_writes.is_empty());
        assert_eq!(abs.regions.len(), 1);
        assert!(abs.mixed.is_empty() && abs.rollback_unsafe().is_empty());
        assert!(abs.loops.is_empty());
    }

    #[test]
    fn counted_loop_is_bounded_and_footprint_covers_every_iteration() {
        // for i in 0..10 { store [64 + i*8] } — a strided sweep.
        let mut b = KernelBuilder::new("loop", 4);
        let (head, done) = (b.label(), b.label());
        b.imm(0, 0).imm(1, 10).imm(3, 42);
        b.bind(head);
        b.br(Cond::Ge, 0, 1, done);
        b.bini(BinOp::Mul, 2, 0, 8);
        b.bini(BinOp::Add, 2, 2, 64);
        b.store(2, 0, 3);
        b.bini(BinOp::Add, 0, 0, 1);
        b.jmp(head);
        b.bind(done);
        b.halt();
        let abs = analyze(&b.build(), 0, 1);
        assert_eq!(abs.loops.len(), 1);
        assert!(
            matches!(abs.loops[0].bound, LoopBound::Bounded(_)),
            "got {:?}",
            abs.loops[0].bound
        );
        // Words 64..144 -> lines 8..=17, all 10 present and precise.
        let w = abs.plain_writes.lines().expect("precise");
        assert_eq!(w.len(), 10);
        assert!(w.contains(&LineAddr(8)) && w.contains(&LineAddr(17)));
    }

    #[test]
    fn data_dependent_and_unbounded_loops_classify() {
        // Loop whose exit compares a loaded value: data-dependent.
        let mut b = KernelBuilder::new("dd", 3);
        let (head, done) = (b.label(), b.label());
        b.imm(0, 64).imm(2, 0);
        b.bind(head);
        b.load(1, 0, 0);
        b.br(Cond::Eq, 1, 2, done);
        b.jmp(head);
        b.bind(done);
        b.halt();
        let abs = analyze(&b.build(), 0, 1);
        assert_eq!(abs.loops.len(), 1);
        assert_eq!(abs.loops[0].bound, LoopBound::DataDependent);

        // Loop with no feasible exit: provably unbounded.
        let spin = Kernel {
            name: "spin".into(),
            nregs: 1,
            instrs: vec![Instr::Compute(1), Instr::Jmp(0)],
        };
        let abs = analyze(&spin, 0, 1);
        assert_eq!(abs.loops.len(), 1);
        assert_eq!(abs.loops[0].bound, LoopBound::Unbounded);

        // Congruence-based divergence proof: i steps by 8 from 0, the
        // only exit tests i == 5 — never in the residue class mod 8,
        // even across the 2^64 wrap, so the loop provably spins.
        let mut diverge = KernelBuilder::new("congr-spin", 2);
        let (head, done) = (diverge.label(), diverge.label());
        diverge.imm(0, 0).imm(1, 5);
        diverge.bind(head);
        diverge.bini(BinOp::Add, 0, 0, 8);
        diverge.br(Cond::Eq, 0, 1, done);
        diverge.jmp(head);
        diverge.bind(done);
        diverge.halt();
        let abs = analyze(&diverge.build(), 0, 1);
        assert_eq!(abs.loops.len(), 1);
        assert_eq!(abs.loops[0].bound, LoopBound::Unbounded);

        // Same loop but exiting on i == 16 (a member of the class):
        // terminates concretely, so it must NOT classify Unbounded.
        let mut exits = KernelBuilder::new("congr-exit", 2);
        let (head, done) = (exits.label(), exits.label());
        exits.imm(0, 0).imm(1, 16);
        exits.bind(head);
        exits.bini(BinOp::Add, 0, 0, 8);
        exits.br(Cond::Eq, 0, 1, done);
        exits.jmp(head);
        exits.bind(done);
        exits.halt();
        let abs = analyze(&exits.build(), 0, 1);
        assert_ne!(abs.loops[0].bound, LoopBound::Unbounded);
    }

    #[test]
    fn mixed_context_store_is_rollback_unsafe() {
        // pc 4's store is reachable plain (branch over the CritBegin)
        // and inside the critical region (fallthrough): the rollback
        // hazard Kernel::validate rejects, diagnosed not panicked.
        let k = Kernel {
            name: "mixed".into(),
            nregs: 2,
            instrs: vec![
                Instr::Imm(0, 64),
                Instr::Br(Cond::Eq, 1, 1, 4), // always taken -> plain path
                Instr::CritBegin,
                Instr::Imm(1, 1),
                Instr::Store(0, 0, 1),
                Instr::CritEnd,
                Instr::Halt,
            ],
        };
        assert!(k.validate().is_err());
        let abs = analyze(&k, 0, 1);
        // The always-taken branch makes pc2..3 unreachable; force the
        // mix through an actually two-way branch instead.
        let k = Kernel {
            name: "mixed2".into(),
            nregs: 2,
            instrs: vec![
                Instr::Tid(1),
                Instr::Imm(0, 64),
                Instr::Br(Cond::Eq, 1, 0, 4), // tid == 64: refines both ways? tid Const -> decidable
                Instr::CritBegin,
                Instr::Store(0, 0, 1),
                Instr::CritEnd,
                Instr::Halt,
            ],
        };
        assert!(k.validate().is_err());
        let abs2 = analyze(&k, 0, 1);
        // tid(0) != 64 is decided statically: branch never taken, so
        // pc4 is crit-only here — no false rollback report either way.
        assert!(abs.rollback_unsafe().is_empty());
        assert!(abs2.rollback_unsafe().is_empty());

        // A genuinely mixed store: branch on a loaded value.
        let k = Kernel {
            name: "mixed3".into(),
            nregs: 2,
            instrs: vec![
                Instr::Imm(0, 64),
                Instr::Load(1, 0, 0),
                Instr::Br(Cond::Eq, 1, 0, 5), // unknown: both ways
                Instr::CritBegin,
                Instr::Jmp(6),
                Instr::Store(0, 0, 1), // plain via branch...
                Instr::Store(0, 0, 1), // ...crit via fallthrough jmp
                Instr::CritEnd,
                Instr::Halt,
            ],
        };
        assert!(k.validate().is_err());
        let abs3 = analyze(&k, 0, 1);
        assert_eq!(abs3.mixed, vec![6, 7]);
        assert_eq!(abs3.rollback_unsafe(), vec![6]);
    }

    #[test]
    fn unreachable_code_is_reported() {
        let mut b = KernelBuilder::new("dead", 1);
        let done = b.label();
        b.jmp(done);
        b.compute(9); // unreachable
        b.bind(done);
        b.halt();
        let abs = analyze(&b.build(), 0, 1);
        assert_eq!(abs.reachable, vec![true, false, true]);
    }

    #[test]
    fn compiled_spec_matches_manual_expectation() {
        let spec = ProgSpec::parse("2/c:L0,S0/p:L1").unwrap();
        let kernels = SpecProgram::compile_all(&spec);
        let a = VmAnalysis::new(SystemKind::LockillerTm, testing_cfg(), &kernels);
        // Thread 0: crit read+write of data line 0 = LineAddr(2).
        assert!(a.threads[0]
            .abs
            .crit_reads
            .contains(SpecProgram::data_line(0)));
        assert!(a.threads[0]
            .abs
            .crit_writes
            .contains(SpecProgram::data_line(0)));
        assert!(a.threads[0].abs.plain_reads.is_empty());
        // Thread 1: plain read of data line 1 = LineAddr(3).
        assert!(a.threads[1]
            .abs
            .plain_reads
            .contains(SpecProgram::data_line(1)));
        assert!(!a.threads[1].has_critical);
        // Disjoint: no conflicts, table refines.
        assert!(!a.may_conflict(0, 1, SpecProgram::data_line(0)));
        let table = a.independence().expect("premises hold");
        assert!(table.pure & 0b11 == 0b11);
    }

    #[test]
    fn top_footprint_degrades_to_no_pruning() {
        // A load at a data-dependent address: footprint widens to Top,
        // independence() must refuse to build a table.
        let mut b = KernelBuilder::new("dd-addr", 2);
        b.imm(0, 64).load(1, 0, 0); // r1 = mem[64] (tainted, Top)
        b.load(1, 1, 0); // read [r1] — anywhere
        b.halt();
        let kernels = vec![b.build()];
        let a = VmAnalysis::new(SystemKind::LockillerTm, testing_cfg(), &kernels);
        assert!(a.threads[0].abs.plain_reads.is_top());
        assert!(a.independence().is_none(), "Top must disable pruning");
        // ...but may_conflict stays sound: everything conflicts.
        assert!(a.phys_lines(0).is_top());
    }

    #[test]
    fn overflow_region_blocks_table_under_tiny_l1() {
        // 4 distinct lines in one critical region with a 2-way tiny L1:
        // mirrors the spec analysis' overflow kernel.
        let spec = ProgSpec::parse("6/c:L0,L1,L2,S0/c:L3,L4,L5,S3").unwrap();
        let kernels = SpecProgram::compile_all(&spec);
        let mut tiny = SystemConfig::testing(2);
        tiny.mem.l1 = CacheGeometry::from_capacity(128, 2);
        let a = VmAnalysis::new(SystemKind::LockillerTm, tiny, &kernels);
        assert!(a.threads.iter().all(|t| t.overflow));
        assert!(a.independence().is_none());
        let full = VmAnalysis::new(SystemKind::LockillerTm, testing_cfg(), &kernels);
        assert!(full
            .threads
            .iter()
            .all(|t| !t.overflow && !t.overflow_unknown));
    }
}
