//! Guest programs for exploration: a tiny textual DSL (`ProgSpec`)
//! describing short STAMP-style kernels, plus deterministic random
//! generation for fuzz-style space coverage.
//!
//! Spec grammar (whitespace-free):
//!
//! ```text
//! spec    := lines '/' thread ('/' thread)*
//! thread  := segment (';' segment)*
//! segment := ('c' | 'p') ':' op (',' op)*
//! op      := 'L' line | 'S' line | 'C' count
//! ```
//!
//! `lines` is the number of distinct cache lines in the shared arena;
//! each thread is a sequence of segments, either **c**ritical (executed
//! under [`lockiller::GuestCtx::critical`], i.e. the active system's
//! concurrency control) or **p**lain (direct non-transactional
//! accesses). Ops: `L<i>` loads line `i`, `S<i>` stores a deterministic
//! value to line `i`, `C<n>` computes `n` instructions.
//!
//! [`ProgSpec::parse`] bounds the two free numbers: `lines` is at most
//! [`MAX_LINES`] and each `n` at most [`MAX_COMPUTE`], so no spec text
//! can make setup overflow an allocation or wrap the cycle counter.
//!
//! Example — the 2-core/2-line hand-off kernel:
//! `2/c:L0,S1/c:L1,S0`.
//!
//! Specs are pure data: the same spec replayed under the same schedule
//! reproduces the run bit-for-bit (guests derive every value from
//! `(tid, op index)`, never from wall clock or host randomness), which
//! is what makes witnesses replayable.
//!
//! [`SpecProgram`] runs a spec as its compiled `guestvm` kernel
//! ([`SpecProgram::compile`], interpreted by [`run_on_ctx`]) on every
//! path: the runs `tmverify` explores are the bytecode `tmstatic`
//! analyses. The differential suite (`tests/differential.rs`) keeps a
//! hand-written loop that walks the spec directly over `GuestCtx` as the
//! compiler's independent oracle, so its byte-equality checks validate
//! the whole kernel stack (IR, compiler and interpreter), not just one
//! encoder.

use crate::interp::run_on_ctx;
use crate::ir::{Kernel, KernelBuilder};
use lockiller::{GuestCtx, GuestEnv, GuestExec, GuestFuture, Program, SetupCtx};
use sim_core::config::MAX_CORES;
use sim_core::types::{Addr, LineAddr};
use std::fmt;

/// Largest arena a spec may declare. [`SpecProgram::setup`] allocates one
/// line-sized block per spec line, so a spec's arena is at most 4 MiB of
/// guest memory.
pub const MAX_LINES: u64 = 1 << 16;

/// Largest `C<n>`. The engine completes a compute `n` cycles after it
/// starts, so with `n` this small the 64-bit cycle counter wraps only
/// after more than 2^32 maximal computes in one run.
pub const MAX_COMPUTE: u64 = 1 << 32;

/// Typed failure from [`ProgSpec::parse`]. Every variant carries enough
/// context to point at the offending token; `Display` renders the same
/// `spec: ...` messages callers previously got as bare strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The spec string has no leading line count.
    Empty,
    /// The leading line count is not an unsigned integer.
    BadLineCount { text: String },
    /// The declared line count is zero.
    ZeroLines,
    /// The declared line count exceeds [`MAX_LINES`].
    TooManyLines { lines: u64, max: u64 },
    /// No thread follows the line count.
    NoThreads,
    /// A segment lacks its `c:`/`p:` mode prefix.
    MissingMode { segment: String },
    /// A segment mode other than `c` or `p`.
    BadMode { mode: String },
    /// An op that is not `L<i>`, `S<i>`, or `C<n>`.
    BadOp { op: String },
    /// A load/store references a line index outside the declared arena.
    LineOutOfRange { op: String, line: u64, lines: u64 },
    /// A `C<n>` computes more than [`MAX_COMPUTE`] instructions.
    ComputeTooLong { op: String, max: u64 },
    /// More threads than a system has cores
    /// ([`sim_core::config::MAX_CORES`]); each thread runs on its own core.
    TooManyThreads { threads: usize, max: usize },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Empty => write!(f, "spec: empty"),
            ParseError::BadLineCount { text } => {
                write!(f, "spec: bad line count {text:?}")
            }
            ParseError::ZeroLines => write!(f, "spec: need at least one line"),
            ParseError::TooManyLines { lines, max } => {
                write!(f, "spec: {lines} lines exceed the {max}-line maximum")
            }
            ParseError::NoThreads => write!(f, "spec: need at least one thread"),
            ParseError::MissingMode { segment } => {
                write!(f, "spec: segment {segment:?} lacks 'c:'/'p:'")
            }
            ParseError::BadMode { mode } => write!(f, "spec: bad segment mode {mode:?}"),
            ParseError::BadOp { op } => write!(f, "spec: bad op {op:?}"),
            ParseError::LineOutOfRange { op, line, lines } => {
                write!(f, "spec: op {op:?} references line {line} >= {lines}")
            }
            ParseError::ComputeTooLong { op, max } => {
                write!(f, "spec: op {op:?} computes more than {max} instructions")
            }
            ParseError::TooManyThreads { threads, max } => {
                write!(f, "spec: {threads} threads exceed the {max}-core maximum")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for String {
    fn from(e: ParseError) -> String {
        e.to_string()
    }
}

/// One guest operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Load line `i`.
    Load(u64),
    /// Store a deterministic value to line `i`.
    Store(u64),
    /// `n` non-memory instructions.
    Compute(u64),
}

/// A run of ops, either inside a critical section or plain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    pub critical: bool,
    pub ops: Vec<Op>,
}

/// A parsed guest-program specification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProgSpec {
    /// Number of distinct cache lines in the shared arena.
    pub lines: u64,
    /// Per-thread op sequences.
    pub threads: Vec<Vec<Segment>>,
}

impl ProgSpec {
    /// Parse the textual form (see module docs for the grammar).
    pub fn parse(s: &str) -> Result<ProgSpec, ParseError> {
        let mut parts = s.split('/');
        let head = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or(ParseError::Empty)?;
        let lines: u64 = head.parse().map_err(|_| ParseError::BadLineCount {
            text: head.to_string(),
        })?;
        if lines == 0 {
            return Err(ParseError::ZeroLines);
        }
        if lines > MAX_LINES {
            return Err(ParseError::TooManyLines {
                lines,
                max: MAX_LINES,
            });
        }
        let mut threads = Vec::new();
        for tspec in parts {
            let mut segs = Vec::new();
            for sspec in tspec.split(';') {
                let (mode, ops_s) =
                    sspec
                        .split_once(':')
                        .ok_or_else(|| ParseError::MissingMode {
                            segment: sspec.to_string(),
                        })?;
                let critical = match mode {
                    "c" => true,
                    "p" => false,
                    _ => {
                        return Err(ParseError::BadMode {
                            mode: mode.to_string(),
                        })
                    }
                };
                let mut ops = Vec::new();
                for op_s in ops_s.split(',') {
                    let (kind, num) = op_s.split_at(1.min(op_s.len()));
                    let n: u64 = num.parse().map_err(|_| ParseError::BadOp {
                        op: op_s.to_string(),
                    })?;
                    let op = match kind {
                        "L" => Op::Load(n),
                        "S" => Op::Store(n),
                        "C" => Op::Compute(n),
                        _ => {
                            return Err(ParseError::BadOp {
                                op: op_s.to_string(),
                            })
                        }
                    };
                    match op {
                        Op::Load(l) | Op::Store(l) if l >= lines => {
                            return Err(ParseError::LineOutOfRange {
                                op: op_s.to_string(),
                                line: l,
                                lines,
                            });
                        }
                        Op::Compute(n) if n > MAX_COMPUTE => {
                            return Err(ParseError::ComputeTooLong {
                                op: op_s.to_string(),
                                max: MAX_COMPUTE,
                            });
                        }
                        _ => {}
                    }
                    ops.push(op);
                }
                segs.push(Segment { critical, ops });
            }
            threads.push(segs);
        }
        if threads.is_empty() {
            return Err(ParseError::NoThreads);
        }
        if threads.len() > MAX_CORES {
            return Err(ParseError::TooManyThreads {
                threads: threads.len(),
                max: MAX_CORES,
            });
        }
        Ok(ProgSpec { lines, threads })
    }

    /// Render back to the textual form (`parse(render(x)) == x`).
    pub fn render(&self) -> String {
        let mut out = self.lines.to_string();
        for t in &self.threads {
            out.push('/');
            let segs: Vec<String> = t
                .iter()
                .map(|seg| {
                    let ops: Vec<String> = seg
                        .ops
                        .iter()
                        .map(|op| match op {
                            Op::Load(l) => format!("L{l}"),
                            Op::Store(l) => format!("S{l}"),
                            Op::Compute(n) => format!("C{n}"),
                        })
                        .collect();
                    format!("{}:{}", if seg.critical { 'c' } else { 'p' }, ops.join(","))
                })
                .collect();
            out.push_str(&segs.join(";"));
        }
        out
    }

    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// The canonical small conflict kernel: each of `threads` threads
    /// runs one critical section loading its own line and storing its
    /// neighbour's (`c:L(t%lines),S((t+1)%lines)`).
    pub fn conflict_ring(threads: usize, lines: u64) -> ProgSpec {
        assert!(threads >= 1 && lines >= 1);
        let spec_threads = (0..threads as u64)
            .map(|t| {
                vec![Segment {
                    critical: true,
                    ops: vec![Op::Load(t % lines), Op::Store((t + 1) % lines)],
                }]
            })
            .collect();
        ProgSpec {
            lines,
            threads: spec_threads,
        }
    }

    /// Generate a random small spec: `threads` threads, up to
    /// `max_lines` lines, 1–2 segments per thread, 1–4 ops per segment.
    /// Deterministic in `rng`'s seed.
    pub fn random(rng: &mut proptest::Rng, threads: usize, max_lines: u64) -> ProgSpec {
        let lines = 1 + rng.below(max_lines.max(1));
        let spec_threads = (0..threads)
            .map(|_| {
                let segs = 1 + rng.below(2) as usize;
                (0..segs)
                    .map(|_| {
                        let critical = rng.below(4) != 0; // bias to critical
                        let n_ops = 1 + rng.below(4) as usize;
                        let ops = (0..n_ops)
                            .map(|_| match rng.below(5) {
                                0 | 1 => Op::Load(rng.below(lines)),
                                2 | 3 => Op::Store(rng.below(lines)),
                                _ => Op::Compute(1 + rng.below(8)),
                            })
                            .collect();
                        Segment { critical, ops }
                    })
                    .collect()
            })
            .collect();
        ProgSpec {
            lines,
            threads: spec_threads,
        }
    }
}

/// [`Program`] executing a [`ProgSpec`]: the arena is `lines` disjoint
/// cache lines; store values encode `(tid, op index)` so the trace
/// identifies which op wrote what. Its one body is the compiled kernel
/// (see the module docs).
pub struct SpecProgram {
    spec: ProgSpec,
    bases: Vec<Addr>,
    name: String,
}

impl SpecProgram {
    /// Physical cache line of the fallback lock under the standard
    /// [`lockiller::Runner`] memory layout: the runner allocates the
    /// lock's 8-word block first (`Addr(8)`, the word-0 line being
    /// reserved), so the lock always lands on `LineAddr(1)`.
    pub const LOCK_LINE: LineAddr = LineAddr(1);

    /// Physical cache line of spec line `i`: [`SpecProgram::setup`]
    /// allocates one line-sized block per spec line immediately after
    /// the lock, so spec line `i` lands on `LineAddr(2 + i)`. Static
    /// analyses use this to translate spec-level line sets into the
    /// bank/set geometry of a [`sim_core::config::SystemConfig`]. The
    /// `tmstatic` soundness tests cross-check it against traced runs.
    pub fn data_line(i: u64) -> LineAddr {
        LineAddr(2 + i)
    }

    pub fn new(spec: ProgSpec) -> SpecProgram {
        let name = spec.render();
        SpecProgram {
            spec,
            bases: Vec::new(),
            name,
        }
    }

    /// Compile thread `tid`'s op sequence to a straight-line kernel, the
    /// body every run of the spec executes: each op in spec order, each
    /// critical segment bracketed, and each store writing
    /// `(tid << 32) | k` with one op counter `k` shared across segments.
    /// The differential suite's hand-written oracle issues the same
    /// stream.
    pub fn compile(&self, tid: usize) -> Kernel {
        assert!(
            !self.bases.is_empty(),
            "compile requires setup (bases unassigned)"
        );
        let mut b = KernelBuilder::new(format!("spec[{tid}]:{}", self.name), 2);
        let t = tid as u64;
        let mut op_no: u64 = 0;
        for seg in &self.spec.threads[tid] {
            if seg.critical {
                b.crit_begin();
            }
            for (k, op) in (op_no..).zip(seg.ops.iter()) {
                match *op {
                    Op::Load(l) => {
                        b.imm(0, self.bases[l as usize].0).load(1, 0, 0);
                    }
                    Op::Store(l) => {
                        b.imm(0, self.bases[l as usize].0)
                            .imm(1, (t << 32) | k)
                            .store(0, 0, 1);
                    }
                    Op::Compute(n) => {
                        b.compute(n);
                    }
                }
            }
            if seg.critical {
                b.crit_end();
            }
            op_no += seg.ops.len() as u64;
        }
        b.halt();
        b.build()
    }

    /// Compile every thread of `spec` under the standard
    /// [`lockiller::Runner`] memory layout without running a simulation:
    /// the runner allocates the fallback lock's 8-word block first
    /// ([`SpecProgram::LOCK_LINE`]), then [`SpecProgram::setup`] places
    /// spec line `i` on [`SpecProgram::data_line`]`(i)`. The returned
    /// kernels are byte-identical to what every run of the spec
    /// executes, which is what lets static analyses (`tmstatic::vmabs`)
    /// and `tmlint kernel` reason about physical line addresses offline.
    pub fn compile_all(spec: &ProgSpec) -> Vec<Kernel> {
        let threads = spec.num_threads();
        let mut p = SpecProgram::new(spec.clone());
        let mut s = SetupCtx::new();
        let _lock = s.alloc(8);
        p.setup(&mut s, threads);
        (0..threads).map(|t| p.compile(t)).collect()
    }
}

impl Program for SpecProgram {
    fn name(&self) -> &str {
        &self.name
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        assert_eq!(
            threads,
            self.spec.num_threads(),
            "runner thread count must match the spec"
        );
        // One 8-word (line-sized, line-aligned) block per spec line.
        self.bases = (0..self.spec.lines).map(|_| s.alloc(8)).collect();
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move { run_on_ctx(&self.compile(ctx.tid), ctx).await })
    }

    fn guest_exec(&self, env: GuestEnv) -> Option<GuestExec<'_>> {
        Some(GuestExec::from_body(env, async |ctx| self.run(ctx).await))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Instr;

    #[test]
    fn parse_render_roundtrip() {
        for s in [
            "2/c:L0,S1/c:L1,S0",
            "4/c:L0,S1;p:L2/c:S0,C5",
            "1/p:C3",
            "8/c:L7,S0/p:S3;c:L3,L4,S4",
        ] {
            let spec = ProgSpec::parse(s).expect(s);
            assert_eq!(spec.render(), s);
            assert_eq!(ProgSpec::parse(&spec.render()).unwrap(), spec);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "",
            "2",
            "0/c:L0",
            "2/x:L0",
            "2/c:L5", // line out of range
            "2/c:Q1", // bad op
            "2/c:",   // empty ops
            "nope/c:L0",
        ] {
            assert!(ProgSpec::parse(s).is_err(), "{s:?} should fail");
        }
    }

    #[test]
    fn parse_errors_are_typed() {
        assert_eq!(ProgSpec::parse(""), Err(ParseError::Empty));
        assert_eq!(ProgSpec::parse("2"), Err(ParseError::NoThreads));
        assert_eq!(ProgSpec::parse("0/c:L0"), Err(ParseError::ZeroLines));
        assert_eq!(
            ProgSpec::parse("2/c:L5,S0"),
            Err(ParseError::LineOutOfRange {
                op: "L5".into(),
                line: 5,
                lines: 2,
            })
        );
        let threads = |n: usize| format!("1{}", "/c:L0".repeat(n));
        assert!(ProgSpec::parse(&threads(32)).is_ok());
        assert_eq!(
            ProgSpec::parse(&threads(33)),
            Err(ParseError::TooManyThreads {
                threads: 33,
                max: 32
            })
        );
        assert!(ProgSpec::parse(&format!("{MAX_LINES}/c:L0")).is_ok());
        assert_eq!(
            ProgSpec::parse(&format!("{}/c:L0", MAX_LINES + 1)),
            Err(ParseError::TooManyLines {
                lines: MAX_LINES + 1,
                max: MAX_LINES
            })
        );
        assert_eq!(
            ProgSpec::parse("18446744073709551615/c:L0"),
            Err(ParseError::TooManyLines {
                lines: u64::MAX,
                max: MAX_LINES
            })
        );
        assert!(ProgSpec::parse(&format!("1/c:C{MAX_COMPUTE}")).is_ok());
        assert_eq!(
            ProgSpec::parse("1/c:C18446744073709551615"),
            Err(ParseError::ComputeTooLong {
                op: "C18446744073709551615".into(),
                max: MAX_COMPUTE
            })
        );
        match ProgSpec::parse("2/x:L0") {
            Err(ParseError::BadMode { mode }) => assert_eq!(mode, "x"),
            other => panic!("expected BadMode, got {other:?}"),
        }
        // Errors convert to the stringly form callers used to consume.
        let msg: String = ProgSpec::parse("2/c:L5").unwrap_err().into();
        assert!(msg.contains("references line 5"), "{msg}");
    }

    #[test]
    fn conflict_ring_shape() {
        let spec = ProgSpec::conflict_ring(3, 2);
        assert_eq!(spec.render(), "2/c:L0,S1/c:L1,S0/c:L0,S1");
        assert_eq!(spec.num_threads(), 3);
    }

    #[test]
    fn random_specs_valid_and_deterministic() {
        let mut a = proptest::Rng::new(7);
        let mut b = proptest::Rng::new(7);
        for _ in 0..50 {
            let sa = ProgSpec::random(&mut a, 3, 8);
            let sb = ProgSpec::random(&mut b, 3, 8);
            assert_eq!(sa, sb, "same seed, same spec");
            // Round-trips through the textual form.
            assert_eq!(ProgSpec::parse(&sa.render()).unwrap(), sa);
            assert_eq!(sa.num_threads(), 3);
        }
    }

    #[test]
    fn compile_numbers_ops_like_the_hand_written_loop() {
        let spec = ProgSpec::parse("2/p:S0,S1;c:S0,S1").unwrap();
        let mut p = SpecProgram::new(spec);
        let mut s = SetupCtx::new();
        // Match the runner's layout: lock block first.
        let _lock = s.alloc(8);
        p.setup(&mut s, 1);
        let k = p.compile(0);
        // Store values are (tid << 32) | op_index with one shared
        // counter: plain S0 -> 0, plain S1 -> 1, crit S0 -> 2, S1 -> 3.
        let values: Vec<u64> = k
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Imm(1, v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(values, vec![0, 1, 2, 3]);
        // Critical section is bracketed.
        assert!(k.instrs.contains(&Instr::CritBegin));
        assert!(k.instrs.contains(&Instr::CritEnd));
    }
}
