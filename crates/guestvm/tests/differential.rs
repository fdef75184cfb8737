//! The compiler differential harness: every spec here runs once on
//! `SpecOracle`, a hand-written host-Rust loop that walks the spec over
//! `GuestCtx`, and once as the shipped `SpecProgram`, whose one body is
//! the compiled `guestvm` kernel. The two runs must be
//! **byte-identical** — same `RunStats` (including every latency
//! histogram), same structured event trace, same final memory image,
//! same termination.
//!
//! Both runs go through the one retry protocol, `GuestCtx::critical`,
//! so what these tests pin is the compiler and the interpreter: the
//! oracle is an independent program, and any mistranslated op, store
//! value, or register rollback shows as a diverging run. (kmeans keeps
//! its oracle in the `stamp` crate's `kmeans` tests, which can read the
//! program's private layout.) The exact-leaf goldens
//! (`explore_corpus.jsonl`, `ci/battery-leaves.jsonl`, the `stamp`
//! crate's `exact_leaves` test, tmbench's `golden.json`) pin the
//! protocol itself. The corpus spans the litmus kernels, the `ProgSpec`
//! exploration corpus (including random specs), and every system
//! family.

use guestvm::spec::{Op, ProgSpec, SpecProgram};
use lockiller::{Backend, GuestCtx, GuestFuture, Program, RunOutput, Runner, SetupCtx, SystemKind};
use sim_core::config::SystemConfig;
use sim_core::types::Addr;
use tmverify::Explorer;

/// The systems exercised: one per code-path family (CGL spin lock,
/// baseline subscription + fallback, HTMLock lock transactions,
/// recovery variants, switchingMode).
const SYSTEMS: [SystemKind; 5] = [
    SystemKind::Cgl,
    SystemKind::Baseline,
    SystemKind::LockillerRwil,
    SystemKind::LockillerRwi,
    SystemKind::LockillerTm,
];

/// The compiler's independent oracle: a spec walked by hand over
/// `GuestCtx`, on `SpecProgram`'s arena layout (one line-sized block per
/// spec line, allocated in order after the runner's lock block). A
/// store writes `(tid << 32) | k`, where one counter `k` numbers the
/// thread's ops across segments.
struct SpecOracle {
    spec: ProgSpec,
    bases: Vec<Addr>,
}

impl SpecOracle {
    fn new(spec: ProgSpec) -> SpecOracle {
        SpecOracle {
            spec,
            bases: Vec::new(),
        }
    }
}

impl Program for SpecOracle {
    fn name(&self) -> &str {
        "spec-oracle"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        assert_eq!(threads, self.spec.num_threads());
        self.bases = (0..self.spec.lines).map(|_| s.alloc(8)).collect();
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let segs = &self.spec.threads[ctx.tid];
            let tid = ctx.tid as u64;
            let mut op_no: u64 = 0;
            for seg in segs {
                if seg.critical {
                    ctx.critical(async |tx| {
                        for (k, op) in (op_no..).zip(seg.ops.iter()) {
                            match *op {
                                Op::Load(l) => {
                                    tx.load(self.bases[l as usize]).await?;
                                }
                                Op::Store(l) => {
                                    tx.store(self.bases[l as usize], (tid << 32) | k).await?;
                                }
                                Op::Compute(n) => tx.compute(n).await?,
                            }
                        }
                        Ok(())
                    })
                    .await;
                    op_no += seg.ops.len() as u64;
                } else {
                    for op in &seg.ops {
                        match *op {
                            Op::Load(l) => {
                                ctx.load(self.bases[l as usize]).await;
                            }
                            Op::Store(l) => {
                                ctx.store(self.bases[l as usize], (tid << 32) | op_no).await;
                            }
                            Op::Compute(n) => ctx.compute(n).await,
                        }
                        op_no += 1;
                    }
                }
            }
        })
    }
}

/// Assert two runs are byte-identical: stats, memory image, trace.
fn assert_runs_identical(a: &RunOutput, b: &RunOutput, label: &str) {
    assert_eq!(a.stats, b.stats, "RunStats diverge: {label}");
    assert_eq!(
        a.mem.digest(),
        b.mem.digest(),
        "memory images diverge: {label}"
    );
    assert_eq!(
        a.trace_events(),
        b.trace_events(),
        "event traces diverge: {label}"
    );
}

/// Run `spec` on `kind` as the oracle and as the compiled kernel and
/// assert byte-identity.
fn assert_spec_identical(kind: SystemKind, spec: &ProgSpec, retries: Option<u32>) {
    let threads = spec.num_threads();
    let mut runner = Runner::new(kind)
        .threads(threads)
        .config(SystemConfig::testing(threads.max(2)))
        .tracing();
    if let Some(r) = retries {
        runner = runner.retries(r);
    }
    let a = runner.clone().run(&mut SpecOracle::new(spec.clone()));
    let b = runner.run(&mut SpecProgram::new(spec.clone()));
    let label = format!("{} on {}", spec.render(), kind.name());
    assert_runs_identical(&a, &b, &label);
}

#[test]
fn litmus_specs_bit_identical_across_backends() {
    // Hand-picked kernels covering plain ops, disjoint and conflicting
    // critical sections, compute backoff, and mixed segments.
    let litmus = [
        "1/p:C3",
        "2/p:L0,S1,C2",
        "2/c:L0,S1/c:L1,S0",
        "4/c:L0,S1;p:L2/c:S0,C5",
        "2/c:S0,S1/c:S1,S0/c:S0,C2",
        "8/c:L7,S0/p:S3;c:L3,L4,S4",
        "3/p:S0;c:L1,S2;p:L2/c:L0,S0;c:S1",
    ];
    for s in litmus {
        let spec = ProgSpec::parse(s).expect(s);
        for kind in SYSTEMS {
            assert_spec_identical(kind, &spec, None);
        }
    }
}

#[test]
fn conflict_rings_bit_identical_across_backends() {
    // Contended rings at several widths force the retry/fallback paths
    // (tiny retry budgets reach the lock path quickly).
    for threads in [2usize, 3, 4] {
        let spec = ProgSpec::conflict_ring(threads, 2);
        for kind in SYSTEMS {
            for retries in [Some(1), Some(2), None] {
                assert_spec_identical(kind, &spec, retries);
            }
        }
    }
}

#[test]
fn random_spec_corpus_bit_identical_across_backends() {
    let mut rng = proptest::Rng::new(0xd1ff);
    for i in 0..20 {
        let threads = 2 + (i % 3);
        let spec = ProgSpec::random(&mut rng, threads, 6);
        let kind = SYSTEMS[i % SYSTEMS.len()];
        assert_spec_identical(kind, &spec, Some(2));
    }
}

#[test]
fn explorer_digest_identical_across_backends() {
    // `Explorer::backend` picks how each explored thread is started (the
    // program's `run` body or its `guest_exec`); for `SpecProgram` both
    // run the compiled kernel, so whole schedule spaces must agree. The
    // explorer's order-sensitive digest hashes every merged run's
    // decision vector, termination, trace length, and violation count,
    // including the state fingerprints steering DPOR. That the kernel
    // explores the spaces the hand-written loop explored is pinned by
    // tmverify's `explore_corpus.jsonl` golden.
    for (system, spec) in [
        (SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0"),
        (SystemKind::Baseline, "2/c:S0,C1/c:S0"),
        (SystemKind::Cgl, "2/c:S0/p:L0;c:S0"),
    ] {
        let spec = ProgSpec::parse(spec).expect(spec);
        let mut ex = Explorer::new(system, spec);
        ex.max_schedules = 2_000;
        let rep_threads = ex.explore();
        ex.backend = Backend::Vm;
        let rep_vm = ex.explore();
        assert_eq!(
            rep_threads.digest,
            rep_vm.digest,
            "exploration digests diverge on {}",
            system.name()
        );
        assert_eq!(rep_threads.schedules, rep_vm.schedules);
        assert_eq!(rep_threads.pruned_dedup, rep_vm.pruned_dedup);
        assert_eq!(rep_threads.space.is_clean(), rep_vm.space.is_clean());
    }
}

/// Attaching the `tmprof` host profiler must be invisible to the
/// differential harness: for the oracle and for the kernel a profiled
/// run is byte-identical to an unprofiled one, and the two profiled
/// programs still agree with each other — the profiler reads the host
/// clock and nothing else.
#[test]
fn profiler_is_invisible_to_the_differential_harness() {
    let spec = ProgSpec::parse("4/c:L0,S1;p:L2/c:S0,C5").expect("spec");
    let threads = spec.num_threads();
    for kind in SYSTEMS {
        let run = |kernel: bool, profile: bool| {
            let mut r = Runner::new(kind)
                .threads(threads)
                .config(SystemConfig::testing(threads.max(2)))
                .tracing();
            if profile {
                r = r.profile();
            }
            if kernel {
                r.run(&mut SpecProgram::new(spec.clone()))
            } else {
                r.run(&mut SpecOracle::new(spec.clone()))
            }
        };
        for kernel in [false, true] {
            let plain = run(kernel, false);
            let profiled = run(kernel, true);
            let label = format!("{} (kernel: {kernel})", kind.name());
            assert!(profiled.host_prof.is_some(), "no report: {label}");
            assert_runs_identical(&plain, &profiled, &label);
        }
        let label = format!("profiled oracle vs kernel on {}", kind.name());
        assert_runs_identical(&run(false, true), &run(true, true), &label);
    }
}
