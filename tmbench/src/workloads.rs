//! The four workloads: which simulation points or exploration cases each
//! runs, and how one point or case is built.
//!
//! Every point runs at `ConfigPoint::Typical` (Table I), with caches
//! empty at the start of each run, as in the paper's figures. Why each
//! workload exists, and which layer it stresses, is in `README.md`.

use lockiller::guest::GuestPolicy;
use lockiller::{Backend, GuestEnv, Program, RunOutput, Runner, SetupCtx, SystemKind};
use sim_core::config::SystemConfig;
use sim_core::rng::SimRng;
use sim_core::types::Addr;
use stamp::vm::IntruderFlow;
use stamp::{Scale, WorkloadKind};
use tmverify::{Explorer, ProgSpec};

/// The `Lab` seed, and the seed `golden.json` is blessed at.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["stamp-host", "vm-lockiller", "vm-baseline", "dpor"];

/// Schedule budget per `dpor` case at `Scale::Tiny`, so the smoke test
/// explores a prefix of each space instead of all of it.
const TINY_SCHEDULES: u64 = 20;

#[derive(Clone, Copy, Debug)]
pub enum Prog {
    Stamp(WorkloadKind),
    IntruderFlow,
}

/// One simulation point: a program on a system at a thread count.
#[derive(Clone, Copy, Debug)]
pub struct SimPoint {
    pub prog: Prog,
    pub system: SystemKind,
    pub threads: usize,
}

impl SimPoint {
    pub fn label(&self) -> String {
        let prog = match self.prog {
            Prog::Stamp(k) => k.name(),
            Prog::IntruderFlow => "intruder-flow",
        };
        format!("{prog}@{}/{}", self.system.name(), self.threads)
    }

    pub fn build(&self, scale: Scale) -> Built {
        match self.prog {
            Prog::Stamp(k) => Built::Stamp(stamp::Workload::with_scale(k, self.threads, scale)),
            Prog::IntruderFlow => Built::Flow(IntruderFlow::new(scale, self.threads)),
        }
    }

    pub fn runner(&self, seed: u64, backend: Backend) -> Runner {
        Runner::new(self.system)
            .threads(self.threads)
            .config(SystemConfig::table1())
            .seed(seed)
            .backend(backend)
    }
}

/// A built program, before `Runner::run` sets it up.
pub enum Built {
    Stamp(stamp::Workload),
    Flow(IntruderFlow),
}

impl Built {
    /// `Program::setup` on a fresh arena laid out as `Runner` lays it out
    /// (fallback lock word first).
    pub fn setup(&mut self, threads: usize) -> Addr {
        match self {
            Built::Stamp(p) => setup(p, threads),
            Built::Flow(p) => setup(p, threads),
        }
    }

    /// The capability probe on a set-up instance: `Some` from
    /// `Program::guest_exec` selects the VM backend.
    pub fn backend(&self, p: &SimPoint, seed: u64, lock_addr: Addr) -> Backend {
        let policy = p.system.policy();
        let env = GuestEnv {
            tid: 0,
            threads: p.threads,
            rng: SimRng::new(seed),
            policy: GuestPolicy {
                coarse_grained_lock: policy.coarse_grained_lock,
                htmlock: policy.htmlock,
                max_retries: policy.max_retries,
                fallback_on_capacity: policy.fallback_on_capacity,
            },
            lock_addr,
        };
        let vm = match self {
            Built::Stamp(p) => p.guest_exec(env).is_some(),
            Built::Flow(p) => p.guest_exec(env).is_some(),
        };
        if vm {
            Backend::Vm
        } else {
            Backend::Threads
        }
    }

    pub fn run(&mut self, runner: &Runner) -> RunOutput {
        match self {
            Built::Stamp(p) => runner.run(p),
            Built::Flow(p) => runner.run(p),
        }
    }
}

fn setup<P: Program>(prog: &mut P, threads: usize) -> Addr {
    let mut s = SetupCtx::new();
    let lock_addr = s.alloc(8);
    prog.setup(&mut s, threads);
    lock_addr
}

/// One `dpor` exploration case.
#[derive(Clone, Copy, Debug)]
pub struct DporCase {
    pub name: &'static str,
    pub system: SystemKind,
    pub spec: Spec,
    pub max_schedules: Option<u64>,
    /// Explore with the `tmstatic::VmAnalysis` independence table.
    pub pruned: bool,
}

#[derive(Clone, Copy, Debug)]
pub enum Spec {
    Text(&'static str),
    ConflictRing(usize, u64),
}

impl DporCase {
    /// The explorer for this case, without a pruning table: `jobs = 1`,
    /// VM backend, no wake-up safety net.
    pub fn explorer(&self, scale: Scale) -> Explorer {
        let spec = match self.spec {
            Spec::Text(s) => ProgSpec::parse(s).expect("dpor case specs are valid"),
            Spec::ConflictRing(threads, lines) => ProgSpec::conflict_ring(threads, lines),
        };
        let mut ex = Explorer::new(self.system, spec);
        ex.jobs = 1;
        ex.backend = Backend::Vm;
        ex.no_safety_net = true;
        if let Some(n) = self.max_schedules {
            ex.max_schedules = n;
        }
        if scale == Scale::Tiny {
            ex.max_schedules = ex.max_schedules.min(TINY_SCHEDULES);
        }
        ex
    }
}

pub enum Workload {
    Sim(Vec<SimPoint>),
    Dpor(Vec<DporCase>),
}

/// The workload called `name`, if there is one.
pub fn workload(name: &str) -> Option<Workload> {
    use SystemKind::{Baseline, LockillerRwi, LockillerTm};
    use WorkloadKind::{Genome, Intruder, KmeansHigh, KmeansLow, VacationHigh, Yada};
    let vm_points = |system| {
        [
            (Prog::Stamp(KmeansLow), 8),
            (Prog::Stamp(KmeansHigh), 8),
            (Prog::IntruderFlow, 8),
            (Prog::Stamp(KmeansHigh), 32),
            (Prog::IntruderFlow, 32),
        ]
        .map(|(prog, threads)| SimPoint {
            prog,
            system,
            threads,
        })
        .to_vec()
    };
    Some(match name {
        "stamp-host" => Workload::Sim(
            [LockillerTm, Baseline]
                .into_iter()
                .flat_map(|system| {
                    [Genome, Intruder, VacationHigh, Yada].map(|k| SimPoint {
                        prog: Prog::Stamp(k),
                        system,
                        threads: 8,
                    })
                })
                .collect(),
        ),
        "vm-lockiller" => Workload::Sim(vm_points(LockillerTm)),
        "vm-baseline" => Workload::Sim(vm_points(Baseline)),
        "dpor" => Workload::Dpor(vec![
            DporCase {
                name: "ring-4c2l-rwi",
                system: LockillerRwi,
                spec: Spec::Text("2/c:L0,S1/c:L1,S0/c:L0,S1/c:L1,S0"),
                max_schedules: None,
                pruned: false,
            },
            DporCase {
                name: "conflict-ring-4x4-tm",
                system: LockillerTm,
                spec: Spec::ConflictRing(4, 4),
                max_schedules: Some(1000),
                pruned: false,
            },
            DporCase {
                name: "disjoint-3c3l-tm",
                system: LockillerTm,
                spec: Spec::Text("3/c:L0,S0/c:L1,S1/c:L2,S2"),
                max_schedules: None,
                pruned: false,
            },
            DporCase {
                name: "disjoint-3c3l-tm-pruned",
                system: LockillerTm,
                spec: Spec::Text("3/c:L0,S0/c:L1,S1/c:L2,S2"),
                max_schedules: None,
                pruned: true,
            },
        ]),
        _ => return None,
    })
}
