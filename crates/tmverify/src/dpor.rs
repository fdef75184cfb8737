//! The systematic explorer: sleep-set DPOR over the engine's tie-break
//! decision tree, with fingerprint-based state deduplication.
//!
//! # State-space model
//!
//! A simulation is deterministic except for same-cycle FIFO tie-breaks
//! in the event queue (see `lockiller::sched`). The explorer's search
//! tree therefore has one node per *multi-candidate front* and one edge
//! per candidate; a root-to-leaf path is a decision vector that replays
//! bit-for-bit. Exploration is breadth-ish: a FIFO frontier of work
//! items (forced decision prefix + the sleep set in force at the branch
//! point), each executed as a pure function — the engine, guests and
//! scheduler are rebuilt per run — so batches can run on host threads
//! while all bookkeeping happens sequentially in frontier order, making
//! every report field, the frontier high-water mark
//! ([`ExploreReport::frontier_peak`]) and the digest included,
//! independent of `--jobs`.
//!
//! # Reduction soundness
//!
//! Two reductions prune the tree, both keyed on the conflict relation
//! [`lockiller::EvDesc::conflicts`] (events are dependent unless their
//! core/line/bank footprints are provably disjoint):
//!
//! - **Sleep sets** (Godefroid): after exploring candidate `a` at a
//!   node, sibling subtrees need not re-explore schedules that merely
//!   commute `a` with independent events; `a` is put to sleep in the
//!   siblings and a sleeping event wakes only when a dependent event
//!   fires. A node whose every candidate sleeps is fully covered
//!   elsewhere and generates no children. This explores at least one
//!   interleaving per Mazurkiewicz trace — sound for all properties we
//!   check on a per-schedule basis.
//! - **State deduplication**: each recorded choice point is
//!   fingerprinted ([`lockiller::engine::Engine::state_fingerprint`] —
//!   controllers, write buffers, memory digest, pending queue with
//!   volatile sequence tags normalized, and the full memory system;
//!   guest positions are covered by each core's response-history hash,
//!   since a deterministic guest is a pure function of the responses it
//!   has seen). Reaching a fingerprint already explored with an equal-or-
//!   smaller sleep set proves the whole subtree is covered, so no
//!   children are generated there. Dedup is exact for *state*
//!   properties (deadlock-freedom, grant exclusivity); for *history*
//!   properties (the serializability check runs over the whole trace)
//!   it can merge prefixes with different histories, so runs where a
//!   history distinction matters can disable it (`--no-state-dedup`).
//!   Fronts in the forced prefix, past the depth bound, after a run
//!   turns redundant or after the first choice its batch's view already
//!   covers record no choice and are never hashed; a run without dedup
//!   hashes nothing. Each batch's runs read the seen-state table as it
//!   stood before the batch: it only grows, so the merge stops at that
//!   covered choice or an earlier one and never reads what the run
//!   skipped.
//!
//! Coverage is exact when the report says so ([`ExploreReport::complete`]):
//! no budget exhaustion, no depth clipping, no cycle-limited runs.

use crate::progs::{ProgSpec, SpecProgram};
use crate::shrink;
use lockiller::{
    Backend, EvDesc, RunEnd, RunOutput, Runner, Scheduler, StaticIndependence, SystemKind,
    TraceEvent,
};
use sim_core::config::{CacheGeometry, CheckCfg, FaultInject, SystemConfig};
use sim_core::fxhash::{FxHashMap, FxHasher};
use sim_core::prof::ProfReport;
use sim_core::types::Cycle;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use tmcheck::space::{self, SpaceReport};
use tmcheck::{check_trace, CheckKind, CheckOpts, Violation};
use tmobs::Witness;

/// CLI names of the fault-injection knobs, in `FaultInject` field order.
pub const INJECT_NAMES: [&str; 5] = [
    "ignore-conflicts",
    "drop-nack",
    "drop-wakeups",
    "double-grant",
    "prio-decay",
];

/// Set the injection knob named `name`; false if the name is unknown.
pub fn inject_by_name(fault: &mut FaultInject, name: &str) -> bool {
    match name {
        "ignore-conflicts" => fault.ignore_conflicts = true,
        "drop-nack" => fault.drop_nack = true,
        "drop-wakeups" => fault.drop_wakeups = true,
        "double-grant" => fault.double_grant = true,
        "prio-decay" => fault.prio_decay = true,
        _ => return false,
    }
    true
}

/// CLI names of the active injection knobs.
pub fn inject_names(fault: &FaultInject) -> Vec<String> {
    let flags = [
        fault.ignore_conflicts,
        fault.drop_nack,
        fault.drop_wakeups,
        fault.double_grant,
        fault.prio_decay,
    ];
    INJECT_NAMES
        .iter()
        .zip(flags)
        .filter(|&(_, on)| on)
        .map(|(n, _)| (*n).to_string())
        .collect()
}

/// Explorer configuration + entry point.
#[derive(Clone)]
pub struct Explorer {
    pub system: SystemKind,
    pub spec: ProgSpec,
    pub inject: FaultInject,
    /// Disable the wake-up safety net so lost wake-ups surface as
    /// deadlocks instead of being papered over by the timeout.
    pub no_safety_net: bool,
    /// Shrink the private L1 to 2 lines (1 set x 2 ways) so tiny
    /// transactions can overflow and exercise switchingMode/fallback.
    pub tiny_l1: bool,
    /// HTM retry-budget override (small values reach the fallback path
    /// in fewer schedules).
    pub retries: Option<u32>,
    /// Branch only at the first `depth_bound` choice points; beyond it
    /// the run follows FIFO order (coverage becomes incomplete).
    pub depth_bound: usize,
    /// Stop after merging this many schedules (exit code 2).
    pub max_schedules: u64,
    /// Per-run simulated-cycle bound; runs cut by it are counted in
    /// [`ExploreReport::cycle_limited`] and make coverage incomplete.
    pub max_cycles: Cycle,
    /// Host threads executing runs in parallel. Results are
    /// bit-identical for every value.
    pub jobs: usize,
    /// Enable fingerprint-based state deduplication (see module docs
    /// for the history-property caveat).
    pub state_dedup: bool,
    /// Oracle-probe budget for ddmin witness shrinking.
    pub shrink_budget: usize,
    /// Statically-proven independence facts refining the dynamic
    /// conflict relation (from the `tmstatic` crate). `None` keeps the
    /// exploration bit-identical to the unpruned baseline. Ignored when
    /// fault injection is active — injected faults break the analysis
    /// premises (see [`StaticIndependence`] docs).
    pub prune: Option<StaticIndependence>,
    /// How every explored run starts its guests (see
    /// [`lockiller::Backend`]). Both variants run the spec's one body,
    /// its compiled kernel, so they are bit-identical (same decisions,
    /// fingerprints, and report digest — asserted by the differential
    /// tests); the field stays because the benchmark harness sets it.
    pub backend: Backend,
    /// Enable host-side self-profiling (`tmprof`) on every explored run
    /// and merge the per-run phase trees into
    /// [`ExploreReport::profile`]. The profiler only reads the host
    /// clock, so exploration results — including the report digest —
    /// are byte-identical either way (asserted by tests).
    pub profile: bool,
}

impl Explorer {
    pub fn new(system: SystemKind, spec: ProgSpec) -> Explorer {
        Explorer {
            system,
            spec,
            inject: FaultInject::default(),
            no_safety_net: false,
            tiny_l1: false,
            retries: Some(2),
            depth_bound: 200,
            max_schedules: 20_000,
            max_cycles: 300_000,
            jobs: 1,
            state_dedup: true,
            shrink_budget: 200,
            prune: None,
            backend: Backend::Threads,
            profile: false,
        }
    }

    /// The prune table in force: the configured table, unless fault
    /// injection invalidates its soundness premises.
    fn active_prune(&self) -> Option<&StaticIndependence> {
        if self.inject.any() {
            None
        } else {
            self.prune.as_ref()
        }
    }

    /// The simulator configuration explored (shared by every run). Public
    /// so static analyses (the `tmstatic` crate) reason about exactly the
    /// geometry the explorer simulates.
    pub fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::testing(self.spec.num_threads().max(2));
        if self.tiny_l1 {
            cfg.mem.l1 = CacheGeometry::from_capacity(128, 2);
        }
        cfg.check = CheckCfg {
            enabled: true,
            fault: self.inject,
        };
        cfg
    }

    /// The per-thread guest kernels every explored run executes,
    /// compiled under the standard runner arena layout. Public for the same
    /// reason as [`Explorer::config`]: bytecode-level static analyses
    /// must see exactly the code and addresses the exploration runs.
    pub fn kernels(&self) -> Vec<guestvm::Kernel> {
        SpecProgram::compile_all(&self.spec)
    }

    /// A runner for one schedule (pure: no state shared across runs).
    fn runner(&self) -> Runner {
        let mut policy = self.system.policy();
        if self.no_safety_net {
            policy.wakeup_timeout = Cycle::MAX;
        }
        let mut r = Runner::new(self.system)
            .threads(self.spec.num_threads())
            .config(self.config())
            .policy(policy)
            .max_cycles(self.max_cycles)
            .backend(self.backend)
            .seed(0);
        if let Some(n) = self.retries {
            r = r.retries(n);
        }
        if self.profile {
            r = r.profile();
        }
        r
    }

    /// The checked-run verdict of one schedule: a deadlock, then every
    /// trace checker, the live SWMR result and grant exclusivity. A
    /// budget-cut trace is a prefix, so end-of-trace checks (liveness
    /// "never woken") would report false positives there: only Done and
    /// Deadlock traces, which are final, are checked.
    fn verdict(&self, out: &RunOutput, events: &[TraceEvent]) -> Vec<Violation> {
        let mut violations = Vec::new();
        if let RunEnd::Deadlock { stuck } = &out.end {
            violations.push(space::deadlock_violation(stuck));
        }
        if !matches!(out.end, RunEnd::CycleLimit { .. }) {
            violations.extend(check_trace(events, CheckOpts::for_system(self.system)).violations);
            if let Some(msg) = &out.stats.swmr_violation {
                violations.push(Violation {
                    check: CheckKind::Swmr,
                    message: msg.clone(),
                });
            }
            if let Some(v) = space::check_grant_exclusivity(events) {
                violations.push(v);
            }
        }
        violations
    }

    /// Execute one work item (pure function of `self`, `item` and the
    /// frozen `seen` table).
    fn execute(&self, item: &WorkItem, seen: &Seen) -> RunRecord {
        let mut sched = RecordingScheduler::new(
            item,
            self.depth_bound,
            self.state_dedup.then_some(seen),
            self.active_prune().cloned(),
        );
        let mut prog = SpecProgram::new(self.spec.clone());
        let mut out = self.runner().run_scheduled(&mut prog, &mut sched);
        let events = out.take_trace_events();
        let violations = self.verdict(&out, &events);
        let cycle_limited = matches!(out.end, RunEnd::CycleLimit { .. });
        RunRecord {
            decisions: sched.decisions,
            choices: sched.choices,
            end: out.end,
            violations,
            trace_len: events.len(),
            redundant: sched.redundant_from.is_some(),
            depth_clipped: sched.depth_clipped,
            cycle_limited,
            prof: out.host_prof,
        }
    }

    /// Re-run one decision vector (no recording, no reduction) and
    /// return its violations; used by the shrinker and `replay`.
    pub fn replay(&self, decisions: &[usize]) -> Vec<Violation> {
        let mut sched = ReplayScheduler {
            forced: decisions.to_vec(),
            depth: 0,
        };
        let mut prog = SpecProgram::new(self.spec.clone());
        let mut out = self.runner().run_scheduled(&mut prog, &mut sched);
        let events = out.take_trace_events();
        self.verdict(&out, &events)
    }

    /// Explore the schedule space and aggregate the verdict.
    pub fn explore(&self) -> ExploreReport {
        let mut frontier: VecDeque<WorkItem> = VecDeque::new();
        frontier.push_back(WorkItem {
            forced: Vec::new(),
            entry_sleep: Vec::new(),
        });
        let mut seen = Seen::default();
        let mut rep = ExploreReport::default();
        let prune = self.active_prune();
        rep.static_prune = prune.is_some();
        let dependent = |a: &EvDesc, b: &EvDesc| match prune {
            Some(t) => t.conflicts(a, b),
            None => a.conflicts(b),
        };
        let mut digest = FxHasher::default();
        let mut first_violation: Option<(Violation, Vec<usize>)> = None;
        let jobs = self.jobs.max(1);

        'outer: while !frontier.is_empty() {
            let batch: Vec<WorkItem> = {
                let n = frontier.len().min(jobs);
                frontier.drain(..n).collect()
            };
            // Every run of the batch reads `seen` as it stands now; the
            // merge below only adds to it.
            let records: Vec<RunRecord> = if batch.len() == 1 {
                vec![self.execute(&batch[0], &seen)]
            } else {
                std::thread::scope(|s| {
                    let handles: Vec<_> = batch
                        .iter()
                        .map(|item| s.spawn(|| self.execute(item, &seen)))
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                })
            };
            // Everything below is sequential in frontier order, so the
            // merge is independent of batch boundaries (i.e. of --jobs).
            let batch_len = records.len();
            for (merged, rec) in records.into_iter().enumerate() {
                if rep.schedules >= self.max_schedules {
                    rep.budget_exhausted = true;
                    break 'outer;
                }
                let idx = rep.schedules;
                rep.schedules += 1;
                rec.decisions.hash(&mut digest);
                std::mem::discriminant(&rec.end).hash(&mut digest);
                rec.trace_len.hash(&mut digest);
                rec.violations.len().hash(&mut digest);
                rep.max_depth = rep.max_depth.max(rec.decisions.len());
                if rec.redundant {
                    rep.redundant += 1;
                }
                if rec.depth_clipped {
                    rep.depth_clipped += 1;
                }
                if rec.cycle_limited {
                    rep.cycle_limited += 1;
                }
                if let Some(p) = &rec.prof {
                    rep.profile.get_or_insert_with(ProfReport::default).merge(p);
                }
                if rec.violations.is_empty() {
                    rep.space.record_clean(idx);
                } else {
                    rep.space.record(idx, &rec.violations);
                    if first_violation.is_none() {
                        first_violation = Some((rec.violations[0].clone(), rec.decisions.clone()));
                    }
                }
                // Child generation (sleep-set siblings + state dedup).
                for ch in rec.choices {
                    // A fingerprint is recorded exactly when dedup is on.
                    if let Some(fp) = ch.fp {
                        if covers(&seen, fp, &ch.ids) {
                            // Both this node's siblings and every deeper
                            // choice of this run are explored elsewhere.
                            rep.pruned_dedup += 1;
                            break;
                        }
                        seen.entry(fp).or_default().push(ch.ids);
                    }
                    let mut explored: Vec<EvDesc> = vec![ch.options[ch.chosen].clone()];
                    for (i, opt) in ch.options.iter().enumerate() {
                        if i == ch.chosen {
                            continue;
                        }
                        if ch.sleep_before.iter().any(|s| s.id == opt.id) {
                            rep.pruned_sleep += 1;
                            continue;
                        }
                        let entry_sleep: Vec<EvDesc> = ch
                            .sleep_before
                            .iter()
                            .chain(explored.iter())
                            .filter(|u| !dependent(u, opt))
                            .cloned()
                            .collect();
                        let mut forced = rec.decisions[..ch.depth].to_vec();
                        forced.push(i);
                        frontier.push_back(WorkItem {
                            forced,
                            entry_sleep,
                        });
                        explored.push(opt.clone());
                    }
                }
                // The batch's runs not merged yet are still on a
                // one-job frontier at this point of the merge.
                let unmerged = batch_len - merged - 1;
                rep.frontier_peak = rep.frontier_peak.max(frontier.len() + unmerged);
            }
        }

        if let Some((viol, decisions)) = first_violation {
            let kind = viol.check;
            let shrunk = shrink::ddmin(&decisions, self.shrink_budget, |cand| {
                self.replay(cand).iter().any(|v| v.check == kind)
            });
            rep.witness = Some(self.witness(&viol, &shrunk));
        }
        rep.digest = digest.finish();
        rep
    }

    /// Package a (shrunk) violating decision vector as a witness.
    pub fn witness(&self, violation: &Violation, decisions: &[usize]) -> Witness {
        Witness {
            version: tmobs::WITNESS_VERSION,
            title: format!(
                "{} on {} ({})",
                violation.check.name(),
                self.system.name(),
                self.spec.render()
            ),
            system: self.system.name().to_string(),
            cores: self.spec.num_threads(),
            lines: self.spec.lines,
            prog: self.spec.render(),
            inject: inject_names(&self.inject),
            no_safety_net: self.no_safety_net,
            tiny_l1: self.tiny_l1,
            retries: self.retries,
            decisions: decisions.to_vec(),
            violation_kind: violation.check.name().to_string(),
            violation_message: violation.message.clone(),
        }
    }

    /// Rebuild an explorer from a witness (for `tmverify replay`).
    pub fn from_witness(w: &Witness) -> Result<Explorer, String> {
        let system = SystemKind::from_name(&w.system)
            .ok_or_else(|| format!("witness: unknown system {:?}", w.system))?;
        let spec = ProgSpec::parse(&w.prog)?;
        if spec.num_threads() != w.cores {
            return Err(format!(
                "witness: cores {} does not match prog threads {}",
                w.cores,
                spec.num_threads()
            ));
        }
        let mut ex = Explorer::new(system, spec);
        for name in &w.inject {
            if !inject_by_name(&mut ex.inject, name) {
                return Err(format!("witness: unknown injection {name:?}"));
            }
        }
        ex.no_safety_net = w.no_safety_net;
        ex.tiny_l1 = w.tiny_l1;
        ex.retries = w.retries;
        Ok(ex)
    }
}

/// State fingerprint -> the sleep sets (sorted, deduped ids) explored
/// there.
type Seen = FxHashMap<u64, Vec<Vec<u64>>>;

/// Whether `seen` covers state `fp` reached with the sleep set `ids`
/// (sorted, deduped): an earlier visit there had an equal-or-smaller
/// sleep set. The merge and the runs' early stop share this one test.
fn covers(seen: &Seen, fp: u64, ids: &[u64]) -> bool {
    seen.get(&fp)
        .is_some_and(|sets| sets.iter().any(|s| is_subset(s, ids)))
}

/// `a` subset-of `b`, both sorted+deduped.
fn is_subset(a: &[u64], b: &[u64]) -> bool {
    let mut it = b.iter();
    'outer: for x in a {
        for y in it.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => {}
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// One frontier entry: replay `forced`, then explore freely with
/// `entry_sleep` active from the branch point on.
struct WorkItem {
    forced: Vec<usize>,
    entry_sleep: Vec<EvDesc>,
}

/// A recorded free-choice point. A run's last one may be a choice its
/// batch's view of the seen-state table already covers, which the merge
/// reads only up to its fingerprint.
struct Choice {
    /// Index among the run's multi-candidate fronts.
    depth: usize,
    /// State fingerprint at the front (before dispatch); `None` when
    /// state deduplication is off, since nothing reads it then.
    fp: Option<u64>,
    /// The ids of `sleep_before`, sorted and deduped: the key [`covers`]
    /// tests with `fp` (empty when `fp` is `None`).
    ids: Vec<u64>,
    options: Vec<EvDesc>,
    chosen: usize,
    /// Live sleep set just before dispatch.
    sleep_before: Vec<EvDesc>,
}

/// Everything one executed schedule contributes to the merge.
struct RunRecord {
    decisions: Vec<usize>,
    choices: Vec<Choice>,
    end: RunEnd,
    violations: Vec<Violation>,
    trace_len: usize,
    redundant: bool,
    depth_clipped: bool,
    cycle_limited: bool,
    /// The run's host profile ([`Explorer::profile`] only).
    prof: Option<ProfReport>,
}

/// Replays a forced prefix, then picks the first non-sleeping candidate
/// at every later front, recording choice points for child generation
/// up to the first one its view of the seen-state table covers.
struct RecordingScheduler<'a> {
    forced: Vec<usize>,
    entry_sleep: Vec<EvDesc>,
    depth_bound: usize,
    depth: usize,
    sleep: Vec<EvDesc>,
    sleep_active: bool,
    decisions: Vec<usize>,
    choices: Vec<Choice>,
    /// First depth where every candidate slept: the rest of this run is
    /// covered by other schedules, so no further choices are recorded.
    redundant_from: Option<usize>,
    depth_clipped: bool,
    /// The seen-state table as it stood before this run's batch, against
    /// which each recorded choice is fingerprinted
    /// ([`Explorer::state_dedup`] only; `None` takes no fingerprint).
    seen: Option<&'a Seen>,
    /// The last recorded choice is covered by `seen`: the merge stops
    /// there or earlier, so nothing more is recorded (or hashed).
    covered: bool,
    /// Static refinement of the wake-up relation: a sleeping event stays
    /// asleep past dispatches proven independent of it.
    prune: Option<StaticIndependence>,
}

impl<'a> RecordingScheduler<'a> {
    fn new(
        item: &WorkItem,
        depth_bound: usize,
        seen: Option<&'a Seen>,
        prune: Option<StaticIndependence>,
    ) -> RecordingScheduler<'a> {
        RecordingScheduler {
            forced: item.forced.clone(),
            entry_sleep: item.entry_sleep.clone(),
            depth_bound,
            seen,
            covered: false,
            prune,
            depth: 0,
            sleep: if item.forced.is_empty() {
                item.entry_sleep.clone()
            } else {
                Vec::new()
            },
            sleep_active: item.forced.is_empty(),
            decisions: Vec::new(),
            choices: Vec::new(),
            redundant_from: None,
            depth_clipped: false,
        }
    }

    fn asleep(&self, d: &EvDesc) -> bool {
        self.sleep.iter().any(|s| s.id == d.id)
    }
}

impl Scheduler for RecordingScheduler<'_> {
    fn pick(&mut self, _at: Cycle, options: &[EvDesc], state_fp: &dyn Fn() -> u64) -> usize {
        let d = self.depth;
        self.depth += 1;
        let idx = if d < self.forced.len() {
            if d + 1 == self.forced.len() {
                // The branch point: the item's sleep set takes effect in
                // the state this (last forced) decision leads to.
                self.sleep = self.entry_sleep.clone();
                self.sleep_active = true;
            }
            self.forced[d].min(options.len() - 1)
        } else if d >= self.depth_bound {
            self.depth_clipped = true;
            0
        } else if let Some(i) = (0..options.len()).find(|&i| !self.asleep(&options[i])) {
            if self.redundant_from.is_none() && !self.covered {
                // The only fingerprints this run reads: taken here, for a
                // recorded choice, and only when dedup will look them up.
                let (fp, ids) = match self.seen {
                    Some(seen) => {
                        let fp = state_fp();
                        let mut ids: Vec<u64> = self.sleep.iter().map(|s| s.id).collect();
                        ids.sort_unstable();
                        ids.dedup();
                        self.covered = covers(seen, fp, &ids);
                        (Some(fp), ids)
                    }
                    None => (None, Vec::new()),
                };
                self.choices.push(Choice {
                    depth: d,
                    fp,
                    ids,
                    options: options.to_vec(),
                    chosen: i,
                    sleep_before: self.sleep.clone(),
                });
            }
            i
        } else {
            // Every candidate sleeps: this continuation is covered by
            // sibling subtrees; finish the run (results discarded for
            // child generation) on the default candidate.
            if self.redundant_from.is_none() {
                self.redundant_from = Some(d);
            }
            0
        };
        self.decisions.push(idx);
        idx
    }

    fn observe(&mut self, _at: Cycle, ev: &EvDesc) {
        if self.sleep_active && !self.sleep.is_empty() {
            match &self.prune {
                Some(p) => self.sleep.retain(|t| !p.conflicts(t, ev)),
                None => self.sleep.retain(|t| !t.conflicts(ev)),
            }
        }
    }
}

/// Pure replay: forced decisions, FIFO (0) beyond the vector's end.
struct ReplayScheduler {
    forced: Vec<usize>,
    depth: usize,
}

impl Scheduler for ReplayScheduler {
    fn pick(&mut self, _at: Cycle, options: &[EvDesc], _state_fp: &dyn Fn() -> u64) -> usize {
        let i = self
            .forced
            .get(self.depth)
            .copied()
            .unwrap_or(0)
            .min(options.len() - 1);
        self.depth += 1;
        i
    }
}

/// Aggregate result of one exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Schedules executed and merged.
    pub schedules: u64,
    /// Runs that hit a fully-sleeping front (covered elsewhere).
    pub redundant: u64,
    /// Sibling branches skipped because the candidate slept.
    pub pruned_sleep: u64,
    /// Choice points skipped via state-fingerprint deduplication.
    pub pruned_dedup: u64,
    /// Runs cut by the per-run cycle budget (coverage incomplete).
    pub cycle_limited: u64,
    /// Runs that hit the depth bound (coverage incomplete).
    pub depth_clipped: u64,
    /// Deepest decision vector seen.
    pub max_depth: usize,
    /// Peak frontier length (memory high-water mark): the most work
    /// items waiting after any merged run, counting the runs of its batch
    /// not merged yet, so it reads the same at every job count (9 on the
    /// default 2-core, 2-line kernel).
    pub frontier_peak: usize,
    /// The schedule budget ran out before the frontier drained.
    pub budget_exhausted: bool,
    /// A static independence table was in force during exploration.
    pub static_prune: bool,
    /// Per-schedule property verdicts.
    pub space: SpaceReport,
    /// Shrunk witness for the first violation found, if any.
    pub witness: Option<Witness>,
    /// Order-sensitive digest of every merged run; equal digests mean
    /// bit-identical explorations (asserted across `--jobs` in tests).
    pub digest: u64,
    /// Host profiles of every merged run, summed by phase path
    /// ([`Explorer::profile`] only). Host time, so it stays out of
    /// [`ExploreReport::digest`] and [`ExploreReport::to_json`].
    pub profile: Option<ProfReport>,
}

impl ExploreReport {
    pub fn is_clean(&self) -> bool {
        self.space.is_clean()
    }

    /// True when the whole bounded space was covered: every schedule ran
    /// to a final state and the frontier drained within budget.
    pub fn complete(&self) -> bool {
        !self.budget_exhausted && self.depth_clipped == 0 && self.cycle_limited == 0
    }

    /// CLI exit code: 0 clean+complete, 1 violation, 2 budget exhausted.
    pub fn exit_code(&self) -> i32 {
        if !self.is_clean() {
            1
        } else if !self.complete() {
            2
        } else {
            0
        }
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = self.space.render();
        out.push_str(&format!(
            "  explored {} schedule(s) ({} redundant), pruned {} sleeping branch(es), \
             {} deduped state(s)\n",
            self.schedules, self.redundant, self.pruned_sleep, self.pruned_dedup
        ));
        out.push_str(&format!(
            "  max depth {}, frontier peak {}, digest {:016x}\n",
            self.max_depth, self.frontier_peak, self.digest
        ));
        if self.complete() {
            out.push_str("  coverage: complete (bounded space fully explored)\n");
        } else {
            out.push_str(&format!(
                "  coverage: INCOMPLETE (budget_exhausted={}, depth_clipped={}, \
                 cycle_limited={})\n",
                self.budget_exhausted, self.depth_clipped, self.cycle_limited
            ));
        }
        out
    }

    /// Machine-readable stats: the `--bench-json` file, the `-v` line,
    /// and each report line of `tests/golden/explore_corpus.jsonl`.
    pub fn to_json(&self) -> String {
        let per_kind: Vec<String> = self
            .space
            .per_kind
            .iter()
            .map(|(k, n)| format!("\"{}\": {n}", k.name()))
            .collect();
        format!(
            "{{\"schedules\": {}, \"redundant\": {}, \"pruned_sleep\": {}, \
             \"pruned_dedup\": {}, \"cycle_limited\": {}, \"depth_clipped\": {}, \
             \"max_depth\": {}, \"frontier_peak\": {}, \"budget_exhausted\": {}, \
             \"static_prune\": {}, \"complete\": {}, \"violating\": {}, \
             \"violations\": {{{}}}, \"digest\": \"{:016x}\"}}",
            self.schedules,
            self.redundant,
            self.pruned_sleep,
            self.pruned_dedup,
            self.cycle_limited,
            self.depth_clipped,
            self.max_depth,
            self.frontier_peak,
            self.budget_exhausted,
            self.static_prune,
            self.complete(),
            self.space.violating,
            per_kind.join(", "),
            self.digest
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_check() {
        assert!(is_subset(&[], &[1, 2]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[4], &[1, 2, 3]));
        assert!(!is_subset(&[1, 2], &[1]));
        assert!(!is_subset(&[0], &[]));
    }

    #[test]
    fn inject_name_mapping_roundtrip() {
        for name in INJECT_NAMES {
            let mut f = FaultInject::default();
            assert!(inject_by_name(&mut f, name), "{name}");
            assert_eq!(inject_names(&f), vec![name.to_string()]);
        }
        let mut f = FaultInject::default();
        assert!(!inject_by_name(&mut f, "nope"));
        assert!(!f.any());
    }

    #[test]
    fn report_json_parses() {
        let mut rep = ExploreReport {
            schedules: 3,
            ..ExploreReport::default()
        };
        rep.space.record(1, &[space::deadlock_violation(&[0])]);
        let doc = sim_core::json::parse(&rep.to_json()).expect("report json parses");
        assert_eq!(
            doc.get("schedules").and_then(sim_core::json::Json::as_f64),
            Some(3.0)
        );
        assert_eq!(
            doc.get("violations")
                .and_then(|v| v.get("deadlock"))
                .and_then(sim_core::json::Json::as_f64),
            Some(1.0)
        );
    }

    /// A core-private `Recv` descriptor with identity `id`.
    fn desc(id: u64) -> EvDesc {
        EvDesc {
            class: lockiller::EvClass::Recv,
            cores: 1 << id,
            line: None,
            bank: None,
            global: false,
            sync: false,
            id,
        }
    }

    /// Drive `s` over four stretches — two forced picks, two free picks,
    /// a front where every candidate sleeps, then a free-looking front
    /// and two picks past the depth bound of 6 — with a closure that
    /// counts how often the fingerprint is taken.
    fn drive(s: &mut dyn Scheduler) -> usize {
        let calls = std::cell::Cell::new(0);
        let fp = || {
            calls.set(calls.get() + 1);
            0xf00d
        };
        let (a, b, z) = (desc(1), desc(2), desc(3));
        let fronts = [
            vec![a.clone(), b.clone()],
            vec![a.clone(), b.clone()],
            vec![a.clone(), b.clone()],
            vec![z.clone(), a.clone()],
            vec![z.clone()],
            vec![a.clone(), b.clone()],
            vec![a.clone(), b.clone()],
            vec![a, b],
        ];
        for front in &fronts {
            s.pick(0, front, &fp);
        }
        calls.get()
    }

    /// A work item that forces `[1, 0]` and puts `z` (id 3) to sleep
    /// from the branch point on.
    fn item() -> WorkItem {
        WorkItem {
            forced: vec![1, 0],
            entry_sleep: vec![desc(3)],
        }
    }

    #[test]
    fn fingerprint_is_taken_only_for_recorded_choices() {
        let empty = Seen::default();
        let mut s = RecordingScheduler::new(&item(), 6, Some(&empty), None);
        let calls = drive(&mut s);
        assert_eq!(s.decisions, vec![1, 0, 0, 1, 0, 0, 0, 0]);
        assert_eq!(s.redundant_from, Some(4), "the all-asleep front");
        assert!(s.depth_clipped, "the last two picks pass the bound");
        let depths: Vec<usize> = s.choices.iter().map(|c| c.depth).collect();
        assert_eq!(depths, vec![2, 3], "only the two free picks record");
        assert_eq!(calls, s.choices.len(), "one hash per recorded choice");
        assert!(s.choices.iter().all(|c| c.fp == Some(0xf00d)));
    }

    #[test]
    fn no_fingerprint_without_dedup_or_on_replay() {
        let mut s = RecordingScheduler::new(&item(), 6, None, None);
        assert_eq!(drive(&mut s), 0, "dedup off: nothing reads a hash");
        assert_eq!(s.choices.len(), 2, "choices are still recorded");
        assert!(s.choices.iter().all(|c| c.fp.is_none()));
        let mut r = ReplayScheduler {
            forced: vec![1, 0, 1],
            depth: 0,
        };
        assert_eq!(drive(&mut r), 0, "replay never reads a hash");
    }

    #[test]
    fn recording_stops_at_the_first_choice_the_view_covers() {
        let empty = Seen::default();
        let mut base = RecordingScheduler::new(&item(), 6, Some(&empty), None);
        drive(&mut base);
        // The sleep set at both free picks is {z} = [3]; [] is a subset.
        let covering: Seen = [(0xf00d, vec![vec![]])].into_iter().collect();
        let mut s = RecordingScheduler::new(&item(), 6, Some(&covering), None);
        assert_eq!(drive(&mut s), 1, "no hash after the covered choice");
        let depths: Vec<usize> = s.choices.iter().map(|c| c.depth).collect();
        assert_eq!(depths, vec![2], "the covered choice is the last recorded");
        assert_eq!(s.choices[0].fp, Some(0xf00d));
        assert_eq!(s.choices[0].ids, vec![3], "the merge's key, sorted");
        assert_eq!(s.decisions, base.decisions, "picks do not change");
        assert_eq!(s.redundant_from, base.redundant_from);
        assert_eq!(s.depth_clipped, base.depth_clipped);
        // [99] is no subset of [3]: nothing is covered.
        let other: Seen = [(0xf00d, vec![vec![99]])].into_iter().collect();
        let mut s = RecordingScheduler::new(&item(), 6, Some(&other), None);
        assert_eq!(drive(&mut s), 2);
        assert_eq!(s.choices.len(), 2, "both free picks record");
    }

    #[test]
    fn exit_codes() {
        let mut rep = ExploreReport::default();
        assert_eq!(rep.exit_code(), 0);
        rep.budget_exhausted = true;
        assert_eq!(rep.exit_code(), 2);
        rep.space.record(0, &[space::deadlock_violation(&[1])]);
        assert_eq!(rep.exit_code(), 1);
    }
}
