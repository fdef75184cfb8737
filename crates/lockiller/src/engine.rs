//! The discrete-event engine: owns the event queue, the memory subsystem,
//! the value layer, and one controller per simulated core; resumes each
//! guest (a [`GuestExec`]) in lockstep with the simulated clock.
//!
//! ## Event kinds
//!
//! - `Recv(core)` — rendezvous point: resume the core's guest for its
//!   next operation (the guest computes in zero simulated time), or, in a
//!   spin wait, issue the next op of the wait's loop without resuming it;
//! - `Respond(core, resp)` — deliver a response scheduled earlier (e.g.,
//!   the end of a `Compute`, a commit penalty, an abort penalty);
//! - `Net(msg)` — a NoC message arrives at the memory subsystem;
//! - `Notice(n)` — a memory-subsystem notification (completion, reject,
//!   protocol abort, wake-up, HLA result);
//! - `Retry(core, seq)` / `ParkTimeout(core, seq)` — recovery-mechanism
//!   requester-side actions (RetryLater pause, wake-up safety net).
//!
//! ## The spin lane
//!
//! Outside a scheduler, checked mode, a cycle budget and span-level
//! sampling, a spinner whose lock line stays in its L1 leaves the queue:
//! its repeating load/pause events run on [`crate::lane`], merged with
//! the queue in `(cycle, seq)` order, and go back into the queue at their
//! exact place before any event that names the core is dispatched
//! (DESIGN §7.1).
//!
//! ## Execution-time accounting
//!
//! Cycles are attributed per core to the paper's breakdown categories at
//! every response delivery; speculative cycles accumulate in a pending
//! bucket resolved to `htm` / `aborted` / `switchLock` when the
//! transaction's fate is known (Figs. 9 and 11).

use crate::exec::GuestExec;
use crate::flatmem::{FlatMem, WriteBuffer};
use crate::guest::{GuestOp, GuestResp, TTest};
use crate::lane::{Lane, LaneEvent, LaneStep, LANE_RING};
use crate::sched::{EvClass, EvDesc, RunEnd, Scheduler};
use crate::trace::{Trace, TraceKind};
use coherence::memsys::{AccessKind, AccessResult, CoreNotice, MemSystem};
use coherence::msg::{NetMsg, TxMode};
use sim_core::config::{CheckCfg, PriorityKind, RejectAction, SystemConfig};
use sim_core::event::EventQueue;
use sim_core::fxhash::{FxHashSet, FxHasher};
use sim_core::latency::{TxnClass, TxnLifecycle};
use sim_core::obs::{Metric, MetricSpec};
use sim_core::prof::{HostProf, ProfPhase, ProfReport};
use sim_core::stats::{AbortCause, Phase, PhaseTracker, RunStats};
use sim_core::types::{Addr, CoreId, Cycle};
use std::hash::{Hash, Hasher};

/// Decay origin for the `prio_decay` seeded bug: large enough that the
/// inverted priorities stay positive and below the lock-priority
/// sentinel for any realistic transaction length.
const PRIO_DECAY_BASE: u64 = 1 << 20;

/// Pause between two reads of a held fallback lock (`SpinWait`), in
/// instructions.
const SPIN_PAUSE: u64 = 16;

/// Cycles charged for processing an abort (register restore etc.).
const ABORT_PENALTY: Cycle = 30;

/// Cycles charged for a commit.
const COMMIT_PENALTY: Cycle = 6;

/// Cycles charged to service a demand-paging fault outside a transaction
/// (inside an HTM transaction a fault aborts instead).
const FAULT_SERVICE: Cycle = 300;

/// Pause, in cycles, before re-issuing a rejected request under
/// [`RejectAction::RetryLater`].
const RETRY_PAUSE: Cycle = 64;

/// Metric registrations owned by the engine: core-occupancy gauges and
/// the cumulative outcome counters sampled every observability tick.
pub fn obs_metric_specs() -> Vec<MetricSpec> {
    vec![
        MetricSpec::new(
            Metric::TxRunning,
            "cores",
            "cores in a speculative transaction",
        ),
        MetricSpec::new(
            Metric::Parked,
            "cores",
            "cores parked by the recovery mechanism",
        ),
        MetricSpec::new(Metric::LockHeld, "cores", "cores in lock/fallback sections"),
        MetricSpec::new(Metric::Commits, "txns", "cumulative speculative commits"),
        MetricSpec::new(Metric::Aborts, "txns", "cumulative aborts, all causes"),
        MetricSpec::new(
            Metric::Fallbacks,
            "txns",
            "cumulative fallback-path entries",
        ),
        MetricSpec::new(
            Metric::EventsProcessed,
            "events",
            "cumulative discrete events dispatched by the engine",
        ),
        MetricSpec::new(
            Metric::EventQueueDepth,
            "events",
            "instantaneous engine event-queue depth",
        ),
    ]
}

#[derive(Clone, Debug)]
enum Ev {
    Recv(CoreId),
    Respond(CoreId, GuestResp),
    Net(NetMsg),
    Notice(CoreNotice),
    Retry(CoreId, u64),
    ParkTimeout(CoreId, u64),
}

/// The op a spin wait ([`GuestOp::SpinWait`]) issued last.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SpinOp {
    /// The `SpinWait` op itself (the wait began).
    Begin,
    /// A load of the lock word.
    Load,
    /// The acquiring CAS 0 → 1.
    Cas,
    /// The `Compute(SPIN_PAUSE)` after a non-zero read.
    Pause,
    /// The closing `SpinWait` (the wait is over).
    End,
}

/// An engine-run spin wait in progress. The guest is not resumed until
/// it ends: each `Recv` derives the loop's next op from the response just
/// delivered ([`Engine::spin_next`]). Like a guest's position, it is a
/// function of the core's response history, so the state fingerprint
/// covers it through `resp_hash`.
#[derive(Clone, Copy, Debug)]
struct Spin {
    acquire: bool,
    last: SpinOp,
}

/// Per-core controller state.
struct Ctl<'g> {
    /// The resumable guest driven at this core's `Recv` rendezvous
    /// points; `None` until [`Engine::register`].
    exec: Option<GuestExec<'g>>,
    /// Response delivered by [`Engine::respond`] but not yet handed to
    /// the guest — consumed by the next `resume` at the rendezvous
    /// point.
    pending_resp: Option<GuestResp>,
    tracker: PhaseTracker,
    phase: Phase,
    /// Cycles currently accumulate into the speculative pending bucket.
    spec: bool,
    last_attr: Cycle,
    /// Inside a speculative attempt (including after an STL switch, until
    /// hlend).
    in_tx: bool,
    is_stl: bool,
    /// Per-attempt transaction id stamped on checked-mode access events
    /// (0 = not inside any atomic section). Every speculative attempt,
    /// TL/STL lock transaction, and fallback critical section gets a
    /// fresh id; retries of the same static transaction get new ids.
    cur_txn: u64,
    tx_insts: u64,
    tx_refs: u64,
    tx_begin_at: Cycle,
    switch_tried: bool,
    /// Protocol abort arrived while an op had a scheduled response; the
    /// abort is delivered in its place.
    doomed: Option<AbortCause>,
    /// A response event is in flight for this core.
    respond_scheduled: bool,
    /// Memory op awaiting coherence completion / park / retry.
    cur_op: Option<GuestOp>,
    /// Op received while a protocol abort notice was still in flight;
    /// consumed (answered with the abort) when the notice lands.
    deferred_op: Option<GuestOp>,
    parked: Option<u64>,
    /// A wake-up that arrived before its reject (shorter NoC route);
    /// consumed instead of parking when the reject lands.
    wakeup_banked: bool,
    /// Next guest op, pre-received at a scheduler pick point so the
    /// candidate `Recv` event can be described with a precise footprint
    /// (the guest computes in zero simulated time, so its op is fixed
    /// the moment the previous response is delivered — pulling it early
    /// cannot change the simulation).
    staged_op: Option<GuestOp>,
    /// Rolling hash of every response delivered to this guest: a
    /// deterministic guest's position and local state are a pure
    /// function of its response history, so folding this into the state
    /// fingerprint makes engine-state equality imply guest-state
    /// equality (see `state_fingerprint`).
    resp_hash: u64,
    /// An STL switch request awaits the arbiter's answer; a protocol
    /// abort that lands meanwhile is held in `doomed` until it arrives.
    switch_pending: bool,
    tl_pending: bool,
    /// Resolve the pending speculative bucket into this phase at the next
    /// response delivery.
    resolve: Option<Phase>,
    /// Switch to this phase after the next response delivery.
    phase_after: Option<Phase>,
    /// The spin wait this core is in, if any.
    spin: Option<Spin>,
    finished: bool,
}

impl Ctl<'_> {
    fn new() -> Self {
        Ctl {
            exec: None,
            pending_resp: None,
            tracker: PhaseTracker::default(),
            phase: Phase::NonTran,
            spec: false,
            last_attr: 0,
            in_tx: false,
            is_stl: false,
            cur_txn: 0,
            tx_insts: 0,
            tx_refs: 0,
            tx_begin_at: 0,
            switch_tried: false,
            doomed: None,
            respond_scheduled: false,
            cur_op: None,
            deferred_op: None,
            parked: None,
            wakeup_banked: false,
            staged_op: None,
            resp_hash: 0,
            switch_pending: false,
            tl_pending: false,
            resolve: None,
            phase_after: None,
            spin: None,
            finished: false,
        }
    }
}

/// The engine. Construct, [`Engine::register`] each guest executor,
/// then [`Engine::run_with`] until it ends and [`Engine::into_stats`].
///
/// The lifetime `'g` bounds the registered [`GuestExec`]s (a guest
/// borrows its program, or the kernel its program compiled).
pub struct Engine<'g> {
    cfg: SystemConfig,
    ms: MemSystem,
    /// The fallback lock word every `SpinWait` spins on.
    lock_addr: Addr,
    q: EventQueue<Ev>,
    pub mem: FlatMem,
    bufs: Vec<WriteBuffer>,
    ctl: Vec<Ctl<'g>>,
    /// Per-core lifecycle trackers for latency accounting. Deliberately
    /// outside [`Ctl`] and the state fingerprint: lifecycle stamps are
    /// volatile accounting and must not perturb tmverify's state dedup.
    life: Vec<TxnLifecycle>,
    touched_pages: FxHashSet<u64>,
    barrier_waiting: Vec<CoreId>,
    threads: usize,
    done_count: usize,
    seq: u64,
    txn_counter: u64,
    stats: RunStats,
    end_time: Cycle,
    /// The run's recording ([`Engine::set_trace`]); off by default.
    trace: Trace,
    /// Next metric sample row's cycle (span-level traces only).
    next_sample: Cycle,
    /// Host-side self-profiler ([`Engine::enable_prof`]): `None` (the
    /// default) is the unprofiled fast path — every scope site is one
    /// `is_some()` branch. The profiler only reads the host clock;
    /// nothing it does feeds back into the simulation, so cycles, stats,
    /// traces, and fingerprints are byte-identical with it on or off.
    prof: Option<HostProf>,
    /// Programmatic cycle budget ([`Engine::set_max_cycles`]): exceeding
    /// it ends the run with [`RunEnd::CycleLimit`].
    max_cycles: Option<Cycle>,
    /// True while [`Engine::run_with`] is driven by a [`Scheduler`].
    /// Only a scheduler reads [`Engine::state_fingerprint`], lazily
    /// through `pick`'s `state_fp` argument, so the whole-state hash is
    /// taken only at the pick points where the scheduler asks for it.
    /// The per-response `resp_hash` fold in `respond` cannot be lazy: it
    /// is history that any later pick point may read, so it runs on every
    /// scheduled run and is skipped on plain runs — the `tmprof` stamp
    /// phase showed the hash as the fold's only cost on compiled
    /// kernels, where responses dominate.
    fingerprinting: bool,
    /// Spinners whose L1-hit iterations run off the event queue (see
    /// [`crate::lane`] and [`Engine::lane_can_take`]).
    lane: Lane,
    /// Whether this run may put spinners on the lane: only where nothing
    /// observes a run event by event — no scheduler, no checked mode or
    /// injected fault, no cycle budget, no span-level sampling.
    lane_on: bool,
}

impl<'g> Engine<'g> {
    pub fn new(
        cfg: SystemConfig,
        mem: FlatMem,
        threads: usize,
        mutex_addr: Addr,
        mapped_pages: FxHashSet<u64>,
    ) -> Engine<'g> {
        assert!(threads >= 1 && threads <= cfg.num_cores);
        let mut ms = MemSystem::new(cfg.clone());
        ms.set_mutex_line(mutex_addr.line());
        let touched_pages = mapped_pages;
        Engine {
            ms,
            lock_addr: mutex_addr,
            q: EventQueue::new(),
            mem,
            bufs: (0..threads).map(|_| WriteBuffer::default()).collect(),
            ctl: (0..threads).map(|_| Ctl::new()).collect(),
            life: (0..threads).map(|_| TxnLifecycle::default()).collect(),
            touched_pages,
            barrier_waiting: Vec::new(),
            threads,
            done_count: 0,
            seq: 0,
            txn_counter: 0,
            stats: RunStats::new(threads),
            end_time: 0,
            trace: Trace::default(),
            next_sample: 0,
            prof: None,
            max_cycles: None,
            fingerprinting: false,
            lane: Lane::new(threads),
            lane_on: false,
            cfg,
        }
    }

    /// Set a cycle budget: a run that exceeds it returns
    /// [`RunEnd::CycleLimit`] (used by the schedule explorer to bound
    /// divergent replays instead of hanging).
    pub fn set_max_cycles(&mut self, limit: Cycle) {
        self.max_cycles = Some(limit);
    }

    /// Record the run into `trace`. At span level this also arms
    /// conflict-edge recording in the memory system; recording is
    /// write-only and never feeds back into protocol decisions.
    pub fn set_trace(&mut self, trace: Trace) {
        self.ms.set_record_conflicts(trace.sample_every().is_some());
        self.trace = trace;
    }

    /// Hand out the run's recording, noting its drop count in the stats.
    pub fn take_trace(&mut self) -> Trace {
        self.stats.trace_dropped = self.trace.dropped();
        std::mem::take(&mut self.trace)
    }

    /// Start host-side self-profiling: the root `run` scope opens now,
    /// and the hot loop attributes host time to phase scopes until
    /// [`Engine::take_prof`].
    pub fn enable_prof(&mut self) {
        self.prof = Some(HostProf::start());
    }

    /// Close the profile and return its report (`None` if
    /// [`Engine::enable_prof`] was never called).
    pub fn take_prof(&mut self) -> Option<ProfReport> {
        self.prof.take().map(HostProf::report)
    }

    #[inline]
    fn prof_enter(&mut self, ph: ProfPhase) {
        if let Some(p) = self.prof.as_mut() {
            p.enter(ph);
        }
    }

    #[inline]
    fn prof_exit(&mut self) {
        if let Some(p) = self.prof.as_mut() {
            p.exit();
        }
    }

    /// Dispatch phase for an event kind (per-`Ev`-kind host attribution).
    fn phase_of(ev: &Ev) -> ProfPhase {
        match ev {
            Ev::Recv(_) => ProfPhase::EvRecv,
            Ev::Respond(..) => ProfPhase::EvRespond,
            Ev::Net(_) => ProfPhase::EvNet,
            Ev::Notice(_) => ProfPhase::EvNotice,
            Ev::Retry(..) => ProfPhase::EvRetry,
            Ev::ParkTimeout(..) => ProfPhase::EvParkTimeout,
        }
    }

    /// Record one sample row: engine occupancy gauges and outcome
    /// counters, then the memory system's bank/NoC metrics. Pure
    /// observation.
    fn record_samples(&mut self, at: Cycle) {
        let (htm, lock, fallback) = self.ms.mode_counts();
        let parked = self.ctl.iter().filter(|c| c.parked.is_some()).count() as u64;
        let mut out: Vec<(Metric, u64)> = vec![
            (Metric::TxRunning, htm),
            (Metric::Parked, parked),
            (Metric::LockHeld, lock + fallback),
            (Metric::Commits, self.stats.commits),
            (Metric::Aborts, self.stats.total_aborts()),
            (Metric::Fallbacks, self.stats.fallbacks),
            (Metric::EventsProcessed, self.stats.events_processed),
            (Metric::EventQueueDepth, self.q.len() as u64),
        ];
        self.ms.obs_sample(&mut out);
        self.trace.record_samples(at, out);
    }

    /// Attach the resumable guest driven at `core`'s rendezvous points.
    pub fn register(&mut self, core: CoreId, exec: GuestExec<'g>) {
        self.ctl[core].exec = Some(exec);
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Stamp a fresh atomic-section id on `core` (checked mode only —
    /// ids are only consumed by access events, which are gated).
    fn begin_txn(&mut self, core: CoreId) {
        if self.cfg.check.enabled {
            self.txn_counter += 1;
            self.ctl[core].cur_txn = self.txn_counter;
        }
    }

    // ---------------- phase accounting ----------------

    fn attr(&mut self, core: CoreId, upto: Cycle) {
        let c = &mut self.ctl[core];
        debug_assert!(upto >= c.last_attr);
        let d = upto - c.last_attr;
        if d > 0 {
            if c.spec {
                c.tracker.add_pending_spec(d);
            } else {
                c.tracker.add(c.phase, d);
            }
            c.last_attr = upto;
        } else {
            c.last_attr = upto;
        }
    }

    fn set_phase(&mut self, core: CoreId, now: Cycle, phase: Phase) {
        self.attr(core, now);
        self.ctl[core].phase = phase;
    }

    // ---------------- responses ----------------

    fn respond(&mut self, core: CoreId, now: Cycle, resp: GuestResp) {
        self.prof_enter(ProfPhase::Stamp);
        self.attr(core, now);
        if self.fingerprinting {
            // Fold the delivered response into the core's history hash
            // (see `state_fingerprint`). Values only, not cycles: timing
            // differences already show in the queue fingerprint. Hashed
            // structurally (no formatting): this runs on every response.
            // Scheduler-driven runs only — nothing else reads the hash,
            // and it costs a hasher per response on the hot path.
            let mut h = FxHasher::default();
            (self.ctl[core].resp_hash, resp).hash(&mut h);
            self.ctl[core].resp_hash = h.finish();
        }
        if let Some(res) = self.ctl[core].resolve.take() {
            self.ctl[core].tracker.resolve_spec(res);
            self.ctl[core].spec = false;
        }
        if let Some(p) = self.ctl[core].phase_after.take() {
            self.ctl[core].phase = p;
        }
        self.prof_exit();
        // Stash the response for the matching `Recv` rendezvous: the
        // guest only resumes when that event (or a pick-point staging of
        // it) fires.
        self.ctl[core].pending_resp = Some(resp);
        self.q.schedule_at(now, Ev::Recv(core));
    }

    fn schedule_respond(&mut self, core: CoreId, at: Cycle, resp: GuestResp) {
        self.ctl[core].respond_scheduled = true;
        self.q.schedule_at(at, Ev::Respond(core, resp));
    }

    // ---------------- memory-subsystem output plumbing ----------------

    fn drain_ms(&mut self) {
        let (msgs, notices) = self.ms.take_outputs();
        for (at, m) in msgs {
            self.q.schedule_at(at, Ev::Net(m));
        }
        for (at, n) in notices {
            self.q.schedule_at(at, Ev::Notice(n));
        }
        if self.cfg.check.enabled {
            for (at, ev) in self.ms.take_proto_events() {
                let (from, kind) = match ev {
                    coherence::memsys::ProtoEvent::NackSent { from, to, line } => {
                        (from, TraceKind::NackSent { to, line })
                    }
                    coherence::memsys::ProtoEvent::WakeSent { from, to } => {
                        (from, TraceKind::WakeSent { to })
                    }
                };
                self.trace.record(at, from, kind);
            }
        }
        if self.trace.sample_every().is_some() {
            for (cycle, edge) in self.ms.take_conflicts() {
                self.trace.record_conflict(cycle, edge);
            }
        }
    }

    // ---------------- main loop ----------------

    /// Run until every guest thread has exited, the event queue drains
    /// with live threads (deadlock), or the cycle budget runs out. When
    /// a [`Scheduler`] is supplied it resolves every same-cycle FIFO
    /// tie-break (the simulation's only nondeterminism; see
    /// [`crate::sched`]).
    ///
    /// On a non-[`RunEnd::Done`] outcome the guests stay suspended where
    /// they were; dropping the engine drops them.
    pub fn run_with(&mut self, mut sched: Option<&mut dyn Scheduler>) -> RunEnd {
        self.fingerprinting = sched.is_some();
        self.lane_on = sched.is_none()
            && self.cfg.check == CheckCfg::default()
            && self.max_cycles.is_none()
            && self.trace.sample_every().is_none()
            && self.cfg.mem.l1_hit.max(SPIN_PAUSE) < LANE_RING as Cycle;
        for c in 0..self.threads {
            self.q.schedule_at(0, Ev::Recv(c));
        }
        while self.done_count < self.threads {
            self.prof_enter(ProfPhase::Dequeue);
            let popped = match sched.as_deref_mut() {
                Some(s) => self.pick_next(s),
                None => self.pop_merged(),
            };
            self.prof_exit();
            let Some((t, ev)) = popped else {
                self.end_time = self.q.now().max(self.end_time);
                let stuck: Vec<usize> = (0..self.threads)
                    .filter(|&c| !self.ctl[c].finished)
                    .collect();
                return RunEnd::Deadlock { stuck };
            };
            // Simulator self-metrics: dispatched-event count and queue
            // high-water (the popped event itself counts toward depth, and
            // each spinner on the lane holds one event).
            self.count_event(self.q.len() + self.lane.len() + 1);
            if let Some(every) = self.trace.sample_every() {
                if t >= self.next_sample {
                    self.prof_enter(ProfPhase::ObsSample);
                    while t >= self.next_sample {
                        let at = self.next_sample;
                        self.record_samples(at);
                        self.next_sample += every;
                    }
                    self.prof_exit();
                }
            }
            if self.max_cycles.is_some_and(|limit| t > limit) {
                self.end_time = self.q.now().max(self.end_time);
                return RunEnd::CycleLimit { at: t };
            }
            // Live SWMR surface for checked mode: record the first
            // violation instead of panicking, so the checker can report
            // it with the rest of the run's evidence. The check reruns
            // only after an event changed some L1 line's presence or
            // MESI state, so it still fires before the first event after
            // the violating one, at the same cycle.
            if self.cfg.check.enabled && self.stats.swmr_violation.is_none() {
                if let Err(e) = self.ms.check_swmr_if_changed() {
                    self.stats.swmr_violation = Some(format!("at cycle {t}: {e}"));
                }
            }
            if self.lane.mask() != 0 {
                self.lane_wake(&ev);
            }
            self.prof_enter(Self::phase_of(&ev));
            self.dispatch(t, ev);
            self.prof_exit();
        }
        self.end_time = self.q.now().max(self.end_time);
        if self.trace.sample_every().is_some() {
            self.record_samples(self.end_time);
        }
        RunEnd::Done
    }

    /// Count one dispatched event, real or lane, that found `depth`
    /// events pending (itself included).
    #[inline]
    fn count_event(&mut self, depth: usize) {
        let depth = depth as u64;
        self.stats.events_processed += 1;
        if depth > self.stats.event_queue_peak {
            self.stats.event_queue_peak = depth;
        }
        if let Some(p) = self.prof.as_mut() {
            p.note_event(depth);
        }
    }

    // ---------------- the spin lane ----------------

    /// Pop the next queue event, first running every lane event that
    /// precedes it in `(cycle, seq)` order. Lane events schedule nothing
    /// in the queue, so its head key holds across them.
    fn pop_merged(&mut self) -> Option<(Cycle, Ev)> {
        if self.lane.mask() != 0 {
            let real = self.q.peek_key();
            while let Some((at, seq, c)) = self.lane.peek() {
                if real.is_some_and(|k| k < (at, seq)) {
                    break;
                }
                self.lane_step(c);
            }
        }
        let popped = self.q.pop();
        if let Some((t, _)) = popped {
            self.lane.advance(t);
        }
        popped
    }

    /// Whether `core`, completing a load of the lock word that read
    /// `word`, may put its spin on the lane: it is spinning and read the
    /// lock held, and its L1 holds the lock line, so its next load hits.
    fn lane_can_take(&self, core: CoreId, word: u64) -> bool {
        self.lane_on
            && word != 0
            && self.ctl[core].spin.is_some_and(|s| s.last == SpinOp::Load)
            && self.ms.l1_holds(core, self.lock_addr.line())
    }

    /// Put `core`'s spin on the lane, its next event the `Respond` of the
    /// load just completed, at `at`. The controller's clock, pending
    /// response and spin position stay as they are until
    /// [`Engine::lane_leave`] writes the lane's back.
    fn lane_enter(&mut self, core: CoreId, at: Cycle, word: u64) {
        let c = &self.ctl[core];
        debug_assert!(
            !c.in_tx && !c.spec && c.resolve.is_none() && c.phase_after.is_none(),
            "core {core}: a spinner has no transaction to settle"
        );
        debug_assert!(c.cur_op.is_none() && c.parked.is_none());
        debug_assert_eq!(self.mem.read(self.lock_addr), word);
        let ev = LaneEvent {
            at,
            seq: self.q.reserve_seq(),
            step: LaneStep::LoadRespond,
            word,
            hits: 0,
            attr_to: c.last_attr,
            mutations: self.ms.l1_mutations(core),
        };
        self.lane.push(core, ev);
    }

    /// Dispatch lane core `c`'s pending event, which stands for one real
    /// event of its loop: count it as that event, and schedule the next
    /// step on the lane under the `seq` its real successor would take.
    fn lane_step(&mut self, c: CoreId) {
        self.count_event(self.q.len() + self.lane.len());
        let mut ev = self.lane.remove(c);
        self.lane.advance(ev.at);
        let (step, delay) = match ev.step {
            LaneStep::LoadRespond => {
                ev.attr_to = ev.at;
                (LaneStep::PauseRecv, 0)
            }
            LaneStep::PauseRecv => (LaneStep::PauseRespond, SPIN_PAUSE),
            LaneStep::PauseRespond => {
                ev.attr_to = ev.at;
                (LaneStep::LoadRecv, 0)
            }
            LaneStep::LoadRecv => {
                debug_assert_eq!(
                    self.ms.l1_mutations(c),
                    ev.mutations,
                    "core {c}: L1 changed while on the spin lane"
                );
                debug_assert_eq!(self.mem.read(self.lock_addr), ev.word);
                ev.hits += 1;
                (LaneStep::LoadRespond, self.cfg.mem.l1_hit)
            }
        };
        ev.at += delay;
        ev.step = step;
        ev.seq = self.q.reserve_seq();
        self.lane.push(c, ev);
    }

    /// Before `ev` is dispatched, take every lane core it names off the
    /// lane: a NoC message to or from it, or a notice for it. Nothing
    /// else reads or writes a spinner's controller or L1.
    fn lane_wake(&mut self, ev: &Ev) {
        let named = match ev {
            Ev::Net(m) => self.describe_net(m).cores,
            Ev::Notice(
                CoreNotice::AccessDone { core }
                | CoreNotice::AccessRejected { core, .. }
                | CoreNotice::TxAborted { core, .. }
                | CoreNotice::Wakeup { core }
                | CoreNotice::HlaResult { core, .. },
            ) => 1 << core,
            // A lane core's own `Recv`/`Respond` is its lane event.
            Ev::Recv(c) | Ev::Respond(c, _) => {
                debug_assert_eq!(self.lane.mask() & (1 << c), 0, "core {c} is on the lane");
                0
            }
            // A stale retry or timeout finds a lane core unparked: a no-op.
            Ev::Retry(..) | Ev::ParkTimeout(..) => 0,
        };
        let mut hit = named & self.lane.mask();
        while hit != 0 {
            let c = hit.trailing_zeros() as usize;
            hit &= hit - 1;
            self.lane_leave(c);
        }
    }

    /// Take `c` off the lane: apply its deferred phase time and L1 hits,
    /// restore the controller to where its last lane step left it, and
    /// put its pending event into the queue at its exact `(cycle, seq)`.
    fn lane_leave(&mut self, c: CoreId) {
        let ev = self.lane.remove(c);
        debug_assert_eq!(
            self.ms.l1_mutations(c),
            ev.mutations,
            "core {c}: L1 changed while on the spin lane"
        );
        self.ms.l1_load_hits(c, self.lock_addr.line(), ev.hits);
        self.attr(c, ev.attr_to);
        let word = GuestResp::Value(ev.word);
        let (real, pending, last) = match ev.step {
            LaneStep::LoadRespond => (Ev::Respond(c, word), None, SpinOp::Load),
            LaneStep::PauseRecv => (Ev::Recv(c), Some(word), SpinOp::Load),
            LaneStep::PauseRespond => (Ev::Respond(c, GuestResp::Done), None, SpinOp::Pause),
            LaneStep::LoadRecv => (Ev::Recv(c), Some(GuestResp::Done), SpinOp::Pause),
        };
        let ctl = &mut self.ctl[c];
        ctl.respond_scheduled = matches!(real, Ev::Respond(..));
        ctl.pending_resp = pending;
        ctl.spin = ctl.spin.map(|s| Spin { last, ..s });
        self.q.schedule_at_seq(ev.at, ev.seq, real);
    }

    /// Dispatch one popped event (the body of the hot loop, split out so
    /// the profiler brackets exactly one event regardless of which arm's
    /// early return fires).
    #[inline]
    fn dispatch(&mut self, t: Cycle, ev: Ev) {
        match ev {
            Ev::Recv(c) => {
                let op = if let Some(op) = self.ctl[c].staged_op.take() {
                    op
                } else {
                    self.recv_op(t, c)
                };
                self.handle_op(t, c, op);
            }
            Ev::Respond(c, resp) => {
                self.ctl[c].respond_scheduled = false;
                if self.ctl[c].in_tx && !matches!(resp, GuestResp::Aborted(_)) {
                    if let Some(cause) = self.ctl[c].doomed.take() {
                        self.deliver_abort(t, c, cause);
                        return;
                    }
                }
                self.respond(c, t, resp);
            }
            Ev::Net(m) => {
                self.prof_enter(ProfPhase::Coherence);
                self.ms.handle_msg(t, m);
                self.drain_ms();
                self.prof_exit();
            }
            Ev::Notice(n) => self.handle_notice(t, n),
            Ev::Retry(c, seq) => {
                if self.ctl[c].parked == Some(seq) {
                    self.trace.record(t, c, TraceKind::Retried);
                    self.ctl[c].parked = None;
                    self.life[c].unpark(t, &mut self.stats.latency);
                    self.reissue(t, c);
                }
            }
            Ev::ParkTimeout(c, seq) => {
                if self.ctl[c].parked == Some(seq) {
                    self.stats.wakeup_timeouts += 1;
                    self.trace.record(t, c, TraceKind::WakeTimeout);
                    self.ctl[c].parked = None;
                    self.life[c].unpark(t, &mut self.stats.latency);
                    self.reissue(t, c);
                }
            }
        }
    }

    /// Resume `core`'s guest with its pending response (a synthetic
    /// `Done` kick on the very first rendezvous — see [`GuestExec`]) and
    /// take its next op. The guest computes in zero simulated time, on
    /// the engine's own thread. A core in a spin wait is not resumed: the
    /// wait's loop supplies the op.
    fn recv_op(&mut self, _t: Cycle, c: CoreId) -> GuestOp {
        if let Some(spin) = self.ctl[c].spin {
            return self.spin_next(c, spin);
        }
        self.prof_enter(ProfPhase::GuestResume);
        let ctl = &mut self.ctl[c];
        let resp = ctl.pending_resp.take().unwrap_or(GuestResp::Done);
        let op = ctl.exec.as_mut().expect("core not registered").resume(resp);
        self.prof_exit();
        op
    }

    /// The next op of `c`'s spin wait, from the response just delivered
    /// to the op it issued last: the test-and-test-and-set loop
    ///
    /// ```text
    /// loop { if load(lock) == 0 && (!acquire || cas(lock, 0, 1) == 0) { break }
    ///        compute(SPIN_PAUSE) }
    /// ```
    ///
    /// The closing op is the `SpinWait` again ([`Engine::handle_op`]
    /// ends the wait there), so a scheduler sees the same `Recv` stream a
    /// guest-side loop between two phase annotations would give it.
    fn spin_next(&mut self, c: CoreId, spin: Spin) -> GuestOp {
        let resp = self.ctl[c].pending_resp.take();
        let lock = self.lock_addr;
        let (op, last) = match (spin.last, resp) {
            (SpinOp::Begin | SpinOp::Pause, Some(GuestResp::Done)) => {
                (GuestOp::Load(lock), SpinOp::Load)
            }
            (SpinOp::Load, Some(GuestResp::Value(0))) if spin.acquire => {
                (GuestOp::Cas(lock, 0, 1), SpinOp::Cas)
            }
            (SpinOp::Load | SpinOp::Cas, Some(GuestResp::Value(0))) => (
                GuestOp::SpinWait {
                    acquire: spin.acquire,
                },
                SpinOp::End,
            ),
            (SpinOp::Load | SpinOp::Cas, Some(GuestResp::Value(_))) => {
                (GuestOp::Compute(SPIN_PAUSE), SpinOp::Pause)
            }
            (last, resp) => panic!("core {c}: spin wait got {resp:?} after {last:?}"),
        };
        self.ctl[c].spin = Some(Spin { last, ..spin });
        op
    }

    // ---------------- scheduler seam ----------------

    /// Pop the next event, letting `s` resolve same-cycle ties. Recv
    /// candidates get their guest op pre-received ("staged") so the
    /// descriptor carries the op's precise footprint; the op content
    /// cannot depend on the tie-break (guests run in zero simulated
    /// time), so staging never changes the simulation.
    fn pick_next(&mut self, s: &mut dyn Scheduler) -> Option<(Cycle, Ev)> {
        match self.q.front_len() {
            0 => None,
            1 => {
                let (t, ev) = self.q.pop()?;
                if let Ev::Recv(c) = ev {
                    self.stage_op(c);
                }
                let d = self.describe(&ev);
                s.observe(t, &d);
                Some((t, ev))
            }
            _ => {
                let front = self.q.front_snapshot();
                for ev in &front {
                    if let Ev::Recv(c) = ev {
                        self.stage_op(*c);
                    }
                }
                let descs: Vec<EvDesc> = front.iter().map(|e| self.describe(e)).collect();
                let at = self.q.peek_time().expect("front is non-empty");
                // The scope covers the tie-break, including any
                // fingerprint the scheduler asks for.
                self.prof_enter(ProfPhase::SchedPick);
                let idx = s
                    .pick(at, &descs, &|| self.state_fingerprint())
                    .min(descs.len() - 1);
                self.prof_exit();
                let (t, ev) = self.q.pop_nth_front(idx).expect("front is non-empty");
                s.observe(t, &descs[idx]);
                Some((t, ev))
            }
        }
    }

    /// Pre-receive `core`'s next op into the staging slot (idempotent).
    /// A staged `Recv` candidate has already had its response delivered
    /// (its `Respond` dispatched earlier), so resuming the guest here is
    /// the same rendezvous the event itself would perform.
    fn stage_op(&mut self, core: CoreId) {
        if self.ctl[core].staged_op.is_some() {
            return;
        }
        let op = self.recv_op(0, core);
        self.ctl[core].staged_op = Some(op);
    }

    /// Describe an event's footprint for the dependence relation. The
    /// mapping errs conservative: anything that can touch state shared
    /// beyond one core + one LLC bank is marked `global`.
    fn describe(&self, ev: &Ev) -> EvDesc {
        let bank_of = |line: sim_core::types::LineAddr| (line.0 as usize) % self.cfg.num_banks();
        let mut d = match ev {
            Ev::Recv(c) => {
                let mut d = EvDesc {
                    class: EvClass::Recv,
                    cores: 1 << c,
                    line: None,
                    bank: None,
                    global: false,
                    sync: false,
                    id: 0,
                };
                match self.ctl[*c].staged_op {
                    Some(GuestOp::Load(a) | GuestOp::Store(a, _) | GuestOp::Cas(a, ..)) => {
                        d.line = Some(a.line());
                        d.bank = Some(bank_of(a.line()));
                    }
                    Some(
                        GuestOp::Compute(_)
                        | GuestOp::TTest
                        | GuestOp::TxBegin
                        | GuestOp::SpinWait { .. },
                    ) => {}
                    // Commit/abort/lock transitions fan wake-ups and HLA
                    // traffic out to arbitrary cores — global, but the
                    // shared state is pure sync machinery, so a static
                    // analysis may refine it (see `EvDesc::sync`).
                    Some(
                        GuestOp::TxCommit
                        | GuestOp::TxAbortUser
                        | GuestOp::HlBegin
                        | GuestOp::HlEnd
                        | GuestOp::FallbackBegin
                        | GuestOp::FallbackEnd,
                    ) => {
                        d.global = true;
                        d.sync = true;
                    }
                    // Barrier and page faults touch engine-global state
                    // beyond sync machinery. None (unstaged) only happens
                    // on the unscheduled path.
                    _ => d.global = true,
                }
                d
            }
            Ev::Respond(c, _) => EvDesc {
                class: EvClass::Respond,
                cores: 1 << c,
                line: None,
                bank: None,
                global: false,
                sync: false,
                id: 0,
            },
            Ev::Net(m) => self.describe_net(m),
            Ev::Notice(n) => {
                let (core, global) = match n {
                    CoreNotice::AccessDone { core }
                    | CoreNotice::AccessRejected { core, .. }
                    | CoreNotice::TxAborted { core, .. }
                    | CoreNotice::Wakeup { core } => (*core, false),
                    // HlaResult triggers enter_lock / finish_hla, which
                    // release or acquire globally shared lock state.
                    CoreNotice::HlaResult { core, .. } => (*core, true),
                };
                EvDesc {
                    class: EvClass::Notice,
                    cores: 1 << core,
                    line: None,
                    bank: None,
                    global,
                    // The only global notice is HlaResult: lock-mode sync
                    // machinery, refinable against proven-pure cores.
                    sync: global,
                    id: 0,
                }
            }
            Ev::Retry(c, _) | Ev::ParkTimeout(c, _) => {
                // A firing retry reissues the parked access.
                let line = match self.ctl[*c].cur_op {
                    Some(GuestOp::Load(a) | GuestOp::Store(a, _) | GuestOp::Cas(a, ..)) => {
                        Some(a.line())
                    }
                    _ => None,
                };
                EvDesc {
                    class: if matches!(ev, Ev::Retry(..)) {
                        EvClass::Retry
                    } else {
                        EvClass::ParkTimeout
                    },
                    cores: 1 << c,
                    line,
                    bank: line.map(bank_of),
                    global: false,
                    sync: false,
                    id: 0,
                }
            }
        };
        d.id = self.event_id(ev);
        d
    }

    fn describe_net(&self, m: &NetMsg) -> EvDesc {
        let bank_of = |line: sim_core::types::LineAddr| (line.0 as usize) % self.cfg.num_banks();
        let mut d = EvDesc {
            class: EvClass::Net,
            cores: 0,
            line: None,
            bank: None,
            global: false,
            sync: false,
            id: 0,
        };
        match m {
            NetMsg::Req(req) => {
                d.cores = 1 << req.core;
                d.line = Some(req.line);
            }
            NetMsg::PutM { core, line }
            | NetMsg::PutClean { core, line }
            | NetMsg::SpecWb { core, line }
            | NetMsg::Unblock { core, line } => {
                d.cores = 1 << core;
                d.line = Some(*line);
            }
            // Overflow signatures are consulted by every HTM request.
            NetMsg::SigAdd { line, .. } => {
                d.line = Some(*line);
                d.global = true;
            }
            NetMsg::FwdGetS { to, req } | NetMsg::Inv { to, req, .. } => {
                d.cores = (1 << to) | (1 << req.core);
                d.line = Some(req.line);
            }
            NetMsg::ProbeRsp { from, req, .. } => {
                d.cores = (1 << from) | (1 << req.core);
                d.line = Some(req.line);
            }
            NetMsg::Grant { to, line, .. } | NetMsg::RspReject { to, line, .. } => {
                d.cores = 1 << to;
                d.line = Some(*line);
            }
            NetMsg::Wakeup { to } => d.cores = 1 << to,
            // HLA arbiter traffic serializes at one global point — sync
            // machinery only, so refinable against proven-pure cores.
            NetMsg::HlaReq { core, .. } | NetMsg::HlaRel { core } => {
                d.cores = 1 << core;
                d.global = true;
                d.sync = true;
            }
            NetMsg::HlaRsp { to, .. } => {
                d.cores = 1 << to;
                d.global = true;
                d.sync = true;
            }
        }
        d.bank = d.line.map(bank_of);
        d
    }

    /// Stable identity hash for an event: used by the explorer to match
    /// "the same" event across replays of one decision prefix. Hashed
    /// structurally: a kind tag, then the event's fields (a `Recv` by the
    /// op staged at its core). Park/retry sequence tags are volatile
    /// (they depend on unrelated scheduling) and are normalized to
    /// whether they match the core's current park.
    fn event_id(&self, ev: &Ev) -> u64 {
        let mut h = FxHasher::default();
        match ev {
            Ev::Recv(c) => (0u8, c, self.ctl[*c].staged_op).hash(&mut h),
            Ev::Respond(c, resp) => (1u8, c, resp).hash(&mut h),
            Ev::Net(m) => (2u8, m).hash(&mut h),
            Ev::Notice(n) => (3u8, n).hash(&mut h),
            Ev::Retry(c, seq) => (4u8, c, self.ctl[*c].parked == Some(*seq)).hash(&mut h),
            Ev::ParkTimeout(c, seq) => (5u8, c, self.ctl[*c].parked == Some(*seq)).hash(&mut h),
        }
        h.finish()
    }

    /// FxHash fingerprint of the architectural state: per-core controller
    /// state (volatile accounting excluded), write buffers, flat memory,
    /// the pending event queue (volatile sequence tags normalized), and
    /// the memory subsystem. Guest-thread state is covered by each
    /// core's response-history hash (`resp_hash`): a deterministic
    /// guest's position is a pure function of the responses it has seen.
    ///
    /// Used by the schedule explorer to merge states reached by
    /// different interleavings; a collision-free fingerprint match
    /// implies identical continuations.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        for (i, c) in self.ctl.iter().enumerate() {
            (i, c.in_tx, c.is_stl, c.tx_insts, c.tx_refs).hash(&mut h);
            (
                c.switch_tried,
                c.respond_scheduled,
                c.parked.is_some(),
                c.wakeup_banked,
                c.switch_pending,
                c.tl_pending,
                c.finished,
                c.resp_hash,
            )
                .hash(&mut h);
            (c.doomed, c.cur_op, c.deferred_op, c.staged_op).hash(&mut h);
        }
        for (i, b) in self.bufs.iter().enumerate() {
            (i, b.len()).hash(&mut h);
            b.for_each_sorted(|a, v| (a.0, v).hash(&mut h));
        }
        self.mem.digest().hash(&mut h);
        self.barrier_waiting.hash(&mut h);
        self.done_count.hash(&mut h);
        // Pages are monotone; XOR keeps the fold order-independent.
        let mut pages = 0u64;
        for p in &self.touched_pages {
            let mut ph = FxHasher::default();
            p.hash(&mut ph);
            pages ^= ph.finish();
        }
        pages.hash(&mut h);
        self.q.for_each_sorted(|at, ev| {
            at.hash(&mut h);
            self.event_id(ev).hash(&mut h);
        });
        self.ms.fingerprint(&mut h);
        h.finish()
    }

    /// The memory system's fingerprint alone (test builds).
    #[cfg(test)]
    pub(crate) fn ms_fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        self.ms.fingerprint(&mut h);
        h.finish()
    }

    /// Consume the engine, producing run statistics.
    pub fn into_stats(mut self) -> (RunStats, FlatMem) {
        self.stats.cycles = self.end_time;
        for c in 0..self.threads {
            let tracker = std::mem::take(&mut self.ctl[c].tracker);
            self.stats.merge_core(c, &tracker);
        }
        self.stats.rejects = self.ms.stats.rejects;
        self.stats.sig_rejects = self.ms.stats.sig_rejects;
        self.stats.wakeups = self.ms.stats.wakeups_sent;
        let noc = self.ms.noc_stats();
        self.stats.messages = noc.messages;
        self.stats.hops = noc.hops;
        self.stats.flit_hops = noc.flit_hops;
        self.stats.noc_queue_cycles = noc.queue_cycles;
        self.stats.noc_link_busy = noc.link_busy.clone();
        let banks = self.ms.bank_stats();
        self.stats.bank_hits = banks.hits;
        self.stats.bank_misses = banks.misses;
        self.stats.bank_queued = banks.queued;
        self.stats.bank_queue_peak = banks.queue_peak;
        self.stats.threads = self.threads;
        (self.stats, self.mem)
    }

    // ---------------- op handling ----------------

    fn update_prio(&mut self, core: CoreId) {
        let p = match self.cfg.policy.priority {
            PriorityKind::InstsBased => self.ctl[core].tx_insts,
            PriorityKind::ProgressionBased => self.ctl[core].tx_refs,
            PriorityKind::RequesterWins | PriorityKind::Fcfs => 0,
        };
        // Seeded bug for checker validation: priorities decay as the
        // transaction makes progress instead of accumulating, violating
        // the monotonicity the recovery argument depends on.
        let p = if self.cfg.check.fault.prio_decay {
            PRIO_DECAY_BASE.saturating_sub(p)
        } else {
            p
        };
        self.ms.set_prio(core, p);
    }

    fn handle_op(&mut self, t: Cycle, core: CoreId, op: GuestOp) {
        // A protocol abort that arrived between ops is delivered on the
        // next transactional interaction. If the memory subsystem has
        // already aborted us but its notice has not landed yet, defer the
        // op and answer it with the abort when the notice arrives.
        if self.ctl[core].in_tx {
            if let Some(cause) = self.ctl[core].doomed.take() {
                self.deliver_abort(t, core, cause);
                return;
            }
            if self.ms.core_mode(core) == TxMode::None {
                self.ctl[core].deferred_op = Some(op);
                return;
            }
        }
        match op {
            GuestOp::Compute(n) => {
                if self.ctl[core].in_tx {
                    self.ctl[core].tx_insts += n;
                    self.update_prio(core);
                }
                self.schedule_respond(core, t + n, GuestResp::Done);
            }
            GuestOp::Load(_) | GuestOp::Store(..) | GuestOp::Cas(..) => {
                self.start_access(t, core, op, false);
            }
            GuestOp::TxBegin => {
                self.trace.record(t, core, TraceKind::TxBegin);
                self.begin_txn(core);
                self.life[core].begin_attempt(t);
                self.stats.tx_starts += 1;
                self.ms.begin_htm(core, 0);
                let c = &mut self.ctl[core];
                c.in_tx = true;
                c.is_stl = false;
                c.switch_tried = false;
                c.tx_insts = 0;
                c.tx_refs = 0;
                c.tx_begin_at = t;
                self.update_prio(core);
                self.attr(core, t);
                self.ctl[core].spec = true;
                self.schedule_respond(core, t + 2, GuestResp::Done);
            }
            GuestOp::TTest => {
                let v = match self.ms.core_mode(core) {
                    TxMode::LockStl => TTest::STL,
                    TxMode::LockTl => TTest::TL,
                    _ => TTest::HTM,
                };
                self.schedule_respond(core, t + 1, GuestResp::Value(v));
            }
            GuestOp::TxCommit => {
                debug_assert!(!self.ctl[core].is_stl, "STL commits via hlend");
                let (rs, ws) = self.ms.tx_set_sizes(core);
                self.stats.rs_lines_sum += rs;
                self.stats.ws_lines_sum += ws;
                self.stats.tx_cycles_sum += t - self.ctl[core].tx_begin_at;
                self.ms.commit_htm(t, core);
                self.drain_ms();
                let buf = &mut self.bufs[core];
                buf.commit(&mut self.mem);
                self.trace.record(t, core, TraceKind::Commit);
                self.stats.commits += 1;
                self.life[core].commit(t, TxnClass::HtmCommit, &mut self.stats.latency);
                self.ctl[core].in_tx = false;
                self.ctl[core].cur_txn = 0;
                self.ctl[core].resolve = Some(Phase::Htm);
                self.ctl[core].phase_after = Some(Phase::NonTran);
                self.schedule_respond(core, t + COMMIT_PENALTY, GuestResp::Done);
            }
            GuestOp::TxAbortUser => {
                // _xabort: lock observed taken at subscription time.
                self.do_abort(t, core, AbortCause::Mutex);
            }
            GuestOp::HlBegin => {
                if self.cfg.policy.switching_mode {
                    // TL entry also needs the LLC's authorization when
                    // switchingMode may have an STL holder (§III-C).
                    // The lifecycle opens now so arbitration wait counts
                    // toward the lock-commit latency; the hold interval
                    // opens at the grant.
                    self.life[core].begin_attempt(t);
                    self.ctl[core].tl_pending = true;
                    self.trace.record(t, core, TraceKind::HlaRequest);
                    self.ms.hla_request(t, core, false);
                    self.drain_ms();
                } else {
                    self.ms.enter_lock(core, false);
                    self.trace.record(t, core, TraceKind::HlBegin);
                    self.begin_txn(core);
                    self.life[core].begin_hold(t);
                    self.stats.fallbacks += 1;
                    self.set_phase(core, t, Phase::Lock);
                    self.schedule_respond(core, t + 2, GuestResp::Done);
                }
            }
            GuestOp::HlEnd => {
                self.trace.record(t, core, TraceKind::HlEnd);
                if self.ctl[core].is_stl {
                    let (rs, ws) = self.ms.tx_set_sizes(core);
                    self.stats.rs_lines_sum += rs;
                    self.stats.ws_lines_sum += ws;
                    self.stats.tx_cycles_sum += t - self.ctl[core].tx_begin_at;
                    self.ms.exit_lock(t, core);
                    self.drain_ms();
                    self.stats.commits += 1;
                    self.stats.stl_commits += 1;
                    self.life[core].commit(t, TxnClass::StlCommit, &mut self.stats.latency);
                    let c = &mut self.ctl[core];
                    c.in_tx = false;
                    c.is_stl = false;
                    c.resolve = Some(Phase::SwitchLock);
                    c.phase_after = Some(Phase::NonTran);
                } else {
                    self.ms.exit_lock(t, core);
                    self.drain_ms();
                    self.stats.lock_commits += 1;
                    self.life[core].commit(t, TxnClass::LockCommit, &mut self.stats.latency);
                    self.ctl[core].phase_after = Some(Phase::NonTran);
                }
                self.ctl[core].cur_txn = 0;
                self.schedule_respond(core, t + 2, GuestResp::Done);
            }
            GuestOp::SpinWait { acquire } => {
                // The guest's op begins the wait; the loop's closing op
                // (`spin_next`) ends it.
                let (phase, spin) = match self.ctl[core].spin {
                    None => {
                        let last = SpinOp::Begin;
                        (Phase::WaitLock, Some(Spin { acquire, last }))
                    }
                    Some(s) => {
                        debug_assert_eq!(s.last, SpinOp::End);
                        (Phase::NonTran, None)
                    }
                };
                self.ctl[core].spin = spin;
                self.set_phase(core, t, phase);
                self.schedule_respond(core, t, GuestResp::Done);
            }
            #[cfg(test)]
            GuestOp::SpinBegin => {
                self.set_phase(core, t, Phase::WaitLock);
                self.schedule_respond(core, t, GuestResp::Done);
            }
            #[cfg(test)]
            GuestOp::SpinEnd => {
                self.set_phase(core, t, Phase::NonTran);
                self.schedule_respond(core, t, GuestResp::Done);
            }
            GuestOp::FallbackBegin => {
                self.ms.set_fallback(core, true);
                self.trace.record(t, core, TraceKind::Fallback);
                self.begin_txn(core);
                self.life[core].begin_hold(t);
                self.stats.fallbacks += 1;
                self.set_phase(core, t, Phase::Lock);
                self.schedule_respond(core, t, GuestResp::Done);
            }
            GuestOp::FallbackEnd => {
                self.ms.set_fallback(core, false);
                self.trace.record(t, core, TraceKind::FallbackEnd);
                self.ctl[core].cur_txn = 0;
                self.stats.lock_commits += 1;
                self.life[core].commit(t, TxnClass::LockCommit, &mut self.stats.latency);
                self.set_phase(core, t, Phase::NonTran);
                self.schedule_respond(core, t, GuestResp::Done);
            }
            GuestOp::PageTouch(p) => {
                if self.touched_pages.contains(&p) {
                    self.schedule_respond(core, t, GuestResp::Done);
                } else {
                    // Demand-paging fault: maps the page either way; inside
                    // an HTM transaction it aborts (best-effort HTM does
                    // not survive exceptions, and switchingMode explicitly
                    // does not cover faults — §III-C).
                    self.touched_pages.insert(p);
                    if self.ms.core_mode(core) == TxMode::Htm {
                        self.do_abort(t, core, AbortCause::Fault);
                    } else {
                        self.schedule_respond(core, t + FAULT_SERVICE, GuestResp::Done);
                    }
                }
            }
            GuestOp::Barrier => {
                self.set_phase(core, t, Phase::NonTran);
                self.barrier_waiting.push(core);
                let live = self.threads - self.done_count;
                if self.barrier_waiting.len() == live {
                    let waiters = std::mem::take(&mut self.barrier_waiting);
                    for w in waiters {
                        self.schedule_respond(w, t + 1, GuestResp::Done);
                    }
                }
            }
            GuestOp::Exit => {
                self.attr(core, t);
                self.ctl[core].finished = true;
                self.done_count += 1;
                self.end_time = self.end_time.max(t);
                // Anyone blocked on a barrier with us gone would hang; a
                // well-formed workload exits only after its last barrier.
                let live = self.threads - self.done_count;
                if live > 0
                    && !self.barrier_waiting.is_empty()
                    && self.barrier_waiting.len() == live
                {
                    let waiters = std::mem::take(&mut self.barrier_waiting);
                    for w in waiters {
                        self.schedule_respond(w, t + 1, GuestResp::Done);
                    }
                }
            }
        }
    }

    // ---------------- memory accesses ----------------

    fn start_access(&mut self, t: Cycle, core: CoreId, op: GuestOp, reissue: bool) {
        let (addr, kind) = match op {
            GuestOp::Load(a) => (a, AccessKind::Load),
            GuestOp::Store(a, _) | GuestOp::Cas(a, ..) => (a, AccessKind::Store),
            _ => unreachable!(),
        };
        if !reissue && self.ctl[core].in_tx {
            self.ctl[core].tx_insts += 1;
            self.ctl[core].tx_refs += 1;
            self.update_prio(core);
        }
        self.ctl[core].cur_op = Some(op);
        // Every arm drains the memory system first, so the drain hoists
        // above the match (and into the coherence profiling scope).
        self.prof_enter(ProfPhase::Coherence);
        let res = self.ms.access(t, core, addr.line(), kind);
        self.drain_ms();
        self.prof_exit();
        match res {
            AccessResult::Done { at } => self.complete_access(at, core),
            AccessResult::Pending => {}
            AccessResult::Overflow { .. } => self.handle_overflow(t, core),
        }
    }

    /// Capacity overflow in HTM mode: proactive switch (Fig. 6) or abort.
    fn handle_overflow(&mut self, t: Cycle, core: CoreId) {
        let can_switch = self.cfg.policy.switching_mode
            && self.cfg.policy.htmlock
            && !self.ctl[core].switch_tried
            && self.ctl[core].in_tx;
        if can_switch {
            self.ctl[core].switch_tried = true;
            self.ctl[core].switch_pending = true;
            self.trace.record(t, core, TraceKind::HlaRequest);
            self.ms.hla_request(t, core, true);
            self.drain_ms();
        } else {
            self.do_abort(t, core, AbortCause::Of);
        }
    }

    /// Value semantics at access completion time.
    fn complete_access(&mut self, t: Cycle, core: CoreId) {
        self.ctl[core].wakeup_banked = false;
        let op = self.ctl[core].cur_op.take().expect("completion without op");
        // Buffer speculative values based on the ENGINE's view of the
        // transaction, not the memory subsystem's: a protocol abort may
        // already have flipped the memsys mode to None while its notice
        // is still queued behind this completion — writing flat memory
        // then would leak a dying transaction's store (the abort notice
        // converts the response to Aborted and discards the buffer).
        let htm = self.ctl[core].in_tx && !self.ctl[core].is_stl;
        // Checked mode records access events at the instant the value
        // resolves: trace-vector order therefore matches flat-memory /
        // write-buffer visibility order exactly, which is what the
        // serializability checker keys its edges on.
        let checked = self.cfg.check.enabled;
        let txn = self.ctl[core].cur_txn;
        let prio = self.ms.prio_of(core);
        let resp = match op {
            GuestOp::Load(a) => {
                let v = if htm {
                    self.bufs[core].read(&self.mem, a)
                } else {
                    self.mem.read(a)
                };
                if checked {
                    self.trace.record(
                        t,
                        core,
                        TraceKind::Read {
                            line: a.line(),
                            txn,
                            prio,
                        },
                    );
                }
                GuestResp::Value(v)
            }
            GuestOp::Store(a, v) => {
                if htm {
                    self.bufs[core].write(a, v);
                } else {
                    self.mem.write(a, v);
                }
                if checked {
                    self.trace.record(
                        t,
                        core,
                        TraceKind::Write {
                            line: a.line(),
                            txn,
                            buffered: htm,
                        },
                    );
                }
                GuestResp::Done
            }
            GuestOp::Cas(a, expected, new) => {
                let cur = if htm {
                    self.bufs[core].read(&self.mem, a)
                } else {
                    self.mem.read(a)
                };
                if checked {
                    self.trace.record(
                        t,
                        core,
                        TraceKind::Read {
                            line: a.line(),
                            txn,
                            prio,
                        },
                    );
                }
                if cur == expected {
                    if htm {
                        self.bufs[core].write(a, new);
                    } else {
                        self.mem.write(a, new);
                    }
                    if checked {
                        self.trace.record(
                            t,
                            core,
                            TraceKind::Write {
                                line: a.line(),
                                txn,
                                buffered: htm,
                            },
                        );
                    }
                }
                GuestResp::Value(cur)
            }
            other => unreachable!("complete_access on {other:?}"),
        };
        if let GuestResp::Value(word) = resp {
            if self.lane_can_take(core, word) {
                self.lane_enter(core, t, word);
                return;
            }
        }
        self.schedule_respond(core, t, resp);
    }

    fn reissue(&mut self, t: Cycle, core: CoreId) {
        let op = self.ctl[core].cur_op.take().expect("reissue without op");
        self.start_access(t, core, op, true);
    }

    // ---------------- aborts ----------------

    /// Engine-initiated abort (explicit xabort, fault, overflow, failed
    /// switch, self-abort on reject).
    fn do_abort(&mut self, t: Cycle, core: CoreId, cause: AbortCause) {
        self.ms.abort_locally(t, core);
        self.drain_ms();
        self.stats.record_abort(cause);
        self.deliver_abort(t, core, cause);
    }

    /// Common abort delivery (memory-subsystem side already cleaned up).
    fn deliver_abort(&mut self, t: Cycle, core: CoreId, cause: AbortCause) {
        self.bufs[core].discard();
        self.attr(core, t);
        self.life[core].on_abort(t, cause, &mut self.stats.latency);
        let c = &mut self.ctl[core];
        c.tracker.resolve_spec(Phase::Aborted);
        c.spec = false;
        c.in_tx = false;
        c.is_stl = false;
        c.cur_txn = 0;
        debug_assert!(
            !c.switch_pending,
            "an abort waits for its switch request's answer"
        );
        c.cur_op = None;
        c.deferred_op = None;
        c.parked = None;
        c.wakeup_banked = false;
        c.doomed = None;
        c.phase = Phase::Rollback;
        c.phase_after = Some(Phase::NonTran);
        self.ms.cancel_pending(core);
        self.trace.record(t, core, TraceKind::Abort(cause));
        self.schedule_respond(core, t + ABORT_PENALTY, GuestResp::Aborted(cause));
    }

    // ---------------- notices ----------------

    fn handle_notice(&mut self, t: Cycle, n: CoreNotice) {
        match n {
            CoreNotice::AccessDone { core } => {
                if self.ctl[core].cur_op.is_some() && self.ctl[core].parked.is_none() {
                    self.complete_access(t, core);
                }
            }
            CoreNotice::AccessRejected { core, by_sig } => {
                self.trace.record(t, core, TraceKind::Rejected { by_sig });
                self.handle_reject(t, core, by_sig);
            }
            CoreNotice::TxAborted { core, cause } => {
                // Protocol-side abort (probe loss / back-invalidation).
                self.stats.record_abort(cause);
                if self.ctl[core].respond_scheduled || self.ctl[core].switch_pending {
                    // Mid-compute or similar: convert the scheduled
                    // response into an abort when it fires. A
                    // back-invalidation can also land while a switch
                    // request is in flight (it is never blocked): the
                    // abort then waits for the arbiter's answer.
                    self.bufs[core].discard();
                    self.ctl[core].doomed = Some(cause);
                } else if self.ctl[core].cur_op.is_some() || self.ctl[core].deferred_op.is_some() {
                    // Blocked in the coherence layer, parked, or an op was
                    // deferred waiting for exactly this notice.
                    self.deliver_abort(t, core, cause);
                } else {
                    // Between ops: deliver on the next one.
                    self.bufs[core].discard();
                    self.ctl[core].doomed = Some(cause);
                }
            }
            CoreNotice::Wakeup { core } => {
                if self.ctl[core].parked.is_some() {
                    self.trace.record(t, core, TraceKind::Woken);
                    self.ctl[core].parked = None;
                    self.ctl[core].wakeup_banked = false;
                    self.life[core].unpark(t, &mut self.stats.latency);
                    self.reissue(t, core);
                } else if self.ctl[core].cur_op.is_some() {
                    // The reject this wake-up answers is still in flight
                    // (wake-ups travel core-to-core and can overtake the
                    // directory's reject response). Bank it.
                    self.ctl[core].wakeup_banked = true;
                }
            }
            CoreNotice::HlaResult { core, granted } => {
                if self.ctl[core].tl_pending {
                    assert!(
                        granted,
                        "TL authorization is granted or queued, never denied"
                    );
                    self.ctl[core].tl_pending = false;
                    self.ms.enter_lock(core, false);
                    // Record the grant so hlend releases the arbiter.
                    self.ms.finish_hla(t, core, true);
                    self.drain_ms();
                    self.trace.record(t, core, TraceKind::HlBegin);
                    self.begin_txn(core);
                    self.life[core].begin_hold(t);
                    self.stats.fallbacks += 1;
                    self.set_phase(core, t, Phase::Lock);
                    self.schedule_respond(core, t + 2, GuestResp::Done);
                } else if self.ctl[core].switch_pending {
                    self.ctl[core].switch_pending = false;
                    let doomed = self.ctl[core].doomed.take();
                    if granted && doomed.is_none() {
                        // Successful proactive switch: speculative state
                        // becomes permanent, priority becomes lock-level,
                        // and the blocked access retries in STL mode.
                        self.ms.enter_lock(core, true);
                        self.bufs[core].commit(&mut self.mem);
                        self.ms.finish_hla(t, core, true);
                        self.drain_ms();
                        self.ctl[core].is_stl = true;
                        self.life[core].begin_hold(t);
                        self.trace.record(t, core, TraceKind::SwitchGranted);
                        self.stats.switches_granted += 1;
                        self.reissue(t, core);
                    } else {
                        // Denied, or the transaction died while the request
                        // was in flight (the memory system then hands a
                        // grant straight back).
                        self.ms.finish_hla(t, core, granted);
                        self.drain_ms();
                        self.trace.record(t, core, TraceKind::SwitchDenied);
                        self.stats.switches_denied += 1;
                        if let Some(cause) = doomed {
                            self.deliver_abort(t, core, cause);
                        } else if self.ms.core_mode(core).is_tx() {
                            self.do_abort(t, core, AbortCause::Of);
                        }
                        // Otherwise a probe that `finish_hla` replayed
                        // aborted the transaction, and its queued
                        // `TxAborted` notice delivers that abort.
                    }
                }
            }
        }
    }

    fn handle_reject(&mut self, t: Cycle, core: CoreId, by_sig: bool) {
        let action = self.cfg.policy.reject_action;
        let in_tx = self.ctl[core].in_tx;
        match action {
            RejectAction::SelfAbort if in_tx && !by_sig => {
                self.do_abort(t, core, AbortCause::Mc);
            }
            RejectAction::RetryLater => {
                let seq = self.next_seq();
                self.ctl[core].parked = Some(seq);
                self.life[core].park(t);
                self.trace.record(t, core, TraceKind::Parked);
                self.q.schedule_at(t + RETRY_PAUSE, Ev::Retry(core, seq));
            }
            _ => {
                // WaitWakeup (and non-tx/sig rejects under SelfAbort,
                // which cannot abort anything useful): park until the
                // rejecter's commit/abort/hlend wakes us — unless the
                // wake-up already arrived, in which case retry now.
                if self.ctl[core].wakeup_banked {
                    self.ctl[core].wakeup_banked = false;
                    if self.cfg.check.enabled {
                        // The wake-up overtook its reject; checked mode
                        // still wants the Rejected -> Woken pairing.
                        self.trace.record(t, core, TraceKind::Woken);
                    }
                    self.reissue(t, core);
                    return;
                }
                let seq = self.next_seq();
                self.ctl[core].parked = Some(seq);
                self.life[core].park(t);
                self.trace.record(t, core, TraceKind::Parked);
                // wakeup_timeout == Cycle::MAX disables the safety net
                // entirely (schedule-explorer mode: a lost wake-up must
                // surface as a deadlock, not a silent timeout recovery).
                if self.cfg.policy.wakeup_timeout != Cycle::MAX {
                    self.q.schedule_at(
                        t + self.cfg.policy.wakeup_timeout,
                        Ev::ParkTimeout(core, seq),
                    );
                }
            }
        }
    }
}
