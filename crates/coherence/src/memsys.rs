//! The memory subsystem: private L1s + banked directory LLC + NoC + HTM
//! extensions, orchestrated as one state machine.
//!
//! The engine (in the `lockiller` crate) drives this through three entry
//! points:
//!
//! - [`MemSystem::access`] — a core performs a load/store;
//! - [`MemSystem::handle_msg`] — a previously scheduled NoC message
//!   arrives (the engine owns the event queue);
//! - mode-transition calls (`begin_htm`, `commit_htm`, `abort_locally`,
//!   `enter_lock`, `exit_lock`, `hla_request`, `finish_hla`).
//!
//! After every call the engine drains [`MemSystem::take_outputs`]:
//! `(cycle, NetMsg)` pairs to re-schedule and `(cycle, CoreNotice)` pairs
//! informing the per-core controllers of completions, rejects, aborts,
//! wake-ups, and HLA results.
//!
//! See the crate docs for the value/timing decoupling argument.

use crate::arbiter::{HlaArbiter, HlaDecision};
use crate::bank::{Bank, CoreSet, DirState, Pending};
use crate::bloom::Signature;
use crate::l1::{Mesi, Victim, L1};
use crate::msg::{
    arbitrate, GrantState, L1Rsp, NetMsg, Prio, ReqInfo, ReqKind, ReqMode, TxMode, Winner,
    PRIO_LOCK,
};
use noc::Mesh;
use sim_core::config::{RejectAction, SystemConfig, MAX_CORES, SIGNATURE_HASHES};
use sim_core::obs::{ConflictEdge, ConflictResolution, Metric, MetricSpec, RecoveryAction};
use sim_core::stats::AbortCause;
use sim_core::types::{CoreId, Cycle, LineAddr};

/// Kind of core access, protocol-wise. CAS needs write permission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    Load,
    Store,
}

/// Immediate outcome of [`MemSystem::access`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessResult {
    /// L1 hit; complete at the given cycle.
    Done { at: Cycle },
    /// Request issued; a notice will follow.
    Pending,
    /// The fill would have to evict a transactional line while in HTM
    /// mode: a capacity overflow event. The engine decides (abort vs
    /// proactive switch).
    Overflow { kind: OverflowKind },
}

/// Why an access could not proceed. Currently only HTM capacity; the enum
/// exists so that fault-style overflows can be added orthogonally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverflowKind {
    HtmCapacity,
}

/// Protocol-level events recorded in checked mode (`CheckCfg::enabled`)
/// for the `tmcheck` invariant checkers. Distinct from [`CoreNotice`]:
/// these are observations, not control flow — dropping them changes
/// nothing about the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoEvent {
    /// `from` (a probed owner) NACKed `to`'s request for `line` under the
    /// recovery mechanism.
    NackSent {
        from: CoreId,
        to: CoreId,
        line: LineAddr,
    },
    /// `from` sent a wake-up to previously rejected core `to` (commit,
    /// abort, or hlend drained its wake list / the signature waiters).
    WakeSent { from: CoreId, to: CoreId },
}

/// Scheduled network messages and core notices drained by the engine
/// after each call into the memory system.
pub type Outputs = (Vec<(Cycle, NetMsg)>, Vec<(Cycle, CoreNotice)>);

/// Asynchronous notifications to the per-core controllers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CoreNotice {
    /// The pending access completed.
    AccessDone { core: CoreId },
    /// The pending access was rejected (recovery NACK or LLC signature).
    AccessRejected { core: CoreId, by_sig: bool },
    /// A probe (or back-invalidation) aborted this core's transaction.
    /// The L1 side is already cleaned up; the controller must unwind the
    /// guest.
    TxAborted { core: CoreId, cause: AbortCause },
    /// A rejecter committed/aborted: retry the parked request.
    Wakeup { core: CoreId },
    /// HLA arbitration result for an earlier [`MemSystem::hla_request`].
    HlaResult { core: CoreId, granted: bool },
}

/// Per-core protocol-side metadata.
#[derive(Clone, Debug, Hash)]
struct CoreMeta {
    mode: TxMode,
    prio: Prio,
    /// In-flight fallback critical section (baseline): classifies this
    /// core's non-transactional requests as `ReqMode::Fallback`.
    in_fallback: bool,
    /// Bumped on every abort/commit so late responses are recognized.
    attempt: u64,
    pending: Option<PendingAccess>,
    /// Cores this core has rejected; woken at commit/abort (the green
    /// table in Fig. 2 of the paper).
    wake_list: Vec<CoreId>,
    /// applyingHLA: external probes are blocked while the switch request
    /// is in flight (Fig. 6).
    applying_hla: bool,
    blocked_probes: Vec<NetMsg>,
    /// Holds the HLA arbiter grant (must release at hlend).
    hla_held: bool,
}

#[derive(Clone, Copy, Debug, Hash)]
struct PendingAccess {
    line: LineAddr,
    set_r: bool,
    set_w: bool,
    attempt: u64,
}

/// Per-bank end-of-run statistics (parallel vectors in bank order).
#[derive(Clone, Debug, Default)]
pub struct BankRunStats {
    pub hits: Vec<u64>,
    pub misses: Vec<u64>,
    pub queued: Vec<u64>,
    pub queue_peak: Vec<u64>,
}

/// Metric registrations for an `n`-bank LLC: directory queue depth and
/// busy-entry gauges per bank.
pub fn obs_metric_specs(banks: usize) -> Vec<MetricSpec> {
    let mut specs = Vec::with_capacity(banks * 2);
    for b in 0..banks {
        specs.push(MetricSpec::new(
            Metric::BankQueueDepth(b as u16),
            "reqs",
            "requests queued behind busy directory entries",
        ));
        specs.push(MetricSpec::new(
            Metric::BankBusy(b as u16),
            "entries",
            "directory entries with probes or unblock outstanding",
        ));
    }
    specs
}

/// Aggregate protocol statistics for a run.
#[derive(Clone, Debug, Default)]
pub struct MemStats {
    pub rejects: u64,
    pub sig_rejects: u64,
    pub wakeups_sent: u64,
    pub spills: u64,
    pub back_invals: u64,
    pub spec_writebacks: u64,
    pub l1_evictions: u64,
}

/// The complete memory system.
#[derive(Clone)]
pub struct MemSystem {
    cfg: SystemConfig,
    l1s: Vec<L1>,
    meta: Vec<CoreMeta>,
    banks: Vec<Bank>,
    mesh: Mesh,
    sig_rd: Signature,
    sig_wr: Signature,
    sig_waiters: Vec<CoreId>,
    arbiter: HlaArbiter,
    mutex_line: Option<LineAddr>,
    out_msgs: Vec<(Cycle, NetMsg)>,
    notices: Vec<(Cycle, CoreNotice)>,
    proto_events: Vec<(Cycle, ProtoEvent)>,
    /// Conflict-edge observations for forensics; populated only when
    /// [`MemSystem::set_record_conflicts`] armed them (the engine does so
    /// iff its trace records spans). Write-only, like
    /// [`ProtoEvent`]s: dropping them changes nothing.
    conflicts: Vec<(Cycle, ConflictEdge)>,
    record_conflicts: bool,
    /// Sum of the L1s' mutation counts at the last passing
    /// [`MemSystem::check_swmr_if_changed`].
    swmr_clean: u64,
    pub stats: MemStats,
}

impl MemSystem {
    pub fn new(cfg: SystemConfig) -> MemSystem {
        let n = cfg.num_cores;
        assert!(
            (1..=MAX_CORES).contains(&n),
            "core count {n} outside 1..={MAX_CORES}"
        );
        let mesh = Mesh::new(cfg.noc.width, cfg.noc.height, cfg.noc.link_latency);
        assert!(mesh.nodes() >= n, "mesh smaller than core count");
        MemSystem {
            l1s: (0..n).map(|_| L1::new(cfg.mem.l1)).collect(),
            meta: (0..n)
                .map(|_| CoreMeta {
                    mode: TxMode::None,
                    prio: 0,
                    in_fallback: false,
                    attempt: 0,
                    pending: None,
                    wake_list: Vec::new(),
                    applying_hla: false,
                    blocked_probes: Vec::new(),
                    hla_held: false,
                })
                .collect(),
            banks: (0..n).map(|_| Bank::new(cfg.mem.llc_bank, n)).collect(),
            mesh,
            sig_rd: Signature::new(cfg.mem.signature_bits, SIGNATURE_HASHES),
            sig_wr: Signature::new(cfg.mem.signature_bits, SIGNATURE_HASHES),
            sig_waiters: Vec::new(),
            arbiter: {
                let mut a = HlaArbiter::new();
                if cfg.check.fault.double_grant {
                    a.inject_double_grant();
                }
                a
            },
            mutex_line: None,
            out_msgs: Vec::new(),
            notices: Vec::new(),
            proto_events: Vec::new(),
            conflicts: Vec::new(),
            record_conflicts: false,
            swmr_clean: 0,
            stats: MemStats::default(),
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Small helpers
    // ------------------------------------------------------------------

    fn home_bank(&self, line: LineAddr) -> usize {
        (line.0 as usize) % self.banks.len()
    }

    fn send(&mut self, now: Cycle, from: usize, to: usize, msg: NetMsg) {
        let flits = if msg.is_data() {
            self.cfg.noc.data_flits
        } else {
            self.cfg.noc.control_flits
        };
        let at = self.mesh.send(now, from, to, flits);
        self.out_msgs.push((at, msg));
    }

    fn notice(&mut self, at: Cycle, n: CoreNotice) {
        self.notices.push((at, n));
    }

    fn proto_event(&mut self, at: Cycle, ev: ProtoEvent) {
        if self.cfg.check.enabled {
            self.proto_events.push((at, ev));
        }
    }

    fn conflict(&mut self, at: Cycle, edge: ConflictEdge) {
        if self.record_conflicts {
            self.conflicts.push((at, edge));
        }
    }

    /// The rejected requester's follow-up under the configured reject
    /// action, mirroring the engine's `handle_reject` dispatch: RAI only
    /// applies to an in-HTM requester NACKed by a peer; signature rejects
    /// and non-transactional requesters always park.
    fn recovery_action_for(&self, mode: ReqMode, by_sig: bool) -> RecoveryAction {
        match self.cfg.policy.reject_action {
            RejectAction::SelfAbort if mode == ReqMode::Htm && !by_sig => RecoveryAction::Rai,
            RejectAction::RetryLater => RecoveryAction::Rri,
            _ => RecoveryAction::Rwi,
        }
    }

    /// Drain scheduled messages and notices accumulated by the last call.
    pub fn take_outputs(&mut self) -> Outputs {
        (
            std::mem::take(&mut self.out_msgs),
            std::mem::take(&mut self.notices),
        )
    }

    /// Drain checked-mode protocol observations (empty unless
    /// `cfg.check.enabled`).
    pub fn take_proto_events(&mut self) -> Vec<(Cycle, ProtoEvent)> {
        std::mem::take(&mut self.proto_events)
    }

    /// Arm (or disarm) conflict-edge recording for forensics. The engine
    /// arms this when its trace records spans; recording is a pure
    /// observation and cannot change protocol decisions.
    pub fn set_record_conflicts(&mut self, on: bool) {
        self.record_conflicts = on;
    }

    /// Drain recorded conflict edges (empty unless armed).
    pub fn take_conflicts(&mut self) -> Vec<(Cycle, ConflictEdge)> {
        std::mem::take(&mut self.conflicts)
    }

    pub fn noc_stats(&self) -> &noc::NocStats {
        self.mesh.stats()
    }

    /// Per-bank end-of-run statistics, in bank order: tag hits, tag
    /// misses, requests that queued, and the queue-depth high-water mark.
    pub fn bank_stats(&self) -> BankRunStats {
        BankRunStats {
            hits: self.banks.iter().map(|b| b.hits).collect(),
            misses: self.banks.iter().map(|b| b.misses).collect(),
            queued: self.banks.iter().map(|b| b.queued).collect(),
            queue_peak: self.banks.iter().map(|b| b.queue_peak).collect(),
        }
    }

    /// Cores currently in (HTM, lock-transaction, fallback) states, for
    /// gauge sampling.
    pub fn mode_counts(&self) -> (u64, u64, u64) {
        let mut htm = 0;
        let mut lock = 0;
        let mut fallback = 0;
        for m in &self.meta {
            match m.mode {
                TxMode::Htm => htm += 1,
                TxMode::LockTl | TxMode::LockStl => lock += 1,
                TxMode::None if m.in_fallback => fallback += 1,
                TxMode::None => {}
            }
        }
        (htm, lock, fallback)
    }

    /// Append one observability sample of the memory system's live state:
    /// per-bank directory queue depths and busy-entry counts, plus the
    /// NoC aggregate and per-link traffic counters. Read-only — sampling
    /// can never perturb the simulation.
    pub fn obs_sample(&self, out: &mut Vec<(Metric, u64)>) {
        for (i, b) in self.banks.iter().enumerate() {
            out.push((Metric::BankQueueDepth(i as u16), b.queue_depth() as u64));
            out.push((Metric::BankBusy(i as u16), b.busy_entries() as u64));
        }
        let ns = self.mesh.stats();
        out.push((Metric::NocMessages, ns.messages));
        out.push((Metric::NocQueueCycles, ns.queue_cycles));
        for (l, &busy) in ns.link_busy.iter().enumerate() {
            if busy > 0 {
                out.push((Metric::LinkBusy(l as u16), busy));
            }
        }
    }

    /// Mark the fallback-lock line so conflicts on it classify as `mutex`.
    pub fn set_mutex_line(&mut self, line: LineAddr) {
        self.mutex_line = Some(line);
    }

    pub fn core_mode(&self, core: CoreId) -> TxMode {
        self.meta[core].mode
    }

    pub fn set_prio(&mut self, core: CoreId, prio: Prio) {
        if !self.meta[core].mode.is_lock() {
            self.meta[core].prio = prio;
        }
    }

    pub fn set_fallback(&mut self, core: CoreId, active: bool) {
        self.meta[core].in_fallback = active;
    }

    pub fn prio_of(&self, core: CoreId) -> Prio {
        self.meta[core].prio
    }

    /// Transaction read/write footprint currently tracked in the L1.
    pub fn tx_footprint(&self, core: CoreId) -> usize {
        self.l1s[core].tx_footprint()
    }

    /// (read-set lines, write-set lines) currently tracked in the L1.
    /// Write-set lines also carry R if read; they count once per class.
    pub fn tx_set_sizes(&self, core: CoreId) -> (u64, u64) {
        let mut r = 0;
        let mut w = 0;
        for l in self.l1s[core].tx_lines() {
            if l.w {
                w += 1;
            } else if l.r {
                r += 1;
            }
        }
        (r, w)
    }

    fn req_mode(&self, core: CoreId) -> ReqMode {
        match self.meta[core].mode {
            TxMode::Htm => ReqMode::Htm,
            TxMode::LockTl | TxMode::LockStl => ReqMode::LockTx,
            TxMode::None => {
                if self.meta[core].in_fallback {
                    ReqMode::Fallback
                } else {
                    ReqMode::NonTx
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Mode transitions (engine-called)
    // ------------------------------------------------------------------

    pub fn begin_htm(&mut self, core: CoreId, initial_prio: Prio) {
        let m = &mut self.meta[core];
        debug_assert_eq!(m.mode, TxMode::None);
        debug_assert_eq!(self.l1s[core].tx_footprint(), 0);
        m.mode = TxMode::Htm;
        m.prio = initial_prio;
    }

    /// Commit an HTM transaction: clear bits, keep speculative lines as M,
    /// wake everyone this core rejected.
    pub fn commit_htm(&mut self, now: Cycle, core: CoreId) {
        debug_assert_eq!(self.meta[core].mode, TxMode::Htm);
        self.l1s[core].commit_tx();
        self.meta[core].mode = TxMode::None;
        self.meta[core].attempt += 1;
        self.meta[core].pending = None;
        self.drain_wake_list(now, core);
    }

    /// Abort the core's transaction from the engine side (self-abort on
    /// reject, explicit xabort, fault, capacity abort, failed switch).
    pub fn abort_locally(&mut self, now: Cycle, core: CoreId) {
        debug_assert!(self.meta[core].mode.is_tx());
        debug_assert!(
            !self.meta[core].mode.is_lock(),
            "lock transactions cannot abort"
        );
        self.l1s[core].abort_tx();
        self.meta[core].mode = TxMode::None;
        self.meta[core].attempt += 1;
        self.meta[core].pending = None;
        self.drain_wake_list(now, core);
    }

    /// Enter HTMLock mode. For TL the caller has already acquired the
    /// software lock (and, with switchingMode, the HLA grant); for STL the
    /// grant arrived via [`CoreNotice::HlaResult`]. Keeps existing
    /// transaction bits: an STL switch carries its read/write sets along.
    pub fn enter_lock(&mut self, core: CoreId, stl: bool) {
        let m = &mut self.meta[core];
        m.mode = if stl { TxMode::LockStl } else { TxMode::LockTl };
        m.prio = PRIO_LOCK;
    }

    /// Leave HTMLock mode (`hlend`): clear bits (lines stay), clear the
    /// overflow signatures, wake signature waiters and rejected cores,
    /// release the HLA grant if held.
    pub fn exit_lock(&mut self, now: Cycle, core: CoreId) {
        debug_assert!(self.meta[core].mode.is_lock());
        self.l1s[core].commit_tx();
        self.meta[core].mode = TxMode::None;
        self.meta[core].prio = 0;
        self.meta[core].attempt += 1;
        self.meta[core].pending = None;
        if !self.sig_rd.is_empty() || !self.sig_wr.is_empty() {
            self.sig_rd.clear();
            self.sig_wr.clear();
        }
        let waiters = std::mem::take(&mut self.sig_waiters);
        for w in waiters {
            if self.cfg.check.fault.drop_wakeups {
                continue;
            }
            self.stats.wakeups_sent += 1;
            self.proto_event(now, ProtoEvent::WakeSent { from: core, to: w });
            self.send(now, core, w, NetMsg::Wakeup { to: w });
        }
        self.drain_wake_list(now, core);
        if self.meta[core].hla_held {
            self.meta[core].hla_held = false;
            self.send(now, core, 0, NetMsg::HlaRel { core });
        }
    }

    /// Request HLA authorization (TL entry under switchingMode, or an STL
    /// proactive switch). The result arrives as [`CoreNotice::HlaResult`].
    /// For STL the core enters the applyingHLA state: external probes are
    /// blocked until [`MemSystem::finish_hla`].
    pub fn hla_request(&mut self, now: Cycle, core: CoreId, stl: bool) {
        if stl {
            self.meta[core].applying_hla = true;
        }
        self.send(now, core, 0, NetMsg::HlaReq { core, stl });
    }

    /// Complete an STL switch attempt: unblock and replay deferred probes.
    /// On grant the caller must also `enter_lock(core, true)` *before*
    /// calling this, so replayed probes see lock-mode priority. A grant
    /// for a core that is not in lock mode (its transaction aborted while
    /// the request was in flight) is released at once.
    pub fn finish_hla(&mut self, now: Cycle, core: CoreId, granted: bool) {
        if granted {
            if self.meta[core].mode.is_lock() {
                self.meta[core].hla_held = true;
            } else {
                self.send(now, core, 0, NetMsg::HlaRel { core });
            }
        }
        self.meta[core].applying_hla = false;
        let blocked = std::mem::take(&mut self.meta[core].blocked_probes);
        for p in blocked {
            self.l1_probe(now, core, p);
        }
    }

    fn drain_wake_list(&mut self, now: Cycle, core: CoreId) {
        let list = std::mem::take(&mut self.meta[core].wake_list);
        for w in list {
            if self.cfg.check.fault.drop_wakeups {
                continue;
            }
            self.stats.wakeups_sent += 1;
            self.proto_event(now, ProtoEvent::WakeSent { from: core, to: w });
            self.send(now, core, w, NetMsg::Wakeup { to: w });
        }
    }

    // ------------------------------------------------------------------
    // Core-side access path
    // ------------------------------------------------------------------

    /// Perform a load/store for `core` on the line containing the access.
    /// Word-level value handling lives in the engine; the protocol works
    /// at line granularity.
    pub fn access(
        &mut self,
        now: Cycle,
        core: CoreId,
        line: LineAddr,
        kind: AccessKind,
    ) -> AccessResult {
        debug_assert!(
            self.meta[core].pending.is_none(),
            "second outstanding access"
        );
        let mode = self.meta[core].mode;
        let is_tx = mode.is_tx();
        let hit_at = now + self.cfg.mem.l1_hit;

        if let Some(l) = self.l1s[core].lookup(line) {
            let state = l.state;
            let had_w = l.w;
            match kind {
                AccessKind::Load => {
                    if is_tx {
                        self.l1s[core].mark_tx(line, true, false);
                    }
                    self.l1s[core].touch(line);
                    return AccessResult::Done { at: hit_at };
                }
                AccessKind::Store => match state {
                    Mesi::Modified | Mesi::Exclusive => {
                        if state == Mesi::Exclusive {
                            self.l1s[core].set_state(line, Mesi::Modified);
                        }
                        if mode == TxMode::Htm && !had_w {
                            if state == Mesi::Modified {
                                // First speculative write to a dirty line:
                                // push the pre-transaction value home so an
                                // abort can simply invalidate (timing-only
                                // in the decoupled value model).
                                self.stats.spec_writebacks += 1;
                                let home = self.home_bank(line);
                                self.send(now, core, home, NetMsg::SpecWb { core, line });
                            }
                            self.l1s[core].mark_tx(line, false, true);
                        } else if mode.is_lock() {
                            self.l1s[core].mark_tx(line, false, true);
                        }
                        self.l1s[core].touch(line);
                        return AccessResult::Done { at: hit_at };
                    }
                    Mesi::Shared => {
                        // Upgrade: GetM while retaining the S copy.
                        return self.issue_request(now, core, line, ReqKind::GetM, kind, true);
                    }
                },
            }
        }

        // Miss: make room, then request.
        match self.make_room(now, core, line) {
            Ok(()) => {}
            Err(kind) => return AccessResult::Overflow { kind },
        }
        let rk = match kind {
            AccessKind::Load => ReqKind::GetS,
            AccessKind::Store => ReqKind::GetM,
        };
        self.issue_request(now, core, line, rk, kind, false)
    }

    /// Ensure a way is free for `line` in `core`'s L1, evicting or
    /// spilling as needed. Errors with an overflow event in HTM mode.
    fn make_room(&mut self, now: Cycle, core: CoreId, line: LineAddr) -> Result<(), OverflowKind> {
        match self.l1s[core].victim_for(line) {
            Victim::Free => Ok(()),
            Victim::Evict(v) => {
                self.evict_line(now, core, v.line, v.state);
                Ok(())
            }
            Victim::Overflow(v) => {
                let mode = self.meta[core].mode;
                if mode.is_lock() {
                    // HTMLock spill: set membership moves into the LLC
                    // signatures (Fig. 5 (2)).
                    self.stats.spills += 1;
                    let home = self.home_bank(v.line);
                    self.send(
                        now,
                        core,
                        home,
                        NetMsg::SigAdd {
                            line: v.line,
                            read: v.r,
                            write: v.w,
                        },
                    );
                    self.evict_line(now, core, v.line, v.state);
                    Ok(())
                } else {
                    debug_assert_eq!(mode, TxMode::Htm, "overflow with tx bits requires tx mode");
                    Err(OverflowKind::HtmCapacity)
                }
            }
        }
    }

    fn evict_line(&mut self, now: Cycle, core: CoreId, line: LineAddr, state: Mesi) {
        self.stats.l1_evictions += 1;
        self.l1s[core].remove(line);
        let home = self.home_bank(line);
        let msg = match state {
            Mesi::Modified => NetMsg::PutM { core, line },
            Mesi::Exclusive | Mesi::Shared => NetMsg::PutClean { core, line },
        };
        self.send(now, core, home, msg);
    }

    fn issue_request(
        &mut self,
        now: Cycle,
        core: CoreId,
        line: LineAddr,
        rk: ReqKind,
        kind: AccessKind,
        _upgrade: bool,
    ) -> AccessResult {
        let mode = self.meta[core].mode;
        let req = ReqInfo {
            core,
            kind: rk,
            line,
            prio: self.meta[core].prio,
            mode: self.req_mode(core),
            attempt: self.meta[core].attempt,
        };
        self.meta[core].pending = Some(PendingAccess {
            line,
            set_r: kind == AccessKind::Load && mode.is_tx(),
            set_w: kind == AccessKind::Store && mode.is_tx(),
            attempt: self.meta[core].attempt,
        });
        let home = self.home_bank(line);
        self.send(now, core, home, NetMsg::Req(req));
        AccessResult::Pending
    }

    /// Cancel the pending access (engine aborted/redirected the guest).
    pub fn cancel_pending(&mut self, core: CoreId) {
        self.meta[core].pending = None;
    }

    // ------------------------------------------------------------------
    // Message dispatch
    // ------------------------------------------------------------------

    /// Deliver a previously scheduled NoC message.
    pub fn handle_msg(&mut self, now: Cycle, msg: NetMsg) {
        match msg {
            NetMsg::Req(req) => self.bank_req(now, req),
            NetMsg::PutM { core, line } | NetMsg::PutClean { core, line } => {
                self.bank_put(now, core, line);
            }
            NetMsg::SpecWb { .. } => { /* timing-only */ }
            NetMsg::SigAdd { line, read, write } => {
                if read {
                    self.sig_rd.add(line);
                }
                if write {
                    self.sig_wr.add(line);
                }
            }
            NetMsg::FwdGetS { to, .. } | NetMsg::Inv { to, .. } => self.l1_probe(now, to, msg),
            NetMsg::ProbeRsp { from, req, rsp } => self.bank_probe_rsp(now, from, req, rsp),
            NetMsg::Grant {
                to,
                line,
                state,
                with_data,
                attempt,
            } => {
                self.l1_grant(now, to, line, state, with_data, attempt);
            }
            NetMsg::RspReject {
                to,
                line,
                by_sig,
                attempt,
            } => {
                self.l1_reject(now, to, line, by_sig, attempt);
            }
            NetMsg::Unblock { core, line } => self.bank_unblock(now, core, line),
            NetMsg::Wakeup { to } => self.notice(now, CoreNotice::Wakeup { core: to }),
            NetMsg::HlaReq { core, stl } => {
                let decision = self.arbiter.request(core, stl);
                match decision {
                    HlaDecision::Granted => {
                        self.send(
                            now + 2,
                            0,
                            core,
                            NetMsg::HlaRsp {
                                to: core,
                                granted: true,
                            },
                        );
                    }
                    HlaDecision::Denied => {
                        self.send(
                            now + 2,
                            0,
                            core,
                            NetMsg::HlaRsp {
                                to: core,
                                granted: false,
                            },
                        );
                    }
                    HlaDecision::Queued => { /* grant sent at release */ }
                }
            }
            NetMsg::HlaRel { core } => {
                if let Some(tl) = self.arbiter.release(core) {
                    self.send(
                        now + 2,
                        0,
                        tl,
                        NetMsg::HlaRsp {
                            to: tl,
                            granted: true,
                        },
                    );
                }
            }
            NetMsg::HlaRsp { to, granted } => {
                self.notice(now, CoreNotice::HlaResult { core: to, granted });
            }
        }
    }

    // ------------------------------------------------------------------
    // Directory (home bank) side
    // ------------------------------------------------------------------

    /// Send a grant and block the entry until the requester's unblock.
    fn send_grant(
        &mut self,
        at: Cycle,
        b: usize,
        req: &ReqInfo,
        state: GrantState,
        with_data: bool,
    ) {
        let line = req.line;
        self.banks[b].entry(line).unblock_wait = Some(req.core);
        self.send(
            at,
            b,
            req.core,
            NetMsg::Grant {
                to: req.core,
                line,
                state,
                with_data,
                attempt: req.attempt,
            },
        );
    }

    fn bank_req(&mut self, now: Cycle, req: ReqInfo) {
        let b = self.home_bank(req.line);
        if self.banks[b].is_busy(req.line) {
            self.banks[b].enqueue(req.line, req);
            return;
        }
        self.bank_serve(now, b, req);
    }

    /// Serve `first` and then keep draining the line's deferred queue for
    /// as long as requests complete without going pending (direct grants
    /// and signature rejects must not strand queued requests).
    fn bank_serve(&mut self, now: Cycle, b: usize, first: ReqInfo) {
        let mut next = Some(first);
        while let Some(req) = next {
            if self.bank_req_active(now, b, req) {
                return; // probes outstanding; finalize_pending continues
            }
            next = self.banks[b].dequeue(req.line);
            if next.is_none() {
                self.banks[b].gc_entry(req.line);
            }
        }
    }

    /// Process a request that is now at the head of the line's
    /// serialization. Returns true if it left a pending (probe) exchange.
    fn bank_req_active(&mut self, now: Cycle, b: usize, req: ReqInfo) -> bool {
        let line = req.line;

        // HTMLock overflow-signature checks (§III-B). Only HTM-mode
        // requests are filtered: the lock transaction owns the data, and
        // plain accesses racing the lock are program-level races.
        if req.mode == ReqMode::Htm && !(self.sig_rd.is_empty() && self.sig_wr.is_empty()) {
            let state = self.banks[b].entry(line).state;
            let no_copies = state.is_none();
            let wr_hit = self.sig_wr.test(line);
            let rd_hit = self.sig_rd.test(line);
            let reject = wr_hit || (rd_hit && (req.kind == ReqKind::GetM || no_copies));
            if reject {
                self.stats.sig_rejects += 1;
                if !self.sig_waiters.contains(&req.core) {
                    self.sig_waiters.push(req.core);
                }
                if self.record_conflicts {
                    // The signatures belong to the (single) lock-mode
                    // transaction; attribute the reject to it. Fall back
                    // to a self-edge if it already exited.
                    let holder = (0..self.meta.len())
                        .find(|&c| self.meta[c].mode.is_lock())
                        .unwrap_or(req.core);
                    let action = self.recovery_action_for(req.mode, true);
                    self.conflict(
                        now,
                        ConflictEdge {
                            attacker: holder,
                            victim: req.core,
                            line,
                            attacker_prio: PRIO_LOCK,
                            victim_prio: req.prio,
                            resolution: ConflictResolution::SigReject,
                            action,
                        },
                    );
                }
                let at = now + self.cfg.mem.llc_hit;
                self.send(
                    at,
                    b,
                    req.core,
                    NetMsg::RspReject {
                        to: req.core,
                        line,
                        by_sig: true,
                        attempt: req.attempt,
                    },
                );
                return false;
            }
        }

        // LLC tag access: capacity + inclusivity model.
        let (hit, evicted) = self.banks[b].tag_access(line);
        if let Some(ev) = evicted {
            self.back_invalidate(now, b, ev);
        }
        let t = now + self.cfg.mem.llc_hit + if hit { 0 } else { self.cfg.mem.mem_latency };

        let state = self.banks[b].entry(line).state;
        match state {
            None => {
                let gs = match req.kind {
                    ReqKind::GetS => GrantState::Exclusive,
                    ReqKind::GetM => GrantState::Modified,
                };
                self.banks[b].entry(line).state = Some(DirState::Owned(req.core));
                self.send_grant(t, b, &req, gs, true);
                true
            }
            Some(DirState::Shared(mut sharers)) => match req.kind {
                ReqKind::GetS => {
                    sharers.insert(req.core);
                    self.banks[b].entry(line).state = Some(DirState::Shared(sharers));
                    self.send_grant(t, b, &req, GrantState::Shared, true);
                    true
                }
                ReqKind::GetM => {
                    let was_sharer = sharers.contains(req.core);
                    let mut others = sharers;
                    others.remove(req.core);
                    if others.is_empty() {
                        self.banks[b].entry(line).state = Some(DirState::Owned(req.core));
                        self.send_grant(t, b, &req, GrantState::Modified, !was_sharer);
                        true
                    } else {
                        for c in others.iter() {
                            self.send(
                                t,
                                b,
                                c,
                                NetMsg::Inv {
                                    to: c,
                                    req,
                                    back_inval: false,
                                },
                            );
                        }
                        self.banks[b].entry(line).pending = Some(Pending {
                            req,
                            waiting: others,
                            rejected: CoreSet::empty(),
                            invalidated: CoreSet::empty(),
                            downgraded: CoreSet::empty(),
                            any_abort: false,
                            prior: Some(DirState::Shared(sharers)),
                        });
                        true
                    }
                }
            },
            Some(DirState::Owned(owner)) if owner == req.core => {
                // The recorded owner dropped the line silently (abort
                // invalidation) and is re-requesting it: directory info is
                // stale; grant directly.
                let gs = match req.kind {
                    ReqKind::GetS => GrantState::Exclusive,
                    ReqKind::GetM => GrantState::Modified,
                };
                self.send_grant(t, b, &req, gs, true);
                true
            }
            Some(DirState::Owned(owner)) => {
                let probe = match req.kind {
                    ReqKind::GetS => NetMsg::FwdGetS { to: owner, req },
                    ReqKind::GetM => NetMsg::Inv {
                        to: owner,
                        req,
                        back_inval: false,
                    },
                };
                self.send(t, b, owner, probe);
                self.banks[b].entry(line).pending = Some(Pending {
                    req,
                    waiting: CoreSet::single(owner),
                    rejected: CoreSet::empty(),
                    invalidated: CoreSet::empty(),
                    downgraded: CoreSet::empty(),
                    any_abort: false,
                    prior: Some(DirState::Owned(owner)),
                });
                true
            }
        }
    }

    /// Inclusive-LLC eviction: push the line out of every L1. The probes
    /// are fire-and-forget; directory state is torn down immediately.
    fn back_invalidate(&mut self, now: Cycle, b: usize, line: LineAddr) {
        self.stats.back_invals += 1;
        let state = self.banks[b].entry(line).state.take();
        let holders: Vec<CoreId> = match state {
            Some(DirState::Shared(s)) => s.iter().collect(),
            Some(DirState::Owned(o)) => vec![o],
            None => vec![],
        };
        for c in holders {
            // Dummy ReqInfo: back-invalidations carry no requester.
            let req = ReqInfo {
                core: c,
                kind: ReqKind::GetM,
                line,
                prio: 0,
                mode: ReqMode::NonTx,
                attempt: 0,
            };
            self.send(
                now,
                b,
                c,
                NetMsg::Inv {
                    to: c,
                    req,
                    back_inval: true,
                },
            );
        }
        self.banks[b].gc_entry(line);
    }

    /// Writeback / eviction notice. While a probe for the same line is
    /// outstanding to this core, the Put substitutes for its response.
    fn bank_put(&mut self, now: Cycle, core: CoreId, line: LineAddr) {
        let b = self.home_bank(line);
        let entry = self.banks[b].entry(line);
        if let Some(p) = entry.pending.as_mut() {
            if p.waiting.contains(core) {
                p.waiting.remove(core);
                p.invalidated.insert(core);
                if p.waiting.is_empty() {
                    self.finalize_pending(now, b, line);
                }
                return;
            }
        }
        match entry.state {
            Some(DirState::Owned(o)) if o == core => {
                entry.state = None;
            }
            Some(DirState::Shared(mut s)) if s.contains(core) => {
                s.remove(core);
                entry.state = if s.is_empty() {
                    None
                } else {
                    Some(DirState::Shared(s))
                };
            }
            _ => { /* stale Put from a core already probed out: drop */ }
        }
        self.banks[b].gc_entry(line);
    }

    /// The requester confirmed grant receipt: unblock the entry and serve
    /// the next queued request.
    fn bank_unblock(&mut self, now: Cycle, core: CoreId, line: LineAddr) {
        let b = self.home_bank(line);
        let entry = self.banks[b].entry(line);
        debug_assert_eq!(
            entry.unblock_wait,
            Some(core),
            "unexpected unblock from {core} for {line:?}"
        );
        entry.unblock_wait = None;
        if let Some(next) = self.banks[b].dequeue(line) {
            self.bank_serve(now, b, next);
        } else {
            self.banks[b].gc_entry(line);
        }
    }

    fn bank_probe_rsp(&mut self, now: Cycle, from: CoreId, req: ReqInfo, rsp: L1Rsp) {
        let b = self.home_bank(req.line);
        let line = req.line;
        let Some(p) = self.banks[b].entry(line).pending.as_mut() else {
            return; // response to an already-finalized exchange (stale)
        };
        if !p.waiting.contains(from) {
            return;
        }
        p.waiting.remove(from);
        match rsp {
            L1Rsp::InvAck { had_line, aborted } => {
                if had_line {
                    p.invalidated.insert(from);
                }
                p.any_abort |= aborted;
            }
            L1Rsp::DowngradeAck { .. } => {
                p.downgraded.insert(from);
            }
            L1Rsp::Reject => {
                p.rejected.insert(from);
            }
        }
        if p.waiting.is_empty() {
            self.finalize_pending(now, b, line);
        }
    }

    /// All probe responses are in: grant or reject, restore state, and
    /// serve the next queued request.
    fn finalize_pending(&mut self, now: Cycle, b: usize, line: LineAddr) {
        let p = self.banks[b]
            .entry(line)
            .pending
            .take()
            .expect("finalize without pending");
        let req = p.req;

        if !p.rejected.is_empty() {
            // Recovery mechanism: restore the pre-request state minus any
            // copies that were invalidated before the reject arrived.
            let restored = match p.prior {
                Some(DirState::Owned(o)) => {
                    debug_assert!(p.rejected.contains(o));
                    Some(DirState::Owned(o))
                }
                Some(DirState::Shared(s)) => {
                    let mut s2 = s;
                    for c in p.invalidated.iter() {
                        s2.remove(c);
                    }
                    if s2.is_empty() {
                        None
                    } else {
                        Some(DirState::Shared(s2))
                    }
                }
                None => None,
            };
            self.banks[b].entry(line).state = restored;
            self.stats.rejects += 1;
            self.send(
                now,
                b,
                req.core,
                NetMsg::RspReject {
                    to: req.core,
                    line,
                    by_sig: false,
                    attempt: req.attempt,
                },
            );
        } else {
            match req.kind {
                ReqKind::GetS => {
                    // If the owner merely downgraded it remains a sharer;
                    // if it invalidated (abort / stale), requester gets E.
                    let prior_owner = match p.prior {
                        Some(DirState::Owned(o)) => Some(o),
                        _ => None,
                    };
                    // The owner keeps an S copy only if it actually
                    // downgraded; an InvAck (abort or stale eviction)
                    // means the copy is gone even when `had_line` was
                    // false, and the requester must be served from the
                    // LLC with an exclusive grant.
                    let owner_kept = prior_owner
                        .map(|o| p.downgraded.contains(o))
                        .unwrap_or(false);
                    if owner_kept {
                        let mut s = CoreSet::empty();
                        s.insert(prior_owner.unwrap());
                        s.insert(req.core);
                        self.banks[b].entry(line).state = Some(DirState::Shared(s));
                        self.send_grant(now, b, &req, GrantState::Shared, true);
                    } else {
                        self.banks[b].entry(line).state = Some(DirState::Owned(req.core));
                        self.send_grant(now, b, &req, GrantState::Exclusive, true);
                    }
                }
                ReqKind::GetM => {
                    let was_sharer = match p.prior {
                        Some(DirState::Shared(s)) => s.contains(req.core),
                        _ => false,
                    };
                    self.banks[b].entry(line).state = Some(DirState::Owned(req.core));
                    self.send_grant(now, b, &req, GrantState::Modified, !was_sharer);
                }
            }
            // The entry stays blocked until the unblock arrives; queued
            // requests are served then.
            return;
        }

        // Rejected: no grant in flight; serve the next queued request.
        if let Some(next) = self.banks[b].dequeue(line) {
            self.bank_serve(now, b, next);
        } else {
            self.banks[b].gc_entry(line);
        }
    }

    // ------------------------------------------------------------------
    // L1 probe / response side
    // ------------------------------------------------------------------

    fn l1_probe(&mut self, now: Cycle, core: CoreId, msg: NetMsg) {
        let (req, is_inv, back_inval) = match msg {
            NetMsg::Inv {
                req, back_inval, ..
            } => (req, true, back_inval),
            NetMsg::FwdGetS { req, .. } => (req, false, false),
            _ => unreachable!("l1_probe on non-probe"),
        };
        let line = req.line;
        let home = self.home_bank(line);

        if self.meta[core].applying_hla && !back_inval {
            self.meta[core].blocked_probes.push(msg);
            return;
        }

        let Some(l) = self.l1s[core].lookup(line) else {
            if !back_inval {
                self.send(
                    now,
                    core,
                    home,
                    NetMsg::ProbeRsp {
                        from: core,
                        req,
                        rsp: L1Rsp::InvAck {
                            had_line: false,
                            aborted: false,
                        },
                    },
                );
            }
            return;
        };
        let (r, w, state) = (l.r, l.w, l.state);
        // Checker-validation mutation: pretend transactional bits are
        // invisible to the protocol, so conflicting requests are served as
        // plain coherence traffic and both transactions run to commit.
        let blind = self.cfg.check.fault.ignore_conflicts;
        let conflict = (if is_inv { r || w } else { w }) && !blind;
        let mode = self.meta[core].mode;

        if back_inval {
            if r || w {
                if mode.is_lock() {
                    // Lock-transaction line forced out: tracking moves to
                    // the signatures, the transaction survives.
                    self.stats.spills += 1;
                    self.send(
                        now,
                        core,
                        home,
                        NetMsg::SigAdd {
                            line,
                            read: r,
                            write: w,
                        },
                    );
                } else {
                    debug_assert_eq!(mode, TxMode::Htm);
                    self.abort_from_protocol(now, core, AbortCause::Of);
                }
            }
            self.l1s[core].remove(line);
            return;
        }

        if !conflict {
            if is_inv {
                self.l1s[core].remove(line);
                self.send(
                    now,
                    core,
                    home,
                    NetMsg::ProbeRsp {
                        from: core,
                        req,
                        rsp: L1Rsp::InvAck {
                            had_line: true,
                            aborted: false,
                        },
                    },
                );
            } else {
                // Downgrade M/E -> S (R bit, if any, survives: readers
                // sharing a line is not a conflict).
                let was_m = state == Mesi::Modified;
                self.l1s[core].set_state(line, Mesi::Shared);
                self.send(
                    now,
                    core,
                    home,
                    NetMsg::ProbeRsp {
                        from: core,
                        req,
                        rsp: L1Rsp::DowngradeAck { dirty: was_m },
                    },
                );
            }
            return;
        }

        // Conflict: arbitrate (Fig. 4).
        debug_assert!(mode.is_tx(), "conflict bits outside a transaction");
        let winner = arbitrate(&self.cfg.policy, &req, mode, self.meta[core].prio, core);
        match winner {
            Winner::Victim => {
                if self.cfg.check.fault.drop_nack {
                    // Checker-validation mutation: the arbitration loser
                    // "forgets" to report the conflict — it keeps its line
                    // and speculative state but acknowledges the probe as
                    // if it held nothing, so the directory grants the
                    // requester an exclusive copy alongside this one.
                    self.send(
                        now,
                        core,
                        home,
                        NetMsg::ProbeRsp {
                            from: core,
                            req,
                            rsp: L1Rsp::InvAck {
                                had_line: false,
                                aborted: false,
                            },
                        },
                    );
                    return;
                }
                // The wake-up table is only built when the system uses
                // wait-for-wakeup rejects (the paper notes wake-up support
                // is optional hardware; RAI/RRI omit it).
                if self.cfg.policy.reject_action == RejectAction::WaitWakeup
                    && !self.meta[core].wake_list.contains(&req.core)
                {
                    self.meta[core].wake_list.push(req.core);
                }
                self.proto_event(
                    now,
                    ProtoEvent::NackSent {
                        from: core,
                        to: req.core,
                        line,
                    },
                );
                let action = self.recovery_action_for(req.mode, false);
                self.conflict(
                    now,
                    ConflictEdge {
                        attacker: core,
                        victim: req.core,
                        line,
                        attacker_prio: self.meta[core].prio,
                        victim_prio: req.prio,
                        resolution: ConflictResolution::Nack,
                        action,
                    },
                );
                self.send(
                    now,
                    core,
                    home,
                    NetMsg::ProbeRsp {
                        from: core,
                        req,
                        rsp: L1Rsp::Reject,
                    },
                );
            }
            Winner::Requester => {
                let cause = self.classify_conflict(&req);
                self.conflict(
                    now,
                    ConflictEdge {
                        attacker: req.core,
                        victim: core,
                        line,
                        attacker_prio: req.prio,
                        victim_prio: self.meta[core].prio,
                        resolution: ConflictResolution::Abort(cause),
                        action: RecoveryAction::None,
                    },
                );
                self.abort_from_protocol(now, core, cause);
                // The abort invalidated speculative (W) lines; an R-only
                // line survives the abort and must still be invalidated
                // for an Inv probe.
                let still_there = self.l1s[core].lookup(line).is_some();
                if still_there {
                    debug_assert!(is_inv, "FwdGetS conflicts require W, which abort drops");
                    self.l1s[core].remove(line);
                }
                self.send(
                    now,
                    core,
                    home,
                    NetMsg::ProbeRsp {
                        from: core,
                        req,
                        rsp: L1Rsp::InvAck {
                            had_line: still_there,
                            aborted: true,
                        },
                    },
                );
            }
        }
    }

    fn classify_conflict(&self, req: &ReqInfo) -> AbortCause {
        match req.mode {
            ReqMode::Htm => AbortCause::Mc,
            ReqMode::LockTx => AbortCause::Lock,
            ReqMode::Fallback => AbortCause::Mutex,
            ReqMode::NonTx => {
                if Some(req.line) == self.mutex_line {
                    AbortCause::Mutex
                } else {
                    AbortCause::NonTran
                }
            }
        }
    }

    /// A probe or back-invalidation killed this core's HTM transaction.
    fn abort_from_protocol(&mut self, now: Cycle, core: CoreId, cause: AbortCause) {
        debug_assert_eq!(self.meta[core].mode, TxMode::Htm);
        self.l1s[core].abort_tx();
        self.meta[core].mode = TxMode::None;
        self.meta[core].attempt += 1;
        self.meta[core].pending = None;
        self.drain_wake_list(now, core);
        self.notice(now, CoreNotice::TxAborted { core, cause });
    }

    fn l1_grant(
        &mut self,
        now: Cycle,
        core: CoreId,
        line: LineAddr,
        state: GrantState,
        with_data: bool,
        attempt: u64,
    ) {
        // Confirm receipt so the directory can move to the stable state
        // (Fig. 3's unblock message).
        let home = self.home_bank(line);
        self.send(now, core, home, NetMsg::Unblock { core, line });
        let mesi = match state {
            GrantState::Shared => Mesi::Shared,
            GrantState::Exclusive => Mesi::Exclusive,
            GrantState::Modified => Mesi::Modified,
        };
        let current = self.meta[core].attempt;
        let pending = self.meta[core].pending;
        // Fresh only if this grant answers the *current* request: same
        // line, the request's attempt tag is still live, and the pending
        // access was issued under that same attempt.
        let fresh = pending
            .map(|p| p.line == line && p.attempt == current && attempt == current)
            .unwrap_or(false);

        if !fresh {
            // Stale grant (transaction aborted while the request was in
            // flight). Install cleanly if the set has room; otherwise let
            // the directory learn via stale probes. A pending access for a
            // *different* line belongs to a newer request and must be left
            // alone; only a same-line stale pending is consumed.
            if self.l1s[core].lookup(line).is_none() {
                if with_data {
                    if let Victim::Free = self.l1s[core].victim_for(line) {
                        self.l1s[core].install(line, mesi, false, false);
                    }
                }
            } else if mesi == Mesi::Modified {
                self.l1s[core].set_state(line, Mesi::Modified);
            }
            if pending
                .map(|p| p.line == line && attempt == p.attempt)
                .unwrap_or(false)
            {
                self.meta[core].pending = None;
            }
            return;
        }
        let p = pending.unwrap();
        self.meta[core].pending = None;

        if self.l1s[core].lookup(line).is_some() {
            // Upgrade completion (or a re-grant while a stale install left
            // the line resident): adopt the granted state.
            self.l1s[core].set_state(line, mesi);
        } else {
            // The way reserved at issue time may have been consumed by a
            // racing fill-after-invalidate; make room again if needed.
            match self.make_room(now, core, line) {
                Ok(()) => {}
                Err(_) => {
                    // Overflow at fill time in HTM mode: rare race; abort.
                    self.abort_from_protocol(now, core, AbortCause::Of);
                    return;
                }
            }
            self.l1s[core].install(line, mesi, false, false);
        }
        if p.set_r || p.set_w {
            // The transaction may have ended between issue and grant only
            // via abort, which bumps attempt; so bits are safe to set.
            self.l1s[core].mark_tx(line, p.set_r, p.set_w);
        }
        self.l1s[core].touch(line);
        self.notice(now, CoreNotice::AccessDone { core });
    }

    /// Whether `core`'s L1 holds `line`, so a load of it would hit.
    pub fn l1_holds(&self, core: CoreId, line: LineAddr) -> bool {
        self.l1s[core].lookup(line).is_some()
    }

    /// Apply `n` non-transactional load hits of `line` by `core` at
    /// once: a hit's only effect is its L1 LRU touch ([`MemSystem::access`]
    /// outside a transaction), so this leaves the state the `n` hits
    /// would have.
    pub fn l1_load_hits(&mut self, core: CoreId, line: LineAddr, n: u64) {
        debug_assert!(!self.meta[core].mode.is_tx() && self.l1_holds(core, line));
        self.l1s[core].touch_n(line, n);
    }

    /// `core`'s L1 presence/MESI change count ([`L1::mutations`]).
    pub fn l1_mutations(&self, core: CoreId) -> u64 {
        self.l1s[core].mutations()
    }

    /// Fold the behaviourally relevant memory-system state into `h`
    /// (for the schedule explorer's state fingerprint; see
    /// `lockiller::sched`), structurally and in a fixed order: every L1
    /// ([`L1::fingerprint`]), the per-core protocol metadata, every LLC
    /// bank ([`Bank::fingerprint`]), the mesh (link reservations and
    /// traffic counters), both overflow signatures, their waiters, the
    /// HLA arbiter (grant and denial counts included) and the mutex
    /// line. Volatile counters (LRU stamps and clocks, bank and mesh
    /// counters) are kept and hash maps are walked in their own
    /// iteration order, so two states hash equal exactly when their
    /// `Debug` renderings are equal: equal contents reached through
    /// different insertion histories may hash apart, which only costs
    /// the explorer pruning — it never merges different states. The
    /// SWMR gate's mutation counts are bookkeeping and stay out.
    pub fn fingerprint(&self, h: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        for l1 in &self.l1s {
            l1.fingerprint(h);
        }
        self.meta.hash(h);
        for b in &self.banks {
            b.fingerprint(h);
        }
        self.mesh.hash(h);
        (&self.sig_rd, &self.sig_wr, &self.sig_waiters).hash(h);
        (&self.arbiter, self.mutex_line).hash(h);
    }

    /// Single-writer/multiple-reader invariant: no line may be E/M in
    /// one L1 while any other L1 holds a copy. Reports the first E/M line
    /// (by core, set, way) that another L1 also holds, with every holder
    /// in core order. O(cache size); tests call it directly.
    pub fn check_swmr(&self) -> Result<(), String> {
        let holders = |line: LineAddr| {
            self.l1s
                .iter()
                .enumerate()
                .filter_map(move |(c, l1)| l1.lookup(line).map(|l| (c, l.state)))
        };
        let shared = self
            .l1s
            .iter()
            .flat_map(L1::lines)
            .find(|l| l.state != Mesi::Shared && holders(l.line).nth(1).is_some());
        match shared {
            None => Ok(()),
            Some(l) => {
                let hs: Vec<(CoreId, Mesi)> = holders(l.line).collect();
                Err(format!("SWMR violated on {:?}: {hs:?}", l.line))
            }
        }
    }

    /// Checked mode's live SWMR check: [`MemSystem::check_swmr`], run only
    /// when some L1 line's presence or MESI state changed since the last
    /// passing check — nothing else can change its verdict.
    pub fn check_swmr_if_changed(&mut self) -> Result<(), String> {
        let mutations = self.l1s.iter().map(L1::mutations).sum();
        if mutations != self.swmr_clean {
            self.check_swmr()?;
            self.swmr_clean = mutations;
        }
        Ok(())
    }

    fn l1_reject(&mut self, now: Cycle, core: CoreId, line: LineAddr, by_sig: bool, attempt: u64) {
        let current = self.meta[core].attempt;
        let pending = self.meta[core].pending;
        let fresh = pending
            .map(|p| p.line == line && p.attempt == current && attempt == current)
            .unwrap_or(false);
        if !fresh {
            if pending
                .map(|p| p.line == line && attempt == p.attempt)
                .unwrap_or(false)
            {
                self.meta[core].pending = None;
            }
            return;
        }
        self.meta[core].pending = None;
        self.notice(now, CoreNotice::AccessRejected { core, by_sig });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::fxhash::FxHasher;
    use std::hash::Hasher;

    type Change = fn(&mut MemSystem);

    fn fp(ms: &MemSystem) -> u64 {
        let mut h = FxHasher::default();
        ms.fingerprint(&mut h);
        h.finish()
    }

    /// Two cores; core 0 holds line 1 Exclusive.
    fn system() -> MemSystem {
        let mut ms = MemSystem::new(SystemConfig::testing(2));
        ms.l1s[0].install(LineAddr(1), Mesi::Exclusive, false, false);
        ms
    }

    #[test]
    #[should_panic(expected = "core count 33 outside 1..=32")]
    fn more_cores_than_the_sharer_set_holds_are_refused() {
        // 33 cores fit an 8x8 mesh, but core 32 would alias core 0 in
        // the 32-bit directory `CoreSet`.
        let mut cfg = SystemConfig::testing(32);
        cfg.num_cores = 33;
        (cfg.noc.width, cfg.noc.height) = (8, 8);
        let _ = MemSystem::new(cfg);
    }

    #[test]
    fn fingerprint_tracks_state_and_ignores_the_swmr_gate() {
        let base = system();
        assert_eq!(fp(&base), fp(&base.clone()), "a clone fingerprints equal");
        let changes: [(&str, Change); 6] = [
            ("an L1 install", |ms| {
                ms.l1s[1].install(LineAddr(2), Mesi::Shared, false, false);
            }),
            ("an LRU touch", |ms| ms.l1s[0].touch(LineAddr(1))),
            ("a directory entry", |ms| {
                ms.banks[1].entry(LineAddr(1)).state = Some(DirState::Owned(0));
            }),
            ("a signature add", |ms| ms.sig_rd.add(LineAddr(3))),
            ("a mesh send", |ms| {
                ms.mesh.send(0, 0, 1, 1);
            }),
            ("an arbiter grant", |ms| {
                assert_eq!(ms.arbiter.request(1, false), HlaDecision::Granted);
            }),
        ];
        for (what, change) in changes {
            let mut ms = base.clone();
            change(&mut ms);
            assert_ne!(fp(&ms), fp(&base), "{what} must move the fingerprint");
        }
        // A MESI change and its undo move only the SWMR gate's counts,
        // which are bookkeeping, not state.
        let mut ms = base.clone();
        ms.l1s[0].set_state(LineAddr(1), Mesi::Modified);
        ms.l1s[0].set_state(LineAddr(1), Mesi::Exclusive);
        assert_eq!(ms.check_swmr_if_changed(), Ok(()));
        assert_ne!(ms.swmr_clean, base.swmr_clean);
        assert_eq!(fp(&ms), fp(&base), "the SWMR gate moved the fingerprint");
    }

    #[test]
    fn swmr_gate_reports_what_the_full_check_reports() {
        let mut ms = system();
        assert_eq!(ms.check_swmr_if_changed(), Ok(()));
        let clean = ms.swmr_clean;
        assert_eq!(ms.check_swmr_if_changed(), Ok(()));
        assert_eq!(ms.swmr_clean, clean, "no L1 change, no recheck");
        // A second, modified copy of line 1 breaks SWMR; a failing check
        // records nothing, so it keeps failing.
        ms.l1s[1].install(LineAddr(1), Mesi::Modified, false, false);
        let want = Err("SWMR violated on L0x1: [(0, Exclusive), (1, Modified)]".to_string());
        assert_eq!(ms.check_swmr(), want);
        assert_eq!(ms.check_swmr_if_changed(), want);
        assert_eq!(ms.check_swmr_if_changed(), want);
        ms.l1s[0].set_state(LineAddr(1), Mesi::Shared);
        ms.l1s[1].set_state(LineAddr(1), Mesi::Shared);
        assert_eq!(ms.check_swmr_if_changed(), Ok(()));
    }
}
