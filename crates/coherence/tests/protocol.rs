//! End-to-end protocol tests: a miniature event pump stands in for the
//! engine and drives `MemSystem` through full request/probe/response
//! exchanges, checking MESI behaviour, HTM conflict arbitration, the
//! recovery (reject/wake-up) path, overflow signatures, and HLA flows.

use coherence::memsys::{AccessKind, AccessResult, CoreNotice, MemSystem, OverflowKind};
use coherence::msg::TxMode;
use sim_core::config::{PolicyConfig, PriorityKind, RejectAction, SystemConfig};
use sim_core::event::EventQueue;
use sim_core::stats::AbortCause;
use sim_core::types::{Cycle, LineAddr};

/// Pumps scheduled messages until quiescent, collecting notices.
struct Pump {
    ms: MemSystem,
    q: EventQueue<coherence::msg::NetMsg>,
    notices: Vec<(Cycle, CoreNotice)>,
}

impl Pump {
    fn new(cfg: SystemConfig) -> Pump {
        Pump {
            ms: MemSystem::new(cfg),
            q: EventQueue::new(),
            notices: Vec::new(),
        }
    }

    fn drain(&mut self) {
        let (msgs, notices) = self.ms.take_outputs();
        for (at, m) in msgs {
            self.q.schedule_at(at, m);
        }
        self.notices.extend(notices);
    }

    /// Run until no messages remain. Returns collected notices.
    ///
    /// Every quiescent point must satisfy single-writer/multiple-reader,
    /// so each settle runs the same checker the engine uses in checked
    /// mode — every protocol test here asserts SWMR for free.
    fn settle(&mut self) -> Vec<CoreNotice> {
        self.drain();
        while let Some((at, msg)) = self.q.pop() {
            self.ms.handle_msg(at, msg);
            self.drain();
        }
        self.ms.check_swmr().expect("SWMR violated at quiescence");
        self.notices.drain(..).map(|(_, n)| n).collect()
    }

    fn now(&self) -> Cycle {
        self.q.now()
    }

    fn access(&mut self, core: usize, line: u64, kind: AccessKind) -> Vec<CoreNotice> {
        let t = self.now();
        match self.ms.access(t, core, LineAddr(line), kind) {
            AccessResult::Done { .. } => {
                self.drain();
                vec![CoreNotice::AccessDone { core }]
            }
            AccessResult::Pending => self.settle(),
            AccessResult::Overflow { .. } => panic!("unexpected overflow"),
        }
    }
}

fn cfg(policy: PolicyConfig) -> SystemConfig {
    let mut c = SystemConfig::testing(4);
    c.policy = policy;
    c
}

fn base() -> SystemConfig {
    cfg(PolicyConfig::default())
}

fn recovery() -> SystemConfig {
    cfg(PolicyConfig {
        recovery: true,
        priority: PriorityKind::InstsBased,
        reject_action: RejectAction::WaitWakeup,
        ..PolicyConfig::default()
    })
}

#[test]
fn cold_load_grants_exclusive() {
    let mut p = Pump::new(base());
    let n = p.access(0, 100, AccessKind::Load);
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 0 }]);
    // Second load hits.
    let t = p.now();
    match p.ms.access(t, 0, LineAddr(100), AccessKind::Load) {
        AccessResult::Done { at } => assert_eq!(at, t + 2),
        other => panic!("expected L1 hit, got {other:?}"),
    }
}

#[test]
fn store_after_exclusive_load_is_hit() {
    let mut p = Pump::new(base());
    p.access(0, 100, AccessKind::Load);
    let t = p.now();
    // E -> M silently.
    match p.ms.access(t, 0, LineAddr(100), AccessKind::Store) {
        AccessResult::Done { .. } => {}
        other => panic!("expected silent upgrade, got {other:?}"),
    }
}

#[test]
fn two_readers_share() {
    let mut p = Pump::new(base());
    p.access(0, 100, AccessKind::Load);
    let n = p.access(1, 100, AccessKind::Load);
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 1 }]);
    // Now a third reader: straight shared grant, no probes needed.
    let n = p.access(2, 100, AccessKind::Load);
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 2 }]);
}

#[test]
fn writer_invalidates_readers() {
    let mut p = Pump::new(base());
    p.access(0, 100, AccessKind::Load);
    p.access(1, 100, AccessKind::Load);
    let n = p.access(2, 100, AccessKind::Store);
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 2 }]);
    // Core 0's copy is gone: its next load misses (goes pending).
    let t = p.now();
    assert_eq!(
        p.ms.access(t, 0, LineAddr(100), AccessKind::Load),
        AccessResult::Pending
    );
    let n = p.settle();
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 0 }]);
}

#[test]
fn upgrade_from_shared() {
    let mut p = Pump::new(base());
    p.access(0, 100, AccessKind::Load);
    p.access(1, 100, AccessKind::Load); // both S now
    let n = p.access(0, 100, AccessKind::Store); // upgrade
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 0 }]);
    // Core 1 lost its copy.
    let t = p.now();
    assert_eq!(
        p.ms.access(t, 1, LineAddr(100), AccessKind::Load),
        AccessResult::Pending
    );
    p.settle();
}

#[test]
fn requester_win_aborts_victim_tx() {
    let mut p = Pump::new(base());
    // Core 0 in tx writes line 100.
    p.ms.begin_htm(0, 0);
    p.access(0, 100, AccessKind::Store);
    assert_eq!(p.ms.tx_footprint(0), 1);
    // Core 1 (non-tx) loads it: baseline requester-win aborts core 0.
    let n = p.access(1, 100, AccessKind::Load);
    assert!(n.contains(&CoreNotice::TxAborted {
        core: 0,
        cause: AbortCause::NonTran
    }));
    assert!(n.contains(&CoreNotice::AccessDone { core: 1 }));
    assert_eq!(p.ms.core_mode(0), TxMode::None);
    assert_eq!(p.ms.tx_footprint(0), 0);
}

#[test]
fn htm_vs_htm_conflict_classified_mc() {
    let mut p = Pump::new(base());
    p.ms.begin_htm(0, 0);
    p.access(0, 100, AccessKind::Store);
    p.ms.begin_htm(1, 0);
    let n = p.access(1, 100, AccessKind::Load);
    assert!(n.contains(&CoreNotice::TxAborted {
        core: 0,
        cause: AbortCause::Mc
    }));
}

#[test]
fn read_read_is_not_a_conflict() {
    let mut p = Pump::new(base());
    p.ms.begin_htm(0, 0);
    p.access(0, 100, AccessKind::Load);
    p.ms.begin_htm(1, 0);
    let n = p.access(1, 100, AccessKind::Load);
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 1 }]);
    assert_eq!(
        p.ms.core_mode(0),
        TxMode::Htm,
        "reader must not abort reader"
    );
}

#[test]
fn recovery_rejects_lower_priority_requester() {
    let mut p = Pump::new(recovery());
    p.ms.begin_htm(0, 0);
    p.ms.set_prio(0, 100); // victim has high priority
    p.access(0, 100, AccessKind::Store);
    p.ms.begin_htm(1, 0);
    p.ms.set_prio(1, 5); // requester lower
    let t = p.now();
    assert_eq!(
        p.ms.access(t, 1, LineAddr(100), AccessKind::Load),
        AccessResult::Pending
    );
    let n = p.settle();
    assert_eq!(
        n,
        vec![CoreNotice::AccessRejected {
            core: 1,
            by_sig: false
        }]
    );
    // Victim survives with its write set intact.
    assert_eq!(p.ms.core_mode(0), TxMode::Htm);
    assert_eq!(p.ms.tx_footprint(0), 1);
    assert_eq!(p.ms.stats.rejects, 1);
}

#[test]
fn recovery_lets_higher_priority_requester_win() {
    let mut p = Pump::new(recovery());
    p.ms.begin_htm(0, 0);
    p.ms.set_prio(0, 5);
    p.access(0, 100, AccessKind::Store);
    p.ms.begin_htm(1, 0);
    p.ms.set_prio(1, 100);
    let n = p.access(1, 100, AccessKind::Load);
    assert!(n.contains(&CoreNotice::TxAborted {
        core: 0,
        cause: AbortCause::Mc
    }));
    assert!(n.contains(&CoreNotice::AccessDone { core: 1 }));
}

#[test]
fn commit_wakes_rejected_cores() {
    let mut p = Pump::new(recovery());
    p.ms.begin_htm(0, 0);
    p.ms.set_prio(0, 100);
    p.access(0, 100, AccessKind::Store);
    p.ms.begin_htm(1, 0);
    p.ms.set_prio(1, 5);
    let t = p.now();
    p.ms.access(t, 1, LineAddr(100), AccessKind::Load);
    p.settle();
    // Core 0 commits: wake-up flows to core 1.
    let t = p.now();
    p.ms.commit_htm(t, 0);
    let n = p.settle();
    assert_eq!(n, vec![CoreNotice::Wakeup { core: 1 }]);
    assert!(p.ms.stats.wakeups_sent >= 1);
    // Retry now succeeds.
    let n = p.access(1, 100, AccessKind::Load);
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 1 }]);
}

#[test]
fn directory_state_restored_after_reject() {
    let mut p = Pump::new(recovery());
    p.ms.begin_htm(0, 0);
    p.ms.set_prio(0, 100);
    p.access(0, 100, AccessKind::Store);
    p.ms.begin_htm(1, 0);
    p.ms.set_prio(1, 5);
    let t = p.now();
    p.ms.access(t, 1, LineAddr(100), AccessKind::Load);
    p.settle();
    p.ms.cancel_pending(1);
    // Victim's line still valid: a store hit for core 0 (W already set).
    let t = p.now();
    match p.ms.access(t, 0, LineAddr(100), AccessKind::Store) {
        AccessResult::Done { .. } => {}
        other => panic!("victim lost its line after reject: {other:?}"),
    }
}

#[test]
fn lock_transaction_rejects_htm_requests() {
    let mut p = Pump::new(recovery());
    // Core 0 enters TL mode and writes a line.
    p.ms.enter_lock(0, false);
    p.access(0, 100, AccessKind::Store);
    // An HTM transaction tries to read it: rejected.
    p.ms.begin_htm(1, 0);
    p.ms.set_prio(1, u64::MAX - 1);
    let t = p.now();
    assert_eq!(
        p.ms.access(t, 1, LineAddr(100), AccessKind::Load),
        AccessResult::Pending
    );
    let n = p.settle();
    assert_eq!(
        n,
        vec![CoreNotice::AccessRejected {
            core: 1,
            by_sig: false
        }]
    );
    assert_eq!(p.ms.core_mode(0), TxMode::LockTl);
}

#[test]
fn lock_transaction_aborts_htm_victims() {
    let mut p = Pump::new(recovery());
    p.ms.begin_htm(0, 0);
    p.ms.set_prio(0, 1_000_000);
    p.access(0, 100, AccessKind::Store);
    p.ms.enter_lock(1, false);
    let n = p.access(1, 100, AccessKind::Store);
    assert!(n.contains(&CoreNotice::TxAborted {
        core: 0,
        cause: AbortCause::Lock
    }));
}

#[test]
fn exit_lock_wakes_rejected() {
    let mut p = Pump::new(recovery());
    p.ms.enter_lock(0, false);
    p.access(0, 100, AccessKind::Store);
    p.ms.begin_htm(1, 0);
    let t = p.now();
    p.ms.access(t, 1, LineAddr(100), AccessKind::Load);
    p.settle();
    let t = p.now();
    p.ms.exit_lock(t, 0);
    let n = p.settle();
    assert_eq!(n, vec![CoreNotice::Wakeup { core: 1 }]);
    // After hlend the HTM transaction can proceed.
    let n = p.access(1, 100, AccessKind::Load);
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 1 }]);
}

#[test]
fn mutex_line_classification() {
    let mut p = Pump::new(base());
    p.ms.set_mutex_line(LineAddr(7));
    p.ms.begin_htm(0, 0);
    p.access(0, 7, AccessKind::Load); // subscribe to the fallback lock
                                      // Non-tx CAS on the lock line by core 1 (acquiring the lock).
    let n = p.access(1, 7, AccessKind::Store);
    assert!(n.contains(&CoreNotice::TxAborted {
        core: 0,
        cause: AbortCause::Mutex
    }));
}

#[test]
fn capacity_overflow_reported_in_htm_mode() {
    let mut c = SystemConfig::testing(2);
    // Tiny L1: 1 set x 2 ways.
    c.mem.l1 = sim_core::config::CacheGeometry { sets: 1, ways: 2 };
    let mut p = Pump::new(c);
    p.ms.begin_htm(0, 0);
    p.access(0, 100, AccessKind::Load);
    p.access(0, 101, AccessKind::Load);
    let t = p.now();
    match p.ms.access(t, 0, LineAddr(102), AccessKind::Load) {
        AccessResult::Overflow { kind } => assert_eq!(kind, OverflowKind::HtmCapacity),
        other => panic!("expected overflow, got {other:?}"),
    }
}

#[test]
fn lock_mode_spills_to_signature_and_rejects() {
    let mut c = SystemConfig::testing(2);
    c.mem.l1 = sim_core::config::CacheGeometry { sets: 1, ways: 2 };
    c.policy.recovery = true;
    c.policy.htmlock = true;
    let mut p = Pump::new(c);
    p.ms.enter_lock(0, false);
    p.access(0, 100, AccessKind::Store);
    p.access(0, 102, AccessKind::Store);
    // Third tx line: spills the LRU (100) into OfWrSig, survives.
    let n = p.access(0, 104, AccessKind::Store);
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 0 }]);
    assert_eq!(p.ms.core_mode(0), TxMode::LockTl);
    assert!(p.ms.stats.spills >= 1);
    // An HTM transaction touching the spilled line is signature-rejected.
    p.ms.begin_htm(1, 0);
    let t = p.now();
    assert_eq!(
        p.ms.access(t, 1, LineAddr(100), AccessKind::Load),
        AccessResult::Pending
    );
    let n = p.settle();
    assert_eq!(
        n,
        vec![CoreNotice::AccessRejected {
            core: 1,
            by_sig: true
        }]
    );
    assert_eq!(p.ms.stats.sig_rejects, 1);
    // hlend clears signatures and wakes the waiter.
    let t = p.now();
    p.ms.exit_lock(t, 0);
    let n = p.settle();
    assert!(n.contains(&CoreNotice::Wakeup { core: 1 }));
    let n = p.access(1, 100, AccessKind::Load);
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 1 }]);
}

#[test]
fn hla_grant_and_release_flow() {
    let mut p = Pump::new(recovery());
    let t = p.now();
    p.ms.hla_request(t, 1, true);
    let n = p.settle();
    assert_eq!(
        n,
        vec![CoreNotice::HlaResult {
            core: 1,
            granted: true
        }]
    );
    p.ms.enter_lock(1, true);
    p.ms.finish_hla(p.q.now(), 1, true);
    // A second STL applicant is denied.
    let t = p.now();
    p.ms.hla_request(t, 2, true);
    let n = p.settle();
    assert_eq!(
        n,
        vec![CoreNotice::HlaResult {
            core: 2,
            granted: false
        }]
    );
    p.ms.finish_hla(p.q.now(), 2, false);
    // Release; a new applicant succeeds.
    let t = p.now();
    p.ms.exit_lock(t, 1);
    p.settle();
    let t = p.now();
    p.ms.hla_request(t, 3, true);
    let n = p.settle();
    assert_eq!(
        n,
        vec![CoreNotice::HlaResult {
            core: 3,
            granted: true
        }]
    );
}

#[test]
fn tl_queued_behind_stl_granted_on_release() {
    let mut p = Pump::new(recovery());
    let t = p.now();
    p.ms.hla_request(t, 1, true); // STL
    p.settle();
    p.ms.enter_lock(1, true);
    p.ms.finish_hla(p.q.now(), 1, true);
    // TL applicant queues.
    let t = p.now();
    p.ms.hla_request(t, 2, false);
    let n = p.settle();
    assert!(n.is_empty(), "TL should be queued, not answered: {n:?}");
    // STL holder finishes: TL grant flows.
    let t = p.now();
    p.ms.exit_lock(t, 1);
    let n = p.settle();
    assert!(n.contains(&CoreNotice::HlaResult {
        core: 2,
        granted: true
    }));
}

#[test]
fn applying_hla_blocks_probes_until_finish() {
    let mut p = Pump::new(recovery());
    p.ms.begin_htm(0, 0);
    p.ms.set_prio(0, 50);
    p.access(0, 100, AccessKind::Store);
    // Core 0 starts an STL application: probes are deferred.
    let t = p.now();
    p.ms.hla_request(t, 0, true);
    // Core 1 requests the line while core 0 is applying.
    p.ms.begin_htm(1, 0);
    p.ms.set_prio(1, 99);
    let t = p.now();
    p.ms.access(t, 1, LineAddr(100), AccessKind::Store);
    let n = p.settle();
    // HLA grant arrives; probe was deferred, so no abort of core 0 yet
    // until finish_hla replays it.
    assert!(n.contains(&CoreNotice::HlaResult {
        core: 0,
        granted: true
    }));
    assert!(!n
        .iter()
        .any(|x| matches!(x, CoreNotice::TxAborted { core: 0, .. })));
    // Switch succeeds: now in STL mode, max priority; replayed probe is
    // rejected rather than aborting.
    p.ms.enter_lock(0, true);
    p.ms.finish_hla(p.q.now(), 0, true);
    let n = p.settle();
    assert_eq!(
        n,
        vec![CoreNotice::AccessRejected {
            core: 1,
            by_sig: false
        }]
    );
    assert_eq!(p.ms.core_mode(0), TxMode::LockStl);
}

#[test]
fn commit_keeps_written_lines_resident() {
    let mut p = Pump::new(base());
    p.ms.begin_htm(0, 0);
    p.access(0, 100, AccessKind::Store);
    let t = p.now();
    p.ms.commit_htm(t, 0);
    // Line survives as M: next store hits.
    let t = p.now();
    match p.ms.access(t, 0, LineAddr(100), AccessKind::Store) {
        AccessResult::Done { .. } => {}
        other => panic!("committed line lost: {other:?}"),
    }
}

#[test]
fn abort_invalidates_spec_lines_but_keeps_read_lines() {
    let mut p = Pump::new(base());
    p.ms.begin_htm(0, 0);
    p.access(0, 100, AccessKind::Store);
    p.access(0, 200, AccessKind::Load);
    let t = p.now();
    p.ms.abort_locally(t, 0);
    // Spec write gone: miss. Read line kept: hit.
    let t = p.now();
    assert_eq!(
        p.ms.access(t, 0, LineAddr(100), AccessKind::Load),
        AccessResult::Pending
    );
    p.settle();
    let t = p.now();
    match p.ms.access(t, 0, LineAddr(200), AccessKind::Load) {
        AccessResult::Done { .. } => {}
        other => panic!("read-set line dropped on abort: {other:?}"),
    }
}

#[test]
fn llc_back_invalidation_aborts_tx() {
    let mut c = SystemConfig::testing(2);
    // Tiny LLC bank: 1 set x 1 way per bank, 2 banks.
    c.mem.llc_bank = sim_core::config::CacheGeometry { sets: 1, ways: 1 };
    let mut p = Pump::new(c);
    p.ms.begin_htm(0, 0);
    p.access(0, 100, AccessKind::Store); // home bank 0
                                         // Another line homed at bank 0 evicts line 100's LLC tag.
    let n = p.access(1, 102, AccessKind::Load);
    assert!(
        n.contains(&CoreNotice::TxAborted {
            core: 0,
            cause: AbortCause::Of
        }),
        "expected back-invalidation abort, got {n:?}"
    );
}

#[test]
fn deterministic_replay() {
    let run = || {
        let mut p = Pump::new(recovery());
        p.ms.begin_htm(0, 0);
        p.ms.set_prio(0, 100);
        p.access(0, 100, AccessKind::Store);
        p.ms.begin_htm(1, 0);
        p.ms.set_prio(1, 10);
        let t = p.now();
        p.ms.access(t, 1, LineAddr(100), AccessKind::Load);
        p.settle();
        let t = p.now();
        p.ms.commit_htm(t, 0);
        p.settle();
        (p.now(), p.ms.stats.rejects, p.ms.stats.wakeups_sent)
    };
    assert_eq!(run(), run());
}

#[test]
fn direct_downgrade_serves_requester_from_owner() {
    // A modified owner's downgrade supplies the reader's data from its own
    // copy; the home bank relays it and records both cores as sharers.
    let mut p = Pump::new(base());
    p.access(0, 100, AccessKind::Store); // owner M
    let n = p.access(1, 100, AccessKind::Load);
    assert!(n.contains(&CoreNotice::AccessDone { core: 1 }));
    // Both sharers now: a third reader is served by the home directly.
    let n = p.access(2, 100, AccessKind::Load);
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 2 }]);
}

#[test]
fn direct_reject_reaches_requester() {
    // The owner's reject travels back to the requester through the home
    // bank, which keeps the victim's line intact.
    let mut p = Pump::new(recovery());
    p.ms.begin_htm(0, 0);
    p.ms.set_prio(0, 100);
    p.access(0, 100, AccessKind::Store);
    p.ms.begin_htm(1, 0);
    p.ms.set_prio(1, 5);
    let t = p.now();
    assert_eq!(
        p.ms.access(t, 1, LineAddr(100), AccessKind::Load),
        AccessResult::Pending
    );
    let n = p.settle();
    assert_eq!(
        n,
        vec![CoreNotice::AccessRejected {
            core: 1,
            by_sig: false
        }]
    );
    // Victim intact; commit wakes and retry succeeds (full loop).
    let t = p.now();
    p.ms.commit_htm(t, 0);
    let n = p.settle();
    assert_eq!(n, vec![CoreNotice::Wakeup { core: 1 }]);
    let n = p.access(1, 100, AccessKind::Load);
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 1 }]);
}

#[test]
fn queued_readers_of_owned_line_all_served() {
    // Three readers pile onto an owned line: two queue at the home bank
    // behind the first, and each is served after the previous unblock.
    let mut p = Pump::new(base());
    p.access(0, 100, AccessKind::Store);
    let t = p.now();
    p.ms.access(t, 1, LineAddr(100), AccessKind::Load);
    p.ms.access(t, 2, LineAddr(100), AccessKind::Load);
    p.ms.access(t, 3, LineAddr(100), AccessKind::Load);
    let n = p.settle();
    for c in 1..=3 {
        assert!(
            n.contains(&CoreNotice::AccessDone { core: c }),
            "reader {c} starved: {n:?}"
        );
    }
}

// ---------------------------------------------------------------------
// Targeted races: evictions crossing probes, stale owners, and writeback
// bookkeeping.
// ---------------------------------------------------------------------

#[test]
fn eviction_crossing_probe_resolves() {
    // Core 0 owns a line, evicts it (PutM in flight), while core 1's
    // request probes core 0: the stale probe ack plus the late PutM must
    // leave the directory consistent and the requester served.
    let mut c = SystemConfig::testing(2);
    c.mem.l1 = sim_core::config::CacheGeometry { sets: 1, ways: 2 };
    let mut p = Pump::new(c);
    p.access(0, 100, AccessKind::Store); // set 0 (line 100 % 1)
                                         // Fill the set so the next access evicts line 100.
    p.access(0, 101, AccessKind::Store);
    let t = p.now();
    // This miss evicts LRU (line 100): PutM goes into flight...
    let r = p.ms.access(t, 0, LineAddr(102), AccessKind::Store);
    assert_eq!(r, AccessResult::Pending);
    // ...and core 1 immediately requests the evicted line.
    let r1 = p.ms.access(t, 1, LineAddr(100), AccessKind::Load);
    assert_eq!(r1, AccessResult::Pending);
    let n = p.settle();
    assert!(n.contains(&CoreNotice::AccessDone { core: 0 }));
    assert!(n.contains(&CoreNotice::AccessDone { core: 1 }));
    p.ms.check_swmr().unwrap();
}

#[test]
fn aborted_owner_rerequests_own_line() {
    // After an abort silently drops a speculative line, the directory
    // still lists the core as owner; its own re-request must be granted.
    let mut p = Pump::new(base());
    p.ms.begin_htm(0, 0);
    p.access(0, 100, AccessKind::Store);
    let t = p.now();
    p.ms.abort_locally(t, 0);
    p.settle();
    let n = p.access(0, 100, AccessKind::Load);
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 0 }]);
    p.ms.check_swmr().unwrap();
}

#[test]
fn stale_owner_answer_grants_exclusive() {
    // The directory still lists core 0 as the owner of a line its abort
    // dropped. Its probe answer is an InvAck without the line, not a
    // downgrade, so the reader must get the line Exclusive rather than
    // share it with a core that holds no copy.
    let mut p = Pump::new(base());
    p.ms.begin_htm(0, 0);
    p.access(0, 100, AccessKind::Store);
    let t = p.now();
    p.ms.abort_locally(t, 0);
    p.settle();
    let n = p.access(1, 100, AccessKind::Load);
    assert_eq!(n, vec![CoreNotice::AccessDone { core: 1 }]);
    // Exclusive: the store upgrades E -> M silently, without a request.
    let t = p.now();
    assert!(matches!(
        p.ms.access(t, 1, LineAddr(100), AccessKind::Store),
        AccessResult::Done { .. }
    ));
}

#[test]
fn spec_writeback_emitted_once_per_dirty_line() {
    // A dirty (M) line speculatively written for the first time must push
    // its pre-transaction value home exactly once.
    let mut p = Pump::new(base());
    p.access(0, 100, AccessKind::Store); // M, dirty, non-spec
    p.ms.begin_htm(0, 0);
    p.access(0, 100, AccessKind::Store); // first spec write: SpecWb
    assert_eq!(p.ms.stats.spec_writebacks, 1);
    p.access(0, 100, AccessKind::Store); // already W: no second writeback
    assert_eq!(p.ms.stats.spec_writebacks, 1);
    let t = p.now();
    p.ms.commit_htm(t, 0);
    p.settle();
    // A fresh transaction on the (still dirty) line writes back again.
    p.ms.begin_htm(0, 0);
    p.access(0, 100, AccessKind::Store);
    assert_eq!(p.ms.stats.spec_writebacks, 2);
}

#[test]
fn clean_line_needs_no_spec_writeback() {
    let mut p = Pump::new(base());
    p.access(0, 100, AccessKind::Load); // E, clean
    p.ms.begin_htm(0, 0);
    p.access(0, 100, AccessKind::Store); // silent E->M, no writeback
    assert_eq!(p.ms.stats.spec_writebacks, 0);
}

#[test]
fn wakeup_list_deduplicates_requesters() {
    // The same rejected requester retrying twice must not double-book the
    // victim's wake-up table (one wake-up on commit, not two).
    let mut p = Pump::new(recovery());
    p.ms.begin_htm(0, 0);
    p.ms.set_prio(0, 100);
    p.access(0, 100, AccessKind::Store);
    p.ms.begin_htm(1, 0);
    p.ms.set_prio(1, 1);
    for _ in 0..2 {
        let t = p.now();
        p.ms.access(t, 1, LineAddr(100), AccessKind::Load);
        let n = p.settle();
        assert_eq!(
            n,
            vec![CoreNotice::AccessRejected {
                core: 1,
                by_sig: false
            }]
        );
    }
    let t = p.now();
    p.ms.commit_htm(t, 0);
    let n = p.settle();
    assert_eq!(
        n.iter()
            .filter(|x| matches!(x, CoreNotice::Wakeup { core: 1 }))
            .count(),
        1,
        "exactly one wake-up expected: {n:?}"
    );
}

#[test]
fn llc_misses_cost_memory_latency() {
    let mut p = Pump::new(base());
    // Cold miss goes to memory.
    let t0 = p.now();
    p.access(0, 100, AccessKind::Load);
    let cold = p.now() - t0;
    // A different core's miss on the same (now LLC-resident) line is
    // cheaper by about the memory latency.
    let t1 = p.now();
    p.access(1, 100, AccessKind::Load);
    let warm = p.now() - t1;
    let mem_lat = SystemConfig::testing(4).mem.mem_latency;
    assert!(
        cold >= warm + mem_lat / 2,
        "cold {cold} should exceed warm {warm} by ~memory latency"
    );
}
