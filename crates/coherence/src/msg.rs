//! Protocol message vocabulary and the conflict-arbitration rule at the
//! heart of the recovery mechanism.

use sim_core::config::PolicyConfig;
use sim_core::types::{CoreId, LineAddr};

/// Transaction priority carried on requests (the paper encodes this in the
/// ACE bus ARUSER field). Higher wins; ties break towards the smaller core
/// id. Lock transactions carry [`PRIO_LOCK`], the global maximum.
pub type Prio = u64;

/// Priority of a TL/STL lock transaction: globally highest.
pub const PRIO_LOCK: Prio = u64::MAX;

/// Execution mode of a core as seen by the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TxMode {
    /// Not in any transaction.
    None,
    /// Speculative HTM transaction.
    Htm,
    /// HTMLock lock transaction entered via `hlbegin` (TL).
    LockTl,
    /// HTMLock lock transaction entered by a proactive switch (STL).
    LockStl,
}

impl TxMode {
    pub fn is_lock(self) -> bool {
        matches!(self, TxMode::LockTl | TxMode::LockStl)
    }

    pub fn is_tx(self) -> bool {
        !matches!(self, TxMode::None)
    }
}

/// Classification a request carries so victims and the LLC can arbitrate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReqMode {
    /// Plain access outside any critical section.
    NonTx,
    /// Non-transactional access from inside a baseline fallback critical
    /// section (used to classify the paper's `mutex` abort cause).
    Fallback,
    /// Access from a speculative HTM transaction.
    Htm,
    /// Access from a TL/STL lock transaction.
    LockTx,
}

/// Coherence request kind. An upgrade is a `GetM` from a current sharer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReqKind {
    GetS,
    GetM,
}

/// A coherence request as seen by the home bank and probed L1s.
#[derive(Clone, Copy, Debug, Hash)]
pub struct ReqInfo {
    pub core: CoreId,
    pub kind: ReqKind,
    pub line: LineAddr,
    pub prio: Prio,
    pub mode: ReqMode,
    /// Requester-side attempt tag: responses echo it so a core can tell a
    /// response to a dead (aborted-attempt) request from one addressed to
    /// its current request for the same line.
    pub attempt: u64,
}

/// Grant state returned with data.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GrantState {
    Shared,
    Exclusive,
    Modified,
}

/// Response from a probed L1 back to the home bank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum L1Rsp {
    /// Invalidated (or never had) the line; `had_line` distinguishes a
    /// stale probe from a real invalidation, `aborted` reports that the
    /// probe killed a transaction.
    InvAck { had_line: bool, aborted: bool },
    /// Owner downgraded M/E to S and (timing-wise) pushed data back.
    DowngradeAck { dirty: bool },
    /// Recovery mechanism: the victim refuses the request (NACK). The
    /// directory restores its pre-request state and relays the reject.
    Reject,
}

/// Messages travelling on the NoC between L1s, LLC banks, and the arbiter.
#[derive(Clone, Copy, Debug, Hash)]
pub enum NetMsg {
    /// L1 -> home bank: coherence request.
    Req(ReqInfo),
    /// L1 -> home bank: dirty writeback (eviction) — data message.
    PutM { core: CoreId, line: LineAddr },
    /// L1 -> home bank: clean eviction notice (E/S) — control message.
    PutClean { core: CoreId, line: LineAddr },
    /// L1 -> home bank: pre-transaction writeback of a dirty line that is
    /// about to be speculatively written. Timing-only; no state change.
    SpecWb { core: CoreId, line: LineAddr },
    /// L1 -> home bank: add an evicted lock-transaction line to the LLC
    /// overflow signatures.
    SigAdd {
        line: LineAddr,
        read: bool,
        write: bool,
    },

    /// Home bank -> L1: probe. `back_inval` marks inclusive-LLC eviction
    /// probes, which cannot be rejected.
    FwdGetS { to: CoreId, req: ReqInfo },
    Inv {
        to: CoreId,
        req: ReqInfo,
        back_inval: bool,
    },

    /// L1 -> home bank: probe response for `req`.
    ProbeRsp {
        from: CoreId,
        req: ReqInfo,
        rsp: L1Rsp,
    },

    /// Home bank -> requesting L1: grant with data (data message) or a
    /// dataless upgrade ack (control message).
    Grant {
        to: CoreId,
        line: LineAddr,
        state: GrantState,
        with_data: bool,
        attempt: u64,
    },
    /// Home bank -> requesting L1: request rejected (by a victim's NACK or
    /// by the LLC overflow signatures).
    RspReject {
        to: CoreId,
        line: LineAddr,
        by_sig: bool,
        attempt: u64,
    },

    /// Requester -> home bank: grant received; the directory may move to
    /// the stable state and serve the next queued request (Fig. 3).
    Unblock { core: CoreId, line: LineAddr },

    /// Rejecter -> parked requester: retry now (the paper's stash-style
    /// wake-up message).
    Wakeup { to: CoreId },

    /// Core -> HLA arbiter (tile 0): request to enter HTMLock mode.
    /// `stl` distinguishes a proactive switch from a TL entry.
    HlaReq { core: CoreId, stl: bool },
    /// Core -> HLA arbiter: release (at `hlend`).
    HlaRel { core: CoreId },
    /// Arbiter -> core: authorization result.
    HlaRsp { to: CoreId, granted: bool },
}

impl NetMsg {
    /// Destination tile of the message given the line->bank mapping width.
    pub fn is_data(&self) -> bool {
        matches!(
            self,
            NetMsg::PutM { .. }
                | NetMsg::SpecWb { .. }
                | NetMsg::Grant {
                    with_data: true,
                    ..
                }
                | NetMsg::ProbeRsp {
                    rsp: L1Rsp::DowngradeAck { dirty: true },
                    ..
                }
        )
    }
}

/// Outcome of conflict arbitration between a request and a victim that
/// holds the line in its read/write set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Winner {
    /// The requester wins: the victim transaction aborts.
    Requester,
    /// The victim wins: the request is rejected (recovery mechanism).
    Victim,
}

/// The paper's arbitration rule (Fig. 4): on a conflicting external
/// request, compare the requester's carried priority against the victim's
/// current priority; equal priorities break towards the smaller core id.
///
/// Overriding rules:
/// - a TL/STL lock-transaction victim always wins (it cannot roll back);
/// - non-transactional requesters always win against HTM victims (they
///   have no abort/retry machinery in the baseline ISA);
/// - without the recovery mechanism the requester always wins
///   (requester-win best-effort HTM).
pub fn arbitrate(
    policy: &PolicyConfig,
    req: &ReqInfo,
    victim_mode: TxMode,
    victim_prio: Prio,
    victim_core: CoreId,
) -> Winner {
    debug_assert!(
        victim_mode.is_tx(),
        "arbitration requires a transactional victim"
    );
    if victim_mode.is_lock() {
        return Winner::Victim;
    }
    if matches!(req.mode, ReqMode::NonTx | ReqMode::Fallback) {
        return Winner::Requester;
    }
    if !policy.recovery {
        return Winner::Requester;
    }
    match req.prio.cmp(&victim_prio) {
        std::cmp::Ordering::Greater => Winner::Requester,
        std::cmp::Ordering::Less => Winner::Victim,
        std::cmp::Ordering::Equal => {
            if req.core < victim_core {
                Winner::Requester
            } else {
                Winner::Victim
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(core: CoreId, prio: Prio, mode: ReqMode) -> ReqInfo {
        ReqInfo {
            core,
            kind: ReqKind::GetM,
            line: LineAddr(1),
            prio,
            mode,
            attempt: 0,
        }
    }

    fn recovery_policy() -> PolicyConfig {
        PolicyConfig {
            recovery: true,
            ..PolicyConfig::default()
        }
    }

    #[test]
    fn baseline_requester_always_wins() {
        let p = PolicyConfig::default();
        assert_eq!(
            arbitrate(&p, &req(1, 0, ReqMode::Htm), TxMode::Htm, 1_000_000, 0),
            Winner::Requester
        );
    }

    #[test]
    fn lock_victim_always_wins() {
        let p = PolicyConfig::default();
        assert_eq!(
            arbitrate(
                &p,
                &req(1, PRIO_LOCK, ReqMode::Htm),
                TxMode::LockTl,
                PRIO_LOCK,
                0
            ),
            Winner::Victim
        );
        let p = recovery_policy();
        assert_eq!(
            arbitrate(
                &p,
                &req(1, 99, ReqMode::NonTx),
                TxMode::LockStl,
                PRIO_LOCK,
                0
            ),
            Winner::Victim
        );
    }

    #[test]
    fn non_tx_requester_beats_htm_victim() {
        let p = recovery_policy();
        assert_eq!(
            arbitrate(&p, &req(1, 0, ReqMode::NonTx), TxMode::Htm, 1_000_000, 0),
            Winner::Requester
        );
        assert_eq!(
            arbitrate(&p, &req(1, 0, ReqMode::Fallback), TxMode::Htm, 1_000_000, 0),
            Winner::Requester
        );
    }

    #[test]
    fn recovery_compares_priorities() {
        let p = recovery_policy();
        assert_eq!(
            arbitrate(&p, &req(1, 10, ReqMode::Htm), TxMode::Htm, 5, 0),
            Winner::Requester
        );
        assert_eq!(
            arbitrate(&p, &req(1, 5, ReqMode::Htm), TxMode::Htm, 10, 0),
            Winner::Victim
        );
    }

    #[test]
    fn ties_break_to_smaller_core_id() {
        let p = recovery_policy();
        assert_eq!(
            arbitrate(&p, &req(0, 7, ReqMode::Htm), TxMode::Htm, 7, 1),
            Winner::Requester
        );
        assert_eq!(
            arbitrate(&p, &req(1, 7, ReqMode::Htm), TxMode::Htm, 7, 0),
            Winner::Victim
        );
    }

    #[test]
    fn lock_requester_beats_htm_victim_under_recovery() {
        let p = recovery_policy();
        assert_eq!(
            arbitrate(
                &p,
                &req(1, PRIO_LOCK, ReqMode::LockTx),
                TxMode::Htm,
                1_000_000,
                0
            ),
            Winner::Requester
        );
    }

    #[test]
    fn arbitration_is_antisymmetric() {
        // For any pair of HTM transactions, exactly one side wins both ways
        // around — the property that rules out mutual-reject deadlock.
        let p = recovery_policy();
        for (pa, pb) in [(3u64, 9u64), (9, 3), (5, 5)] {
            for (ca, cb) in [(0usize, 1usize), (1, 0)] {
                if ca == cb {
                    continue;
                }
                let a_vs_b = arbitrate(&p, &req(ca, pa, ReqMode::Htm), TxMode::Htm, pb, cb);
                let b_vs_a = arbitrate(&p, &req(cb, pb, ReqMode::Htm), TxMode::Htm, pa, ca);
                assert_ne!(
                    a_vs_b, b_vs_a,
                    "both sides won/lost: pa={pa} pb={pb} ca={ca} cb={cb}"
                );
            }
        }
    }

    #[test]
    fn data_message_classification() {
        assert!(NetMsg::PutM {
            core: 0,
            line: LineAddr(1)
        }
        .is_data());
        assert!(!NetMsg::PutClean {
            core: 0,
            line: LineAddr(1)
        }
        .is_data());
        assert!(NetMsg::Grant {
            to: 0,
            line: LineAddr(1),
            state: GrantState::Shared,
            with_data: true,
            attempt: 0
        }
        .is_data());
        assert!(!NetMsg::Wakeup { to: 3 }.is_data());
    }
}
