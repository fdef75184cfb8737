//! Scheduler seam: the engine's nondeterministic pick points, exposed.
//!
//! The discrete-event queue orders events by `(cycle, seq)`; the FIFO
//! tie-break among same-cycle events is the **only** nondeterminism in a
//! simulation (guests compute in zero simulated time and every latency is
//! deterministic). A [`Scheduler`] intercepts exactly those tie-breaks:
//! whenever two or more events are pending at the minimum cycle, the
//! engine describes each candidate as an [`EvDesc`] and asks the
//! scheduler which one fires first. Replaying the same decision sequence
//! reproduces the run bit-for-bit; enumerating alternative decisions
//! enumerates every schedule the model can exhibit.
//!
//! [`EvDesc`] also carries a conservative *footprint* (cores touched,
//! cache line, home LLC bank, or "global") from which
//! [`EvDesc::conflicts`] derives the dependence relation used by the
//! `tmverify` partial-order reduction: two events are independent only if
//! their footprints are provably disjoint, so commuting independent
//! events can never change the resulting state.

use sim_core::types::{Cycle, LineAddr};

/// Coarse event category (mirrors the engine's private event enum).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvClass {
    /// Rendezvous: receive the core's next operation.
    Recv,
    /// Deliver a previously scheduled guest response.
    Respond,
    /// A NoC message arrives at the memory subsystem.
    Net,
    /// A memory-subsystem notification lands at a core controller.
    Notice,
    /// Recovery-mechanism retry (RetryLater pause elapsed).
    Retry,
    /// Wake-up safety-net timeout.
    ParkTimeout,
}

/// One schedulable event, described by its footprint.
///
/// `cores` is a bitmask of the core controllers the event can read or
/// write; `line`/`bank` locate the cache line (and its home LLC bank —
/// events on different lines of the same bank still couple through tag
/// LRU and the blocking directory, so dependence is keyed per bank);
/// `global` marks events that touch state shared beyond one bank (HLA
/// arbiter, overflow signatures, commit/abort wake-up fan-out, barrier).
#[derive(Clone, Debug)]
pub struct EvDesc {
    pub class: EvClass,
    /// Bitmask of cores whose controller state the event touches.
    pub cores: u64,
    /// Cache line accessed, if the event is line-addressed.
    pub line: Option<LineAddr>,
    /// Home LLC bank of `line` (same-bank events are dependent).
    pub bank: Option<usize>,
    /// Touches globally shared state; dependent with everything.
    pub global: bool,
    /// Refinement hint for `global` events: the global state touched is
    /// only core-attributable *sync machinery* — commit/abort wake-up
    /// fan-out, the HLA arbiter, lock-mode transitions — never the
    /// barrier, demand paging, or overflow signatures. A whole-program
    /// static analysis ([`StaticIndependence`]) can prove such an event
    /// independent of cores that provably never park, lock, or share a
    /// bank with the event's cores. Meaningless when `global` is false.
    pub sync: bool,
    /// Stable identity hash (class + payload, volatile tags excluded);
    /// used to match the "same" event across replays of one prefix.
    pub id: u64,
}

impl EvDesc {
    /// Conservative dependence: `true` unless the footprints are provably
    /// disjoint. Independent events commute — executing them in either
    /// order reaches the same state — so a schedule explorer only needs
    /// to branch on dependent pairs.
    pub fn conflicts(&self, other: &EvDesc) -> bool {
        self.global
            || other.global
            || (self.cores & other.cores) != 0
            || (self.bank.is_some() && self.bank == other.bank)
    }

    /// Compact human-readable label for witness/debug rendering.
    pub fn label(&self) -> String {
        let mut s = format!("{:?}", self.class);
        if self.cores != 0 && self.cores != u64::MAX {
            s.push_str(":c");
            for c in 0..64 {
                if self.cores & (1 << c) != 0 {
                    s.push_str(&c.to_string());
                }
            }
        }
        if let Some(l) = self.line {
            s.push_str(&format!(":L{}", l.0));
        }
        if self.global {
            s.push_str(":g");
        }
        s
    }
}

/// A statically-computed refinement of [`EvDesc::conflicts`]: extra
/// independence facts a whole-program analysis proved about the guest
/// kernel, consumed by the `tmverify` partial-order reduction so that
/// statically-independent step pairs never generate backtrack points.
///
/// The producer (the `tmstatic` crate) is responsible for soundness: a
/// table may only be constructed when the analysis proved, for the whole
/// program, that (a) no transaction can overflow its speculative
/// capacity (so overflow signatures are never touched and switchingMode
/// never engages), (b) no LLC set can ever evict (so tag-LRU order is
/// unobservable), and (c) `bank_foot`/`pure` over-approximate every
/// reachable footprint, including conditionally-touched lines such as
/// the fallback lock. Under those premises, commuting a refined pair
/// cannot change any reachable state, which is exactly what sleep-set
/// soundness requires. Explorers must ignore the table when protocol
/// fault injection is active — injected faults break the premises.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StaticIndependence {
    /// Per-core bitmask of LLC banks the core's program can ever touch
    /// (data lines plus the fallback lock line when reachable).
    pub bank_foot: Vec<u64>,
    /// Bitmask of cores statically proven *pure*: they never abort,
    /// never take the fallback lock, never park on a rejected request,
    /// and never touch HLA or signature state.
    pub pure: u64,
}

impl StaticIndependence {
    /// True when the table proves `a` and `b` independent even though
    /// the dynamic footprints overlap. Requires: both events attributable
    /// to disjoint core sets, any `global` flag explained by `sync`
    /// machinery, disjoint static bank footprints, and at least one side
    /// consisting solely of pure cores (so no shared sync state exists
    /// for the pair to communicate through).
    /// Whether the table can refine *any* pair at all. A table with no
    /// pure cores is vacuous — installing it must leave exploration
    /// bit-identical to running without one, and callers use this to
    /// assert that (or to skip the install entirely).
    pub fn can_refine_any(&self) -> bool {
        self.pure != 0
    }

    pub fn refines(&self, a: &EvDesc, b: &EvDesc) -> bool {
        if a.cores == 0 || b.cores == 0 || (a.cores & b.cores) != 0 {
            return false;
        }
        if (a.global && !a.sync) || (b.global && !b.sync) {
            return false;
        }
        let foot = |cores: u64| {
            self.bank_foot
                .iter()
                .enumerate()
                .filter(|&(c, _)| cores & (1 << c) != 0)
                .fold(0u64, |acc, (_, f)| acc | f)
        };
        // Cores beyond the table are unknown: refuse to refine.
        let known = if self.bank_foot.len() >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bank_foot.len()) - 1
        };
        if a.cores & !known != 0 || b.cores & !known != 0 {
            return false;
        }
        if foot(a.cores) & foot(b.cores) != 0 {
            return false;
        }
        a.cores & !self.pure == 0 || b.cores & !self.pure == 0
    }

    /// The refined dependence relation: dynamic
    /// [`EvDesc::conflicts`] minus statically-proven-independent pairs.
    pub fn conflicts(&self, a: &EvDesc, b: &EvDesc) -> bool {
        a.conflicts(b) && !self.refines(a, b)
    }
}

/// A tie-break policy driven by the engine at every nondeterministic
/// pick point (see module docs). `pick` receives the same-cycle
/// candidates in FIFO (schedule) order — index 0 is what the default
/// deterministic engine would fire — plus `state_fp`, which computes a
/// fingerprint of the current architectural state
/// ([`crate::engine::Engine::state_fingerprint`]) when called. The hash
/// walks the whole simulator, so a scheduler calls it only where it
/// keeps the value; calling it has no side effects. `observe` is called
/// for **every** dispatched event, including forced single-candidate
/// fronts, so a partial-order reducer can maintain its sleep sets.
pub trait Scheduler {
    /// Choose which of `options` fires first; returns an index into
    /// `options` (out-of-range picks are clamped to the last candidate).
    fn pick(&mut self, at: Cycle, options: &[EvDesc], state_fp: &dyn Fn() -> u64) -> usize;

    /// Notification that `ev` was just dispatched at cycle `at`.
    fn observe(&mut self, at: Cycle, ev: &EvDesc) {
        let _ = (at, ev);
    }
}

/// How a scheduled run terminated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunEnd {
    /// Every guest thread exited.
    Done,
    /// Event queue drained with live threads: the listed cores wait for
    /// events (wake-ups) that can never arrive.
    Deadlock { stuck: Vec<usize> },
    /// The configured cycle budget ran out ([`crate::Runner::max_cycles`]).
    CycleLimit { at: Cycle },
}

impl RunEnd {
    pub fn is_done(&self) -> bool {
        matches!(self, RunEnd::Done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(cores: u64, bank: Option<usize>, global: bool) -> EvDesc {
        EvDesc {
            class: EvClass::Net,
            cores,
            line: bank.map(|b| LineAddr(b as u64)),
            bank,
            global,
            sync: false,
            id: 0,
        }
    }

    #[test]
    fn dependence_relation() {
        // Disjoint cores, different banks, nothing global: independent.
        assert!(!desc(0b01, Some(0), false).conflicts(&desc(0b10, Some(1), false)));
        // Overlapping cores are dependent.
        assert!(desc(0b01, None, false).conflicts(&desc(0b11, None, false)));
        // Same bank is dependent even with disjoint cores.
        assert!(desc(0b01, Some(1), false).conflicts(&desc(0b10, Some(1), false)));
        // Global events are dependent with everything.
        assert!(desc(0b01, None, true).conflicts(&desc(0b10, Some(1), false)));
    }

    #[test]
    fn static_refinement() {
        // Core 0 on bank 0, core 1 on bank 1, both pure.
        let t = StaticIndependence {
            bank_foot: vec![0b01, 0b10],
            pure: 0b11,
        };
        let sync = |cores: u64| EvDesc {
            sync: true,
            ..desc(cores, None, true)
        };
        // A commit-class global of core 0 is refined against core 1...
        assert!(t.refines(&sync(0b01), &desc(0b10, Some(1), false)));
        assert!(!t.conflicts(&sync(0b01), &desc(0b10, Some(1), false)));
        // ... but the dynamic relation alone says they conflict.
        assert!(sync(0b01).conflicts(&desc(0b10, Some(1), false)));
        // Barrier-class globals (sync = false) are never refined.
        assert!(!t.refines(&desc(0b01, None, true), &desc(0b10, None, false)));
        // Overlapping cores are never refined.
        assert!(!t.refines(&sync(0b01), &desc(0b01, None, false)));
        // Unattributable events (cores == 0) are never refined.
        assert!(!t.refines(&desc(0, None, true), &desc(0b10, None, false)));
        // Cores beyond the table are never refined.
        assert!(!t.refines(&sync(0b100), &desc(0b10, None, false)));
        // Shared static bank footprints block refinement.
        let shared = StaticIndependence {
            bank_foot: vec![0b01, 0b01],
            pure: 0b11,
        };
        assert!(!shared.refines(&sync(0b01), &desc(0b10, None, false)));
        // Two impure cores block refinement even with disjoint banks.
        let impure = StaticIndependence {
            bank_foot: vec![0b01, 0b10],
            pure: 0,
        };
        assert!(!impure.refines(&sync(0b01), &desc(0b10, None, false)));
        // One pure side is enough.
        let half = StaticIndependence {
            bank_foot: vec![0b01, 0b10],
            pure: 0b10,
        };
        assert!(half.refines(&sync(0b01), &desc(0b10, None, false)));
    }

    #[test]
    fn labels_render() {
        let d = desc(0b10, Some(3), false);
        assert_eq!(d.label(), "Net:c1:L3");
        let g = desc(0, None, true);
        assert_eq!(g.label(), "Net:g");
    }
}
