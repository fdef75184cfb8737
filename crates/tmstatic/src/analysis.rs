//! The whole-program analysis lattice: per-kernel abstract footprints
//! → capacity → abort/park sources → fallback contagion → lock
//! footprint and purity → may-conflict relation and independence table.
//!
//! Everything here is computed from three inputs — the [`SystemKind`]
//! (which concurrency-control policy runs the critical sections), one
//! guest [`Kernel`] per thread (whose footprints [`analyze_cached`]
//! derives by abstract interpretation), and the [`SystemConfig`] (cache
//! geometry, from which capacity and bank placement follow). A
//! `ProgSpec` is analyzed by compiling it first
//! ([`VmAnalysis::of_spec`]): the compiled kernels are straight-line
//! with constant addresses, so nothing widens and the footprints are
//! exactly the spec's own line sets.
//!
//! All facts are conservative over-approximations of what any schedule
//! can exhibit; the soundness tests check the dynamic
//! [`ConflictEdge`](sim_core::obs::ConflictEdge)s of real runs against
//! [`VmAnalysis::may_conflict`]. Where a footprint widened to Top the
//! verdicts degrade soundly: overflow becomes unknown, the thread may
//! abort, and [`VmAnalysis::independence`] refuses to build a table.
//!
//! # Physical layout
//!
//! The analysis assumes the fixed `Runner` arena layout re-exported by
//! [`SpecProgram::LOCK_LINE`]/[`SpecProgram::data_line`]: the fallback
//! lock lives on `LineAddr(1)` and spec line `i` on `LineAddr(2 + i)`.

use crate::vmabs::{analyze_cached, AbsLines, KernelAbs};
use guestvm::spec::{ProgSpec, SpecProgram};
use guestvm::Kernel;
use lockiller::{StaticIndependence, SystemKind};
use sim_core::config::SystemConfig;
use sim_core::types::LineAddr;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// [`KernelAbs`] projected onto one thread of a concrete system, with
/// explicit "unknown" where a widened footprint voids a proof.
#[derive(Clone, Debug)]
pub struct VmThreadFacts {
    pub abs: Arc<KernelAbs>,
    /// The thread has at least one critical region (even an empty or
    /// compute-only one enters the concurrency-control machinery).
    pub has_critical: bool,
    /// Some critical region *provably* overflows the speculative ways:
    /// every HTM attempt of that region must overflow.
    pub overflow: bool,
    /// Some critical region's footprint widened to Top, so overflow can
    /// be neither proven nor refuted.
    pub overflow_unknown: bool,
    /// Some HTM attempt by this thread can abort (capacity overflow,
    /// data conflict on its transactional lines, or — on
    /// lock-subscribing systems — observing a taken fallback lock).
    pub tx_abort: bool,
    /// Some request by this thread can be rejected, so the thread can
    /// park / retry / self-abort under the recovery mechanism.
    pub parks: bool,
    /// The thread can reach the software fallback lock (or holds the
    /// CGL lock for its critical sections).
    pub fallback: bool,
    /// The thread can read / write the physical lock line.
    pub lock_read: bool,
    pub lock_write: bool,
    /// Statically *pure*: never aborts, never parks, never touches the
    /// lock-write path, HLA arbiter, or overflow signatures. Pure cores
    /// are the refinement targets of [`VmAnalysis::independence`].
    pub pure: bool,
}

/// Whole-program static analysis over one kernel per thread, assuming
/// the standard `Runner` arena layout (fallback lock on
/// [`SpecProgram::LOCK_LINE`]).
pub struct VmAnalysis {
    pub system: SystemKind,
    pub cfg: SystemConfig,
    pub threads: Vec<VmThreadFacts>,
}

impl VmAnalysis {
    pub fn new(system: SystemKind, cfg: SystemConfig, kernels: &[Kernel]) -> VmAnalysis {
        let policy = system.policy();
        let htm = system.uses_htm();
        // Lock subscription: every HTM attempt transactionally loads the
        // lock line unless HTMLock removes the subscription.
        let subscribes = htm && !policy.htmlock;
        let nthreads = kernels.len();

        // Layer 1: per-thread abstract footprints (cached per kernel).
        let mut threads: Vec<VmThreadFacts> = kernels
            .iter()
            .enumerate()
            .map(|(tid, k)| {
                let abs = analyze_cached(k, tid, nthreads);
                VmThreadFacts {
                    has_critical: abs.has_critical,
                    abs,
                    overflow: false,
                    overflow_unknown: false,
                    tx_abort: false,
                    parks: false,
                    fallback: false,
                    lock_read: false,
                    lock_write: false,
                    pure: false,
                }
            })
            .collect();

        // Layer 2: capacity, per critical region. A region overflows when
        // more distinct physical lines (its data lines, plus the
        // subscribed lock line) map to one L1 set than the set has ways.
        // A widened region makes the question unanswerable.
        for t in &mut threads {
            if !htm {
                continue;
            }
            for region in &t.abs.regions {
                match region.lines() {
                    None => t.overflow_unknown = true,
                    Some(mut phys) => {
                        if subscribes {
                            phys.insert(SpecProgram::LOCK_LINE);
                        }
                        let mut per_set: BTreeMap<usize, usize> = BTreeMap::new();
                        for line in phys {
                            *per_set.entry(cfg.l1_set_of(line)).or_default() += 1;
                        }
                        if per_set.values().any(|&c| c > cfg.speculative_ways()) {
                            t.overflow = true;
                        }
                    }
                }
            }
        }

        // Layer 3: abort sources and parking from pairwise conflicts.
        // Unknown overflow counts as a possible abort source.
        for t in 0..nthreads {
            let crit_conflict = (0..nthreads).any(|u| u != t && crit_conflict(&threads, t, u));
            let any_conflict = (0..nthreads).any(|u| u != t && data_conflict(&threads, t, u));
            let me = &mut threads[t];
            me.tx_abort =
                me.has_critical && htm && (me.overflow || me.overflow_unknown || crit_conflict);
            // A barrier parks the thread until every peer arrives; a
            // page touch rendezvous with global paging state.
            me.parks = any_conflict || me.abs.has_barrier || me.abs.has_pagetouch;
        }

        // Layer 4: fallback-lock reachability. An aborting thread burns
        // its retry budget and falls back. On lock-subscribing systems
        // the taken lock then aborts *every* concurrent HTM attempt
        // (LockTaken), so one reachable fallback makes the whole
        // critical population fallback-reachable.
        for t in &mut threads {
            t.fallback = t.tx_abort;
        }
        if subscribes && threads.iter().any(|t| t.fallback) {
            for t in &mut threads {
                if t.has_critical {
                    t.fallback = true;
                    t.tx_abort = true;
                }
            }
        }

        // Layer 5: lock-line footprint and purity.
        for t in &mut threads {
            if policy.coarse_grained_lock {
                t.lock_read = t.has_critical;
                t.lock_write = t.has_critical;
            } else if subscribes {
                t.lock_read = t.has_critical;
                t.lock_write = t.fallback;
            } else {
                // HTMLock: no subscription; only fallback takers touch it.
                t.lock_read = t.fallback;
                t.lock_write = t.fallback;
            }
            let cgl_critical = policy.coarse_grained_lock && t.has_critical;
            t.pure = !cgl_critical && !t.tx_abort && !t.parks && !t.fallback && !t.lock_write;
        }

        VmAnalysis {
            system,
            cfg,
            threads,
        }
    }

    /// The analysis of `spec` compiled under the standard runner arena
    /// layout ([`SpecProgram::compile_all`]) — the kernels every run of
    /// the spec executes, `tmverify`'s explored runs included.
    pub fn of_spec(system: SystemKind, spec: &ProgSpec, cfg: SystemConfig) -> VmAnalysis {
        VmAnalysis::new(system, cfg, &SpecProgram::compile_all(spec))
    }

    fn writes(&self, t: usize, l: LineAddr) -> bool {
        self.threads[t].abs.written().contains(l)
    }

    fn touches(&self, t: usize, l: LineAddr) -> bool {
        self.threads[t].abs.touched().contains(l)
    }

    /// The whole-program may-conflict relation over *physical* lines:
    /// true when cores `a` and `b` can dynamically produce a
    /// [`ConflictEdge`](sim_core::obs::ConflictEdge) on `line` in some
    /// schedule. Over-approximates: covers data conflicts (one side
    /// writes, the other touches), lock-line traffic (subscription
    /// loads vs. fallback/CGL lock writes), and Bloom-signature false
    /// positives of switchingMode (an overflowing thread's signature
    /// can falsely match *any* line another thread requests). Widened
    /// footprints touch every line, so the relation over-approximates
    /// exactly where precision was lost.
    pub fn may_conflict(&self, a: usize, b: usize, line: LineAddr) -> bool {
        let n = self.threads.len();
        if a >= n || b >= n {
            return false;
        }
        if a == b {
            return true;
        }
        if line == SpecProgram::LOCK_LINE {
            let (fa, fb) = (&self.threads[a], &self.threads[b]);
            return (fa.lock_read || fa.lock_write)
                && (fb.lock_read || fb.lock_write)
                && (fa.lock_write || fb.lock_write);
        }
        let data = (self.writes(a, line) && self.touches(b, line))
            || (self.touches(a, line) && self.writes(b, line));
        let sig = |x: usize, y: usize| {
            self.system.policy().switching_mode
                && (self.threads[x].overflow || self.threads[x].overflow_unknown)
                && self.touches(y, line)
        };
        data || sig(a, b) || sig(b, a)
    }

    /// Physical lines thread `t` can touch, including the lock line
    /// when its policy-dependent footprint is reachable.
    pub fn phys_lines(&self, t: usize) -> AbsLines {
        let f = &self.threads[t];
        let mut out = f.abs.touched();
        if f.lock_read || f.lock_write {
            out.insert(SpecProgram::LOCK_LINE);
        }
        out
    }

    /// Whether some LLC set can be asked to hold more program lines than
    /// its associativity, so a tag eviction — and with it an observable
    /// LRU ordering effect — is possible. `None` when a widened
    /// footprint makes the count unknowable.
    pub fn llc_eviction_possible(&self) -> Option<bool> {
        // Count the lock line unconditionally: cheap, and immune to an
        // under-approximated lock footprint.
        let mut lines: BTreeSet<LineAddr> = [SpecProgram::LOCK_LINE].into();
        for t in 0..self.threads.len() {
            lines.extend(self.phys_lines(t).lines()?.iter().copied());
        }
        let mut per_set: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for line in lines {
            let key = (self.cfg.bank_of(line), self.cfg.llc_set_of(line));
            *per_set.entry(key).or_default() += 1;
        }
        Some(per_set.values().any(|&c| c > self.cfg.mem.llc_bank.ways))
    }

    /// Construct the DPOR pruning table, or `None` when the soundness
    /// premises cannot be *proven* for the whole program:
    ///
    /// - **No capacity overflow anywhere** — otherwise overflow
    ///   signatures are populated and consulted by every HTM request
    ///   (with Bloom false positives against arbitrary lines), and
    ///   switchingMode engages.
    /// - **No LLC eviction possible** — otherwise tag-LRU state couples
    ///   same-bank events beyond the per-line directory.
    /// - **Precise footprints, no page touches, at most 64 cores** —
    ///   any widened footprint or page-touch traffic degrades to
    ///   no-pruning rather than risking an unsound table.
    ///
    /// Under those premises the returned table's `bank_foot` covers
    /// every line each core can touch (including the conditionally
    /// reachable lock) and `pure` marks cores that provably never
    /// abort, park, lock, or touch HLA/signature state.
    pub fn independence(&self) -> Option<StaticIndependence> {
        if self
            .threads
            .iter()
            .any(|t| t.overflow || t.overflow_unknown || t.abs.has_pagetouch)
        {
            return None;
        }
        if self.llc_eviction_possible() != Some(false) {
            return None;
        }
        let cores = self.cfg.num_cores;
        if cores > 64 {
            return None;
        }
        let mut bank_foot = vec![0u64; cores];
        let mut pure = 0u64;
        for (c, foot) in bank_foot.iter_mut().enumerate() {
            if let Some(f) = self.threads.get(c) {
                for &line in self.phys_lines(c).lines()? {
                    *foot |= 1 << self.cfg.bank_of(line);
                }
                if f.pure {
                    pure |= 1 << c;
                }
            } else {
                // Cores beyond the kernels run no guest at all.
                pure |= 1 << c;
            }
        }
        Some(StaticIndependence { bank_foot, pure })
    }
}

/// A conflict touching `t`'s *transactional* lines (what can abort
/// `t`'s HTM attempts): `t` writes a line `u` touches, or `u` writes a
/// line `t` touches transactionally.
fn crit_conflict(threads: &[VmThreadFacts], t: usize, u: usize) -> bool {
    let (ft, fu) = (&threads[t].abs, &threads[u].abs);
    ft.crit_writes.intersects(&fu.touched()) || ft.crit_reads.intersects(&fu.written())
}

/// Any access of `t` conflicting with any access of `u` (what can get a
/// request of `t` rejected, hence parked, by the recovery mechanism).
fn data_conflict(threads: &[VmThreadFacts], t: usize, u: usize) -> bool {
    let (ft, fu) = (&threads[t].abs, &threads[u].abs);
    ft.written().intersects(&fu.touched()) || ft.touched().intersects(&fu.written())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(system: SystemKind, spec: &str) -> VmAnalysis {
        let spec = ProgSpec::parse(spec).expect("test specs are valid");
        let cfg = tmverify::Explorer::new(system, spec.clone()).config();
        VmAnalysis::of_spec(system, &spec, cfg)
    }

    fn tiny_l1(system: SystemKind, spec: &str) -> VmAnalysis {
        let spec = ProgSpec::parse(spec).expect("test specs are valid");
        let mut ex = tmverify::Explorer::new(system, spec.clone());
        ex.tiny_l1 = true;
        VmAnalysis::of_spec(system, &spec, ex.config())
    }

    #[test]
    fn disjoint_htmlock_threads_are_pure_with_disjoint_banks() {
        let a = analyze(SystemKind::LockillerTm, "3/c:L0,S0/c:L1,S1/c:L2,S2");
        assert!(a.threads.iter().all(|t| t.pure && !t.lock_read));
        let table = a.independence().expect("premises hold");
        assert_eq!(table.pure, 0b111);
        // Lines 0,1,2 -> LineAddr 2,3,4 -> banks 2,0,1 (3 banks).
        assert_eq!(table.bank_foot[0] & table.bank_foot[1], 0);
        assert_eq!(table.bank_foot[0] & table.bank_foot[2], 0);
        assert_eq!(table.bank_foot[1] & table.bank_foot[2], 0);
    }

    #[test]
    fn conflict_ring_has_no_pure_cores() {
        let a = analyze(SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0");
        assert!(a.threads.iter().all(|t| t.tx_abort && t.parks && !t.pure));
        // Subscribing system with reachable aborts: everyone can take
        // the fallback lock.
        assert!(a.threads.iter().all(|t| t.lock_read && t.lock_write));
        let table = a.independence().expect("no overflow, no eviction");
        assert_eq!(table.pure, 0, "nothing to refine on the ring");
    }

    #[test]
    fn subscription_without_aborts_reads_lock_only() {
        // Disjoint threads on a subscribing (non-HTMLock) system: the
        // subscription load is reachable, the fallback write is not.
        let a = analyze(SystemKind::LockillerRwi, "2/c:L0,S0/c:L1,S1");
        assert!(a.threads.iter().all(|t| t.lock_read && !t.lock_write));
        assert!(a.threads.iter().all(|t| t.pure));
        let table = a.independence().expect("premises hold");
        // Both footprints contain the lock line's bank, so critical
        // threads can never be refined against each other.
        assert_ne!(table.bank_foot[0] & table.bank_foot[1], 0);
    }

    #[test]
    fn overflow_blocks_the_table_and_is_attributed() {
        let spec = "6/c:L0,L1,L2,S0/c:L3,L4,L5,S3";
        let a = tiny_l1(SystemKind::LockillerTm, spec);
        assert!(a.threads.iter().all(|t| t.overflow && !t.overflow_unknown));
        assert!(a.independence().is_none(), "overflow voids the premises");
        // The same kernel under the full-size L1 does not overflow.
        let a = analyze(SystemKind::LockillerTm, spec);
        assert!(a.threads.iter().all(|t| !t.overflow));
    }

    #[test]
    fn may_conflict_covers_lock_data_and_signatures() {
        let a = analyze(SystemKind::LockillerRwi, "2/c:L0,S1/c:L1,S0");
        // Data: both write each other's read lines.
        assert!(a.may_conflict(0, 1, SpecProgram::data_line(0)));
        assert!(a.may_conflict(0, 1, SpecProgram::data_line(1)));
        // Lock: both can fall back.
        assert!(a.may_conflict(0, 1, SpecProgram::LOCK_LINE));
        // Out-of-arena lines are never predicted.
        assert!(!a.may_conflict(0, 1, LineAddr(0)));
        assert!(!a.may_conflict(0, 1, LineAddr(99)));

        // Disjoint kernels predict no data conflicts...
        let d = analyze(SystemKind::LockillerTm, "2/c:L0,S0/c:L1,S1");
        assert!(!d.may_conflict(0, 1, SpecProgram::data_line(0)));
        assert!(!d.may_conflict(0, 1, SpecProgram::LOCK_LINE));

        // ...unless signatures can false-positive: an overflowing
        // switchingMode thread may conflict on any line the peer touches.
        let s = tiny_l1(SystemKind::LockillerTm, "6/c:L0,L1,L2,S0/c:L3,L4,L5,S3");
        assert!(s.may_conflict(0, 1, SpecProgram::data_line(4)));
        assert!(s.may_conflict(1, 0, SpecProgram::data_line(0)));
    }

    #[test]
    fn cgl_critical_threads_are_impure_lock_writers() {
        let a = analyze(SystemKind::Cgl, "2/c:L0,S0/p:L1");
        assert!(a.threads[0].lock_write && !a.threads[0].pure);
        assert!(!a.threads[1].lock_read && a.threads[1].pure);
        assert_eq!(a.threads[0].abs.regions.len(), 1);
        assert!(!a.threads[0].overflow, "CGL never runs HTM");
    }

    #[test]
    fn llc_eviction_check_counts_sets() {
        // The testing LLC is far larger than any small kernel arena.
        let a = analyze(SystemKind::LockillerRwi, "8/c:L0,S7/c:L3,S4");
        assert_eq!(a.llc_eviction_possible(), Some(false));
    }
}
