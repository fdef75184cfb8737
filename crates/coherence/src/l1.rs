//! Private L1 data cache with transactional read/write bits.
//!
//! The L1 is mechanically dumb: set-associative tag storage with LRU and
//! per-line MESI state plus the R/W transaction bits. All protocol *logic*
//! (probe arbitration, eviction policy decisions, signature spills) lives
//! in [`crate::memsys`], which drives these primitives; that separation
//! keeps each side independently testable.
//!
//! Victim preference on a fill follows real best-effort HTM designs:
//! an invalid way, else the LRU non-transactional line, and only when
//! every way in the set is transactionally marked does the fill become a
//! capacity **overflow event** — the trigger for an `of` abort, an
//! HTMLock signature spill, or a proactive switch, depending on mode.

use sim_core::config::CacheGeometry;
use sim_core::fxhash::FxHashSet;
use sim_core::types::LineAddr;
use std::hash::{Hash, Hasher};

/// MESI stable states as held in an L1 (I is represented by absence).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mesi {
    Shared,
    Exclusive,
    Modified,
}

/// One resident L1 line.
#[derive(Clone, Copy, Debug, Hash)]
pub struct L1Line {
    pub line: LineAddr,
    pub state: Mesi,
    /// Transactional read bit.
    pub r: bool,
    /// Transactional write bit (implies `state == Modified`).
    pub w: bool,
    lru: u64,
}

/// Outcome of asking where a fill for `line` would go.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Victim {
    /// A free way exists; install directly.
    Free,
    /// Evict this (non-transactional) resident line first.
    Evict(L1LineSnapshot),
    /// Every way in the set carries transaction bits: capacity overflow.
    /// Carries the LRU transactional line, which is what an HTMLock-mode
    /// spill would push into the LLC signatures.
    Overflow(L1LineSnapshot),
}

/// A copyable snapshot of a line used in eviction decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L1LineSnapshot {
    pub line: LineAddr,
    pub state: Mesi,
    pub r: bool,
    pub w: bool,
}

impl From<&L1Line> for L1LineSnapshot {
    fn from(l: &L1Line) -> Self {
        L1LineSnapshot {
            line: l.line,
            state: l.state,
            r: l.r,
            w: l.w,
        }
    }
}

/// The L1 cache proper.
#[derive(Clone, Debug)]
pub struct L1 {
    geom: CacheGeometry,
    sets: Vec<Vec<Option<L1Line>>>,
    clock: u64,
    /// Lines with R or W set — kept aside so commit/abort are O(set size),
    /// not O(cache size).
    tx_lines: FxHashSet<LineAddr>,
    /// Changes to any line's presence or MESI state so far: the live SWMR
    /// check reruns only after some L1's count moved. Bookkeeping, not
    /// cache state, so [`L1::fingerprint`] leaves it out.
    mutations: u64,
}

impl L1 {
    pub fn new(geom: CacheGeometry) -> L1 {
        L1 {
            geom,
            sets: vec![vec![None; geom.ways]; geom.sets],
            clock: 0,
            tx_lines: FxHashSet::default(),
            mutations: 0,
        }
    }

    fn set_of(&self, line: LineAddr) -> usize {
        self.geom.set_of(line.0)
    }

    pub fn lookup(&self, line: LineAddr) -> Option<&L1Line> {
        self.sets[self.set_of(line)]
            .iter()
            .flatten()
            .find(|l| l.line == line)
    }

    fn lookup_mut(&mut self, line: LineAddr) -> Option<&mut L1Line> {
        let set = self.set_of(line);
        self.sets[set].iter_mut().flatten().find(|l| l.line == line)
    }

    /// Change a resident line's MESI state.
    pub fn set_state(&mut self, line: LineAddr, state: Mesi) {
        let l = self.lookup_mut(line).expect("set_state on absent line");
        let changed = l.state != state;
        l.state = state;
        if changed {
            self.mutations += 1;
        }
    }

    /// Changes to any line's presence or MESI state so far.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }

    /// Bump LRU recency for a resident line.
    pub fn touch(&mut self, line: LineAddr) {
        self.clock += 1;
        let clock = self.clock;
        if let Some(l) = self.lookup_mut(line) {
            l.lru = clock;
        }
    }

    /// Set the transactional read/write bits on a resident line.
    /// Setting `w` requires the line to be Modified (speculative data
    /// lives in M; enforced by the protocol before any tx store).
    pub fn mark_tx(&mut self, line: LineAddr, read: bool, write: bool) {
        let l = self.lookup_mut(line).expect("mark_tx on absent line");
        if write {
            debug_assert_eq!(l.state, Mesi::Modified, "W bit requires M state");
            l.w = true;
        }
        if read {
            l.r = true;
        }
        if l.r || l.w {
            self.tx_lines.insert(line);
        }
    }

    /// Where would a fill for `line` go? Does not modify the cache.
    pub fn victim_for(&self, line: LineAddr) -> Victim {
        let set = &self.sets[self.set_of(line)];
        debug_assert!(
            set.iter().flatten().all(|l| l.line != line),
            "victim_for on already-resident line"
        );
        if set.iter().any(std::option::Option::is_none) {
            return Victim::Free;
        }
        // LRU among non-transactional lines.
        if let Some(v) = set
            .iter()
            .flatten()
            .filter(|l| !l.r && !l.w)
            .min_by_key(|l| l.lru)
        {
            return Victim::Evict(v.into());
        }
        // All ways transactional: overflow; report the LRU tx line.
        let v = set
            .iter()
            .flatten()
            .min_by_key(|l| l.lru)
            .expect("set cannot be empty here");
        Victim::Overflow(v.into())
    }

    /// Install a line; a way must be free (caller evicted if necessary).
    pub fn install(&mut self, line: LineAddr, state: Mesi, r: bool, w: bool) {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line);
        debug_assert!(self.lookup(line).is_none(), "install over resident line");
        let slot = self.sets[set]
            .iter_mut()
            .find(|w| w.is_none())
            .expect("install with no free way");
        *slot = Some(L1Line {
            line,
            state,
            r,
            w,
            lru: clock,
        });
        self.mutations += 1;
        if r || w {
            self.tx_lines.insert(line);
        }
    }

    /// Remove a line, returning its final state if it was resident.
    pub fn remove(&mut self, line: LineAddr) -> Option<L1LineSnapshot> {
        let set = self.set_of(line);
        for way in self.sets[set].iter_mut() {
            if way.as_ref().is_some_and(|l| l.line == line) {
                let snap = way.as_ref().map(L1LineSnapshot::from);
                *way = None;
                self.tx_lines.remove(&line);
                self.mutations += 1;
                return snap;
            }
        }
        None
    }

    /// Lines currently carrying transaction bits.
    pub fn tx_lines(&self) -> impl Iterator<Item = &L1Line> {
        self.tx_lines.iter().filter_map(|l| self.lookup(*l))
    }

    pub fn tx_footprint(&self) -> usize {
        self.tx_lines.len()
    }

    /// Commit: speculative M lines stay Modified, all bits clear.
    pub fn commit_tx(&mut self) {
        let lines: Vec<LineAddr> = self.tx_lines.drain().collect();
        for line in lines {
            if let Some(l) = self.lookup_mut(line) {
                debug_assert!(!l.w || l.state == Mesi::Modified);
                l.r = false;
                l.w = false;
            }
        }
    }

    /// Abort: speculatively written (W) lines are invalidated — their data
    /// never left the write buffer; the LLC copy is the pre-transaction
    /// truth. Read-set lines stay resident with bits cleared. Returns the
    /// invalidated lines (the directory learns lazily via stale probes,
    /// as in real abort-invalidate designs).
    pub fn abort_tx(&mut self) -> Vec<LineAddr> {
        let lines: Vec<LineAddr> = self.tx_lines.drain().collect();
        let mut dropped = Vec::new();
        for line in lines {
            let set = self.set_of(line);
            for way in self.sets[set].iter_mut() {
                if let Some(l) = way {
                    if l.line == line {
                        if l.w {
                            *way = None;
                            dropped.push(line);
                            self.mutations += 1;
                        } else {
                            l.r = false;
                        }
                        break;
                    }
                }
            }
        }
        dropped
    }

    /// Every resident line, by set then way (invariant checks).
    pub fn lines(&self) -> impl Iterator<Item = &L1Line> {
        self.sets.iter().flatten().flatten()
    }

    /// Number of resident lines (diagnostics / tests).
    pub fn occupancy(&self) -> usize {
        self.lines().count()
    }

    /// Fold the cache state into `h` for the explorer's state
    /// fingerprint: the geometry, `(set, way, line)` for each occupied
    /// way (LRU stamp included) and an end marker, the LRU clock, and the
    /// transactional-line set in its own iteration order. The mutation
    /// count is left out.
    pub fn fingerprint(&self, h: &mut impl Hasher) {
        self.geom.hash(h);
        crate::fingerprint_ways(&self.sets, h);
        self.clock.hash(h);
        self.tx_lines.len().hash(h);
        for line in &self.tx_lines {
            line.hash(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> L1 {
        // 4 sets x 2 ways.
        L1::new(CacheGeometry { sets: 4, ways: 2 })
    }

    #[test]
    fn install_and_lookup() {
        let mut c = small();
        c.install(LineAddr(1), Mesi::Exclusive, false, false);
        assert_eq!(c.lookup(LineAddr(1)).unwrap().state, Mesi::Exclusive);
        assert!(c.lookup(LineAddr(2)).is_none());
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn victim_prefers_free_way() {
        let mut c = small();
        c.install(LineAddr(0), Mesi::Shared, false, false);
        assert_eq!(c.victim_for(LineAddr(4)), Victim::Free); // same set 0, one way free
    }

    #[test]
    fn victim_prefers_lru_non_tx() {
        let mut c = small();
        c.install(LineAddr(0), Mesi::Shared, false, false);
        c.install(LineAddr(4), Mesi::Shared, false, false);
        c.touch(LineAddr(0)); // 4 becomes LRU
        match c.victim_for(LineAddr(8)) {
            Victim::Evict(v) => assert_eq!(v.line, LineAddr(4)),
            other => panic!("expected eviction, got {other:?}"),
        }
    }

    #[test]
    fn victim_skips_tx_lines() {
        let mut c = small();
        c.install(LineAddr(0), Mesi::Modified, false, false);
        c.mark_tx(LineAddr(0), false, true);
        c.install(LineAddr(4), Mesi::Shared, false, false);
        c.touch(LineAddr(0));
        // Line 4 is MRU-lesser but line 0 is transactional: evict 4.
        match c.victim_for(LineAddr(8)) {
            Victim::Evict(v) => assert_eq!(v.line, LineAddr(4)),
            other => panic!("expected eviction of non-tx line, got {other:?}"),
        }
    }

    #[test]
    fn all_tx_ways_is_overflow() {
        let mut c = small();
        c.install(LineAddr(0), Mesi::Exclusive, true, false);
        c.mark_tx(LineAddr(0), true, false);
        c.install(LineAddr(4), Mesi::Modified, false, false);
        c.mark_tx(LineAddr(4), false, true);
        match c.victim_for(LineAddr(8)) {
            Victim::Overflow(v) => assert_eq!(v.line, LineAddr(0), "LRU tx line reported"),
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    #[test]
    fn commit_clears_bits_keeps_lines() {
        let mut c = small();
        c.install(LineAddr(0), Mesi::Modified, false, false);
        c.mark_tx(LineAddr(0), false, true);
        c.install(LineAddr(1), Mesi::Shared, false, false);
        c.mark_tx(LineAddr(1), true, false);
        c.commit_tx();
        assert_eq!(c.occupancy(), 2);
        let l0 = c.lookup(LineAddr(0)).unwrap();
        assert!(!l0.w && l0.state == Mesi::Modified);
        assert!(!c.lookup(LineAddr(1)).unwrap().r);
        assert_eq!(c.tx_footprint(), 0);
    }

    #[test]
    fn abort_drops_spec_writes_keeps_reads() {
        let mut c = small();
        c.install(LineAddr(0), Mesi::Modified, false, false);
        c.mark_tx(LineAddr(0), false, true);
        c.install(LineAddr(1), Mesi::Shared, false, false);
        c.mark_tx(LineAddr(1), true, false);
        let dropped = c.abort_tx();
        assert_eq!(dropped, vec![LineAddr(0)]);
        assert!(c.lookup(LineAddr(0)).is_none());
        let l1 = c.lookup(LineAddr(1)).unwrap();
        assert!(!l1.r);
        assert_eq!(c.tx_footprint(), 0);
    }

    #[test]
    fn remove_returns_snapshot() {
        let mut c = small();
        c.install(LineAddr(5), Mesi::Modified, false, false);
        let s = c.remove(LineAddr(5)).unwrap();
        assert_eq!(s.state, Mesi::Modified);
        assert!(c.remove(LineAddr(5)).is_none());
    }

    #[test]
    fn tx_lines_iterates_marked() {
        let mut c = small();
        c.install(LineAddr(0), Mesi::Shared, false, false);
        c.install(LineAddr(1), Mesi::Shared, false, false);
        c.mark_tx(LineAddr(1), true, false);
        let marked: Vec<LineAddr> = c.tx_lines().map(|l| l.line).collect();
        assert_eq!(marked, vec![LineAddr(1)]);
    }

    #[test]
    fn mutations_count_presence_and_mesi_changes_only() {
        let mut c = small();
        c.install(LineAddr(0), Mesi::Exclusive, false, false);
        c.install(LineAddr(1), Mesi::Modified, false, false);
        assert_eq!(c.mutations(), 2);
        c.touch(LineAddr(0));
        c.mark_tx(LineAddr(1), true, true);
        c.set_state(LineAddr(0), Mesi::Exclusive);
        assert_eq!(c.mutations(), 2, "LRU, R/W bits and same-state writes");
        c.set_state(LineAddr(0), Mesi::Modified);
        assert_eq!(c.mutations(), 3);
        assert_eq!(c.abort_tx(), vec![LineAddr(1)]);
        assert_eq!(c.mutations(), 4, "an abort drops the written line");
        c.remove(LineAddr(0));
        c.remove(LineAddr(0));
        assert_eq!(c.mutations(), 5, "removing an absent line changes nothing");
    }

    #[test]
    #[should_panic(expected = "W bit requires M state")]
    fn w_bit_requires_modified() {
        let mut c = small();
        c.install(LineAddr(0), Mesi::Shared, false, false);
        c.mark_tx(LineAddr(0), false, true);
    }
}
