//! LLC bank storage: a set-associative tag array (capacity/inclusivity
//! model) and the full-map directory entries for lines homed at this bank.
//!
//! The directory is *blocking*: while a request for a line is in flight
//! (probes outstanding), later requests for the same line queue at the
//! entry. The tag array and the directory are deliberately decoupled —
//! evicting a tag back-invalidates L1 copies and drops the entry, but an
//! entry may briefly outlive its tag while probes drain.

use crate::msg::ReqInfo;
use sim_core::config::{CacheGeometry, MAX_CORES};
use sim_core::fxhash::FxHashMap;
use sim_core::types::{CoreId, LineAddr};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// Sharer bitmap: up to 32 cores (the paper's system size), which is why
/// `MemSystem::new` rejects more than [`MAX_CORES`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct CoreSet(pub u32);

const _: () = assert!(MAX_CORES <= u32::BITS as usize);

impl CoreSet {
    pub fn empty() -> CoreSet {
        CoreSet(0)
    }

    pub fn single(c: CoreId) -> CoreSet {
        CoreSet(1 << c)
    }

    pub fn insert(&mut self, c: CoreId) {
        self.0 |= 1 << c;
    }

    pub fn remove(&mut self, c: CoreId) {
        self.0 &= !(1 << c);
    }

    pub fn contains(self, c: CoreId) -> bool {
        self.0 & (1 << c) != 0
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    pub fn iter(self) -> impl Iterator<Item = CoreId> {
        (0..32).filter(move |c| self.contains(*c))
    }
}

/// Stable directory state for a line (absence from the map means I).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DirState {
    /// Read-only copies at these cores; LLC data current.
    Shared(CoreSet),
    /// One core holds the line E or M.
    Owned(CoreId),
}

/// An in-flight request at the directory: probes sent, responses pending.
#[derive(Clone, Debug, Hash)]
pub struct Pending {
    pub req: ReqInfo,
    /// Cores whose probe responses are still outstanding.
    pub waiting: CoreSet,
    /// Cores that answered with a recovery-mechanism reject.
    pub rejected: CoreSet,
    /// Cores that invalidated their copies in response to our probes.
    pub invalidated: CoreSet,
    /// Cores that answered a FwdGetS with a downgrade (kept an S copy).
    pub downgraded: CoreSet,
    /// At least one probe response reported that it aborted a transaction.
    pub any_abort: bool,
    /// Pre-request stable state, for rollback on reject.
    pub prior: Option<DirState>,
}

/// Directory entry for one line homed at this bank.
#[derive(Clone, Debug, Hash)]
pub struct DirEntry {
    pub state: Option<DirState>,
    pub pending: Option<Pending>,
    /// A grant is in flight: the entry stays blocked until the requester's
    /// unblock message confirms receipt (the paper's Fig. 3 flow).
    pub unblock_wait: Option<CoreId>,
    /// Requests serialized behind the pending one; [`Bank::enqueue`] and
    /// [`Bank::dequeue`] keep the bank's running count of them.
    queue: VecDeque<ReqInfo>,
}

impl DirEntry {
    fn idle_and_invalid(&self) -> bool {
        self.state.is_none()
            && self.pending.is_none()
            && self.unblock_wait.is_none()
            && self.queue.is_empty()
    }

    /// The entry cannot accept a new request right now.
    pub fn busy(&self) -> bool {
        self.pending.is_some() || self.unblock_wait.is_some()
    }
}

/// One LLC bank: tags for capacity, directory entries for protocol state.
#[derive(Clone, Debug)]
pub struct Bank {
    geom: CacheGeometry,
    /// Number of banks in the system: lines are interleaved line % banks,
    /// so within a bank the set index uses line / banks.
    stride: usize,
    sets: Vec<Vec<Option<TagLine>>>,
    clock: u64,
    pub dir: FxHashMap<LineAddr, DirEntry>,
    pub hits: u64,
    pub misses: u64,
    /// Requests that had to queue behind a busy directory entry.
    pub queued: u64,
    /// High-water mark of [`Bank::queue_depth`].
    pub queue_peak: u64,
    /// Requests queued now, over every entry: the sum of the entries'
    /// queue lengths, which the fingerprint already hashes.
    queue_depth: usize,
}

#[derive(Clone, Copy, Debug, Hash)]
struct TagLine {
    line: LineAddr,
    lru: u64,
}

impl Bank {
    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 as usize / self.stride) & (self.geom.sets - 1)
    }

    pub fn new(geom: CacheGeometry, stride: usize) -> Bank {
        assert!(stride >= 1);
        Bank {
            geom,
            stride,
            sets: vec![vec![None; geom.ways]; geom.sets],
            clock: 0,
            dir: FxHashMap::default(),
            hits: 0,
            misses: 0,
            queued: 0,
            queue_peak: 0,
            queue_depth: 0,
        }
    }

    /// Queue a request behind the busy entry for its line, maintaining
    /// the bank's queue-depth counters.
    pub fn enqueue(&mut self, line: LineAddr, req: ReqInfo) {
        self.entry(line).queue.push_back(req);
        self.queued += 1;
        self.queue_depth += 1;
        self.queue_peak = self.queue_peak.max(self.queue_depth as u64);
    }

    /// Take the oldest request queued behind `line`'s entry, if any.
    pub fn dequeue(&mut self, line: LineAddr) -> Option<ReqInfo> {
        let next = self.entry(line).queue.pop_front();
        self.queue_depth -= usize::from(next.is_some());
        next
    }

    /// Requests currently queued behind busy directory entries.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Directory entries with a request in flight (probes or unblock
    /// outstanding).
    pub fn busy_entries(&self) -> usize {
        self.dir.values().filter(|e| e.busy()).count()
    }

    /// Access the tag array for `line`: returns `(hit, evicted)` where
    /// `evicted` is a line that had to leave the LLC to make room
    /// (triggering back-invalidation by the caller). A line whose
    /// directory entry is busy (a request in flight) is never chosen.
    pub fn tag_access(&mut self, line: LineAddr) -> (bool, Option<LineAddr>) {
        self.clock += 1;
        let clock = self.clock;
        let set_idx = self.set_of(line);
        let set = &mut self.sets[set_idx];
        if let Some(t) = set.iter_mut().flatten().find(|t| t.line == line) {
            t.lru = clock;
            self.hits += 1;
            return (true, None);
        }
        self.misses += 1;
        if let Some(free) = set.iter_mut().find(|w| w.is_none()) {
            *free = Some(TagLine { line, lru: clock });
            return (false, None);
        }
        // Evict LRU among evictable lines; if none qualifies, bypass
        // allocation (the line is served straight from memory this time).
        let dir = &self.dir;
        let evictable = |l: LineAddr| !dir.get(&l).is_some_and(DirEntry::busy);
        let victim_way = set
            .iter()
            .enumerate()
            .filter(|(_, w)| w.map(|t| evictable(t.line)).unwrap_or(false))
            .min_by_key(|(_, w)| w.unwrap().lru)
            .map(|(i, _)| i);
        match victim_way {
            Some(i) => {
                let evicted = set[i].unwrap().line;
                set[i] = Some(TagLine { line, lru: clock });
                (false, Some(evicted))
            }
            None => (false, None),
        }
    }

    /// True if the tag array currently holds `line`.
    pub fn tag_present(&self, line: LineAddr) -> bool {
        let set_idx = self.set_of(line);
        self.sets[set_idx].iter().flatten().any(|t| t.line == line)
    }

    /// Drop the tag for a line (when its directory entry is torn down by
    /// back-invalidation bookkeeping; idempotent).
    pub fn tag_drop(&mut self, line: LineAddr) {
        let set_idx = self.set_of(line);
        for w in self.sets[set_idx].iter_mut() {
            if w.is_some_and(|t| t.line == line) {
                *w = None;
            }
        }
    }

    pub fn entry(&mut self, line: LineAddr) -> &mut DirEntry {
        self.dir.entry(line).or_insert_with(|| DirEntry {
            state: None,
            pending: None,
            unblock_wait: None,
            queue: VecDeque::new(),
        })
    }

    /// Remove an entry if it has fully returned to idle/invalid, keeping
    /// the map from growing without bound over a long run.
    pub fn gc_entry(&mut self, line: LineAddr) {
        if self.dir.get(&line).is_some_and(DirEntry::idle_and_invalid) {
            self.dir.remove(&line);
        }
    }

    /// Is a request for this line currently in flight?
    pub fn is_busy(&self, line: LineAddr) -> bool {
        self.dir.get(&line).is_some_and(DirEntry::busy)
    }

    /// Fold the bank state into `h` for the explorer's state fingerprint:
    /// geometry and stride, `(set, way, tag)` for each occupied way (LRU
    /// stamp included) and an end marker, the LRU clock, the directory
    /// entries in the map's own iteration order, and the hit, miss and
    /// queue counters (the running depth is the entries' queue lengths).
    pub fn fingerprint(&self, h: &mut impl Hasher) {
        (self.geom, self.stride).hash(h);
        crate::fingerprint_ways(&self.sets, h);
        self.clock.hash(h);
        self.dir.len().hash(h);
        for entry in &self.dir {
            entry.hash(h);
        }
        (self.hits, self.misses, self.queued, self.queue_peak).hash(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{ReqKind, ReqMode};

    fn bank() -> Bank {
        Bank::new(CacheGeometry { sets: 2, ways: 2 }, 1)
    }

    #[test]
    fn coreset_ops() {
        let mut s = CoreSet::empty();
        assert!(s.is_empty());
        s.insert(3);
        s.insert(31);
        assert!(s.contains(3) && s.contains(31) && !s.contains(0));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 31]);
        s.remove(3);
        assert!(!s.contains(3));
    }

    #[test]
    fn tag_hit_after_allocate() {
        let mut b = bank();
        let (hit, ev) = b.tag_access(LineAddr(4));
        assert!(!hit && ev.is_none());
        let (hit, _) = b.tag_access(LineAddr(4));
        assert!(hit);
        assert_eq!(b.hits, 1);
        assert_eq!(b.misses, 1);
    }

    #[test]
    fn full_set_evicts_lru() {
        let mut b = bank();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        b.tag_access(LineAddr(0));
        b.tag_access(LineAddr(2));
        b.tag_access(LineAddr(0)); // 2 is now LRU
        let (hit, ev) = b.tag_access(LineAddr(4));
        assert!(!hit);
        assert_eq!(ev, Some(LineAddr(2)));
    }

    #[test]
    fn unevictable_lines_are_skipped() {
        let mut b = bank();
        b.tag_access(LineAddr(0));
        b.tag_access(LineAddr(2));
        // Line 0 is LRU but busy: line 2 is the only evictable one.
        b.entry(LineAddr(0)).unblock_wait = Some(1);
        let (_, ev) = b.tag_access(LineAddr(4));
        assert_eq!(ev, Some(LineAddr(2)));
        // Nothing evictable: bypass (no eviction, not resident).
        b.entry(LineAddr(4)).unblock_wait = Some(1);
        let (_, ev) = b.tag_access(LineAddr(6));
        assert_eq!(ev, None);
        assert!(!b.tag_present(LineAddr(6)));
        // An entry that is not busy (here: only queued requests) does
        // not protect its line.
        b.entry(LineAddr(4)).unblock_wait = None;
        let (_, ev) = b.tag_access(LineAddr(6));
        assert_eq!(ev, Some(LineAddr(4)));
    }

    #[test]
    fn entry_lifecycle_and_gc() {
        let mut b = bank();
        let line = LineAddr(9);
        b.entry(line).state = Some(DirState::Owned(1));
        assert!(b.dir.contains_key(&line));
        b.gc_entry(line); // not idle: kept
        assert!(b.dir.contains_key(&line));
        b.entry(line).state = None;
        b.gc_entry(line);
        assert!(!b.dir.contains_key(&line));
    }

    #[test]
    fn busy_detection() {
        let mut b = bank();
        let line = LineAddr(5);
        assert!(!b.is_busy(line));
        b.entry(line).pending = Some(Pending {
            req: ReqInfo {
                core: 0,
                kind: ReqKind::GetS,
                line,
                prio: 0,
                mode: ReqMode::NonTx,
                attempt: 0,
            },
            waiting: CoreSet::single(1),
            rejected: CoreSet::empty(),
            invalidated: CoreSet::empty(),
            downgraded: CoreSet::empty(),
            any_abort: false,
            prior: None,
        });
        assert!(b.is_busy(line));
        b.entry(line).pending = None;
        b.entry(line).unblock_wait = Some(2);
        assert!(b.is_busy(line), "unblock wait must also block");
    }

    #[test]
    fn enqueue_tracks_depth_and_peak() {
        let mut b = bank();
        let req = |core| ReqInfo {
            core,
            kind: ReqKind::GetS,
            line: LineAddr(5),
            prio: 0,
            mode: ReqMode::NonTx,
            attempt: 0,
        };
        let summed = |b: &Bank| b.dir.values().map(|e| e.queue.len()).sum::<usize>();
        assert_eq!(b.queue_depth(), 0);
        b.enqueue(LineAddr(5), req(1));
        b.enqueue(LineAddr(5), req(2));
        b.enqueue(LineAddr(7), req(3));
        assert_eq!(b.queue_depth(), 3);
        assert_eq!(b.queued, 3);
        assert_eq!(b.queue_peak, 3);
        assert_eq!(b.dequeue(LineAddr(5)).map(|r| r.core), Some(1));
        assert_eq!(b.dequeue(LineAddr(7)).map(|r| r.core), Some(3));
        assert!(
            b.dequeue(LineAddr(7)).is_none(),
            "an empty queue leaves the count"
        );
        assert_eq!(b.queue_depth(), 1);
        assert_eq!(b.queue_depth(), summed(&b));
        assert_eq!(b.queue_peak, 3, "peak is a high-water mark");
        assert_eq!(b.busy_entries(), 0);
        b.entry(LineAddr(5)).unblock_wait = Some(2);
        assert_eq!(b.busy_entries(), 1);
    }

    #[test]
    fn tag_drop_is_idempotent() {
        let mut b = bank();
        b.tag_access(LineAddr(4));
        assert!(b.tag_present(LineAddr(4)));
        b.tag_drop(LineAddr(4));
        assert!(!b.tag_present(LineAddr(4)));
        b.tag_drop(LineAddr(4));
    }
}
