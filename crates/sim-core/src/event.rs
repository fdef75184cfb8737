//! Deterministic discrete-event queue.
//!
//! Events are ordered by `(cycle, sequence number)`: two events scheduled
//! for the same cycle fire in the order they were scheduled. That rule is
//! what makes whole-system simulation bit-reproducible, so the experiment
//! harness and the test suite can assert on exact cycle counts.
//!
//! The queue is a calendar queue that keeps that order by construction:
//!
//! - **Ring.** 512 one-cycle slots cover `[now, now + 512)`; cycle `c`
//!   lives in slot `c % 512`. Each slot is a list in `seq` order, linked
//!   through one shared node slab (a `Vec` with a free list), and an
//!   occupancy bitmap finds the next non-empty slot. A direct schedule
//!   takes the next `seq`, so it appends at its slot's tail.
//! - **Far heap.** Events 512 or more cycles ahead wait in a `(cycle, seq)`
//!   binary heap. In the engine these are the wake-up timeouts; every
//!   other delay is under 512 (DESIGN §4.1 has the histogram).
//! - **Migration.** Whenever a pop advances `now`, the far events that
//!   now fall inside the window move into their slots in heap order. A
//!   direct schedule reaches only cycles below `now + 512`, so a far event
//!   enters its slot before any direct schedule for its cycle can, and
//!   behind only earlier far events: it too appends at the tail.
//! - **Reserved sequence numbers.** [`EventQueue::reserve_seq`] takes a
//!   `seq` without scheduling, and [`EventQueue::schedule_at_seq`] later
//!   inserts an event under it, in `seq` order within its slot: the
//!   event fires exactly where it would have had it been scheduled when
//!   the number was reserved. The engine's spin lane (DESIGN §7.1) runs
//!   events off the queue this way and hands one back when it must.
//!
//! Scheduling into the ring and [`EventQueue::len`] are O(1) (a reserved
//! insert walks its slot); popping, [`EventQueue::peek_key`] and
//! [`EventQueue::front_len`] add a scan of the eight bitmap words (and
//! one heap pop per migrated event); [`EventQueue::front_snapshot`] and
//! [`EventQueue::pop_nth_front`] are O(front). Only a front that exists
//! solely in the far heap (the ring is empty) is found by a heap scan.

use crate::types::Cycle;
use std::collections::BinaryHeap;

/// Ring width in cycles: a power of two that covers every delay the
/// engine schedules except the wake-up timeout.
const RING: usize = 512;
const WORDS: usize = RING / 64;
/// End of a slot chain or of the free list.
const NIL: u32 = u32::MAX;

/// A far-heap entry.
#[derive(Debug)]
struct Entry<E> {
    at: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first ordering.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A slab node: `Some` payload while linked into a slot, `None` while
/// on the free list. `seq` orders a reserved insert against the slot's
/// other events and is the second half of [`EventQueue::peek_key`].
#[derive(Debug)]
struct Node<E> {
    payload: Option<E>,
    seq: u64,
    next: u32,
}

/// One cycle's FIFO; `head` and `tail` index the slab while `len > 0`.
#[derive(Clone, Copy, Debug)]
struct Slot {
    head: u32,
    tail: u32,
    len: u32,
}

/// A min-ordered event queue with deterministic same-cycle ordering.
#[derive(Debug)]
pub struct EventQueue<E> {
    nodes: Vec<Node<E>>,
    free: u32,
    slots: Box<[Slot; RING]>,
    /// Bit `s` is set iff slot `s` is non-empty.
    occupied: [u64; WORDS],
    ring_len: usize,
    far: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Cycle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            slots: Box::new(
                [Slot {
                    head: NIL,
                    tail: NIL,
                    len: 0,
                }; RING],
            ),
            occupied: [0; WORDS],
            ring_len: 0,
            far: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
        }
    }

    /// Current simulated time: the cycle of the most recently popped event.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Schedule `payload` to fire at absolute cycle `at`.
    ///
    /// Scheduling in the past is a simulator bug; panics in that case.
    pub fn schedule_at(&mut self, at: Cycle, payload: E) {
        let seq = self.reserve_seq();
        self.schedule_at_seq(at, seq, payload);
    }

    /// Take the next sequence number without scheduling anything: the
    /// number an event scheduled now would get.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `payload` at cycle `at` under `seq`, a number taken
    /// earlier by [`EventQueue::reserve_seq`] and not used since: among
    /// `at`'s events it fires in `seq` order, exactly where it would have
    /// fired had it been scheduled when `seq` was reserved.
    ///
    /// Scheduling in the past is a simulator bug; panics in that case.
    pub fn schedule_at_seq(&mut self, at: Cycle, seq: u64, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past ({at} < {})",
            self.now
        );
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        if at - self.now < RING as Cycle {
            self.push_slot(at, seq, payload);
        } else {
            self.far.push(Entry { at, seq, payload });
        }
    }

    /// Pop the earliest event, advancing simulated time to it.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.pop_nth_front(0)
    }

    /// Time of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<Cycle> {
        match self.first_slot() {
            Some(s) => Some(self.cycle_of(s)),
            // Far events all lie beyond every ring event.
            None => self.far.peek().map(|e| e.at),
        }
    }

    /// `(cycle, seq)` of the next event [`EventQueue::pop`] would return:
    /// the key that orders it against events kept outside the queue under
    /// reserved sequence numbers.
    pub fn peek_key(&self) -> Option<(Cycle, u64)> {
        match self.first_slot() {
            Some(s) => Some((
                self.cycle_of(s),
                self.nodes[self.slots[s].head as usize].seq,
            )),
            None => self.far.peek().map(|e| (e.at, e.seq)),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn len(&self) -> usize {
        self.ring_len + self.far.len()
    }

    /// Number of events pending at the earliest cycle (the "front").
    ///
    /// Same-cycle events fire in schedule order by default; when the
    /// front is wider than one event, that FIFO tie-break is the only
    /// nondeterminism in the simulation, so a schedule explorer need
    /// only consider alternative orders of the front.
    pub fn front_len(&self) -> usize {
        match self.first_slot() {
            Some(s) => self.slots[s].len as usize,
            None => self.far_front().count(),
        }
    }

    /// Clones of the front events in schedule (seq) order.
    pub fn front_snapshot(&self) -> Vec<E>
    where
        E: Clone,
    {
        match self.first_slot() {
            Some(s) => self.chain(s).cloned().collect(),
            None => {
                let mut front: Vec<&Entry<E>> = self.far_front().collect();
                front.sort_by_key(|e| e.seq);
                front.into_iter().map(|e| e.payload.clone()).collect()
            }
        }
    }

    /// Pop the `n`-th front event (0-based, schedule order), advancing
    /// time to the front cycle. The other front events keep their
    /// relative FIFO order. `n` out of range picks the last front event.
    pub fn pop_nth_front(&mut self, n: usize) -> Option<(Cycle, E)> {
        let at = self.peek_time()?;
        self.now = at;
        // Bring every far event now inside the window into its slot
        // (including the whole front, if it was only in the far heap).
        while self.far.peek().is_some_and(|e| e.at - at < RING as Cycle) {
            let e = self.far.pop().expect("peeked entry");
            self.push_slot(e.at, e.seq, e.payload);
        }
        Some((at, self.unlink(at as usize % RING, n)))
    }

    /// Visit every pending event in deterministic `(cycle, seq)` order
    /// (used for state fingerprinting).
    pub fn for_each_sorted(&self, mut f: impl FnMut(Cycle, &E)) {
        for k in 0..=WORDS {
            let (w, mut bits) = self.word(k);
            while bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let at = self.cycle_of(s);
                for e in self.chain(s) {
                    f(at, e);
                }
            }
        }
        let mut far: Vec<&Entry<E>> = self.far.iter().collect();
        far.sort_by_key(|e| (e.at, e.seq));
        for e in far {
            f(e.at, &e.payload);
        }
    }

    /// Link `payload` into `at`'s slot (`at` is inside the window) in
    /// `seq` order: at the tail unless `seq` was reserved before one of
    /// the slot's events was scheduled.
    fn push_slot(&mut self, at: Cycle, seq: u64, payload: E) {
        let node = Node {
            payload: Some(payload),
            seq,
            next: NIL,
        };
        let i = if self.free == NIL {
            let i = u32::try_from(self.nodes.len()).expect("event slab index fits in u32");
            self.nodes.push(node);
            i
        } else {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        };
        let s = at as usize % RING;
        let slot = &mut self.slots[s];
        if slot.len == 0 {
            slot.head = i;
            slot.tail = i;
            self.occupied[s / 64] |= 1 << (s % 64);
        } else if self.nodes[slot.tail as usize].seq < seq {
            self.nodes[slot.tail as usize].next = i;
            slot.tail = i;
        } else {
            // Walk to the last node that precedes `seq`.
            let mut prev = NIL;
            let mut j = slot.head;
            while self.nodes[j as usize].seq < seq {
                prev = j;
                j = self.nodes[j as usize].next;
            }
            debug_assert_ne!(self.nodes[j as usize].seq, seq, "seq {seq} used twice");
            self.nodes[i as usize].next = j;
            if prev == NIL {
                slot.head = i;
            } else {
                self.nodes[prev as usize].next = i;
            }
        }
        slot.len += 1;
        self.ring_len += 1;
    }

    /// Unlink the `n`-th event of non-empty slot `s` (`n` clamped to the
    /// last) and return its node to the free list.
    fn unlink(&mut self, s: usize, n: usize) -> E {
        let slot = &mut self.slots[s];
        let mut prev = NIL;
        let mut i = slot.head;
        for _ in 0..n.min(slot.len as usize - 1) {
            prev = i;
            i = self.nodes[i as usize].next;
        }
        let next = self.nodes[i as usize].next;
        if prev == NIL {
            slot.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if slot.tail == i {
            slot.tail = prev;
        }
        slot.len -= 1;
        if slot.len == 0 {
            self.occupied[s / 64] &= !(1 << (s % 64));
        }
        self.ring_len -= 1;
        let node = &mut self.nodes[i as usize];
        node.next = self.free;
        self.free = i;
        node.payload
            .take()
            .expect("a linked node holds its payload")
    }

    /// Payloads of slot `s` in FIFO order.
    fn chain(&self, s: usize) -> impl Iterator<Item = &E> {
        let slot = self.slots[s];
        (0..slot.len).scan(slot.head, |i, _| {
            let node = &self.nodes[*i as usize];
            *i = node.next;
            node.payload.as_ref()
        })
    }

    /// The cycle slot `s` stands for in the window `[now, now + RING)`.
    fn cycle_of(&self, s: usize) -> Cycle {
        self.now + (s.wrapping_sub(self.now as usize) % RING) as Cycle
    }

    /// The `k`-th occupancy word (`k` in `0..=WORDS`) in cycle order from
    /// `now`'s slot: that slot's word masked to the slots at or after it,
    /// the following words, then the same word masked to the slots
    /// before it. Returns the word index and its masked bits.
    fn word(&self, k: usize) -> (usize, u64) {
        let start = self.now as usize % RING;
        let (w, b) = ((start / 64 + k) % WORDS, start % 64);
        let mask = match k {
            0 => !0u64 << b,
            WORDS => !(!0u64 << b),
            _ => !0,
        };
        (w, self.occupied[w] & mask)
    }

    /// The first occupied slot in cycle order.
    fn first_slot(&self) -> Option<usize> {
        if self.ring_len == 0 {
            return None;
        }
        (0..=WORDS).find_map(|k| {
            let (w, bits) = self.word(k);
            (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
        })
    }

    /// The far heap's earliest-cycle entries, in heap order.
    fn far_front(&self) -> impl Iterator<Item = &Entry<E>> {
        let at = self.far.peek().map(|e| e.at);
        self.far.iter().filter(move |e| Some(e.at) == at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_at(7, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 7);
        q.schedule_at(10, ());
        assert_eq!(q.pop(), Some((10, ())));
        assert_eq!(q.now(), 10);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule_at(10, ());
        q.pop();
        q.schedule_at(5, ());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(1, 1u32);
        q.schedule_at(4, 4u32);
        assert_eq!(q.pop(), Some((1, 1)));
        q.schedule_at(2, 2u32);
        q.schedule_at(3, 3u32);
        assert_eq!(q.pop(), Some((2, 2)));
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), Some((4, 4)));
    }

    #[test]
    fn front_enumeration_and_nth_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(5, "a");
        q.schedule_at(5, "b");
        q.schedule_at(5, "c");
        q.schedule_at(9, "late");
        q.schedule_at(200_009, "t0");
        q.schedule_at(200_009, "t1");
        q.schedule_at(200_009, "t2");
        assert_eq!(q.front_len(), 3);
        assert_eq!(q.front_snapshot(), vec!["a", "b", "c"]);
        // Pop the middle front event; the rest stay FIFO.
        assert_eq!(q.pop_nth_front(1), Some((5, "b")));
        assert_eq!(q.now(), 5);
        assert_eq!(q.front_snapshot(), vec!["a", "c"]);
        assert_eq!(q.pop(), Some((5, "a")));
        assert_eq!(q.pop(), Some((5, "c")));
        assert_eq!(q.front_len(), 1);
        assert_eq!(q.pop_nth_front(7), Some((9, "late")));
        // The front now exists only in the far heap.
        assert_eq!(q.ring_len, 0);
        assert_eq!(q.front_len(), 3);
        assert_eq!(q.front_snapshot(), vec!["t0", "t1", "t2"]);
        assert_eq!(q.pop_nth_front(1), Some((200_009, "t1")));
        assert_eq!(q.front_snapshot(), vec!["t0", "t2"]);
        assert_eq!(q.pop_nth_front(7), Some((200_009, "t2")));
        assert_eq!(q.pop(), Some((200_009, "t0")));
        assert_eq!(q.front_len(), 0);
        assert_eq!(q.pop_nth_front(0), None);
    }

    #[test]
    fn sorted_visit_matches_pop_order() {
        let mut q = EventQueue::new();
        q.schedule_at(200_002, 9u32);
        q.schedule_at(4, 40u32);
        q.schedule_at(2, 20u32);
        q.schedule_at(2, 21u32);
        q.schedule_at(700, 70u32);
        q.schedule_at(200_002, 8u32);
        let mut seen = Vec::new();
        q.for_each_sorted(|at, e| seen.push((at, *e)));
        let want = vec![
            (2, 20),
            (2, 21),
            (4, 40),
            (700, 70),
            (200_002, 9),
            (200_002, 8),
        ];
        assert_eq!(seen, want);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, want);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(1, ());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(1));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// The migration rule: a far event that enters the window when `now`
    /// advances is already in its slot when a direct schedule for the
    /// same cycle arrives, so it keeps its earlier place.
    #[test]
    fn migrated_far_event_pops_before_a_later_direct_insert() {
        let mut q = EventQueue::new();
        q.schedule_at(600, "far");
        assert_eq!(q.far.len(), 1);
        q.schedule_at(100, "near");
        assert_eq!(q.pop(), Some((100, "near")));
        assert!(
            q.far.is_empty(),
            "cycle 600 entered the window at now = 100"
        );
        q.schedule_at(600, "direct");
        assert_eq!(q.front_snapshot(), vec!["far", "direct"]);
        assert_eq!(q.pop(), Some((600, "far")));
        assert_eq!(q.pop(), Some((600, "direct")));
    }

    /// A far event keeps its `seq` when it migrates into the ring: an
    /// event inserted later under an older reserved number still fires
    /// before it, and one under a newer number after it.
    #[test]
    fn seq_survives_far_heap_migration() {
        let mut q = EventQueue::new();
        let older = q.reserve_seq();
        q.schedule_at(600, "far");
        let newer = q.reserve_seq();
        q.schedule_at(100, "near");
        assert_eq!(q.pop(), Some((100, "near")));
        assert!(q.far.is_empty(), "cycle 600 entered the window");
        q.schedule_at(600, "direct");
        q.schedule_at_seq(600, newer, "newer");
        q.schedule_at_seq(600, older, "older");
        assert_eq!(q.peek_key(), Some((600, older)));
        assert_eq!(q.front_snapshot(), vec!["older", "far", "newer", "direct"]);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.1).collect();
        assert_eq!(popped, vec!["older", "far", "newer", "direct"]);
    }

    /// A reserved insert lands between the slot's events by `seq`: at the
    /// head, in the middle, or at the tail.
    #[test]
    fn reserved_seq_inserts_in_order_into_a_nonempty_slot() {
        let mut q = EventQueue::new();
        let head = q.reserve_seq();
        q.schedule_at(5, "a");
        let middle = q.reserve_seq();
        q.schedule_at(5, "b");
        q.schedule_at(9, "later");
        let tail = q.reserve_seq();
        q.schedule_at_seq(5, middle, "m");
        q.schedule_at_seq(5, tail, "t");
        q.schedule_at_seq(5, head, "h");
        assert_eq!(q.front_len(), 5);
        assert_eq!(q.front_snapshot(), vec!["h", "a", "m", "b", "t"]);
        assert_eq!(q.len(), 6);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.1).collect();
        assert_eq!(popped, vec!["h", "a", "m", "b", "t", "later"]);
    }

    /// `peek_key` names the event `pop` returns next, in the ring and
    /// when the front lives only in the far heap.
    #[test]
    fn peek_key_is_the_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_key(), None);
        q.schedule_at(200_000, "timeout");
        assert_eq!(q.peek_key(), Some((200_000, 0)));
        q.schedule_at(3, "x");
        q.schedule_at(3, "y");
        assert_eq!(q.peek_key(), Some((3, 1)));
        assert_eq!(q.pop(), Some((3, "x")));
        assert_eq!(q.peek_key(), Some((3, 2)));
        assert_eq!(q.pop(), Some((3, "y")));
        assert_eq!(q.peek_key(), Some((200_000, 0)));
        assert_eq!(q.pop(), Some((200_000, "timeout")));
        assert_eq!(q.peek_key(), None);
    }

    /// Reference model: every pending event as `(cycle, seq, payload)`,
    /// kept sorted, so the front is a prefix in schedule order.
    #[derive(Default)]
    struct Model {
        events: Vec<(Cycle, u64, u32)>,
        next_seq: u64,
        now: Cycle,
    }

    impl Model {
        fn schedule_at(&mut self, at: Cycle, payload: u32) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.schedule_at_seq(at, seq, payload);
        }

        fn schedule_at_seq(&mut self, at: Cycle, seq: u64, payload: u32) {
            let i = self.events.partition_point(|e| (e.0, e.1) <= (at, seq));
            self.events.insert(i, (at, seq, payload));
        }

        fn front(&self) -> &[(Cycle, u64, u32)] {
            let Some(&(at, ..)) = self.events.first() else {
                return &[];
            };
            &self.events[..self.events.partition_point(|e| e.0 == at)]
        }

        fn pop_nth_front(&mut self, n: usize) -> Option<(Cycle, u32)> {
            let len = self.front().len();
            if len == 0 {
                return None;
            }
            let (at, _, payload) = self.events.remove(n.min(len - 1));
            self.now = at;
            Some((at, payload))
        }
    }

    /// Differential test against the sorted-`Vec` model over mixed
    /// schedules and pops, with delays on both sides of the ring width
    /// and the 200,000-cycle timeout, and events held under reserved
    /// sequence numbers (up to 16 cycles ahead, as the engine's spin lane
    /// holds them) then inserted late.
    #[test]
    fn matches_sorted_vec_model() {
        let mut rng = SimRng::new(0xCA1E_0DA2);
        let mut q = EventQueue::new();
        let mut m = Model::default();
        let mut held: Vec<(Cycle, u64, u32)> = Vec::new();
        let (mut far_only_fronts, mut wide_fronts, mut migrated) = (0, 0, 0);
        let mut reserved_inserts = 0;
        for payload in 0..20_000u32 {
            match rng.below(12) {
                10 => {
                    let seq = q.reserve_seq();
                    assert_eq!(seq, m.next_seq);
                    m.next_seq += 1;
                    held.push((q.now() + rng.below(17), seq, payload));
                }
                11 => {
                    // Insert the held events not yet overtaken by time.
                    held.retain(|&(at, ..)| at >= q.now());
                    for (at, seq, p) in held.drain(..) {
                        q.schedule_at_seq(at, seq, p);
                        m.schedule_at_seq(at, seq, p);
                        reserved_inserts += 1;
                    }
                }
                0..=4 => {
                    let delay = match rng.below(8) {
                        0 => 0,
                        1 | 2 => rng.range(1, 65),
                        3 => 511,
                        4 => 512,
                        5 => 513,
                        6 => rng.range(65, 1_025),
                        _ => 200_000,
                    };
                    q.schedule_at(q.now() + delay, payload);
                    m.schedule_at(m.now + delay, payload);
                }
                5..=7 => assert_eq!(q.pop(), m.pop_nth_front(0)),
                _ => {
                    let n = rng.below(4) as usize;
                    let far_before = q.far.len();
                    assert_eq!(q.pop_nth_front(n), m.pop_nth_front(n));
                    migrated += far_before - q.far.len();
                }
            }
            assert_eq!(q.now(), m.now);
            assert_eq!(q.len(), m.events.len());
            assert_eq!(q.is_empty(), m.events.is_empty());
            assert_eq!(q.peek_time(), m.events.first().map(|e| e.0));
            assert_eq!(q.peek_key(), m.events.first().map(|e| (e.0, e.1)));
            let front: Vec<u32> = m.front().iter().map(|e| e.2).collect();
            assert_eq!(q.front_len(), front.len());
            assert_eq!(q.front_snapshot(), front);
            let mut seen = Vec::new();
            q.for_each_sorted(|at, &p| seen.push((at, p)));
            let want: Vec<_> = m.events.iter().map(|e| (e.0, e.2)).collect();
            assert_eq!(seen, want);
            far_only_fronts += usize::from(q.ring_len == 0 && !q.far.is_empty());
            wide_fronts += usize::from(front.len() > 1);
        }
        assert!(
            reserved_inserts > 0,
            "no event was inserted under a reserved seq"
        );
        assert!(far_only_fronts > 0, "no front lived only in the far heap");
        assert!(wide_fronts > 0, "no front was wider than one event");
        assert!(migrated > 0, "no far event migrated on a pop_nth_front");
    }
}
