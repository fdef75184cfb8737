//! The spin lane: spinners' L1-hit iterations, run beside the event
//! queue instead of through it (DESIGN §7.1).
//!
//! A core waiting on a held fallback lock whose copy of the lock line
//! stays in its L1 repeats four events: the load's `Respond` 2 cycles
//! after its `Recv`, the `Recv` issuing the pause, the pause's `Respond`
//! 16 cycles later, and the `Recv` issuing the next load. While it does,
//! those events touch nothing but the core's own controller, its L1 LRU
//! stamp and the engine's event counters. The engine keeps such a core
//! here, as one pending [`LaneEvent`] that stands for the real event it
//! would have had in the queue, under the very sequence number
//! ([`sim_core::event::EventQueue::reserve_seq`]) that event would have
//! taken, and merges lane events with the queue in `(cycle, seq)` order.
//!
//! The lane is a ring of per-cycle FIFOs, like the queue's own calendar
//! ring but 32 cycles wide: a lane event is at most
//! `max(l1_hit, SPIN_PAUSE)` cycles ahead of the last event dispatched,
//! and lane events are scheduled in increasing `seq` order, so appending
//! keeps each slot in `seq` order. (A binary heap was exact too, but each
//! heap step cost as much as a whole calendar-queue event.)

use sim_core::types::{CoreId, Cycle};

/// Width of the lane's ring in cycles; every lane delay must be below it.
pub(crate) const LANE_RING: usize = 32;
/// End of a slot chain.
const NIL: u32 = u32::MAX;

/// The real event a lane event stands for, in a spinner's steady loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LaneStep {
    /// The `Respond` carrying the lock word a load read (an L1 hit).
    LoadRespond,
    /// The `Recv` that issues the pause after a non-zero read.
    PauseRecv,
    /// The `Respond` that ends the pause.
    PauseRespond,
    /// The `Recv` that issues the next load, which hits in L1.
    LoadRecv,
}

/// A spinner on the lane: its one pending event, and what its lane steps
/// have not yet written back to the engine.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LaneEvent {
    pub at: Cycle,
    pub seq: u64,
    pub step: LaneStep,
    /// The lock word every load of this stretch reads (non-zero).
    pub word: u64,
    /// Load hits not yet applied to the L1's LRU state.
    pub hits: u64,
    /// The core's phase time is due up to here (the last lane
    /// `Respond`); the controller's own clock stops at entry.
    pub attr_to: Cycle,
    /// The core's L1 mutation count at entry; it may not move while the
    /// core is on the lane (debug builds assert it).
    pub mutations: u64,
}

/// The lane: one pending [`LaneEvent`] per spinner on it.
#[derive(Debug)]
pub(crate) struct Lane {
    events: Vec<Option<LaneEvent>>,
    /// Next spinner in the same slot, in `seq` order.
    next: Vec<u32>,
    head: [u32; LANE_RING],
    tail: [u32; LANE_RING],
    /// Bit `s` is set iff slot `s` is non-empty.
    occupied: u32,
    /// Bit `c` is set iff core `c` is on the lane.
    mask: u64,
    /// Cycle of the last event dispatched, real or lane: every pending
    /// lane event lies in `[now, now + LANE_RING)`.
    now: Cycle,
}

impl Lane {
    pub fn new(cores: usize) -> Lane {
        assert!(cores <= 64, "the lane's core mask is one u64");
        Lane {
            events: vec![None; cores],
            next: vec![NIL; cores],
            head: [NIL; LANE_RING],
            tail: [NIL; LANE_RING],
            occupied: 0,
            mask: 0,
            now: 0,
        }
    }

    /// Bitmask of the cores on the lane.
    #[inline]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Number of cores on the lane (one pending event each).
    #[inline]
    pub fn len(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Note that an event at cycle `t` was dispatched.
    #[inline]
    pub fn advance(&mut self, t: Cycle) {
        debug_assert!(t >= self.now);
        self.now = t;
    }

    /// Put core `c`'s next event on the lane. Its `seq` must exceed every
    /// pending lane event's at the same cycle.
    pub fn push(&mut self, c: CoreId, ev: LaneEvent) {
        debug_assert!(ev.at >= self.now && ev.at - self.now < LANE_RING as Cycle);
        debug_assert!(self.events[c].is_none(), "core {c} is on the lane twice");
        let s = ev.at as usize % LANE_RING;
        let i = c as u32;
        if self.head[s] == NIL {
            self.head[s] = i;
            self.occupied |= 1 << s;
        } else {
            let t = self.tail[s] as usize;
            debug_assert!(self.events[t].is_some_and(|e| e.seq < ev.seq));
            self.next[t] = i;
        }
        self.tail[s] = i;
        self.next[c] = NIL;
        self.events[c] = Some(ev);
        self.mask |= 1 << c;
    }

    /// The earliest lane event as `(cycle, seq, core)`.
    #[inline]
    pub fn peek(&self) -> Option<(Cycle, u64, CoreId)> {
        if self.occupied == 0 {
            return None;
        }
        let base = self.now as usize % LANE_RING;
        let ahead = self.occupied.rotate_right(base as u32).trailing_zeros() as usize;
        let c = self.head[(base + ahead) % LANE_RING] as usize;
        let ev = self.events[c].expect("a linked core has an event");
        debug_assert_eq!(ev.at, self.now + ahead as Cycle);
        Some((ev.at, ev.seq, c))
    }

    /// Take core `c`'s event off the lane.
    pub fn remove(&mut self, c: CoreId) -> LaneEvent {
        let ev = self.events[c].take().expect("core is on the lane");
        let s = ev.at as usize % LANE_RING;
        let mut prev = NIL;
        let mut i = self.head[s];
        while i as usize != c {
            prev = i;
            i = self.next[i as usize];
        }
        let next = self.next[c];
        if prev == NIL {
            self.head[s] = next;
        } else {
            self.next[prev as usize] = next;
        }
        if self.tail[s] == i {
            self.tail[s] = prev;
        }
        if self.head[s] == NIL {
            self.occupied &= !(1 << s);
        }
        self.mask &= !(1 << c);
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: Cycle, seq: u64) -> LaneEvent {
        LaneEvent {
            at,
            seq,
            step: LaneStep::LoadRecv,
            word: 1,
            hits: 0,
            attr_to: 0,
            mutations: 0,
        }
    }

    /// Lane events come out in `(cycle, seq)` order across the ring's
    /// wrap-around, and removing a core mid-slot keeps the others linked.
    #[test]
    fn peeks_in_cycle_then_seq_order_across_the_wrap() {
        let mut lane = Lane::new(4);
        lane.advance(30);
        lane.push(0, ev(46, 10));
        lane.push(1, ev(32, 11));
        lane.push(2, ev(32, 12));
        lane.push(3, ev(32, 13));
        assert_eq!((lane.len(), lane.mask()), (4, 0b1111));
        assert_eq!(lane.peek(), Some((32, 11, 1)));
        lane.remove(2);
        assert_eq!(lane.peek(), Some((32, 11, 1)));
        lane.remove(1);
        assert_eq!(lane.peek(), Some((32, 13, 3)));
        lane.advance(32);
        lane.remove(3);
        assert_eq!(lane.peek(), Some((46, 10, 0)));
        lane.push(3, ev(34, 14));
        assert_eq!(lane.peek(), Some((34, 14, 3)));
        lane.remove(3);
        lane.remove(0);
        assert_eq!((lane.peek(), lane.len()), (None, 0));
    }
}
