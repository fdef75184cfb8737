//! Per-link contention timing for the mesh.
//!
//! Each directed link can carry one flit per cycle. A message of `f` flits
//! traversing a link occupies it for `f` cycles; a following message waits
//! for the link to drain. Hop traversal is store-and-forward: the message
//! arrives at the next router `link_latency + f` cycles after it starts
//! crossing the link. Local (src == dst) delivery costs one router
//! traversal cycle.

use crate::route::{route_path, NodeId};
use sim_core::obs::{Metric, MetricSpec};
use sim_core::types::Cycle;

/// Four directed links per node is enough to name every mesh edge:
/// link `(node, dir)` is the edge leaving `node` towards `dir`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Dir {
    East,
    West,
    North,
    South,
}

fn dir_between(a: NodeId, b: NodeId, width: usize) -> Dir {
    let (ax, ay) = (a % width, a / width);
    let (bx, by) = (b % width, b / width);
    if bx == ax + 1 {
        Dir::East
    } else if ax == bx + 1 {
        Dir::West
    } else if by == ay + 1 {
        Dir::South
    } else {
        debug_assert!(ay == by + 1);
        Dir::North
    }
}

fn link_index(node: NodeId, dir: Dir) -> usize {
    node * 4
        + match dir {
            Dir::East => 0,
            Dir::West => 1,
            Dir::North => 2,
            Dir::South => 3,
        }
}

/// Aggregate NoC traffic statistics.
#[derive(Clone, Debug, Default, Hash)]
pub struct NocStats {
    pub messages: u64,
    pub hops: u64,
    pub flit_hops: u64,
    /// Cycles spent queueing behind busy links (contention delay).
    pub queue_cycles: u64,
    /// Busy (flit-carrying) cycles per directed link, indexed
    /// `node * 4 + direction` (E/W/N/S order, matching `link_index`).
    pub link_busy: Vec<u64>,
}

/// Human-readable name for a directed link id (`node * 4 + dir`).
pub fn link_name(link: usize) -> String {
    let dir = ["E", "W", "N", "S"][link % 4];
    format!("link{}{dir}", link / 4)
}

/// Metric registrations for a `width * height` mesh: the aggregate
/// traffic counters plus one busy-cycle counter per directed link.
pub fn obs_metric_specs(width: usize, height: usize) -> Vec<MetricSpec> {
    let mut specs = vec![
        MetricSpec::new(Metric::NocMessages, "msgs", "NoC messages injected"),
        MetricSpec::new(
            Metric::NocQueueCycles,
            "cycles",
            "cycles spent queueing behind busy links",
        ),
    ];
    for l in 0..width * height * 4 {
        specs.push(MetricSpec::new(
            Metric::LinkBusy(l as u16),
            "cycles",
            "busy cycles of one directed mesh link",
        ));
    }
    specs
}

/// The mesh timing model. See the crate docs for the contention model.
#[derive(Clone, Debug, Hash)]
pub struct Mesh {
    width: usize,
    height: usize,
    link_latency: Cycle,
    /// `busy_until[link]`: cycle at which the link becomes free.
    busy_until: Vec<Cycle>,
    stats: NocStats,
}

impl Mesh {
    pub fn new(width: usize, height: usize, link_latency: Cycle) -> Mesh {
        assert!(width >= 1 && height >= 1);
        Mesh {
            width,
            height,
            link_latency,
            busy_until: vec![0; width * height * 4],
            stats: NocStats {
                link_busy: vec![0; width * height * 4],
                ..NocStats::default()
            },
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Inject a message of `flits` flits at `src` at cycle `now`, destined
    /// for `dst`. Returns the cycle at which it is delivered, accounting
    /// for link serialization along the X-Y route.
    pub fn send(&mut self, now: Cycle, src: NodeId, dst: NodeId, flits: u32) -> Cycle {
        assert!(
            src < self.nodes() && dst < self.nodes(),
            "node out of range"
        );
        self.stats.messages += 1;
        if src == dst {
            // Local loopback through the router: one cycle.
            return now + 1;
        }
        let path = route_path(src, dst, self.width);
        let mut t = now;
        for w in path.windows(2) {
            let link = link_index(w[0], dir_between(w[0], w[1], self.width));
            let free = self.busy_until[link];
            let start = t.max(free);
            self.stats.queue_cycles += start - t;
            self.busy_until[link] = start + flits as Cycle;
            t = start + self.link_latency + flits as Cycle;
            self.stats.hops += 1;
            self.stats.flit_hops += flits as u64;
            self.stats.link_busy[link] += flits as u64;
        }
        t
    }

    /// Uncontended delivery latency for a message (used by tests and by
    /// quick analytical checks; does not update link state).
    pub fn ideal_latency(&self, src: NodeId, dst: NodeId, flits: u32) -> Cycle {
        if src == dst {
            return 1;
        }
        let hops = crate::route::route_hops(src, dst, self.width) as Cycle;
        hops * (self.link_latency + flits as Cycle)
    }

    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    pub fn take_stats(&mut self) -> NocStats {
        std::mem::replace(
            &mut self.stats,
            NocStats {
                link_busy: vec![0; self.busy_until.len()],
                ..NocStats::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(4, 8, 1)
    }

    #[test]
    fn local_delivery_is_one_cycle() {
        let mut m = mesh();
        assert_eq!(m.send(100, 5, 5, 5), 101);
    }

    #[test]
    fn uncontended_latency_matches_ideal() {
        let mut m = mesh();
        // 0 -> 3 is 3 hops; control message (1 flit): 3 * (1 + 1) = 6.
        assert_eq!(m.send(0, 0, 3, 1), 6);
        assert_eq!(m.ideal_latency(0, 3, 1), 6);
        // Fresh mesh: data message (5 flits) over 1 hop: 1 + 5 = 6.
        let mut m2 = mesh();
        assert_eq!(m2.send(0, 0, 1, 5), 6);
    }

    #[test]
    fn contention_serializes_same_link() {
        let mut m = mesh();
        // Two 5-flit messages over the same single link, injected together.
        let a = m.send(0, 0, 1, 5);
        let b = m.send(0, 0, 1, 5);
        assert_eq!(a, 6);
        // Second waits for the link to drain 5 flits: starts at 5, arrives 11.
        assert_eq!(b, 11);
        assert_eq!(m.stats().queue_cycles, 5);
    }

    #[test]
    fn disjoint_links_do_not_interfere() {
        let mut m = mesh();
        let a = m.send(0, 0, 1, 5);
        let b = m.send(0, 2, 3, 5); // different link
        assert_eq!(a, b);
        assert_eq!(m.stats().queue_cycles, 0);
    }

    #[test]
    fn opposite_directions_are_separate_links() {
        let mut m = mesh();
        let a = m.send(0, 0, 1, 5);
        let b = m.send(0, 1, 0, 5);
        assert_eq!(a, b, "east and west links must not share occupancy");
    }

    #[test]
    fn long_route_accumulates_per_hop_cost() {
        let mut m = mesh();
        // Corner to corner: 10 hops, control flit: 10 * 2 = 20 cycles.
        assert_eq!(m.send(0, 0, 31, 1), 20);
        assert_eq!(m.stats().hops, 10);
    }

    #[test]
    fn stats_accumulate() {
        let mut m = mesh();
        m.send(0, 0, 1, 1);
        m.send(0, 1, 2, 5);
        let s = m.stats();
        assert_eq!(s.messages, 2);
        assert_eq!(s.hops, 2);
        assert_eq!(s.flit_hops, 6);
    }

    #[test]
    fn per_link_busy_cycles_accumulate() {
        let mut m = mesh();
        // 0 -> 1 crosses exactly one link (east out of node 0).
        m.send(0, 0, 1, 5);
        m.send(10, 0, 1, 1);
        let s = m.stats();
        assert_eq!(s.link_busy.len(), 4 * 8 * 4);
        assert_eq!(s.link_busy.iter().sum::<u64>(), 6);
        assert_eq!(s.link_busy.iter().filter(|&&b| b > 0).count(), 1);
        // Local delivery touches no link.
        m.send(20, 3, 3, 5);
        assert_eq!(m.stats().link_busy.iter().sum::<u64>(), 6);
    }

    #[test]
    fn take_stats_keeps_link_vector_sized() {
        let mut m = mesh();
        m.send(0, 0, 1, 5);
        let taken = m.take_stats();
        assert_eq!(taken.link_busy.iter().sum::<u64>(), 5);
        // The mesh stays usable: the fresh vector is fully sized.
        m.send(0, 0, 31, 1);
        assert_eq!(m.stats().link_busy.len(), taken.link_busy.len());
    }

    #[test]
    fn link_names_and_specs() {
        assert_eq!(link_name(0), "link0E");
        assert_eq!(link_name(7), "link1S");
        let specs = obs_metric_specs(2, 2);
        assert_eq!(specs.len(), 2 + 16);
        assert!(specs.iter().any(|s| s.name == "noc.messages"));
        assert_eq!(specs[2].name, Metric::LinkBusy(0).name());
    }

    #[test]
    fn later_traffic_sees_free_links() {
        let mut m = mesh();
        m.send(0, 0, 1, 5);
        // Well after the first message drained, no queueing.
        let t = m.send(100, 0, 1, 5);
        assert_eq!(t, 106);
        assert_eq!(m.stats().queue_cycles, 0);
    }
}
