//! `tmprof` — host-side, scope-based self-profiling of the simulator.
//!
//! [`HostProf`] measures where *host* wall-clock time goes inside the
//! engine's hot loop: hierarchical phase scopes (event dequeue,
//! per-event-kind dispatch, coherence handling, guest resume, scheduler
//! tie-breaks, response stamping, observability sampling) accumulate
//! into a phase tree keyed by the full scope path. Per phase it records
//! host nanoseconds (total and self), entry counts, and — when the
//! `alloc-count` feature links the `tmprof-alloc` counting allocator —
//! heap allocations and bytes.
//!
//! ## Zero cost when disabled, zero influence when enabled
//!
//! The engine stores an `Option<HostProf>`; every scope site is one
//! `is_some()` branch on the disabled path (the same pattern as
//! [`crate::obs::ObsSink`]). When enabled the profiler only *reads* the
//! host clock and the thread-local allocation counters — it never feeds
//! anything back into the simulation, so simulated cycles, statistics,
//! state fingerprints, and tmverify digests are byte-identical with
//! profiling on or off. Tests assert exactly that.
//!
//! The consuming side (flamegraph / Chrome-trace / JSON exporters)
//! lives in `tmobs::tmprof`; this module owns only what the emitting
//! engine needs, like [`crate::obs`].

use std::time::Instant;

/// One phase scope the engine, or the `tmtrace` session around it, can
/// enter. The set is closed and small: the profile is a fixed tree, not
/// a sampling stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfPhase {
    /// Whole run (the implicit root).
    Run,
    /// Session setup before the engine runs: workload construction and
    /// runner configuration (`tmobs::run_trace`).
    Setup,
    /// The engine run as the session sees it; a profiled run's engine
    /// tree is grafted beneath it ([`ProfReport::graft`]).
    Simulate,
    /// Session export after the engine run: validation, exporters,
    /// forensics.
    Export,
    /// Event-queue pop / front selection.
    Dequeue,
    /// Scheduler tie-break (`Scheduler::pick` on a wide front).
    SchedPick,
    /// Guest `resume`: handing a response to the guest execution core
    /// and receiving its next op (both backends).
    GuestResume,
    /// Dispatch of a `Recv` rendezvous event.
    EvRecv,
    /// Dispatch of a scheduled `Respond` delivery.
    EvRespond,
    /// Dispatch of a NoC message arrival.
    EvNet,
    /// Dispatch of a memory-subsystem notice.
    EvNotice,
    /// Dispatch of a recovery retry.
    EvRetry,
    /// Dispatch of a park-timeout safety net.
    EvParkTimeout,
    /// Coherence / L1 / bank / directory handling (`MemSystem` calls
    /// plus draining its outputs).
    Coherence,
    /// Response stamping: phase attribution, response-history hashing,
    /// latency lifecycle resolution.
    Stamp,
    /// Observability sampling and span emission ticks.
    ObsSample,
}

impl ProfPhase {
    /// Stable name used in every exporter (no `;` — it is the
    /// collapsed-stack path separator).
    pub fn name(self) -> &'static str {
        match self {
            ProfPhase::Run => "run",
            ProfPhase::Setup => "setup",
            ProfPhase::Simulate => "simulate",
            ProfPhase::Export => "export",
            ProfPhase::Dequeue => "dequeue",
            ProfPhase::SchedPick => "sched_pick",
            ProfPhase::GuestResume => "guest_resume",
            ProfPhase::EvRecv => "ev_recv",
            ProfPhase::EvRespond => "ev_respond",
            ProfPhase::EvNet => "ev_net",
            ProfPhase::EvNotice => "ev_notice",
            ProfPhase::EvRetry => "ev_retry",
            ProfPhase::EvParkTimeout => "ev_park_timeout",
            ProfPhase::Coherence => "coherence",
            ProfPhase::Stamp => "stamp",
            ProfPhase::ObsSample => "obs_sample",
        }
    }
}

/// Cumulative `(allocations, bytes)` on this thread — live counters from
/// the `tmprof-alloc` allocator when the `alloc-count` feature is on and
/// the binary registered it, `(0, 0)` otherwise.
#[inline]
fn alloc_counters() -> (u64, u64) {
    #[cfg(feature = "alloc-count")]
    {
        tmprof_alloc::thread_counters()
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        (0, 0)
    }
}

#[derive(Debug)]
struct Node {
    phase: ProfPhase,
    parent: usize,
    /// Children in first-entry order; linear scan — the tree is tiny.
    children: Vec<usize>,
    total_ns: u64,
    self_ns: u64,
    calls: u64,
    allocs: u64,
    alloc_bytes: u64,
}

#[derive(Debug)]
struct Frame {
    node: usize,
    start: Instant,
    /// Host-ns spent in already-closed children of this frame.
    child_ns: u64,
    start_allocs: u64,
    start_bytes: u64,
    child_allocs: u64,
    child_bytes: u64,
}

/// Scope-based hierarchical host profiler. Construct with
/// [`HostProf::start`], bracket phases with [`HostProf::enter`] /
/// [`HostProf::exit`] (strictly nested), then [`HostProf::report`].
#[derive(Debug)]
pub struct HostProf {
    nodes: Vec<Node>,
    stack: Vec<Frame>,
    /// Dispatched-event count and event-queue depth accumulator
    /// ([`HostProf::note_event`]) for mean-depth reporting.
    events: u64,
    q_depth_sum: u64,
}

impl HostProf {
    /// Open the root `run` scope.
    pub fn start() -> HostProf {
        let (a, b) = alloc_counters();
        HostProf {
            nodes: vec![Node {
                phase: ProfPhase::Run,
                parent: usize::MAX,
                children: Vec::new(),
                total_ns: 0,
                self_ns: 0,
                calls: 1,
                allocs: 0,
                alloc_bytes: 0,
            }],
            stack: vec![Frame {
                node: 0,
                start: Instant::now(),
                child_ns: 0,
                start_allocs: a,
                start_bytes: b,
                child_allocs: 0,
                child_bytes: 0,
            }],
            events: 0,
            q_depth_sum: 0,
        }
    }

    /// Enter `phase` as a child of the current scope.
    #[inline]
    pub fn enter(&mut self, phase: ProfPhase) {
        let parent = self.stack.last().expect("profile already finished").node;
        let node = match self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].phase == phase)
        {
            Some(&c) => c,
            None => {
                let idx = self.nodes.len();
                self.nodes.push(Node {
                    phase,
                    parent,
                    children: Vec::new(),
                    total_ns: 0,
                    self_ns: 0,
                    calls: 0,
                    allocs: 0,
                    alloc_bytes: 0,
                });
                self.nodes[parent].children.push(idx);
                idx
            }
        };
        self.nodes[node].calls += 1;
        let (a, b) = alloc_counters();
        self.stack.push(Frame {
            node,
            start: Instant::now(),
            child_ns: 0,
            start_allocs: a,
            start_bytes: b,
            child_allocs: 0,
            child_bytes: 0,
        });
    }

    /// Close the current scope, attributing its elapsed time (minus
    /// already-attributed child time) as self time.
    #[inline]
    pub fn exit(&mut self) {
        let f = self.stack.pop().expect("exit without matching enter");
        assert!(!self.stack.is_empty(), "cannot exit the root scope");
        let elapsed = f.start.elapsed().as_nanos() as u64;
        let (a, b) = alloc_counters();
        let allocs = (a - f.start_allocs).saturating_sub(f.child_allocs);
        let bytes = (b - f.start_bytes).saturating_sub(f.child_bytes);
        let node = &mut self.nodes[f.node];
        node.total_ns += elapsed;
        node.self_ns += elapsed.saturating_sub(f.child_ns);
        node.allocs += allocs;
        node.alloc_bytes += bytes;
        let parent = self.stack.last_mut().expect("checked non-empty");
        parent.child_ns += elapsed;
        parent.child_allocs += a - f.start_allocs;
        parent.child_bytes += b - f.start_bytes;
    }

    /// Record one dispatched event with the instantaneous queue depth
    /// (for events-per-second and mean-depth reporting).
    #[inline]
    pub fn note_event(&mut self, queue_depth: u64) {
        self.events += 1;
        self.q_depth_sum += queue_depth;
    }

    /// Close every open scope (innermost first) and the root, producing
    /// the report. Call exactly once, after the run.
    pub fn report(mut self) -> ProfReport {
        while self.stack.len() > 1 {
            self.exit();
        }
        let f = self.stack.pop().expect("root frame");
        let elapsed = f.start.elapsed().as_nanos() as u64;
        let (a, b) = alloc_counters();
        let root = &mut self.nodes[0];
        root.total_ns = elapsed;
        root.self_ns = elapsed.saturating_sub(f.child_ns);
        root.allocs = (a - f.start_allocs).saturating_sub(f.child_allocs);
        root.alloc_bytes = (b - f.start_bytes).saturating_sub(f.child_bytes);

        // Flatten depth-first so every node appears after its parent and
        // the collapsed-stack export is one pass.
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut order = vec![0usize];
        while let Some(i) = order.pop() {
            let n = &self.nodes[i];
            let path = if n.parent == usize::MAX {
                n.phase.name().to_string()
            } else {
                let parent_path = &out[out
                    .iter()
                    .position(|p: &ProfNode| p.id == n.parent)
                    .expect("parent flattened first")]
                .path;
                format!("{parent_path};{}", n.phase.name())
            };
            out.push(ProfNode {
                id: i,
                path,
                name: n.phase.name(),
                total_ns: n.total_ns,
                self_ns: n.self_ns,
                calls: n.calls,
                allocs: n.allocs,
                alloc_bytes: n.alloc_bytes,
            });
            // Reverse keeps first-entry order after the stack pop.
            for &c in n.children.iter().rev() {
                order.push(c);
            }
        }
        ProfReport {
            nodes: out,
            total_ns: elapsed,
            events: self.events,
            q_depth_sum: self.q_depth_sum,
        }
    }
}

/// One phase in the finished profile, identified by its full
/// `;`-separated scope path (`run;ev_recv;guest_resume`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfNode {
    /// Internal node id (stable within one report; `path` is the key).
    pub id: usize,
    /// Full scope path from the root, `;`-separated.
    pub path: String,
    /// Leaf phase name (last path segment).
    pub name: &'static str,
    /// Host nanoseconds inside this scope, children included.
    pub total_ns: u64,
    /// Host nanoseconds inside this scope, children excluded. Self
    /// times over the whole tree sum exactly to the root total.
    pub self_ns: u64,
    /// Times the scope was entered.
    pub calls: u64,
    /// Heap allocations attributed to this scope (self, not children);
    /// 0 unless the `alloc-count` allocator is registered.
    pub allocs: u64,
    /// Heap bytes attributed to this scope (self, not children).
    pub alloc_bytes: u64,
}

/// A finished host profile: the phase tree in depth-first order (parent
/// before children) plus whole-run event counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfReport {
    pub nodes: Vec<ProfNode>,
    /// Host nanoseconds of the whole profiled region (== root total).
    pub total_ns: u64,
    /// Events dispatched while profiling ([`HostProf::note_event`]).
    pub events: u64,
    /// Sum of instantaneous queue depths over those events.
    pub q_depth_sum: u64,
}

impl ProfReport {
    /// Mean event-queue depth over the dispatched events (0 if none).
    pub fn q_depth_mean(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.q_depth_sum as f64 / self.events as f64
        }
    }

    /// Per-node share of total host time attributed as self time, in
    /// report (depth-first) order. Shares sum to 1.0 when any time was
    /// recorded (self times partition the root total exactly).
    pub fn self_shares(&self) -> Vec<(&str, f64)> {
        let total = self.total_ns.max(1) as f64;
        self.nodes
            .iter()
            .map(|n| (n.path.as_str(), n.self_ns as f64 / total))
            .collect()
    }

    /// Look a node up by its full path.
    pub fn node(&self, path: &str) -> Option<&ProfNode> {
        self.nodes.iter().find(|n| n.path == path)
    }

    /// Fold `other` into this report: nodes with the same path add their
    /// times, calls and allocations; a path this report lacks is
    /// inserted at the end of its parent's subtree, so the depth-first
    /// order (parent before children, siblings in first-entry order)
    /// holds. Self times still partition `total_ns` exactly. Merging
    /// into [`ProfReport::default`] copies `other` (ids renumbered).
    pub fn merge(&mut self, other: &ProfReport) {
        for n in &other.nodes {
            if let Some(m) = self.nodes.iter_mut().find(|m| m.path == n.path) {
                m.total_ns += n.total_ns;
                m.self_ns += n.self_ns;
                m.calls += n.calls;
                m.allocs += n.allocs;
                m.alloc_bytes += n.alloc_bytes;
                continue;
            }
            let at = match n.path.rsplit_once(';') {
                Some((parent, _)) => {
                    let p = self
                        .nodes
                        .iter()
                        .position(|m| m.path == parent)
                        .expect("parent merged first");
                    let prefix = format!("{parent};");
                    let subtree = self.nodes[p + 1..]
                        .iter()
                        .take_while(|m| m.path.starts_with(&prefix))
                        .count();
                    p + 1 + subtree
                }
                None => self.nodes.len(),
            };
            let id = self.nodes.iter().map(|m| m.id + 1).max().unwrap_or(0);
            self.nodes.insert(at, ProfNode { id, ..n.clone() });
        }
        self.total_ns += other.total_ns;
        self.events += other.events;
        self.q_depth_sum += other.q_depth_sum;
    }

    /// Place `sub`, a profile measured inside the node at path `at`, as
    /// that node's subtree: `sub`'s root becomes `at`, and every other
    /// node of `sub` follows `at` in depth-first order with its path
    /// re-rooted (`run;dequeue` becomes `{at};dequeue`) and its times,
    /// calls and allocations unchanged. `at` keeps only its own self
    /// time: it gives up exactly the self time moved beneath it, so self
    /// times still partition `total_ns`. Event counters add.
    pub fn graft(&mut self, at: &str, sub: &ProfReport) {
        let Some((root, rest)) = sub.nodes.split_first() else {
            return;
        };
        let p = self
            .nodes
            .iter()
            .position(|n| n.path == at)
            .expect("graft point exists");
        let first_id = self.nodes.iter().map(|n| n.id + 1).max().unwrap_or(0);
        let grafted: Vec<ProfNode> = rest
            .iter()
            .zip(first_id..)
            .map(|(n, id)| ProfNode {
                id,
                path: format!("{at}{}", &n.path[root.path.len()..]),
                ..n.clone()
            })
            .collect();
        let moved = |field: fn(&ProfNode) -> u64| rest.iter().map(field).sum::<u64>();
        let host = &mut self.nodes[p];
        host.self_ns = host.self_ns.saturating_sub(moved(|n| n.self_ns));
        host.allocs = host.allocs.saturating_sub(moved(|n| n.allocs));
        host.alloc_bytes = host.alloc_bytes.saturating_sub(moved(|n| n.alloc_bytes));
        self.nodes.splice(p + 1..p + 1, grafted);
        self.events += sub.events;
        self.q_depth_sum += sub.q_depth_sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_scopes_partition_total() {
        let mut p = HostProf::start();
        p.enter(ProfPhase::EvRecv);
        p.enter(ProfPhase::GuestResume);
        spin(50_000);
        p.exit();
        spin(20_000);
        p.exit();
        p.enter(ProfPhase::EvNet);
        p.enter(ProfPhase::Coherence);
        spin(30_000);
        p.exit();
        p.exit();
        let r = p.report();
        // Self times partition the root total exactly.
        let self_sum: u64 = r.nodes.iter().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, r.total_ns);
        // Parent totals cover child totals.
        let recv = r.node("run;ev_recv").unwrap();
        let resume = r.node("run;ev_recv;guest_resume").unwrap();
        assert!(recv.total_ns >= resume.total_ns);
        assert!(resume.self_ns >= 50_000);
        assert_eq!(resume.calls, 1);
        // Depth-first order: parent before child.
        let pi = r
            .nodes
            .iter()
            .position(|n| n.path == "run;ev_recv")
            .unwrap();
        let ci = r
            .nodes
            .iter()
            .position(|n| n.path == "run;ev_recv;guest_resume")
            .unwrap();
        assert!(pi < ci);
        // Shares sum to 1.
        let s: f64 = r.self_shares().iter().map(|(_, v)| v).sum();
        assert!((s - 1.0).abs() < 1e-9, "shares sum to {s}");
    }

    #[test]
    fn repeated_entries_accumulate_calls() {
        let mut p = HostProf::start();
        for _ in 0..10 {
            p.enter(ProfPhase::EvRespond);
            p.enter(ProfPhase::Stamp);
            p.exit();
            p.exit();
        }
        p.note_event(3);
        p.note_event(5);
        let r = p.report();
        assert_eq!(r.node("run;ev_respond").unwrap().calls, 10);
        assert_eq!(r.node("run;ev_respond;stamp").unwrap().calls, 10);
        assert_eq!(r.events, 2);
        assert!((r.q_depth_mean() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_by_path_and_keeps_depth_first_order() {
        let run = |phases: &[(ProfPhase, ProfPhase)]| {
            let mut p = HostProf::start();
            for &(outer, inner) in phases {
                p.enter(outer);
                p.enter(inner);
                spin(1_000);
                p.exit();
                p.exit();
            }
            p.note_event(2);
            p.report()
        };
        let a = run(&[(ProfPhase::EvRecv, ProfPhase::GuestResume)]);
        let b = run(&[
            (ProfPhase::EvNet, ProfPhase::Coherence),
            (ProfPhase::EvRecv, ProfPhase::GuestResume),
            (ProfPhase::EvRecv, ProfPhase::Stamp),
        ]);
        let mut m = ProfReport::default();
        m.merge(&a);
        let times = |r: &ProfReport| -> Vec<(String, u64, u64)> {
            r.nodes
                .iter()
                .map(|n| (n.path.clone(), n.self_ns, n.calls))
                .collect()
        };
        assert_eq!(
            times(&m),
            times(&a),
            "merging into an empty report copies it"
        );
        m.merge(&b);
        let paths: Vec<&str> = m.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "run",
                "run;ev_recv",
                "run;ev_recv;guest_resume",
                "run;ev_recv;stamp",
                "run;ev_net",
                "run;ev_net;coherence",
            ]
        );
        let resume = m.node("run;ev_recv;guest_resume").unwrap();
        assert_eq!(resume.calls, 2);
        let want = a.node("run;ev_recv;guest_resume").unwrap().self_ns
            + b.node("run;ev_recv;guest_resume").unwrap().self_ns;
        assert_eq!(resume.self_ns, want);
        assert_eq!(m.total_ns, a.total_ns + b.total_ns);
        assert_eq!((m.events, m.q_depth_sum), (2, 4));
        let self_sum: u64 = m.nodes.iter().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, m.total_ns, "self times partition the total");
        let mut ids: Vec<usize> = m.nodes.iter().map(|n| n.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), m.nodes.len(), "node ids stay unique");
    }

    #[test]
    fn report_closes_open_scopes() {
        let mut p = HostProf::start();
        p.enter(ProfPhase::EvNotice);
        p.enter(ProfPhase::Coherence);
        let r = p.report();
        assert!(r.node("run;ev_notice;coherence").is_some());
        let self_sum: u64 = r.nodes.iter().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, r.total_ns);
    }

    #[test]
    fn graft_places_a_subprofile_under_a_leaf() {
        let mut outer = HostProf::start();
        outer.enter(ProfPhase::Setup);
        outer.exit();
        outer.enter(ProfPhase::Simulate);
        let mut inner = HostProf::start();
        inner.enter(ProfPhase::EvRecv);
        inner.enter(ProfPhase::GuestResume);
        spin(20_000);
        inner.exit();
        inner.exit();
        inner.note_event(3);
        let inner = inner.report();
        spin(5_000);
        outer.exit();
        outer.enter(ProfPhase::Export);
        outer.exit();
        let mut r = outer.report();
        let simulate = r.node("run;simulate").unwrap().clone();
        r.graft("run;simulate", &inner);
        let paths: Vec<&str> = r.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "run",
                "run;setup",
                "run;simulate",
                "run;simulate;ev_recv",
                "run;simulate;ev_recv;guest_resume",
                "run;export",
            ]
        );
        for n in &inner.nodes[1..] {
            let g = r.node(&format!("run;simulate{}", &n.path[3..])).unwrap();
            assert_eq!((g.self_ns, g.calls), (n.self_ns, n.calls));
        }
        let moved = inner.total_ns - inner.nodes[0].self_ns;
        let grafted = r.node("run;simulate").unwrap();
        assert_eq!(grafted.total_ns, simulate.total_ns);
        assert_eq!(grafted.self_ns, simulate.self_ns - moved);
        let self_sum: u64 = r.nodes.iter().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, r.total_ns, "self times partition the total");
        assert_eq!((r.events, r.q_depth_sum), (1, 3));
    }

    #[test]
    fn phase_names_have_no_separator() {
        for p in [
            ProfPhase::Run,
            ProfPhase::Setup,
            ProfPhase::Simulate,
            ProfPhase::Export,
            ProfPhase::Dequeue,
            ProfPhase::SchedPick,
            ProfPhase::GuestResume,
            ProfPhase::EvRecv,
            ProfPhase::EvRespond,
            ProfPhase::EvNet,
            ProfPhase::EvNotice,
            ProfPhase::EvRetry,
            ProfPhase::EvParkTimeout,
            ProfPhase::Coherence,
            ProfPhase::Stamp,
            ProfPhase::ObsSample,
        ] {
            assert!(!p.name().contains(';'));
            assert!(!p.name().is_empty());
        }
    }
}
