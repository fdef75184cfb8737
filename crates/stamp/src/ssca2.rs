//! ssca2 — scalable synthetic compact applications, kernel 1: graph
//! construction (STAMP `ssca2`).
//!
//! Threads take a static partition of a pre-generated directed edge list
//! and append each edge to the target node's adjacency array inside a
//! tiny transaction (read the fill count, write the slot, bump the
//! count). Two threads conflict only when they add edges to the same
//! node — very low contention, very short transactions, exactly ssca2's
//! profile in the STAMP characterization.

use crate::Scale;
use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::{GuestFuture, Program};
use sim_core::rng::SimRng;
use sim_core::types::Addr;

/// Input parameters (SSCA2 scale / edge factor, reduced).
#[derive(Clone, Copy, Debug)]
pub struct Ssca2Params {
    pub nodes: usize,
    pub edges_per_thread: usize,
}

impl Ssca2Params {
    pub fn for_scale(scale: Scale) -> Ssca2Params {
        let (nodes, edges_per_thread) = match scale {
            Scale::Tiny => (16, 16),
            Scale::Small => (64, 48),
            Scale::Full => (128, 128),
        };
        Ssca2Params {
            nodes,
            edges_per_thread,
        }
    }
}

pub struct Ssca2 {
    threads: usize,
    nodes: usize,
    edges: Vec<(u64, u64)>, // (from, to)
    /// Per-node adjacency: [count, e0, e1, ...] with fixed capacity.
    adj: Addr,
    adj_stride: u64,
    max_degree: u64,
}

impl Ssca2 {
    pub fn new(scale: Scale, threads: usize) -> Ssca2 {
        Ssca2::with_params(Ssca2Params::for_scale(scale), threads)
    }

    pub fn with_params(p: Ssca2Params, threads: usize) -> Ssca2 {
        assert!(p.nodes >= 2);
        Ssca2 {
            threads,
            nodes: p.nodes,
            edges: Vec::with_capacity(p.edges_per_thread * threads),
            adj: Addr::NULL,
            adj_stride: 0,
            max_degree: (p.edges_per_thread * threads) as u64,
        }
    }
}

impl Program for Ssca2 {
    fn name(&self) -> &str {
        "ssca2"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        assert_eq!(threads, self.threads);
        let mut rng = SimRng::new(0x73_7363_6132); // "ssca2"
        let total = self.edges.capacity();
        self.edges = (0..total)
            .map(|_| (rng.below(self.nodes as u64), rng.below(self.nodes as u64)))
            .collect();
        // Cap per-node capacity at the worst case for the scale.
        self.adj_stride = (1 + self.max_degree + 7) & !7;
        self.adj = s.alloc(self.nodes as u64 * self.adj_stride);
        for n in 0..self.nodes {
            s.write(self.adj.add(n as u64 * self.adj_stride), 0);
        }
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let per = self.edges.len() / self.threads;
            let lo = ctx.tid * per;
            let hi = lo + per;
            for &(from, to) in &self.edges[lo..hi] {
                let node_base = self.adj.add(from * self.adj_stride);
                ctx.critical(async |tx| {
                    let count = tx.load(node_base).await?;
                    tx.store(node_base.add(1 + count), to).await?;
                    tx.store(node_base, count + 1).await?;
                    Ok(())
                })
                .await;
                // Inter-transaction work (index computations in the original).
                ctx.compute(12).await;
            }
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        // Per-node degree must match the input, and the stored targets
        // must be a permutation of the input targets for that node.
        let mut want: Vec<Vec<u64>> = vec![Vec::new(); self.nodes];
        for &(f, t) in &self.edges {
            want[f as usize].push(t);
        }
        for (n, want_n) in want.iter().enumerate() {
            let base = self.adj.add(n as u64 * self.adj_stride);
            let count = mem.read(base);
            if count != want_n.len() as u64 {
                return Err(format!(
                    "node {n}: degree {count}, expected {}",
                    want_n.len()
                ));
            }
            let mut got: Vec<u64> = (0..count).map(|i| mem.read(base.add(1 + i))).collect();
            got.sort_unstable();
            let mut w = want_n.clone();
            w.sort_unstable();
            if got != w {
                return Err(format!("node {n}: adjacency mismatch"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockiller::runner::Runner;
    use lockiller::system::SystemKind;
    use sim_core::config::SystemConfig;

    #[test]
    fn ssca2_correct_across_systems() {
        for kind in [
            SystemKind::Cgl,
            SystemKind::Baseline,
            SystemKind::LockillerRwi,
        ] {
            let mut w = Ssca2::new(Scale::Tiny, 2);
            let _ = Runner::new(kind)
                .threads(2)
                .config(SystemConfig::testing(2))
                .run(&mut w);
        }
    }

    #[test]
    fn ssca2_commit_rate_is_high() {
        // ssca2 is the low-contention extreme: nearly everything commits
        // first try even on the baseline.
        let mut w = Ssca2::new(Scale::Small, 4);
        let stats = Runner::new(SystemKind::Baseline)
            .threads(4)
            .config(SystemConfig::testing(4))
            .run(&mut w)
            .stats;
        assert!(
            stats.commit_rate() > 0.9,
            "ssca2 commit rate unexpectedly low: {:.3}",
            stats.commit_rate()
        );
    }
}
