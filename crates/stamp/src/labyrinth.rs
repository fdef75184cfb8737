//! labyrinth — Lee's algorithm maze router (STAMP `labyrinth`).
//!
//! Threads pop routing requests `(src, dst)` from a shared work queue and
//! route them through a shared grid inside one large transaction: a BFS
//! wavefront expansion *reads* every visited cell (building the huge read
//! set the original is famous for), then the backtracked path *writes*
//! its cells. Per-attempt BFS bookkeeping is allocated from the
//! transactional heap, so fresh pages fault inside the transaction — the
//! combination of capacity overflow and faults that makes labyrinth live
//! on the fallback path in best-effort HTM.
//!
//! Validation re-walks every claimed path: it must be connected, endpoint
//! to endpoint, and cells must be claimed by exactly one route.

use crate::Scale;
use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::{Abort, GuestCtx, TxCtx};
use lockiller::program::{GuestFuture, Program};
use sim_core::rng::SimRng;
use sim_core::types::Addr;
use tmlib::{Queue, TmAlloc};

/// Input parameters (STAMP's maze dimensions / path count).
#[derive(Clone, Copy, Debug)]
pub struct LabyrinthParams {
    /// Square grid dimension (STAMP `-x`/`-y`).
    pub dim: u64,
    pub requests_per_thread: usize,
}

impl LabyrinthParams {
    pub fn for_scale(scale: Scale) -> LabyrinthParams {
        let (dim, requests_per_thread) = match scale {
            Scale::Tiny => (8, 2),
            Scale::Small => (12, 3),
            Scale::Full => (40, 4),
        };
        LabyrinthParams {
            dim,
            requests_per_thread,
        }
    }
}

pub struct Labyrinth {
    threads: usize,
    width: u64,
    height: u64,
    requests: Vec<(u64, u64)>, // (src_cell, dst_cell)
    grid: Addr,
    queue: Option<Queue>,
    alloc: Option<TmAlloc>,
    /// Outcome per request: 0 = failed, 1 = routed.
    results: Addr,
    /// Per-thread BFS parent buffers (the original's thread-local grid
    /// copy, re-zeroed every attempt: a large transactional write set).
    parent_bufs: Addr,
}

impl Labyrinth {
    pub fn new(scale: Scale, threads: usize) -> Labyrinth {
        // Full scale is 40x40: grid reads + parent writes total ~400
        // lines, enough to overflow sets of the 32KB 4-way L1 (the
        // paper's labyrinth capacity-abort behaviour).
        Labyrinth::with_params(LabyrinthParams::for_scale(scale), threads)
    }

    pub fn with_params(p: LabyrinthParams, threads: usize) -> Labyrinth {
        assert!(p.dim >= 4);
        // Every request needs two distinct endpoint cells; grow the grid
        // so large thread counts still fit (endpoints ~ 1/4 of cells).
        let total = (p.requests_per_thread * threads) as u64;
        let mut dim = p.dim;
        while dim * dim < total * 4 {
            dim += 4;
        }
        Labyrinth {
            threads,
            width: dim,
            height: dim,
            requests: Vec::with_capacity(p.requests_per_thread * threads),
            grid: Addr::NULL,
            queue: None,
            alloc: None,
            results: Addr::NULL,
            parent_bufs: Addr::NULL,
        }
    }

    fn cell_addr(&self, c: u64) -> Addr {
        self.grid.add(c)
    }

    fn neighbors(&self, c: u64) -> Vec<u64> {
        let (x, y) = (c % self.width, c / self.width);
        let mut out = Vec::with_capacity(4);
        if x > 0 {
            out.push(c - 1);
        }
        if x + 1 < self.width {
            out.push(c + 1);
        }
        if y > 0 {
            out.push(c - self.width);
        }
        if y + 1 < self.height {
            out.push(c + self.width);
        }
        out
    }

    /// One routing attempt inside a transaction: BFS over free cells from
    /// src to dst, then claim the path by writing `mark` into its cells.
    async fn route(
        &self,
        tx: &mut TxCtx<'_>,
        alloc: &TmAlloc,
        src: u64,
        dst: u64,
        mark: u64,
    ) -> Result<bool, Abort> {
        let cells = self.width * self.height;
        // The endpoints themselves must still be free.
        if tx.load(self.cell_addr(src)).await? != 0 || tx.load(self.cell_addr(dst)).await? != 0 {
            return Ok(false);
        }
        // Per-thread BFS bookkeeping (parent + 1; 0 = unvisited), re-zeroed
        // every attempt like the original's local grid copy: a large
        // transactional write set that drives capacity aborts.
        let parent = self
            .parent_bufs
            .add(tx.tid() as u64 * cells.next_multiple_of(8));
        for c in 0..cells {
            tx.store(parent.add(c), 0).await?;
        }
        // The claimed path is recorded in a freshly allocated list, as the
        // original mallocs its path vector (occasional paging faults).
        let path_buf = alloc.alloc(tx, (self.width + self.height) * 2).await?;
        let _ = path_buf;
        let mut frontier = vec![src];
        tx.store(parent.add(src), src + 1).await?;
        let mut found = false;
        'bfs: while !frontier.is_empty() {
            let mut next = Vec::new();
            for &c in &frontier {
                for n in self.neighbors(c) {
                    if tx.load(parent.add(n)).await? != 0 {
                        continue;
                    }
                    // Occupied cells block the route — including the
                    // destination: claiming an occupied dst would sever
                    // the path that runs through it.
                    let v = tx.load(self.cell_addr(n)).await?;
                    if v != 0 {
                        continue;
                    }
                    tx.store(parent.add(n), c + 1).await?;
                    if n == dst {
                        found = true;
                        break 'bfs;
                    }
                    next.push(n);
                }
                tx.compute(4).await?;
            }
            frontier = next;
        }
        if !found {
            return Ok(false);
        }
        // Backtrack and claim.
        let mut c = dst;
        loop {
            tx.store(self.cell_addr(c), mark).await?;
            if c == src {
                break;
            }
            c = tx.load(parent.add(c)).await? - 1;
        }
        Ok(true)
    }
}

impl Program for Labyrinth {
    fn name(&self) -> &str {
        "labyrinth"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        assert_eq!(threads, self.threads);
        let mut rng = SimRng::new(0x6c61_6279);
        let cells = self.width * self.height;
        self.grid = s.alloc(cells);
        for c in 0..cells {
            s.write(self.grid.add(c), 0);
        }
        // Distinct src/dst pairs with distinct endpoints across requests,
        // so every request is routable in an empty grid.
        let total = self.requests.capacity();
        let mut endpoints: Vec<u64> = (0..cells).collect();
        rng.shuffle(&mut endpoints);
        assert!(
            total * 2 <= cells as usize,
            "grid too small for request count"
        );
        self.requests = (0..total)
            .map(|i| (endpoints[2 * i], endpoints[2 * i + 1]))
            .collect();

        let q = Queue::setup(s);
        for (i, _) in self.requests.iter().enumerate() {
            q.setup_push(s, i as u64);
        }
        self.queue = Some(q);
        self.alloc = Some(TmAlloc::setup(s, threads, 256 * 1024));
        let cells = self.width * self.height;
        self.parent_bufs = s.alloc(threads as u64 * cells.next_multiple_of(8));
        self.results = s.alloc(total as u64);
        for i in 0..total as u64 {
            s.write(self.results.add(i), 0);
        }
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let alloc = self.alloc.unwrap();
            let queue = self.queue.unwrap();
            loop {
                let req = ctx.critical(async |tx| queue.pop(tx).await).await;
                let Some(req) = req else { break };
                let (src, dst) = self.requests[req as usize];
                let mark = req + 2; // 0 = free, 1 = reserved, 2+ = route id + 2
                let routed = ctx
                    .critical(async |tx| self.route(tx, &alloc, src, dst, mark).await)
                    .await;
                let cell = self.results.add(req);
                ctx.critical(async |tx| {
                    tx.store(cell, if routed { 1 } else { 0 }).await?;
                    Ok(())
                })
                .await;
                ctx.compute(50).await;
            }
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        let cells = self.width * self.height;
        let mut routed_any = false;
        for (i, &(src, dst)) in self.requests.iter().enumerate() {
            let ok = mem.read(self.results.add(i as u64)) == 1;
            if !ok {
                continue;
            }
            routed_any = true;
            let mark = i as u64 + 2;
            // Path connectivity: BFS over cells carrying our mark.
            let marked: Vec<bool> = (0..cells)
                .map(|c| mem.read(self.grid.add(c)) == mark)
                .collect();
            if !marked[src as usize] || !marked[dst as usize] {
                return Err(format!("request {i}: endpoints not claimed"));
            }
            let mut seen = vec![false; cells as usize];
            let mut stack = vec![src];
            seen[src as usize] = true;
            while let Some(c) = stack.pop() {
                for n in self.neighbors(c) {
                    if marked[n as usize] && !seen[n as usize] {
                        seen[n as usize] = true;
                        stack.push(n);
                    }
                }
            }
            if !seen[dst as usize] {
                return Err(format!("request {i}: path disconnected"));
            }
        }
        // Every claimed cell belongs to a successfully routed request.
        for c in 0..cells {
            let v = mem.read(self.grid.add(c));
            if v >= 2 {
                let req = (v - 2) as usize;
                if req >= self.requests.len() || mem.read(self.results.add(req as u64)) != 1 {
                    return Err(format!("cell {c} claimed by non-routed request"));
                }
            }
        }
        if !routed_any {
            return Err("no request routed at all".into());
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
    use sim_core::stats::AbortCause;

    #[test]
    fn labyrinth_routes_on_cgl_and_htm() {
        for kind in [
            SystemKind::Cgl,
            SystemKind::Baseline,
            SystemKind::LockillerTm,
        ] {
            let mut w = Labyrinth::new(Scale::Tiny, 2);
            let _ = Runner::new(kind)
                .threads(2)
                .config(SystemConfig::testing(2))
                .run(&mut w);
        }
    }

    #[test]
    fn labyrinth_overflows_small_l1() {
        // With a tiny L1 the BFS read set cannot fit: baseline must see
        // capacity (of) or fault aborts and lean on the fallback path.
        let mut cfg = SystemConfig::testing(2);
        cfg.mem.l1 = sim_core::config::CacheGeometry { sets: 4, ways: 2 };
        let mut w = Labyrinth::new(Scale::Small, 2);
        let stats = Runner::new(SystemKind::Baseline)
            .threads(2)
            .config(cfg)
            .run(&mut w)
            .stats;
        assert!(
            stats.abort_count(AbortCause::Of) + stats.abort_count(AbortCause::Fault) > 0,
            "big routing txs must overflow a 8-line L1"
        );
        assert!(stats.fallbacks > 0);
    }
}
