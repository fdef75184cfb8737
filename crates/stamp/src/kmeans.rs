//! kmeans — partition-based clustering (STAMP `kmeans`).
//!
//! Each thread assigns its chunk of points to the nearest center, then a
//! small transaction folds the point into that cluster's accumulator
//! (count + per-dimension sums). Iterations are separated by barriers;
//! centers are recomputed from the accumulators between rounds.
//!
//! The paper's two configurations differ in contention: `kmeans+` (high)
//! uses few clusters so the per-cluster accumulator lines are hammered;
//! `kmeans` (low) uses many. Coordinates are integers, so accumulator
//! sums are order-independent and the final memory image is an exact
//! serializability oracle.

use crate::Scale;
use guestvm::run_on_ctx;
use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::{GuestFuture, Program};
use lockiller::{GuestEnv, GuestExec};
use sim_core::rng::SimRng;
use sim_core::types::Addr;

/// Input parameters (STAMP's `-n` clusters / point-set size / rounds).
#[derive(Clone, Copy, Debug)]
pub struct KmeansParams {
    pub points_per_thread: usize,
    pub dims: usize,
    pub clusters: usize,
    pub rounds: usize,
}

impl KmeansParams {
    pub fn for_scale(scale: Scale, threads: usize, high_contention: bool) -> KmeansParams {
        let (points_per_thread, dims) = match scale {
            Scale::Tiny => (8, 2),
            Scale::Small => (24, 4),
            Scale::Full => (64, 4),
        };
        let clusters = if high_contention { 3 } else { 24 };
        let clusters = clusters.min(points_per_thread * threads / 2).max(2);
        let rounds = match scale {
            Scale::Tiny => 1,
            Scale::Small => 2,
            Scale::Full => 3,
        };
        KmeansParams {
            points_per_thread,
            dims,
            clusters,
            rounds,
        }
    }
}

pub struct Kmeans {
    threads: usize,
    npoints: usize,
    dims: usize,
    clusters: usize,
    rounds: usize,
    points: Vec<Vec<i64>>,
    /// Point coordinates in simulated memory (read-only during a round).
    points_base: Addr,
    /// Current centers: clusters x dims.
    centers: Addr,
    /// Accumulators: per cluster [count, sum0, sum1, ...] padded to lines.
    accum: Addr,
    accum_stride: u64,
}

impl Kmeans {
    pub fn new(scale: Scale, threads: usize, high_contention: bool) -> Kmeans {
        // STAMP: high contention = fewer clusters (more accumulator
        // collisions); low contention = many clusters. Initial centers
        // are the first `clusters` points, so clamp to the point count.
        Kmeans::with_params(
            KmeansParams::for_scale(scale, threads, high_contention),
            threads,
        )
    }

    pub fn with_params(p: KmeansParams, threads: usize) -> Kmeans {
        assert!(p.clusters >= 2 && p.clusters <= p.points_per_thread * threads);
        Kmeans {
            threads,
            npoints: p.points_per_thread * threads,
            dims: p.dims,
            clusters: p.clusters,
            rounds: p.rounds,
            points: Vec::new(),
            points_base: Addr::NULL,
            centers: Addr::NULL,
            accum: Addr::NULL,
            accum_stride: 0,
        }
    }

    fn point_addr(&self, i: usize) -> Addr {
        self.points_base.add((i * self.dims) as u64)
    }

    fn center_addr(&self, c: usize, d: usize) -> Addr {
        self.centers.add((c * self.dims + d) as u64)
    }

    fn accum_addr(&self, c: usize) -> Addr {
        self.accum.add(c as u64 * self.accum_stride)
    }

    /// Compile every thread's kernel under the standard
    /// [`lockiller::Runner`] memory layout without running a simulation:
    /// the runner allocates the fallback lock's 8-word block first, then
    /// this program's [`Program::setup`] places points, centers, and
    /// accumulators. Addresses are baked in as constants, so the result
    /// is byte-identical to what every run executes — which is what
    /// lets `tmstatic::vmabs` and `tmlint kernel` analyze the physical
    /// footprint offline. Consumes the program.
    pub fn compile_standalone(mut self) -> Vec<guestvm::Kernel> {
        let mut s = SetupCtx::new();
        let _lock = s.alloc(8);
        let threads = self.threads;
        self.setup(&mut s, threads);
        (0..threads).map(|t| self.compile(t)).collect()
    }

    /// Compile thread `tid`'s body to `guestvm` bytecode, the program's
    /// one body. The round and point loops are bytecode loops over a
    /// point pointer; the cluster and dimension loops are unrolled
    /// (addresses are constants per thread), with one branch per
    /// best-center update and one per `n > 0` recompute guard. So a
    /// kernel is O(clusters × dims) instructions whatever the point
    /// count and round count.
    ///
    /// Per point the kernel loads the coordinates, then every center
    /// with a `compute(4)` per cluster, then folds the point into the
    /// nearest cluster's accumulator in one critical section; between
    /// two barriers, thread `t` recomputes clusters `t, t+T, ...` and
    /// resets their accumulators. The test module keeps this as a
    /// hand-written host-Rust body, the compiler's independent oracle.
    ///
    /// All values in flight are non-negative and far below `i64::MAX`,
    /// so the VM's wrapping-`u64` arithmetic reproduces signed `i64`
    /// math exactly: `(x - cv)^2` survives the round-trip through
    /// two's-complement, and unsigned `<`, `/` agree with signed.
    fn compile(&self, tid: usize) -> guestvm::Kernel {
        use guestvm::{BinOp, Cond, KernelBuilder};
        let dims = self.dims;
        // r0 scratch address; r1..=r{dims} the current point's coords;
        // then best-distance, best-accumulator address, distance, two
        // scratch values, a zero, a second address register, the point
        // pointer, its end, and the rounds left.
        let r_addr: u8 = 0;
        let coord = |d: usize| (1 + d) as u8;
        let rb = (1 + dims) as u8;
        let (r_bd, r_acc, r_dist, r_a, r_b, r_zero, r_caddr) =
            (rb, rb + 1, rb + 2, rb + 3, rb + 4, rb + 5, rb + 6);
        let (r_p, r_end, r_round) = (rb + 7, rb + 8, rb + 9);
        let mut b = KernelBuilder::new(format!("kmeans[{tid}]"), dims + 11);
        let per = self.npoints / self.threads;
        let (lo, hi) = (tid * per, tid * per + per);
        if self.rounds == 0 {
            b.halt();
            return b.build();
        }
        b.imm(r_round, self.rounds as u64);
        b.imm(r_end, self.point_addr(hi).0);
        let round_top = b.label();
        b.bind(round_top);
        // Point loop (`with_params` guarantees every thread a point):
        // assign the point at r_p to its nearest center...
        b.imm(r_p, self.point_addr(lo).0);
        let point_top = b.label();
        b.bind(point_top);
        for d in 0..dims {
            b.load(coord(d), r_p, d as u64);
        }
        b.imm(r_bd, i64::MAX as u64);
        b.imm(r_acc, self.accum_addr(0).0);
        for c in 0..self.clusters {
            b.imm(r_dist, 0);
            for d in 0..dims {
                b.imm(r_addr, self.center_addr(c, d).0).load(r_b, r_addr, 0);
                b.bin(BinOp::Sub, r_a, coord(d), r_b);
                b.bin(BinOp::Mul, r_a, r_a, r_a);
                b.bin(BinOp::Add, r_dist, r_dist, r_a);
            }
            b.compute(4);
            let skip = b.label();
            b.br(Cond::Ge, r_dist, r_bd, skip);
            b.mov(r_bd, r_dist);
            b.imm(r_acc, self.accum_addr(c).0);
            b.bind(skip);
        }
        // ...and fold it into that cluster's accumulator.
        b.crit_begin();
        b.load(r_a, r_acc, 0);
        b.bini(BinOp::Add, r_a, r_a, 1);
        b.store(r_acc, 0, r_a);
        for d in 0..dims {
            b.load(r_a, r_acc, 1 + d as u64);
            b.bin(BinOp::Add, r_a, r_a, coord(d));
            b.store(r_acc, 1 + d as u64, r_a);
        }
        b.crit_end();
        b.bini(BinOp::Add, r_p, r_p, dims as u64);
        b.br(Cond::Lt, r_p, r_end, point_top);
        b.barrier();
        // Center recomputation: thread t owns clusters t, t+T, ...
        let mut c = tid;
        while c < self.clusters {
            b.imm(r_addr, self.accum_addr(c).0);
            b.load(r_b, r_addr, 0); // n
            b.imm(r_zero, 0);
            let skip = b.label();
            b.br(Cond::Eq, r_b, r_zero, skip);
            for d in 0..dims {
                b.load(r_a, r_addr, 1 + d as u64);
                b.bin(BinOp::Div, r_a, r_a, r_b);
                b.imm(r_caddr, self.center_addr(c, d).0);
                b.store(r_caddr, 0, r_a);
            }
            b.bind(skip);
            b.imm(r_zero, 0);
            for w in 0..(1 + dims as u64) {
                b.store(r_addr, w, r_zero);
            }
            c += self.threads;
        }
        b.barrier();
        b.bini(BinOp::Sub, r_round, r_round, 1);
        b.imm(r_zero, 0);
        b.br(Cond::Ne, r_round, r_zero, round_top);
        b.halt();
        b.build()
    }
}

impl Program for Kmeans {
    fn name(&self) -> &str {
        "kmeans"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        assert_eq!(threads, self.threads);
        let mut rng = SimRng::new(0x6b6d_6561_6e73);
        self.points = (0..self.npoints)
            .map(|_| (0..self.dims).map(|_| rng.range(0, 1000) as i64).collect())
            .collect();
        self.points_base = s.alloc((self.npoints * self.dims) as u64);
        for (i, p) in self.points.iter().enumerate() {
            for (d, &v) in p.iter().enumerate() {
                s.write(self.point_addr(i).add(d as u64), v as u64);
            }
        }
        self.centers = s.alloc((self.clusters * self.dims) as u64);
        for c in 0..self.clusters {
            // Initial centers: the first `clusters` points.
            for d in 0..self.dims {
                s.write(self.center_addr(c, d), self.points[c][d] as u64);
            }
        }
        // One accumulator per cluster, line-padded so clusters do not
        // false-share (STAMP pads likewise).
        self.accum_stride = ((1 + self.dims as u64) + 7) & !7;
        self.accum = s.alloc(self.clusters as u64 * self.accum_stride);
        for c in 0..self.clusters {
            for w in 0..(1 + self.dims as u64) {
                s.write(self.accum_addr(c).add(w), 0);
            }
        }
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move { run_on_ctx(&self.compile(ctx.tid), ctx).await })
    }

    fn guest_exec(&self, env: GuestEnv) -> Option<GuestExec<'_>> {
        Some(GuestExec::from_body(env, async |ctx| self.run(ctx).await))
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        // After the final round the accumulators were reset; recompute the
        // expected centers by running the same algorithm sequentially.
        let mut centers: Vec<Vec<i64>> =
            (0..self.clusters).map(|c| self.points[c].clone()).collect();
        for _ in 0..self.rounds {
            let mut acc = vec![vec![0i64; self.dims + 1]; self.clusters];
            for p in &self.points {
                let mut best = 0;
                let mut best_d = i64::MAX;
                for (c, center) in centers.iter().enumerate() {
                    let dist: i64 = p.iter().zip(center).map(|(a, b)| (a - b) * (a - b)).sum();
                    if dist < best_d {
                        best_d = dist;
                        best = c;
                    }
                }
                acc[best][0] += 1;
                for d in 0..self.dims {
                    acc[best][d + 1] += p[d];
                }
            }
            for (c, a) in acc.iter().enumerate() {
                if a[0] > 0 {
                    for d in 0..self.dims {
                        centers[c][d] = a[d + 1] / a[0];
                    }
                }
            }
        }
        for (c, center) in centers.iter().enumerate() {
            for (d, &want) in center.iter().enumerate() {
                let got = mem.read(self.center_addr(c, d)) as i64;
                if got != want {
                    return Err(format!("center[{c}][{d}] = {got}, expected {want}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use lockiller::runner::Runner;
    use lockiller::system::SystemKind;
    use lockiller::Backend;
    use sim_core::config::SystemConfig;

    /// The compiler's independent oracle: kmeans written by hand in
    /// host Rust over [`GuestCtx`], on the shipped program's layout.
    /// [`Kmeans::compile`] must issue exactly this op stream, so a run
    /// of the oracle and a run of the kernel are byte-identical.
    pub(crate) struct Oracle(pub(crate) Kmeans);

    impl Program for Oracle {
        fn name(&self) -> &str {
            "kmeans"
        }

        fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
            self.0.setup(s, threads);
        }

        fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
            let k = &self.0;
            Box::pin(async move {
                let per = k.npoints / k.threads;
                let lo = ctx.tid * per;
                let hi = lo + per;
                for _round in 0..k.rounds {
                    for i in lo..hi {
                        // Assignment: read the point and every center
                        // (stable within a round, so non-transactional —
                        // as in STAMP).
                        let mut coords = Vec::with_capacity(k.dims);
                        for d in 0..k.dims {
                            coords.push(ctx.load(k.point_addr(i).add(d as u64)).await as i64);
                        }
                        let mut best = 0usize;
                        let mut best_d = i64::MAX;
                        for c in 0..k.clusters {
                            let mut dist = 0i64;
                            for (d, &x) in coords.iter().enumerate() {
                                let cv = ctx.load(k.center_addr(c, d)).await as i64;
                                let diff = x - cv;
                                dist += diff * diff;
                            }
                            ctx.compute(4).await;
                            if dist < best_d {
                                best_d = dist;
                                best = c;
                            }
                        }
                        // The transaction: fold the point into the
                        // accumulator.
                        let acc = k.accum_addr(best);
                        ctx.critical(async |tx| {
                            let n = tx.load(acc).await?;
                            tx.store(acc, n + 1).await?;
                            for (d, &x) in coords.iter().enumerate() {
                                let cell = acc.add(1 + d as u64);
                                let sum = tx.load(cell).await? as i64;
                                tx.store(cell, (sum + x) as u64).await?;
                            }
                            Ok(())
                        })
                        .await;
                    }
                    ctx.barrier().await;
                    // Center recomputation: thread t owns clusters t, t+T, ...
                    let mut c = ctx.tid;
                    while c < k.clusters {
                        let acc = k.accum_addr(c);
                        let n = ctx.load(acc).await as i64;
                        if n > 0 {
                            for d in 0..k.dims {
                                let sum = ctx.load(acc.add(1 + d as u64)).await as i64;
                                ctx.store(k.center_addr(c, d), (sum / n) as u64).await;
                            }
                        }
                        // Reset the accumulator for the next round.
                        for w in 0..(1 + k.dims as u64) {
                            ctx.store(acc.add(w), 0).await;
                        }
                        c += k.threads;
                    }
                    ctx.barrier().await;
                }
            })
        }
    }

    /// Run the oracle and the shipped kernel at one point, traced, and
    /// assert the two runs are byte-identical: statistics (every latency
    /// histogram included), memory image and event trace. The kernel's
    /// result is validated after the comparison, so a mistranslation
    /// fails here as a divergence.
    pub(crate) fn assert_kernel_matches_oracle(runner: Runner, mk: impl Fn() -> Kmeans) {
        let runner = runner.tracing().no_validate();
        // The oracle has no kernel, so it always runs its `run` body.
        let a = runner
            .clone()
            .backend(Backend::Threads)
            .run(&mut Oracle(mk()));
        let mut kernel = mk();
        let b = runner.run(&mut kernel);
        assert_eq!(a.stats, b.stats, "RunStats diverge");
        assert_eq!(a.mem.digest(), b.mem.digest(), "memory images diverge");
        assert_eq!(a.trace_events(), b.trace_events(), "event traces diverge");
        kernel
            .validate(&b.mem)
            .expect("the kernel computes the centers");
    }

    #[test]
    fn kernel_is_bit_identical_to_the_oracle() {
        // Both contention modes, several rounds (Small runs 2), every
        // retry path family, and an odd geometry through with_params.
        for (kind, threads, high) in [
            (SystemKind::LockillerRwil, 4, true),
            (SystemKind::Baseline, 4, false),
            (SystemKind::Cgl, 3, true),
            (SystemKind::LockillerTm, 2, false),
        ] {
            let runner = Runner::new(kind)
                .threads(threads)
                .config(SystemConfig::testing(threads));
            assert_kernel_matches_oracle(runner, || Kmeans::new(Scale::Small, threads, high));
        }
        let p = KmeansParams {
            points_per_thread: 5,
            dims: 3,
            clusters: 4,
            rounds: 3,
        };
        let runner = Runner::new(SystemKind::LockillerTm)
            .threads(2)
            .config(SystemConfig::testing(2));
        assert_kernel_matches_oracle(runner, || Kmeans::with_params(p, 2));
    }

    #[test]
    fn kernel_size_does_not_grow_with_the_input() {
        // Small and Full share clusters and dims and differ in points
        // and rounds, which the kernel loops over rather than unrolls.
        let sizes = |scale, high| -> Vec<usize> {
            Kmeans::new(scale, 8, high)
                .compile_standalone()
                .iter()
                .map(|k| k.instrs.len())
                .collect()
        };
        for high in [true, false] {
            assert_eq!(sizes(Scale::Small, high), sizes(Scale::Full, high));
        }
        let full = sizes(Scale::Full, false);
        assert!(
            full.iter().all(|&n| n < 1_000),
            "full-scale kmeans kernels per thread: {full:?}"
        );
    }

    #[test]
    fn kmeans_high_correct_on_cgl_and_htm() {
        for kind in [
            SystemKind::Cgl,
            SystemKind::Baseline,
            SystemKind::LockillerTm,
        ] {
            let mut w = Kmeans::new(Scale::Tiny, 2, true);
            let stats = Runner::new(kind)
                .threads(2)
                .config(SystemConfig::testing(2))
                .run(&mut w)
                .stats;
            assert!(stats.cycles > 0);
        }
    }

    #[test]
    fn kmeans_low_has_less_contention_than_high() {
        let run = |high| {
            let mut w = Kmeans::new(Scale::Small, 4, high);
            Runner::new(SystemKind::Baseline)
                .threads(4)
                .config(SystemConfig::testing(4))
                .run(&mut w)
                .into_stats()
        };
        let hi = run(true);
        let lo = run(false);
        assert!(
            hi.total_aborts() >= lo.total_aborts(),
            "kmeans+ should conflict at least as much as kmeans ({} vs {})",
            hi.total_aborts(),
            lo.total_aborts()
        );
    }
}
