//! genome — gene sequencing by segment matching (STAMP `genome`).
//!
//! A random gene of `gene_len` bases is cut into all overlapping windows
//! of `seg_len` bases. Phase 1 deduplicates the (over-sampled, shuffled)
//! segment stream into a shared hash set — the transaction-heavy part.
//! Phase 2 builds a prefix index, then links each unique segment to its
//! unique successor (the window one base to the right), reconstructing
//! the gene.
//!
//! The port keeps the original's structure: hash-table insert
//! transactions in phase 1 (low/medium contention, medium length), then
//! table build + match transactions in phase 2. Validation reconstructs
//! the gene from the links and compares it to the input — failure means a
//! transaction was torn.

use crate::Scale;
use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::{GuestFuture, Program};
use sim_core::rng::SimRng;
use tmlib::{HashTable, TmAlloc};

/// Input parameters (STAMP's `-g -s -n` knobs).
#[derive(Clone, Copy, Debug)]
pub struct GenomeParams {
    /// Gene length in bases (STAMP `-g`).
    pub gene_len: usize,
    /// Segment length in bases (STAMP `-s`); max 30 (2-bit encoding).
    pub seg_len: usize,
    /// Oversampling factor: total segments = windows * oversample
    /// (STAMP `-n` expressed as coverage).
    pub oversample: usize,
}

impl GenomeParams {
    pub fn for_scale(scale: Scale) -> GenomeParams {
        let (gene_len, seg_len, oversample) = match scale {
            Scale::Tiny => (48, 8, 2),
            Scale::Small => (128, 12, 3),
            Scale::Full => (320, 16, 4),
        };
        GenomeParams {
            gene_len,
            seg_len,
            oversample,
        }
    }
}

pub struct Genome {
    threads: usize,
    gene_len: usize,
    seg_len: usize,
    oversample: usize,
    /// The gene as 2-bit bases.
    gene: Vec<u8>,
    /// Shuffled segment stream (encoded windows), partitioned per thread.
    stream: Vec<u64>,
    /// Unique windows in position order (for validation).
    windows: Vec<u64>,
    alloc: Option<TmAlloc>,
    /// Dedup set: segment -> 1.
    unique: Option<HashTable>,
    /// Prefix index: prefix(seg) -> seg.
    starts: Option<HashTable>,
    /// Successor links: seg -> next seg (hashtable).
    links: Option<HashTable>,
    /// Phase-2 claim bitmap cell per segment is folded into `links`.
    first_window: u64,
}

fn encode(gene: &[u8], pos: usize, len: usize) -> u64 {
    let mut v: u64 = 1; // leading 1 keeps distinct lengths distinct
    for &b in &gene[pos..pos + len] {
        v = (v << 2) | b as u64;
    }
    v
}

/// Prefix of a window: drop the last base.
fn prefix(seg: u64) -> u64 {
    seg >> 2
}

/// Suffix of a window: drop the first base (keeping the leading 1).
fn suffix(seg: u64, len: usize) -> u64 {
    let body_bits = 2 * (len - 1);
    (1u64 << body_bits) | (seg & ((1u64 << body_bits) - 1))
}

impl Genome {
    pub fn new(scale: Scale, threads: usize) -> Genome {
        Genome::with_params(GenomeParams::for_scale(scale), threads)
    }

    pub fn with_params(p: GenomeParams, threads: usize) -> Genome {
        assert!(
            p.seg_len >= 2 && p.seg_len <= 30,
            "seg_len must fit 2-bit encoding"
        );
        assert!(p.gene_len > p.seg_len);
        Genome {
            threads,
            gene_len: p.gene_len,
            seg_len: p.seg_len,
            oversample: p.oversample.max(1),
            gene: Vec::new(),
            stream: Vec::new(),
            windows: Vec::new(),
            alloc: None,
            unique: None,
            starts: None,
            links: None,
            first_window: 0,
        }
    }
}

impl Program for Genome {
    fn name(&self) -> &str {
        "genome"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        assert_eq!(threads, self.threads);
        // Generate a gene whose windows (and their S-1 prefixes) are all
        // unique so reconstruction is exact; bump the seed until true.
        let mut seed = 0x67_65_6e_6f_6d_65u64;
        loop {
            let mut rng = SimRng::new(seed);
            self.gene = (0..self.gene_len).map(|_| rng.below(4) as u8).collect();
            let n = self.gene_len - self.seg_len + 1;
            self.windows = (0..n)
                .map(|p| encode(&self.gene, p, self.seg_len))
                .collect();
            let mut ws = self.windows.clone();
            ws.sort_unstable();
            ws.dedup();
            let mut ps: Vec<u64> = self.windows.iter().map(|&w| prefix(w)).collect();
            ps.sort_unstable();
            ps.dedup();
            if ws.len() == n && ps.len() == n {
                break;
            }
            seed = seed.wrapping_add(1);
        }
        self.first_window = self.windows[0];
        // Segment stream: every window once (guaranteed coverage) plus
        // random duplicates, shuffled; padded to a multiple of threads.
        let mut rng = SimRng::new(seed ^ 0x5eed);
        let mut stream = self.windows.clone();
        for _ in 0..(self.windows.len() * (self.oversample - 1)) {
            stream.push(self.windows[rng.below(self.windows.len() as u64) as usize]);
        }
        rng.shuffle(&mut stream);
        while !stream.len().is_multiple_of(self.threads) {
            stream.push(self.windows[rng.below(self.windows.len() as u64) as usize]);
        }
        self.stream = stream;

        let per_thread_heap = 64 * 1024;
        self.alloc = Some(TmAlloc::setup(s, self.threads, per_thread_heap));
        let buckets = (self.windows.len() * 2).next_power_of_two() as u64;
        self.unique = Some(HashTable::setup(s, buckets));
        self.starts = Some(HashTable::setup(s, buckets));
        self.links = Some(HashTable::setup(s, buckets));
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let alloc = self.alloc.unwrap();
            let unique = self.unique.unwrap();
            let starts = self.starts.unwrap();
            let links = self.links.unwrap();
            let per = self.stream.len() / self.threads;
            let lo = ctx.tid * per;
            let hi = lo + per;

            // Phase 1: deduplicate segments into the shared hash set.
            for &seg in &self.stream[lo..hi] {
                ctx.critical(async |tx| {
                    unique.insert(tx, &alloc, seg, 1).await?;
                    Ok(())
                })
                .await;
                ctx.compute(20).await; // segment I/O & encode in the original
            }
            ctx.barrier().await;

            // Phase 2a: index each unique window by its prefix. Partition the
            // canonical window list among threads (as the original partitions
            // the unique-segment table).
            let n = self.windows.len();
            let per_w = n.div_ceil(self.threads);
            let wlo = (ctx.tid * per_w).min(n);
            let whi = ((ctx.tid + 1) * per_w).min(n);
            for &w in &self.windows[wlo..whi] {
                ctx.critical(async |tx| {
                    debug_assert!(unique.contains(tx, w).await?, "window lost in phase 1");
                    starts.insert(tx, &alloc, prefix(w), w).await?;
                    Ok(())
                })
                .await;
            }
            ctx.barrier().await;

            // Phase 2b: link each window to its successor (the window whose
            // prefix equals our suffix).
            let seg_len = self.seg_len;
            for &w in &self.windows[wlo..whi] {
                ctx.critical(async |tx| {
                    if let Some(next) = starts.find(tx, suffix(w, seg_len)).await? {
                        links.insert(tx, &alloc, w, next).await?;
                    }
                    Ok(())
                })
                .await;
                ctx.compute(10).await;
            }
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        // Follow links from the first window; must walk every window in
        // gene order.
        let links = self.links.unwrap();
        let snap: std::collections::HashMap<u64, u64> = links.snapshot(mem).into_iter().collect();
        let mut cur = self.first_window;
        for (i, &want) in self.windows.iter().enumerate() {
            if cur != want {
                return Err(format!("chain diverged at window {i}"));
            }
            if i + 1 < self.windows.len() {
                cur = *snap
                    .get(&cur)
                    .ok_or_else(|| format!("missing link at window {i}"))?;
            }
        }
        // The last window must have no link.
        if snap.contains_key(self.windows.last().unwrap()) {
            return Err("unexpected link after the last window".into());
        }
        let unique = self.unique.unwrap();
        let got = unique.snapshot(mem).len();
        if got != self.windows.len() {
            return Err(format!(
                "dedup produced {got} segments, expected {}",
                self.windows.len()
            ));
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
    fn window_encoding_shifts() {
        let gene = vec![0u8, 1, 2, 3, 0, 1];
        let w0 = encode(&gene, 0, 4);
        let w1 = encode(&gene, 1, 4);
        // suffix(w0) covers bases 1..=3, as does prefix(w1) (w1 = bases
        // 1..=4 with the last dropped); both carry the leading length tag.
        assert_eq!(suffix(w0, 4), prefix(w1), "suffix/prefix mismatch");
        assert_eq!(suffix(w0, 4), encode(&gene, 1, 3));
    }

    #[test]
    fn genome_reconstructs_on_all_core_systems() {
        for kind in [
            SystemKind::Cgl,
            SystemKind::Baseline,
            SystemKind::LockillerTm,
        ] {
            let mut w = Genome::new(Scale::Tiny, 2);
            let _ = Runner::new(kind)
                .threads(2)
                .config(SystemConfig::testing(2))
                .run(&mut w);
        }
    }
}
