//! intruder — signature-based network intrusion detection (STAMP
//! `intruder`).
//!
//! Pre-fragmented flows are shuffled into a shared packet queue. Each
//! thread loops: (tx 1) pop a fragment; (tx 2) insert it into the shared
//! reassembly map keyed by flow id, and if the flow is now complete,
//! remove it and hand it to detection (pure compute); (tx 3) record the
//! verdict. Short transactions on hot shared structures (queue head,
//! map) make this the suite's canonical high-contention workload.

use crate::Scale;
use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::{GuestFuture, Program};
use sim_core::rng::SimRng;
use sim_core::types::Addr;
use tmlib::{Queue, TMap, TmAlloc};

/// Reassembly entry layout: [received_count, needed, payload_acc].
const E_GOT: u64 = 0;
const E_NEED: u64 = 1;
const E_ACC: u64 = 2;
const ENTRY_WORDS: u64 = 3;

/// Input parameters (STAMP's `-a -l -n` knobs, reduced).
#[derive(Clone, Copy, Debug)]
pub struct IntruderParams {
    pub flows_per_thread: usize,
    /// Max fragments per flow (STAMP `-l`).
    pub max_frags: u64,
}

impl IntruderParams {
    pub fn for_scale(scale: Scale) -> IntruderParams {
        let (flows_per_thread, max_frags) = match scale {
            Scale::Tiny => (4, 3),
            Scale::Small => (10, 4),
            Scale::Full => (24, 4),
        };
        IntruderParams {
            flows_per_thread,
            max_frags,
        }
    }
}

pub struct Intruder {
    threads: usize,
    nflows: usize,
    max_frags: u64,
    /// (flow, frag_index, payload) encoded into queue values.
    fragments: Vec<u64>,
    frags_of: Vec<u64>,
    payload_sum: Vec<u64>,
    queue: Option<Queue>,
    map: Option<TMap>,
    alloc: Option<TmAlloc>,
    /// Detection output: one word per flow (payload checksum).
    verdicts: Addr,
}

fn enc(flow: u64, idx: u64, payload: u64) -> u64 {
    flow << 40 | idx << 32 | payload
}

fn dec(v: u64) -> (u64, u64, u64) {
    (v >> 40, (v >> 32) & 0xff, v & 0xffff_ffff)
}

impl Intruder {
    pub fn new(scale: Scale, threads: usize) -> Intruder {
        Intruder::with_params(IntruderParams::for_scale(scale), threads)
    }

    pub fn with_params(p: IntruderParams, threads: usize) -> Intruder {
        assert!(
            p.max_frags >= 1 && p.max_frags < 256,
            "fragment index is 8 bits"
        );
        Intruder {
            threads,
            nflows: p.flows_per_thread * threads,
            max_frags: p.max_frags,
            fragments: Vec::new(),
            frags_of: Vec::new(),
            payload_sum: Vec::new(),
            queue: None,
            map: None,
            alloc: None,
            verdicts: Addr::NULL,
        }
    }
}

impl Intruder {
    /// Diagnostics: dump a flow's residual state (debugging aid).
    pub fn debug_flow(&self, mem: &FlatMem, flow: u64) -> String {
        let snap = self.map.unwrap().snapshot(mem);
        let entry = snap.iter().find(|(k, _)| *k == flow);
        let verdict = mem.read(self.verdicts.add(flow));
        let need = self.frags_of[flow as usize];
        match entry {
            Some(&(_, e)) => {
                let e = Addr(e);
                format!(
                    "flow {flow}: need={need} got={} acc={} verdict={verdict} (entry at word {})",
                    mem.read(e.add(E_GOT)),
                    mem.read(e.add(E_ACC)),
                    e.0
                )
            }
            None => format!("flow {flow}: need={need} no entry, verdict={verdict}"),
        }
    }
}

impl Program for Intruder {
    fn name(&self) -> &str {
        "intruder"
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        assert_eq!(threads, self.threads);
        let mut rng = SimRng::new(0x696e_7472_7564_6572);
        self.frags_of = (0..self.nflows)
            .map(|_| 1 + rng.below(self.max_frags))
            .collect();
        self.payload_sum = vec![0; self.nflows];
        let mut frags = Vec::new();
        for flow in 0..self.nflows {
            for idx in 0..self.frags_of[flow] {
                let payload = rng.below(1 << 16);
                self.payload_sum[flow] += payload;
                frags.push(enc(flow as u64, idx, payload));
            }
        }
        rng.shuffle(&mut frags);
        self.fragments = frags;

        self.alloc = Some(TmAlloc::setup(s, threads, 64 * 1024));
        let q = Queue::setup(s);
        for &f in &self.fragments {
            q.setup_push(s, f);
        }
        self.queue = Some(q);
        self.map = Some(TMap::setup(s));
        self.verdicts = s.alloc(self.nflows as u64);
        for f in 0..self.nflows as u64 {
            s.write(self.verdicts.add(f), 0);
        }
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let alloc = self.alloc.unwrap();
            let queue = self.queue.unwrap();
            let map = self.map.unwrap();
            let frags_needed = &self.frags_of;
            loop {
                // Tx 1: grab a fragment.
                let frag = ctx.critical(async |tx| queue.pop(tx).await).await;
                let Some(frag) = frag else { break };
                let (flow, _idx, payload) = dec(frag);

                // Tx 2: reassemble; detect completion.
                let need = frags_needed[flow as usize];
                let completed = ctx
                    .critical(async |tx| {
                        let entry = match map.find(tx, flow).await? {
                            Some(e) => Addr(e),
                            None => {
                                let e = alloc.alloc(tx, ENTRY_WORDS).await?;
                                tx.store(e.add(E_GOT), 0).await?;
                                tx.store(e.add(E_NEED), need).await?;
                                tx.store(e.add(E_ACC), 0).await?;
                                map.insert(tx, &alloc, flow, e.0).await?;
                                e
                            }
                        };
                        let got = tx.load(entry.add(E_GOT)).await? + 1;
                        tx.store(entry.add(E_GOT), got).await?;
                        let acc = tx.load(entry.add(E_ACC)).await? + payload;
                        tx.store(entry.add(E_ACC), acc).await?;
                        if got == tx.load(entry.add(E_NEED)).await? {
                            map.remove(tx, flow).await?;
                            Ok(Some(acc))
                        } else {
                            Ok(None)
                        }
                    })
                    .await;

                if let Some(acc) = completed {
                    // Detection: pure computation over the reassembled flow.
                    ctx.compute(60 + (acc % 64)).await;
                    // Tx 3: record the verdict.
                    let cell = self.verdicts.add(flow);
                    ctx.critical(async |tx| {
                        let prev = tx.load(cell).await?;
                        debug_assert_eq!(prev, 0, "flow detected twice");
                        let _ = prev;
                        tx.store(cell, acc).await?;
                        Ok(())
                    })
                    .await;
                }
            }
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        // Every flow detected exactly once with the right checksum; the
        // reassembly map drained.
        for flow in 0..self.nflows {
            let got = mem.read(self.verdicts.add(flow as u64));
            if got != self.payload_sum[flow] {
                return Err(format!(
                    "flow {flow}: verdict {got}, expected {}",
                    self.payload_sum[flow]
                ));
            }
        }
        if !self.map.unwrap().snapshot(mem).is_empty() {
            return Err("reassembly map not drained".into());
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
    fn frag_encoding_roundtrip() {
        assert_eq!(dec(enc(5, 3, 1234)), (5, 3, 1234));
        assert_eq!(dec(enc(0, 0, 0)), (0, 0, 0));
    }

    #[test]
    fn intruder_detects_all_flows() {
        for kind in [
            SystemKind::Cgl,
            SystemKind::Baseline,
            SystemKind::LockillerRwil,
        ] {
            let mut w = Intruder::new(Scale::Tiny, 2);
            let _ = Runner::new(kind)
                .threads(2)
                .config(SystemConfig::testing(2))
                .run(&mut w);
        }
    }

    #[test]
    fn intruder_is_high_contention() {
        let mut w = Intruder::new(Scale::Small, 4);
        let stats = Runner::new(SystemKind::Baseline)
            .threads(4)
            .config(SystemConfig::testing(4))
            .run(&mut w)
            .stats;
        assert!(stats.total_aborts() > 0, "queue head must cause conflicts");
    }
}
