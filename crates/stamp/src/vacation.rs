//! vacation — travel reservation system (STAMP `vacation`).
//!
//! A database of three relations (cars, rooms, flights) stored in
//! transactional ordered maps plus a customer table of reservation lists.
//! Client threads execute a task mix: make-reservation (lookup several
//! records per relation, reserve the cheapest available), delete-customer
//! (release everything the customer holds), and update-tables (change
//! prices / add capacity).
//!
//! `vacation+` (high contention) queries a narrower id range with more
//! queries per task, so transactions overlap; `vacation` (low) spreads
//! them out. Validation checks resource conservation: for every record,
//! `total == free + held-by-customers`, and price within bounds.

use crate::Scale;
use lockiller::flatmem::{FlatMem, SetupCtx};
use lockiller::guest::GuestCtx;
use lockiller::program::{GuestFuture, Program};
use sim_core::rng::SimRng;
use sim_core::types::Addr;
use tmlib::{List, TMap, TmAlloc};

/// Record layout in simulated memory: [total, free, price].
const R_TOTAL: u64 = 0;
const R_FREE: u64 = 1;
const R_PRICE: u64 = 2;
const RECORD_WORDS: u64 = 3;

const NRELATIONS: usize = 3;

/// Input parameters (STAMP's `-n -q -u -r -t` knobs, reduced).
#[derive(Clone, Copy, Debug)]
pub struct VacationParams {
    /// Rows per relation (STAMP `-r`).
    pub relation_size: usize,
    /// Client tasks per thread (STAMP `-t` / threads).
    pub tasks_per_thread: usize,
    /// Records examined per relation per reservation (STAMP `-n`).
    pub queries_per_task: usize,
    /// Percent of the id range tasks touch (STAMP `-q`).
    pub range_pct: u64,
}

impl VacationParams {
    pub fn for_scale(scale: Scale, high: bool) -> VacationParams {
        let (relation_size, tasks_per_thread) = match scale {
            Scale::Tiny => (16, 6),
            Scale::Small => (32, 16),
            Scale::Full => (64, 40),
        };
        let (queries_per_task, range_pct) = if high { (4, 10) } else { (2, 90) };
        VacationParams {
            relation_size,
            tasks_per_thread,
            queries_per_task,
            range_pct,
        }
    }
}

pub struct Vacation {
    threads: usize,
    high: bool,
    relation_size: usize,
    tasks_per_thread: usize,
    queries_per_task: usize,
    /// Fraction (0..100) of the id range tasks touch (STAMP's -q).
    range_pct: u64,
    customers: usize,
    relations: [Option<TMap>; NRELATIONS],
    /// customer id -> reservation list; reservation node value encodes
    /// (relation, record id).
    cust_lists: Vec<Option<List>>,
    alloc: Option<TmAlloc>,
    records_base: Addr,
}

fn res_code(rel: usize, id: u64) -> u64 {
    (rel as u64) << 32 | id
}

fn res_decode(code: u64) -> (usize, u64) {
    ((code >> 32) as usize, code & 0xffff_ffff)
}

impl Vacation {
    pub fn new(scale: Scale, threads: usize, high: bool) -> Vacation {
        // STAMP: low -n2 -q90 -u98; high -n4 -q10/-q60 -u90. The narrow
        // range is what drives contention up.
        Vacation::with_params(VacationParams::for_scale(scale, high), threads, high)
    }

    pub fn with_params(p: VacationParams, threads: usize, high: bool) -> Vacation {
        assert!(p.relation_size >= 2);
        Vacation {
            threads,
            high,
            relation_size: p.relation_size,
            tasks_per_thread: p.tasks_per_thread,
            queries_per_task: p.queries_per_task,
            range_pct: p.range_pct,
            customers: p.relation_size,
            relations: [None; NRELATIONS],
            cust_lists: Vec::new(),
            alloc: None,
            records_base: Addr::NULL,
        }
    }

    fn record_addr(&self, rel: usize, id: u64) -> Addr {
        self.records_base
            .add(((rel * self.relation_size) as u64 + id) * RECORD_WORDS.next_multiple_of(8))
    }
}

impl Program for Vacation {
    fn name(&self) -> &str {
        if self.high {
            "vacation+"
        } else {
            "vacation"
        }
    }

    fn setup(&mut self, s: &mut SetupCtx, threads: usize) {
        assert_eq!(threads, self.threads);
        let mut rng = SimRng::new(0x7661_6361_7469_6f6e);
        self.alloc = Some(TmAlloc::setup(s, threads, 128 * 1024));
        let stride = RECORD_WORDS.next_multiple_of(8);
        self.records_base = s.alloc((NRELATIONS * self.relation_size) as u64 * stride);
        for rel in 0..NRELATIONS {
            let map = TMap::setup(s);
            for id in 0..self.relation_size as u64 {
                let rec = self.record_addr(rel, id);
                let total = 2 + rng.below(6);
                s.write(rec.add(R_TOTAL), total);
                s.write(rec.add(R_FREE), total);
                s.write(rec.add(R_PRICE), 100 + rng.below(400));
                map.setup_insert(s, id, rec.0);
            }
            self.relations[rel] = Some(map);
        }
        self.cust_lists = (0..self.customers)
            .map(|_| {
                let l = List::setup(s);
                Some(l)
            })
            .collect();
    }

    fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
        Box::pin(async move {
            let alloc = self.alloc.unwrap();
            let range = ((self.relation_size as u64 * self.range_pct) / 100).max(2);
            for _task in 0..self.tasks_per_thread {
                let roll = ctx.rng.below(100);
                if roll < 80 {
                    // Make reservation: per relation, query q random records,
                    // reserve the cheapest with free capacity.
                    let customer = ctx.rng.below(self.customers as u64) as usize;
                    let mut ids: Vec<Vec<u64>> = Vec::with_capacity(NRELATIONS);
                    for _ in 0..NRELATIONS {
                        ids.push(
                            (0..self.queries_per_task)
                                .map(|_| ctx.rng.below(range))
                                .collect(),
                        );
                    }
                    let relations = &self.relations;
                    let clist = self.cust_lists[customer].unwrap();
                    let next_res_key = ctx.rng.next_u64() | 1; // unique list key
                    ctx.critical(async |tx| {
                        for (rel, rel_ids) in ids.iter().enumerate() {
                            let map = relations[rel].unwrap();
                            let mut best: Option<(u64, Addr)> = None;
                            let mut best_price = u64::MAX;
                            for &id in rel_ids {
                                if let Some(rec) = map.find(tx, id).await? {
                                    let rec = Addr(rec);
                                    let free = tx.load(rec.add(R_FREE)).await?;
                                    let price = tx.load(rec.add(R_PRICE)).await?;
                                    if free > 0 && price < best_price {
                                        best_price = price;
                                        best = Some((id, rec));
                                    }
                                }
                                tx.compute(6).await?;
                            }
                            if let Some((id, rec)) = best {
                                let free = tx.load(rec.add(R_FREE)).await?;
                                tx.store(rec.add(R_FREE), free - 1).await?;
                                clist
                                    .insert(
                                        tx,
                                        &alloc,
                                        next_res_key.wrapping_add(rel as u64),
                                        res_code(rel, id),
                                    )
                                    .await?;
                            }
                        }
                        Ok(())
                    })
                    .await;
                } else if roll < 90 {
                    // Delete customer: release all reservations.
                    let customer = ctx.rng.below(self.customers as u64) as usize;
                    let clist = self.cust_lists[customer].unwrap();
                    ctx.critical(async |tx| {
                        let held = clist.to_vec(tx).await?;
                        for (key, code) in held {
                            let (_rel, id) = res_decode(code);
                            let _ = id;
                            let rec = {
                                let (rel, id) = res_decode(code);
                                let map = self.relations[rel].unwrap();
                                map.find(tx, id).await?
                            };
                            if let Some(rec) = rec {
                                let rec = Addr(rec);
                                let free = tx.load(rec.add(R_FREE)).await?;
                                tx.store(rec.add(R_FREE), free + 1).await?;
                            }
                            clist.remove(tx, key).await?;
                        }
                        Ok(())
                    })
                    .await;
                } else {
                    // Update tables: re-price random records.
                    let rel = ctx.rng.below(NRELATIONS as u64) as usize;
                    let id = ctx.rng.below(range);
                    let new_price = 100 + ctx.rng.below(400);
                    let map = self.relations[rel].unwrap();
                    ctx.critical(async |tx| {
                        if let Some(rec) = map.find(tx, id).await? {
                            tx.store(Addr(rec).add(R_PRICE), new_price).await?;
                        }
                        Ok(())
                    })
                    .await;
                }
                ctx.compute(40).await;
            }
        })
    }

    fn validate(&self, mem: &FlatMem) -> Result<(), String> {
        // Conservation: every record's holds (across customer lists) plus
        // free must equal total.
        let mut held = vec![vec![0u64; self.relation_size]; NRELATIONS];
        for clist in self.cust_lists.iter().flatten() {
            // Untimed walk via list snapshot: reuse List layout through a
            // throwaway TxCtx-free reader.
            let mut cur = mem.read(list_head(clist));
            while cur != 0 {
                let code = mem.read(Addr(cur).add(1));
                let (rel, id) = res_decode(code);
                held[rel][id as usize] += 1;
                cur = mem.read(Addr(cur).add(2));
            }
        }
        for (rel, held_rel) in held.iter().enumerate() {
            for id in 0..self.relation_size as u64 {
                let rec = self.record_addr(rel, id);
                let total = mem.read(rec.add(R_TOTAL));
                let free = mem.read(rec.add(R_FREE));
                let h = held_rel[id as usize];
                if free + h != total {
                    return Err(format!(
                        "relation {rel} record {id}: total {total} != free {free} + held {h}"
                    ));
                }
                let price = mem.read(rec.add(R_PRICE));
                if !(100..500).contains(&price) {
                    return Err(format!("relation {rel} record {id}: price {price} torn"));
                }
            }
        }
        Ok(())
    }
}

/// The list header address (List is a transparent handle over it).
fn list_head(l: &List) -> Addr {
    // List's layout: the handle stores the head cell address; expose it
    // via its Debug representation being stable is fragile, so tmlib
    // provides `head_addr` instead.
    l.head_addr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockiller::runner::Runner;
    use lockiller::system::SystemKind;
    use sim_core::config::SystemConfig;

    #[test]
    fn reservation_codes_roundtrip() {
        for rel in 0..3 {
            for id in [0u64, 5, 1000] {
                assert_eq!(res_decode(res_code(rel, id)), (rel, id));
            }
        }
    }

    #[test]
    fn vacation_conserves_resources() {
        for kind in [
            SystemKind::Cgl,
            SystemKind::Baseline,
            SystemKind::LockillerTm,
        ] {
            let mut w = Vacation::new(Scale::Tiny, 2, true);
            let _ = Runner::new(kind)
                .threads(2)
                .config(SystemConfig::testing(2))
                .run(&mut w);
        }
    }

    #[test]
    fn vacation_low_vs_high_contention() {
        let run = |high| {
            let mut w = Vacation::new(Scale::Small, 4, high);
            Runner::new(SystemKind::Baseline)
                .threads(4)
                .config(SystemConfig::testing(4))
                .run(&mut w)
                .into_stats()
        };
        let hi = run(true);
        let lo = run(false);
        assert!(
            hi.commit_rate() <= lo.commit_rate() + 0.05,
            "vacation+ should not commit more easily than vacation ({:.3} vs {:.3})",
            hi.commit_rate(),
            lo.commit_rate()
        );
    }
}
