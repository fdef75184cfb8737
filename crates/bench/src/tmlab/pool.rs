//! A scoped thread pool for fanning simulation points out across host
//! cores.
//!
//! Each simulation is itself bit-deterministic (one single-threaded
//! engine resumes every guest in lockstep), so distinct points
//! are embarrassingly parallel: the pool only decides *which host worker*
//! runs a point, never the point's outcome. Results are returned indexed
//! by submission order, which makes the whole batch deterministic
//! regardless of the worker count — the property `tmlab`'s tests pin.
//!
//! Implementation: the workers share one atomic cursor over the items.
//! Each claims the next index, runs that item and stores its result at
//! the same index, so a slow point holds up only its own worker while
//! the others drain the rest. Only `std` is used.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `f` over `items`, using up to `jobs` host threads, and return the
/// results in submission order. `f` receives `(index, item)`.
///
/// `jobs <= 1` (or a single item) degrades to a plain sequential loop on
/// the calling thread — the reference against which parallel runs must
/// be byte-identical.
pub fn run_ordered<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n.max(1));
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    // Index `i` is claimed by exactly one worker, which takes `items[i]`
    // and fills `results[i]`: the locks are never contended, and `f` runs
    // outside them, so none is poisoned. The cursor hands out indices
    // only (items and results pass through the locks and the scope's
    // join), hence `Relaxed`.
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { return };
                let item = item.lock().expect("unpoisoned").take();
                let r = f(i, item.expect("each index is claimed once"));
                *results[i].lock().expect("unpoisoned") = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .expect("unpoisoned")
                .expect("every index was claimed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        for jobs in [1, 2, 4, 7] {
            let items: Vec<u64> = (0..100).collect();
            let out = run_ordered(jobs, items, |i, x| {
                assert_eq!(i as u64, x);
                x * x
            });
            let want: Vec<u64> = (0..100).map(|x| x * x).collect();
            assert_eq!(out, want, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_batches_work() {
        let out: Vec<u64> = run_ordered(4, Vec::<u64>::new(), |_, x| x);
        assert!(out.is_empty());
        let out = run_ordered(4, vec![9u64], |_, x| x + 1);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn uneven_work_is_stolen() {
        // One huge item up front; with 4 workers the rest must finish on
        // other threads (indirectly verified: total is right and nothing
        // deadlocks while one worker holds the slow job).
        let items: Vec<u64> = (0..32).collect();
        let out = run_ordered(4, items, |_, x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x
        });
        assert_eq!(out.iter().sum::<u64>(), (0..32).sum());
    }
}
