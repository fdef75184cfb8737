//! A scoped work-stealing thread pool for fanning simulation points out
//! across host cores.
//!
//! Each simulation is itself bit-deterministic (one single-threaded
//! engine resumes every guest in lockstep), so distinct points
//! are embarrassingly parallel: the pool only decides *which host worker*
//! runs a point, never the point's outcome. Results are returned indexed
//! by submission order, which makes the whole batch deterministic
//! regardless of the worker count — the property `tmlab`'s tests pin.
//!
//! Implementation: one `Mutex<VecDeque>`-backed deque per worker, seeded
//! round-robin. A worker pops from the *front* of its own deque and, when
//! empty, steals from the *back* of a victim's, which keeps stolen work
//! coarse and the common path contention-free. Only `std` is used.

use std::collections::VecDeque;
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

    let deques: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        deques[i % workers].lock().unwrap().push_back((i, item));
    }
    let remaining = AtomicUsize::new(n);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|s| {
        for w in 0..workers {
            let deques = &deques;
            let remaining = &remaining;
            let slots = &slots;
            let f = &f;
            s.spawn(move || loop {
                // Own deque first (front), then steal (back), nearest victim
                // first so the tail of the batch drains evenly. The own-pop
                // is a standalone statement so its lock guard drops before
                // any victim lock is taken — holding both would deadlock.
                let own = deques[w].lock().unwrap().pop_front();
                let job = own.or_else(|| {
                    (1..workers)
                        .map(|d| (w + d) % workers)
                        .find_map(|v| deques[v].lock().unwrap().pop_back())
                });
                match job {
                    Some((i, item)) => {
                        *slots[i].lock().unwrap() = Some(f(i, item));
                        remaining.fetch_sub(1, Ordering::Relaxed);
                    }
                    None => {
                        if remaining.load(Ordering::Relaxed) == 0 {
                            return;
                        }
                        // All deques momentarily empty but work is still in
                        // flight elsewhere; yield rather than spin hot.
                        std::thread::yield_now();
                    }
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("pool lost a result"))
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
        // deadlocks even though deque 0 holds the slow job).
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
