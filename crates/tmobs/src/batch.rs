//! Host-side progress reporting for batch runs: a thread-safe counter
//! with a host wall-clock cost per completed point.
//!
//! The bench crate's `Lab::run_many` ticks this from its pool's worker
//! threads as points complete; when enabled it paints one stderr line
//! per completion with the running count, the point's label, and its
//! host wall-clock cost. Like every tmobs facility it is write-only:
//! it observes the harness, it cannot influence a simulation.

use std::sync::Mutex;
use std::time::Instant;

/// Shared progress counter for a batch of `total` work items.
#[derive(Debug)]
pub struct BatchProgress {
    started: Instant,
    state: Mutex<State>,
    verbose: bool,
}

#[derive(Debug)]
struct State {
    done: usize,
    total: usize,
}

impl BatchProgress {
    /// `verbose: false` still counts (for [`BatchProgress::done`]) but
    /// prints nothing.
    pub fn new(total: usize, verbose: bool) -> BatchProgress {
        BatchProgress {
            started: Instant::now(),
            state: Mutex::new(State { done: 0, total }),
            verbose,
        }
    }

    /// Record one completed item. `label` names the point; `wall_ms` is
    /// the item's own host wall-clock cost.
    pub fn tick(&self, label: &str, wall_ms: f64) {
        let (done, total) = {
            let mut s = self.state.lock().unwrap();
            s.done += 1;
            (s.done, s.total)
        };
        if self.verbose {
            eprintln!(
                "  [tmlab {done:>4}/{total}] {label} ({wall_ms:.1} ms, {:.1}s elapsed)",
                self.started.elapsed().as_secs_f64()
            );
        }
    }

    /// Items completed so far.
    pub fn done(&self) -> usize {
        self.state.lock().unwrap().done
    }

    /// Wall-clock seconds since the batch started.
    pub fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_count_from_any_thread() {
        let p = BatchProgress::new(8, false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    p.tick("a", 1.0);
                    p.tick("b", 0.0);
                });
            }
        });
        assert_eq!(p.done(), 8);
        assert!(p.elapsed_secs() >= 0.0);
    }
}
