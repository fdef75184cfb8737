//! `tmbench compare A.jsonl B.jsonl`: two sets of `--out` records, per
//! workload and metric, with a verdict against the declared bounds.
//!
//! End-to-end metrics get one of:
//! - `unresolved` — either side's interquartile range, as a share of its
//!   median, is wider than the bound, and the runs do not separate
//!   (every B better, or every B worse, than every A);
//! - `WORSE` — B's median is worse than A's by more than the bound;
//! - `better` — B's median is better than A's by more than the wider of
//!   the two interquartile ranges;
//! - `within bound` — otherwise.
//!
//! Per-layer metrics have no bound. Those in [`EXACT`] are compared
//! seed by seed: `identical` when A and B agree at every seed both ran,
//! `CHANGED` otherwise. The rest are host measurements, reported with
//! their change only. The exit code is 1 if any end-to-end metric is
//! `WORSE` or B has failed operations.

use crate::metrics::{Declared, EXACT};
use crate::stats::{median, quartiles, rel_spread};
use sim_core::json::{parse, Json};
use std::process::ExitCode;

struct Record {
    workload: String,
    seed: u64,
    failed: u64,
    values: Vec<(String, f64)>,
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |e: &str| format!("{path}:{}: {e}", i + 1);
        let doc = parse(line).map_err(|e| at(&e))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no workload"))?
            .to_string();
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| at("no seed"))? as u64;
        let failed = doc
            .get("failed")
            .and_then(Json::as_f64)
            .ok_or_else(|| at("no failed"))? as u64;
        let mut values = Vec::new();
        for set in ["end_to_end", "per_layer"] {
            let Some(Json::Obj(kv)) = doc.get(set) else {
                return Err(at(&format!("no {set} object")));
            };
            for (k, v) in kv {
                values.push((
                    k.clone(),
                    v.as_f64()
                        .ok_or_else(|| at(&format!("{k} is not a number")))?,
                ));
            }
        }
        out.push(Record {
            workload,
            seed,
            failed,
            values,
        });
    }
    Ok(out)
}

/// `(seed, value)` of `metric` in each record that has it.
fn values(recs: &[&Record], metric: &str) -> Vec<(u64, f64)> {
    recs.iter()
        .filter_map(|r| {
            let (_, v) = r.values.iter().find(|(k, _)| k == metric)?;
            Some((r.seed, *v))
        })
        .collect()
}

/// The verdict for an [`EXACT`] metric, from `(seed, value)` pairs of
/// each set: all values at each seed both sets ran must be equal. With no
/// shared seed only an unchanged constant can be told apart.
fn exact_verdict(a: &[(u64, f64)], b: &[(u64, f64)]) -> &'static str {
    let shared: Vec<u64> = a
        .iter()
        .map(|p| p.0)
        .filter(|s| b.iter().any(|q| q.0 == *s))
        .collect();
    let all_equal = |seed: Option<u64>| {
        let mut v = a.iter().chain(b).filter(|p| seed.is_none_or(|s| p.0 == s));
        let first = v.next().map(|p| p.1);
        v.all(|p| Some(p.1) == first)
    };
    if shared.is_empty() {
        if all_equal(None) {
            "identical"
        } else {
            "no shared seed"
        }
    } else if shared.into_iter().all(|s| all_equal(Some(s))) {
        "identical"
    } else {
        "CHANGED"
    }
}

/// The verdict for an end-to-end metric; `a` and `b` are non-empty.
fn verdict(higher_is_better: bool, bound: f64, a: &[f64], b: &[f64]) -> &'static str {
    let (ma, mb) = (median(a), median(b));
    // Positive = B is worse than A.
    let worse_by = |x: f64, y: f64| if higher_is_better { x - y } else { y - x };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| worse_by(x, y) < 0.0));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| worse_by(x, y) > 0.0));
    let rel = if ma == 0.0 {
        0.0
    } else {
        worse_by(ma, mb) / ma.abs()
    };
    let iqr = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        q3 - q1
    };
    if rel_spread(a).max(rel_spread(b)) > bound {
        if all_better {
            "better"
        } else if all_worse {
            "WORSE"
        } else {
            "unresolved"
        }
    } else if rel > bound {
        "WORSE"
    } else if rel < 0.0 && (mb - ma).abs() > iqr(a).max(iqr(b)) {
        "better"
    } else {
        "within bound"
    }
}

/// `v` to six significant digits.
fn sig(v: f64) -> String {
    if v == 0.0 || (1e-3..1e6).contains(&v.abs()) {
        let decimals = (5 - v.abs().log10().floor() as i32).clamp(0, 8) as usize;
        format!("{v:.decimals$}")
    } else {
        format!("{v:.5e}")
    }
}

pub fn run(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let decl = Declared::get();
    let mut workloads: Vec<&str> = Vec::new();
    for r in a.iter().chain(&b) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut regressed = false;
    for w in workloads {
        let ra: Vec<&Record> = a.iter().filter(|r| r.workload == w).collect();
        let rb: Vec<&Record> = b.iter().filter(|r| r.workload == w).collect();
        let failed_b: u64 = rb.iter().map(|r| r.failed).sum();
        regressed |= failed_b > 0;
        println!(
            "== {w}: A {} run(s), {} failed op(s); B {} run(s), {failed_b} failed op(s)",
            ra.len(),
            ra.iter().map(|r| r.failed).sum::<u64>(),
            rb.len(),
        );
        println!(
            "  {:<26} {:>36} {:>36} {:>9}  verdict",
            "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
        );
        for d in decl.end_to_end.iter().chain(&decl.per_layer) {
            let (pa, pb) = (values(&ra, &d.name), values(&rb, &d.name));
            if pa.is_empty() || pb.is_empty() {
                println!("  {:<26} (missing from A or B)", d.name);
                continue;
            }
            let va: Vec<f64> = pa.iter().map(|p| p.1).collect();
            let vb: Vec<f64> = pb.iter().map(|p| p.1).collect();
            let v = match d.bound {
                Some(bound) => verdict(d.higher_is_better, bound, &va, &vb),
                None if EXACT.contains(&d.name.as_str()) => exact_verdict(&pa, &pb),
                None => "-",
            };
            regressed |= v == "WORSE";
            let cell = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{} [{}, {}]", sig(median(v)), sig(q1), sig(q3))
            };
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma == 0.0 {
                0.0
            } else {
                (mb - ma) / ma.abs() * 100.0
            };
            println!(
                "  {:<26} {:>36} {:>36} {change:>+8.2}%  {v}",
                d.name,
                cell(&va),
                cell(&vb)
            );
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let lower = false;
        let v = |higher: bool, a: &[f64], b: &[f64]| verdict(higher, 0.08, a, b);
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            v(lower, &a, &[1.01, 1.00, 1.02, 0.99, 1.00]),
            "within bound"
        );
        assert_eq!(v(lower, &a, &[1.20, 1.21, 1.19, 1.20, 1.22]), "WORSE");
        assert_eq!(v(lower, &a, &[0.80, 0.81, 0.79, 0.80, 0.82]), "better");
        assert_eq!(v(lower, &a, &[0.5, 1.5, 1.0, 0.7, 1.3]), "unresolved");
        // Noisy, but every B run beats every A run.
        assert_eq!(v(lower, &[2.0, 3.0, 2.5], &[1.0, 1.5, 1.2]), "better");
        assert_eq!(v(true, &a, &[0.80, 0.81, 0.79, 0.80, 0.82]), "WORSE");
    }

    #[test]
    fn exact_metrics_compare_seed_by_seed() {
        // Seed-dependent but repeatable: identical at each shared seed.
        let a = [(1, 5.0), (2, 7.0), (1, 5.0)];
        assert_eq!(exact_verdict(&a, &[(2, 7.0), (1, 5.0)]), "identical");
        assert_eq!(exact_verdict(&a, &[(2, 8.0), (1, 5.0)]), "CHANGED");
        assert_eq!(exact_verdict(&[(1, 5.0), (1, 5.5)], &[(1, 5.0)]), "CHANGED");
        // No shared seed: only a constant can be confirmed.
        assert_eq!(exact_verdict(&[(1, 5.0)], &[(3, 5.0)]), "identical");
        assert_eq!(exact_verdict(&[(1, 5.0)], &[(3, 6.0)]), "no shared seed");
    }
}
