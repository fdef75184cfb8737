//! Order statistics over repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` with
//! its default "exclusive" method, so the spreads printed here match
//! the ones computed over a set of runs by that function.

/// Median of `v` (mean of the middle two for even `n`); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, `statistics.quantiles(v, n=4)` exclusive
/// method, in its exact integer form: quartile `i` sits at 1-based rank
/// `i·(n+1)/4`, interpolated between the two neighbours of the clamped
/// rank `j ∈ [1, n-1]` (so small samples extrapolate, as Python does).
/// One sample gives `(v, v)`; none gives `(0, 0)`.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 when the median is).
pub fn rel_spread(v: &[f64]) -> f64 {
    let m = median(v);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(v);
    (q3 - q1) / m.abs()
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let odd: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&odd), (2.5, 7.5));
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let even: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&even), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((rel_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(rel_spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(rel_spread(&[0.0, 0.0]), 0.0);
    }
}
