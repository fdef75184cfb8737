//! Deterministic pseudo-random number generation for workload input
//! synthesis and randomized decisions inside guest programs.
//!
//! The simulator itself is fully deterministic and never consults an RNG;
//! workloads use [`SimRng`] (xoshiro256**) seeded per run so that every
//! evaluated system sees the *same* input and the same guest-level random
//! choices — a prerequisite for the paper's system-vs-system comparisons.

/// xoshiro256** generator. Small, fast, and high quality; state is seeded
/// via SplitMix64 so that similar seeds diverge immediately.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next 64 uniform random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    /// Uses Lemire's multiply-shift rejection method for lack of bias.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let l = m as u64;
            if l >= bound || l >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Derive an independent stream (e.g., one per thread) from this one.
    pub fn fork(&mut self, tag: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Parse a run seed as every CLI takes it: decimal, or hexadecimal with
/// a `0x` prefix (`16` and `0x10` are the same seed). `None` on anything
/// else, including bare hex digits such as `c0ffee`.
pub fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_as_decimal_or_prefixed_hex() {
        assert_eq!(parse_seed("16"), Some(16));
        assert_eq!(parse_seed("0x10"), Some(16));
        assert_eq!(parse_seed("0xc0ffee"), Some(0xC0FFEE));
        for bad in ["c0ffee", "0x", "", "-1", "0xg", "1.5", "+0x10"] {
            assert_eq!(parse_seed(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range() {
        let mut r = SimRng::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_covers_small_range() {
        let mut r = SimRng::new(9);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.below(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_f64_bounds() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(5);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input untouched"
        );
    }

    #[test]
    fn forked_streams_independent() {
        let mut base = SimRng::new(11);
        let mut f1 = base.fork(0);
        let mut f2 = base.fork(1);
        let same = (0..64).filter(|_| f1.next_u64() == f2.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn rough_uniformity() {
        let mut r = SimRng::new(13);
        let mut buckets = [0u32; 16];
        let n = 16_000;
        for _ in 0..n {
            buckets[r.below(16) as usize] += 1;
        }
        let expect = n / 16;
        for &b in &buckets {
            assert!((b as i64 - expect as i64).unsigned_abs() < expect as u64 / 4);
        }
    }
}
