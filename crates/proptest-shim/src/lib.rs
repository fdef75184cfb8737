//! A small, dependency-free stand-in for the [`proptest`] crate.
//!
//! The build container has no network access to crates.io, so the
//! workspace's property suites link against this shim instead (the
//! `proptest` dependency of every crate is a renamed path dependency on
//! this package). It implements exactly the API subset the suites use:
//!
//! - the [`proptest!`] macro (with `#![proptest_config(..)]`),
//! - [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`] /
//!   [`prop_assume!`],
//! - [`prop_oneof!`],
//! - [`Strategy`] with `prop_map` and `boxed`,
//! - integer-range, tuple, `any::<T>()`, and `collection::vec` strategies.
//!
//! Generation is a deterministic splitmix64 stream seeded from the test
//! name (override with `PROPTEST_SEED`), so failures reproduce exactly.
//! There is **no shrinking**: a failing case is reported as generated.
//!
//! [`proptest`]: https://docs.rs/proptest

pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! Everything a property-test file needs, mirroring
    //! `proptest::prelude`.
    pub use crate as prop;
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Deterministic splitmix64 generator used by every strategy.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift bounded sampling; bias is irrelevant for tests.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// FNV-1a over a test's name, the default per-test seed.
#[must_use]
pub fn seed_from_name(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    #[allow(clippy::disallowed_methods)] // proptest's documented seed override
    std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(h)
}
