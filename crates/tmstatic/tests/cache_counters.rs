//! The kernel-analysis cache's hit/miss counters are process-wide, so
//! this test lives alone in its own test binary: no other test calls
//! `analyze_cached` concurrently, and the counter deltas are exact.

use guestvm::{Kernel, KernelBuilder};
use std::sync::Arc;
use tmstatic::vmabs::{analyze_cached, cache_counters};

#[test]
fn cache_analyzes_each_kernel_content_once() {
    let mut b = KernelBuilder::new("cache-a", 2);
    b.imm(0, 8096).load(1, 0, 0).halt();
    let k1 = b.build();
    // Same bytecode, different name: one analysis.
    let k2 = Kernel {
        name: "cache-b".into(),
        ..k1.clone()
    };
    let (h0, m0) = cache_counters();
    let a1 = analyze_cached(&k1, 0, 1);
    let a2 = analyze_cached(&k2, 0, 1);
    let (h1, m1) = cache_counters();
    assert!(
        Arc::ptr_eq(&a1, &a2),
        "content-equal kernels share one analysis"
    );
    assert_eq!(m1 - m0, 1, "exactly one miss");
    assert_eq!(h1 - h0, 1, "exactly one hit");
    // Different (tid, threads) is a different analysis key.
    let a3 = analyze_cached(&k1, 1, 2);
    assert!(!Arc::ptr_eq(&a1, &a3));
}
