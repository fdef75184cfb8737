//! MESI directory coherence protocol with the LockillerTM HTM extensions.
//!
//! This crate models the memory subsystem of the paper's 32-core tiled CMP:
//!
//! - private L1 caches with per-line transactional read/write bits,
//! - a shared, banked, inclusive LLC whose banks hold full-map directory
//!   state and are the per-line serialization points (blocking directory),
//! - the **recovery mechanism**: conflict victims with higher priority
//!   answer probes with a NACK-style [`msg::L1Rsp::Reject`], the directory
//!   rolls its transient state back and relays the reject to the requester,
//!   and the rejecting core's wake-up table wakes parked requesters on
//!   commit/abort (§III-A of the paper),
//! - the **HTMLock overflow signatures**: two Bloom signatures at the LLC
//!   (`OfRdSig`/`OfWrSig`) record lock-transaction lines evicted from the
//!   L1; every HTM request is checked against them (§III-B),
//! - the **HLA arbiter**: the LLC-side serialization point that grants at
//!   most one TL/STL lock transaction at a time (§III-C).
//!
//! ## Value/timing decoupling
//!
//! Data values are *not* stored in the modelled caches. The simulation
//! engine keeps one authoritative flat memory plus per-core speculative
//! write buffers; the protocol here decides *permissions, conflicts, and
//! timing*. Because eager conflict detection guarantees isolation (a
//! conflicting access either aborts the victim or is rejected before data
//! is granted), committing a write buffer at `xend` time is equivalent to
//! the in-cache versioning the hardware performs. This is the standard
//! trick for architectural simulators whose fidelity target is protocol
//! behaviour rather than bit-level data movement.

pub mod arbiter;
pub mod bank;
pub mod bloom;
pub mod l1;
pub mod memsys;
pub mod msg;

pub use arbiter::HlaArbiter;
pub use bloom::Signature;
pub use memsys::{AccessKind, AccessResult, CoreNotice, MemSystem, OverflowKind};
pub use msg::{arbitrate, NetMsg, Prio, ReqInfo, ReqKind, ReqMode, TxMode, Winner, PRIO_LOCK};

use std::hash::{Hash, Hasher};

/// Hash a set-associative array's occupied ways as `(set, way, entry)`,
/// then an end marker, so arrays with different occupancy hash apart
/// without hashing the empty ways (shared by the L1 and LLC-bank state
/// fingerprints).
fn fingerprint_ways<T: Hash>(sets: &[Vec<Option<T>>], h: &mut impl Hasher) {
    for (set, ways) in sets.iter().enumerate() {
        for (way, slot) in ways.iter().enumerate() {
            if let Some(entry) = slot {
                (set, way, entry).hash(h);
            }
        }
    }
    usize::MAX.hash(h);
}
