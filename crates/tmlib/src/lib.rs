//! Transactional data structures over simulated memory — the STAMP
//! workloads' building blocks (`lib/` in the original suite).
//!
//! Every structure lives entirely in the simulated address space and is
//! manipulated through [`lockiller::TxCtx`] operations that return
//! `Result<_, Abort>`: a conflict unwinds the whole critical section via
//! `?` and the runtime retries it, exactly as the STAMP macros
//! (`TM_READ`/`TM_WRITE`) behave on real best-effort HTM.
//!
//! Layout convention: a "struct" is a run of consecutive words; field
//! accessors are `base.add(OFFSET)`. Allocation goes through [`TmAlloc`],
//! whose bump pointers also live in simulated memory so that aborted
//! transactions automatically roll their allocations back — and whose
//! page-crossing touches raise the demand-paging faults that make
//! allocation-heavy STAMP workloads (yada, labyrinth) abort on
//! best-effort HTM.

pub mod alloc;
pub mod bitmap;
pub mod hashtable;
pub mod heap;
pub mod list;
pub mod queue;
pub mod tmap;

pub use alloc::TmAlloc;
pub use bitmap::Bitmap;
pub use hashtable::HashTable;
pub use heap::Heap;
pub use list::List;
pub use queue::Queue;
pub use tmap::TMap;

use lockiller::guest::{Abort, TxCtx};
use sim_core::types::Addr;

/// Read a struct field at word offset `off`.
#[inline]
pub async fn get(tx: &mut TxCtx<'_>, base: Addr, off: u64) -> Result<u64, Abort> {
    tx.load(base.add(off)).await
}

/// Write a struct field at word offset `off`.
#[inline]
pub async fn set(tx: &mut TxCtx<'_>, base: Addr, off: u64, v: u64) -> Result<(), Abort> {
    tx.store(base.add(off), v).await
}

#[cfg(test)]
pub(crate) mod testutil {
    //! A microscopic single-threaded harness: runs a closure as one
    //! transaction on a 1-core simulated system so data-structure tests
    //! exercise the real TxCtx path.

    use lockiller::flatmem::{FlatMem, SetupCtx};
    use lockiller::guest::{Abort, GuestCtx, TxCtx};
    use lockiller::program::{GuestFuture, Program};
    use lockiller::runner::Runner;
    use lockiller::system::SystemKind;
    use sim_core::config::SystemConfig;

    pub struct OneShot<S, F> {
        pub setup_fn: S,
        pub body: F,
    }

    impl<S, F> Program for OneShot<S, F>
    where
        S: FnMut(&mut SetupCtx),
        F: AsyncFn(&mut TxCtx<'_>) -> Result<(), Abort>,
    {
        fn name(&self) -> &str {
            "oneshot"
        }

        fn setup(&mut self, s: &mut SetupCtx, _threads: usize) {
            (self.setup_fn)(s);
        }

        fn run<'a>(&'a self, ctx: &'a mut GuestCtx) -> GuestFuture<'a> {
            Box::pin(async move { ctx.critical(async |tx| (self.body)(tx).await).await })
        }
    }

    /// Run `setup` then `body` (as a single transaction on one core) and
    /// return the final memory image.
    pub fn run_tx(
        setup: impl FnMut(&mut SetupCtx),
        body: impl AsyncFn(&mut TxCtx<'_>) -> Result<(), Abort>,
    ) -> FlatMem {
        let mut prog = OneShot {
            setup_fn: setup,
            body,
        };
        Runner::new(SystemKind::LockillerTm)
            .threads(1)
            .config(SystemConfig::testing(2))
            .run(&mut prog)
            .mem
    }
}
