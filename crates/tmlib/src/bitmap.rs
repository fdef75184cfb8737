//! Transactional bitmap (STAMP `lib/bitmap.c`): genome's segment-usage
//! tracking and ssca2's visited sets.
//!
//! Layout: `[nbits, word0, word1, ...]`. Bit `i` lives in word `i / 64`,
//! so nearby bits share cache lines — the source of genuine (and false)
//! sharing the original exhibits.

use lockiller::flatmem::SetupCtx;
use lockiller::guest::{Abort, TxCtx};
use sim_core::types::Addr;

const NBITS: u64 = 0;
const WORDS: u64 = 1;

/// Handle to a transactional bitmap.
#[derive(Clone, Copy, Debug)]
pub struct Bitmap {
    base: Addr,
}

impl Bitmap {
    pub fn setup(s: &mut SetupCtx, nbits: u64) -> Bitmap {
        let words = nbits.div_ceil(64);
        let base = s.alloc(WORDS + words);
        s.write(base.add(NBITS), nbits);
        for w in 0..words {
            s.write(base.add(WORDS + w), 0);
        }
        Bitmap { base }
    }

    pub async fn nbits(&self, tx: &mut TxCtx<'_>) -> Result<u64, Abort> {
        tx.load(self.base.add(NBITS)).await
    }

    /// Set bit `i`; returns the previous value.
    pub async fn test_and_set(&self, tx: &mut TxCtx<'_>, i: u64) -> Result<bool, Abort> {
        let cell = self.base.add(WORDS + i / 64);
        let w = tx.load(cell).await?;
        let mask = 1u64 << (i % 64);
        if w & mask != 0 {
            return Ok(true);
        }
        tx.store(cell, w | mask).await?;
        Ok(false)
    }

    pub async fn set(&self, tx: &mut TxCtx<'_>, i: u64) -> Result<(), Abort> {
        self.test_and_set(tx, i).await.map(|_| ())
    }

    pub async fn clear(&self, tx: &mut TxCtx<'_>, i: u64) -> Result<(), Abort> {
        let cell = self.base.add(WORDS + i / 64);
        let w = tx.load(cell).await?;
        tx.store(cell, w & !(1u64 << (i % 64))).await?;
        Ok(())
    }

    pub async fn test(&self, tx: &mut TxCtx<'_>, i: u64) -> Result<bool, Abort> {
        let w = tx.load(self.base.add(WORDS + i / 64)).await?;
        Ok(w & (1u64 << (i % 64)) != 0)
    }

    /// Untimed popcount for validation.
    pub fn count(&self, mem: &lockiller::flatmem::FlatMem) -> u64 {
        let nbits = mem.read(self.base.add(NBITS));
        let words = nbits.div_ceil(64);
        (0..words)
            .map(|w| mem.read(self.base.add(WORDS + w)).count_ones() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_tx;
    use std::sync::Mutex;

    #[test]
    fn set_test_clear() {
        let h: Mutex<Option<Bitmap>> = Mutex::new(None);
        run_tx(
            |s| {
                *h.lock().unwrap() = Some(Bitmap::setup(s, 200));
            },
            async |tx| {
                let b = h.lock().unwrap().unwrap();
                assert_eq!(b.nbits(tx).await?, 200);
                assert!(!b.test(tx, 5).await?);
                assert!(!b.test_and_set(tx, 5).await?);
                assert!(b.test_and_set(tx, 5).await?);
                assert!(b.test(tx, 5).await?);
                // Bits in a different word.
                assert!(!b.test(tx, 150).await?);
                b.set(tx, 150).await?;
                assert!(b.test(tx, 150).await?);
                b.clear(tx, 5).await?;
                assert!(!b.test(tx, 5).await?);
                assert!(b.test(tx, 150).await?);
                Ok(())
            },
        );
    }

    #[test]
    fn count_after_run() {
        let h: Mutex<Option<Bitmap>> = Mutex::new(None);
        let mem = run_tx(
            |s| {
                *h.lock().unwrap() = Some(Bitmap::setup(s, 128));
            },
            async |tx| {
                let b = h.lock().unwrap().unwrap();
                for i in [0u64, 63, 64, 127] {
                    b.set(tx, i).await?;
                }
                Ok(())
            },
        );
        assert_eq!(h.into_inner().unwrap().unwrap().count(&mem), 4);
    }
}
