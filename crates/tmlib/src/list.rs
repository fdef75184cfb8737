//! Sorted singly-linked list (STAMP `lib/list.c`): the workhorse of
//! genome's segment handling and the hashtable's buckets.
//!
//! Node layout: `[key, data, next]`. The list header is a single word
//! holding the first-node pointer (null = empty). Keys are unique;
//! inserting an existing key returns `false`.

use crate::alloc::TmAlloc;
use lockiller::flatmem::SetupCtx;
use lockiller::guest::{Abort, TxCtx};
use sim_core::types::Addr;

const KEY: u64 = 0;
const DATA: u64 = 1;
const NEXT: u64 = 2;
const NODE_WORDS: u64 = 3;

/// Handle to a transactional sorted list.
#[derive(Clone, Copy, Debug)]
pub struct List {
    head: Addr,
}

impl List {
    /// Allocate an empty list during setup.
    pub fn setup(s: &mut SetupCtx) -> List {
        let head = s.alloc(8);
        s.write(head, 0);
        List { head }
    }

    /// Create an empty list inside a transaction (nodes and header from
    /// the transactional allocator).
    pub async fn create(tx: &mut TxCtx<'_>, alloc: &TmAlloc) -> Result<List, Abort> {
        let head = alloc.alloc(tx, 1).await?;
        tx.store(head, 0).await?;
        Ok(List { head })
    }

    /// Construct a handle from a raw header address (e.g., a hashtable
    /// bucket slot).
    pub fn at(head: Addr) -> List {
        List { head }
    }

    /// The header cell address (for untimed validation walks).
    pub fn head_addr(&self) -> Addr {
        self.head
    }

    /// Insert `key` with `data`; returns false if the key already exists.
    pub async fn insert(
        &self,
        tx: &mut TxCtx<'_>,
        alloc: &TmAlloc,
        key: u64,
        data: u64,
    ) -> Result<bool, Abort> {
        let (prev, cur) = self.locate(tx, key).await?;
        if let Some(cur) = cur {
            if tx.load(cur.add(KEY)).await? == key {
                return Ok(false);
            }
        }
        let node = alloc.alloc(tx, NODE_WORDS).await?;
        tx.store(node.add(KEY), key).await?;
        tx.store(node.add(DATA), data).await?;
        tx.store(node.add(NEXT), cur.map_or(0, |c| c.0)).await?;
        match prev {
            None => tx.store(self.head, node.0).await?,
            Some(p) => tx.store(p.add(NEXT), node.0).await?,
        }
        Ok(true)
    }

    /// Remove `key`; returns its data if present. The node is abandoned
    /// (STAMP's allocator frees lazily; ours leaks within the arena).
    pub async fn remove(&self, tx: &mut TxCtx<'_>, key: u64) -> Result<Option<u64>, Abort> {
        let (prev, cur) = self.locate(tx, key).await?;
        let Some(cur) = cur else { return Ok(None) };
        if tx.load(cur.add(KEY)).await? != key {
            return Ok(None);
        }
        let next = tx.load(cur.add(NEXT)).await?;
        match prev {
            None => tx.store(self.head, next).await?,
            Some(p) => tx.store(p.add(NEXT), next).await?,
        }
        Ok(Some(tx.load(cur.add(DATA)).await?))
    }

    /// Look up `key`.
    pub async fn find(&self, tx: &mut TxCtx<'_>, key: u64) -> Result<Option<u64>, Abort> {
        let (_, cur) = self.locate(tx, key).await?;
        if let Some(cur) = cur {
            if tx.load(cur.add(KEY)).await? == key {
                return Ok(Some(tx.load(cur.add(DATA)).await?));
            }
        }
        Ok(None)
    }

    /// Update the data of an existing key; returns false if absent.
    pub async fn update(&self, tx: &mut TxCtx<'_>, key: u64, data: u64) -> Result<bool, Abort> {
        let (_, cur) = self.locate(tx, key).await?;
        if let Some(cur) = cur {
            if tx.load(cur.add(KEY)).await? == key {
                tx.store(cur.add(DATA), data).await?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Number of nodes (walks the list; O(n) reads join the read set).
    pub async fn len(&self, tx: &mut TxCtx<'_>) -> Result<u64, Abort> {
        let mut n = 0;
        let mut cur = tx.load(self.head).await?;
        while cur != 0 {
            n += 1;
            cur = tx.load(Addr(cur).add(NEXT)).await?;
        }
        Ok(n)
    }

    pub async fn is_empty(&self, tx: &mut TxCtx<'_>) -> Result<bool, Abort> {
        Ok(tx.load(self.head).await? == 0)
    }

    /// Collect `(key, data)` pairs in order.
    pub async fn to_vec(&self, tx: &mut TxCtx<'_>) -> Result<Vec<(u64, u64)>, Abort> {
        let mut out = Vec::new();
        let mut cur = tx.load(self.head).await?;
        while cur != 0 {
            let c = Addr(cur);
            out.push((tx.load(c.add(KEY)).await?, tx.load(c.add(DATA)).await?));
            cur = tx.load(c.add(NEXT)).await?;
        }
        Ok(out)
    }

    /// Find the first node with key >= `key` plus its predecessor.
    async fn locate(
        &self,
        tx: &mut TxCtx<'_>,
        key: u64,
    ) -> Result<(Option<Addr>, Option<Addr>), Abort> {
        let mut prev: Option<Addr> = None;
        let mut cur = tx.load(self.head).await?;
        while cur != 0 {
            let c = Addr(cur);
            let k = tx.load(c.add(KEY)).await?;
            if k >= key {
                return Ok((prev, Some(c)));
            }
            prev = Some(c);
            cur = tx.load(c.add(NEXT)).await?;
        }
        Ok((prev, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_tx;
    use std::sync::Mutex;

    fn with_list(body: impl AsyncFn(&mut TxCtx<'_>, &List, &TmAlloc) -> Result<(), Abort>) {
        let handles: Mutex<Option<(List, TmAlloc)>> = Mutex::new(None);
        run_tx(
            |s| {
                let alloc = TmAlloc::setup(s, 1, 65536);
                let list = List::setup(s);
                *handles.lock().unwrap() = Some((list, alloc));
            },
            async |tx| {
                let (list, alloc) = handles.lock().unwrap().unwrap();
                body(tx, &list, &alloc).await
            },
        );
    }

    #[test]
    fn insert_find_remove() {
        with_list(async |tx, list, alloc| {
            assert!(list.is_empty(tx).await?);
            assert!(list.insert(tx, alloc, 5, 50).await?);
            assert!(list.insert(tx, alloc, 3, 30).await?);
            assert!(list.insert(tx, alloc, 9, 90).await?);
            assert!(
                !list.insert(tx, alloc, 5, 55).await?,
                "duplicate insert must fail"
            );
            assert_eq!(list.find(tx, 3).await?, Some(30));
            assert_eq!(list.find(tx, 5).await?, Some(50));
            assert_eq!(list.find(tx, 4).await?, None);
            assert_eq!(list.len(tx).await?, 3);
            assert_eq!(list.remove(tx, 3).await?, Some(30));
            assert_eq!(list.remove(tx, 3).await?, None);
            assert_eq!(list.len(tx).await?, 2);
            Ok(())
        });
    }

    #[test]
    fn stays_sorted() {
        with_list(async |tx, list, alloc| {
            for k in [7u64, 1, 9, 4, 2, 8] {
                list.insert(tx, alloc, k, k * 10).await?;
            }
            let v = list.to_vec(tx).await?;
            let keys: Vec<u64> = v.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, vec![1, 2, 4, 7, 8, 9]);
            Ok(())
        });
    }

    #[test]
    fn update_existing() {
        with_list(async |tx, list, alloc| {
            list.insert(tx, alloc, 1, 10).await?;
            assert!(list.update(tx, 1, 99).await?);
            assert!(!list.update(tx, 2, 0).await?);
            assert_eq!(list.find(tx, 1).await?, Some(99));
            Ok(())
        });
    }

    #[test]
    fn remove_head_and_tail() {
        with_list(async |tx, list, alloc| {
            for k in [1u64, 2, 3] {
                list.insert(tx, alloc, k, k).await?;
            }
            assert_eq!(list.remove(tx, 1).await?, Some(1));
            assert_eq!(list.remove(tx, 3).await?, Some(3));
            assert_eq!(list.to_vec(tx).await?, vec![(2, 2)]);
            Ok(())
        });
    }
}
