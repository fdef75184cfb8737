//! The value layer: one authoritative flat word memory plus per-core
//! speculative write buffers.
//!
//! The coherence protocol guarantees isolation (conflicting accesses abort
//! or are rejected before data is granted), so values can live in a single
//! flat store: speculative stores buffer per core and flush atomically at
//! commit (or at a successful STL switch, which makes them permanent);
//! non-speculative stores write through immediately. See the `coherence`
//! crate docs for why this is equivalent to in-cache versioning.
//!
//! **Setup memory.** [`SetupCtx`] stores only what setup writes. Words
//! below the first reserved heap arena sit in one dense `Vec` (all of
//! memory for a program that reserves none); words at or above it sit in
//! a map of 4 KiB pages, and a page no setup write reached is not stored.
//! [`SetupCtx::into_mem`] then allocates the [`FlatMem`] once, zeroed
//! (`vec![0; len]`, which the allocator serves as fresh zero pages), and
//! copies the dense prefix and the written pages in. An arena's untouched
//! pages therefore cost nothing on the host until the run touches them,
//! and a program without an arena gets its dense `Vec` back uncopied.

use sim_core::fxhash::{FxHashMap, FxHashSet};
use sim_core::types::Addr;

/// Word-addressable flat memory, built once by [`SetupCtx::into_mem`].
/// Guest accesses outside it are a workload bug and panic.
#[derive(Clone, Debug, Default)]
pub struct FlatMem {
    words: Vec<u64>,
}

impl FlatMem {
    pub fn len(&self) -> usize {
        self.words.len()
    }

    pub fn is_empty(&self) -> bool {
        self.words.len() <= 1
    }

    #[inline]
    pub fn read(&self, a: Addr) -> u64 {
        self.words[a.0 as usize]
    }

    #[inline]
    pub fn write(&mut self, a: Addr, v: u64) {
        self.words[a.0 as usize] = v;
    }

    /// FNV-style digest of all memory, used by serializability oracles in
    /// the test suite.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &w in &self.words {
            h ^= w;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

/// Per-core speculative write buffer.
#[derive(Clone, Debug, Default)]
pub struct WriteBuffer {
    pending: FxHashMap<Addr, u64>,
}

impl WriteBuffer {
    #[inline]
    pub fn write(&mut self, a: Addr, v: u64) {
        self.pending.insert(a, v);
    }

    /// Transactional read: own speculative value, else the flat memory.
    #[inline]
    pub fn read(&self, mem: &FlatMem, a: Addr) -> u64 {
        self.pending.get(&a).copied().unwrap_or_else(|| mem.read(a))
    }

    /// Commit: flush everything to flat memory atomically (the protocol
    /// has kept the written lines exclusive, so this is linearizable at
    /// the commit point).
    pub fn commit(&mut self, mem: &mut FlatMem) {
        for (a, v) in self.pending.drain() {
            mem.write(a, v);
        }
    }

    /// Abort: discard speculative values.
    pub fn discard(&mut self) {
        self.pending.clear();
    }

    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Visit pending writes in address order (deterministic — used for
    /// state fingerprinting).
    pub fn for_each_sorted(&self, mut f: impl FnMut(Addr, u64)) {
        let mut entries: Vec<(Addr, u64)> = self.pending.iter().map(|(a, v)| (*a, *v)).collect();
        entries.sort_by_key(|(a, _)| a.0);
        for (a, v) in entries {
            f(a, v);
        }
    }
}

/// Setup-phase view of memory: a bump allocator with direct (un-timed)
/// access, used to build workload data structures before the simulated
/// region of interest starts. Pages touched during setup count as mapped
/// (no demand-paging faults for them during the run). See the module
/// docs for how the words are stored.
pub struct SetupCtx {
    /// Words below the first reserved arena; every word while none is
    /// reserved. Frozen at the first [`SetupCtx::reserve_arena`].
    dense: Vec<u64>,
    /// Written pages at or above `dense`'s end, by page number.
    pages: FxHashMap<u64, Box<[u64; PAGE_WORDS as usize]>>,
    /// Words in the finished memory image: the break + 1 once allocated.
    len: usize,
    brk: u64,
    /// Page-aligned word ranges reserved for demand-paged heaps: their
    /// pages are NOT pre-mapped, so first touches fault during the run.
    unmapped: Vec<(u64, u64)>,
}

/// Words per demand-paging page (4 KiB / 8 bytes).
pub const PAGE_WORDS: u64 = 512;

impl SetupCtx {
    pub fn new() -> SetupCtx {
        SetupCtx {
            // Word 0 is the reserved null word.
            dense: vec![0],
            pages: FxHashMap::default(),
            len: 1,
            brk: 8,
            unmapped: Vec::new(),
        }
    }

    /// Extend the memory image to at least `words` words.
    fn extend_to(&mut self, words: usize) {
        if words > self.len {
            self.len = words;
            if self.unmapped.is_empty() {
                self.dense.resize(words, 0);
            }
        }
    }

    /// Allocate `words` words, cache-line aligned to avoid accidental
    /// false sharing between unrelated structures (workloads that *want*
    /// false sharing pack explicitly).
    pub fn alloc(&mut self, words: u64) -> Addr {
        let aligned = (self.brk + 7) & !7;
        self.brk = aligned + words;
        self.extend_to(self.brk as usize + 1);
        Addr(aligned)
    }

    /// Allocate and initialize from a slice.
    pub fn alloc_init(&mut self, data: &[u64]) -> Addr {
        let a = self.alloc(data.len() as u64);
        for (i, &v) in data.iter().enumerate() {
            self.write(a.add(i as u64), v);
        }
        a
    }

    /// Reserve a per-thread heap arena of `words` words and return its
    /// base; used by the transactional allocator in `tmlib`. Unlike
    /// [`SetupCtx::alloc`], the reserved pages are *not* pre-mapped:
    /// first touches during the run raise demand-paging faults, exactly
    /// like fresh heap pages under the original allocator.
    pub fn reserve_arena(&mut self, words: u64) -> Addr {
        // Page-align both ends so no mapped data shares these pages.
        let start = self.brk.next_multiple_of(PAGE_WORDS);
        let end = (start + words).next_multiple_of(PAGE_WORDS);
        if self.unmapped.is_empty() {
            // Freeze the dense prefix at the arena's base. When the base
            // is the old break, the prefix already holds that word and
            // keeps it.
            let dense = self.dense.len().max(start as usize);
            self.dense.resize(dense, 0);
        }
        self.unmapped.push((start, end));
        self.brk = end;
        self.extend_to(end as usize + 1);
        Addr(start)
    }

    #[inline]
    pub fn write(&mut self, a: Addr, v: u64) {
        match self.dense.get_mut(a.0 as usize) {
            Some(w) => *w = v,
            None => self.write_paged(a, v),
        }
    }

    #[inline]
    pub fn read(&self, a: Addr) -> u64 {
        match self.dense.get(a.0 as usize) {
            Some(&w) => w,
            None => self.read_paged(a),
        }
    }

    // The paged halves of `write` and `read` stay out of line, so the
    // dense path inlines into `Program::setup` as a plain indexed store.
    #[inline(never)]
    fn write_paged(&mut self, a: Addr, v: u64) {
        let (page, i) = self.page_of(a);
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0; PAGE_WORDS as usize]))[i] = v;
    }

    #[inline(never)]
    fn read_paged(&self, a: Addr) -> u64 {
        let (page, i) = self.page_of(a);
        self.pages.get(&page).map_or(0, |p| p[i])
    }

    /// Page number and in-page offset of `a`, a word past the dense
    /// prefix; panics beyond the memory image, as a `FlatMem` access does.
    fn page_of(&self, a: Addr) -> (u64, usize) {
        assert!(
            (a.0 as usize) < self.len,
            "setup access to word {} beyond the memory image ({} words)",
            a.0,
            self.len
        );
        (a.0 / PAGE_WORDS, (a.0 % PAGE_WORDS) as usize)
    }

    /// Highest allocated word + 1 (every page below is pre-mapped).
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// Finish setup: returns the memory image and the set of pre-mapped
    /// pages (everything below the break except reserved arenas).
    pub fn into_mem(self) -> (FlatMem, FxHashSet<u64>) {
        let last_page = self.brk / PAGE_WORDS;
        let mut mapped = FxHashSet::default();
        'page: for p in 0..=last_page {
            let lo = p * PAGE_WORDS;
            for &(s, e) in &self.unmapped {
                if lo >= s && lo < e {
                    continue 'page;
                }
            }
            mapped.insert(p);
        }
        let split = self.dense.len();
        if split == self.len {
            return (FlatMem { words: self.dense }, mapped);
        }
        let mut words = vec![0u64; self.len];
        words[..split].copy_from_slice(&self.dense);
        for (p, page) in self.pages {
            let lo = (p * PAGE_WORDS) as usize;
            let (from, to) = (lo.max(split), (lo + PAGE_WORDS as usize).min(self.len));
            words[from..to].copy_from_slice(&page[from - lo..to - lo]);
        }
        (FlatMem { words }, mapped)
    }
}

impl Default for SetupCtx {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::SimRng;

    fn zeroed(words: usize) -> FlatMem {
        FlatMem {
            words: vec![0; words],
        }
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = zeroed(100);
        m.write(Addr(42), 7);
        assert_eq!(m.read(Addr(42)), 7);
        assert_eq!(m.read(Addr(43)), 0);
    }

    #[test]
    fn write_buffer_shadows_flat() {
        let mut m = zeroed(100);
        m.write(Addr(1), 10);
        let mut wb = WriteBuffer::default();
        assert_eq!(wb.read(&m, Addr(1)), 10);
        wb.write(Addr(1), 20);
        assert_eq!(wb.read(&m, Addr(1)), 20);
        assert_eq!(m.read(Addr(1)), 10, "flat unchanged before commit");
        wb.commit(&mut m);
        assert_eq!(m.read(Addr(1)), 20);
        assert!(wb.is_empty());
    }

    #[test]
    fn discard_leaves_flat_untouched() {
        let mut m = zeroed(10);
        let mut wb = WriteBuffer::default();
        wb.write(Addr(3), 99);
        wb.discard();
        wb.commit(&mut m);
        assert_eq!(m.read(Addr(3)), 0);
    }

    #[test]
    fn setup_alloc_is_line_aligned() {
        let mut s = SetupCtx::new();
        let a = s.alloc(3);
        let b = s.alloc(3);
        assert_eq!(a.0 % 8, 0);
        assert_eq!(b.0 % 8, 0);
        assert!(b.0 >= a.0 + 3);
        assert_ne!(a.line(), b.line(), "separate allocations share a line");
    }

    #[test]
    fn alloc_init_copies() {
        let mut s = SetupCtx::new();
        let a = s.alloc_init(&[5, 6, 7]);
        assert_eq!(s.read(a), 5);
        assert_eq!(s.read(a.add(2)), 7);
    }

    #[test]
    fn digest_changes_with_content() {
        let mut m = zeroed(50);
        let d0 = m.digest();
        m.write(Addr(9), 1);
        assert_ne!(m.digest(), d0);
    }

    #[test]
    fn null_word_reserved() {
        let s = SetupCtx::new();
        assert!(s.brk() >= 8, "allocations must not hand out the null line");
    }

    /// Reference model: setup memory as one dense, zero-filled `Vec`
    /// that grows with the break, arenas included.
    struct Model {
        words: Vec<u64>,
        brk: u64,
        unmapped: Vec<(u64, u64)>,
    }

    impl Model {
        fn extend_to(&mut self, words: u64) {
            if words as usize > self.words.len() {
                self.words.resize(words as usize, 0);
            }
        }

        fn alloc(&mut self, words: u64) -> Addr {
            let aligned = (self.brk + 7) & !7;
            self.brk = aligned + words;
            self.extend_to(self.brk + 1);
            Addr(aligned)
        }

        fn reserve_arena(&mut self, words: u64) -> Addr {
            let start = self.brk.next_multiple_of(PAGE_WORDS);
            let end = (start + words).next_multiple_of(PAGE_WORDS);
            self.brk = end;
            self.extend_to(end + 1);
            self.unmapped.push((start, end));
            Addr(start)
        }

        fn mapped(&self) -> FxHashSet<u64> {
            (0..=self.brk / PAGE_WORDS)
                .filter(|p| {
                    let lo = p * PAGE_WORDS;
                    !self.unmapped.iter().any(|&(s, e)| lo >= s && lo < e)
                })
                .collect()
        }
    }

    /// Differential test against the dense model over random sequences
    /// of `alloc`, `alloc_init`, `reserve_arena`, `write` and `read`,
    /// with accesses biased to arena edges and the top of the image.
    /// Some sequences reserve no arena; some write the word at the break
    /// just before reserving one that starts there.
    #[test]
    fn setup_memory_matches_dense_model() {
        let mut rng = SimRng::new(0x5E70_F1A7);
        let (mut arenas, mut paged_reads) = (0, 0);
        for seq in 0..64 {
            let mut s = SetupCtx::new();
            let mut m = Model {
                words: vec![0],
                brk: 8,
                unmapped: Vec::new(),
            };
            let mut bases: Vec<u64> = Vec::new();
            let with_arenas = seq % 4 != 0;
            for _ in 0..400 {
                match rng.below(16) {
                    0 | 1 => {
                        let words = if rng.below(4) == 0 {
                            // Up to a page boundary: an arena reserved
                            // next starts at the break.
                            let aligned = (m.brk + 7) & !7;
                            aligned.next_multiple_of(PAGE_WORDS) - aligned
                        } else {
                            rng.below(700)
                        };
                        assert_eq!(s.alloc(words), m.alloc(words));
                    }
                    2 => {
                        let data: Vec<u64> = (0..rng.below(40)).map(|_| rng.next_u64()).collect();
                        let a = s.alloc_init(&data);
                        assert_eq!(a, m.alloc(data.len() as u64));
                        for (i, &v) in data.iter().enumerate() {
                            m.words[a.0 as usize + i] = v;
                        }
                    }
                    3 if with_arenas => {
                        if rng.below(2) == 0 && (m.brk as usize) < m.words.len() {
                            // The word at the break, just before the arena.
                            let v = rng.next_u64();
                            s.write(Addr(s.brk()), v);
                            m.words[m.brk as usize] = v;
                        }
                        let words = match rng.below(3) {
                            0 => 0,
                            1 => rng.range(1, 2 * PAGE_WORDS),
                            _ => rng.range(PAGE_WORDS, 12 * PAGE_WORDS),
                        };
                        let a = s.reserve_arena(words);
                        assert_eq!(a, m.reserve_arena(words));
                        bases.push(a.0);
                        arenas += 1;
                    }
                    _ => {
                        let len = m.words.len() as u64;
                        let a = match rng.below(4) {
                            0 if !bases.is_empty() => {
                                let base = bases[rng.below(bases.len() as u64) as usize];
                                (base + rng.below(3 * PAGE_WORDS)).saturating_sub(PAGE_WORDS)
                            }
                            1 => len - 1 - rng.below(len.min(PAGE_WORDS)),
                            _ => rng.below(len),
                        };
                        let a = Addr(a.min(len - 1));
                        assert_eq!(s.read(a), m.words[a.0 as usize], "read {a:?}");
                        paged_reads += usize::from(a.0 as usize >= s.dense.len());
                        if rng.below(2) == 0 {
                            let v = rng.next_u64();
                            s.write(a, v);
                            m.words[a.0 as usize] = v;
                        }
                    }
                }
                assert_eq!(s.brk(), m.brk);
                assert_eq!(s.len, m.words.len());
            }
            let mapped = m.mapped();
            let (mem, got_mapped) = s.into_mem();
            assert_eq!(mem.words, m.words, "sequence {seq}");
            assert_eq!(got_mapped, mapped, "sequence {seq}");
        }
        assert!(arenas > 100, "only {arenas} arenas reserved");
        assert!(
            paged_reads > 1000,
            "only {paged_reads} reads past the dense prefix"
        );
    }

    #[test]
    #[should_panic(expected = "beyond the memory image")]
    fn setup_write_beyond_the_break_panics() {
        let mut s = SetupCtx::new();
        let a = s.alloc(8);
        s.write(Addr(s.brk() + 1), 1);
        let _ = a;
    }

    #[test]
    #[should_panic(expected = "beyond the memory image")]
    fn setup_read_beyond_an_arena_panics() {
        let mut s = SetupCtx::new();
        let arena = s.reserve_arena(4 * PAGE_WORDS);
        s.read(arena.add(4 * PAGE_WORDS + 1));
    }

    /// A 2^24-word (128 MiB) arena costs setup nothing: the store holds
    /// the dense prefix below it and the three pages written at or
    /// above it, and the image reads back every written word.
    #[test]
    fn a_reserved_arena_stores_only_written_pages() {
        let mut s = SetupCtx::new();
        let below = s.alloc(100);
        let arena = s.reserve_arena(1 << 24);
        let above = s.alloc(100);
        let writes = [
            (below.add(99), 1),
            (arena.add(5), 2),
            (arena.add((1 << 24) - 1), 3),
            (above.add(99), 4),
        ];
        for (a, v) in writes {
            s.write(a, v);
        }
        assert_eq!(s.dense.len(), arena.0 as usize);
        assert_eq!(s.pages.len(), 3);
        let stored = s.dense.len() + s.pages.len() * PAGE_WORDS as usize;
        assert!(stored <= 4 * PAGE_WORDS as usize, "{stored} words stored");
        let (mem, mapped) = s.into_mem();
        assert_eq!(mem.len(), above.0 as usize + 101);
        for (a, v) in writes {
            assert_eq!(mem.read(a), v);
        }
        assert_eq!(mem.read(arena.add(6)), 0);
        assert!(mapped.contains(&(below.0 / PAGE_WORDS)));
        assert!(!mapped.contains(&(arena.0 / PAGE_WORDS)));
        assert!(mapped.contains(&(above.0 / PAGE_WORDS)));
    }

    #[test]
    fn a_program_without_an_arena_gets_its_dense_words_uncopied() {
        let mut s = SetupCtx::new();
        let a = s.alloc_init(&[1, 2, 3]);
        s.alloc(5000);
        let ptr = s.dense.as_ptr();
        let (mem, _) = s.into_mem();
        assert_eq!(mem.words.as_ptr(), ptr, "into_mem copied the dense words");
        assert_eq!(mem.read(a.add(2)), 3);
    }
}
