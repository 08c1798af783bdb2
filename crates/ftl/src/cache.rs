//! Byte-budgeted LRU cache for flash-resident index pages.
//!
//! The paper's Fig. 5 experiment caps the FTL's DRAM cache at 10 MB and
//! measures the cache miss ratio of each index scheme. This cache is that
//! DRAM: entries are whole index pages keyed by a *logical* id (tables move
//! on flash when rewritten, so physical addresses make poor keys), the
//! budget is in bytes, and hit/miss counters are first-class.
//!
//! Write-back: dirty pages are only persisted when evicted (the caller gets
//! the evicted entry back and is responsible for programming it) or when
//! explicitly flushed — matching RHIK's "periodically updated persistent
//! copy" of metadata. A victim whose write-back the flash refuses goes
//! back in ([`IndexPageCache::restore`]) rather than being lost.
//!
//! Pages are [`PageData`]: one buffer, or an ordered list of segments (a
//! record-layer table on a page larger than one segment). Fills,
//! write-backs and checkpoints pass a page on by refcount, and pages are
//! patched in place, copy-on-write: [`IndexPageCache::page_mut`] hands out
//! the resident page, whose writer copies a segment only while another
//! handle shares it (the flash array keeps the segments it was filled from
//! or written back with), and [`IndexPageCache::commit_patch`] accounts the
//! write exactly as re-inserting the page would. Budget accounting counts
//! a page's bytes, however it is segmented.
//!
//! Implemented from scratch as a slab-backed doubly-linked list + HashMap,
//! O(1) for get/insert/remove.

use bytes::Bytes;
use rhik_nand::PageData;
use rhik_sigs::SigMap;

const NIL: usize = usize::MAX;

struct Node {
    key: u64,
    data: PageData,
    dirty: bool,
    prev: usize,
    next: usize,
}

/// An entry evicted from the cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evicted {
    pub key: u64,
    pub data: PageData,
    pub dirty: bool,
}

/// Cache hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub dirty_evictions: u64,
}

impl CacheStats {
    /// Miss ratio in [0, 1]; 0 when no accesses happened.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Byte-budget LRU of index pages.
pub struct IndexPageCache {
    budget: usize,
    used: usize,
    map: SigMap<u64, usize>,
    slab: Vec<Node>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    stats: CacheStats,
}

impl IndexPageCache {
    /// Create a cache holding at most `budget_bytes` of page payload.
    pub fn new(budget_bytes: usize) -> Self {
        IndexPageCache {
            budget: budget_bytes,
            used: 0,
            // bounded-by: eviction keeps `used <= budget`, capping the
            // resident pages the byte budget admits.
            map: SigMap::default(),
            slab: Vec::new(), // bounded-by: one node per resident page (see map)
            free: Vec::new(), // bounded-by: recycled slab slots; never exceeds slab len
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    pub fn used_bytes(&self) -> usize {
        self.used
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset the hit/miss counters (used between experiment phases).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Store a new entry in a free slab slot and map `key` to it (not yet
    /// linked into the recency list).
    fn add_node(&mut self, key: u64, data: PageData, dirty: bool) -> usize {
        let node = Node { key, data, dirty, prev: NIL, next: NIL };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = node;
                i
            }
            None => {
                self.slab.push(node);
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        idx
    }

    /// Look up `key`, refreshing recency. Counts a hit or miss.
    pub fn get(&mut self, key: u64) -> Option<&PageData> {
        match self.map.get(&key).copied() {
            Some(idx) => {
                self.stats.hits += 1;
                self.detach(idx);
                self.push_front(idx);
                Some(&self.slab[idx].data)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The resident page under `key`, without touching recency or stats.
    pub fn resident(&self, key: u64) -> Option<&PageData> {
        self.map.get(&key).map(|&idx| &self.slab[idx].data)
    }

    /// The resident page under `key` as one buffer, without touching
    /// recency or stats (introspection: a segmented page is copied).
    pub fn peek(&self, key: u64) -> Option<Bytes> {
        self.resident(key).map(PageData::to_bytes)
    }

    /// Whether `key` is cached and dirty.
    pub fn is_dirty(&self, key: u64) -> bool {
        self.map.get(&key).is_some_and(|&idx| self.slab[idx].dirty)
    }

    /// Mutable access to resident `key` for an in-place patch through
    /// [`PageData::segments_mut`], copy-on-write: a segment is copied
    /// first only if another handle shares it. Recency, dirtiness and
    /// counters are untouched; report a completed patch with
    /// [`IndexPageCache::commit_patch`].
    pub fn page_mut(&mut self, key: u64) -> Option<&mut PageData> {
        let idx = *self.map.get(&key)?;
        Some(&mut self.slab[idx].data)
    }

    /// Account an in-place patch of resident `key` exactly as re-inserting
    /// the patched page dirty would: one insertion, marked dirty, most
    /// recently used (no-op if absent).
    pub fn commit_patch(&mut self, key: u64) {
        if let Some(&idx) = self.map.get(&key) {
            self.stats.insertions += 1;
            self.slab[idx].dirty = true;
            self.detach(idx);
            self.push_front(idx);
        }
    }

    /// Insert or replace `key`, evicting LRU entries as needed to fit the
    /// budget. Evicted entries (and a replaced entry's old bytes, never) are
    /// returned so the caller can write back dirty pages.
    ///
    /// An entry larger than the whole budget is *not* cached (it would evict
    /// everything and still not fit); it is returned immediately as if
    /// evicted, preserving write-back semantics.
    pub fn insert(&mut self, key: u64, data: PageData, dirty: bool) -> Vec<Evicted> {
        self.stats.insertions += 1;
        let mut evicted = Vec::new();

        if let Some(&idx) = self.map.get(&key) {
            if data.len() > self.budget {
                // The replacement itself cannot fit: evict the old entry and
                // bounce the new bytes back to the caller. `evict_at` has
                // already counted the eviction (and the old entry's
                // dirtiness); only dirtiness introduced by the replacement
                // bytes still needs accounting.
                let old = self.evict_at(idx);
                let dirty = dirty || old.dirty;
                if dirty && !old.dirty {
                    self.stats.dirty_evictions += 1;
                }
                evicted.push(Evicted { key, data, dirty });
                return evicted;
            }
            // Replace in place: adjust usage, merge dirty flags.
            self.used -= self.slab[idx].data.len();
            self.used += data.len();
            self.slab[idx].data = data;
            self.slab[idx].dirty = self.slab[idx].dirty || dirty;
            self.detach(idx);
            self.push_front(idx);
        } else {
            if data.len() > self.budget {
                evicted.push(Evicted { key, data, dirty });
                if dirty {
                    self.stats.dirty_evictions += 1;
                }
                self.stats.evictions += 1;
                return evicted;
            }
            self.used += data.len();
            let idx = self.add_node(key, data, dirty);
            self.push_front(idx);
        }

        while self.used > self.budget {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "over budget with empty list");
            if victim == self.head {
                // Single over-budget entry is the one just inserted; it fits
                // the budget by the early-return above, so this cannot
                // happen — guard anyway.
                break;
            }
            evicted.push(self.evict_at(victim));
        }
        evicted
    }

    fn evict_at(&mut self, idx: usize) -> Evicted {
        self.detach(idx);
        let node = std::mem::replace(
            &mut self.slab[idx],
            Node { key: 0, data: PageData::default(), dirty: false, prev: NIL, next: NIL },
        );
        self.map.remove(&node.key);
        self.free.push(idx);
        self.used -= node.data.len();
        self.stats.evictions += 1;
        if node.dirty {
            self.stats.dirty_evictions += 1;
        }
        Evicted { key: node.key, data: node.data, dirty: node.dirty }
    }

    /// Put back evicted entries whose write-back was refused, so no dirty
    /// page is lost: they rejoin the least-recently-used end in eviction
    /// order (the first given stays least recent), keep their dirtiness,
    /// and stop counting as evicted. The cache may then sit above its
    /// budget until the next insertion evicts them again.
    pub fn restore(&mut self, entries: Vec<Evicted>) {
        for ev in entries.into_iter().rev() {
            debug_assert!(!self.map.contains_key(&ev.key), "restored page {} is resident", ev.key);
            self.stats.evictions = self.stats.evictions.saturating_sub(1);
            if ev.dirty {
                self.stats.dirty_evictions = self.stats.dirty_evictions.saturating_sub(1);
            }
            self.used += ev.data.len();
            let idx = self.add_node(ev.key, ev.data, ev.dirty);
            self.slab[idx].prev = self.tail;
            if self.tail != NIL {
                self.slab[self.tail].next = idx;
            } else {
                self.head = idx;
            }
            self.tail = idx;
        }
    }

    /// Remove `key` outright (e.g. table retired by a resize).
    pub fn remove(&mut self, key: u64) -> Option<Evicted> {
        let idx = self.map.get(&key).copied()?;
        self.detach(idx);
        let node = std::mem::replace(
            &mut self.slab[idx],
            Node { key: 0, data: PageData::default(), dirty: false, prev: NIL, next: NIL },
        );
        self.map.remove(&key);
        self.free.push(idx);
        self.used -= node.data.len();
        Some(Evicted { key: node.key, data: node.data, dirty: node.dirty })
    }

    /// Every resident dirty page, in slab order, for a checkpoint. Each
    /// stays dirty until the caller has persisted it and calls
    /// [`IndexPageCache::mark_clean`].
    pub fn dirty_pages(&self) -> Vec<(u64, PageData)> {
        self.slab
            .iter()
            .enumerate()
            .filter(|&(idx, node)| node.dirty && self.map.get(&node.key) == Some(&idx))
            .map(|(_, node)| (node.key, node.data.clone()))
            .collect()
    }

    /// Mark a resident page clean after its write-back (no-op if absent).
    pub fn mark_clean(&mut self, key: u64) {
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].dirty = false;
        }
    }

    /// Keys currently resident, MRU first (diagnostics).
    pub fn keys_mru(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.slab[cur].key);
            cur = self.slab[cur].next;
        }
        out
    }
}

impl std::fmt::Debug for IndexPageCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexPageCache")
            .field("budget", &self.budget)
            .field("used", &self.used)
            .field("entries", &self.map.len())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhik_nand::SegmentsMut;

    fn page(fill: u8, len: usize) -> PageData {
        Bytes::from(vec![fill; len]).into()
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = IndexPageCache::new(1000);
        assert!(c.get(1).is_none());
        c.insert(1, page(1, 100), false);
        assert_eq!(c.get(1).unwrap(), &page(1, 100));
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_lru_order() {
        let mut c = IndexPageCache::new(300);
        c.insert(1, page(1, 100), false);
        c.insert(2, page(2, 100), false);
        c.insert(3, page(3, 100), false);
        // Touch 1 so 2 becomes LRU.
        c.get(1);
        let ev = c.insert(4, page(4, 100), false);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].key, 2);
        assert_eq!(c.keys_mru(), vec![4, 1, 3]);
        assert_eq!(c.used_bytes(), 300);
    }

    #[test]
    fn dirty_pages_return_on_eviction() {
        let mut c = IndexPageCache::new(200);
        c.insert(1, page(1, 100), true);
        c.insert(2, page(2, 100), false);
        let ev = c.insert(3, page(3, 100), false);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].dirty);
        assert_eq!(ev[0].key, 1);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn replace_merges_dirty_and_adjusts_usage() {
        let mut c = IndexPageCache::new(500);
        c.insert(1, page(1, 100), true);
        assert_eq!(c.used_bytes(), 100);
        let ev = c.insert(1, page(9, 300), false);
        assert!(ev.is_empty());
        assert_eq!(c.used_bytes(), 300);
        assert!(c.is_dirty(1), "dirty must survive a clean overwrite");
        assert_eq!(c.len(), 1);
        assert_eq!(c.resident(1).unwrap(), &page(9, 300));
    }

    #[test]
    fn oversized_entry_bounces() {
        let mut c = IndexPageCache::new(100);
        let ev = c.insert(1, page(1, 101), true);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].key, 1);
        assert!(ev[0].dirty);
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn oversized_replacement_counts_one_eviction() {
        // Regression: replacing a resident entry with oversized bytes used
        // to count the eviction twice (once in evict_at, once manually).
        let mut c = IndexPageCache::new(100);
        c.insert(1, page(1, 50), true);
        let ev = c.insert(1, page(9, 200), false);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].dirty, "old dirtiness must survive the bounce");
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 1);
        assert!(c.is_empty());

        // Clean resident + dirty oversized replacement: still one eviction,
        // and the replacement's dirtiness is counted exactly once.
        let mut c = IndexPageCache::new(100);
        c.insert(2, page(2, 50), false);
        let ev = c.insert(2, page(8, 200), true);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].dirty);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 1);

        // Clean on both sides: one eviction, no dirty eviction.
        let mut c = IndexPageCache::new(100);
        c.insert(3, page(3, 50), false);
        let ev = c.insert(3, page(7, 200), false);
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].dirty);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().dirty_evictions, 0);
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut c = IndexPageCache::new(1000);
        for k in 0..5 {
            c.insert(k, page(k as u8, 50), false);
        }
        assert_eq!(c.remove(2).unwrap().key, 2);
        assert!(c.get(2).is_none());
        assert_eq!(c.len(), 4);
        // Slot reuse: inserting again must not grow the slab unboundedly.
        let slab_len = c.slab.len();
        c.insert(9, page(9, 50), false);
        assert_eq!(c.slab.len(), slab_len);
        assert_eq!(c.remove(42), None);
    }

    #[test]
    fn dirty_pages_stay_dirty_until_marked_clean() {
        let mut c = IndexPageCache::new(1000);
        c.insert(1, page(1, 10), true);
        c.insert(2, page(2, 10), false);
        c.insert(3, page(3, 10), true);
        let mut dirty: Vec<u64> = c.dirty_pages().into_iter().map(|(key, _)| key).collect();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![1, 3]);
        // Only pages the caller persisted turn clean.
        c.mark_clean(1);
        c.mark_clean(99); // absent: no-op
        assert!(!c.is_dirty(1));
        assert!(c.is_dirty(3));
        assert_eq!(c.dirty_pages().len(), 1);
        // Entries are still resident after a checkpoint.
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn patch_in_place_is_copy_on_write() {
        let write = |c: &mut IndexPageCache, key: u64, segment: usize, at: usize, byte: u8| match c
            .page_mut(key)
            .unwrap()
            .segments_mut()
        {
            SegmentsMut::Flat(buf) => buf[at] = byte,
            SegmentsMut::Segments(list) => list[segment].make_mut()[at] = byte,
        };
        let mut c = IndexPageCache::new(1000);
        let shared = page(1, 10);
        c.insert(1, shared.clone(), false);
        write(&mut c, 1, 0, 0, 9);
        assert_eq!(&shared.to_bytes()[..], &[1; 10], "a shared page is copied before the patch");
        assert_eq!(c.peek(1).unwrap()[0], 9);
        // The private copy is patched in place from then on.
        let before = c.peek(1).unwrap().as_ptr();
        write(&mut c, 1, 0, 1, 8);
        assert_eq!(c.peek(1).unwrap().as_ptr(), before);
        assert!(c.page_mut(2).is_none());

        // A segmented page copies only the segment a patch touches; the
        // shared copy reads the same after every patch.
        let flash = PageData::from_segments(vec![page(1, 10).to_bytes(), page(2, 10).to_bytes()]);
        let flat_before = flash.to_bytes();
        c.insert(3, flash.clone(), false);
        write(&mut c, 3, 1, 0, 7);
        assert_eq!(flash.to_bytes(), flat_before, "the shared copy is never written");
        let (cached, shared) = (c.resident(3).unwrap().segments(), flash.segments());
        assert_eq!(cached[0].as_ptr(), shared[0].as_ptr(), "an untouched segment stays shared");
        assert_ne!(cached[1].as_ptr(), shared[1].as_ptr(), "the patched segment was copied");
        let copied = cached[1].as_ptr();
        write(&mut c, 3, 1, 1, 6);
        assert_eq!(c.resident(3).unwrap().segments()[1].as_ptr(), copied, "then patched in place");
        assert_eq!(flash.to_bytes(), flat_before);
        assert_eq!(&c.peek(3).unwrap()[10..13], &[7, 6, 2]);
    }

    #[test]
    fn commit_patch_accounts_like_a_dirty_reinsert() {
        let fill = |c: &mut IndexPageCache| {
            for k in 1..=3 {
                c.insert(k, page(k as u8, 100), false);
            }
        };
        let mut patched = IndexPageCache::new(300);
        let mut reinserted = IndexPageCache::new(300);
        fill(&mut patched);
        fill(&mut reinserted);
        patched.commit_patch(1);
        assert!(reinserted.insert(1, page(1, 100), true).is_empty());
        assert_eq!(patched.stats(), reinserted.stats());
        assert_eq!(patched.keys_mru(), reinserted.keys_mru());
        assert!(patched.is_dirty(1));
    }

    #[test]
    fn restored_victims_stay_dirty_at_the_lru_end() {
        let mut c = IndexPageCache::new(300);
        c.insert(1, page(1, 100), true);
        c.insert(2, page(2, 100), true);
        c.insert(3, page(3, 100), false);
        let ev = c.insert(4, page(4, 200), false);
        assert_eq!(ev.iter().map(|e| e.key).collect::<Vec<_>>(), vec![1, 2]);
        // Both write-backs refused: nothing may be lost.
        c.restore(ev);
        assert_eq!(c.keys_mru(), vec![4, 3, 2, 1]);
        assert!(c.is_dirty(1) && c.is_dirty(2));
        assert_eq!(c.resident(1).unwrap(), &page(1, 100));
        assert_eq!(c.used_bytes(), 500, "over budget until the next insertion");
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.stats().dirty_evictions, 0);
        // The next insertion evicts them again, oldest first.
        let ev = c.insert(5, page(5, 10), false);
        assert_eq!(ev.iter().map(|e| e.key).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert!(c.used_bytes() <= 300);
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let mut c = IndexPageCache::new(0);
        let ev = c.insert(1, page(1, 1), false);
        assert_eq!(ev.len(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn heavy_churn_preserves_invariants() {
        let mut c = IndexPageCache::new(512);
        for i in 0..10_000u64 {
            c.insert(i % 37, page((i % 251) as u8, 16 + (i % 7) as usize * 16), i % 3 == 0);
            if i % 5 == 0 {
                c.get(i % 23);
            }
            if i % 11 == 0 {
                c.remove(i % 13);
            }
            assert!(c.used_bytes() <= 512);
            let mru = c.keys_mru();
            assert_eq!(mru.len(), c.len());
        }
    }
}
