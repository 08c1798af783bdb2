//! Block allocation and per-block accounting.

use std::sync::Arc;

use rhik_nand::{BlockId, NandGeometry};

use crate::ftl::FtlError;
use crate::sync::FlashPool;

/// Which log a block belongs to. Separating index and data streams keeps GC
/// simple: data blocks are cleaned by scanning head pages, index blocks by
/// asking the index which tables are still live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// KV-pair head pages (packed records + signature info areas).
    Data,
    /// Whole-page value bodies (the extent partition of §IV-A5).
    Extent,
    /// Index tables and directory snapshots.
    Index,
}

/// FTL-side metadata for one erase block.
#[derive(Clone, Debug)]
pub struct BlockMeta {
    pub stream: Option<Stream>,
    /// Bytes of live payload written into this block.
    pub live_bytes: u64,
    /// Bytes since invalidated (updated/deleted pairs, retired tables,
    /// skipped tail pages).
    pub stale_bytes: u64,
    /// Pages programmed so far (mirror of the NAND write pointer; kept here
    /// so victim scoring doesn't need flash queries).
    pub pages_used: u32,
    /// No further programs will land here (full, or closed early for an
    /// extent that needed a fresh block).
    pub sealed: bool,
}

impl BlockMeta {
    fn fresh() -> Self {
        BlockMeta { stream: None, live_bytes: 0, stale_bytes: 0, pages_used: 0, sealed: false }
    }

    /// Greedy GC score: stale payload reclaimed per erase.
    pub fn gc_score(&self) -> u64 {
        self.stale_bytes
    }
}

/// Open-block manager over a [`FlashPool`] of free blocks.
///
/// One open block per stream; pages are handed out sequentially. When a
/// block fills (or is closed early), it is sealed and a new block is leased
/// from the pool. The pool withholds a reserve from normal allocation so GC
/// always has scratch blocks to relocate into.
#[derive(Debug)]
pub struct BlockAllocator {
    geometry: NandGeometry,
    meta: Vec<BlockMeta>,
    open_data: Option<BlockId>,
    open_extent: Option<BlockId>,
    open_index: Option<BlockId>,
    /// Partially-programmed extent blocks set aside while a large extent
    /// claimed a fresh block; reused before the free pool is touched.
    parked_extent: Vec<BlockId>,
    /// When true, allocation may dip into the reserve (GC in progress).
    gc_mode: bool,
    /// The free blocks: this FTL's own pool, or one a sharded device
    /// shares between its shards so no block is leased twice.
    pool: Arc<FlashPool>,
}

/// Privilege of a block acquisition against the GC reserve.
///
/// The reserve is tiered so no tenant can starve the one below it: host
/// data stops at the full reserve, index write-backs may consume half of
/// it (an eviction mid-command must not fail while the device still has
/// headroom), and only GC relocation may drain it completely. Without
/// the middle tier, sustained metadata churn could eat the last free
/// block and leave GC with no scratch space to relocate into — wedging
/// the device with garbage it can no longer collect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcquireClass {
    /// Host data writes: stop at the full reserve floor.
    Normal,
    /// Index metadata write-back: may consume half the reserve.
    Metadata,
    /// GC relocation targets: may consume the entire reserve.
    Gc,
}

impl AcquireClass {
    /// The number of free blocks this class must leave untouched.
    pub fn floor(self, reserve: u32) -> usize {
        match self {
            AcquireClass::Normal => reserve as usize,
            AcquireClass::Metadata => (reserve / 2) as usize,
            AcquireClass::Gc => 0,
        }
    }
}

impl BlockAllocator {
    /// An allocator whose free blocks come from (and return to) `pool`,
    /// while open blocks, parked blocks, and per-block metadata remain
    /// private to it. The pool enforces the reserve floor.
    pub fn with_pool(geometry: NandGeometry, pool: Arc<FlashPool>) -> Self {
        assert_eq!(
            pool.total_blocks(),
            geometry.blocks,
            "pool must cover exactly this geometry's blocks"
        );
        BlockAllocator {
            geometry,
            meta: (0..geometry.blocks).map(|_| BlockMeta::fresh()).collect(),
            open_data: None,
            open_extent: None,
            open_index: None,
            // bounded-by: every entry is a distinct parked BlockId, so at
            // most geometry.blocks elements.
            parked_extent: Vec::new(),
            gc_mode: false,
            pool,
        }
    }

    pub fn meta(&self, block: BlockId) -> &BlockMeta {
        &self.meta[block as usize]
    }

    pub fn meta_mut(&mut self, block: BlockId) -> &mut BlockMeta {
        &mut self.meta[block as usize]
    }

    /// Blocks available to normal allocation (excludes reserve): the
    /// *pool-wide* count, which is what the GC watermarks must observe.
    pub fn free_blocks(&self) -> u32 {
        self.pool.free_blocks()
    }

    /// Blocks in the free pool including the reserve.
    pub fn free_blocks_raw(&self) -> u32 {
        self.pool.free_blocks_raw()
    }

    /// Enter/leave GC mode (GC may consume the reserve).
    pub fn set_gc_mode(&mut self, on: bool) {
        self.gc_mode = on;
    }

    /// The pool's GC reserve.
    pub fn gc_reserve(&self) -> u32 {
        self.pool.reserve()
    }

    /// The flash pool this allocator leases from.
    pub fn pool(&self) -> &Arc<FlashPool> {
        &self.pool
    }

    fn pop_free(&mut self, allow_reserve: bool) -> Result<BlockId, FtlError> {
        let class = if self.gc_mode {
            AcquireClass::Gc
        } else if allow_reserve {
            AcquireClass::Metadata
        } else {
            AcquireClass::Normal
        };
        self.pool.acquire(class)
    }

    fn open_slot(&mut self, stream: Stream) -> &mut Option<BlockId> {
        match stream {
            Stream::Data => &mut self.open_data,
            Stream::Extent => &mut self.open_extent,
            Stream::Index => &mut self.open_index,
        }
    }

    /// The block currently open for `stream`, if any.
    pub fn open_block(&self, stream: Stream) -> Option<BlockId> {
        match stream {
            Stream::Data => self.open_data,
            Stream::Extent => self.open_extent,
            Stream::Index => self.open_index,
        }
    }

    /// Hand out the next page of `stream`'s open block, opening a new block
    /// from the free pool when needed. `allow_reserve` lets metadata writes
    /// dip into half the GC reserve ([`AcquireClass::Metadata`]) so index
    /// write-backs rarely fail mid-flight — while still leaving GC its own
    /// scratch blocks. GC mode unlocks the full reserve.
    pub fn next_page(
        &mut self,
        stream: Stream,
        allow_reserve: bool,
    ) -> Result<rhik_nand::Ppa, FtlError> {
        let ppb = self.geometry.pages_per_block;
        loop {
            let open = *self.open_slot(stream);
            match open {
                Some(block) if self.meta[block as usize].pages_used < ppb => {
                    let page = self.meta[block as usize].pages_used;
                    self.meta[block as usize].pages_used += 1;
                    if self.meta[block as usize].pages_used == ppb {
                        self.meta[block as usize].sealed = true;
                        *self.open_slot(stream) = None;
                    }
                    return Ok(rhik_nand::Ppa::new(block, page));
                }
                _ => {
                    let block = self.pop_free(allow_reserve)?;
                    let m = &mut self.meta[block as usize];
                    *m = BlockMeta::fresh();
                    m.stream = Some(stream);
                    *self.open_slot(stream) = Some(block);
                }
            }
        }
    }

    /// Make sure the extent stream's open block has at least `pages_needed`
    /// unprogrammed pages: reuse the current block if it qualifies, else
    /// park it and reopen the roomiest parked block that fits, else pull a
    /// fresh block from the free pool. No tail pages are ever wasted.
    pub fn open_extent_block_with_room(
        &mut self,
        pages_needed: u32,
        allow_reserve: bool,
    ) -> Result<(), FtlError> {
        let ppb = self.geometry.pages_per_block;
        debug_assert!(pages_needed <= ppb, "extent larger than an erase block");
        if let Some(b) = self.open_extent {
            if ppb - self.meta[b as usize].pages_used >= pages_needed {
                return Ok(());
            }
        }
        self.park_open_extent();
        if let Some(pos) = self
            .parked_extent
            .iter()
            .position(|&b| ppb - self.meta[b as usize].pages_used >= pages_needed)
        {
            self.open_extent = Some(self.parked_extent.swap_remove(pos));
            return Ok(());
        }
        let block = self.pop_free(allow_reserve)?;
        let m = &mut self.meta[block as usize];
        *m = BlockMeta::fresh();
        m.stream = Some(Stream::Extent);
        self.open_extent = Some(block);
        Ok(())
    }

    /// Park the extent stream's open block: a large extent needs a fresh
    /// block, but the remaining pages here stay usable for later extents.
    pub fn park_open_extent(&mut self) {
        if let Some(block) = self.open_extent.take() {
            self.parked_extent.push(block);
        }
    }

    /// Remove `block` from the parked list so GC can collect it without the
    /// allocator re-opening it as a relocation target.
    pub fn quarantine(&mut self, block: BlockId) {
        self.parked_extent.retain(|&b| b != block);
    }

    /// Move `bytes` of `block`'s payload from live to stale (a pair
    /// superseded, deleted or lost with the write buffer; a retired index
    /// page).
    pub fn mark_stale(&mut self, block: BlockId, bytes: u64) {
        let m = &mut self.meta[block as usize];
        m.stale_bytes += bytes;
        m.live_bytes = m.live_bytes.saturating_sub(bytes);
    }

    /// Seal `stream`'s open block early (an extent needed a fresh block).
    /// Unprogrammed tail pages are charged as stale capacity so GC sees the
    /// waste.
    pub fn close_open_block(&mut self, stream: Stream) {
        if let Some(block) = self.open_slot(stream).take() {
            let m = &mut self.meta[block as usize];
            let wasted_pages = self.geometry.pages_per_block - m.pages_used;
            m.stale_bytes += wasted_pages as u64 * self.geometry.page_size as u64;
            m.pages_used = self.geometry.pages_per_block;
            m.sealed = true;
        }
    }

    /// Return an erased block to the free pool (dropping any parked
    /// reference — GC may erase a parked block).
    pub fn release(&mut self, block: BlockId) {
        debug_assert!(
            self.open_data != Some(block)
                && self.open_extent != Some(block)
                && self.open_index != Some(block),
            "released block {block} is still an open write target"
        );
        self.parked_extent.retain(|&b| b != block);
        self.meta[block as usize] = BlockMeta::fresh();
        self.pool.release(block);
    }

    /// Candidate GC victims of `stream`: any non-open block with stale
    /// bytes (sealed *or* parked — a parked block's programmed pages can
    /// hold dead pairs just like a full block's), best score first.
    pub fn victims(&self, stream: Stream) -> Vec<BlockId> {
        let open = self.open_block(stream);
        let mut v: Vec<BlockId> = (0..self.geometry.blocks)
            .filter(|&b| {
                let m = &self.meta[b as usize];
                m.stream == Some(stream) && m.stale_bytes > 0 && Some(b) != open
            })
            .collect();
        v.sort_by_key(|&b| std::cmp::Reverse(self.meta[b as usize].gc_score()));
        v
    }

    /// Total live bytes across all blocks (device utilization numerator).
    pub fn total_live_bytes(&self) -> u64 {
        self.meta.iter().map(|m| m.live_bytes).sum()
    }

    /// Total stale bytes across all blocks.
    pub fn total_stale_bytes(&self) -> u64 {
        self.meta.iter().map(|m| m.stale_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhik_nand::Ppa;

    impl BlockAllocator {
        /// Pages remaining in `stream`'s open block (0 when none is open).
        fn open_pages_left(&self, stream: Stream) -> u32 {
            match self.open_block(stream) {
                Some(b) => self.geometry.pages_per_block - self.meta[b as usize].pages_used,
                None => 0,
            }
        }

        /// Blocks currently parked.
        fn parked_blocks(&self) -> usize {
            self.parked_extent.len()
        }
    }

    fn alloc() -> BlockAllocator {
        let pool = Arc::new(FlashPool::new(NandGeometry::tiny(), 2));
        BlockAllocator::with_pool(NandGeometry::tiny(), pool)
    }

    #[test]
    fn pages_sequential_within_block() {
        let mut a = alloc();
        let p0 = a.next_page(Stream::Data, false).unwrap();
        let p1 = a.next_page(Stream::Data, false).unwrap();
        assert_eq!(p0.block, p1.block);
        assert_eq!(p0.page + 1, p1.page);
    }

    #[test]
    fn streams_use_disjoint_blocks() {
        let mut a = alloc();
        let d = a.next_page(Stream::Data, false).unwrap();
        let i = a.next_page(Stream::Index, false).unwrap();
        assert_ne!(d.block, i.block);
        assert_eq!(a.meta(d.block).stream, Some(Stream::Data));
        assert_eq!(a.meta(i.block).stream, Some(Stream::Index));
    }

    #[test]
    fn block_rolls_over_when_full() {
        let mut a = alloc();
        let ppb = 8;
        let first = a.next_page(Stream::Data, false).unwrap();
        for _ in 1..ppb {
            a.next_page(Stream::Data, false).unwrap();
        }
        assert!(a.meta(first.block).sealed);
        let next = a.next_page(Stream::Data, false).unwrap();
        assert_ne!(next.block, first.block);
        assert_eq!(next.page, 0);
    }

    #[test]
    fn reserve_is_protected_until_gc_mode() {
        let mut a = alloc(); // 8 blocks, 2 reserved
                             // Exhaust the 6 allocatable blocks.
        for _ in 0..6 * 8 {
            a.next_page(Stream::Data, false).unwrap();
        }
        assert_eq!(a.free_blocks(), 0);
        assert_eq!(a.next_page(Stream::Data, false), Err(FtlError::NeedsGc));
        a.set_gc_mode(true);
        assert!(a.next_page(Stream::Data, false).is_ok());
        a.set_gc_mode(false);
    }

    #[test]
    fn close_early_charges_waste() {
        let mut a = alloc();
        let p = a.next_page(Stream::Data, false).unwrap(); // 1 page used of 8
        a.close_open_block(Stream::Data);
        let m = a.meta(p.block);
        assert!(m.sealed);
        assert_eq!(m.stale_bytes, 7 * 512);
        assert_eq!(a.open_block(Stream::Data), None);
    }

    #[test]
    fn release_recycles_blocks() {
        let mut a = alloc();
        let p = a.next_page(Stream::Data, false).unwrap();
        for _ in 1..8 {
            a.next_page(Stream::Data, false).unwrap();
        }
        let free_before = a.free_blocks_raw();
        a.release(p.block);
        assert_eq!(a.free_blocks_raw(), free_before + 1);
        assert_eq!(a.meta(p.block).stream, None);
        assert_eq!(a.meta(p.block).stale_bytes, 0);
    }

    #[test]
    fn victims_ranked_by_stale_bytes() {
        let mut a = alloc();
        let mut blocks = Vec::new();
        for _ in 0..3 {
            let first = a.next_page(Stream::Data, false).unwrap();
            for _ in 1..8 {
                a.next_page(Stream::Data, false).unwrap();
            }
            blocks.push(first.block);
        }
        a.meta_mut(blocks[0]).stale_bytes = 10;
        a.meta_mut(blocks[1]).stale_bytes = 500;
        a.meta_mut(blocks[2]).stale_bytes = 100;
        assert_eq!(a.victims(Stream::Data), vec![blocks[1], blocks[2], blocks[0]]);
        // The open block is never a victim, even with stale bytes.
        let open = a.next_page(Stream::Data, false).unwrap();
        a.meta_mut(open.block).stale_bytes = 9999;
        assert!(!a.victims(Stream::Data).contains(&open.block));
    }

    #[test]
    fn parked_extent_blocks_are_victims() {
        let mut a = alloc();
        let p = a.next_page(Stream::Extent, false).unwrap();
        a.meta_mut(p.block).stale_bytes = 100;
        // Open: protected.
        assert!(!a.victims(Stream::Extent).contains(&p.block));
        // Parked: collectable.
        a.park_open_extent();
        assert!(a.victims(Stream::Extent).contains(&p.block));
        // Quarantine keeps the allocator from re-opening it mid-GC.
        a.quarantine(p.block);
        assert_eq!(a.parked_blocks(), 0);
        // Releasing returns it to the pool, victim no more.
        a.release(p.block);
        assert!(!a.victims(Stream::Extent).contains(&p.block));
    }

    #[test]
    fn open_pages_left_tracks() {
        let mut a = alloc();
        assert_eq!(a.open_pages_left(Stream::Data), 0);
        a.next_page(Stream::Data, false).unwrap();
        assert_eq!(a.open_pages_left(Stream::Data), 7);
    }

    #[test]
    fn page_addresses_valid() {
        let mut a = alloc();
        for _ in 0..20 {
            let p: Ppa = a.next_page(Stream::Data, false).unwrap();
            assert!(NandGeometry::tiny().contains(p));
        }
    }

    #[test]
    #[should_panic(expected = "reserve must leave")]
    fn reserve_cannot_cover_all_blocks() {
        let _ = FlashPool::new(NandGeometry::tiny(), 8);
    }

    #[test]
    fn pooled_allocators_share_one_free_pool() {
        let pool = Arc::new(FlashPool::new(NandGeometry::tiny(), 2));
        let mut a = BlockAllocator::with_pool(NandGeometry::tiny(), Arc::clone(&pool));
        let mut b = BlockAllocator::with_pool(NandGeometry::tiny(), Arc::clone(&pool));
        let pa = a.next_page(Stream::Data, false).unwrap();
        let pb = b.next_page(Stream::Data, false).unwrap();
        // Each allocator opened its own block; never the same one.
        assert_ne!(pa.block, pb.block);
        // Both observe the same device-wide free count.
        assert_eq!(pool.free_blocks_raw(), 6);
        assert_eq!(a.free_blocks(), b.free_blocks());
        // Exhaust: 8 blocks total, 2 open, 2 reserved → 4 more openable.
        for _ in 0..4 {
            a.close_open_block(Stream::Data);
            a.next_page(Stream::Data, false).unwrap();
        }
        a.close_open_block(Stream::Data);
        assert_eq!(a.next_page(Stream::Data, false), Err(FtlError::NeedsGc));
        assert_eq!(b.next_page(Stream::Data, false).unwrap().block, pb.block);
        // b's GC mode may dip into the shared reserve.
        b.close_open_block(Stream::Data);
        b.set_gc_mode(true);
        assert!(b.next_page(Stream::Data, false).is_ok());
        b.set_gc_mode(false);
        // Releasing from one allocator makes the block visible to the other:
        // 2 were reserved, GC dipped for 1, then two come back.
        a.release(pa.block);
        b.release(pb.block);
        assert_eq!(pool.free_blocks_raw(), 3);
    }
}
