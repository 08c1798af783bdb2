//! The synchronization module: every cross-thread primitive the firmware
//! paths use lives here, and *only* here (wslint rules
//! `std-mutex-outside-sync` and `raw-atomic-outside-sync` enforce it).
//!
//! Three families of primitives:
//!
//! * [`FlashPool`] — the thread-safe flash allocation boundary for
//!   sharded execution. A sharded device runs one command stream per
//!   shard, each with its own FTL front-end, but all shards share one
//!   physical flash array, so erase blocks must come from a single
//!   device-wide pool or shards could over-commit the same capacity.
//! * [`VersionTable`] — striped versions bumped after every index
//!   mutation: one per device, shared by the hot cache (invalidation
//!   tags) and every shard's lock-free read view ([`crate::ReadView`],
//!   validation stripes).
//! * [`Counter`] — a relaxed statistics counter, so hot paths outside
//!   this module never touch a raw atomic directly.
//!
//! FlashPool correctness argument: the pool only ever hands out blocks in
//! the erased state (initially, or released after an explicit erase), and
//! a block is owned by at most one shard between lease and release. A
//! shard's private NAND view of a block it has never programmed is
//! exactly the erased state, so ownership migration between shards is
//! sound. GC watermarks read the *global* free count, which keeps the
//! "free space low → collect" feedback loop device-wide even though each
//! shard only collects its own leased blocks.

use std::collections::VecDeque;
use std::fmt;

// Under `RUSTFLAGS="--cfg loom"` every primitive in this module swaps to
// the loom model types, so the loom tests in `tests/loom_pool.rs` and
// `tests/loom_readview.rs` explore their interleavings without a parallel
// implementation. The rest of the workspace imports its primitives from
// here (not `std::sync`) for the same reason.
#[cfg(loom)]
pub use loom::sync::{Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::sync::{Mutex, MutexGuard};

/// Atomic types for the whole workspace, swapped to the loom models under
/// `--cfg loom`. Firmware code outside this module must not name these
/// directly (wslint `raw-atomic-outside-sync`); it uses the typed
/// primitives below instead.
pub mod atomic {
    #[cfg(loom)]
    pub use loom::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    #[cfg(not(loom))]
    pub use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
}

use atomic::{AtomicU32, AtomicU64, Ordering};

use rhik_nand::{BlockId, NandGeometry};

use crate::alloc::AcquireClass;
use crate::ftl::FtlError;

// -------------------------------------------------------- version table

/// Striped per-signature versions, bumped after every mutation. A device
/// keeps one table: it is the validation stripes of every shard's
/// [`crate::ReadView`] and the DRAM hot-object cache's invalidation tags.
///
/// Every value mutation reaching the index — put, in-place update,
/// delete, GC relocation — changes the index's read view, and
/// [`ReadView::upsert`](crate::ReadView::upsert) /
/// [`ReadView::remove`](crate::ReadView::remove) bump the signature's
/// stripe *after* the map change: the table's only writers. A lock-free
/// reader validates its hit against the stripe version it probed with. A
/// cache fill reads the stripe version *before* fetching the value and
/// stores the entry tagged with that version; a cached entry is served
/// only while its fill version still equals the stripe's current version.
///
/// Safety argument (the loom models in `rhik-ftl` and `rhik-hotcache`
/// pin this down): a wrong-value serve would need a mutation whose bump
/// was already counted in the version a reader holds but whose value
/// effect the reader missed. Bumps are SeqCst and happen after the
/// mutation, and the reader's value read synchronizes with the mutator
/// (shard lock, or the view's map mutex), so "bump visible, mutation
/// invisible" cannot happen. Mutations that land *after* the version read
/// fail validation — a spurious fallback or miss, never a stale answer.
/// Stripe collisions, across keys and across shards, only ever add
/// spurious invalidations (fail-open).
pub struct VersionTable {
    slots: Box<[AtomicU64]>,
    bits: u32,
}

impl VersionTable {
    /// A table of `1 << bits` version stripes.
    pub fn new(bits: u32) -> Self {
        let bits = bits.clamp(1, 24);
        let slots = (0..1usize << bits).map(|_| AtomicU64::new(0)).collect::<Vec<_>>().into();
        VersionTable { slots, bits }
    }

    /// Stripe of a signature: a multiplicative mix so directory-local
    /// (low-bit) and shard-local (high-bit) sig structure both spread.
    #[inline]
    fn slot(&self, sig: u64) -> usize {
        (sig.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.bits)) as usize
    }

    /// Current version of `sig`'s stripe.
    #[inline]
    pub fn load(&self, sig: u64) -> u64 {
        self.slots[self.slot(sig)].load(Ordering::SeqCst)
    }

    /// Invalidate every cached entry tagged with the stripe's current
    /// version. Called after the index mutation is applied.
    #[inline]
    pub fn bump(&self, sig: u64) {
        self.slots[self.slot(sig)].fetch_add(1, Ordering::SeqCst);
    }

    /// Number of stripes (diagnostics).
    pub fn stripes(&self) -> usize {
        self.slots.len()
    }
}

impl fmt::Debug for VersionTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VersionTable").field("stripes", &self.slots.len()).finish()
    }
}

// -------------------------------------------------------------- counters

/// Relaxed monotonic counter for hot-path statistics, so firmware code
/// outside this module never names a raw atomic or a memory ordering.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Raise the stored value to at least `v` (high-watermark tracking).
    #[inline]
    pub fn note_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Overwrite the value (configuration flags, resettable gauges).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The free-block pool: one per flash array, owned by a single FTL or
/// shared by every shard's allocator.
pub struct FlashPool {
    free: Mutex<VecDeque<BlockId>>,
    /// Cached `free.len()` so watermark checks never take the lock.
    free_count: AtomicU32,
    /// Blocks withheld from normal allocation for GC scratch (global, not
    /// per shard — GC in any shard may dip into it).
    reserve: u32,
    total_blocks: u32,
    /// Device-wide GC mutual exclusion (see [`FlashPool::gc_permit`]).
    gc_permit: Mutex<()>,
}

impl FlashPool {
    /// A pool owning every block of `geometry`, with `reserve` blocks
    /// withheld for GC relocation.
    pub fn new(geometry: NandGeometry, reserve: u32) -> Self {
        assert!(
            (reserve as u64) < geometry.blocks as u64,
            "reserve must leave at least one allocatable block"
        );
        FlashPool {
            free: Mutex::new((0..geometry.blocks).collect()),
            free_count: AtomicU32::new(geometry.blocks),
            reserve,
            total_blocks: geometry.blocks,
            gc_permit: Mutex::new(()),
        }
    }

    /// Serialize garbage collection device-wide.
    ///
    /// GC leases relocation-target blocks below the reserve floor; if
    /// every shard collected at once they could race the pool to zero
    /// and strand each other mid-relocation. One collector at a time
    /// bounds the transient demand to a single shard's open blocks —
    /// which is what the reserve is sized for — and mirrors real
    /// devices, where a single GC engine serves all queues. Waiters
    /// block until the current collection finishes.
    pub fn gc_permit(&self) -> MutexGuard<'_, ()> {
        // The permit guards no data, so a poisoned lock carries no
        // broken invariant.
        self.gc_permit.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<BlockId>> {
        // A panic can only poison the lock between a pop/push pair; the
        // queue itself is always consistent.
        self.free.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Lease one erased block. The caller's [`AcquireClass`] decides how
    /// deep into the tiered reserve it may reach: host data stops at the
    /// full reserve, metadata write-backs at half, GC at zero.
    pub fn acquire(&self, class: AcquireClass) -> Result<BlockId, FtlError> {
        let floor = class.floor(self.reserve);
        let mut q = self.queue();
        if q.len() <= floor {
            return Err(FtlError::NeedsGc);
        }
        let block = q.pop_front().expect("checked non-empty");
        self.free_count.store(q.len() as u32, Ordering::Release);
        Ok(block)
    }

    /// Return an erased block to the pool.
    pub fn release(&self, block: BlockId) {
        let mut q = self.queue();
        debug_assert!(!q.contains(&block), "double release of block {block}");
        q.push_back(block);
        self.free_count.store(q.len() as u32, Ordering::Release);
    }

    /// Blocks available to normal allocation (excludes the reserve).
    pub fn free_blocks(&self) -> u32 {
        self.free_count.load(Ordering::Acquire).saturating_sub(self.reserve)
    }

    /// Blocks in the pool including the reserve.
    pub fn free_blocks_raw(&self) -> u32 {
        self.free_count.load(Ordering::Acquire)
    }

    /// Total blocks the pool was created with.
    pub fn total_blocks(&self) -> u32 {
        self.total_blocks
    }

    /// Reserve floor (diagnostics).
    pub fn reserve(&self) -> u32 {
        self.reserve
    }
}

impl fmt::Debug for FlashPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlashPool")
            .field("free", &self.free_blocks_raw())
            .field("reserve", &self.reserve)
            .field("total_blocks", &self.total_blocks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    fn pool() -> FlashPool {
        FlashPool::new(NandGeometry::tiny(), 2) // 8 blocks, 2 reserved
    }

    #[test]
    fn version_table_bumps_are_per_stripe() {
        let t = VersionTable::new(6);
        assert_eq!(t.stripes(), 64);
        let v0 = t.load(42);
        t.bump(42);
        assert_eq!(t.load(42), v0 + 1);
        // Another signature in a different stripe is unaffected. Find
        // one deterministically rather than assuming the mix.
        let other = (0..1024u64).find(|&s| t.load(s) == 0).expect("64 stripes, 1 bumped");
        t.bump(42);
        assert_eq!(t.load(other), 0);
        assert_eq!(t.load(42), v0 + 2);
    }

    #[test]
    fn version_table_concurrent_bumps_all_land() {
        let t = Arc::new(VersionTable::new(4));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = Arc::clone(&t);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        t.bump(7);
                    }
                });
            }
        });
        assert_eq!(t.load(7), 4000);
    }

    #[test]
    fn leases_are_exclusive() {
        let p = pool();
        let mut seen = HashSet::new();
        while let Ok(b) = p.acquire(AcquireClass::Gc) {
            assert!(seen.insert(b), "block {b} leased twice");
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn reserve_tiers_hold() {
        let p = pool(); // 8 blocks, 2 reserved → metadata floor 1, gc floor 0
        for _ in 0..6 {
            p.acquire(AcquireClass::Normal).unwrap();
        }
        assert_eq!(p.free_blocks(), 0);
        assert_eq!(p.acquire(AcquireClass::Normal), Err(FtlError::NeedsGc));
        assert_eq!(p.free_blocks_raw(), 2);
        // Metadata may take one more; the last block belongs to GC alone.
        assert!(p.acquire(AcquireClass::Metadata).is_ok());
        assert_eq!(p.acquire(AcquireClass::Metadata), Err(FtlError::NeedsGc));
        assert_eq!(p.free_blocks_raw(), 1);
        assert!(p.acquire(AcquireClass::Gc).is_ok());
        assert_eq!(p.acquire(AcquireClass::Gc), Err(FtlError::NeedsGc));
    }

    #[test]
    fn release_recycles() {
        let p = pool();
        let b = p.acquire(AcquireClass::Normal).unwrap();
        let before = p.free_blocks_raw();
        p.release(b);
        assert_eq!(p.free_blocks_raw(), before + 1);
    }

    #[test]
    fn counter_tracks_sums_and_maxima() {
        let c = Counter::new();
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        c.note_max(10);
        assert_eq!(c.get(), 10);
        c.note_max(2);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn concurrent_lease_release_never_duplicates() {
        let p = Arc::new(FlashPool::new(NandGeometry { blocks: 64, ..NandGeometry::tiny() }, 4));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let p = Arc::clone(&p);
                scope.spawn(move || {
                    let mut held = Vec::new();
                    for round in 0..200 {
                        if let Ok(b) = p.acquire(AcquireClass::Normal) {
                            assert!(!held.contains(&b));
                            held.push(b);
                        }
                        if round % 3 == 0 {
                            if let Some(b) = held.pop() {
                                p.release(b);
                            }
                        }
                    }
                    for b in held {
                        p.release(b);
                    }
                });
            }
        });
        assert_eq!(p.free_blocks_raw(), 64);
    }
}
