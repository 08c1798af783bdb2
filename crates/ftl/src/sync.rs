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
//! * [`EpochDomain`] / [`GenCell`] — epoch-based reclamation and the
//!   generation-published pointer built on it. Readers *pin* the domain
//!   for the few instructions it takes to load the current generation
//!   pointer and take a strong reference; writers publish a new
//!   generation with one atomic swap and *retire* the old one, which is
//!   reclaimed only once no reader can still be inside that window.
//!   This is the lock-free read-path backbone (DESIGN.md §concurrency).
//! * [`SeqLock`] / [`Counter`] — per-bucket version validation for
//!   optimistic readers, and a relaxed statistics counter so hot paths
//!   outside this module never touch a raw atomic directly.
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
use std::sync::Arc;

// Under `RUSTFLAGS="--cfg loom"` every primitive in this module swaps to
// the loom model types, so the loom tests in `tests/loom_pool.rs` and
// `tests/loom_epoch.rs` explore their interleavings without a parallel
// implementation. The rest of the workspace imports its primitives from
// here (not `std::sync`) for the same reason.
#[cfg(loom)]
pub use loom::sync::Condvar;
#[cfg(loom)]
pub use loom::sync::{Mutex, MutexGuard};
#[cfg(not(loom))]
pub use std::sync::Condvar;
#[cfg(not(loom))]
pub use std::sync::{Mutex, MutexGuard};

/// Atomic types for the whole workspace, swapped to the loom models under
/// `--cfg loom`. Firmware code outside this module must not name these
/// directly (wslint `raw-atomic-outside-sync`); it uses the typed
/// primitives below instead.
pub mod atomic {
    #[cfg(loom)]
    pub use loom::sync::atomic::{
        fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
    #[cfg(not(loom))]
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
    };
}

use atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

use rhik_nand::{BlockId, NandGeometry};

use crate::alloc::AcquireClass;
use crate::ftl::FtlError;

// ---------------------------------------------------------------- epochs

/// Pin stripes: more than the thread counts the emulator runs with, so
/// concurrent readers rarely share a stripe's cache line.
const PIN_STRIPES: usize = 16;

/// A cache-line-padded pin counter so reader pins on different stripes
/// never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PinStripe(AtomicU64);

/// Epoch-based reclamation domain (the "pin/quiesce counters" of the
/// lock-free read path).
///
/// Protocol: a reader [`pin`](EpochDomain::pin)s the domain *before*
/// loading a [`GenCell`] pointer and keeps the guard alive until it holds
/// a strong `Arc` reference; a writer that unpublishes an object
/// [`retire`](EpochDomain::retire)s it, and the domain drops retired
/// objects only at a moment when every pin counter reads zero. Any
/// reader that pins *after* that observation can only load pointers
/// published *after* the retirement (SeqCst total order: unpublish ≺
/// retire ≺ quiescence check ≺ late pin ≺ late pointer load), so no
/// retired object is ever dereferenced. Readers that pinned, cloned and
/// unpinned are protected by the `Arc` strong count itself — the epoch
/// only has to cover the clone window.
///
/// The `epoch` counter is advanced on every retirement; it doubles as the
/// generation number handed to [`GenCell::publish`] callers for
/// diagnostics.
pub struct EpochDomain {
    epoch: AtomicU64,
    pins: [PinStripe; PIN_STRIPES],
    /// Retired objects awaiting a quiescent moment. Boxed as `Any` so one
    /// domain can reclaim heterogeneous generations (directory snapshots
    /// and bucket entry lists alike).
    garbage: Mutex<Vec<Box<dyn std::any::Any + Send>>>,
}

impl Default for EpochDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochDomain {
    pub fn new() -> Self {
        EpochDomain {
            epoch: AtomicU64::new(0),
            pins: std::array::from_fn(|_| PinStripe::default()),
            garbage: Mutex::new(Vec::new()),
        }
    }

    /// The stripe this thread pins on — assigned round-robin on first use
    /// so a fixed thread population spreads across stripes.
    fn stripe() -> usize {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % PIN_STRIPES;
        }
        STRIPE.with(|s| *s)
    }

    /// Pin the domain: retirements stay unreclaimed until the returned
    /// guard drops. The critical section must be short — a pointer load
    /// plus a reference-count increment — never a flash read.
    pub fn pin(&self) -> PinGuard<'_> {
        let stripe = Self::stripe();
        self.pins[stripe].0.fetch_add(1, Ordering::SeqCst);
        PinGuard { domain: self, stripe }
    }

    /// Current generation number (advanced by every retirement).
    pub fn generation(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Hand `obj` to the domain for deferred destruction. The caller must
    /// already have unpublished it — after this call no new reader may be
    /// able to reach `obj` through a [`GenCell`].
    pub fn retire<T: Send + 'static>(&self, obj: T) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        self.garbage().push(Box::new(obj));
        self.try_reclaim();
    }

    fn garbage(&self) -> MutexGuard<'_, Vec<Box<dyn std::any::Any + Send>>> {
        // A panic cannot leave the garbage list inconsistent; dropping a
        // poisoned list's contents is still sound.
        self.garbage.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// True while no reader holds a pin. Checked under the garbage lock
    /// so the verdict covers everything already retired.
    pub fn quiescent(&self) -> bool {
        self.pins.iter().all(|p| p.0.load(Ordering::SeqCst) == 0)
    }

    /// Drop retired objects if the domain is quiescent right now. Returns
    /// how many objects were reclaimed.
    pub fn try_reclaim(&self) -> usize {
        let mut garbage = self.garbage();
        if garbage.is_empty() || !self.quiescent() {
            return 0;
        }
        let reclaimed = garbage.len();
        garbage.clear();
        reclaimed
    }

    /// Block (spinning through the scheduler) until all currently retired
    /// objects are reclaimed — shutdown and test hygiene, not a hot path.
    pub fn quiesce(&self) {
        while !self.garbage().is_empty() {
            if self.try_reclaim() == 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Retired objects awaiting reclamation (diagnostics/tests).
    pub fn garbage_len(&self) -> usize {
        self.garbage().len()
    }
}

impl fmt::Debug for EpochDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochDomain")
            .field("epoch", &self.generation())
            .field("garbage", &self.garbage_len())
            .finish()
    }
}

/// An active reader pin; unpins its stripe on drop.
pub struct PinGuard<'a> {
    domain: &'a EpochDomain,
    stripe: usize,
}

impl Drop for PinGuard<'_> {
    fn drop(&mut self) {
        self.domain.pins[self.stripe].0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A generation-published pointer: one `Arc<T>` behind an atomic pointer,
/// replaced wholesale by writers and read without locks.
///
/// All `unsafe` in the workspace lives in this type (plus the paired
/// `Drop`), and every block is justified by the [`EpochDomain`] protocol:
/// the raw pointer always carries exactly one strong count owned by the
/// cell, readers only touch it while pinned, and the swapped-out owner
/// reference is retired rather than dropped.
pub struct GenCell<T: Send + Sync + 'static> {
    ptr: atomic::AtomicPtr<T>,
}

impl<T: Send + Sync + 'static> GenCell<T> {
    pub fn new(initial: Arc<T>) -> Self {
        GenCell { ptr: atomic::AtomicPtr::new(Arc::into_raw(initial).cast_mut()) }
    }

    /// Take a strong reference to the current generation. Lock-free: one
    /// pin, one pointer load, one reference-count increment.
    pub fn load(&self, domain: &EpochDomain) -> Arc<T> {
        let _pin = domain.pin();
        let ptr = self.ptr.load(Ordering::SeqCst);
        // SAFETY: `ptr` came from `Arc::into_raw` (new/publish) and its
        // cell-owned strong count is still outstanding: `publish` retires
        // the swapped-out owner into `domain`, and the domain cannot
        // reclaim it while our pin is held (quiescence requires every pin
        // stripe at zero). Incrementing the strong count under the pin
        // therefore acts on a live Arc allocation, and `from_raw` adopts
        // the count we just added.
        unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        }
    }

    /// Publish `next` as the new current generation and retire the old
    /// one into `domain`. Callers serialize publishes per cell (the shard
    /// writer lock); concurrent readers are the point.
    pub fn publish(&self, domain: &EpochDomain, next: Arc<T>) {
        let old = self.ptr.swap(Arc::into_raw(next).cast_mut(), Ordering::SeqCst);
        // SAFETY: `old` was placed by `new` or a previous `publish`, each
        // of which moved exactly one strong count into the cell; we are
        // the only writer swapping it out, so we uniquely reclaim that
        // count. The resulting Arc is retired, not dropped: readers
        // pinned before the swap may still be incrementing it.
        let old = unsafe { Arc::from_raw(old) };
        domain.retire(old);
    }
}

impl<T: Send + Sync + 'static> Drop for GenCell<T> {
    fn drop(&mut self) {
        let ptr = self.ptr.load(Ordering::SeqCst);
        // SAFETY: dropping the cell ends all access through it; the
        // cell-owned strong count placed by new/publish is released here.
        drop(unsafe { Arc::from_raw(ptr) });
    }
}

impl<T: Send + Sync + fmt::Debug + 'static> fmt::Debug for GenCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GenCell").finish_non_exhaustive()
    }
}

// --------------------------------------------------------------- seqlock

/// Per-bucket sequence lock for optimistic read validation.
///
/// Writers bracket every mutation with [`write_begin`](SeqLock::write_begin)
/// / [`write_end`](SeqLock::write_end) (version becomes odd, then even
/// again); readers snapshot an even version, do their optimistic work —
/// including the record-page flash read — and
/// [`read_validate`](SeqLock::read_validate) afterwards. A failed
/// validation means a concurrent split, in-place update or GC relocation
/// overlapped the read; the caller falls back to the locked path.
#[derive(Debug, Default)]
pub struct SeqLock {
    seq: AtomicU64,
}

impl SeqLock {
    pub fn new() -> Self {
        SeqLock { seq: AtomicU64::new(0) }
    }

    /// Begin an optimistic read: `Some(version)` if no write is in
    /// progress, `None` (caller should fall back) if the version is odd.
    pub fn read_begin(&self) -> Option<u64> {
        let seq = self.seq.load(Ordering::SeqCst);
        (seq & 1 == 0).then_some(seq)
    }

    /// True iff no write overlapped since `begin` was observed.
    pub fn read_validate(&self, begin: u64) -> bool {
        atomic::fence(Ordering::SeqCst);
        self.seq.load(Ordering::SeqCst) == begin
    }

    /// Enter the write critical section (version becomes odd). Writers
    /// are serialized externally (shard writer lock).
    pub fn write_begin(&self) {
        let prev = self.seq.fetch_add(1, Ordering::SeqCst);
        debug_assert!(prev & 1 == 0, "seqlock write_begin while a write is already open");
    }

    /// Leave the write critical section (version even again).
    pub fn write_end(&self) {
        let prev = self.seq.fetch_add(1, Ordering::SeqCst);
        debug_assert!(prev & 1 == 1, "seqlock write_end without a matching write_begin");
    }
}

// -------------------------------------------------------- version table

/// Striped per-bucket invalidation versions for the DRAM hot-object
/// cache tier.
///
/// Every value mutation reaching the index — put, in-place update,
/// delete, GC relocation — bumps the version of the signature's stripe
/// *after* the mutation is applied (the index calls it from the same
/// funnel points that keep the [`crate::ReadView`] coherent). A cache
/// fill reads the stripe version *before* fetching the value and stores
/// the entry tagged with that version; a cached entry is served only
/// while its fill version still equals the stripe's current version.
///
/// Safety argument (the loom model in `rhik-hotcache` pins this down):
/// a wrong-value serve would need a mutation whose bump was already
/// counted in the fill version but whose value effect the fill's read
/// missed. Bumps are SeqCst and happen after the mutation, and the
/// fill's value read synchronizes with the mutator (shard lock or
/// validated seqlock), so "bump visible, mutation invisible" cannot
/// happen. Mutations that land *after* the fill's version read make the
/// entry fail validation — a spurious miss, never a stale hit. Stripe
/// collisions only ever add spurious invalidations (fail-open).
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
    fn epoch_defers_reclaim_while_pinned() {
        let d = EpochDomain::new();
        let pin = d.pin();
        d.retire(vec![1u8, 2, 3]);
        assert_eq!(d.garbage_len(), 1, "pinned reader must hold back reclamation");
        assert_eq!(d.try_reclaim(), 0);
        drop(pin);
        assert_eq!(d.try_reclaim(), 1);
        assert_eq!(d.garbage_len(), 0);
    }

    #[test]
    fn epoch_generation_advances_per_retire() {
        let d = EpochDomain::new();
        assert_eq!(d.generation(), 0);
        d.retire(0u64);
        d.retire(1u64);
        assert_eq!(d.generation(), 2);
    }

    #[test]
    fn gencell_load_sees_latest_publish() {
        let d = EpochDomain::new();
        let cell = GenCell::new(Arc::new(7u64));
        assert_eq!(*cell.load(&d), 7);
        cell.publish(&d, Arc::new(8u64));
        assert_eq!(*cell.load(&d), 8);
        d.quiesce();
        assert_eq!(d.garbage_len(), 0);
    }

    #[test]
    fn gencell_old_generation_survives_until_reader_drops() {
        let d = EpochDomain::new();
        let cell = GenCell::new(Arc::new(String::from("gen0")));
        let held = cell.load(&d);
        cell.publish(&d, Arc::new(String::from("gen1")));
        d.quiesce(); // domain may reclaim its retired owner reference...
        assert_eq!(held.as_str(), "gen0"); // ...but the reader's Arc clone keeps the data alive
        assert_eq!(cell.load(&d).as_str(), "gen1");
    }

    #[test]
    fn gencell_concurrent_publish_load_is_consistent() {
        let d = Arc::new(EpochDomain::new());
        // Invariant payload: both halves always equal — a torn or
        // use-after-retire read would break it.
        let cell = Arc::new(GenCell::new(Arc::new((0u64, 0u64))));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let d = Arc::clone(&d);
                let cell = Arc::clone(&cell);
                scope.spawn(move || {
                    for _ in 0..2000 {
                        let snap = cell.load(&d);
                        assert_eq!(snap.0, snap.1, "reader observed a torn generation");
                    }
                });
            }
            let d = Arc::clone(&d);
            let cell = Arc::clone(&cell);
            scope.spawn(move || {
                for i in 1..=2000u64 {
                    cell.publish(&d, Arc::new((i, i)));
                }
            });
        });
        d.quiesce();
        assert_eq!(d.garbage_len(), 0);
    }

    #[test]
    fn seqlock_validates_quiet_reads_and_rejects_overlapped_ones() {
        let s = SeqLock::new();
        let begin = s.read_begin().expect("no writer active");
        assert!(s.read_validate(begin));
        s.write_begin();
        assert_eq!(s.read_begin(), None, "odd version must turn readers away");
        assert!(!s.read_validate(begin));
        s.write_end();
        assert!(!s.read_validate(begin), "version moved; stale reads must fail");
        let begin = s.read_begin().expect("writer finished");
        assert!(s.read_validate(begin));
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
