//! DRAM hot-object cache tier for the RHIK KVSSD.
//!
//! Sits *above* the index: a `get` probes the cache first and a hit
//! returns the value with zero directory work and zero flash reads —
//! the multiplicative read win on zipf-skewed workloads once the read
//! path itself is lock-free. Three mechanisms (DESIGN.md §cache tier):
//!
//! * **TinyLFU admission** ([`sketch`]): a count-min frequency sketch
//!   with periodic halving gates what may enter; a candidate only
//!   displaces a victim it out-ranks, so scans cannot flush the head.
//! * **Segmented-LRU eviction** ([`segment`]): probation/protected
//!   segments under a *hard* per-stripe byte budget (key + value +
//!   per-entry overhead all charged); the cache never exceeds its cap,
//!   rejecting admission instead (fail-open).
//! * **Version-based invalidation**: every value mutation bumps a
//!   [`VersionTable`](rhik_ftl::sync::VersionTable) stripe after it lands
//!   (the device's one table, bumped by its read views); a fill tags its
//!   entry with the version read *before* the value, and a lookup serves
//!   only entries whose fill version still equals the current one.
//!   Staleness detection is therefore O(1) at the reader with no writer →
//!   cache communication.
//!
//! The cache is sharded into eight lock stripes, each its own mutex, so
//! reader threads rarely contend. All failure modes degrade to a miss —
//! the index stays the sole source of truth.

use bytes::Bytes;
use rhik_ftl::sync::{Counter, Mutex};

pub mod segment;
pub mod sketch;

use segment::Stripe;

/// Per-entry DRAM overhead charged against the budget (re-exported for
/// budget math in benches/tests).
pub use segment::ENTRY_OVERHEAD;

/// Lock stripes the budget is split across (a power of two).
const STRIPES: usize = 8;

/// Hot-object cache configuration. `Copy` so it can ride inside the
/// device config; default is **off** — the cache tier is strictly
/// opt-in and cache-off behavior is bit-identical to a build without it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheConfig {
    /// Hard DRAM budget across all stripes, in bytes; 0 is no cache.
    pub budget_bytes: u64,
}

impl CacheConfig {
    /// The default: no cache tier.
    pub const fn off() -> Self {
        CacheConfig { budget_bytes: 0 }
    }

    /// A cache with `budget_bytes` of DRAM.
    pub const fn with_budget(budget_bytes: u64) -> Self {
        CacheConfig { budget_bytes }
    }

    /// Whether the device runs a cache tier at all.
    pub const fn enabled(&self) -> bool {
        self.budget_bytes > 0
    }
}

/// Outcome of a cache probe.
pub enum CacheLookup {
    /// Current-version hit: serve the value, touch nothing else.
    Hit(Bytes),
    /// A resident entry's fill version was superseded — it has been
    /// dropped; fall through to the index.
    Stale,
    Miss,
}

/// Monotonic counters snapshot (all since construction).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub lookups: u64,
    pub hits: u64,
    pub stale_hits: u64,
    pub admits: u64,
    pub rejects: u64,
    pub evictions: u64,
    /// Resident bytes / entries at snapshot time (gauges, not counters).
    pub bytes: u64,
    pub entries: u64,
}

/// What one [`HotCache::admit`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmitReport {
    /// The entry is now resident.
    pub admitted: bool,
    /// Entries displaced to make room.
    pub evicted: u64,
}

/// One resident entry, exported for the cache↔index coherence audit.
pub struct CacheEntrySnapshot {
    pub sig: u64,
    pub key: Box<[u8]>,
    pub value: Bytes,
    /// The version the entry was filled at. Only entries whose fill
    /// version still matches the table are serveable (and auditable).
    pub version: u64,
}

/// The sharded hot-object cache.
pub struct HotCache {
    stripes: Box<[Mutex<Stripe>]>,
    lookups: Counter,
    hits: Counter,
    stale_hits: Counter,
    admits: Counter,
    rejects: Counter,
    evictions: Counter,
}

impl HotCache {
    /// Build a cache from its config. Callers gate on
    /// [`CacheConfig::enabled`] themselves; a zero budget yields a cache
    /// that admits nothing.
    pub fn new(cfg: CacheConfig) -> Self {
        let per_stripe = cfg.budget_bytes / STRIPES as u64;
        let stripes =
            (0..STRIPES).map(|_| Mutex::new(Stripe::new(per_stripe))).collect::<Vec<_>>().into();
        HotCache {
            stripes,
            lookups: Counter::new(),
            hits: Counter::new(),
            stale_hits: Counter::new(),
            admits: Counter::new(),
            rejects: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// Home stripe of a signature. A different mix shift than the
    /// version table's so stripe and version striping decorrelate.
    #[inline]
    fn home(&self, sig: u64) -> usize {
        ((sig.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) & (STRIPES as u64 - 1)) as usize
    }

    fn lock(&self, idx: usize) -> rhik_ftl::sync::MutexGuard<'_, Stripe> {
        self.stripes[idx].lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Probe the cache. `current_version` must be the signature's
    /// version-table value loaded *before* this call (and before any
    /// fallback index read the caller will make on a miss).
    pub fn get(&self, sig: u64, key: &[u8], current_version: u64) -> CacheLookup {
        self.lookups.incr();
        let lookup = self.lock(self.home(sig)).lookup(sig, key, current_version);
        match lookup {
            CacheLookup::Hit(_) => self.hits.incr(),
            CacheLookup::Stale => self.stale_hits.incr(),
            CacheLookup::Miss => {}
        }
        lookup
    }

    /// Offer `(sig, key, value)` read from the index at `fill_version`.
    ///
    /// The caller must have (1) loaded `fill_version` *before* the index
    /// read and (2) re-checked that the table still holds that version
    /// *after* it — the bump-after-mutate protocol then guarantees the
    /// value is not older than the version it is tagged with.
    pub fn admit(&self, sig: u64, key: &[u8], value: Bytes, fill_version: u64) -> AdmitReport {
        let report = self.lock(self.home(sig)).admit(sig, key, value, fill_version);
        if report.admitted {
            self.admits.incr();
        } else {
            self.rejects.incr();
        }
        self.evictions.add(report.evicted);
        report
    }

    /// Resident bytes across all stripes.
    pub fn bytes(&self) -> u64 {
        (0..self.stripes.len()).map(|i| self.lock(i).bytes()).sum()
    }

    /// Resident entries across all stripes.
    pub fn entries(&self) -> u64 {
        (0..self.stripes.len()).map(|i| self.lock(i).entries() as u64).sum()
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.get(),
            hits: self.hits.get(),
            stale_hits: self.stale_hits.get(),
            admits: self.admits.get(),
            rejects: self.rejects.get(),
            evictions: self.evictions.get(),
            bytes: self.bytes(),
            entries: self.entries(),
        }
    }

    /// Snapshot every resident entry for the cache↔index coherence
    /// audit.
    pub fn snapshot(&self) -> Vec<CacheEntrySnapshot> {
        let mut out = Vec::new();
        for i in 0..self.stripes.len() {
            self.lock(i).for_each(&mut |sig, entry| {
                out.push(CacheEntrySnapshot {
                    sig,
                    key: entry.key.clone(),
                    value: entry.value.clone(),
                    version: entry.version,
                });
            });
        }
        out
    }
}

impl std::fmt::Debug for HotCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HotCache")
            .field("stripes", &self.stripes.len())
            .field("entries", &self.entries())
            .field("bytes", &self.bytes())
            .finish()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use rhik_ftl::sync::VersionTable;
    use std::sync::Arc;

    fn val(n: usize) -> Bytes {
        Bytes::copy_from_slice(&vec![0xCD; n])
    }

    #[test]
    fn fill_then_hit_then_invalidate() {
        let cache = HotCache::new(CacheConfig::with_budget(64 * 1024));
        let versions = VersionTable::new(10);
        let sig = 0xDEAD_BEEF;
        let v1 = versions.load(sig);
        assert!(matches!(cache.get(sig, b"k", v1), CacheLookup::Miss));
        cache.admit(sig, b"k", val(100), v1);
        match cache.get(sig, b"k", versions.load(sig)) {
            CacheLookup::Hit(v) => assert_eq!(v.len(), 100),
            _ => panic!("expected hit"),
        }
        versions.bump(sig); // a put/delete/relocation happened
        assert!(matches!(cache.get(sig, b"k", versions.load(sig)), CacheLookup::Stale));
        assert!(matches!(cache.get(sig, b"k", versions.load(sig)), CacheLookup::Miss));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.stale_hits), (1, 1));
    }

    #[test]
    fn hard_budget_holds_under_load() {
        let budget = 16 * 1024;
        let cache = HotCache::new(CacheConfig::with_budget(budget));
        for sig in 0..2000u64 {
            let key = sig.to_le_bytes();
            cache.get(sig, &key, 0);
            cache.admit(sig, &key, val(100), 0);
            assert!(cache.bytes() <= budget, "cache exceeded its hard budget");
        }
        assert!(cache.entries() > 0);
    }

    #[test]
    fn concurrent_get_admit_with_invalidation_never_serves_stale() {
        let cache = Arc::new(HotCache::new(CacheConfig::with_budget(64 * 1024)));
        let versions = Arc::new(VersionTable::new(8));
        // The index: a mutex-protected value + version bumped after write,
        // mirroring the device protocol.
        let index = Arc::new(Mutex::new(0u64));
        let sig = 7u64;
        std::thread::scope(|scope| {
            // Writer: bump the value, then the version (the funnel order).
            {
                let (index, versions) = (Arc::clone(&index), Arc::clone(&versions));
                scope.spawn(move || {
                    for _ in 0..2000 {
                        *index.lock().unwrap_or_else(|p| p.into_inner()) += 1;
                        versions.bump(sig);
                    }
                });
            }
            for _ in 0..3 {
                let (cache, versions, index) =
                    (Arc::clone(&cache), Arc::clone(&versions), Arc::clone(&index));
                scope.spawn(move || {
                    for _ in 0..2000 {
                        let v1 = versions.load(sig);
                        match cache.get(sig, b"k", v1) {
                            CacheLookup::Hit(v) => {
                                let mut buf = [0u8; 8];
                                buf.copy_from_slice(&v);
                                let cached = u64::from_le_bytes(buf);
                                // The writer makes value == #increments and
                                // bumps after each, so a hit validated at
                                // version v1 must carry the value as of v1
                                // (± the one in-flight mutation). A stale
                                // serve shows up as cached < v1.
                                assert!(
                                    cached >= v1 && cached <= v1 + 1,
                                    "hit at version {v1} served value {cached}"
                                );
                            }
                            CacheLookup::Stale | CacheLookup::Miss => {
                                let value = *index.lock().unwrap_or_else(|p| p.into_inner());
                                if versions.load(sig) == v1 {
                                    cache.admit(
                                        sig,
                                        b"k",
                                        Bytes::copy_from_slice(&value.to_le_bytes()),
                                        v1,
                                    );
                                }
                            }
                        }
                    }
                });
            }
        });
    }
}
