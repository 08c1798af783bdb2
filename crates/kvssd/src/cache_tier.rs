//! The device side of the DRAM hot-object cache tier: one
//! [`CacheTier`] per [`crate::ShardedKvssd`], shared by its shards,
//! pairing the [`HotCache`] with the device's one [`VersionTable`] — the
//! table every shard's read view bumps after each index change.
//!
//! The fill protocol (the whole correctness story, pinned down by the
//! loom model in `rhik-hotcache`):
//!
//! 1. [`CacheTier::probe`] loads the signature's stripe version `v1`
//!    *before* any index work. A hit validated at `v1` serves from DRAM;
//!    a stale or absent entry falls through carrying `v1`.
//! 2. The caller reads the value through the index — either under the
//!    shard lock or via the validated lock-free path, both of which
//!    synchronize with every index mutation.
//! 3. [`CacheTier::try_admit`] re-loads the version and admits only if
//!    it still equals `v1`. The view bumps *after* the index mutated, so
//!    "bump visible at step 1, mutation invisible at step 2" cannot
//!    happen — any interleaved writer either fails the step-3 re-check
//!    (no admission, a spurious refill later) or its value was already
//!    what step 2 read.
//!
//! Every failure mode — version raced, budget full, TinyLFU rejection —
//! degrades to a plain index read. The cache never answers for the
//! index; it only short-circuits reads it can prove current. What a
//! probe or an admission did is recorded by the shard that ran it.

use std::sync::Arc;

use bytes::Bytes;
use rhik_ftl::sync::VersionTable;
use rhik_hotcache::{AdmitReport, CacheConfig, CacheLookup, HotCache};
use rhik_sigs::KeySignature;

pub(crate) struct CacheTier {
    pub(crate) cache: HotCache,
    pub(crate) versions: Arc<VersionTable>,
}

impl CacheTier {
    pub(crate) fn new(cfg: CacheConfig, versions: Arc<VersionTable>) -> Self {
        CacheTier { cache: HotCache::new(cfg), versions }
    }

    /// Step 1 of the fill protocol (see module docs): the fill version,
    /// and what the cache holds at it.
    pub(crate) fn probe(&self, sig: KeySignature, key: &[u8]) -> (u64, CacheLookup) {
        let v1 = self.versions.load(sig.0);
        (v1, self.cache.get(sig.0, key, v1))
    }

    /// Step 3 of the fill protocol: re-check the version, then admit.
    /// `None` when a writer landed between the version read and the
    /// value read — the value may predate it, so it is not offered; the
    /// next get re-fills at the new version.
    pub(crate) fn try_admit(
        &self,
        sig: KeySignature,
        key: &[u8],
        value: &Bytes,
        fill_version: u64,
    ) -> Option<AdmitReport> {
        (self.versions.load(sig.0) == fill_version)
            .then(|| self.cache.admit(sig.0, key, value.clone(), fill_version))
    }
}
