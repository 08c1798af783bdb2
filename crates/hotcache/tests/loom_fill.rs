#![cfg(loom)]
//! Loom model of the fill protocol race that version-based invalidation
//! must win: a writer mutates the authoritative "index" and *then*
//! repoints the key in a read view over the cache's version table (the
//! view's bump is the device's only one), while a filler loads the
//! version, reads the index,
//! re-checks the version, and only then admits. Loom explores every
//! interleaving of the two; in all of them a cache hit validated at the
//! current version must equal the index value (no interleaving may park
//! a stale value behind a current version tag).
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p rhik-hotcache --release loom_`

use bytes::Bytes;
use loom::sync::Arc;
use loom::thread;
use rhik_ftl::sync::atomic::{AtomicU64, Ordering};
use rhik_ftl::{ReadView, VersionTable};
use rhik_hotcache::{CacheConfig, CacheLookup, HotCache};
use rhik_nand::Ppa;

const SIG: u64 = 0x5EED_CAFE_F00D_D00D;
const KEY: &[u8] = b"k";

fn value_of(index_value: u64) -> Bytes {
    Bytes::copy_from_slice(&index_value.to_le_bytes())
}

/// The device's version table and one shard's read view over it.
fn shared_table() -> (std::sync::Arc<VersionTable>, Arc<ReadView>) {
    let versions = std::sync::Arc::new(VersionTable::new(2));
    let view = Arc::new(ReadView::new(std::sync::Arc::clone(&versions)));
    (versions, view)
}

/// Store `v` in the index, then repoint the key in the view: the RHIK
/// index's `note_view_upsert` order, whose view upsert bumps the stripe.
fn write(index: &AtomicU64, view: &ReadView, v: u64) {
    index.store(v, Ordering::SeqCst);
    view.upsert(SIG, Ppa::new(0, v as u32));
}

/// One writer performs bump-after-mutate updates; one filler runs the
/// load-version → read-index → re-check-version → admit protocol. After
/// both quiesce, a probe at the current version either misses or serves
/// exactly the final index value.
#[test]
fn loom_fill_race_never_caches_stale_under_current_version() {
    loom::model(|| {
        let index = Arc::new(AtomicU64::new(1));
        let (versions, view) = shared_table();
        let cache = Arc::new(HotCache::new(CacheConfig::with_budget(4096)));

        let writer = {
            let (index, view) = (Arc::clone(&index), Arc::clone(&view));
            thread::spawn(move || {
                for v in 2..=3u64 {
                    write(&index, &view, v);
                }
            })
        };
        let filler = {
            let (index, versions, cache) =
                (Arc::clone(&index), std::sync::Arc::clone(&versions), Arc::clone(&cache));
            thread::spawn(move || {
                // Step 1: version before the index read.
                let v1 = versions.load(SIG);
                // Step 2: the index read (a racing writer may already
                // have mutated — then the re-check must fail).
                let observed = index.load(Ordering::SeqCst);
                // Step 3: re-check before admitting.
                if versions.load(SIG) == v1 {
                    cache.admit(SIG, KEY, value_of(observed), v1);
                }
            })
        };
        writer.join().unwrap();
        filler.join().unwrap();

        let current = versions.load(SIG);
        match cache.get(SIG, KEY, current) {
            CacheLookup::Hit(bytes) => {
                let truth = index.load(Ordering::SeqCst);
                assert_eq!(
                    &bytes[..],
                    &value_of(truth)[..],
                    "current-version hit disagrees with the index"
                );
            }
            CacheLookup::Stale | CacheLookup::Miss => {}
        }
    });
}

/// Two fillers race the same writer (e.g. two readers both missing on a
/// hot key while it is being overwritten): whichever admission lands,
/// a current-version hit still equals the index value.
#[test]
fn loom_concurrent_fills_agree_with_final_index_state() {
    loom::model(|| {
        let index = Arc::new(AtomicU64::new(1));
        let (versions, view) = shared_table();
        let cache = Arc::new(HotCache::new(CacheConfig::with_budget(4096)));

        let writer = {
            let (index, view) = (Arc::clone(&index), Arc::clone(&view));
            thread::spawn(move || write(&index, &view, 2))
        };
        let fillers: Vec<_> = (0..2)
            .map(|_| {
                let (index, versions, cache) =
                    (Arc::clone(&index), std::sync::Arc::clone(&versions), Arc::clone(&cache));
                thread::spawn(move || {
                    let v1 = versions.load(SIG);
                    let observed = index.load(Ordering::SeqCst);
                    if versions.load(SIG) == v1 {
                        cache.admit(SIG, KEY, value_of(observed), v1);
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for f in fillers {
            f.join().unwrap();
        }

        if let CacheLookup::Hit(bytes) = cache.get(SIG, KEY, versions.load(SIG)) {
            assert_eq!(&bytes[..], &value_of(2)[..], "hit after quiesce must be the final write");
        }
    });
}
