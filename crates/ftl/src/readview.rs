//! The lock-free get path's index mirror: one shard's `sig → head PPA`.
//!
//! The RHIK directory and its record tables live behind the shard lock.
//! So that gets never take that lock, the index mirrors every change of
//! where a pair lives into a [`ReadView`]: one hash map behind its own
//! short-hold mutex, validated against the device's one [`VersionTable`].
//! A reader holds the map mutex for one hash probe, reads the head page
//! through the narrow media lock, and then [validates](ReadHit::validate)
//! that the signature's stripe has not moved; a failed validation
//! (concurrent update, delete or GC relocation) sends the caller to the
//! locked path. Writers — already serialized by the shard lock — mutate
//! the map, release its mutex, and only then bump the stripe. A reader
//! that took the old head therefore fails validation once the change is
//! visible, and so does one that read a page erased after the change.
//!
//! That bump is the device's only one: the same table is every shard
//! view's validation stripes and the hot cache's invalidation tags, so a
//! cached value is dropped by the same bump that fails a racing reader.
//!
//! The map is keyed by signature, not shaped by the directory, so
//! directory doublings never touch it. It stores only `(signature, head
//! PPA)` pairs — the durable form of every bucket stays on flash — and the
//! ≤1-flash-read lookup bound is preserved: a validated hit costs exactly
//! the record pages it reads, and a miss costs zero flash reads.

use std::collections::HashMap;
use std::sync::Arc;

use rhik_nand::Ppa;
use rhik_sigs::SigMap;

use crate::sync::{Mutex, MutexGuard, VersionTable};

/// The shared read view: one per shard, attached to the index backend
/// (writer side) and to the device's lock-free read path (reader side).
#[derive(Debug)]
pub struct ReadView {
    // bounded-by: one entry per key the attached index holds; every
    // insert, update, relocation and delete of the index funnels here.
    heads: Mutex<SigMap<u64, Ppa>>,
    stripes: Arc<VersionTable>,
}

/// A lookup hit, carrying what the reader needs to re-validate after its
/// optimistic flash read.
pub struct ReadHit<'a> {
    /// Head page holding the pair record (the address the index stores).
    pub head: Ppa,
    sig: u64,
    version: u64,
    stripes: &'a VersionTable,
}

impl ReadHit<'_> {
    /// True iff no writer changed the signature's stripe since the probe —
    /// the flash read observed the published head page and its value can
    /// be returned.
    pub fn validate(&self) -> bool {
        self.stripes.load(self.sig) == self.version
    }
}

impl ReadView {
    /// An empty view whose changes bump `stripes`, the device's one
    /// version table.
    pub fn new(stripes: Arc<VersionTable>) -> Self {
        ReadView { heads: Mutex::new(SigMap::default()), stripes }
    }

    fn heads(&self) -> MutexGuard<'_, SigMap<u64, Ppa>> {
        // Every map mutation is a single call, so a panic cannot leave a
        // poisoned map half-updated.
        self.heads.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Probe the mirror for `sig`: `None` is a miss (zero flash reads),
    /// a hit must be [validated](ReadHit::validate) after the page read.
    /// The stripe version is read under the map mutex, so a hit tagged
    /// with a version that already includes a change's bump carries that
    /// change's head.
    pub fn lookup(&self, sig: u64) -> Option<ReadHit<'_>> {
        let heads = self.heads();
        let version = self.stripes.load(sig);
        let head = *heads.get(&sig)?;
        Some(ReadHit { head, sig, version, stripes: &self.stripes })
    }

    // Writer side: serialized externally by the shard lock; concurrent
    // readers are the case it defends against. Each change bumps the
    // signature's stripe after the map mutex is released.

    /// Map `sig` to `head`, replacing any previous mapping (insert,
    /// in-place update, GC relocation — every sig → PPA change funnels
    /// through here).
    pub fn upsert(&self, sig: u64, head: Ppa) {
        self.heads().insert(sig, head);
        self.stripes.bump(sig);
    }

    /// Drop the mapping for `sig` (delete).
    pub fn remove(&self, sig: u64) {
        self.heads().remove(&sig);
        self.stripes.bump(sig);
    }

    /// Mappings held (tests/diagnostics).
    pub fn entry_count(&self) -> usize {
        self.heads().len()
    }

    /// A copy of every mapping, read-only: what the auditor compares
    /// against the index's own `sig → head` records.
    pub fn entries(&self) -> HashMap<u64, Ppa> {
        self.heads().iter().map(|(&sig, &head)| (sig, head)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn view() -> ReadView {
        ReadView::new(Arc::new(VersionTable::new(10)))
    }

    fn head_of(view: &ReadView, sig: u64) -> Option<Ppa> {
        view.lookup(sig).map(|hit| {
            assert!(hit.validate(), "quiet lookup must validate");
            hit.head
        })
    }

    #[test]
    fn upsert_lookup_remove_roundtrip() {
        let view = view();
        assert!(head_of(&view, 7).is_none());
        view.upsert(7, Ppa::new(1, 2));
        assert_eq!(head_of(&view, 7), Some(Ppa::new(1, 2)));
        let stale = view.lookup(7).expect("mapped");
        view.upsert(7, Ppa::new(3, 4)); // in-place update / relocation
        assert!(!stale.validate(), "a hit taken before the update must not validate");
        assert_eq!(head_of(&view, 7), Some(Ppa::new(3, 4)));
        view.remove(7);
        assert!(head_of(&view, 7).is_none());
        assert_eq!(view.entry_count(), 0);
    }

    #[test]
    fn readers_racing_upserts_validate_only_published_heads() {
        // Key `sig` moves through heads (sig, 1), (sig, 2), … ; the writer
        // publishes each new page in `published` before mapping it, as a
        // device programs a pair before indexing it.
        const SIGS: u64 = 8;
        const ROUNDS: u32 = 400;
        let view = view();
        let published: Vec<AtomicU32> = (0..SIGS).map(|_| AtomicU32::new(0)).collect();
        std::thread::scope(|scope| {
            for t in 0..3u64 {
                let (view, published) = (&view, &published);
                scope.spawn(move || {
                    for round in 0..ROUNDS as u64 {
                        let sig = (t + round) % SIGS;
                        let Some(hit) = view.lookup(sig) else { continue };
                        let page = hit.head.page;
                        assert_eq!(hit.head.block, sig as u32, "head of another key");
                        assert!(
                            page <= published[sig as usize].load(Ordering::SeqCst),
                            "unpublished head {page} for key {sig}"
                        );
                        let newest = published[sig as usize].load(Ordering::SeqCst);
                        if hit.validate() {
                            // Validated ⇒ the stripe never moved, so the
                            // key's head was still `page` at validation.
                            assert!(page + 1 >= newest, "validated a superseded head");
                        }
                    }
                });
            }
            for page in 1..=ROUNDS {
                for sig in 0..SIGS {
                    published[sig as usize].store(page, Ordering::SeqCst);
                    view.upsert(sig, Ppa::new(sig as u32, page));
                }
            }
        });
        assert_eq!(view.entry_count(), SIGS as usize);
    }
}
