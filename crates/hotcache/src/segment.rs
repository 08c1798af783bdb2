//! One cache stripe: a segmented LRU (probation / protected) under a
//! hard per-stripe byte budget, with TinyLFU-gated admission.
//!
//! New entries land in *probation*; a hit while on probation promotes to
//! *protected* (capped at 80 % of the stripe budget, the overflow
//! demoting back to probation). Eviction drains the probation
//! LRU first, so a key must prove itself twice — once to the frequency
//! sketch to get in, once with a real hit to escape probation — before
//! it can displace the protected working set.
//!
//! Everything here is mutated under the stripe's mutex (held by
//! [`HotCache`](crate::HotCache)); no interior synchronization.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;

use crate::sketch::TinyLfu;
use crate::{AdmitReport, CacheLookup};

/// Share of each stripe's budget the protected segment may hold, in
/// percent.
const PROTECTED_PCT: u64 = 80;

/// DRAM charged per entry beyond key+value payload (map node, orders,
/// bookkeeping) — keeps the budget honest for small values.
pub const ENTRY_OVERHEAD: u64 = 64;

/// A resident cache entry.
pub(crate) struct Entry {
    /// Full key bytes: signature collisions must miss, never alias.
    pub key: Box<[u8]>,
    pub value: Bytes,
    /// Stripe version observed *before* the value was read (the fill
    /// version). Serveable only while it equals the current version.
    pub version: u64,
    /// Recency stamp; doubles as the key into the segment order maps.
    stamp: u64,
    protected: bool,
}

impl Entry {
    pub(crate) fn charge(&self) -> u64 {
        self.key.len() as u64 + self.value.len() as u64 + ENTRY_OVERHEAD
    }
}

fn charge_of(key: &[u8], value: &Bytes) -> u64 {
    key.len() as u64 + value.len() as u64 + ENTRY_OVERHEAD
}

pub(crate) struct Stripe {
    map: HashMap<u64, Entry>,
    /// stamp → sig recency orders (first = LRU).
    probation: BTreeMap<u64, u64>,
    protected: BTreeMap<u64, u64>,
    bytes: u64,
    protected_bytes: u64,
    budget: u64,
    protected_cap: u64,
    tick: u64,
    sketch: TinyLfu,
}

impl Stripe {
    pub(crate) fn new(budget: u64) -> Self {
        let protected_cap = budget / 100 * PROTECTED_PCT;
        Stripe {
            // bounded-by: eviction keeps `bytes <= budget`, capping
            // resident entries at what the byte budget admits.
            map: HashMap::new(),
            probation: BTreeMap::new(), // bounded-by: one stamp per resident entry (see map)
            protected: BTreeMap::new(), // bounded-by: one stamp per resident entry (see map)
            bytes: 0,
            protected_bytes: 0,
            budget,
            protected_cap,
            tick: 0,
            // One counter per plausible resident entry, ×8 so the sketch
            // also remembers the non-resident keys competing for entry.
            sketch: TinyLfu::new((budget / ENTRY_OVERHEAD * 8).max(64) as usize),
        }
    }

    fn next_stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Look up `sig`, validating the full key and the fill version.
    /// Every call trains the frequency sketch (hits and misses alike —
    /// TinyLFU needs to see the keys it is keeping *out*).
    pub(crate) fn lookup(&mut self, sig: u64, key: &[u8], current_version: u64) -> CacheLookup {
        self.sketch.record(sig);
        let Some(entry) = self.map.get(&sig) else {
            return CacheLookup::Miss;
        };
        if &*entry.key != key {
            // Signature collision: serve nothing, keep the resident entry.
            return CacheLookup::Miss;
        }
        if entry.version != current_version {
            self.evict_sig(sig);
            return CacheLookup::Stale;
        }
        let value = entry.value.clone();
        self.touch(sig);
        CacheLookup::Hit(value)
    }

    /// Promote a just-hit entry: probation → protected (or refresh its
    /// protected recency), demoting the protected LRU if over the cap.
    fn touch(&mut self, sig: u64) {
        let stamp = self.next_stamp();
        let Some(entry) = self.map.get_mut(&sig) else {
            return;
        };
        let charge = entry.charge();
        if entry.protected {
            self.protected.remove(&entry.stamp);
        } else {
            self.probation.remove(&entry.stamp);
            entry.protected = true;
            self.protected_bytes += charge;
        }
        entry.stamp = stamp;
        self.protected.insert(stamp, sig);
        while self.protected_bytes > self.protected_cap {
            let Some((&lru_stamp, &lru_sig)) = self.protected.iter().next() else {
                break;
            };
            if lru_sig == sig {
                break; // never demote the entry just touched
            }
            self.protected.remove(&lru_stamp);
            let demote_stamp = self.next_stamp();
            if let Some(e) = self.map.get_mut(&lru_sig) {
                e.protected = false;
                e.stamp = demote_stamp;
                self.protected_bytes -= e.charge();
                self.probation.insert(demote_stamp, lru_sig);
            }
        }
    }

    /// Remove `sig` (stale entry, or audit-driven purge), fixing the
    /// byte accounting. Returns true if it was resident.
    pub(crate) fn evict_sig(&mut self, sig: u64) -> bool {
        let Some(entry) = self.map.remove(&sig) else {
            return false;
        };
        self.bytes -= entry.charge();
        if entry.protected {
            self.protected.remove(&entry.stamp);
            self.protected_bytes -= entry.charge();
        } else {
            self.probation.remove(&entry.stamp);
        }
        true
    }

    /// The segment eviction order: probation LRU first, protected LRU
    /// only once probation is empty.
    fn victim(&self) -> Option<u64> {
        self.probation.iter().next().or_else(|| self.protected.iter().next()).map(|(_, &sig)| sig)
    }

    /// Try to admit `(sig, key, value)` filled at `fill_version`.
    ///
    /// Freeing room is TinyLFU-gated: the candidate only displaces a
    /// victim it out-ranks in estimated frequency; otherwise admission
    /// is rejected and the cache keeps its current residents (fail-open
    /// — the caller already has the value from the index).
    pub(crate) fn admit(
        &mut self,
        sig: u64,
        key: &[u8],
        value: Bytes,
        fill_version: u64,
    ) -> AdmitReport {
        let charge = charge_of(key, &value);
        if charge > self.budget {
            return AdmitReport { admitted: false, evicted: 0 };
        }
        // Replace any resident entry for the sig outright (refill after
        // a stale hit, or a sig collision — the newcomer was requested
        // more recently).
        let mut out = AdmitReport::default();
        if self.evict_sig(sig) {
            out.evicted += 1;
        }
        while self.bytes + charge > self.budget {
            let Some(victim) = self.victim() else {
                return out; // budget too small for this entry right now
            };
            if self.sketch.estimate(sig) <= self.sketch.estimate(victim) {
                return out; // candidate does not out-rank the resident
            }
            self.evict_sig(victim);
            out.evicted += 1;
        }
        let stamp = self.next_stamp();
        self.bytes += charge;
        self.probation.insert(stamp, sig);
        self.map.insert(
            sig,
            Entry { key: key.into(), value, version: fill_version, stamp, protected: false },
        );
        out.admitted = true;
        out
    }

    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    pub(crate) fn entries(&self) -> usize {
        self.map.len()
    }

    /// Visit every resident entry (coherence audit snapshot).
    pub(crate) fn for_each(&self, visit: &mut dyn FnMut(u64, &Entry)) {
        for (&sig, entry) in self.map.iter() {
            visit(sig, entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(n: usize) -> Bytes {
        Bytes::copy_from_slice(&vec![0xAB; n])
    }

    #[test]
    fn admit_then_hit_roundtrip() {
        let mut s = Stripe::new(4096);
        let out = s.admit(1, b"k1", val(100), 7);
        assert!(out.admitted);
        match s.lookup(1, b"k1", 7) {
            CacheLookup::Hit(v) => assert_eq!(v.len(), 100),
            _ => panic!("expected hit"),
        }
        assert_eq!(s.entries(), 1);
        assert_eq!(s.bytes(), 100 + 2 + ENTRY_OVERHEAD);
    }

    #[test]
    fn version_mismatch_is_stale_and_self_evicts() {
        let mut s = Stripe::new(4096);
        s.admit(1, b"k1", val(10), 7);
        assert!(matches!(s.lookup(1, b"k1", 8), CacheLookup::Stale));
        assert!(matches!(s.lookup(1, b"k1", 8), CacheLookup::Miss));
        assert_eq!(s.bytes(), 0);
    }

    #[test]
    fn sig_collision_misses_without_evicting() {
        let mut s = Stripe::new(4096);
        s.admit(1, b"k1", val(10), 7);
        assert!(matches!(s.lookup(1, b"other", 7), CacheLookup::Miss));
        assert!(matches!(s.lookup(1, b"k1", 7), CacheLookup::Hit(_)));
    }

    #[test]
    fn budget_is_a_hard_cap() {
        let mut s = Stripe::new(1024);
        for sig in 0..100u64 {
            s.admit(sig, &sig.to_le_bytes(), val(64), 0);
            assert!(s.bytes() <= 1024, "stripe exceeded its budget");
        }
        assert!(s.entries() < 100);
    }

    #[test]
    fn tinylfu_rejects_cold_candidate_against_hot_residents() {
        let mut s = Stripe::new(400); // room for 2 entries, not 3
        s.admit(10, b"hot-a", val(100), 0);
        s.admit(11, b"hot-b", val(100), 0);
        for _ in 0..50 {
            s.lookup(10, b"hot-a", 0);
            s.lookup(11, b"hot-b", 0);
        }
        // One cold access must not displace a 50-hit resident.
        let out = s.admit(99, b"cold", val(100), 0);
        assert!(!out.admitted);
        assert!(matches!(s.lookup(10, b"hot-a", 0), CacheLookup::Hit(_)));
        assert!(matches!(s.lookup(11, b"hot-b", 0), CacheLookup::Hit(_)));
    }

    #[test]
    fn protected_survives_probation_churn() {
        let mut s = Stripe::new(2048);
        s.admit(1, b"keeper", val(100), 0);
        // Hit it so it's promoted to protected.
        assert!(matches!(s.lookup(1, b"keeper", 0), CacheLookup::Hit(_)));
        // Churn enough distinct keys through probation to wrap the budget;
        // make each churn key "popular enough" to pass the gate once.
        for sig in 100..140u64 {
            s.lookup(sig, &sig.to_le_bytes(), 0); // train sketch
            s.lookup(sig, &sig.to_le_bytes(), 0);
            s.admit(sig, &sig.to_le_bytes(), val(100), 0);
        }
        assert!(
            matches!(s.lookup(1, b"keeper", 0), CacheLookup::Hit(_)),
            "protected entry displaced by probation churn"
        );
    }
}
