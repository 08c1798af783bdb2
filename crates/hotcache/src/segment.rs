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
//! Each segment is an intrusive doubly-linked recency list over one slab
//! of entries (MRU at the head), so a hit, a demotion and an eviction are
//! O(1) link updates and a hit allocates nothing.
//!
//! Everything here is mutated under the stripe's mutex (held by
//! [`HotCache`](crate::HotCache)); no interior synchronization.

use bytes::Bytes;
use rhik_sigs::SigMap;

use crate::sketch::TinyLfu;
use crate::{AdmitReport, CacheLookup};

/// Share of each stripe's budget the protected segment may hold, in
/// percent.
const PROTECTED_PCT: u64 = 80;

/// DRAM charged per entry beyond key+value payload (map node, list
/// links, bookkeeping) — keeps the budget honest for small values.
pub const ENTRY_OVERHEAD: u64 = 64;

/// End of a recency list.
const NIL: usize = usize::MAX;

/// A resident cache entry: a slab node on its segment's recency list.
pub(crate) struct Entry {
    /// Full key bytes: signature collisions must miss, never alias.
    pub key: Box<[u8]>,
    pub value: Bytes,
    /// Stripe version observed *before* the value was read (the fill
    /// version). Serveable only while it equals the current version.
    pub version: u64,
    sig: u64,
    protected: bool,
    /// Neighbours on the segment's list, towards MRU and towards LRU.
    prev: usize,
    next: usize,
}

impl Entry {
    /// What a free slab slot holds.
    fn vacant() -> Self {
        Entry {
            key: Box::default(),
            value: Bytes::new(),
            version: 0,
            sig: 0,
            protected: false,
            prev: NIL,
            next: NIL,
        }
    }

    pub(crate) fn charge(&self) -> u64 {
        charge_of(&self.key, &self.value)
    }
}

fn charge_of(key: &[u8], value: &Bytes) -> u64 {
    key.len() as u64 + value.len() as u64 + ENTRY_OVERHEAD
}

/// One segment's recency list over the slab.
struct List {
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
}

impl List {
    const EMPTY: List = List { head: NIL, tail: NIL };
}

pub(crate) struct Stripe {
    /// Signature → slab index of its entry.
    map: SigMap<u64, usize>,
    slab: Vec<Entry>,
    /// Vacant slab slots, reused before the slab grows.
    free: Vec<usize>,
    probation: List,
    protected: List,
    bytes: u64,
    protected_bytes: u64,
    budget: u64,
    protected_cap: u64,
    sketch: TinyLfu,
}

impl Stripe {
    pub(crate) fn new(budget: u64) -> Self {
        let protected_cap = budget / 100 * PROTECTED_PCT;
        Stripe {
            // bounded-by: eviction keeps `bytes <= budget`, capping
            // resident entries at what the byte budget admits.
            map: SigMap::default(),
            slab: Vec::new(), // bounded-by: one node per resident entry (see map), plus free slots
            free: Vec::new(), // bounded-by: recycled slab slots; never exceeds slab len
            probation: List::EMPTY,
            protected: List::EMPTY,
            bytes: 0,
            protected_bytes: 0,
            budget,
            protected_cap,
            // One counter per plausible resident entry, ×8 so the sketch
            // also remembers the non-resident keys competing for entry.
            sketch: TinyLfu::new((budget / ENTRY_OVERHEAD * 8).max(64) as usize),
        }
    }

    fn list(&mut self, protected: bool) -> &mut List {
        if protected {
            &mut self.protected
        } else {
            &mut self.probation
        }
    }

    /// Take node `idx` off its segment's list.
    fn unlink(&mut self, idx: usize) {
        let Entry { prev, next, protected, .. } = self.slab[idx];
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.list(protected).head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.list(protected).tail = prev;
        }
    }

    /// Put node `idx` at the MRU end of its segment's list.
    fn push_mru(&mut self, idx: usize) {
        let protected = self.slab[idx].protected;
        let head = self.list(protected).head;
        self.slab[idx].prev = NIL;
        self.slab[idx].next = head;
        if head != NIL {
            self.slab[head].prev = idx;
        } else {
            self.list(protected).tail = idx;
        }
        self.list(protected).head = idx;
    }

    /// Look up `sig`, validating the full key and the fill version.
    /// Every call trains the frequency sketch (hits and misses alike —
    /// TinyLFU needs to see the keys it is keeping *out*).
    pub(crate) fn lookup(&mut self, sig: u64, key: &[u8], current_version: u64) -> CacheLookup {
        self.sketch.record(sig);
        let Some(&idx) = self.map.get(&sig) else {
            return CacheLookup::Miss;
        };
        let entry = &self.slab[idx];
        if &*entry.key != key {
            // Signature collision: serve nothing, keep the resident entry.
            return CacheLookup::Miss;
        }
        if entry.version != current_version {
            self.evict_sig(sig);
            return CacheLookup::Stale;
        }
        let value = entry.value.clone();
        self.touch(idx);
        CacheLookup::Hit(value)
    }

    /// Promote a just-hit entry: probation → protected (or refresh its
    /// protected recency), demoting the protected LRU to probation MRU
    /// while over the cap.
    fn touch(&mut self, idx: usize) {
        self.unlink(idx);
        if !self.slab[idx].protected {
            self.slab[idx].protected = true;
            self.protected_bytes += self.slab[idx].charge();
        }
        self.push_mru(idx);
        while self.protected_bytes > self.protected_cap {
            let lru = self.protected.tail;
            if lru == idx {
                break; // never demote the entry just touched
            }
            self.unlink(lru);
            self.slab[lru].protected = false;
            self.protected_bytes -= self.slab[lru].charge();
            self.push_mru(lru);
        }
    }

    /// Remove `sig` (stale entry, or audit-driven purge), fixing the
    /// byte accounting. Returns true if it was resident.
    pub(crate) fn evict_sig(&mut self, sig: u64) -> bool {
        let Some(idx) = self.map.remove(&sig) else {
            return false;
        };
        self.unlink(idx);
        let entry = std::mem::replace(&mut self.slab[idx], Entry::vacant());
        self.free.push(idx);
        self.bytes -= entry.charge();
        if entry.protected {
            self.protected_bytes -= entry.charge();
        }
        true
    }

    /// The segment eviction order: probation LRU first, protected LRU
    /// only once probation is empty.
    fn victim(&self) -> Option<u64> {
        let lru =
            if self.probation.tail != NIL { self.probation.tail } else { self.protected.tail };
        (lru != NIL).then(|| self.slab[lru].sig)
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
        self.bytes += charge;
        let entry = Entry {
            key: key.into(),
            value,
            version: fill_version,
            sig,
            protected: false,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = entry;
                idx
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.push_mru(idx);
        self.map.insert(sig, idx);
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
        for (&sig, &idx) in self.map.iter() {
            visit(sig, &self.slab[idx]);
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

    /// The stripe as it was built before the slab lists: the same policy
    /// over two `BTreeMap<stamp, sig>` recency orders. The reference the
    /// slab stripe must match decision for decision.
    mod reference {
        use std::collections::{BTreeMap, HashMap};

        use bytes::Bytes;

        use super::super::{charge_of, PROTECTED_PCT};
        use crate::sketch::TinyLfu;
        use crate::{AdmitReport, CacheLookup, ENTRY_OVERHEAD};

        struct Entry {
            key: Box<[u8]>,
            value: Bytes,
            version: u64,
            stamp: u64,
            protected: bool,
        }

        pub struct Stripe {
            map: HashMap<u64, Entry>,
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
            pub fn new(budget: u64) -> Self {
                Stripe {
                    map: HashMap::new(),
                    probation: BTreeMap::new(),
                    protected: BTreeMap::new(),
                    bytes: 0,
                    protected_bytes: 0,
                    budget,
                    protected_cap: budget / 100 * PROTECTED_PCT,
                    tick: 0,
                    sketch: TinyLfu::new((budget / ENTRY_OVERHEAD * 8).max(64) as usize),
                }
            }

            fn next_stamp(&mut self) -> u64 {
                self.tick += 1;
                self.tick
            }

            pub fn lookup(&mut self, sig: u64, key: &[u8], current_version: u64) -> CacheLookup {
                self.sketch.record(sig);
                let Some(entry) = self.map.get(&sig) else {
                    return CacheLookup::Miss;
                };
                if &*entry.key != key {
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

            fn touch(&mut self, sig: u64) {
                let stamp = self.next_stamp();
                let Some(entry) = self.map.get_mut(&sig) else {
                    return;
                };
                let charge = charge_of(&entry.key, &entry.value);
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
                        break;
                    }
                    self.protected.remove(&lru_stamp);
                    let demote_stamp = self.next_stamp();
                    if let Some(e) = self.map.get_mut(&lru_sig) {
                        e.protected = false;
                        e.stamp = demote_stamp;
                        self.protected_bytes -= charge_of(&e.key, &e.value);
                        self.probation.insert(demote_stamp, lru_sig);
                    }
                }
            }

            pub fn evict_sig(&mut self, sig: u64) -> bool {
                let Some(entry) = self.map.remove(&sig) else {
                    return false;
                };
                let charge = charge_of(&entry.key, &entry.value);
                self.bytes -= charge;
                if entry.protected {
                    self.protected.remove(&entry.stamp);
                    self.protected_bytes -= charge;
                } else {
                    self.probation.remove(&entry.stamp);
                }
                true
            }

            fn victim(&self) -> Option<u64> {
                self.probation
                    .iter()
                    .next()
                    .or_else(|| self.protected.iter().next())
                    .map(|(_, &sig)| sig)
            }

            pub fn admit(
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
                let mut out = AdmitReport::default();
                if self.evict_sig(sig) {
                    out.evicted += 1;
                }
                while self.bytes + charge > self.budget {
                    let Some(victim) = self.victim() else {
                        return out;
                    };
                    if self.sketch.estimate(sig) <= self.sketch.estimate(victim) {
                        return out;
                    }
                    self.evict_sig(victim);
                    out.evicted += 1;
                }
                let stamp = self.next_stamp();
                self.bytes += charge;
                self.probation.insert(stamp, sig);
                self.map.insert(
                    sig,
                    Entry {
                        key: key.into(),
                        value,
                        version: fill_version,
                        stamp,
                        protected: false,
                    },
                );
                out.admitted = true;
                out
            }

            pub fn bytes(&self) -> u64 {
                self.bytes
            }

            /// Resident `(sig, version)` pairs, sorted.
            pub fn resident(&self) -> Vec<(u64, u64)> {
                let mut out: Vec<_> = self.map.iter().map(|(&sig, e)| (sig, e.version)).collect();
                out.sort_unstable();
                out
            }
        }
    }

    fn resident(s: &Stripe) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        s.for_each(&mut |sig, e| out.push((sig, e.version)));
        out.sort_unstable();
        out
    }

    /// What a lookup decided, values included.
    fn kind(lookup: &CacheLookup) -> Option<Option<Bytes>> {
        match lookup {
            CacheLookup::Hit(v) => Some(Some(v.clone())),
            CacheLookup::Stale => Some(None),
            CacheLookup::Miss => None,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The slab stripe makes every decision the `BTreeMap` stripe
        /// made: same lookup outcomes, admissions, evictions, bytes and
        /// residents after each op. Keys `k` and `k + 12` share a
        /// signature (collisions), and a bump makes a signature's cached
        /// version stale.
        #[test]
        fn slab_stripe_decides_like_the_btreemap_stripe(
            entries in 1u64..41,
            ops in proptest::collection::vec((0u8..8, 0u8..24, 0u16..160), 1..600),
        ) {
            let budget = entries * (ENTRY_OVERHEAD + 1 + 80);
            let (mut slab, mut reference) = (Stripe::new(budget), reference::Stripe::new(budget));
            let mut versions = [0u64; 12];
            for (step, (op, k, len)) in ops.into_iter().enumerate() {
                let (sig, key) = (u64::from(k % 12), [k]);
                let version = versions[sig as usize];
                match op {
                    0..=3 => {
                        let (a, b) =
                            (slab.lookup(sig, &key, version), reference.lookup(sig, &key, version));
                        proptest::prop_assert_eq!(kind(&a), kind(&b), "lookup at step {}", step);
                    }
                    4 | 5 => {
                        let value = Bytes::from(vec![k; len as usize]);
                        let (a, b) = (
                            slab.admit(sig, &key, value.clone(), version),
                            reference.admit(sig, &key, value, version),
                        );
                        proptest::prop_assert_eq!(a, b, "admit at step {}", step);
                    }
                    6 => versions[sig as usize] += 1,
                    _ => proptest::prop_assert_eq!(slab.evict_sig(sig), reference.evict_sig(sig)),
                }
                proptest::prop_assert_eq!(slab.bytes(), reference.bytes(), "bytes at step {}", step);
                proptest::prop_assert_eq!(resident(&slab), reference.resident());
            }
        }
    }
}
