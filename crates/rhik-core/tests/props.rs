//! Property tests: RHIK behaves exactly like a `HashMap<sig, ppa>` under
//! arbitrary insert/update/remove/lookup interleavings — across resizes,
//! cache evictions, write-backs and GC relocation of index blocks — and
//! never needs more than one flash read per lookup, while the lock-free
//! read mirror ([`ReadView`]) it feeds holds exactly the same mapping.
//! `resize_migration_batch: 1` stretches every doubling across as many
//! operations as possible, so the interleavings routinely
//! land mid-migration (keys split between the frozen old directory and
//! the half-populated new one). Tables patched in their page encoding
//! match a `BTreeMap` slot for slot, and pinned digests of the pages an
//! index writes keep the on-flash format — and every cache and flash
//! decision behind it — from drifting.

use proptest::prelude::*;
use rhik_core::{RecordTable, RhikConfig, RhikIndex, TableInsert, TablePage};
use rhik_ftl::{Ftl, FtlConfig, FtlError, IndexBackend, ReadView, VersionTable};
use rhik_nand::{NandGeometry, Ppa};
use rhik_sigs::KeySignature;
use std::collections::{BTreeMap, HashMap};

fn mix(n: u64) -> u64 {
    let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn big_ftl() -> Ftl {
    Ftl::new(FtlConfig {
        geometry: NandGeometry {
            blocks: 512,
            pages_per_block: 8,
            page_size: 512,
            spare_size: 16,
            channels: 2,
        },
        ..FtlConfig::tiny()
    })
}

fn index() -> RhikIndex {
    RhikIndex::new(
        RhikConfig {
            initial_dir_bits: 0,
            hop_width: 16,
            occupancy_threshold: 0.6,
            dir_flush_interval: 64,
            resize_migration_batch: 1,
            ..Default::default()
        },
        512,
    )
}

#[derive(Clone, Debug)]
enum Op {
    Insert(u16, u8),
    Remove(u16),
    Lookup(u16),
    Flush,
    /// Relocate every live index page of one written block, as GC does
    /// before erasing it — mid-migration too, where frozen old tables and
    /// snapshot pages move alongside current ones.
    Relocate(u16),
}

/// Key space of the ops: small enough that updates and removes of live
/// keys are common, large enough to grow through several doublings.
const KEYS: u16 = 1024;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..KEYS, any::<u8>()).prop_map(|(k, p)| Op::Insert(k, p)),
        2 => (0..KEYS).prop_map(Op::Remove),
        3 => (0..KEYS).prop_map(Op::Lookup),
        1 => Just(Op::Flush),
        1 => any::<u16>().prop_map(Op::Relocate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rhik_matches_hashmap(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut ftl = big_ftl();
        let mut idx = index();
        let mut model: HashMap<u64, Ppa> = HashMap::new();
        let view = std::sync::Arc::new(ReadView::new(std::sync::Arc::new(VersionTable::new(10))));
        prop_assert!(idx.attach_read_view(std::sync::Arc::clone(&view)));

        for op in ops {
            match op {
                Op::Insert(k, p) => {
                    let sig = KeySignature(mix(k as u64));
                    let ppa = Ppa::new(p as u32 % 512, p as u32 % 8);
                    match idx.insert(&mut ftl, sig, ppa) {
                        Ok(_) => {
                            model.insert(sig.0, ppa);
                        }
                        // The paper's legitimate abort: hop-range full. The
                        // index must stay consistent, the key is just not
                        // stored.
                        Err(rhik_ftl::FtlError::TableFull { .. }) => {}
                        Err(e) => prop_assert!(false, "insert failed: {e}"),
                    }
                }
                Op::Remove(k) => {
                    let sig = KeySignature(mix(k as u64));
                    let got = idx.remove(&mut ftl, sig).unwrap();
                    prop_assert_eq!(got, model.remove(&sig.0));
                }
                Op::Lookup(k) => {
                    let sig = KeySignature(mix(k as u64));
                    let got = idx.lookup(&mut ftl, sig).unwrap();
                    prop_assert_eq!(got, model.get(&sig.0).copied());
                }
                Op::Flush => {
                    idx.flush(&mut ftl).unwrap();
                }
                Op::Relocate(n) => {
                    // Nothing is erased here, so index pages fill blocks in
                    // allocation order; `n` picks a written block that still
                    // holds live pages.
                    let written = ftl.stats().index_page_programs.div_ceil(8) as u32;
                    let live: Vec<u32> = (0..written)
                        .filter(|&b| !idx.live_index_pages_in(b).is_empty())
                        .collect();
                    if let Some(&block) = live.get(n as usize % live.len().max(1)) {
                        for (key, old) in idx.live_index_pages_in(block) {
                            idx.relocate_index_page(&mut ftl, key, old).unwrap();
                        }
                    }
                }
            }
            prop_assert_eq!(idx.len(), model.len() as u64);
            // The lock-free read mirror follows the index through
            // doublings, relocation, removes and `TableFull` aborts.
            prop_assert_eq!(view.entry_count(), model.len());
            for (&raw, &ppa) in &model {
                prop_assert_eq!(view.lookup(raw).map(|hit| hit.head), Some(ppa));
            }
        }

        // Final sweep: every model key is present with the right value, and
        // no lookup ever needed more than one flash read.
        for (&raw, &ppa) in &model {
            prop_assert_eq!(idx.lookup(&mut ftl, KeySignature(raw)).unwrap(), Some(ppa));
        }
        prop_assert!(idx.stats().pct_lookups_within(1) > 100.0 - 1e-9);
    }

    /// The record table in isolation matches a HashMap for any op sequence.
    #[test]
    fn table_matches_hashmap(ops in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..200)) {
        let mut t = RecordTable::new(60, 16);
        let mut model: HashMap<u64, Ppa> = HashMap::new();
        for (k, is_insert) in ops {
            let sig = KeySignature(mix(k as u64));
            let ppa = Ppa::new(k as u32, 0);
            if is_insert {
                match t.insert(sig, ppa) {
                    TableInsert::Inserted => {
                        prop_assert!(!model.contains_key(&sig.0));
                        model.insert(sig.0, ppa);
                    }
                    TableInsert::Updated { old } => {
                        prop_assert_eq!(Some(old), model.insert(sig.0, ppa));
                    }
                    TableInsert::Full => {
                        prop_assert!(!model.contains_key(&sig.0));
                    }
                }
            } else {
                prop_assert_eq!(t.remove(sig), model.remove(&sig.0));
            }
            t.check_invariants().map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(t.len() as usize, model.len());
        }
        for (&raw, &ppa) in &model {
            prop_assert_eq!(t.lookup(KeySignature(raw)), Some(ppa));
        }
    }

    /// A table patched in its page encoding matches a `BTreeMap` under
    /// random insert/update/remove/lookup sequences, keeps the hopscotch
    /// invariants after every operation, and leaves the page untouched
    /// when an insert ends `Full`.
    #[test]
    fn page_table_matches_btreemap(
        ops in proptest::collection::vec((0u8..4, any::<u8>(), any::<u16>()), 1..300)
    ) {
        const R: u32 = 48;
        let mut page = RecordTable::new(R, 6).to_page(R as usize * 17 + 9).to_vec();
        let mut oracle: BTreeMap<u64, Ppa> = BTreeMap::new();
        for (kind, k, p) in ops {
            let sig = KeySignature(mix(k as u64 % 90));
            let ppa = Ppa::new(p as u32, (p % 8) as u32);
            let before = page.clone();
            let mut table = TablePage::new(&mut page[..], R, 6);
            let mut full = false;
            match kind {
                0 | 1 => match table.insert(sig, ppa).0 {
                    TableInsert::Inserted => {
                        prop_assert!(oracle.insert(sig.0, ppa).is_none());
                    }
                    TableInsert::Updated { old } => {
                        prop_assert_eq!(oracle.insert(sig.0, ppa), Some(old));
                    }
                    TableInsert::Full => {
                        prop_assert!(!oracle.contains_key(&sig.0));
                        full = true;
                    }
                },
                2 => prop_assert_eq!(table.remove(sig), oracle.remove(&sig.0)),
                _ => prop_assert_eq!(table.lookup(sig), oracle.get(&sig.0).copied()),
            }
            if full || kind == 3 {
                prop_assert!(page == before, "a failed insert or a lookup changed the page");
            }
            let table = TablePage::new(&page[..], R, 6);
            table.check_invariants(oracle.len() as u32).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let mut stored: Vec<(u64, Ppa)> = table.iter().map(|(s, p)| (s.0, p)).collect();
            stored.sort_unstable();
            prop_assert_eq!(stored, oracle.iter().map(|(&s, &p)| (s, p)).collect::<Vec<_>>());
        }
        prop_assert!(page[R as usize * 17..].iter().all(|&b| b == 0), "padding untouched");
    }

    /// Page serialization round-trips arbitrary table states.
    #[test]
    fn table_page_roundtrip(keys in proptest::collection::hash_set(any::<u32>(), 0..40)) {
        let mut t = RecordTable::new(60, 16);
        for &k in &keys {
            let _ = t.insert(KeySignature(mix(k as u64)), Ppa::new(k % 100, k % 8));
        }
        let page = t.to_page(60 * 17 + 7);
        let back = RecordTable::from_page(&page, 60, 16);
        prop_assert_eq!(back.len(), t.len());
        for (sig, ppa) in t.iter() {
            prop_assert_eq!(back.lookup(sig), Some(ppa));
        }
        back.check_invariants().map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
}

/// Grow an index through many resizes with a tiny cache, then verify the
/// ≤1-read bound holds on a cold cache (the hard case for the guarantee).
#[test]
fn one_read_bound_cold_cache() {
    let mut ftl = big_ftl();
    let mut idx = index();
    const N: u64 = 2_000;
    for i in 0..N {
        idx.insert(&mut ftl, KeySignature(mix(i)), Ppa::new((i % 500) as u32, (i % 8) as u32))
            .unwrap();
    }
    idx.flush(&mut ftl).unwrap();
    assert!(idx.stats().resizes.len() >= 5, "resizes: {}", idx.stats().resizes.len());

    // Evict everything: walk keys until the cache only holds recent tables.
    let before = idx.stats().clone();
    for i in 0..N {
        assert!(
            idx.lookup(&mut ftl, KeySignature(mix(i))).unwrap().is_some(),
            "key {i} lost across {} resizes",
            idx.stats().resizes.len()
        );
    }
    let after = idx.stats();
    let lookups = after.lookups - before.lookups;
    let reads = after.metadata_flash_reads - before.metadata_flash_reads;
    assert!(reads <= lookups, "more than one read per lookup: {reads}/{lookups}");
    assert!(after.pct_lookups_within(1) > 100.0 - 1e-9);
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Drive one index through a seeded insert/update/remove/lookup stream,
/// flush it, and digest every table page it left on flash together with
/// the flash and page-cache counters that led there.
fn index_stream_digest(cfg: RhikConfig, cache_bytes: usize, seed: u64, ops: u32) -> u64 {
    let geometry = NandGeometry {
        blocks: 1024,
        pages_per_block: 8,
        page_size: 512,
        spare_size: 16,
        channels: 2,
    };
    let mut ftl =
        Ftl::new(FtlConfig { geometry, cache_budget_bytes: cache_bytes, ..FtlConfig::tiny() });
    let mut idx = RhikIndex::new(cfg, geometry.page_size);
    let mut state = seed;
    for _ in 0..ops {
        state = mix(state);
        let sig = KeySignature(mix(state % 600));
        let ppa = Ppa::new((state >> 20) as u32 % 1000, (state >> 40) as u32 % 8);
        match (state >> 12) % 8 {
            0..=4 => match idx.insert(&mut ftl, sig, ppa) {
                Ok(_) | Err(FtlError::TableFull { .. }) => {}
                Err(e) => panic!("insert: {e}"),
            },
            5 | 6 => {
                idx.remove(&mut ftl, sig).unwrap();
            }
            _ => {
                idx.lookup(&mut ftl, sig).unwrap();
            }
        }
    }
    idx.flush(&mut ftl).unwrap();
    let mut h = FNV_OFFSET;
    let dir = idx.directory();
    for slot in 0..dir.len() as u32 {
        let e = dir.entry(slot);
        for ppa in [e.table_ppa, e.overflow_ppa].into_iter().flatten() {
            let (data, _) = ftl.peek_page(ppa).expect("directory page on flash");
            fnv(&mut h, &data);
        }
    }
    let f = ftl.stats();
    let c = ftl.cache_ref().stats();
    for n in [
        idx.len(),
        dir.bits() as u64,
        f.index_page_reads,
        f.index_page_programs,
        c.hits,
        c.misses,
        c.insertions,
        c.evictions,
        c.dirty_evictions,
    ] {
        fnv(&mut h, &n.to_le_bytes());
    }
    h
}

/// The encoded page of a table after a seeded insert/update/remove
/// stream that stays below the hop-range limit.
fn table_stream_digest(records: u32, hop: u32, seed: u64, ops: u32) -> u64 {
    let mut t = RecordTable::new(records, hop);
    let mut state = seed;
    for _ in 0..ops {
        state = mix(state);
        let sig = KeySignature(mix(state % (records as u64)));
        if (state >> 12).is_multiple_of(3) {
            t.remove(sig);
        } else {
            let out = t.insert(sig, Ppa::new((state >> 20) as u32 % 1000, 1));
            assert_ne!(out, TableInsert::Full, "stream must stay below the hop-range limit");
        }
    }
    let mut h = FNV_OFFSET;
    fnv(&mut h, &t.to_page(records as usize * 17 + 3));
    h
}

/// Digests recorded with the decode–modify–encode implementation the
/// in-place page operations replaced: same page bytes, same cache hits,
/// misses, insertions and evictions, same flash reads and programs.
#[test]
#[cfg_attr(miri, ignore = "24 000 index operations; the paths are covered by the tests above")]
fn page_bytes_and_cache_decisions_are_pinned() {
    let base = RhikConfig {
        initial_dir_bits: 0,
        hop_width: 16,
        occupancy_threshold: 0.6,
        dir_flush_interval: 64,
        resize_migration_batch: 1,
        ..Default::default()
    };
    let hyper_local =
        RhikConfig { hop_width: 4, occupancy_threshold: 0.9, hyper_local: true, ..base };
    let stop_the_world = RhikConfig { hop_width: 8, resize_migration_batch: u32::MAX, ..base };
    // 256 B of cache is smaller than one 512 B page: every table bounces.
    let tiny_cache = RhikConfig { initial_dir_bits: 2, ..base };
    let pinned = [
        (base, 4096, [0x8493_7bef_563f_161a, 0x4153_1eb5_e5d1_7bbc]),
        (hyper_local, 4096, [0x6fd9_436a_d34f_8f10, 0xec25_c803_c554_91e3]),
        (stop_the_world, 2048, [0x3685_49dd_7da4_0e46, 0x5708_3622_9239_f707]),
        (tiny_cache, 256, [0x9d06_dcbb_5061_e3a3, 0x07b2_1f0a_a159_1b78]),
    ];
    for (cfg, cache, digests) in pinned {
        for (seed, want) in [1u64, 2].into_iter().zip(digests) {
            let got = index_stream_digest(cfg, cache, seed, 3000);
            assert_eq!(got, want, "index digest drifted: {cfg:?} cache {cache} seed {seed}");
        }
    }
    for (r, hop, seed, want) in [
        (60u32, 16u32, 1u64, 0x2efe_e7e6_170f_0bc5u64),
        (60, 32, 2, 0xf5ab_efdb_e846_a90a),
        (120, 8, 3, 0xeb52_738c_6ea1_4ae5),
    ] {
        assert_eq!(table_stream_digest(r, hop, seed, 400), want, "table {r}/{hop} seed {seed}");
    }
}
