//! Property tests: every baseline index matches a `HashMap<sig, ppa>`
//! model under arbitrary op sequences, GC relocation of index blocks
//! included (the same contract RHIK's property suite enforces — every
//! scheme must be interchangeable behind `IndexBackend`).

use proptest::prelude::*;
use rhik_baseline::{LsmConfig, LsmIndex, MultiLevelConfig, MultiLevelIndex};
use rhik_ftl::{Ftl, FtlConfig, FtlError, IndexBackend};
use rhik_nand::{NandGeometry, Ppa};
use rhik_sigs::KeySignature;
use std::collections::HashMap;

fn mix(n: u64) -> u64 {
    let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn big_ftl() -> Ftl {
    Ftl::new(FtlConfig {
        geometry: NandGeometry {
            blocks: 1024,
            pages_per_block: 8,
            page_size: 512,
            spare_size: 16,
            channels: 2,
        },
        ..FtlConfig::tiny()
    })
}

#[derive(Clone, Debug)]
enum Op {
    Insert(u16, u8),
    Remove(u16),
    Lookup(u16),
    Flush,
    /// Relocate every live index page of one written block, as GC does
    /// before erasing it.
    Relocate(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u16>(), any::<u8>()).prop_map(|(k, p)| Op::Insert(k, p)),
        2 => any::<u16>().prop_map(Op::Remove),
        3 => any::<u16>().prop_map(Op::Lookup),
        1 => Just(Op::Flush),
        1 => any::<u16>().prop_map(Op::Relocate),
    ]
}

/// Drive any index against the model; returns false if the index reported
/// a capacity limit (legitimate for the capped baselines).
fn check_against_model<I: IndexBackend>(mut idx: I, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut ftl = big_ftl();
    let mut model: HashMap<u64, Ppa> = HashMap::new();
    for op in ops {
        match op {
            Op::Insert(k, p) => {
                let sig = KeySignature(mix(*k as u64));
                let ppa = Ppa::new(*p as u32 % 512, *p as u32 % 8);
                match idx.insert(&mut ftl, sig, ppa) {
                    Ok(_) => {
                        model.insert(sig.0, ppa);
                    }
                    Err(FtlError::TableFull { .. }) | Err(FtlError::CapacityExhausted) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("insert: {e}"))),
                }
            }
            Op::Remove(k) => {
                let sig = KeySignature(mix(*k as u64));
                let got =
                    idx.remove(&mut ftl, sig).map_err(|e| TestCaseError::fail(format!("{e}")))?;
                prop_assert_eq!(got, model.remove(&sig.0));
            }
            Op::Lookup(k) => {
                let sig = KeySignature(mix(*k as u64));
                let got =
                    idx.lookup(&mut ftl, sig).map_err(|e| TestCaseError::fail(format!("{e}")))?;
                prop_assert_eq!(got, model.get(&sig.0).copied());
            }
            Op::Flush => idx.flush(&mut ftl).map_err(|e| TestCaseError::fail(format!("{e}")))?,
            Op::Relocate(n) => {
                // Nothing is erased here, so index pages fill blocks in
                // allocation order; `n` picks a written block that still
                // holds live pages.
                let written = ftl.stats().index_page_programs.div_ceil(8) as u32;
                let live: Vec<u32> =
                    (0..written).filter(|&b| !idx.live_index_pages_in(b).is_empty()).collect();
                if let Some(&block) = live.get(*n as usize % live.len().max(1)) {
                    for (key, old) in idx.live_index_pages_in(block) {
                        idx.relocate_index_page(&mut ftl, key, old)
                            .map_err(|e| TestCaseError::fail(format!("relocate: {e}")))?;
                    }
                }
            }
        }
        prop_assert_eq!(idx.len(), model.len() as u64);
    }
    for (&raw, &ppa) in &model {
        let got = idx
            .lookup(&mut ftl, KeySignature(raw))
            .map_err(|e| TestCaseError::fail(format!("{e}")))?;
        prop_assert_eq!(got, Some(ppa));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn multilevel_matches_hashmap(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        check_against_model(
            MultiLevelIndex::new(MultiLevelConfig { initial_bits: 1, max_levels: 8, hop_width: 16 }, 512),
            &ops,
        )?;
    }

    #[test]
    fn one_level_matches_hashmap(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        check_against_model(
            MultiLevelIndex::new(MultiLevelConfig { initial_bits: 3, max_levels: 1, hop_width: 16 }, 512),
            &ops,
        )?;
    }

    #[test]
    fn lsm_matches_hashmap(ops in proptest::collection::vec(op_strategy(), 1..300)) {
        check_against_model(
            LsmIndex::new(LsmConfig { memtable_records: 24, max_runs_per_level: 3, max_levels: 4 }),
            &ops,
        )?;
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Drive one hash baseline through a seeded insert/update/remove/lookup
/// stream, flush it, and digest its live index pages together with the
/// flash and page-cache counters that led there.
fn stream_digest(idx: &mut dyn IndexBackend, seed: u64, ops: u32) -> u64 {
    let geometry = NandGeometry {
        blocks: 1024,
        pages_per_block: 8,
        page_size: 512,
        spare_size: 16,
        channels: 2,
    };
    let mut ftl = Ftl::new(FtlConfig { geometry, cache_budget_bytes: 2048, ..FtlConfig::tiny() });
    let mut state = seed;
    for _ in 0..ops {
        state = mix(state);
        let sig = KeySignature(mix(state % 300));
        let ppa = Ppa::new((state >> 20) as u32 % 1000, (state >> 40) as u32 % 8);
        match (state >> 12) % 8 {
            0..=4 => match idx.insert(&mut ftl, sig, ppa) {
                Ok(_) | Err(FtlError::CapacityExhausted) => {}
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
    let mut pages = Vec::new();
    for b in 0..geometry.blocks {
        pages.extend(idx.live_index_pages_in(b));
    }
    pages.sort_unstable_by_key(|&(key, _)| key);
    let mut h = FNV_OFFSET;
    for (key, ppa) in pages {
        let (data, _) = ftl.peek_page(ppa).expect("live page on flash");
        fnv(&mut h, &key.to_le_bytes());
        fnv(&mut h, &data);
    }
    let f = ftl.stats();
    let c = ftl.cache_ref().stats();
    for n in [
        idx.len(),
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

/// Digests recorded before the hash baselines shared one page-table
/// protocol: the multi-level rows with the decode–modify–encode
/// implementation the in-place page operations replaced, the one-level
/// row with the per-index write-back and relocation code (capacity
/// aborts included).
#[test]
fn hash_baseline_pages_and_cache_decisions_are_pinned() {
    let multilevel = MultiLevelConfig { initial_bits: 1, max_levels: 6, hop_width: 8 };
    let one_level = MultiLevelConfig { initial_bits: 3, max_levels: 1, hop_width: 8 };
    for (cfg, digests) in [
        (multilevel, [0xf510_920d_f25c_bf0du64, 0xe862_8239_b6b6_ff82]),
        (one_level, [0x97ca_ab5e_8379_638a, 0xed62_d710_89fc_dfca]),
    ] {
        for (seed, want) in [1u64, 2].into_iter().zip(digests) {
            let got = stream_digest(&mut MultiLevelIndex::new(cfg, 512), seed, 2000);
            assert_eq!(got, want, "digest drifted: {cfg:?} seed {seed}");
        }
    }
}
