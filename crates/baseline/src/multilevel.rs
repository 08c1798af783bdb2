//! The Samsung-style multi-level hash index, and with one level the
//! NVMKV-style fixed hash index.
//!
//! "Samsung KVSSD uses a multi-level hash table as the primary index" \[7\].
//! Our model grows by *appending levels*: when an insert cannot find room
//! in any existing level, a new level with twice the previous level's table
//! count is appended — the growth points visible as vertical lines in
//! Fig. 2. Lookups probe levels newest-capacity-last in insertion order,
//! paying up to one flash read per probed level; this is exactly the
//! behaviour RHIK's ≤ 1-read design eliminates.
//!
//! `max_levels: 1` is NVMKV/KVFTL's single table (\[4\], §III): sized at
//! initialization and never grown, so at most one flash read per lookup
//! but a hard key-count cap.

use rhik_core::pages::{self, CachedTables};
use rhik_core::TableInsert;
use rhik_ftl::{Ftl, FtlError, IndexBackend, IndexStats, InsertOutcome};
use rhik_nand::Ppa;
use rhik_sigs::KeySignature;

/// Configuration of the multi-level baseline.
#[derive(Clone, Copy, Debug)]
pub struct MultiLevelConfig {
    /// Table count of level 0 is `2^initial_bits`.
    pub initial_bits: u32,
    /// Hard cap on levels; inserting past it fails with
    /// [`FtlError::CapacityExhausted`] — the bounded-key-count behaviour
    /// observed on the real device (§III: ~3.1 B keys on a 3.84 TB PM983).
    /// One level is the NVMKV-style fixed table.
    pub max_levels: u32,
    /// Hopscotch hop width within each table.
    pub hop_width: u32,
}

impl Default for MultiLevelConfig {
    fn default() -> Self {
        MultiLevelConfig { initial_bits: 2, max_levels: 8, hop_width: 32 }
    }
}

struct Level {
    bits: u32,
    /// Per-table flash location (None = empty, never persisted).
    tables: Vec<Option<Ppa>>,
    /// Per-table record count (DRAM bookkeeping).
    records: Vec<u32>,
}

impl Level {
    fn new(bits: u32) -> Self {
        Level { bits, tables: vec![None; 1 << bits], records: vec![0; 1 << bits] }
    }

    fn slot_of(&self, sig: KeySignature) -> u32 {
        sig.low_bits(self.bits) as u32
    }
}

/// Samsung-KVSSD-style multi-level hash index.
pub struct MultiLevelIndex {
    cfg: MultiLevelConfig,
    levels: Vec<Level>,
    records_per_table: u32,
    len: u64,
    stats: IndexStats,
    /// Keys appended when each level was added (for Fig. 2's growth lines).
    growth_points: Vec<u64>,
}

impl MultiLevelIndex {
    pub fn new(cfg: MultiLevelConfig, page_size: u32) -> Self {
        assert!(cfg.max_levels >= 1);
        let records_per_table = page_size / rhik_core::IndexRecord::PACKED_LEN as u32;
        assert!(records_per_table >= cfg.hop_width, "page too small for hop width");
        MultiLevelIndex {
            levels: vec![Level::new(cfg.initial_bits)],
            cfg,
            records_per_table,
            len: 0,
            stats: IndexStats::default(),
            growth_points: Vec::new(),
        }
    }

    /// Number of levels currently in use.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Key counts at which new levels were appended (Fig. 2's vertical
    /// lines).
    pub fn growth_points(&self) -> &[u64] {
        &self.growth_points
    }

    /// Cache key for (level, slot): levels live in the same shared cache
    /// as everything else.
    fn cache_key(level: usize, slot: u32) -> u64 {
        ((level as u64 + 1) << 40) | slot as u64
    }

    /// Load the table at (level, slot); returns (table, flash reads).
    fn load_table(
        &mut self,
        ftl: &mut Ftl,
        level: usize,
        slot: u32,
    ) -> Result<(pages::Table, u64), FtlError> {
        pages::load(self, ftl, Self::cache_key(level, slot))
    }
}

impl CachedTables for MultiLevelIndex {
    fn table_shape(&self) -> (u32, u32) {
        (self.records_per_table, self.cfg.hop_width)
    }

    fn stats_mut(&mut self) -> &mut IndexStats {
        &mut self.stats
    }

    fn table_ppa(&mut self, key: u64) -> Option<&mut Option<Ppa>> {
        let level = ((key >> 40) as usize).checked_sub(1)?;
        self.levels.get_mut(level)?.tables.get_mut((key & 0xff_ffff_ffff) as usize)
    }

    /// Levels in order, slots ascending.
    fn tables(&self) -> impl Iterator<Item = (u64, Option<Ppa>, u32)> + '_ {
        self.levels.iter().enumerate().flat_map(|(level, l)| {
            l.tables.iter().zip(&l.records).enumerate().map(move |(slot, (&ppa, &records))| {
                (Self::cache_key(level, slot as u32), ppa, records)
            })
        })
    }
}

impl IndexBackend for MultiLevelIndex {
    fn insert(
        &mut self,
        ftl: &mut Ftl,
        sig: KeySignature,
        ppa: Ppa,
    ) -> Result<InsertOutcome, FtlError> {
        self.stats.inserts += 1;

        // Pass 1: if the signature exists in any level, update in place.
        for level in 0..self.levels.len() {
            let slot = self.levels[level].slot_of(sig);
            if self.levels[level].records[slot as usize] == 0 {
                continue;
            }
            let (mut table, _) = self.load_table(ftl, level, slot)?;
            if table.lookup(ftl, sig).is_some() {
                let (TableInsert::Updated { old }, _) = table.insert(ftl, sig, ppa) else {
                    unreachable!("lookup said present");
                };
                table.save(self, ftl)?;
                return Ok(InsertOutcome::Updated { old });
            }
        }

        // Pass 2: first level with room wins.
        loop {
            for level in 0..self.levels.len() {
                let slot = self.levels[level].slot_of(sig);
                if self.levels[level].records[slot as usize] >= self.records_per_table {
                    continue;
                }
                let (mut table, _) = self.load_table(ftl, level, slot)?;
                match table.insert(ftl, sig, ppa).0 {
                    TableInsert::Inserted => {
                        self.levels[level].records[slot as usize] += 1;
                        self.len += 1;
                        table.save(self, ftl)?;
                        return Ok(InsertOutcome::Inserted);
                    }
                    TableInsert::Updated { .. } => unreachable!("pass 1 checked"),
                    TableInsert::Full => continue, // hop-range full, try next level
                }
            }
            // No level had room: append one (the Fig. 2 growth cliff).
            if self.levels.len() as u32 >= self.cfg.max_levels {
                self.stats.insert_aborts += 1;
                return Err(FtlError::CapacityExhausted);
            }
            let next_bits = self.levels.last().expect("nonempty").bits + 1;
            self.levels.push(Level::new(next_bits));
            self.growth_points.push(self.len);
        }
    }

    fn lookup(&mut self, ftl: &mut Ftl, sig: KeySignature) -> Result<Option<Ppa>, FtlError> {
        self.stats.lookups += 1;
        let mut reads = 0;
        let mut found = None;
        for level in 0..self.levels.len() {
            let slot = self.levels[level].slot_of(sig);
            if self.levels[level].records[slot as usize] == 0 {
                continue;
            }
            let (table, r) = self.load_table(ftl, level, slot)?;
            reads += r;
            if let Some(ppa) = table.lookup(ftl, sig) {
                found = Some(ppa);
                break;
            }
        }
        self.stats.count_lookup(reads);
        Ok(found)
    }

    fn remove(&mut self, ftl: &mut Ftl, sig: KeySignature) -> Result<Option<Ppa>, FtlError> {
        self.stats.removes += 1;
        for level in 0..self.levels.len() {
            let slot = self.levels[level].slot_of(sig);
            if self.levels[level].records[slot as usize] == 0 {
                continue;
            }
            let (mut table, _) = self.load_table(ftl, level, slot)?;
            if let Some(ppa) = table.remove(ftl, sig) {
                self.levels[level].records[slot as usize] -= 1;
                self.len -= 1;
                table.save(self, ftl)?;
                return Ok(Some(ppa));
            }
        }
        Ok(None)
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn capacity(&self) -> Option<u64> {
        // Capacity if all permitted levels were materialized.
        let cap = (0..self.cfg.max_levels)
            .map(|l| (1u64 << (self.cfg.initial_bits + l)) * self.records_per_table as u64)
            .sum();
        Some(cap)
    }

    fn dram_bytes(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| (l.tables.len() * (std::mem::size_of::<Option<Ppa>>() + 4)) as u64)
            .sum()
    }

    fn stats(&self) -> &IndexStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "multilevel"
    }

    fn flush(&mut self, ftl: &mut Ftl) -> Result<(), FtlError> {
        pages::flush_dirty(self, ftl)
    }

    fn scan_records(
        &mut self,
        ftl: &mut Ftl,
        visit: &mut dyn FnMut(KeySignature, Ppa),
    ) -> Result<(), FtlError> {
        pages::scan_records(self, ftl, visit)
    }

    fn live_index_pages_in(&self, block: u32) -> Vec<(u64, Ppa)> {
        pages::live_pages_in(self, block)
    }

    fn relocate_index_page(
        &mut self,
        ftl: &mut Ftl,
        key: u64,
        old: Ppa,
    ) -> Result<Option<Ppa>, FtlError> {
        pages::relocate(self, ftl, key, old)
    }
}

impl std::fmt::Debug for MultiLevelIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiLevelIndex")
            .field("levels", &self.levels.len())
            .field("keys", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhik_ftl::FtlConfig;
    use rhik_nand::NandGeometry;

    fn mix(n: u64) -> KeySignature {
        let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        KeySignature(z ^ (z >> 31))
    }

    fn setup(blocks: u32) -> (Ftl, MultiLevelIndex) {
        let ftl = Ftl::new(FtlConfig {
            geometry: NandGeometry {
                blocks,
                pages_per_block: 8,
                page_size: 512,
                spare_size: 16,
                channels: 2,
            },
            ..FtlConfig::tiny()
        });
        let idx = MultiLevelIndex::new(
            MultiLevelConfig { initial_bits: 1, max_levels: 8, hop_width: 16 },
            512,
        );
        (ftl, idx)
    }

    #[test]
    fn basic_crud() {
        let (mut ftl, mut idx) = setup(64);
        let p = Ppa::new(3, 4);
        assert_eq!(idx.insert(&mut ftl, mix(1), p).unwrap(), InsertOutcome::Inserted);
        assert_eq!(idx.lookup(&mut ftl, mix(1)).unwrap(), Some(p));
        assert_eq!(
            idx.insert(&mut ftl, mix(1), Ppa::new(5, 6)).unwrap(),
            InsertOutcome::Updated { old: p }
        );
        assert_eq!(idx.remove(&mut ftl, mix(1)).unwrap(), Some(Ppa::new(5, 6)));
        assert_eq!(idx.lookup(&mut ftl, mix(1)).unwrap(), None);
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn grows_levels_and_records_growth_points() {
        let (mut ftl, mut idx) = setup(512);
        for i in 0..1200u64 {
            idx.insert(&mut ftl, mix(i), Ppa::new(0, 0)).unwrap();
        }
        assert!(idx.level_count() >= 3, "levels: {}", idx.level_count());
        assert_eq!(idx.growth_points().len(), idx.level_count() - 1);
        // Growth points are increasing key counts.
        for w in idx.growth_points().windows(2) {
            assert!(w[0] < w[1]);
        }
        for i in 0..1200u64 {
            assert!(idx.lookup(&mut ftl, mix(i)).unwrap().is_some(), "key {i} lost");
        }
    }

    #[test]
    fn lookups_cost_multiple_reads_when_cold() {
        let (mut ftl, mut idx) = setup(512);
        for i in 0..1200u64 {
            idx.insert(&mut ftl, mix(i), Ppa::new(0, 0)).unwrap();
        }
        idx.flush(&mut ftl).unwrap();
        let before = idx.stats().clone();
        for i in 0..1200u64 {
            idx.lookup(&mut ftl, mix(i)).unwrap();
        }
        let after = idx.stats();
        let reads = after.metadata_flash_reads - before.metadata_flash_reads;
        let lookups = after.lookups - before.lookups;
        // The multi-level index reads *more* than one page per lookup on
        // average with a cold/thrashing cache — the Fig. 5b contrast.
        assert!(
            reads as f64 / lookups as f64 > 1.0,
            "expected >1 read/lookup, got {}",
            reads as f64 / lookups as f64
        );
        assert!(after.pct_lookups_within(1) < 100.0);
    }

    #[test]
    fn capacity_cap_enforced() {
        let (mut ftl, idx) = setup(256);
        let mut idx_small = MultiLevelIndex::new(
            MultiLevelConfig { initial_bits: 0, max_levels: 2, hop_width: 16 },
            512,
        );
        // 1 + 2 tables × 30 records = 90 max; inserts beyond must fail.
        let mut stored = 0u64;
        let mut rejected = false;
        for i in 0..200u64 {
            match idx_small.insert(&mut ftl, mix(i), Ppa::new(0, 0)) {
                Ok(_) => stored += 1,
                Err(FtlError::CapacityExhausted) => {
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(rejected, "cap never hit (stored {stored})");
        assert!(stored <= 90);
        assert!(idx_small.capacity().unwrap() >= stored);
        let _ = idx.len(); // silence unused
    }

    /// The NVMKV-style fixed table: one level of 4 tables × 30 slots.
    fn one_level() -> (Ftl, MultiLevelIndex) {
        let (ftl, _) = setup(128);
        let cfg = MultiLevelConfig { initial_bits: 2, max_levels: 1, hop_width: 16 };
        (ftl, MultiLevelIndex::new(cfg, 512))
    }

    #[test]
    fn one_level_crud_cycle() {
        let (mut ftl, mut idx) = one_level();
        idx.insert(&mut ftl, mix(1), Ppa::new(1, 1)).unwrap();
        assert_eq!(idx.lookup(&mut ftl, mix(1)).unwrap(), Some(Ppa::new(1, 1)));
        assert_eq!(
            idx.insert(&mut ftl, mix(1), Ppa::new(2, 2)).unwrap(),
            InsertOutcome::Updated { old: Ppa::new(1, 1) }
        );
        assert_eq!(idx.remove(&mut ftl, mix(1)).unwrap(), Some(Ppa::new(2, 2)));
        assert!(idx.is_empty());
    }

    #[test]
    fn one_level_has_a_hard_capacity_cap() {
        let (mut ftl, mut idx) = one_level(); // 4 tables × 30 = 120 records max
        let mut stored = 0u64;
        let mut capped = false;
        for i in 0..500u64 {
            match idx.insert(&mut ftl, mix(i), Ppa::new(0, 0)) {
                Ok(_) => stored += 1,
                Err(FtlError::CapacityExhausted) => {
                    capped = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(capped, "never capped; stored {stored}");
        assert_eq!(idx.level_count(), 1, "a one-level index never grows");
        assert_eq!(idx.capacity(), Some(120));
        assert!(stored as f64 >= 120.0 * 0.5, "cap hit too early: {stored}");
        // Existing keys remain intact after the failure.
        for i in 0..stored {
            assert!(idx.lookup(&mut ftl, mix(i)).unwrap().is_some(), "key {i} lost");
        }
    }

    #[test]
    fn one_level_reads_at_most_once_per_lookup() {
        // A single level also keeps RHIK's ≤ 1 flash read per lookup; its
        // problem is capacity, not reads.
        let (mut ftl, mut idx) = one_level();
        for i in 0..100u64 {
            idx.insert(&mut ftl, mix(i), Ppa::new(0, 0)).unwrap();
        }
        idx.flush(&mut ftl).unwrap();
        for i in 0..100u64 {
            idx.lookup(&mut ftl, mix(i)).unwrap();
        }
        assert!(idx.stats().pct_lookups_within(1) > 100.0 - 1e-9);
    }

    #[test]
    fn missing_key_lookup_counts_histogram() {
        let (mut ftl, mut idx) = setup(64);
        for i in 0..50u64 {
            idx.insert(&mut ftl, mix(i), Ppa::new(0, 0)).unwrap();
        }
        assert_eq!(idx.lookup(&mut ftl, mix(999_999)).unwrap(), None);
        assert!(idx.stats().lookups >= 1);
    }

    #[test]
    fn relocation_preserves_reachability() {
        let (mut ftl, mut idx) = setup(128);
        for i in 0..300u64 {
            idx.insert(&mut ftl, mix(i), Ppa::new(0, 0)).unwrap();
        }
        idx.flush(&mut ftl).unwrap();
        // Find a persisted table and relocate it.
        let mut moved = 0;
        for b in 0..ftl.geometry().blocks {
            for (key, old) in idx.live_index_pages_in(b) {
                ftl.cache().remove(key);
                if idx.relocate_index_page(&mut ftl, key, old).unwrap().is_some() {
                    moved += 1;
                }
                if moved > 3 {
                    break;
                }
            }
            if moved > 3 {
                break;
            }
        }
        assert!(moved > 0);
        for i in 0..300u64 {
            assert!(idx.lookup(&mut ftl, mix(i)).unwrap().is_some(), "key {i} lost");
        }
    }
}
