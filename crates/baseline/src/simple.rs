//! The NVMKV/KVFTL-style single-level fixed hash index (\[4\] in the paper).
//!
//! One hash table sized at initialization, never resized: fast and simple
//! while it fits, but with a hard key-count cap and — in NVMKV — an
//! index-induced limit on value sizes. RHIK's §IV-A5 explicitly removes
//! that coupling; this baseline keeps it for contrast.

use rhik_core::pages::{self, CachedTables};
use rhik_core::TableInsert;
use rhik_ftl::layout::SpareMeta;
use rhik_ftl::{Ftl, IndexBackend, IndexError, IndexStats, InsertOutcome};
use rhik_nand::Ppa;
use rhik_sigs::KeySignature;

/// Fixed-capacity single-level hash index.
pub struct SimpleHashIndex {
    bits: u32,
    hop_width: u32,
    records_per_table: u32,
    tables: Vec<Option<Ppa>>,
    records: Vec<u32>,
    len: u64,
    stats: IndexStats,
}

impl SimpleHashIndex {
    /// `2^bits` page-sized tables; capacity is fixed forever.
    pub fn new(bits: u32, hop_width: u32, page_size: u32) -> Self {
        let records_per_table = page_size / rhik_core::IndexRecord::PACKED_LEN as u32;
        assert!(records_per_table >= hop_width, "page too small for hop width");
        SimpleHashIndex {
            bits,
            hop_width,
            records_per_table,
            tables: vec![None; 1 << bits],
            records: vec![0; 1 << bits],
            len: 0,
            stats: IndexStats::default(),
        }
    }

    fn slot_of(&self, sig: KeySignature) -> u32 {
        sig.low_bits(self.bits) as u32
    }

    fn cache_key(slot: u32) -> u64 {
        (1u64 << 50) | slot as u64
    }

    fn load_table(&mut self, ftl: &mut Ftl, slot: u32) -> Result<(pages::Table, u64), IndexError> {
        pages::load(self, ftl, Self::cache_key(slot), self.tables[slot as usize])
    }
}

impl CachedTables for SimpleHashIndex {
    fn table_shape(&self) -> (u32, u32) {
        (self.records_per_table, self.hop_width)
    }

    fn stats_mut(&mut self) -> &mut IndexStats {
        &mut self.stats
    }

    fn write_back(
        &mut self,
        ftl: &mut Ftl,
        key: u64,
        data: bytes::Bytes,
    ) -> Result<(), IndexError> {
        let slot = (key & 0xffff_ffff) as usize;
        if slot >= self.tables.len() {
            return Ok(());
        }
        let len = data.len() as u64;
        let new_ppa = ftl.write_index_page(data, SpareMeta::index_page())?;
        self.stats.metadata_flash_programs += 1;
        if let Some(old) = self.tables[slot].replace(new_ppa) {
            ftl.retire_index_page(old, len);
        }
        Ok(())
    }
}

impl IndexBackend for SimpleHashIndex {
    fn insert(
        &mut self,
        ftl: &mut Ftl,
        sig: KeySignature,
        ppa: Ppa,
    ) -> Result<InsertOutcome, IndexError> {
        self.stats.inserts += 1;
        let slot = self.slot_of(sig);
        let (mut table, _) = self.load_table(ftl, slot)?;
        let outcome = match table.insert(ftl, sig, ppa).0 {
            TableInsert::Inserted => {
                self.records[slot as usize] += 1;
                self.len += 1;
                InsertOutcome::Inserted
            }
            TableInsert::Updated { old } => InsertOutcome::Updated { old },
            TableInsert::Full => {
                self.stats.insert_aborts += 1;
                return Err(IndexError::CapacityExhausted);
            }
        };
        table.save(self, ftl)?;
        Ok(outcome)
    }

    fn lookup(&mut self, ftl: &mut Ftl, sig: KeySignature) -> Result<Option<Ppa>, IndexError> {
        self.stats.lookups += 1;
        let slot = self.slot_of(sig);
        let (table, reads) = self.load_table(ftl, slot)?;
        self.stats.note_lookup_reads(reads);
        Ok(table.lookup(ftl, sig))
    }

    fn remove(&mut self, ftl: &mut Ftl, sig: KeySignature) -> Result<Option<Ppa>, IndexError> {
        self.stats.removes += 1;
        let slot = self.slot_of(sig);
        let (mut table, _) = self.load_table(ftl, slot)?;
        let removed = table.remove(ftl, sig);
        if removed.is_some() {
            self.records[slot as usize] -= 1;
            self.len -= 1;
            table.save(self, ftl)?;
        }
        Ok(removed)
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn capacity(&self) -> Option<u64> {
        Some(self.tables.len() as u64 * self.records_per_table as u64)
    }

    fn dram_bytes(&self) -> u64 {
        (self.tables.len() * (std::mem::size_of::<Option<Ppa>>() + 4)) as u64
    }

    fn stats(&self) -> &IndexStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "simple-hash"
    }

    fn flush(&mut self, ftl: &mut Ftl) -> Result<(), IndexError> {
        pages::flush_dirty(self, ftl)
    }

    fn scan_records(
        &mut self,
        ftl: &mut Ftl,
        visit: &mut dyn FnMut(KeySignature, Ppa),
    ) -> Result<(), IndexError> {
        for slot in 0..self.tables.len() as u32 {
            if self.records[slot as usize] == 0 {
                continue;
            }
            let (table, _) = self.load_table(ftl, slot)?;
            table.for_each(ftl, visit);
        }
        Ok(())
    }

    fn live_index_pages_in(&self, block: u32) -> Vec<(u64, Ppa)> {
        self.tables
            .iter()
            .enumerate()
            .filter_map(|(s, t)| {
                t.filter(|p| p.block == block).map(|p| (Self::cache_key(s as u32), p))
            })
            .collect()
    }

    fn relocate_index_page(
        &mut self,
        ftl: &mut Ftl,
        key: u64,
        old: Ppa,
    ) -> Result<Option<Ppa>, IndexError> {
        let slot = (key & 0xffff_ffff) as usize;
        if slot >= self.tables.len() || self.tables[slot] != Some(old) {
            return Ok(None);
        }
        let bytes = ftl.read_index_page(old)?;
        self.stats.metadata_flash_reads += 1;
        let len = bytes.len() as u64;
        let new_ppa = ftl.write_index_page(bytes, SpareMeta::index_page())?;
        self.stats.metadata_flash_programs += 1;
        self.tables[slot] = Some(new_ppa);
        ftl.retire_index_page(old, len);
        Ok(Some(new_ppa))
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

    fn setup() -> (Ftl, SimpleHashIndex) {
        let ftl = Ftl::new(FtlConfig {
            geometry: NandGeometry {
                blocks: 128,
                pages_per_block: 8,
                page_size: 512,
                spare_size: 16,
                channels: 2,
            },
            ..FtlConfig::tiny()
        });
        (ftl, SimpleHashIndex::new(2, 16, 512))
    }

    #[test]
    fn crud_cycle() {
        let (mut ftl, mut idx) = setup();
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
    fn hard_capacity_cap() {
        let (mut ftl, mut idx) = setup(); // 4 tables × 30 = 120 records max
        let mut stored = 0u64;
        let mut capped = false;
        for i in 0..500u64 {
            match idx.insert(&mut ftl, mix(i), Ppa::new(0, 0)) {
                Ok(_) => stored += 1,
                Err(IndexError::CapacityExhausted) => {
                    capped = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(capped, "never capped; stored {stored}");
        assert!(stored <= idx.capacity().unwrap());
        assert!(
            stored as f64 >= idx.capacity().unwrap() as f64 * 0.5,
            "cap hit too early: {stored}"
        );
        // Existing keys remain intact after the failure.
        for i in 0..stored / 2 {
            assert!(idx.lookup(&mut ftl, mix(i)).unwrap().is_some());
        }
    }

    #[test]
    fn one_read_per_lookup_like_rhik() {
        // Single level ⇒ also ≤1 flash read per lookup; its problem is
        // capacity, not reads.
        let (mut ftl, mut idx) = setup();
        for i in 0..100u64 {
            idx.insert(&mut ftl, mix(i), Ppa::new(0, 0)).unwrap();
        }
        idx.flush(&mut ftl).unwrap();
        for i in 0..100u64 {
            idx.lookup(&mut ftl, mix(i)).unwrap();
        }
        assert!(idx.stats().pct_lookups_within(1) > 100.0 - 1e-9);
    }
}
