//! A PinK-style LSM index (\[5\], \[16\] in the paper).
//!
//! Memtable + tiered sorted runs on flash. Each run keeps its per-page
//! *fence pointers* (first signature of every page) pinned in DRAM — the
//! PinK optimization of pinning upper-level metadata — so a point lookup
//! costs at most one flash read per probed run. The paper's critique
//! stands regardless: with several runs live, a lookup may probe several
//! of them ("an LSM-tree-based index still requires a higher amount of
//! binary search operations during metadata lookups, since we don't know
//! for sure which SSTable file contains the corresponding record", §II-B).

use std::collections::BTreeMap;

use bytes::Bytes;
use rhik_ftl::layout::SpareMeta;
use rhik_ftl::{Ftl, FtlError, IndexBackend, IndexStats, InsertOutcome};
use rhik_nand::Ppa;
use rhik_sigs::KeySignature;

/// 8-byte signature + 5-byte PPA per sorted-run record.
const RUN_RECORD_LEN: usize = 13;
/// Tombstone marker in the PPA field.
const TOMBSTONE: u64 = (1 << 40) - 1;

/// LSM tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct LsmConfig {
    /// Memtable flush threshold, in records.
    pub memtable_records: usize,
    /// Runs allowed per level before compaction into the next level.
    pub max_runs_per_level: usize,
    /// Levels allowed before compaction stops growing the tree deeper
    /// (the last level absorbs everything).
    pub max_levels: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig { memtable_records: 512, max_runs_per_level: 4, max_levels: 6 }
    }
}

/// One immutable sorted run.
struct Run {
    pages: Vec<Ppa>,
    /// First signature of each page (DRAM-pinned fence pointers).
    fences: Vec<u64>,
}

impl Run {
    /// Page index that may contain `sig`, by fence binary search.
    fn page_for(&self, sig: u64) -> Option<usize> {
        if self.fences.is_empty() || sig < self.fences[0] {
            return None;
        }
        Some(match self.fences.binary_search(&sig) {
            Ok(i) => i,
            Err(i) => i - 1,
        })
    }
}

/// Encode a sorted slice of `(sig, ppa_raw)` into page images.
fn encode_run(records: &[(u64, u64)], page_size: usize) -> Vec<(Bytes, u64)> {
    // The last 2 bytes of the page hold the record count, so records may
    // only occupy page_size - 2 bytes.
    let per_page = (page_size - 2) / RUN_RECORD_LEN;
    let mut pages = Vec::new();
    for chunk in records.chunks(per_page) {
        let mut buf = vec![0u8; page_size];
        for (i, &(sig, ppa)) in chunk.iter().enumerate() {
            let off = i * RUN_RECORD_LEN;
            buf[off..off + 8].copy_from_slice(&sig.to_le_bytes());
            buf[off + 8..off + 13].copy_from_slice(&ppa.to_le_bytes()[..5]);
        }
        let count_off = page_size - 2;
        buf[count_off..].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
        pages.push((Bytes::from(buf), chunk[0].0));
    }
    pages
}

/// Decode a run page into `(sig, ppa_raw)` records.
fn decode_run_page(data: &[u8]) -> Vec<(u64, u64)> {
    if data.len() < 2 {
        return Vec::new();
    }
    let count = u16::from_le_bytes(data[data.len() - 2..].try_into().expect("2 bytes")) as usize;
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let off = i * RUN_RECORD_LEN;
        if off + RUN_RECORD_LEN > data.len() - 2 {
            break;
        }
        let sig = u64::from_le_bytes(data[off..off + 8].try_into().expect("8 bytes"));
        let mut raw = [0u8; 8];
        raw[..5].copy_from_slice(&data[off + 8..off + 13]);
        out.push((sig, u64::from_le_bytes(raw)));
    }
    out
}

/// The LSM index.
pub struct LsmIndex {
    cfg: LsmConfig,
    /// `None` value = tombstone.
    memtable: BTreeMap<u64, Option<Ppa>>,
    levels: Vec<Vec<Run>>,
    len: u64,
    stats: IndexStats,
    compactions: u64,
}

impl LsmIndex {
    pub fn new(cfg: LsmConfig) -> Self {
        assert!(cfg.memtable_records > 0 && cfg.max_runs_per_level > 0 && cfg.max_levels > 0);
        LsmIndex {
            cfg,
            memtable: BTreeMap::new(),
            levels: Vec::new(),
            len: 0,
            stats: IndexStats::default(),
            compactions: 0,
        }
    }

    /// Completed compactions (diagnostics).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Runs currently live across all levels.
    pub fn run_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    fn cache_key(ppa: Ppa) -> u64 {
        (1u64 << 52) | ppa.pack()
    }

    /// Read a run page through the cache; returns (records, flash reads).
    fn read_run_page(
        &mut self,
        ftl: &mut Ftl,
        ppa: Ppa,
    ) -> Result<(Vec<(u64, u64)>, u64), FtlError> {
        let key = Self::cache_key(ppa);
        if let Some(bytes) = ftl.cache().get(key) {
            return Ok((decode_run_page(bytes), 0));
        }
        let bytes = ftl.read_index_page(ppa)?;
        self.stats.metadata_flash_reads += 1;
        let records = decode_run_page(&bytes);
        // Run pages are immutable: inserting clean, evictions need no
        // write-back.
        let _ = ftl.cache().insert(key, bytes, false);
        Ok((records, 1))
    }

    /// Probe a single run for `sig`.
    fn probe_run(
        &mut self,
        ftl: &mut Ftl,
        level: usize,
        run: usize,
        sig: u64,
    ) -> Result<(Option<Option<Ppa>>, u64), FtlError> {
        let Some(page_idx) = self.levels[level][run].page_for(sig) else {
            return Ok((None, 0));
        };
        let ppa = self.levels[level][run].pages[page_idx];
        let (records, reads) = self.read_run_page(ftl, ppa)?;
        match records.binary_search_by_key(&sig, |r| r.0) {
            Ok(i) => {
                let raw = records[i].1;
                if raw == TOMBSTONE {
                    Ok((Some(None), reads))
                } else {
                    Ok((Some(Some(Ppa::unpack(raw))), reads))
                }
            }
            Err(_) => Ok((None, reads)),
        }
    }

    /// Full point query: memtable then runs newest-to-oldest. Returns
    /// `(outcome, flash reads)`; `Some(None)` means tombstoned.
    fn query(&mut self, ftl: &mut Ftl, sig: u64) -> Result<(Option<Option<Ppa>>, u64), FtlError> {
        if let Some(v) = self.memtable.get(&sig) {
            return Ok((Some(*v), 0));
        }
        let mut reads = 0;
        for level in 0..self.levels.len() {
            for run in (0..self.levels[level].len()).rev() {
                let (hit, r) = self.probe_run(ftl, level, run, sig)?;
                reads += r;
                if hit.is_some() {
                    return Ok((hit, reads));
                }
            }
        }
        Ok((None, reads))
    }

    /// Flush the memtable into a fresh level-0 run.
    fn flush_memtable(&mut self, ftl: &mut Ftl) -> Result<(), FtlError> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let records: Vec<(u64, u64)> =
            self.memtable.iter().map(|(&sig, v)| (sig, v.map_or(TOMBSTONE, Ppa::pack))).collect();
        self.memtable.clear();
        let run = self.write_run(ftl, &records)?;
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        self.levels[0].push(run);
        self.maybe_compact(ftl)
    }

    fn write_run(&mut self, ftl: &mut Ftl, records: &[(u64, u64)]) -> Result<Run, FtlError> {
        let page_size = ftl.geometry().page_size as usize;
        let mut pages = Vec::new();
        let mut fences = Vec::new();
        for (bytes, first_sig) in encode_run(records, page_size) {
            let ppa = ftl.write_index_page(bytes, SpareMeta::index_page())?;
            self.stats.metadata_flash_programs += 1;
            pages.push(ppa);
            fences.push(first_sig);
        }
        Ok(Run { pages, fences })
    }

    fn retire_run(&mut self, ftl: &mut Ftl, run: &Run) {
        let page_size = ftl.geometry().page_size as u64;
        for &ppa in &run.pages {
            ftl.cache().remove(Self::cache_key(ppa));
            ftl.retire_index_page(ppa, page_size);
        }
    }

    /// Tiered compaction: when a level exceeds its run budget, merge all of
    /// its runs into one run in the next level.
    fn maybe_compact(&mut self, ftl: &mut Ftl) -> Result<(), FtlError> {
        for level in 0..self.levels.len() {
            if self.levels[level].len() <= self.cfg.max_runs_per_level {
                continue;
            }
            self.compactions += 1;
            let runs = std::mem::take(&mut self.levels[level]);
            // Newest-first merge: for duplicate signatures the newest run
            // (highest index) wins.
            let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
            for run in &runs {
                // Older runs first, newer overwrite.
                for &ppa in &run.pages {
                    let (records, _) = self.read_run_page(ftl, ppa)?;
                    let _ = records.len();
                    for (sig, raw) in records {
                        merged.insert(sig, raw);
                    }
                }
            }
            for run in &runs {
                self.retire_run(ftl, run);
            }
            let is_last = level + 1 >= self.cfg.max_levels;
            let records: Vec<(u64, u64)> =
                merged.into_iter().filter(|&(_, raw)| !(is_last && raw == TOMBSTONE)).collect();
            if self.levels.len() <= level + 1 {
                self.levels.push(Vec::new());
            }
            if !records.is_empty() {
                let run = self.write_run(ftl, &records)?;
                let target = (level + 1).min(self.cfg.max_levels - 1);
                self.levels[target].push(run);
            }
        }
        Ok(())
    }
}

impl IndexBackend for LsmIndex {
    fn insert(
        &mut self,
        ftl: &mut Ftl,
        sig: KeySignature,
        ppa: Ppa,
    ) -> Result<InsertOutcome, FtlError> {
        self.stats.inserts += 1;
        // LSM must query to distinguish insert from update (the binary
        // search overhead §II-B complains about).
        let (prev, _) = self.query(ftl, sig.0)?;
        self.memtable.insert(sig.0, Some(ppa));
        if self.memtable.len() >= self.cfg.memtable_records {
            self.flush_memtable(ftl)?;
        }
        match prev {
            Some(Some(old)) => Ok(InsertOutcome::Updated { old }),
            _ => {
                self.len += 1;
                Ok(InsertOutcome::Inserted)
            }
        }
    }

    fn lookup(&mut self, ftl: &mut Ftl, sig: KeySignature) -> Result<Option<Ppa>, FtlError> {
        self.stats.lookups += 1;
        let (hit, reads) = self.query(ftl, sig.0)?;
        self.stats.note_lookup_reads(reads);
        Ok(hit.flatten())
    }

    fn remove(&mut self, ftl: &mut Ftl, sig: KeySignature) -> Result<Option<Ppa>, FtlError> {
        self.stats.removes += 1;
        let (prev, _) = self.query(ftl, sig.0)?;
        match prev {
            Some(Some(old)) => {
                self.memtable.insert(sig.0, None);
                self.len -= 1;
                if self.memtable.len() >= self.cfg.memtable_records {
                    self.flush_memtable(ftl)?;
                }
                Ok(Some(old))
            }
            _ => Ok(None),
        }
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn capacity(&self) -> Option<u64> {
        None // grows as long as flash lasts
    }

    fn dram_bytes(&self) -> u64 {
        let memtable = self.memtable.len() as u64 * 24;
        let fences: u64 = self
            .levels
            .iter()
            .flatten()
            .map(|r| (r.fences.len() * 8 + r.pages.len() * 8) as u64)
            .sum();
        memtable + fences
    }

    fn stats(&self) -> &IndexStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "lsm"
    }

    fn flush(&mut self, ftl: &mut Ftl) -> Result<(), FtlError> {
        self.flush_memtable(ftl)
    }

    fn scan_records(
        &mut self,
        ftl: &mut Ftl,
        visit: &mut dyn FnMut(KeySignature, Ppa),
    ) -> Result<(), FtlError> {
        // Newest-wins semantics: collect into a map, oldest runs first,
        // memtable last; tombstones suppress.
        let mut merged: BTreeMap<u64, Option<Ppa>> = BTreeMap::new();
        for level in (0..self.levels.len()).rev() {
            for run in 0..self.levels[level].len() {
                let pages = self.levels[level][run].pages.clone();
                for ppa in pages {
                    let (records, _) = self.read_run_page(ftl, ppa)?;
                    for (sig, raw) in records {
                        let v = if raw == TOMBSTONE { None } else { Some(Ppa::unpack(raw)) };
                        merged.insert(sig, v);
                    }
                }
            }
        }
        for (&sig, &v) in &self.memtable {
            merged.insert(sig, v);
        }
        for (sig, v) in merged {
            if let Some(ppa) = v {
                visit(KeySignature(sig), ppa);
            }
        }
        Ok(())
    }

    fn live_index_pages_in(&self, block: u32) -> Vec<(u64, Ppa)> {
        self.levels
            .iter()
            .flatten()
            .flat_map(|r| r.pages.iter())
            .filter(|p| p.block == block)
            .map(|&p| (Self::cache_key(p), p))
            .collect()
    }

    fn relocate_index_page(
        &mut self,
        ftl: &mut Ftl,
        key: u64,
        old: Ppa,
    ) -> Result<Option<Ppa>, FtlError> {
        if key != Self::cache_key(old) {
            return Ok(None);
        }
        // Find the run holding this page.
        let mut loc = None;
        'outer: for (li, level) in self.levels.iter().enumerate() {
            for (ri, run) in level.iter().enumerate() {
                if let Some(pi) = run.pages.iter().position(|&p| p == old) {
                    loc = Some((li, ri, pi));
                    break 'outer;
                }
            }
        }
        let Some((li, ri, pi)) = loc else { return Ok(None) };
        let bytes = ftl.read_index_page(old)?;
        self.stats.metadata_flash_reads += 1;
        let len = bytes.len() as u64;
        let new_ppa = ftl.write_index_page(bytes, SpareMeta::index_page())?;
        self.stats.metadata_flash_programs += 1;
        self.levels[li][ri].pages[pi] = new_ppa;
        ftl.cache().remove(Self::cache_key(old));
        ftl.retire_index_page(old, len);
        Ok(Some(new_ppa))
    }
}

impl std::fmt::Debug for LsmIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsmIndex")
            .field("keys", &self.len)
            .field("memtable", &self.memtable.len())
            .field("levels", &self.levels.len())
            .field("runs", &self.run_count())
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

    fn setup() -> (Ftl, LsmIndex) {
        let ftl = Ftl::new(FtlConfig {
            geometry: NandGeometry {
                blocks: 512,
                pages_per_block: 8,
                page_size: 512,
                spare_size: 16,
                channels: 2,
            },
            ..FtlConfig::tiny()
        });
        let idx =
            LsmIndex::new(LsmConfig { memtable_records: 32, max_runs_per_level: 3, max_levels: 4 });
        (ftl, idx)
    }

    #[test]
    fn run_codec_roundtrip() {
        // 4096-byte pages hit the count-trailer boundary ((4096-2)/13 = 314
        // records exactly); regression for the trailer overlapping the last
        // record.
        for page_size in [512usize, 4096] {
            let records: Vec<(u64, u64)> = (0..800u64).map(|i| (i * 3, i)).collect();
            let pages = encode_run(&records, page_size);
            assert!(pages.len() > 1);
            let mut back = Vec::new();
            for (bytes, first) in &pages {
                let recs = decode_run_page(bytes);
                assert_eq!(recs[0].0, *first);
                back.extend(recs);
            }
            assert_eq!(back, records, "page_size {page_size}");
        }
    }

    #[test]
    fn crud_through_flushes_and_compactions() {
        let (mut ftl, mut idx) = setup();
        for i in 0..500u64 {
            idx.insert(&mut ftl, mix(i), Ppa::new((i % 100) as u32, (i % 8) as u32)).unwrap();
        }
        assert_eq!(idx.len(), 500);
        assert!(idx.compactions() > 0, "compaction never ran");
        for i in 0..500u64 {
            assert_eq!(
                idx.lookup(&mut ftl, mix(i)).unwrap(),
                Some(Ppa::new((i % 100) as u32, (i % 8) as u32)),
                "key {i}"
            );
        }
        assert_eq!(idx.lookup(&mut ftl, mix(10_000)).unwrap(), None);
    }

    #[test]
    fn updates_and_tombstones_win_over_old_runs() {
        let (mut ftl, mut idx) = setup();
        for i in 0..100u64 {
            idx.insert(&mut ftl, mix(i), Ppa::new(1, 1)).unwrap();
        }
        // Update half, remove a quarter — forcing multiple runs.
        for i in 0..50u64 {
            assert_eq!(
                idx.insert(&mut ftl, mix(i), Ppa::new(2, 2)).unwrap(),
                InsertOutcome::Updated { old: Ppa::new(1, 1) }
            );
        }
        for i in 50..75u64 {
            assert_eq!(idx.remove(&mut ftl, mix(i)).unwrap(), Some(Ppa::new(1, 1)));
        }
        idx.flush(&mut ftl).unwrap();
        assert_eq!(idx.len(), 75);
        for i in 0..50u64 {
            assert_eq!(idx.lookup(&mut ftl, mix(i)).unwrap(), Some(Ppa::new(2, 2)));
        }
        for i in 50..75u64 {
            assert_eq!(idx.lookup(&mut ftl, mix(i)).unwrap(), None, "tombstone leaked {i}");
        }
        for i in 75..100u64 {
            assert_eq!(idx.lookup(&mut ftl, mix(i)).unwrap(), Some(Ppa::new(1, 1)));
        }
    }

    #[test]
    fn multi_run_lookups_cost_multiple_reads() {
        let (mut ftl, mut idx) = setup();
        for i in 0..400u64 {
            idx.insert(&mut ftl, mix(i), Ppa::new(0, 0)).unwrap();
        }
        idx.flush(&mut ftl).unwrap();
        assert!(idx.run_count() >= 2, "runs: {}", idx.run_count());
        // Cold-cache misses walk several runs.
        let before = idx.stats().clone();
        for i in 400..600u64 {
            idx.lookup(&mut ftl, mix(i)).unwrap();
        }
        let after = idx.stats();
        let reads = after.metadata_flash_reads - before.metadata_flash_reads;
        assert!(reads > 0, "misses must probe runs");
    }

    #[test]
    fn relocation_keeps_runs_readable() {
        let (mut ftl, mut idx) = setup();
        for i in 0..200u64 {
            idx.insert(&mut ftl, mix(i), Ppa::new(3, 3)).unwrap();
        }
        idx.flush(&mut ftl).unwrap();
        let mut moved = 0;
        for b in 0..ftl.geometry().blocks {
            for (key, old) in idx.live_index_pages_in(b) {
                if idx.relocate_index_page(&mut ftl, key, old).unwrap().is_some() {
                    moved += 1;
                }
                if moved >= 2 {
                    break;
                }
            }
            if moved >= 2 {
                break;
            }
        }
        assert!(moved >= 1);
        for i in 0..200u64 {
            assert!(idx.lookup(&mut ftl, mix(i)).unwrap().is_some(), "key {i} lost");
        }
    }

    #[test]
    fn dram_bytes_accounts_fences() {
        let (mut ftl, mut idx) = setup();
        let before = idx.dram_bytes();
        for i in 0..200u64 {
            idx.insert(&mut ftl, mix(i), Ppa::new(0, 0)).unwrap();
        }
        idx.flush(&mut ftl).unwrap();
        assert!(idx.dram_bytes() > before);
    }
}
