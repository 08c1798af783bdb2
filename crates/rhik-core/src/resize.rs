//! Index re-configuration (§IV-A2), amortized.
//!
//! "Every time while resizing, a new index is initialized with double the
//! capacity of the current active index. [...] Our key to achieving faster
//! migration lies in the fact that we store the 64-bit key signatures
//! inside the hash indexes in the secondary layer. We reuse these key
//! signatures to rearrange the records in the new index quickly. The KV
//! pairs stored in the device are not accessed."
//!
//! The paper's implementation holds the submission queue for the whole
//! migration (§VI calls real-time index scaling out as future work). Here
//! the doubling is a resumable state machine instead: [`begin`] installs
//! the doubled directory next to the frozen old one with a migration
//! cursor, and [`step`] — invoked by every index operation and by
//! idle-time maintenance with the `resize_migration_batch` bound (at
//! `u32::MAX`, the paper's monolithic pass), and unbounded by `flush` —
//! splits old slots one at a time. Each old table splits into exactly two
//! successor tables (low-bit extension), written to flash as they fill,
//! so peak DRAM is two tables regardless of index size; old pages are
//! marked stale for the garbage collector once their slot has split. The
//! completion [`ResizeEvent`] carries CPU and simulated-media time plus
//! the per-step breakdown (`steps`, `max_step_media_ns`) so the
//! stop-the-world vs incremental stall comparison is measurable.
//!
//! Invariants while a migration is in flight:
//!
//! * **Old tables are frozen.** Mutations split their own slot on demand
//!   (the `target` argument) before touching it, so record content only
//!   ever moves forward into the new generation. Old pages may still
//!   change *location* (dirty write-back, GC relocation) — the old
//!   directory entry tracks that.
//! * **Lookups on un-split slots read the old table** — through the same
//!   cache path as live tables, preserving the ≤ 1-flash-read bound.
//! * **Never fail half-done.** There is no up-front budget for the whole
//!   migration: each slot split first checks its own worst case (four
//!   free pages) and is internally retryable (successor pages are
//!   replaced and the losers retired if a flash write fails partway), and
//!   a mid-migration `NeedsGc` simply pauses the cursor; the next index
//!   operation that finds free blocks resumes it.

use bytes::Bytes;
use rhik_ftl::{Ftl, FtlError, IndexBackend, ResizeEvent};
use rhik_nand::{NandOp, Ppa};

use crate::bucket::{empty_page, page_records, TableInsert, TablePage};
use crate::directory::{Directory, OVERFLOW_KEY};
use crate::index::RhikIndex;
use crate::pages::{self, CachedTables};

/// An in-flight incremental doubling.
pub(crate) struct Migration {
    /// The frozen pre-doubling directory. Tables it references never gain
    /// or lose records after [`begin`]; only their flash location may move.
    pub(crate) old: Directory,
    /// Slots `< cursor` have migrated (plus any in `split_ahead`).
    cursor: u32,
    /// Out-of-order splits forced by mutations ahead of the cursor.
    split_ahead: Vec<bool>,
    /// Completion flag: the new directory is flushed and the event is ready.
    finalized: bool,
    // ---- instrumentation for the completion ResizeEvent.
    keys_before: u64,
    tables_before: u64,
    migrated: u64,
    flash_reads: u64,
    flash_programs: u64,
    cpu_ns: u64,
    media_ns: u64,
    steps: u64,
    max_step_media_ns: u64,
}

impl Migration {
    /// Whether `old_slot`'s records have already moved to the new
    /// directory (reads for it must then use the current directory).
    pub(crate) fn is_split(&self, old_slot: u32) -> bool {
        old_slot < self.cursor || self.split_ahead[old_slot as usize]
    }

    /// `(slots_migrated, slots_total)` over the frozen old directory,
    /// counting out-of-order splits forced by mutations.
    pub(crate) fn progress(&self) -> (u64, u64) {
        let total = self.split_ahead.len() as u64;
        let done = (0..self.split_ahead.len() as u32).filter(|&s| self.is_split(s)).count() as u64;
        (done, total)
    }

    /// The flash pointer of the frozen old table cached under `key`, while
    /// its slot has not split (it is then the authoritative copy of its
    /// records); `None` once the slot split.
    pub(crate) fn pending_table_ppa(&mut self, key: u64) -> Option<&mut Option<Ppa>> {
        let old_key = self.old.is_current_key(key & !OVERFLOW_KEY);
        if old_key && !self.is_split(Directory::slot_of_key(key)) {
            self.old.table_ppa_mut(key)
        } else {
            None
        }
    }

    /// The frozen old tables of un-split slots, in slot order, primary
    /// then overflow.
    pub(crate) fn pending_tables(&self) -> impl Iterator<Item = (u64, Option<Ppa>, u32)> + '_ {
        self.old.tables().filter(|&(key, ..)| !self.is_split(Directory::slot_of_key(key)))
    }

    /// Position of the in-order migration cursor (audit).
    pub(crate) fn cursor(&self) -> u32 {
        self.cursor
    }

    /// Records moved to the new generation so far (audit).
    pub(crate) fn migrated(&self) -> u64 {
        self.migrated
    }

    /// Index size captured at [`begin`] (audit: `migrated + pending`
    /// over the frozen old tables must equal this).
    pub(crate) fn keys_before(&self) -> u64 {
        self.keys_before
    }

    fn event(&self) -> ResizeEvent {
        ResizeEvent {
            keys_before: self.keys_before,
            tables_before: self.tables_before,
            flash_reads: self.flash_reads,
            flash_programs: self.flash_programs,
            cpu_ns: self.cpu_ns,
            media_ns: self.media_ns,
            steps: self.steps,
            max_step_media_ns: self.max_step_media_ns,
        }
    }
}

/// Simulated media time for `reads` + `programs` full-page transfers.
fn media_ns(ftl: &Ftl, reads: u64, programs: u64) -> u64 {
    let lat = &ftl.profile().latency;
    let page_bytes = ftl.geometry().page_size;
    let zero = rhik_nand::Ppa::new(0, 0);
    reads * lat.duration_ns(&NandOp::Read { ppa: zero, bytes: page_bytes })
        + programs * lat.duration_ns(&NandOp::Program { ppa: zero, bytes: page_bytes })
}

/// Install the doubled directory and the migration cursor (resize step 1).
///
/// Needs no space budget beyond re-anchoring the persistent snapshot to
/// the pre-doubling directory (`NeedsGc` if even that cannot be written,
/// with the directory untouched): each split checks its own space. Periodic
/// snapshot flushes are suppressed while migrating (a snapshot cannot
/// describe a half-split configuration), so the re-anchored snapshot is
/// what a mid-migration crash mounts.
pub(crate) fn begin(idx: &mut RhikIndex, ftl: &mut Ftl) -> Result<(), FtlError> {
    debug_assert!(idx.migration.is_none(), "resize begun while one is in flight");
    let old_tables = idx.directory().len() as u64;
    let t0 = std::time::Instant::now();
    let stats_before = ftl.stats();
    idx.flush_directory(ftl)?;
    let stats_after = ftl.stats();
    let flash_programs = stats_after.index_page_programs - stats_before.index_page_programs;

    let keys_before = idx.len();
    let old = idx.dir_mut().begin_doubling();
    let slots = old.len();
    idx.migration = Some(Migration {
        old,
        cursor: 0,
        split_ahead: vec![false; slots],
        finalized: false,
        keys_before,
        tables_before: old_tables,
        migrated: 0,
        flash_reads: 0,
        flash_programs,
        cpu_ns: t0.elapsed().as_nanos() as u64,
        media_ns: media_ns(ftl, 0, flash_programs),
        steps: 0,
        max_step_media_ns: 0,
    });
    idx.stats_mut().resizes_started += 1;
    Ok(())
}

/// Advance the in-flight migration by up to `max_slots` old slots. A
/// mutation passes its `target` slot, which splits first (and does not
/// count against slots the cursor owes). Finalizes — new directory
/// flushed, [`ResizeEvent`] recorded, migration cleared — when the last
/// slot migrates. No-op if no migration is in flight.
///
/// Returns the number of slots split. On `NeedsGc` the cursor simply
/// pauses where it is; the next call resumes it.
pub(crate) fn step(
    idx: &mut RhikIndex,
    ftl: &mut Ftl,
    max_slots: u32,
    target: Option<u32>,
) -> Result<u32, FtlError> {
    let Some(mut m) = idx.migration.take() else { return Ok(0) };
    let t0 = std::time::Instant::now();
    let before = ftl.stats();
    // Media ops in this batch attribute to the resize stage, not to the
    // command-level flash read/program stages of the op that triggered it.
    let scope = ftl.set_stage_scope(Some(rhik_telemetry::Stage::ResizeMigrateBatch));
    let result = advance(idx, ftl, &mut m, max_slots, target);
    ftl.set_stage_scope(scope);
    let after = ftl.stats();
    let reads = after.index_page_reads - before.index_page_reads;
    let programs = after.index_page_programs - before.index_page_programs;
    let step_media = media_ns(ftl, reads, programs);
    m.flash_reads += reads;
    m.flash_programs += programs;
    m.cpu_ns += t0.elapsed().as_nanos() as u64;
    m.media_ns += step_media;
    m.steps += 1;
    m.max_step_media_ns = m.max_step_media_ns.max(step_media);
    let stats = idx.stats_mut();
    stats.resize_steps += 1;
    if let Ok(split) = &result {
        stats.resize_slots_migrated += *split as u64;
    }
    if m.finalized {
        debug_assert_eq!(m.migrated, m.keys_before, "resize lost records");
        idx.stats_mut().resizes.push(m.event());
    } else {
        idx.migration = Some(m);
    }
    result
}

fn advance(
    idx: &mut RhikIndex,
    ftl: &mut Ftl,
    m: &mut Migration,
    max_slots: u32,
    target: Option<u32>,
) -> Result<u32, FtlError> {
    let mut split = 0u32;
    if let Some(slot) = target {
        if !m.is_split(slot) {
            split_one(idx, ftl, m, slot)?;
            m.split_ahead[slot as usize] = true;
            split += 1;
        }
    }
    loop {
        // Skip slots mutations already split ahead of the cursor (free).
        while (m.cursor as usize) < m.split_ahead.len() && m.split_ahead[m.cursor as usize] {
            m.cursor += 1;
        }
        if (m.cursor as usize) >= m.split_ahead.len() || split >= max_slots {
            break;
        }
        let slot = m.cursor;
        split_one(idx, ftl, m, slot)?;
        m.cursor += 1;
        split += 1;
    }
    if (m.cursor as usize) >= m.split_ahead.len() {
        // Persist the new directory (the paper keeps a periodically-updated
        // copy; once migration completes the old snapshot describes a dead
        // configuration).
        idx.flush_directory(ftl)?;
        m.finalized = true;
    }
    Ok(split)
}

/// One successor slot of a split, built in its flash encoding: the primary
/// table page, and an overflow page if hopscotch clustering rejected a
/// record — each with its record count.
struct Successor {
    table: Vec<u8>,
    records: u32,
    overflow: Option<(Vec<u8>, u32)>,
}

impl Successor {
    fn new(records_per_table: u32, page_size: usize) -> Self {
        Successor { table: empty_page(records_per_table, page_size), records: 0, overflow: None }
    }
}

/// Split one old slot's records into its two successor slots by stored
/// signature, write the successors to flash, and retire the old pages.
fn split_one(
    idx: &mut RhikIndex,
    ftl: &mut Ftl,
    m: &mut Migration,
    slot: u32,
) -> Result<(), FtlError> {
    let page_size = ftl.geometry().page_size as usize;
    // Check the single-slot worst case (two successors, each with a fresh
    // overflow) so a split never starts what it cannot finish.
    let ppb = ftl.geometry().pages_per_block as u64;
    if (ftl.free_blocks() as u64) * ppb < 4 {
        return Err(FtlError::NeedsGc);
    }

    let records_per_table = idx.records_per_table();
    let hop_width = idx.config().hop_width;
    let old_bits = m.old.bits();
    let old_key = m.old.cache_key(slot);
    let entry = *m.old.entry(slot);

    // Fetch the old table (and its hyper-local overflow, if any): cache
    // first (old-generation keys), flash next. Read non-destructively —
    // the cached copy may be the only up-to-date one, and it must survive
    // if a successor write fails below.
    let fetch = |ftl: &mut Ftl,
                 idx: &mut RhikIndex,
                 cache_key: u64,
                 ppa: Option<rhik_nand::Ppa>|
     -> Result<Option<Bytes>, FtlError> {
        if let Some(bytes) = ftl.cache().get(cache_key) {
            return Ok(Some(bytes.clone()));
        }
        match ppa {
            Some(ppa) => {
                let bytes = ftl.read_index_page(ppa)?;
                idx.stats_mut().metadata_flash_reads += 1;
                Ok(Some(bytes))
            }
            None => Ok(None),
        }
    };
    let table = fetch(ftl, idx, old_key, entry.table_ppa)?;
    let overflow = if entry.has_overflow {
        fetch(ftl, idx, OVERFLOW_KEY | old_key, entry.overflow_ppa)?
    } else {
        None
    };
    if table.is_none() && overflow.is_none() {
        debug_assert_eq!(
            entry.total_records(),
            0,
            "pageless directory entry must count no records"
        );
        return Ok(());
    }

    // Split by the new low bit, re-homing every record by signature.
    // Overflow records fold back into the halved primaries where they
    // fit; if hopscotch clustering rejects a record mid-migration, it
    // goes to a fresh overflow table for the target slot — the resize
    // must never fail half-done.
    let (lo_slot, hi_slot) = Directory::split_targets(slot, old_bits);
    let mut lo = Successor::new(records_per_table, page_size);
    let mut hi = Successor::new(records_per_table, page_size);
    let mut moved = 0u64;
    let old_records = table.iter().chain(overflow.iter());
    for (sig, ppa) in old_records.flat_map(|page| page_records(page, records_per_table)) {
        let target_slot = idx.directory().slot_of(sig);
        debug_assert!(
            target_slot == lo_slot || target_slot == hi_slot,
            "split record re-homed outside the two successor slots"
        );
        let target = if target_slot == lo_slot { &mut lo } else { &mut hi };
        let mut primary = TablePage::new(&mut target.table[..], records_per_table, hop_width);
        match primary.insert(sig, ppa).0 {
            TableInsert::Inserted => target.records += 1,
            TableInsert::Updated { .. } => unreachable!("signatures unique within a table"),
            TableInsert::Full => {
                let ovf = target
                    .overflow
                    .get_or_insert_with(|| (empty_page(records_per_table, page_size), 0));
                match TablePage::new(&mut ovf.0[..], records_per_table, hop_width)
                    .insert(sig, ppa)
                    .0
                {
                    TableInsert::Inserted => ovf.1 += 1,
                    TableInsert::Updated { .. } => {
                        unreachable!("signatures unique within a bucket")
                    }
                    TableInsert::Full => {
                        // Primary and a whole fresh overflow both full
                        // within hop range: statistically unreachable
                        // (the overflow is at most half a table); a
                        // half-done resize is unrecoverable, so fail
                        // loudly rather than corrupt.
                        panic!(
                            "resize migration overflowed twice at slot {target_slot}; \
                             hop width {hop_width} cannot sustain this distribution"
                        );
                    }
                }
            }
        }
        moved += 1;
    }

    // Persist the successors immediately (streamed migration). Replacing
    // (and retiring) any existing successor copy makes a retry after a
    // mid-slot flash failure clean: the losing attempt's pages go stale.
    for (new_slot, successor) in [(lo_slot, lo), (hi_slot, hi)] {
        let key = idx.directory().cache_key(new_slot);
        if successor.records > 0 {
            pages::program(idx, ftl, key, successor.table.into())?;
            idx.dir_mut().entry_mut(new_slot).records = successor.records;
        }
        if let Some((page, records)) = successor.overflow {
            pages::program(idx, ftl, OVERFLOW_KEY | key, page.into())?;
            let entry = idx.dir_mut().entry_mut(new_slot);
            entry.overflow_records = records;
            entry.has_overflow = true;
        }
    }

    // Retire the old pages for the garbage collector ("the flash pages
    // containing the old index records are marked stale", §IV-A2), and
    // drop their now-dead cached copies.
    pages::retire(ftl, old_key, entry.table_ppa);
    pages::retire(ftl, OVERFLOW_KEY | old_key, entry.overflow_ppa);
    m.migrated += moved;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RhikConfig;
    use rhik_ftl::{FtlConfig, IndexBackend};
    use rhik_nand::Ppa;
    use rhik_sigs::KeySignature;

    fn sig(n: u64) -> KeySignature {
        let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        KeySignature(z ^ (z >> 31))
    }

    fn grown_index_with(keys: u64, resize_migration_batch: u32) -> (Ftl, RhikIndex) {
        let mut ftl = Ftl::new(FtlConfig {
            geometry: rhik_nand::NandGeometry {
                blocks: 64,
                pages_per_block: 16,
                page_size: 512,
                spare_size: 16,
                channels: 2,
            },
            ..FtlConfig::tiny()
        });
        let mut idx = RhikIndex::new(
            RhikConfig {
                initial_dir_bits: 0,
                dir_flush_interval: 1_000_000,
                hop_width: 16,
                occupancy_threshold: 0.6,
                resize_migration_batch,
                ..Default::default()
            },
            512,
        );
        for i in 0..keys {
            idx.insert(&mut ftl, sig(i), Ppa::new(0, 0)).unwrap();
        }
        (ftl, idx)
    }

    fn grown_index(keys: u64) -> (Ftl, RhikIndex) {
        grown_index_with(keys, RhikConfig::default().resize_migration_batch)
    }

    #[test]
    fn resize_preserves_every_record() {
        let (mut ftl, mut idx) = grown_index(500);
        assert!(idx.stats().resizes.len() >= 4, "several doublings happened");
        for i in 0..500 {
            assert!(idx.lookup(&mut ftl, sig(i)).unwrap().is_some(), "key {i} lost");
        }
        assert_eq!(idx.len(), 500);
    }

    #[test]
    fn resize_never_reads_kv_data() {
        // Migration must only touch index pages: data-page read count stays
        // zero in an index-only workload.
        let (ftl, idx) = grown_index(300);
        assert!(idx.stats().resizes.len() >= 3);
        assert_eq!(ftl.stats().data_page_reads, 0);
    }

    #[test]
    fn resize_events_scale_linearly() {
        let (_ftl, idx) = grown_index(800);
        let events = &idx.stats().resizes;
        assert!(events.len() >= 4);
        // Table count doubles event over event...
        for w in events.windows(2) {
            assert_eq!(w[1].tables_before, w[0].tables_before * 2);
        }
        // ...and media work grows proportionally with the index, i.e. the
        // rate of change of resize cost stays bounded (Fig. 7's claim).
        for w in events.windows(2) {
            let grow = w[1].media_ns as f64 / w[0].media_ns.max(1) as f64;
            assert!(grow <= 4.0, "resize cost exploded: {grow}");
        }
    }

    #[test]
    fn old_pages_marked_stale() {
        let (ftl, idx) = grown_index(600);
        assert!(idx.stats().resizes.len() >= 3);
        // The superseded tables and snapshots appear as stale bytes on the
        // index stream.
        assert!(ftl.total_stale_bytes() > 0);
    }

    #[test]
    fn incremental_spreads_migration_over_steps() {
        let (_ftl, idx) = grown_index(500);
        let last = *idx.stats().resizes.last().unwrap();
        assert!(last.tables_before >= 8);
        // Amortized over many operations: several steps, each touching a
        // bounded slice of the media work.
        assert!(last.steps > 1, "incremental resize ran as one stall: {last:?}");
        assert!(
            last.max_step_media_ns < last.media_ns,
            "one step absorbed the whole migration: {last:?}"
        );
    }

    #[test]
    fn stop_the_world_runs_as_one_step() {
        let (_ftl, idx) = grown_index_with(500, u32::MAX);
        assert!(idx.stats().resizes.len() >= 4);
        for ev in &idx.stats().resizes {
            assert_eq!(ev.steps, 1, "stop-the-world must migrate in one pass");
            // The single step absorbs all migration media work (media_ns
            // additionally counts the begin-time snapshot flush).
            assert!(ev.max_step_media_ns > 0);
            assert!(ev.max_step_media_ns <= ev.media_ns);
        }
    }

    #[test]
    fn incremental_and_monolithic_media_work_match() {
        // Amortization must not inflate flash traffic: the same fill in
        // both modes performs (nearly) identical migration reads/programs.
        let (_f1, inc) = grown_index(800);
        let (_f2, stw) = grown_index_with(800, u32::MAX);
        let sum = |idx: &RhikIndex| {
            idx.stats().resizes.iter().map(|e| e.flash_reads + e.flash_programs).sum::<u64>()
        };
        let (a, b) = (sum(&inc) as f64, sum(&stw) as f64);
        assert!((a - b).abs() / b.max(1.0) <= 0.10, "incremental media work diverged: {a} vs {b}");
    }

    #[test]
    fn short_split_pauses_the_migration_until_gc() {
        // On a nearly full device the doubling still begins; the first
        // split short of free pages pauses the cursor, and every record
        // stays reachable through the frozen old table. Once garbage
        // collection frees blocks, the next index operation resumes it.
        let mut ftl = Ftl::new(FtlConfig::tiny()); // 8 blocks x 8 pages
        let mut idx = RhikIndex::new(
            RhikConfig {
                initial_dir_bits: 0,
                dir_flush_interval: 1_000_000,
                hop_width: 16,
                occupancy_threshold: 0.6,
                ..Default::default()
            },
            512,
        );
        // Consume nearly all flash with data.
        let mut data = Vec::new();
        while let Ok(extent) = ftl.store_pair(KeySignature(data.len() as u64), b"k", &[0u8; 400], 0)
        {
            data.push(extent);
        }
        let bits_before = idx.directory().bits();
        // Insert past the threshold: the records land and the doubling
        // begins; a mutation whose own slot cannot split yet waits for GC.
        let mut inserted = 0u64;
        for k in 0..25u64 {
            match idx.insert(&mut ftl, sig(k), Ppa::new(0, 0)) {
                Ok(_) => inserted += 1,
                Err(FtlError::NeedsGc) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(inserted >= 18, "inserted {inserted}");
        assert_eq!(idx.directory().bits(), bits_before + 1, "the doubling began");
        assert_eq!(idx.migration_progress(), Some((0, 1)), "the split paused");
        // Every inserted record is still reachable, and a lookup without
        // free space leaves the cursor where it is.
        for k in 0..inserted {
            assert!(idx.lookup(&mut ftl, sig(k)).unwrap().is_some(), "key {k} lost");
        }
        assert_eq!(idx.migration_progress(), Some((0, 1)), "no space, no progress");

        for extent in &data {
            ftl.mark_stale(extent);
        }
        let report = rhik_ftl::gc::run(&mut ftl, &mut idx, &rhik_ftl::GcConfig::default()).unwrap();
        assert!(report.data_blocks_erased > 0, "GC reclaimed nothing: {report:?}");
        assert!(idx.lookup(&mut ftl, sig(0)).unwrap().is_some());
        assert!(!idx.resize_in_progress(), "the next operation finished the doubling");
        assert_eq!(idx.stats().resizes.len(), 1);
        for k in 0..inserted {
            assert!(idx.lookup(&mut ftl, sig(k)).unwrap().is_some(), "key {k} lost");
        }
    }
}
