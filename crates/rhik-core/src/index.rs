//! The RHIK index proper: directory + cached record-layer tables, with the
//! ≤ 1-flash-read lookup guarantee.

use bytes::Bytes;
use rhik_ftl::layout::SpareMeta;
use rhik_ftl::{Ftl, FtlError, IndexBackend, IndexStats, InsertOutcome};
use rhik_nand::{PageData, Ppa};
use rhik_sigs::KeySignature;

use crate::bucket::{TableInsert, TablePage};
use crate::config::RhikConfig;
use crate::directory::{Directory, OVERFLOW_KEY};
use crate::pages::{self, CachedTables};

/// Cache keys with this bit set identify directory snapshot pages rather
/// than record-layer tables (they share the FTL's index-page namespace for
/// GC relocation).
const DIR_PAGE_KEY: u64 = 1 << 63;

/// The Re-configurable Hash Index (§IV).
pub struct RhikIndex {
    cfg: RhikConfig,
    dir: Directory,
    /// Records per table (Eq. 1, fixed for the device's page size).
    records_per_table: u32,
    len: u64,
    stats: IndexStats,
    /// Flash pages of the latest directory snapshot (retired on re-flush).
    dir_snapshot: Vec<Ppa>,
    /// Mutations since the last snapshot flush.
    dirty_mutations: u64,
    /// Monotonic snapshot sequence (distinguishes flushes at mount time).
    snapshot_seq: u64,
    /// In-flight incremental doubling (§IV-A2, amortized — see
    /// `resize.rs`). `None` outside migrations.
    pub(crate) migration: Option<crate::resize::Migration>,
    /// Buckets lost at mount time because GC had reclaimed their
    /// snapshot-referenced pages (see [`RhikIndex::recover`]).
    recovery_lost_tables: u64,
    /// Mirror of the `sig → head PPA` mapping for the device's lock-free
    /// read path and hot cache (attached by the sharded device; `None` on
    /// single-owner devices). Every mutation that changes where a pair
    /// lives funnels through the `note_view_*` helpers, and the view's
    /// version bump invalidates the signature for both; directory
    /// doublings move no pair, so they leave the view alone.
    view: Option<std::sync::Arc<rhik_ftl::ReadView>>,
}

impl RhikIndex {
    /// Build an index for a device with `page_size`-byte flash pages.
    pub fn new(cfg: RhikConfig, page_size: u32) -> Self {
        let cfg = cfg.validated();
        let records_per_table = RhikConfig::records_per_table(page_size);
        assert!(records_per_table >= cfg.hop_width, "page too small for the configured hop width");
        RhikIndex {
            dir: Directory::new(cfg.initial_dir_bits),
            cfg,
            records_per_table,
            len: 0,
            stats: IndexStats::default(),
            dir_snapshot: Vec::new(),
            dirty_mutations: 0,
            snapshot_seq: 0,
            migration: None,
            recovery_lost_tables: 0,
            view: None,
        }
    }

    /// Rebuild the index from flash after a power loss (§IV-A: "a
    /// periodically updated persistent copy of these D entries resides on
    /// flash").
    ///
    /// Scans the device for directory-snapshot fragments, reconstructs the
    /// newest complete snapshot's directory, and re-learns per-table record
    /// counts by loading every referenced table (the mount-time cost).
    /// Pairs indexed after the last snapshot flush are lost — the bounded
    /// loss window the paper's design accepts.
    pub fn recover(cfg: RhikConfig, ftl: &mut Ftl) -> Result<Self, FtlError> {
        let cfg = cfg.validated();
        let page_size = ftl.geometry().page_size;
        let records_per_table = RhikConfig::records_per_table(page_size);

        // Mount-time scan: find every directory fragment still on flash.
        use rhik_ftl::layout::{PageKind, SpareMeta};
        let mut fragments: Vec<(u64, u32, Ppa, Bytes)> = Vec::new(); // (seq, frag, ppa, data)
        for ppa in ftl.programmed_pages() {
            let Ok((data, spare)) = ftl.read_data_page(ppa) else { continue };
            let Some(meta) = SpareMeta::decode(&spare) else { continue };
            if meta.kind != PageKind::Directory {
                continue;
            }
            if let Some((_bits, _gen, seq, frag)) = Directory::fragment_meta(&data) {
                fragments.push((seq, frag, ppa, data));
            }
        }

        // Newest flush (highest sequence) with a complete, well-formed
        // fragment set wins.
        fragments.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut recovered: Option<(Directory, Vec<Ppa>, u64)> = None;
        let mut i = 0;
        while i < fragments.len() {
            let seq = fragments[i].0;
            let group_end =
                fragments[i..].iter().position(|f| f.0 != seq).map_or(fragments.len(), |p| i + p);
            let group = &fragments[i..group_end];
            let pages: Vec<Bytes> = group.iter().map(|f| f.3.clone()).collect();
            if let Some(dir) = Directory::from_snapshot_pages(&pages) {
                recovered = Some((dir, group.iter().map(|f| f.2).collect(), seq));
                break;
            }
            i = group_end;
        }
        let (mut dir, dir_snapshot, snapshot_seq) =
            recovered.unwrap_or_else(|| (Directory::new(cfg.initial_dir_bits), Vec::new(), 0));

        // Re-learn record counts table by table (overflow tables included).
        //
        // A snapshot pointer can dangle: between the snapshot flush and the
        // crash, a table may have been rewritten (retiring the snapshot's
        // copy) and GC may have erased the retired page. Real firmware pins
        // checkpoint-referenced pages or replays an OOB scan; the emulator
        // degrades gracefully — the bucket's records are lost, counted in
        // the returned index's `recovery_lost_tables` diagnostics — rather
        // than failing the whole mount.
        let mut len = 0u64;
        let mut lost_tables = 0u64;
        let count = |page: &PageData| {
            TablePage::new(page.segments(), records_per_table, cfg.hop_width).count()
        };
        for slot in 0..dir.len() as u32 {
            if let Some(ppa) = dir.entry(slot).table_ppa {
                match ftl.read_index_page(ppa) {
                    Ok(page) => {
                        let records = count(&page);
                        dir.entry_mut(slot).records = records;
                        len += records as u64;
                    }
                    Err(_) => {
                        dir.entry_mut(slot).table_ppa = None;
                        dir.entry_mut(slot).records = 0;
                        lost_tables += 1;
                    }
                }
            }
            if let Some(ppa) = dir.entry(slot).overflow_ppa {
                match ftl.read_index_page(ppa) {
                    Ok(page) => {
                        let records = count(&page);
                        dir.entry_mut(slot).overflow_records = records;
                        dir.entry_mut(slot).has_overflow = true;
                        len += records as u64;
                    }
                    Err(_) => {
                        dir.entry_mut(slot).overflow_ppa = None;
                        dir.entry_mut(slot).overflow_records = 0;
                        dir.entry_mut(slot).has_overflow = false;
                        lost_tables += 1;
                    }
                }
            }
        }

        let mut idx = RhikIndex {
            dir,
            cfg,
            records_per_table,
            len,
            stats: IndexStats::default(),
            dir_snapshot,
            dirty_mutations: 0,
            snapshot_seq,
            migration: None,
            recovery_lost_tables: lost_tables,
            view: None,
        };
        // The snapshot pages just consumed may themselves have been retired
        // (GC churn); re-anchor the persistent copy immediately so the next
        // crash has a self-consistent mount point.
        idx.flush_directory(ftl)?;
        Ok(idx)
    }

    /// Buckets whose snapshot-referenced table page had already been
    /// reclaimed when this index was recovered (0 on a clean mount).
    pub fn recovery_lost_tables(&self) -> u64 {
        self.recovery_lost_tables
    }

    /// The current configuration.
    pub fn config(&self) -> &RhikConfig {
        &self.cfg
    }

    /// Directory accessor (diagnostics, experiments).
    pub fn directory(&self) -> &Directory {
        &self.dir
    }

    /// Records one record-layer table holds (Eq. 1).
    pub fn records_per_table(&self) -> u32 {
        self.records_per_table
    }

    /// Total record capacity of the current configuration.
    pub fn total_capacity(&self) -> u64 {
        self.dir.len() as u64 * self.records_per_table as u64
    }

    /// Global occupancy in [0, 1].
    pub fn occupancy(&self) -> f64 {
        self.len as f64 / self.total_capacity() as f64
    }

    pub(crate) fn dir_mut(&mut self) -> &mut Directory {
        &mut self.dir
    }

    /// Whether a directory doubling is in flight (old and new directories
    /// both live, cursor advancing).
    pub fn resize_in_progress(&self) -> bool {
        self.migration.is_some()
    }

    /// The table that holds `sig`: its cache key, and whether its bucket
    /// has an overflow table. Mid-migration that is the frozen old table
    /// while `sig`'s old slot has not split, else the current one. Where
    /// the table lies on flash is asked only when it is loaded.
    fn route(&self, sig: KeySignature) -> (u64, bool) {
        let dir = match &self.migration {
            Some(m) if !m.is_split(m.old.slot_of(sig)) => &m.old,
            _ => &self.dir,
        };
        let slot = dir.slot_of(sig);
        (dir.cache_key(slot), dir.entry(slot).has_overflow)
    }

    /// Advance an in-flight migration before serving an index operation:
    /// at most `resize_migration_batch` old slots, plus — for mutations,
    /// which pass their signature — the operation's own slot, split first
    /// so the old tables stay frozen. Out of space, the cursor pauses
    /// until a later operation finds a free block; background slots can
    /// wait, but a mutation whose own slot is still pending cannot
    /// proceed.
    fn migration_work(
        &mut self,
        ftl: &mut Ftl,
        mutates: Option<KeySignature>,
    ) -> Result<(), FtlError> {
        let Some(m) = self.migration.as_ref() else { return Ok(()) };
        let target = mutates.map(|sig| m.old.slot_of(sig));
        match crate::resize::step(self, ftl, self.cfg.resize_migration_batch, target) {
            Err(FtlError::NeedsGc) => match (target, self.migration.as_ref()) {
                (Some(t), Some(m)) if !m.is_split(t) => Err(FtlError::NeedsGc),
                _ => Ok(()),
            },
            result => result.map(drop),
        }
    }

    /// Attach a [`ReadView`](rhik_ftl::ReadView) for this index to
    /// mirror: every `sig → head PPA` change (insert, update, delete, GC
    /// relocation) is reflected into the view, whose version bump after
    /// each change is what the device's lock-free gets validate against
    /// and what invalidates the hot cache. Directory doublings move no
    /// pair, so they need no view work.
    ///
    /// Returns `true` iff the view was accepted, which happens only while
    /// the index is empty: the view starts empty, so adopting it later
    /// would make every pre-existing key a lock-free miss.
    pub fn attach_read_view(&mut self, view: std::sync::Arc<rhik_ftl::ReadView>) -> bool {
        if self.len != 0 {
            return false;
        }
        self.view = Some(view);
        true
    }

    /// Mirror a `sig → head` change into the attached read view (no-op
    /// without one). Called at every insert/update success point,
    /// including GC relocation, which funnels through `insert`, after the
    /// table changed: once a reader observes the view's bump it is
    /// guaranteed to also observe the new value.
    #[inline]
    pub(crate) fn note_view_upsert(&self, sig: KeySignature, ppa: Ppa) {
        if let Some(view) = &self.view {
            view.upsert(sig.0, ppa);
        }
    }

    /// Mirror a deletion into the attached read view (no-op without one).
    #[inline]
    pub(crate) fn note_view_remove(&self, sig: KeySignature) {
        if let Some(view) = &self.view {
            view.remove(sig.0);
        }
    }

    /// Resize check: called after each insert (§IV-A2 "once the total
    /// occupancy of RHIK reaches a pre-defined threshold, its resizing
    /// function is triggered"). With `resize_migration_batch: u32::MAX`
    /// the doubling also finishes here, in one pass (Fig. 7). With no
    /// free page to re-anchor the snapshot the doubling does not begin;
    /// the record that triggered the check is already safely inserted,
    /// and the next insert tries again.
    fn maybe_resize(&mut self, ftl: &mut Ftl) -> Result<(), FtlError> {
        if self.migration.is_some() || self.occupancy() < self.cfg.occupancy_threshold {
            return Ok(()); // one doubling at a time
        }
        match crate::resize::begin(self, ftl) {
            Ok(()) if self.cfg.resize_migration_batch == u32::MAX => self.migration_work(ftl, None),
            Ok(()) | Err(FtlError::NeedsGc) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Flush the directory snapshot if the mutation interval elapsed.
    /// Suppressed while a migration is in flight — a snapshot cannot
    /// describe a half-split configuration, so the pre-doubling snapshot
    /// (re-anchored by `resize::begin`) stays the crash recovery point
    /// until the migration completes and flushes the doubled directory.
    fn maybe_flush_directory(&mut self, ftl: &mut Ftl) -> Result<(), FtlError> {
        self.dirty_mutations += 1;
        if self.dirty_mutations >= self.cfg.dir_flush_interval && self.migration.is_none() {
            self.flush_directory(ftl)?;
        }
        Ok(())
    }

    /// Write the directory's persistent copy (§IV-A) and retire the old
    /// snapshot pages.
    pub fn flush_directory(&mut self, ftl: &mut Ftl) -> Result<(), FtlError> {
        let page_size = ftl.geometry().page_size as usize;
        self.snapshot_seq += 1;
        let pages = self.dir.snapshot_pages(page_size, self.snapshot_seq);
        let mut new_snapshot = Vec::with_capacity(pages.len());
        for page in pages {
            new_snapshot.push(ftl.write_index_page(page.into(), SpareMeta::directory_page())?);
        }
        self.stats.metadata_flash_programs += new_snapshot.len() as u64;
        for old in std::mem::replace(&mut self.dir_snapshot, new_snapshot) {
            ftl.retire_index_page(old, page_size as u64);
        }
        self.dirty_mutations = 0;
        Ok(())
    }

    /// Flash pages of the current directory snapshot (diagnostics).
    pub fn dir_snapshot(&self) -> &[Ppa] {
        &self.dir_snapshot
    }

    /// The snapshot's pages as `(key, ppa)`, keyed in the index-page
    /// namespace GC relocates by.
    fn snapshot_pages(&self) -> impl Iterator<Item = (u64, Ppa)> + '_ {
        self.dir_snapshot.iter().enumerate().map(|(i, &ppa)| (DIR_PAGE_KEY | i as u64, ppa))
    }

    /// Every stored `signature → head` pair, read from the cached or flash
    /// copy of each live table without charging a flash read — the
    /// authoritative side of the auditor's read-view and hot-cache joins.
    pub fn peek_records(&self, ftl: &Ftl) -> std::collections::HashMap<u64, Ppa> {
        pages::peek_records(self, ftl)
    }

    /// Snapshot the index's cross-layer claims for the invariant auditor:
    /// every flash page the directory owns (with the spare-area kind the
    /// auditor should find there, and whether a clean cached copy differs
    /// from it), per-entry record counts, and the state of any in-flight
    /// migration. Pages are observed through [`Ftl::peek_page`] and the
    /// cache through `peek`, so the audit charges no flash reads and
    /// cannot disturb the ≤1-read statistics.
    pub fn audit_snapshot(&self, ftl: &Ftl, shard: u32) -> rhik_audit::IndexAuditSnapshot {
        use rhik_audit::{ObservedPage, OwnedPage, KIND_DIRECTORY, KIND_INDEX};

        let cache = ftl.cache_ref();
        let owned = |key: u64, ppa: Ppa, expected_kind: u8| {
            let page = ftl.peek_page(ppa);
            let observed = match &page {
                None => ObservedPage::Unprogrammed,
                Some((_, spare)) => match SpareMeta::decode(spare) {
                    Some(_) => ObservedPage::Kind(spare[0]),
                    None => ObservedPage::Undecodable,
                },
            };
            let clean_cache_diverged = match (cache.peek(key), &page) {
                (Some(cached), Some((data, _))) => !cache.is_dirty(key) && cached[..] != data[..],
                _ => false,
            };
            OwnedPage {
                key,
                ppa: (ppa.block, ppa.page),
                expected_kind,
                observed,
                clean_cache_diverged,
            }
        };
        // Mid-migration, un-split slots of the frozen old directory still
        // own their pages and hold the authoritative copy of their records:
        // the table walk covers them after the current directory.
        let mut owned_pages = Vec::new();
        let mut directory_records = 0u64;
        for (key, ppa, records) in self.tables() {
            directory_records += records as u64;
            owned_pages.extend(ppa.map(|ppa| owned(key, ppa, KIND_INDEX)));
        }
        owned_pages.extend(self.snapshot_pages().map(|(key, ppa)| owned(key, ppa, KIND_DIRECTORY)));

        let entries = (0..self.dir.len() as u32)
            .map(|slot| {
                let e = self.dir.entry(slot);
                rhik_audit::EntryAudit {
                    slot,
                    records: e.records,
                    overflow_records: e.overflow_records,
                    has_overflow: e.has_overflow,
                }
            })
            .collect();
        let migration = self.migration.as_ref().map(|m| rhik_audit::MigrationAudit {
            generation: self.dir.generation() as u64,
            cursor: m.cursor(),
            migrated: m.migrated(),
            keys_before: m.keys_before(),
            pending: directory_records - self.dir.total_records(),
        });

        rhik_audit::IndexAuditSnapshot {
            shard,
            len: self.len,
            records_per_table: self.records_per_table,
            directory_records,
            entries,
            owned_pages,
            migration,
        }
    }
}

impl CachedTables for RhikIndex {
    fn table_shape(&self) -> (u32, u32) {
        (self.records_per_table, self.cfg.hop_width)
    }

    fn stats_mut(&mut self) -> &mut IndexStats {
        &mut self.stats
    }

    /// A current-generation table, or mid-migration an un-split slot's
    /// table in the frozen old directory. Snapshot pages are written
    /// eagerly and never cached, so no key of theirs reaches here.
    fn table_ppa(&mut self, key: u64) -> Option<&mut Option<Ppa>> {
        if self.dir.is_current_key(key & !OVERFLOW_KEY) {
            self.dir.table_ppa_mut(key)
        } else {
            self.migration.as_mut()?.pending_table_ppa(key)
        }
    }

    /// Current slots ascending, primary then overflow; then the un-split
    /// slots of a migration's frozen old directory.
    fn tables(&self) -> impl Iterator<Item = (u64, Option<Ppa>, u32)> + '_ {
        self.dir.tables().chain(self.migration.iter().flat_map(|m| m.pending_tables()))
    }
}

impl IndexBackend for RhikIndex {
    fn insert(
        &mut self,
        ftl: &mut Ftl,
        sig: KeySignature,
        ppa: Ppa,
    ) -> Result<InsertOutcome, FtlError> {
        self.stats.inserts += 1;
        ftl.note_stage(rhik_telemetry::Stage::DirLookup, 0);
        self.migration_work(ftl, Some(sig))?;
        let slot = self.dir.slot_of(sig);
        let key = self.dir.cache_key(slot);
        let (mut table, _reads) = pages::load(self, ftl, key)?;

        // If the bucket has overflowed before, the signature may already
        // live in the overflow table; updates must land there, not create
        // a duplicate in the primary.
        if self.dir.entry(slot).has_overflow && table.lookup(ftl, sig).is_none() {
            table.pin(ftl); // the overflow load may evict the primary
            let (mut overflow, _) = pages::load(self, ftl, OVERFLOW_KEY | key)?;
            if overflow.lookup(ftl, sig).is_some() {
                let (TableInsert::Updated { old }, _) = overflow.insert(ftl, sig, ppa) else {
                    unreachable!("lookup said present");
                };
                self.note_view_upsert(sig, ppa);
                overflow.save(self, ftl)?;
                self.maybe_flush_directory(ftl)?;
                return Ok(InsertOutcome::Updated { old });
            }
            table.unpin(ftl);
        }

        // Counts and the read view follow the page the moment it changes,
        // so a refused write-back in `save` (which keeps every page) can
        // be retried without drift.
        let (placed, displacements) = table.insert(ftl, sig, ppa);
        let outcome = match placed {
            TableInsert::Inserted => {
                self.dir.entry_mut(slot).records += 1;
                self.len += 1;
                self.note_view_upsert(sig, ppa);
                table.save(self, ftl)?;
                InsertOutcome::Inserted
            }
            TableInsert::Updated { old } => {
                self.note_view_upsert(sig, ppa);
                table.save(self, ftl)?;
                InsertOutcome::Updated { old }
            }
            TableInsert::Full if self.cfg.hyper_local => {
                // §VI hyper-local scaling: absorb the reject in a
                // per-bucket overflow table instead of aborting.
                let (mut overflow, _) = pages::load(self, ftl, OVERFLOW_KEY | key)?;
                let outcome = match overflow.insert(ftl, sig, ppa).0 {
                    TableInsert::Inserted => {
                        let entry = self.dir.entry_mut(slot);
                        entry.overflow_records += 1;
                        entry.has_overflow = true;
                        self.len += 1;
                        InsertOutcome::Inserted
                    }
                    TableInsert::Updated { old } => InsertOutcome::Updated { old },
                    TableInsert::Full => {
                        self.stats.insert_aborts += 1;
                        return Err(FtlError::TableFull { table: slot as u64 });
                    }
                };
                self.note_view_upsert(sig, ppa);
                overflow.save(self, ftl)?;
                outcome
            }
            TableInsert::Full => {
                self.stats.insert_aborts += 1;
                return Err(FtlError::TableFull { table: slot as u64 });
            }
        };
        self.stats.hopscotch_displacements += displacements;
        self.maybe_resize(ftl)?;
        self.maybe_flush_directory(ftl)?;
        Ok(outcome)
    }

    fn lookup(&mut self, ftl: &mut Ftl, sig: KeySignature) -> Result<Option<Ppa>, FtlError> {
        self.stats.lookups += 1;
        ftl.note_stage(rhik_telemetry::Stage::DirLookup, 0);
        self.migration_work(ftl, None)?;
        // An un-split slot is served from the frozen old table, on the
        // same ≤ 1-flash-read path as a live table.
        let (key, has_overflow) = self.route(sig);
        let (table, mut reads) = pages::load(self, ftl, key)?;
        debug_assert!(reads <= 1, "primary lookup exceeded one flash read");
        let mut hit = table.lookup(ftl, sig);
        // Overflowed buckets may need a second read — the documented cost
        // of hyper-local scaling (resize migration may also create overflow
        // tables as a survival measure, so this is checked unconditionally).
        if hit.is_none() && has_overflow {
            let (overflow, r2) = pages::load(self, ftl, OVERFLOW_KEY | key)?;
            reads += r2;
            hit = overflow.lookup(ftl, sig);
        }
        self.stats.count_lookup(reads);
        Ok(hit)
    }

    fn remove(&mut self, ftl: &mut Ftl, sig: KeySignature) -> Result<Option<Ppa>, FtlError> {
        self.stats.removes += 1;
        ftl.note_stage(rhik_telemetry::Stage::DirLookup, 0);
        self.migration_work(ftl, Some(sig))?;
        let slot = self.dir.slot_of(sig);
        let key = self.dir.cache_key(slot);
        let (mut table, _) = pages::load(self, ftl, key)?;
        let mut removed = table.remove(ftl, sig);
        if removed.is_some() {
            self.dir.entry_mut(slot).records -= 1;
        } else if self.dir.entry(slot).has_overflow {
            let (mut overflow, _) = pages::load(self, ftl, OVERFLOW_KEY | key)?;
            removed = overflow.remove(ftl, sig);
            if removed.is_some() {
                self.dir.entry_mut(slot).overflow_records -= 1;
            }
            table = overflow;
        }
        if removed.is_some() {
            // As in `insert`, counts and the read view follow the page
            // before `save` can refuse a write-back.
            self.len -= 1;
            self.note_view_remove(sig);
            table.save(self, ftl)?;
            self.maybe_flush_directory(ftl)?;
        }
        Ok(removed)
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn capacity(&self) -> Option<u64> {
        Some(self.total_capacity())
    }

    fn dram_bytes(&self) -> u64 {
        self.dir.dram_bytes()
    }

    fn stats(&self) -> &IndexStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "rhik"
    }

    fn flush(&mut self, ftl: &mut Ftl) -> Result<(), FtlError> {
        // A snapshot cannot describe a half-migrated configuration: drive
        // any in-flight migration to completion first.
        while self.migration.is_some() {
            crate::resize::step(self, ftl, u32::MAX, None)?;
        }
        // Persist every dirty cached table, then the directory snapshot.
        pages::flush_dirty(self, ftl)?;
        self.flush_directory(ftl)
    }

    fn live_index_pages_in(&self, block: u32) -> Vec<(u64, Ppa)> {
        let mut live = pages::live_pages_in(self, block);
        live.extend(self.snapshot_pages().filter(|(_, ppa)| ppa.block == block));
        live
    }

    fn maintain_step(&mut self, ftl: &mut Ftl) -> Result<bool, FtlError> {
        if self.migration.is_none() {
            return Ok(false);
        }
        match crate::resize::step(self, ftl, self.cfg.resize_migration_batch, None) {
            Ok(n) => Ok(n > 0 || self.migration.is_none()),
            // Paused for space: no progress until garbage is collected.
            Err(FtlError::NeedsGc) => Ok(false),
            Err(e) => Err(e),
        }
    }

    fn migration_progress(&self) -> Option<(u64, u64)> {
        self.migration.as_ref().map(|m| m.progress())
    }

    fn scan_records(
        &mut self,
        ftl: &mut Ftl,
        visit: &mut dyn FnMut(KeySignature, Ppa),
    ) -> Result<(), FtlError> {
        pages::scan_records(self, ftl, visit)
    }

    fn relocate_index_page(
        &mut self,
        ftl: &mut Ftl,
        key: u64,
        old: Ppa,
    ) -> Result<Option<Ppa>, FtlError> {
        if key & DIR_PAGE_KEY == 0 {
            return pages::relocate(self, ftl, key, old);
        }
        // A directory snapshot fragment: rewrite the whole snapshot (it is
        // small and this is rare).
        if self.dir_snapshot.contains(&old) {
            self.flush_directory(ftl)?;
            return Ok(self.dir_snapshot.first().copied());
        }
        Ok(None)
    }
}

impl std::fmt::Debug for RhikIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RhikIndex")
            .field("keys", &self.len)
            .field("dir_bits", &self.dir.bits())
            .field("tables", &self.dir.len())
            .field("records_per_table", &self.records_per_table)
            .field("occupancy", &format!("{:.3}", self.occupancy()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhik_ftl::FtlConfig;

    fn setup() -> (Ftl, RhikIndex) {
        setup_with_blocks(8)
    }

    /// Larger device for index-churn-heavy tests (no GC runs inside these
    /// tests, so retired metadata pages are never reclaimed).
    fn setup_with_blocks(blocks: u32) -> (Ftl, RhikIndex) {
        let ftl = Ftl::new(FtlConfig {
            geometry: rhik_nand::NandGeometry {
                blocks,
                pages_per_block: 8,
                page_size: 512,
                spare_size: 16,
                channels: 2,
            },
            ..FtlConfig::tiny()
        });
        let idx = RhikIndex::new(
            RhikConfig {
                initial_dir_bits: 1,
                dir_flush_interval: 1_000_000,
                hop_width: 16,
                occupancy_threshold: 0.6,
                ..Default::default()
            },
            512,
        );
        (ftl, idx)
    }

    fn sig(n: u64) -> KeySignature {
        // splitmix64: well-mixed bits, standing in for real murmur output.
        let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        KeySignature(z ^ (z >> 31))
    }

    #[test]
    fn insert_lookup_remove_cycle() {
        let (mut ftl, mut idx) = setup();
        let p = Ppa::new(1, 2);
        assert_eq!(idx.insert(&mut ftl, sig(0xabc), p).unwrap(), InsertOutcome::Inserted);
        assert_eq!(idx.lookup(&mut ftl, sig(0xabc)).unwrap(), Some(p));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.remove(&mut ftl, sig(0xabc)).unwrap(), Some(p));
        assert_eq!(idx.lookup(&mut ftl, sig(0xabc)).unwrap(), None);
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn update_reports_old_location() {
        let (mut ftl, mut idx) = setup();
        idx.insert(&mut ftl, sig(7), Ppa::new(0, 1)).unwrap();
        let out = idx.insert(&mut ftl, sig(7), Ppa::new(0, 2)).unwrap();
        assert_eq!(out, InsertOutcome::Updated { old: Ppa::new(0, 1) });
        assert_eq!(idx.len(), 1, "updates do not grow the index");
        assert_eq!(idx.lookup(&mut ftl, sig(7)).unwrap(), Some(Ppa::new(0, 2)));
    }

    #[test]
    fn lookups_never_exceed_one_flash_read() {
        let (mut ftl, mut idx) = setup_with_blocks(512);
        // Insert enough keys to spill tables to flash (cache is 4 KiB = 8
        // tables of 512 B; dir starts at 2 tables but resizes up).
        for i in 0..400u64 {
            idx.insert(&mut ftl, sig(i), Ppa::new(0, (i % 8) as u32)).unwrap();
        }
        // Force write-back so tables live on flash, then drop the cache.
        idx.flush(&mut ftl).unwrap();
        for i in 0..400u64 {
            let s = sig(i);
            assert!(idx.lookup(&mut ftl, s).unwrap().is_some(), "key {i} lost");
        }
        let st = idx.stats();
        assert!(st.pct_lookups_within(1) >= 100.0 - 1e-9, "max-1-read violated");
    }

    #[test]
    fn occupancy_triggers_resize() {
        let (mut ftl, mut idx) = setup();
        let cap0 = idx.total_capacity();
        let bits0 = idx.directory().bits();
        let mut i = 0u64;
        while idx.directory().bits() == bits0 {
            idx.insert(&mut ftl, sig(i ^ 0xAAAA_0000), Ppa::new(0, 0)).unwrap();
            i += 1;
            assert!(i < 10_000, "resize never triggered");
        }
        assert_eq!(idx.directory().bits(), bits0 + 1);
        assert_eq!(idx.total_capacity(), cap0 * 2);
        // Every key survives the migration.
        for k in 0..i {
            let s = sig(k ^ 0xAAAA_0000);
            assert!(idx.lookup(&mut ftl, s).unwrap().is_some(), "key {k} lost in resize");
        }
        assert_eq!(idx.stats().resizes.len(), 1);
        let ev = idx.stats().resizes[0];
        assert!(ev.keys_before > 0);
        assert!(ev.flash_programs > 0);
    }

    #[test]
    fn many_keys_many_resizes() {
        let (mut ftl, mut idx) = setup_with_blocks(2048);
        let n = 1500u64;
        for i in 0..n {
            idx.insert(&mut ftl, sig(i ^ 0xBBBB_0000), Ppa::new(0, 0)).unwrap();
        }
        assert_eq!(idx.len(), n);
        assert!(idx.stats().resizes.len() >= 3, "resizes: {}", idx.stats().resizes.len());
        assert!(idx.occupancy() < idx.config().occupancy_threshold);
        for i in 0..n {
            let s = sig(i ^ 0xBBBB_0000);
            assert!(idx.lookup(&mut ftl, s).unwrap().is_some(), "key {i} lost");
        }
    }

    #[test]
    fn contains_is_signature_membership() {
        let (mut ftl, mut idx) = setup();
        idx.insert(&mut ftl, sig(1), Ppa::new(0, 0)).unwrap();
        assert!(idx.contains(&mut ftl, sig(1)).unwrap());
        assert!(!idx.contains(&mut ftl, sig(2)).unwrap());
    }

    #[test]
    fn flush_persists_tables_and_directory() {
        let (mut ftl, mut idx) = setup();
        for i in 0..50u64 {
            idx.insert(&mut ftl, sig(i.wrapping_add(5_000_000)), Ppa::new(0, 0)).unwrap();
        }
        idx.flush(&mut ftl).unwrap();
        assert!(!idx.dir_snapshot().is_empty());
        // All tables with records have a persistent location.
        for slot in 0..idx.directory().len() as u32 {
            let e = idx.directory().entry(slot);
            if e.records > 0 {
                assert!(e.table_ppa.is_some(), "slot {slot} not persisted");
            }
        }
        // The snapshot round-trips through flash bytes.
        let mut pages = Vec::new();
        for &ppa in idx.dir_snapshot() {
            pages.push(ftl.read_index_page(ppa).unwrap().to_bytes());
        }
        let rebuilt = Directory::from_snapshot_pages(&pages).unwrap();
        assert_eq!(rebuilt.bits(), idx.directory().bits());
    }

    #[test]
    fn live_pages_reported_per_block() {
        let (mut ftl, mut idx) = setup();
        for i in 0..100u64 {
            idx.insert(&mut ftl, sig(i.wrapping_add(6_000_000)), Ppa::new(0, 0)).unwrap();
        }
        idx.flush(&mut ftl).unwrap();
        let mut total = 0;
        for b in 0..ftl.geometry().blocks {
            total += idx.live_index_pages_in(b).len();
        }
        let persisted_tables = (0..idx.directory().len() as u32)
            .filter(|&s| idx.directory().entry(s).table_ppa.is_some())
            .count();
        assert_eq!(total, persisted_tables + idx.dir_snapshot().len());
    }

    #[test]
    fn relocation_moves_table_and_preserves_lookups() {
        let (mut ftl, mut idx) = setup();
        for i in 0..60u64 {
            idx.insert(&mut ftl, sig(i.wrapping_add(7_000_000)), Ppa::new(0, 0)).unwrap();
        }
        idx.flush(&mut ftl).unwrap();
        let slot = (0..idx.directory().len() as u32)
            .find(|&s| idx.directory().entry(s).table_ppa.is_some())
            .unwrap();
        let old = idx.directory().entry(slot).table_ppa.unwrap();
        let key = idx.directory().cache_key(slot);
        // Drop the cached copy so relocation reads from flash.
        ftl.cache().remove(key);
        let new = idx.relocate_index_page(&mut ftl, key, old).unwrap().unwrap();
        assert_ne!(new, old);
        assert_eq!(idx.directory().entry(slot).table_ppa, Some(new));
        // Stale relocation requests are ignored.
        assert_eq!(idx.relocate_index_page(&mut ftl, key, old).unwrap(), None);
    }

    #[test]
    fn stale_generation_cache_entries_are_not_written_back() {
        let (mut ftl, mut idx) = setup();
        let mut i = 0u64;
        let bits0 = idx.directory().bits();
        while idx.directory().bits() == bits0 {
            idx.insert(&mut ftl, sig(i ^ 0xCCCC_0000), Ppa::new(0, 0)).unwrap();
            i += 1;
        }
        // After resize the cache may still hold old-generation pages; a
        // flush must not resurrect them.
        let tables_before = (0..idx.directory().len() as u32)
            .filter_map(|s| idx.directory().entry(s).table_ppa)
            .collect::<Vec<_>>();
        idx.flush(&mut ftl).unwrap();
        for ppa in tables_before {
            // Old pointers may have been superseded but never dangle into
            // erased blocks (GC hasn't run here).
            let _ = ftl.read_index_page(ppa).unwrap();
        }
    }

    #[test]
    fn hyper_local_absorbs_table_full() {
        // Tiny tables (R=30, hop 4) + threshold 1.0 so the global resize
        // never rescues a locally-full bucket: without hyper-local this
        // aborts, with it every insert lands.
        let mk = |hyper_local: bool| {
            RhikIndex::new(
                RhikConfig {
                    initial_dir_bits: 0,
                    hop_width: 4,
                    occupancy_threshold: 1.0,
                    dir_flush_interval: 1_000_000,
                    hyper_local,
                    ..Default::default()
                },
                512,
            )
        };
        // Baseline: find a fill level where the paper design aborts.
        let mut ftl = Ftl::new(FtlConfig::tiny());
        let mut plain = mk(false);
        let mut abort_at = None;
        for i in 0..30u64 {
            if plain.insert(&mut ftl, sig(i), Ppa::new(0, 0)).is_err() {
                abort_at = Some(i);
                break;
            }
        }
        let abort_at = abort_at.expect("hop width 4 must abort before 30 inserts");

        // Hyper-local: same stream sails past the abort point.
        let mut ftl = Ftl::new(FtlConfig::tiny());
        let mut hl = mk(true);
        for i in 0..=abort_at {
            hl.insert(&mut ftl, sig(i), Ppa::new(0, 0))
                .unwrap_or_else(|e| panic!("hyper-local aborted at {i}: {e}"));
        }
        assert_eq!(hl.len(), abort_at + 1);
        // Every key — primary or overflow — resolves, updates and removals
        // included.
        for i in 0..=abort_at {
            assert!(hl.lookup(&mut ftl, sig(i)).unwrap().is_some(), "key {i} lost");
        }
        hl.insert(&mut ftl, sig(0), Ppa::new(1, 1)).unwrap();
        assert_eq!(hl.lookup(&mut ftl, sig(0)).unwrap(), Some(Ppa::new(1, 1)));
        assert_eq!(hl.remove(&mut ftl, sig(abort_at)).unwrap(), Some(Ppa::new(0, 0)));
        assert_eq!(hl.len(), abort_at);
    }

    #[test]
    fn hyper_local_overflow_dissolves_on_resize() {
        let mut ftl = Ftl::new(FtlConfig {
            geometry: rhik_nand::NandGeometry {
                blocks: 256,
                pages_per_block: 8,
                page_size: 512,
                spare_size: 16,
                channels: 2,
            },
            ..FtlConfig::tiny()
        });
        let mut idx = RhikIndex::new(
            RhikConfig {
                initial_dir_bits: 0,
                hop_width: 4, // aborts early → overflow tables form
                occupancy_threshold: 0.9,
                dir_flush_interval: 1_000_000,
                hyper_local: true,
                ..Default::default()
            },
            512,
        );
        let n = 400u64;
        for i in 0..n {
            idx.insert(&mut ftl, sig(i), Ppa::new(0, 0)).unwrap();
        }
        assert!(idx.stats().resizes.len() >= 3);
        assert_eq!(idx.len(), n);
        for i in 0..n {
            assert!(idx.lookup(&mut ftl, sig(i)).unwrap().is_some(), "key {i} lost");
        }
    }

    #[test]
    fn mid_migration_interleaving_loses_no_keys() {
        // Batch 1 keeps each doubling in flight across many operations;
        // mirror the index against a HashMap while inserts, lookups, and
        // removes land mid-migration, then drain it completely — every key
        // must come out exactly once (no loss, no double-residency).
        let mut ftl = Ftl::new(FtlConfig {
            geometry: rhik_nand::NandGeometry {
                blocks: 1024,
                pages_per_block: 8,
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
                resize_migration_batch: 1,
                ..Default::default()
            },
            512,
        );
        let mut mirror = std::collections::HashMap::new();
        let mut in_flight_ops = 0u64;
        for i in 0..1200u64 {
            let s = sig(i ^ 0xD1D1_0000);
            let p = Ppa::new((i % 32) as u32, (i % 8) as u32);
            idx.insert(&mut ftl, s, p).unwrap();
            mirror.insert(s, p);
            if idx.resize_in_progress() {
                in_flight_ops += 1;
                // Probe older keys while the cursor is mid-directory: some
                // route to the frozen old tables, some to already-split
                // slots.
                let probe = sig((i / 2) ^ 0xD1D1_0000);
                assert_eq!(idx.lookup(&mut ftl, probe).unwrap(), mirror.get(&probe).copied());
                if i % 5 == 0 {
                    let victim = sig((i / 3) ^ 0xD1D1_0000);
                    assert_eq!(idx.remove(&mut ftl, victim).unwrap(), mirror.remove(&victim));
                }
            }
        }
        assert!(idx.stats().resizes.len() >= 3, "want ≥3 doublings under interleaved ops");
        assert!(in_flight_ops > 50, "migrations completed too eagerly: {in_flight_ops}");
        assert_eq!(idx.len(), mirror.len() as u64);
        for (s, p) in &mirror {
            assert_eq!(idx.lookup(&mut ftl, *s).unwrap(), Some(*p), "key lost");
        }
        // Un-migrated-slot lookups stayed within the one-flash-read bound.
        assert!(idx.stats().pct_lookups_within(1) >= 100.0 - 1e-9);
        // Drain: each key removable exactly once, then gone.
        let keys: Vec<_> = mirror.keys().copied().collect();
        for s in &keys {
            assert!(idx.remove(&mut ftl, *s).unwrap().is_some(), "key vanished before drain");
        }
        assert_eq!(idx.len(), 0);
        for s in &keys {
            assert_eq!(idx.lookup(&mut ftl, *s).unwrap(), None, "double-resident key");
        }
    }

    #[test]
    fn maintain_step_drains_migration_without_foreground_ops() {
        let (mut ftl, mut idx) = setup_with_blocks(256);
        let bits0 = idx.directory().bits();
        let mut i = 0u64;
        while !idx.resize_in_progress() {
            idx.insert(&mut ftl, sig(i ^ 0xEEEE_0000), Ppa::new(0, 0)).unwrap();
            i += 1;
            assert!(i < 10_000, "resize never triggered");
        }
        // Idle-time stepping only: no further foreground traffic.
        let mut steps = 0u32;
        while idx.maintain_step(&mut ftl).unwrap() {
            steps += 1;
            assert!(steps < 10_000, "maintain_step never converged");
        }
        assert!(!idx.resize_in_progress());
        assert_eq!(idx.directory().bits(), bits0 + 1);
        assert_eq!(idx.stats().resizes.len(), 1);
        for k in 0..i {
            assert!(idx.lookup(&mut ftl, sig(k ^ 0xEEEE_0000)).unwrap().is_some(), "key {k} lost");
        }
    }

    #[test]
    fn audit_snapshot_stays_clean_through_resizes() {
        let (mut ftl, mut idx) = setup_with_blocks(512);
        let mut auditor = rhik_audit::DeviceAuditor::new();
        for i in 0..400u64 {
            idx.insert(&mut ftl, sig(i ^ 0xF00D_0000), Ppa::new(0, (i % 8) as u32)).unwrap();
            if i % 50 == 0 {
                let report =
                    auditor.check_device(&ftl.audit_flash(0), &idx.audit_snapshot(&ftl, 0));
                assert!(report.is_ok(), "mid-fill audit failed: {report}");
            }
        }
        assert!(idx.stats().resizes.len() >= 2, "audit must cover post-resize state");
        idx.flush(&mut ftl).unwrap();
        let report = auditor.check_device(&ftl.audit_flash(0), &idx.audit_snapshot(&ftl, 0));
        assert!(report.is_ok(), "post-flush audit failed: {report}");
        let snap = idx.audit_snapshot(&ftl, 0);
        assert_eq!(snap.len, idx.len());
        assert_eq!(snap.directory_records, idx.len());
        assert!(!snap.owned_pages.is_empty());
    }

    #[test]
    fn audit_snapshot_tracks_migration_accounting() {
        let (mut ftl, _) = setup_with_blocks(512);
        let mut idx = RhikIndex::new(
            RhikConfig {
                initial_dir_bits: 1,
                dir_flush_interval: 1_000_000,
                hop_width: 16,
                occupancy_threshold: 0.6,
                resize_migration_batch: 1,
                ..Default::default()
            },
            512,
        );
        let mut auditor = rhik_audit::DeviceAuditor::new();
        let mut saw_migration = false;
        for i in 0..600u64 {
            idx.insert(&mut ftl, sig(i ^ 0xBEEF_0000), Ppa::new(0, 0)).unwrap();
            if idx.resize_in_progress() {
                saw_migration = true;
                let snap = idx.audit_snapshot(&ftl, 0);
                let m = snap.migration.as_ref().expect("migration reported");
                assert_eq!(m.migrated + m.pending, m.keys_before, "accounting broke mid-split");
                let report = auditor.check_device(&ftl.audit_flash(0), &snap);
                assert!(report.is_ok(), "mid-migration audit failed: {report}");
            }
        }
        assert!(saw_migration, "batch 1 must leave migrations observable");
    }

    /// A signature in `slot` of the current directory, from the `i`-th on.
    fn sig_in_slot(idx: &RhikIndex, slot: u32, mut i: u64) -> KeySignature {
        while idx.directory().slot_of(sig(i)) != slot {
            i += 1;
        }
        sig(i)
    }

    #[test]
    fn lookup_reads_the_overflow_a_write_back_just_moved() {
        // 30-slot tables, a two-page cache, four slots, hop width 4 and a
        // one-slot migration batch: an un-split slot's overflow table is
        // written back to a new address by the load of its own primary.
        let mut ftl = Ftl::new(FtlConfig {
            geometry: rhik_nand::NandGeometry {
                blocks: 256,
                pages_per_block: 8,
                page_size: 512,
                spare_size: 16,
                channels: 2,
            },
            cache_budget_bytes: 1024,
            ..FtlConfig::tiny()
        });
        let mut idx = RhikIndex::new(
            RhikConfig {
                initial_dir_bits: 2,
                hop_width: 4,
                dir_flush_interval: 1_000_000,
                hyper_local: true,
                resize_migration_batch: 1,
                ..Default::default()
            },
            512,
        );
        let (old, new) = (Ppa::new(1, 1), Ppa::new(2, 2));
        // X: the first key of slot 3 its primary table rejects.
        let mut i = 0;
        let x = loop {
            let s = sig_in_slot(&idx, 3, i);
            i = s.0 % 1_000_000 + 1;
            idx.insert(&mut ftl, s, old).unwrap();
            if idx.directory().entry(3).has_overflow {
                break s;
            }
        };
        // Fill slots 0 and 2 until one more record begins the doubling.
        let threshold = idx.config().occupancy_threshold;
        let mut next = 0;
        while ((idx.len() + 1) as f64 / idx.total_capacity() as f64) < threshold {
            let s = sig_in_slot(&idx, [0, 2][idx.len() as usize % 2], next);
            next = s.0 % 1_000_000 + 1;
            let _ = idx.insert(&mut ftl, s, old); // a full overflow just skips the key
        }
        idx.flush(&mut ftl).unwrap();
        // The overflow holding X turns dirty; its flash copy still says `old`.
        idx.insert(&mut ftl, x, new).unwrap();
        let primary = idx.directory().cache_key(3);
        assert!(ftl.cache_ref().is_dirty(OVERFLOW_KEY | primary));
        // One insert into slot 1 evicts slot 3's primary and begins the
        // doubling.
        idx.insert(&mut ftl, sig_in_slot(&idx, 1, 0), old).unwrap();
        assert!(idx.resize_in_progress());
        assert!(ftl.cache_ref().peek(primary).is_none());

        let mut auditor = rhik_audit::DeviceAuditor::new();
        assert_eq!(idx.lookup(&mut ftl, x).unwrap(), Some(new), "mid-doubling");
        let report = auditor.check_device(&ftl.audit_flash(0), &idx.audit_snapshot(&ftl, 0));
        assert!(report.is_ok(), "mid-doubling audit: {report}");
        while idx.maintain_step(&mut ftl).unwrap() {}
        assert!(!idx.resize_in_progress());
        assert_eq!(idx.lookup(&mut ftl, x).unwrap(), Some(new), "after the doubling");
        let report = auditor.check_device(&ftl.audit_flash(0), &idx.audit_snapshot(&ftl, 0));
        assert!(report.is_ok(), "post-doubling audit: {report}");
    }

    #[test]
    fn patching_a_cached_table_never_writes_through_to_flash() {
        let (mut ftl, mut idx) = setup_with_blocks(64);
        for i in 0..40u64 {
            idx.insert(&mut ftl, sig(i), Ppa::new(1, 1)).unwrap();
        }
        let slot = 0;
        let key = idx.directory().cache_key(slot);
        let mut next = 1_000u64;
        for round in ["after flush", "after a fill from flash"] {
            // Flushing writes the cached page back: flash and cache now
            // share one buffer. The second round also drops the cached
            // copy, so the lookup below fills the cache from flash.
            idx.flush(&mut ftl).unwrap();
            if round == "after a fill from flash" {
                ftl.cache().remove(key);
                idx.lookup(&mut ftl, sig_in_slot(&idx, slot, 0)).unwrap();
                assert!(ftl.cache_ref().peek(key).is_some(), "lookup filled the cache");
            }
            let ppa = idx.directory().entry(slot).table_ppa.expect("slot persisted");
            let on_flash = ftl.peek_page(ppa).unwrap().0.to_vec();
            assert_eq!(&ftl.cache_ref().peek(key).unwrap()[..], &on_flash[..]);

            let s = sig_in_slot(&idx, slot, next);
            next = s.0 % 1_000_000 + 1;
            idx.insert(&mut ftl, s, Ppa::new(2, 2)).unwrap();
            assert_eq!(idx.directory().entry(slot).table_ppa, Some(ppa), "{round}: no write-back");
            assert_eq!(ftl.peek_page(ppa).unwrap().0.to_vec(), on_flash, "{round}: flash changed");
            assert_ne!(&ftl.cache_ref().peek(key).unwrap()[..], &on_flash[..], "{round}");
            assert!(ftl.cache_ref().is_dirty(key));
            assert_eq!(idx.lookup(&mut ftl, s).unwrap(), Some(Ppa::new(2, 2)));
        }
    }

    #[test]
    fn table_full_after_displacements_leaves_the_cached_page_clean() {
        // 30-slot tables with hop width 4 and no resize until a table is
        // completely full: inserts start failing well before that, some
        // after moving records.
        let mut ftl = Ftl::new(FtlConfig {
            geometry: rhik_nand::NandGeometry {
                blocks: 512,
                pages_per_block: 8,
                page_size: 512,
                spare_size: 16,
                channels: 2,
            },
            ..FtlConfig::tiny()
        });
        let mut idx = RhikIndex::new(
            RhikConfig {
                initial_dir_bits: 0,
                hop_width: 4,
                occupancy_threshold: 1.0,
                dir_flush_interval: 1_000_000,
                ..Default::default()
            },
            512,
        );
        let mut displaced_fulls = 0;
        for i in 0..400u64 {
            idx.flush(&mut ftl).unwrap();
            let slot = idx.directory().slot_of(sig(i));
            let key = idx.directory().cache_key(slot);
            let before = ftl.cache_ref().peek(key);
            // What the same insert does to an owned copy of the page.
            let rehearsal = before.as_ref().map(|page| {
                let mut t = crate::RecordTable::from_page(page, 30, 4);
                (t.insert(sig(i), Ppa::new(0, 0)), t.displacements())
            });
            if let Err(e) = idx.insert(&mut ftl, sig(i), Ppa::new(0, 0)) {
                assert_eq!(e, FtlError::TableFull { table: slot as u64 });
                assert_eq!(ftl.cache_ref().peek(key), before, "page changed");
                assert!(!ftl.cache_ref().is_dirty(key), "a failed insert dirtied the page");
                if let Some((TableInsert::Full, moves)) = rehearsal {
                    displaced_fulls += (moves > 0) as u32;
                }
            }
        }
        assert!(displaced_fulls > 0, "no Full insert displaced records first");
    }

    #[test]
    fn refused_write_back_loses_no_acknowledged_key() {
        // Sixteen tables share an 8-page cache on a 64-page FTL nobody
        // garbage-collects: dirty-table write-backs drain the pool until
        // one is refused.
        let mut ftl = Ftl::new(FtlConfig::tiny());
        let mut idx = RhikIndex::new(
            RhikConfig {
                initial_dir_bits: 4,
                hop_width: 16,
                occupancy_threshold: 1.0,
                dir_flush_interval: 1_000_000,
                ..Default::default()
            },
            512,
        );
        let mut acked = std::collections::HashMap::new();
        let mut refused = false;
        for i in 0..2_000u64 {
            let (s, p) = (sig(i ^ 0x5eed), Ppa::new(i as u32 % 8, i as u32 % 8));
            match idx.insert(&mut ftl, s, p) {
                Ok(_) => {}
                // Retry once, as `KvssdDevice::put` does after collecting.
                Err(FtlError::NeedsGc) => {
                    refused = true;
                    if idx.insert(&mut ftl, s, p).is_err() {
                        break;
                    }
                }
                Err(e) => panic!("insert {i}: {e}"),
            }
            acked.insert(s, p);
            if refused {
                break;
            }
        }
        assert!(refused, "the pool never ran dry");
        assert_eq!(idx.len(), acked.len() as u64, "len drifted from the acknowledged keys");
        // Reading the rest back needs write-backs too: collect garbage
        // whenever one is refused, as the device's lookup path does.
        let gc = rhik_ftl::GcConfig { low_watermark: 4, high_watermark: 4, ..Default::default() };
        for (s, p) in &acked {
            let found = loop {
                match idx.lookup(&mut ftl, *s) {
                    Ok(found) => break found,
                    Err(FtlError::NeedsGc) => {
                        let report = rhik_ftl::gc::run(&mut ftl, &mut idx, &gc).unwrap();
                        assert!(report.index_blocks_erased > 0, "GC reclaimed nothing");
                    }
                    Err(e) => panic!("lookup: {e}"),
                }
            };
            assert_eq!(found, Some(*p), "acknowledged key lost");
        }
    }

    #[test]
    fn dram_bytes_is_directory_only() {
        let (_, idx) = setup();
        assert_eq!(idx.dram_bytes(), idx.directory().dram_bytes());
        assert_eq!(idx.name(), "rhik");
        assert_eq!(idx.capacity(), Some(idx.total_capacity()));
    }
}
