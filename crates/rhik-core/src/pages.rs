//! Record-layer tables served from the FTL's DRAM page cache, probed and
//! patched in their flash encoding, and moved on flash by one protocol.
//!
//! RHIK and the multi-level hash baseline keep every table as one flash
//! page. An index states only what it alone knows ([`CachedTables`]):
//! where the live table cached under a key has its flash copy, and which
//! tables are live. Everything else is written once, here:
//!
//! * [`load`] counts a cache hit, or on a miss reads the table's flash
//!   page (the ≤ 1 read) and installs it clean;
//! * [`Table`] probes the page where it lies and patches only the slots an
//!   operation touches. A resident page is patched in the cache,
//!   copy-on-write: the first write after a flash fill or a write-back —
//!   whose bytes the flash array still holds — copies the page once, and
//!   later writes copy nothing;
//! * [`Table::save`] accounts the patch exactly as re-inserting the page
//!   dirty would, so hit, miss, insertion and eviction counts, LRU order
//!   and every write-back decision match a decode–modify–encode cycle;
//! * [`install`] writes back the dirty pages an insertion evicts. A
//!   refused write-back puts that victim and every later dirty one back
//!   in the cache, resident and dirty, before the error reaches the
//!   caller — nothing is lost, and the caller can collect garbage and
//!   retry;
//! * [`program`] is the one way a table page reaches flash — write-back,
//!   checkpoint, GC relocation and resize splits alike: program the page,
//!   repoint the table, retire the copy it replaces. [`retire`] drops a
//!   table for good;
//! * [`live_pages_in`], [`relocate`] and [`scan_records`] walk the live
//!   tables in the index's fixed order for GC and iterators.

use bytes::Bytes;
use rhik_ftl::cache::Evicted;
use rhik_ftl::layout::SpareMeta;
use rhik_ftl::{Ftl, FtlError, IndexStats};
use rhik_nand::Ppa;
use rhik_sigs::KeySignature;

use crate::bucket::{empty_page, TableInsert, TablePage};

/// An index whose record-layer tables are pages in the FTL page cache.
pub trait CachedTables {
    /// Slots per table (Eq. 1) and hop width.
    fn table_shape(&self) -> (u32, u32);

    /// The index's counters (table reads charge `metadata_flash_reads`,
    /// table programs `metadata_flash_programs`).
    fn stats_mut(&mut self) -> &mut IndexStats;

    /// The flash pointer of the live table cached under `key` — itself
    /// `None` while that table was never persisted. `None` once the table
    /// is retired or resized away: a cached copy left behind is dead, and
    /// is neither written back nor relocated.
    fn table_ppa(&mut self, key: u64) -> Option<&mut Option<Ppa>>;

    /// Every live table as `(cache key, flash copy, record count)`, in a
    /// fixed order — the order GC relocates in.
    fn tables(&self) -> impl Iterator<Item = (u64, Option<Ppa>, u32)> + '_;
}

/// Where a loaded table's bytes are.
enum Place {
    /// In the page cache under the table's key.
    Resident,
    /// Held here: a page the cache could not keep, or one pinned across
    /// another table's load.
    Owned(Bytes),
    /// Never persisted and not cached: an empty table, built on first
    /// write.
    Unwritten,
}

/// One table, loaded for an operation. Valid until the next cache
/// operation other than its own (see [`Table::pin`]).
pub struct Table {
    key: u64,
    records: u32,
    hop_width: u32,
    place: Place,
}

/// Reach the table cached under `key` and persisted at `ppa`: a cache hit,
/// a flash read installed clean, or — with no page anywhere — an empty
/// table. Returns the table and the flash reads performed (0 or 1).
pub fn load<I: CachedTables>(
    index: &mut I,
    ftl: &mut Ftl,
    key: u64,
    ppa: Option<Ppa>,
) -> Result<(Table, u64), FtlError> {
    let (records, hop_width) = index.table_shape();
    let table = |place| Table { key, records, hop_width, place };
    if ftl.cache().get(key).is_some() {
        return Ok((table(Place::Resident), 0));
    }
    let Some(ppa) = ppa else { return Ok((table(Place::Unwritten), 0)) };
    let bytes = ftl.read_index_page(ppa)?;
    index.stats_mut().metadata_flash_reads += 1;
    install(index, ftl, key, bytes.clone(), false)?;
    // A page larger than the whole cache budget bounces straight back out.
    let place =
        if ftl.cache_ref().peek(key).is_some() { Place::Resident } else { Place::Owned(bytes) };
    Ok((table(place), 1))
}

/// Insert `data` into the cache under `key` and write back the dirty pages
/// it evicts. If a write-back fails, that victim and every later dirty one
/// go back into the cache, resident and dirty, and the error is returned.
pub fn install<I: CachedTables>(
    index: &mut I,
    ftl: &mut Ftl,
    key: u64,
    data: Bytes,
    dirty: bool,
) -> Result<(), FtlError> {
    let mut victims = ftl.cache().insert(key, data, dirty).into_iter().filter(|ev| ev.dirty);
    while let Some(ev) = victims.next() {
        if let Err(e) = program(index, ftl, ev.key, ev.data.clone()) {
            let unwritten: Vec<Evicted> = std::iter::once(ev).chain(victims).collect();
            ftl.cache().restore(unwritten);
            return Err(e);
        }
    }
    Ok(())
}

/// Persist every dirty cached page (a checkpoint). Each page turns clean
/// only once its write-back succeeded, so an error leaves the rest dirty.
pub fn flush_dirty<I: CachedTables>(index: &mut I, ftl: &mut Ftl) -> Result<(), FtlError> {
    for (key, data) in ftl.cache_ref().dirty_pages() {
        program(index, ftl, key, data)?;
        ftl.cache().mark_clean(key);
    }
    Ok(())
}

/// Program `data` as the new flash copy of the live table cached under
/// `key`, repoint the table at it and retire the copy it replaces. A table
/// no longer live is not written (`Ok(None)`): its page died with it. An
/// error means nothing was persisted.
pub fn program<I: CachedTables>(
    index: &mut I,
    ftl: &mut Ftl,
    key: u64,
    data: Bytes,
) -> Result<Option<Ppa>, FtlError> {
    if index.table_ppa(key).is_none() {
        return Ok(None);
    }
    let page_bytes = data.len() as u64;
    let ppa = ftl.write_index_page(data, SpareMeta::index_page())?;
    index.stats_mut().metadata_flash_programs += 1;
    if let Some(old) = index.table_ppa(key).and_then(|at| at.replace(ppa)) {
        ftl.retire_index_page(old, page_bytes);
    }
    Ok(Some(ppa))
}

/// Retire the table cached under `key` for good: its flash copy `ppa`, if
/// any, goes stale for the garbage collector and its cached copy is
/// dropped. The caller stops reporting the table live.
pub fn retire(ftl: &mut Ftl, key: u64, ppa: Option<Ppa>) {
    if let Some(ppa) = ppa {
        ftl.retire_index_page(ppa, ftl.geometry().page_size as u64);
    }
    ftl.cache().remove(key);
}

/// GC: move the live table cached under `key` off its flash copy `old`.
/// `Ok(None)` when the table has moved since, or is no longer live.
pub fn relocate<I: CachedTables>(
    index: &mut I,
    ftl: &mut Ftl,
    key: u64,
    old: Ppa,
) -> Result<Option<Ppa>, FtlError> {
    if index.table_ppa(key).map(|at| *at) != Some(Some(old)) {
        return Ok(None);
    }
    let bytes = ftl.read_index_page(old)?;
    index.stats_mut().metadata_flash_reads += 1;
    program(index, ftl, key, bytes)
}

/// The live tables whose flash copy lies in `block`, as `(cache key,
/// ppa)` in table order (what GC relocates before erasing the block).
pub fn live_pages_in<I: CachedTables>(index: &I, block: u32) -> Vec<(u64, Ppa)> {
    index
        .tables()
        .filter_map(|(key, ppa, _)| ppa.filter(|p| p.block == block).map(|p| (key, p)))
        .collect()
}

/// Visit every stored `(signature, ppa)`, table by table in table order,
/// loading each table that holds records through the cache.
pub fn scan_records<I: CachedTables>(
    index: &mut I,
    ftl: &mut Ftl,
    visit: &mut dyn FnMut(KeySignature, Ppa),
) -> Result<(), FtlError> {
    let keys: Vec<u64> =
        index.tables().filter(|&(_, _, records)| records > 0).map(|(key, ..)| key).collect();
    for key in keys {
        // A load can write back an evicted table, so each flash copy is
        // looked up only when its own turn comes.
        let ppa = index.table_ppa(key).and_then(|at| *at);
        let (table, _) = load(index, ftl, key, ppa)?;
        table.for_each(ftl, visit);
    }
    Ok(())
}

impl Table {
    fn page<'a>(&'a self, ftl: &'a Ftl) -> Option<TablePage<&'a [u8]>> {
        let bytes = match &self.place {
            Place::Resident => match ftl.cache_ref().peek(self.key) {
                Some(bytes) => bytes,
                None => unreachable!("table {:#x} left the cache while loaded", self.key),
            },
            Place::Owned(bytes) => bytes,
            Place::Unwritten => return None,
        };
        Some(TablePage::new(&bytes[..], self.records, self.hop_width))
    }

    /// Run `op` on a writable page: the resident copy (copy-on-write), the
    /// owned one, or a fresh empty page for an unwritten table.
    fn patch<R>(&mut self, ftl: &mut Ftl, op: impl FnOnce(&mut TablePage<&mut [u8]>) -> R) -> R {
        if matches!(self.place, Place::Unwritten) {
            let page = empty_page(self.records, ftl.geometry().page_size as usize);
            self.place = Place::Owned(Bytes::from(page));
        }
        let buf = match &mut self.place {
            Place::Owned(bytes) => bytes.make_mut(),
            _ => match ftl.cache().page_mut(self.key) {
                Some(buf) => buf,
                None => unreachable!("table {:#x} left the cache while loaded", self.key),
            },
        };
        op(&mut TablePage::new(buf, self.records, self.hop_width))
    }

    /// Look up `sig` (≤ hop-width slot probes, no copy).
    pub fn lookup(&self, ftl: &Ftl, sig: KeySignature) -> Option<Ppa> {
        self.page(ftl)?.lookup(sig)
    }

    /// Visit every stored `(signature, ppa)` in slot order.
    pub fn for_each(&self, ftl: &Ftl, visit: &mut dyn FnMut(KeySignature, Ppa)) {
        if let Some(page) = self.page(ftl) {
            for (sig, ppa) in page.iter() {
                visit(sig, ppa);
            }
        }
    }

    /// Insert or update `sig → ppa` in place; also returns the hopscotch
    /// displacements performed. `Full` leaves the page byte-identical and
    /// needs no [`Table::save`].
    pub fn insert(&mut self, ftl: &mut Ftl, sig: KeySignature, ppa: Ppa) -> (TableInsert, u64) {
        self.patch(ftl, |t| t.insert(sig, ppa))
    }

    /// Remove `sig` in place, returning its PPA. A miss touches nothing
    /// (no copy-on-write either).
    pub fn remove(&mut self, ftl: &mut Ftl, sig: KeySignature) -> Option<Ppa> {
        self.lookup(ftl, sig)?;
        self.patch(ftl, |t| t.remove(sig))
    }

    /// Account a patch: a resident page is marked dirty and most recently
    /// used; an owned page is installed dirty (which may write back
    /// evicted pages — see [`install`]).
    pub fn save<I: CachedTables>(self, index: &mut I, ftl: &mut Ftl) -> Result<(), FtlError> {
        match self.place {
            Place::Resident => {
                ftl.cache().commit_patch(self.key);
                Ok(())
            }
            Place::Owned(bytes) => install(index, ftl, self.key, bytes, true),
            Place::Unwritten => Ok(()),
        }
    }

    /// Keep this table's bytes reachable across another table's load,
    /// which may evict it.
    pub fn pin(&mut self, ftl: &Ftl) {
        if matches!(self.place, Place::Resident) {
            if let Some(bytes) = ftl.cache_ref().peek(self.key) {
                self.place = Place::Owned(bytes.clone());
            }
        }
    }

    /// Undo [`Table::pin`]: go back to patching the cached page if it is
    /// still resident (dropping the pinned handle, so no copy is forced).
    pub fn unpin(&mut self, ftl: &Ftl) {
        if matches!(self.place, Place::Owned(_)) && ftl.cache_ref().peek(self.key).is_some() {
            self.place = Place::Resident;
        }
    }
}
