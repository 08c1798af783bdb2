//! Cross-layer invariant auditing for the RHIK KVSSD stack.
//!
//! The paper's guarantees — ≤ 1 flash read per lookup, signature-only
//! migration that loses no records, one-owner-per-block flash leasing —
//! only hold if a set of cross-structure invariants hold *between* the
//! layers: the DRAM directory, the flash-resident record tables, the FTL's
//! per-block accounting, and the NAND array's program/erase state. This
//! crate turns those invariants into machine-checked code:
//!
//! * [`InvariantViolation`] — one typed variant per invariant, carrying
//!   structured context (slot, signature, physical address) instead of a
//!   formatted string, so tests can match on the *class* of failure.
//! * Snapshot types ([`IndexAuditSnapshot`], [`FlashAudit`]) that each
//!   layer's `audit()` hook fills in. They use plain tuples and integers
//!   for addresses so this crate depends on nothing and every layer can
//!   depend on it without cycles.
//! * [`DeviceAuditor`] — walks the snapshots and verifies the catalog.
//!   It is stateful across calls: migration-cursor monotonicity can only
//!   be checked against the previously observed cursor.
//!
//! The catalog (see DESIGN.md "Invariant catalog" for paper citations):
//!
//! 1. Every directory entry points at a live, correctly-typed flash page,
//!    and a clean cached copy of that page holds the same bytes.
//! 2. Index-block live-byte accounting equals the pages the index owns.
//! 3. No PPA is owned twice (GC victim vs. resize-migration source, or
//!    two directory keys, or two shards).
//! 4. The migration cursor is monotone and
//!    `migrated + pending == keys_before`.
//! 5. The lock-free read view maps exactly the index's signatures, each
//!    to the index's head page.
//! 6. Record tables respect the Eq. 1 capacity bound and hopscotch
//!    neighbourhood discipline.

use std::collections::HashMap;
use std::fmt;

/// A physical page address as `(block, page)`. Kept as a bare tuple so
/// this crate has no dependency on the NAND crate (which depends on us).
pub type RawPpa = (u32, u32);

/// Spare-area page-kind tags, mirrored from `rhik_ftl::layout::PageKind`.
/// (Kept in sync by a unit test in the ftl crate.)
pub const KIND_HEAD: u8 = 1;
pub const KIND_CONT: u8 = 2;
pub const KIND_INDEX: u8 = 3;
pub const KIND_DIRECTORY: u8 = 4;

fn kind_name(tag: u8) -> &'static str {
    match tag {
        KIND_HEAD => "head",
        KIND_CONT => "cont",
        KIND_INDEX => "index",
        KIND_DIRECTORY => "directory",
        _ => "unknown",
    }
}

/// One violated invariant, with enough structure to assert on in tests.
#[derive(Clone, Debug, PartialEq)]
pub enum InvariantViolation {
    // ------------------------------------------------ record table (Eq. 1)
    /// A hop bitmap names a displacement past the table's hop width.
    HopBitOutOfRange { home: u32, bit: u32, hop_width: u32 },
    /// A hop bit points at a slot that holds no record.
    HopBitTargetsEmptySlot { home: u32, bit: u32, slot: u32 },
    /// A record sits in `slot` covered by `home`'s bitmap, but its stored
    /// signature does not hash to `home`.
    MisHomedRecord { slot: u32, home: u32, sig: u64 },
    /// Two hop bitmaps both claim the same occupied slot.
    SlotCoveredTwice { slot: u32, sig: u64 },
    /// Occupied slots, bitmap-covered slots, and the table's length
    /// counter disagree.
    CoverageMismatch { covered: u32, occupied: u32, len: u32 },

    // ------------------------------------------ directory → flash → NAND
    /// A directory entry (or snapshot pointer) addresses a page the NAND
    /// array has not programmed.
    DanglingDirEntry { shard: u32, key: u64, ppa: RawPpa },
    /// The page exists but its spare area decodes to the wrong kind (or
    /// does not decode at all; `found` is `None` then).
    WrongPageKind { shard: u32, key: u64, ppa: RawPpa, expected: u8, found: Option<u8> },
    /// An index-owned page lives in a block the allocator says belongs to
    /// a different stream (or to no stream at all).
    ForeignStreamPage { shard: u32, key: u64, ppa: RawPpa, stream: Option<&'static str> },
    /// The same physical page is claimed by two owners — e.g. a GC victim
    /// relocation source and a resize-migration source.
    DoublePpaOwnership {
        ppa: RawPpa,
        first_shard: u32,
        first_key: u64,
        second_shard: u32,
        second_key: u64,
    },
    /// An index-stream block's live-byte accounting disagrees with the
    /// pages the index actually owns in it.
    LiveBytesMismatch { shard: u32, block: u32, live_bytes: u64, owned_pages: u32, page_size: u32 },
    /// The NAND write pointer ran ahead of the allocator's page count —
    /// someone programmed a page the allocator never handed out.
    AllocatorBehindFlash { shard: u32, block: u32, programmed: u32, allocated: u32 },
    /// A record table holds more records than Eq. 1 allows per page.
    EntryOverCapacity { shard: u32, slot: u32, records: u32, capacity: u32 },
    /// An entry reports overflow records without an overflow table (or
    /// vice versa).
    OverflowInconsistent { shard: u32, slot: u32, overflow_records: u32, has_overflow: bool },
    /// The index's key count and the directory's per-entry record sums
    /// disagree.
    RecordCountMismatch { shard: u32, index_len: u64, directory_records: u64 },
    /// A table's resident, clean cached copy differs from its flash copy:
    /// lookups (and a resize split) read bytes the flash does not hold,
    /// and evicting the copy drops them unwritten.
    CleanCacheDiverged { shard: u32, key: u64, ppa: RawPpa },

    // --------------------------------------------------------- migration
    /// The migration cursor moved backwards between two audits of the
    /// same directory generation.
    CursorRegressed { shard: u32, generation: u64, prev: u32, now: u32 },
    /// `migrated + pending != keys_before`: the split lost or duplicated
    /// records.
    MigrationAccounting { shard: u32, migrated: u64, pending: u64, keys_before: u64 },

    // -------------------------------------------------- flash pool / NAND
    /// One erase block is leased by two shards at once.
    BlockLeasedTwice { block: u32, first_shard: u32, second_shard: u32 },
    /// Free-pool accounting: free + leased does not cover the device.
    FreeCountMismatch { free_raw: u32, leased: u32, total: u32 },
    /// NAND internal: a block in the erased state still holds page data,
    /// or a programmed page has no payload.
    NandStateMismatch { ppa: RawPpa, detail: &'static str },

    // ------------------------------------------------------ read view
    /// The lock-free read view and the index disagree on a signature: the
    /// view lacks it (`view: None`), holds it though the index does not
    /// (`index: None`), or maps it to another head page.
    ReadViewDiverged { shard: u32, sig: u64, view: Option<RawPpa>, index: Option<RawPpa> },

    // -------------------------------------------------- hot-object cache
    /// A current-version cache entry disagrees with the directory →
    /// record-page → FTL chain — the cache would serve a value the index
    /// does not hold.
    CacheIncoherent { shard: u32, sig: u64, detail: &'static str },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use InvariantViolation::*;
        match self {
            HopBitOutOfRange { home, bit, hop_width } => {
                write!(f, "home {home}: hop bit {bit} beyond width {hop_width}")
            }
            HopBitTargetsEmptySlot { home, bit, slot } => {
                write!(f, "home {home}: hop bit {bit} points at empty slot {slot}")
            }
            MisHomedRecord { slot, home, sig } => {
                write!(f, "slot {slot} homed at {home} but sig {sig:#x} hashes elsewhere")
            }
            SlotCoveredTwice { slot, sig } => {
                write!(f, "slot {slot} (sig {sig:#x}) covered by two hop bitmaps")
            }
            CoverageMismatch { covered, occupied, len } => {
                write!(f, "coverage mismatch: covered {covered}, occupied {occupied}, len {len}")
            }
            DanglingDirEntry { shard, key, ppa } => {
                write!(f, "shard {shard}: key {key:#x} points at unprogrammed page {ppa:?}")
            }
            WrongPageKind { shard, key, ppa, expected, found } => write!(
                f,
                "shard {shard}: key {key:#x} at {ppa:?} expected {} page, found {}",
                kind_name(*expected),
                found.map_or("undecodable spare", kind_name)
            ),
            ForeignStreamPage { shard, key, ppa, stream } => write!(
                f,
                "shard {shard}: index page {key:#x} at {ppa:?} in {} block",
                stream.unwrap_or("unleased")
            ),
            DoublePpaOwnership { ppa, first_shard, first_key, second_shard, second_key } => write!(
                f,
                "page {ppa:?} owned twice: shard {first_shard} key {first_key:#x} and shard {second_shard} key {second_key:#x}"
            ),
            LiveBytesMismatch { shard, block, live_bytes, owned_pages, page_size } => write!(
                f,
                "shard {shard}: index block {block} accounts {live_bytes} live bytes but the index owns {owned_pages} pages of {page_size} B"
            ),
            AllocatorBehindFlash { shard, block, programmed, allocated } => write!(
                f,
                "shard {shard}: block {block} has {programmed} programmed pages but only {allocated} allocated"
            ),
            EntryOverCapacity { shard, slot, records, capacity } => write!(
                f,
                "shard {shard}: directory slot {slot} claims {records} records, over the Eq. 1 bound {capacity}"
            ),
            OverflowInconsistent { shard, slot, overflow_records, has_overflow } => write!(
                f,
                "shard {shard}: slot {slot} overflow_records={overflow_records} but has_overflow={has_overflow}"
            ),
            RecordCountMismatch { shard, index_len, directory_records } => write!(
                f,
                "shard {shard}: index len {index_len} != directory record sum {directory_records}"
            ),
            CleanCacheDiverged { shard, key, ppa } => write!(
                f,
                "shard {shard}: table {key:#x} is cached clean but differs from its flash copy at {ppa:?}"
            ),
            CursorRegressed { shard, generation, prev, now } => write!(
                f,
                "shard {shard} gen {generation}: migration cursor regressed {prev} -> {now}"
            ),
            MigrationAccounting { shard, migrated, pending, keys_before } => write!(
                f,
                "shard {shard}: migrated {migrated} + pending {pending} != keys_before {keys_before}"
            ),
            BlockLeasedTwice { block, first_shard, second_shard } => {
                write!(f, "block {block} leased by shards {first_shard} and {second_shard}")
            }
            FreeCountMismatch { free_raw, leased, total } => {
                write!(f, "free pool accounts {free_raw} free + {leased} leased of {total} blocks")
            }
            NandStateMismatch { ppa, detail } => write!(f, "NAND state at {ppa:?}: {detail}"),
            ReadViewDiverged { shard, sig, view, index } => write!(
                f,
                "shard {shard}: read view maps sig {sig:#x} to {view:?} but the index to {index:?}"
            ),
            CacheIncoherent { shard, sig, detail } => {
                write!(f, "shard {shard}: cached sig {sig:#x} incoherent with index: {detail}")
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// What an owned page looked like when the hook peeked at it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObservedPage {
    /// The NAND array has not programmed this page.
    Unprogrammed,
    /// Programmed, but the spare area does not decode.
    Undecodable,
    /// Programmed with this spare-area kind tag.
    Kind(u8),
}

/// One flash page the index claims to own, as reported by the index's
/// audit hook (which peeks at the page without charging a flash read).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OwnedPage {
    /// The index's logical key for the page (directory cache key,
    /// overflow key, or snapshot-page key).
    pub key: u64,
    pub ppa: RawPpa,
    /// Spare-area kind tag this page must carry.
    pub expected_kind: u8,
    pub observed: ObservedPage,
    /// The page cache holds a clean copy of this page whose bytes differ
    /// from the flash copy.
    pub clean_cache_diverged: bool,
}

/// Per-directory-entry counters for the Eq. 1 capacity check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryAudit {
    pub slot: u32,
    pub records: u32,
    pub overflow_records: u32,
    pub has_overflow: bool,
}

/// Migration state at audit time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MigrationAudit {
    /// Directory generation the migration is building.
    pub generation: u64,
    pub cursor: u32,
    pub migrated: u64,
    pub keys_before: u64,
    /// Records still sitting in un-split old-generation slots.
    pub pending: u64,
}

/// Everything the index layer exposes to the auditor.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IndexAuditSnapshot {
    pub shard: u32,
    pub len: u64,
    /// Eq. 1 records-per-table bound.
    pub records_per_table: u32,
    /// Sum of records reachable through the directory (current-generation
    /// entries plus pending un-split old-generation entries).
    pub directory_records: u64,
    pub entries: Vec<EntryAudit>,
    pub owned_pages: Vec<OwnedPage>,
    pub migration: Option<MigrationAudit>,
}

/// Per-erase-block accounting joined across the allocator and NAND.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockAccounting {
    pub block: u32,
    /// `"data"`, `"extent"`, `"index"`, or `None` when unleased.
    pub stream: Option<&'static str>,
    pub live_bytes: u64,
    pub stale_bytes: u64,
    /// Pages the allocator has handed out.
    pub pages_allocated: u32,
    /// Pages NAND has actually programmed.
    pub pages_programmed: u32,
}

/// Everything the FTL layer exposes to the auditor.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlashAudit {
    pub shard: u32,
    pub page_size: u32,
    pub total_blocks: u32,
    /// Raw free-pool count (shared pool in sharded mode).
    pub free_raw: u32,
    pub blocks: Vec<BlockAccounting>,
    /// Violations the NAND array found in its own state.
    pub nand_violations: Vec<InvariantViolation>,
}

/// One hot-cache entry joined against the index chain it must mirror.
///
/// The device builds these under the shard lock: for every resident
/// cache entry whose fill version still equals the version table's
/// current value, it looks the key's signature up in the index's own
/// records and reads the value at that head page, charging no flash
/// read, and reports what it found. Entries whose fill version is
/// already superseded are *not* sampled — they are unservable by
/// construction (the reader's version check drops them).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheCoherenceSample {
    pub shard: u32,
    pub sig: u64,
    /// Version the entry was filled at.
    pub fill_version: u64,
    /// Version-table value at sample time (must equal `fill_version`,
    /// or the device should not have sampled the entry).
    pub current_version: u64,
    /// The bytes the cache would serve.
    pub cached_value: Vec<u8>,
    /// What the index holds, read without charging flash reads, from a
    /// sealed head page or the write buffer's open one alike: `None` when
    /// a page of the value is not programmed — the sample is skipped;
    /// `Some(None)` when the key is absent from the index (a ghost
    /// entry); `Some(Some(v))` the index's value.
    pub index_value: Option<Option<Vec<u8>>>,
}

/// Result of one audit pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AuditReport {
    pub violations: Vec<InvariantViolation>,
}

impl AuditReport {
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panic-friendly accessor for tests: `Ok(())` or the full list.
    pub fn into_result(self) -> Result<(), Vec<InvariantViolation>> {
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(self.violations)
        }
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.violations.is_empty() {
            return write!(f, "audit clean");
        }
        writeln!(f, "{} invariant violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Walks layer snapshots and verifies the invariant catalog.
///
/// Stateful: cursor monotonicity is judged against the cursor seen on the
/// *previous* audit of the same `(shard, generation)`. One auditor should
/// live as long as the device it watches.
#[derive(Debug, Default)]
pub struct DeviceAuditor {
    /// Last observed `(cursor, migrated)` per shard; the generation tag
    /// resets the watermark when a new doubling starts.
    cursors: HashMap<u32, (u64, u32, u64)>,
}

impl DeviceAuditor {
    pub fn new() -> Self {
        Self::default()
    }

    /// Audit a single (unsharded) device: one flash front-end, one index.
    pub fn check_device(&mut self, flash: &FlashAudit, index: &IndexAuditSnapshot) -> AuditReport {
        let mut v = Vec::new();
        self.check_flash(flash, &mut v);
        self.check_index(flash, index, &mut v);
        check_ownership(std::slice::from_ref(index), &mut v);
        AuditReport { violations: v }
    }

    /// Audit a sharded device: per-shard checks plus the cross-shard
    /// block-lease and free-pool invariants.
    pub fn check_sharded(&mut self, shards: &[(FlashAudit, IndexAuditSnapshot)]) -> AuditReport {
        let mut v = Vec::new();
        for (flash, index) in shards {
            self.check_flash(flash, &mut v);
            self.check_index(flash, index, &mut v);
        }
        let indexes: Vec<IndexAuditSnapshot> = shards.iter().map(|(_, i)| i.clone()).collect();
        check_ownership(&indexes, &mut v);
        check_leases(shards, &mut v);
        AuditReport { violations: v }
    }

    /// Read-view ↔ index pass for one shard: `view` is the lock-free read
    /// view's `sig → head` map, `index` the index's own, read from its
    /// tables. Every signature must map to the same head in both.
    pub fn check_read_view(
        &mut self,
        shard: u32,
        view: &HashMap<u64, RawPpa>,
        index: &HashMap<u64, RawPpa>,
    ) -> AuditReport {
        let mut sigs: Vec<u64> = view.keys().chain(index.keys()).copied().collect();
        sigs.sort_unstable();
        sigs.dedup();
        let violations = sigs
            .into_iter()
            .filter(|sig| view.get(sig) != index.get(sig))
            .map(|sig| InvariantViolation::ReadViewDiverged {
                shard,
                sig,
                view: view.get(&sig).copied(),
                index: index.get(&sig).copied(),
            })
            .collect();
        AuditReport { violations }
    }

    /// Cache↔index coherence pass: no serveable cached value may
    /// disagree with the value the index holds for its key.
    pub fn check_cache(&mut self, samples: &[CacheCoherenceSample]) -> AuditReport {
        let mut v = Vec::new();
        for s in samples {
            if s.current_version != s.fill_version {
                // The device sampled an entry a concurrent writer already
                // invalidated — the entry is unservable, but sampling it
                // at all means the snapshot discipline broke.
                v.push(InvariantViolation::CacheIncoherent {
                    shard: s.shard,
                    sig: s.sig,
                    detail: "sampled entry with superseded fill version",
                });
                continue;
            }
            match &s.index_value {
                None => {} // unverifiable without side effects; skipped
                Some(None) => v.push(InvariantViolation::CacheIncoherent {
                    shard: s.shard,
                    sig: s.sig,
                    detail: "cached entry for a key absent from the index (ghost)",
                }),
                Some(Some(chain)) if chain != &s.cached_value => {
                    v.push(InvariantViolation::CacheIncoherent {
                        shard: s.shard,
                        sig: s.sig,
                        detail: "cached bytes differ from the index chain's value",
                    });
                }
                Some(Some(_)) => {}
            }
        }
        AuditReport { violations: v }
    }

    fn check_flash(&self, flash: &FlashAudit, v: &mut Vec<InvariantViolation>) {
        v.extend(flash.nand_violations.iter().cloned());
        for b in &flash.blocks {
            if b.pages_programmed > b.pages_allocated {
                v.push(InvariantViolation::AllocatorBehindFlash {
                    shard: flash.shard,
                    block: b.block,
                    programmed: b.pages_programmed,
                    allocated: b.pages_allocated,
                });
            }
        }
    }

    fn check_index(
        &mut self,
        flash: &FlashAudit,
        index: &IndexAuditSnapshot,
        v: &mut Vec<InvariantViolation>,
    ) {
        let shard = index.shard;
        let block_of: HashMap<u32, &BlockAccounting> =
            flash.blocks.iter().map(|b| (b.block, b)).collect();

        // 1. Every owned page is programmed, correctly typed, matched by
        //    any clean cached copy, and sits in an index-stream block.
        let mut owned_per_block: HashMap<u32, u32> = HashMap::new();
        for p in &index.owned_pages {
            match p.observed {
                ObservedPage::Unprogrammed => {
                    v.push(InvariantViolation::DanglingDirEntry { shard, key: p.key, ppa: p.ppa })
                }
                ObservedPage::Undecodable => v.push(InvariantViolation::WrongPageKind {
                    shard,
                    key: p.key,
                    ppa: p.ppa,
                    expected: p.expected_kind,
                    found: None,
                }),
                ObservedPage::Kind(k) if k != p.expected_kind => {
                    v.push(InvariantViolation::WrongPageKind {
                        shard,
                        key: p.key,
                        ppa: p.ppa,
                        expected: p.expected_kind,
                        found: Some(k),
                    })
                }
                ObservedPage::Kind(_) => {}
            }
            if p.clean_cache_diverged {
                v.push(InvariantViolation::CleanCacheDiverged { shard, key: p.key, ppa: p.ppa });
            }
            let stream = block_of.get(&p.ppa.0).and_then(|b| b.stream);
            if stream != Some("index") {
                v.push(InvariantViolation::ForeignStreamPage {
                    shard,
                    key: p.key,
                    ppa: p.ppa,
                    stream,
                });
            }
            *owned_per_block.entry(p.ppa.0).or_default() += 1;
        }

        // 2. Index-block live bytes equal the pages the index owns there.
        for b in &flash.blocks {
            if b.stream != Some("index") {
                continue;
            }
            let owned = owned_per_block.get(&b.block).copied().unwrap_or(0);
            if b.live_bytes != owned as u64 * flash.page_size as u64 {
                v.push(InvariantViolation::LiveBytesMismatch {
                    shard,
                    block: b.block,
                    live_bytes: b.live_bytes,
                    owned_pages: owned,
                    page_size: flash.page_size,
                });
            }
        }

        // 3. Eq. 1 capacity bound and overflow consistency per entry.
        for e in &index.entries {
            if e.records > index.records_per_table {
                v.push(InvariantViolation::EntryOverCapacity {
                    shard,
                    slot: e.slot,
                    records: e.records,
                    capacity: index.records_per_table,
                });
            }
            if (e.overflow_records > 0) != e.has_overflow {
                v.push(InvariantViolation::OverflowInconsistent {
                    shard,
                    slot: e.slot,
                    overflow_records: e.overflow_records,
                    has_overflow: e.has_overflow,
                });
            }
        }

        // 4. Directory record sums account for every indexed key.
        if index.directory_records != index.len {
            v.push(InvariantViolation::RecordCountMismatch {
                shard,
                index_len: index.len,
                directory_records: index.directory_records,
            });
        }

        // 5. Migration accounting and cursor monotonicity.
        if let Some(m) = &index.migration {
            if m.migrated + m.pending != m.keys_before {
                v.push(InvariantViolation::MigrationAccounting {
                    shard,
                    migrated: m.migrated,
                    pending: m.pending,
                    keys_before: m.keys_before,
                });
            }
            match self.cursors.get(&shard) {
                Some(&(gen, cursor, migrated))
                    if gen == m.generation && (m.cursor < cursor || m.migrated < migrated) =>
                {
                    v.push(InvariantViolation::CursorRegressed {
                        shard,
                        generation: m.generation,
                        prev: cursor,
                        now: m.cursor,
                    });
                }
                _ => {}
            }
            self.cursors.insert(shard, (m.generation, m.cursor, m.migrated));
        } else {
            self.cursors.remove(&shard);
        }
    }
}

/// No PPA may be claimed by two owners — across keys within a shard
/// (e.g. a GC relocation source vs. a resize-migration source) or across
/// shards.
fn check_ownership(indexes: &[IndexAuditSnapshot], v: &mut Vec<InvariantViolation>) {
    let mut owners: HashMap<RawPpa, (u32, u64)> = HashMap::new();
    for index in indexes {
        for p in &index.owned_pages {
            match owners.get(&p.ppa) {
                Some(&(shard, key)) => v.push(InvariantViolation::DoublePpaOwnership {
                    ppa: p.ppa,
                    first_shard: shard,
                    first_key: key,
                    second_shard: index.shard,
                    second_key: p.key,
                }),
                None => {
                    owners.insert(p.ppa, (index.shard, p.key));
                }
            }
        }
    }
}

/// Cross-shard lease discipline over one shared flash pool: each erase
/// block is leased by at most one shard, and free + leased covers the
/// device exactly.
fn check_leases(shards: &[(FlashAudit, IndexAuditSnapshot)], v: &mut Vec<InvariantViolation>) {
    let Some((first, _)) = shards.first() else { return };
    let mut leased_by: HashMap<u32, u32> = HashMap::new();
    for (flash, _) in shards {
        for b in &flash.blocks {
            if b.stream.is_none() {
                continue;
            }
            match leased_by.get(&b.block) {
                Some(&shard) => v.push(InvariantViolation::BlockLeasedTwice {
                    block: b.block,
                    first_shard: shard,
                    second_shard: flash.shard,
                }),
                None => {
                    leased_by.insert(b.block, flash.shard);
                }
            }
        }
    }
    let leased = leased_by.len() as u32;
    if first.free_raw + leased != first.total_blocks {
        v.push(InvariantViolation::FreeCountMismatch {
            free_raw: first.free_raw,
            leased,
            total: first.total_blocks,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_coherence_pass_flags_each_failure_mode() {
        let mut auditor = DeviceAuditor::new();
        let sample = |fill, current, cached: &[u8], index_value| CacheCoherenceSample {
            shard: 0,
            sig: 0xAB,
            fill_version: fill,
            current_version: current,
            cached_value: cached.to_vec(),
            index_value,
        };
        // Clean: value matches; unverifiable: skipped.
        let report = auditor.check_cache(&[
            sample(3, 3, b"v", Some(Some(b"v".to_vec()))),
            sample(3, 3, b"v", None),
        ]);
        assert!(report.is_ok(), "{report}");
        // Ghost, mismatch, and superseded-version sampling all flagged.
        let report = auditor.check_cache(&[
            sample(3, 3, b"v", Some(None)),
            sample(3, 3, b"v", Some(Some(b"other".to_vec()))),
            sample(2, 3, b"v", Some(Some(b"v".to_vec()))),
        ]);
        assert_eq!(report.violations.len(), 3);
        assert!(report
            .violations
            .iter()
            .all(|v| matches!(v, InvariantViolation::CacheIncoherent { .. })));
    }

    fn index_block(block: u32, live_pages: u32, page_size: u32) -> BlockAccounting {
        BlockAccounting {
            block,
            stream: Some("index"),
            live_bytes: live_pages as u64 * page_size as u64,
            stale_bytes: 0,
            pages_allocated: live_pages,
            pages_programmed: live_pages,
        }
    }

    fn owned(key: u64, ppa: RawPpa) -> OwnedPage {
        OwnedPage {
            key,
            ppa,
            expected_kind: KIND_INDEX,
            observed: ObservedPage::Kind(KIND_INDEX),
            clean_cache_diverged: false,
        }
    }

    fn clean_fixture() -> (FlashAudit, IndexAuditSnapshot) {
        let flash = FlashAudit {
            shard: 0,
            page_size: 512,
            total_blocks: 8,
            free_raw: 7,
            blocks: vec![index_block(0, 2, 512)],
            nand_violations: Vec::new(),
        };
        let index = IndexAuditSnapshot {
            shard: 0,
            len: 5,
            records_per_table: 16,
            directory_records: 5,
            entries: vec![EntryAudit {
                slot: 0,
                records: 5,
                overflow_records: 0,
                has_overflow: false,
            }],
            owned_pages: vec![owned(1, (0, 0)), owned(2, (0, 1))],
            migration: None,
        };
        (flash, index)
    }

    #[test]
    fn clean_state_audits_clean() {
        let (flash, index) = clean_fixture();
        let mut auditor = DeviceAuditor::new();
        let report = auditor.check_device(&flash, &index);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn dangling_entry_detected() {
        let (flash, mut index) = clean_fixture();
        index.owned_pages[0].observed = ObservedPage::Unprogrammed;
        // The live-byte accounting still matches (the page *was* counted),
        // so exactly the dangling-entry violation fires.
        let report = DeviceAuditor::new().check_device(&flash, &index);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::DanglingDirEntry { key: 1, .. })));
    }

    #[test]
    fn wrong_kind_detected() {
        let (flash, mut index) = clean_fixture();
        index.owned_pages[1].observed = ObservedPage::Kind(KIND_HEAD);
        let report = DeviceAuditor::new().check_device(&flash, &index);
        assert_eq!(
            report.violations,
            vec![InvariantViolation::WrongPageKind {
                shard: 0,
                key: 2,
                ppa: (0, 1),
                expected: KIND_INDEX,
                found: Some(KIND_HEAD),
            }]
        );
    }

    #[test]
    fn diverged_clean_cache_copy_detected() {
        let (flash, mut index) = clean_fixture();
        index.owned_pages[1].clean_cache_diverged = true;
        let report = DeviceAuditor::new().check_device(&flash, &index);
        assert_eq!(
            report.violations,
            vec![InvariantViolation::CleanCacheDiverged { shard: 0, key: 2, ppa: (0, 1) }]
        );
    }

    #[test]
    fn double_ownership_detected() {
        let (flash, mut index) = clean_fixture();
        index.owned_pages.push(owned(9, (0, 0)));
        let report = DeviceAuditor::new().check_device(&flash, &index);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::DoublePpaOwnership { ppa: (0, 0), first_key: 1, second_key: 9, .. }
        )));
    }

    #[test]
    fn live_byte_mismatch_detected() {
        let (mut flash, index) = clean_fixture();
        flash.blocks[0].live_bytes += 512; // phantom live page
        let report = DeviceAuditor::new().check_device(&flash, &index);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::LiveBytesMismatch { block: 0, .. })));
    }

    #[test]
    fn record_count_mismatch_detected() {
        let (flash, mut index) = clean_fixture();
        index.directory_records = 4;
        let report = DeviceAuditor::new().check_device(&flash, &index);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::RecordCountMismatch { index_len: 5, directory_records: 4, .. }
        )));
    }

    #[test]
    fn migration_accounting_and_cursor_monotonicity() {
        let (flash, mut index) = clean_fixture();
        index.migration = Some(MigrationAudit {
            generation: 2,
            cursor: 3,
            migrated: 3,
            keys_before: 5,
            pending: 2,
        });
        let mut auditor = DeviceAuditor::new();
        assert!(auditor.check_device(&flash, &index).is_ok());

        // Cursor moves forward: fine.
        index.migration = Some(MigrationAudit {
            generation: 2,
            cursor: 4,
            migrated: 4,
            keys_before: 5,
            pending: 1,
        });
        assert!(auditor.check_device(&flash, &index).is_ok());

        // Cursor regresses within the same generation: violation.
        index.migration = Some(MigrationAudit {
            generation: 2,
            cursor: 2,
            migrated: 4,
            keys_before: 5,
            pending: 1,
        });
        let report = auditor.check_device(&flash, &index);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::CursorRegressed { prev: 4, now: 2, .. })));

        // A new generation resets the watermark.
        index.migration = Some(MigrationAudit {
            generation: 3,
            cursor: 0,
            migrated: 0,
            keys_before: 5,
            pending: 5,
        });
        assert!(auditor.check_device(&flash, &index).is_ok());

        // Lost records: migrated + pending < keys_before.
        index.migration = Some(MigrationAudit {
            generation: 3,
            cursor: 1,
            migrated: 1,
            keys_before: 5,
            pending: 3,
        });
        let report = auditor.check_device(&flash, &index);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::MigrationAccounting { migrated: 1, pending: 3, keys_before: 5, .. }
        )));
    }

    #[test]
    fn cross_shard_lease_and_free_count() {
        let page = 512;
        let mk = |shard: u32, block: u32| FlashAudit {
            shard,
            page_size: page,
            total_blocks: 8,
            free_raw: 6,
            blocks: vec![index_block(block, 1, page)],
            nand_violations: Vec::new(),
        };
        let idx = |shard: u32, block: u32| IndexAuditSnapshot {
            shard,
            len: 0,
            records_per_table: 16,
            directory_records: 0,
            entries: Vec::new(),
            owned_pages: vec![OwnedPage {
                key: 1,
                ppa: (block, 0),
                expected_kind: KIND_INDEX,
                observed: ObservedPage::Kind(KIND_INDEX),
                clean_cache_diverged: false,
            }],
            migration: None,
        };
        let mut auditor = DeviceAuditor::new();
        // Disjoint leases, 2 leased + 6 free of 8: clean.
        let shards = vec![(mk(0, 0), idx(0, 0)), (mk(1, 1), idx(1, 1))];
        assert!(auditor.check_sharded(&shards).is_ok());

        // Same block leased twice: violation (and a double-ownership one
        // for the page both shards claim).
        let shards = vec![(mk(0, 3), idx(0, 3)), (mk(1, 3), idx(1, 3))];
        let report = auditor.check_sharded(&shards);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::BlockLeasedTwice { block: 3, .. })));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::DoublePpaOwnership { ppa: (3, 0), .. })));

        // Free count off by one: violation.
        let mut bad = mk(0, 0);
        bad.free_raw = 5;
        let shards = vec![(bad, idx(0, 0)), (mk(1, 1), idx(1, 1))];
        let report = auditor.check_sharded(&shards);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::FreeCountMismatch { free_raw: 5, leased: 2, total: 8 }
        )));
    }

    #[test]
    fn read_view_divergence_detected() {
        let index: HashMap<u64, RawPpa> = [(1, (0, 0)), (2, (0, 1)), (3, (1, 0))].into();
        let mut auditor = DeviceAuditor::new();
        assert!(auditor.check_read_view(0, &index.clone(), &index).is_ok());
        // Missing, pointing at another head, and extra.
        let view: HashMap<u64, RawPpa> = [(2, (0, 1)), (3, (1, 1)), (4, (2, 0))].into();
        let report = auditor.check_read_view(5, &view, &index);
        assert_eq!(
            report.violations,
            vec![
                InvariantViolation::ReadViewDiverged {
                    shard: 5,
                    sig: 1,
                    view: None,
                    index: Some((0, 0))
                },
                InvariantViolation::ReadViewDiverged {
                    shard: 5,
                    sig: 3,
                    view: Some((1, 1)),
                    index: Some((1, 0))
                },
                InvariantViolation::ReadViewDiverged {
                    shard: 5,
                    sig: 4,
                    view: Some((2, 0)),
                    index: None
                },
            ]
        );
    }

    #[test]
    fn eq1_capacity_and_overflow_consistency() {
        let (flash, mut index) = clean_fixture();
        index.entries.push(EntryAudit {
            slot: 1,
            records: 17,
            overflow_records: 3,
            has_overflow: false,
        });
        index.directory_records = 5; // keep the count check quiet is impossible; accept both
        let report = DeviceAuditor::new().check_device(&flash, &index);
        assert!(report.violations.iter().any(|v| matches!(
            v,
            InvariantViolation::EntryOverCapacity { slot: 1, records: 17, capacity: 16, .. }
        )));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, InvariantViolation::OverflowInconsistent { slot: 1, .. })));
    }

    #[test]
    fn violations_display_cleanly() {
        let v = InvariantViolation::MisHomedRecord { slot: 3, home: 1, sig: 0xabc };
        assert!(v.to_string().contains("slot 3"));
        let report = AuditReport { violations: vec![v] };
        assert!(report.to_string().contains("1 invariant violation"));
        assert!(!report.is_ok());
        assert!(report.into_result().is_err());
    }
}
