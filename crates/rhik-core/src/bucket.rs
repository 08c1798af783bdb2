//! One record-layer hash table — page-sized, hopscotch-hashed (§IV-A1).
//!
//! "To handle index-local collisions and achieve high index occupancy in
//! the record layer hash tables, by default RHIK employs Hopscotch hashing
//! with hopinfo size 32. [...] Suppose an empty record slot can not be
//! found within these confines. In that case, an uncorrectable error is
//! returned, and the operation is aborted."
//!
//! Every table holds exactly `R` slots (Eq. 1) so its serialized form fills
//! one flash page. All tables share one *fixed* hash function mapping a
//! signature to its home slot; the directory layer has already consumed the
//! low signature bits, so the home hash mixes the full signature.
//!
//! The table has no decoded form: [`TablePage`] runs the hopscotch
//! operations directly on the packed 17-byte [`IndexRecord`]s at the front
//! of a page — a cached page, a page just read from flash, or a successor
//! page being built by a resize. A lookup reads at most the `H` slots its
//! home's hopinfo names; an insert or remove writes only the slots it
//! touches. [`RecordTable`] is the same table over a buffer it owns.
//!
//! A table page is a list of segments of [`SEGMENT_SLOTS`] whole slots
//! (about 4 KiB; the last segment also holds the page's padding), so a
//! 4 KiB table is one segment and a 32 KiB table eight. The page cache,
//! the FTL and the flash array pass the list on by refcount, and a patch
//! copies only the segments it writes while flash still shares them
//! ([`PageData::segments_mut`]). Read end to end, the segments are the
//! flat page encoding: slot `i` at byte `17 × i`.

use bytes::Bytes;
use rhik_audit::InvariantViolation;
use rhik_nand::{PageData, Ppa, SegmentsMut};
use rhik_sigs::KeySignature;

use crate::record::{IndexRecord, PackedRecord};

/// Bytes per slot in the page encoding.
const REC: usize = IndexRecord::PACKED_LEN;

/// Slots per segment of a table page.
pub const SEGMENT_SLOTS: usize = 256;

/// Bytes per segment of a table page (the last one may differ).
const SEGMENT_BYTES: usize = SEGMENT_SLOTS * REC;

/// Result of a table-local insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableInsert {
    Inserted,
    Updated {
        old: Ppa,
    },
    /// No slot reachable within the hop width — the paper's uncorrectable
    /// abort. The table is left unchanged.
    Full,
}

/// The flat encoding of an empty table with `records` slots, zero-padded
/// to `len` bytes (a whole flash page when `len` is the page size).
pub(crate) fn empty_page(records: u32, len: usize) -> Vec<u8> {
    assert!(records as usize * REC <= len, "table exceeds page");
    let mut page = vec![0u8; len];
    for slot in &mut page.as_chunks_mut::<REC>().0[..records as usize] {
        IndexRecord::empty().encode_into(slot);
    }
    page
}

/// A table page in its flat encoding, copied into the segments of
/// [`SEGMENT_BYTES`] the index keeps it in; a page of one segment is one
/// buffer.
pub fn segmented(page: &[u8]) -> PageData {
    if page.len() <= SEGMENT_BYTES {
        return PageData::from(Bytes::copy_from_slice(page));
    }
    PageData::from_segments(page.chunks(SEGMENT_BYTES).map(Bytes::copy_from_slice).collect())
}

/// Stored `(signature, ppa)` pairs of the first `records` slots of
/// `page`, in slot order.
pub(crate) fn page_records<S: Slots + ?Sized>(
    page: &S,
    records: u32,
) -> impl Iterator<Item = (KeySignature, Ppa)> + '_ {
    (0..records as usize).filter_map(|i| {
        let slot = page.slot(i);
        let ppa = IndexRecord::packed_ppa(slot);
        (ppa != IndexRecord::EMPTY_PPA)
            .then(|| (KeySignature(IndexRecord::packed_sig(slot)), Ppa::unpack(ppa)))
    })
}

/// Where a [`TablePage`] keeps its slots: one flat buffer (`[u8]`,
/// `Vec<u8>`), where slot `i` is at byte `17 × i`, or a page's segments
/// (`[Bytes]` to read, [`SegmentsMut`] to write), where it is slot
/// `i % SEGMENT_SLOTS` of segment `i / SEGMENT_SLOTS`.
pub trait Slots {
    /// Whether this storage lays out `records` slots.
    fn holds(&self, records: u32) -> bool;

    /// Slot `i`.
    fn slot(&self, i: usize) -> &PackedRecord;
}

/// Writable [`Slots`].
pub trait SlotsMut: Slots {
    /// Slot `i`, for writing: a segment still shared with flash or a clone
    /// is copied first.
    fn slot_mut(&mut self, i: usize) -> &mut PackedRecord;
}

impl Slots for [u8] {
    fn holds(&self, records: u32) -> bool {
        self.len() >= records as usize * REC
    }

    #[inline]
    fn slot(&self, i: usize) -> &PackedRecord {
        &self.as_chunks::<REC>().0[i]
    }
}

impl SlotsMut for [u8] {
    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut PackedRecord {
        &mut self.as_chunks_mut::<REC>().0[i]
    }
}

impl Slots for Vec<u8> {
    fn holds(&self, records: u32) -> bool {
        self.as_slice().holds(records)
    }

    #[inline]
    fn slot(&self, i: usize) -> &PackedRecord {
        self.as_slice().slot(i)
    }
}

impl SlotsMut for Vec<u8> {
    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut PackedRecord {
        self.as_mut_slice().slot_mut(i)
    }
}

impl<S: Slots + ?Sized> Slots for &S {
    fn holds(&self, records: u32) -> bool {
        (**self).holds(records)
    }

    #[inline]
    fn slot(&self, i: usize) -> &PackedRecord {
        (**self).slot(i)
    }
}

impl<S: Slots + ?Sized> Slots for &mut S {
    fn holds(&self, records: u32) -> bool {
        (**self).holds(records)
    }

    #[inline]
    fn slot(&self, i: usize) -> &PackedRecord {
        (**self).slot(i)
    }
}

impl<S: SlotsMut + ?Sized> SlotsMut for &mut S {
    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut PackedRecord {
        (**self).slot_mut(i)
    }
}

impl Slots for [Bytes] {
    /// One segment per [`SEGMENT_SLOTS`] slots, the last one long enough
    /// for the rest. Every segment but the last is [`SEGMENT_BYTES`] long
    /// as [`segmented`] builds it (checked in debug builds only: this runs
    /// on every table operation).
    fn holds(&self, records: u32) -> bool {
        let (records, n) = (records as usize, self.len());
        debug_assert!(
            self.iter().rev().skip(1).all(|s| s.len() == SEGMENT_BYTES),
            "a table segment other than the last is not {SEGMENT_BYTES} bytes"
        );
        n == records.div_ceil(SEGMENT_SLOTS).max(1)
            && self[n - 1].len() >= (records - (n - 1) * SEGMENT_SLOTS) * REC
    }

    #[inline]
    fn slot(&self, i: usize) -> &PackedRecord {
        &self[i / SEGMENT_SLOTS].as_chunks::<REC>().0[i % SEGMENT_SLOTS]
    }
}

impl Slots for SegmentsMut<'_> {
    fn holds(&self, records: u32) -> bool {
        match self {
            SegmentsMut::Flat(buf) => records as usize <= SEGMENT_SLOTS && buf.holds(records),
            SegmentsMut::Segments(list) => list.holds(records),
        }
    }

    #[inline]
    fn slot(&self, i: usize) -> &PackedRecord {
        match self {
            SegmentsMut::Flat(buf) => buf.slot(i),
            SegmentsMut::Segments(list) => list.slot(i),
        }
    }
}

impl SlotsMut for SegmentsMut<'_> {
    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut PackedRecord {
        match self {
            SegmentsMut::Flat(buf) => buf.slot_mut(i),
            SegmentsMut::Segments(list) => {
                &mut list[i / SEGMENT_SLOTS].make_mut().as_chunks_mut::<REC>().0[i % SEGMENT_SLOTS]
            }
        }
    }
}

/// A fixed-size hopscotch hash table in its flash encoding: `records`
/// slots of [`IndexRecord::PACKED_LEN`] bytes at the front of `page`.
///
/// Read operations need `B: Slots` (`&[u8]`, `Vec<u8>`, a page's
/// `&[Bytes]` segments); insert and remove need `B: SlotsMut` (`&mut
/// [u8]`, `Vec<u8>`, [`SegmentsMut`]) and write only the slots they
/// touch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TablePage<B> {
    page: B,
    records: u32,
    hop_width: u32,
}

impl<B: Slots> TablePage<B> {
    /// View `page` as a table of `records` slots (Eq. 1) with hop width
    /// `hop_width`.
    pub fn new(page: B, records: u32, hop_width: u32) -> Self {
        assert!(records > 0, "table needs at least one slot");
        assert!((1..=32).contains(&hop_width), "hop width must be 1..=32");
        assert!(hop_width <= records, "hop width cannot exceed table size");
        assert!(page.holds(records), "table exceeds page");
        TablePage { page, records, hop_width }
    }

    /// Total slots `R`.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.records
    }

    #[inline]
    fn slot(&self, i: usize) -> &PackedRecord {
        self.page.slot(i)
    }

    #[inline]
    fn sig_at(&self, i: usize) -> u64 {
        IndexRecord::packed_sig(self.slot(i))
    }

    #[inline]
    fn ppa_raw_at(&self, i: usize) -> u64 {
        IndexRecord::packed_ppa(self.slot(i))
    }

    #[inline]
    fn hopinfo_at(&self, i: usize) -> u32 {
        IndexRecord::packed_hopinfo(self.slot(i))
    }

    #[inline]
    fn occupied(&self, i: usize) -> bool {
        self.ppa_raw_at(i) != IndexRecord::EMPTY_PPA
    }

    /// The record layer's fixed hash: home slot for `sig`.
    ///
    /// Fibonacci multiplicative mix over the full signature — independent
    /// of the directory's low-bit selection, identical across all tables
    /// ("a fixed hash function for all hash tables in the record layer").
    #[inline]
    pub fn home_slot(&self, sig: KeySignature) -> u32 {
        let mixed = sig.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((mixed >> 24) % self.records as u64) as u32
    }

    #[inline]
    fn at(&self, base: u32, dist: u32) -> usize {
        ((base + dist) % self.records) as usize
    }

    /// Slot index, hop distance and stored PPA of `sig`, probing only the
    /// home bucket's hop neighborhood.
    #[inline]
    fn find(&self, sig: KeySignature) -> Option<(usize, u32, Ppa)> {
        let home = self.home_slot(sig);
        let mut hops = self.hopinfo_at(home as usize);
        while hops != 0 {
            let d = hops.trailing_zeros();
            let idx = self.at(home, d);
            let slot = self.slot(idx);
            let ppa = IndexRecord::packed_ppa(slot);
            if IndexRecord::packed_sig(slot) == sig.0 && ppa != IndexRecord::EMPTY_PPA {
                return Some((idx, d, Ppa::unpack(ppa)));
            }
            hops &= hops - 1;
        }
        None
    }

    /// Look up `sig`; probes only the home bucket's hop neighborhood, so
    /// cost is bounded by the hop width.
    #[inline]
    pub fn lookup(&self, sig: KeySignature) -> Option<Ppa> {
        self.find(sig).map(|(_, _, ppa)| ppa)
    }

    /// Iterate over stored `(signature, ppa)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (KeySignature, Ppa)> + '_ {
        page_records(&self.page, self.records)
    }

    /// Records stored (a scan of every slot).
    pub fn count(&self) -> u32 {
        (0..self.records as usize).filter(|&i| self.occupied(i)).count() as u32
    }

    /// Internal consistency check (tests and the device auditor): every
    /// hopinfo bit points at an occupied slot homed at that bucket, every
    /// occupied slot is covered by exactly one hopinfo bit of its home, and
    /// the table holds `len` records. Violations carry structured context
    /// (slot, home, signature) so callers can assert on the failure class.
    #[doc(hidden)]
    pub fn check_invariants(&self, len: u32) -> Result<(), InvariantViolation> {
        let cap = self.records;
        let mut covered = vec![false; cap as usize];
        for home in 0..cap {
            let mut hops = self.hopinfo_at(home as usize);
            while hops != 0 {
                let d = hops.trailing_zeros();
                if d >= self.hop_width {
                    return Err(InvariantViolation::HopBitOutOfRange {
                        home,
                        bit: d,
                        hop_width: self.hop_width,
                    });
                }
                let idx = self.at(home, d);
                if !self.occupied(idx) {
                    return Err(InvariantViolation::HopBitTargetsEmptySlot {
                        home,
                        bit: d,
                        slot: idx as u32,
                    });
                }
                let sig = self.sig_at(idx);
                if self.home_slot(KeySignature(sig)) != home {
                    return Err(InvariantViolation::MisHomedRecord { slot: idx as u32, home, sig });
                }
                if covered[idx] {
                    return Err(InvariantViolation::SlotCoveredTwice { slot: idx as u32, sig });
                }
                covered[idx] = true;
                hops &= hops - 1;
            }
        }
        let covered_count = covered.iter().filter(|&&c| c).count() as u32;
        let occupied = self.count();
        if covered_count != occupied || occupied != len {
            return Err(InvariantViolation::CoverageMismatch {
                covered: covered_count,
                occupied,
                len,
            });
        }
        Ok(())
    }
}

impl<B: SlotsMut> TablePage<B> {
    #[inline]
    fn slot_mut(&mut self, i: usize) -> &mut PackedRecord {
        self.page.slot_mut(i)
    }

    /// Occupy slot `i` (its hopinfo — the bucket's — is kept).
    #[inline]
    fn set_record(&mut self, i: usize, sig: u64, ppa_raw: u64) {
        IndexRecord::pack_entry(self.slot_mut(i), sig, ppa_raw);
    }

    #[inline]
    fn clear(&mut self, i: usize) {
        self.set_record(i, 0, IndexRecord::EMPTY_PPA);
    }

    #[inline]
    fn set_hopinfo(&mut self, i: usize, hopinfo: u32) {
        IndexRecord::pack_hopinfo(self.slot_mut(i), hopinfo);
    }

    /// Insert or update `sig → ppa`. Also returns the hopscotch
    /// displacements performed; when the insert ends `Full`, those moves
    /// are undone and the page is byte-identical to before.
    pub fn insert(&mut self, sig: KeySignature, ppa: Ppa) -> (TableInsert, u64) {
        // Update in place if the signature is already present.
        if let Some((idx, _, old)) = self.find(sig) {
            self.set_record(idx, sig.0, ppa.pack());
            return (TableInsert::Updated { old }, 0);
        }

        // Linear-probe for an empty slot starting at home (a full table
        // has none).
        let home = self.home_slot(sig);
        let Some(mut free_dist) = (0..self.records).find(|&d| !self.occupied(self.at(home, d)))
        else {
            return (TableInsert::Full, 0);
        };

        // Hopscotch displacement: while the free slot is out of hop range,
        // move an earlier-homed record into it to pull the hole closer.
        // Each move logs the slots it rewrites so a dead end can be undone.
        let mut undo: Vec<(usize, PackedRecord)> = Vec::new();
        let mut displacements = 0;
        while free_dist >= self.hop_width {
            match self.pull_hole_closer(home, free_dist, &mut undo) {
                Some(new_dist) => {
                    free_dist = new_dist;
                    displacements += 1;
                }
                None => {
                    for (i, old) in undo.into_iter().rev() {
                        *self.slot_mut(i) = old;
                    }
                    return (TableInsert::Full, displacements);
                }
            }
        }

        let idx = self.at(home, free_dist);
        self.set_record(idx, sig.0, ppa.pack());
        let info = self.hopinfo_at(home as usize) | 1 << free_dist;
        self.set_hopinfo(home as usize, info);
        (TableInsert::Inserted, displacements)
    }

    /// Classic hopscotch displacement step: the hole sits `free_dist` slots
    /// after `home`. Find a record in the window of `hop_width - 1` slots
    /// before the hole that may legally move into it (the hole stays within
    /// its own home's hop range), move it, and return the hole's new
    /// distance from `home`. The rewritten slots' old bytes go to `undo`.
    fn pull_hole_closer(
        &mut self,
        home: u32,
        free_dist: u32,
        undo: &mut Vec<(usize, PackedRecord)>,
    ) -> Option<u32> {
        let cap = self.records;
        let hole_abs = (home + free_dist) % cap;
        // Candidate positions: hole - (hop_width - 1) .. hole, in order, so
        // the hole moves as far back as possible per step.
        for back in (1..self.hop_width).rev() {
            let cand_abs = (hole_abs + cap - back) % cap;
            // The candidate's home must be able to reach the hole: distance
            // from the candidate's home to the hole < hop_width. Find the
            // candidate's home by scanning the hop_width homes that could
            // own it (the bit in its home's hopinfo).
            for hd in (back..self.hop_width).rev() {
                let cand_home = (cand_abs + cap - (hd - back)) % cap;
                // distance from cand_home to candidate is hd - back;
                // distance from cand_home to hole is hd.
                let info = self.hopinfo_at(cand_home as usize);
                let cand_dist = hd - back;
                if info & (1 << cand_dist) == 0 {
                    continue;
                }
                let cand_idx = cand_abs as usize;
                if !self.occupied(cand_idx) {
                    continue;
                }
                // Verify this record really homes here (hopinfo bits are
                // authoritative, but be defensive about aliasing).
                let sig = self.sig_at(cand_idx);
                if self.home_slot(KeySignature(sig)) != cand_home {
                    continue;
                }
                // Move candidate into the hole.
                let hole_idx = hole_abs as usize;
                for i in [hole_idx, cand_idx, cand_home as usize] {
                    undo.push((i, *self.slot(i)));
                }
                let ppa_raw = self.ppa_raw_at(cand_idx);
                self.set_record(hole_idx, sig, ppa_raw);
                self.clear(cand_idx);
                self.set_hopinfo(cand_home as usize, (info & !(1 << cand_dist)) | (1 << hd));
                // The hole is now at the candidate's old position.
                return Some((cand_abs + cap - home) % cap);
            }
        }
        None
    }

    /// Remove `sig`, returning its PPA.
    pub fn remove(&mut self, sig: KeySignature) -> Option<Ppa> {
        let (idx, d, ppa) = self.find(sig)?;
        self.clear(idx);
        let home = self.home_slot(sig) as usize;
        let info = self.hopinfo_at(home) & !(1 << d);
        self.set_hopinfo(home, info);
        Some(ppa)
    }
}

/// A page-sized hopscotch table over a buffer it owns: [`TablePage`]'s
/// operations plus a record count and a displacement tally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordTable {
    table: TablePage<Vec<u8>>,
    len: u32,
    /// Hopscotch displacements inserts have performed on this copy,
    /// including ones undone by a `Full` insert (not serialized).
    displacements: u64,
}

impl RecordTable {
    /// Fresh empty table with `records` slots (Eq. 1) and hop width `h`.
    pub fn new(records: u32, hop_width: u32) -> Self {
        RecordTable::from_encoded(empty_page(records, records as usize * REC), records, hop_width)
    }

    fn from_encoded(page: Vec<u8>, records: u32, hop_width: u32) -> Self {
        let table = TablePage::new(page, records, hop_width);
        RecordTable { len: table.count(), table, displacements: 0 }
    }

    /// Hopscotch displacements inserts have performed on this copy.
    #[inline]
    pub fn displacements(&self) -> u64 {
        self.displacements
    }

    /// Records currently stored.
    #[inline]
    pub fn len(&self) -> u32 {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots `R`.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.table.capacity()
    }

    /// Occupancy fraction in [0, 1].
    #[inline]
    pub fn occupancy(&self) -> f64 {
        self.len as f64 / self.capacity() as f64
    }

    /// The record layer's fixed hash: home slot for `sig`.
    #[inline]
    pub fn home_slot(&self, sig: KeySignature) -> u32 {
        self.table.home_slot(sig)
    }

    /// Look up `sig` (≤ hop-width probes).
    #[inline]
    pub fn lookup(&self, sig: KeySignature) -> Option<Ppa> {
        self.table.lookup(sig)
    }

    /// Insert or update `sig → ppa`.
    pub fn insert(&mut self, sig: KeySignature, ppa: Ppa) -> TableInsert {
        let (outcome, displacements) = self.table.insert(sig, ppa);
        self.displacements += displacements;
        if outcome == TableInsert::Inserted {
            self.len += 1;
        }
        outcome
    }

    /// Remove `sig`, returning its PPA.
    pub fn remove(&mut self, sig: KeySignature) -> Option<Ppa> {
        let removed = self.table.remove(sig);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Iterate over stored `(signature, ppa)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (KeySignature, Ppa)> + '_ {
        self.table.iter()
    }

    /// Serialize into a flash-page image of `page_size` bytes.
    pub fn to_page(&self, page_size: usize) -> Bytes {
        let encoded = self.table.page.as_slice();
        assert!(encoded.len() <= page_size, "table exceeds page");
        let mut out = vec![0u8; page_size];
        out[..encoded.len()].copy_from_slice(encoded);
        Bytes::from(out)
    }

    /// Reconstruct from a flash-page image.
    pub fn from_page(data: &[u8], records: u32, hop_width: u32) -> Self {
        RecordTable::from_encoded(data[..records as usize * REC].to_vec(), records, hop_width)
    }

    /// [`TablePage::check_invariants`] against this copy's record count.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.table.check_invariants(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(n: u64) -> KeySignature {
        KeySignature(n)
    }

    fn ppa(n: u32) -> Ppa {
        Ppa::new(n, 0)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = RecordTable::new(30, 8);
        assert_eq!(t.insert(sig(1), ppa(10)), TableInsert::Inserted);
        assert_eq!(t.lookup(sig(1)), Some(ppa(10)));
        assert_eq!(t.lookup(sig(2)), None);
        assert_eq!(t.remove(sig(1)), Some(ppa(10)));
        assert_eq!(t.lookup(sig(1)), None);
        assert_eq!(t.remove(sig(1)), None);
        assert!(t.is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn update_replaces_ppa() {
        let mut t = RecordTable::new(30, 8);
        t.insert(sig(5), ppa(1));
        assert_eq!(t.insert(sig(5), ppa(2)), TableInsert::Updated { old: ppa(1) });
        assert_eq!(t.lookup(sig(5)), Some(ppa(2)));
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn fills_to_high_occupancy() {
        // Hopscotch with H=32 should fill a small table near-completely.
        let mut t = RecordTable::new(64, 32);
        let mut inserted = 0;
        for i in 0..64u64 {
            if t.insert(sig(i.wrapping_mul(0x1234_5678_9abc_def1)), ppa(i as u32))
                == TableInsert::Inserted
            {
                inserted += 1;
            }
        }
        assert!(inserted >= 60, "only {inserted}/64 inserted");
        t.check_invariants().unwrap();
    }

    #[test]
    fn full_table_aborts_cleanly() {
        let mut t = RecordTable::new(8, 8);
        let mut stored = Vec::new();
        for i in 0..100u64 {
            let s = sig(i.wrapping_mul(0x9e37_79b9) + 1);
            match t.insert(s, ppa(i as u32)) {
                TableInsert::Inserted => stored.push((s, ppa(i as u32))),
                TableInsert::Full => break,
                TableInsert::Updated { .. } => {}
            }
        }
        assert_eq!(t.len() as usize, stored.len());
        // Everything that reported success is still retrievable.
        for (s, p) in stored {
            assert_eq!(t.lookup(s), Some(p));
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn displacement_rescues_distant_holes() {
        // Force many keys into the same home so the free slot drifts out of
        // hop range and displacement must kick in. With capacity 64 and
        // H=4, colliding keys exercise pull_hole_closer quickly.
        let mut t = RecordTable::new(64, 4);
        let mut ok = 0;
        for i in 0..48u64 {
            if t.insert(sig(i * 7 + 3), ppa(i as u32)) == TableInsert::Inserted {
                ok += 1;
            }
            t.check_invariants().unwrap();
        }
        assert!(ok > 30, "inserted {ok}");
        for i in 0..48u64 {
            if t.lookup(sig(i * 7 + 3)).is_some() {
                assert_eq!(t.lookup(sig(i * 7 + 3)), Some(ppa(i as u32)));
            }
        }
    }

    #[test]
    fn full_after_displacements_leaves_page_unchanged() {
        // Fill a small, narrow table until inserts start failing, then
        // check every failing insert that displaced records first was
        // rolled back byte for byte.
        let mut t = RecordTable::new(30, 4);
        let mut rolled_back = 0;
        for i in 0..2_000u64 {
            let s = sig(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let before = t.clone();
            let displaced = t.displacements();
            if t.insert(s, ppa(i as u32)) == TableInsert::Full {
                assert_eq!(t.to_page(512), before.to_page(512), "Full must not move records");
                assert_eq!(t.len(), before.len());
                if t.displacements() > displaced {
                    rolled_back += 1;
                }
            }
            t.check_invariants().unwrap();
        }
        assert!(rolled_back > 0, "no Full insert displaced records first");
    }

    #[test]
    fn page_serialization_roundtrip() {
        let mut t = RecordTable::new(30, 16);
        for i in 0..20u64 {
            t.insert(sig(i * 31 + 7), ppa(i as u32));
        }
        let page = t.to_page(512);
        assert_eq!(page.len(), 512);
        let back = RecordTable::from_page(&page, 30, 16);
        assert_eq!(back, t);
        back.check_invariants().unwrap();
    }

    #[test]
    fn empty_page_matches_record_encoding() {
        let page = empty_page(3, 60);
        let mut slot = [0u8; REC];
        IndexRecord::empty().encode_into(&mut slot);
        for i in 0..3 {
            assert_eq!(&page[i * REC..(i + 1) * REC], &slot);
        }
        assert!(page[3 * REC..].iter().all(|&b| b == 0), "padding is zero");
        assert_eq!(RecordTable::new(3, 2).to_page(60), Bytes::from(page));
    }

    #[test]
    fn a_page_past_one_segment_is_segmented_and_reads_the_same() {
        let (records, len) = (600, 600 * REC + 9);
        let flat = empty_page(records, len);
        let page = segmented(&flat);
        let lens: Vec<usize> = page.segments().iter().map(|s| s.len()).collect();
        assert_eq!(lens, vec![SEGMENT_BYTES, SEGMENT_BYTES, len - 2 * SEGMENT_BYTES]);
        assert_eq!(page.to_bytes(), Bytes::from(flat));
        assert_eq!(segmented(&empty_page(40, 40 * REC)).segments().len(), 1);
    }

    #[test]
    fn in_place_ops_match_the_owned_table() {
        for records in [40, 600] {
            let len = records as usize * REC + 5;
            let mut page = segmented(&empty_page(records, len));
            let mut owned = RecordTable::new(records, 8);
            for i in 0..120u64 {
                let s = sig(i.wrapping_mul(0x2545_f491_4f6c_dd1d) % 97);
                let mut view = TablePage::new(page.segments_mut(), records, 8);
                if i % 3 == 2 {
                    assert_eq!(view.remove(s), owned.remove(s));
                } else {
                    assert_eq!(view.insert(s, ppa(i as u32)).0, owned.insert(s, ppa(i as u32)));
                }
                assert_eq!(TablePage::new(page.segments(), records, 8).lookup(s), owned.lookup(s));
            }
            assert_eq!(page.to_bytes(), owned.to_page(len));
            TablePage::new(page.segments(), records, 8).check_invariants(owned.len()).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "table exceeds page")]
    fn a_flat_buffer_past_one_segment_is_not_a_segment_list() {
        let flat = Bytes::from(RecordTable::new(600, 8).to_page(600 * REC).to_vec());
        TablePage::new(std::slice::from_ref(&flat), 600, 8);
    }

    #[test]
    fn occupancy_math() {
        let mut t = RecordTable::new(10, 8);
        assert_eq!(t.occupancy(), 0.0);
        t.insert(sig(1), ppa(1));
        t.insert(sig(2), ppa(2));
        assert!((t.occupancy() - 0.2).abs() < 1e-12);
        assert_eq!(t.capacity(), 10);
    }

    #[test]
    fn iter_yields_all_records() {
        let mut t = RecordTable::new(30, 16);
        let mut expect = std::collections::HashMap::new();
        for i in 0..15u64 {
            let s = sig(i * 1_000_003);
            if t.insert(s, ppa(i as u32)) == TableInsert::Inserted {
                expect.insert(s, ppa(i as u32));
            }
        }
        let got: std::collections::HashMap<_, _> = t.iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "hop width cannot exceed")]
    fn hop_wider_than_table_rejected() {
        RecordTable::new(8, 16);
    }

    #[test]
    fn lookup_cost_bounded_by_hop_width() {
        // The lookup only inspects slots flagged in one hopinfo word, i.e.
        // ≤ hop_width probes; verify indirectly: a signature whose home
        // bucket has empty hopinfo is answered without scanning.
        let t = RecordTable::new(64, 32);
        assert_eq!(t.lookup(sig(12345)), None);
    }
}
