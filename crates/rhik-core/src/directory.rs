//! The directory layer (§IV-A): `D = 2^bits` DRAM-resident entries, each
//! pointing at the flash page holding one record-layer table, selected by
//! the low bits of the key signature. A persistent snapshot is periodically
//! written to flash.

use bytes::Bytes;
use rhik_nand::Ppa;
use rhik_sigs::KeySignature;

/// Cache keys with this bit set identify §VI hyper-local overflow tables.
pub(crate) const OVERFLOW_KEY: u64 = 1 << 62;

/// One directory entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirEntry {
    /// Flash location of this slot's record-layer table (`I_PPA`), or
    /// `None` while the table has never been persisted (still empty or
    /// dirty-only in cache).
    pub table_ppa: Option<Ppa>,
    /// Records currently stored in this slot's table (kept in DRAM so the
    /// global occupancy check needs no flash access).
    pub records: u32,
    /// §VI hyper-local scaling: a per-bucket overflow table absorbing
    /// records the primary table's hop range rejected. `None` unless the
    /// feature is enabled and the bucket overflowed.
    pub overflow_ppa: Option<Ppa>,
    /// Records in the overflow table.
    pub overflow_records: u32,
    /// Whether an overflow table exists (it may be cache-only, like the
    /// primary).
    pub has_overflow: bool,
}

impl DirEntry {
    pub const fn empty() -> Self {
        DirEntry {
            table_ppa: None,
            records: 0,
            overflow_ppa: None,
            overflow_records: 0,
            has_overflow: false,
        }
    }

    /// Total records this bucket holds (primary + overflow).
    pub fn total_records(&self) -> u32 {
        self.records + self.overflow_records
    }
}

/// The DRAM-resident directory.
#[derive(Clone, Debug)]
pub struct Directory {
    bits: u32,
    entries: Vec<DirEntry>,
    /// Generation counter, bumped by every resize; cache keys embed it so
    /// stale cached tables of a previous configuration can never alias the
    /// current ones.
    generation: u32,
}

const SNAPSHOT_ENTRY_LEN: usize = 12; // [tag, ppa×5] for primary and overflow
const SNAPSHOT_HEADER_LEN: usize = 24; // bits (4) + generation (4) + seq (8) + fragment (4) + count (4)

impl Directory {
    /// Fresh directory with `2^bits` empty entries.
    pub fn new(bits: u32) -> Self {
        assert!(bits <= 32, "directory bits capped at 32");
        Directory { bits, entries: vec![DirEntry::empty(); 1usize << bits], generation: 0 }
    }

    /// Number of entries `D`.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        false // a directory always has at least one entry (bits = 0 → 1)
    }

    /// Directory size in bits.
    #[inline]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    #[inline]
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// The "variable hash function": slot for `sig` = low `bits` bits.
    #[inline]
    pub fn slot_of(&self, sig: KeySignature) -> u32 {
        sig.low_bits(self.bits) as u32
    }

    #[inline]
    pub fn entry(&self, slot: u32) -> &DirEntry {
        &self.entries[slot as usize]
    }

    #[inline]
    pub fn entry_mut(&mut self, slot: u32) -> &mut DirEntry {
        &mut self.entries[slot as usize]
    }

    /// Total records across all tables (the numerator of the global
    /// occupancy check that triggers resizing).
    pub fn total_records(&self) -> u64 {
        self.entries.iter().map(|e| e.total_records() as u64).sum()
    }

    /// Cache key of `slot`'s table under the current generation.
    #[inline]
    pub fn cache_key(&self, slot: u32) -> u64 {
        ((self.generation as u64) << 32) | slot as u64
    }

    /// Whether `key` belongs to the current generation.
    #[inline]
    pub fn is_current_key(&self, key: u64) -> bool {
        (key >> 32) as u32 == self.generation && ((key & 0xffff_ffff) as usize) < self.entries.len()
    }

    /// Slot encoded in a cache key (caller must have checked the
    /// generation).
    #[inline]
    pub fn slot_of_key(key: u64) -> u32 {
        (key & 0xffff_ffff) as u32
    }

    /// The flash pointer of the table cached under `key` — a slot's
    /// primary table, or with [`OVERFLOW_KEY`] its overflow table — if
    /// `key` belongs to the current generation.
    pub(crate) fn table_ppa_mut(&mut self, key: u64) -> Option<&mut Option<Ppa>> {
        if !self.is_current_key(key & !OVERFLOW_KEY) {
            return None;
        }
        let entry = &mut self.entries[Self::slot_of_key(key) as usize];
        Some(if key & OVERFLOW_KEY != 0 { &mut entry.overflow_ppa } else { &mut entry.table_ppa })
    }

    /// Every slot's tables in slot order, primary then overflow, as
    /// `(cache key, flash copy, record count)`.
    pub(crate) fn tables(&self) -> impl Iterator<Item = (u64, Option<Ppa>, u32)> + '_ {
        self.entries.iter().enumerate().flat_map(move |(slot, e)| {
            let key = self.cache_key(slot as u32);
            [
                (key, e.table_ppa, e.records),
                (OVERFLOW_KEY | key, e.overflow_ppa, e.overflow_records),
            ]
        })
    }

    /// Replace this directory by a doubled, empty successor and return the
    /// old one (resize step 1). Generation advances.
    pub fn begin_doubling(&mut self) -> Directory {
        let next = Directory {
            bits: self.bits + 1,
            entries: vec![DirEntry::empty(); 1usize << (self.bits + 1)],
            generation: self.generation + 1,
        };
        std::mem::replace(self, next)
    }

    /// The two successor slots an old slot's records split into when the
    /// directory doubles: low-bit-extension means old slot `s` maps to `s`
    /// and `s + D_old`.
    pub fn split_targets(old_slot: u32, old_bits: u32) -> (u32, u32) {
        (old_slot, old_slot + (1 << old_bits))
    }

    /// DRAM footprint of the directory layer in bytes. The paper quotes
    /// ~0.005 bytes/key for 32 KiB pages: 10 bytes/entry ÷ 1927 keys/table.
    pub fn dram_bytes(&self) -> u64 {
        (self.entries.len() * std::mem::size_of::<DirEntry>()) as u64
    }

    /// Serialize the directory into page-sized snapshot fragments for the
    /// periodic persistent copy. Each fragment carries the header so any
    /// fragment identifies the configuration.
    /// `seq` is a monotonically increasing snapshot sequence number (the
    /// index bumps it every flush) so a mount-time scan can tell flushes of
    /// the same configuration apart.
    pub fn snapshot_pages(&self, page_size: usize, seq: u64) -> Vec<Bytes> {
        assert!(page_size > SNAPSHOT_HEADER_LEN + SNAPSHOT_ENTRY_LEN, "page too small");
        let per_page = (page_size - SNAPSHOT_HEADER_LEN) / SNAPSHOT_ENTRY_LEN;
        let mut pages = Vec::new();
        for (frag_idx, chunk) in self.entries.chunks(per_page).enumerate() {
            let mut buf = Vec::with_capacity(page_size);
            buf.extend_from_slice(&self.bits.to_le_bytes());
            buf.extend_from_slice(&self.generation.to_le_bytes());
            buf.extend_from_slice(&seq.to_le_bytes());
            buf.extend_from_slice(&(frag_idx as u32).to_le_bytes());
            buf.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
            for e in chunk {
                for (present_tag, ppa) in
                    [(1u8, e.table_ppa), (if e.has_overflow { 3 } else { 2 }, e.overflow_ppa)]
                {
                    match ppa {
                        Some(ppa) => {
                            buf.push(present_tag);
                            buf.extend_from_slice(&ppa.to_bytes());
                        }
                        None => {
                            buf.push(0);
                            buf.extend_from_slice(&[0u8; 5]);
                        }
                    }
                }
            }
            buf.resize(page_size, 0);
            pages.push(Bytes::from(buf));
        }
        pages
    }

    /// Parse a snapshot fragment's header: `(bits, generation, fragment
    /// index)`. Recovery uses this to group and order fragments found by a
    /// raw flash scan.
    pub fn fragment_meta(page: &[u8]) -> Option<(u32, u32, u64, u32)> {
        if page.len() < SNAPSHOT_HEADER_LEN {
            return None;
        }
        let bits = u32::from_le_bytes(page[0..4].try_into().ok()?);
        if bits > 32 {
            return None;
        }
        let generation = u32::from_le_bytes(page[4..8].try_into().ok()?);
        let seq = u64::from_le_bytes(page[8..16].try_into().ok()?);
        let frag = u32::from_le_bytes(page[16..20].try_into().ok()?);
        Some((bits, generation, seq, frag))
    }

    /// Rebuild a directory from snapshot fragments in fragment order
    /// (recovery path; record counts are re-learned by loading tables).
    pub fn from_snapshot_pages(pages: &[Bytes]) -> Option<Directory> {
        let first = pages.first()?;
        if first.len() < SNAPSHOT_HEADER_LEN {
            return None;
        }
        let bits = u32::from_le_bytes(first[0..4].try_into().ok()?);
        let generation = u32::from_le_bytes(first[4..8].try_into().ok()?);
        if bits > 32 {
            return None;
        }
        let mut entries = Vec::with_capacity(1usize << bits);
        for page in pages {
            if page.len() < SNAPSHOT_HEADER_LEN {
                return None;
            }
            let count = u32::from_le_bytes(page[20..24].try_into().ok()?) as usize;
            for i in 0..count {
                let off = SNAPSHOT_HEADER_LEN + i * SNAPSHOT_ENTRY_LEN;
                if off + SNAPSHOT_ENTRY_LEN > page.len() {
                    return None;
                }
                let read_slot = |at: usize| -> Option<(u8, Option<Ppa>)> {
                    let tag = page[at];
                    let ppa = if tag == 0 {
                        None
                    } else {
                        let raw: [u8; 5] = page[at + 1..at + 6].try_into().ok()?;
                        Some(Ppa::from_bytes(raw))
                    };
                    Some((tag, ppa))
                };
                let (_, table_ppa) = read_slot(off)?;
                let (otag, overflow_ppa) = read_slot(off + 6)?;
                entries.push(DirEntry {
                    table_ppa,
                    records: 0,
                    overflow_ppa,
                    overflow_records: 0,
                    has_overflow: otag == 3 || overflow_ppa.is_some(),
                });
            }
        }
        if entries.len() != 1usize << bits {
            return None;
        }
        Some(Directory { bits, entries, generation })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_selection_uses_low_bits() {
        let d = Directory::new(3);
        assert_eq!(d.len(), 8);
        assert_eq!(d.slot_of(KeySignature(0b10110)), 0b110);
        assert_eq!(d.slot_of(KeySignature(0)), 0);
        let d0 = Directory::new(0);
        assert_eq!(d0.len(), 1);
        assert_eq!(d0.slot_of(KeySignature(u64::MAX)), 0);
    }

    #[test]
    fn cache_keys_embed_generation() {
        let mut d = Directory::new(2);
        let k0 = d.cache_key(3);
        assert!(d.is_current_key(k0));
        let _old = d.begin_doubling();
        assert!(!d.is_current_key(k0), "old-generation key rejected");
        let k1 = d.cache_key(3);
        assert_ne!(k0, k1);
        assert_eq!(Directory::slot_of_key(k1), 3);
    }

    #[test]
    fn doubling_replaces_and_returns_old() {
        let mut d = Directory::new(2);
        d.entry_mut(1).records = 7;
        let old = d.begin_doubling();
        assert_eq!(old.bits(), 2);
        assert_eq!(old.entry(1).records, 7);
        assert_eq!(d.bits(), 3);
        assert_eq!(d.len(), 8);
        assert_eq!(d.total_records(), 0);
        assert_eq!(d.generation(), old.generation() + 1);
    }

    #[test]
    fn split_targets_low_bit_extension() {
        assert_eq!(Directory::split_targets(0, 2), (0, 4));
        assert_eq!(Directory::split_targets(3, 2), (3, 7));
        // A signature in old slot s lands in one of the two targets.
        let old = Directory::new(2);
        let new = Directory::new(3);
        for raw in [0u64, 5, 1023, 0xdeadbeef] {
            let sig = KeySignature(raw);
            let (a, b) = Directory::split_targets(old.slot_of(sig), 2);
            let target = new.slot_of(sig);
            assert!(target == a || target == b, "sig {raw:#x} → {target}, expected {a} or {b}");
        }
    }

    #[test]
    fn total_records_sums_including_overflow() {
        let mut d = Directory::new(2);
        d.entry_mut(0).records = 3;
        d.entry_mut(3).records = 5;
        d.entry_mut(3).overflow_records = 2;
        assert_eq!(d.entry(3).total_records(), 7);
        assert_eq!(d.total_records(), 10);
    }

    #[test]
    fn snapshot_preserves_overflow_pointers() {
        let mut d = Directory::new(2);
        d.entry_mut(1).table_ppa = Some(Ppa::new(5, 5));
        d.entry_mut(1).overflow_ppa = Some(Ppa::new(6, 6));
        d.entry_mut(1).has_overflow = true;
        let pages = d.snapshot_pages(256, 9);
        let back = Directory::from_snapshot_pages(&pages).unwrap();
        assert_eq!(back.entry(1).table_ppa, Some(Ppa::new(5, 5)));
        assert_eq!(back.entry(1).overflow_ppa, Some(Ppa::new(6, 6)));
        assert!(back.entry(1).has_overflow);
        assert!(!back.entry(0).has_overflow);
    }

    #[test]
    fn snapshot_roundtrip_small_page() {
        let mut d = Directory::new(6); // 64 entries → several 128-byte pages
        d.entry_mut(5).table_ppa = Some(Ppa::new(9, 3));
        d.entry_mut(63).table_ppa = Some(Ppa::new(1, 1));
        let pages = d.snapshot_pages(128, 1);
        assert!(pages.len() > 1);
        assert!(pages.iter().all(|p| p.len() == 128));
        let back = Directory::from_snapshot_pages(&pages).unwrap();
        assert_eq!(back.bits(), 6);
        assert_eq!(back.generation(), d.generation());
        assert_eq!(back.entry(5).table_ppa, Some(Ppa::new(9, 3)));
        assert_eq!(back.entry(63).table_ppa, Some(Ppa::new(1, 1)));
        assert_eq!(back.entry(0).table_ppa, None);
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let d = Directory::new(3);
        let pages = d.snapshot_pages(256, 1);
        assert!(Directory::from_snapshot_pages(&pages[..0]).is_none());
        let mut corrupt = pages[0].to_vec();
        corrupt[0] = 0xff; // bits = huge
        assert!(Directory::from_snapshot_pages(&[Bytes::from(corrupt)]).is_none());
    }

    #[test]
    fn dram_footprint_is_small() {
        // Paper: 0.005 bytes/key at 32 KiB pages. Our DirEntry is larger
        // in DRAM (record counters + the hyper-local overflow pointer) but
        // the same order: ~32 / 1927 ≈ 0.017 bytes per key.
        let d = Directory::new(10);
        let per_entry = d.dram_bytes() as f64 / d.len() as f64;
        assert!(per_entry <= 40.0, "entry size {per_entry}");
    }
}
