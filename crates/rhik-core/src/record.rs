//! The packed 17-byte index record (§IV-A: "each record in the hash table
//! stores the 64-bit key signature, the physical address of the KV pair on
//! flash, and information related to index occupancy for each bucket (also
//! known as hopinfo)").

use rhik_nand::Ppa;
use rhik_sigs::KeySignature;

/// One record-layer slot in its flash encoding: the table pages hold these
/// back to back, and the `packed_*`/`pack_*` accessors of [`IndexRecord`]
/// are the only code that knows the field offsets.
pub(crate) type PackedRecord = [u8; IndexRecord::PACKED_LEN];

/// One record-layer slot: signature (8 B) + PPA (5 B) + hopinfo (4 B).
///
/// The hopinfo bitmap belongs to the slot in its role as a *home bucket*:
/// bit `d` set means the slot `d` positions ahead (mod R) holds a record
/// whose home is this slot. An empty slot keeps [`IndexRecord::EMPTY_PPA`]
/// in its address field; its hopinfo can still be non-zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexRecord {
    pub sig: KeySignature,
    /// Packed 40-bit PPA, or [`IndexRecord::EMPTY_PPA`].
    pub ppa_raw: u64,
    pub hopinfo: u32,
}

impl IndexRecord {
    /// On-flash footprint: `kh + ppa + hi` of Eq. 1.
    pub const PACKED_LEN: usize = 8 + 5 + 4;

    /// Sentinel marking an unoccupied slot (a real 40-bit PPA never has all
    /// bits set: the geometry validator caps blocks below 2^24 - 1).
    pub const EMPTY_PPA: u64 = (1 << 40) - 1;

    /// An empty slot.
    pub const fn empty() -> Self {
        IndexRecord { sig: KeySignature(0), ppa_raw: Self::EMPTY_PPA, hopinfo: 0 }
    }

    /// Whether this slot currently stores a record.
    #[inline]
    pub fn is_occupied(&self) -> bool {
        self.ppa_raw != Self::EMPTY_PPA
    }

    /// The stored physical address (must be occupied).
    #[inline]
    pub fn ppa(&self) -> Ppa {
        debug_assert!(self.is_occupied(), "ppa() on an empty record slot");
        Ppa::unpack(self.ppa_raw)
    }

    /// Occupy the slot.
    #[inline]
    pub fn set(&mut self, sig: KeySignature, ppa: Ppa) {
        self.sig = sig;
        self.ppa_raw = ppa.pack();
    }

    /// Vacate the slot (hopinfo is preserved — it describes the bucket,
    /// not the stored record).
    #[inline]
    pub fn clear(&mut self) {
        self.sig = KeySignature(0);
        self.ppa_raw = Self::EMPTY_PPA;
    }

    /// The signature field of a packed slot.
    #[inline]
    pub(crate) fn packed_sig(p: &PackedRecord) -> u64 {
        u64::from_le_bytes([p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7]])
    }

    /// The 40-bit PPA field of a packed slot ([`IndexRecord::EMPTY_PPA`]
    /// when vacant).
    #[inline]
    pub(crate) fn packed_ppa(p: &PackedRecord) -> u64 {
        u64::from_le_bytes([p[8], p[9], p[10], p[11], p[12], 0, 0, 0])
    }

    /// The hopinfo field of a packed slot.
    #[inline]
    pub(crate) fn packed_hopinfo(p: &PackedRecord) -> u32 {
        u32::from_le_bytes([p[13], p[14], p[15], p[16]])
    }

    /// Write a packed slot's signature and PPA fields, keeping its hopinfo.
    #[inline]
    pub(crate) fn pack_entry(p: &mut PackedRecord, sig: u64, ppa_raw: u64) {
        p[..8].copy_from_slice(&sig.to_le_bytes());
        p[8..13].copy_from_slice(&ppa_raw.to_le_bytes()[..5]);
    }

    /// Write a packed slot's hopinfo field.
    #[inline]
    pub(crate) fn pack_hopinfo(p: &mut PackedRecord, hopinfo: u32) {
        p[13..].copy_from_slice(&hopinfo.to_le_bytes());
    }

    /// Serialize into `out` (exactly [`IndexRecord::PACKED_LEN`] bytes).
    pub fn encode_into(&self, out: &mut [u8]) {
        let mut packed = [0u8; Self::PACKED_LEN];
        Self::pack_entry(&mut packed, self.sig.0, self.ppa_raw);
        Self::pack_hopinfo(&mut packed, self.hopinfo);
        out.copy_from_slice(&packed);
    }

    /// Deserialize from exactly [`IndexRecord::PACKED_LEN`] bytes.
    pub fn decode(raw: &[u8]) -> Self {
        let mut packed = [0u8; Self::PACKED_LEN];
        packed.copy_from_slice(raw);
        IndexRecord {
            sig: KeySignature(Self::packed_sig(&packed)),
            ppa_raw: Self::packed_ppa(&packed),
            hopinfo: Self::packed_hopinfo(&packed),
        }
    }
}

impl Default for IndexRecord {
    fn default() -> Self {
        Self::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_len_matches_eq1_terms() {
        assert_eq!(IndexRecord::PACKED_LEN, 17);
    }

    #[test]
    fn empty_is_unoccupied() {
        let r = IndexRecord::empty();
        assert!(!r.is_occupied());
        assert_eq!(r.hopinfo, 0);
    }

    #[test]
    fn set_clear_roundtrip() {
        let mut r = IndexRecord::empty();
        r.set(KeySignature(0xdead_beef), Ppa::new(10, 20));
        r.hopinfo = 0b1010;
        assert!(r.is_occupied());
        assert_eq!(r.ppa(), Ppa::new(10, 20));
        r.clear();
        assert!(!r.is_occupied());
        assert_eq!(r.hopinfo, 0b1010, "hopinfo survives clear");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut r = IndexRecord::empty();
        r.set(KeySignature(u64::MAX - 3), Ppa::new((1 << 24) - 2, 65_535));
        r.hopinfo = 0xdead_cafe;
        let mut buf = [0u8; IndexRecord::PACKED_LEN];
        r.encode_into(&mut buf);
        assert_eq!(IndexRecord::decode(&buf), r);

        let e = IndexRecord::empty();
        e.encode_into(&mut buf);
        let back = IndexRecord::decode(&buf);
        assert!(!back.is_occupied());
    }

    #[test]
    fn sentinel_outside_valid_ppa_space() {
        // The sentinel equals the pack of (block 2^24-1, page 2^16-1). The
        // geometry validator caps block *counts* below 2^24, so the highest
        // real block id is 2^24 - 2 and the sentinel can never collide with
        // a stored address.
        assert_eq!(Ppa::new((1 << 24) - 1, (1 << 16) - 1).pack(), IndexRecord::EMPTY_PPA);
        let g = rhik_nand::NandGeometry::paper_default(1 << 30);
        assert!(g.blocks < (1 << 24));
    }
}
