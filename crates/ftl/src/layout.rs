//! RHIK's on-flash data layout (Fig. 4 of the paper).
//!
//! Each *head* page's data area holds, front to back:
//!
//! ```text
//! [ pair count (2 B) ][ pair records, packed ... free ... sig info area ]
//! ```
//!
//! Every pair record is `[key_len u16][val_total_len u32][flags u8]
//! [cont_ppa 5B][key][value fragment]`. The *key signature information
//! area* grows backwards from the end of the data area, one entry per
//! pair: `[signature u64][record offset u16][value fragment length u32]`
//! (14 B).
//!
//! Values are packed so continuation pages are always *full*: the head
//! page keeps `value_len % page_size` bytes beside the record, and the
//! remaining page-aligned body lives as whole pages in a separate extent
//! partition, addressed by the record's `cont_ppa`. This is §IV-A5's
//! extent-based packing over logically partitioned storage: the index
//! stores only the head page address; the head record is enough to
//! retrieve the rest, and no flash byte is wasted on partial tail pages.
//!
//! The page *spare area* stores the page type and, for continuation pages,
//! the head PPA — exactly the kind of per-page metadata the paper says GC
//! and crash recovery need (§I, challenge 3).

use bytes::Bytes;
use rhik_nand::Ppa;
use rhik_sigs::KeySignature;

/// Byte size of the page header (pair count).
pub const HEADER_LEN: usize = 2;
/// Byte size of one pair record's fixed prefix:
/// key_len (2) + val_total_len (4) + flags (1) + cont_ppa (5).
pub const RECORD_PREFIX_LEN: usize = 2 + 4 + 1 + 5;
/// Byte size of one signature-info entry.
pub const SIG_ENTRY_LEN: usize = 8 + 2 + 4;

/// What kind of page this is, recorded in the spare area.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageKind {
    /// Carries pair records + signature info area.
    Head,
    /// Raw value continuation; spare carries the head PPA.
    Cont,
    /// A record-layer index table (RHIK) or index level page (baselines).
    Index,
    /// A persisted directory-layer snapshot fragment.
    Directory,
}

impl PageKind {
    fn tag(self) -> u8 {
        match self {
            PageKind::Head => 1,
            PageKind::Cont => 2,
            PageKind::Index => 3,
            PageKind::Directory => 4,
        }
    }

    fn from_tag(t: u8) -> Option<Self> {
        Some(match t {
            1 => PageKind::Head,
            2 => PageKind::Cont,
            3 => PageKind::Index,
            4 => PageKind::Directory,
            _ => return None,
        })
    }
}

/// Spare-area metadata.
///
/// Continuation pages carry the owning pair's key signature — "the key
/// identifiers are stored in the spare area of each flash page" (§II-B) —
/// which is what lets GC validate a body page against the global index
/// without any reverse map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpareMeta {
    pub kind: PageKind,
    /// For `Cont` pages: the signature of the pair this body page belongs
    /// to. For others: `None`.
    pub sig: Option<KeySignature>,
}

impl SpareMeta {
    pub fn head_page() -> Self {
        SpareMeta { kind: PageKind::Head, sig: None }
    }

    pub fn cont_page(sig: KeySignature) -> Self {
        SpareMeta { kind: PageKind::Cont, sig: Some(sig) }
    }

    pub fn index_page() -> Self {
        SpareMeta { kind: PageKind::Index, sig: None }
    }

    pub fn directory_page() -> Self {
        SpareMeta { kind: PageKind::Directory, sig: None }
    }

    /// Serialize to spare-area bytes (10 bytes: tag + presence + signature).
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(10);
        out.push(self.kind.tag());
        match self.sig {
            Some(sig) => {
                out.push(1);
                out.extend_from_slice(&sig.0.to_le_bytes());
            }
            None => {
                out.push(0);
                out.extend_from_slice(&[0u8; 8]);
            }
        }
        Bytes::from(out)
    }

    /// Parse spare-area bytes.
    pub fn decode(spare: &[u8]) -> Option<SpareMeta> {
        if spare.len() < 10 {
            return None;
        }
        let kind = PageKind::from_tag(spare[0])?;
        let sig = match spare[1] {
            1 => Some(KeySignature(u64::from_le_bytes(spare[2..10].try_into().ok()?))),
            0 => None,
            _ => return None,
        };
        Some(SpareMeta { kind, sig })
    }
}

/// One pair of a head page, borrowed where it lies — in a sealed page or
/// in the write buffer's open one: what a reader needs to check the key
/// and copy out the value, with nothing copied yet.
///
/// Only [`HeadPage::pair`] makes one, and it refuses a record whose value
/// continues past its head page without a continuation extent, so every
/// pair with a body knows where the body is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pair<'a> {
    pub sig: KeySignature,
    pub key: &'a [u8],
    /// The head-page fragment of the value.
    pub value_frag: &'a [u8],
    pub flags: u8,
    /// Total value length across head + continuation pages; never less
    /// than the fragment's.
    val_total_len: u32,
    /// First continuation page in the extent partition; present whenever
    /// the value has a body.
    cont_start: Option<Ppa>,
}

impl Pair<'_> {
    /// First continuation page of the value's body, if it has one.
    pub fn cont_start(&self) -> Option<Ppa> {
        self.cont_start
    }

    /// Value bytes stored in continuation pages (after the head fragment).
    pub fn body_len(&self) -> u32 {
        self.val_total_len - self.value_frag.len() as u32
    }

    /// Where this pair of the head page at `head` lives on flash.
    pub fn extent(&self, head: Ppa, page_size: u32) -> crate::ftl::WrittenExtent {
        let body_len = self.body_len();
        crate::ftl::WrittenExtent {
            head,
            cont_start: self.cont_start,
            cont_pages: body_len.div_ceil(page_size),
            head_bytes: (RECORD_PREFIX_LEN + self.key.len() + self.value_frag.len() + SIG_ENTRY_LEN)
                as u64,
            cont_bytes: body_len as u64,
        }
    }

    /// Start reading the value: the head fragment is copied now — the
    /// whole value when it has no body — and [`Value::read_body`] reads
    /// the rest. The result borrows nothing, so a pair borrowed from the
    /// write buffer can read its body through the FTL that holds the
    /// buffer.
    pub fn value(&self) -> Value {
        match self.cont_start {
            Some(next) if self.body_len() > 0 => {
                let remaining = self.body_len() as usize;
                let mut bytes = Vec::with_capacity(self.value_frag.len() + remaining);
                bytes.extend_from_slice(self.value_frag);
                Value::Body { bytes, next, remaining }
            }
            _ => Value::Whole(Bytes::copy_from_slice(self.value_frag)),
        }
    }
}

/// A value being read ([`Pair::value`]).
#[derive(Debug)]
pub enum Value {
    /// The whole value: it fits its head page.
    Whole(Bytes),
    /// The head fragment, in a buffer sized for the whole value, and the
    /// `remaining` body bytes still on flash from continuation page `next`.
    Body { bytes: Vec<u8>, next: Ppa, remaining: usize },
}

impl Value {
    /// The whole value, reading the body's continuation pages through
    /// `read_page`. They are full and consecutive in their block, so the
    /// body is their concatenation cut to its length.
    pub fn read_body<E>(
        self,
        mut read_page: impl FnMut(Ppa) -> Result<Bytes, E>,
    ) -> Result<Bytes, E> {
        let (mut bytes, next, mut remaining) = match self {
            Value::Whole(value) => return Ok(value),
            Value::Body { bytes, next, remaining } => (bytes, next, remaining),
        };
        let mut page = next.page;
        while remaining > 0 {
            let data = read_page(Ppa::new(next.block, page))?;
            let take = remaining.min(data.len());
            bytes.extend_from_slice(&data[..take]);
            remaining -= take;
            page += 1;
        }
        Ok(Bytes::from(bytes))
    }
}

/// Incremental builder for a head page.
///
/// Pairs are appended until [`PageBuilder::fits`] says no; the caller then
/// seals the page with [`PageBuilder::finish`] and starts a new one. Until
/// then [`PageBuilder::view`] reads the open page in place.
pub struct PageBuilder {
    page_size: usize,
    /// The header (patched at [`PageBuilder::finish`]), then the records.
    data: Vec<u8>,
    /// The signature info area, one entry per pair in append order.
    sig_entries: Vec<u8>,
}

impl PageBuilder {
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > HEADER_LEN + RECORD_PREFIX_LEN + SIG_ENTRY_LEN, "page too small");
        let mut data = Vec::with_capacity(page_size);
        data.extend_from_slice(&[0u8; HEADER_LEN]);
        // bounded-by: `fits` gates every append so data + sig_entries
        // never exceed page_size.
        PageBuilder { page_size, data, sig_entries: Vec::new() }
    }

    /// Bytes still free for pair records (accounting for the sig entry the
    /// next pair will also need).
    pub fn free_bytes(&self) -> usize {
        self.page_size - self.data.len() - self.sig_entries.len()
    }

    /// Whether a pair with this key could start in this page with at least
    /// `min_value` value bytes of its value.
    pub fn fits(&self, key_len: usize, min_value: usize) -> bool {
        self.free_bytes() >= RECORD_PREFIX_LEN + key_len + SIG_ENTRY_LEN + min_value
    }

    /// True when no pair has been appended yet.
    pub fn is_empty(&self) -> bool {
        self.sig_entries.is_empty()
    }

    pub fn pair_count(&self) -> u16 {
        (self.sig_entries.len() / SIG_ENTRY_LEN) as u16
    }

    /// The open page as a [`HeadPage`], read in place: its records and its
    /// signature info area as they stand before [`PageBuilder::finish`]
    /// moves the info area to the page tail. Record offsets count from the
    /// page start either way.
    pub fn view(&self) -> HeadPage<'_> {
        HeadPage { records: &self.data, info: &self.sig_entries, pairs: self.pair_count() as usize }
    }

    /// Append a pair with an exact head fragment length (the extent writer
    /// picks `value_len % page_size` so continuation pages pack full) and
    /// the extent-partition address of the value body, if any.
    pub fn append_pair_with_frag(
        &mut self,
        sig: KeySignature,
        key: &[u8],
        value: &[u8],
        frag: usize,
        cont_start: Option<Ppa>,
        flags: u8,
    ) {
        assert!(self.fits(key.len(), frag), "caller must check fits() first");
        assert!(frag <= value.len(), "fragment exceeds value");
        assert_eq!(cont_start.is_some(), frag < value.len(), "cont_start iff overflow");
        assert!(key.len() <= u16::MAX as usize, "key exceeds u16 length field");
        assert!(value.len() <= u32::MAX as usize, "value exceeds u32 length field");
        let offset = self.data.len();

        self.data.extend_from_slice(&(key.len() as u16).to_le_bytes());
        self.data.extend_from_slice(&(value.len() as u32).to_le_bytes());
        self.data.push(flags);
        match cont_start {
            Some(ppa) => self.data.extend_from_slice(&ppa.to_bytes()),
            None => self.data.extend_from_slice(&[0xff; Ppa::PACKED_LEN]),
        }
        self.data.extend_from_slice(key);
        self.data.extend_from_slice(&value[..frag]);

        self.sig_entries.extend_from_slice(&sig.0.to_le_bytes());
        self.sig_entries.extend_from_slice(&(offset as u16).to_le_bytes());
        self.sig_entries.extend_from_slice(&(frag as u32).to_le_bytes());
    }

    /// Seal the page: header patched, sig info area moved to the tail.
    /// The builder is left empty, its buffers kept for the next page.
    pub fn finish(&mut self) -> Bytes {
        let pair_count = self.pair_count();
        self.data[..HEADER_LEN].copy_from_slice(&pair_count.to_le_bytes());
        let gap = self.page_size - self.data.len() - self.sig_entries.len();
        self.data.extend(std::iter::repeat_n(0u8, gap));
        // The info area occupies the last pair_count * SIG_ENTRY_LEN bytes,
        // entry i at page_end - (pair_count - i) * SIG_ENTRY_LEN.
        self.data.extend_from_slice(&self.sig_entries);
        debug_assert_eq!(
            self.data.len(),
            self.page_size,
            "sealed head page must fill the flash page exactly"
        );
        let page = Bytes::copy_from_slice(&self.data);
        self.data.truncate(HEADER_LEN);
        self.data.fill(0);
        self.sig_entries.clear();
        page
    }
}

#[inline]
fn le_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

#[inline]
fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

#[inline]
fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// A head page, read where it lies: nothing is copied until a caller asks
/// for a pair.
///
/// Three constructors. [`HeadPage::parse`] checks every pair's bounds; the
/// FTL runs it on each head page when it seals it
/// ([`Ftl::flush_data_builder`](crate::Ftl::flush_data_builder), the only
/// place head pages are programmed), and NAND pages do not change until
/// erased. So a flash reader uses [`HeadPage::programmed`], which trusts
/// the `Head` tag of the spare read with the page and keeps only the O(1)
/// header checks; [`HeadPage::pair`] still slices with checks, so no bytes
/// can make it panic. [`PageBuilder::view`] reads the write buffer's open
/// page the same way before it is sealed.
#[derive(Clone, Copy, Debug)]
pub struct HeadPage<'a> {
    /// The pair area: the header, then the pair records (record offsets
    /// count from its start).
    records: &'a [u8],
    /// The signature info area, one entry per pair in append order.
    info: &'a [u8],
    pairs: usize,
}

impl<'a> HeadPage<'a> {
    /// The header checks: the page length, and the pair count against the
    /// signature info area it implies.
    fn header(data: &'a [u8], page_size: usize) -> Option<Self> {
        if data.len() < HEADER_LEN || data.len() > page_size {
            return None;
        }
        let pairs = le_u16(data) as usize;
        let info_bytes = pairs * SIG_ENTRY_LEN;
        if pairs > 0 && data.len() < HEADER_LEN + info_bytes {
            return None;
        }
        let info_start = data.len() - info_bytes;
        Some(HeadPage { records: &data[..info_start], info: &data[info_start..], pairs })
    }

    /// Validate `data` as a head page. Returns `None` when it is not well
    /// formed: shorter than the header or longer than `page_size`, a
    /// signature info area that does not fit, or any pair
    /// [`HeadPage::pair`] refuses.
    pub fn parse(data: &'a [u8], page_size: usize) -> Option<Self> {
        let page = Self::header(data, page_size)?;
        (0..page.pairs).all(|i| page.pair(i).is_some()).then_some(page)
    }

    /// A page read off flash with its `spare`: a head page only if the
    /// spare says `Head` — every such page passed [`HeadPage::parse`] when
    /// it was sealed — and the header checks hold.
    pub fn programmed(data: &'a [u8], spare: &[u8], page_size: usize) -> Option<Self> {
        if SpareMeta::decode(spare)?.kind != PageKind::Head {
            return None;
        }
        Self::header(data, page_size)
    }

    /// Pairs on the page, including superseded in-page versions.
    pub fn len(&self) -> usize {
        self.pairs
    }

    pub fn is_empty(&self) -> bool {
        self.pairs == 0
    }

    fn info(&self, i: usize) -> &'a [u8] {
        &self.info[i * SIG_ENTRY_LEN..(i + 1) * SIG_ENTRY_LEN]
    }

    /// Signature of pair `i` (in append order).
    pub fn sig(&self, i: usize) -> KeySignature {
        KeySignature(le_u64(self.info(i)))
    }

    /// Pair `i`, borrowed: `None` when `i` is out of range, its record or
    /// head fragment leaves the pair area, the fragment exceeds its value,
    /// or the value continues past the fragment without a continuation
    /// extent.
    #[inline]
    pub fn pair(&self, i: usize) -> Option<Pair<'a>> {
        if i >= self.pairs {
            return None;
        }
        let e = self.info(i);
        let off = le_u16(&e[8..]) as usize;
        let frag_len = le_u32(&e[10..]);
        let rec = self.records.get(off..off + RECORD_PREFIX_LEN)?;
        let val_total_len = le_u32(&rec[2..]);
        let mut cont_raw = [0u8; Ppa::PACKED_LEN];
        cont_raw.copy_from_slice(&rec[7..12]);
        let cont_start = (cont_raw != [0xff; Ppa::PACKED_LEN]).then(|| Ppa::from_bytes(cont_raw));
        if frag_len > val_total_len || (frag_len < val_total_len && cont_start.is_none()) {
            return None;
        }
        let key_start = off + RECORD_PREFIX_LEN;
        let frag_start = key_start + le_u16(rec) as usize;
        Some(Pair {
            sig: KeySignature(le_u64(e)),
            key: self.records.get(key_start..frag_start)?,
            value_frag: self.records.get(frag_start..frag_start.checked_add(frag_len as usize)?)?,
            flags: rec[6],
            val_total_len,
            cont_start,
        })
    }

    /// Index of the authoritative pair for `sig`: entries are scanned
    /// newest-first, because an update that lands in the same open page as
    /// the pair it supersedes appends a second entry with the same
    /// signature.
    pub fn find(&self, sig: KeySignature) -> Option<usize> {
        (0..self.pairs).rev().find(|&i| self.sig(i) == sig)
    }

    /// The authoritative pair for `sig`, borrowed.
    pub fn find_pair(&self, sig: KeySignature) -> Option<Pair<'a>> {
        self.find(sig).and_then(|i| self.pair(i))
    }

    /// Indices of the pairs no later entry supersedes, in page order.
    pub fn newest(&self) -> Vec<usize> {
        let mut by_sig: Vec<(u64, usize)> = (0..self.pairs).map(|i| (self.sig(i).0, i)).collect();
        by_sig.sort_unstable();
        let mut keep: Vec<usize> = by_sig
            .iter()
            .enumerate()
            .filter(|&(k, &(sig, _))| by_sig.get(k + 1).is_none_or(|next| next.0 != sig))
            .map(|(_, &(_, i))| i)
            .collect();
        keep.sort_unstable();
        keep
    }
}

/// Every pair of a head page, borrowed, in append order.
///
/// Returns `None` when the page is not a well-formed head page (see
/// [`HeadPage::parse`]).
pub fn decode_head(data: &[u8], page_size: usize) -> Option<Vec<Pair<'_>>> {
    let page = HeadPage::parse(data, page_size)?;
    (0..page.len()).map(|i| page.pair(i)).collect()
}

/// The authoritative pair for `sig` in a head page, borrowed — the same
/// answer as the newest match in [`decode_head`].
pub fn find_in_head(data: &[u8], page_size: usize, sig: KeySignature) -> Option<Pair<'_>> {
    HeadPage::parse(data, page_size)?.find_pair(sig)
}

/// The reader probe: the authoritative pair for `sig`, borrowed from a
/// page read off flash with its `spare` — `None` unless the spare says
/// `Head` (see [`HeadPage::programmed`]) and the page holds `sig`.
pub fn probe_head<'a>(
    data: &'a [u8],
    spare: &[u8],
    page_size: usize,
    sig: KeySignature,
) -> Option<Pair<'a>> {
    HeadPage::programmed(data, spare, page_size)?.find_pair(sig)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = 512;

    fn sig(n: u64) -> KeySignature {
        KeySignature(n)
    }

    /// Append a pair whose value fits the page whole.
    fn append(b: &mut PageBuilder, sig: KeySignature, key: &[u8], value: &[u8]) {
        b.append_pair_with_frag(sig, key, value, value.len(), None, 0);
    }

    #[test]
    fn single_pair_roundtrip() {
        let mut b = PageBuilder::new(PAGE);
        assert!(b.is_empty());
        append(&mut b, sig(42), b"key-a", b"value-a");
        assert!(!b.is_empty());
        let page = b.finish();
        assert_eq!(page.len(), PAGE);

        let entries = decode_head(&page, PAGE).unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.sig, sig(42));
        assert_eq!(e.key, b"key-a");
        assert_eq!(e.value_frag, b"value-a");
        assert_eq!(e.body_len(), 0);
        assert_eq!(e.extent(Ppa::new(0, 0), PAGE as u32).cont_pages, 0);
    }

    #[test]
    fn multiple_pairs_pack_and_decode_in_order() {
        let mut b = PageBuilder::new(PAGE);
        for i in 0..5u64 {
            let key = format!("key-{i}");
            let val = format!("value-number-{i}");
            assert!(b.fits(key.len(), val.len()));
            append(&mut b, sig(i), key.as_bytes(), val.as_bytes());
        }
        assert_eq!(b.pair_count(), 5);
        let page = b.finish();
        let entries = decode_head(&page, PAGE).unwrap();
        assert_eq!(entries.len(), 5);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.sig, sig(i as u64));
            assert_eq!(e.key, format!("key-{i}").as_bytes());
            assert_eq!(e.value_frag, format!("value-number-{i}").as_bytes());
        }
    }

    #[test]
    fn oversized_value_is_fragmented() {
        let mut b = PageBuilder::new(PAGE);
        let value = vec![7u8; 2000];
        let frag = value.len() % PAGE;
        b.append_pair_with_frag(sig(1), b"k", &value, frag, Some(Ppa::new(4, 0)), 0);
        let page = b.finish();
        let e = find_in_head(&page, PAGE, sig(1)).unwrap();
        assert_eq!(e.value_frag, &value[..frag]);
        assert_eq!(e.cont_start(), Some(Ppa::new(4, 0)));
        let rest = value.len() - frag;
        assert_eq!(e.body_len() as usize, rest);
        let extent = e.extent(Ppa::new(0, 0), PAGE as u32);
        assert_eq!(extent.cont_pages as usize, rest.div_ceil(PAGE));
        assert_eq!(extent.bytes(), (RECORD_PREFIX_LEN + 1 + value.len() + SIG_ENTRY_LEN) as u64);
    }

    #[test]
    fn fits_is_exact() {
        let mut b = PageBuilder::new(PAGE);
        // Fill with one pair taking most of the page.
        append(&mut b, sig(1), b"k", &[0u8; 400]);
        let free = b.free_bytes();
        let need = RECORD_PREFIX_LEN + 3 + SIG_ENTRY_LEN;
        assert!(b.fits(3, free - need));
        assert!(!b.fits(3, free - need + 1));
    }

    #[test]
    fn zero_length_value_and_empty_page() {
        let mut b = PageBuilder::new(PAGE);
        b.append_pair_with_frag(sig(9), b"tombstone", b"", 0, None, 0x01);
        let page = b.finish();
        let e = find_in_head(&page, PAGE, sig(9)).unwrap();
        assert_eq!((e.value_frag, e.body_len()), (&b""[..], 0));
        assert_eq!(e.flags, 0x01);

        let empty = PageBuilder::new(PAGE).finish();
        assert_eq!(decode_head(&empty, PAGE).unwrap().len(), 0);
    }

    #[test]
    fn duplicate_sig_latest_entry_wins() {
        // An in-page update appends a second entry with the same signature;
        // retrieval must return the newest one, from the open page and from
        // the page it seals alike.
        let mut b = PageBuilder::new(PAGE);
        append(&mut b, sig(5), b"k", b"old-value");
        append(&mut b, sig(5), b"k", b"new-value");
        let open = b.view().find_pair(sig(5)).unwrap();
        assert_eq!(open.value_frag, b"new-value");
        assert_eq!(b.view().newest(), [1]);
        let open = (open.key.to_vec(), open.extent(Ppa::new(0, 0), PAGE as u32));
        let page = b.finish();
        let e = find_in_head(&page, PAGE, sig(5)).unwrap();
        assert_eq!(e.value_frag, b"new-value");
        assert_eq!((e.key.to_vec(), e.extent(Ppa::new(0, 0), PAGE as u32)), open);
    }

    #[test]
    fn find_in_head_miss() {
        let mut b = PageBuilder::new(PAGE);
        append(&mut b, sig(1), b"k", b"v");
        assert!(b.view().find_pair(sig(2)).is_none());
        let page = b.finish();
        assert!(find_in_head(&page, PAGE, sig(2)).is_none());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode_head(&[], PAGE), None);
        // Claims 1000 pairs in a 512-byte page.
        let mut garbage = vec![0u8; PAGE];
        garbage[..2].copy_from_slice(&1000u16.to_le_bytes());
        assert_eq!(decode_head(&garbage, PAGE), None);
        // Claims one pair whose offset points into the info area.
        let mut bad = vec![0u8; PAGE];
        bad[..2].copy_from_slice(&1u16.to_le_bytes());
        let info = PAGE - SIG_ENTRY_LEN;
        bad[info + 8..info + 10].copy_from_slice(&(PAGE as u16 - 2).to_le_bytes());
        assert_eq!(decode_head(&bad, PAGE), None);
    }

    #[test]
    fn only_a_head_spare_makes_a_head_page() {
        let mut b = PageBuilder::new(PAGE);
        append(&mut b, sig(3), b"key", b"value");
        let page = b.finish();
        let head = HeadPage::programmed(&page, &SpareMeta::head_page().encode(), PAGE)
            .expect("a sealed page under a head spare");
        assert_eq!(head.find_pair(sig(3)).map(|p| p.value_frag), Some(&b"value"[..]));
        for spare in [
            SpareMeta::index_page().encode(),
            SpareMeta::cont_page(sig(3)).encode(),
            SpareMeta::directory_page().encode(),
            Bytes::from_static(&[9, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            Bytes::from_static(&[1, 7, 0, 0, 0, 0, 0, 0, 0, 0]),
            Bytes::from_static(&[1]),
            Bytes::new(),
        ] {
            assert!(HeadPage::programmed(&page, &spare, PAGE).is_none(), "spare {spare:?}");
        }
        // The header checks stay: a page longer than the page size, or
        // one whose pair count overruns it, is no head page.
        let head_spare = SpareMeta::head_page().encode();
        assert!(HeadPage::programmed(&[0u8; PAGE + 1], &head_spare, PAGE).is_none());
        let mut overrun = vec![0u8; PAGE];
        overrun[..2].copy_from_slice(&1000u16.to_le_bytes());
        assert!(HeadPage::programmed(&overrun, &head_spare, PAGE).is_none());
    }

    #[test]
    fn pair_slices_with_checks() {
        // A pair whose offset points into the info area passes the header
        // checks, but reading it yields `None`, not a panic.
        let mut bad = vec![0u8; PAGE];
        bad[..2].copy_from_slice(&1u16.to_le_bytes());
        let info = PAGE - SIG_ENTRY_LEN;
        bad[info + 8..info + 10].copy_from_slice(&(PAGE as u16 - 2).to_le_bytes());
        let head = HeadPage::programmed(&bad, &SpareMeta::head_page().encode(), PAGE)
            .expect("the header checks hold");
        assert_eq!(head.len(), 1);
        assert_eq!(head.pair(0), None);
        assert_eq!(head.pair(1), None, "out of range");
        assert_eq!(head.find_pair(KeySignature(0)), None);
    }

    #[test]
    fn a_body_without_an_extent_is_refused() {
        // A record whose value runs past its fragment but names no
        // continuation page reads as no pair, and its page does not parse.
        let mut b = PageBuilder::new(PAGE);
        b.append_pair_with_frag(sig(1), b"k", b"abcdef", 2, Some(Ppa::new(3, 5)), 0);
        let mut page = b.finish().to_vec();
        assert!(find_in_head(&page, PAGE, sig(1)).is_some());
        let cont = HEADER_LEN + 7;
        page[cont..cont + Ppa::PACKED_LEN].fill(0xff);
        let spare = SpareMeta::head_page().encode();
        assert_eq!(probe_head(&page, &spare, PAGE, sig(1)), None);
        assert!(HeadPage::parse(&page, PAGE).is_none());
    }

    #[test]
    fn spare_meta_roundtrip() {
        for meta in [
            SpareMeta::head_page(),
            SpareMeta::cont_page(sig(0xdead_beef_1234)),
            SpareMeta::index_page(),
            SpareMeta::directory_page(),
        ] {
            assert_eq!(SpareMeta::decode(&meta.encode()), Some(meta));
        }
        assert_eq!(SpareMeta::decode(&[9, 0, 0, 0, 0, 0, 0, 0, 0, 0]), None);
        assert_eq!(SpareMeta::decode(&[1]), None);
    }

    #[test]
    fn a_value_reads_consecutive_full_pages() {
        // Two 4-byte continuation pages at (3, 5) and (3, 6); the body is
        // 6 bytes, so only part of the second page belongs to the value.
        let mut b = PageBuilder::new(PAGE);
        b.append_pair_with_frag(sig(1), b"k", b"ab------", 2, Some(Ppa::new(3, 5)), 0);
        append(&mut b, sig(2), b"j", b"ab");
        let page = b.finish();
        let long = find_in_head(&page, PAGE, sig(1)).unwrap();
        let mut reads = Vec::new();
        let value = long.value().read_body::<()>(|ppa| {
            reads.push(ppa);
            Ok(Bytes::from(vec![b'0' + ppa.page as u8; 4]))
        });
        assert_eq!(value, Ok(Bytes::from_static(b"ab555566")));
        assert_eq!(reads, [Ppa::new(3, 5), Ppa::new(3, 6)]);
        // A failed read propagates.
        assert_eq!(long.value().read_body(|_| Err("fault")), Err("fault"));

        // No body: the fragment is the value, and no page is read.
        let short = find_in_head(&page, PAGE, sig(2)).unwrap();
        let value = short.value().read_body::<()>(|_| panic!("no page is due"));
        assert_eq!(value, Ok(Bytes::from_static(b"ab")));
    }
}
