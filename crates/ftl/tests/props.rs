//! Property tests over the FTL: the Fig. 4 layout round-trips arbitrary
//! pairs, extents account bytes exactly, and GC never loses a live pair
//! under arbitrary store/stale interleavings.

use proptest::prelude::*;
use rhik_ftl::layout::{self, HeadPage, PageBuilder, SpareMeta};
use rhik_ftl::{gc, Ftl, FtlConfig, FtlError, GcConfig, IndexBackend, IndexStats, InsertOutcome};
use rhik_nand::{NandGeometry, Ppa};
use rhik_sigs::KeySignature;
use std::collections::HashMap;

fn mix(n: u64) -> KeySignature {
    let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    KeySignature(z ^ (z >> 31))
}

/// DRAM-only reference index (same as the one in the gc unit tests).
#[derive(Default)]
struct MapIndex {
    map: HashMap<u64, Ppa>,
    stats: IndexStats,
}

impl IndexBackend for MapIndex {
    fn insert(
        &mut self,
        _f: &mut Ftl,
        sig: KeySignature,
        ppa: Ppa,
    ) -> Result<InsertOutcome, FtlError> {
        match self.map.insert(sig.0, ppa) {
            Some(old) => Ok(InsertOutcome::Updated { old }),
            None => Ok(InsertOutcome::Inserted),
        }
    }
    fn lookup(&mut self, _f: &mut Ftl, sig: KeySignature) -> Result<Option<Ppa>, FtlError> {
        Ok(self.map.get(&sig.0).copied())
    }
    fn remove(&mut self, _f: &mut Ftl, sig: KeySignature) -> Result<Option<Ppa>, FtlError> {
        Ok(self.map.remove(&sig.0))
    }
    fn len(&self) -> u64 {
        self.map.len() as u64
    }
    fn capacity(&self) -> Option<u64> {
        None
    }
    fn dram_bytes(&self) -> u64 {
        0
    }
    fn stats(&self) -> &IndexStats {
        &self.stats
    }
    fn name(&self) -> &'static str {
        "map"
    }
    fn flush(&mut self, _f: &mut Ftl) -> Result<(), FtlError> {
        Ok(())
    }
}

fn ftl() -> Ftl {
    Ftl::new(FtlConfig {
        geometry: NandGeometry {
            blocks: 128,
            pages_per_block: 16,
            page_size: 512,
            spare_size: 16,
            channels: 2,
        },
        ..FtlConfig::tiny()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary pairs packed into a head page decode back identically.
    #[test]
    fn page_layout_roundtrip(
        pairs in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(any::<u8>(), 1..24),
             proptest::collection::vec(any::<u8>(), 0..120), any::<u8>()),
            1..12,
        )
    ) {
        let mut builder = PageBuilder::new(2048);
        let mut expected = Vec::new();
        for (sig_raw, key, value, flags) in pairs {
            if !builder.fits(key.len(), value.len()) {
                continue;
            }
            builder.append_pair(KeySignature(sig_raw), &key, &value, flags);
            expected.push((KeySignature(sig_raw), key, value, flags));
        }
        let page = builder.finish();
        prop_assert_eq!(page.len(), 2048);
        let decoded = layout::decode_head(&page, 2048).expect("well-formed page");
        prop_assert_eq!(decoded.len(), expected.len());
        for (entry, (sig, key, value, flags)) in decoded.iter().zip(&expected) {
            prop_assert_eq!(entry.sig, *sig);
            prop_assert_eq!(&entry.key[..], &key[..]);
            prop_assert_eq!(&entry.value_frag[..], &value[..]);
            prop_assert_eq!(entry.flags, *flags);
            prop_assert_eq!(entry.val_total_len as usize, value.len());
        }
    }

    /// `find_in_head` gives exactly the newest matching entry of
    /// `decode_head` — the same accept/reject rule and the same
    /// newest-wins order — on random pages, on pages where in-page updates
    /// repeat a signature, and on pages with corrupted or cut bytes.
    #[test]
    fn find_in_head_matches_decode_head(
        pairs in proptest::collection::vec(
            (0u64..5, proptest::collection::vec(any::<u8>(), 1..12),
             proptest::collection::vec(any::<u8>(), 0..160), any::<u8>()),
            0..14,
        ),
        flips in proptest::collection::vec((any::<bool>(), any::<u16>(), 1u8..=255), 0..4),
        cut in 0usize..3,
    ) {
        const PAGE: usize = 512;
        let mut builder = PageBuilder::new(PAGE);
        for (sig, key, value, flags) in &pairs {
            if builder.fits(key.len(), 0) {
                builder.append_pair(KeySignature(*sig), key, value, *flags);
            }
        }
        let mut page = builder.finish().to_vec();
        let pair_count = u16::from_le_bytes([page[0], page[1]]) as usize;
        for &(structural, pos, mask) in &flips {
            // Half the flips land in the header or the signature info
            // area, where they change how the page parses.
            let at = if structural {
                let area = 2 + pair_count * layout::SIG_ENTRY_LEN;
                let i = pos as usize % area;
                if i < 2 { i } else { PAGE - (i - 2) - 1 }
            } else {
                pos as usize % PAGE
            };
            page[at] ^= mask;
        }
        // Cut pages are shorter than the flash page (still accepted if
        // the info area fits); an over-long one is always rejected.
        let data: Vec<u8> = match cut {
            0 => page,
            1 => page[..PAGE - 1].to_vec(),
            _ => [page.as_slice(), &[0u8]].concat(),
        };
        let decoded = layout::decode_head(&data, PAGE);
        for sig in (0..6).map(KeySignature) {
            let newest = decoded.as_ref().and_then(|es| es.iter().rev().find(|e| e.sig == sig));
            let found = layout::find_in_head(&data, PAGE, sig);
            prop_assert_eq!(found.as_ref(), newest);
        }
        if let Some(head) = layout::HeadPage::parse(&data, PAGE) {
            let decoded = decoded.expect("parse and decode_head agree on acceptance");
            let newest: Vec<usize> = (0..decoded.len())
                .filter(|&i| decoded[i + 1..].iter().all(|e| e.sig != decoded[i].sig))
                .collect();
            prop_assert_eq!(head.newest(), newest);
        } else {
            prop_assert!(decoded.is_none());
        }
    }

    /// The reader probe — a page taken as a head page by its spare tag,
    /// then one pair borrowed — returns what `find_in_head` returns for
    /// every signature on any page `PageBuilder` seals: random pairs,
    /// signatures repeated by in-page updates, and fragments whose value
    /// continues in an extent; and `None` for signatures not on the page.
    #[test]
    fn reader_probe_matches_find_in_head(
        pairs in proptest::collection::vec(
            (0u64..6, proptest::collection::vec(any::<u8>(), 1..12),
             proptest::collection::vec(any::<u8>(), 0..300), 0usize..300,
             (0u32..64, 0u32..16), any::<u8>()),
            0..16,
        ),
    ) {
        const PAGE: usize = 512;
        let mut builder = PageBuilder::new(PAGE);
        for (sig, key, value, frag, (block, page), flags) in &pairs {
            // A fragment shorter than the value continues in an extent.
            let frag = (*frag).min(value.len());
            let cont = (frag < value.len()).then(|| Ppa::new(*block, *page));
            if builder.fits(key.len(), frag) {
                builder.append_pair_with_frag(KeySignature(*sig), key, value, frag, cont, *flags);
            }
        }
        let page = builder.finish();
        let spare = SpareMeta::head_page().encode();
        for sig in (0..8).map(KeySignature) {
            let probed = layout::probe_head(&page, &spare, PAGE, sig);
            let found = layout::find_in_head(&page, PAGE, sig);
            prop_assert_eq!(probed.map(|p| p.to_entry()), found.clone());
            if let (Some(probed), Some(found)) = (probed, found) {
                prop_assert_eq!(probed.body_len(), found.body_len());
                prop_assert_eq!(probed.extent(Ppa::new(1, 2), 512), found.extent(Ppa::new(1, 2), 512));
            }
        }
    }

    /// store_pair round-trips arbitrary key/value sizes through the write
    /// buffer, head pages, and the extent partition.
    #[test]
    fn store_pair_roundtrip(
        sizes in proptest::collection::vec((1usize..40, 0usize..3000), 1..40)
    ) {
        let mut f = ftl();
        let mut stored = Vec::new();
        for (i, (klen, vlen)) in sizes.into_iter().enumerate() {
            let sig = mix(i as u64);
            let key = vec![b'a' + (i % 26) as u8; klen];
            let value: Vec<u8> = (0..vlen).map(|j| (i + j) as u8).collect();
            match f.store_pair(sig, &key, &value, 0) {
                Ok(extent) => {
                    // Byte accounting: head + body equals the full footprint.
                    prop_assert_eq!(
                        extent.bytes(),
                        (layout::RECORD_PREFIX_LEN + key.len() + layout::SIG_ENTRY_LEN + value.len()) as u64
                    );
                    stored.push((sig, key, value, extent));
                }
                Err(FtlError::NeedsGc) => break,
                Err(e) => prop_assert!(false, "store failed: {e}"),
            }
        }
        f.flush_data_builder().unwrap();

        for (sig, key, value, extent) in stored {
            let (data, _) = f.read_data_page(extent.head).unwrap();
            let entry = layout::find_in_head(&data, 512, sig).expect("entry present");
            prop_assert_eq!(&entry.key[..], &key[..]);
            prop_assert_eq!(entry.val_total_len as usize, value.len());
            // Reassemble the body.
            let mut got = entry.value_frag.to_vec();
            if let Some(start) = entry.cont_start {
                let mut remaining = (entry.val_total_len - entry.frag_len) as usize;
                let mut i = 0;
                while remaining > 0 {
                    let (cd, _) = f.read_data_page(Ppa::new(start.block, start.page + i)).unwrap();
                    let take = remaining.min(cd.len());
                    got.extend_from_slice(&cd[..take]);
                    remaining -= take;
                    i += 1;
                }
            }
            prop_assert_eq!(got, value);
        }
    }

    /// Under arbitrary store/stale interleavings + GC, every live pair
    /// remains reachable with intact bytes and the free pool recovers.
    #[test]
    fn gc_preserves_live_pairs(
        ops in proptest::collection::vec((any::<u8>(), 1usize..900, any::<bool>()), 20..120)
    ) {
        let mut f = ftl();
        let mut index = MapIndex::default();
        let mut live: HashMap<u64, (Vec<u8>, rhik_ftl::WrittenExtent)> = HashMap::new();

        for (i, (key_id, vlen, delete_after)) in ops.into_iter().enumerate() {
            let sig = mix(key_id as u64);
            let key = format!("k{key_id:03}").into_bytes();
            let value: Vec<u8> = (0..vlen).map(|j| (key_id as usize + j) as u8).collect();

            // Retire any previous version first (device semantics).
            if let Some((_, old)) = live.remove(&sig.0) {
                f.mark_stale(&old);
                f.drop_pending(sig);
                index.remove(&mut f, sig).unwrap();
            }
            let extent = match f.store_pair(sig, &key, &value, 0) {
                Ok(e) => e,
                Err(FtlError::NeedsGc) => {
                    let report = gc::run(&mut f, &mut index, &GcConfig::default()).unwrap();
                    if report.data_blocks_erased == 0 {
                        break; // genuinely full of live data
                    }
                    match f.store_pair(sig, &key, &value, 0) {
                        Ok(e) => e,
                        Err(FtlError::NeedsGc) => break,
                        Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
                    }
                }
                Err(e) => return Err(TestCaseError::fail(format!("{e}"))),
            };
            index.insert(&mut f, sig, extent.head).unwrap();
            if delete_after && i % 3 == 0 {
                f.mark_stale(&extent);
                f.drop_pending(sig);
                index.remove(&mut f, sig).unwrap();
            } else {
                live.insert(sig.0, (value, extent));
            }
        }

        // Force a GC pass, then audit every live pair. GC may relocate, so
        // consult the index for current heads.
        let _ = gc::run(&mut f, &mut index, &GcConfig { low_watermark: 64, high_watermark: 64, ..Default::default() });
        for (&raw, (value, _)) in &live {
            let sig = KeySignature(raw);
            let head = index.lookup(&mut f, sig).unwrap();
            let head = head.expect("live pair lost by GC");
            let (entry_value, found) = if Some(head) == f.pending_head() {
                let frag = f.pending_pair(sig).expect("pending").1.to_vec();
                let ext = f.pending_extent(sig).expect("pending extent");
                let mut got = frag;
                if let Some(start) = ext.cont_start {
                    let mut remaining = ext.cont_bytes as usize;
                    let mut i = 0;
                    while remaining > 0 {
                        let (cd, _) = f.read_data_page(Ppa::new(start.block, start.page + i)).unwrap();
                        let take = remaining.min(cd.len());
                        got.extend_from_slice(&cd[..take]);
                        remaining -= take;
                        i += 1;
                    }
                }
                (got, true)
            } else {
                let (data, _) = f.read_data_page(head).unwrap();
                match layout::find_in_head(&data, 512, sig) {
                    Some(entry) => {
                        let mut got = entry.value_frag.to_vec();
                        if let Some(start) = entry.cont_start {
                            let mut remaining = (entry.val_total_len - entry.frag_len) as usize;
                            let mut i = 0;
                            while remaining > 0 {
                                let (cd, _) = f.read_data_page(Ppa::new(start.block, start.page + i)).unwrap();
                                let take = remaining.min(cd.len());
                                got.extend_from_slice(&cd[..take]);
                                remaining -= take;
                                i += 1;
                            }
                        }
                        (got, true)
                    }
                    None => (Vec::new(), false),
                }
            };
            prop_assert!(found, "entry vanished from head page");
            prop_assert_eq!(&entry_value, value);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Under a `Head` spare the reader probe answers on arbitrary bytes
    /// without panicking — sealed pages with flipped bytes, cut or
    /// extended — and a page it takes is one `HeadPage::parse` accepts
    /// exactly when every pair reads back.
    #[test]
    fn reader_probe_never_panics(
        pairs in proptest::collection::vec(
            (0u64..4, proptest::collection::vec(any::<u8>(), 1..12),
             proptest::collection::vec(any::<u8>(), 0..160)),
            0..14,
        ),
        flips in proptest::collection::vec((any::<bool>(), any::<u16>(), 1u8..=255), 0..8),
        len in 0usize..520,
    ) {
        const PAGE: usize = 512;
        let mut builder = PageBuilder::new(PAGE);
        for (sig, key, value) in &pairs {
            if builder.fits(key.len(), 0) {
                builder.append_pair(KeySignature(*sig), key, value, 0);
            }
        }
        let mut data = builder.finish().to_vec();
        let pair_count = u16::from_le_bytes([data[0], data[1]]) as usize;
        for &(structural, pos, mask) in &flips {
            // Half the flips land in the header or the info area.
            let at = if structural {
                let area = 2 + pair_count * layout::SIG_ENTRY_LEN;
                let i = pos as usize % area;
                if i < 2 { i } else { PAGE - (i - 2) - 1 }
            } else {
                pos as usize % PAGE
            };
            data[at] ^= mask;
        }
        data.resize(len, 0xA5);
        let spare = SpareMeta::head_page().encode();
        let Some(head) = HeadPage::programmed(&data, &spare, PAGE) else {
            prop_assert!(HeadPage::parse(&data, PAGE).is_none());
            return Ok(());
        };
        let readable = (0..head.len()).filter(|&i| head.pair(i).is_some()).count();
        prop_assert!(head.pair(head.len()).is_none());
        prop_assert_eq!(HeadPage::parse(&data, PAGE).is_some(), readable == head.len());
        for sig in (0..5).map(KeySignature) {
            let _ = head.find_pair(sig);
        }
        let _ = head.newest();
    }
}
