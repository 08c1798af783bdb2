//! Garbage collection over the data and index logs (§IV-B).
//!
//! "To identify stale data, GC needs to scan the key signatures in each
//! flash page of a block, and check if the data is valid or stale by
//! querying the index. Stale data can then be discarded. Victim block
//! selection and merging operations can proceed according to existing GC
//! algorithms."
//!
//! Victims are picked greedily by stale bytes. Data-block cleaning reads
//! each head page's signature information area (Fig. 4) in place,
//! validates every signature against the installed index, relocates live
//! pairs through the normal data path in page order — so two runs of one
//! workload collect identically — and erases the block. Index-block
//! cleaning asks the index which of its pages are still live and
//! relocates those.

use std::sync::Arc;

use crate::alloc::Stream;
use crate::ftl::{Ftl, FtlError};
use crate::layout::{self, PageKind, SpareMeta};
use crate::traits::IndexBackend;
use rhik_nand::Ppa;

/// Victim-selection policy.
///
/// The paper adapts block-SSD GC ("victim block selection and merging
/// operations can proceed according to existing GC algorithms", §IV-B);
/// both classic policies are provided so their write-amplification
/// trade-off can be measured on KV workloads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GcPolicy {
    /// Most stale bytes first — maximal immediate reclaim.
    #[default]
    Greedy,
    /// Cost-benefit (Kawaguchi et al.): weigh reclaimable space against
    /// the relocation cost, `stale² / (live + stale)` — prefers blocks
    /// that are cheap to clean even if they hold less garbage.
    CostBenefit,
}

/// GC policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct GcConfig {
    /// Trigger GC when allocatable free blocks drop below this.
    pub low_watermark: u32,
    /// Collect until this many allocatable free blocks are available (or no
    /// victims remain).
    pub high_watermark: u32,
    /// How victims are ranked.
    pub policy: GcPolicy,
    /// Most victims one invocation may clean. Bounding it makes GC
    /// *incremental*: the watermark loop re-triggers on later commands,
    /// so collection debt is paid in slices. A sharded device sets this
    /// low — one huge collection otherwise lands on whichever shard
    /// holds the GC permit and its queue (clock) absorbs all of it.
    pub max_victims_per_run: u32,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            low_watermark: 2,
            high_watermark: 4,
            policy: GcPolicy::Greedy,
            max_victims_per_run: u32::MAX,
        }
    }
}

/// Score a block under `policy`; higher is a better victim.
fn score(meta: &crate::alloc::BlockMeta, policy: GcPolicy) -> u64 {
    match policy {
        GcPolicy::Greedy => meta.stale_bytes,
        GcPolicy::CostBenefit => meta
            .stale_bytes
            .saturating_mul(meta.stale_bytes)
            .checked_div(meta.live_bytes + meta.stale_bytes)
            .unwrap_or(0),
    }
}

/// What one GC invocation accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcReport {
    pub data_blocks_erased: u64,
    pub index_blocks_erased: u64,
    pub pairs_relocated: u64,
    pub index_pages_relocated: u64,
    pub pages_scanned: u64,
    pub bytes_relocated: u64,
    /// Stale pairs discarded without relocation.
    pub pairs_discarded: u64,
}

/// Whether GC should run now.
pub fn should_run(ftl: &Ftl, cfg: &GcConfig) -> bool {
    ftl.free_blocks() < cfg.low_watermark
}

/// Run garbage collection until the high watermark is met or victims run
/// out. Returns what was done; a report with zero erases means the device
/// is genuinely full of live data.
pub fn run<I: IndexBackend>(
    ftl: &mut Ftl,
    index: &mut I,
    cfg: &GcConfig,
) -> Result<GcReport, FtlError> {
    // At most one collector per flash pool at a time: concurrent shard
    // collectors could race a shared pool to zero blocks and strand each
    // other mid-relocation. A single-owner device's permit is uncontended.
    let pool = Arc::clone(ftl.alloc_ref().pool());
    let _permit = pool.gc_permit();
    let mut report = GcReport::default();
    ftl.note_gc_run();
    ftl.alloc_mut().set_gc_mode(true);
    // Media ops charged during the run attribute to the gc_step stage, not
    // to the command-level flash read/program stages.
    let scope = ftl.set_stage_scope(Some(rhik_telemetry::Stage::GcStep));
    let result = run_inner(ftl, index, cfg, &mut report);
    ftl.set_stage_scope(scope);
    ftl.alloc_mut().set_gc_mode(false);
    let telemetry = ftl.telemetry();
    if telemetry.is_enabled() {
        telemetry.counter_add("ftl_gc_runs", 1);
        telemetry.counter_add("ftl_gc_pairs_relocated", report.pairs_relocated);
        telemetry.counter_add(
            "ftl_gc_blocks_erased",
            report.data_blocks_erased + report.index_blocks_erased,
        );
    }
    result.map(|()| report)
}

fn run_inner<I: IndexBackend>(
    ftl: &mut Ftl,
    index: &mut I,
    cfg: &GcConfig,
    report: &mut GcReport,
) -> Result<(), FtlError> {
    // Progress guard: cleaning a mostly-live victim can consume as many
    // blocks (relocation targets) as erasing it frees. Two consecutive
    // iterations without net gain in the raw free pool mean GC is churning
    // write amplification for nothing — stop.
    let mut stagnant = 0;
    // Once a relocation aborts for lack of scratch, only erase-only
    // victims (no live bytes) are considered for the rest of the run —
    // every further relocation attempt would abort the same way and
    // each abort duplicates the victim's live data into fresh blocks.
    let mut reloc_ok = true;
    let mut victims_cleaned = 0u32;
    let block_bytes = ftl.geometry().pages_per_block as u64 * ftl.geometry().page_size as u64;
    // Scratch margin for a relocation beyond the victim's own live data:
    // index write-backs (record updates evicting dirty cached pages) and
    // a partially-filled open target block. Half the GC reserve scales
    // with how the device was provisioned (a 1-block reserve gets 0: the
    // abort path below keeps an underestimate safe).
    let margin = ftl.alloc_ref().gc_reserve() as u64 / 2;
    while ftl.free_blocks() < cfg.high_watermark && victims_cleaned < cfg.max_victims_per_run {
        let raw_before = ftl.alloc_ref().free_blocks_raw();
        // Best victim across all three streams, ranked by the policy.
        // Victims holding live data are skipped when the remaining raw
        // pool cannot plausibly cover their relocation targets plus
        // index write-backs: aborting mid-victim strands the pool at
        // zero with nothing erased, which is strictly worse than
        // collecting a staler block first.
        let victim = [Stream::Data, Stream::Extent, Stream::Index]
            .into_iter()
            .flat_map(|stream| {
                ftl.alloc_ref().victims(stream).into_iter().map(move |b| (b, stream))
            })
            .filter(|&(b, _)| {
                let live = ftl.alloc_ref().meta(b).live_bytes;
                live == 0 || (reloc_ok && raw_before as u64 >= live.div_ceil(block_bytes) + margin)
            })
            .max_by_key(|&(b, _)| score(ftl.alloc_ref().meta(b), cfg.policy));
        let Some(victim) = victim else { break };
        // A parked extent block must not be re-opened as a relocation
        // target while it is being collected.
        ftl.alloc_mut().quarantine(victim.0);

        let progressed = match victim {
            (block, Stream::Data) => clean_head_block(ftl, index, block, report).map(|()| true),
            // `false`: a body's head record is still buffering (extent),
            // or the index could not vouch for the block's live pages —
            // leave the victim alone and stop rather than lose data.
            (block, Stream::Extent) => clean_extent_block(ftl, index, block, report),
            (block, Stream::Index) => clean_index_block(ftl, index, block, report),
        };
        match progressed {
            Ok(true) => victims_cleaned += 1,
            Ok(false) => break,
            Err(FtlError::NeedsGc) => {
                // The relocation ran out of scratch and rolled back (the
                // victim was not erased; relocated copies were staled).
                // Fall back to erase-only victims; a second strike even
                // there means the pool is truly dry.
                if !reloc_ok {
                    break;
                }
                reloc_ok = false;
                continue;
            }
            Err(e) => return Err(e),
        }

        if ftl.alloc_ref().free_blocks_raw() <= raw_before {
            stagnant += 1;
            if stagnant >= 2 {
                break;
            }
        } else {
            stagnant = 0;
        }
    }
    Ok(())
}

/// Clean a head-stream block: read every head page's signature info
/// area, validate each pair against the index, relocate the live ones in
/// page order (reading their bodies from the extent partition), and erase.
fn clean_head_block<I: IndexBackend>(
    ftl: &mut Ftl,
    index: &mut I,
    block: u32,
    report: &mut GcReport,
) -> Result<(), FtlError> {
    // The write buffer's head page may sit in this block (a data block
    // seals when its last page is allocated, not programmed). Push it to
    // flash first so the scan below sees — and relocates — its pairs;
    // otherwise the erase would strand their index entries.
    ftl.evict_pending_head(block)?;
    let programmed = ftl.block_write_ptr(block);
    let page_size = ftl.geometry().page_size as usize;

    // Pass 1: collect live pairs in page order. Duplicate signatures
    // within a page (an in-page update) resolve to the newest entry; only
    // live pairs are copied out of the page.
    let mut live: Vec<(rhik_sigs::KeySignature, layout::PairEntry)> = Vec::new();
    for page in 0..programmed {
        let ppa = Ppa::new(block, page);
        let (data, spare) = ftl.read_data_page(ppa)?;
        report.pages_scanned += 1;
        let Some(meta) = SpareMeta::decode(&spare) else { continue };
        if meta.kind != PageKind::Head {
            continue;
        }
        let Some(head) = layout::HeadPage::parse(&data, page_size) else { continue };
        for i in head.newest() {
            let sig = head.sig(i);
            // A refused index write-back (`NeedsGc`) leaves the pair's
            // liveness unknown: the error leaves the victim uncollected.
            if index.lookup(ftl, sig)? == Some(ppa) {
                live.push((sig, head.entry(i)));
            } else {
                report.pairs_discarded += 1;
            }
        }
    }

    // Pass 2: relocate. The old body pages (extent partition) become
    // stale; the old head bytes vanish with the erase below.
    for (sig, entry) in live {
        let old = entry.extent(Ppa::new(block, 0), page_size as u32);
        relocate_pair(ftl, index, sig, &entry, report)?;
        if old.cont_start.is_some() {
            ftl.mark_stale(&old);
        }
    }

    ftl.erase_block(block)?;
    ftl.note_gc_erase();
    report.data_blocks_erased += 1;
    Ok(())
}

/// Clean an extent-stream block: each body page's spare names its owning
/// signature; the index + head page decide liveness. Live pairs are
/// relocated wholesale (their old head entries become stale in place).
///
/// Returns `false` (skip, stop GC) if any owning head record is still in
/// the DRAM write buffer — its extent cannot be rewritten consistently
/// until the buffer flushes.
fn clean_extent_block<I: IndexBackend>(
    ftl: &mut Ftl,
    index: &mut I,
    block: u32,
    report: &mut GcReport,
) -> Result<bool, FtlError> {
    let programmed = ftl.block_write_ptr(block);
    let page_size = ftl.geometry().page_size as usize;

    // Owning signatures of the body pages in this block.
    let mut sigs: Vec<rhik_sigs::KeySignature> = Vec::new();
    for page in 0..programmed {
        let (_, spare) = ftl.read_data_page(Ppa::new(block, page))?;
        report.pages_scanned += 1;
        if let Some(SpareMeta { kind: PageKind::Cont, sig: Some(sig) }) = SpareMeta::decode(&spare)
        {
            if !sigs.contains(&sig) {
                sigs.push(sig);
            }
        }
    }

    // Resolve each signature to its live pair; relocate the ones whose
    // current body actually lives in this block.
    let mut relocate: Vec<(rhik_sigs::KeySignature, Ppa, layout::PairEntry)> = Vec::new();
    for sig in sigs {
        if let Some(pending) = ftl.pending_extent(sig) {
            // The pair's live version is still buffering in DRAM.
            if pending.cont_start.map(|c| c.block) == Some(block) {
                return Ok(false); // its body is here: cannot collect yet
            }
            // Its body lives elsewhere: whatever this block holds for the
            // signature is a superseded version.
            report.pairs_discarded += 1;
            continue;
        }
        let Some(head) = index.lookup(ftl, sig)? else {
            report.pairs_discarded += 1;
            continue;
        };
        let (data, _) = ftl.read_data_page(head)?;
        let Some(entry) = layout::find_in_head(&data, page_size, sig) else {
            report.pairs_discarded += 1;
            continue;
        };
        match entry.cont_start {
            Some(c) if c.block == block => relocate.push((sig, head, entry)),
            _ => report.pairs_discarded += 1, // body superseded elsewhere
        }
    }

    for (sig, head, entry) in relocate {
        // The old head entry goes stale in its (still live) head block.
        let old = entry.extent(head, page_size as u32);
        relocate_pair(ftl, index, sig, &entry, report)?;
        ftl.mark_stale(&old);
    }

    ftl.erase_block(block)?;
    ftl.note_gc_erase();
    report.data_blocks_erased += 1;
    Ok(true)
}

/// Read a pair's full value and write it back through the normal store
/// path, repointing the index.
fn relocate_pair<I: IndexBackend>(
    ftl: &mut Ftl,
    index: &mut I,
    sig: rhik_sigs::KeySignature,
    entry: &layout::PairEntry,
    report: &mut GcReport,
) -> Result<(), FtlError> {
    let value = layout::assemble_value(
        &entry.value_frag,
        entry.body_len() as usize,
        entry.cont_start,
        |ppa| ftl.read_data_page(ppa).map(|(page, _)| page),
    )?
    .ok_or_else(|| {
        FtlError::Corrupt(
            "GC victim holds an overflowing pair without a continuation extent".into(),
        )
    })?;

    let extent = ftl.store_pair(sig, &entry.key, &value, entry.flags)?;
    if let Err(e) = index.insert(ftl, sig, extent.head) {
        // The index could not repoint (`NeedsGc`: the pool is exhausted
        // even for metadata). Abandon the new copy (it becomes stale
        // garbage) and abort before the victim is erased — the index
        // still points at the old, intact copy, so no data is lost.
        ftl.mark_stale(&extent);
        ftl.drop_pending(sig);
        return Err(e);
    }
    report.pairs_relocated += 1;
    ftl.note_gc_relocation(1);
    report.bytes_relocated += extent.bytes();
    Ok(())
}

/// Returns false when the block was skipped because the index could not
/// account for its live pages.
fn clean_index_block<I: IndexBackend>(
    ftl: &mut Ftl,
    index: &mut I,
    block: u32,
    report: &mut GcReport,
) -> Result<bool, FtlError> {
    let live_pages = index.live_index_pages_in(block);
    if live_pages.is_empty() && ftl.alloc_ref().meta(block).live_bytes > 0 {
        return Ok(false);
    }
    for (key, old) in live_pages {
        // An error (`NeedsGc`: pool exhausted mid-relocation) aborts
        // before the erase: pages already moved are re-pointed, the rest
        // stay live in this (uncollected) block. `None`: the page turned
        // out to be stale after all.
        if index.relocate_index_page(ftl, key, old)?.is_some() {
            report.index_pages_relocated += 1;
        }
    }
    ftl.erase_block(block)?;
    ftl.note_gc_erase();
    report.index_blocks_erased += 1;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftl::FtlConfig;
    use crate::traits::{IndexStats, InsertOutcome};
    use rhik_sigs::KeySignature;
    use std::collections::HashMap;

    /// A DRAM-only reference index for exercising GC in isolation.
    #[derive(Default)]
    struct MapIndex {
        map: HashMap<u64, Ppa>,
        stats: IndexStats,
        /// Fail every lookup as a refused index write-back would.
        refuse_lookups: bool,
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
            if self.refuse_lookups {
                return Err(FtlError::NeedsGc);
            }
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
            (self.map.len() * 16) as u64
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

    fn sig(n: u64) -> KeySignature {
        KeySignature(n)
    }

    /// Fill the device with pairs, update half of them (creating stale
    /// data), then verify GC reclaims blocks and preserves every live pair.
    #[test]
    fn gc_reclaims_and_preserves() {
        let mut ftl = Ftl::new(FtlConfig::tiny());
        let mut index = MapIndex::default();
        let mut extents = HashMap::new();

        // Fill until the pool runs low.
        let mut stored = Vec::new();
        for i in 0..1000u64 {
            match ftl.store_pair(sig(i), format!("key{i}").as_bytes(), &[i as u8; 120], 0) {
                Ok(e) => {
                    index.insert(&mut ftl, sig(i), e.head).unwrap();
                    extents.insert(i, e);
                    stored.push(i);
                }
                Err(FtlError::NeedsGc) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(stored.len() > 20);

        // Invalidate every other pair (as an update/delete would).
        let mut live_ids = Vec::new();
        for &i in &stored {
            if i % 2 == 0 {
                let e = extents[&i];
                ftl.mark_stale(&e);
                ftl.drop_pending(sig(i));
                index.remove(&mut ftl, sig(i)).unwrap();
            } else {
                live_ids.push(i);
            }
        }

        let free_before = ftl.free_blocks();
        let report = run(
            &mut ftl,
            &mut index,
            &GcConfig { low_watermark: 2, high_watermark: 4, ..Default::default() },
        )
        .unwrap();
        assert!(report.data_blocks_erased > 0, "report: {report:?}");
        assert!(report.pairs_discarded > 0);
        assert!(ftl.free_blocks() > free_before);

        // Every live pair is still reachable, with correct contents.
        for &i in &live_ids {
            let head = index.lookup(&mut ftl, sig(i)).unwrap().expect("live pair lost");
            if Some(head) == ftl.pending_head() {
                let (k, v) = ftl.pending_pair(sig(i)).expect("pending pair");
                assert_eq!(&k[..], format!("key{i}").as_bytes());
                // 120-byte values fit the head page whole.
                assert_eq!(&v[..], &[i as u8; 120][..]);
            } else {
                let (d, _) = ftl.read_data_page(head).unwrap();
                let e = layout::find_in_head(&d, 512, sig(i)).expect("entry in head page");
                assert_eq!(&e.key[..], format!("key{i}").as_bytes());
            }
        }
    }

    /// Regression: a data block seals when its *last page is allocated*,
    /// so the DRAM write buffer's head page can live inside a sealed,
    /// victim-eligible block. GC must push that page to flash (and
    /// relocate its pairs) instead of erasing it out from under the
    /// buffer — which used to strand index entries on the reserved page
    /// ("read of unwritten page") under sustained update load.
    #[test]
    fn gc_spares_the_buffered_head_page() {
        let mut ftl = Ftl::new(FtlConfig::tiny());
        let mut index = MapIndex::default();
        let mut extents = HashMap::new();

        // Store pairs until the buffered head page sits in a sealed block.
        let mut i = 0u64;
        loop {
            let e =
                ftl.store_pair(sig(i), format!("key{i}").as_bytes(), &[i as u8; 120], 0).unwrap();
            index.insert(&mut ftl, sig(i), e.head).unwrap();
            extents.insert(i, e);
            i += 1;
            if let Some(head) = ftl.pending_head() {
                if ftl.alloc_ref().meta(head.block).sealed {
                    break;
                }
            }
            assert!(i < 1000, "builder never landed in a sealed block");
        }
        let pending_head = ftl.pending_head().unwrap();

        // Make that block the juiciest victim: invalidate every pair
        // whose (flushed) head page lives there.
        let mut live = Vec::new();
        for (&id, e) in &extents {
            if e.head.block == pending_head.block && e.head != pending_head {
                ftl.mark_stale(e);
                index.remove(&mut ftl, sig(id)).unwrap();
            } else {
                live.push(id);
            }
        }

        let cfg = GcConfig { low_watermark: 8, high_watermark: 8, ..Default::default() };
        run(&mut ftl, &mut index, &cfg).unwrap();

        // The buffer (if still open) must have been moved off the erased
        // block, and every live pair — buffered ones included — must
        // still resolve and read back.
        if let Some(head) = ftl.pending_head() {
            assert!(
                !ftl.alloc_ref().meta(head.block).sealed
                    || ftl.block_write_ptr(head.block) <= head.page,
                "builder points into a collected block"
            );
        }
        ftl.flush_data_builder().unwrap();
        for id in live {
            let head = index.lookup(&mut ftl, sig(id)).unwrap().expect("live pair lost");
            let (d, _) = ftl.read_data_page(head).unwrap();
            let entry = layout::find_in_head(&d, 512, sig(id)).expect("entry in head page");
            assert_eq!(&entry.key[..], format!("key{id}").as_bytes());
        }
    }

    /// A validity lookup the index cannot answer (its cache needed a
    /// write-back the pool refused) must leave the victim alone: treating
    /// the pair as stale would erase live data.
    #[test]
    fn gc_keeps_pairs_whose_liveness_it_cannot_check() {
        let mut ftl = Ftl::new(FtlConfig::tiny());
        let mut index = MapIndex::default();
        let mut stored = Vec::new();
        for i in 0..1000u64 {
            match ftl.store_pair(sig(i), format!("key{i}").as_bytes(), &[i as u8; 120], 0) {
                Ok(e) => {
                    index.insert(&mut ftl, sig(i), e.head).unwrap();
                    stored.push((i, e));
                }
                Err(FtlError::NeedsGc) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        for (i, e) in &stored {
            if i % 2 == 0 {
                ftl.mark_stale(e);
                ftl.drop_pending(sig(*i));
                index.remove(&mut ftl, sig(*i)).unwrap();
            }
        }

        index.refuse_lookups = true;
        let cfg = GcConfig { low_watermark: 2, high_watermark: 4, ..Default::default() };
        let report = run(&mut ftl, &mut index, &cfg).unwrap();
        assert_eq!(report.pairs_discarded, 0, "{report:?}");
        index.refuse_lookups = false;

        for (i, _) in stored.iter().filter(|(i, _)| i % 2 == 1) {
            let head = index.lookup(&mut ftl, sig(*i)).unwrap().expect("still indexed");
            if Some(head) == ftl.pending_head() {
                continue;
            }
            let (d, _) = ftl.read_data_page(head).expect("a live pair's head page was erased");
            assert!(layout::find_in_head(&d, 512, sig(*i)).is_some(), "pair {i} lost");
        }
    }

    #[test]
    fn gc_on_clean_device_is_a_noop() {
        let mut ftl = Ftl::new(FtlConfig::tiny());
        let mut index = MapIndex::default();
        let report = run(&mut ftl, &mut index, &GcConfig::default()).unwrap();
        assert_eq!(report, GcReport { ..Default::default() });
    }

    #[test]
    fn gc_relocates_multi_page_values() {
        let mut ftl = Ftl::new(FtlConfig::tiny());
        let mut index = MapIndex::default();

        // One big live pair and one big stale pair sharing an extent block.
        let big = vec![0x42u8; 1200];
        let e1 = ftl.store_pair(sig(1), b"live", &big, 0).unwrap();
        index.insert(&mut ftl, sig(1), e1.head).unwrap();
        let e2 = ftl.store_pair(sig(2), b"stale", &big, 0).unwrap();
        ftl.mark_stale(&e2);
        ftl.drop_pending(sig(2));
        ftl.close_data_block().unwrap(); // seal both partitions for GC

        let report = run(
            &mut ftl,
            &mut index,
            &GcConfig { low_watermark: 8, high_watermark: 8, ..Default::default() },
        )
        .unwrap();
        assert!(report.pairs_relocated >= 1, "report: {report:?}");
        assert!(report.data_blocks_erased >= 1);

        // The live pair survives with intact contents.
        let head = index.lookup(&mut ftl, sig(1)).unwrap().expect("pair lost");
        if Some(head) == ftl.pending_head() {
            let e = ftl.pending_extent(sig(1)).unwrap();
            let frag = ftl.pending_pair(sig(1)).unwrap().1;
            assert_eq!(frag.len() as u64 + e.cont_bytes, big.len() as u64);
        } else {
            let (d, _) = ftl.read_data_page(head).unwrap();
            let entry = layout::find_in_head(&d, 512, sig(1)).unwrap();
            assert_eq!(entry.val_total_len as usize, big.len());
        }
        // The stale pair is gone.
        assert_eq!(index.lookup(&mut ftl, sig(2)).unwrap(), None);
    }

    #[test]
    fn cost_benefit_prefers_cheap_victims() {
        use crate::alloc::BlockMeta;
        // Block A: lots of garbage but also lots of live data to move.
        let a = BlockMeta {
            stream: None,
            live_bytes: 900,
            stale_bytes: 600,
            pages_used: 8,
            sealed: true,
        };
        // Block B: less garbage, but nearly free to clean.
        let b = BlockMeta {
            stream: None,
            live_bytes: 10,
            stale_bytes: 500,
            pages_used: 8,
            sealed: true,
        };
        assert!(score(&a, GcPolicy::Greedy) > score(&b, GcPolicy::Greedy));
        assert!(score(&b, GcPolicy::CostBenefit) > score(&a, GcPolicy::CostBenefit));
        // Empty block scores zero under both.
        let empty =
            BlockMeta { stream: None, live_bytes: 0, stale_bytes: 0, pages_used: 0, sealed: true };
        assert_eq!(score(&empty, GcPolicy::CostBenefit), 0);
    }

    #[test]
    fn both_policies_reclaim_and_preserve() {
        for policy in [GcPolicy::Greedy, GcPolicy::CostBenefit] {
            let mut ftl = Ftl::new(FtlConfig::tiny());
            let mut index = MapIndex::default();
            let mut stored = Vec::new();
            for i in 0..1000u64 {
                match ftl.store_pair(sig(i), format!("key{i}").as_bytes(), &[i as u8; 120], 0) {
                    Ok(e) => {
                        index.insert(&mut ftl, sig(i), e.head).unwrap();
                        stored.push((i, e));
                    }
                    Err(FtlError::NeedsGc) => break,
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            for (i, e) in &stored {
                if i % 3 == 0 {
                    ftl.mark_stale(e);
                    ftl.drop_pending(sig(*i));
                    index.remove(&mut ftl, sig(*i)).unwrap();
                }
            }
            let cfg =
                GcConfig { low_watermark: 2, high_watermark: 4, policy, ..Default::default() };
            let report = run(&mut ftl, &mut index, &cfg).unwrap();
            assert!(report.data_blocks_erased > 0, "{policy:?}: {report:?}");
            for (i, _) in &stored {
                if i % 3 != 0 {
                    assert!(
                        index.lookup(&mut ftl, sig(*i)).unwrap().is_some(),
                        "{policy:?} lost key {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn should_run_tracks_watermark() {
        let ftl = Ftl::new(FtlConfig::tiny());
        assert!(!should_run(
            &ftl,
            &GcConfig { low_watermark: 2, high_watermark: 4, ..Default::default() }
        ));
        assert!(should_run(
            &ftl,
            &GcConfig { low_watermark: 100, high_watermark: 100, ..Default::default() }
        ));
    }
}
