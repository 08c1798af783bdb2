//! The firmware context: flash + allocator + cache + log writers.

use std::sync::Arc;

use bytes::Bytes;
use rhik_nand::{DeviceProfile, NandArray, NandGeometry, NandOp, PageData, Ppa};
use rhik_sigs::{KeySignature, SigMap};
use rhik_telemetry::{Stage, StageEvent};

use crate::alloc::{BlockAllocator, Stream};
use crate::cache::IndexPageCache;
use crate::layout::{
    self, HeadPage, PageBuilder, Pair, SpareMeta, Value, RECORD_PREFIX_LEN, SIG_ENTRY_LEN,
};
use crate::sync::{FlashPool, Mutex, MutexGuard};
use crate::traits::TimedOp;

/// The one firmware error type, from the block allocator up through the
/// index. `NeedsGc` is the out-of-space signal every layer raises alike;
/// the device answers it by collecting and retrying.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FtlError {
    /// The free pool cannot take the write (data, metadata, or an
    /// imminent resize); the device must garbage-collect and retry.
    NeedsGc,
    /// Hopscotch displacement could not find a slot within the hop range —
    /// the paper's "uncorrectable error is returned and the operation is
    /// aborted" (§IV-A1). The application must pick a new key.
    TableFull { table: u64 },
    /// The index's fixed capacity is exhausted (NVMKV-style baseline; RHIK
    /// resizes instead and never returns this).
    CapacityExhausted,
    /// Value cannot fit one erase block's extent (physical packing limit;
    /// the index-induced limit of NVMKV is gone, §IV-A5, but extents stay
    /// within an erase block).
    ValueTooLarge { len: usize, max: usize },
    /// Key alone cannot fit a page.
    KeyTooLarge { len: usize },
    /// The installed index does not implement this optional operation.
    Unsupported(&'static str),
    /// Media error.
    Flash(rhik_nand::NandError),
    /// A cross-layer invariant broke mid-operation (e.g. GC met a record
    /// the index cannot re-point). Surfaced as a typed error instead of a
    /// panic so firmware paths stay panic-free; the audit layer is the
    /// tool for localizing which layer disagrees.
    Corrupt(String),
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::NeedsGc => write!(f, "free pool exhausted; GC required"),
            FtlError::TableFull { table } => {
                write!(f, "record-layer table {table} full within hop range")
            }
            FtlError::CapacityExhausted => write!(f, "index capacity exhausted"),
            FtlError::ValueTooLarge { len, max } => {
                write!(f, "value of {len} B exceeds extent limit of {max} B")
            }
            FtlError::KeyTooLarge { len } => write!(f, "key of {len} B cannot fit a flash page"),
            FtlError::Unsupported(op) => write!(f, "operation {op} not supported by this index"),
            FtlError::Flash(e) => write!(f, "flash error: {e}"),
            FtlError::Corrupt(detail) => write!(f, "cross-layer invariant broken: {detail}"),
        }
    }
}

impl std::error::Error for FtlError {}

impl From<rhik_nand::NandError> for FtlError {
    fn from(e: rhik_nand::NandError) -> Self {
        FtlError::Flash(e)
    }
}

/// A head page as a reader holds it ([`Ftl::read_head`]): a sealed page
/// read off flash with its spare, or (`None`) the write buffer's open page.
pub struct HeadRead(Option<(Bytes, Bytes)>);

/// Where a stored KV pair landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WrittenExtent {
    /// Head page carrying the pair record and signature entry — this is the
    /// address the index stores (§IV-A5: "the index only stores the
    /// starting address of the KV pair on flash").
    pub head: Ppa,
    /// First page of the value body in the extent partition, if the value
    /// overflowed the head page.
    pub cont_start: Option<Ppa>,
    /// Whole continuation pages holding the value body.
    pub cont_pages: u32,
    /// Bytes charged to the head page (record prefix + key + fragment +
    /// signature entry).
    pub head_bytes: u64,
    /// Bytes charged to the extent partition.
    pub cont_bytes: u64,
}

impl WrittenExtent {
    /// Total on-flash footprint.
    pub fn bytes(&self) -> u64 {
        self.head_bytes + self.cont_bytes
    }
}

/// FTL configuration.
#[derive(Clone, Copy, Debug)]
pub struct FtlConfig {
    pub geometry: NandGeometry,
    pub profile: DeviceProfile,
    /// SSD DRAM budget for the index page cache (Fig. 5: 10 MB).
    pub cache_budget_bytes: usize,
    /// Blocks withheld for GC relocation.
    pub gc_reserve_blocks: u32,
}

impl FtlConfig {
    /// Small defaults for unit tests.
    pub fn tiny() -> Self {
        FtlConfig {
            geometry: NandGeometry::tiny(),
            profile: DeviceProfile::instant(),
            cache_budget_bytes: 4 * 1024,
            gc_reserve_blocks: 1,
        }
    }

    /// Paper-like device: 32 KiB pages × 256/block, given capacity & cache.
    pub fn paper(capacity_bytes: u64, cache_budget_bytes: usize) -> Self {
        FtlConfig {
            geometry: NandGeometry::paper_default(capacity_bytes),
            profile: DeviceProfile::kvemu_like(),
            cache_budget_bytes,
            gc_reserve_blocks: 4,
        }
    }
}

/// Cumulative FTL counters, split by traffic class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FtlStats {
    pub data_page_reads: u64,
    pub data_page_programs: u64,
    pub index_page_reads: u64,
    pub index_page_programs: u64,
    pub block_erases: u64,
    /// Pairs currently buffered in the open head page (DRAM write buffer).
    pub pending_pairs: u64,
    pub gc_runs: u64,
    pub gc_relocated_pairs: u64,
    pub gc_erased_blocks: u64,
}

/// The firmware context every index implementation and the device share.
pub struct Ftl {
    /// The physical media behind the *media lock* — the one narrow
    /// critical section the lock-free read path shares with the command
    /// path. Everything else in the FTL stays single-owner. See
    /// [`Ftl::media_reader`].
    nand: Arc<Mutex<NandArray>>,
    /// Cached from construction so geometry queries never take the media
    /// lock (geometry is immutable after `NandArray::new`).
    geometry: NandGeometry,
    profile: DeviceProfile,
    alloc: BlockAllocator,
    cache: IndexPageCache,
    stats: FtlStats,
    timed_ops: Vec<TimedOp>,
    /// Whether charged media ops are logged as stage events (a tracing
    /// sink is installed on the device).
    log_stages: bool,
    /// Stage events accumulated since the last drain, tagged on the same
    /// cadence as `timed_ops`; the device attaches them to the op span it
    /// is building. Empty while `log_stages` is off.
    stage_log: Vec<StageEvent>,
    /// When set, media ops charged are attributed to this stage instead of
    /// the plain flash-read/program stages (GC runs, resize batches).
    stage_scope: Option<Stage>,

    /// Open head page being packed (DRAM write buffer).
    data_builder: Option<(Ppa, PageBuilder)>,
    /// The last sealed page's builder, emptied, for the next open page to
    /// reuse: a fresh page-sized buffer per sealed page let the allocator
    /// trim the heap after GC erases and fault it back in on later puts.
    spare_builder: Option<PageBuilder>,
    /// Pairs whose head record is still buffering, readable before the
    /// flush: each live signature's entry in the open page, read through
    /// [`PageBuilder::view`] (bodies are already on flash). A signature
    /// dropped from the write buffer reads absent until the page seals.
    pending: SigMap<KeySignature, usize>,
}

impl Ftl {
    /// A single-owner FTL: erase blocks come from a flash pool of its own,
    /// withholding `config.gc_reserve_blocks` for GC.
    pub fn new(config: FtlConfig) -> Self {
        let pool = FlashPool::new(config.geometry, config.gc_reserve_blocks);
        Self::with_pool(config, Arc::new(pool))
    }

    /// An FTL whose erase blocks are leased from `pool` (see
    /// [`crate::sync::FlashPool`]). A sharded device hands every shard's
    /// FTL the same pool, so they coexist without over-committing
    /// capacity. `config.gc_reserve_blocks` is ignored — the reserve is
    /// the pool's.
    pub fn with_pool(config: FtlConfig, pool: Arc<FlashPool>) -> Self {
        config.geometry.validate().expect("invalid geometry");
        Ftl {
            nand: Arc::new(Mutex::new(NandArray::new(config.geometry))),
            geometry: config.geometry,
            profile: config.profile,
            alloc: BlockAllocator::with_pool(config.geometry, pool),
            cache: IndexPageCache::new(config.cache_budget_bytes),
            stats: FtlStats::default(),
            timed_ops: Vec::new(), // bounded-by: device drains it every op (drain_timed_ops)
            log_stages: false,
            stage_log: Vec::new(), // bounded-by: device drains it every op (drain_stage_log)
            stage_scope: None,
            data_builder: None,
            spare_builder: None,
            // bounded-by: cleared when the head page programs; holds at
            // most one index page's worth of staged pairs.
            pending: SigMap::default(),
        }
    }

    /// The media lock. Held only for single NAND operations — never
    /// across allocator, cache or builder work — so the lock-free read
    /// path contends with the command path one page at a time.
    fn nand_guard(&self) -> MutexGuard<'_, NandArray> {
        // A panic cannot leave the array mid-operation inconsistent; its
        // per-call state changes are atomic wrt. the guard.
        self.nand.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// A cloneable handle for reading record pages directly off the media
    /// lock, bypassing the FTL front-end entirely — the lock-free get
    /// path's only way to touch flash. Reads through it are charged to
    /// the NAND array's counters but not to this FTL's op log; callers
    /// account simulated time via [`MediaReader::page_read_ns`].
    pub fn media_reader(&self) -> MediaReader {
        let read = NandOp::Read { ppa: Ppa::new(0, 0), bytes: self.geometry.page_size };
        MediaReader {
            nand: Arc::clone(&self.nand),
            geometry: self.geometry,
            page_read_ns: self.profile.latency.duration_ns(&read),
        }
    }

    /// Turn stage logging on or off: while on, the FTL tags every charged
    /// media op with the stage it serves (the device's span tracer).
    pub fn set_stage_log(&mut self, on: bool) {
        self.log_stages = on;
        self.stage_log.clear();
    }

    /// Attribute subsequently charged media ops to `scope` (GC run, resize
    /// migration batch) instead of the raw flash stages. Returns the
    /// previous scope so nested callers can restore it.
    pub fn set_stage_scope(&mut self, scope: Option<Stage>) -> Option<Stage> {
        std::mem::replace(&mut self.stage_scope, scope)
    }

    /// Append a stage event that does not correspond to a media op (e.g.
    /// a DRAM directory walk). No-op while stage logging is off.
    pub fn note_stage(&mut self, stage: Stage, dur_ns: u64) {
        if self.log_stages {
            self.stage_log.push(StageEvent { stage, count: 1, dur_ns });
        }
    }

    /// Take the stage events accumulated since the last drain — the device
    /// attaches them to the span of the command it just executed.
    pub fn drain_stage_log(&mut self) -> Vec<StageEvent> {
        std::mem::take(&mut self.stage_log)
    }

    #[inline]
    pub fn geometry(&self) -> &NandGeometry {
        &self.geometry
    }

    #[inline]
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    #[inline]
    pub fn stats(&self) -> FtlStats {
        let mut s = self.stats;
        s.pending_pairs = self.pending.len() as u64;
        s
    }

    #[inline]
    pub fn nand_stats(&self) -> rhik_nand::NandStats {
        self.nand_guard().stats()
    }

    /// The shared index-page cache (Fig. 5's "SSD DRAM cache budget").
    #[inline]
    pub fn cache(&mut self) -> &mut IndexPageCache {
        &mut self.cache
    }

    #[inline]
    pub fn cache_ref(&self) -> &IndexPageCache {
        &self.cache
    }

    /// Fault-injection handle (tests). Holds the media lock while the
    /// guard is alive.
    pub fn faults_mut(&mut self) -> FaultsGuard<'_> {
        FaultsGuard(self.nand_guard())
    }

    /// Allocator introspection for GC policy decisions.
    pub fn free_blocks(&self) -> u32 {
        self.alloc.free_blocks()
    }

    /// Free blocks including the GC reserve (diagnostics).
    pub fn free_blocks_raw(&self) -> u32 {
        self.alloc.free_blocks_raw()
    }

    pub(crate) fn alloc_mut(&mut self) -> &mut BlockAllocator {
        &mut self.alloc
    }

    pub(crate) fn alloc_ref(&self) -> &BlockAllocator {
        &self.alloc
    }

    /// Largest value an extent can carry: a full erase block of body pages
    /// plus the head fragment.
    pub fn max_value_bytes(&self) -> usize {
        self.geometry().block_bytes() as usize
    }

    /// Fraction of raw capacity holding live payload.
    pub fn utilization(&self) -> f64 {
        self.alloc.total_live_bytes() as f64 / self.geometry().capacity_bytes() as f64
    }

    pub fn total_live_bytes(&self) -> u64 {
        self.alloc.total_live_bytes()
    }

    pub fn total_stale_bytes(&self) -> u64 {
        self.alloc.total_stale_bytes()
    }

    /// Wear summary across all blocks: (min, max, mean) erase counts.
    pub fn wear_stats(&self) -> (u64, u64, f64) {
        let blocks = self.geometry().blocks;
        let mut min = u64::MAX;
        let mut max = 0u64;
        let mut sum = 0u64;
        let nand = self.nand_guard();
        for b in 0..blocks {
            let e = nand.erase_count(b).expect("in range");
            min = min.min(e);
            max = max.max(e);
            sum += e;
        }
        (min, max, sum as f64 / blocks as f64)
    }

    /// Drain the flash ops performed since the last drain, with their media
    /// durations — consumed by the sync/async timing engines. The log
    /// keeps its buffer for the next command.
    pub fn drain_timed_ops(&mut self) -> std::vec::Drain<'_, TimedOp> {
        self.timed_ops.drain(..)
    }

    fn charge(&mut self, op: NandOp) {
        let geometry = self.geometry;
        let duration_ns = self.profile.latency.duration_ns(&op);
        self.timed_ops.push(TimedOp { channel: op.channel(&geometry), duration_ns });
        if self.log_stages {
            let stage = self.stage_scope.unwrap_or(match op {
                NandOp::Read { .. } => Stage::FlashRead,
                NandOp::Program { .. } => Stage::FlashProgram,
                // Erases happen only under GC.
                NandOp::Erase { .. } => Stage::GcStep,
            });
            self.stage_log.push(StageEvent { stage, count: 1, dur_ns: duration_ns });
        }
    }

    fn program(
        &mut self,
        ppa: Ppa,
        data: PageData,
        spare: SpareMeta,
        is_index: bool,
    ) -> Result<(), FtlError> {
        let bytes = data.len() as u32;
        self.nand_guard().program(ppa, data, spare.encode())?;
        self.charge(NandOp::Program { ppa, bytes });
        if is_index {
            self.stats.index_page_programs += 1;
        } else {
            self.stats.data_page_programs += 1;
        }
        Ok(())
    }

    // ---------------------------------------------------------------- data

    /// Store one KV pair (§IV-A5 extent packing over partitioned storage).
    ///
    /// The value's page-aligned body is written immediately as full pages
    /// in the extent partition; the residue rides in the head page beside
    /// the record, which stays DRAM-buffered (like real device write
    /// buffers) until it fills.
    pub fn store_pair(
        &mut self,
        sig: KeySignature,
        key: &[u8],
        value: &[u8],
        flags: u8,
    ) -> Result<WrittenExtent, FtlError> {
        let page = self.geometry().page_size as usize;
        let overhead = RECORD_PREFIX_LEN + key.len() + SIG_ENTRY_LEN;
        if crate::layout::HEADER_LEN + overhead > page {
            return Err(FtlError::KeyTooLarge { len: key.len() });
        }
        if value.len() > self.max_value_bytes() {
            return Err(FtlError::ValueTooLarge { len: value.len(), max: self.max_value_bytes() });
        }

        // Split: residue in the head page, whole pages in the extent
        // partition. If the residue doesn't fit beside the key in a fresh
        // page, fold it into one extra (padded) body page.
        let mut frag = value.len() % page;
        let fresh_room = page - crate::layout::HEADER_LEN - overhead;
        let mut cont_pages = (value.len() - frag) / page;
        if frag > fresh_room {
            cont_pages += 1;
            frag = 0;
        }
        let body_bytes = value.len() - frag;
        debug_assert!(
            cont_pages * page >= body_bytes,
            "continuation pages must cover the value body past the head fragment"
        );

        // Write the body first: its pages live in a different partition, so
        // ordering never conflicts with the buffered head page.
        let mut cont_start = None;
        if cont_pages > 0 {
            self.alloc.open_extent_block_with_room(cont_pages as u32, false)?;
            let mut body = &value[frag..];
            for i in 0..cont_pages {
                let take = body.len().min(page);
                let ppa = self.alloc.next_page(Stream::Extent, false)?;
                if i == 0 {
                    cont_start = Some(ppa);
                } else {
                    debug_assert_eq!(
                        ppa.block,
                        cont_start.expect("set on first page").block,
                        "extent escaped its block"
                    );
                }
                // The head page is still buffering, so its PPA is unknown;
                // GC resolves body ownership through head-page signature
                // info areas, not the spare back-pointer.
                self.program(
                    ppa,
                    Bytes::copy_from_slice(&body[..take]).into(),
                    SpareMeta::cont_page(sig),
                    false,
                )?;
                body = &body[take..];
            }
            self.alloc.meta_mut(cont_start.expect("cont_pages > 0").block).live_bytes +=
                body_bytes as u64;
        }

        // Stage the head record. If the head page cannot be allocated, the
        // body pages just written would be orphaned — mark them stale so GC
        // can reclaim them before propagating the error.
        if let Err(e) = self.ensure_head_room(key.len(), frag) {
            if let Some(cont) = cont_start {
                self.alloc.mark_stale(cont.block, body_bytes as u64);
            }
            return Err(e);
        }
        let (head, builder) = self.data_builder.as_mut().expect("ensured above");
        let head = *head;
        builder.append_pair_with_frag(sig, key, value, frag, cont_start, flags);
        self.pending.insert(sig, builder.pair_count() as usize - 1);
        let head_bytes = (overhead + frag) as u64;
        self.alloc.meta_mut(head.block).live_bytes += head_bytes;
        let extent = WrittenExtent {
            head,
            cont_start,
            cont_pages: cont_pages as u32,
            head_bytes,
            cont_bytes: body_bytes as u64,
        };
        if !self.data_builder.as_ref().expect("still staged").1.fits(0, 0) {
            // Page effectively full: flush eagerly so space is visible.
            self.flush_data_builder()?;
        }

        Ok(extent)
    }

    /// Guarantee the head-page builder can accept a record of `key_len`
    /// with a `frag`-byte value fragment.
    fn ensure_head_room(&mut self, key_len: usize, frag: usize) -> Result<(), FtlError> {
        let page = self.geometry().page_size as usize;
        if let Some((_, b)) = &self.data_builder {
            if b.fits(key_len, frag) {
                return Ok(());
            }
            self.flush_data_builder()?;
        }
        if self.data_builder.is_none() {
            let ppa = self.alloc.next_page(Stream::Data, false)?;
            let builder = self.spare_builder.take().unwrap_or_else(|| PageBuilder::new(page));
            self.data_builder = Some((ppa, builder));
        }
        Ok(())
    }

    /// Program the open head page (if any) and clear the pending map.
    ///
    /// This is the only place head pages are programmed, and each is
    /// checked with [`HeadPage::parse`] first; a page that fails is not
    /// programmed. So every `Head`-tagged page on flash is well formed
    /// (NAND pages do not change until erased, a failed program stores
    /// nothing, and power loss drops the unsealed builder), and readers
    /// take it as one by its spare tag ([`HeadPage::programmed`]).
    pub fn flush_data_builder(&mut self) -> Result<(), FtlError> {
        if let Some((ppa, mut builder)) = self.data_builder.take() {
            if builder.is_empty() {
                // Nothing packed: re-stage the same page for the next pair.
                self.data_builder = Some((ppa, builder));
                return Ok(());
            }
            let data = builder.finish();
            self.spare_builder = Some(builder);
            if HeadPage::parse(&data, self.geometry.page_size as usize).is_none() {
                return Err(FtlError::Corrupt(format!("sealed head page {ppa:?} is malformed")));
            }
            self.program(ppa, data.into(), SpareMeta::head_page(), false)?;
            self.pending.clear();
        }
        Ok(())
    }

    /// Simulate a power loss: every DRAM-resident structure vanishes — the
    /// index-page cache, the buffered head page, and the pending map. Flash
    /// contents and block accounting survive (the emulator's allocator
    /// state stands in for the scan real firmware would do over spare
    /// areas at mount time). Pairs whose head record had not been flushed
    /// are lost, exactly as the paper's periodically-persisted metadata
    /// design implies.
    pub fn simulate_power_loss(&mut self) {
        let budget = self.cache.budget_bytes();
        self.cache = IndexPageCache::new(budget);
        if let Some((head, builder)) = self.data_builder.take() {
            let page = builder.view();
            let lost: Vec<WrittenExtent> = self
                .pending
                .values()
                .filter_map(|&i| page.pair(i))
                .map(|pair| pair.extent(head, self.geometry.page_size))
                .collect();
            // The buffered head records never reached flash; their bytes
            // (and the reserved head page) are dead weight until the block
            // is erased.
            self.alloc.mark_stale(head.block, lost.iter().map(|e| e.head_bytes).sum());
            // Orphaned bodies of lost pairs become stale garbage.
            for extent in lost {
                if let Some(cont) = extent.cont_start {
                    self.alloc.mark_stale(cont.block, extent.cont_bytes);
                }
            }
        }
        self.pending.clear();
    }

    /// Every programmed page on the device, in (block, page) order — the
    /// mount-time scan recovery uses to find metadata.
    pub fn programmed_pages(&self) -> Vec<Ppa> {
        let mut out = Vec::new();
        let nand = self.nand_guard();
        for block in 0..self.geometry.blocks {
            let ptr = nand.write_ptr(block).unwrap_or(0);
            for page in 0..ptr {
                out.push(Ppa::new(block, page));
            }
        }
        out
    }

    /// Flush the write buffer and seal the open data block (checkpoint /
    /// shutdown; unprogrammed tail pages are charged as stale capacity).
    pub fn close_data_block(&mut self) -> Result<(), FtlError> {
        self.flush_data_builder()?;
        self.data_builder = None;
        self.alloc.close_open_block(Stream::Data);
        self.alloc.close_open_block(Stream::Extent);
        Ok(())
    }

    /// Head page of the open builder (its pairs are pending).
    pub fn pending_head(&self) -> Option<Ppa> {
        self.data_builder.as_ref().map(|(ppa, _)| *ppa)
    }

    /// Read the head page at `head` for a reader: off flash, one charged
    /// read — unless it is the write buffer's open page, which is read in
    /// place. [`Ftl::find_pair`] then borrows a pair from it.
    pub fn read_head(&mut self, head: Ppa) -> Result<HeadRead, FtlError> {
        if Some(head) == self.pending_head() {
            return Ok(HeadRead(None));
        }
        self.read_data_page(head).map(|page| HeadRead(Some(page)))
    }

    /// [`Ftl::read_head`] without charging a flash read (the auditor's
    /// view): `None` when the page is not programmed.
    pub fn peek_head(&self, head: Ppa) -> Option<HeadRead> {
        if Some(head) == self.pending_head() {
            return Some(HeadRead(None));
        }
        self.peek_page(head).map(|page| HeadRead(Some(page)))
    }

    /// The pair of `sig` in a head page [`Ftl::read_head`] returned,
    /// borrowed: from a sealed page by its spare tag
    /// ([`layout::probe_head`]), or from the open page while `sig` is
    /// pending there.
    pub fn find_pair<'a>(&'a self, page: &'a HeadRead, sig: KeySignature) -> Option<Pair<'a>> {
        match &page.0 {
            Some((data, spare)) => {
                layout::probe_head(data, spare, self.geometry.page_size as usize, sig)
            }
            None => self.buffered_pair(sig),
        }
    }

    /// The pair of `sig` in the write buffer's open page, if `sig` is
    /// pending there.
    pub(crate) fn buffered_pair(&self, sig: KeySignature) -> Option<Pair<'_>> {
        let (_, builder) = self.data_builder.as_ref()?;
        builder.view().pair(*self.pending.get(&sig)?)
    }

    /// Read the rest of a value ([`Pair::value`]) off flash, one charged
    /// read per continuation page.
    pub fn read_value(&mut self, value: Value) -> Result<Bytes, FtlError> {
        value.read_body(|ppa| self.read_data_page(ppa).map(|(page, _)| page))
    }

    /// Force the buffered head page out of `block` so GC can erase it.
    ///
    /// A data block seals the moment its last page is *allocated*, which
    /// can leave the write buffer's head page inside a sealed — hence
    /// victim-eligible — block. Erasing it would strand the buffered
    /// pairs (their index entries point at the reserved page). A
    /// non-empty builder is flushed so the pairs land on flash and the
    /// normal scan relocates them; an empty builder just forfeits its
    /// reserved page to the erase.
    pub(crate) fn evict_pending_head(&mut self, block: u32) -> Result<(), FtlError> {
        match &self.data_builder {
            Some((head, _)) if head.block == block => {}
            _ => return Ok(()),
        }
        if self.data_builder.as_ref().is_some_and(|(_, b)| b.is_empty()) {
            self.data_builder = None;
            return Ok(());
        }
        self.flush_data_builder()
    }

    /// Read a data page (head or continuation).
    pub fn read_data_page(&mut self, ppa: Ppa) -> Result<(Bytes, Bytes), FtlError> {
        let (d, s) = self.nand_guard().read(ppa)?;
        self.charge(NandOp::Read { ppa, bytes: d.len() as u32 });
        self.stats.data_page_reads += 1;
        Ok((d, s))
    }

    /// Mark a stored extent stale (pair deleted or superseded). Head and
    /// body live in different partitions; both sides are charged.
    pub fn mark_stale(&mut self, extent: &WrittenExtent) {
        self.alloc.mark_stale(extent.head.block, extent.head_bytes);
        if let Some(cont) = extent.cont_start {
            self.alloc.mark_stale(cont.block, extent.cont_bytes);
        }
        // Pending write-buffer copies are removed by signature via
        // `drop_pending`.
    }

    /// Remove a pending pair from the write buffer (delete-before-flush).
    pub fn drop_pending(&mut self, sig: KeySignature) {
        self.pending.remove(&sig);
    }

    // --------------------------------------------------------------- index

    /// Program a full index page; returns its address. A segmented page
    /// ([`PageData`]) is stored as its segments, shared by refcount with
    /// the caller. Metadata writes may dip into the GC reserve so cache
    /// write-backs never fail mid-flight; resize's per-split space check
    /// and the device's proactive GC keep the pool healthy.
    pub fn write_index_page(&mut self, data: PageData, meta: SpareMeta) -> Result<Ppa, FtlError> {
        let ppa = self.alloc.next_page(Stream::Index, true)?;
        let len = data.len() as u64;
        self.program(ppa, data, meta, true)?;
        self.alloc.meta_mut(ppa.block).live_bytes += len;
        Ok(ppa)
    }

    /// Read an index page from flash, as the segments it was written with.
    pub fn read_index_page(&mut self, ppa: Ppa) -> Result<PageData, FtlError> {
        let d = self.nand_guard().read_segments(ppa)?;
        self.charge(NandOp::Read { ppa, bytes: d.len() as u32 });
        self.stats.index_page_reads += 1;
        Ok(d)
    }

    /// Mark an index page superseded (table rewritten or resized away).
    pub fn retire_index_page(&mut self, ppa: Ppa, bytes: u64) {
        self.alloc.mark_stale(ppa.block, bytes);
    }

    // ----------------------------------------------------------------- gc

    pub(crate) fn erase_block(&mut self, block: u32) -> Result<(), FtlError> {
        self.nand_guard().erase(block)?;
        self.charge(NandOp::Erase { block });
        self.stats.block_erases += 1;
        self.alloc.release(block);
        Ok(())
    }

    pub(crate) fn note_gc_run(&mut self) {
        self.stats.gc_runs += 1;
    }

    pub(crate) fn note_gc_relocation(&mut self, pairs: u64) {
        self.stats.gc_relocated_pairs += pairs;
    }

    pub(crate) fn note_gc_erase(&mut self) {
        self.stats.gc_erased_blocks += 1;
    }

    pub(crate) fn block_write_ptr(&self, block: u32) -> u32 {
        self.nand_guard().write_ptr(block).unwrap_or(0)
    }

    // -------------------------------------------------------------- audit

    /// Inspect a page without charging a flash read — the invariant
    /// auditor's window into media state (audits must not perturb the
    /// read counters the ≤1-read bound is proved against). A segmented
    /// index page comes back as one copied buffer.
    pub fn peek_page(&self, ppa: Ppa) -> Option<(Bytes, Bytes)> {
        self.nand_guard().peek(ppa)
    }

    /// Snapshot this FTL's flash-side accounting for the cross-layer
    /// auditor: per-block allocator metadata joined with the NAND write
    /// pointers, plus the NAND array's own physical-discipline audit.
    ///
    /// `shard` only labels the snapshot (pass 0 for an unsharded device).
    pub fn audit_flash(&self, shard: u32) -> rhik_audit::FlashAudit {
        let geometry = self.geometry;
        let nand = self.nand_guard();
        let blocks = (0..geometry.blocks)
            .map(|b| {
                let meta = self.alloc.meta(b);
                rhik_audit::BlockAccounting {
                    block: b,
                    stream: meta.stream.map(|s| match s {
                        Stream::Data => "data",
                        Stream::Extent => "extent",
                        Stream::Index => "index",
                    }),
                    live_bytes: meta.live_bytes,
                    stale_bytes: meta.stale_bytes,
                    pages_allocated: meta.pages_used,
                    pages_programmed: nand.write_ptr(b).unwrap_or(0),
                }
            })
            .collect();
        rhik_audit::FlashAudit {
            shard,
            page_size: geometry.page_size,
            total_blocks: geometry.blocks,
            free_raw: self.alloc.free_blocks_raw(),
            blocks,
            nand_violations: nand.audit(),
        }
    }
}

impl std::fmt::Debug for Ftl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ftl")
            .field("geometry", self.geometry())
            .field("stats", &self.stats)
            .field("free_blocks", &self.alloc.free_blocks())
            .finish_non_exhaustive()
    }
}

/// Fault-plan access that holds the media lock for its lifetime, keeping
/// the `ftl.faults_mut().fail_read(..)` call shape tests already use.
pub struct FaultsGuard<'a>(MutexGuard<'a, NandArray>);

impl std::ops::Deref for FaultsGuard<'_> {
    type Target = rhik_nand::FaultPlan;

    fn deref(&self) -> &Self::Target {
        self.0.faults()
    }
}

impl std::ops::DerefMut for FaultsGuard<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.0.faults_mut()
    }
}

/// Direct record-page access over the media lock — the lock-free read
/// path's handle onto flash. Cloning is cheap (one `Arc`); every clone
/// shares the same NAND array and lock as the owning [`Ftl`].
///
/// A `MediaReader` read bypasses the FTL front-end: no allocator, cache,
/// or op-log involvement, just the physical page. Unwritten pages (a
/// record still in the DRAM write buffer) and fault-injected pages
/// surface as errors, which callers treat as "fall back to the locked
/// path".
#[derive(Clone)]
pub struct MediaReader {
    nand: Arc<Mutex<NandArray>>,
    geometry: NandGeometry,
    page_read_ns: u64,
}

impl MediaReader {
    /// Read one page (data + spare), charging the NAND counters.
    pub fn read_page(&self, ppa: Ppa) -> Result<(Bytes, Bytes), rhik_nand::NandError> {
        let mut nand = self.nand.lock().unwrap_or_else(|poison| poison.into_inner());
        nand.read(ppa)
    }

    #[inline]
    pub fn geometry(&self) -> &NandGeometry {
        &self.geometry
    }

    /// Simulated media latency of one full-page read — what a lock-free
    /// get charges its shard clock per page in lieu of the timing
    /// engine's per-command accounting.
    #[inline]
    pub fn page_read_ns(&self) -> u64 {
        self.page_read_ns
    }
}

impl std::fmt::Debug for MediaReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MediaReader")
            .field("geometry", &self.geometry)
            .field("page_read_ns", &self.page_read_ns)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;

    fn ftl() -> Ftl {
        Ftl::new(FtlConfig::tiny())
    }

    fn sig(n: u64) -> KeySignature {
        KeySignature(n)
    }

    #[test]
    fn small_pairs_buffer_then_flush() {
        let mut f = ftl();
        let e1 = f.store_pair(sig(1), b"k1", b"v1", 0).unwrap();
        let e2 = f.store_pair(sig(2), b"k2", b"v2", 0).unwrap();
        assert_eq!(e1.head, e2.head, "small pairs share a head page");
        assert_eq!(f.stats().pending_pairs, 2);
        assert_eq!(f.stats().data_page_programs, 0, "still buffered");

        let page = f.read_head(e1.head).unwrap();
        let pair = f.find_pair(&page, sig(1)).unwrap();
        assert_eq!((pair.key, pair.value_frag), (&b"k1"[..], &b"v1"[..]));
        assert_eq!(f.stats().data_page_reads, 0, "the open page is read in place");

        f.flush_data_builder().unwrap();
        assert_eq!(f.stats().data_page_programs, 1);
        assert_eq!(f.stats().pending_pairs, 0);

        // After flush the page decodes to both pairs.
        let (d, s) = f.read_data_page(e1.head).unwrap();
        assert_eq!(SpareMeta::decode(&s).unwrap().kind, layout::PageKind::Head);
        let entries = layout::decode_head(&d, 512).unwrap();
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn page_rolls_when_full() {
        let mut f = ftl();
        // 512-byte pages; ~100-byte values → ~4 per page.
        let mut heads = Vec::new();
        for i in 0..12u64 {
            let e = f.store_pair(sig(i), format!("key{i}").as_bytes(), &[i as u8; 100], 0).unwrap();
            heads.push(e.head);
        }
        let distinct: std::collections::HashSet<_> = heads.iter().collect();
        assert!(distinct.len() >= 3, "pairs spread across pages: {distinct:?}");
        assert!(f.stats().data_page_programs >= 2, "earlier pages flushed by rollover");
    }

    #[test]
    fn large_value_body_lands_in_extent_partition() {
        let mut f = ftl();
        let value = vec![0xabu8; 1500]; // 512-byte pages: frag 476 + 2 body pages
        let e = f.store_pair(sig(7), b"big", &value, 0).unwrap();
        assert_eq!(e.cont_pages, 2);
        assert_eq!(e.cont_bytes, 1024);
        let cont = e.cont_start.expect("body present");
        assert_ne!(cont.block, e.head.block, "body lives in the extent partition");

        // The head record is still buffering; flush and decode it.
        f.flush_data_builder().unwrap();
        let (d, _) = f.read_data_page(e.head).unwrap();
        let entry = layout::find_in_head(&d, 512, sig(7)).unwrap();
        assert_eq!(entry.value_frag.len() + entry.body_len() as usize, value.len());
        assert_eq!(entry.cont_start(), Some(cont));

        // Body pages are full, carry the owning signature, and reassemble.
        let mut rebuilt = entry.value_frag.to_vec();
        for c in 0..e.cont_pages {
            let (cd, cs) = f.read_data_page(Ppa::new(cont.block, cont.page + c)).unwrap();
            let meta = SpareMeta::decode(&cs).unwrap();
            assert_eq!(meta.kind, layout::PageKind::Cont);
            assert_eq!(meta.sig, Some(sig(7)));
            assert_eq!(cd.len(), 512, "body pages pack full");
            rebuilt.extend_from_slice(&cd);
        }
        assert_eq!(rebuilt, value);
    }

    #[test]
    fn page_aligned_values_waste_nothing() {
        // A page-sized value must cost ~1 body page + a few header bytes,
        // not two pages (regression for 50% fill waste).
        let mut f = ftl();
        for i in 0..8u64 {
            let e = f.store_pair(sig(i), b"k", &[7u8; 512], 0).unwrap();
            assert_eq!(e.cont_pages, 1);
            assert_eq!(e.cont_bytes, 512);
            assert!(e.head_bytes < 40);
        }
        // All 8 head records share one buffered head page.
        assert_eq!(f.stats().pending_pairs, 8);
        assert_eq!(f.stats().data_page_programs, 8, "8 full body pages only");
    }

    #[test]
    fn extent_body_never_escapes_block() {
        let mut f = ftl();
        for i in 0..16u64 {
            f.store_pair(sig(i), b"k", &[1u8; 100], 0).unwrap();
        }
        let big = vec![9u8; 2000];
        let e = f.store_pair(sig(100), b"big", &big, 0).unwrap();
        let cont = e.cont_start.unwrap();
        assert!(cont.page + e.cont_pages <= f.geometry().pages_per_block);
    }

    #[test]
    fn value_too_large_rejected() {
        let mut f = ftl();
        let max = f.max_value_bytes();
        let err = f.store_pair(sig(1), b"k", &vec![0u8; max + 1], 0).unwrap_err();
        assert!(matches!(err, FtlError::ValueTooLarge { .. }));
        // At the limit it works.
        assert!(f.store_pair(sig(2), b"k", &vec![0u8; max], 0).is_ok());
    }

    #[test]
    fn ftl_error_display() {
        assert!(FtlError::TableFull { table: 3 }.to_string().contains("table 3"));
        assert!(FtlError::CapacityExhausted.to_string().contains("capacity"));
    }

    #[test]
    fn key_too_large_rejected() {
        let mut f = ftl();
        let err = f.store_pair(sig(1), &vec![b'k'; 600], b"v", 0).unwrap_err();
        assert!(matches!(err, FtlError::KeyTooLarge { .. }));
    }

    #[test]
    fn mark_stale_moves_bytes() {
        let mut f = ftl();
        let e = f.store_pair(sig(1), b"k", &[0u8; 64], 0).unwrap();
        let live_before = f.total_live_bytes();
        f.mark_stale(&e);
        assert_eq!(f.total_live_bytes(), live_before - e.bytes());
        assert_eq!(f.total_stale_bytes(), e.bytes());
    }

    #[test]
    fn index_page_roundtrip_and_retire() {
        let mut f = ftl();
        let data = Bytes::from(vec![0x5au8; 512]);
        let ppa = f.write_index_page(data.clone().into(), SpareMeta::index_page()).unwrap();
        assert_eq!(f.read_index_page(ppa).unwrap(), data.into());
        assert_eq!(f.stats().index_page_programs, 1);
        assert_eq!(f.stats().index_page_reads, 1);
        let live = f.total_live_bytes();
        f.retire_index_page(ppa, 512);
        assert_eq!(f.total_live_bytes(), live - 512);
    }

    #[test]
    fn timed_ops_drain() {
        let mut f = Ftl::new(FtlConfig {
            profile: rhik_nand::DeviceProfile::kvemu_like(),
            ..FtlConfig::tiny()
        });
        f.store_pair(sig(1), b"k", &vec![0u8; 1500], 0).unwrap();
        let ops: Vec<TimedOp> = f.drain_timed_ops().collect();
        assert!(!ops.is_empty());
        assert!(ops.iter().all(|o| o.duration_ns > 0));
        assert_eq!(f.drain_timed_ops().len(), 0, "drain clears the queue");
    }

    #[test]
    fn needs_gc_when_pool_exhausted() {
        let mut f = ftl(); // 8 blocks, 1 reserved, 512B pages
        let mut result = Ok(());
        for i in 0..200u64 {
            match f.store_pair(sig(i), b"k", &[0u8; 400], 0) {
                Ok(_) => {}
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        assert_eq!(result.unwrap_err(), FtlError::NeedsGc);
    }

    #[test]
    fn utilization_grows_with_data() {
        let mut f = ftl();
        assert_eq!(f.utilization(), 0.0);
        f.store_pair(sig(1), b"k", &[0u8; 256], 0).unwrap();
        assert!(f.utilization() > 0.0);
    }

    #[test]
    fn wear_stats_track_erases() {
        let mut f = ftl();
        assert_eq!(f.wear_stats(), (0, 0, 0.0));
        f.store_pair(sig(1), b"k", &[0u8; 100], 0).unwrap();
        f.close_data_block().unwrap();
        let block = 0; // first data block
        f.erase_block(block).unwrap();
        let (min, max, mean) = f.wear_stats();
        assert_eq!(min, 0);
        assert_eq!(max, 1);
        assert!(mean > 0.0 && mean < 1.0);
    }

    #[test]
    fn power_loss_clears_dram_state() {
        let mut f = ftl();
        let small = f.store_pair(sig(1), b"k", &[0u8; 64], 0).unwrap();
        let long = f.store_pair(sig(2), b"big", &[1u8; 1100], 0).unwrap();
        assert_eq!((long.head, long.cont_pages), (small.head, 2));
        assert_eq!(f.stats().pending_pairs, 2);
        f.cache().insert(42, bytes::Bytes::from(vec![0u8; 64]).into(), true);
        f.simulate_power_loss();
        assert_eq!(f.stats().pending_pairs, 0);
        assert!(f.cache_ref().is_empty());
        assert_eq!(f.buffered_pair(sig(1)), None);
        // The lost pairs' bytes, head records and body pages, are
        // accounted stale so GC can reclaim.
        assert_eq!(f.total_stale_bytes(), small.bytes() + long.bytes());
        assert_eq!(f.total_live_bytes(), 0);
    }

    #[test]
    fn audit_kind_tags_match_layout() {
        // The dependency-free audit crate mirrors the spare-area kind tags
        // as constants; pin them to the layout's actual encoding.
        assert_eq!(SpareMeta::head_page().encode()[0], rhik_audit::KIND_HEAD);
        assert_eq!(SpareMeta::cont_page(sig(1)).encode()[0], rhik_audit::KIND_CONT);
        assert_eq!(SpareMeta::index_page().encode()[0], rhik_audit::KIND_INDEX);
        assert_eq!(SpareMeta::directory_page().encode()[0], rhik_audit::KIND_DIRECTORY);
    }

    #[test]
    fn audit_flash_reflects_accounting() {
        let mut f = ftl();
        f.store_pair(sig(1), b"k", &[0u8; 64], 0).unwrap();
        f.flush_data_builder().unwrap();
        let snap = f.audit_flash(0);
        assert_eq!(snap.total_blocks, f.geometry().blocks);
        assert_eq!(snap.free_raw, f.free_blocks_raw());
        assert!(snap.nand_violations.is_empty());
        let live: u64 = snap.blocks.iter().map(|b| b.live_bytes).sum();
        assert_eq!(live, f.total_live_bytes());
        assert!(snap.blocks.iter().any(|b| b.stream == Some("data") && b.pages_programmed > 0));
    }

    #[test]
    fn delete_before_flush_drops_pending() {
        let mut f = ftl();
        let e = f.store_pair(sig(1), b"k", b"v", 0).unwrap();
        f.mark_stale(&e);
        f.drop_pending(sig(1));
        assert_eq!(f.buffered_pair(sig(1)), None);
    }
}
