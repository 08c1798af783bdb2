//! Sharded multi-queue device execution.
//!
//! Real KV-SSDs expose multiple submission queues, and RHIK's directory
//! makes the keyspace trivially partitionable: the directory entry is
//! selected by *low* signature bits, so taking the *high* bits as a shard
//! id splits the signature space into `S` disjoint slices whose index
//! structures never interact.
//!
//! [`ShardedKvssd`] exploits that: each shard owns a full device
//! front-end (its own `RhikIndex` directory slice, submission-queue
//! mutex, timing engine, and latency histograms), while all shards lease
//! erase blocks from one shared [`FlashPool`] — one physical flash
//! array, many command streams. Commands route by the high signature
//! bits of the key, so:
//!
//! * threads hitting different shards proceed in parallel;
//! * a directory resize (the reconfiguration stall of §IV-C) runs inside
//!   one shard and stalls only that shard's queue — a `1/S` partial
//!   stall instead of a whole-device pause;
//! * per-shard stats and histograms aggregate into a device-wide view
//!   via [`DeviceStats::merge`] / `LatencyHistogram::merge`.
//!
//! One fast path in front of the lock: a get first probes the hot cache,
//! then walks the shard's lock-free read view. Both validate against the
//! device's one [`VersionTable`], which the views bump after every index
//! change, and both complete into one per-shard recorder (counters, one
//! latency histogram, one span slot), so a get answered off the lock is
//! counted once whichever way it ended. [`ShardedKvssd::metrics`] reads
//! those counts, with every shard's and the hot cache's, when asked.
//!
//! One request path behind it: every command that needs a shard lock — a
//! get the fast path could not answer, a put, a delete, an exist, the
//! rest of a [`ShardedKvssd::submit_batch`] — runs through one private
//! locked pass: one lock acquisition and one compound submission through
//! [`KvssdDevice::execute_batch`], then, with the lock released, the
//! `DeviceFull` retry and the hot-cache fill for get hits.
//!
//! Trade-offs (documented, not hidden): GC and wear accounting are per
//! shard — a shard can only reclaim its *own* leased blocks, and the
//! global free-block watermark may trigger GC in a shard with little to
//! reclaim. When one shard exhausts the pool while another still holds
//! garbage, the locked pass runs a device-wide GC sweep (every shard's
//! collector, serialized by the pool's GC permit) and retries before
//! surfacing `DeviceFull`.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use rhik_core::RhikIndex;
use rhik_ftl::layout;
// Per-shard locks via ftl::sync so `cfg(loom)` builds model them (and
// wslint's `std-mutex-outside-sync` rule holds workspace-wide).
use rhik_ftl::sync::{Counter, Mutex, MutexGuard};
use rhik_ftl::{FlashPool, Ftl, IndexBackend, MediaReader, ReadView, VersionTable};
use rhik_hotcache::{AdmitReport, CacheLookup};
use rhik_nand::Ppa;
use rhik_sigs::{KeySignature, SigHasher};
use rhik_telemetry::{
    MetricSnapshot, OpKind, OpSpan, ReadsPerLookup, Stage, StageEvent, TelemetrySink,
};

use crate::cache_tier::CacheTier;
use crate::cmd::{BatchOp, BatchReply};
use crate::config::DeviceConfig;
use crate::device::{DeviceStats, KvssdDevice};
use crate::error::KvError;
use crate::histogram::LatencyHistogram;
use crate::metrics::MetricsReader;
use crate::Result;

/// The device's version table: `1 << 14` stripes (128 KiB of DRAM).
/// Stripe collisions only cost a spurious cache refill or a spurious
/// fallback to the locked pass, so the table can be much smaller than the
/// keyspace.
const VERSION_BITS: u32 = 14;

// -------------------------------------------------- gets off the lock

/// What one shard needs to answer a get in front of its lock: the
/// lock-free index walk — the [`ReadView`] mirror, whose map mutex a get
/// holds for one hash probe, and a [`MediaReader`] that reads record
/// pages through the narrow media lock, never the shard's command mutex
/// — and the one recorder that hot-cache hits and lock-free reads both
/// complete into. All counters are relaxed [`Counter`]s; the latency
/// histogram and span sink sit behind their own short-hold mutexes,
/// touched only after the answer is known.
struct FastPath {
    shard: u32,
    view: Arc<ReadView>,
    media: MediaReader,
    /// Gets the hot cache answered, and the value bytes they returned.
    cache_hits: Counter,
    cache_bytes: Counter,
    /// Lock-free reads, as [`LockfreeReadStats`] reports them.
    gets: Counter,
    hits: Counter,
    not_found: Counter,
    fallbacks: Counter,
    pages_read: Counter,
    bytes_read: Counter,
    /// Simulated media time spent by lock-free reads (pages × t_read).
    /// Folded into the shard's device clock: these reads bypass the
    /// timing engine, so the clock must account for them separately.
    read_ns: Counter,
    /// Every get answered here: cache hits at zero device time, lock-free
    /// reads at their media time.
    latencies: Mutex<LatencyHistogram>,
    /// 1 when an enabled telemetry sink is installed (checked before
    /// taking the sink mutex, so disabled telemetry costs one load).
    telemetry_on: Counter,
    telemetry: Mutex<TelemetrySink>,
}

impl FastPath {
    fn new(shard: u32, view: Arc<ReadView>, media: MediaReader) -> Self {
        FastPath {
            shard,
            view,
            media,
            cache_hits: Counter::new(),
            cache_bytes: Counter::new(),
            gets: Counter::new(),
            hits: Counter::new(),
            not_found: Counter::new(),
            fallbacks: Counter::new(),
            pages_read: Counter::new(),
            bytes_read: Counter::new(),
            read_ns: Counter::new(),
            latencies: Mutex::new(LatencyHistogram::new()),
            telemetry_on: Counter::new(),
            telemetry: Mutex::new(TelemetrySink::disabled()),
        }
    }

    fn sink(&self) -> Option<TelemetrySink> {
        if self.telemetry_on.get() == 0 {
            return None;
        }
        Some(self.telemetry.lock().unwrap_or_else(|p| p.into_inner()).clone())
    }

    /// A get span of this shard: `latency` ns of device time from
    /// `start`, optionally tagged with one cache-tier stage (`count`
    /// occurrences, no duration of its own). Zero *index* flash reads by
    /// construction: the cache and the view are DRAM.
    fn span(&self, start: u64, latency: u64, stage: Option<(Stage, u64)>) -> OpSpan {
        OpSpan {
            kind: OpKind::Get,
            shard: self.shard,
            submitted_ns: start,
            completed_ns: start + latency,
            lookup_flash_reads: 0,
            stages: stage
                .map(|(stage, count)| StageEvent { stage, count: count as u32, dur_ns: 0 })
                .into_iter()
                .collect(),
        }
    }

    /// Complete one get answered off the lock: its latency lands in the
    /// shard's one histogram, and in the trace as a get span.
    fn complete(&self, start: u64, latency: u64, hot_hit: bool) {
        self.latencies.lock().unwrap_or_else(|p| p.into_inner()).record(latency);
        if let Some(sink) = self.sink() {
            sink.record_span(self.span(start, latency, hot_hit.then_some((Stage::CacheHotHit, 1))));
        }
    }

    /// A hot-cache hit: a completed get with zero device time and zero
    /// flash reads, counted like any other get.
    fn record_cache_hit(&self, bytes: u64) {
        self.cache_hits.incr();
        self.cache_bytes.add(bytes);
        self.complete(0, 0, true);
    }

    /// A probe found a superseded entry (dropped; the get falls through).
    fn record_stale(&self) {
        if let Some(sink) = self.sink() {
            sink.record_span(self.span(0, 0, Some((Stage::CacheStale, 1))));
        }
    }

    /// What offering a read value to the cache did.
    fn record_admit(&self, report: AdmitReport) {
        let Some(sink) = self.sink() else { return };
        if report.evicted > 0 {
            sink.record_span(self.span(0, 0, Some((Stage::CacheEvict, report.evicted))));
        }
        if report.admitted {
            sink.record_span(self.span(0, 0, Some((Stage::CacheAdmit, 1))));
        }
    }

    /// Walk the mirrored chain for `sig` — view probe → head page →
    /// continuation pages — and re-validate the signature's stripe after
    /// the reads. Returns the pages read and `Some(answer)`: the value, or
    /// `None` for an absence. No answer means only the locked path can
    /// decide (head still in the write buffer, failed validation).
    fn walk(&self, sig: KeySignature, key: &[u8]) -> (u64, Option<Option<Bytes>>) {
        // A miss costs zero flash reads — the §IV-A3 signature-only
        // answer, straight from DRAM.
        let Some(hit) = self.view.lookup(sig.0) else { return (0, Some(None)) };
        // Optimistic flash read: the head may be stale (concurrent
        // update/GC) or still in the DRAM write buffer (unprogrammed
        // page ⇒ the media read errors). Validation decides.
        let Ok((data, spare)) = self.media.read_page(hit.head) else { return (0, None) };
        let mut pages = 1;
        let page_size = self.media.geometry().page_size as usize;
        // A page erased and reprogrammed since the probe may be of
        // another kind; its spare tag says so.
        let Some(pair) = layout::probe_head(&data, &spare, page_size, sig) else {
            return (pages, None);
        };
        // A different stored key is either a true signature collision
        // (absent) or a stale page; validation tells them apart.
        let value = if pair.key == key {
            let read = pair.value().read_body(|ppa| {
                self.media.read_page(ppa).map(|(page, _)| {
                    pages += 1;
                    page
                })
            });
            let Ok(value) = read else { return (pages, None) };
            Some(value)
        } else {
            None
        };
        (pages, hit.validate().then_some(value))
    }

    /// One lock-free get attempt. `Some(value)` is a completed command
    /// (recorded); `None` means fall back to the locked path, which
    /// re-runs the command from scratch.
    fn read(&self, sig: KeySignature, key: &[u8]) -> Option<Option<Bytes>> {
        let (pages, answer) = self.walk(sig, key);
        let latency = pages * self.media.page_read_ns();
        // The optimistic reads happened on real media; a fallback charges
        // them to the shard clock even though the locked retry pays again.
        let start = self.read_ns.get();
        self.read_ns.add(latency);
        self.pages_read.add(pages);
        let Some(value) = answer else {
            self.fallbacks.incr();
            return None;
        };
        self.gets.incr();
        match &value {
            Some(v) => {
                self.hits.incr();
                self.bytes_read.add(v.len() as u64);
            }
            None => self.not_found.incr(),
        }
        self.complete(start, latency, false);
        Some(value)
    }
}

/// Aggregated lock-free read-path counters (diagnostics, benches, the
/// adversarial lock-free read test).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockfreeReadStats {
    /// Gets completed entirely on the lock-free path.
    pub gets: u64,
    /// Of those, gets that returned a value.
    pub hits: u64,
    /// Validated misses (zero flash reads spent).
    pub not_found: u64,
    /// Attempts that bounced to the locked path (contention, pending
    /// write buffer, failed post-read validation).
    pub fallbacks: u64,
    /// Record pages read through the media lock (head + continuation).
    pub pages_read: u64,
    /// Value bytes returned by lock-free hits.
    pub bytes_read: u64,
}

// ---------------------------------------------------- request path

/// The error for a reply that does not answer its op. Unreachable:
/// [`KvssdDevice::execute_batch`] answers each op with a reply of its
/// kind.
fn mismatched(reply: Option<BatchReply>) -> KvError {
    KvError::Corrupt(format!("op answered with {reply:?}"))
}

/// Outcome of one fast-path (no shard lock) get attempt.
enum FastGet {
    /// Completed on the cache or lock-free path; stats recorded.
    Done(Result<Option<Bytes>>),
    /// Needs the locked path; carries the cache fill ticket (version
    /// observed before the read) so a locked-path hit can still be
    /// admitted under the re-check protocol.
    NeedsLock { fill_version: Option<u64> },
}

/// A cloneable handle to a sharded device: `S` independent command
/// queues over one shared flash array.
pub struct ShardedKvssd<I: IndexBackend> {
    shards: Arc<[Mutex<KvssdDevice<I>>]>,
    /// Per shard, everything in front of its lock.
    fast: Arc<[FastPath]>,
    pool: Arc<FlashPool>,
    hasher: SigHasher,
    /// High signature bits selecting the shard (`log2(shard count)`).
    shard_bits: u32,
    /// DRAM hot-object cache tier, `Some` when `cfg.hot_cache` has a
    /// budget.
    cache: Option<Arc<CacheTier>>,
}

impl<I: IndexBackend> Clone for ShardedKvssd<I> {
    fn clone(&self) -> Self {
        ShardedKvssd {
            shards: Arc::clone(&self.shards),
            fast: Arc::clone(&self.fast),
            pool: Arc::clone(&self.pool),
            hasher: self.hasher,
            shard_bits: self.shard_bits,
            cache: self.cache.clone(),
        }
    }
}

impl ShardedKvssd<RhikIndex> {
    /// Build a sharded RHIK device with `cfg.shards` shards (see
    /// [`DeviceConfig::with_shards`]).
    ///
    /// Each shard gets `1/S` of the DRAM cache budget and a directory
    /// starting `log2(S)` bits smaller ([`rhik_core::RhikConfig::for_shard`]),
    /// so aggregate initial capacity matches the unsharded device. The
    /// GC reserve is global: at least one scratch block per shard.
    pub fn rhik(cfg: DeviceConfig) -> Self {
        let count = cfg.shards;
        let shard_bits = cfg.shard_bits();
        // The reserve is tiered (see [`rhik_ftl::AcquireClass`]): host
        // writes stop at `reserve` free blocks, index write-backs at
        // `reserve/2`, GC at zero. Collection is serialized device-wide
        // (the pool's GC permit), so the bottom half must cover ONE
        // collection's worst-case scratch — open data/extent/index
        // relocation targets plus a directory resize triggered
        // mid-relocation, and any open blocks an aborted collection left
        // behind. Scale with shard count, floor of 8, capped for tiny
        // geometries.
        let reserve =
            (2 * cfg.gc_reserve_blocks * count).max(8).min(cfg.geometry.blocks / 4).max(1);
        let pool = Arc::new(FlashPool::new(cfg.geometry, reserve));

        let mut shard_cfg = cfg;
        shard_cfg.cache_budget_bytes =
            (cfg.cache_budget_bytes / count as usize).max(cfg.geometry.page_size as usize);
        shard_cfg.rhik = cfg.rhik.for_shard(shard_bits);
        // The GC watermarks are compared against the *global* free count
        // (above the reserve), but each shard can only reclaim its own
        // garbage — and S shards together keep up to 3·S blocks open.
        // Add one block of trigger margin and two of target hysteresis
        // per shard so every shard starts collecting while the others
        // still have allocation headroom.
        shard_cfg.gc = rhik_ftl::GcConfig {
            low_watermark: cfg.gc.low_watermark + count,
            high_watermark: cfg.gc.high_watermark + 2 * count,
            // Incremental collection: one huge run would land on
            // whichever shard holds the GC permit and serialize the
            // whole debt onto that one queue's clock. Small slices let
            // the watermark re-trigger on later commands, spreading
            // collection across shards.
            max_victims_per_run: 2,
            ..cfg.gc
        };

        // One version table for the whole device: every shard's read view
        // bumps it, and the hot cache validates against it. Mutations
        // route to exactly one shard per signature, so the table sees
        // every bump for a given key.
        let versions = Arc::new(VersionTable::new(VERSION_BITS));
        let cache = cfg
            .hot_cache
            .enabled()
            .then(|| Arc::new(CacheTier::new(cfg.hot_cache, Arc::clone(&versions))));

        let mut shards: Vec<Mutex<KvssdDevice<RhikIndex>>> = Vec::with_capacity(count as usize);
        let mut fast: Vec<FastPath> = Vec::with_capacity(count as usize);
        for shard in 0..count {
            let ftl = Ftl::with_pool(shard_cfg.ftl_config(), Arc::clone(&pool));
            let mut index = RhikIndex::new(shard_cfg.rhik, shard_cfg.geometry.page_size);
            let view = Arc::new(ReadView::new(Arc::clone(&versions)));
            let attached = index.attach_read_view(Arc::clone(&view));
            debug_assert!(attached, "a fresh index accepts its read view");
            let mut dev = KvssdDevice::with_index_and_ftl(shard_cfg, ftl, index);
            // Tags the shard's audits and spans; no tracer until one is set.
            dev.set_telemetry_shard(TelemetrySink::disabled(), shard);
            fast.push(FastPath::new(shard, view, dev.media_reader()));
            shards.push(Mutex::new(dev));
        }

        ShardedKvssd {
            shards: shards.into(),
            fast: fast.into(),
            pool,
            hasher: cfg.hasher,
            shard_bits,
            cache,
        }
    }

    /// Cross-layer audit over every shard, including the global checks no
    /// single shard can run: no PPA claimed by two shards' directories,
    /// no erase block leased twice, and free + leased covering the pool
    /// exactly. Holds every shard's lock simultaneously (acquired in
    /// shard order; no other path holds two at once) so the cross-shard
    /// pool accounting is one consistent snapshot — safe to call while
    /// other threads keep issuing commands.
    ///
    /// With the keyspace quiescent it also reads each index's own
    /// `sig → head` records, charging nothing, and joins against them
    /// what the fast path trusts: the shard's read view entry by entry,
    /// and every still-current hot-cache entry's value.
    pub fn audit(&self, auditor: &mut rhik_audit::DeviceAuditor) -> rhik_audit::AuditReport {
        // Cached entries are listed before the shard locks are taken; an
        // entry is joined only if its fill version is still current under
        // them, so no mutation landed since its fill.
        let cached = self.cache.as_ref().map(|tier| (tier, tier.cache.snapshot()));
        let guards: Vec<_> = (0..self.shards.len()).map(|s| self.lock(s)).collect();
        let shards: Vec<_> = guards.iter().map(|dev| dev.audit_parts()).collect();
        let mut report = auditor.check_sharded(&shards);
        let mut cache_samples = Vec::new();
        for (shard, dev) in guards.iter().enumerate() {
            let heads = dev.index().peek_records(dev.ftl());
            let raw = |heads: &HashMap<u64, Ppa>| -> HashMap<u64, rhik_audit::RawPpa> {
                heads.iter().map(|(&sig, ppa)| (sig, (ppa.block, ppa.page))).collect()
            };
            let view = raw(&self.fast[shard].view.entries());
            report
                .violations
                .extend(auditor.check_read_view(shard as u32, &view, &raw(&heads)).violations);
            let Some((tier, entries)) = &cached else { continue };
            for entry in entries {
                let sig = KeySignature(entry.sig);
                let current = tier.versions.load(entry.sig);
                if self.shard_of(sig) != shard || current != entry.version {
                    continue; // another shard's, or unservable by construction
                }
                cache_samples.push(rhik_audit::CacheCoherenceSample {
                    shard: shard as u32,
                    sig: entry.sig,
                    fill_version: entry.version,
                    current_version: current,
                    cached_value: entry.value.to_vec(),
                    index_value: match heads.get(&entry.sig) {
                        Some(&head) => dev.peek_value(sig, head, &entry.key),
                        None => Some(None),
                    },
                });
            }
        }
        report.violations.extend(auditor.check_cache(&cache_samples).violations);
        report
    }
}

impl<I: IndexBackend + Send> ShardedKvssd<I> {
    /// Which shard serves `sig`: the high `shard_bits` bits of the
    /// signature. Disjoint from the directory's low-bit selection, so
    /// sharding never skews per-shard directory occupancy.
    pub fn shard_of(&self, sig: KeySignature) -> usize {
        if self.shard_bits == 0 {
            0
        } else {
            (sig.0 >> (64 - self.shard_bits)) as usize
        }
    }

    fn route(&self, key: &[u8]) -> usize {
        self.shard_of(self.hasher.sign(key))
    }

    /// Take one shard's submission-queue lock. Poisoning is not fatal
    /// (a panicked command leaves the shard at a command boundary).
    fn lock(&self, shard: usize) -> MutexGuard<'_, KvssdDevice<I>> {
        self.shards[shard].lock().unwrap_or_else(|poison| poison.into_inner())
    }

    /// Which shard a key routes to (front ends use this to assemble
    /// per-shard batches for [`ShardedKvssd::submit_batch`]).
    pub fn shard_for_key(&self, key: &[u8]) -> usize {
        self.route(key)
    }

    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let op = BatchOp::Put { key: key.to_vec(), value: value.to_vec() };
        match self.run_locked(self.route(key), &[(&op, None)]).pop() {
            Some(BatchReply::Put(result)) => result,
            other => Err(mismatched(other)),
        }
    }

    /// `get`: the hot-object cache answers first (a validated DRAM hit
    /// costs zero directory work and zero flash reads), then the
    /// lock-free path — probe the shard's read view (one hash probe under
    /// its map mutex), read record pages through the media lock,
    /// validate, and return without ever touching the shard's command
    /// mutex. Any ambiguity (pending write buffer, failed validation)
    /// falls back to the locked pass. Values read from the index are
    /// offered back to the cache under the version-re-check fill protocol
    /// (see `cache_tier`).
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        let sig = self.hasher.sign(key);
        let shard = self.shard_of(sig);
        let fill_version = match self.fast_get(shard, sig, key) {
            FastGet::Done(result) => return result,
            FastGet::NeedsLock { fill_version } => fill_version,
        };
        let op = BatchOp::Get { key: key.to_vec() };
        match self.run_locked(shard, &[(&op, fill_version)]).pop() {
            Some(BatchReply::Get(result)) => result,
            other => Err(mismatched(other)),
        }
    }

    pub fn delete(&self, key: &[u8]) -> Result<()> {
        let op = BatchOp::Delete { key: key.to_vec() };
        match self.run_locked(self.route(key), &[(&op, None)]).pop() {
            Some(BatchReply::Delete(result)) => result,
            other => Err(mismatched(other)),
        }
    }

    /// `exist`: the signature-only membership answer (§IV-A3).
    pub fn exist(&self, key: &[u8]) -> Result<bool> {
        let op = BatchOp::Exists { key: key.to_vec() };
        match self.run_locked(self.route(key), &[(&op, None)]).pop() {
            Some(BatchReply::Exists(result)) => result,
            other => Err(mismatched(other)),
        }
    }

    /// Execute a host-assembled batch of ops that all route to `shard`,
    /// in order, under at most one shard-lock acquisition. Gets are first
    /// answered on the cache / lock-free path (no lock at all); whatever
    /// remains — puts, deletes, exists, fallback gets — runs through the
    /// locked pass as one compound submission, so the modeled device sees
    /// one queue handoff for the whole batch. Replies come back in
    /// submission order. An op whose key routes to another shard (or any
    /// op, when `shard` is out of range) is never executed: it is
    /// answered [`KvError::WrongShard`].
    pub fn submit_batch(&self, shard: usize, ops: &[BatchOp]) -> Vec<BatchReply> {
        let mut fast: Vec<Option<BatchReply>> = Vec::with_capacity(ops.len());
        let mut locked: Vec<(&BatchOp, Option<u64>)> = Vec::new();
        // Gets may leave the batch for the no-lock fast path only while
        // no earlier op in the batch mutates: a get *after* a put/delete
        // must observe it (pipelined read-your-writes), and neither the
        // cache nor the read view reflects the mutation until the locked
        // pass actually runs it.
        let mut mutated = false;
        for op in ops {
            let sig = self.hasher.sign(op.key());
            let home = self.shard_of(sig);
            if home != shard {
                fast.push(Some(BatchReply::failed(op, KvError::WrongShard { shard, home })));
                continue;
            }
            let fill_version = match op {
                BatchOp::Get { key } if !mutated => match self.fast_get(shard, sig, key) {
                    FastGet::Done(result) => {
                        fast.push(Some(BatchReply::Get(result)));
                        continue;
                    }
                    FastGet::NeedsLock { fill_version } => fill_version,
                },
                BatchOp::Get { .. } | BatchOp::Exists { .. } => None,
                BatchOp::Put { .. } | BatchOp::Delete { .. } => {
                    mutated = true;
                    None
                }
            };
            fast.push(None);
            locked.push((op, fill_version));
        }
        // Each op was answered on the fast path or is in `locked`, whose
        // replies come back in order.
        let mut from_lock = self.run_locked(shard, &locked).into_iter();
        fast.into_iter().filter_map(|reply| reply.or_else(|| from_lock.next())).collect()
    }

    /// The no-shard-lock prefix of a get: cache probe, then a lock-free
    /// index walk. Both `get` and `submit_batch` start here.
    fn fast_get(&self, shard: usize, sig: KeySignature, key: &[u8]) -> FastGet {
        if key.is_empty() {
            // The locked path owns argument validation.
            return FastGet::NeedsLock { fill_version: None };
        }
        let fast = &self.fast[shard];
        let mut fill_version = None;
        if let Some(tier) = &self.cache {
            let (v1, lookup) = tier.probe(sig, key);
            match lookup {
                CacheLookup::Hit(value) => {
                    fast.record_cache_hit(value.len() as u64);
                    return FastGet::Done(Ok(Some(value)));
                }
                CacheLookup::Stale => fast.record_stale(),
                CacheLookup::Miss => {}
            }
            fill_version = Some(v1);
        }
        let Some(value) = fast.read(sig, key) else {
            return FastGet::NeedsLock { fill_version };
        };
        let result = Ok(value);
        self.admit_after_read(shard, sig, key, fill_version, &result);
        FastGet::Done(result)
    }

    /// The one path that runs commands under a shard lock. Each entry is
    /// an op and, for a get, the hot-cache fill version its probe saw
    /// before the lock (`None`: no fill). The ops run as one compound
    /// submission under one lock acquisition; then, with the lock
    /// released, an op that hit `DeviceFull` is retried after a
    /// device-wide GC sweep, and get hits are offered to the hot cache.
    fn run_locked(&self, shard: usize, ops: &[(&BatchOp, Option<u64>)]) -> Vec<BatchReply> {
        if ops.is_empty() {
            return Vec::new();
        }
        let mut replies = self.lock(shard).execute_batch(ops.iter().map(|&(op, _)| op));
        for (&(op, fill_version), reply) in ops.iter().zip(&mut replies) {
            if matches!(reply.err(), Some(KvError::DeviceFull)) {
                *reply = self.with_full_retry(shard, op);
            }
            if let (Some(_), BatchOp::Get { key }, BatchReply::Get(result)) =
                (fill_version, op, &*reply)
            {
                self.admit_after_read(shard, self.hasher.sign(key), key, fill_version, result);
            }
        }
        replies
    }

    /// Re-run `op`, which hit `DeviceFull` in the locked pass. A shard's
    /// collector can only reclaim blocks that shard leased, so when the
    /// pool runs dry the garbage may sit in *other* shards' blocks. Sweep
    /// every shard's collector (one at a time; the pool's GC permit
    /// serializes collection anyway), and re-run the op only when a sweep
    /// reclaimed anything, for as long as it still reports `DeviceFull`.
    /// Runs with no shard lock held, so the sweep can visit the op's own
    /// shard too.
    fn with_full_retry(&self, shard: usize, op: &BatchOp) -> BatchReply {
        loop {
            let mut reclaimed = false;
            for s in 0..self.shards.len() {
                match self.lock(s).collect_garbage() {
                    Ok(r) => reclaimed |= r,
                    Err(e) => return BatchReply::failed(op, e),
                }
            }
            if !reclaimed {
                return BatchReply::failed(op, KvError::DeviceFull);
            }
            let reply = self.lock(shard).execute(op);
            if !matches!(reply.err(), Some(KvError::DeviceFull)) {
                return reply;
            }
        }
    }

    /// Step 3 of the cache fill protocol, shared by every read path.
    fn admit_after_read(
        &self,
        shard: usize,
        sig: KeySignature,
        key: &[u8],
        fill_version: Option<u64>,
        result: &Result<Option<Bytes>>,
    ) {
        let (Some(tier), Some(v1), Ok(Some(value))) = (&self.cache, fill_version, result) else {
            return;
        };
        if let Some(report) = tier.try_admit(sig, key, value, v1) {
            self.fast[shard].record_admit(report);
        }
    }

    /// Flush every shard (shutdown / checkpoint).
    pub fn flush(&self) -> Result<()> {
        for shard in 0..self.shards.len() {
            self.lock(shard).flush()?;
        }
        Ok(())
    }

    /// Every metric the device publishes, read now from the stats its
    /// layers keep — with or without a telemetry sink:
    ///
    /// * counters `kvssd_{puts,gets,deletes,exists,maintenance_steps}`
    ///   (commands attempted, as [`DeviceStats`] counts them), `nand_*`,
    ///   `ftl_gc_*`, `rhik_*` and, with a hot cache, `hot_cache_*`;
    /// * histograms `{put,get,delete}_latency_ns` (device time);
    /// * gauges `shard{i}_{queue_depth,index_occupancy,
    ///   migration_slots_done,migration_slots_total}` and, with a hot
    ///   cache, `hot_cache_{bytes,entries}`.
    pub fn metrics(&self) -> MetricSnapshot {
        let mut m = MetricsReader::default();
        for (shard, fast) in self.fast.iter().enumerate() {
            m.add_shard(shard, &self.lock(shard));
            m.histogram(
                "get_latency_ns",
                &fast.latencies.lock().unwrap_or_else(|p| p.into_inner()),
            );
        }
        m.finish(self.stats(), self.hot_cache_stats())
    }

    /// The flash reads each index lookup needed so far, summed over the
    /// shards' per-lookup histograms. Gets answered in front of the lock
    /// ran no index lookup and are not in it.
    pub fn reads_per_lookup(&self) -> ReadsPerLookup {
        let mut histo = [0; 16];
        for shard in 0..self.shards.len() {
            let dev = self.lock(shard);
            for (total, n) in histo.iter_mut().zip(dev.index().stats().reads_per_lookup_histo) {
                *total += n;
            }
        }
        ReadsPerLookup::from_histo(histo)
    }

    /// Device-wide stats: field-wise sum over shards.
    pub fn stats(&self) -> DeviceStats {
        let mut total = DeviceStats::default();
        for shard in 0..self.shards.len() {
            total.merge(&self.shard_stats(shard));
        }
        total
    }

    /// Stats of one shard (diagnostics, load-balance analysis). Gets
    /// answered in front of the lock are folded in, so per-shard and
    /// device-wide views both cover every command.
    pub fn shard_stats(&self, shard: usize) -> DeviceStats {
        let mut stats = self.lock(shard).stats();
        let fast = &self.fast[shard];
        stats.gets += fast.gets.get() + fast.cache_hits.get();
        stats.not_found += fast.not_found.get();
        stats.bytes_read += fast.bytes_read.get() + fast.cache_bytes.get();
        stats
    }

    /// Hot-object cache counters and occupancy; `None` when the cache
    /// tier is disabled.
    pub fn hot_cache_stats(&self) -> Option<rhik_hotcache::CacheStats> {
        self.cache.as_ref().map(|tier| tier.cache.stats())
    }

    /// Aggregated lock-free read-path counters over every shard.
    pub fn lockfree_read_stats(&self) -> LockfreeReadStats {
        let mut total = LockfreeReadStats::default();
        for fast in self.fast.iter() {
            total.gets += fast.gets.get();
            total.hits += fast.hits.get();
            total.not_found += fast.not_found.get();
            total.fallbacks += fast.fallbacks.get();
            total.pages_read += fast.pages_read.get();
            total.bytes_read += fast.bytes_read.get();
        }
        total
    }

    pub fn key_count(&self) -> u64 {
        (0..self.shards.len()).map(|s| self.lock(s).key_count()).sum()
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn shard_bits(&self) -> u32 {
        self.shard_bits
    }

    /// The shared free-block pool (capacity diagnostics).
    pub fn pool(&self) -> &FlashPool {
        &self.pool
    }

    /// Simulated device time since power-on. Shard queues run in
    /// parallel on the modeled hardware, so the device is done when its
    /// *slowest* shard is — the max over per-shard clocks. (Compare: a
    /// single queue accrues every command on one clock.)
    pub fn device_elapsed_secs(&self) -> f64 {
        (0..self.shards.len())
            .map(|s| {
                // Lock-free reads bypass the timing engine; their media
                // time is accrued separately and charged to the shard's
                // clock serially (a conservative bound — on the modeled
                // hardware they could overlap queued commands).
                let lockfree = self.fast[s].read_ns.get() as f64 / 1e9;
                self.lock(s).elapsed_secs() + lockfree
            })
            .fold(0.0, f64::max)
    }

    /// Merged put-latency histogram across shards.
    pub fn put_latencies(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for shard in 0..self.shards.len() {
            h.merge(self.lock(shard).put_latencies());
        }
        h
    }

    /// Merged get-latency histogram across shards: locked-path gets, and
    /// gets answered in front of the lock.
    pub fn get_latencies(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for (shard, fast) in self.fast.iter().enumerate() {
            h.merge(self.lock(shard).get_latencies());
            h.merge(&fast.latencies.lock().unwrap_or_else(|p| p.into_inner()));
        }
        h
    }

    /// Run `f` with exclusive access to one shard's device (diagnostics,
    /// targeted fault injection, forcing a resize in tests).
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut KvssdDevice<I>) -> R) -> R {
        f(&mut self.lock(shard))
    }

    /// Install one span tracer across every shard. Shards share the
    /// sink's trace ring; spans are tagged with the shard id, so
    /// per-queue behaviour (resize stalls, cache traffic) stays
    /// distinguishable in the merged stream.
    pub fn set_telemetry(&self, sink: rhik_telemetry::TelemetrySink) {
        for (shard, fast) in self.fast.iter().enumerate() {
            self.lock(shard).set_telemetry_shard(sink.clone(), shard as u32);
            *fast.telemetry.lock().unwrap_or_else(|p| p.into_inner()) = sink.clone();
            fast.telemetry_on.set(u64::from(sink.is_enabled()));
        }
    }

    /// Whether any shard is mid-way through an incremental directory
    /// doubling.
    pub fn resize_in_progress(&self) -> bool {
        (0..self.shards.len()).any(|s| self.lock(s).resize_in_progress())
    }

    /// Run one bounded maintenance slice on every shard whose queue is
    /// idle right now (its mutex is uncontended). A host driver calls
    /// this between submissions so in-flight directory migrations drain
    /// on idle time instead of riding foreground commands. Returns how
    /// many shards made progress.
    pub fn maintain_idle(&self) -> Result<usize> {
        let mut progressed = 0;
        for shard in self.shards.iter() {
            // Never queue behind a command: busy shard ⇒ not idle ⇒ skip.
            let Ok(mut dev) = shard.try_lock() else { continue };
            if dev.maintain_step()? {
                progressed += 1;
            }
        }
        Ok(progressed)
    }
}

impl<I: IndexBackend + Send> std::fmt::Debug for ShardedKvssd<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedKvssd")
            .field("shards", &self.shards.len())
            .field("keys", &self.key_count())
            .field("pool", &self.pool)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::KvError;

    fn sharded(shards: u32) -> ShardedKvssd<RhikIndex> {
        ShardedKvssd::rhik(DeviceConfig::small().with_shards(shards))
    }

    #[test]
    fn roundtrip_across_shards() {
        let dev = sharded(4);
        assert_eq!(dev.shard_count(), 4);
        for i in 0..200u64 {
            let key = format!("key-{i:04}");
            dev.put(key.as_bytes(), format!("val-{i}").as_bytes()).unwrap();
        }
        for i in 0..200u64 {
            let key = format!("key-{i:04}");
            assert_eq!(
                &dev.get(key.as_bytes()).unwrap().unwrap()[..],
                format!("val-{i}").as_bytes()
            );
        }
        assert_eq!(dev.key_count(), 200);
        assert_eq!(dev.get(b"absent").unwrap(), None);
        dev.delete(b"key-0000").unwrap();
        assert_eq!(dev.get(b"key-0000").unwrap(), None);
        assert_eq!(dev.delete(b"key-0000").unwrap_err(), KvError::KeyNotFound);
    }

    #[test]
    fn keys_actually_spread_over_shards() {
        let dev = sharded(4);
        for i in 0..400u64 {
            dev.put(format!("spread-{i}").as_bytes(), b"v").unwrap();
        }
        let mut busy = 0;
        for s in 0..dev.shard_count() {
            if dev.shard_stats(s).puts > 0 {
                busy += 1;
            }
        }
        // 400 murmur-hashed keys over 4 shards: every shard sees traffic.
        assert_eq!(
            busy,
            4,
            "per-shard puts: {:?}",
            (0..4).map(|s| dev.shard_stats(s).puts).collect::<Vec<_>>()
        );
    }

    #[test]
    fn aggregate_stats_are_shard_sums() {
        let dev = sharded(2);
        for i in 0..100u64 {
            dev.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        for i in 0..100u64 {
            dev.get(format!("k{i}").as_bytes()).unwrap();
        }
        dev.get(b"missing").unwrap();
        let total = dev.stats();
        assert_eq!(total.puts, 100);
        assert_eq!(total.gets, 101);
        assert_eq!(total.not_found, 1);
        let mut summed = DeviceStats::default();
        for s in 0..dev.shard_count() {
            summed.merge(&dev.shard_stats(s));
        }
        assert_eq!(total, summed);
        assert_eq!(dev.put_latencies().count(), 100);
        assert_eq!(dev.get_latencies().count(), 101);
    }

    #[test]
    fn single_shard_matches_unsharded_results() {
        let dev = sharded(1);
        assert_eq!(dev.shard_bits(), 0);
        dev.put(b"k", b"v").unwrap();
        assert_eq!(&dev.get(b"k").unwrap().unwrap()[..], b"v");
        assert_eq!(dev.shard_of(KeySignature(u64::MAX)), 0);
    }

    #[test]
    fn routing_uses_high_bits() {
        let dev = sharded(4);
        assert_eq!(dev.shard_of(KeySignature(0)), 0);
        assert_eq!(dev.shard_of(KeySignature(1 << 62)), 1);
        assert_eq!(dev.shard_of(KeySignature(u64::MAX)), 3);
        // Low bits (directory selection) never influence the shard.
        assert_eq!(dev.shard_of(KeySignature(0xFFFF)), 0);
    }

    #[test]
    fn shards_share_one_flash_pool() {
        let dev = sharded(4);
        let before = dev.pool().free_blocks_raw();
        for i in 0..300u64 {
            dev.put(format!("fill-{i}").as_bytes(), &[0u8; 512]).unwrap();
        }
        dev.flush().unwrap();
        // Writing through any shard consumes device-wide capacity.
        assert!(dev.pool().free_blocks_raw() < before);
        assert_eq!(dev.pool().total_blocks(), DeviceConfig::small().geometry.blocks);
    }

    #[test]
    fn sharded_telemetry_tags_spans_per_shard() {
        let dev = sharded(4);
        let sink = rhik_telemetry::TelemetrySink::enabled();
        dev.set_telemetry(sink.clone());
        for i in 0..400u64 {
            dev.put(format!("obs-{i}").as_bytes(), b"v").unwrap();
            dev.get(format!("obs-{i}").as_bytes()).unwrap();
        }
        let spans = sink.spans();
        let shards_seen: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.shard).collect();
        assert!(shards_seen.len() > 1, "spans from one shard only: {shards_seen:?}");
    }

    #[test]
    fn metrics_sum_the_shards_and_gauge_each_one() {
        let dev = sharded(4);
        for i in 0..400u64 {
            dev.put(format!("obs-{i}").as_bytes(), b"v").unwrap();
            dev.get(format!("obs-{i}").as_bytes()).unwrap();
        }
        let m = dev.metrics();
        assert_eq!(m.counter("kvssd_puts"), 400);
        assert_eq!(m.counter("kvssd_gets"), 400);
        assert_eq!(m.histogram("get_latency_ns").map(|h| h.count()), Some(400));
        let programs: u64 =
            (0..4).map(|s| dev.with_shard(s, |d| d.ftl().nand_stats().page_programs)).sum();
        assert_eq!(m.counter("nand_page_programs"), programs);
        // Each shard's gauges, computed from its live state.
        for s in 0..4 {
            let occupancy =
                dev.with_shard(s, |d| d.key_count() as f64 / d.index().capacity().unwrap() as f64);
            assert_eq!(m.gauge(&format!("shard{s}_index_occupancy")), Some(occupancy));
            assert_eq!(m.gauge(&format!("shard{s}_queue_depth")), Some(0.0));
        }
        // No hot cache, no hot-cache metrics.
        assert_eq!(m.gauge("hot_cache_bytes"), None);
    }

    #[test]
    fn lockfree_gets_bypass_the_shard_locks() {
        let dev = sharded(4);
        for i in 0..300u64 {
            dev.put(format!("lf-{i:04}").as_bytes(), format!("value-{i}").as_bytes()).unwrap();
        }
        // Seal the write buffers so every head page is on flash: from
        // here on a quiet get must complete on the lock-free path.
        dev.flush().unwrap();
        let before = dev.lockfree_read_stats();
        for i in 0..300u64 {
            let got = dev.get(format!("lf-{i:04}").as_bytes()).unwrap().unwrap();
            assert_eq!(&got[..], format!("value-{i}").as_bytes());
        }
        assert_eq!(dev.get(b"lf-absent").unwrap(), None);
        let after = dev.lockfree_read_stats();
        assert_eq!(after.gets - before.gets, 301, "quiet gets must not fall back");
        assert_eq!(after.hits - before.hits, 300);
        assert_eq!(after.not_found - before.not_found, 1);
        assert_eq!(after.fallbacks, before.fallbacks);
        // The miss cost zero flash reads; the ≤1-read lookup bound means
        // page reads are bounded by hits (single-page values here).
        assert_eq!(after.pages_read - before.pages_read, 300);
        // Lock-free gets still land in the merged stats and histograms.
        let total = dev.stats();
        assert_eq!(total.gets, 301);
        assert_eq!(dev.get_latencies().count(), 301);
    }

    #[test]
    fn concurrent_puts_and_gets_stay_coherent() {
        let dev = sharded(4);
        for i in 0..64u64 {
            dev.put(format!("mix-{i:02}").as_bytes(), format!("seed-{i}").as_bytes()).unwrap();
        }
        std::thread::scope(|scope| {
            for t in 0..2 {
                let dev = dev.clone();
                scope.spawn(move || {
                    for i in 0..64u64 {
                        let key = format!("mix-{i:02}");
                        dev.put(key.as_bytes(), format!("w{t}-{i}").as_bytes()).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let dev = dev.clone();
                scope.spawn(move || {
                    for round in 0..128u64 {
                        let i = (round * 7) % 64;
                        let got = dev.get(format!("mix-{i:02}").as_bytes()).unwrap();
                        let got = got.expect("seeded key never deleted");
                        // Any of the three writers' values is coherent;
                        // a torn or stale-beyond-linearizable read is not.
                        let s = std::str::from_utf8(&got).unwrap();
                        assert!(
                            s == format!("seed-{i}") || s.ends_with(&format!("-{i}")),
                            "incoherent value for key {i}: {s:?}"
                        );
                    }
                });
            }
        });
        assert_eq!(dev.key_count(), 64);
        let mut auditor = rhik_audit::DeviceAuditor::new();
        let report = dev.audit(&mut auditor);
        assert!(report.is_ok(), "audit after concurrent load:\n{report}");
    }

    #[test]
    fn submit_batch_matches_single_op_semantics() {
        let dev =
            ShardedKvssd::rhik(DeviceConfig::small().with_shards(4).with_hot_cache(64 * 1024));
        for i in 0..120u64 {
            dev.put(format!("sb-{i:03}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        dev.flush().unwrap();
        // Assemble one mixed batch per shard, exactly as a front end would.
        let mut per_shard: Vec<Vec<BatchOp>> = vec![Vec::new(); dev.shard_count()];
        for i in 0..120u64 {
            let key = format!("sb-{i:03}").into_bytes();
            let shard = dev.shard_for_key(&key);
            let op = match i % 4 {
                0 => BatchOp::Get { key },
                1 => BatchOp::Put { key, value: format!("w{i}").into_bytes() },
                2 => BatchOp::Exists { key },
                _ => BatchOp::Delete { key },
            };
            per_shard[shard].push(op);
        }
        for (shard, ops) in per_shard.iter().enumerate() {
            let replies = dev.submit_batch(shard, ops);
            assert_eq!(replies.len(), ops.len());
            for (op, reply) in ops.iter().zip(&replies) {
                match (op, reply) {
                    (BatchOp::Get { key }, BatchReply::Get(Ok(Some(v)))) => {
                        let i: u64 = std::str::from_utf8(&key[3..6]).unwrap().parse().unwrap();
                        assert_eq!(&v[..], format!("v{i}").as_bytes());
                    }
                    (BatchOp::Put { .. }, BatchReply::Put(Ok(()))) => {}
                    (BatchOp::Exists { .. }, BatchReply::Exists(Ok(true))) => {}
                    (BatchOp::Delete { .. }, BatchReply::Delete(Ok(()))) => {}
                    other => panic!("unexpected batch outcome: {other:?}"),
                }
            }
        }
        // Post-batch reads see the batch's writes and deletes.
        for i in 0..120u64 {
            let got = dev.get(format!("sb-{i:03}").as_bytes()).unwrap();
            match i % 4 {
                1 => assert_eq!(&got.unwrap()[..], format!("w{i}").as_bytes()),
                3 => assert!(got.is_none(), "deleted key sb-{i:03} still present"),
                _ => assert_eq!(&got.unwrap()[..], format!("v{i}").as_bytes()),
            }
        }
        // Batched gets ride the lock-free read path, not the shard locks.
        assert!(dev.lockfree_read_stats().gets > 0);
        let mut auditor = rhik_audit::DeviceAuditor::new();
        let report = dev.audit(&mut auditor);
        assert!(report.is_ok(), "audit after batches:\n{report}");
    }

    #[test]
    fn submit_batch_get_observes_earlier_writes_in_same_batch() {
        // Read-your-writes inside one batch: a pipelined client that
        // sends SET then GET of the same key may land both in a single
        // submit_batch call. The GET must not ride the lock-free fast
        // path (or a stale cache entry) past the not-yet-executed PUT.
        let dev =
            ShardedKvssd::rhik(DeviceConfig::small().with_shards(2).with_hot_cache(64 * 1024));
        dev.put(b"ryw-warm", b"old").unwrap();
        // Admit the warm key into the hot cache so a stale hit is possible.
        assert_eq!(dev.get(b"ryw-warm").unwrap().as_deref(), Some(&b"old"[..]));
        assert_eq!(dev.get(b"ryw-warm").unwrap().as_deref(), Some(&b"old"[..]));

        let shard = dev.shard_for_key(b"ryw-warm");
        let mut fresh = b"ryw-fresh".to_vec();
        while dev.shard_for_key(&fresh) != shard {
            fresh.push(b'x');
        }
        let ops = [
            // Pre-mutation get: still eligible for the fast path.
            BatchOp::Get { key: b"ryw-warm".to_vec() },
            BatchOp::Put { key: b"ryw-warm".to_vec(), value: b"new".to_vec() },
            BatchOp::Get { key: b"ryw-warm".to_vec() },
            BatchOp::Put { key: fresh.clone(), value: b"first".to_vec() },
            BatchOp::Get { key: fresh.clone() },
            BatchOp::Exists { key: fresh.clone() },
            BatchOp::Delete { key: fresh.clone() },
            BatchOp::Get { key: fresh.clone() },
        ];
        let replies = dev.submit_batch(shard, &ops);
        match &replies[0] {
            BatchReply::Get(Ok(Some(v))) => assert_eq!(&v[..], b"old"),
            other => panic!("pre-mutation get: {other:?}"),
        }
        match &replies[2] {
            BatchReply::Get(Ok(Some(v))) => assert_eq!(&v[..], b"new", "get missed same-batch put"),
            other => panic!("get after put: {other:?}"),
        }
        match &replies[4] {
            BatchReply::Get(Ok(Some(v))) => assert_eq!(&v[..], b"first"),
            other => panic!("get after first-ever put: {other:?}"),
        }
        match &replies[5] {
            BatchReply::Exists(Ok(true)) => {}
            other => panic!("exists after put: {other:?}"),
        }
        match &replies[7] {
            BatchReply::Get(Ok(None)) => {}
            other => panic!("get after same-batch delete: {other:?}"),
        }
    }

    #[test]
    fn submit_batch_reports_per_op_errors_in_place() {
        let dev = sharded(2);
        dev.put(b"present", b"v").unwrap();
        let ops = [
            BatchOp::Get { key: b"present".to_vec() },
            BatchOp::Put { key: b"ok-1".to_vec(), value: b"v".to_vec() },
            BatchOp::Delete { key: b"absent".to_vec() },
            BatchOp::Put { key: b"".to_vec(), value: b"v".to_vec() },
            BatchOp::Get { key: b"missing".to_vec() },
            BatchOp::Put { key: b"ok-2".to_vec(), value: b"v".to_vec() },
        ];
        // Route each op through its own shard's queue like a server would,
        // one multi-op batch per shard; each reply must answer its own op.
        let mut answered = 0;
        for shard in 0..dev.shard_count() {
            let (idx, batch): (Vec<usize>, Vec<BatchOp>) = ops
                .iter()
                .enumerate()
                .filter(|(_, op)| dev.shard_for_key(op.key()) == shard)
                .map(|(i, op)| (i, op.clone()))
                .unzip();
            let replies = dev.submit_batch(shard, &batch);
            assert_eq!(replies.len(), batch.len());
            for (i, reply) in idx.into_iter().zip(&replies) {
                match (i, reply) {
                    (0, BatchReply::Get(Ok(Some(v)))) => assert_eq!(&v[..], b"v"),
                    (1 | 5, BatchReply::Put(Ok(()))) => {}
                    (2, BatchReply::Delete(Err(KvError::KeyNotFound))) => {}
                    (3, BatchReply::Put(Err(KvError::EmptyKey))) => {}
                    (4, BatchReply::Get(Ok(None))) => {}
                    other => panic!("unexpected reply: {other:?}"),
                }
                answered += 1;
            }
        }
        assert_eq!(answered, ops.len());
    }

    #[test]
    fn submit_batch_refuses_ops_routed_to_another_shard() {
        let dev = sharded(4);
        let key = b"misrouted".to_vec();
        let home = dev.shard_for_key(&key);
        let ops = [
            BatchOp::Put { key: key.clone(), value: b"v".to_vec() },
            BatchOp::Get { key: key.clone() },
            BatchOp::Exists { key: key.clone() },
            BatchOp::Delete { key: key.clone() },
        ];
        // A neighbouring shard's queue, and a shard that does not exist.
        for shard in [(home + 1) % 4, 4] {
            let wrong = KvError::WrongShard { shard, home };
            let expected = [
                BatchReply::Put(Err(wrong.clone())),
                BatchReply::Get(Err(wrong.clone())),
                BatchReply::Exists(Err(wrong.clone())),
                BatchReply::Delete(Err(wrong)),
            ];
            assert_eq!(dev.submit_batch(shard, &ops), expected);
        }
        // Nothing ran: no shard holds the key or counted a command.
        assert_eq!(dev.key_count(), 0);
        assert_eq!(dev.stats(), DeviceStats::default());
        assert_eq!(dev.get(&key).unwrap(), None);
        // The same batch at the key's own shard runs in full.
        let replies = dev.submit_batch(home, &ops[..2]);
        assert_eq!(replies[0], BatchReply::Put(Ok(())));
        assert!(matches!(&replies[1], BatchReply::Get(Ok(Some(v))) if &v[..] == b"v"));
    }

    /// Gets that end in the hot cache, on the lock-free path (hit and
    /// miss) and in the locked pass are each counted once, in every view
    /// of the device: stats, latency histogram, metrics, spans, and the
    /// cache / lock-free split.
    #[test]
    fn every_get_path_is_counted_once() {
        let dev =
            ShardedKvssd::rhik(DeviceConfig::small().with_shards(4).with_hot_cache(64 * 1024));
        let sink = rhik_telemetry::TelemetrySink::enabled();
        dev.set_telemetry(sink.clone());
        let value = |i: u64| format!("value-{i:03}").repeat(1 + i as usize % 3);
        // `flushed` keys have their head page on flash; `buffered` keys,
        // written after the flush, still sit in a shard's write buffer.
        let flushed: Vec<String> = (0..40).map(|i| format!("flushed-{i:03}")).collect();
        let buffered: Vec<String> = (0..12).map(|i| format!("buffered-{i:03}")).collect();
        for (i, key) in flushed.iter().enumerate() {
            dev.put(key.as_bytes(), value(i as u64).as_bytes()).unwrap();
        }
        dev.flush().unwrap();
        for (i, key) in buffered.iter().enumerate() {
            dev.put(key.as_bytes(), value(100 + i as u64).as_bytes()).unwrap();
        }
        let put_ops = dev.metrics();

        let mut gets = [0u64; 4];
        let mut bytes = [0u64; 4];
        let mut get = |key: &str, expect: Option<String>| {
            let got = dev.get(key.as_bytes()).unwrap();
            assert_eq!(got.as_deref(), expect.as_deref().map(str::as_bytes), "{key}");
            let shard = dev.shard_for_key(key.as_bytes());
            gets[shard] += 1;
            bytes[shard] += got.map_or(0, |v| v.len() as u64);
        };
        // Locked pass: the head is in the write buffer, so the lock-free
        // read falls back (and the locked hit fills the cache).
        for (i, key) in buffered.iter().enumerate() {
            get(key, Some(value(100 + i as u64)));
        }
        // Lock-free hits (each fills the cache), then cache hits.
        for _ in 0..2 {
            for (i, key) in flushed.iter().enumerate() {
                get(key, Some(value(i as u64)));
            }
        }
        // Lock-free misses: zero flash reads, straight from the view.
        for i in 0..20 {
            get(&format!("absent-{i:03}"), None);
        }

        let (locked, lockfree_hits, cache_hits, misses) = (12, 40, 40, 20);
        let issued = locked + lockfree_hits + cache_hits + misses;
        assert_eq!(gets.iter().sum::<u64>(), issued);
        let total = dev.stats();
        assert_eq!(total.gets, issued);
        assert_eq!(total.bytes_read, bytes.iter().sum::<u64>());
        assert_eq!(total.not_found, misses);
        assert_eq!(dev.get_latencies().count(), issued);
        let snap = dev.metrics().since(&put_ops);
        assert_eq!(snap.counter("kvssd_gets"), issued);
        assert_eq!(snap.histogram("get_latency_ns").map(|h| h.count()), Some(issued));
        let spans = sink.spans();
        for shard in 0..4 {
            let stats = dev.shard_stats(shard);
            assert_eq!(stats.gets, gets[shard], "shard {shard} gets");
            assert_eq!(stats.bytes_read, bytes[shard], "shard {shard} bytes");
            // Get spans of completed ops: the cache's stale / admit /
            // evict events are spans of their own.
            let cache_event = |e: &StageEvent| {
                matches!(e.stage, Stage::CacheStale | Stage::CacheAdmit | Stage::CacheEvict)
            };
            let traced = spans
                .iter()
                .filter(|s| s.kind == OpKind::Get && s.shard == shard as u32)
                .filter(|s| !s.stages.iter().any(cache_event))
                .count() as u64;
            assert_eq!(traced, gets[shard], "shard {shard} get spans");
        }
        let lockfree = dev.lockfree_read_stats();
        assert_eq!(lockfree.gets, lockfree_hits + misses);
        assert_eq!(lockfree.hits, lockfree_hits);
        assert_eq!(lockfree.not_found, misses);
        assert_eq!(lockfree.fallbacks, locked);
        let cache = dev.hot_cache_stats().expect("cache enabled");
        assert_eq!(cache.lookups, issued);
        assert_eq!(cache.hits, cache_hits);
        assert_eq!(snap.counter("hot_cache_hits"), cache_hits);
    }

    #[test]
    fn exist_routes_like_get() {
        let dev = sharded(4);
        dev.put(b"present", b"v").unwrap();
        assert!(dev.exist(b"present").unwrap());
        assert!(!dev.exist(b"absent-key").unwrap());
    }

    #[test]
    fn sharded_audit_stays_clean_under_load() {
        let dev = sharded(4);
        let sink = rhik_telemetry::TelemetrySink::enabled();
        dev.set_telemetry(sink);
        let mut auditor = rhik_audit::DeviceAuditor::new();
        for i in 0..600u64 {
            dev.put(format!("audit-{i:04}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
            if i % 3 == 0 {
                dev.get(format!("audit-{i:04}").as_bytes()).unwrap();
            }
            if i % 7 == 0 && i > 0 {
                let _ = dev.delete(format!("audit-{:04}", i - 7).as_bytes());
            }
            if i % 50 == 0 {
                let report = dev.audit(&mut auditor);
                assert!(report.is_ok(), "audit after op {i}:\n{report}");
            }
        }
        dev.flush().unwrap();
        let report = dev.audit(&mut auditor);
        assert!(report.is_ok(), "final audit:\n{report}");
    }

    #[test]
    fn audit_joins_the_read_view_against_the_index() {
        let dev = sharded(2);
        for i in 0..50u64 {
            dev.put(format!("view-{i:02}").as_bytes(), b"v").unwrap();
        }
        assert!(dev.audit(&mut rhik_audit::DeviceAuditor::new()).is_ok());
        let sig = dev.hasher.sign(b"view-07");
        let shard = dev.shard_of(sig);
        let head = dev.with_shard(shard, |d| d.locate(b"view-07")).unwrap().expect("indexed");
        let diverged = |view: Option<Ppa>| {
            vec![rhik_audit::InvariantViolation::ReadViewDiverged {
                shard: shard as u32,
                sig: sig.0,
                view: view.map(|p| (p.block, p.page)),
                index: Some((head.block, head.page)),
            }]
        };
        // A view entry pointing at another head page.
        let wrong = Ppa::new(head.block + 1, head.page);
        dev.fast[shard].view.upsert(sig.0, wrong);
        assert_eq!(
            dev.audit(&mut rhik_audit::DeviceAuditor::new()).violations,
            diverged(Some(wrong))
        );
        // A missing one.
        dev.fast[shard].view.remove(sig.0);
        assert_eq!(dev.audit(&mut rhik_audit::DeviceAuditor::new()).violations, diverged(None));
    }

    #[test]
    fn hot_cache_hits_skip_flash_and_stay_coherent() {
        let dev =
            ShardedKvssd::rhik(DeviceConfig::small().with_shards(4).with_hot_cache(128 * 1024));
        for i in 0..100u64 {
            dev.put(format!("hc-{i:03}").as_bytes(), format!("v0-{i}").as_bytes()).unwrap();
        }
        dev.flush().unwrap();
        // Pass 1 fills, pass 2 hits DRAM.
        for _ in 0..2 {
            for i in 0..100u64 {
                let got = dev.get(format!("hc-{i:03}").as_bytes()).unwrap().unwrap();
                assert_eq!(&got[..], format!("v0-{i}").as_bytes());
            }
        }
        let stats = dev.hot_cache_stats().expect("cache enabled");
        assert!(stats.admits > 0, "pass 1 should admit: {stats:?}");
        assert_eq!(stats.hits, 100, "pass 2 should be all hits: {stats:?}");
        let m = dev.metrics();
        assert_eq!(m.counter("hot_cache_hits"), 100);
        assert_eq!(m.counter("kvssd_gets"), 200, "hits still count as gets");
        assert!(stats.bytes > 0);
        assert_eq!(m.gauge("hot_cache_bytes"), Some(stats.bytes as f64));
        assert_eq!(m.gauge("hot_cache_entries"), Some(stats.entries as f64));

        // Every mutation invalidates its cached entry.
        for i in 0..100u64 {
            let key = format!("hc-{i:03}");
            if i % 2 == 0 {
                dev.put(key.as_bytes(), format!("v1-{i}").as_bytes()).unwrap();
            } else {
                dev.delete(key.as_bytes()).unwrap();
            }
        }
        for i in 0..100u64 {
            let got = dev.get(format!("hc-{i:03}").as_bytes()).unwrap();
            if i % 2 == 0 {
                assert_eq!(&got.unwrap()[..], format!("v1-{i}").as_bytes());
            } else {
                assert!(got.is_none(), "deleted key hc-{i:03} resurrected from cache");
            }
        }
        // Cache hits fold into aggregate and per-shard stats identically.
        let total = dev.stats();
        let summed: u64 = (0..dev.shard_count()).map(|s| dev.shard_stats(s).gets).sum();
        assert_eq!(total.gets, summed);
        // The audit's cache↔index coherence pass sees only clean entries.
        let mut auditor = rhik_audit::DeviceAuditor::new();
        let report = dev.audit(&mut auditor);
        assert!(report.is_ok(), "coherence audit:\n{report}");
    }

    #[test]
    fn device_full_sweeps_every_shard_before_rerunning() {
        // Shard 1 leaves its leased blocks full of stale data; then only
        // shard 0 writes. Shard 0's collector cannot reach that garbage,
        // so its fresh writes ride on the device-wide sweep.
        let dev = sharded(2);
        let value = vec![5u8; 8 * 1024];
        let dev = &dev;
        let keys_of = |shard: usize, tag: &'static str| {
            (0u64..)
                .map(move |i| format!("{tag}-{i:06}"))
                .filter(move |k| dev.shard_for_key(k.as_bytes()) == shard)
        };
        let hot: Vec<String> = keys_of(1, "hot").take(40).collect();
        'churn: loop {
            for key in &hot {
                if dev.pool().free_blocks() <= 8 {
                    break 'churn;
                }
                dev.put(key.as_bytes(), &value).unwrap();
            }
        }
        let free_before = dev.pool().free_blocks() as u64;
        let shard1 = dev.shard_stats(1);

        let (mut issued, mut stored, mut full) = (0u64, 0u64, false);
        for key in keys_of(0, "fresh").take(20_000) {
            issued += 1;
            match dev.put(key.as_bytes(), &value) {
                Ok(()) => stored += 1,
                Err(KvError::DeviceFull) => {
                    full = true;
                    break;
                }
                Err(e) => panic!("put {key}: {e}"),
            }
        }
        assert!(full, "the device never filled");
        assert_eq!(dev.shard_stats(1).puts, shard1.puts, "shard 1 got no command");
        let sweeps = dev.shard_stats(1).gc_invocations - shard1.gc_invocations;
        assert!(sweeps > 0, "no sweep ran");
        // The sweep carried the writes: far more fresh data landed than
        // the pool had free when shard 0 started.
        let block_bytes = 64 * 4096;
        assert!(
            stored * value.len() as u64 > 2 * free_before * block_bytes,
            "{stored} puts of 8 KiB against {free_before} free blocks"
        );
        // Each reclaiming sweep re-ran the op once; the last sweep
        // reclaimed nothing and the op failed `DeviceFull`.
        assert_eq!(dev.shard_stats(0).puts, issued + sweeps - 1);
        let report = dev.audit(&mut rhik_audit::DeviceAuditor::new());
        assert!(report.is_ok(), "audit after the sweep:\n{report}");
    }
}
