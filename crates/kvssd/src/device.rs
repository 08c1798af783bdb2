//! The KVSSD device: the five vendor commands over a pluggable index.

use bytes::Bytes;
use rhik_baseline::{LsmConfig, LsmIndex, MultiLevelConfig, MultiLevelIndex};
use rhik_core::RhikIndex;
use rhik_ftl::layout::Pair;
use rhik_ftl::{gc, Ftl, FtlError, GcConfig, IndexBackend, WrittenExtent};
use rhik_nand::Ppa;
use rhik_sigs::{KeySignature, SigHasher};
use rhik_telemetry::{OpKind, OpSpan, Stage, StageEvent, TelemetrySink};

use crate::config::DeviceConfig;
use crate::engine::TimingEngine;
use crate::error::KvError;
use crate::Result;

/// Device-level cumulative statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    pub puts: u64,
    pub gets: u64,
    pub deletes: u64,
    pub exists: u64,
    pub iterates: u64,
    pub not_found: u64,
    /// Signature collisions rejected at the device boundary (§VI).
    pub collisions: u64,
    /// Record-layer insert aborts surfaced to the host.
    pub rejected: u64,
    /// Logical bytes accepted from the host (keys + values).
    pub bytes_written: u64,
    /// Logical bytes returned to the host.
    pub bytes_read: u64,
    /// GC invocations triggered by commands.
    pub gc_invocations: u64,
    /// Completed index resizes (stall events).
    pub resizes: u64,
    /// Idle-time maintenance slices that advanced a migration.
    pub maintenance_steps: u64,
}

impl DeviceStats {
    /// Fold another counter set into this one (field-wise sum). Used to
    /// aggregate per-shard stats into a device-wide view.
    pub fn merge(&mut self, other: &DeviceStats) {
        let DeviceStats {
            puts,
            gets,
            deletes,
            exists,
            iterates,
            not_found,
            collisions,
            rejected,
            bytes_written,
            bytes_read,
            gc_invocations,
            resizes,
            maintenance_steps,
        } = other;
        self.puts += puts;
        self.gets += gets;
        self.deletes += deletes;
        self.exists += exists;
        self.iterates += iterates;
        self.not_found += not_found;
        self.collisions += collisions;
        self.rejected += rejected;
        self.bytes_written += bytes_written;
        self.bytes_read += bytes_read;
        self.gc_invocations += gc_invocations;
        self.resizes += resizes;
        self.maintenance_steps += maintenance_steps;
    }
}

/// Result of an `exist` command on one key (§IV-A3: probabilistic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExistReport {
    /// The signature-only answer the device returns fast.
    pub probably_exists: bool,
    /// Flash reads the check needed (0 when answered from DRAM).
    pub flash_reads: u64,
}

/// What the §IV exist-check found under a key's signature.
enum Stored<T> {
    /// No pair is indexed under the signature.
    Absent,
    /// The indexed pair belongs to a different key (signature collision).
    OtherKey,
    /// The key's own pair: its on-flash extent, and what the caller
    /// copied out of it.
    Pair(WrittenExtent, T),
}

/// Pre-command cache/lookup counters, snapshotted only while a telemetry
/// sink is live; diffed at command end to synthesize span stage events.
struct OpSnapshot {
    cache_hits: u64,
    cache_misses: u64,
    lookup_histo: [u64; 16],
}

/// A KVSSD with a pluggable index scheme.
pub struct KvssdDevice<I: IndexBackend> {
    pub(crate) ftl: Ftl,
    index: I,
    hasher: SigHasher,
    engine: TimingEngine,
    gc_cfg: GcConfig,
    stats: DeviceStats,
    /// Open iterator sessions (slot-indexed; `None` = free slot).
    pub(crate) iter_sessions: Vec<Option<crate::cmd::IterSession>>,
    /// Per-command-class latency (puts / gets / deletes), for tail
    /// analysis.
    put_latencies: crate::LatencyHistogram,
    get_latencies: crate::LatencyHistogram,
    delete_latencies: crate::LatencyHistogram,
    /// Span tracer (disabled by default: one branch per command).
    telemetry: TelemetrySink,
    /// Shard id stamped into op spans (0 for an unsharded device).
    shard_id: u32,
}

impl KvssdDevice<RhikIndex> {
    /// Build a device around the RHIK index (the paper's system).
    pub fn rhik(cfg: DeviceConfig) -> Self {
        let index = RhikIndex::new(cfg.rhik, cfg.geometry.page_size);
        Self::with_index(cfg, index)
    }

    /// Re-mount a device from surviving flash state after a power loss
    /// (pair with [`rhik_ftl::Ftl::simulate_power_loss`] +
    /// [`KvssdDevice::into_parts`]). The RHIK index is rebuilt from its
    /// on-flash directory snapshot; anything indexed after the last
    /// metadata flush is lost.
    pub fn recover_rhik(cfg: DeviceConfig, mut ftl: Ftl) -> Result<Self> {
        let index = RhikIndex::recover(cfg.rhik, &mut ftl)?;
        Ok(Self::with_index_and_ftl(cfg, ftl, index))
    }

    /// Raw material for the cross-layer invariant auditor: the FTL's flash
    /// accounting and the index's ownership claims. Read-only: charges no
    /// flash reads and perturbs no statistics. Call between commands.
    pub fn audit_parts(&self) -> (rhik_audit::FlashAudit, rhik_audit::IndexAuditSnapshot) {
        let flash = self.ftl.audit_flash(self.shard_id);
        let index = self.index.audit_snapshot(&self.ftl, self.shard_id);
        (flash, index)
    }

    /// Run the full cross-layer audit on this device's current state.
    /// `auditor` carries cursor watermarks across calls, so repeated
    /// audits additionally verify migration-cursor monotonicity.
    pub fn audit(&self, auditor: &mut rhik_audit::DeviceAuditor) -> rhik_audit::AuditReport {
        let (flash, index) = self.audit_parts();
        auditor.check_device(&flash, &index)
    }
}

impl KvssdDevice<MultiLevelIndex> {
    /// Build a device around the Samsung-style multi-level hash baseline
    /// (with `max_levels: 1`, the NVMKV-style fixed hash table).
    pub fn multilevel(cfg: DeviceConfig, ml: MultiLevelConfig) -> Self {
        let index = MultiLevelIndex::new(ml, cfg.geometry.page_size);
        Self::with_index(cfg, index)
    }
}

impl KvssdDevice<LsmIndex> {
    /// Build a device around the PinK-style LSM baseline.
    pub fn lsm(cfg: DeviceConfig, lsm: LsmConfig) -> Self {
        Self::with_index(cfg, LsmIndex::new(lsm))
    }
}

impl<I: IndexBackend> KvssdDevice<I> {
    /// Build a device around any index implementation.
    pub fn with_index(cfg: DeviceConfig, index: I) -> Self {
        Self::with_index_and_ftl(cfg, Ftl::new(cfg.ftl_config()), index)
    }

    /// Build a device around a pre-built FTL and any index. This is how a
    /// sharded device installs per-shard FTL front-ends that lease erase
    /// blocks from one shared [`rhik_ftl::FlashPool`]
    /// (see [`rhik_ftl::Ftl::with_pool`]).
    pub fn with_index_and_ftl(cfg: DeviceConfig, ftl: Ftl, index: I) -> Self {
        let engine = TimingEngine::new(cfg.engine, cfg.profile, cfg.geometry.channels);
        KvssdDevice {
            ftl,
            index,
            hasher: cfg.hasher,
            engine,
            gc_cfg: cfg.gc,
            stats: DeviceStats::default(),
            // bounded-by: one slot per concurrently open iterator
            // session; closed slots are reused before the vec grows.
            iter_sessions: Vec::new(),
            put_latencies: crate::LatencyHistogram::new(),
            get_latencies: crate::LatencyHistogram::new(),
            delete_latencies: crate::LatencyHistogram::new(),
            telemetry: TelemetrySink::disabled(),
            shard_id: 0,
        }
    }

    // ------------------------------------------------------------ plumbing

    pub fn stats(&self) -> DeviceStats {
        let mut s = self.stats;
        // Resizes complete inside index operations or idle-time steps; the
        // index's event log is the single source of truth.
        s.resizes = self.index.stats().resizes.len() as u64;
        s
    }

    pub fn index(&self) -> &I {
        &self.index
    }

    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Mutable FTL access for tests (fault injection, cache inspection).
    pub fn ftl_mut(&mut self) -> &mut Ftl {
        &mut self.ftl
    }

    pub fn engine(&self) -> &TimingEngine {
        &self.engine
    }

    /// A cloneable handle that reads record pages through the narrow
    /// media lock, bypassing this device's command mutex (the sharded
    /// lock-free get path).
    pub fn media_reader(&self) -> rhik_ftl::MediaReader {
        self.ftl.media_reader()
    }

    /// Install a span tracer (shard id 0). With an enabled sink the FTL
    /// logs the stage every media op serves, so each command's span
    /// attributes its device time — cache traffic, flash, GC and resize
    /// batches included.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.set_telemetry_shard(sink, 0);
    }

    /// Install a span tracer with an explicit shard id (used by
    /// [`crate::ShardedKvssd`]; spans are tagged per shard).
    pub fn set_telemetry_shard(&mut self, sink: TelemetrySink, shard: u32) {
        self.shard_id = shard;
        self.ftl.set_stage_log(sink.is_enabled());
        self.telemetry = sink;
    }

    /// Every metric this device publishes, read now from the stats its
    /// layers keep (see [`crate::ShardedKvssd::metrics`] for the names).
    /// Needs no telemetry sink.
    pub fn metrics(&self) -> rhik_telemetry::MetricSnapshot {
        let mut m = crate::metrics::MetricsReader::default();
        m.add_shard(self.shard_id as usize, self);
        m.finish(self.stats(), None)
    }

    /// The flash reads each index lookup needed so far, from the index's
    /// own per-lookup histogram.
    pub fn reads_per_lookup(&self) -> rhik_telemetry::ReadsPerLookup {
        rhik_telemetry::ReadsPerLookup::from_histo(self.index.stats().reads_per_lookup_histo)
    }

    /// Keys currently stored.
    pub fn key_count(&self) -> u64 {
        self.index.len()
    }

    /// Live payload bytes / raw capacity.
    pub fn utilization(&self) -> f64 {
        self.ftl.utilization()
    }

    /// Simulated seconds since power-on.
    pub fn elapsed_secs(&self) -> f64 {
        self.engine.elapsed_secs()
    }

    fn sign(&self, key: &[u8]) -> KeySignature {
        self.hasher.sign(key)
    }

    /// Drain media ops to the timing engine, charging `host_bytes` of host
    /// transfer to this command.
    pub(crate) fn settle(&mut self, host_bytes: u64) -> crate::CommandTiming {
        self.engine.account(self.ftl.drain_timed_ops().as_slice(), host_bytes)
    }

    // ---------------------------------------------------------- telemetry

    /// Begin an op span: discard stage events left over from failed
    /// commands or out-of-band maintenance, and snapshot the counters the
    /// span will be diffed against. Returns `None` (one branch, no work)
    /// when telemetry is disabled.
    fn span_begin(&mut self) -> Option<OpSnapshot> {
        if !self.telemetry.is_enabled() {
            return None;
        }
        self.ftl.drain_stage_log();
        let cache = self.ftl.cache_ref().stats();
        Some(OpSnapshot {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            lookup_histo: self.index.stats().reads_per_lookup_histo,
        })
    }

    /// Finish an op span: drain the media stage events the FTL staged for
    /// this command, synthesize cache events from counter diffs, and
    /// record the span.
    fn span_finish(
        &mut self,
        snap: Option<OpSnapshot>,
        kind: OpKind,
        timing: crate::CommandTiming,
    ) {
        let Some(snap) = snap else { return };
        let mut stages = self.ftl.drain_stage_log();
        let cache = self.ftl.cache_ref().stats();
        let hits = cache.hits - snap.cache_hits;
        let misses = cache.misses - snap.cache_misses;
        if hits > 0 {
            stages.push(StageEvent { stage: Stage::CacheHit, count: hits as u32, dur_ns: 0 });
        }
        if misses > 0 {
            stages.push(StageEvent { stage: Stage::CacheMiss, count: misses as u32, dur_ns: 0 });
        }

        // Flash reads this get's index lookup needed, taken from the
        // index's own per-lookup distribution rather than raw FTL read
        // counters — migration-batch reads are excluded, so the ≤ 1-read
        // invariant stays measurable mid-resize. A GC retry can record
        // more than one lookup; the highest changed bucket is the
        // worst case this command saw.
        let histo = &self.index.stats().reads_per_lookup_histo;
        let lookup_flash_reads = match kind {
            OpKind::Get => (0..histo.len()).rev().find(|&i| histo[i] > snap.lookup_histo[i]),
            _ => None,
        };
        self.telemetry.record_span(OpSpan {
            kind,
            shard: self.shard_id,
            submitted_ns: timing.submitted_ns,
            completed_ns: timing.completed_ns,
            lookup_flash_reads: lookup_flash_reads.unwrap_or(0) as u64,
            stages,
        });
    }

    /// Latency distribution of `put` commands (includes resize stalls).
    pub fn put_latencies(&self) -> &crate::LatencyHistogram {
        &self.put_latencies
    }

    /// Latency distribution of `get` commands.
    pub fn get_latencies(&self) -> &crate::LatencyHistogram {
        &self.get_latencies
    }

    /// Latency distribution of `delete` commands.
    pub fn delete_latencies(&self) -> &crate::LatencyHistogram {
        &self.delete_latencies
    }

    /// Run one garbage-collection pass now. Returns whether any block was
    /// reclaimed. Besides the device's own out-of-space handling, the
    /// sharded router's device-wide sweep calls this: a shard only
    /// collects its own leased blocks, so when one shard exhausts the
    /// shared pool, garbage held by *other* shards is reachable only
    /// through their collectors.
    pub fn collect_garbage(&mut self) -> Result<bool> {
        self.stats.gc_invocations += 1;
        match gc::run(&mut self.ftl, &mut self.index, &self.gc_cfg) {
            Ok(report) => Ok(report.data_blocks_erased + report.index_blocks_erased > 0),
            // Collection itself ran out of scratch blocks mid-relocation
            // and aborted (consistently — the victim was not erased).
            // That is "nothing reclaimed", not a command failure.
            Err(FtlError::NeedsGc) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }

    /// Run `op` against the FTL and index; while it reports `NeedsGc`,
    /// collect and retry as long as that is worthwhile — either our own
    /// collection reclaimed blocks, or (sharded mode) another shard
    /// refilled the shared pool while we waited on the GC permit. Then
    /// the command fails `DeviceFull`. Index reads are covered too: a
    /// lookup can allocate when it displaces a dirty cached index page.
    fn with_gc<T>(
        &mut self,
        mut op: impl FnMut(&mut Ftl, &mut I) -> std::result::Result<T, FtlError>,
    ) -> Result<T> {
        loop {
            let result = op(&mut self.ftl, &mut self.index);
            let retry = matches!(result, Err(FtlError::NeedsGc))
                && (self.collect_garbage()? || self.ftl.free_blocks() > 0);
            if !retry {
                return Ok(result?);
            }
        }
    }

    /// Hold the submission queue for the media time the FTL ran since the
    /// last drain (background work no command's own timing covers).
    fn stall_queue(&mut self) {
        let stall: u64 = self.ftl.drain_timed_ops().map(|o| o.duration_ns).sum();
        self.engine.stall_until(self.engine.now_ns() + stall);
    }

    /// Whether the index is mid-way through an incremental directory
    /// doubling (old and new directories both live, cursor advancing).
    pub fn resize_in_progress(&self) -> bool {
        self.index.migration_progress().is_some()
    }

    /// Run one bounded slice of background index maintenance — the idle-time
    /// half of the incremental resize (§IV-A2 amortized). Call it when the
    /// submission queue is empty; each call migrates at most
    /// `resize_migration_batch` directory slots. Returns `true` when it did
    /// useful work (callers can loop until `false` to drain a migration).
    ///
    /// Media time is charged to the simulated clock as an idle-period stall,
    /// not to any command's latency — that is the whole point of moving the
    /// work off the foreground path.
    pub fn maintain_step(&mut self) -> Result<bool> {
        let snap = self.span_begin();
        let submitted_ns = self.engine.now_ns();
        let progressed = self.index.maintain_step(&mut self.ftl)?;
        self.stall_queue();
        if progressed {
            self.stats.maintenance_steps += 1;
            let timing = crate::CommandTiming { submitted_ns, completed_ns: self.engine.now_ns() };
            self.span_finish(snap, OpKind::Maintenance, timing);
        }
        Ok(progressed)
    }

    /// The value stored at `head` for `key`, read for the auditor without
    /// charging a flash read: `Some(None)` when the page holds no pair of
    /// `key` under `sig`, `None` when a page of it is not programmed.
    pub(crate) fn peek_value(
        &self,
        sig: KeySignature,
        head: Ppa,
        key: &[u8],
    ) -> Option<Option<Vec<u8>>> {
        let page = self.ftl.peek_head(head)?;
        let Some(pair) = self.ftl.find_pair(&page, sig).filter(|pair| pair.key == key) else {
            return Some(None);
        };
        let value =
            pair.value().read_body(|ppa| self.ftl.peek_page(ppa).map(|(page, _)| page).ok_or(()));
        value.ok().map(|value| Some(value.to_vec()))
    }

    /// §IV's exist-check with full-key verification, the one every locked
    /// command reads through: look `sig` up, garbage-collecting if the
    /// lookup needs blocks, borrow its pair from the head page — the write
    /// buffer's open page in place, or a sealed page read off flash — and
    /// compare the stored key with `key` where it lies. `copy` takes what
    /// the caller returns out of the pair (a get: [`Pair::value`], whose
    /// body the caller then reads); nothing else is copied or read.
    fn stored<T>(
        &mut self,
        sig: KeySignature,
        key: &[u8],
        copy: impl FnOnce(&Pair<'_>) -> T,
    ) -> Result<Stored<T>> {
        let Some(head) = self.with_gc(|ftl, index| index.lookup(ftl, sig))? else {
            return Ok(Stored::Absent);
        };
        let page = self.ftl.read_head(head)?;
        Ok(match self.ftl.find_pair(&page, sig) {
            None => Stored::Absent,
            Some(pair) if pair.key != key => Stored::OtherKey,
            Some(pair) => {
                Stored::Pair(pair.extent(head, self.ftl.geometry().page_size), copy(&pair))
            }
        })
    }

    // ------------------------------------------------------------ commands

    /// The frame every single-key command runs in: reject an empty key,
    /// count the command, open its span, sign the key and run `body`,
    /// which returns its reply and the payload bytes it moved besides the
    /// key. The command's media time settles once, whether `body`
    /// succeeded or not. A successful mutation then collects garbage if
    /// free blocks fell below the low watermark; that collection's media
    /// time settles with the next command.
    fn command<T>(
        &mut self,
        kind: OpKind,
        key: &[u8],
        body: impl FnOnce(&mut Self, KeySignature) -> Result<(T, u64)>,
    ) -> Result<T> {
        if key.is_empty() {
            return Err(KvError::EmptyKey);
        }
        match kind {
            OpKind::Put => self.stats.puts += 1,
            OpKind::Get => self.stats.gets += 1,
            OpKind::Delete => self.stats.deletes += 1,
            OpKind::Exist => self.stats.exists += 1,
            // Background maintenance runs outside the frame.
            OpKind::Maintenance => {}
        }
        let snap = self.span_begin();
        let sig = self.sign(key);
        let result = body(self, sig);
        let payload = result.as_ref().map_or(0, |&(_, bytes)| bytes);
        let timing = self.settle(key.len() as u64 + payload);
        let (reply, _) = result?;
        if matches!(kind, OpKind::Put | OpKind::Delete) && gc::should_run(&self.ftl, &self.gc_cfg) {
            self.collect_garbage()?;
        }
        match kind {
            OpKind::Put => self.put_latencies.record(timing.latency_ns()),
            OpKind::Get => self.get_latencies.record(timing.latency_ns()),
            OpKind::Delete => self.delete_latencies.record(timing.latency_ns()),
            _ => {}
        }
        self.span_finish(snap, kind, timing);
        Ok(reply)
    }

    /// `put`: store a KV pair (§IV "store" flow: sign, exist-check with
    /// full-key verification, write data, update index).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.command(OpKind::Put, key, |dev, sig| {
            let old = match dev.stored(sig, key, |_| ())? {
                Stored::Absent => None,
                Stored::OtherKey => {
                    dev.stats.collisions += 1;
                    return Err(KvError::KeyCollision);
                }
                Stored::Pair(extent, ()) => Some(extent),
            };
            let extent = dev.with_gc(|ftl, _| ftl.store_pair(sig, key, value, 0))?;
            // Repoint the index. On failure the freshly-written extent is
            // stale garbage (harmless; GC reclaims it).
            if let Err(e) = dev.with_gc(|ftl, index| index.insert(ftl, sig, extent.head)) {
                dev.ftl.mark_stale(&extent);
                dev.ftl.drop_pending(sig);
                if e == KvError::KeyRejected {
                    dev.stats.rejected += 1;
                }
                return Err(e);
            }
            // Retire the superseded pair (update path). Even when the old
            // copy sits in the same open page (in-page update), its bytes
            // are dead weight and must count as stale.
            if let Some(old) = old {
                dev.ftl.mark_stale(&old);
            }
            dev.stats.bytes_written += (key.len() + value.len()) as u64;
            Ok(((), value.len() as u64))
        })
    }

    /// `get`: retrieve the value for `key` (full-key verification before
    /// returning, §IV-A3).
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Bytes>> {
        self.command(OpKind::Get, key, |dev, sig| {
            match dev.stored(sig, key, |pair| pair.value())? {
                Stored::Pair(_, value) => {
                    let value = dev.ftl.read_value(value)?;
                    let len = value.len() as u64;
                    dev.stats.bytes_read += len;
                    Ok((Some(value), len))
                }
                // A collision reads as absent: the stored pair is another key.
                Stored::Absent | Stored::OtherKey => {
                    dev.stats.not_found += 1;
                    Ok((None, 0))
                }
            }
        })
    }

    /// `delete`: remove a pair ("the record is then fetched from flash to
    /// match the request key", §IV).
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.command(OpKind::Delete, key, |dev, sig| {
            let extent = match dev.stored(sig, key, |_| ())? {
                Stored::Absent => {
                    dev.stats.not_found += 1;
                    return Err(KvError::KeyNotFound);
                }
                Stored::OtherKey => {
                    dev.stats.collisions += 1;
                    return Err(KvError::KeyNotFound);
                }
                Stored::Pair(extent, ()) => extent,
            };
            dev.with_gc(|ftl, index| index.remove(ftl, sig))?;
            dev.ftl.mark_stale(&extent);
            dev.ftl.drop_pending(sig);
            Ok(((), 0))
        })
    }

    /// `exist`: probabilistic membership from signatures only (§IV-A3) —
    /// no KV data is read, so a false positive is possible at the
    /// signature-collision rate.
    pub fn exist(&mut self, key: &[u8]) -> Result<ExistReport> {
        self.command(OpKind::Exist, key, |dev, sig| {
            let reads_before = dev.ftl.stats().index_page_reads;
            let probably_exists = dev.with_gc(|ftl, index| index.contains(ftl, sig))?;
            let flash_reads = dev.ftl.stats().index_page_reads - reads_before;
            Ok((ExistReport { probably_exists, flash_reads }, 0))
        })
    }

    /// Tear the device apart, keeping the flash (crash simulation,
    /// re-mounting with a different engine, forensics).
    pub fn into_parts(self) -> (Ftl, I) {
        (self.ftl, self.index)
    }

    /// Diagnostic: the flash head-page address currently indexed for
    /// `key` (tests and benches use this to target fault injection).
    pub fn locate(&mut self, key: &[u8]) -> Result<Option<Ppa>> {
        let sig = self.sign(key);
        Ok(self.index.lookup(&mut self.ftl, sig)?)
    }

    // -------------------------------------------------- cmd.rs plumbing

    pub(crate) fn begin_compound(&mut self) {
        self.engine.set_compound(true);
    }

    pub(crate) fn end_compound(&mut self) {
        self.engine.set_compound(false);
    }

    /// Every stored record whose signature can match `prefix`, for an
    /// iterator session. With [`SigHasher::PrefixSuffix`] and a prefix
    /// that pins all four signature-prefix bytes, candidates in other
    /// prefix buckets are pruned without any flash read — the paper's
    /// "careful partitioning of the keys inside the index" (§VI).
    pub(crate) fn iterate_candidates(&mut self, prefix: &[u8]) -> Result<Vec<(KeySignature, Ppa)>> {
        self.stats.iterates += 1;
        let mut candidates = Vec::new();
        self.index.scan_records(&mut self.ftl, &mut |sig, ppa| candidates.push((sig, ppa)))?;
        if prefix.len() >= 4 {
            if let Some(bucket) = self.hasher.prefix_bucket(prefix) {
                candidates.retain(|(sig, _)| (sig.0 >> 32) as u32 == bucket);
            }
        }
        Ok(candidates)
    }

    /// Flush all buffered state (shutdown / checkpoint).
    pub fn flush(&mut self) -> Result<()> {
        self.ftl.flush_data_builder()?;
        self.index.flush(&mut self.ftl)?;
        self.settle(0);
        Ok(())
    }
}

impl<I: IndexBackend> std::fmt::Debug for KvssdDevice<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvssdDevice")
            .field("index", &self.index.name())
            .field("keys", &self.index.len())
            .field("utilization", &format!("{:.3}", self.utilization()))
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use rhik_ftl::{IndexStats, InsertOutcome};
    use std::cell::Cell;
    use std::collections::HashMap;

    fn device() -> KvssdDevice<RhikIndex> {
        KvssdDevice::rhik(DeviceConfig::small())
    }

    /// A DRAM-only index that can refuse its next lookup with `NeedsGc`,
    /// as a lookup does when it must write back a dirty cached page and
    /// the pool is dry.
    #[derive(Default)]
    struct RefusingIndex {
        map: HashMap<u64, Ppa>,
        refuse_next_lookup: Cell<bool>,
        stats: IndexStats,
    }

    impl IndexBackend for RefusingIndex {
        fn insert(
            &mut self,
            _f: &mut Ftl,
            sig: KeySignature,
            ppa: Ppa,
        ) -> std::result::Result<InsertOutcome, FtlError> {
            Ok(match self.map.insert(sig.0, ppa) {
                Some(old) => InsertOutcome::Updated { old },
                None => InsertOutcome::Inserted,
            })
        }
        fn lookup(
            &mut self,
            _f: &mut Ftl,
            sig: KeySignature,
        ) -> std::result::Result<Option<Ppa>, FtlError> {
            if self.refuse_next_lookup.replace(false) {
                return Err(FtlError::NeedsGc);
            }
            Ok(self.map.get(&sig.0).copied())
        }
        fn remove(
            &mut self,
            _f: &mut Ftl,
            sig: KeySignature,
        ) -> std::result::Result<Option<Ppa>, FtlError> {
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
            "refusing"
        }
        fn flush(&mut self, _f: &mut Ftl) -> std::result::Result<(), FtlError> {
            Ok(())
        }
    }

    #[test]
    fn stats_merge_sums_every_field() {
        let a = DeviceStats {
            puts: 1,
            gets: 2,
            deletes: 3,
            exists: 4,
            iterates: 5,
            not_found: 6,
            collisions: 7,
            rejected: 8,
            bytes_written: 9,
            bytes_read: 10,
            gc_invocations: 11,
            resizes: 12,
            maintenance_steps: 13,
        };
        let b = DeviceStats {
            puts: 100,
            gets: 200,
            deletes: 300,
            exists: 400,
            iterates: 500,
            not_found: 600,
            collisions: 700,
            rejected: 800,
            bytes_written: 900,
            bytes_read: 1000,
            gc_invocations: 1100,
            resizes: 1200,
            maintenance_steps: 1300,
        };
        let mut m = a;
        m.merge(&b);
        let expect = DeviceStats {
            puts: 101,
            gets: 202,
            deletes: 303,
            exists: 404,
            iterates: 505,
            not_found: 606,
            collisions: 707,
            rejected: 808,
            bytes_written: 909,
            bytes_read: 1010,
            gc_invocations: 1111,
            resizes: 1212,
            maintenance_steps: 1313,
        };
        assert_eq!(m, expect);
        // Merging the zero stats is the identity.
        let mut z = b;
        z.merge(&DeviceStats::default());
        assert_eq!(z, b);
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut dev = device();
        dev.put(b"alpha", b"one").unwrap();
        dev.put(b"beta", b"two").unwrap();
        assert_eq!(&dev.get(b"alpha").unwrap().unwrap()[..], b"one");
        assert_eq!(&dev.get(b"beta").unwrap().unwrap()[..], b"two");
        assert_eq!(dev.get(b"gamma").unwrap(), None);
        dev.delete(b"alpha").unwrap();
        assert_eq!(dev.get(b"alpha").unwrap(), None);
        assert_eq!(dev.delete(b"alpha").unwrap_err(), KvError::KeyNotFound);
        assert_eq!(dev.key_count(), 1);
    }

    #[test]
    fn update_replaces_value() {
        let mut dev = device();
        dev.put(b"k", b"v1").unwrap();
        dev.put(b"k", b"v2-longer-than-before").unwrap();
        assert_eq!(&dev.get(b"k").unwrap().unwrap()[..], b"v2-longer-than-before");
        assert_eq!(dev.key_count(), 1);
        assert!(dev.ftl().total_stale_bytes() > 0, "old version marked stale");
    }

    #[test]
    fn empty_keys_rejected_empty_values_fine() {
        let mut dev = device();
        assert_eq!(dev.put(b"", b"v").unwrap_err(), KvError::EmptyKey);
        assert_eq!(dev.get(b"").unwrap_err(), KvError::EmptyKey);
        dev.put(b"k", b"").unwrap();
        assert_eq!(&dev.get(b"k").unwrap().unwrap()[..], b"");
    }

    #[test]
    fn large_values_roundtrip() {
        let mut dev = device();
        // Multi-page value (4 KiB pages): 20 KiB.
        let value: Vec<u8> = (0..20 * 1024).map(|i| (i % 251) as u8).collect();
        dev.put(b"big", &value).unwrap();
        assert_eq!(&dev.get(b"big").unwrap().unwrap()[..], &value[..]);
        // Over the extent limit must be rejected cleanly.
        let max = dev.ftl().max_value_bytes();
        assert!(matches!(
            dev.put(b"too-big", &vec![0u8; max + 1]).unwrap_err(),
            KvError::ValueTooLarge { .. }
        ));
        // Device still healthy.
        assert_eq!(&dev.get(b"big").unwrap().unwrap()[..], &value[..]);
    }

    #[test]
    fn only_a_get_reads_past_the_head_page() {
        // A 20 KiB value on 4 KiB pages: an empty head fragment and five
        // continuation pages. A get reads all six; the key check of an
        // update, a delete or an iterator step reads the head page alone.
        let mut dev = device();
        let value = vec![7u8; 20 * 1024];
        let reads = |dev: &KvssdDevice<RhikIndex>| dev.ftl().stats().data_page_reads;
        dev.put(b"big", &value).unwrap();
        dev.flush().unwrap();
        let before = reads(&dev);
        assert_eq!(dev.get(b"big").unwrap().as_deref(), Some(&value[..]));
        assert_eq!(reads(&dev) - before, 6, "a get reads the head page and the body");

        let before = reads(&dev);
        dev.put(b"big", &[8u8; 20 * 1024]).unwrap();
        assert_eq!(reads(&dev) - before, 1, "an update checks the old key in its head page");
        dev.flush().unwrap();
        let before = reads(&dev);
        dev.delete(b"big").unwrap();
        assert_eq!(reads(&dev) - before, 1, "so does a delete");

        for i in 0..3 {
            dev.put(format!("it:{i}").as_bytes(), &value).unwrap();
        }
        dev.flush().unwrap();
        let handle = dev.iterate_open(b"it:").unwrap();
        let before = reads(&dev);
        assert_eq!(dev.iterate_next(handle, 10).unwrap().len(), 3);
        assert_eq!(reads(&dev) - before, 3, "one head page per candidate (the three keys)");
    }

    #[test]
    fn exist_is_signature_only() {
        let mut dev = device();
        dev.put(b"present", b"v").unwrap();
        assert!(dev.exist(b"present").unwrap().probably_exists);
        assert!(!dev.exist(b"absent").unwrap().probably_exists);
        // No data-page reads happened for exist.
        let data_reads = dev.ftl().stats().data_page_reads;
        for i in 0..50u64 {
            dev.exist(format!("probe-{i}").as_bytes()).unwrap();
        }
        assert_eq!(dev.ftl().stats().data_page_reads, data_reads);
    }

    #[test]
    fn iterate_by_prefix() {
        let mut dev = device();
        for i in 0..20u64 {
            dev.put(format!("user:{i:03}").as_bytes(), b"u").unwrap();
        }
        for i in 0..7u64 {
            dev.put(format!("blob:{i:03}").as_bytes(), b"b").unwrap();
        }
        let mut users = dev.iterate(b"user:", 1000).unwrap();
        users.sort();
        assert_eq!(users.len(), 20);
        assert_eq!(&users[0][..], b"user:000");
        let blobs = dev.iterate(b"blob:", 3).unwrap();
        assert_eq!(blobs.len(), 3, "limit respected");
        let all = dev.iterate(b"", 1000).unwrap();
        assert_eq!(all.len(), 27);
    }

    #[test]
    fn iterate_with_zero_limit_and_empty_device() {
        let mut dev = device();
        assert!(dev.iterate(b"any", 0).unwrap().is_empty());
        assert!(dev.iterate(b"", 100).unwrap().is_empty());
        dev.put(b"one", b"1").unwrap();
        assert!(dev.iterate(b"one", 0).unwrap().is_empty(), "limit 0 yields nothing");
        assert_eq!(dev.iterate(b"", 100).unwrap().len(), 1);
    }

    #[test]
    fn exist_rejects_empty_key() {
        let mut dev = device();
        assert_eq!(dev.exist(b"").unwrap_err(), KvError::EmptyKey);
        assert_eq!(dev.delete(b"").unwrap_err(), KvError::EmptyKey);
    }

    #[test]
    fn max_size_value_roundtrip_at_limit() {
        let mut dev = device();
        let max = dev.ftl().max_value_bytes();
        let value: Vec<u8> = (0..max).map(|i| (i % 253) as u8).collect();
        dev.put(b"max", &value).unwrap();
        assert_eq!(&dev.get(b"max").unwrap().unwrap()[..], &value[..]);
        // Update it with a tiny value; the huge old extent goes stale.
        dev.put(b"max", b"tiny").unwrap();
        assert_eq!(&dev.get(b"max").unwrap().unwrap()[..], b"tiny");
        assert!(dev.ftl().total_stale_bytes() as usize >= max);
    }

    #[test]
    fn flush_is_idempotent() {
        let mut dev = device();
        dev.put(b"k", b"v").unwrap();
        dev.flush().unwrap();
        dev.flush().unwrap();
        dev.flush().unwrap();
        assert_eq!(&dev.get(b"k").unwrap().unwrap()[..], b"v");
    }

    #[test]
    fn hyper_local_device_never_rejects() {
        // A device configured with tiny hop width + hyper-local absorbs
        // pathological bucket pressure without KeyRejected.
        let mut cfg = DeviceConfig::small();
        cfg.rhik.hop_width = 4;
        cfg.rhik.hyper_local = true;
        let mut dev = KvssdDevice::rhik(cfg);
        for i in 0..2_000u64 {
            dev.put(format!("hl-{i:06}").as_bytes(), b"v")
                .unwrap_or_else(|e| panic!("rejected at {i}: {e}"));
        }
        assert_eq!(dev.stats().rejected, 0);
        for i in (0..2_000u64).step_by(101) {
            assert!(dev.get(format!("hl-{i:06}").as_bytes()).unwrap().is_some());
        }
    }

    #[test]
    fn hyper_local_survives_gc_churn() {
        // Overflow tables are index pages too: GC must relocate them (or
        // retire them after resizes) without losing records.
        let mut cfg = DeviceConfig::small();
        cfg.rhik.hop_width = 4; // provoke overflow tables
        cfg.rhik.hyper_local = true;
        let mut dev = KvssdDevice::rhik(cfg);
        let value = vec![2u8; 8 * 1024];
        for round in 0..10u64 {
            for i in 0..300u64 {
                let mut v = value.clone();
                v[0] = round as u8;
                dev.put(format!("hlgc-{i:05}").as_bytes(), &v).unwrap();
            }
        }
        assert!(dev.stats().gc_invocations > 0, "GC exercised: {:?}", dev.stats());
        assert_eq!(dev.stats().rejected, 0);
        for i in 0..300u64 {
            let v = dev.get(format!("hlgc-{i:05}").as_bytes()).unwrap().expect("key lost");
            assert_eq!(v[0], 9);
        }
    }

    #[test]
    fn signature_collision_rejected_with_full_key_verification() {
        // Under the prefix-suffix hasher, keys sharing their first and last
        // 4 bytes collide in signature space; the device must detect the
        // mismatch by comparing full keys (§IV-A3) and reject the second
        // put (§VI: "the application needs to generate a new key").
        let mut cfg = DeviceConfig::small();
        cfg.hasher = rhik_sigs::SigHasher::PrefixSuffix { seed: 1 };
        let mut dev = KvssdDevice::rhik(cfg);
        dev.put(b"PRE-middle-one-SUF", b"first").unwrap();
        let err = dev.put(b"PRE-middle-two-SUF", b"second").unwrap_err();
        assert_eq!(err, KvError::KeyCollision);
        assert_eq!(dev.stats().collisions, 1);
        // The original pair is untouched.
        assert_eq!(&dev.get(b"PRE-middle-one-SUF").unwrap().unwrap()[..], b"first");
        // The colliding key reads as absent (full-key verification, not a
        // wrong-value return).
        assert_eq!(dev.get(b"PRE-middle-two-SUF").unwrap(), None);
        // exist() is signature-only, so it reports a false positive — the
        // documented probabilistic trade-off.
        assert!(dev.exist(b"PRE-middle-two-SUF").unwrap().probably_exists);
        // delete of the colliding key must not destroy the stored pair.
        assert_eq!(dev.delete(b"PRE-middle-two-SUF").unwrap_err(), KvError::KeyNotFound);
        assert!(dev.get(b"PRE-middle-one-SUF").unwrap().is_some());
    }

    #[test]
    fn prefix_suffix_hasher_prunes_iterate() {
        let mut cfg = DeviceConfig::small();
        cfg.hasher = rhik_sigs::SigHasher::PrefixSuffix { seed: 9 };
        let mut dev = KvssdDevice::rhik(cfg);
        for i in 0..60u64 {
            dev.put(format!("usr:{i:04}").as_bytes(), b"u").unwrap();
            dev.put(format!("img:{i:04}").as_bytes(), b"i").unwrap();
        }
        dev.flush().unwrap();
        let reads_before = dev.ftl().stats().data_page_reads;
        let mut users = dev.iterate(b"usr:", 1000).unwrap();
        let reads = dev.ftl().stats().data_page_reads - reads_before;
        users.sort();
        assert_eq!(users.len(), 60);
        // Pruning means we only read pages for usr:-bucketed candidates —
        // far fewer than the 120 pairs a full sweep would verify.
        assert!(reads <= 70, "iterate read {reads} data pages despite pruning");
        // CRUD still works under the weaker hasher.
        assert_eq!(&dev.get(b"usr:0001").unwrap().unwrap()[..], b"u");
    }

    #[test]
    fn fill_update_gc_cycle_preserves_data() {
        let mut dev = device();
        let value = vec![7u8; 8 * 1024];
        // ~2.4 MiB live working set overwritten 10x (~24 MiB of logical
        // writes on 16 MiB of raw flash) forces GC via update staleness.
        for round in 0..10u64 {
            for i in 0..300u64 {
                let key = format!("key-{i:04}");
                let mut v = value.clone();
                v[0] = round as u8;
                dev.put(key.as_bytes(), &v).unwrap();
            }
        }
        assert_eq!(dev.key_count(), 300);
        assert!(dev.stats().gc_invocations > 0, "GC never ran: {:?}", dev.stats());
        for i in 0..300u64 {
            let v = dev.get(format!("key-{i:04}").as_bytes()).unwrap().expect("key lost");
            assert_eq!(v[0], 9, "stale version resurfaced for key {i}");
        }
    }

    #[test]
    fn growth_triggers_resizes() {
        let mut dev = device();
        for i in 0..4000u64 {
            dev.put(format!("grow-{i:06}").as_bytes(), b"x").unwrap();
        }
        assert!(dev.stats().resizes >= 1, "no resize in {:?}", dev.stats());
        assert_eq!(dev.key_count(), 4000);
        let m = dev.metrics();
        assert_eq!(m.counter("rhik_resizes_completed"), dev.stats().resizes);
        assert!(m.counter("rhik_resizes_started") >= dev.stats().resizes);
        assert!(m.counter("rhik_resize_steps") >= m.counter("rhik_resizes_completed"));
        assert!(m.counter("rhik_resize_slots_migrated") > 0);
        for i in (0..4000u64).step_by(37) {
            assert!(dev.get(format!("grow-{i:06}").as_bytes()).unwrap().is_some());
        }
    }

    #[test]
    fn device_full_reported_not_corrupted() {
        let mut dev = device(); // 16 MiB raw
        let value = vec![1u8; 64 * 1024];
        let mut stored = 0u64;
        for i in 0..1000u64 {
            match dev.put(format!("fill-{i:05}").as_bytes(), &value) {
                Ok(()) => stored += 1,
                Err(KvError::DeviceFull) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(stored > 100, "stored only {stored}");
        // Everything accepted is retrievable.
        for i in 0..stored {
            assert!(
                dev.get(format!("fill-{i:05}").as_bytes()).unwrap().is_some(),
                "key {i} of {stored} lost"
            );
        }
        // Deleting frees space for new writes again.
        for i in 0..stored / 2 {
            dev.delete(format!("fill-{i:05}").as_bytes()).unwrap();
        }
        dev.put(b"after-delete", &value).unwrap();
        assert!(dev.get(b"after-delete").unwrap().is_some());
    }

    #[test]
    fn a_doubling_paused_for_space_resumes_after_watermark_gc() {
        // A 64-slot directory migrating one slot per step, begun on a
        // device a few blocks short of full. The index cache holds every
        // table, so the index leaves no garbage for the collector.
        let mut cfg = DeviceConfig::small();
        cfg.cache_budget_bytes = 1 << 20;
        cfg.rhik.initial_dir_bits = 6;
        cfg.rhik.occupancy_threshold = 0.1;
        cfg.rhik.resize_migration_batch = 1;
        let mut dev = KvssdDevice::rhik(cfg);
        let capacity = dev.index().total_capacity() as f64;
        let block = cfg.geometry.block_bytes() as usize;
        let key = |i: usize| format!("pause-{i:06}").into_bytes();
        // Values are `len` copies of the length's low byte.
        let value = |len: usize| vec![len as u8; len];

        // Fresh pairs, sized to leave about five free blocks when one more
        // key would begin the doubling.
        let mut keys_left = 0;
        while ((keys_left + 1) as f64 / capacity) < cfg.rhik.occupancy_threshold {
            keys_left += 1;
        }
        let mut pairs: Vec<(Vec<u8>, usize)> = Vec::new();
        for left in (1..=keys_left).rev() {
            let spare = (dev.ftl().free_blocks() as usize).saturating_sub(5) * block;
            let len = (spare / left).clamp(16, 192 * 1024);
            pairs.push((key(pairs.len()), len));
            dev.put(&pairs.last().unwrap().0, &value(len)).unwrap();
        }
        assert!(!dev.resize_in_progress());

        // Fresh 192 KiB pairs: the first begins the doubling, the rest
        // split their own slots until the migration stops advancing.
        let mut split_by_put = Vec::new();
        let paused = loop {
            assert!(pairs.len() < 10_000, "the migration never paused");
            let before = dev.index().migration_progress();
            let (k, len) = (key(pairs.len()), 192 * 1024);
            match dev.put(&k, &value(len)) {
                Ok(()) => {
                    if before.is_some() {
                        split_by_put.push(dev.sign(&k).low_bits(cfg.rhik.initial_dir_bits));
                    }
                    pairs.push((k, len));
                }
                Err(KvError::DeviceFull) if before.is_some() => {}
                Err(e) => panic!("put: {e}"),
            }
            let after = dev.index().migration_progress();
            assert!(after.is_some() || before.is_none(), "the doubling finished with space left");
            if before.is_some() && after == before {
                break after.unwrap();
            }
        };
        assert!(paused.0 > 0 && paused.0 < paused.1, "paused at {paused:?}");
        assert_eq!(dev.ftl().free_blocks(), 0);

        // Delete keys whose old slots already split (a delete in an
        // un-split slot would wait on the pause like any mutation); the
        // watermark collector frees their blocks, and ordinary commands
        // — these deletes, then gets and puts — resume and finish the
        // doubling.
        let cursor = dev.audit_parts().1.migration.expect("migrating").cursor as u64;
        let gc_before = dev.stats().gc_invocations;
        let (gone, live): (Vec<_>, Vec<_>) = pairs.into_iter().partition(|(k, _)| {
            let slot = dev.sign(k).low_bits(cfg.rhik.initial_dir_bits);
            slot < cursor || split_by_put.contains(&slot)
        });
        for (k, _) in &gone {
            dev.delete(k).unwrap();
        }
        assert!(dev.stats().gc_invocations > gc_before, "watermark GC never ran");
        assert_ne!(dev.index().migration_progress(), Some(paused), "the migration never resumed");
        for (i, (k, len)) in live.iter().enumerate() {
            assert_eq!(dev.get(k).unwrap(), Some(Bytes::from(value(*len))));
            if i % 8 == 0 {
                dev.put(format!("small-{i:06}").as_bytes(), b"new").unwrap();
            }
        }
        assert!(
            !dev.resize_in_progress(),
            "still paused at {:?}",
            dev.index().migration_progress()
        );
        assert_eq!(dev.stats().resizes, 1);
        for (k, _) in &gone {
            assert_eq!(dev.get(k).unwrap(), None);
        }
        let report = dev.audit(&mut rhik_audit::DeviceAuditor::new());
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn sim_clock_advances() {
        let mut dev = KvssdDevice::rhik(
            DeviceConfig::small().with_profile(rhik_nand::DeviceProfile::kvemu_like()),
        );
        assert_eq!(dev.elapsed_secs(), 0.0);
        for i in 0..50u64 {
            dev.put(format!("t-{i}").as_bytes(), &[0u8; 4096]).unwrap();
        }
        assert!(dev.elapsed_secs() > 0.0);
        assert_eq!(dev.put_latencies().count(), 50);
    }

    #[test]
    fn exist_collects_and_retries_like_get() {
        let mut dev = KvssdDevice::with_index(DeviceConfig::small(), RefusingIndex::default());
        dev.put(b"k", b"v").unwrap();
        let collections = dev.stats().gc_invocations;
        dev.index().refuse_next_lookup.set(true);
        assert_eq!(dev.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        dev.index().refuse_next_lookup.set(true);
        assert!(dev.exist(b"k").unwrap().probably_exists);
        assert_eq!(dev.stats().gc_invocations, collections + 2, "each refusal collected once");
    }

    #[test]
    fn a_failed_command_settles_its_own_media_time() {
        let mut dev = device();
        dev.put(b"victim", b"payload").unwrap();
        dev.flush().unwrap();
        let head = dev.locate(b"victim").unwrap().expect("pair indexed");
        // Drop the clean cached tables: the get's lookup must read one.
        let cache = dev.ftl_mut().cache();
        for key in cache.keys_mru() {
            assert!(!cache.is_dirty(key), "flush left table {key} dirty");
            cache.remove(key);
        }
        dev.ftl_mut().faults_mut().fail_read(head);
        let index_reads = dev.ftl().stats().index_page_reads;
        assert_eq!(dev.get(b"victim").unwrap_err(), KvError::ReadFault { ppa: head });
        assert_eq!(dev.ftl().stats().index_page_reads, index_reads + 1);
        assert!(
            dev.ftl_mut().drain_timed_ops().next().is_none(),
            "the failed get left its reads to the next command"
        );
    }

    #[test]
    fn read_fault_surfaces_as_typed_error() {
        let mut dev = device();
        dev.put(b"victim", b"payload").unwrap();
        dev.flush().unwrap();
        let ppa = dev.locate(b"victim").unwrap().expect("pair indexed");
        dev.ftl_mut().faults_mut().fail_read(ppa);
        // The faulted data page must surface as a typed error, not a panic
        // and not an opaque Media(String).
        assert_eq!(dev.get(b"victim").unwrap_err(), KvError::ReadFault { ppa });
        // The fault is transient media state, not corruption: clearing it
        // restores the pair and the device stays serviceable.
        dev.ftl_mut().faults_mut().clear_read(ppa);
        assert_eq!(&dev.get(b"victim").unwrap().unwrap()[..], b"payload");
        dev.put(b"after", b"ok").unwrap();
        assert!(dev.get(b"after").unwrap().is_some());
    }

    #[test]
    fn metrics_are_read_from_the_layer_stats_without_a_sink() {
        let mut dev = device();
        for i in 0..300u64 {
            dev.put(format!("obs-{i:04}").as_bytes(), &[7u8; 256]).unwrap();
        }
        for i in 0..300u64 {
            assert!(dev.get(format!("obs-{i:04}").as_bytes()).unwrap().is_some());
        }
        dev.delete(b"obs-0000").unwrap();
        assert_eq!(dev.delete(b"obs-0000").unwrap_err(), KvError::KeyNotFound);
        dev.exist(b"obs-0001").unwrap();

        let m = dev.metrics();
        // Commands attempted, as `DeviceStats` counts them: the failed
        // delete too.
        let stats = dev.stats();
        assert_eq!((m.counter("kvssd_puts"), m.counter("kvssd_gets")), (300, 300));
        assert_eq!((m.counter("kvssd_deletes"), m.counter("kvssd_exists")), (2, 1));
        assert_eq!(m.counter("kvssd_deletes"), stats.deletes);
        let nand = dev.ftl().nand_stats();
        assert!(nand.page_programs > 0);
        assert_eq!(m.counter("nand_page_programs"), nand.page_programs);
        assert_eq!(m.counter("nand_page_reads"), nand.page_reads);
        assert_eq!(m.counter("ftl_gc_runs"), dev.ftl().stats().gc_runs);
        let index = dev.index().stats();
        assert_eq!(m.counter("rhik_resizes_started"), index.resizes_started);
        assert_eq!(m.counter("rhik_resize_slots_migrated"), index.resize_slots_migrated);
        assert_eq!(m.counter("rhik_resizes_completed"), stats.resizes);
        assert_eq!(m.counter("rhik_hopscotch_displacements"), index.hopscotch_displacements);
        assert_eq!(m.histogram("get_latency_ns").map(|h| h.count()), Some(300));
        assert_eq!(m.histogram("put_latency_ns").map(|h| h.count()), Some(300));
        // The successful delete; the failed one records no latency.
        assert_eq!(m.histogram("delete_latency_ns").map(|h| h.count()), Some(1));
        let occupancy = dev.key_count() as f64 / dev.index().capacity().unwrap() as f64;
        assert_eq!(m.gauge("shard0_index_occupancy"), Some(occupancy));
        assert_eq!(m.gauge("shard0_queue_depth"), Some(0.0));
        assert_eq!(m.gauge("shard0_migration_slots_total"), Some(0.0));
        assert!(m.to_json().contains("\"kvssd_puts\": 300"));

        // Every lookup the index served stayed within one flash read.
        let rpl = dev.reads_per_lookup();
        assert_eq!(rpl.lookups, index.lookups);
        assert!(rpl.invariant_ok(), "reads-per-lookup max {}", rpl.max);
    }

    #[test]
    fn telemetry_spans_attribute_commands() {
        let mut dev = device();
        let sink = TelemetrySink::enabled();
        dev.set_telemetry(sink.clone());
        for i in 0..300u64 {
            dev.put(format!("obs-{i:04}").as_bytes(), &[7u8; 256]).unwrap();
        }
        for i in 0..300u64 {
            assert!(dev.get(format!("obs-{i:04}").as_bytes()).unwrap().is_some());
        }
        dev.delete(b"obs-0000").unwrap();
        dev.exist(b"obs-0001").unwrap();
        let spans = sink.spans();
        assert_eq!(spans.len(), 602);
        assert_eq!(spans.iter().filter(|s| s.kind == OpKind::Get).count(), 300);
        assert!(spans.iter().all(|s| s.lookup_flash_reads <= 1));
        // Spans carry per-stage attribution: every op notes its directory
        // walk, and the flash stages show up once traffic spills to media.
        let attr = sink.attribution();
        assert_eq!(attr.ops, 602);
        assert!(attr.row(Stage::DirLookup).events > 0);
        assert!(attr.row(Stage::FlashProgram).events > 0);

        // Uninstalling the sink stops the trace; the counts carry on.
        dev.set_telemetry(TelemetrySink::disabled());
        dev.put(b"k", b"v").unwrap();
        assert_eq!(sink.spans().len(), 602);
        assert_eq!(dev.metrics().counter("kvssd_puts"), 301);
    }

    #[test]
    fn baseline_devices_work_too() {
        let cfg = DeviceConfig::small();
        let mut ml = KvssdDevice::multilevel(
            cfg,
            MultiLevelConfig { initial_bits: 1, max_levels: 8, hop_width: 16 },
        );
        let mut sh = KvssdDevice::multilevel(
            cfg,
            MultiLevelConfig { initial_bits: 4, max_levels: 1, hop_width: 16 },
        );
        let mut lsm = KvssdDevice::lsm(cfg, LsmConfig::default());
        for i in 0..200u64 {
            let k = format!("key-{i:04}");
            ml.put(k.as_bytes(), b"ml").unwrap();
            sh.put(k.as_bytes(), b"sh").unwrap();
            lsm.put(k.as_bytes(), b"ls").unwrap();
        }
        for i in (0..200u64).step_by(11) {
            let k = format!("key-{i:04}");
            assert_eq!(&ml.get(k.as_bytes()).unwrap().unwrap()[..], b"ml");
            assert_eq!(&sh.get(k.as_bytes()).unwrap().unwrap()[..], b"sh");
            assert_eq!(&lsm.get(k.as_bytes()).unwrap().unwrap()[..], b"ls");
        }
    }
}
