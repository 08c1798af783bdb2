//! The device side of the DRAM hot-object cache tier: one
//! [`CacheTier`] per [`crate::ShardedKvssd`], shared by its shards,
//! pairing the [`HotCache`] with the [`VersionTable`] the index bumps.
//!
//! The fill protocol (the whole correctness story, pinned down by the
//! loom model in `rhik-hotcache`):
//!
//! 1. [`CacheTier::probe`] loads the signature's stripe version `v1`
//!    *before* any index work. A hit validated at `v1` serves from DRAM;
//!    a stale or absent entry falls through carrying `v1`.
//! 2. The caller reads the value through the index — either under the
//!    shard lock or via the validated lock-free path, both of which
//!    synchronize with every index mutation.
//! 3. [`CacheTier::try_admit`] re-loads the version and admits only if
//!    it still equals `v1`. The index bumps *after* mutating, so "bump
//!    visible at step 1, mutation invisible at step 2" cannot happen —
//!    any interleaved writer either fails the step-3 re-check (no
//!    admission, a spurious refill later) or its value was already what
//!    step 2 read.
//!
//! Every failure mode — version raced, budget full, TinyLFU rejection —
//! degrades to a plain index read. The cache never answers for the
//! index; it only short-circuits reads it can prove current.

use std::sync::Arc;

use bytes::Bytes;
use rhik_ftl::sync::{Counter, Mutex, VersionTable};
use rhik_hotcache::{AdmitReport, CacheConfig, CacheLookup, CacheStats, HotCache};
use rhik_sigs::KeySignature;
use rhik_telemetry::{OpKind, OpSpan, Stage, StageEvent, TelemetrySink};

use crate::histogram::LatencyHistogram;

/// Version-table stripes: `1 << 14` per-bucket versions (128 KiB of
/// DRAM). Stripe collisions only cause spurious invalidation, so the
/// table can be much smaller than the keyspace.
const VERSION_BITS: u32 = 14;

/// Per-shard cache-hit counters, folded into [`crate::DeviceStats`] so
/// `stats()` still equals the sum of `shard_stats()` with the cache on.
struct ShardHits {
    gets: Counter,
    bytes: Counter,
}

/// Outcome of a cache probe, from the device's point of view.
pub(crate) enum Probe {
    /// Served from DRAM; the command is complete.
    Hit(Bytes),
    /// Fall through to the index; on a successful read, offer the value
    /// back via [`CacheTier::try_admit`] with this fill version.
    Fill(u64),
}

pub(crate) struct CacheTier {
    cache: HotCache,
    pub(crate) versions: Arc<VersionTable>,
    per_shard: Box<[ShardHits]>,
    /// Cache hits recorded at zero simulated latency (no directory walk,
    /// no flash read) — merged into the device's get histogram.
    latencies: Mutex<LatencyHistogram>,
    telemetry_on: Counter,
    telemetry: Mutex<TelemetrySink>,
}

impl CacheTier {
    pub(crate) fn new(cfg: CacheConfig, shards: usize) -> Self {
        CacheTier {
            cache: HotCache::new(cfg),
            versions: Arc::new(VersionTable::new(VERSION_BITS)),
            per_shard: (0..shards.max(1))
                .map(|_| ShardHits { gets: Counter::new(), bytes: Counter::new() })
                .collect::<Vec<_>>()
                .into(),
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

    /// Step 1 of the fill protocol (see module docs).
    pub(crate) fn probe(&self, shard: u32, sig: KeySignature, key: &[u8]) -> Probe {
        let v1 = self.versions.load(sig.0);
        match self.cache.get(sig.0, key, v1) {
            CacheLookup::Hit(value) => {
                self.record_hit(shard, value.len() as u64);
                Probe::Hit(value)
            }
            CacheLookup::Stale => {
                if let Some(sink) = self.sink() {
                    sink.counter_add("hot_cache_stale", 1);
                    sink.record_span(self.stage_span(shard, Stage::CacheStale, 1));
                }
                Probe::Fill(v1)
            }
            CacheLookup::Miss => Probe::Fill(v1),
        }
    }

    /// Step 3 of the fill protocol: re-check the version, then admit.
    pub(crate) fn try_admit(
        &self,
        shard: u32,
        sig: KeySignature,
        key: &[u8],
        value: &Bytes,
        fill_version: u64,
    ) {
        if self.versions.load(sig.0) != fill_version {
            // A writer landed between the version read and the value
            // read — the value may predate it. Skip; the next get
            // re-fills at the new version.
            return;
        }
        let report = self.cache.admit(sig.0, key, value.clone(), fill_version);
        self.record_admit(shard, report);
    }

    fn stage_span(&self, shard: u32, stage: Stage, count: u64) -> OpSpan {
        // Cache-tier work costs zero simulated device time; the span
        // exists to attribute stage *frequency*, not duration.
        OpSpan {
            kind: OpKind::Get,
            shard,
            submitted_ns: 0,
            completed_ns: 0,
            lookup_flash_reads: 0,
            stages: vec![StageEvent { stage, count: count as u32, dur_ns: 0 }],
        }
    }

    fn record_hit(&self, shard: u32, bytes: u64) {
        let counters = &self.per_shard[shard as usize % self.per_shard.len()];
        counters.gets.incr();
        counters.bytes.add(bytes);
        self.latencies.lock().unwrap_or_else(|p| p.into_inner()).record(0);
        if let Some(sink) = self.sink() {
            sink.counter_add("hot_cache_hits", 1);
            // A hot hit is a completed get with zero flash reads — it
            // counts toward the op counter, the latency histogram, and
            // the ≤1-read distribution like any other get.
            sink.record_op(
                self.stage_span(shard, Stage::CacheHotHit, 1),
                "kvssd_gets",
                Some(("get_latency_ns", 0)),
                Some(0),
                &[],
            );
        }
    }

    fn record_admit(&self, shard: u32, report: AdmitReport) {
        let Some(sink) = self.sink() else { return };
        sink.counter_add(if report.admitted { "hot_cache_admits" } else { "hot_cache_rejects" }, 1);
        if report.evicted > 0 {
            sink.counter_add("hot_cache_evictions", report.evicted);
            sink.record_span(self.stage_span(shard, Stage::CacheEvict, report.evicted));
        }
        if report.admitted {
            sink.record_span(self.stage_span(shard, Stage::CacheAdmit, 1));
            sink.gauge_set("hot_cache_bytes", self.cache.bytes() as f64);
            sink.gauge_set("hot_cache_entries", self.cache.entries() as f64);
        }
    }

    pub(crate) fn set_telemetry(&self, sink: TelemetrySink) {
        self.telemetry_on.set(u64::from(sink.is_enabled()));
        *self.telemetry.lock().unwrap_or_else(|p| p.into_inner()) = sink;
    }

    /// Fold this shard's cache hits into its device stats.
    pub(crate) fn fold_shard_stats(&self, shard: usize, stats: &mut crate::device::DeviceStats) {
        let counters = &self.per_shard[shard % self.per_shard.len()];
        stats.gets += counters.gets.get();
        stats.bytes_read += counters.bytes.get();
    }

    /// Merge the zero-latency hit samples into a get histogram.
    pub(crate) fn merge_latencies(&self, h: &mut LatencyHistogram) {
        h.merge(&self.latencies.lock().unwrap_or_else(|p| p.into_inner()));
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Snapshot resident entries for the coherence audit.
    pub(crate) fn snapshot(&self) -> Vec<rhik_hotcache::CacheEntrySnapshot> {
        self.cache.snapshot()
    }
}
