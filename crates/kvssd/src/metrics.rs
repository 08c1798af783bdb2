//! The device's metrics, read when asked from the stats each layer
//! already keeps — [`DeviceStats`] and the command latency histograms,
//! the FTL's [`rhik_ftl::FtlStats`], the NAND array's
//! [`rhik_nand::NandStats`], the index's [`rhik_ftl::IndexStats`], the hot
//! cache's [`CacheStats`] — plus gauges computed from live state. Nothing
//! is pushed anywhere, so a device answers the same snapshot with or
//! without a telemetry sink.

use rhik_ftl::IndexBackend;
use rhik_telemetry::{LatencyHistogram, MetricSnapshot};

use crate::device::{DeviceStats, KvssdDevice};
use crate::CacheStats;

/// A [`MetricSnapshot`] being read: shards add in, device-wide counts
/// land last.
#[derive(Default)]
pub(crate) struct MetricsReader(MetricSnapshot);

impl MetricsReader {
    fn counter(&mut self, name: &str, value: u64) {
        *self.0.counters.entry(name.to_owned()).or_default() += value;
    }

    fn gauge(&mut self, name: String, value: f64) {
        self.0.gauges.insert(name, value);
    }

    /// Merge `samples` into the histogram `name`.
    pub(crate) fn histogram(&mut self, name: &str, samples: &LatencyHistogram) {
        self.0.histograms.entry(name.to_owned()).or_default().merge(samples);
    }

    /// One shard's media, GC, index and latency counts, and its
    /// `shard{shard}_*` gauges (an unsharded device is shard 0).
    pub(crate) fn add_shard<I: IndexBackend>(&mut self, shard: usize, dev: &KvssdDevice<I>) {
        let nand = dev.ftl().nand_stats();
        self.counter("nand_page_reads", nand.page_reads);
        self.counter("nand_page_programs", nand.page_programs);
        self.counter("nand_block_erases", nand.block_erases);
        self.counter("nand_read_failures", nand.read_failures);
        self.counter("nand_program_failures", nand.program_failures);
        let ftl = dev.ftl().stats();
        self.counter("ftl_gc_runs", ftl.gc_runs);
        self.counter("ftl_gc_pairs_relocated", ftl.gc_relocated_pairs);
        self.counter("ftl_gc_blocks_erased", ftl.gc_erased_blocks);
        let index = dev.index().stats();
        self.counter("rhik_resizes_started", index.resizes_started);
        self.counter("rhik_resize_steps", index.resize_steps);
        self.counter("rhik_resize_slots_migrated", index.resize_slots_migrated);
        self.counter("rhik_resizes_completed", index.resizes.len() as u64);
        self.counter("rhik_hopscotch_displacements", index.hopscotch_displacements);
        self.histogram("put_latency_ns", dev.put_latencies());
        self.histogram("get_latency_ns", dev.get_latencies());
        self.histogram("delete_latency_ns", dev.delete_latencies());

        let occupancy = dev
            .index()
            .capacity()
            .filter(|&c| c > 0)
            .map_or(0.0, |c| dev.index().len() as f64 / c as f64);
        let (done, total) = dev.index().migration_progress().unwrap_or((0, 0));
        self.gauge(format!("shard{shard}_queue_depth"), dev.engine().inflight_commands() as f64);
        self.gauge(format!("shard{shard}_index_occupancy"), occupancy);
        self.gauge(format!("shard{shard}_migration_slots_done"), done as f64);
        self.gauge(format!("shard{shard}_migration_slots_total"), total as f64);
    }

    /// The device-wide command counts and, with a hot cache, its counters
    /// and occupancy; then the snapshot.
    pub(crate) fn finish(
        mut self,
        stats: DeviceStats,
        cache: Option<CacheStats>,
    ) -> MetricSnapshot {
        self.counter("kvssd_puts", stats.puts);
        self.counter("kvssd_gets", stats.gets);
        self.counter("kvssd_deletes", stats.deletes);
        self.counter("kvssd_exists", stats.exists);
        self.counter("kvssd_maintenance_steps", stats.maintenance_steps);
        if let Some(cache) = cache {
            self.counter("hot_cache_hits", cache.hits);
            self.counter("hot_cache_stale", cache.stale_hits);
            self.counter("hot_cache_admits", cache.admits);
            self.counter("hot_cache_rejects", cache.rejects);
            self.counter("hot_cache_evictions", cache.evictions);
            self.gauge("hot_cache_bytes".to_owned(), cache.bytes as f64);
            self.gauge("hot_cache_entries".to_owned(), cache.entries as f64);
        }
        self.0
    }
}
