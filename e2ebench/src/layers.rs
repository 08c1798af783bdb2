//! Layer counters read from outside the program, the device-clock
//! end-to-end metrics and per-layer metrics derived from them, and the
//! replays that time single layers on inputs captured during a run.
//!
//! Everything here goes through public accessors: `stats`,
//! `lockfree_read_stats`, `hot_cache_stats`, `pool`, and per shard
//! `index().stats()`, `ftl().stats()`, `ftl().nand_stats()` and
//! `ftl().cache_ref()`. Each shard's FTL owns its own NAND array (the
//! shared pool only leases erase blocks), so summing shards counts every
//! physical array once.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use rhik_core::{RecordTable, RhikIndex};
use rhik_ftl::{layout, FtlStats, IndexBackend, IndexStats};
use rhik_kvssd::{CacheStats, DeviceStats, LatencyHistogram, LockfreeReadStats, ShardedKvssd};
use rhik_nand::NandStats;
use rhik_sigs::{KeySignature, SigHasher};
use rhik_telemetry::{Stage, StageRow, TelemetrySink};

use crate::model::KEY_LEN;
use crate::stats::{hist_percentile, ratio, Metrics};
use crate::tracer::Tracer;

pub type Device = ShardedKvssd<RhikIndex>;

/// Every counter the metrics are derived from, at one instant.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub dev: DeviceStats,
    pub lockfree: LockfreeReadStats,
    pub hot: CacheStats,
    pub ftl: FtlStats,
    pub nand: NandStats,
    pub index_cache: rhik_ftl::cache::CacheStats,
    /// Index counters summed over shards (`resizes` left empty).
    pub index: IndexStats,
    /// Each shard's resize events (shards append to their own lists).
    pub resizes: Vec<Vec<rhik_ftl::ResizeEvent>>,
    pub shard_clocks: Vec<f64>,
    pub get_hist: LatencyHistogram,
    pub put_hist: LatencyHistogram,
    pub pool_used_blocks: u64,
}

impl Snapshot {
    pub fn take(dev: &Device) -> Snapshot {
        let mut s = Snapshot {
            dev: dev.stats(),
            lockfree: dev.lockfree_read_stats(),
            hot: dev.hot_cache_stats().unwrap_or_default(),
            ftl: FtlStats::default(),
            nand: NandStats::default(),
            index_cache: Default::default(),
            index: IndexStats::default(),
            resizes: Vec::new(),
            shard_clocks: Vec::new(),
            get_hist: dev.get_latencies(),
            put_hist: dev.put_latencies(),
            pool_used_blocks: (dev.pool().total_blocks() - dev.pool().free_blocks_raw()) as u64,
        };
        for shard in 0..dev.shard_count() {
            dev.with_shard(shard, |d| {
                add_ftl(&mut s.ftl, &d.ftl().stats());
                add_nand(&mut s.nand, &d.ftl().nand_stats());
                let c = d.ftl().cache_ref().stats();
                s.index_cache.hits += c.hits;
                s.index_cache.misses += c.misses;
                s.index_cache.evictions += c.evictions;
                s.index_cache.dirty_evictions += c.dirty_evictions;
                add_index(&mut s.index, d.index().stats());
                s.resizes.push(d.index().stats().resizes.clone());
                s.shard_clocks.push(d.elapsed_secs());
            });
        }
        s
    }
}

fn add_ftl(t: &mut FtlStats, s: &FtlStats) {
    t.data_page_reads += s.data_page_reads;
    t.data_page_programs += s.data_page_programs;
    t.index_page_reads += s.index_page_reads;
    t.index_page_programs += s.index_page_programs;
    t.block_erases += s.block_erases;
    t.pending_pairs += s.pending_pairs;
    t.gc_runs += s.gc_runs;
    t.gc_relocated_pairs += s.gc_relocated_pairs;
    t.gc_erased_blocks += s.gc_erased_blocks;
}

fn add_nand(t: &mut NandStats, s: &NandStats) {
    t.page_reads += s.page_reads;
    t.page_programs += s.page_programs;
    t.block_erases += s.block_erases;
    t.bytes_read += s.bytes_read;
    t.bytes_programmed += s.bytes_programmed;
    t.program_failures += s.program_failures;
    t.read_failures += s.read_failures;
}

fn add_index(t: &mut IndexStats, s: &IndexStats) {
    t.inserts += s.inserts;
    t.lookups += s.lookups;
    t.removes += s.removes;
    t.metadata_flash_reads += s.metadata_flash_reads;
    t.metadata_flash_programs += s.metadata_flash_programs;
    t.zero_flash_lookups += s.zero_flash_lookups;
    for (a, b) in t.reads_per_lookup_histo.iter_mut().zip(s.reads_per_lookup_histo) {
        *a += b;
    }
    t.insert_aborts += s.insert_aborts;
}

/// What the host did in a measurement window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    pub ops: u64,
    pub gets: u64,
    pub puts: u64,
    pub host_bytes_written: u64,
    pub live_user_bytes: u64,
}

/// Device-clock and storage-cost end-to-end metrics of one window.
pub fn device_metrics(m: &mut Metrics, dev: &Device, b: &Snapshot, a: &Snapshot, w: &Window) {
    let block_bytes = dev.with_shard(0, |d| d.ftl().geometry().block_bytes());
    let gets = a.get_hist.since(&b.get_hist);
    let puts = a.put_hist.since(&b.put_hist);
    // Shard queues run in parallel on the modelled device. Their mean busy
    // time is the summed device latency of every op over the shard count;
    // how far the slowest shard runs ahead is `kvssd.shard_clock_skew`.
    let busy_s = (gets.sum_ns() + puts.sum_ns()) as f64 / 1e9 / dev.shard_count() as f64;
    m.set("device_ops_per_s", ratio(w.ops as f64, busy_s), w.ops);
    m.set("device_get_p99_us", hist_percentile(&gets, 99.0) / 1e3, gets.count());
    m.set("device_put_p99_us", hist_percentile(&puts, 99.0) / 1e3, puts.count());
    let programmed = a.nand.bytes_programmed - b.nand.bytes_programmed;
    m.set("write_amp", ratio(programmed as f64, w.host_bytes_written as f64), w.puts);
    let reads = a.nand.page_reads - b.nand.page_reads;
    m.set("flash_reads_per_get", ratio(reads as f64, w.gets as f64), w.gets);
    let used = a.pool_used_blocks * block_bytes;
    m.set("space_amp", ratio(used as f64, w.live_user_bytes as f64), a.pool_used_blocks);
}

/// Per-layer counter metrics of one window.
pub fn layer_metrics(m: &mut Metrics, b: &Snapshot, a: &Snapshot, w: &Window, free_min: u32) {
    let kops = w.ops as f64 / 1e3;
    let per_kop = |x: u64| ratio(x as f64, kops);

    let lookups = a.hot.lookups - b.hot.lookups;
    m.set("hotcache.hit_ratio", ratio((a.hot.hits - b.hot.hits) as f64, lookups as f64), lookups);
    let stale = a.hot.stale_hits - b.hot.stale_hits;
    m.set("hotcache.stale_hit_ratio", ratio(stale as f64, lookups as f64), lookups);
    let admits = a.hot.admits - b.hot.admits;
    let offers = admits + a.hot.rejects - b.hot.rejects;
    m.set("hotcache.admit_ratio", ratio(admits as f64, offers as f64), offers);
    m.set("hotcache.evictions_per_kop", per_kop(a.hot.evictions - b.hot.evictions), w.ops);
    m.set("hotcache.resident_mib", a.hot.bytes as f64 / (1 << 20) as f64, a.hot.entries);

    let lf_gets = a.lockfree.gets - b.lockfree.gets;
    let fallbacks = a.lockfree.fallbacks - b.lockfree.fallbacks;
    let dev_gets = a.dev.gets - b.dev.gets;
    m.set("kvssd.lockfree_share", ratio(lf_gets as f64, dev_gets as f64), dev_gets);
    let attempts = lf_gets + fallbacks;
    m.set("kvssd.lockfree_fallback_ratio", ratio(fallbacks as f64, attempts as f64), attempts);
    let gc = a.dev.gc_invocations - b.dev.gc_invocations;
    m.set("kvssd.gc_invocations_per_kop", per_kop(gc), gc);
    let clocks: Vec<f64> = a.shard_clocks.iter().zip(&b.shard_clocks).map(|(x, y)| x - y).collect();
    let mean = clocks.iter().sum::<f64>() / clocks.len().max(1) as f64;
    let max = clocks.iter().copied().fold(0.0, f64::max);
    m.set("kvssd.shard_clock_skew", ratio(max, mean), clocks.len() as u64);

    let lookups = a.index.lookups - b.index.lookups;
    let meta_reads = a.index.metadata_flash_reads - b.index.metadata_flash_reads;
    m.set("rhik-core.metadata_reads_per_lookup", ratio(meta_reads as f64, lookups as f64), lookups);
    let histo: Vec<u64> = a
        .index
        .reads_per_lookup_histo
        .iter()
        .zip(b.index.reads_per_lookup_histo)
        .map(|(x, y)| x - y)
        .collect();
    let noted: u64 = histo.iter().sum();
    let within1 = 100.0 * ratio((histo[0] + histo[1]) as f64, noted as f64);
    m.set("rhik-core.lookups_within_1_read_pct", if noted == 0 { 100.0 } else { within1 }, noted);
    let resizes: Vec<_> =
        a.resizes.iter().zip(&b.resizes).flat_map(|(a, b)| a[b.len()..].iter()).collect();
    m.set("rhik-core.resizes", resizes.len() as f64, resizes.len() as u64);
    let cpu_ns: u64 = resizes.iter().map(|r| r.cpu_ns).sum();
    m.set("rhik-core.resize_cpu_ms", cpu_ns as f64 / 1e6, resizes.len() as u64);
    let max_step = resizes.iter().map(|r| r.max_step_media_ns).max().unwrap_or(0);
    m.set("rhik-core.resize_max_step_us", max_step as f64 / 1e3, resizes.len() as u64);
    let aborts = a.index.insert_aborts - b.index.insert_aborts;
    m.set("rhik-core.insert_aborts", aborts as f64, w.puts);

    let ic_hits = a.index_cache.hits - b.index_cache.hits;
    let ic_total = ic_hits + a.index_cache.misses - b.index_cache.misses;
    m.set("ftl.index_cache_hit_ratio", ratio(ic_hits as f64, ic_total as f64), ic_total);
    let dirty = a.index_cache.dirty_evictions - b.index_cache.dirty_evictions;
    m.set("ftl.index_cache_dirty_evictions_per_kop", per_kop(dirty), dirty);
    let puts = w.puts as f64;
    let ipp = a.ftl.index_page_programs - b.ftl.index_page_programs;
    m.set("ftl.index_page_programs_per_put", ratio(ipp as f64, puts), w.puts);
    let dpp = a.ftl.data_page_programs - b.ftl.data_page_programs;
    m.set("ftl.data_page_programs_per_put", ratio(dpp as f64, puts), w.puts);
    let reloc = a.ftl.gc_relocated_pairs - b.ftl.gc_relocated_pairs;
    m.set("ftl.gc_relocated_pairs_per_kop", per_kop(reloc), reloc);
    let erased = a.ftl.gc_erased_blocks - b.ftl.gc_erased_blocks;
    m.set("ftl.gc_erased_blocks_per_kop", per_kop(erased), erased);
    m.set("ftl.free_blocks_min", free_min as f64, w.ops);

    let ops = w.ops as f64;
    let n = a.nand.since(&b.nand);
    m.set("nand.page_reads_per_op", ratio(n.page_reads as f64, ops), n.page_reads);
    m.set("nand.page_programs_per_op", ratio(n.page_programs as f64, ops), n.page_programs);
    m.set("nand.erases_per_kop", per_kop(n.block_erases), n.block_erases);
}

// ------------------------------------------------------------ stages

/// Device-clock stage attribution gathered from the telemetry sink,
/// drained periodically so the sink's span ring never overflows.
pub struct StageTotals {
    sink: TelemetrySink,
    rows: [StageRow; Stage::ALL.len()],
}

impl StageTotals {
    /// Install an enabled sink on every shard.
    pub fn install(dev: &Device) -> StageTotals {
        let sink = TelemetrySink::with_trace_capacity(1 << 14);
        dev.set_telemetry(sink.clone());
        StageTotals { sink, rows: Default::default() }
    }

    pub fn drain(&mut self) {
        let a = self.sink.attribution();
        for stage in Stage::ALL {
            let r = a.row(stage);
            self.rows[stage as usize].events += r.events;
            self.rows[stage as usize].total_ns += r.total_ns;
        }
        self.sink.clear_trace();
    }

    /// Drain, uninstall the sink and emit `stage.<name>.share_pct` and
    /// `stage.<name>.mean_us` for all twelve stages.
    pub fn finish(mut self, dev: &Device, m: &mut Metrics) {
        self.drain();
        dev.set_telemetry(TelemetrySink::disabled());
        let total: u64 = self.rows.iter().map(|r| r.total_ns).sum();
        for stage in Stage::ALL {
            let r = self.rows[stage as usize];
            let (share, mean) = stage_names(stage);
            m.set(share, 100.0 * ratio(r.total_ns as f64, total as f64), r.events);
            m.set(mean, r.mean_ns() / 1e3, r.events);
        }
    }
}

fn stage_names(stage: Stage) -> (&'static str, &'static str) {
    match stage {
        Stage::DirLookup => ("stage.dir_lookup.share_pct", "stage.dir_lookup.mean_us"),
        Stage::CacheHit => ("stage.cache_hit.share_pct", "stage.cache_hit.mean_us"),
        Stage::CacheMiss => ("stage.cache_miss.share_pct", "stage.cache_miss.mean_us"),
        Stage::FlashRead => ("stage.flash_read.share_pct", "stage.flash_read.mean_us"),
        Stage::FlashProgram => ("stage.flash_program.share_pct", "stage.flash_program.mean_us"),
        Stage::GcStep => ("stage.gc_step.share_pct", "stage.gc_step.mean_us"),
        Stage::ResizeMigrateBatch => {
            ("stage.resize_migrate_batch.share_pct", "stage.resize_migrate_batch.mean_us")
        }
        Stage::QueueWait => ("stage.queue_wait.share_pct", "stage.queue_wait.mean_us"),
        Stage::CacheAdmit => ("stage.cache_admit.share_pct", "stage.cache_admit.mean_us"),
        Stage::CacheHotHit => ("stage.cache_hot_hit.share_pct", "stage.cache_hot_hit.mean_us"),
        Stage::CacheStale => ("stage.cache_stale.share_pct", "stage.cache_stale.mean_us"),
        Stage::CacheEvict => ("stage.cache_evict.share_pct", "stage.cache_evict.mean_us"),
    }
}

// ----------------------------------------------------------- replays

/// Median ns per item over five batches of at least 20 ms each; `run`
/// processes all `items` inputs once. 0 when there is no input.
fn ns_per_item(items: usize, mut run: impl FnMut()) -> f64 {
    if items == 0 {
        return 0.0;
    }
    let mut per_batch = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        let mut done = 0usize;
        while start.elapsed().as_millis() < 20 {
            run();
            done += items;
        }
        per_batch.push(start.elapsed().as_nanos() as f64 / done as f64);
    }
    crate::stats::median(&per_batch)
}

/// Time single layers on inputs captured from the device after a traced
/// window: signing the window's keys, finding each key's pair in its head
/// page, the record-table page codec and table operations on the index
/// pages resident in the FTL page cache, and RESP parsing of `wire`.
pub fn replay_metrics(
    m: &mut Metrics,
    dev: &Device,
    hasher: SigHasher,
    keys: &[[u8; KEY_LEN]],
    wire: &[u8],
    tracer: &mut Tracer,
) {
    tracer.open("replay.sigs.sign", 0);
    let sign = ns_per_item(keys.len(), || {
        for k in keys {
            black_box(hasher.sign(black_box(k)));
        }
    });
    tracer.close();
    m.set("sigs.sign_ns", sign, keys.len() as u64);

    // Head pages of a sample of keys, read without charging flash reads.
    let mut heads: Vec<(Bytes, KeySignature)> = Vec::new();
    let mut page_size = 0usize;
    for k in keys.iter().take(2048) {
        let shard = dev.shard_for_key(k);
        dev.with_shard(shard, |d| {
            page_size = d.ftl().geometry().page_size as usize;
            if let Ok(Some(ppa)) = d.locate(k) {
                if let Some((data, _)) = d.ftl().peek_page(ppa) {
                    heads.push((data, hasher.sign(k)));
                }
            }
        });
    }
    tracer.open("replay.ftl.find_in_head", 0);
    let find = ns_per_item(heads.len(), || {
        for (page, sig) in &heads {
            black_box(layout::find_in_head(black_box(page), page_size, *sig));
        }
    });
    tracer.close();
    m.set("ftl.find_in_head_ns", find, heads.len() as u64);

    // Index pages resident in each shard's page cache.
    let mut pages: Vec<Bytes> = Vec::new();
    let (mut records, mut hop) = (0u32, 0u32);
    for shard in 0..dev.shard_count() {
        dev.with_shard(shard, |d| {
            records = d.index().records_per_table();
            hop = d.index().config().hop_width;
            let cache = d.ftl().cache_ref();
            for key in cache.keys_mru().into_iter().take(32) {
                if let Some(bytes) = cache.peek(key) {
                    pages.push(bytes.clone());
                }
            }
        });
    }
    let tables: Vec<RecordTable> =
        pages.iter().map(|p| RecordTable::from_page(p, records, hop)).collect();
    let probes: Vec<(usize, KeySignature)> = tables
        .iter()
        .enumerate()
        .flat_map(|(i, t)| t.iter().take(64).map(move |(sig, _)| (i, sig)))
        .collect();
    tracer.open("replay.rhik-core.codec", 0);
    let decode = ns_per_item(pages.len(), || {
        for p in &pages {
            black_box(RecordTable::from_page(black_box(p), records, hop));
        }
    });
    let encode = ns_per_item(tables.len(), || {
        for t in &tables {
            black_box(t.to_page(page_size));
        }
    });
    let lookup = ns_per_item(probes.len(), || {
        for (i, sig) in &probes {
            black_box(tables[*i].lookup(black_box(*sig)));
        }
    });
    // Inserts of fresh signatures into copies of the captured tables;
    // the copies are made outside the timed part.
    let mut seq = 0u64;
    let mut per_batch = Vec::with_capacity(5);
    for _ in 0..if tables.is_empty() { 0 } else { 5 } {
        let (mut timed_ns, mut items) = (0u128, 0usize);
        while timed_ns < 20_000_000 {
            let mut copies = tables.clone();
            let start = Instant::now();
            for t in copies.iter_mut() {
                for _ in 0..8 {
                    seq += 1;
                    let sig = KeySignature(seq.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    black_box(t.insert(sig, rhik_nand::Ppa::new(1, 1)));
                }
            }
            timed_ns += start.elapsed().as_nanos();
            items += copies.len() * 8;
            black_box(&copies);
        }
        per_batch.push(timed_ns as f64 / items.max(1) as f64);
    }
    let insert = crate::stats::median(&per_batch);
    tracer.close();
    m.set("rhik-core.decode_ns", decode, pages.len() as u64);
    m.set("rhik-core.encode_ns", encode, tables.len() as u64);
    m.set("rhik-core.table_lookup_ns", lookup, probes.len() as u64);
    m.set("rhik-core.table_insert_ns", insert, (tables.len() * 8) as u64);

    tracer.open("replay.server.parse", 0);
    let limits = rhik_server::Limits::default();
    let mut args = Vec::with_capacity(8);
    // Frame boundaries, found once; the timed loop re-parses each frame.
    let mut frames = Vec::new();
    let mut pos = 0;
    while let Ok(rhik_server::Parse::Frame { consumed }) =
        rhik_server::resp::parse_frame(&wire[pos..], &limits, &mut args)
    {
        frames.push(pos);
        pos += consumed;
    }
    let parse = ns_per_item(frames.len(), || {
        for &at in &frames {
            let frame = &wire[at..];
            if rhik_server::resp::parse_frame(frame, &limits, &mut args).is_ok() {
                black_box(rhik_server::resp::decode(frame, &args).is_ok());
            }
        }
    });
    tracer.close();
    m.set("server.parse_ns_per_frame", parse, frames.len() as u64);
}
