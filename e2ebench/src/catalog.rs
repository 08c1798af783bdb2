//! The metric catalog: every metric's name, unit and direction, and for
//! per-layer metrics the end-to-end metric and workload it should move.
//! `BENCHMARK.json` at the repository root lists the same names; the
//! catalog test keeps the two in step.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// `metric@workload` pairs this layer metric should move.
    pub moves: &'static str,
}

const fn e(name: &'static str, unit: &'static str, better: &'static str) -> EndToEnd {
    EndToEnd { name, unit, better }
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Layer {
    Layer { name, unit, better, moves }
}

/// End-to-end metrics with a bound in `BENCHMARK.json`, reported with
/// tracing off. [`UNBOUNDED`] and `failed_pct` are printed with them.
pub const END_TO_END: &[EndToEnd] = &[
    e("ops_per_cpu_s", "ops/cpu-s", "higher"),
    e("get_p99_us", "us", "lower"),
    e("put_p99_us", "us", "lower"),
    e("setup_s", "s", "lower"),
    e("peak_rss_mib", "MiB", "lower"),
    e("device_ops_per_s", "1/s", "higher"),
    e("device_get_p99_us", "us", "lower"),
    e("device_put_p99_us", "us", "lower"),
    e("write_amp", "ratio", "lower"),
    e("flash_reads_per_get", "count", "lower"),
    e("space_amp", "ratio", "lower"),
];

/// End-to-end metrics printed in the table and the report line but left
/// out of `BENCHMARK.json` and the result line. The host-latency medians
/// time sub-microsecond to ~10 µs calls whose data sits in the core's
/// caches, and on a shared machine they follow the neighbours' load more
/// than anything else: over three sets of ten runs their spread (IQR over
/// median) reached 0.29 (`get_p50_us`) and 0.34 (`put_p50_us`) on
/// `read-hot`, above the largest bound a metric may have (0.25).
pub const UNBOUNDED: &[EndToEnd] =
    &[e("get_p50_us", "us", "lower"), e("put_p50_us", "us", "lower")];

/// Printed with the end-to-end metrics: it is 0 on a healthy run, and the
/// result line's `attempted`/`failed` carry it.
pub const FAILED_PCT: EndToEnd = e("failed_pct", "%", "lower");

/// What the `server.*` metrics move: the cost of serving over RESP,
/// which no end-to-end workload measures yet.
const RESP_ONLY: &str = "none in BENCHMARK.json (RESP serving cost; no RESP workload yet)";

/// Per-layer metrics, reported by the traced run (`--trace 1`).
pub const LAYERS: &[Layer] = &[
    l("sigs.sign_ns", "ns", "lower", "ops_per_cpu_s@read-hot"),
    l("server.parse_ns_per_frame", "ns", "lower", RESP_ONLY),
    l("server.cpu_us_per_op", "us", "lower", RESP_ONLY),
    l("server.conn_buffer_hwm_kib", "KiB", "lower", RESP_ONLY),
    l(
        "hotcache.hit_ratio",
        "ratio",
        "higher",
        "get_p50_us@read-hot device_ops_per_s@read-hot flash_reads_per_get@read-hot",
    ),
    l(
        "hotcache.stale_hit_ratio",
        "ratio",
        "lower",
        "get_p50_us@read-hot flash_reads_per_get@read-hot",
    ),
    l("hotcache.admit_ratio", "ratio", "higher", "get_p50_us@read-hot device_ops_per_s@read-hot"),
    l(
        "hotcache.evictions_per_kop",
        "count",
        "lower",
        "get_p50_us@read-hot flash_reads_per_get@read-hot",
    ),
    l("hotcache.resident_mib", "MiB", "lower", "get_p50_us@read-hot peak_rss_mib@read-hot"),
    l(
        "kvssd.lockfree_share",
        "ratio",
        "higher",
        "get_p50_us@read-hot get_p99_us@read-hot get_p99_us@write-grow",
    ),
    l(
        "kvssd.lockfree_fallback_ratio",
        "ratio",
        "lower",
        "get_p50_us@read-hot get_p99_us@read-hot get_p99_us@write-grow",
    ),
    l(
        "kvssd.gc_invocations_per_kop",
        "count",
        "lower",
        "put_p99_us@write-grow device_put_p99_us@write-grow",
    ),
    l(
        "kvssd.shard_clock_skew",
        "ratio",
        "lower",
        "device_ops_per_s@read-hot device_ops_per_s@write-grow",
    ),
    l("rhik-core.decode_ns", "ns", "lower", "put_p50_us@write-grow ops_per_cpu_s@write-grow"),
    l("rhik-core.encode_ns", "ns", "lower", "put_p50_us@write-grow ops_per_cpu_s@write-grow"),
    l("rhik-core.table_lookup_ns", "ns", "lower", "put_p50_us@write-grow ops_per_cpu_s@write-grow"),
    l("rhik-core.table_insert_ns", "ns", "lower", "put_p50_us@write-grow ops_per_cpu_s@write-grow"),
    l("rhik-core.metadata_reads_per_lookup", "count", "lower", "flash_reads_per_get@write-grow"),
    l("rhik-core.lookups_within_1_read_pct", "%", "higher", "flash_reads_per_get@write-grow"),
    l("rhik-core.resizes", "count", "lower", "put_p99_us@write-grow device_put_p99_us@write-grow"),
    l("rhik-core.resize_cpu_ms", "ms", "lower", "put_p99_us@write-grow"),
    l("rhik-core.resize_max_step_us", "us", "lower", "device_put_p99_us@write-grow"),
    l("rhik-core.insert_aborts", "count", "lower", "failed_pct@write-grow"),
    l(
        "ftl.index_cache_hit_ratio",
        "ratio",
        "higher",
        "write_amp@write-grow device_put_p99_us@write-grow",
    ),
    l(
        "ftl.index_cache_dirty_evictions_per_kop",
        "count",
        "lower",
        "write_amp@write-grow device_put_p99_us@write-grow",
    ),
    l("ftl.index_page_programs_per_put", "count", "lower", "write_amp@write-grow"),
    l("ftl.data_page_programs_per_put", "count", "lower", "write_amp@write-grow"),
    l(
        "ftl.gc_relocated_pairs_per_kop",
        "count",
        "lower",
        "write_amp@write-grow device_put_p99_us@write-grow",
    ),
    l(
        "ftl.gc_erased_blocks_per_kop",
        "count",
        "lower",
        "write_amp@write-grow failed_pct@write-grow",
    ),
    l("ftl.free_blocks_min", "count", "higher", "failed_pct@write-grow"),
    l("ftl.find_in_head_ns", "ns", "lower", "get_p50_us@read-hot"),
    l(
        "nand.page_reads_per_op",
        "count",
        "lower",
        "device_ops_per_s@read-hot device_ops_per_s@write-grow",
    ),
    l(
        "nand.page_programs_per_op",
        "count",
        "lower",
        "device_ops_per_s@write-grow write_amp@write-grow",
    ),
    l("nand.erases_per_kop", "count", "lower", "device_ops_per_s@write-grow write_amp@write-grow"),
    l("stage.dir_lookup.share_pct", "%", "lower", "device_ops_per_s@read-hot"),
    l("stage.dir_lookup.mean_us", "us", "lower", "device_ops_per_s@read-hot"),
    l("stage.cache_hit.share_pct", "%", "lower", "device_ops_per_s@read-hot"),
    l("stage.cache_hit.mean_us", "us", "lower", "device_ops_per_s@read-hot"),
    l("stage.cache_miss.share_pct", "%", "lower", "device_get_p99_us@write-grow"),
    l("stage.cache_miss.mean_us", "us", "lower", "device_get_p99_us@write-grow"),
    l("stage.flash_read.share_pct", "%", "lower", "device_get_p99_us@read-hot"),
    l("stage.flash_read.mean_us", "us", "lower", "device_get_p99_us@read-hot"),
    l("stage.flash_program.share_pct", "%", "lower", "device_put_p99_us@write-grow"),
    l("stage.flash_program.mean_us", "us", "lower", "device_put_p99_us@write-grow"),
    l("stage.gc_step.share_pct", "%", "lower", "device_put_p99_us@write-grow"),
    l("stage.gc_step.mean_us", "us", "lower", "device_put_p99_us@write-grow"),
    l("stage.resize_migrate_batch.share_pct", "%", "lower", "device_put_p99_us@write-grow"),
    l("stage.resize_migrate_batch.mean_us", "us", "lower", "device_put_p99_us@write-grow"),
    l("stage.queue_wait.share_pct", "%", "lower", "device_put_p99_us@write-grow"),
    l("stage.queue_wait.mean_us", "us", "lower", "device_put_p99_us@write-grow"),
    l("stage.cache_admit.share_pct", "%", "lower", "device_ops_per_s@read-hot"),
    l("stage.cache_admit.mean_us", "us", "lower", "device_ops_per_s@read-hot"),
    l("stage.cache_hot_hit.share_pct", "%", "higher", "device_ops_per_s@read-hot"),
    l("stage.cache_hot_hit.mean_us", "us", "lower", "device_ops_per_s@read-hot"),
    l("stage.cache_stale.share_pct", "%", "lower", "device_ops_per_s@read-hot"),
    l("stage.cache_stale.mean_us", "us", "lower", "device_ops_per_s@read-hot"),
    l("stage.cache_evict.share_pct", "%", "lower", "device_ops_per_s@read-hot"),
    l("stage.cache_evict.mean_us", "us", "lower", "device_ops_per_s@read-hot"),
    l("trace_overhead_pct", "%", "lower", "ops_per_cpu_s@read-hot ops_per_cpu_s@write-grow"),
];
