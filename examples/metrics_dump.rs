//! Tour of the observability surface: run a small mixed workload on a RHIK
//! device with a span tracer installed, then dump what the device answers
//! — its metrics (read from the stats each layer keeps: snapshot diff,
//! JSON, Prometheus text), per-stage latency attribution from the trace,
//! the ≤ 1-flash-read-per-lookup distribution, and the DRAM hot-object
//! cache counters.
//!
//! ```sh
//! cargo run --release --example metrics_dump
//! ```

use rhik::kvssd::{DeviceConfig, ShardedKvssd, Stage, TelemetrySink};
use rhik::nand::DeviceProfile;

fn main() {
    let dev = ShardedKvssd::rhik(
        DeviceConfig::small().with_profile(DeviceProfile::kvemu_like()).with_hot_cache(256 * 1024),
    );
    let sink = TelemetrySink::enabled();
    dev.set_telemetry(sink.clone());

    // Phase 1: load. Snapshot after, so phase 2 can be diffed out.
    let value = vec![0x5A; 256];
    for i in 0..2_000u64 {
        dev.put(format!("md-{i:08}").as_bytes(), &value).expect("put");
    }
    let after_load = dev.metrics();

    // Phase 2: mixed reads/updates/deletes.
    for i in 0..4_000u64 {
        let key = format!("md-{:08}", (i * 13) % 2_000);
        match i % 4 {
            0 | 1 => {
                let _ = dev.get(key.as_bytes()).expect("get");
            }
            2 => dev.put(key.as_bytes(), &value).expect("update"),
            _ => {
                let _ = dev.delete(key.as_bytes());
            }
        }
    }

    let now = dev.metrics();
    let phase2 = now.since(&after_load);
    println!("== phase 2 only (snapshot diff: counters/histograms subtract) ==");
    println!(
        "gets {}  puts {}  deletes {}  nand reads {}  nand programs {}",
        phase2.counter("kvssd_gets"),
        phase2.counter("kvssd_puts"),
        phase2.counter("kvssd_deletes"),
        phase2.counter("nand_page_reads"),
        phase2.counter("nand_page_programs"),
    );
    if let Some(h) = phase2.histogram("get_latency_ns") {
        println!(
            "get latency (device time): {} samples, p50 {:.1} µs, p99 {:.1} µs",
            h.count(),
            h.p50_ns() as f64 / 1e3,
            h.p99_ns() as f64 / 1e3
        );
    }

    println!("\n== full-run JSON export ==\n{}", now.to_json());
    println!("== full-run Prometheus text export ==\n{}", now.to_prometheus_text());

    println!("== per-stage device-time attribution (last {} spans) ==", sink.spans().len());
    let attr = sink.attribution();
    for stage in Stage::ALL {
        let row = attr.row(stage);
        if row.events == 0 {
            continue;
        }
        println!(
            "  {:<20} {:>8} events  {:>10.3} ms total  {:>7.2} µs mean  {:>5.1} %",
            stage.name(),
            row.events,
            row.total_ns as f64 / 1e6,
            row.mean_ns() / 1e3,
            attr.share_pct(stage)
        );
    }
    println!("  ({} spans dropped by the ring)", sink.trace_dropped());

    let rpl = dev.reads_per_lookup();
    println!(
        "\n== reads-per-lookup ==\n{} lookups, max {} flash reads ({}), {:.2}% within 1",
        rpl.lookups,
        rpl.max,
        if rpl.invariant_ok() { "invariant holds" } else { "INVARIANT VIOLATED" },
        rpl.pct_within(1)
    );

    // The hot-object cache's counters and occupancy, as the metrics export
    // them (snake_case, present in the JSON and Prometheus dumps above)
    // and through the typed stats accessor they are read from.
    println!("\n== hot-object cache ==");
    println!(
        "hits {}  stale {}  admits {}  rejects {}  evictions {}",
        now.counter("hot_cache_hits"),
        now.counter("hot_cache_stale"),
        now.counter("hot_cache_admits"),
        now.counter("hot_cache_rejects"),
        now.counter("hot_cache_evictions"),
    );
    println!(
        "occupancy: {:.1} KiB, {} entries (gauges: hot_cache_bytes / hot_cache_entries)",
        now.gauge("hot_cache_bytes").unwrap_or(0.0) / 1024.0,
        now.gauge("hot_cache_entries").unwrap_or(0.0),
    );
    let cache = dev.hot_cache_stats().expect("cache enabled");
    println!(
        "typed stats: {} lookups, {:.1}% hit rate",
        cache.lookups,
        if cache.lookups == 0 { 0.0 } else { 100.0 * cache.hits as f64 / cache.lookups as f64 },
    );
}
