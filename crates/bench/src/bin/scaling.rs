//! Sharded multi-queue scaling: threads × shards throughput matrix.
//!
//! Compares a single-queue baseline (one mutex over one device) against
//! [`ShardedKvssd`] at 1/2/4 shards under 1/2/4 submitting threads, for
//! Zipfian (θ = 0.99) and uniform key streams. Two throughput metrics
//! per cell:
//!
//! * **device-time ops/s** — total commands over simulated device time
//!   (the paper's IOPS model; for the sharded device this is the max
//!   over per-shard clocks, since real submission queues drain in
//!   parallel). Deterministic, host-independent; this is the headline
//!   scaling number.
//! * **wall-clock ops/s** — host-side throughput. Only meaningful on a
//!   multi-core host; recorded for transparency (CI may have one core,
//!   where lock contention, not parallelism, is the visible difference).
//!
//! Emits `BENCH_scaling.json` in the working directory plus the shared
//! `target/experiments/scaling.json` blob.

use std::time::Instant;

use rhik_bench::{
    attribution_json, attribution_table, audit_requested, emit_json, reads_per_lookup_json,
    render_table, trace_dump_requested, Scale,
};
use rhik_ftl::sync::Mutex;
use rhik_kvssd::{DeviceConfig, KvssdDevice, ShardedKvssd, TelemetrySink};
use rhik_nand::DeviceProfile;
use rhik_workloads::{KeyStream, Keygen};
use serde_json::{json, Value};

const VALUE_BYTES: usize = 100;
const KEY_BYTES: usize = 16;

#[derive(Clone, Copy)]
struct Dist {
    name: &'static str,
    theta: Option<f64>,
}

fn stream_for(dist: Dist, population: u64) -> KeyStream {
    match dist.theta {
        Some(theta) => KeyStream::Zipf { population, theta },
        None => KeyStream::Uniform { population },
    }
}

struct RunResult {
    total_ops: u64,
    wall_secs: f64,
    device_secs: f64,
    /// Merged put-latency tail (p99 / p99.9, ns) — resize stalls and GC
    /// land here, so the tail shows what the throughput number hides.
    put_p99_ns: u64,
    put_p999_ns: u64,
    /// Merged get-latency percentiles (ns). The hot-object cache shows up
    /// here: DRAM hits record zero simulated device time, so an effective
    /// cache collapses p50 and, at high hit rates, the tail too.
    get_p50_ns: u64,
    get_p99_ns: u64,
    get_p999_ns: u64,
    /// Hot-object cache counters, when the run had the cache enabled.
    cache: Option<rhik_kvssd::CacheStats>,
}

impl RunResult {
    fn wall_ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.wall_secs.max(1e-9)
    }

    fn device_ops_per_sec(&self) -> f64 {
        self.total_ops as f64 / self.device_secs.max(1e-12)
    }
}

/// `--gate-min-ratio <f>`: fail the run (exit 1) unless, for every
/// distribution, the sharded 4-thread/4-shard wall-clock throughput is
/// at least `f` times the 1-thread/1-shard figure. CI passes a factor
/// suited to the runner's core count; multi-core hosts can demand the
/// near-linear headline, single-core smoke runs assert no collapse.
fn gate_min_ratio() -> Option<f64> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--gate-min-ratio" {
            return args.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = a.strip_prefix("--gate-min-ratio=") {
            return v.parse().ok();
        }
    }
    None
}

/// `--cache-budget <bytes>`: enable the DRAM hot-object cache tier with
/// this budget for every *sharded* matrix run (the comparison section
/// below always runs both ways regardless). Default: off, so default
/// results are identical to a build without the cache tier.
fn cache_budget() -> Option<u64> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--cache-budget" {
            return args.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = a.strip_prefix("--cache-budget=") {
            return v.parse().ok();
        }
    }
    None
}

/// Budget for the always-on cached-vs-uncached comparison: a hard cap at
/// ~2/3 of the loaded working set (6000 × ~180 B charged ≈ 1.05 MiB).
/// The zipfian trace touches ~3.5k distinct keys, so the budget holds the
/// warmed head with a little slack against per-stripe imbalance — the
/// steady-state regime where the DRAM tier pays. Squeezing the budget
/// further degrades gracefully (the `--cache-budget` smoke runs and the
/// property tests exercise hard eviction pressure).
const COMPARISON_BUDGET: u64 = 704 * 1024;

struct CachePhase {
    get_p50_ns: u64,
    get_p99_ns: u64,
    get_p999_ns: u64,
    measured_ops: u64,
    /// Simulated device time consumed by the measured phase. Zero when
    /// every measured get was served from DRAM.
    device_secs: f64,
    cache: Option<rhik_kvssd::CacheStats>,
}

impl CachePhase {
    fn device_throughput_label(&self) -> String {
        if self.device_secs < 1e-12 {
            "all-DRAM (zero device time)".to_string()
        } else {
            format!("{:.3} Mops/s", self.measured_ops as f64 / self.device_secs / 1e6)
        }
    }

    fn device_ops_per_sec(&self) -> Option<f64> {
        (self.device_secs >= 1e-12).then(|| self.measured_ops as f64 / self.device_secs)
    }
}

/// The cached-vs-uncached comparison run: load the population, warm with
/// one zipfian pass, then measure a replay of the same get trace — the
/// steady state of a skewed serving workload, with no compulsory misses
/// muddying the number (every measured key was seen once before; whether
/// it *hits* is decided purely by what the budget + TinyLFU kept
/// resident). A telemetry snapshot diff isolates the measured phase's
/// latency histogram from load and warmup.
fn run_cache_phase(dist: Dist, population: u64, ops: u64, budget: Option<u64>) -> CachePhase {
    let mut cfg = config().with_shards(4);
    if let Some(b) = budget {
        cfg = cfg.with_hot_cache(b);
    }
    let dev = ShardedKvssd::rhik(cfg);
    let sink = TelemetrySink::enabled();
    dev.set_telemetry(sink.clone());
    let value = vec![0xAB; VALUE_BYTES];
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let dev = dev.clone();
            let value = &value;
            scope.spawn(move || {
                let keygen = Keygen::new(KeyStream::Sequential, KEY_BYTES, 0);
                let lo = population * t / 4;
                let hi = population * (t + 1) / 4;
                for id in lo..hi {
                    dev.put(&keygen.key_for(id), value).unwrap();
                }
            });
        }
    });
    // Warm after the load fully quiesces: overlapping puts would keep
    // bumping invalidation versions and racing concurrent fills out of
    // admission, making the warmed set depend on thread interleaving.
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let dev = dev.clone();
            scope.spawn(move || {
                let mut gen = Keygen::new(stream_for(dist, population), KEY_BYTES, 0xF111 + t);
                for _ in 0..ops / 4 {
                    let _ = dev.get(&gen.next_key()).unwrap();
                }
            });
        }
    });
    let warm = sink.snapshot().expect("sink enabled");
    let device_start = dev.device_elapsed_secs();
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let dev = dev.clone();
            scope.spawn(move || {
                // Same seed as the warm pass: replay the trace.
                let mut gen = Keygen::new(stream_for(dist, population), KEY_BYTES, 0xF111 + t);
                for _ in 0..ops / 4 {
                    let _ = dev.get(&gen.next_key()).unwrap();
                }
            });
        }
    });
    let measured = sink.snapshot().expect("sink enabled").since(&warm);
    let (p50, p99, p999) = measured
        .histogram("get_latency_ns")
        .map_or((0, 0, 0), |h| (h.p50_ns(), h.p99_ns(), h.p999_ns()));
    CachePhase {
        get_p50_ns: p50,
        get_p99_ns: p99,
        get_p999_ns: p999,
        measured_ops: (ops / 4) * 4,
        device_secs: (dev.device_elapsed_secs() - device_start).max(0.0),
        cache: dev.hot_cache_stats(),
    }
}

fn cache_stats_json(c: &rhik_kvssd::CacheStats) -> Value {
    json!({
        "lookups": c.lookups,
        "hits": c.hits,
        "stale_hits": c.stale_hits,
        "admits": c.admits,
        "rejects": c.rejects,
        "evictions": c.evictions,
        "replica_admits": c.replica_admits,
        "bytes": c.bytes,
        "entries": c.entries,
    })
}

fn config() -> DeviceConfig {
    // Realistic (KVEMU-like) timing so the simulated clock measures
    // something; `small()` uses the instant profile.
    DeviceConfig::small().with_profile(DeviceProfile::kvemu_like())
}

/// Each of `threads` workers loads a disjoint slice of the population,
/// then issues `ops / threads` mixed commands (50 % get / 50 % update)
/// with keys drawn from `dist`.
fn run_sharded(
    shards: u32,
    threads: u64,
    dist: Dist,
    population: u64,
    ops: u64,
    sink: Option<&TelemetrySink>,
    cache_budget: Option<u64>,
) -> RunResult {
    let mut cfg = config().with_shards(shards);
    if let Some(budget) = cache_budget {
        cfg = cfg.with_hot_cache(budget);
    }
    let dev = ShardedKvssd::rhik(cfg);
    if let Some(s) = sink {
        dev.set_telemetry(s.clone());
    }
    let value = vec![0xAB; VALUE_BYTES];
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let dev = dev.clone();
            let value = &value;
            scope.spawn(move || {
                let keygen = Keygen::new(KeyStream::Sequential, KEY_BYTES, 0);
                let lo = population * t / threads;
                let hi = population * (t + 1) / threads;
                for id in lo..hi {
                    dev.put(&keygen.key_for(id), value).unwrap();
                }
                let mut gen = Keygen::new(stream_for(dist, population), KEY_BYTES, 0xC0FFEE + t);
                for i in 0..ops / threads {
                    let key = gen.next_key();
                    if i % 2 == 0 {
                        let _ = dev.get(&key).unwrap();
                    } else {
                        dev.put(&key, value).unwrap();
                    }
                }
            });
        }
    });
    // `--audit`: with all submitters joined, every shard is at a command
    // boundary — walk the full cross-layer state (fresh auditor per
    // device; cursors must not mix across runs).
    if audit_requested() {
        let report = dev.audit(&mut rhik_audit::DeviceAuditor::new());
        assert!(report.is_ok(), "--audit found invariant violations:\n{report}");
        eprintln!("[audit] sharded {shards}s/{threads}t: clean");
    }
    let puts = dev.put_latencies();
    let gets = dev.get_latencies();
    RunResult {
        total_ops: population + (ops / threads) * threads,
        wall_secs: start.elapsed().as_secs_f64(),
        device_secs: dev.device_elapsed_secs(),
        put_p99_ns: puts.p99_ns(),
        put_p999_ns: puts.p999_ns(),
        get_p50_ns: gets.p50_ns(),
        get_p99_ns: gets.p99_ns(),
        get_p999_ns: gets.p999_ns(),
        cache: dev.hot_cache_stats(),
    }
}

/// The single-queue baseline: one mutex over one device, so every
/// command serializes on one submission queue and one clock.
fn run_shared(threads: u64, dist: Dist, population: u64, ops: u64) -> RunResult {
    let dev = Mutex::new(KvssdDevice::rhik(config()));
    let lock = || dev.lock().unwrap_or_else(|poison| poison.into_inner());
    let value = vec![0xAB; VALUE_BYTES];
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let value = &value;
            scope.spawn(move || {
                let keygen = Keygen::new(KeyStream::Sequential, KEY_BYTES, 0);
                let lo = population * t / threads;
                let hi = population * (t + 1) / threads;
                for id in lo..hi {
                    lock().put(&keygen.key_for(id), value).unwrap();
                }
                let mut gen = Keygen::new(stream_for(dist, population), KEY_BYTES, 0xC0FFEE + t);
                for i in 0..ops / threads {
                    let key = gen.next_key();
                    if i % 2 == 0 {
                        let _ = lock().get(&key).unwrap();
                    } else {
                        lock().put(&key, value).unwrap();
                    }
                }
            });
        }
    });
    let dev = lock();
    if audit_requested() {
        let report = dev.audit(&mut rhik_audit::DeviceAuditor::new());
        assert!(report.is_ok(), "--audit found invariant violations:\n{report}");
        eprintln!("[audit] shared {threads}t: clean");
    }
    let (puts, gets) = (dev.put_latencies(), dev.get_latencies());
    RunResult {
        total_ops: population + (ops / threads) * threads,
        wall_secs: start.elapsed().as_secs_f64(),
        device_secs: dev.elapsed_secs(),
        put_p99_ns: puts.p99_ns(),
        put_p999_ns: puts.p999_ns(),
        get_p50_ns: gets.p50_ns(),
        get_p99_ns: gets.p99_ns(),
        get_p999_ns: gets.p999_ns(),
        cache: None,
    }
}

fn main() {
    let scale = Scale::from_args();
    let population: u64 = scale.pick(6_000, 40_000);
    let ops: u64 = scale.pick(20_000, 160_000);
    let dists =
        [Dist { name: "zipf-0.99", theta: Some(0.99) }, Dist { name: "uniform", theta: None }];
    let thread_counts = [1u64, 2, 4];
    let shard_counts = [1u32, 2, 4];

    let matrix_cache = cache_budget();
    if let Some(budget) = matrix_cache {
        eprintln!("[cfg] hot-object cache enabled for sharded runs: {budget} B budget");
    }
    let mut rows = vec![vec![
        "dist".to_string(),
        "mode".to_string(),
        "threads".to_string(),
        "shards".to_string(),
        "device Mops/s".to_string(),
        "wall Mops/s".to_string(),
        "get p50 µs".to_string(),
        "get p99 µs".to_string(),
        "get p99.9 µs".to_string(),
        "put p99 µs".to_string(),
        "put p99.9 µs".to_string(),
    ]];
    let mut results: Vec<Value> = Vec::new();
    // dist name -> (shared@4t, sharded@4t4s) device-time ops/s.
    let mut acceptance: Vec<(String, f64, f64)> = Vec::new();
    // dist name -> (sharded 1t/1s, sharded 4t/4s) wall-clock ops/s.
    let mut wall_scaling: Vec<(String, f64, f64)> = Vec::new();

    for dist in dists {
        for &threads in &thread_counts {
            eprintln!("[run] dist={} mode=shared threads={threads}", dist.name);
            let r = run_shared(threads, dist, population, ops);
            rows.push(vec![
                dist.name.to_string(),
                "shared".to_string(),
                threads.to_string(),
                "-".to_string(),
                format!("{:.3}", r.device_ops_per_sec() / 1e6),
                format!("{:.3}", r.wall_ops_per_sec() / 1e6),
                format!("{:.1}", r.get_p50_ns as f64 / 1e3),
                format!("{:.1}", r.get_p99_ns as f64 / 1e3),
                format!("{:.1}", r.get_p999_ns as f64 / 1e3),
                format!("{:.1}", r.put_p99_ns as f64 / 1e3),
                format!("{:.1}", r.put_p999_ns as f64 / 1e3),
            ]);
            if threads == 4 {
                acceptance.push((dist.name.to_string(), r.device_ops_per_sec(), 0.0));
            }
            results.push(json!({
                "dist": dist.name,
                "mode": "shared",
                "threads": threads,
                "shards": 1,
                "total_ops": r.total_ops,
                "device_secs": r.device_secs,
                "wall_secs": r.wall_secs,
                "device_ops_per_sec": r.device_ops_per_sec(),
                "wall_ops_per_sec": r.wall_ops_per_sec(),
                "get_p50_ns": r.get_p50_ns,
                "get_p99_ns": r.get_p99_ns,
                "get_p999_ns": r.get_p999_ns,
                "put_p99_ns": r.put_p99_ns,
                "put_p999_ns": r.put_p999_ns,
            }));
        }
        for &threads in &thread_counts {
            for &shards in &shard_counts {
                eprintln!(
                    "[run] dist={} mode=sharded threads={threads} shards={shards}",
                    dist.name
                );
                let r = run_sharded(shards, threads, dist, population, ops, None, matrix_cache);
                rows.push(vec![
                    dist.name.to_string(),
                    "sharded".to_string(),
                    threads.to_string(),
                    shards.to_string(),
                    format!("{:.3}", r.device_ops_per_sec() / 1e6),
                    format!("{:.3}", r.wall_ops_per_sec() / 1e6),
                    format!("{:.1}", r.get_p50_ns as f64 / 1e3),
                    format!("{:.1}", r.get_p99_ns as f64 / 1e3),
                    format!("{:.1}", r.get_p999_ns as f64 / 1e3),
                    format!("{:.1}", r.put_p99_ns as f64 / 1e3),
                    format!("{:.1}", r.put_p999_ns as f64 / 1e3),
                ]);
                if threads == 4 && shards == 4 {
                    let slot = acceptance
                        .iter_mut()
                        .find(|(name, _, _)| name == dist.name)
                        .expect("shared baseline ran first");
                    slot.2 = r.device_ops_per_sec();
                }
                if threads == 1 && shards == 1 {
                    wall_scaling.push((dist.name.to_string(), r.wall_ops_per_sec(), 0.0));
                } else if threads == 4 && shards == 4 {
                    let slot = wall_scaling
                        .iter_mut()
                        .find(|(name, _, _)| name == dist.name)
                        .expect("1t/1s cell ran first");
                    slot.2 = r.wall_ops_per_sec();
                }
                let mut row = json!({
                    "dist": dist.name,
                    "mode": "sharded",
                    "threads": threads,
                    "shards": shards,
                    "total_ops": r.total_ops,
                    "device_secs": r.device_secs,
                    "wall_secs": r.wall_secs,
                    "device_ops_per_sec": r.device_ops_per_sec(),
                    "wall_ops_per_sec": r.wall_ops_per_sec(),
                    "get_p50_ns": r.get_p50_ns,
                    "get_p99_ns": r.get_p99_ns,
                    "get_p999_ns": r.get_p999_ns,
                    "put_p99_ns": r.put_p99_ns,
                    "put_p999_ns": r.put_p999_ns,
                });
                if let (Value::Object(pairs), Some(cache)) = (&mut row, &r.cache) {
                    pairs.push(("cache".to_string(), cache_stats_json(cache)));
                }
                results.push(row);
            }
        }
    }

    println!("{}", render_table(&rows));
    let mut speedups: Vec<Value> = Vec::new();
    for (name, shared, sharded) in &acceptance {
        let speedup = sharded / shared;
        println!(
            "{name}: 4 threads / 4 shards vs shared@4t — {speedup:.2}x \
             ({:.3} vs {:.3} device Mops/s)",
            sharded / 1e6,
            shared / 1e6
        );
        speedups.push(json!({
            "dist": name.clone(),
            "shared_4t_device_ops_per_sec": *shared,
            "sharded_4t4s_device_ops_per_sec": *sharded,
            "speedup": speedup,
        }));
    }

    let mut wall_ratios: Vec<Value> = Vec::new();
    for (name, one, four) in &wall_scaling {
        let ratio = four / one.max(1e-9);
        println!(
            "{name}: wall-clock 4t/4s vs 1t/1s — {ratio:.2}x \
             ({:.0} vs {:.0} ops/s; parallelism needs host cores)",
            four, one
        );
        wall_ratios.push(json!({
            "dist": name.clone(),
            "sharded_1t1s_wall_ops_per_sec": *one,
            "sharded_4t4s_wall_ops_per_sec": *four,
            "ratio": ratio,
        }));
    }

    // Cached-vs-uncached: the same warmed read phase at 4 threads /
    // 4 shards with the hot-object cache off and then on under a hard
    // DRAM cap (see `run_cache_phase`).
    let comparison_budget = matrix_cache.unwrap_or(COMPARISON_BUDGET);
    let zipf = dists[0];
    eprintln!("[run] cache-comparison dist={} 4t/4s cache=off", zipf.name);
    let off = run_cache_phase(zipf, population, ops, None);
    eprintln!(
        "[run] cache-comparison dist={} 4t/4s cache=on budget={comparison_budget}",
        zipf.name
    );
    let on = run_cache_phase(zipf, population, ops, Some(comparison_budget));
    let cache = on.cache.expect("cache-on run has stats");
    let hit_pct =
        if cache.lookups == 0 { 0.0 } else { 100.0 * cache.hits as f64 / cache.lookups as f64 };
    println!(
        "\n{}: read phase with hot-object cache at {} KiB budget \
         ({:.1}% hit rate, {} B resident, {} evictions, {} TinyLFU rejects):",
        zipf.name,
        comparison_budget / 1024,
        hit_pct,
        cache.bytes,
        cache.evictions,
        cache.rejects,
    );
    println!(
        "  get p50 {:.1} -> {:.1} µs ({:.1}x), p99 {:.1} -> {:.1} µs ({:.1}x), \
         p99.9 {:.1} -> {:.1} µs, device throughput {} -> {}",
        off.get_p50_ns as f64 / 1e3,
        on.get_p50_ns as f64 / 1e3,
        off.get_p50_ns as f64 / (on.get_p50_ns as f64).max(1.0),
        off.get_p99_ns as f64 / 1e3,
        on.get_p99_ns as f64 / 1e3,
        off.get_p99_ns as f64 / (on.get_p99_ns as f64).max(1.0),
        off.get_p999_ns as f64 / 1e3,
        on.get_p999_ns as f64 / 1e3,
        off.device_throughput_label(),
        on.device_throughput_label(),
    );
    let throughput_or_null =
        |p: &CachePhase| p.device_ops_per_sec().map_or(Value::Null, Value::from);
    let cache_comparison = json!({
        "dist": zipf.name,
        "threads": 4,
        "shards": 4,
        "budget_bytes": comparison_budget,
        "workload": "warmed get-only zipf trace replay (telemetry snapshot diff)",
        "measured_ops": off.measured_ops,
        "hit_rate_pct": hit_pct,
        "off": {
            "device_secs": off.device_secs,
            "device_ops_per_sec": throughput_or_null(&off),
            "get_p50_ns": off.get_p50_ns,
            "get_p99_ns": off.get_p99_ns,
            "get_p999_ns": off.get_p999_ns,
        },
        "on": {
            "device_secs": on.device_secs,
            "device_ops_per_sec": throughput_or_null(&on),
            "get_p50_ns": on.get_p50_ns,
            "get_p99_ns": on.get_p99_ns,
            "get_p999_ns": on.get_p999_ns,
            "cache": cache_stats_json(&cache),
        },
        "get_p50_speedup": off.get_p50_ns as f64 / (on.get_p50_ns as f64).max(1.0),
        "get_p99_speedup": off.get_p99_ns as f64 / (on.get_p99_ns as f64).max(1.0),
    });

    let blob = json!({
        "experiment": "scaling",
        "scale": scale.pick("small", "full"),
        "metric_note": "device_ops_per_sec uses the simulated device clock \
                        (max over shard queues); wall_ops_per_sec depends on host cores",
        "population": population,
        "mixed_ops": ops,
        "value_bytes": VALUE_BYTES as u64,
        "key_bytes": KEY_BYTES as u64,
        "cache_budget_bytes": matrix_cache.map_or(Value::Null, Value::from),
        "results": results,
        "speedup_4t4s_vs_shared_4t": speedups,
        "wall_scaling_4t4s_vs_1t1s": wall_ratios,
        "cache_comparison": cache_comparison,
    });
    emit_json("scaling", &blob);
    if let Ok(s) = serde_json::to_string_pretty(&blob) {
        let path = "BENCH_scaling.json";
        if std::fs::write(path, s).is_ok() {
            eprintln!("[wrote {path}]");
        }
    }

    // The smoke gate runs after the artifacts are written, so a failing
    // run still leaves the numbers behind for diagnosis.
    if let Some(min) = gate_min_ratio() {
        let mut failed = false;
        for (name, one, four) in &wall_scaling {
            let ratio = four / one.max(1e-9);
            if ratio < min {
                eprintln!(
                    "[gate] {name}: 4t/4s wall throughput is {ratio:.2}x of 1t/1s, \
                     below --gate-min-ratio {min}"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!("[gate] wall-clock 4t/4s >= {min}x of 1t/1s for every distribution");
    }

    // `--trace-dump`: one extra instrumented 4-shard run. Shards share
    // the sink, spans are tagged per shard, and the dump attributes
    // device time across stages for the merged multi-queue stream.
    if trace_dump_requested() {
        let sink = TelemetrySink::with_trace_capacity((population + ops) as usize);
        let dist = dists[0];
        eprintln!("[run] trace-dump dist={} mode=sharded threads=2 shards=4", dist.name);
        let _ = run_sharded(4, 2, dist, population, ops, Some(&sink), matrix_cache);
        let attr = sink.attribution();
        let rpl = sink.reads_per_lookup().unwrap_or_default();
        println!("per-stage device-time attribution (sharded run, telemetry on):");
        println!("{}", attribution_table(&attr));
        let trace = json!({
            "experiment": "scaling_trace",
            "scale": scale.pick("small", "full"),
            "dist": dist.name,
            "shards": 4,
            "threads": 2,
            "attribution": attribution_json(&attr),
            "reads_per_lookup": reads_per_lookup_json(&rpl),
            "trace_spans_dropped": sink.trace_dropped(),
        });
        emit_json("scaling_trace", &trace);
    }
}
