//! Extension experiment — resize stalls and tail latency (§VI "Real-time
//! index scaling": "current implementation of RHIK keeps I/O requests in
//! the submission queue on halt while re-configuring the index. This
//! increases the tail latency of I/O requests during that period.")
//!
//! Two identical fill workloads:
//!   * **conservative init** — the index starts at one table and doubles
//!     its way up, stalling the queue at every resize;
//!   * **pre-sized init** — Eq. 2 sizing for the anticipated key count, so
//!     no resize ever fires.
//!
//! The put-latency percentiles show exactly where the §VI concern lives:
//! the mean barely moves, the p99.9 blows up with conservative init.
//!
//! ```sh
//! cargo run -p rhik-bench --release --bin tail_latency [--scale full]
//! ```

use rhik_bench::{render_table, Scale};
use rhik_core::RhikConfig;
use rhik_ftl::IndexBackend;
use rhik_kvssd::{DeviceConfig, KvssdDevice};
use rhik_nand::DeviceProfile;

fn main() {
    let scale = Scale::from_args();
    let keys: u64 = scale.pick(30_000, 200_000);

    let mut rows = vec![vec![
        "init".to_string(),
        "resizes".to_string(),
        "put mean µs".to_string(),
        "put p50 µs".to_string(),
        "put p99 µs".to_string(),
        "put p99.9 µs".to_string(),
        "put max ms".to_string(),
    ]];

    let mut emitted = Vec::new();
    for (label, rhik_cfg) in [
        // An unbounded migration batch is the monolithic doubling: this
        // bench demonstrates the §VI reconfiguration stall that incremental
        // migration (see resize_tail) amortizes away.
        (
            "conservative (1 table)",
            RhikConfig {
                initial_dir_bits: 0,
                resize_migration_batch: u32::MAX,
                ..Default::default()
            },
        ),
        (
            "pre-sized (Eq. 2)",
            RhikConfig { resize_migration_batch: u32::MAX, ..RhikConfig::default() }
                .with_anticipated_keys(keys * 2, 4096),
        ),
    ] {
        let mut cfg = DeviceConfig::small().with_profile(DeviceProfile::kvemu_like());
        cfg.geometry.blocks = scale.pick(256, 2048); // room for the whole fill
        cfg.rhik = rhik_cfg;
        let mut dev = KvssdDevice::rhik(cfg);
        for i in 0..keys {
            dev.put(format!("tail-{i:010}").as_bytes(), &[0u8; 64]).expect("put");
        }
        let h = dev.put_latencies();
        rows.push(vec![
            label.to_string(),
            dev.index().stats().resizes.len().to_string(),
            format!("{:.1}", h.mean_ns() / 1e3),
            format!("{:.1}", h.percentile_ns(50.0) as f64 / 1e3),
            format!("{:.1}", h.percentile_ns(99.0) as f64 / 1e3),
            format!("{:.1}", h.percentile_ns(99.9) as f64 / 1e3),
            format!("{:.2}", h.max_ns() as f64 / 1e6),
        ]);
        emitted.push(serde_json::json!({
            "init": label,
            "resizes": dev.index().stats().resizes.len(),
            "mean_ns": h.mean_ns(),
            "p50_ns": h.percentile_ns(50.0),
            "p99_ns": h.percentile_ns(99.0),
            "p999_ns": h.percentile_ns(99.9),
            "max_ns": h.max_ns(),
        }));
    }

    println!("=== resize stalls vs put tail latency ({keys} sequential puts) ===\n");
    print!("{}", render_table(&rows));
    println!("\nconservative initialization trades a handful of multi-millisecond");
    println!("stalls (visible at p99.9/max) for not over-provisioning the index —");
    println!("the trade §VI's \"real-time index scaling\" future work wants to fix.");
    rhik_bench::emit_json("tail_latency", &serde_json::json!({ "keys": keys, "rows": emitted }));
}
