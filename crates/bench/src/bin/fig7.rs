//! Fig. 7 — rate of change of the resizing time while doubling index
//! capacity.
//!
//! Grows a RHIK index from a single record-layer table through ~a dozen
//! doublings, recording each migration's cost. The paper reports the rate
//! of change staying <= 1: doubling the index doubles the resize time but
//! no worse (resize cost is linear in index size), e.g. 5 ms at 11 M keys
//! -> 172 ms at 345 M keys. We sweep the same shape at emulator scale; the
//! "rate of change" column is (T_i / T_{i-1}) / (size_i / size_{i-1}) and
//! should hover around (or below) 1.0.
//!
//! ```sh
//! cargo run -p rhik-bench --release --bin fig7 [--scale full]
//! ```

use rhik_bench::{render_table, Scale};
use rhik_core::{RhikConfig, RhikIndex};
use rhik_ftl::{Ftl, FtlConfig, IndexBackend};
use rhik_nand::{DeviceProfile, NandGeometry, Ppa};
use rhik_sigs::KeySignature;

fn mix(n: u64) -> KeySignature {
    let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    KeySignature(z ^ (z >> 31))
}

fn main() {
    let scale = Scale::from_args();
    // Keys to insert: enough for ~12 (small) or ~16 (full) doublings at
    // 1927 records/table and 80% trigger.
    let target_keys: u64 = scale.pick(2_000_000, 16_000_000);

    // Index pages only — no KV data — so the device holds just metadata.
    // 32 KiB pages as in the paper. Capacity bounds *host* memory too (the
    // emulator keeps programmed pages resident until erased), so it is
    // sized to a few times the final index footprint and GC watermarks keep
    // the stale backlog in check.
    let geometry = NandGeometry::paper_default(scale.pick(2u64 << 30, 4u64 << 30));
    let mut ftl = Ftl::new(FtlConfig {
        geometry,
        profile: DeviceProfile::kvemu_like(),
        cache_budget_bytes: 64 << 20, // ample: resize cost, not caching, is measured
        gc_reserve_blocks: 2,
    });
    let mut idx = RhikIndex::new(
        // Paper-fidelity Fig. 7: measure the monolithic doubling cost, so
        // keep the stop-the-world resize rather than the incremental one.
        RhikConfig {
            initial_dir_bits: 0,
            dir_flush_interval: u64::MAX / 2,
            stop_the_world: true,
            ..Default::default()
        },
        geometry.page_size,
    );

    eprintln!("growing index to {target_keys} keys...");
    let gc_cfg = rhik_ftl::GcConfig {
        low_watermark: scale.pick(8, 160),
        high_watermark: scale.pick(16, 320),
        ..Default::default()
    };
    let mut aborts = 0u64;
    for i in 0..target_keys {
        match idx.insert(&mut ftl, mix(i), Ppa::new(0, 0)) {
            Ok(_) => {}
            // The paper's infrequent hopscotch abort (§IV-A1): at tens of
            // millions of inserts a few tables hit their hop limit just
            // below the global trigger. The device rejects the key; the
            // harness counts and moves on.
            Err(rhik_ftl::FtlError::TableFull { .. }) => aborts += 1,
            Err(e) => panic!("insert: {e}"),
        }
        if idx.maintenance_due() {
            match idx.maintain(&mut ftl) {
                Ok(()) => {}
                Err(rhik_ftl::FtlError::NeedsGc) => {
                    rhik_ftl::gc::run(&mut ftl, &mut idx, &gc_cfg).expect("gc");
                    let _ = idx.maintain(&mut ftl);
                }
                Err(e) => panic!("maintain: {e}"),
            }
        }
        // Reclaim retired table pages periodically; without GC the host
        // memory holding superseded pages grows unboundedly at full scale.
        if i % 50_000 == 0 && rhik_ftl::gc::should_run(&ftl, &gc_cfg) {
            rhik_ftl::gc::run(&mut ftl, &mut idx, &gc_cfg).expect("gc");
        }
    }
    if aborts > 0 {
        eprintln!("({aborts} hopscotch aborts across {target_keys} inserts — the paper's \"not frequent\" rejects)");
    }

    let events = idx.stats().resizes.clone();
    let mut rows = vec![vec![
        "keys before (M)".to_string(),
        "tables".to_string(),
        "media ms".to_string(),
        "cpu ms".to_string(),
        "growth x".to_string(),
        "rate of change".to_string(),
    ]];
    let mut rates = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let (growth, rate) = if i == 0 {
            (f64::NAN, f64::NAN)
        } else {
            let prev = &events[i - 1];
            let growth = ev.media_ns as f64 / prev.media_ns.max(1) as f64;
            let size_growth = ev.tables_before as f64 / prev.tables_before.max(1) as f64;
            (growth, growth / size_growth)
        };
        if !rate.is_nan() {
            rates.push(rate);
        }
        rows.push(vec![
            format!("{:.3}", ev.keys_before as f64 / 1e6),
            ev.tables_before.to_string(),
            format!("{:.3}", ev.media_ns as f64 / 1e6),
            format!("{:.3}", ev.cpu_ns as f64 / 1e6),
            if growth.is_nan() { "-".into() } else { format!("{growth:.2}") },
            if rate.is_nan() { "-".into() } else { format!("{rate:.2}") },
        ]);
    }
    println!("=== Fig. 7: resizing-time growth while doubling capacity ===\n");
    print!("{}", render_table(&rows));

    let tail_rates = &rates[rates.len().saturating_sub(6)..];
    let max_tail = tail_rates.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\n{} resizes; steady-state rate of change (last {} doublings) peaks at {:.2} \
         — {} (paper: mostly <= 1).",
        events.len(),
        tail_rates.len(),
        max_tail,
        if max_tail <= 1.3 { "linear scaling holds" } else { "SUPER-LINEAR — shape mismatch" },
    );

    rhik_bench::emit_json(
        "fig7",
        &serde_json::json!({
            "target_keys": target_keys,
            "resizes": events.iter().map(|e| serde_json::json!({
                "keys_before": e.keys_before,
                "tables_before": e.tables_before,
                "media_ns": e.media_ns,
                "cpu_ns": e.cpu_ns,
                "flash_reads": e.flash_reads,
                "flash_programs": e.flash_programs,
            })).collect::<Vec<_>>(),
            "max_tail_rate": max_tail,
        }),
    );
}
