//! Ablations over RHIK's design choices (§IV / §VI discussion points).
//!
//! 1. **hopinfo width** — hop neighborhood H vs insert-abort rate at the
//!    default 80 % occupancy threshold (§IV-A1 picks H = 32).
//! 2. **cache budget** — FTL DRAM sweep vs lookup miss rate for RHIK and
//!    the multi-level baseline (generalizes Fig. 5a).
//! 3. **signature bits** — truncated signatures vs `exist` false-positive
//!    rate (§IV-A3's 64- vs 128-bit discussion, birthday bound included).
//! 4. **resize threshold** — occupancy trigger vs space headroom and
//!    resize count (§V-C: 80 % is the knee).
//!
//! ```sh
//! cargo run -p rhik-bench --release --bin ablations [--scale full]
//! ```

use rhik_baseline::MultiLevelConfig;
use rhik_bench::{fmt_bytes, render_table, Scale};
use rhik_core::{RecordTable, RhikConfig, RhikIndex, TableInsert};
use rhik_ftl::{Ftl, FtlConfig, FtlError, GcConfig, IndexBackend};
use rhik_kvssd::{DeviceConfig, EngineMode, KvssdDevice};
use rhik_nand::{DeviceProfile, NandGeometry, Ppa};
use rhik_sigs::{estimate, KeySignature, SigHasher};
use rhik_workloads::driver::WorkloadDriver;
use rhik_workloads::ibm;

fn mix(n: u64) -> KeySignature {
    let mut z = n.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    KeySignature(z ^ (z >> 31))
}

/// 1. Hop width vs abort rate on page-sized tables at fixed target fill.
fn ablate_hopinfo(scale: Scale) {
    println!("=== ablation 1: hopscotch hop width (tables of 1927 records) ===\n");
    let tables: usize = scale.pick(200, 2_000);
    let records = RhikConfig::records_per_table(32 * 1024);
    let target_fill = 0.80;

    let mut rows = vec![vec![
        "hop width".to_string(),
        "inserts".to_string(),
        "aborts".to_string(),
        "abort %".to_string(),
    ]];
    for hop in [4u32, 8, 16, 32] {
        let mut aborts = 0u64;
        let mut inserts = 0u64;
        let per_table = (records as f64 * target_fill) as u64;
        for t in 0..tables as u64 {
            let mut table = RecordTable::new(records, hop);
            for i in 0..per_table {
                match table.insert(mix(t * 1_000_000 + i), Ppa::new(0, 0)) {
                    TableInsert::Inserted => inserts += 1,
                    TableInsert::Full => aborts += 1,
                    TableInsert::Updated { .. } => {}
                }
            }
        }
        rows.push(vec![
            hop.to_string(),
            inserts.to_string(),
            aborts.to_string(),
            format!("{:.4}", 100.0 * aborts as f64 / (inserts + aborts) as f64),
        ]);
    }
    print!("{}", render_table(&rows));
    println!("\nwider hop neighborhoods absorb clustering; H=32 (the paper default)");
    println!("keeps aborts negligible at the 80% trigger point.\n");
}

/// 2. Cache budget sweep vs per-lookup miss rate, both indexes.
fn ablate_cache(scale: Scale) {
    println!("=== ablation 2: FTL cache budget (cluster 096 workload) ===\n");
    let cluster = ibm::clusters().into_iter().find(|c| c.name == "096").expect("exists");
    let base_cache: u64 = scale.pick(64 << 10, 512 << 10);
    let ops = scale.pick(4_000, 20_000);

    // Fix the workload at the base budget; sweep only the device cache.
    let (load, population) = cluster.synthesize(base_cache, 17, 0, 0.002, 42);
    let (run, _) = cluster.synthesize(base_cache, 17, ops, 0.002, 43);
    let run_tail = &run[population as usize..];

    let mut rows = vec![vec![
        "cache".to_string(),
        "rhik miss %".to_string(),
        "multilevel miss %".to_string(),
        "multilevel avg reads".to_string(),
    ]];
    for factor in [1u64, 2, 4, 8, 16] {
        let cache = (base_cache * factor / 4) as usize;
        let cfg = DeviceConfig {
            geometry: NandGeometry {
                blocks: scale.pick(512, 2048),
                pages_per_block: 64,
                page_size: 4096,
                spare_size: 128,
                channels: 4,
            },
            profile: DeviceProfile::instant(),
            cache_budget_bytes: cache,
            gc: GcConfig { low_watermark: 3, high_watermark: 6, ..Default::default() },
            gc_reserve_blocks: 2,
            shards: 1,
            engine: EngineMode::Sync,
            hasher: SigHasher::default(),
            rhik: rhik_core::RhikConfig::default(),
            hot_cache: rhik_kvssd::CacheConfig::off(),
        };

        let mut rhik_dev = KvssdDevice::rhik(cfg);
        WorkloadDriver::replay(&mut rhik_dev, &load).expect("load");
        let before = rhik_dev.index().stats().clone();
        WorkloadDriver::replay(&mut rhik_dev, run_tail).expect("run");
        let rhik_miss = delta_miss(&before, rhik_dev.index().stats());

        let mut ml_dev = KvssdDevice::multilevel(
            cfg,
            MultiLevelConfig { initial_bits: 1, max_levels: 8, hop_width: 32 },
        );
        WorkloadDriver::replay(&mut ml_dev, &load).expect("load");
        let before = ml_dev.index().stats().clone();
        WorkloadDriver::replay(&mut ml_dev, run_tail).expect("run");
        let ms = ml_dev.index().stats();
        let ml_miss = delta_miss(&before, ms);
        let lookups = ms.lookups - before.lookups;
        let reads = ms.metadata_flash_reads - before.metadata_flash_reads;

        rows.push(vec![
            fmt_bytes(cache as u64),
            format!("{rhik_miss:.1}"),
            format!("{ml_miss:.1}"),
            format!("{:.2}", reads as f64 / lookups.max(1) as f64),
        ]);
    }
    print!("{}", render_table(&rows));
    println!("\nboth schemes converge to ~0% once the index fits; below that point the");
    println!("multi-level index pays multiple reads per miss while RHIK pays exactly one.\n");
}

fn delta_miss(before: &rhik_ftl::IndexStats, after: &rhik_ftl::IndexStats) -> f64 {
    let d0 = after.reads_per_lookup_histo[0] - before.reads_per_lookup_histo[0];
    let total: u64 = after
        .reads_per_lookup_histo
        .iter()
        .zip(before.reads_per_lookup_histo.iter())
        .map(|(a, b)| a - b)
        .sum();
    if total == 0 {
        0.0
    } else {
        100.0 * (total - d0) as f64 / total as f64
    }
}

/// 3. Signature width vs `exist` false positives.
fn ablate_sig_bits(scale: Scale) {
    println!("=== ablation 3: signature resolution vs membership accuracy ===\n");
    let n: u64 = scale.pick(2_000_000, 20_000_000);
    let probes: u64 = scale.pick(1_000_000, 5_000_000);
    let hasher = SigHasher::default();

    let mut rows = vec![vec![
        "sig bits".to_string(),
        "stored".to_string(),
        "false positives".to_string(),
        "measured FP %".to_string(),
        "birthday-bound FP %".to_string(),
    ]];
    for bits in [16u32, 24, 32, 48, 64] {
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        let mut set = std::collections::HashSet::with_capacity(n as usize);
        for i in 0..n {
            set.insert(hasher.sign(format!("member-{i:012}").as_bytes()).0 & mask);
        }
        let mut fp = 0u64;
        for i in 0..probes {
            let sig = hasher.sign(format!("absent-{i:012}").as_bytes()).0 & mask;
            if set.contains(&sig) {
                fp += 1;
            }
        }
        // For a non-member probe, P(collision) ≈ n / 2^bits.
        let expected = 100.0 * (n as f64) / (bits as f64).exp2();
        rows.push(vec![
            bits.to_string(),
            n.to_string(),
            fp.to_string(),
            format!("{:.4}", 100.0 * fp as f64 / probes as f64),
            format!("{expected:.4}"),
        ]);
    }
    print!("{}", render_table(&rows));
    println!(
        "\nat 64 bits the measured rate is ~0 (expected {:.2e}%): signature-only\n\
         membership is safe, and 128-bit signatures (§IV-A3) are only needed\n\
         when even full-key re-verification must be avoided.\n",
        100.0 * n as f64 / 64f64.exp2()
    );
    let _ = estimate::expected_collision_pct(n, 64);
}

/// 4. Resize threshold vs resize count / headroom / aborts.
fn ablate_resize_threshold(scale: Scale) {
    println!("=== ablation 4: occupancy threshold (§V-C) ===\n");
    let keys: u64 = scale.pick(200_000, 2_000_000);
    let mut rows = vec![vec![
        "threshold".to_string(),
        "resizes".to_string(),
        "final occupancy %".to_string(),
        "capacity headroom x".to_string(),
        "insert aborts".to_string(),
        "aborts w/ hyper-local".to_string(),
    ]];
    for threshold in [0.60, 0.70, 0.80, 0.90, 0.95] {
        let mut cells = Vec::new();
        let mut meta = (0usize, 0.0f64, 0.0f64);
        for hyper_local in [false, true] {
            let geometry = NandGeometry::paper_default(scale.pick(1u64 << 30, 4u64 << 30));
            let mut ftl = Ftl::new(FtlConfig {
                geometry,
                profile: DeviceProfile::instant(),
                cache_budget_bytes: 16 << 20,
                gc_reserve_blocks: 2,
            });
            let mut idx = RhikIndex::new(
                RhikConfig {
                    initial_dir_bits: 0,
                    occupancy_threshold: threshold,
                    dir_flush_interval: u64::MAX / 2,
                    hyper_local,
                    ..Default::default()
                },
                geometry.page_size,
            );
            let hasher = SigHasher::default();
            let mut aborts = 0u64;
            for i in 0..keys {
                let sig = hasher.sign(format!("abl4-{i:012}").as_bytes());
                match idx.insert(&mut ftl, sig, Ppa::new(0, 0)) {
                    Ok(_) => {}
                    Err(FtlError::TableFull { .. }) => aborts += 1,
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
            cells.push(aborts);
            if !hyper_local {
                meta = (
                    idx.stats().resizes.len(),
                    idx.occupancy() * 100.0,
                    idx.total_capacity() as f64 / keys as f64,
                );
            }
        }
        rows.push(vec![
            format!("{:.0}%", threshold * 100.0),
            meta.0.to_string(),
            format!("{:.1}", meta.1),
            format!("{:.2}", meta.2),
            cells[0].to_string(),
            cells[1].to_string(),
        ]);
    }
    print!("{}", render_table(&rows));
    println!("\nlow thresholds waste capacity (headroom >> 1) and resize early; above");
    println!("~80% the hopscotch tables start aborting inserts before the global");
    println!("trigger fires — the paper's knee. §VI's hyper-local scaling (last");
    println!("column) absorbs those rejects in per-bucket overflow tables at the");
    println!("cost of a possible second flash read for overflowed buckets.\n");
}

/// 5. GC victim policy: greedy vs cost-benefit under update churn.
fn ablate_gc_policy(scale: Scale) {
    println!("=== ablation 5: GC victim policy (update churn) ===\n");
    let rounds: u64 = scale.pick(12, 30);
    let keys: u64 = scale.pick(400, 1200);

    let mut rows = vec![vec![
        "policy".to_string(),
        "gc runs".to_string(),
        "blocks erased".to_string(),
        "pairs relocated".to_string(),
        "write amp".to_string(),
        "wear (min/max/mean)".to_string(),
    ]];
    for policy in [rhik_ftl::GcPolicy::Greedy, rhik_ftl::GcPolicy::CostBenefit] {
        let mut cfg = DeviceConfig::small();
        cfg.gc = GcConfig { low_watermark: 3, high_watermark: 6, policy, ..Default::default() };
        let mut dev = KvssdDevice::rhik(cfg);
        let value = vec![0u8; 8 << 10];
        // Load once, then overwrite with Zipfian skew so blocks end up with
        // mixed live/stale contents — the regime where victim policies
        // actually differ (uniform overwrites make every victim fully
        // stale and the policies coincide).
        for i in 0..keys {
            dev.put(format!("churn-{i:06}").as_bytes(), &value).expect("load");
        }
        let zipf = rhik_workloads::ZipfSampler::new(keys, 0.99);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
        for round in 0..rounds * keys {
            let i = zipf.sample(&mut rng);
            let mut v = value.clone();
            v[0] = round as u8;
            dev.put(format!("churn-{i:06}").as_bytes(), &v).expect("put");
        }
        let logical = (rounds + 1) * keys * value.len() as u64;
        let physical = dev.ftl().nand_stats().bytes_programmed;
        let f = dev.ftl().stats();
        let (wmin, wmax, wmean) = dev.ftl().wear_stats();
        rows.push(vec![
            format!("{policy:?}"),
            f.gc_runs.to_string(),
            f.gc_erased_blocks.to_string(),
            f.gc_relocated_pairs.to_string(),
            format!("{:.3}", physical as f64 / logical as f64),
            format!("{wmin}/{wmax}/{wmean:.1}"),
        ]);
    }
    print!("{}", render_table(&rows));
    println!("\nwith blocks this small the top victim usually coincides under both");
    println!("rankings (write amp ~1.06 either way); the policies diverge when block");
    println!("liveness is strongly bimodal — see gc::tests::cost_benefit_prefers_");
    println!("cheap_victims for the mechanism.\n");
}

fn main() {
    let scale = Scale::from_args();
    let only = std::env::args().skip(1).find_map(|a| a.strip_prefix("--only=").map(String::from));
    let want = |name: &str| only.as_deref().is_none_or(|o| o == name);
    if want("hopinfo") {
        ablate_hopinfo(scale);
    }
    if want("cache") {
        ablate_cache(scale);
    }
    if want("sigbits") {
        ablate_sig_bits(scale);
    }
    if want("threshold") {
        ablate_resize_threshold(scale);
    }
    if want("gcpolicy") {
        ablate_gc_policy(scale);
    }
}
