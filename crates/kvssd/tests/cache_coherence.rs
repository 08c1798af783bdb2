//! Coherence contract of the DRAM hot-object cache tier: with the cache
//! enabled, the device stays an exact key-value store — every get
//! observes exactly the last write, through directory resizes, GC
//! relocation, and concurrent mutation — while the cache respects its
//! hard byte budget and the ≤ 1-flash-read lookup bound. The
//! [`rhik_audit::DeviceAuditor`] cross-layer pass (including the
//! cache↔index coherence samples) must stay clean throughout.

use std::collections::HashMap;

use proptest::prelude::*;
use rhik_kvssd::{DeviceConfig, KvError, ShardedKvssd, Stage, TelemetrySink};

const BUDGET: u64 = 32 * 1024;

/// A small sharded device with the hot cache on and a tiny initial
/// directory, so a few hundred inserts force resize migrations while
/// the cache is live.
fn cached(shards: u32) -> ShardedKvssd<rhik_core::RhikIndex> {
    let mut cfg = DeviceConfig::small().with_shards(shards).with_hot_cache(BUDGET);
    cfg.rhik.initial_dir_bits = 1;
    ShardedKvssd::rhik(cfg)
}

#[derive(Clone, Debug)]
enum Op {
    Put(u8, u8),
    Delete(u8),
    Get(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Get-heavy so cached entries are actually served (and re-served
    // after invalidation), put/delete-heavy enough to keep invalidating.
    prop_oneof![
        3 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        1 => any::<u8>().prop_map(Op::Delete),
        4 => any::<u8>().prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Four threads run independent op scripts over one cache-enabled
    /// sharded device; each thread owns a disjoint key range, so every
    /// get must observe exactly the thread's own last write — a cache
    /// serving anything stale fails the model comparison. The directory
    /// starts at 1 bit, so load drives resize migrations underneath the
    /// live cache; the final audit (flash, index, gauges, cache↔index
    /// coherence) must be clean and the byte budget must hold.
    #[test]
    fn cached_ops_are_exact_under_resize_migration(
        scripts in proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..60), 4..5)
    ) {
        let dev = cached(4);
        std::thread::scope(|scope| {
            for (tid, script) in scripts.iter().enumerate() {
                let dev = dev.clone();
                scope.spawn(move || {
                    let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
                    for op in script {
                        match *op {
                            Op::Put(k, v) => {
                                let key = format!("t{tid}-{k:03}");
                                let value = vec![v; (v as usize % 32) + 1];
                                dev.put(key.as_bytes(), &value).unwrap();
                                model.insert(k, value);
                            }
                            Op::Delete(k) => {
                                let key = format!("t{tid}-{k:03}");
                                match dev.delete(key.as_bytes()) {
                                    Ok(()) => assert!(model.remove(&k).is_some(), "{key}: deleted unknown key"),
                                    Err(KvError::KeyNotFound) => assert!(!model.contains_key(&k)),
                                    Err(e) => panic!("delete {key}: {e}"),
                                }
                            }
                            Op::Get(k) => {
                                let key = format!("t{tid}-{k:03}");
                                let got = dev.get(key.as_bytes()).unwrap();
                                match (got, model.get(&k)) {
                                    (Some(g), Some(m)) => assert_eq!(&g[..], &m[..], "{key}: cache served stale value"),
                                    (None, None) => {}
                                    (g, m) => panic!("{key}: device={g:?} model={m:?}"),
                                }
                            }
                        }
                    }
                });
            }
        });
        // Replay the scripts into models and verify the survivors.
        let mut expected_keys = 0u64;
        for (tid, script) in scripts.iter().enumerate() {
            let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
            for op in script {
                match *op {
                    Op::Put(k, v) => { model.insert(k, vec![v; (v as usize % 32) + 1]); }
                    Op::Delete(k) => { model.remove(&k); }
                    Op::Get(_) => {}
                }
            }
            for (k, v) in &model {
                let key = format!("t{tid}-{k:03}");
                // Twice: the first may fill the cache, the second must
                // serve the same bytes from wherever it answers.
                for _ in 0..2 {
                    let got = dev.get(key.as_bytes()).unwrap().expect("surviving key present");
                    prop_assert_eq!(&got[..], &v[..]);
                }
            }
            expected_keys += model.len() as u64;
        }
        prop_assert_eq!(dev.key_count(), expected_keys);

        let stats = dev.hot_cache_stats().expect("cache enabled");
        prop_assert!(stats.bytes <= BUDGET, "budget breached: {} > {BUDGET}", stats.bytes);

        let report = dev.audit(&mut rhik_audit::DeviceAuditor::new());
        prop_assert!(report.is_ok(), "audit found violations:\n{}", report);
    }
}

/// Overwrite churn with page-sized values forces GC to relocate live
/// records while a separate set of small hot keys sits in the cache;
/// GC relocation funnels through index upserts, which bump invalidation
/// versions, so cached hot keys must keep serving exact bytes even as
/// the records they shadow move on flash. An auditor thread hammers the
/// cross-layer audit (including the cache↔index coherence samples)
/// concurrently — every pass must be clean.
#[test]
fn cache_stays_coherent_under_gc_and_concurrent_audit() {
    let dev = cached(2);
    const CHURN_KEYS: u64 = 120;
    const HOT_KEYS: u64 = 40;
    const ROUNDS: u64 = 80;
    // Page-sized so overwrite churn turns whole pages into garbage and
    // GC has to move live data (~37 MiB written into 2 × 16 MiB shards).
    let payload = |k: u64, round: u64| vec![(k ^ round) as u8; 4096];
    let hot_value = |k: u64| format!("hot-value-{k:03}").into_bytes();

    for k in 0..CHURN_KEYS {
        dev.put(format!("gc-{k:04}").as_bytes(), &payload(k, 0)).unwrap();
    }
    for k in 0..HOT_KEYS {
        dev.put(format!("hot-{k:03}").as_bytes(), &hot_value(k)).unwrap();
    }

    std::thread::scope(|scope| {
        let writer = dev.clone();
        scope.spawn(move || {
            for round in 1..=ROUNDS {
                for k in 0..CHURN_KEYS {
                    writer.put(format!("gc-{k:04}").as_bytes(), &payload(k, round)).unwrap();
                }
            }
        });
        let reader = dev.clone();
        scope.spawn(move || {
            for round in 0..ROUNDS {
                // Hot keys are never rewritten: a stale cache could only
                // serve wrong bytes if GC relocation broke invalidation.
                for k in 0..HOT_KEYS {
                    let got = reader.get(format!("hot-{k:03}").as_bytes()).unwrap();
                    assert_eq!(
                        &got.expect("hot keys are never deleted")[..],
                        &hot_value(k)[..],
                        "hot-{k:03} corrupted in round {round}"
                    );
                }
                for k in (0..CHURN_KEYS).step_by(7) {
                    let got = reader.get(format!("gc-{k:04}").as_bytes()).unwrap();
                    let got = got.expect("churn keys are never deleted");
                    // Any round's payload is legal; a torn value is not.
                    // All payloads are 4 KiB of one repeated byte.
                    assert_eq!(got.len(), 4096, "torn value for gc-{k:04} in round {round}");
                    let b = got[0];
                    assert!(got.iter().all(|&x| x == b), "mixed bytes for gc-{k:04}");
                    assert!(
                        (0..=ROUNDS).any(|r| (k ^ r) as u8 == b),
                        "gc-{k:04}: byte {b} matches no round's payload"
                    );
                }
            }
        });
        let audit_dev = dev.clone();
        scope.spawn(move || {
            let mut auditor = rhik_audit::DeviceAuditor::new();
            for pass in 0..20 {
                let report = audit_dev.audit(&mut auditor);
                assert!(report.is_ok(), "concurrent audit pass {pass}:\n{report}");
            }
        });
    });

    // Quiescent end state: exact values, clean audit, budget held.
    for k in 0..CHURN_KEYS {
        let got = dev.get(format!("gc-{k:04}").as_bytes()).unwrap().unwrap();
        assert_eq!(&got[..], &payload(k, ROUNDS)[..], "gc-{k:04} lost its final write");
    }
    for k in 0..HOT_KEYS {
        let got = dev.get(format!("hot-{k:03}").as_bytes()).unwrap().unwrap();
        assert_eq!(&got[..], &hot_value(k)[..], "hot-{k:03} lost after GC churn");
    }
    let stats = dev.hot_cache_stats().expect("cache enabled");
    assert!(stats.bytes <= BUDGET, "budget breached: {} > {BUDGET}", stats.bytes);
    assert!(stats.hits > 0, "workload never hit the cache: {stats:?}");
    assert!(dev.stats().gc_invocations > 0, "churn never triggered GC: {:?}", dev.stats());
    let report = dev.audit(&mut rhik_audit::DeviceAuditor::new());
    assert!(report.is_ok(), "final audit:\n{report}");
}

/// Cache hits are traced as gets with zero flash reads, and the ≤ 1-read-
/// per-lookup bound (the paper's headline invariant) holds for every
/// lookup the index served behind the DRAM tier.
#[test]
fn cache_hits_preserve_the_one_read_lookup_bound() {
    let dev = cached(2);
    let sink = TelemetrySink::enabled();
    dev.set_telemetry(sink.clone());
    for k in 0..200u64 {
        dev.put(format!("rb-{k:04}").as_bytes(), format!("v{k}").as_bytes()).unwrap();
    }
    dev.flush().unwrap();
    // Three passes: fill, hit, hit.
    for _ in 0..3 {
        for k in 0..200u64 {
            let got = dev.get(format!("rb-{k:04}").as_bytes()).unwrap().unwrap();
            assert_eq!(&got[..], format!("v{k}").as_bytes());
        }
    }
    let rpl = dev.reads_per_lookup();
    assert!(rpl.invariant_ok(), "lookup read bound violated: max {} flash reads", rpl.max);
    assert_eq!(rpl.pct_within(1), 100.0);
    let hot_hits = sink
        .spans()
        .iter()
        .filter(|s| s.stages.iter().any(|e| e.stage == Stage::CacheHotHit))
        .inspect(|s| assert_eq!(s.lookup_flash_reads, 0, "a cache hit read flash"))
        .count() as u64;
    let m = dev.metrics();
    assert!(m.counter("hot_cache_hits") >= 200, "second and third passes should hit");
    assert_eq!(m.counter("hot_cache_hits"), hot_hits);
    assert_eq!(m.counter("kvssd_gets"), 600, "hits count as gets");
}
