//! Concurrency contract of [`ShardedKvssd`]: per-key linearizability
//! under multi-threaded mixed workloads, device-wide stats consistency,
//! and the tentpole claim — a directory resize stalls only its own
//! shard's submission queue.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

use proptest::prelude::*;
use rhik_kvssd::{DeviceConfig, DeviceStats, KvError, ShardedKvssd};
use rhik_sigs::SigHasher;

fn sharded(shards: u32) -> ShardedKvssd<rhik_core::RhikIndex> {
    ShardedKvssd::rhik(DeviceConfig::small().with_shards(shards))
}

/// Keys guaranteed to route to `shard` on a 4-shard `small()` device
/// (the handle's router uses the same default hasher).
fn keys_for_shard(dev: &ShardedKvssd<rhik_core::RhikIndex>, shard: usize, n: usize) -> Vec<String> {
    let hasher = SigHasher::default();
    let mut keys = Vec::new();
    let mut i = 0u64;
    while keys.len() < n {
        let key = format!("pinned-{i:06}");
        if dev.shard_of(hasher.sign(key.as_bytes())) == shard {
            keys.push(key);
        }
        i += 1;
    }
    keys
}

#[derive(Clone, Debug)]
enum Op {
    Put(u8, u8),
    Delete(u8),
    Get(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => any::<u8>().prop_map(Op::Delete),
        3 => any::<u8>().prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Four threads run independent op scripts over one sharded device.
    /// Each thread owns a disjoint key range, so per-key operations are
    /// totally ordered by their issuing thread: every get must observe
    /// exactly the thread's own last write (linearizability per key).
    #[test]
    fn concurrent_ops_are_linearizable_per_key(
        scripts in proptest::collection::vec(proptest::collection::vec(op_strategy(), 1..60), 4..5)
    ) {
        let dev = sharded(4);
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
                                    Ok(()) => assert!(model.remove(&k).is_some(), "{key}: deleted a key the model never wrote"),
                                    Err(KvError::KeyNotFound) => assert!(!model.contains_key(&k)),
                                    Err(e) => panic!("delete {key}: {e}"),
                                }
                            }
                            Op::Get(k) => {
                                let key = format!("t{tid}-{k:03}");
                                let got = dev.get(key.as_bytes()).unwrap();
                                match (got, model.get(&k)) {
                                    (Some(g), Some(m)) => assert_eq!(&g[..], &m[..], "{key}: stale value"),
                                    (None, None) => {}
                                    (g, m) => panic!("{key}: device={g:?} model={m:?}"),
                                }
                            }
                        }
                    }
                    model.len() as u64
                });
            }
        });
        // After the threads join, the surviving keys of every thread are
        // visible from the parent and the aggregate count matches.
        let mut expected_keys = 0u64;
        for (tid, script) in scripts.iter().enumerate() {
            let mut model: HashMap<u8, Vec<u8>> = HashMap::new();
            for op in script {
                match *op {
                    Op::Put(k, v) => {
                        model.insert(k, vec![v; (v as usize % 32) + 1]);
                    }
                    Op::Delete(k) => {
                        model.remove(&k);
                    }
                    Op::Get(_) => {}
                }
            }
            for (k, v) in &model {
                let key = format!("t{tid}-{k:03}");
                let got = dev.get(key.as_bytes()).unwrap().expect("surviving key present");
                prop_assert_eq!(&got[..], &v[..]);
            }
            expected_keys += model.len() as u64;
        }
        prop_assert_eq!(dev.key_count(), expected_keys);
    }
}

/// The device-wide stats view is exactly the field-wise sum of the
/// per-shard stats, even while (and after) threads hammer all shards.
#[test]
fn aggregate_stats_equal_shard_sums_after_concurrency() {
    let dev = sharded(4);
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 250;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let dev = dev.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let key = format!("s{t}-{i:05}");
                    dev.put(key.as_bytes(), b"payload").unwrap();
                    assert_eq!(&dev.get(key.as_bytes()).unwrap().unwrap()[..], b"payload");
                }
                // A read of another thread's keyspace may miss (that
                // thread might not have written yet) but must not error.
                let other = (t + 1) % THREADS;
                for i in (0..PER_THREAD).step_by(50) {
                    let _ = dev.get(format!("s{other}-{i:05}").as_bytes()).unwrap();
                }
            });
        }
    });
    let total = dev.stats();
    let mut summed = DeviceStats::default();
    for s in 0..dev.shard_count() {
        summed.merge(&dev.shard_stats(s));
    }
    assert_eq!(total, summed);
    assert_eq!(total.puts, THREADS * PER_THREAD);
    assert_eq!(total.gets, THREADS * (PER_THREAD + PER_THREAD.div_ceil(50)));
    assert_eq!(dev.key_count(), THREADS * PER_THREAD);
    assert_eq!(dev.put_latencies().count(), total.puts);
}

/// The tentpole property: while shard 0's submission queue is stalled
/// (exactly what a directory resize does to its own shard), gets routed
/// to other shards complete. With one global mutex over the whole
/// device this test would deadlock; the 10 s timeout is the proof budget.
#[test]
fn stalled_shard_does_not_block_other_shards() {
    let dev = sharded(4);
    // Pre-load every shard with readable data.
    let mut per_shard_keys = Vec::new();
    for s in 0..4 {
        let keys = keys_for_shard(&dev, s, 20);
        for k in &keys {
            dev.put(k.as_bytes(), format!("v-{k}").as_bytes()).unwrap();
        }
        per_shard_keys.push(keys);
    }

    let (stalled_tx, stalled_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<()>();

    std::thread::scope(|scope| {
        // Occupy shard 0's queue for the duration, as a resize would.
        let stall_dev = dev.clone();
        scope.spawn(move || {
            stall_dev.with_shard(0, |_| {
                stalled_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            });
        });
        // Reader thread: waits until shard 0 is held, then reads shards
        // 1-3 and reports completion.
        let read_dev = dev.clone();
        let read_keys = per_shard_keys.clone();
        scope.spawn(move || {
            stalled_rx.recv().unwrap();
            for keys in read_keys.iter().skip(1) {
                for k in keys {
                    let got = read_dev.get(k.as_bytes()).unwrap().unwrap();
                    assert_eq!(&got[..], format!("v-{k}").as_bytes());
                }
            }
            done_tx.send(()).unwrap();
        });
        // The reads must finish while shard 0 is still stalled.
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("gets on shards 1-3 blocked behind shard 0's stall");
        release_tx.send(()).unwrap();
    });
}

/// A shard mid-way through an *incremental* resize keeps serving: gets on
/// the resizing shard answer correctly while the migration is in flight
/// (keys split between the frozen old directory and the half-populated
/// doubled one), and `maintain_idle` drains the remainder on idle time.
#[test]
fn resizing_shard_still_answers_gets() {
    let mut cfg = DeviceConfig::small().with_shards(4);
    // One migrated slot per command stretches the doubling across as many
    // commands as possible, so the mid-flight window is wide.
    cfg.rhik.resize_migration_batch = 1;
    let dev = ShardedKvssd::rhik(cfg);
    let fill = keys_for_shard(&dev, 0, 900);

    // Phase 1: fill shard 0 through its first doublings. Whenever a put
    // leaves the migration in flight, read earlier keys until it drains —
    // every mid-flight get must find its key, whichever side of the
    // cursor its slot is on.
    let mut mid_flight_reads = 0u32;
    let mut written = 0usize;
    for k in &fill {
        dev.put(k.as_bytes(), format!("v-{k}").as_bytes()).unwrap();
        written += 1;
        let mut probe = 0usize;
        while dev.with_shard(0, |d| d.resize_in_progress()) {
            let key = &fill[probe % written];
            let got = dev.get(key.as_bytes()).unwrap().expect("key lost mid-migration");
            assert_eq!(&got[..], format!("v-{key}").as_bytes());
            mid_flight_reads += 1;
            probe += 1;
            assert!(probe < 10_000, "reads never drained the migration");
        }
        if dev.shard_stats(0).resizes >= 2 {
            break;
        }
    }
    assert!(dev.shard_stats(0).resizes >= 2, "only {written} puts, no doublings");
    assert!(mid_flight_reads >= 3, "migrations drained without mid-flight reads");

    // Phase 2: provoke the next doubling, then drain it purely with
    // idle-time maintenance (no foreground commands touch the shard).
    for k in fill.iter().skip(written) {
        dev.put(k.as_bytes(), format!("v-{k}").as_bytes()).unwrap();
        written += 1;
        if dev.with_shard(0, |d| d.resize_in_progress()) {
            break;
        }
    }
    assert!(dev.resize_in_progress(), "no third doubling within {written} puts");
    let mut rounds = 0u32;
    while dev.resize_in_progress() {
        dev.maintain_idle().unwrap();
        rounds += 1;
        assert!(rounds < 10_000, "maintain_idle never finished the migration");
    }
    assert!(rounds >= 2, "third doubling drained in {rounds} idle rounds — not incremental");

    assert!(dev.shard_stats(0).resizes >= 3);
    for s in 1..4 {
        assert_eq!(dev.shard_stats(s).resizes, 0, "resize leaked into shard {s}");
    }
    for k in fill.iter().take(written) {
        assert_eq!(&dev.get(k.as_bytes()).unwrap().unwrap()[..], format!("v-{k}").as_bytes());
    }
}

/// Drive shard 0 through a real directory resize and verify it is
/// confined: only shard 0 records resize events, and the other shards'
/// data stays readable throughout.
#[test]
fn resize_is_per_shard() {
    let dev = sharded(4);
    let witness = keys_for_shard(&dev, 1, 30);
    for k in &witness {
        dev.put(k.as_bytes(), b"witness").unwrap();
    }
    assert_eq!(dev.stats().resizes, 0, "no resizes before the fill");

    // Shard 0 starts with a single table (small() gives 2 directory bits,
    // minus 2 shard bits). Filling it past the occupancy threshold—241
    // records per 4 KiB table, threshold 0.7—forces at least one resize.
    let fill = keys_for_shard(&dev, 0, 220);
    std::thread::scope(|scope| {
        let writer = dev.clone();
        let fill = &fill;
        scope.spawn(move || {
            for k in fill {
                writer.put(k.as_bytes(), b"fill").unwrap();
            }
        });
        // Concurrent reads on shard 1 while shard 0 fills and resizes.
        let reader = dev.clone();
        let witness = &witness;
        scope.spawn(move || {
            for _ in 0..20 {
                for k in witness.iter() {
                    assert_eq!(&reader.get(k.as_bytes()).unwrap().unwrap()[..], b"witness");
                }
            }
        });
    });

    assert!(dev.shard_stats(0).resizes >= 1, "shard 0 never resized: {:?}", dev.shard_stats(0));
    for s in 1..4 {
        assert_eq!(dev.shard_stats(s).resizes, 0, "resize leaked into shard {s}");
    }
    // Everything is still readable after the reconfiguration.
    for k in &fill {
        assert_eq!(&dev.get(k.as_bytes()).unwrap().unwrap()[..], b"fill");
    }
    for k in &witness {
        assert_eq!(&dev.get(k.as_bytes()).unwrap().unwrap()[..], b"witness");
    }
}
