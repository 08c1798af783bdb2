//! GC admits an index-block victim by its live pages.
//!
//! Index write-backs may drain the free pool down to half the GC reserve.
//! A victim rule counted in whole blocks plus that margin then admits no
//! victim holding live data, and once no all-stale block is left GC can
//! never run again: every later put, and every get whose lookup must write
//! back a dirty table, fails `DeviceFull`. An index block's relocation
//! reprograms only its live pages and evicts no cached table, so GC may
//! lease every free block for it.
//!
//! The scenario: 37 000 keys × 120 B on the 16 MiB `DeviceConfig::small`
//! device (~41% live data), then 200 000 ops on uniformly drawn keys, two
//! updates per get — on the plain device and on 2 and 4 shards over the
//! same flash. Every op must succeed and return the latest value, and the
//! device must audit clean afterwards.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhik::audit::{AuditReport, DeviceAuditor};
use rhik::kvssd::{DeviceConfig, KvError, KvssdDevice, ShardedKvssd};

const KEYS: u64 = 37_000;
const OPS: u64 = 200_000;

fn key(k: u64) -> Vec<u8> {
    format!("wedge-{k:06}").into_bytes()
}

/// 120 B naming the key and its version.
fn value(k: u64, version: u64) -> Vec<u8> {
    let mut v = format!("{k:06}:{version:08}:").into_bytes();
    v.resize(120, b'.');
    v
}

/// A device under test: its puts, gets and final audit.
trait Device {
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError>;
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError>;
    fn audit(&self) -> AuditReport;
}

impl Device for KvssdDevice<rhik::index::RhikIndex> {
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        KvssdDevice::put(self, key, value)
    }
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        KvssdDevice::get(self, key).map(|v| v.map(|v| v.to_vec()))
    }
    fn audit(&self) -> AuditReport {
        KvssdDevice::audit(self, &mut DeviceAuditor::new())
    }
}

impl Device for ShardedKvssd<rhik::index::RhikIndex> {
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        ShardedKvssd::put(self, key, value)
    }
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        ShardedKvssd::get(self, key).map(|v| v.map(|v| v.to_vec()))
    }
    fn audit(&self) -> AuditReport {
        ShardedKvssd::audit(self, &mut DeviceAuditor::new())
    }
}

fn run_scenario(dev: &mut impl Device) {
    for k in 0..KEYS {
        dev.put(&key(k), &value(k, 0)).unwrap_or_else(|e| panic!("load of key {k}: {e}"));
    }
    let mut versions = vec![0u64; KEYS as usize];
    let mut rng = StdRng::seed_from_u64(1);
    let mut failures: Vec<(u64, KvError)> = Vec::new();
    for op in 0..OPS {
        let k = rng.gen_range(0..KEYS);
        if op % 3 == 2 {
            match dev.get(&key(k)) {
                Ok(got) => assert_eq!(
                    got.as_deref(),
                    Some(&value(k, versions[k as usize])[..]),
                    "op {op}: get of key {k}"
                ),
                Err(e) => failures.push((op, e)),
            }
        } else {
            let version = versions[k as usize] + 1;
            match dev.put(&key(k), &value(k, version)) {
                Ok(()) => versions[k as usize] = version,
                Err(e) => failures.push((op, e)),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {OPS} ops failed, the first at op {} ({})",
        failures.len(),
        failures[0].0,
        failures[0].1
    );
    let report = dev.audit();
    assert!(report.is_ok(), "{report}");
}

#[test]
fn plain_device_never_fills_at_41_percent_live() {
    run_scenario(&mut KvssdDevice::rhik(DeviceConfig::small()));
}

#[test]
fn two_shards_never_fill_at_41_percent_live() {
    run_scenario(&mut ShardedKvssd::rhik(DeviceConfig::small().with_shards(2)));
}

#[test]
fn four_shards_never_fill_at_41_percent_live() {
    run_scenario(&mut ShardedKvssd::rhik(DeviceConfig::small().with_shards(4)));
}
