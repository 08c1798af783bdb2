//! Garbage collection is deterministic: two identical devices driven
//! through one GC-heavy put/update stream in the same process make the
//! same flash decisions. GC relocates a victim's live pairs in page order,
//! so nothing seeded per instance (a `HashMap`'s hasher) can reorder them.

use rhik::kvssd::{DeviceConfig, KvssdDevice};
use rhik::nand::NandGeometry;

fn key(k: u64) -> Vec<u8> {
    format!("gc-det-{k:05}").into_bytes()
}

/// 150–800 B, so several pairs share each 4 KiB head page.
fn value(k: u64, version: u64) -> Vec<u8> {
    let len = 150 + ((k * 131 + version * 17) % 650) as usize;
    vec![(k ^ version) as u8; len]
}

#[test]
fn identical_devices_collect_identically() {
    let mut cfg = DeviceConfig::small();
    cfg.geometry = NandGeometry {
        blocks: 24,
        pages_per_block: 32,
        page_size: 4096,
        spare_size: 128,
        channels: 4,
    };
    let mut a = KvssdDevice::rhik(cfg);
    let mut b = KvssdDevice::rhik(cfg);
    // A hot set rewritten constantly beside a cold set written rarely, so
    // GC victims hold live pairs next to superseded ones.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for version in 0..20_000u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let k = if state.is_multiple_of(4) { 400 + state % 2_400 } else { state % 400 };
        let v = value(k, version);
        a.put(&key(k), &v).unwrap();
        b.put(&key(k), &v).unwrap();
    }
    let stats = a.ftl().stats();
    assert!(stats.gc_relocated_pairs > 100, "too little GC relocation: {stats:?}");
    assert_eq!(stats, b.ftl().stats());
    assert_eq!(a.ftl().nand_stats(), b.ftl().nand_stats());
    // Relocation order decides where each pair lands.
    for k in 0..2_800 {
        assert_eq!(a.locate(&key(k)).unwrap(), b.locate(&key(k)).unwrap(), "key {k} placed apart");
    }
}
