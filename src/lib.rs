//! # RHIK — Re-configurable Hash-based Indexing for KVSSD
//!
//! Facade crate for the full-system reproduction of *"RHIK:
//! Re-configurable Hash-based Indexing for KVSSD"* (HPDC 2023). It
//! re-exports every subsystem so examples and downstream users need a
//! single dependency:
//!
//! * [`nand`] — deterministic NAND flash array model,
//! * [`audit`] — the cross-layer invariant catalog and [`audit::DeviceAuditor`],
//! * [`ftl`] — FTL services: data layout, allocator, cache, GC,
//! * [`hotcache`] — DRAM hot-object cache tier (TinyLFU admission,
//!   segmented LRU, version-based invalidation),
//! * [`sigs`] — key signature hashing (MurmurHash2 et al.),
//! * [`index`] — the RHIK two-level re-configurable hash index,
//! * [`baseline`] — Samsung-style multi-level hash (with one level, the
//!   NVMKV-style fixed hash) and PinK-style LSM baselines,
//! * [`kvssd`] — the KVSSD device emulator (SNIA-style command set,
//!   sync/async engines, GC and resize integration),
//! * [`workloads`] — key generators, trace synthesizers, and the
//!   KVBench-style driver,
//! * [`telemetry`] — metric registry, virtual-clock op tracing, and
//!   per-stage latency attribution (disabled by default, zero deps).
//!
//! ## Quickstart
//!
//! ```
//! use rhik::kvssd::{DeviceConfig, KvssdDevice};
//!
//! let mut dev = KvssdDevice::rhik(DeviceConfig::small());
//! dev.put(b"hello", b"world").unwrap();
//! assert_eq!(&dev.get(b"hello").unwrap().unwrap()[..], b"world");
//! dev.delete(b"hello").unwrap();
//! assert!(dev.get(b"hello").unwrap().is_none());
//! ```

pub use rhik_audit as audit;
pub use rhik_baseline as baseline;
pub use rhik_core as index;
pub use rhik_ftl as ftl;
pub use rhik_hotcache as hotcache;
pub use rhik_kvssd as kvssd;
pub use rhik_nand as nand;
pub use rhik_sigs as sigs;
pub use rhik_telemetry as telemetry;
pub use rhik_workloads as workloads;
