//! KVSSD device emulator (§IV-C: "we develop an advanced version of the KV
//! Emulator by extending OpenMPDK KV Emulator [...] imitates the
//! fundamental hardware primitives of an SSD").
//!
//! The device glues together the NAND model, the FTL services, and a
//! pluggable [`rhik_ftl::IndexBackend`]:
//!
//! * [`KvssdDevice`] — the five vendor commands of the Samsung KVSSD
//!   interface (§II-A): `put`, `get`, `delete`, `exist`, `iterate` — with
//!   full-key verification against signature collisions, GC triggering,
//!   and the resize submission-queue stall. The four single-key commands
//!   share one command frame (counting, span, signing, one settle of
//!   media time even on failure, housekeeping after mutations) and one
//!   out-of-space rule: on [`rhik_ftl::FtlError::NeedsGc`], collect and
//!   retry while that frees blocks, else fail [`KvError::DeviceFull`].
//! * [`KvError`] — the host-visible status codes; every firmware
//!   [`rhik_ftl::FtlError`] maps to one through `From`.
//! * [`TimingEngine`] — sync and async command timing on the simulated
//!   clock: sync serializes each command's media ops; async overlaps them
//!   across flash channels under a queue-depth bound (the emulator's IOPS
//!   model, §V-B).
//! * [`DeviceConfig`] — capacity, cache budget, timing profile, GC
//!   watermarks, index choice.
//!
//! Convenience constructors build a device around each index scheme:
//! [`KvssdDevice::rhik`], [`KvssdDevice::multilevel`] (with one level, the
//! NVMKV-style fixed hash table), [`KvssdDevice::lsm`].
//!
//! [`KvssdDevice::execute_batch`] runs a compound command over
//! [`BatchOp`]/[`BatchReply`] (Kim et al.'s coalescing, \[8\]).
//!
//! [`ShardedKvssd`] is the concurrent entry point: `S` submission queues,
//! each owning a slice of the signature space (routed by high signature
//! bits) with its own index and timing engine, over one shared flash pool.
//! Resizes stall only the affected shard. Every shard-locked command runs
//! through one locked pass over `execute_batch`; the hot-object cache and
//! the lock-free read view answer gets in front of it.

mod cache_tier;
mod cmd;
mod config;
mod device;
mod engine;
mod error;
mod histogram;
mod sharded;

pub use cmd::{BatchOp, BatchReply, IterHandle};
pub use config::{DeviceConfig, EngineMode};
pub use device::{DeviceStats, ExistReport, KvssdDevice};
pub use engine::{CommandTiming, TimingEngine};
pub use error::KvError;
pub use histogram::LatencyHistogram;
pub use sharded::{GroupCommitStats, LockfreeReadStats, ShardedKvssd};

// Observability types, re-exported so device users need not depend on the
// telemetry crate directly.
pub use rhik_telemetry::{
    Attribution, MetricRegistry, MetricSnapshot, OpKind, OpSpan, ReadsPerLookup, Stage, StageEvent,
    TelemetrySink, TraceRing,
};

// Hot-object cache configuration and counters, re-exported so device users
// need not depend on the hotcache crate directly.
pub use rhik_hotcache::{CacheConfig, CacheStats};

/// Result alias for device commands.
pub type Result<T> = std::result::Result<T, KvError>;
