//! FTL substrate shared by RHIK and the baseline indexes.
//!
//! KVSSD firmware is "made by extending the block-based SSD firmware"
//! (§II-B): variable-length KV pairs are stored as blobs in a log-like
//! manner, an index maps key signatures to physical locations, and garbage
//! collection scans key signatures in flash pages and validates them against
//! the index. This crate provides those firmware services, independent of
//! *which* index is plugged in:
//!
//! * [`Ftl`] — the firmware context: flash array + block accounting +
//!   per-stream log writers + DRAM cache + op/byte statistics.
//! * [`layout`] — the RHIK data layout of Fig. 4: head pages carrying a KV
//!   pair count, packed pairs, and a key-signature information area;
//!   continuation pages for large values (extent-based packing, §IV-A5).
//! * [`cache`] — a byte-budgeted LRU for flash-resident index pages; its
//!   hit/miss counters drive Fig. 5a.
//! * [`gc`] — greedy garbage collection over the data log (§IV-B),
//!   generic over the installed index.
//! * [`IndexBackend`] — the trait RHIK (`rhik-core`) and the baselines
//!   (`rhik-baseline`) implement; the device emulator is generic over it.
//! * [`ReadView`] — the per-shard `sig → head PPA` mirror behind the
//!   sharded device's lock-free gets.

#![forbid(unsafe_code)]

pub mod cache;
pub mod gc;
pub mod layout;
pub mod readview;
pub mod sync;

mod alloc;
mod ftl;
mod traits;

pub use alloc::{AcquireClass, BlockMeta, Stream};
pub use cache::IndexPageCache;
pub use ftl::{Ftl, FtlConfig, FtlError, FtlStats, HeadRead, MediaReader, WrittenExtent};
pub use gc::{GcConfig, GcPolicy, GcReport};
pub use readview::{ReadHit, ReadView};
pub use sync::{FlashPool, VersionTable};
pub use traits::{IndexBackend, IndexStats, InsertOutcome, ResizeEvent, TimedOp};
