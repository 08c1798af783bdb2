//! RHIK — the Re-configurable Hash-based Index for KVSSD (§IV).
//!
//! A two-level hash table:
//!
//! * the **directory layer** lives in SSD DRAM, holds `D` entries selected
//!   by the `log2(D)` least-significant bits of the 64-bit key signature,
//!   and points each entry at one flash page;
//! * the **record layer** is one fixed-size hopscotch hash table per flash
//!   page (`R = ⌊p / (kh + ppa + hi)⌋` records, Eq. 1), served from flash
//!   unless cached in the shared DRAM page cache.
//!
//! The design guarantees **at most one flash read per index lookup**, and
//! re-configures itself — doubling the directory and the table count, and
//! migrating records *by stored signature*, never touching KV data — when
//! occupancy crosses a threshold (default 80 %).
//!
//! Entry point: [`RhikIndex`], which implements
//! [`rhik_ftl::IndexBackend`], so it plugs straight into the device
//! emulator and the GC machinery. Record-layer tables are only ever
//! handled in their flash encoding ([`TablePage`]), reached through the
//! FTL page cache by the [`pages`] protocol the hash baselines share.

mod bucket;
mod config;
mod directory;
mod index;
pub mod pages;
mod record;
mod resize;

pub use bucket::{RecordTable, TableInsert, TablePage};
pub use config::RhikConfig;
pub use directory::{DirEntry, Directory};
pub use index::RhikIndex;
pub use record::IndexRecord;
