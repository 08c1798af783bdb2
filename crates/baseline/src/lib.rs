//! Baseline KVSSD indexing schemes the paper compares against (or draws
//! from):
//!
//! * [`MultiLevelIndex`] — the Samsung-KVSSD-style multi-level hash table
//!   (\[7\] in the paper; the "8-level Multi-Level Hash Index" of Fig. 5).
//!   Levels are appended as the index grows, so lookups probe up to L
//!   tables — up to L flash reads on cache misses. This is the index whose
//!   degradation motivates Fig. 2. Configured with `max_levels: 1` it is
//!   the NVMKV/KVFTL-style single fixed-size hash table (\[4\]): fast while
//!   it fits, but with a hard key-count cap — the "index supports only a
//!   limited number of keys" problem of §III.
//! * [`LsmIndex`] — a PinK-style LSM index (\[5\], \[16\]): memtable + tiered
//!   sorted runs with DRAM-pinned fence pointers. Used by the discussion
//!   ablations (§VI "integrate advantages of hash-based and LSM indexing").
//!
//! Both implement [`rhik_ftl::IndexBackend`], so either can be plugged into
//! the device emulator in place of RHIK. The hash tables live in flash pages
//! behind the page cache through `rhik_core::pages`, the protocol RHIK
//! itself uses.

mod lsm;
mod multilevel;

pub use lsm::{LsmConfig, LsmIndex};
pub use multilevel::{MultiLevelConfig, MultiLevelIndex};
