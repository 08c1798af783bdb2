//! Deterministic NAND flash array model.
//!
//! KVSSDs are "made by extending the block-based SSD firmware — the
//! underlying physical hardware of SSDs is still the same" (§II-B). This
//! crate is that hardware: an in-memory flash array with the primitives the
//! paper's extended KV emulator mimics (§IV-C):
//!
//! * **Geometry** — erase blocks of 256 pages × 32 KiB by default (§V-A),
//!   each page split into a *data area* and a *spare area* (1/32 of the
//!   page, footnote 1 of the paper).
//! * **Program/erase discipline** — pages are programmed strictly in order
//!   within a block and cannot be overwritten before the whole block is
//!   erased. Violations are hard errors, so FTL bugs surface in tests
//!   instead of silently corrupting state.
//! * **Timing** — a virtual-clock latency model ([`LatencyModel`],
//!   [`DeviceProfile`]) in the spirit of the OpenMPDK emulator's IOPS model;
//!   throughput figures are computed on simulated time, never wall time.
//! * **Accounting** — read/program/erase counters ([`NandStats`]) that the
//!   evaluation harness uses to count "flash reads per metadata access"
//!   (Fig. 5b).
//! * **Fault injection** — programmable program/read failures for the
//!   failure-handling tests.
//!
//! Page payloads are allocated lazily and freed on erase, so emulated
//! devices only cost host memory proportional to *live* data.

mod array;
mod block;
mod error;
mod fault;
mod geometry;
mod latency;
mod page;
mod stats;

pub use array::NandArray;
pub use block::{Block, BlockState};
pub use error::NandError;
pub use fault::FaultPlan;
pub use geometry::{BlockId, NandGeometry, PageId, Ppa};
pub use latency::{DeviceProfile, LatencyModel, NandOp, SimClock};
pub use page::{PageData, SegmentsMut};
pub use stats::NandStats;

/// Convenience result alias for flash operations.
pub type Result<T> = std::result::Result<T, NandError>;
