//! Key-signature hashing for RHIK.
//!
//! RHIK (Section IV-A of the paper) transforms variable-sized application
//! keys into fixed-size *key signatures* using a simple hash function —
//! MurmurHash2 by default. The signature is the key's identity inside the
//! index: it selects the directory bucket (low bits), the record-layer slot,
//! and answers probabilistic membership checks without touching flash.
//!
//! This crate implements, from scratch:
//!
//! * [`murmur2_64a`] — the paper's default 64-bit signature hash,
//! * [`murmur3_x64_128`] — the 128-bit alternative discussed in §IV-A3 for
//!   reducing signature collisions,
//! * [`fnv1a_64`] — a cheap comparison hash used in ablations,
//! * [`KeySignature`] / [`Signature128`] newtypes,
//! * [`SigHasher`] — a runtime-selectable hasher configuration,
//! * [`estimate`] — birthday-bound collision estimators used by the Fig. 8a
//!   analysis and the membership-checking documentation,
//! * [`prefix_suffix_signature`] — the 4 B-prefix + 4 B-suffix signature the
//!   paper proposes for iterator support (§VI),
//! * [`SigMap`] — the seeded one-multiply hasher for DRAM maps keyed by
//!   signatures or table ids.

pub mod estimate;
mod fnv;
mod maphash;
mod murmur;
mod signature;

pub use fnv::fnv1a_64;
pub use maphash::{SigBuildHasher, SigMap, SigMapHasher};
pub use murmur::{murmur2_64a, murmur3_x64_128};
pub use signature::{prefix_suffix_signature, KeySignature, SigHasher, Signature128};

/// Default seed used across the workspace so signatures are reproducible.
pub const DEFAULT_SEED: u64 = 0x5249_494b_5353_4421;
