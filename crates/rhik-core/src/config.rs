//! RHIK configuration and the paper's sizing equations.

use crate::record::IndexRecord;

/// Tunables of the RHIK index (§IV-A: "can be configured at
/// initialization").
#[derive(Clone, Copy, Debug)]
pub struct RhikConfig {
    /// Hopscotch neighborhood width H, 1..=32 (paper default: 32).
    pub hop_width: u32,
    /// Resize trigger: fraction of total record capacity occupied
    /// (paper default: 0.80; §V-C shows collision handling degrades
    /// heavily above 80 %).
    pub occupancy_threshold: f64,
    /// Initial directory size in bits (`2^dir_bits` entries). Conservative
    /// initialization keeps space waste low (§IV-A2).
    pub initial_dir_bits: u32,
    /// Flush the directory snapshot to flash every this many mutations
    /// ("a periodically updated persistent copy of these D entries resides
    /// on flash", §IV-A).
    pub dir_flush_interval: u64,
    /// §VI "hyper-local scaling": when a record-layer table rejects an
    /// insert within its hop range, attach a per-bucket overflow table
    /// instead of aborting. Lookups into overflowed buckets may need a
    /// second flash read, so this trades the strict ≤ 1-read bound for
    /// zero key rejections. Off by default (the paper's design aborts).
    pub hyper_local: bool,
    /// Incremental resize: old slots migrated per index operation while a
    /// doubling is in flight. Small values spread the migration thin
    /// (lowest per-op stall); large values finish sooner. Ignored when
    /// `stop_the_world` is set.
    pub resize_migration_batch: u32,
    /// Paper-fidelity fallback (§IV-A2): migrate the whole directory in
    /// one pass, stalling the submission queue — the behavior Fig. 7
    /// measures. Off by default in favor of incremental migration.
    pub stop_the_world: bool,
}

impl Default for RhikConfig {
    fn default() -> Self {
        RhikConfig {
            hop_width: 32,
            occupancy_threshold: 0.80,
            initial_dir_bits: 2,
            dir_flush_interval: 4096,
            hyper_local: false,
            resize_migration_batch: 4,
            stop_the_world: false,
        }
    }
}

impl RhikConfig {
    /// Validate invariants; panics with a clear message on misuse (configs
    /// are built once at device bring-up).
    pub fn validated(self) -> Self {
        assert!((1..=32).contains(&self.hop_width), "hop_width must be 1..=32");
        assert!(
            self.occupancy_threshold > 0.0 && self.occupancy_threshold <= 1.0,
            "occupancy_threshold must be in (0, 1]"
        );
        assert!(self.initial_dir_bits <= 32, "initial_dir_bits must be <= 32");
        assert!(self.dir_flush_interval > 0, "dir_flush_interval must be positive");
        assert!(self.resize_migration_batch >= 1, "resize_migration_batch must be >= 1");
        self
    }

    /// Eq. 1: `R = ⌊p / (kh + ppa + hi)⌋` — records per record-layer table,
    /// chosen so one table exactly fills one flash page.
    ///
    /// `kh` = 8 (64-bit signature), `ppa` = 5, `hi` = 4 (32-bit hopinfo).
    pub fn records_per_table(page_size: u32) -> u32 {
        page_size / IndexRecord::PACKED_LEN as u32
    }

    /// Eq. 2: `D = anticipated_keys / R`, rounded up to the next power of
    /// two (the directory is selected by low signature bits). Returns the
    /// directory size in bits.
    pub fn directory_bits_for(anticipated_keys: u64, page_size: u32) -> u32 {
        let r = Self::records_per_table(page_size) as u64;
        let d = anticipated_keys.div_ceil(r).max(1);
        if d <= 1 {
            0
        } else {
            64 - (d - 1).leading_zeros()
        }
    }

    /// Start the index sized for an anticipated workload (Eq. 2).
    pub fn with_anticipated_keys(mut self, keys: u64, page_size: u32) -> Self {
        self.initial_dir_bits = Self::directory_bits_for(keys, page_size);
        self
    }

    /// Size one shard's index of a sharded device. Each of `2^shard_bits`
    /// shards serves `1/2^shard_bits` of the signature space, so its
    /// directory starts `shard_bits` smaller than the whole-device sizing
    /// (floor 0: one table). Aggregate initial capacity across shards is
    /// then unchanged, and each shard resizes independently as its slice
    /// of the keyspace fills.
    pub fn for_shard(mut self, shard_bits: u32) -> Self {
        self.initial_dir_bits = self.initial_dir_bits.saturating_sub(shard_bits);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_paper_numbers() {
        // 32 KiB page, 17-byte records → 1927 records per table.
        assert_eq!(RhikConfig::records_per_table(32 * 1024), 1927);
        assert_eq!(RhikConfig::records_per_table(512), 30);
    }

    #[test]
    fn eq2_directory_sizing() {
        // 1927 records/table at 32 KiB pages.
        assert_eq!(RhikConfig::directory_bits_for(1, 32 * 1024), 0); // 1 table
        assert_eq!(RhikConfig::directory_bits_for(1927, 32 * 1024), 0);
        assert_eq!(RhikConfig::directory_bits_for(1928, 32 * 1024), 1); // 2 tables
                                                                        // 11 M keys → ceil(11e6 / 1927) = 5709 tables → 13 bits (8192).
        assert_eq!(RhikConfig::directory_bits_for(11_000_000, 32 * 1024), 13);
    }

    #[test]
    fn with_anticipated_keys_sets_bits() {
        let c = RhikConfig::default().with_anticipated_keys(1_000_000, 32 * 1024);
        // ceil(1e6/1927) = 519 → 10 bits (1024 tables).
        assert_eq!(c.initial_dir_bits, 10);
    }

    #[test]
    fn default_matches_paper() {
        let c = RhikConfig::default();
        assert_eq!(c.hop_width, 32);
        assert!((c.occupancy_threshold - 0.80).abs() < 1e-12);
        c.validated();
    }

    #[test]
    #[should_panic(expected = "hop_width")]
    fn validation_rejects_wide_hop() {
        RhikConfig { hop_width: 33, ..Default::default() }.validated();
    }

    #[test]
    #[should_panic(expected = "occupancy_threshold")]
    fn validation_rejects_zero_threshold() {
        RhikConfig { occupancy_threshold: 0.0, ..Default::default() }.validated();
    }

    #[test]
    #[should_panic(expected = "resize_migration_batch")]
    fn validation_rejects_zero_migration_batch() {
        RhikConfig { resize_migration_batch: 0, ..Default::default() }.validated();
    }

    #[test]
    fn for_shard_splits_directory_capacity() {
        let base = RhikConfig::default().with_anticipated_keys(1_000_000, 32 * 1024);
        assert_eq!(base.initial_dir_bits, 10);
        // 4 shards (2 bits): each starts with 2^8 tables — 4 × 256 = 1024,
        // the same aggregate capacity as the unsharded 2^10.
        assert_eq!(base.for_shard(2).initial_dir_bits, 8);
        // Floor at a single table, never underflow.
        assert_eq!(base.for_shard(12).initial_dir_bits, 0);
    }

    #[test]
    fn directory_bits_monotone() {
        let mut prev = 0;
        for keys in [1u64, 1_000, 100_000, 10_000_000, 1_000_000_000] {
            let bits = RhikConfig::directory_bits_for(keys, 32 * 1024);
            assert!(bits >= prev);
            prev = bits;
        }
    }
}
