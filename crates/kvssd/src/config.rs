//! Device configuration.

use rhik_ftl::{FtlConfig, GcConfig};
use rhik_hotcache::CacheConfig;
use rhik_nand::{DeviceProfile, NandGeometry};
use rhik_sigs::SigHasher;

/// How command timing is modeled (Fig. 6 evaluates both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineMode {
    /// One command at a time; its media ops serialize.
    Sync,
    /// Up to `queue_depth` commands in flight; media ops overlap across
    /// flash channels.
    Async { queue_depth: u32 },
}

/// Full device configuration.
#[derive(Clone, Copy, Debug)]
pub struct DeviceConfig {
    pub geometry: NandGeometry,
    pub profile: DeviceProfile,
    /// SSD DRAM budget for the shared index-page cache.
    pub cache_budget_bytes: usize,
    pub gc: GcConfig,
    /// Blocks withheld from normal allocation for GC scratch.
    pub gc_reserve_blocks: u32,
    pub engine: EngineMode,
    /// Signature hash (MurmurHash2 by default; prefix-suffix hashing is a
    /// per-call option of `iterate`-aware workloads).
    pub hasher: SigHasher,
    /// RHIK: initial directory bits / occupancy threshold / hop width.
    pub rhik: rhik_core::RhikConfig,
    /// Shard count for [`crate::ShardedKvssd`] (power of two, ≥ 1). Each
    /// shard owns a slice of the signature space with its own submission
    /// queue and index; 1 = one queue. Ignored by a bare
    /// [`crate::KvssdDevice`].
    pub shards: u32,
    /// DRAM hot-object cache tier above the index (distinct from
    /// `cache_budget_bytes`, which funds the FTL's index-*page* cache).
    /// Default **off**; honored by [`crate::ShardedKvssd`].
    pub hot_cache: CacheConfig,
}

impl DeviceConfig {
    /// A small, fast device for tests and the quickstart example:
    /// 16 MiB of flash, 4 KiB pages, 64 KiB cache, instant timing.
    pub fn small() -> Self {
        let geometry = NandGeometry {
            blocks: 64,
            pages_per_block: 64,
            page_size: 4096,
            spare_size: 128,
            channels: 4,
        };
        DeviceConfig {
            geometry,
            profile: DeviceProfile::instant(),
            cache_budget_bytes: 64 * 1024,
            gc: GcConfig { low_watermark: 3, high_watermark: 6, ..Default::default() },
            gc_reserve_blocks: 2,
            engine: EngineMode::Sync,
            hasher: SigHasher::default(),
            rhik: rhik_core::RhikConfig {
                initial_dir_bits: 2,
                occupancy_threshold: 0.7,
                hop_width: 32,
                ..Default::default()
            },
            shards: 1,
            hot_cache: CacheConfig::off(),
        }
    }

    /// The paper's emulator setup scaled to `capacity_bytes`: 32 KiB pages,
    /// 256 pages per erase block, KVEMU-like timing (§V-A).
    pub fn paper(capacity_bytes: u64, cache_budget_bytes: usize) -> Self {
        DeviceConfig {
            geometry: NandGeometry::paper_default(capacity_bytes),
            profile: DeviceProfile::kvemu_like(),
            cache_budget_bytes,
            gc: GcConfig { low_watermark: 4, high_watermark: 8, ..Default::default() },
            gc_reserve_blocks: 4,
            engine: EngineMode::Sync,
            hasher: SigHasher::default(),
            rhik: rhik_core::RhikConfig::default(),
            shards: 1,
            hot_cache: CacheConfig::off(),
        }
    }

    /// Switch to async timing with the given queue depth.
    pub fn with_async(mut self, queue_depth: u32) -> Self {
        self.engine = EngineMode::Async { queue_depth: queue_depth.max(1) };
        self
    }

    /// Switch the timing profile.
    pub fn with_profile(mut self, profile: DeviceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Set the shard count for [`crate::ShardedKvssd`]. Must be a power
    /// of two so shards map to a fixed number of high signature bits.
    pub fn with_shards(mut self, shards: u32) -> Self {
        assert!(shards >= 1 && shards.is_power_of_two(), "shards must be a power of two ≥ 1");
        self.shards = shards;
        self
    }

    /// Enable the DRAM hot-object cache tier with `budget_bytes` of DRAM
    /// (hard cap; TinyLFU admission, 8 lock stripes, 80% protected
    /// segment). A zero budget leaves the tier off.
    pub fn with_hot_cache(mut self, budget_bytes: u64) -> Self {
        self.hot_cache = CacheConfig::with_budget(budget_bytes);
        self
    }

    /// `log2(shards)` — how many high signature bits select the shard.
    pub fn shard_bits(&self) -> u32 {
        self.shards.trailing_zeros()
    }

    pub(crate) fn ftl_config(&self) -> FtlConfig {
        FtlConfig {
            geometry: self.geometry,
            profile: self.profile,
            cache_budget_bytes: self.cache_budget_bytes,
            gc_reserve_blocks: self.gc_reserve_blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_valid() {
        let c = DeviceConfig::small();
        c.geometry.validate().unwrap();
        assert_eq!(c.engine, EngineMode::Sync);
    }

    #[test]
    fn paper_config_matches_section_v() {
        let c = DeviceConfig::paper(1 << 30, 10 << 20);
        assert_eq!(c.geometry.page_size, 32 * 1024);
        assert_eq!(c.geometry.pages_per_block, 256);
        assert_eq!(c.cache_budget_bytes, 10 << 20);
    }

    #[test]
    fn with_async_clamps_depth() {
        let c = DeviceConfig::small().with_async(0);
        assert_eq!(c.engine, EngineMode::Async { queue_depth: 1 });
    }

    #[test]
    fn shard_bits_follow_count() {
        assert_eq!(DeviceConfig::small().shards, 1);
        assert_eq!(DeviceConfig::small().shard_bits(), 0);
        let c = DeviceConfig::small().with_shards(4);
        assert_eq!(c.shards, 4);
        assert_eq!(c.shard_bits(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_shards_rejects_non_power_of_two() {
        let _ = DeviceConfig::small().with_shards(3);
    }
}
