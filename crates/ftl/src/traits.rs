//! The index contract between the device firmware and an indexing scheme.

use rhik_nand::Ppa;
use rhik_sigs::KeySignature;

use crate::ftl::{Ftl, FtlError};

/// A flash operation tagged with the channel it occupies and its media
/// duration — the unit the async engine schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedOp {
    pub channel: u32,
    pub duration_ns: u64,
}

/// Result of an insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// New record created.
    Inserted,
    /// A record with this signature existed; its PPA was replaced (update
    /// path). Carries the previous location so the caller can mark the old
    /// blob stale.
    Updated { old: Ppa },
}

/// One resize of the index, as instrumented by RHIK (drives Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResizeEvent {
    /// Keys resident when the resize was triggered.
    pub keys_before: u64,
    /// Record-layer tables before doubling.
    pub tables_before: u64,
    /// Flash page reads performed by the migration.
    pub flash_reads: u64,
    /// Flash page programs performed by the migration.
    pub flash_programs: u64,
    /// Host CPU nanoseconds spent migrating (wall clock, for reference).
    pub cpu_ns: u64,
    /// Simulated media nanoseconds (reads+programs serialized through the
    /// device profile) — the paper's "resizing time".
    pub media_ns: u64,
    /// Migration steps the resize was amortized over (1 for a
    /// stop-the-world pass).
    pub steps: u64,
    /// Largest single-step media time — the worst stall any one command
    /// absorbed. Equals `media_ns` for a stop-the-world pass.
    pub max_step_media_ns: u64,
}

/// Cumulative counters every index maintains.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IndexStats {
    pub inserts: u64,
    pub lookups: u64,
    pub removes: u64,
    /// Flash page reads issued *for metadata* (index tables), the numerator
    /// of Fig. 5b.
    pub metadata_flash_reads: u64,
    /// Flash page programs issued for metadata (table write-back, resize).
    pub metadata_flash_programs: u64,
    /// Lookups served without any flash read (directory + cache hit).
    pub zero_flash_lookups: u64,
    /// Distribution of flash reads needed per lookup: index i counts
    /// lookups that needed exactly i reads; the last bucket is "≥ len-1".
    pub reads_per_lookup_histo: [u64; 16],
    /// Insert aborts due to [`FtlError::TableFull`].
    pub insert_aborts: u64,
    /// Completed resize events (RHIK only).
    pub resizes: Vec<ResizeEvent>,
}

impl IndexStats {
    /// Record a lookup that needed `reads` flash reads.
    pub fn note_lookup_reads(&mut self, reads: u64) {
        let bucket = (reads as usize).min(self.reads_per_lookup_histo.len() - 1);
        self.reads_per_lookup_histo[bucket] += 1;
        if reads == 0 {
            self.zero_flash_lookups += 1;
        }
    }

    /// Percentile of lookups that needed at most `max_reads` flash reads.
    pub fn pct_lookups_within(&self, max_reads: usize) -> f64 {
        let total: u64 = self.reads_per_lookup_histo.iter().sum();
        if total == 0 {
            return 100.0;
        }
        let within: u64 = self.reads_per_lookup_histo[..=max_reads.min(15)].iter().sum();
        100.0 * within as f64 / total as f64
    }
}

/// The contract between the KVSSD firmware and an indexing scheme.
///
/// Implementations: `rhik-core`'s `RhikIndex` (the paper's contribution),
/// and `rhik-baseline`'s `MultiLevelIndex` (one level: the NVMKV-style
/// fixed table) / `LsmIndex`.
///
/// All flash traffic goes through the supplied [`Ftl`], so the firmware's
/// statistics see exactly what the index does. Errors are the FTL's own
/// [`FtlError`]: an index adds [`FtlError::TableFull`],
/// [`FtlError::CapacityExhausted`] and [`FtlError::Unsupported`], and
/// raises [`FtlError::NeedsGc`] whenever a metadata write (a table
/// write-back, even one a lookup's cache eviction forces) or an imminent
/// resize finds the pool dry — the device then collects and retries.
pub trait IndexBackend {
    /// Insert or update the record for `sig`.
    fn insert(
        &mut self,
        ftl: &mut Ftl,
        sig: KeySignature,
        ppa: Ppa,
    ) -> Result<InsertOutcome, FtlError>;

    /// Find the KV-pair head page for `sig` (at most the scheme's bounded
    /// number of flash reads).
    fn lookup(&mut self, ftl: &mut Ftl, sig: KeySignature) -> Result<Option<Ppa>, FtlError>;

    /// Remove the record for `sig`, returning its PPA if present.
    fn remove(&mut self, ftl: &mut Ftl, sig: KeySignature) -> Result<Option<Ppa>, FtlError>;

    /// Probabilistic membership check (§IV-A3): answered from signatures
    /// only; false positives possible at the signature collision rate.
    fn contains(&mut self, ftl: &mut Ftl, sig: KeySignature) -> Result<bool, FtlError> {
        Ok(self.lookup(ftl, sig)?.is_some())
    }

    /// Number of records currently stored.
    fn len(&self) -> u64;

    /// True when no records are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current record capacity, if the scheme has one. RHIK reports the
    /// capacity of its *current* configuration (it resizes before filling);
    /// the NVMKV baseline reports its hard cap.
    fn capacity(&self) -> Option<u64>;

    /// Bytes of SSD DRAM this index pins outside the shared page cache
    /// (e.g. RHIK's directory layer, the multi-level index's level-0).
    fn dram_bytes(&self) -> u64;

    /// Cumulative statistics.
    fn stats(&self) -> &IndexStats;

    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// Flush every dirty metadata page to flash (shutdown / checkpoint).
    fn flush(&mut self, ftl: &mut Ftl) -> Result<(), FtlError>;

    /// Live index pages residing in `block`, as `(cache key, ppa)` pairs —
    /// used by GC when an index-stream block must be relocated. The default
    /// (no pages) is correct for DRAM-only baselines.
    fn live_index_pages_in(&self, _block: u32) -> Vec<(u64, Ppa)> {
        Vec::new()
    }

    /// Relocate one live index page during GC; returns the new location.
    fn relocate_index_page(
        &mut self,
        _ftl: &mut Ftl,
        _key: u64,
        _old: Ppa,
    ) -> Result<Option<Ppa>, FtlError> {
        Ok(None)
    }

    /// Whether the index has deferred maintenance pending (e.g. a resize
    /// that was postponed for lack of free blocks). The device checks this
    /// after each command and runs GC + [`IndexBackend::maintain`].
    fn maintenance_due(&self) -> bool {
        false
    }

    /// Perform deferred maintenance (RHIK: the pending resize). May return
    /// [`FtlError::NeedsGc`] if space is still insufficient.
    fn maintain(&mut self, _ftl: &mut Ftl) -> Result<(), FtlError> {
        Ok(())
    }

    /// Perform one bounded slice of background maintenance (RHIK: migrate
    /// one batch of an in-flight incremental resize). Meant for idle device
    /// time; returns `true` if any work was done (more may remain). The
    /// default (no incremental maintenance) reports no work.
    fn maintain_step(&mut self, _ftl: &mut Ftl) -> Result<bool, FtlError> {
        Ok(false)
    }

    /// True while an incremental resize migration is in flight.
    fn resize_in_progress(&self) -> bool {
        false
    }

    /// Progress of an in-flight resize migration as
    /// `(slots_migrated, slots_total)` over the frozen old directory —
    /// `None` when no migration is running. Telemetry exports this as the
    /// per-shard migration-cursor gauge.
    fn migration_progress(&self) -> Option<(u64, u64)> {
        None
    }

    /// Visit every stored `(signature, ppa)` record. Used by the device's
    /// iterator support (§VI) and by consistency checks; cost is a full
    /// index sweep. The default refuses, for schemes without a cheap sweep.
    fn scan_records(
        &mut self,
        _ftl: &mut Ftl,
        _visit: &mut dyn FnMut(KeySignature, Ppa),
    ) -> Result<(), FtlError> {
        Err(FtlError::Unsupported("scan_records"))
    }

    /// Attach a generation-published [`ReadView`](crate::readview::ReadView)
    /// for this index to mirror: every `sig → head PPA` change (insert,
    /// update, delete, GC relocation) must be reflected into the view,
    /// and a directory doubling must publish a new view generation, so
    /// the device's lock-free get path stays coherent.
    ///
    /// Returns `true` iff the backend accepted the view and will keep it
    /// coherent from now on — a backend may only accept while it is
    /// empty (the view starts empty, so attaching to a populated index
    /// would let lock-free lookups miss live keys). The default (no
    /// mirroring, `false`) is correct for backends without lock-free
    /// read support: the device keeps every get on the locked path.
    fn attach_read_view(&mut self, view: std::sync::Arc<crate::readview::ReadView>) -> bool {
        let _ = view;
        false
    }

    /// Attach a [`VersionTable`](crate::sync::VersionTable) for the hot
    /// object cache tier's invalidation protocol: the backend must bump
    /// the signature's stripe after *every* value mutation it applies —
    /// insert, in-place update, delete, GC relocation. Directory
    /// doublings move mappings without changing values, so they need no
    /// bump.
    ///
    /// Returns `true` iff the backend accepted the table and will bump
    /// it from now on. Unlike [`attach_read_view`](Self::attach_read_view)
    /// this is safe at any point in the index's life: versions are
    /// compared only for equality against a fill-time read, so starting
    /// from zero mid-stream merely means pre-attach history is invisible
    /// — and there are no cache entries from before the attach. The
    /// default (`false`) is correct for backends without cache support:
    /// the device then refuses to enable the cache tier.
    fn attach_versions(&mut self, versions: std::sync::Arc<crate::sync::VersionTable>) -> bool {
        let _ = versions;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_histogram_percentiles() {
        let mut s = IndexStats::default();
        for _ in 0..90 {
            s.note_lookup_reads(1);
        }
        for _ in 0..10 {
            s.note_lookup_reads(5);
        }
        assert!((s.pct_lookups_within(1) - 90.0).abs() < 1e-9);
        assert!((s.pct_lookups_within(4) - 90.0).abs() < 1e-9);
        assert!((s.pct_lookups_within(5) - 100.0).abs() < 1e-9);
        assert_eq!(s.zero_flash_lookups, 0);
    }

    #[test]
    fn zero_read_lookups_counted() {
        let mut s = IndexStats::default();
        s.note_lookup_reads(0);
        s.note_lookup_reads(0);
        s.note_lookup_reads(2);
        assert_eq!(s.zero_flash_lookups, 2);
        assert!((s.pct_lookups_within(0) - 66.66).abs() < 0.1);
    }

    #[test]
    fn histogram_saturates_at_last_bucket() {
        let mut s = IndexStats::default();
        s.note_lookup_reads(1_000);
        assert_eq!(s.reads_per_lookup_histo[15], 1);
        assert!((s.pct_lookups_within(14) - 0.0).abs() < 1e-9);
        assert!((s.pct_lookups_within(100) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_vacuously_within() {
        let s = IndexStats::default();
        assert_eq!(s.pct_lookups_within(0), 100.0);
    }
}
