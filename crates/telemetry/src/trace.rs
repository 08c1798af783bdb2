//! Virtual-clock span tracer. Each device command opens an op span; layers
//! below append stage events (directory lookup, cache hit/miss, flash
//! read/program, GC step, resize migration batch, queue wait) timed on the
//! *simulated* device clock. Completed spans land in a fixed-capacity ring
//! buffer that counts, rather than blocks on, overflow.

/// Where time went inside one device command.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// DRAM directory walk (no media time; counted for frequency).
    DirLookup,
    /// Index page served from the metadata cache.
    CacheHit,
    /// Index page absent from the metadata cache (a flash read follows).
    CacheMiss,
    /// NAND page read charged to the command itself.
    FlashRead,
    /// NAND page program charged to the command itself.
    FlashProgram,
    /// Media work performed under garbage collection (reads, programs,
    /// erases attributed to the GC run the command triggered).
    GcStep,
    /// Media work performed by an incremental resize migration batch.
    ResizeMigrateBatch,
    /// Time the command spent stalled behind the submission queue. No
    /// device path charges a housekeeping stall today (watermark GC's
    /// media time settles with the next command); the stage stays in
    /// the vocabulary for reports that name it.
    QueueWait,
    /// Hot-object cache tier: value admitted after an index read.
    CacheAdmit,
    /// Hot-object cache tier: get served entirely from DRAM (no
    /// directory walk, no flash read).
    CacheHotHit,
    /// Hot-object cache tier: resident entry's fill version was
    /// superseded — dropped, get fell through to the index.
    CacheStale,
    /// Hot-object cache tier: entries displaced to stay under budget.
    CacheEvict,
}

impl Stage {
    /// All stages, in display order.
    pub const ALL: [Stage; 12] = [
        Stage::DirLookup,
        Stage::CacheHit,
        Stage::CacheMiss,
        Stage::FlashRead,
        Stage::FlashProgram,
        Stage::GcStep,
        Stage::ResizeMigrateBatch,
        Stage::QueueWait,
        Stage::CacheAdmit,
        Stage::CacheHotHit,
        Stage::CacheStale,
        Stage::CacheEvict,
    ];

    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::DirLookup => "dir_lookup",
            Stage::CacheHit => "cache_hit",
            Stage::CacheMiss => "cache_miss",
            Stage::FlashRead => "flash_read",
            Stage::FlashProgram => "flash_program",
            Stage::GcStep => "gc_step",
            Stage::ResizeMigrateBatch => "resize_migrate_batch",
            Stage::QueueWait => "queue_wait",
            Stage::CacheAdmit => "cache_admit",
            Stage::CacheHotHit => "cache_hot_hit",
            Stage::CacheStale => "cache_stale",
            Stage::CacheEvict => "cache_evict",
        }
    }
}

/// One stage occurrence inside a span: `count` events totalling `dur_ns`
/// of simulated time (zero for pure-DRAM stages).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageEvent {
    pub stage: Stage,
    pub count: u32,
    pub dur_ns: u64,
}

/// Which device command a span describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    Put,
    Get,
    Delete,
    Exist,
    Maintenance,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Put => "put",
            OpKind::Get => "get",
            OpKind::Delete => "delete",
            OpKind::Exist => "exist",
            OpKind::Maintenance => "maintenance",
        }
    }
}

/// One completed device command on the simulated clock.
#[derive(Clone, Debug)]
pub struct OpSpan {
    pub kind: OpKind,
    /// Shard the command executed on (0 for single-queue devices).
    pub shard: u32,
    pub submitted_ns: u64,
    pub completed_ns: u64,
    /// Flash reads the index lookup itself needed (the ≤1 invariant).
    pub lookup_flash_reads: u64,
    pub stages: Vec<StageEvent>,
}

impl OpSpan {
    pub fn latency_ns(&self) -> u64 {
        self.completed_ns.saturating_sub(self.submitted_ns)
    }

    /// Total simulated time attributed to stage events.
    pub fn stage_total_ns(&self) -> u64 {
        self.stages.iter().map(|e| e.dur_ns).sum()
    }
}

/// Fixed-capacity span ring. When full, the oldest span is overwritten and
/// the drop counter bumped — tracing never stalls the data path.
#[derive(Clone, Debug)]
pub struct TraceRing {
    spans: Vec<OpSpan>,
    next: usize,
    capacity: usize,
    pushed: u64,
    dropped: u64,
}

impl TraceRing {
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceRing {
            spans: Vec::with_capacity(capacity.min(4096)),
            next: 0,
            capacity,
            pushed: 0,
            dropped: 0,
        }
    }

    pub fn push(&mut self, span: OpSpan) {
        self.pushed += 1;
        if self.spans.len() < self.capacity {
            self.spans.push(span);
        } else {
            self.spans[self.next] = span;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Spans ever pushed (retained + overwritten).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Spans overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained spans, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &OpSpan> {
        let (newer, older) = self.spans.split_at(self.next);
        older.iter().chain(newer.iter())
    }

    pub fn to_vec(&self) -> Vec<OpSpan> {
        self.iter().cloned().collect()
    }

    pub fn clear(&mut self) {
        self.spans.clear();
        self.next = 0;
        self.pushed = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64) -> OpSpan {
        OpSpan {
            kind: OpKind::Get,
            shard: 0,
            submitted_ns: id,
            completed_ns: id + 10,
            lookup_flash_reads: 1,
            stages: vec![StageEvent { stage: Stage::FlashRead, count: 1, dur_ns: 10 }],
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut ring = TraceRing::with_capacity(3);
        for i in 0..5 {
            ring.push(span(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pushed(), 5);
        assert_eq!(ring.dropped(), 2);
        let order: Vec<u64> = ring.iter().map(|s| s.submitted_ns).collect();
        assert_eq!(order, vec![2, 3, 4]);
        assert_eq!(ring.to_vec().len(), 3);
    }

    #[test]
    fn ring_under_capacity_in_order() {
        let mut ring = TraceRing::with_capacity(8);
        ring.push(span(0));
        ring.push(span(1));
        assert_eq!(ring.dropped(), 0);
        let order: Vec<u64> = ring.iter().map(|s| s.submitted_ns).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn span_accounting() {
        let s = span(5);
        assert_eq!(s.latency_ns(), 10);
        assert_eq!(s.stage_total_ns(), 10);
        assert_eq!(s.kind.name(), "get");
        assert_eq!(Stage::ResizeMigrateBatch.name(), "resize_migrate_batch");
        assert_eq!(Stage::ALL.len(), 12);
        assert_eq!(Stage::CacheHotHit.name(), "cache_hot_hit");
    }
}
