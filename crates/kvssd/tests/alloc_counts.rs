//! Allocations per command, counted rather than timed. A validated
//! lock-free get allocates once — the value it returns — and a hot-cache
//! hit not at all; on the locked path a get allocates once (its value),
//! whether its pair is on flash or in the write buffer, and a delete not
//! at all. A put into an index table just filled from flash copies only
//! the table segments it writes: on 32 KiB pages no page-sized buffer, on
//! 4 KiB pages (one segment) the one page copy it always made.
//! Allocation counts and sizes do not depend on the host, so unlike a
//! wall-clock bound they hold on any runner.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rhik_core::RhikIndex;
use rhik_kvssd::{DeviceConfig, KvssdDevice, ShardedKvssd};

/// Allocations counted on one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tally {
    allocs: u64,
    bytes: u64,
    /// The largest single allocation, in bytes.
    largest: u64,
    /// Allocations of at least [`SEGMENT_SIZED`] bytes.
    large: u64,
}

/// A table segment is 4 352 bytes (256 slots); the last segment of a
/// 32 KiB page is 2 304.
const SEGMENT_SIZED: u64 = 2048;

impl Tally {
    const ZERO: Tally = Tally { allocs: 0, bytes: 0, largest: 0, large: 0 };
}

thread_local! {
    /// Allocations made by this thread. Each test counts only its own.
    static TALLY: Cell<Tally> = const { Cell::new(Tally::ZERO) };
}

fn count(size: usize) {
    let size = size as u64;
    // `try_with`: a thread's last deallocations may run after its
    // thread-locals are gone.
    let _ = TALLY.try_with(|t| {
        let mut n = t.get();
        n.allocs += 1;
        n.bytes += size;
        n.largest = n.largest.max(size);
        n.large += (size >= SEGMENT_SIZED) as u64;
        t.set(n);
    });
}

/// The system allocator, counting each allocation on the thread that
/// makes it.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires. The
// counter is a const-initialized `Cell` with no destructor: touching it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returned, and the allocations this thread made in it.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    let outer = TALLY.with(|t| t.replace(Tally::ZERO));
    let out = f();
    (out, TALLY.with(|t| t.replace(outer)))
}

const KEYS: usize = 2_000;

fn key(i: usize) -> Vec<u8> {
    format!("alloc-key-{i:05}").into_bytes()
}

fn value(i: usize) -> Vec<u8> {
    vec![(i % 251) as u8; 100]
}

/// A 4-shard small device holding `KEYS` pairs, every head page flushed
/// to flash so gets can take the lock-free path.
fn loaded(cfg: DeviceConfig) -> ShardedKvssd<RhikIndex> {
    let dev = ShardedKvssd::rhik(cfg.with_shards(4));
    for i in 0..KEYS {
        dev.put(&key(i), &value(i)).expect("put");
    }
    dev.flush().expect("flush");
    dev
}

#[test]
fn a_lock_free_get_allocates_once() {
    let dev = loaded(DeviceConfig::small());
    let keys: Vec<(Vec<u8>, Vec<u8>)> =
        (0..500).map(|n| n * 3 % KEYS).map(|i| (key(i), value(i))).collect();
    let before = dev.lockfree_read_stats();
    for (key, expected) in &keys {
        let (got, tally) = counted(|| dev.get(key));
        assert_eq!(got.expect("get").as_deref(), Some(&expected[..]));
        assert_eq!(
            tally.allocs, 1,
            "a lock-free get copies its value once and allocates nothing else"
        );
    }
    let after = dev.lockfree_read_stats();
    assert_eq!(after.hits - before.hits, 500, "every get was a validated lock-free hit");
    assert_eq!(after.fallbacks, before.fallbacks);
}

#[test]
fn a_hot_cache_hit_allocates_nothing() {
    let dev = loaded(DeviceConfig::small().with_hot_cache(256 * 1024));
    let hot: Vec<(Vec<u8>, Vec<u8>)> = (0..20).map(|i| (key(i * 97), value(i * 97))).collect();
    // The first get of each key reads it and fills the cache.
    for (key, _) in &hot {
        dev.get(key).expect("get");
    }
    let before = dev.hot_cache_stats().expect("cache on");
    for round in 0..50 {
        for (key, expected) in &hot {
            let (got, tally) = counted(|| dev.get(key));
            assert_eq!(got.expect("get").as_deref(), Some(&expected[..]));
            assert_eq!(tally.allocs, 0, "round {round}: a hot-cache hit allocates nothing");
        }
    }
    let after = dev.hot_cache_stats().expect("cache on");
    assert_eq!(after.hits - before.hits, 1_000, "every get was a hot-cache hit");
}

#[test]
fn a_locked_get_allocates_its_value_and_a_delete_nothing() {
    let mut dev = KvssdDevice::rhik(DeviceConfig::small());
    for i in 0..KEYS {
        dev.put(&key(i), &value(i)).expect("put");
    }
    dev.flush().expect("flush");
    // Patch every index table once since its write-back: a table page
    // shared with the flash array is copied on its first patch.
    for i in KEYS / 2..KEYS {
        dev.delete(&key(i)).expect("delete");
    }
    let programs = dev.ftl().stats().data_page_programs;

    for (key, expected) in (0..300).map(|i| (key(i), value(i))) {
        let (got, tally) = counted(|| dev.get(&key));
        assert_eq!(got.expect("get").as_deref(), Some(&expected[..]));
        assert_eq!(tally.allocs, 1, "a get of a flushed pair copies its value and nothing else");
    }
    let (key_b, value_b) = (b"buffered".to_vec(), value(7));
    dev.put(&key_b, &value_b).expect("put");
    let (got, tally) = counted(|| dev.get(&key_b));
    assert_eq!(got.expect("get").as_deref(), Some(&value_b[..]));
    assert_eq!(tally.allocs, 1, "a get of a buffered pair copies its value and nothing else");
    for key in (300..600).map(key) {
        let (deleted, tally) = counted(|| dev.delete(&key));
        deleted.expect("delete");
        assert_eq!(tally.allocs, 0, "a delete checks the stored key in place");
    }
    assert_eq!(
        dev.ftl().stats().data_page_programs,
        programs,
        "no head page was sealed while measuring"
    );
}

/// `cfg` with eight index tables and a page cache of one page, so that
/// every get of a key in another table refills its table from flash.
fn refilling(mut cfg: DeviceConfig) -> KvssdDevice<RhikIndex> {
    cfg.cache_budget_bytes = cfg.geometry.page_size as usize;
    cfg.rhik.initial_dir_bits = 3;
    cfg.rhik.dir_flush_interval = u64::MAX;
    let mut dev = KvssdDevice::rhik(cfg);
    for i in 0..KEYS / 10 {
        dev.put(&key(i), &value(i)[..8]).expect("put");
    }
    dev.flush().expect("flush");
    dev
}

/// Update puts that each follow a get refilling the key's table from
/// flash: what each put allocated, for the puts measured.
fn puts_after_refills(dev: &mut KvssdDevice<RhikIndex>) -> Vec<Tally> {
    let (data_programs, gc_runs) =
        (dev.ftl().stats().data_page_programs, dev.ftl().stats().gc_runs);
    let mut tallies = Vec::new();
    for i in 0..KEYS / 10 {
        let reads = dev.ftl().stats().index_page_reads;
        dev.get(&key(i)).expect("get");
        if dev.ftl().stats().index_page_reads == reads {
            continue; // the previous key's table: already resident
        }
        let (put, tally) = counted(|| dev.put(&key(i), &value(i + 1)[..8]));
        put.expect("put");
        tallies.push(tally);
        if tallies.len() == 40 {
            break;
        }
    }
    assert_eq!(tallies.len(), 40, "too few refilled tables");
    let stats = dev.ftl().stats();
    assert_eq!(stats.data_page_programs, data_programs, "no head page was sealed while measuring");
    assert_eq!(stats.gc_runs, gc_runs, "no garbage collection ran while measuring");
    tallies
}

#[test]
fn a_put_after_a_refill_copies_segments_not_the_32_kib_page() {
    let mut dev = refilling(DeviceConfig::paper(256 << 20, 0));
    for (n, tally) in puts_after_refills(&mut dev).into_iter().enumerate() {
        assert!(tally.largest < 32 * 1024, "put {n} allocated a page-sized buffer: {tally:?}");
        assert!(tally.large <= 2, "put {n} copied more than two segments: {tally:?}");
        assert!(tally.large >= 1, "put {n} did not copy the segment it wrote: {tally:?}");
    }
}

#[test]
fn a_put_after_a_refill_on_4_kib_pages_allocates_as_before() {
    let mut dev = refilling(DeviceConfig::small());
    let tallies = puts_after_refills(&mut dev);
    for (n, tally) in tallies.iter().enumerate() {
        assert_eq!(tally.large, 1, "put {n} copies its one-segment table once: {tally:?}");
    }
    // Measured before tables were segmented: three allocations per put,
    // one of them the 4 KiB page copy.
    let total = tallies.iter().fold((0, 0), |(a, b), t| (a + t.allocs, b + t.bytes));
    assert_eq!(total, (120, 169_280), "the 40 puts allocate what they did before segments");
}
