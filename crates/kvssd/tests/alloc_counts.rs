//! Allocations per command, counted rather than timed. A validated
//! lock-free get allocates once — the value it returns — and a hot-cache
//! hit not at all; on the locked path a get allocates once (its value),
//! whether its pair is on flash or in the write buffer, and a delete not
//! at all. Allocation counts do not depend on the host, so unlike a
//! wall-clock bound they hold on any runner.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rhik_core::RhikIndex;
use rhik_kvssd::{DeviceConfig, KvssdDevice, ShardedKvssd};

thread_local! {
    /// Allocations made by this thread. Each test counts only its own.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's last deallocations may run after its
    // thread-locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
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
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// What `f` returned, and how many allocations this thread made in it.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
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
        let (got, allocs) = counted(|| dev.get(key));
        assert_eq!(got.expect("get").as_deref(), Some(&expected[..]));
        assert_eq!(allocs, 1, "a lock-free get copies its value once and allocates nothing else");
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
            let (got, allocs) = counted(|| dev.get(key));
            assert_eq!(got.expect("get").as_deref(), Some(&expected[..]));
            assert_eq!(allocs, 0, "round {round}: a hot-cache hit allocates nothing");
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
        let (got, allocs) = counted(|| dev.get(&key));
        assert_eq!(got.expect("get").as_deref(), Some(&expected[..]));
        assert_eq!(allocs, 1, "a get of a flushed pair copies its value and nothing else");
    }
    let (key_b, value_b) = (b"buffered".to_vec(), value(7));
    dev.put(&key_b, &value_b).expect("put");
    let (got, allocs) = counted(|| dev.get(&key_b));
    assert_eq!(got.expect("get").as_deref(), Some(&value_b[..]));
    assert_eq!(allocs, 1, "a get of a buffered pair copies its value and nothing else");
    for key in (300..600).map(key) {
        let (deleted, allocs) = counted(|| dev.delete(&key));
        deleted.expect("delete");
        assert_eq!(allocs, 0, "a delete checks the stored key in place");
    }
    assert_eq!(
        dev.ftl().stats().data_page_programs,
        programs,
        "no head page was sealed while measuring"
    );
}
