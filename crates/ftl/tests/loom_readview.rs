#![cfg(loom)]
//! Loom models of the lock-free read view ([`ReadView`]): the protocol the
//! sharded device's lock-free get relies on. Writers mutate the view's map
//! under its mutex and bump the signature's stripe in the device's
//! version table (the one the hot cache validates against) afterwards;
//! a reader probes the map, reads the head page, then validates. These
//! models pin down that a reader only ever sees heads a writer published,
//! that its validation fails whenever a mutation of its key landed between
//! its probe and its validation, and that a relocated-then-erased page is
//! never returned by a validated read.
//!
//! Run with: `RUSTFLAGS="--cfg loom" cargo test -p rhik-ftl --release loom_`

use loom::sync::Arc;
use loom::thread;
use rhik_ftl::sync::atomic::{AtomicU32, Ordering};
use rhik_ftl::sync::Mutex;
use rhik_ftl::{ReadView, VersionTable};
use rhik_nand::Ppa;

const SIG: u64 = 9;

/// A view over its own version table, as one shard's view sits over the
/// device's.
fn view() -> ReadView {
    ReadView::new(std::sync::Arc::new(VersionTable::new(10)))
}

/// A reader racing upserts and a remove returns only published heads,
/// misses only while the key is removed, and fails validation whenever a
/// mutation started after its probe and finished before its validation.
#[test]
fn loom_readview_reader_sees_published_heads_and_moved_stripes() {
    loom::model(|| {
        let view = Arc::new(view());
        view.upsert(SIG, Ppa::new(1, 1));
        // Mutations of SIG in order: 1 upsert (1, 2), 2 remove, 3 upsert
        // (1, 3). `started` counts mutations begun, `completed` those
        // returned (their stripe bump included).
        let started = Arc::new(AtomicU32::new(0));
        let completed = Arc::new(AtomicU32::new(0));

        let writer = {
            let (view, started, completed) =
                (Arc::clone(&view), Arc::clone(&started), Arc::clone(&completed));
            thread::spawn(move || {
                let mutate = |apply: &dyn Fn(&ReadView)| {
                    started.fetch_add(1, Ordering::SeqCst);
                    apply(&view);
                    completed.fetch_add(1, Ordering::SeqCst);
                    thread::yield_now();
                };
                mutate(&|v| v.upsert(SIG, Ppa::new(1, 2)));
                mutate(&|v| v.remove(SIG));
                mutate(&|v| v.upsert(SIG, Ppa::new(1, 3)));
            })
        };
        let reader = {
            let (view, started, completed) =
                (Arc::clone(&view), Arc::clone(&started), Arc::clone(&completed));
            thread::spawn(move || {
                for _ in 0..4 {
                    let completed_before = completed.load(Ordering::SeqCst);
                    let hit = view.lookup(SIG);
                    let started_after = started.load(Ordering::SeqCst);
                    let Some(hit) = hit else {
                        assert!(
                            started_after >= 2 && completed_before < 3,
                            "miss while the key was mapped"
                        );
                        continue;
                    };
                    // The mutation that publishes each head page.
                    let publisher = match (hit.head.block, hit.head.page) {
                        (1, 1) => 0,
                        (1, 2) => 1,
                        (1, 3) => 3,
                        _ => panic!("never-published head {:?}", hit.head),
                    };
                    assert!(started_after >= publisher, "head {:?} seen early", hit.head);
                    thread::yield_now();
                    let completed_now = completed.load(Ordering::SeqCst);
                    if completed_now > started_after {
                        assert!(!hit.validate(), "validated across a mutation of its key");
                    }
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();

        let hit = view.lookup(SIG).expect("re-inserted key must resolve");
        assert_eq!(hit.head, Ppa::new(1, 3));
        assert!(hit.validate(), "a quiet lookup must validate");
        assert_eq!(view.entry_count(), 1);
    });
}

/// GC moves a pair and then erases its old page, twice, and finally the
/// pair is deleted and its last page erased. A reader that validates its
/// hit after reading the page never returns erased bytes.
#[test]
fn loom_readview_validated_read_never_returns_an_erased_page() {
    const VALUE: u64 = 0xfeed;
    loom::model(|| {
        // Flash pages 0..3 of block 0, behind one media lock; `None` is
        // an erased page.
        let flash = Arc::new(Mutex::new(vec![Some(VALUE), None, None]));
        let view = Arc::new(view());
        view.upsert(SIG, Ppa::new(0, 0));

        let gc = {
            let (flash, view) = (Arc::clone(&flash), Arc::clone(&view));
            thread::spawn(move || {
                for to in 1..3u32 {
                    flash.lock().unwrap()[to as usize] = Some(VALUE); // program
                    view.upsert(SIG, Ppa::new(0, to)); // repoint
                    flash.lock().unwrap()[to as usize - 1] = None; // erase the old page
                    thread::yield_now();
                }
                view.remove(SIG); // delete, then GC erases the last copy
                flash.lock().unwrap()[2] = None;
            })
        };
        let reader = {
            let (flash, view) = (Arc::clone(&flash), Arc::clone(&view));
            thread::spawn(move || {
                for _ in 0..4 {
                    let Some(hit) = view.lookup(SIG) else { continue };
                    let bytes = flash.lock().unwrap()[hit.head.page as usize];
                    if hit.validate() {
                        assert_eq!(bytes, Some(VALUE), "validated read of an erased page");
                    }
                    thread::yield_now();
                }
            })
        };
        gc.join().unwrap();
        reader.join().unwrap();
        assert!(view.lookup(SIG).is_none(), "deleted key still resolves");
        assert_eq!(view.entry_count(), 0);
    });
}
