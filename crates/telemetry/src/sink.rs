//! The handle the rest of the stack holds. A disabled sink is a `None` —
//! every recording call is one branch and returns. An enabled sink shares
//! one mutex-guarded span ring across clones, so sharded engines trace
//! into a single place. The sink keeps only the trace: counts live in
//! the stats each layer keeps, and devices read them into a
//! [`crate::MetricSnapshot`] when asked.
//!
//! # Hot-path buffering
//!
//! [`record_span`] sits on per-command paths, so it does *not* take the
//! shared mutex. It stages into a thread-local [`SpanBuffer`] bound to
//! the sink's ring, which drains into the ring when it holds
//! [`SPAN_BUFFER_CAPACITY`] spans, when the same thread calls any read
//! API, or when the thread exits (the buffer's `Drop` flushes).
//! Consequence: a reader on thread A sees every span thread A recorded
//! (reads flush the local buffer first) and every span recorded by
//! threads that have flushed or exited; spans still staged on other live
//! threads lag by at most one buffer. Benches join their workers before
//! reporting, so they observe complete traces.
//!
//! [`record_span`]: TelemetrySink::record_span

use std::cell::RefCell;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::trace::{OpSpan, TraceRing};
use crate::views::Attribution;

/// Spans staged per thread before the buffer drains into the ring. 64
/// commands of lag bounds both memory and staleness while cutting mutex
/// acquisitions by ~64× on the hot path.
pub const SPAN_BUFFER_CAPACITY: usize = 64;

/// Per-thread staging area, bound to one sink's ring.
struct SpanBuffer {
    ring: Arc<Mutex<TraceRing>>,
    spans: Vec<OpSpan>,
}

impl SpanBuffer {
    fn flush(&mut self) {
        if self.spans.is_empty() {
            return;
        }
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        for span in self.spans.drain(..) {
            ring.push(span);
        }
    }
}

impl Drop for SpanBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    /// The current thread's staging buffer (bound to whichever enabled
    /// sink this thread last recorded into; rebinding flushes).
    static SPAN_BUFFER: RefCell<Option<SpanBuffer>> = const { RefCell::new(None) };
}

/// Cloneable telemetry handle. [`TelemetrySink::disabled`] (the default)
/// is a no-op: recording costs one branch. Clones of an enabled sink share
/// the same span ring.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<Mutex<TraceRing>>>,
}

/// Default span-ring capacity for [`TelemetrySink::enabled`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

impl TelemetrySink {
    /// The no-op sink: nothing is recorded, nothing is allocated.
    pub fn disabled() -> Self {
        TelemetrySink { inner: None }
    }

    /// An enabled sink with the default trace-ring capacity.
    pub fn enabled() -> Self {
        Self::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// An enabled sink retaining at most `capacity` spans.
    pub fn with_trace_capacity(capacity: usize) -> Self {
        TelemetrySink { inner: Some(Arc::new(Mutex::new(TraceRing::with_capacity(capacity)))) }
    }

    /// Whether recording calls do anything. Layers use this to skip the
    /// work of *building* spans, not just recording them.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one completed span. Hot path: stages into the thread-local
    /// buffer instead of taking the ring's mutex. Falls back to a direct
    /// push when thread-local storage is unavailable (thread teardown) or
    /// the buffer is already borrowed.
    pub fn record_span(&self, span: OpSpan) {
        let Some(ring) = &self.inner else { return };
        // `span` shuttles through an Option so exactly one of the two
        // paths (staged / direct) takes it by value.
        let mut span = Some(span);
        let _ = SPAN_BUFFER.try_with(|cell| {
            let Ok(mut slot) = cell.try_borrow_mut() else { return };
            if !slot.as_ref().is_some_and(|buf| Arc::ptr_eq(&buf.ring, ring)) {
                // Dropping the old buffer flushes it into its own
                // (different) ring.
                *slot = Some(SpanBuffer {
                    ring: Arc::clone(ring),
                    spans: Vec::with_capacity(SPAN_BUFFER_CAPACITY),
                });
            }
            let buf = slot.as_mut().expect("buffer bound above");
            buf.spans.extend(span.take());
            if buf.spans.len() >= SPAN_BUFFER_CAPACITY {
                buf.flush();
            }
        });
        if let Some(span) = span {
            ring.lock().unwrap_or_else(|e| e.into_inner()).push(span);
        }
    }

    /// The ring, after draining the *current thread's* staging buffer if
    /// it is bound to it — so a thread always observes its own spans.
    fn lock(&self) -> Option<MutexGuard<'_, TraceRing>> {
        let ring = self.inner.as_ref()?;
        let _ = SPAN_BUFFER.try_with(|cell| {
            if let Ok(mut slot) = cell.try_borrow_mut() {
                if let Some(buf) = slot.as_mut().filter(|buf| Arc::ptr_eq(&buf.ring, ring)) {
                    buf.flush();
                }
            }
        });
        Some(ring.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Retained spans, oldest first (empty when disabled).
    pub fn spans(&self) -> Vec<OpSpan> {
        self.lock().map(|ring| ring.to_vec()).unwrap_or_default()
    }

    /// Spans overwritten because the ring was full.
    pub fn trace_dropped(&self) -> u64 {
        self.lock().map(|ring| ring.dropped()).unwrap_or(0)
    }

    /// Per-stage attribution over the currently retained spans.
    pub fn attribution(&self) -> Attribution {
        self.lock().map(|ring| Attribution::from_spans(ring.iter())).unwrap_or_default()
    }

    /// Drop all retained spans.
    pub fn clear_trace(&self) {
        if let Some(mut ring) = self.lock() {
            ring.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{OpKind, Stage, StageEvent};

    fn put_span(ns: u64) -> OpSpan {
        OpSpan {
            kind: OpKind::Put,
            shard: 0,
            submitted_ns: ns,
            completed_ns: ns + 10,
            lookup_flash_reads: 0,
            stages: Vec::new(),
        }
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        sink.record_span(put_span(0));
        assert!(sink.spans().is_empty());
        assert_eq!(sink.trace_dropped(), 0);
        assert_eq!(sink.attribution().ops, 0);
        assert!(!TelemetrySink::default().is_enabled());
    }

    #[test]
    fn clones_share_the_ring() {
        let sink = TelemetrySink::with_trace_capacity(8);
        let other = sink.clone();
        other.record_span(put_span(0));
        sink.record_span(put_span(1));
        assert_eq!(sink.spans().len(), 2);
        assert_eq!(other.spans().len(), 2);
    }

    #[test]
    fn same_thread_reads_see_staged_spans() {
        let sink = TelemetrySink::enabled();
        // Fewer spans than the buffer capacity: nothing has drained on
        // its own, but a same-thread read must still see everything.
        for i in 0..5 {
            sink.record_span(put_span(i));
        }
        assert_eq!(sink.spans().len(), 5);
        assert_eq!(sink.attribution().ops, 5);
    }

    #[test]
    fn buffer_drains_at_capacity_and_on_thread_exit() {
        let sink = TelemetrySink::enabled();
        let worker = sink.clone();
        std::thread::spawn(move || {
            for i in 0..(SPAN_BUFFER_CAPACITY as u64 + 3) {
                worker.record_span(put_span(i));
            }
            // The first SPAN_BUFFER_CAPACITY spans drained at the
            // capacity trigger; the remaining 3 drain when this thread
            // exits and the buffer drops.
        })
        .join()
        .unwrap();
        assert_eq!(sink.spans().len(), SPAN_BUFFER_CAPACITY + 3);
    }

    #[test]
    fn rebinding_to_another_sink_flushes_the_first() {
        let a = TelemetrySink::enabled();
        let b = TelemetrySink::enabled();
        a.record_span(put_span(0));
        // Recording into a different sink rebinds this thread's buffer,
        // flushing the staged span into `a` en route.
        b.record_span(put_span(1));
        // Read `a` through a clone WITHOUT touching this thread's buffer
        // binding (which now belongs to `b`).
        let a2 = a.clone();
        assert_eq!(a2.spans().len(), 1);
        assert_eq!(b.spans().len(), 1);
    }

    #[test]
    fn spans_and_attribution_flow() {
        let sink = TelemetrySink::enabled();
        sink.record_span(OpSpan {
            kind: OpKind::Put,
            shard: 2,
            submitted_ns: 0,
            completed_ns: 100,
            lookup_flash_reads: 0,
            stages: vec![StageEvent { stage: Stage::FlashProgram, count: 1, dur_ns: 100 }],
        });
        assert_eq!(sink.spans().len(), 1);
        assert_eq!(sink.trace_dropped(), 0);
        let a = sink.attribution();
        assert_eq!(a.row(Stage::FlashProgram).total_ns, 100);
        sink.clear_trace();
        assert!(sink.spans().is_empty());
    }
}
