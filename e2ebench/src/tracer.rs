//! The benchmark's own span recorder (traced runs only).
//!
//! Spans are recorded around the calls the benchmark makes into a layer:
//! name, start, end, parent span and op id. They are kept in memory (up
//! to a cap; later spans only feed the per-name totals) and written out
//! as CSV when the run ends. A span's self time is its duration minus
//! the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span (`NONE` = no parent / not retained).
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    parent: SpanId,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every span closed, retained or not.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    id: SpanId,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    cap: usize,
    spans: Vec<Span>,
    open: Vec<Open>,
    dropped: u64,
    totals: BTreeMap<&'static str, SpanTotals>,
}

impl Tracer {
    pub fn new(cap: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            cap,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            open: Vec::new(),
            dropped: 0,
            totals: BTreeMap::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, op: u64) -> SpanId {
        let start_ns = self.now_ns();
        let parent = self.open.last().map_or(NONE, |o| o.id);
        let id = self.retain(Span { name, parent, op, start_ns, end_ns: start_ns });
        self.open.push(Open { id, name, start_ns, child_ns: 0 });
        id
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        let o = self.open.pop().expect("close matches an open span");
        let dur = end_ns.saturating_sub(o.start_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if o.id != NONE {
            self.spans[o.id as usize].end_ns = end_ns;
        }
        self.tally(o.name, dur, dur.saturating_sub(o.child_ns));
    }

    /// Record a finished span with explicit bounds (requests that overlap
    /// rather than nest, such as pipelined RESP requests).
    pub fn record(&mut self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        self.retain(Span { name, parent: NONE, op, start_ns, end_ns });
        let dur = end_ns.saturating_sub(start_ns);
        self.tally(name, dur, dur);
    }

    fn retain(&mut self, span: Span) -> SpanId {
        if self.spans.len() < self.cap {
            self.spans.push(span);
            (self.spans.len() - 1) as SpanId
        } else {
            self.dropped += 1;
            NONE
        }
    }

    fn tally(&mut self, name: &'static str, dur: u64, self_ns: u64) {
        let t = self.totals.entry(name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += self_ns;
    }

    pub fn totals(&self) -> &BTreeMap<&'static str, SpanTotals> {
        &self.totals
    }

    /// Spans as CSV (`name,op,parent,start_ns,end_ns`; parent is the
    /// zero-based row of the parent span, empty for none).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,op,parent,start_ns,end_ns\n");
        for s in &self.spans {
            let parent = if s.parent == NONE { String::new() } else { s.parent.to_string() };
            let _ = writeln!(out, "{},{},{},{},{}", s.name, s.op, parent, s.start_ns, s.end_ns);
        }
        out
    }

    pub fn retained(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}
