//! Observability for the RHIK stack: a virtual-clock span tracer, the
//! metric snapshot devices export, and derived views — with zero external
//! dependencies and near-zero overhead when disabled.
//!
//! Spans are pushed; metrics are pulled:
//!
//! * [`TraceRing`] — per-command [`OpSpan`]s carrying [`StageEvent`]s
//!   timed on the *simulated* device clock, in a fixed-capacity ring with
//!   drop counting. The stack holds a [`TelemetrySink`]: a cloneable
//!   handle that defaults to a no-op, so the hot path pays one branch
//!   when tracing is off.
//! * [`MetricSnapshot`] — named counters, gauges and log-bucketed
//!   [`LatencyHistogram`]s with snapshot-and-diff plus JSON and Prometheus
//!   text export. A device builds one on demand from the stats each of
//!   its layers already keeps, with or without a sink.
//! * [`Attribution`] / [`ReadsPerLookup`] — derived views: where device
//!   time went per stage, and the flash-reads-per-lookup distribution that
//!   checks RHIK's ≤1-read invariant (Fig. 5b), including mid-resize.

mod histogram;
mod metrics;
mod sink;
mod trace;
mod views;

pub use histogram::LatencyHistogram;
pub use metrics::MetricSnapshot;
pub use sink::{TelemetrySink, DEFAULT_TRACE_CAPACITY};
pub use trace::{OpKind, OpSpan, Stage, StageEvent, TraceRing};
pub use views::{Attribution, ReadsPerLookup, StageRow};
