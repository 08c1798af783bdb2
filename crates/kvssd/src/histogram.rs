//! Latency histogram, re-exported from the telemetry crate.
//!
//! The log-bucketed [`LatencyHistogram`] lives in `rhik-telemetry`, next
//! to the metric snapshots that export the device's histograms. This
//! module keeps the `rhik_kvssd::LatencyHistogram` path working.

pub use rhik_telemetry::LatencyHistogram;
