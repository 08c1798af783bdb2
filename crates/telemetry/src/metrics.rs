//! A point-in-time set of named metrics: monotonic counters, gauges and
//! log-bucketed latency histograms, with snapshot-and-diff plus JSON and
//! Prometheus text export. Devices build one from the stats their layers
//! keep (`KvssdDevice::metrics`); hand-rolled serialization keeps the
//! crate dependency-free.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::histogram::LatencyHistogram;

/// Named metrics at one instant, diffable against an earlier snapshot and
/// exportable as JSON or Prometheus text. Names are free-form; the
/// Prometheus exporter sanitizes them to `[a-zA-Z0-9_:]`.
#[derive(Clone, Debug, Default)]
pub struct MetricSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, LatencyHistogram>,
}

impl MetricSnapshot {
    /// Counter value in this snapshot (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms.get(name)
    }

    /// Difference `self - earlier`: counters and histogram buckets subtract
    /// (saturating, so diffing across a reset yields zeros rather than
    /// wrapping), gauges keep their current value. Metrics absent from
    /// `earlier` pass through unchanged.
    pub fn since(&self, earlier: &MetricSnapshot) -> MetricSnapshot {
        let mut counters = BTreeMap::new();
        for (name, &v) in &self.counters {
            counters.insert(name.clone(), v.saturating_sub(earlier.counter(name)));
        }
        let mut histograms = BTreeMap::new();
        for (name, h) in &self.histograms {
            let d = match earlier.histograms.get(name) {
                Some(e) => h.since(e),
                None => h.clone(),
            };
            histograms.insert(name.clone(), d);
        }
        MetricSnapshot { counters, gauges: self.gauges.clone(), histograms }
    }

    /// Serialize to a JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name: {count,
    /// sum_ns, max_ns, mean_ns, p50_ns, p99_ns, p999_ns}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", escape_json(name), v);
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", escape_json(name), fmt_f64(*v));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"max_ns\": {}, \
                 \"mean_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}",
                escape_json(name),
                h.count(),
                h.sum_ns(),
                h.max_ns(),
                fmt_f64(h.mean_ns()),
                h.p50_ns(),
                h.p99_ns(),
                h.p999_ns()
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Serialize in the Prometheus text exposition format. Counters get a
    /// `_total` suffix; histograms expose cumulative `_bucket{le=...}`
    /// lines (collapsed to the non-empty power-of-two buckets) plus
    /// `_sum`/`_count`.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = sanitize_prom(name);
            let _ = writeln!(out, "# TYPE {n}_total counter");
            let _ = writeln!(out, "{n}_total {v}");
        }
        for (name, v) in &self.gauges {
            let n = sanitize_prom(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {}", fmt_f64(*v));
        }
        for (name, h) in &self.histograms {
            let n = sanitize_prom(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0u64;
            for (i, &c) in h.bucket_counts().iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                let le = LatencyHistogram::bucket_upper_ns(i);
                let _ = writeln!(out, "{n}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{n}_sum {}", h.sum_ns());
            let _ = writeln!(out, "{n}_count {}", h.count());
        }
        out
    }
}

/// Escape a string for embedding in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Format an f64 so the output is valid JSON (no NaN/inf literals).
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{:.1}", v)
        } else {
            format!("{}", v)
        }
    } else {
        "0.0".to_string()
    }
}

fn sanitize_prom(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == ':' { c } else { '_' }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(ops: u64, depth: f64, lat: &[u64]) -> MetricSnapshot {
        let mut s = MetricSnapshot::default();
        s.counters.insert("ops".into(), ops);
        s.gauges.insert("depth".into(), depth);
        let h = s.histograms.entry("lat".into()).or_default();
        for &ns in lat {
            h.record(ns);
        }
        s
    }

    #[test]
    fn accessors() {
        let s = snapshot(5, 7.5, &[1_000, 2_000]);
        assert_eq!(s.counter("ops"), 5);
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.gauge("depth"), Some(7.5));
        assert_eq!(s.gauge("missing"), None);
        assert_eq!(s.histogram("lat").unwrap().count(), 2);
    }

    #[test]
    fn snapshot_diff() {
        let early = snapshot(5, 1.0, &[100]);
        let late = snapshot(12, 3.0, &[100, 100, 100]);
        let d = late.since(&early);
        assert_eq!(d.counter("ops"), 7);
        assert_eq!(d.histogram("lat").unwrap().count(), 2);
        assert_eq!(d.gauge("depth"), Some(3.0));
        // Diff against a later snapshot saturates instead of wrapping.
        let rewound = early.since(&late);
        assert_eq!(rewound.counter("ops"), 0);
    }

    #[test]
    fn json_export_is_wellformed() {
        let mut s = snapshot(12, 2.0, &[90_000]);
        s.counters.insert("nand_page_reads".into(), 12);
        let json = s.to_json();
        assert!(json.contains("\"nand_page_reads\": 12"));
        assert!(json.contains("\"depth\": 2.0"));
        assert!(json.contains("\"lat\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn prometheus_export() {
        let text = snapshot(3, 0.5, &[1_000]).to_prometheus_text();
        assert!(text.contains("# TYPE ops_total counter"));
        assert!(text.contains("ops_total 3"));
        assert!(text.contains("depth 0.5"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_count 1"));
    }

    #[test]
    fn prometheus_sanitizes_names() {
        let mut s = MetricSnapshot::default();
        s.counters.insert("weird name-with.bits".into(), 1);
        assert!(s.to_prometheus_text().contains("weird_name_with_bits_total 1"));
    }
}
