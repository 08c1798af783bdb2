//! Percentiles, medians and the metric record every run produces.

use std::collections::BTreeMap;

use rhik_kvssd::LatencyHistogram;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile of a device-clock histogram, interpolated linearly inside
/// the bucket that holds the target rank. The histogram's own
/// `percentile_ns` returns bucket edges (four per power of two), which
/// would quantize device latencies to ~19% steps.
pub fn hist_percentile(h: &LatencyHistogram, p: f64) -> f64 {
    let count = h.count();
    if count == 0 {
        return 0.0;
    }
    let target = p / 100.0 * count as f64;
    let mut seen = 0u64;
    for (i, &c) in h.bucket_counts().iter().enumerate() {
        if c == 0 {
            continue;
        }
        if (seen + c) as f64 >= target {
            let lo = LatencyHistogram::bucket_lower_ns(i) as f64;
            let hi = (LatencyHistogram::bucket_upper_ns(i) as f64).min(h.max_ns() as f64).max(lo);
            let frac = ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
            return lo + (hi - lo) * frac;
        }
        seen += c;
    }
    h.max_ns() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One measured value with its sample count.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    pub samples: u64,
}

/// Metrics of one measurement window, by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, Value>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name, Value { value, samples });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.value)
    }

    /// Per-name median over windows; sample counts add up.
    pub fn median_of(windows: &[Metrics]) -> Metrics {
        let names: std::collections::BTreeSet<&'static str> =
            windows.iter().flat_map(|w| w.0.keys().copied()).collect();
        let mut out = Metrics::default();
        for name in names {
            let vals: Vec<f64> =
                windows.iter().filter_map(|w| w.0.get(name)).map(|v| v.value).collect();
            let samples = windows.iter().filter_map(|w| w.0.get(name)).map(|v| v.samples).sum();
            out.set(name, median(&vals), samples);
        }
        out
    }
}

/// Host latencies in a log-linear histogram: values under 256 ns are
/// exact, larger ones fall in 128 equal buckets per power of two (under
/// 0.8% wide). A round's million samples fit in a fixed 58 KiB, so
/// `peak_rss_mib` stays the device's.
#[derive(Clone, Debug)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 7;

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist { counts: vec![0; (64 - SUB_BITS as usize + 1) << SUB_BITS], total: 0 }
    }
}

impl LatencyHist {
    fn index(ns: u64) -> usize {
        if ns < 1 << SUB_BITS {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        ((shift as usize + 1) << SUB_BITS) + (ns >> shift) as usize - (1 << SUB_BITS)
    }

    /// Lowest value of bucket `i`, and the bucket's width.
    fn bucket(i: usize) -> (f64, f64) {
        if i < 1 << SUB_BITS {
            return (i as f64, 1.0);
        }
        let shift = (i >> SUB_BITS) - 1;
        let lo = ((i & ((1 << SUB_BITS) - 1)) + (1 << SUB_BITS)) << shift;
        (lo as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Percentile `p` (0–100), interpolated linearly inside the bucket
    /// that holds the target rank.
    pub fn percentile(&self, p: f64) -> f64 {
        let target = p / 100.0 * self.total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= target {
                let (lo, width) = Self::bucket(i);
                return lo + width * ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
            }
            seen += c;
        }
        0.0
    }
}

/// Host-time samples of one measurement window.
#[derive(Clone, Debug, Default)]
pub struct HostWindow {
    pub ops: u64,
    pub cpu_s: f64,
    pub get_ns: LatencyHist,
    pub put_ns: LatencyHist,
}

impl HostWindow {
    /// Host-time metrics of the whole window.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let (gets, puts) = (self.get_ns.count(), self.put_ns.count());
        m.set("ops_per_cpu_s", ratio(self.ops as f64, self.cpu_s), self.ops);
        m.set("get_p50_us", self.get_ns.percentile(50.0) / 1e3, gets);
        m.set("get_p99_us", self.get_ns.percentile(99.0) / 1e3, gets);
        m.set("put_p50_us", self.put_ns.percentile(50.0) / 1e3, puts);
        m.set("put_p99_us", self.put_ns.percentile(99.0) / 1e3, puts);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_hist_buckets_tile_the_range() {
        for ns in [0u64, 1, 127, 128, 255, 256, 257, 1000, 123_456, (1 << 40) + 12_345] {
            let i = LatencyHist::index(ns);
            let (lo, width) = LatencyHist::bucket(i);
            assert!(
                lo <= ns as f64 && (ns as f64) < lo + width,
                "{ns} in bucket {i} at {lo}+{width}"
            );
        }
    }

    #[test]
    fn latency_hist_percentiles_match_samples() {
        let mut samples: Vec<u64> = (0..10_000u64).map(|i| 100 + (i * 7919) % 50_000).collect();
        let mut h = LatencyHist::default();
        samples.iter().for_each(|&s| h.record(s));
        samples.sort_unstable();
        for p in [50.0, 99.0] {
            let exact = samples[(p / 100.0 * samples.len() as f64) as usize] as f64;
            assert!((h.percentile(p) - exact).abs() / exact < 0.01, "p{p}");
        }
    }
}
