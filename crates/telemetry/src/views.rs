//! Derived views: per-stage latency attribution over the raw trace, and
//! the flash-reads-per-lookup distribution, read from the index's own
//! histogram, that checks RHIK's ≤1-read invariant (Fig. 5b) on live
//! traffic, including mid-resize.

use std::fmt::Write as _;

use crate::metrics::{escape_json, fmt_f64};
use crate::trace::{OpSpan, Stage};

/// Aggregate for one stage across a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageRow {
    pub events: u64,
    pub total_ns: u64,
}

impl StageRow {
    pub fn mean_ns(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.events as f64
        }
    }
}

/// Per-stage latency attribution over a set of spans: where simulated
/// device time went, command by command.
#[derive(Clone, Debug, Default)]
pub struct Attribution {
    rows: [StageRow; Stage::ALL.len()],
    /// Spans aggregated.
    pub ops: u64,
    /// Total simulated time across all stage events.
    pub total_stage_ns: u64,
}

impl Attribution {
    pub fn from_spans<'a>(spans: impl IntoIterator<Item = &'a OpSpan>) -> Self {
        let mut a = Attribution::default();
        for span in spans {
            a.ops += 1;
            for ev in &span.stages {
                let row = &mut a.rows[ev.stage as usize];
                row.events += ev.count as u64;
                row.total_ns += ev.dur_ns;
                a.total_stage_ns += ev.dur_ns;
            }
        }
        a
    }

    pub fn row(&self, stage: Stage) -> StageRow {
        self.rows[stage as usize]
    }

    /// Share of total attributed time spent in `stage`, in percent.
    pub fn share_pct(&self, stage: Stage) -> f64 {
        if self.total_stage_ns == 0 {
            0.0
        } else {
            100.0 * self.row(stage).total_ns as f64 / self.total_stage_ns as f64
        }
    }

    /// Stages that actually occurred (event count > 0).
    pub fn distinct_stages(&self) -> usize {
        self.rows.iter().filter(|r| r.events > 0).count()
    }

    /// JSON object keyed by stage name:
    /// `{"flash_read": {"events": N, "total_ns": N, "mean_ns": F,
    /// "share_pct": F}, ...}` (only stages that occurred).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for stage in Stage::ALL {
            let row = self.row(stage);
            if row.events == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n  \"{}\": {{\"events\": {}, \"total_ns\": {}, \"mean_ns\": {}, \
                 \"share_pct\": {}}}",
                escape_json(stage.name()),
                row.events,
                row.total_ns,
                fmt_f64(row.mean_ns()),
                fmt_f64(self.share_pct(stage))
            );
        }
        out.push_str("\n}");
        out
    }
}

/// Distribution of flash reads needed per index lookup, read from the
/// index's own per-lookup histogram (`IndexStats::reads_per_lookup_histo`:
/// gets, puts' exist checks, deletes and GC liveness checks). RHIK's
/// headline guarantee is that the maximum stays ≤ 1 — including while a
/// resize migration is in flight.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadsPerLookup {
    /// `histo[n]` = lookups that needed exactly `n` flash reads
    /// (clamped at 15+).
    pub histo: [u64; 16],
    pub lookups: u64,
    /// Highest bucket with a lookup in it.
    pub max: u64,
}

impl ReadsPerLookup {
    pub fn from_histo(histo: [u64; 16]) -> Self {
        ReadsPerLookup {
            histo,
            lookups: histo.iter().sum(),
            max: histo.iter().rposition(|&n| n > 0).unwrap_or(0) as u64,
        }
    }

    /// Do the lookups uphold the ≤1-flash-read-per-lookup invariant?
    pub fn invariant_ok(&self) -> bool {
        self.max <= 1
    }

    /// Percentage of lookups that needed at most `n` flash reads.
    pub fn pct_within(&self, n: u64) -> f64 {
        if self.lookups == 0 {
            return 100.0;
        }
        let within: u64 = self.histo.iter().take(n as usize + 1).sum();
        100.0 * within as f64 / self.lookups as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{OpKind, StageEvent};

    fn span(stages: Vec<StageEvent>) -> OpSpan {
        OpSpan {
            kind: OpKind::Get,
            shard: 0,
            submitted_ns: 0,
            completed_ns: 100,
            lookup_flash_reads: 1,
            stages,
        }
    }

    #[test]
    fn attribution_sums_and_shares() {
        let spans = vec![
            span(vec![
                StageEvent { stage: Stage::FlashRead, count: 1, dur_ns: 75 },
                StageEvent { stage: Stage::CacheMiss, count: 1, dur_ns: 0 },
            ]),
            span(vec![StageEvent { stage: Stage::FlashRead, count: 1, dur_ns: 25 }]),
        ];
        let a = Attribution::from_spans(&spans);
        assert_eq!(a.ops, 2);
        assert_eq!(a.row(Stage::FlashRead).events, 2);
        assert_eq!(a.row(Stage::FlashRead).total_ns, 100);
        assert_eq!(a.row(Stage::FlashRead).mean_ns(), 50.0);
        assert!((a.share_pct(Stage::FlashRead) - 100.0).abs() < 1e-9);
        assert_eq!(a.distinct_stages(), 2);
        let json = a.to_json();
        assert!(json.contains("\"flash_read\""));
        assert!(json.contains("\"cache_miss\""));
        assert!(!json.contains("\"gc_step\""));
    }

    #[test]
    fn empty_attribution() {
        let a = Attribution::from_spans(std::iter::empty());
        assert_eq!(a.ops, 0);
        assert_eq!(a.share_pct(Stage::FlashRead), 0.0);
        assert_eq!(a.distinct_stages(), 0);
    }

    #[test]
    fn reads_per_lookup_invariant() {
        let mut histo = [0; 16];
        histo[0] = 90;
        histo[1] = 10;
        let d = ReadsPerLookup::from_histo(histo);
        assert!(d.invariant_ok());
        assert_eq!(d.lookups, 100);
        assert_eq!(d.max, 1);
        assert!((d.pct_within(0) - 90.0).abs() < 1e-9);
        assert!((d.pct_within(1) - 100.0).abs() < 1e-9);
        histo[2] = 1;
        let d = ReadsPerLookup::from_histo(histo);
        assert!(!d.invariant_ok());
        assert_eq!(d.max, 2);
        assert_eq!(ReadsPerLookup::from_histo([0; 16]).pct_within(1), 100.0);
    }
}
