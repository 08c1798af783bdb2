//! Telemetry overhead: enabled-vs-disabled hot-path throughput delta.
//!
//! Three phases over identical put/get workloads on fresh devices:
//!
//! * **baseline** — no sink ever installed (the default device);
//! * **disabled** — an explicitly installed disabled sink (the "one
//!   branch per command" configuration every production device runs);
//! * **enabled** — a live sink tracing a span, with its stage events, for
//!   every command.
//!
//! Each phase runs three trials and keeps the best wall-clock time (the
//! least-noisy estimate on a shared CI host). Acceptance gates:
//!
//! * disabled-sink penalty vs baseline ≤ 2 % (warning only — both sides
//!   are the same single branch, so anything above is host noise);
//! * enabled-sink penalty vs baseline ≤ 10 % (**exit 1** when exceeded —
//!   this is the CI smoke gate).
//!
//! A final untimed instrumented run dumps per-stage latency attribution
//! and the index's flash-reads-per-lookup distribution into the JSON blob
//! (`BENCH_obs_overhead.json` + `target/experiments/obs_overhead.json`).

use std::time::Instant;

use rhik_bench::{
    attribution_json, attribution_table, emit_json, reads_per_lookup_json, render_table, Scale,
};
use rhik_kvssd::{DeviceConfig, KvssdDevice, ReadsPerLookup, TelemetrySink};
use rhik_nand::DeviceProfile;
use serde_json::json;

const VALUE_BYTES: usize = 512;
const TRIALS: usize = 3;

fn config(scale: Scale) -> DeviceConfig {
    let mut cfg = DeviceConfig::small().with_profile(DeviceProfile::kvemu_like());
    cfg.geometry.blocks = scale.pick(256, 1024);
    cfg
}

/// One trial: fill `keys` pairs, then `ops` mixed commands (50 % get /
/// 50 % update). Returns host wall-clock seconds for the whole stream,
/// and the flash reads each index lookup needed.
fn trial(scale: Scale, sink: Option<TelemetrySink>, keys: u64, ops: u64) -> (f64, ReadsPerLookup) {
    let mut dev = KvssdDevice::rhik(config(scale));
    if let Some(s) = sink {
        dev.set_telemetry(s);
    }
    let value = vec![0xEE; VALUE_BYTES];
    let start = Instant::now();
    for i in 0..keys {
        dev.put(format!("obs-{i:010}").as_bytes(), &value).expect("put");
    }
    for i in 0..ops {
        let key = format!("obs-{:010}", (i * 7919) % keys);
        if i % 2 == 0 {
            let _ = dev.get(key.as_bytes()).expect("get");
        } else {
            dev.put(key.as_bytes(), &value).expect("update");
        }
    }
    (start.elapsed().as_secs_f64(), dev.reads_per_lookup())
}

/// Best-of-N wall-clock seconds for a phase; the sink is rebuilt per
/// trial so each runs on a fresh device and fresh telemetry state.
fn best_of(scale: Scale, keys: u64, ops: u64, mk_sink: impl Fn() -> Option<TelemetrySink>) -> f64 {
    (0..TRIALS).map(|_| trial(scale, mk_sink(), keys, ops).0).fold(f64::INFINITY, f64::min)
}

fn main() {
    let scale = Scale::from_args();
    let keys: u64 = scale.pick(3_000, 20_000);
    let ops: u64 = scale.pick(12_000, 80_000);
    let total_ops = keys + ops;

    eprintln!("[obs_overhead] {keys} keys + {ops} mixed ops, best of {TRIALS} trials per phase");
    let baseline = best_of(scale, keys, ops, || None);
    let disabled = best_of(scale, keys, ops, || Some(TelemetrySink::disabled()));
    let enabled = best_of(scale, keys, ops, || Some(TelemetrySink::enabled()));

    // Penalty vs baseline, in percent; clamp at 0 so measurement noise in
    // the fast direction never reads as negative overhead.
    let penalty = |secs: f64| ((secs - baseline) / baseline * 100.0).max(0.0);
    let disabled_pct = penalty(disabled);
    let enabled_pct = penalty(enabled);

    let mut rows = vec![vec![
        "phase".to_string(),
        "best secs".to_string(),
        "Mops/s".to_string(),
        "penalty %".to_string(),
    ]];
    for (name, secs, pct) in [
        ("baseline", baseline, 0.0),
        ("disabled", disabled, disabled_pct),
        ("enabled", enabled, enabled_pct),
    ] {
        rows.push(vec![
            name.to_string(),
            format!("{secs:.3}"),
            format!("{:.3}", total_ops as f64 / secs / 1e6),
            format!("{pct:.2}"),
        ]);
    }
    println!("{}", render_table(&rows));

    // Untimed instrumented run for the attribution dump: an unbounded-ish
    // trace ring so the whole run (resizes included) is attributable.
    let sink = TelemetrySink::with_trace_capacity((total_ops as usize).max(1));
    let (_, rpl) = trial(scale, Some(sink.clone()), keys, ops);
    let attr = sink.attribution();
    println!("per-stage device-time attribution (instrumented run):");
    println!("{}", attribution_table(&attr));
    println!(
        "reads-per-lookup: {} lookups, max {} ({}), {:.2}% within 1 read",
        rpl.lookups,
        rpl.max,
        if rpl.invariant_ok() { "invariant holds" } else { "INVARIANT VIOLATED" },
        rpl.pct_within(1),
    );

    let blob = json!({
        "experiment": "obs_overhead",
        "scale": scale.pick("small", "full"),
        "metric_note": "wall-clock best-of-3 per phase on fresh devices; \
                        penalty is vs the never-installed-sink baseline, clamped at 0",
        "keys": keys,
        "mixed_ops": ops,
        "value_bytes": VALUE_BYTES as u64,
        "trials": TRIALS as u64,
        "baseline_secs": baseline,
        "disabled_secs": disabled,
        "enabled_secs": enabled,
        "disabled_penalty_pct": disabled_pct,
        "enabled_penalty_pct": enabled_pct,
        "disabled_budget_pct": 2.0,
        "enabled_budget_pct": 10.0,
        "attribution": attribution_json(&attr),
        "reads_per_lookup": reads_per_lookup_json(&rpl),
    });
    emit_json("obs_overhead", &blob);
    if let Ok(s) = serde_json::to_string_pretty(&blob) {
        let path = "BENCH_obs_overhead.json";
        if std::fs::write(path, s).is_ok() {
            eprintln!("[wrote {path}]");
        }
    }

    if disabled_pct > 2.0 {
        eprintln!(
            "warning: disabled-sink penalty {disabled_pct:.2}% exceeds the 2% budget \
             (both sides are one branch; treat as host noise unless reproducible)"
        );
    }
    if enabled_pct > 10.0 {
        eprintln!("FAIL: enabled-telemetry penalty {enabled_pct:.2}% exceeds the 10% budget");
        std::process::exit(1);
    }
    eprintln!(
        "ok: enabled-telemetry penalty {enabled_pct:.2}% within the 10% budget \
         (disabled {disabled_pct:.2}%)"
    );
}
