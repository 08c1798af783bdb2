//! End-to-end and per-layer benchmark of the RHIK KVSSD stack.
//!
//! Two workloads (see `README.md` in this directory for why each
//! exists), `read-hot` and `write-grow`, drive `ShardedKvssd` in process
//! from one thread. Every GET is checked against a key → version model.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that reports the per-layer metrics, including a RESP phase that
//! serves the round's device through `rhik-server` over loopback.

pub mod catalog;
pub mod inproc;
pub mod layers;
pub mod model;
pub mod respgen;
pub mod stats;
pub mod sys;
pub mod tracer;

use std::fmt::Write as _;
use std::time::Instant;

use model::Failures;
use stats::Metrics;
use tracer::Tracer;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const WORKLOADS: [&str; 2] = ["read-hot", "write-grow"];

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err(format!("--seconds {value} outside (0, 120]"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}; use 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown --workload '{}'; use one of {WORKLOADS:?}", a.workload));
    }
    Ok(a)
}

/// What a workload run hands back for reporting.
pub struct Outcome {
    /// End-to-end metrics (untraced windows).
    pub e2e: Metrics,
    /// Per-layer metrics (traced windows); empty for `--trace 0`.
    pub layers: Metrics,
    pub attempted: u64,
    pub failures: Failures,
    /// A human-readable description of the configuration that ran.
    pub config: String,
    pub notes: Vec<String>,
}

/// Failure causes that mean a GET returned the wrong value.
pub const CHECK_CAUSES: [&str; 4] =
    ["wrong_value", "stale_value", "unacked_value", "missing_value"];

/// `setup_s` is the median of at least this many set-ups per run.
const MIN_SETUPS: usize = 5;

/// The in-process run: rounds until `seconds` have passed (at least
/// two untraced rounds; in a traced run untraced and traced rounds
/// alternate, at least one of each). Each end-to-end metric is the median
/// over the untraced rounds of its value on a round's whole timed window.
/// No part of a window is left out: other tenants of a shared machine
/// slow it for seconds at a time, but keeping only calm stretches (judged
/// by their own speed, or by a timed probe of the host's) also picks
/// which GC bursts and resizes are counted, and on `write-grow` that
/// spread the results more than the host noise it removed.
pub fn run_inproc(spec: &inproc::Spec, args: &Args, tracer: &mut Option<Tracer>) -> Outcome {
    let start = Instant::now();
    let (mut rounds, mut traced, mut traced_e2e) = (Vec::new(), Vec::new(), Vec::new());
    let mut setups = Vec::new();
    let mut attempted = 0;
    let mut failures = Failures::default();
    for i in 0.. {
        let trace_this = args.trace && i % 2 == 1;
        // Every round replays its own stream drawn from the run's seed.
        let seed = args.seed.wrapping_mul(1_000_003).wrapping_add(i);
        let r = inproc::round(spec, seed, if trace_this { tracer.as_mut() } else { None });
        attempted += r.attempted;
        failures.merge(&r.failures);
        setups.push(r.metrics.get("setup_s"));
        if trace_this {
            traced.push(r.metrics);
            traced_e2e.push(r.e2e);
        } else {
            rounds.push(r.e2e);
        }
        let enough = if args.trace { !traced.is_empty() } else { rounds.len() >= 2 };
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUPS {
        setups.push(inproc::time_setup(spec, args.seed));
    }
    let mut e2e = Metrics::median_of(&rounds);
    e2e.set("setup_s", stats::median(&setups), setups.len() as u64);
    e2e.set("peak_rss_mib", sys::peak_rss_mib(), 1);
    let mut layers = Metrics::median_of(&traced);
    if args.trace {
        let traced_rate = Metrics::median_of(&traced_e2e).get("ops_per_cpu_s");
        let overhead = 1.0 - traced_rate / e2e.get("ops_per_cpu_s");
        layers.set("trace_overhead_pct", 100.0 * overhead, traced.len() as u64);
    }
    let notes = vec![format!(
        "ops_per_cpu_s / device_ops_per_s / write_amp by round: {}",
        rounds
            .iter()
            .map(|m| format!(
                "{:.0}/{:.0}/{:.1}",
                m.get("ops_per_cpu_s"),
                m.get("device_ops_per_s"),
                m.get("write_amp")
            ))
            .collect::<Vec<_>>()
            .join(" ")
    )];
    let c = &spec.cfg;
    let config = format!(
        "in process, 1 client thread; {} shards; {} MiB flash, {} KiB pages, {} KiB index-page \
         cache, {} KiB hot cache; {} keys preloaded; values {}-{} B; {} warm-up + {} timed ops \
         per round; {} untraced + {} traced rounds",
        c.shards,
        c.geometry.capacity_bytes() >> 20,
        c.geometry.page_size / 1024,
        c.cache_budget_bytes / 1024,
        c.hot_cache.budget_bytes / 1024,
        spec.preload,
        spec.value_min,
        spec.value_max,
        spec.warmup_ops,
        spec.round_ops,
        rounds.len(),
        traced.len()
    );
    Outcome { e2e, layers, attempted, failures, config, notes }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Run the benchmark; returns the process exit code.
pub fn run(argv: &[String]) -> i32 {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return 2;
        }
    };
    let mut tracer = args.trace.then(|| Tracer::new(600_000));
    let spec = if args.workload == "read-hot" { inproc::read_hot() } else { inproc::write_grow() };
    let outcome = run_inproc(&spec, &args, &mut tracer);
    report(&args, &outcome, tracer.as_ref());
    0
}

/// Print the table, the report line and the result line; write the
/// trace.
fn report(args: &Args, o: &Outcome, tracer: Option<&Tracer>) {
    let failed = o.failures.total();
    let mismatches: u64 = CHECK_CAUSES.iter().filter_map(|c| o.failures.0.get(*c)).sum();
    let correct = mismatches == 0 && o.attempted > 0;
    let failed_pct = 100.0 * stats::ratio(failed as f64, o.attempted as f64);

    println!(
        "workload {} (seed {}, {} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("config: {}", o.config);
    for note in &o.notes {
        println!("note: {note}");
    }
    let line = |name: &str, unit: &str, v: Option<&stats::Value>, extra: &str| match v {
        Some(v) => {
            println!("  {name:<40} {:>14.4} {unit:<10} n={:<10} {extra}", v.value, v.samples)
        }
        None => println!("  {name:<40} {:>14} {unit:<10}", "-"),
    };
    let mut report = String::new();
    let _ = write!(
        report,
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"config\": {}, \"attempted\": {}, \"failed\": {}, \
         \"failed_pct\": {}, \"failures_by_cause\": {{",
        json_str(&args.workload),
        args.seed,
        json_str(&o.config),
        o.attempted,
        failed,
        json_num(failed_pct)
    );
    let causes: Vec<String> =
        o.failures.0.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    report.push_str(&causes.join(", "));
    report.push_str("}, \"metrics\": {");
    // (name, unit, moves, in the result line) of the metrics this run
    // reports.
    let (metrics, rows): (&Metrics, Vec<(&str, &str, &str, bool)>) = if args.trace {
        println!("per-layer metrics (traced windows):");
        (&o.layers, catalog::LAYERS.iter().map(|m| (m.name, m.unit, m.moves, true)).collect())
    } else {
        println!("end-to-end metrics (untraced windows):");
        let bounded = catalog::END_TO_END.iter().map(|m| (m.name, m.unit, "", true));
        let unbounded = catalog::UNBOUNDED.iter().map(|m| (m.name, m.unit, "", false));
        (&o.e2e, bounded.chain(unbounded).collect())
    };
    let mut entries = Vec::new();
    let mut result = Vec::new();
    for (name, unit, moves, in_result) in rows {
        let v = metrics.0.get(name);
        let (value, samples) = v.map_or((0.0, 0), |v| (v.value, v.samples));
        let head = format!(
            "{}: {{\"value\": {}, \"unit\": {}",
            json_str(name),
            json_num(value),
            json_str(unit)
        );
        if moves.is_empty() {
            line(name, unit, v, "");
            entries.push(format!("{head}, \"samples\": {samples}}}"));
        } else {
            line(name, unit, v, &format!("moves {moves}"));
            entries
                .push(format!("{head}, \"samples\": {samples}, \"moves\": {}}}", json_str(moves)));
        }
        if in_result {
            result.push(format!("{head}}}"));
        }
    }
    let f = catalog::FAILED_PCT;
    line(f.name, f.unit, Some(&stats::Value { value: failed_pct, samples: o.attempted }), "");
    println!(
        "failures by cause: {}",
        if causes.is_empty() { "none".to_string() } else { causes.join(", ") }
    );

    if let Some(t) = tracer {
        println!("bench spans (count, mean us, mean self us):");
        for (name, s) in t.totals() {
            let mean = stats::ratio(s.total_ns as f64, s.count as f64) / 1e3;
            let self_mean = stats::ratio(s.self_ns as f64, s.count as f64) / 1e3;
            println!("  {name:<32} {:>10} {mean:>10.3} {self_mean:>10.3}", s.count);
        }
        let path = format!("e2ebench/out/{}-seed{}-spans.csv", args.workload, args.seed);
        let written = std::fs::create_dir_all("e2ebench/out")
            .and_then(|()| std::fs::write(&path, t.to_csv()));
        match written {
            Ok(()) => println!(
                "spans: {} retained, {} over the cap, written to {path}",
                t.retained(),
                t.dropped()
            ),
            Err(e) => println!("spans: not written ({e})"),
        }
    }
    report.push_str(&entries.join(", "));
    report.push_str("}}}");
    println!("{report}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        o.attempted,
        result.join(", ")
    );
}
