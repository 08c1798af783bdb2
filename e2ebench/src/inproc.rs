//! In-process workloads: one client thread calls `ShardedKvssd` directly,
//! so the client thread's CPU time is the whole stack's.
//!
//! A run is a sequence of rounds. Each round builds and preloads a fresh
//! device (timed as set-up), warms it, then times a fixed number of
//! operations drawn from its own stream (derived from the run's seed).
//! Host-time and device-clock metrics both cover the whole timed window.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhik_kvssd::{DeviceConfig, ShardedKvssd};
use rhik_nand::DeviceProfile;
use rhik_workloads::ZipfSampler;

use crate::layers::{self, Device, Snapshot, StageTotals, Window};
use crate::model::{self, Failures, Model, ValueSize, KEY_LEN};
use crate::respgen;
use crate::stats::{HostWindow, Metrics};
use crate::sys;
use crate::tracer::Tracer;

/// DRAM budget of the hot-object cache on every workload.
pub const HOT_CACHE_BYTES: u64 = 512 * 1024;

/// The traffic shape of an in-process workload.
#[derive(Clone, Copy, Debug)]
pub enum Mix {
    /// YCSB-B: 95% GET / 5% SET of existing keys, zipf-0.99 ranks.
    ReadHot,
    /// 50% SET of fresh keys, 30% SET of uniform existing keys, 20%
    /// uniform GET.
    WriteGrow,
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub mix: Mix,
    pub cfg: DeviceConfig,
    pub preload: u64,
    pub warmup_ops: u64,
    pub round_ops: u64,
    pub value_min: usize,
    pub value_max: usize,
}

/// `read-hot`'s device: `DeviceConfig::small()` (4 KiB pages, 256 KiB
/// erase blocks) grown from 64 to 256 erase blocks (64 MiB) and from a
/// 64 KiB to a 1 MiB index-page cache, on the kvemu timing profile, with
/// 4 shards and a 512 KiB hot cache. At the stock 16 MiB the preloaded
/// population leaves too few free blocks: puts fail with `DeviceFull` and
/// GETs return stale values. With the stock cache nearly every put evicts
/// a dirty index page, and a ~50 µs slow mode covering about 1% of puts
/// leaves the put p99 on a cliff.
pub fn read_hot_config() -> DeviceConfig {
    let mut cfg = DeviceConfig::small();
    cfg.geometry.blocks = 256;
    cfg.cache_budget_bytes = 1 << 20;
    cfg.with_profile(DeviceProfile::kvemu_like()).with_shards(4).with_hot_cache(HOT_CACHE_BYTES)
}

pub fn read_hot() -> Spec {
    Spec {
        mix: Mix::ReadHot,
        cfg: read_hot_config(),
        preload: 50_000,
        warmup_ops: 200_000,
        round_ops: 1_200_000,
        value_min: 120,
        value_max: 120,
    }
}

/// `write-grow`: `DeviceConfig::paper(1 GiB, 2.5 MiB)` — 32 KiB pages,
/// 8 MiB erase blocks, a 2.5 MiB index-page cache — with GC watermarks
/// raised from 4/8 to 8/12 free blocks, 4 shards and the same hot cache.
/// With the stock 256 KiB cache (two pages per shard) nearly every index
/// update evicts a dirty page, so GC relocating a head block writes back
/// about one 32 KiB index page per pair it moves. That drains the shared
/// pool below the reserve's metadata floor (16 free blocks), where an
/// index write-back is refused and the evicted dirty page it carried is
/// dropped; about one round in a hundred returned a stale value. With this
/// configuration the pool kept at least 30 free blocks over 65 rounds,
/// while GC still erases and relocates, about one index-cache access in
/// seven misses, and a put still writes back about 0.3 index pages.
pub fn write_grow() -> Spec {
    let mut cfg = DeviceConfig::paper(1 << 30, 2560 * 1024);
    cfg.gc.low_watermark = 8;
    cfg.gc.high_watermark = 12;
    Spec {
        mix: Mix::WriteGrow,
        cfg: cfg.with_shards(4).with_hot_cache(HOT_CACHE_BYTES),
        preload: 20_000,
        // Ages the device until GC runs steadily, so the timed window
        // sees the same mix of GC, resize and foreground work every run.
        warmup_ops: 100_000,
        round_ops: 240_000,
        value_min: 256,
        value_max: 1024,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Put,
}

/// The seeded op stream of a workload.
pub struct OpGen {
    mix: Mix,
    rng: StdRng,
    zipf: Option<ZipfSampler>,
    /// Keys `0..population` exist.
    pub population: u64,
}

impl OpGen {
    pub fn new(mix: Mix, seed: u64, population: u64, zipf_theta: f64) -> OpGen {
        let zipf = matches!(mix, Mix::ReadHot).then(|| ZipfSampler::new(population, zipf_theta));
        OpGen { mix, rng: StdRng::seed_from_u64(seed), zipf, population }
    }

    /// Next op and the key id it addresses.
    pub fn next_op(&mut self) -> (OpKind, u64) {
        let u: f64 = self.rng.gen();
        match self.mix {
            Mix::ReadHot => {
                let id =
                    self.zipf.as_ref().expect("read-hot draws zipf ranks").sample(&mut self.rng);
                (if u < 0.95 { OpKind::Get } else { OpKind::Put }, id)
            }
            Mix::WriteGrow => {
                if u < 0.5 {
                    self.population += 1;
                    (OpKind::Put, self.population - 1)
                } else {
                    let id = self.rng.gen_range(0..self.population);
                    (if u < 0.8 { OpKind::Put } else { OpKind::Get }, id)
                }
            }
        }
    }
}

/// Build a device and preload keys `0..preload` at version 1.
pub fn build(spec: &Spec, sizes: &ValueSize, model: &mut Model) -> Device {
    let dev = ShardedKvssd::rhik(spec.cfg);
    let (mut k, mut v) = ([0u8; KEY_LEN], Vec::new());
    for id in 0..spec.preload {
        model::key(id, &mut k);
        sizes.encode(id, 1, &mut v);
        dev.put(&k, &v).expect("preload put succeeds on an empty device");
        model.set(id, 1);
    }
    dev
}

/// Time one set-up (build and preload) of `spec`'s device on its own.
pub fn time_setup(spec: &Spec, seed: u64) -> f64 {
    let sizes = ValueSize { min: spec.value_min, max: spec.value_max, seed };
    let start = Instant::now();
    let dev = build(spec, &sizes, &mut Model::default());
    let setup_s = start.elapsed().as_secs_f64();
    drop(dev);
    setup_s
}

/// Everything one round produced.
pub struct Round {
    /// Round-level metrics: set-up and, in a traced round, per-layer.
    pub metrics: Metrics,
    /// End-to-end metrics of the whole timed window: host time and device
    /// clock.
    pub e2e: Metrics,
    pub attempted: u64,
    pub failures: Failures,
}

/// Client state of one round: the model, the op stream and the checks.
struct Client<'a> {
    dev: &'a Device,
    sizes: ValueSize,
    model: Model,
    ops: OpGen,
    key: [u8; KEY_LEN],
    val: Vec<u8>,
    failures: Failures,
    attempted: u64,
}

impl Client<'_> {
    /// Issue one op; returns its kind, host latency in ns, and the bytes
    /// a successful put wrote.
    fn step(&mut self, mut tracer: Option<&mut Tracer>, op_no: u64) -> (OpKind, u64, u64) {
        if let Some(t) = tracer.as_deref_mut() {
            t.open("bench.op", op_no);
        }
        let (kind, id) = self.ops.next_op();
        model::key(id, &mut self.key);
        self.attempted += 1;
        let expected = self.model.version(id);
        if kind == OpKind::Put {
            self.sizes.encode(id, expected + 1, &mut self.val);
        }
        if let Some(t) = tracer.as_deref_mut() {
            t.open(if kind == OpKind::Get { "kvssd.get" } else { "kvssd.put" }, op_no);
        }
        let start = Instant::now();
        let outcome = match kind {
            OpKind::Get => self.dev.get(&self.key).map(Some),
            OpKind::Put => self.dev.put(&self.key, &self.val).map(|()| None),
        };
        let ns = start.elapsed().as_nanos() as u64;
        if let Some(t) = tracer.as_deref_mut() {
            t.close();
            t.open("bench.check", op_no);
        }
        let mut written = 0;
        match (kind, outcome) {
            (OpKind::Get, Ok(got)) => {
                let got = got.flatten();
                if let Err(cause) = self.sizes.check(id, got.as_deref(), expected, expected) {
                    self.failures.add(cause);
                }
            }
            (OpKind::Put, Ok(_)) => {
                self.model.set(id, expected + 1);
                written = (KEY_LEN + self.val.len()) as u64;
            }
            (_, Err(e)) => self.failures.add(&model::error_cause(&e)),
        }
        if let Some(t) = tracer {
            t.close();
            t.close();
        }
        (kind, ns, written)
    }
}

/// Run one round. With `tracer` set the window is traced: the benchmark
/// records a span around every call, the device's telemetry sink is on,
/// and per-layer metrics and replays are added to the round's metrics.
pub fn round(spec: &Spec, seed: u64, mut tracer: Option<&mut Tracer>) -> Round {
    let sizes = ValueSize { min: spec.value_min, max: spec.value_max, seed };
    let setup = Instant::now();
    let mut model = Model::default();
    let dev = build(spec, &sizes, &mut model);
    let setup_s = setup.elapsed().as_secs_f64();

    let mut d = Client {
        dev: &dev,
        sizes,
        model,
        ops: OpGen::new(spec.mix, seed, spec.preload, 0.99),
        key: [0; KEY_LEN],
        val: Vec::with_capacity(spec.value_max),
        failures: Failures::default(),
        attempted: 0,
    };
    for i in 0..spec.warmup_ops {
        d.step(None, i);
    }

    let mut stages = tracer.is_some().then(|| StageTotals::install(&dev));
    let mut keys: Vec<[u8; KEY_LEN]> = Vec::new();
    let mut host = HostWindow::default();
    let mut w = Window { ops: spec.round_ops, ..Window::default() };
    let mut free_min = dev.pool().free_blocks();
    let before = Snapshot::take(&dev);
    let cpu0 = sys::thread_cpu_s();
    for i in 0..spec.round_ops {
        let (kind, ns, written) = d.step(tracer.as_deref_mut(), i);
        match kind {
            OpKind::Get => host.get_ns.record(ns),
            OpKind::Put => host.put_ns.record(ns),
        }
        w.host_bytes_written += written;
        if i % 1024 == 0 {
            free_min = free_min.min(dev.pool().free_blocks());
            if let Some(s) = stages.as_mut() {
                s.drain();
            }
        }
        if tracer.is_some() && keys.len() < 100_000 {
            // Keys captured for the layer replays.
            keys.push(d.key);
        }
    }
    host.cpu_s = sys::thread_cpu_s() - cpu0;
    host.ops = spec.round_ops;
    (w.gets, w.puts) = (host.get_ns.count(), host.put_ns.count());
    let after = Snapshot::take(&dev);
    w.live_user_bytes = d.model.live_bytes(&sizes);
    let mut e2e = host.metrics();
    layers::device_metrics(&mut e2e, &dev, &before, &after, &w);
    let mut m = Metrics::default();
    m.set("setup_s", setup_s, 1);
    if let Some(t) = tracer {
        layers::layer_metrics(&mut m, &before, &after, &w, free_min);
        if let Some(s) = stages {
            s.finish(&dev, &mut m);
        }
        // The server layer on this workload's traffic: the round's device
        // behind a one-worker server, driven by the continuing op stream.
        let ops = OpGen::new(spec.mix, seed ^ 0x5e5e, d.ops.population, 0.99);
        let model = d.model.clone();
        let wire = match respgen::server_layer(&dev, ops, sizes, model, &mut m, Some(&mut *t)) {
            Ok(s) => {
                d.attempted += s.attempted;
                d.failures.merge(&s.failures);
                s.wire
            }
            Err(e) => {
                d.failures.add(&format!("server_layer: {e}"));
                Vec::new()
            }
        };
        layers::replay_metrics(&mut m, &dev, spec.cfg.hasher, &keys, &wire, t);
    }
    Round { metrics: m, e2e, attempted: d.attempted, failures: d.failures }
}
