//! The benchmark's own checks: its device-side inputs are deterministic,
//! and its metric catalog matches `BENCHMARK.json`.

use rhik_e2ebench::catalog;
use rhik_e2ebench::inproc::{self, OpGen, OpKind};
use rhik_e2ebench::model::{self, Model, ValueSize, KEY_LEN};
use rhik_ftl::{FtlStats, IndexBackend, IndexStats};
use rhik_kvssd::DeviceStats;
use rhik_nand::NandStats;

type Counters = (DeviceStats, Vec<(FtlStats, IndexStats, NandStats)>);

/// A short `read-hot` run (few enough writes that GC never starts): the
/// device and every shard's FTL, index and NAND counters at its end.
fn short_read_hot(seed: u64) -> Counters {
    let spec = inproc::Spec { preload: 5_000, ..inproc::read_hot() };
    let sizes = ValueSize { min: spec.value_min, max: spec.value_max, seed };
    let mut model = Model::default();
    let dev = inproc::build(&spec, &sizes, &mut model);
    let mut ops = OpGen::new(spec.mix, seed, spec.preload, 0.99);
    let (mut key, mut val) = ([0u8; KEY_LEN], Vec::new());
    for _ in 0..20_000 {
        let (kind, id) = ops.next_op();
        model::key(id, &mut key);
        match kind {
            OpKind::Get => {
                let got = dev.get(&key).expect("get succeeds");
                let v = model.version(id);
                assert_eq!(sizes.check(id, got.as_deref(), v, v), Ok(v), "key {id}");
            }
            OpKind::Put => {
                let v = model.version(id) + 1;
                sizes.encode(id, v, &mut val);
                dev.put(&key, &val).expect("put succeeds");
                model.set(id, v);
            }
        }
    }
    let shards = (0..dev.shard_count())
        .map(|s| {
            dev.with_shard(s, |d| {
                let mut index = d.index().stats().clone();
                // The one host-clock field: migration CPU time.
                index.resizes.iter_mut().for_each(|r| r.cpu_ns = 0);
                (d.ftl().stats(), index, d.ftl().nand_stats())
            })
        })
        .collect();
    (dev.stats(), shards)
}

#[test]
fn read_hot_counters_repeat_exactly() {
    let a = short_read_hot(7);
    let b = short_read_hot(7);
    assert!(a.1.iter().all(|(ftl, _, _)| ftl.gc_runs == 0), "the short run must not reach GC");
    assert_eq!(a, b);
}

/// Values of `key` listed under `section` of `BENCHMARK.json`.
fn listed(json: &str, section: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split(&format!("\"{key}\""))
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted value").to_string())
        .collect()
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for key in ["name", "unit", "better"] {
        let e2e: Vec<&str> = catalog::END_TO_END
            .iter()
            .map(|m| match key {
                "name" => m.name,
                "unit" => m.unit,
                _ => m.better,
            })
            .collect();
        let layers: Vec<&str> = catalog::LAYERS
            .iter()
            .map(|m| match key {
                "name" => m.name,
                "unit" => m.unit,
                _ => m.better,
            })
            .collect();
        assert_eq!(listed(&json, "end_to_end", key), e2e, "{key}");
        assert_eq!(listed(&json, "per_layer", key), layers, "{key}");
    }
    let workloads = listed(&json, "workloads", "name");
    assert!(workloads.iter().all(|w| rhik_e2ebench::WORKLOADS.contains(&w.as_str())));
}
