//! Telemetry-driven property test for the paper's headline invariant:
//! every traced RHIK get needs at most one flash read — including while
//! an incremental directory resize is migrating slots underneath it.
//!
//! Two views measure it. Each get's span carries the flash reads its
//! lookup needed, diffed out of the index's reads-per-lookup histogram
//! around the command, and the histogram itself covers every lookup the
//! index served (puts' exist checks included). Migration-batch flash
//! reads are charged to the resize, not the lookup, and cannot hide a
//! lookup that secretly needed two reads.

use proptest::prelude::*;
use rhik::index::RhikConfig;
use rhik::kvssd::{DeviceConfig, KvssdDevice, OpKind, Stage, TelemetrySink};

fn key(i: u32) -> Vec<u8> {
    format!("tp-{i:06}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn traced_gets_need_at_most_one_flash_read(
        keys in 1_500u32..2_200,
        probes in proptest::collection::vec(any::<u32>(), 48..96),
    ) {
        let mut cfg = DeviceConfig::small();
        // Start from a single-table directory and migrate one slot per
        // command, so the grow stream spends long stretches mid-resize
        // and probes land against a half-migrated directory.
        cfg.rhik = RhikConfig {
            initial_dir_bits: 0,
            resize_migration_batch: 1,
            ..Default::default()
        };
        let mut dev = KvssdDevice::rhik(cfg);
        // Room for every span: each put and each get is one.
        let sink = TelemetrySink::with_trace_capacity(1 << 14);
        dev.set_telemetry(sink.clone());

        let mut mid_resize_gets = 0u64;
        for i in 0..keys {
            dev.put(&key(i), b"v").unwrap();
            if dev.resize_in_progress() {
                let probe = probes[i as usize % probes.len()] % (i + 1);
                prop_assert!(dev.get(&key(probe)).unwrap().is_some());
                mid_resize_gets += 1;
            }
        }
        for &p in &probes {
            prop_assert!(dev.get(&key(p % keys)).unwrap().is_some());
        }

        // The workload must actually have exercised the mid-resize path,
        // and the trace must show migration batches were interleaved.
        prop_assert!(mid_resize_gets > 0, "no get ever ran mid-resize");
        prop_assert!(sink.attribution().row(Stage::ResizeMigrateBatch).events > 0);

        // Each traced get's lookup, observed live.
        let spans = sink.spans();
        let gets: Vec<_> = spans.iter().filter(|s| s.kind == OpKind::Get).collect();
        prop_assert_eq!(gets.len() as u64, mid_resize_gets + probes.len() as u64);
        let worst = gets.iter().map(|s| s.lookup_flash_reads).max().unwrap_or(0);
        prop_assert!(worst <= 1, "a traced get needed {} flash reads", worst);

        // And every lookup the index served.
        let rpl = dev.reads_per_lookup();
        prop_assert!(rpl.lookups >= mid_resize_gets + probes.len() as u64);
        prop_assert!(rpl.invariant_ok(), "a lookup needed {} flash reads", rpl.max);
        prop_assert!((rpl.pct_within(1) - 100.0).abs() < 1e-9);
    }
}
