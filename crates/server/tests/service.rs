//! End-to-end loopback tests: real sockets, real workers, real device.

mod common;

use std::time::{Duration, Instant};

use common::{Client, RespValue};
use rhik_audit::DeviceAuditor;
use rhik_kvssd::{DeviceConfig, ShardedKvssd};
use rhik_server::{ServerConfig, TenantSpec};

fn test_server(tenants: Vec<TenantSpec>) -> rhik_server::ServerHandle<rhik_core::RhikIndex> {
    let device = ShardedKvssd::rhik(DeviceConfig::small().with_shards(4).with_hot_cache(64 * 1024));
    let cfg = ServerConfig { workers: 2, tenants, ..ServerConfig::default() };
    rhik_server::start(device, cfg).expect("server start")
}

#[test]
fn basic_commands_roundtrip() {
    let server = test_server(Vec::new());
    let mut c = Client::connect(server.addr());

    assert_eq!(c.cmd(&[b"PING"]), RespValue::Simple("PONG".into()));
    assert_eq!(c.cmd(&[b"SET", b"alpha", b"one"]), RespValue::Simple("OK".into()));
    assert_eq!(c.cmd(&[b"GET", b"alpha"]), RespValue::Bulk(b"one".to_vec()));
    assert_eq!(c.cmd(&[b"EXISTS", b"alpha"]), RespValue::Int(1));
    assert_eq!(c.cmd(&[b"GET", b"missing"]), RespValue::Nil);
    assert_eq!(c.cmd(&[b"EXISTS", b"missing"]), RespValue::Int(0));
    assert_eq!(c.cmd(&[b"DEL", b"alpha"]), RespValue::Int(1));
    assert_eq!(c.cmd(&[b"DEL", b"alpha"]), RespValue::Int(0));
    assert_eq!(c.cmd(&[b"GET", b"alpha"]), RespValue::Nil);

    // Values above the shared-chunk threshold exercise the vectored
    // zero-copy write path.
    let big = vec![0xabu8; 8000];
    assert_eq!(c.cmd(&[b"SET", b"big", &big]), RespValue::Simple("OK".into()));
    assert_eq!(c.cmd(&[b"GET", b"big"]), RespValue::Bulk(big));

    // Command-level errors answer without closing the connection.
    match c.cmd(&[b"FLUSHALL"]) {
        RespValue::Error(msg) => assert!(msg.contains("unknown command")),
        other => panic!("expected error, got {other:?}"),
    }
    match c.cmd(&[b"GET"]) {
        RespValue::Error(msg) => assert!(msg.contains("wrong number of arguments")),
        other => panic!("expected arity error, got {other:?}"),
    }
    assert_eq!(c.cmd(&[b"PING"]), RespValue::Simple("PONG".into()));

    server.shutdown();
}

#[test]
fn pipelined_replies_keep_request_order() {
    let server = test_server(Vec::new());
    let mut c = Client::connect(server.addr());

    // One write carries the whole pipeline; keys fan out across shards
    // and complete out of order internally, but the wire order must
    // match the request order exactly.
    let n = 100u32;
    let mut wire = Vec::new();
    for i in 0..n {
        let key = format!("pipe-{i}");
        let val = format!("v{i}");
        rhik_server::resp::enc_command(&mut wire, &[b"SET", key.as_bytes(), val.as_bytes()]);
    }
    for i in 0..n {
        let key = format!("pipe-{i}");
        rhik_server::resp::enc_command(&mut wire, &[b"GET", key.as_bytes()]);
    }
    wire.extend_from_slice(b"*1\r\n$4\r\nPING\r\n");
    c.send_raw(&wire);

    for _ in 0..n {
        assert_eq!(c.read_reply(), RespValue::Simple("OK".into()));
    }
    for i in 0..n {
        assert_eq!(c.read_reply(), RespValue::Bulk(format!("v{i}").into_bytes()));
    }
    assert_eq!(c.read_reply(), RespValue::Simple("PONG".into()));

    assert!(server.ops_served() >= 2 * n as u64);
    server.shutdown();
}

#[test]
fn auth_binds_tenants_and_rejects_unknown() {
    let server = test_server(vec![TenantSpec {
        name: "team-a".into(),
        ops_per_sec: 0,
        bytes_per_sec: 0,
        weight: 2,
    }]);
    let mut c = Client::connect(server.addr());

    match c.cmd(&[b"AUTH", b"nobody"]) {
        RespValue::Error(msg) => assert!(msg.contains("unknown tenant")),
        other => panic!("expected error, got {other:?}"),
    }
    assert_eq!(c.cmd(&[b"AUTH", b"team-a"]), RespValue::Simple("OK".into()));
    assert_eq!(c.cmd(&[b"SET", b"k", b"v"]), RespValue::Simple("OK".into()));

    let team_a = server.tenants().resolve("team-a").expect("tenant");
    assert_eq!(team_a.stats.admitted_ops.get(), 1);
    assert_eq!(team_a.stats.admitted_bytes.get(), 2);
    // The pre-AUTH traffic billed to default.
    assert!(server.tenants().default_tenant().stats.admitted_ops.get() == 0);

    server.shutdown();
}

#[test]
fn quota_caps_admission_rate() {
    // Small enough that the burst floor (64) applies and the client's
    // offered rate (several hundred ops/s) exceeds the bucket by more
    // than 2.5x, so the throttle engages on every run.
    let quota = 100u64;
    let server = test_server(vec![TenantSpec {
        name: "capped".into(),
        ops_per_sec: quota,
        bytes_per_sec: 0,
        weight: 1,
    }]);
    let mut c = Client::connect(server.addr());
    assert_eq!(c.cmd(&[b"AUTH", b"capped"]), RespValue::Simple("OK".into()));

    // Offer far more than the quota for ~1s of wall clock; the server
    // must serve every op (no errors) but pace them at the bucket rate.
    let started = Instant::now();
    let mut done = 0u64;
    while started.elapsed() < Duration::from_millis(1000) {
        // Pipelines of 20 PUT-free GETs: cheap on the device, so the
        // token bucket is the only thing pacing us.
        let mut wire = Vec::new();
        for i in 0..20 {
            let key = format!("q{i}");
            rhik_server::resp::enc_command(&mut wire, &[b"GET", key.as_bytes()]);
        }
        c.send_raw(&wire);
        for _ in 0..20 {
            assert_eq!(c.read_reply(), RespValue::Nil);
            done += 1;
        }
    }
    let secs = started.elapsed().as_secs_f64();
    let burst = (quota as f64 / 5.0).max(64.0);
    let ceiling = quota as f64 * secs + burst + 40.0;
    assert!(
        (done as f64) <= ceiling,
        "tenant exceeded quota: {done} ops in {secs:.2}s (ceiling {ceiling:.0})"
    );
    // And the throttle actually engaged (we offered much more).
    let capped = server.tenants().resolve("capped").expect("tenant");
    assert!(capped.stats.throttled.get() > 0, "quota never engaged");

    server.shutdown();
}

#[test]
fn protocol_errors_reply_then_close() {
    let server = test_server(Vec::new());
    let mut c = Client::connect(server.addr());
    assert_eq!(c.cmd(&[b"PING"]), RespValue::Simple("PONG".into()));

    c.send_raw(b"GET inline-form\r\n");
    match c.read_reply() {
        RespValue::Error(msg) => assert!(msg.starts_with("ERR Protocol error"), "{msg}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert!(c.eof(), "connection must close after a protocol error");

    // QUIT also closes, but politely.
    let mut c2 = Client::connect(server.addr());
    assert_eq!(c2.cmd(&[b"SET", b"x", b"y"]), RespValue::Simple("OK".into()));
    assert_eq!(c2.cmd(&[b"QUIT"]), RespValue::Simple("OK".into()));
    assert!(c2.eof(), "connection must close after QUIT");

    server.shutdown();
}

#[test]
fn shutdown_is_clean_and_device_audits() {
    let server = test_server(Vec::new());
    let mut c = Client::connect(server.addr());
    for i in 0..200u32 {
        let key = format!("audit-{i}");
        let val = format!("payload-{i:04}");
        assert_eq!(
            c.cmd(&[b"SET", key.as_bytes(), val.as_bytes()]),
            RespValue::Simple("OK".into())
        );
    }
    for i in (0..200u32).step_by(3) {
        let key = format!("audit-{i}");
        assert_eq!(c.cmd(&[b"DEL", key.as_bytes()]), RespValue::Int(1));
    }
    let device = server.device().clone();
    let served = server.ops_served();
    assert!(served >= 200 + 67);
    server.shutdown();

    // After shutdown the device is quiesced: flush and run the full
    // cross-layer invariant audit.
    device.flush().expect("flush");
    let mut auditor = DeviceAuditor::new();
    let report = device.audit(&mut auditor);
    assert!(report.is_ok(), "audit violations after server shutdown: {report:?}");
    for i in 0..200u32 {
        let expect = i % 3 != 0;
        let got = device.get(format!("audit-{i}").as_bytes()).expect("get");
        assert_eq!(got.is_some(), expect, "key audit-{i}");
    }
}
