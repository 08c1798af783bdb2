//! The RESP phase of a traced in-process round: the round's device
//! behind `rhik-server` (one worker thread) over loopback, driven by one
//! nonblocking open-loop generator on the main thread.
//!
//! The generator follows a fixed arrival schedule: op `i` at rate `r` is
//! due at `start + i / r`, whether or not earlier replies have arrived.
//! Keys are bound to one of two pipelined connections (`id % 2`), so a
//! GET follows every earlier SET of its key on the same connection.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use rhik_server::{Limits, ServerConfig, ServerHandle};

use crate::inproc::{OpGen, OpKind};
use crate::layers::Device;
use crate::model::{self, Failures, Model, ValueSize, KEY_LEN};
use crate::stats::{self, Metrics};
use crate::sys;
use crate::tracer::Tracer;

/// Wire limits sized to the benchmark's frames (`SET key value`, values
/// up to 1 KiB). With the default limits (8 arguments, 512 KiB bulk
/// strings) the read high-watermark rises to ~4 MiB, and
/// `Connection::fill` zero-fills that much per connection on every poll
/// pass: the worker then spends ~1 ms per pass on memory bandwidth, which
/// makes its CPU time follow the host's memory traffic rather than the
/// server's work.
const LIMITS: Limits = Limits { max_args: 3, max_bulk: 4096 };
const WORKER_PREFIX: &str = "rhik-server-";
/// A step's replies must all arrive within this long after it ends.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Offered rate and length of the RESP phase.
const LAYER_RATE: f64 = 5_000.0;
const LAYER_OPS: u64 = 5_000;

struct Pending {
    kind: OpKind,
    id: u64,
    /// GET: oldest acceptable version. SET: the version sent.
    version: u32,
    /// GET: newest acceptable version.
    hi: u32,
    due_ns: u64,
    op: u64,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    in_pos: usize,
    pending: VecDeque<Pending>,
}

enum RespReply<'a> {
    Ok,
    Nil,
    Value(&'a [u8]),
    Error(&'a [u8]),
    Other,
}

/// Parse one reply at the front of `buf`: `(reply, bytes consumed)`.
fn parse_reply(buf: &[u8]) -> Option<(RespReply<'_>, usize)> {
    let eol = buf.windows(2).position(|w| w == b"\r\n")?;
    let line = &buf[1..eol];
    let after = eol + 2;
    match buf.first()? {
        b'+' => Some((if line == b"OK" { RespReply::Ok } else { RespReply::Other }, after)),
        b'-' => Some((RespReply::Error(line), after)),
        b':' => Some((RespReply::Other, after)),
        b'$' => {
            let len: i64 = std::str::from_utf8(line).ok()?.parse().ok()?;
            if len < 0 {
                return Some((RespReply::Nil, after));
            }
            let end = after + len as usize;
            (buf.len() >= end + 2).then(|| (RespReply::Value(&buf[after..end]), end + 2))
        }
        _ => Some((RespReply::Other, buf.len())),
    }
}

struct Generator {
    epoch: Instant,
    conns: Vec<Conn>,
    ops: OpGen,
    sizes: ValueSize,
    issued: Model,
    acked: Model,
    val: Vec<u8>,
    key: [u8; KEY_LEN],
    next_op: u64,
    /// Request bytes sent, kept for the parse replay.
    wire: Vec<u8>,
    attempted: u64,
    failures: Failures,
}

impl Generator {
    fn new(conns: Vec<Conn>, ops: OpGen, sizes: ValueSize, model: Model) -> Generator {
        // The generator sleeps between bursts; keep its wake-ups on time.
        sys::set_timer_slack_ns(1_000);
        Generator {
            epoch: Instant::now(),
            conns,
            ops,
            sizes,
            issued: model.clone(),
            acked: model,
            val: Vec::new(),
            key: [0; KEY_LEN],
            next_op: 0,
            wire: Vec::new(),
            attempted: 0,
            failures: Failures::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Send `ops` requests open loop at `rate` and wait for every reply.
    fn step(&mut self, rate: f64, ops: u64, mut tracer: Option<&mut Tracer>) -> Result<(), String> {
        let period = 1e9 / rate;
        let start = self.now_ns() + 100_000;
        let end = start + (ops as f64 * period) as u64;
        let (mut sent, mut done) = (0u64, 0u64);
        while done < ops {
            let now = self.now_ns();
            let mut progress = false;
            while sent < ops {
                let due = start + (sent as f64 * period) as u64;
                if due > now {
                    break;
                }
                self.send(due);
                sent += 1;
                progress = true;
            }
            for c in &mut self.conns {
                progress |= flush(c)?;
            }
            for i in 0..self.conns.len() {
                let n = self.receive(i, tracer.as_deref_mut())?;
                done += n;
                progress |= n > 0;
            }
            if now > end + DRAIN_TIMEOUT.as_nanos() as u64 {
                return Err(format!(
                    "{} replies missing {DRAIN_TIMEOUT:?} after a step at {rate} ops/s",
                    ops - done
                ));
            }
            if !progress {
                // Sleep rather than spin: the server's worker needs one of
                // the two CPUs and the kernel's loopback work the other.
                std::thread::sleep(Duration::from_micros(20));
            }
        }
        self.attempted += ops;
        Ok(())
    }

    /// Encode the next op onto its key's connection.
    fn send(&mut self, due_ns: u64) {
        let (kind, id) = self.ops.next_op();
        model::key(id, &mut self.key);
        let c = &mut self.conns[(id % 2) as usize];
        let before = c.out.len();
        let pending = match kind {
            OpKind::Get => {
                rhik_server::resp::enc_command(&mut c.out, &[b"GET", &self.key]);
                Pending {
                    kind,
                    id,
                    version: self.acked.version(id),
                    hi: self.issued.version(id),
                    due_ns,
                    op: self.next_op,
                }
            }
            OpKind::Put => {
                let v = self.issued.version(id) + 1;
                self.issued.set(id, v);
                self.sizes.encode(id, v, &mut self.val);
                rhik_server::resp::enc_command(&mut c.out, &[b"SET", &self.key, &self.val]);
                Pending { kind, id, version: v, hi: v, due_ns, op: self.next_op }
            }
        };
        c.pending.push_back(pending);
        self.next_op += 1;
        if self.wire.len() < 4 << 20 {
            self.wire.extend_from_slice(&c.out[before..]);
        }
    }

    /// Read and check every complete reply on connection `i`.
    fn receive(&mut self, i: usize, mut tracer: Option<&mut Tracer>) -> Result<u64, String> {
        let c = &mut self.conns[i];
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match c.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed a connection".into()),
                Ok(n) => c.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut n = 0;
        while let Some((reply, used)) = parse_reply(&c.inbuf[c.in_pos..]) {
            let p = c.pending.pop_front().ok_or("reply without a request")?;
            let checked = match (p.kind, reply) {
                (OpKind::Get, RespReply::Value(v)) => {
                    self.sizes.check(p.id, Some(v), p.version, p.hi)
                }
                (OpKind::Get, RespReply::Nil) => self.sizes.check(p.id, None, p.version, p.hi),
                (OpKind::Put, RespReply::Ok) => {
                    if self.acked.version(p.id) < p.version {
                        self.acked.set(p.id, p.version);
                    }
                    Ok(p.version)
                }
                (_, RespReply::Error(text)) => {
                    self.failures.add(&model::resp_error_cause(text));
                    Ok(0)
                }
                _ => Err("unexpected_reply"),
            };
            if let Err(cause) = checked {
                self.failures.add(cause);
            }
            if let Some(t) = tracer.as_deref_mut() {
                let name = if p.kind == OpKind::Get { "resp.get" } else { "resp.set" };
                t.record(name, p.op, p.due_ns, now);
            }
            c.in_pos += used;
            n += 1;
        }
        if c.in_pos > 0 && c.in_pos == c.inbuf.len() {
            c.inbuf.clear();
            c.in_pos = 0;
        }
        Ok(n)
    }
}

/// Write as much queued output as the socket takes.
fn flush(c: &mut Conn) -> Result<bool, String> {
    let mut progress = false;
    while c.out_pos < c.out.len() {
        match c.stream.write(&c.out[c.out_pos..]) {
            Ok(0) => return Err("server stopped reading".into()),
            Ok(n) => {
                c.out_pos += n;
                progress = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    if c.out_pos == c.out.len() {
        c.out.clear();
        c.out_pos = 0;
    }
    Ok(progress)
}

/// Start a one-worker server on `dev` and open the two connections.
fn serve(dev: &Device) -> Result<(ServerHandle<rhik_core::RhikIndex>, Vec<Conn>), String> {
    let cfg = ServerConfig { workers: 1, limits: LIMITS, ..ServerConfig::default() };
    let server = rhik_server::start(dev.clone(), cfg).map_err(|e| format!("server start: {e}"))?;
    let mut conns = Vec::new();
    for _ in 0..2 {
        let stream = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        conns.push(Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            in_pos: 0,
            pending: VecDeque::new(),
        });
    }
    Ok((server, conns))
}

/// What the RESP phase of a traced in-process round produced.
pub struct ServerLayer {
    /// The request bytes sent, for the parse replay.
    pub wire: Vec<u8>,
    pub attempted: u64,
    pub failures: Failures,
}

/// Serve a traced in-process round's device over RESP and drive `ops`
/// (the workload's own op stream, continuing from `model`) through it at
/// [`LAYER_RATE`]: the server layer's CPU per op and buffer high-water
/// mark on this workload's traffic. Every GET reply is checked against
/// the model; `tracer` gets a `resp.get` / `resp.set` span per request,
/// from its due time to its reply.
pub fn server_layer(
    dev: &Device,
    ops: OpGen,
    sizes: ValueSize,
    model: Model,
    m: &mut Metrics,
    tracer: Option<&mut Tracer>,
) -> Result<ServerLayer, String> {
    let (server, conns) = serve(dev)?;
    let mut g = Generator::new(conns, ops, sizes, model);
    let (served0, cpu0) = (server.ops_served(), sys::named_threads_cpu_s(WORKER_PREFIX));
    g.step(LAYER_RATE, LAYER_OPS, tracer)?;
    let cpu_s = sys::named_threads_cpu_s(WORKER_PREFIX) - cpu0;
    let served = server.ops_served() - served0;
    m.set("server.cpu_us_per_op", stats::ratio(1e6 * cpu_s, served as f64), served);
    m.set(
        "server.conn_buffer_hwm_kib",
        server.conn_buffer_high_watermark() as f64 / 1024.0,
        served,
    );
    let out = ServerLayer {
        wire: std::mem::take(&mut g.wire),
        attempted: g.attempted,
        failures: std::mem::take(&mut g.failures),
    };
    drop(g);
    server.shutdown();
    Ok(out)
}
