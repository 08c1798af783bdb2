//! The service loop: thread-per-core workers over nonblocking sockets.
//!
//! No async runtime and no OS event queue — the build environment is
//! std-only, so workers run a poll loop instead: try-accept, pump every
//! owned connection (deliver replies → flush → read → parse/enqueue),
//! then drain shard queues. Each stage reports whether it made progress;
//! a fully idle pass sleeps a few tens of microseconds so an idle server
//! costs ~no CPU while a loaded one never sleeps at all.
//!
//! The pipelining win happens in two places. On the way in, one socket
//! read hands the parser an entire pipeline and every complete frame is
//! enqueued before the connection is revisited; ops land in per-shard
//! DRR queues and ride [`ShardedKvssd::submit_batch`] as one batch —
//! lock-free gets, then one shard-lock acquisition and one compound
//! submission for the rest of the batch instead of per-op. On the way out, replies coalesce into
//! one vectored write. N pipelined ops ≈ 2 syscalls + one shard handoff.
//!
//! Backpressure is a chain of bounded stages, each gating the previous:
//! socket reads stop at the read high-watermark, frame consumption stops
//! when the pending ring / write budget / tenant bucket / shard lane is
//! full, and TCP pushes the stall back to the client.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use rhik_ftl::sync::{Counter, Mutex};
use rhik_ftl::IndexBackend;
use rhik_kvssd::{BatchOp, ShardedKvssd};
use rhik_telemetry::TelemetrySink;

use crate::admission::{DrrQueue, TenantRegistry, TenantSpec};
use crate::conn::{Connection, Mailbox};
use crate::error_map::{reply_for, Reply};
use crate::resp::{self, Cmd, Limits, Parse};

/// Everything tunable about one server instance. Defaults suit tests
/// and the loopback bench; the binary exposes the interesting ones.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back via
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads (each owns the connections it accepted).
    pub workers: usize,
    /// Wire-format limits (argument count, bulk size).
    pub limits: Limits,
    /// Max in-flight ops per connection (reply-ring capacity).
    pub max_pipeline: usize,
    /// Read-buffer high watermark per connection; raised internally to
    /// always fit one maximal frame so a slow sender still progresses.
    pub read_high: usize,
    /// Stop consuming new frames once this many reply bytes are queued.
    pub write_budget: usize,
    /// Per-tenant per-shard submission-lane capacity (ops).
    pub lane_cap: usize,
    /// Max ops per `submit_batch` call.
    pub max_batch: usize,
    /// DRR quantum in payload bytes per lane visit.
    pub quantum_bytes: usize,
    /// Accepted connections per worker; beyond this, accepts are refused.
    pub max_conns: usize,
    /// Sleep for a fully idle poll pass.
    pub idle_sleep_us: u64,
    /// Tenant set; a `default` unlimited tenant is added if absent.
    pub tenants: Vec<TenantSpec>,
    /// Sink for per-tenant counters (disabled by default).
    pub telemetry: TelemetrySink,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            limits: Limits::default(),
            max_pipeline: 128,
            read_high: 64 * 1024,
            write_budget: 256 * 1024,
            lane_cap: 256,
            max_batch: 64,
            quantum_bytes: 2048,
            max_conns: 1024,
            idle_sleep_us: 50,
            tenants: Vec::new(), // bounded-by: fixed config-time tenant list; never grows after startup
            telemetry: TelemetrySink::disabled(),
        }
    }
}

impl ServerConfig {
    /// Largest wire frame the limits admit (headers included).
    pub fn max_frame_bytes(&self) -> usize {
        16 + self.limits.max_args * (self.limits.max_bulk + 32)
    }

    /// Effective read high-watermark: the configured value, raised to
    /// fit one maximal frame (otherwise a legal frame could never
    /// finish buffering).
    pub fn effective_read_high(&self) -> usize {
        self.read_high.max(self.max_frame_bytes())
    }

    /// Worst-case bytes one connection may buffer: full read buffer +
    /// full write budget + every in-flight slot completing with a
    /// maximal reply after the budget gate closed. The backpressure
    /// test holds a stalled client against this bound.
    pub fn per_conn_budget(&self) -> usize {
        let max_reply = self.limits.max_bulk + 32;
        self.effective_read_high() + self.write_budget + self.max_pipeline * max_reply
    }
}

/// One op waiting in a shard's DRR lane.
struct QueuedOp {
    op: BatchOp,
    slot: u64,
    mailbox: Arc<Mailbox>,
    tenant: usize,
}

/// State shared by all workers and the handle.
struct Shared<I: IndexBackend + Send> {
    device: ShardedKvssd<I>,
    /// One DRR queue per device shard.
    queues: Vec<Mutex<DrrQueue<QueuedOp>>>,
    /// One drain claim per shard, held across assemble *and* submit.
    /// The queue lock alone only serializes assembly: if two workers
    /// each assembled a batch for the same shard and then raced into
    /// `submit_batch`, consecutively-assembled batches could execute
    /// out of assembly order and break pipelined read-your-writes
    /// (a SET and a later GET of the same key split across batches).
    drain_claims: Vec<Mutex<()>>,
    registry: TenantRegistry,
    cfg: ServerConfig,
    read_high: usize,
    shutdown: Counter,
    ops_served: Counter,
    conns_accepted: Counter,
    conns_refused: Counter,
    /// High watermark of any connection's buffered bytes (budget gauge).
    conn_buffer_high: Counter,
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle<I: IndexBackend + Send + 'static> {
    addr: SocketAddr,
    shared: Arc<Shared<I>>,
    joins: Vec<JoinHandle<()>>,
}

/// Bind, spawn workers, serve. The device is shared with the caller
/// (`ShardedKvssd` clones share all state), so tests and benches can
/// inspect or audit it while the server runs.
pub fn start<I: IndexBackend + Send + 'static>(
    device: ShardedKvssd<I>,
    cfg: ServerConfig,
) -> io::Result<ServerHandle<I>> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let registry = TenantRegistry::new(cfg.tenants.clone());
    let weights: Vec<u32> = registry.all().iter().map(|t| t.spec.weight).collect();
    let queues = (0..device.shard_count())
        .map(|_| Mutex::new(DrrQueue::new(cfg.quantum_bytes, cfg.lane_cap, &weights)))
        .collect();
    let drain_claims = (0..device.shard_count()).map(|_| Mutex::new(())).collect();

    let read_high = cfg.effective_read_high();
    let workers = cfg.workers.max(1);
    let shared = Arc::new(Shared {
        device,
        queues,
        drain_claims,
        registry,
        read_high,
        cfg,
        shutdown: Counter::new(),
        ops_served: Counter::new(),
        conns_accepted: Counter::new(),
        conns_refused: Counter::new(),
        conn_buffer_high: Counter::new(),
    });

    let listener = Arc::new(listener);
    let joins = (0..workers)
        .map(|id| {
            let listener = Arc::clone(&listener);
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("rhik-server-{id}"))
                .spawn(move || worker_loop(listener, shared))
        })
        .collect::<io::Result<Vec<_>>>()?;

    Ok(ServerHandle { addr, shared, joins })
}

impl<I: IndexBackend + Send + 'static> ServerHandle<I> {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn device(&self) -> &ShardedKvssd<I> {
        &self.shared.device
    }

    pub fn tenants(&self) -> &TenantRegistry {
        &self.shared.registry
    }

    /// Ops completed through `submit_batch` (KV ops only; PING and
    /// friends answer at the parser and are not counted here).
    pub fn ops_served(&self) -> u64 {
        self.shared.ops_served.get()
    }

    pub fn connections_accepted(&self) -> u64 {
        self.shared.conns_accepted.get()
    }

    /// Highest `buffered_bytes` any connection has reached — compared
    /// against [`ServerConfig::per_conn_budget`] by the memory test.
    pub fn conn_buffer_high_watermark(&self) -> u64 {
        self.shared.conn_buffer_high.get()
    }

    pub fn per_conn_budget(&self) -> usize {
        self.shared.cfg.per_conn_budget()
    }

    /// Signal shutdown and join every worker. Idempotent via `Drop`.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.set(1);
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
        // Final per-tenant counter publication so short-lived servers
        // still leave a telemetry trace.
        let sink = &self.shared.cfg.telemetry;
        for t in self.shared.registry.all() {
            sink.counter_add(&t.metric_throttled, t.stats.throttled.get());
        }
    }
}

impl<I: IndexBackend + Send + 'static> Drop for ServerHandle<I> {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop<I: IndexBackend + Send>(listener: Arc<TcpListener>, shared: Arc<Shared<I>>) {
    let cfg = &shared.cfg;
    let mut conns: Vec<Connection> = Vec::new();
    let mut batch: Vec<QueuedOp> = Vec::with_capacity(cfg.max_batch);
    let mut ops: Vec<BatchOp> = Vec::with_capacity(cfg.max_batch);
    let mut meta: Vec<(u64, Arc<Mailbox>, usize)> = Vec::with_capacity(cfg.max_batch);

    while shared.shutdown.get() == 0 {
        let mut progress = false;

        // Accept everything waiting; whichever worker polls first wins,
        // which spreads connections across workers well enough.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    if conns.len() >= cfg.max_conns {
                        shared.conns_refused.incr();
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    conns.push(Connection::new(stream, cfg.max_pipeline, 0));
                    shared.conns_accepted.incr();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Pump every connection; retire the drained and the broken.
        let mut i = 0;
        while i < conns.len() {
            match pump(&mut conns[i], &shared) {
                Ok(p) => {
                    progress |= p;
                    shared.conn_buffer_high.note_max(conns[i].buffered_bytes() as u64);
                    if conns[i].drained() {
                        conns.swap_remove(i);
                        progress = true;
                    } else {
                        i += 1;
                    }
                }
                Err(_) => {
                    conns.swap_remove(i);
                    progress = true;
                }
            }
        }

        // Drain shard queues: assemble under the queue lock, submit
        // outside it, post replies to each op's connection mailbox.
        // The per-shard claim keeps assembly order == execution order
        // (see `Shared::drain_claims`); a contended shard is simply
        // skipped this pass — the holder is already draining it.
        for shard in 0..shared.queues.len() {
            let Ok(_claim) = shared.drain_claims[shard].try_lock() else {
                continue;
            };
            batch.clear();
            {
                let mut q = shared.queues[shard].lock().unwrap_or_else(|p| p.into_inner());
                q.assemble(cfg.max_batch, &mut batch);
            }
            if batch.is_empty() {
                continue;
            }
            progress = true;
            ops.clear();
            meta.clear();
            for qop in batch.drain(..) {
                meta.push((qop.slot, qop.mailbox, qop.tenant));
                ops.push(qop.op);
            }
            let replies = shared.device.submit_batch(shard, &ops);
            shared.ops_served.add(replies.len() as u64);
            let sink = &cfg.telemetry;
            for (((slot, mailbox, tenant), reply), op) in
                meta.drain(..).zip(replies).zip(ops.iter())
            {
                let t = &shared.registry.all()[tenant];
                sink.counter_add(&t.metric_ops, 1);
                sink.counter_add(&t.metric_bytes, op.payload_bytes() as u64);
                mailbox.post(slot, reply_for(&reply));
            }
        }

        if !progress {
            thread::sleep(Duration::from_micros(cfg.idle_sleep_us));
        }
    }
}

/// One service pass over a connection. `Err` means the socket is dead;
/// the caller retires the connection.
fn pump<I: IndexBackend + Send>(conn: &mut Connection, shared: &Shared<I>) -> io::Result<bool> {
    let cfg = &shared.cfg;
    let mut progress = false;

    progress |= conn.collect_replies() > 0;
    progress |= conn.wq.flush(&mut conn.stream)? > 0;
    progress |= conn.fill(shared.read_high)? > 0;

    let mut saw_incomplete = false;
    while !conn.closing {
        // Gates: a full reply ring or a saturated write budget stops
        // frame consumption (and, transitively, socket reads).
        if !conn.pending.has_room() || conn.wq.bytes() >= cfg.write_budget {
            break;
        }
        match resp::parse_frame(&conn.buf[conn.cursor..], &cfg.limits, &mut conn.args) {
            Ok(Parse::Incomplete) => {
                saw_incomplete = true;
                break;
            }
            Err(perr) => {
                // Protocol error: reply, then close (Redis semantics).
                conn.wq.push_reply(&Reply::Error(perr.message()));
                conn.closing = true;
                progress = true;
                break;
            }
            Ok(Parse::Frame { consumed }) => {
                let frame = &conn.buf[conn.cursor..];
                match resp::decode(frame, &conn.args) {
                    Err(cerr) => {
                        // Well-formed frame, bad command: error reply,
                        // connection stays open.
                        let slot = conn.pending.alloc();
                        conn.pending.complete(slot, Reply::Error(cerr.message()));
                    }
                    Ok(Cmd::Ping) => {
                        let slot = conn.pending.alloc();
                        conn.pending.complete(slot, Reply::Pong);
                    }
                    Ok(Cmd::Quit) => {
                        let slot = conn.pending.alloc();
                        conn.pending.complete(slot, Reply::Ok);
                        conn.closing = true;
                    }
                    Ok(Cmd::Auth { tenant }) => {
                        let resolved = std::str::from_utf8(tenant)
                            .ok()
                            .and_then(|name| shared.registry.resolve(name));
                        let slot = conn.pending.alloc();
                        match resolved {
                            Some(t) => {
                                conn.tenant = t.id;
                                conn.pending.complete(slot, Reply::Ok);
                            }
                            None => {
                                let name = String::from_utf8_lossy(&tenant[..tenant.len().min(32)]);
                                conn.pending.complete(
                                    slot,
                                    Reply::Error(format!("ERR unknown tenant '{name}'")),
                                );
                            }
                        }
                    }
                    Ok(cmd) => {
                        // Split borrows: `cmd` still points into
                        // `conn.buf`, so hand the helper only the fields
                        // it needs.
                        if !enqueue_kv(&mut conn.pending, &conn.mailbox, conn.tenant, shared, &cmd)
                        {
                            // Throttled or lane full: leave the frame in
                            // the buffer and retry on a later pump.
                            break;
                        }
                    }
                }
                conn.cursor += consumed;
                progress = true;
            }
        }
    }
    // A half-closed peer can never complete a partial frame: give up on
    // the tail so the connection can drain and retire.
    if conn.eof && saw_incomplete && conn.buf.len() > conn.cursor {
        conn.closing = true;
    }

    // Release replies completed synchronously above (PING, errors).
    progress |= conn.collect_replies() > 0;
    progress |= conn.wq.flush(&mut conn.stream)? > 0;
    Ok(progress)
}

/// Admit one KV command and queue it on its shard. Returns `false` when
/// admission defers the op (quota empty or lane full) — the caller must
/// not consume the frame.
fn enqueue_kv<I: IndexBackend + Send>(
    pending: &mut crate::conn::PendingRing,
    mailbox: &Arc<Mailbox>,
    tenant_id: usize,
    shared: &Shared<I>,
    cmd: &Cmd<'_>,
) -> bool {
    let (key, value): (&[u8], &[u8]) = match cmd {
        Cmd::Get { key } | Cmd::Del { key } | Cmd::Exists { key } => (key, &[]),
        Cmd::Set { key, value } => (key, value),
        // Non-KV commands never reach this function.
        Cmd::Ping | Cmd::Auth { .. } | Cmd::Quit => return true,
    };
    let payload = key.len() + value.len();
    let shard = shared.device.shard_for_key(key);
    let tenant = &shared.registry.all()[tenant_id];

    // Lane-room check, quota take, and push happen under one shard-queue
    // lock so a concurrent filler can't invalidate the room check after
    // tokens are spent. Tenant bucket locks nest inside shard-queue
    // locks everywhere (and never the other way), so this can't deadlock.
    let mut q = shared.queues[shard].lock().unwrap_or_else(|p| p.into_inner());
    if !q.has_room(tenant_id) {
        tenant.stats.lane_full.incr();
        return false;
    }
    if !tenant.try_admit(payload) {
        return false;
    }
    let op = match cmd {
        Cmd::Get { key } => BatchOp::Get { key: key.to_vec() },
        Cmd::Set { key, value } => BatchOp::Put { key: key.to_vec(), value: value.to_vec() },
        Cmd::Del { key } => BatchOp::Delete { key: key.to_vec() },
        Cmd::Exists { key } => BatchOp::Exists { key: key.to_vec() },
        Cmd::Ping | Cmd::Auth { .. } | Cmd::Quit => return true,
    };
    let slot = pending.alloc();
    let queued = QueuedOp { op, slot, mailbox: Arc::clone(mailbox), tenant: tenant_id };
    if q.push(tenant_id, payload.max(64), queued).is_err() {
        // Unreachable given the room check above, but degrade to an
        // error reply rather than losing the slot.
        pending.complete(slot, Reply::Error("ERR server busy".to_string()));
    }
    true
}
