//! Multi-tenant admission control: token-bucket rate/byte quotas at the
//! socket edge and deficit-round-robin fair dequeue at the shard edge.
//!
//! Admission is *flow control*, not rejection: when a tenant's bucket is
//! empty the connection simply stops consuming frames from its read
//! buffer, which stops reading the socket, which pushes back through TCP
//! to the client. A tenant offered 10x its quota is served at the quota;
//! nothing is errored and nothing queues beyond the bounded lanes.
//!
//! Every queue in this module is bounded at construction
//! (`VecDeque::with_capacity`, enforced by wslint's
//! `unbounded-queue-in-server` rule): lanes hold at most `lane_cap` ops
//! per tenant per shard, and the active-lane ring holds at most one entry
//! per tenant.

use std::collections::VecDeque;
use std::sync::Arc;

use rhik_ftl::sync::{Counter, Mutex};

use crate::clock;

/// Static description of one tenant, supplied in [`crate::ServerConfig`].
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Name presented by clients via `AUTH <name>`.
    pub name: String,
    /// Sustained op-rate quota; `0` = unlimited.
    pub ops_per_sec: u64,
    /// Sustained payload-byte quota (key+value bytes); `0` = unlimited.
    pub bytes_per_sec: u64,
    /// DRR weight: relative share of shard service when lanes compete.
    pub weight: u32,
}

impl TenantSpec {
    /// An unlimited tenant with weight 1.
    pub fn unlimited(name: &str) -> Self {
        TenantSpec { name: name.to_string(), ops_per_sec: 0, bytes_per_sec: 0, weight: 1 }
    }
}

/// Classic token bucket refilled lazily from the monotonic host clock.
/// Burst capacity is a fifth of a second of quota (floor 64) so a
/// late-arriving pipeline can still be admitted as one batch.
struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last_ns: u64,
}

impl TokenBucket {
    fn new(rate_per_sec: u64) -> Self {
        let rate = rate_per_sec as f64;
        let burst = (rate / 5.0).max(64.0);
        TokenBucket { rate_per_sec: rate, burst, tokens: burst, last_ns: clock::now_ns() }
    }

    fn refill(&mut self, now_ns: u64) {
        let dt = now_ns.saturating_sub(self.last_ns) as f64 / 1e9;
        self.last_ns = now_ns;
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
    }

    fn try_take(&mut self, n: f64, now_ns: u64) -> bool {
        self.refill(now_ns);
        if self.tokens >= n {
            self.tokens -= n;
            true
        } else {
            false
        }
    }
}

/// Relaxed per-tenant counters, readable while the server runs.
#[derive(Default)]
pub struct TenantStats {
    /// Ops admitted past the quota gate.
    pub admitted_ops: Counter,
    /// Payload bytes admitted past the quota gate.
    pub admitted_bytes: Counter,
    /// Admission attempts deferred because a bucket was empty.
    pub throttled: Counter,
    /// Admission attempts deferred because the target shard lane was full.
    pub lane_full: Counter,
}

/// One tenant: quota buckets + stats.
pub struct Tenant {
    pub id: usize,
    pub spec: TenantSpec,
    op_bucket: Option<Mutex<TokenBucket>>,
    byte_bucket: Option<Mutex<TokenBucket>>,
    pub stats: TenantStats,
}

impl Tenant {
    fn new(id: usize, spec: TenantSpec) -> Self {
        let op_bucket =
            (spec.ops_per_sec > 0).then(|| Mutex::new(TokenBucket::new(spec.ops_per_sec)));
        let byte_bucket =
            (spec.bytes_per_sec > 0).then(|| Mutex::new(TokenBucket::new(spec.bytes_per_sec)));
        Tenant { id, spec, op_bucket, byte_bucket, stats: TenantStats::default() }
    }

    /// Admit one op carrying `payload_bytes` of key+value, or defer it.
    /// Deferred ops cost nothing: tokens are only taken when both the op
    /// bucket and the byte bucket can cover the request.
    pub fn try_admit(&self, payload_bytes: usize) -> bool {
        let now = clock::now_ns();
        // Peek the op bucket, then the byte bucket; only commit the op
        // token once both have room so a starved byte bucket cannot
        // silently drain the op bucket.
        if let Some(ops) = &self.op_bucket {
            let mut ops = ops.lock().unwrap_or_else(|p| p.into_inner());
            ops.refill(now);
            if ops.tokens < 1.0 {
                self.stats.throttled.incr();
                return false;
            }
            if let Some(bytes) = &self.byte_bucket {
                let mut bytes = bytes.lock().unwrap_or_else(|p| p.into_inner());
                if !bytes.try_take(payload_bytes as f64, now) {
                    self.stats.throttled.incr();
                    return false;
                }
            }
            ops.tokens -= 1.0;
        } else if let Some(bytes) = &self.byte_bucket {
            let mut bytes = bytes.lock().unwrap_or_else(|p| p.into_inner());
            if !bytes.try_take(payload_bytes as f64, now) {
                self.stats.throttled.incr();
                return false;
            }
        }
        self.stats.admitted_ops.incr();
        self.stats.admitted_bytes.add(payload_bytes as u64);
        true
    }
}

/// All tenants for one server instance. Id 0 is always the `default`
/// tenant, used by connections that never issue `AUTH`.
pub struct TenantRegistry {
    tenants: Vec<Arc<Tenant>>,
}

impl TenantRegistry {
    pub fn new(mut specs: Vec<TenantSpec>) -> Self {
        if !specs.iter().any(|s| s.name == "default") {
            specs.insert(0, TenantSpec::unlimited("default"));
        }
        let tenants =
            specs.into_iter().enumerate().map(|(id, s)| Arc::new(Tenant::new(id, s))).collect();
        TenantRegistry { tenants }
    }

    pub fn resolve(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.iter().find(|t| t.spec.name == name).cloned()
    }

    pub fn default_tenant(&self) -> Arc<Tenant> {
        self.tenants[0].clone()
    }

    pub fn all(&self) -> &[Arc<Tenant>] {
        &self.tenants
    }

    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }
}

struct Lane<T> {
    q: VecDeque<(usize, T)>,
    deficit: usize,
    weight: u32,
    queued: bool,
}

/// Deficit-round-robin queue: one bounded lane per tenant, serviced in
/// proportion to lane weight measured in payload bytes. Generic over the
/// queued item so the scheduler stays independent of connection wiring.
pub struct DrrQueue<T> {
    lanes: Vec<Lane<T>>,
    /// Ring of tenant ids with non-empty lanes; at most one entry per
    /// tenant, so capacity `lanes.len()` is exact.
    active: VecDeque<usize>,
    quantum: usize,
    lane_cap: usize,
    len: usize,
}

impl<T> DrrQueue<T> {
    pub fn new(quantum_bytes: usize, lane_cap: usize, weights: &[u32]) -> Self {
        let lanes = weights
            .iter()
            .map(|&w| Lane {
                q: VecDeque::with_capacity(lane_cap),
                deficit: 0,
                weight: w.max(1),
                queued: false,
            })
            .collect::<Vec<_>>();
        DrrQueue {
            active: VecDeque::with_capacity(weights.len()),
            lanes,
            quantum: quantum_bytes.max(1),
            lane_cap: lane_cap.max(1),
            len: 0,
        }
    }

    pub fn has_room(&self, tenant: usize) -> bool {
        self.lanes.get(tenant).map(|l| l.q.len() < self.lane_cap).unwrap_or(false)
    }

    /// Enqueue `item` with service cost `cost_bytes`; hands the item back
    /// if the tenant's lane is full (caller retries later — backpressure).
    pub fn push(&mut self, tenant: usize, cost_bytes: usize, item: T) -> Result<(), T> {
        let Some(lane) = self.lanes.get_mut(tenant) else { return Err(item) };
        if lane.q.len() >= self.lane_cap {
            return Err(item);
        }
        lane.q.push_back((cost_bytes.max(1), item));
        self.len += 1;
        if !lane.queued {
            lane.queued = true;
            self.active.push_back(tenant);
        }
        Ok(())
    }

    /// DRR service: move up to `max_items` items into `out`, visiting
    /// active lanes round-robin and crediting `quantum × weight` bytes of
    /// deficit per visit. Returns the number of items dequeued.
    pub fn assemble(&mut self, max_items: usize, out: &mut Vec<T>) -> usize {
        let mut taken = 0;
        while taken < max_items {
            let Some(&tenant) = self.active.front() else { break };
            let lane = &mut self.lanes[tenant];
            lane.deficit += self.quantum * lane.weight as usize;
            while taken < max_items {
                match lane.q.front() {
                    Some(&(cost, _)) if cost <= lane.deficit => {
                        if let Some((cost, item)) = lane.q.pop_front() {
                            lane.deficit -= cost;
                            self.len -= 1;
                            out.push(item);
                            taken += 1;
                        }
                    }
                    _ => break,
                }
            }
            if lane.q.is_empty() {
                lane.deficit = 0;
                lane.queued = false;
                self.active.pop_front();
            } else if taken < max_items {
                // Deficit too small for the head item: rotate and let the
                // next visit add another quantum.
                if let Some(t) = self.active.pop_front() {
                    self.active.push_back(t);
                }
            } else {
                break;
            }
        }
        taken
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drr_respects_weights() {
        // Tenant 1 has twice tenant 0's weight; with equal unit costs it
        // should receive roughly twice the service.
        let mut q = DrrQueue::new(64, 1000, &[1, 2]);
        for i in 0..300 {
            q.push(0, 64, ("a", i)).map_err(|_| ()).expect("lane 0 has room");
            q.push(1, 64, ("b", i)).map_err(|_| ()).expect("lane 1 has room");
        }
        let mut out = Vec::new();
        q.assemble(300, &mut out);
        let a = out.iter().filter(|(t, _)| *t == "a").count();
        let b = out.iter().filter(|(t, _)| *t == "b").count();
        assert_eq!(a + b, 300);
        assert!(b > a, "weighted lane must get more service: a={a} b={b}");
        assert!((b as f64 / a.max(1) as f64 - 2.0).abs() < 0.5, "a={a} b={b}");
    }

    #[test]
    fn lanes_are_bounded_and_reject_overflow() {
        let mut q = DrrQueue::new(64, 4, &[1]);
        for i in 0..4 {
            assert!(q.push(0, 10, i).is_ok());
        }
        assert!(!q.has_room(0));
        assert_eq!(q.push(0, 10, 99), Err(99));
        assert_eq!(q.len(), 4);
        let mut out = Vec::new();
        assert_eq!(q.assemble(10, &mut out), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(q.is_empty());
        // Lane drained: pushes succeed again and order is preserved.
        assert!(q.push(0, 10, 7).is_ok());
        out.clear();
        q.assemble(1, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn large_items_eventually_dequeue() {
        // Item cost far above the quantum: repeated visits accumulate
        // deficit until it clears — the scheduler must not spin forever
        // or starve the lane.
        let mut q = DrrQueue::new(64, 8, &[1]);
        q.push(0, 100_000, "big").map_err(|_| ()).expect("room");
        let mut out = Vec::new();
        q.assemble(1, &mut out);
        assert_eq!(out, vec!["big"]);
    }

    #[test]
    fn token_bucket_caps_sustained_rate() {
        let t = Tenant::new(
            0,
            TenantSpec { name: "capped".into(), ops_per_sec: 1000, bytes_per_sec: 0, weight: 1 },
        );
        // Burst drains, then sustained admission tracks the refill rate.
        let mut admitted = 0u64;
        for _ in 0..10_000 {
            if t.try_admit(16) {
                admitted += 1;
            }
        }
        // Whole loop runs in far under a second: admitted ≈ burst (200)
        // plus a sliver of refill.
        assert!(admitted >= 64, "burst should admit: {admitted}");
        assert!(admitted < 2000, "quota must cap admission: {admitted}");
        assert!(t.stats.throttled.get() > 0);
        assert_eq!(t.stats.admitted_ops.get(), admitted);
    }

    #[test]
    fn unlimited_tenant_never_throttles() {
        let t = Tenant::new(0, TenantSpec::unlimited("default"));
        for _ in 0..5000 {
            assert!(t.try_admit(1 << 20));
        }
        assert_eq!(t.stats.throttled.get(), 0);
    }

    #[test]
    fn registry_always_has_default() {
        let reg = TenantRegistry::new(vec![TenantSpec {
            name: "alpha".into(),
            ops_per_sec: 10,
            bytes_per_sec: 0,
            weight: 3,
        }]);
        assert_eq!(reg.default_tenant().spec.name, "default");
        assert_eq!(reg.default_tenant().id, 0);
        let alpha = reg.resolve("alpha").expect("configured tenant resolves");
        assert_eq!(alpha.spec.weight, 3);
        assert!(reg.resolve("ghost").is_none());
        assert_eq!(reg.len(), 2);
    }
}
