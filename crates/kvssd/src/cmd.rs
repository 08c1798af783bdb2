//! Host-visible command structures: compound batches and iterator
//! sessions.
//!
//! §II-A notes that "Samsung's NVMe command interface for KVSSD can be
//! inefficient at times" and cites Kim et al.'s proposal of "coalescing of
//! multiple KV API requests into a single NVMe compound command" \[8\].
//! [`KvssdDevice::execute_batch`] implements that coalescing over
//! [`BatchOp`]/[`BatchReply`]: one command-processing overhead is charged
//! for the whole compound instead of one per request. Every shard-locked
//! command of [`crate::ShardedKvssd`] runs through it.
//!
//! Iterator *sessions* model the Samsung log-structured iterator (§II-A):
//! `iterate_open` snapshots the matching candidates, `iterate_next` pages
//! through them, `iterate_close` releases the session. Each session call
//! bills its own media time and host bytes; the one-shot `iterate` is
//! open → next → close.

use bytes::Bytes;
use rhik_ftl::IndexBackend;
use rhik_nand::Ppa;
use rhik_sigs::KeySignature;

use crate::device::KvssdDevice;
use crate::error::KvError;
use crate::Result;

/// One KV request inside a compound command. Network front ends
/// (`rhik-server`) coalesce pipelined commands per shard and hand the
/// whole batch over in one [`crate::ShardedKvssd::submit_batch`] call, so
/// N pipelined ops cost one shard handoff instead of N.
#[derive(Clone, Debug)]
pub enum BatchOp {
    Get { key: Vec<u8> },
    Put { key: Vec<u8>, value: Vec<u8> },
    Delete { key: Vec<u8> },
    Exists { key: Vec<u8> },
}

impl BatchOp {
    /// The key this op addresses (routing + cost accounting).
    pub fn key(&self) -> &[u8] {
        match self {
            BatchOp::Get { key }
            | BatchOp::Put { key, .. }
            | BatchOp::Delete { key }
            | BatchOp::Exists { key } => key,
        }
    }

    /// Payload bytes this op carries (admission-control cost accounting).
    pub fn payload_bytes(&self) -> usize {
        match self {
            BatchOp::Put { key, value } => key.len() + value.len(),
            BatchOp::Get { key } | BatchOp::Delete { key } | BatchOp::Exists { key } => key.len(),
        }
    }
}

/// Reply to one [`BatchOp`], in submission order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchReply {
    Get(Result<Option<Bytes>>),
    Put(Result<()>),
    Delete(Result<()>),
    Exists(Result<bool>),
}

impl BatchReply {
    /// The op's error, if it failed.
    pub(crate) fn err(&self) -> Option<&KvError> {
        match self {
            BatchReply::Get(Err(e))
            | BatchReply::Put(Err(e))
            | BatchReply::Delete(Err(e))
            | BatchReply::Exists(Err(e)) => Some(e),
            _ => None,
        }
    }

    /// A failed reply of `op`'s kind.
    pub(crate) fn failed(op: &BatchOp, e: KvError) -> Self {
        match op {
            BatchOp::Get { .. } => BatchReply::Get(Err(e)),
            BatchOp::Put { .. } => BatchReply::Put(Err(e)),
            BatchOp::Delete { .. } => BatchReply::Delete(Err(e)),
            BatchOp::Exists { .. } => BatchReply::Exists(Err(e)),
        }
    }
}

/// Handle to an open iterator session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IterHandle(pub(crate) usize);

/// An open iterator session: a snapshot of candidate records to page
/// through. (Like the Samsung iterator, concurrent mutations after `open`
/// are not reflected.)
pub(crate) struct IterSession {
    prefix: Vec<u8>,
    candidates: Vec<(KeySignature, Ppa)>,
    pos: usize,
}

fn not_open() -> KvError {
    KvError::Unsupported("iterator handle not open")
}

impl<I: IndexBackend> KvssdDevice<I> {
    /// Execute a compound command: every op runs back-to-back with a
    /// *single* command-processing overhead for the whole batch (Kim et
    /// al.'s coalescing, \[8\]); a one-op compound is timed exactly like
    /// the plain command. Failures are reported per op, in order; they do
    /// not abort the batch.
    pub fn execute_batch<'a>(
        &mut self,
        ops: impl IntoIterator<Item = &'a BatchOp>,
    ) -> Vec<BatchReply> {
        self.begin_compound();
        let replies = ops.into_iter().map(|op| self.execute(op)).collect();
        self.end_compound();
        replies
    }

    /// Run one op as a plain command.
    pub(crate) fn execute(&mut self, op: &BatchOp) -> BatchReply {
        match op {
            BatchOp::Get { key } => BatchReply::Get(self.get(key)),
            BatchOp::Put { key, value } => BatchReply::Put(self.put(key, value)),
            BatchOp::Delete { key } => BatchReply::Delete(self.delete(key)),
            BatchOp::Exists { key } => {
                BatchReply::Exists(self.exist(key).map(|r| r.probably_exists))
            }
        }
    }

    /// `iterate`: enumerate keys with the given prefix (§VI's integrated
    /// iterator support) as one open → next → close session. With the
    /// default hasher this is a full index sweep that reads each candidate
    /// pair to verify its true prefix; with [`rhik_sigs::SigHasher::PrefixSuffix`],
    /// candidates whose signature's high half cannot match the prefix are
    /// skipped *without any flash read*. Returns up to `limit` keys
    /// (unordered, like the Samsung iterator).
    pub fn iterate(&mut self, prefix: &[u8], limit: usize) -> Result<Vec<Bytes>> {
        let handle = self.iterate_open(prefix)?;
        let keys = self.iterate_next(handle, limit);
        self.iterate_close(handle)?;
        keys
    }

    /// Open an iterator session over keys with `prefix` (§II-A's iterate
    /// command). The index scan is billed to this call. Returns a handle
    /// for [`KvssdDevice::iterate_next`].
    pub fn iterate_open(&mut self, prefix: &[u8]) -> Result<IterHandle> {
        let candidates = self.iterate_candidates(prefix)?;
        self.settle(0);
        let session = Some(IterSession { prefix: prefix.to_vec(), candidates, pos: 0 });
        let slot = match self.iter_sessions.iter().position(Option::is_none) {
            Some(slot) => {
                self.iter_sessions[slot] = session;
                slot
            }
            None => {
                self.iter_sessions.push(session);
                self.iter_sessions.len() - 1
            }
        };
        Ok(IterHandle(slot))
    }

    /// Fetch up to `count` more keys from an open session, billing the
    /// pair reads and the returned key bytes to this call. An empty vector
    /// means the session is exhausted.
    pub fn iterate_next(&mut self, handle: IterHandle, count: usize) -> Result<Vec<Bytes>> {
        let mut session =
            self.iter_sessions.get_mut(handle.0).and_then(Option::take).ok_or_else(not_open)?;
        let keys = self.next_keys(&mut session, count);
        self.iter_sessions[handle.0] = Some(session);
        let host_bytes = keys.as_ref().map_or(0, |keys| keys.iter().map(|k| k.len() as u64).sum());
        self.settle(host_bytes);
        keys
    }

    fn next_keys(&mut self, session: &mut IterSession, count: usize) -> Result<Vec<Bytes>> {
        let mut keys = Vec::new();
        while keys.len() < count {
            let Some(&(sig, head)) = session.candidates.get(session.pos) else { break };
            session.pos += 1;
            if let Some((key, _, _)) = self.read_pair(sig, head)? {
                if key.starts_with(&session.prefix) {
                    keys.push(key);
                }
            }
        }
        Ok(keys)
    }

    /// Close an iterator session.
    pub fn iterate_close(&mut self, handle: IterHandle) -> Result<()> {
        self.iter_sessions.get_mut(handle.0).and_then(Option::take).map(drop).ok_or_else(not_open)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;
    use rhik_nand::DeviceProfile;

    #[test]
    fn batch_executes_all_and_reports_per_slot() {
        let mut dev = KvssdDevice::rhik(DeviceConfig::small());
        let replies = dev.execute_batch(&[
            BatchOp::Put { key: b"a".to_vec(), value: b"1".to_vec() },
            BatchOp::Put { key: b"b".to_vec(), value: b"2".to_vec() },
            BatchOp::Get { key: b"a".to_vec() },
            BatchOp::Delete { key: b"missing".to_vec() },
            BatchOp::Exists { key: b"b".to_vec() },
        ]);
        assert_eq!(
            replies,
            [
                BatchReply::Put(Ok(())),
                BatchReply::Put(Ok(())),
                BatchReply::Get(Ok(Some(Bytes::from_static(b"1")))),
                BatchReply::Delete(Err(KvError::KeyNotFound)),
                BatchReply::Exists(Ok(true)),
            ]
        );
    }

    #[test]
    fn batching_amortizes_command_overhead() {
        let run = |batched: bool| {
            let mut dev =
                KvssdDevice::rhik(DeviceConfig::small().with_profile(DeviceProfile::kvemu_like()));
            let ops: Vec<BatchOp> = (0..64u64)
                .map(|i| BatchOp::Put {
                    key: format!("batch-{i:04}").into_bytes(),
                    value: vec![0u8; 64],
                })
                .collect();
            let replies = if batched {
                dev.execute_batch(&ops)
            } else {
                ops.iter().flat_map(|op| dev.execute_batch([op])).collect()
            };
            assert!(replies.iter().all(|r| r.err().is_none()), "{replies:?}");
            dev.elapsed_secs()
        };
        let single = run(false);
        let compound = run(true);
        assert!(
            compound < single,
            "compound ({compound}s) should beat per-command overhead ({single}s)"
        );
    }

    #[test]
    fn iterator_session_pages_through() {
        let mut dev = KvssdDevice::rhik(DeviceConfig::small());
        for i in 0..25u64 {
            dev.put(format!("iter:{i:03}").as_bytes(), b"v").unwrap();
        }
        dev.put(b"other:x", b"v").unwrap();

        let h = dev.iterate_open(b"iter:").unwrap();
        let mut seen = Vec::new();
        loop {
            let batch = dev.iterate_next(h, 7).unwrap();
            if batch.is_empty() {
                break;
            }
            assert!(batch.len() <= 7);
            seen.extend(batch);
        }
        dev.iterate_close(h).unwrap();
        seen.sort();
        assert_eq!(seen.len(), 25);
        assert_eq!(&seen[0][..], b"iter:000");

        // Closed handle rejects further use.
        assert!(dev.iterate_next(h, 1).is_err());
        assert!(dev.iterate_close(h).is_err());
    }

    #[test]
    fn concurrent_sessions_are_independent() {
        let mut dev = KvssdDevice::rhik(DeviceConfig::small());
        for i in 0..10u64 {
            dev.put(format!("a:{i}").as_bytes(), b"v").unwrap();
            dev.put(format!("b:{i}").as_bytes(), b"v").unwrap();
        }
        let ha = dev.iterate_open(b"a:").unwrap();
        let hb = dev.iterate_open(b"b:").unwrap();
        let a1 = dev.iterate_next(ha, 4).unwrap();
        let b1 = dev.iterate_next(hb, 100).unwrap();
        let a2 = dev.iterate_next(ha, 100).unwrap();
        assert_eq!(a1.len() + a2.len(), 10);
        assert_eq!(b1.len(), 10);
        dev.iterate_close(ha).unwrap();
        dev.iterate_close(hb).unwrap();
        // Slot reuse after close.
        let hc = dev.iterate_open(b"a:").unwrap();
        assert_eq!(dev.iterate_next(hc, 100).unwrap().len(), 10);
        dev.iterate_close(hc).unwrap();
    }

    #[test]
    fn iterator_sessions_bill_their_own_reads() {
        // 200 flushed 512 B pairs: every session read is a flash read.
        let loaded = || {
            let mut dev =
                KvssdDevice::rhik(DeviceConfig::small().with_profile(DeviceProfile::kvemu_like()));
            for i in 0..200u64 {
                dev.put(format!("it:{i:03}").as_bytes(), &[3u8; 512]).unwrap();
            }
            dev.flush().unwrap();
            dev
        };
        let get_ns = |dev: &mut KvssdDevice<rhik_core::RhikIndex>| {
            let before = dev.engine().now_ns();
            assert!(dev.get(b"it:042").unwrap().is_some());
            dev.engine().now_ns() - before
        };
        let fresh = get_ns(&mut loaded());

        let mut dev = loaded();
        let h = dev.iterate_open(b"it:").unwrap();
        assert_eq!(dev.iterate_next(h, 100).unwrap().len(), 100);
        assert_eq!(get_ns(&mut dev), fresh, "get absorbed the session's reads");
        dev.iterate_close(h).unwrap();

        let mut dev = loaded();
        assert_eq!(dev.iterate(b"it:", 1000).unwrap().len(), 200);
        assert_eq!(get_ns(&mut dev), fresh, "get absorbed the one-shot iterate's reads");
    }
}
