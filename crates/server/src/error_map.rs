//! Device results → RESP replies.
//!
//! The mapping is total over [`KvError`]: every fault the engine can
//! surface — including injected media faults and cross-layer corruption —
//! becomes a well-formed RESP reply on the wire instead of a dropped
//! connection. `KeyNotFound` is not an error at the protocol level: GET
//! answers the nil bulk and DEL/EXISTS answer `:0`, exactly like Redis.

use bytes::Bytes;
use rhik_kvssd::{BatchOp, BatchReply, KvError};

/// One wire-level reply, in the order the commands arrived. `Value`
/// keeps the payload as shared [`Bytes`] so a cache-tier hit is written
/// to the socket without ever being copied into the reply queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `+OK`
    Ok,
    /// `+PONG`
    Pong,
    /// `$-1` (GET miss)
    Nil,
    /// `:n` (DEL / EXISTS)
    Int(i64),
    /// `$len\r\n<payload>\r\n`
    Value(Bytes),
    /// `-…` (the message carries no leading `-`)
    Error(String),
}

impl Reply {
    /// Wire size in bytes (write-budget accounting before encoding).
    pub fn wire_bytes(&self) -> usize {
        match self {
            Reply::Ok => 5,
            Reply::Pong => 7,
            Reply::Nil => 5,
            Reply::Int(n) => 3 + n.to_string().len(),
            // `$` + digits + CRLF + payload + CRLF
            Reply::Value(v) => 1 + v.len().to_string().len() + 2 + v.len() + 2,
            Reply::Error(m) => 3 + m.len(),
        }
    }
}

/// The `-ERR` text for a device error, grouped by failure class so
/// clients can dispatch on a stable prefix:
///
/// | class | errors |
/// |---|---|
/// | `ERR io` | `ReadFault`, `Media`, `Corrupt` |
/// | `ERR device full` | `DeviceFull`, `IndexFull` |
/// | `ERR invalid argument` | `EmptyKey`, `KeyTooLarge`, `ValueTooLarge`, `WrongShard` |
/// | `ERR collision` | `KeyCollision`, `KeyRejected` |
/// | `ERR unsupported` | `Unsupported` |
pub fn error_text(err: &KvError) -> String {
    match err {
        KvError::ReadFault { .. } | KvError::Media(_) | KvError::Corrupt(_) => {
            format!("ERR io: {err}")
        }
        KvError::DeviceFull | KvError::IndexFull => format!("ERR device full: {err}"),
        KvError::EmptyKey
        | KvError::KeyTooLarge { .. }
        | KvError::ValueTooLarge { .. }
        | KvError::WrongShard { .. } => format!("ERR invalid argument: {err}"),
        KvError::KeyCollision | KvError::KeyRejected => format!("ERR collision: {err}"),
        KvError::Unsupported(_) => format!("ERR unsupported: {err}"),
        // Reached only by ops whose mapping has no not-found rendering
        // (PUT); GET/DEL/EXISTS intercept this variant below.
        KvError::KeyNotFound => format!("ERR {err}"),
    }
}

/// Map one engine reply onto the wire. Infallible: every `BatchReply`
/// variant × every `KvError` variant has a rendering.
pub fn reply_for(reply: &BatchReply) -> Reply {
    match reply {
        BatchReply::Get(Ok(Some(value))) => Reply::Value(value.clone()),
        BatchReply::Get(Ok(None)) | BatchReply::Get(Err(KvError::KeyNotFound)) => Reply::Nil,
        BatchReply::Get(Err(e)) => Reply::Error(error_text(e)),
        BatchReply::Put(Ok(())) => Reply::Ok,
        BatchReply::Put(Err(e)) => Reply::Error(error_text(e)),
        BatchReply::Delete(Ok(())) => Reply::Int(1),
        BatchReply::Delete(Err(KvError::KeyNotFound)) => Reply::Int(0),
        BatchReply::Delete(Err(e)) => Reply::Error(error_text(e)),
        BatchReply::Exists(Ok(true)) => Reply::Int(1),
        BatchReply::Exists(Ok(false)) | BatchReply::Exists(Err(KvError::KeyNotFound)) => {
            Reply::Int(0)
        }
        BatchReply::Exists(Err(e)) => Reply::Error(error_text(e)),
    }
}

/// Debug-readable op name for telemetry labels.
pub fn op_name(op: &BatchOp) -> &'static str {
    match op {
        BatchOp::Get { .. } => "get",
        BatchOp::Put { .. } => "set",
        BatchOp::Delete { .. } => "del",
        BatchOp::Exists { .. } => "exists",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhik_nand::Ppa;

    /// The table the satellite task asks for: every `KvError` variant ×
    /// the op kinds it can surface on, with the expected wire rendering.
    #[test]
    fn error_table_is_total_and_stable() {
        let all_errors = [
            KvError::KeyNotFound,
            KvError::KeyCollision,
            KvError::KeyRejected,
            KvError::DeviceFull,
            KvError::IndexFull,
            KvError::ValueTooLarge { len: 9, max: 4 },
            KvError::KeyTooLarge { len: 600 },
            KvError::EmptyKey,
            KvError::Unsupported("iterate"),
            KvError::ReadFault { ppa: Ppa::new(3, 7) },
            KvError::Media("worn out".into()),
            KvError::Corrupt("directory disagrees".into()),
            KvError::WrongShard { shard: 1, home: 2 },
        ];
        // (error index, expected class prefix) — the contract clients
        // dispatch on. KeyNotFound has per-op renderings checked below.
        let class: [(usize, &str); 12] = [
            (1, "ERR collision"),
            (2, "ERR collision"),
            (3, "ERR device full"),
            (4, "ERR device full"),
            (5, "ERR invalid argument"),
            (6, "ERR invalid argument"),
            (7, "ERR invalid argument"),
            (8, "ERR unsupported"),
            (9, "ERR io"),
            (10, "ERR io"),
            (11, "ERR io"),
            (12, "ERR invalid argument"),
        ];
        for (idx, prefix) in class {
            let err = all_errors[idx].clone();
            for reply in [
                reply_for(&BatchReply::Get(Err(err.clone()))),
                reply_for(&BatchReply::Put(Err(err.clone()))),
                reply_for(&BatchReply::Delete(Err(err.clone()))),
                reply_for(&BatchReply::Exists(Err(err.clone()))),
            ] {
                match reply {
                    Reply::Error(msg) => {
                        assert!(msg.starts_with(prefix), "{err:?} rendered as {msg:?}")
                    }
                    other => panic!("{err:?} must map to an error reply, got {other:?}"),
                }
            }
        }
        // Not-found is data, not an error: nil bulk for GET, 0 for
        // DEL/EXISTS — so lookup misses never read as device faults.
        assert_eq!(reply_for(&BatchReply::Get(Err(KvError::KeyNotFound))), Reply::Nil);
        assert_eq!(reply_for(&BatchReply::Get(Ok(None))), Reply::Nil);
        assert_eq!(reply_for(&BatchReply::Delete(Err(KvError::KeyNotFound))), Reply::Int(0));
        assert_eq!(reply_for(&BatchReply::Exists(Err(KvError::KeyNotFound))), Reply::Int(0));
        // And a Put not-found (cannot happen today) still renders.
        assert!(matches!(reply_for(&BatchReply::Put(Err(KvError::KeyNotFound))), Reply::Error(_)));
    }

    #[test]
    fn success_replies() {
        assert_eq!(reply_for(&BatchReply::Put(Ok(()))), Reply::Ok);
        assert_eq!(reply_for(&BatchReply::Delete(Ok(()))), Reply::Int(1));
        assert_eq!(reply_for(&BatchReply::Exists(Ok(true))), Reply::Int(1));
        assert_eq!(reply_for(&BatchReply::Exists(Ok(false))), Reply::Int(0));
        match reply_for(&BatchReply::Get(Ok(Some(Bytes::from(&b"v"[..]))))) {
            Reply::Value(v) => assert_eq!(&v[..], b"v"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wire_bytes_matches_encoding() {
        use crate::resp;
        for reply in [
            Reply::Ok,
            Reply::Pong,
            Reply::Nil,
            Reply::Int(0),
            Reply::Int(-12),
            Reply::Value(Bytes::from(&b"hello"[..])),
            Reply::Error("ERR io: boom".into()),
        ] {
            let mut out = Vec::new();
            match &reply {
                Reply::Ok => resp::enc_simple(&mut out, "OK"),
                Reply::Pong => resp::enc_simple(&mut out, "PONG"),
                Reply::Nil => resp::enc_nil(&mut out),
                Reply::Int(n) => resp::enc_int(&mut out, *n),
                Reply::Value(v) => resp::enc_bulk(&mut out, v),
                Reply::Error(m) => resp::enc_error(&mut out, m),
            }
            assert_eq!(out.len(), reply.wire_bytes(), "{reply:?}");
        }
    }
}
