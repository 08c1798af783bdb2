//! Device-level error taxonomy (SNIA KV API-flavoured status codes).

use rhik_ftl::FtlError;
use rhik_nand::{NandError, Ppa};

/// Errors a KV command can return to the host.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KvError {
    /// `get`/`delete` on a key that is not stored.
    KeyNotFound,
    /// The key's 64-bit signature collides with a *different* stored key
    /// (§VI "Collision Management": "the application needs to generate a
    /// new key and issue a new I/O request in such instances").
    KeyCollision,
    /// The record-layer hash table rejected the key within its hop range
    /// (§IV-A1's uncorrectable error).
    KeyRejected,
    /// Device has no reclaimable space left.
    DeviceFull,
    /// The index's fixed capacity is exhausted (baselines only).
    IndexFull,
    /// Value exceeds the extent packing limit.
    ValueTooLarge { len: usize, max: usize },
    /// Key cannot fit a flash page.
    KeyTooLarge { len: usize },
    /// Zero-length keys are not addressable.
    EmptyKey,
    /// The installed index cannot serve this operation (e.g. `iterate` on
    /// a scheme without record scans).
    Unsupported(&'static str),
    /// A flash page read failed (injected or modeled media fault). Carries
    /// the failing physical address so hosts and tests can correlate the
    /// error with the device's fault plan instead of parsing a message.
    ReadFault { ppa: Ppa },
    /// Unrecoverable media error.
    Media(String),
    /// A cross-layer invariant broke while serving the command (the
    /// firmware refuses to guess; run the device audit to localize the
    /// disagreeing layer).
    Corrupt(String),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::KeyNotFound => write!(f, "key not found"),
            KvError::KeyCollision => write!(f, "key signature collision; choose a different key"),
            KvError::KeyRejected => write!(f, "key rejected by record-layer collision handling"),
            KvError::DeviceFull => write!(f, "device full"),
            KvError::IndexFull => write!(f, "index capacity exhausted"),
            KvError::ValueTooLarge { len, max } => write!(f, "value {len} B over limit {max} B"),
            KvError::KeyTooLarge { len } => write!(f, "key {len} B over page limit"),
            KvError::EmptyKey => write!(f, "empty key"),
            KvError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            KvError::ReadFault { ppa } => write!(f, "media read failure at {ppa:?}"),
            KvError::Media(m) => write!(f, "media error: {m}"),
            KvError::Corrupt(detail) => write!(f, "device state corrupt: {detail}"),
        }
    }
}

impl std::error::Error for KvError {}

/// The status a firmware error reaches the host as.
impl From<FtlError> for KvError {
    fn from(e: FtlError) -> Self {
        match e {
            FtlError::NeedsGc => KvError::DeviceFull,
            FtlError::TableFull { .. } => KvError::KeyRejected,
            FtlError::CapacityExhausted => KvError::IndexFull,
            FtlError::ValueTooLarge { len, max } => KvError::ValueTooLarge { len, max },
            FtlError::KeyTooLarge { len } => KvError::KeyTooLarge { len },
            FtlError::Unsupported(op) => KvError::Unsupported(op),
            FtlError::Flash(NandError::ReadFailed(ppa)) => KvError::ReadFault { ppa },
            FtlError::Flash(f) => KvError::Media(f.to_string()),
            FtlError::Corrupt(detail) => KvError::Corrupt(detail),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(KvError::KeyCollision.to_string().contains("collision"));
        assert!(KvError::ValueTooLarge { len: 10, max: 5 }.to_string().contains("10"));
        assert!(KvError::ReadFault { ppa: Ppa::new(3, 7) }.to_string().contains("read failure"));
    }

    #[test]
    fn every_ftl_error_maps_to_its_host_status() {
        let ppa = Ppa::new(3, 7);
        let program = NandError::ProgramFailed(ppa);
        let rows = [
            (FtlError::NeedsGc, KvError::DeviceFull),
            (FtlError::TableFull { table: 5 }, KvError::KeyRejected),
            (FtlError::CapacityExhausted, KvError::IndexFull),
            (
                FtlError::ValueTooLarge { len: 10, max: 5 },
                KvError::ValueTooLarge { len: 10, max: 5 },
            ),
            (FtlError::KeyTooLarge { len: 600 }, KvError::KeyTooLarge { len: 600 }),
            (FtlError::Unsupported("scan_records"), KvError::Unsupported("scan_records")),
            (FtlError::Flash(NandError::ReadFailed(ppa)), KvError::ReadFault { ppa }),
            (FtlError::Flash(program.clone()), KvError::Media(program.to_string())),
            (FtlError::Corrupt("lost record".into()), KvError::Corrupt("lost record".into())),
        ];
        for (ftl, host) in rows {
            assert_eq!(KvError::from(ftl.clone()), host, "{ftl:?}");
        }
    }
}
