//! The key → version model every returned value is checked against, the
//! value encoding that makes a value self-describing, and failure
//! accounting by cause.
//!
//! A value is `[version: u32 LE][key id: u32 LE]` followed by filler
//! bytes that are a function of `(id, version)`; its length is a
//! function of `(id, version)` too. A GET therefore proves which write
//! it returned without the benchmark keeping old values around.

use std::collections::BTreeMap;

/// Keys are `user` + a 12-digit id: 16 bytes.
pub const KEY_LEN: usize = 16;

/// Render key `id` into `out`.
pub fn key(id: u64, out: &mut [u8; KEY_LEN]) {
    out[..4].copy_from_slice(b"user");
    let mut n = id;
    for slot in out[4..].iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        n /= 10;
    }
}

fn mix(a: u64, b: u64, seed: u64) -> u64 {
    let mut x = a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.rotate_left(29) ^ seed;
    x ^= x >> 31;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 29)
}

/// Value sizes of a workload: every `(id, version)` has a fixed length
/// in `min..=max`.
#[derive(Clone, Copy, Debug)]
pub struct ValueSize {
    pub min: usize,
    pub max: usize,
    pub seed: u64,
}

impl ValueSize {
    pub fn len(&self, id: u64, version: u32) -> usize {
        let span = (self.max - self.min + 1) as u64;
        self.min + (mix(id, version as u64, self.seed) % span) as usize
    }

    fn filler(&self, id: u64, version: u32) -> u8 {
        (mix(version as u64, id, !self.seed) >> 56) as u8
    }

    /// Encode the value of `id` at `version` into `buf`.
    pub fn encode(&self, id: u64, version: u32, buf: &mut Vec<u8>) {
        let len = self.len(id, version);
        buf.clear();
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&(id as u32).to_le_bytes());
        buf.resize(len, self.filler(id, version));
    }

    /// Check that `got` is the value of `id` at some version in
    /// `lo..=hi`; version 0 means "absent". Returns the version seen.
    pub fn check(
        &self,
        id: u64,
        got: Option<&[u8]>,
        lo: u32,
        hi: u32,
    ) -> Result<u32, &'static str> {
        let Some(v) = got else {
            return if lo == 0 { Ok(0) } else { Err("missing_value") };
        };
        if v.len() < 8 {
            return Err("wrong_value");
        }
        let version = u32::from_le_bytes(v[..4].try_into().expect("4-byte slice"));
        let vid = u32::from_le_bytes(v[4..8].try_into().expect("4-byte slice"));
        let fill = self.filler(id, version);
        let intact = vid == id as u32
            && v.len() == self.len(id, version)
            && v[8..].iter().all(|&b| b == fill);
        if !intact {
            return Err("wrong_value");
        }
        if version < lo.max(1) {
            return Err("stale_value");
        }
        if version > hi {
            // A write the device refused (or never acknowledged) is visible.
            return Err("unacked_value");
        }
        Ok(version)
    }
}

/// Key → version of the latest acknowledged write (0 = never written).
#[derive(Clone, Debug, Default)]
pub struct Model {
    versions: Vec<u32>,
}

impl Model {
    pub fn version(&self, id: u64) -> u32 {
        self.versions.get(id as usize).copied().unwrap_or(0)
    }

    pub fn set(&mut self, id: u64, version: u32) {
        let i = id as usize;
        if i >= self.versions.len() {
            self.versions.resize(i + 1, 0);
        }
        self.versions[i] = version;
    }

    /// Live user bytes (key + current value) of every written key.
    pub fn live_bytes(&self, sizes: &ValueSize) -> u64 {
        self.versions
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0)
            .map(|(id, &v)| (KEY_LEN + sizes.len(id as u64, v)) as u64)
            .sum()
    }
}

/// Failed operations by cause: a `KvError` variant name in process, the
/// `-ERR` class over RESP, or a check that the returned value failed.
#[derive(Clone, Debug, Default)]
pub struct Failures(pub BTreeMap<String, u64>);

impl Failures {
    pub fn add(&mut self, cause: &str) {
        *self.0.entry(cause.to_string()).or_insert(0) += 1;
    }

    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }

    pub fn merge(&mut self, other: &Failures) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0) += v;
        }
    }
}

/// The variant name of a device error (`DeviceFull`, `ValueTooLarge`, …).
pub fn error_cause(err: &rhik_kvssd::KvError) -> String {
    let dbg = format!("{err:?}");
    let end = dbg.find(|c: char| !c.is_alphanumeric()).unwrap_or(dbg.len());
    format!("KvError::{}", &dbg[..end])
}

/// The class of a RESP error line: the text before the first `:`.
pub fn resp_error_cause(line: &[u8]) -> String {
    let text = String::from_utf8_lossy(line);
    let class = text.split(':').next().unwrap_or("").trim();
    format!("-{class}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_detect_damage() {
        let sizes = ValueSize { min: 256, max: 1024, seed: 7 };
        let mut buf = Vec::new();
        sizes.encode(42, 3, &mut buf);
        assert_eq!(sizes.check(42, Some(&buf), 3, 3), Ok(3));
        assert_eq!(sizes.check(42, Some(&buf), 4, 5), Err("stale_value"));
        assert_eq!(sizes.check(42, Some(&buf), 1, 2), Err("unacked_value"));
        assert_eq!(sizes.check(43, Some(&buf), 1, 3), Err("wrong_value"));
        let last = buf.len() - 1;
        buf[last] ^= 1;
        assert_eq!(sizes.check(42, Some(&buf), 3, 3), Err("wrong_value"));
        assert_eq!(sizes.check(42, None, 0, 3), Ok(0));
        assert_eq!(sizes.check(42, None, 1, 3), Err("missing_value"));
    }

    #[test]
    fn keys_are_fixed_width() {
        let mut k = [0u8; KEY_LEN];
        key(1234, &mut k);
        assert_eq!(&k, b"user000000001234");
    }
}
