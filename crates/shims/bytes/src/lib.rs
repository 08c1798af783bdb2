//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of the `bytes` API it actually uses: an
//! immutable, cheaply-cloneable byte buffer backed by `Arc<[u8]>`.
//! Clones share the allocation, exactly like upstream `Bytes` — the
//! property the NAND model relies on ("reading hands back cheap clones").

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Reference-counted immutable byte buffer.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Empty buffer (no allocation shared with anything else).
    pub fn new() -> Self {
        Bytes { data: Arc::from(&[][..]) }
    }

    /// Wrap a static slice (copies; the zero-copy trick is irrelevant here).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes { data: Arc::from(bytes) }
    }

    /// Copy an arbitrary slice into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { data: Arc::from(data) }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }

    /// Copy-on-write mutable access: writes in place when this handle is
    /// the buffer's only owner, and first moves it to a private copy when
    /// clones share it. (An extension over upstream `Bytes`, whose
    /// mutable counterpart is `BytesMut`.)
    pub fn make_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.data)
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: Arc::from(v) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self[..] == *other.as_bytes()
    }
}

impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self[..] == *other.as_bytes()
    }
}

impl PartialEq<String> for Bytes {
    fn eq(&self, other: &String) -> bool {
        self[..] == *other.as_bytes()
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.data.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.data, &b.data));
    }

    #[test]
    fn make_mut_copies_only_shared_buffers() {
        let mut a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        a.make_mut()[0] = 9;
        assert_eq!(&a[..], &[9, 2, 3]);
        assert_eq!(&b[..], &[1, 2, 3], "a shared buffer is copied before the write");
        let before = a.as_ptr();
        a.make_mut()[1] = 8;
        assert_eq!(a.as_ptr(), before, "a sole owner writes in place");
    }

    #[test]
    fn slice_semantics() {
        let a = Bytes::copy_from_slice(b"hello");
        assert_eq!(&a[..], b"hello");
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
        assert!(Bytes::new().is_empty());
        assert_eq!(a.to_vec(), b"hello".to_vec());
    }

    #[test]
    fn equality_against_plain_buffers() {
        let a = Bytes::from_static(b"xy");
        assert_eq!(a, *b"xy".as_slice());
        assert_eq!(a, vec![b'x', b'y']);
    }
}
