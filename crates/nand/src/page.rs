//! The data area of a page as the array stores it: one buffer, or an
//! ordered list of segments that reads as their concatenation.
//!
//! A record-layer table page is kept as segments (the index decides their
//! size) so that copy-on-write works per segment: the page cache, the FTL
//! and the array pass the list on by refcount, and a writer copies only
//! the segments it touches ([`PageData::segments_mut`]). Flash versions of
//! a table then share every segment they did not change. Any other page
//! is one segment, held as a bare [`Bytes`]: no list is allocated for it.

use std::fmt;
use std::sync::Arc;

use bytes::Bytes;

/// A page's data area: one segment or several, shared by refcount.
#[derive(Clone, Default)]
pub struct PageData(Repr);

#[derive(Clone)]
enum Repr {
    /// One segment (any length).
    Flat(Bytes),
    /// Two or more segments, behind a thin pointer: `Arc<Box<[_]>>` keeps
    /// a [`PageData`] at 16 bytes, where `Arc<[_]>` would make it 24.
    Segments(Arc<Box<[Bytes]>>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Flat(Bytes::new())
    }
}

/// Writable segments of a [`PageData`] whose list is no longer shared.
pub enum SegmentsMut<'a> {
    /// A one-segment page, already private: write anywhere.
    Flat(&'a mut [u8]),
    /// Segments that clones or flash may still share: copy one with
    /// [`Bytes::make_mut`] before writing it.
    Segments(&'a mut [Bytes]),
}

impl PageData {
    /// A page made of `segments`, in order. One segment is stored bare.
    pub fn from_segments(mut segments: Vec<Bytes>) -> Self {
        if segments.len() <= 1 {
            return PageData(Repr::Flat(segments.pop().unwrap_or_default()));
        }
        PageData(Repr::Segments(Arc::new(segments.into_boxed_slice())))
    }

    /// The segments in order (a flat page is one).
    #[inline]
    pub fn segments(&self) -> &[Bytes] {
        match &self.0 {
            Repr::Flat(bytes) => std::slice::from_ref(bytes),
            Repr::Segments(list) => list,
        }
    }

    /// Total bytes over all segments.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Flat(bytes) => bytes.len(),
            Repr::Segments(list) => list.iter().map(Bytes::len).sum(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write access, copy-on-write. A one-segment page is copied here if
    /// it is shared, as [`Bytes::make_mut`] does; a segmented page copies
    /// only its list of handles here, and each segment when it is written.
    #[inline]
    pub fn segments_mut(&mut self) -> SegmentsMut<'_> {
        match &mut self.0 {
            Repr::Flat(bytes) => SegmentsMut::Flat(bytes.make_mut()),
            Repr::Segments(list) => SegmentsMut::Segments(Arc::<Box<_>>::make_mut(list)),
        }
    }

    /// The page as one contiguous buffer: the buffer itself for a flat
    /// page, a copy of the concatenated segments otherwise.
    pub fn to_bytes(&self) -> Bytes {
        match &self.0 {
            Repr::Flat(bytes) => bytes.clone(),
            Repr::Segments(list) => {
                let mut flat = Vec::with_capacity(self.len());
                for segment in list.iter() {
                    flat.extend_from_slice(segment);
                }
                Bytes::from(flat)
            }
        }
    }
}

impl From<Bytes> for PageData {
    #[inline]
    fn from(bytes: Bytes) -> Self {
        PageData(Repr::Flat(bytes))
    }
}

/// Equal when the pages read the same, however they are segmented.
impl PartialEq for PageData {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.to_bytes() == other.to_bytes()
    }
}

impl Eq for PageData {}

impl fmt::Debug for PageData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PageData")
            .field("len", &self.len())
            .field("segments", &self.segments().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(fill: u8, len: usize) -> Bytes {
        Bytes::from(vec![fill; len])
    }

    #[test]
    fn one_segment_is_stored_bare() {
        let page = PageData::from_segments(vec![seg(1, 8)]);
        assert!(matches!(page.0, Repr::Flat(_)));
        assert_eq!(page, PageData::from(seg(1, 8)));
        assert_eq!(PageData::from_segments(Vec::new()).len(), 0);
    }

    #[test]
    fn segments_read_as_their_concatenation() {
        let page = PageData::from_segments(vec![seg(1, 3), seg(2, 2)]);
        assert_eq!(page.len(), 5);
        assert_eq!(&page.to_bytes()[..], &[1, 1, 1, 2, 2]);
        assert_eq!(page, PageData::from(Bytes::from(vec![1, 1, 1, 2, 2])));
        assert_ne!(page, PageData::from_segments(vec![seg(1, 3), seg(3, 2)]));
    }

    #[test]
    fn a_write_copies_only_the_segment_it_touches() {
        let (a, b) = (seg(1, 4), seg(2, 4));
        let flash = PageData::from_segments(vec![a.clone(), b.clone()]);
        let mut cached = flash.clone();
        let SegmentsMut::Segments(list) = cached.segments_mut() else { panic!("segmented") };
        list[1].make_mut()[0] = 9;
        assert_eq!(flash, PageData::from_segments(vec![seg(1, 4), seg(2, 4)]), "flash unchanged");
        assert_eq!(cached.segments()[0].as_ptr(), a.as_ptr(), "untouched segment shared");
        assert_ne!(cached.segments()[1].as_ptr(), b.as_ptr(), "written segment copied");
        assert_eq!(&cached.segments()[1][..], &[9, 2, 2, 2]);
    }

    #[test]
    fn a_flat_page_is_copied_on_write_as_a_whole() {
        let flash = PageData::from(seg(1, 4));
        let mut cached = flash.clone();
        let SegmentsMut::Flat(buf) = cached.segments_mut() else { panic!("flat") };
        buf[0] = 7;
        assert_eq!(&flash.to_bytes()[..], &[1; 4]);
        assert_eq!(&cached.to_bytes()[..], &[7, 1, 1, 1]);
    }
}
