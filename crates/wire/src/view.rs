//! Shared, immutable byte views.
//!
//! A [`ByteView`] is a range of a reference-counted byte buffer. Cloning
//! one or slicing it shares the buffer instead of copying it, so many
//! values can quote parts of the same message — the request line, each
//! header line, the Host, the body — for the price of one copy of its
//! bytes. An empty view holds no buffer and never allocates. Views
//! compare, hash and debug-print by content, exactly like the `Vec<u8>`
//! holding the same bytes.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A cheaply clonable view of bytes in a shared immutable buffer.
///
/// ```
/// use hdiff_wire::ByteView;
/// let message = ByteView::from(&b"GET / HTTP/1.1"[..]);
/// let method = message.slice(0..3);
/// assert_eq!(method, b"GET");
/// assert_eq!(Vec::from(method.clone()), b"GET".to_vec());
/// assert!(ByteView::default().is_empty());
/// ```
#[derive(Clone, Default)]
pub struct ByteView {
    /// The shared buffer; `None` for an empty view.
    buf: Option<Arc<[u8]>>,
    start: usize,
    end: usize,
}

impl ByteView {
    /// An empty view (no buffer).
    pub const fn new() -> ByteView {
        ByteView { buf: None, start: 0, end: 0 }
    }

    /// The bytes in `range` of this view, sharing its buffer.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or decreasing, like slicing.
    pub fn slice(&self, range: Range<usize>) -> ByteView {
        let _ = &self[range.clone()];
        match &self.buf {
            Some(buf) if !range.is_empty() => ByteView {
                buf: Some(Arc::clone(buf)),
                start: self.start + range.start,
                end: self.start + range.end,
            },
            _ => ByteView::new(),
        }
    }

    /// The view of `part`, which must be a subslice of this view's bytes
    /// (as returned by indexing or by a reader over them).
    ///
    /// # Panics
    ///
    /// Panics if a non-empty `part` does not lie inside this view.
    pub fn slice_ref(&self, part: &[u8]) -> ByteView {
        if part.is_empty() {
            return ByteView::new();
        }
        let start = offset_of(self, part).expect("slice_ref: part lies outside the view");
        self.slice(start..start + part.len())
    }
}

/// Where `part` starts inside `whole`, when it lies entirely inside it.
pub fn offset_of(whole: &[u8], part: &[u8]) -> Option<usize> {
    let start = (part.as_ptr() as usize).checked_sub(whole.as_ptr() as usize)?;
    (start + part.len() <= whole.len()).then_some(start)
}

impl Deref for ByteView {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.buf {
            Some(buf) => &buf[self.start..self.end],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for ByteView {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<&[u8]> for ByteView {
    /// Copies `bytes` into a new buffer (none when empty).
    fn from(bytes: &[u8]) -> ByteView {
        if bytes.is_empty() {
            return ByteView::new();
        }
        ByteView { buf: Some(Arc::from(bytes)), start: 0, end: bytes.len() }
    }
}

impl From<Vec<u8>> for ByteView {
    fn from(bytes: Vec<u8>) -> ByteView {
        ByteView::from(&bytes[..])
    }
}

impl From<ByteView> for Vec<u8> {
    fn from(view: ByteView) -> Vec<u8> {
        view.to_vec()
    }
}

impl fmt::Debug for ByteView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for ByteView {
    fn eq(&self, other: &ByteView) -> bool {
        **self == **other
    }
}

impl Eq for ByteView {}

impl PartialOrd for ByteView {
    fn partial_cmp(&self, other: &ByteView) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByteView {
    fn cmp(&self, other: &ByteView) -> std::cmp::Ordering {
        (**self).cmp(&**other)
    }
}

impl Hash for ByteView {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for ByteView {
    fn eq(&self, other: &&[u8; N]) -> bool {
        **self == other[..]
    }
}

impl PartialEq<Vec<u8>> for ByteView {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == other[..]
    }
}

impl PartialEq<ByteView> for Vec<u8> {
    fn eq(&self, other: &ByteView) -> bool {
        self[..] == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(value: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn views_behave_like_the_vec_of_their_bytes() {
        let whole = ByteView::from(b"Host: h1.com".to_vec());
        let host = whole.slice(6..12);
        let vec = b"h1.com".to_vec();
        assert_eq!(host, vec);
        assert_eq!(vec, host);
        assert_eq!(format!("{host:?}"), format!("{vec:?}"));
        assert_eq!(hash_of(&host), hash_of(&vec));
        assert_eq!(host.cmp(&ByteView::from(&b"h2"[..])), vec[..].cmp(b"h2"));
        assert_eq!(Vec::from(host), vec);
    }

    #[test]
    fn empty_views_share_nothing_and_equal_each_other() {
        let whole = ByteView::from(&b"abc"[..]);
        let empty = whole.slice(1..1);
        assert!(empty.buf.is_none());
        assert_eq!(empty, ByteView::default());
        assert!(ByteView::from(Vec::new()).buf.is_none());
        assert_eq!(&*ByteView::new(), b"");
    }

    #[test]
    fn slice_ref_maps_a_subslice_back_to_a_view() {
        let whole = ByteView::from(&b"Content-Length : 10"[..]);
        let name = whole.slice_ref(whole.split(|&b| b == b' ').next().unwrap());
        assert_eq!(name, b"Content-Length");
        let value = whole.slice_ref(&whole[17..]);
        assert_eq!(value, b"10");
        assert_eq!(value.slice(1..2), b"0");
        assert!(whole.slice_ref(b"").is_empty());
    }

    #[test]
    #[should_panic(expected = "outside the view")]
    fn slice_ref_rejects_foreign_bytes() {
        let whole = ByteView::from(&b"abc"[..]);
        let other = b"abc".to_vec();
        let _ = whole.slice_ref(&other);
    }
}
