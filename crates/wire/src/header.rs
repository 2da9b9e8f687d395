//! Ordered, duplicate-preserving, byte-exact header fields.
//!
//! A [`HeaderField`] stores the *raw header line* (without the CRLF). This is
//! essential: the attacks in the paper hinge on bytes a structured map would
//! normalize away — whitespace between field-name and colon
//! (`Content-Length : 10`), control characters inside values
//! (`Transfer-Encoding:\x0bchunked`), obs-fold continuations, and repeated
//! fields. Accessors provide *interpretations* of the raw line; different
//! product simulations choose different interpretations.

use std::fmt;

use crate::ascii;

/// One header field as a raw line (no trailing CRLF).
///
/// The line is held in any byte storage `B`: an owned `Vec<u8>` (the
/// default, what requests are built from), a shared
/// [`ByteView`](crate::ByteView) into the message an implementation
/// parsed, or a borrowed `&[u8]`. Every reading below is the same for
/// all of them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HeaderField<B = Vec<u8>> {
    raw: B,
}

impl HeaderField {
    /// Builds a well-formed `name: value` line.
    ///
    /// ```
    /// use hdiff_wire::HeaderField;
    /// let h = HeaderField::new("Host", "example.com");
    /// assert_eq!(h.raw(), b"Host: example.com");
    /// ```
    pub fn new(name: impl AsRef<[u8]>, value: impl AsRef<[u8]>) -> HeaderField {
        let name = name.as_ref();
        let value = value.as_ref();
        let mut raw = Vec::with_capacity(name.len() + 2 + value.len());
        raw.extend_from_slice(name);
        raw.extend_from_slice(b": ");
        raw.extend_from_slice(value);
        HeaderField { raw }
    }

    /// Wraps an arbitrary raw header line verbatim. The line may be
    /// malformed in any way; interpretation is deferred to accessors.
    pub fn from_raw(raw: impl Into<Vec<u8>>) -> HeaderField {
        HeaderField { raw: raw.into() }
    }

    /// Consumes the field, returning the raw line.
    pub fn into_raw(self) -> Vec<u8> {
        self.raw
    }
}

impl<B: AsRef<[u8]>> HeaderField<B> {
    /// Wraps a raw header line held in `raw`, verbatim.
    ///
    /// ```
    /// use hdiff_wire::HeaderField;
    /// let line = b"Content-Length : 10";
    /// assert_eq!(HeaderField::over(&line[..]).name_trimmed(), b"Content-Length");
    /// ```
    pub fn over(raw: B) -> HeaderField<B> {
        HeaderField { raw }
    }

    /// The raw line bytes (no CRLF).
    pub fn raw(&self) -> &[u8] {
        self.raw.as_ref()
    }

    /// Position of the first colon, if any.
    fn colon(&self) -> Option<usize> {
        self.raw().iter().position(|&b| b == b':')
    }

    /// The bytes before the first colon, verbatim — possibly including
    /// trailing whitespace or control bytes. Returns the whole line when no
    /// colon is present.
    pub fn name_raw(&self) -> &[u8] {
        match self.colon() {
            Some(i) => &self.raw()[..i],
            None => self.raw(),
        }
    }

    /// The name with surrounding OWS trimmed — the *lenient* reading a
    /// product like IIS applies to `Content-Length : 10` (§IV-B).
    pub fn name_trimmed(&self) -> &[u8] {
        ascii::trim_ows(self.name_raw())
    }

    /// The bytes after the first colon with OWS trimmed (the usual value
    /// reading). Empty when no colon exists.
    pub fn value(&self) -> &[u8] {
        match self.colon() {
            Some(i) => ascii::trim_ows(&self.raw()[i + 1..]),
            None => b"",
        }
    }

    /// The bytes after the first colon verbatim (leading separators intact);
    /// lenient parsers differ on how much of this they strip.
    pub fn value_raw(&self) -> &[u8] {
        match self.colon() {
            Some(i) => &self.raw()[i + 1..],
            None => b"",
        }
    }

    /// Whether the raw name is a valid RFC 7230 token immediately followed
    /// by the colon (i.e. the line is grammatical at the name level).
    pub fn name_is_strict(&self) -> bool {
        self.colon().is_some() && ascii::is_token(self.name_raw())
    }

    /// Whether there is whitespace between the field name and the colon —
    /// the explicit MUST-reject case of RFC 7230 §3.2.4.
    pub fn has_ws_before_colon(&self) -> bool {
        let name = self.name_raw();
        self.colon().is_some() && name.last().is_some_and(|&b| ascii::is_ows(b))
    }

    /// Case-insensitive match of the *trimmed* name against `name`.
    pub fn is(&self, name: &[u8]) -> bool {
        ascii::eq_ignore_case(self.name_trimmed(), name)
    }
}

impl<B: AsRef<[u8]>> fmt::Display for HeaderField<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&ascii::escape_bytes(self.raw()))
    }
}

/// An ordered list of header fields, duplicates preserved.
///
/// ```
/// use hdiff_wire::Headers;
/// let mut h = Headers::new();
/// h.push("Host", "a.com");
/// h.push("Host", "b.com");
/// assert_eq!(h.all(b"host").count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    fields: Vec<HeaderField>,
}

impl Headers {
    /// Creates an empty header list.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Appends a well-formed `name: value` field.
    pub fn push(&mut self, name: impl AsRef<[u8]>, value: impl AsRef<[u8]>) {
        self.fields.push(HeaderField::new(name, value));
    }

    /// Appends a raw header line verbatim.
    pub fn push_raw(&mut self, raw: impl Into<Vec<u8>>) {
        self.fields.push(HeaderField::from_raw(raw));
    }

    /// Appends an already-built field.
    pub fn push_field(&mut self, field: HeaderField) {
        self.fields.push(field);
    }

    /// Iterates over fields in wire order.
    pub fn iter(&self) -> std::slice::Iter<'_, HeaderField> {
        self.fields.iter()
    }

    /// Mutable iteration in wire order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, HeaderField> {
        self.fields.iter_mut()
    }

    /// All fields whose trimmed name matches `name` case-insensitively.
    pub fn all<'s>(&'s self, name: &[u8]) -> impl Iterator<Item = &'s HeaderField> + 's {
        let name = name.to_vec();
        self.fields.iter().filter(move |f| f.is(&name))
    }

    /// The first field matching `name` (trimmed, case-insensitive).
    pub fn first(&self, name: &[u8]) -> Option<&HeaderField> {
        self.all(name).next()
    }

    /// The last field matching `name`.
    pub fn last(&self, name: &[u8]) -> Option<&HeaderField> {
        self.fields.iter().rev().find(|f| f.is(name))
    }

    /// Count of fields matching `name`.
    pub fn count(&self, name: &[u8]) -> usize {
        self.all(name).count()
    }

    /// Removes every field matching `name` (trimmed, case-insensitive),
    /// returning how many were removed.
    pub fn remove(&mut self, name: &[u8]) -> usize {
        let before = self.fields.len();
        self.fields.retain(|f| !f.is(name));
        before - self.fields.len()
    }

    /// Replaces all occurrences of `name` with a single `name: value` field
    /// appended at the end (the "replace duplicated field-values with a
    /// single valid value" recovery of RFC 7230 §3.3.2).
    pub fn set(&mut self, name: impl AsRef<[u8]>, value: impl AsRef<[u8]>) {
        self.remove(name.as_ref());
        self.push(name, value);
    }

    /// Serializes all fields, each terminated by CRLF.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for f in &self.fields {
            out.extend_from_slice(f.raw());
            out.extend_from_slice(b"\r\n");
        }
        out
    }

    /// Total serialized size in bytes (used by header-oversize checks).
    pub fn wire_len(&self) -> usize {
        self.fields.iter().map(|f| f.raw().len() + 2).sum()
    }
}

impl FromIterator<HeaderField> for Headers {
    fn from_iter<T: IntoIterator<Item = HeaderField>>(iter: T) -> Self {
        Headers { fields: iter.into_iter().collect() }
    }
}

impl Extend<HeaderField> for Headers {
    fn extend<T: IntoIterator<Item = HeaderField>>(&mut self, iter: T) {
        self.fields.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Headers {
    type Item = &'a HeaderField;
    type IntoIter = std::slice::Iter<'a, HeaderField>;
    fn into_iter(self) -> Self::IntoIter {
        self.fields.iter()
    }
}

impl IntoIterator for Headers {
    type Item = HeaderField;
    type IntoIter = std::vec::IntoIter<HeaderField>;
    fn into_iter(self) -> Self::IntoIter {
        self.fields.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_field_round_trip() {
        let h = HeaderField::new("Content-Length", "10");
        assert_eq!(h.name_raw(), b"Content-Length");
        assert_eq!(h.value(), b"10");
        assert!(h.name_is_strict());
        assert!(!h.has_ws_before_colon());
    }

    #[test]
    fn ws_before_colon_detected() {
        let h = HeaderField::from_raw(b"Content-Length : 10".to_vec());
        assert!(h.has_ws_before_colon());
        assert!(!h.name_is_strict());
        assert_eq!(h.name_trimmed(), b"Content-Length");
        assert_eq!(h.value(), b"10");
        // The strict reading keeps the space in the name.
        assert_eq!(h.name_raw(), b"Content-Length ");
    }

    #[test]
    fn control_byte_value_is_preserved() {
        let h = HeaderField::from_raw(b"Transfer-Encoding:\x0bchunked".to_vec());
        assert_eq!(h.value_raw(), b"\x0bchunked");
        // OWS-trim does not strip \x0b — it is not SP/HTAB.
        assert_eq!(h.value(), b"\x0bchunked");
        assert!(h.is(b"transfer-encoding"));
    }

    #[test]
    fn line_without_colon() {
        let h = HeaderField::from_raw(b"garbage-line".to_vec());
        assert_eq!(h.name_raw(), b"garbage-line");
        assert_eq!(h.value(), b"");
        assert!(!h.name_is_strict());
    }

    #[test]
    fn headers_preserve_order_and_duplicates() {
        let mut hs = Headers::new();
        hs.push("Host", "a.com");
        hs.push("X-Test", "1");
        hs.push("Host", "b.com");
        assert_eq!(hs.len(), 3);
        assert_eq!(hs.count(b"Host"), 2);
        assert_eq!(hs.first(b"host").unwrap().value(), b"a.com");
        assert_eq!(hs.last(b"HOST").unwrap().value(), b"b.com");
        let order: Vec<_> = hs.iter().map(|f| f.name_trimmed().to_vec()).collect();
        assert_eq!(order, vec![b"Host".to_vec(), b"X-Test".to_vec(), b"Host".to_vec()]);
    }

    #[test]
    fn set_collapses_duplicates() {
        let mut hs = Headers::new();
        hs.push("Content-Length", "10");
        hs.push("Content-Length", "0");
        hs.set("Content-Length", "10");
        assert_eq!(hs.count(b"Content-Length"), 1);
        assert_eq!(hs.first(b"content-length").unwrap().value(), b"10");
    }

    #[test]
    fn serialization_is_byte_exact() {
        let mut hs = Headers::new();
        hs.push_raw(b"Host : evil.com".to_vec());
        hs.push("A", "b");
        assert_eq!(hs.to_bytes(), b"Host : evil.com\r\nA: b\r\n");
        assert_eq!(hs.wire_len(), hs.to_bytes().len());
    }
}
