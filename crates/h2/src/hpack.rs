//! HPACK header compression (RFC 7541): prefix-integer and string
//! primitives, the 61-entry static table, a size-bounded dynamic table
//! with eviction, and the encoder/decoder over them.
//!
//! Decoding is hardened the way a front end must be: truncated
//! integers, integers with over-long continuation, strings running past
//! the block, strings exceeding a caller-set cap, bad indexes, and
//! dynamic-table size updates above the protocol maximum are all typed
//! errors rather than panics. Both directions are deterministic —
//! identical inputs and table states produce identical bytes — which
//! the downgrade campaign's byte-stability gate relies on.

use std::collections::VecDeque;

use crate::huffman::{self, HuffmanError};

/// Per-entry overhead charged against the dynamic-table size
/// (RFC 7541 §4.1).
pub const ENTRY_OVERHEAD: usize = 32;

/// Default dynamic-table capacity (SETTINGS_HEADER_TABLE_SIZE default).
pub const DEFAULT_TABLE_SIZE: usize = 4096;

/// Default cap on one decoded string; a lying length cannot balloon
/// memory past this.
pub const DEFAULT_MAX_STRING: usize = 64 * 1024;

/// One header field. `never_indexed` marks the literal-never-indexed
/// representation (RFC 7541 §6.2.3) — a hop must forward it with the
/// same representation, and an encoder must not put it in any table.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Header {
    pub name: Vec<u8>,
    pub value: Vec<u8>,
    pub never_indexed: bool,
}

impl Header {
    /// A plain (indexable) header field.
    pub fn new(name: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> Header {
        Header { name: name.into(), value: value.into(), never_indexed: false }
    }

    /// A sensitive field carried as literal-never-indexed.
    pub fn sensitive(name: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> Header {
        Header { name: name.into(), value: value.into(), never_indexed: true }
    }

    /// Whether the name starts with `:` (pseudo-header).
    pub fn is_pseudo(&self) -> bool {
        self.name.first() == Some(&b':')
    }
}

/// Typed HPACK decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HpackError {
    /// An integer's continuation octets ran off the end of the block.
    TruncatedInteger,
    /// An integer used more continuation octets than any legal value
    /// needs (guards against unbounded shifts).
    IntegerOverflow,
    /// A string's declared length ran past the end of the block.
    TruncatedString { declared: usize, available: usize },
    /// A string exceeded the decoder's configured cap.
    StringTooLong { declared: usize, max: usize },
    /// An indexed representation referenced index 0 or past the end of
    /// the address space.
    InvalidIndex(u64),
    /// A dynamic-table size update exceeded the protocol maximum.
    TableSizeOverflow { requested: usize, max: usize },
    /// Huffman-coded string failed to decode.
    Huffman(HuffmanError),
}

impl std::fmt::Display for HpackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HpackError::TruncatedInteger => write!(f, "truncated integer"),
            HpackError::IntegerOverflow => write!(f, "integer continuation overflow"),
            HpackError::TruncatedString { declared, available } => {
                write!(f, "string declares {declared} bytes, {available} available")
            }
            HpackError::StringTooLong { declared, max } => {
                write!(f, "string of {declared} bytes exceeds cap {max}")
            }
            HpackError::InvalidIndex(i) => write!(f, "invalid table index {i}"),
            HpackError::TableSizeOverflow { requested, max } => {
                write!(f, "table size update {requested} exceeds maximum {max}")
            }
            HpackError::Huffman(e) => write!(f, "huffman: {e}"),
        }
    }
}

impl std::error::Error for HpackError {}

impl From<HuffmanError> for HpackError {
    fn from(e: HuffmanError) -> HpackError {
        HpackError::Huffman(e)
    }
}

// --- integer primitive (RFC 7541 §5.1) ---------------------------------

/// Encodes `value` with an N-bit prefix; `high` carries the pattern
/// bits above the prefix in the first octet.
pub fn encode_int(value: u64, prefix_bits: u8, high: u8, out: &mut Vec<u8>) {
    debug_assert!((1..=8).contains(&prefix_bits));
    let limit = (1u64 << prefix_bits) - 1;
    if value < limit {
        out.push(high | value as u8);
        return;
    }
    out.push(high | limit as u8);
    let mut rest = value - limit;
    while rest >= 128 {
        out.push((rest & 0x7f) as u8 | 0x80);
        rest >>= 7;
    }
    out.push(rest as u8);
}

/// Decodes an N-bit-prefix integer starting at `buf[pos]`. Returns the
/// value and the new position. At most ten continuation octets are
/// accepted (enough for any `u64`), so a malicious run of `0x80` octets
/// terminates with [`HpackError::IntegerOverflow`].
pub fn decode_int(buf: &[u8], pos: usize, prefix_bits: u8) -> Result<(u64, usize), HpackError> {
    debug_assert!((1..=8).contains(&prefix_bits));
    let first = *buf.get(pos).ok_or(HpackError::TruncatedInteger)?;
    let limit = (1u64 << prefix_bits) - 1;
    let mut value = u64::from(first) & limit;
    if value < limit {
        return Ok((value, pos + 1));
    }
    let mut shift = 0u32;
    let mut at = pos + 1;
    loop {
        let octet = *buf.get(at).ok_or(HpackError::TruncatedInteger)?;
        at += 1;
        if shift > 63 || (shift == 63 && (octet & 0x7f) > 1) {
            return Err(HpackError::IntegerOverflow);
        }
        value = value
            .checked_add(u64::from(octet & 0x7f) << shift)
            .ok_or(HpackError::IntegerOverflow)?;
        if octet & 0x80 == 0 {
            return Ok((value, at));
        }
        shift += 7;
    }
}

// --- string primitive (RFC 7541 §5.2) ----------------------------------

/// Encodes a string literal, Huffman-coding when it saves bytes (or
/// always plain when `huffman` is false).
pub fn encode_str(bytes: &[u8], huffman: bool, out: &mut Vec<u8>) {
    if huffman {
        let hlen = huffman::encoded_len(bytes);
        if hlen < bytes.len() {
            encode_int(hlen as u64, 7, 0x80, out);
            huffman::encode(bytes, out);
            return;
        }
    }
    encode_int(bytes.len() as u64, 7, 0x00, out);
    out.extend_from_slice(bytes);
}

/// Decodes a string literal at `buf[pos]`, enforcing `max_len` on the
/// *declared* length before touching the payload.
pub fn decode_str(buf: &[u8], pos: usize, max_len: usize) -> Result<(Vec<u8>, usize), HpackError> {
    let huff = buf.get(pos).map(|b| b & 0x80 != 0).ok_or(HpackError::TruncatedInteger)?;
    let (len, at) = decode_int(buf, pos, 7)?;
    let len = usize::try_from(len).map_err(|_| HpackError::IntegerOverflow)?;
    if len > max_len {
        return Err(HpackError::StringTooLong { declared: len, max: max_len });
    }
    let end = at.checked_add(len).ok_or(HpackError::IntegerOverflow)?;
    if end > buf.len() {
        return Err(HpackError::TruncatedString { declared: len, available: buf.len() - at });
    }
    let raw = &buf[at..end];
    let bytes = if huff { huffman::decode(raw)? } else { raw.to_vec() };
    Ok((bytes, end))
}

// --- static table (RFC 7541 Appendix A) --------------------------------

/// The 61 static entries, index 1-based on the wire.
#[rustfmt::skip]
pub const STATIC_TABLE: [(&str, &str); 61] = [
    (":authority", ""),
    (":method", "GET"),
    (":method", "POST"),
    (":path", "/"),
    (":path", "/index.html"),
    (":scheme", "http"),
    (":scheme", "https"),
    (":status", "200"),
    (":status", "204"),
    (":status", "206"),
    (":status", "304"),
    (":status", "400"),
    (":status", "404"),
    (":status", "500"),
    ("accept-charset", ""),
    ("accept-encoding", "gzip, deflate"),
    ("accept-language", ""),
    ("accept-ranges", ""),
    ("accept", ""),
    ("access-control-allow-origin", ""),
    ("age", ""),
    ("allow", ""),
    ("authorization", ""),
    ("cache-control", ""),
    ("content-disposition", ""),
    ("content-encoding", ""),
    ("content-language", ""),
    ("content-length", ""),
    ("content-location", ""),
    ("content-range", ""),
    ("content-type", ""),
    ("cookie", ""),
    ("date", ""),
    ("etag", ""),
    ("expect", ""),
    ("expires", ""),
    ("from", ""),
    ("host", ""),
    ("if-match", ""),
    ("if-modified-since", ""),
    ("if-none-match", ""),
    ("if-range", ""),
    ("if-unmodified-since", ""),
    ("last-modified", ""),
    ("link", ""),
    ("location", ""),
    ("max-forwards", ""),
    ("proxy-authenticate", ""),
    ("proxy-authorization", ""),
    ("range", ""),
    ("referer", ""),
    ("refresh", ""),
    ("retry-after", ""),
    ("server", ""),
    ("set-cookie", ""),
    ("strict-transport-security", ""),
    ("transfer-encoding", ""),
    ("user-agent", ""),
    ("vary", ""),
    ("via", ""),
    ("www-authenticate", ""),
];

// --- dynamic table (RFC 7541 §4) ---------------------------------------

/// The size-bounded FIFO dynamic table. Entry 0 is the most recently
/// inserted (wire index 62).
#[derive(Debug, Clone, Default)]
pub struct DynamicTable {
    entries: VecDeque<(Vec<u8>, Vec<u8>)>,
    size: usize,
    max_size: usize,
}

impl DynamicTable {
    /// A table with the given capacity.
    pub fn with_capacity(max_size: usize) -> DynamicTable {
        DynamicTable { entries: VecDeque::new(), size: 0, max_size }
    }

    /// Current byte size (including per-entry overhead).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current capacity.
    pub fn max_size(&self) -> usize {
        self.max_size
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry by position (0 = most recent).
    pub fn get(&self, pos: usize) -> Option<(&[u8], &[u8])> {
        self.entries.get(pos).map(|(n, v)| (n.as_slice(), v.as_slice()))
    }

    /// Changes the capacity, evicting from the oldest end as needed.
    pub fn set_max_size(&mut self, max_size: usize) {
        self.max_size = max_size;
        self.evict_to(max_size);
    }

    /// Inserts an entry, evicting as needed. An entry larger than the
    /// whole capacity empties the table (RFC 7541 §4.4).
    pub fn insert(&mut self, name: &[u8], value: &[u8]) {
        let needed = name.len() + value.len() + ENTRY_OVERHEAD;
        if needed > self.max_size {
            self.entries.clear();
            self.size = 0;
            return;
        }
        self.evict_to(self.max_size - needed);
        self.entries.push_front((name.to_vec(), value.to_vec()));
        self.size += needed;
    }

    /// Position of an exact (name, value) match, if present.
    pub fn find(&self, name: &[u8], value: &[u8]) -> Option<usize> {
        self.entries.iter().position(|(n, v)| n == name && v == value)
    }

    /// Position of a name-only match, if present.
    pub fn find_name(&self, name: &[u8]) -> Option<usize> {
        self.entries.iter().position(|(n, _)| n == name)
    }

    fn evict_to(&mut self, budget: usize) {
        while self.size > budget {
            let (n, v) = self.entries.pop_back().expect("size > 0 implies entries");
            self.size -= n.len() + v.len() + ENTRY_OVERHEAD;
        }
    }
}

// --- decoder -----------------------------------------------------------

/// HPACK block decoder with its own dynamic table.
#[derive(Debug, Clone)]
pub struct Decoder {
    table: DynamicTable,
    /// Hard ceiling for dynamic-table size updates — the value the
    /// "protocol" advertised via SETTINGS_HEADER_TABLE_SIZE.
    protocol_max_table: usize,
    /// Cap on any single decoded string.
    max_string: usize,
}

impl Default for Decoder {
    fn default() -> Decoder {
        Decoder::new(DEFAULT_TABLE_SIZE)
    }
}

impl Decoder {
    /// A decoder whose table size updates may go up to `max_table`.
    pub fn new(max_table: usize) -> Decoder {
        Decoder {
            table: DynamicTable::with_capacity(max_table),
            protocol_max_table: max_table,
            max_string: DEFAULT_MAX_STRING,
        }
    }

    /// Overrides the per-string cap.
    pub fn with_max_string(mut self, max_string: usize) -> Decoder {
        self.max_string = max_string;
        self
    }

    /// The dynamic table (for inspection in tests).
    pub fn table(&self) -> &DynamicTable {
        &self.table
    }

    /// Resolves a wire index into owned (name, value).
    fn lookup(&self, index: u64) -> Result<(Vec<u8>, Vec<u8>), HpackError> {
        if index == 0 {
            return Err(HpackError::InvalidIndex(0));
        }
        let i = index as usize;
        if i <= STATIC_TABLE.len() {
            let (n, v) = STATIC_TABLE[i - 1];
            return Ok((n.as_bytes().to_vec(), v.as_bytes().to_vec()));
        }
        match self.table.get(i - STATIC_TABLE.len() - 1) {
            Some((n, v)) => Ok((n.to_vec(), v.to_vec())),
            None => Err(HpackError::InvalidIndex(index)),
        }
    }

    /// Decodes one whole header block.
    pub fn decode_block(&mut self, block: &[u8]) -> Result<Vec<Header>, HpackError> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < block.len() {
            let first = block[pos];
            if first & 0x80 != 0 {
                // Indexed field.
                let (index, at) = decode_int(block, pos, 7)?;
                let (name, value) = self.lookup(index)?;
                out.push(Header { name, value, never_indexed: false });
                pos = at;
            } else if first & 0xc0 == 0x40 {
                // Literal with incremental indexing.
                let (header, at) = self.decode_literal(block, pos, 6, false)?;
                self.table.insert(&header.name, &header.value);
                out.push(header);
                pos = at;
            } else if first & 0xe0 == 0x20 {
                // Dynamic table size update.
                let (size, at) = decode_int(block, pos, 5)?;
                let size = usize::try_from(size).map_err(|_| HpackError::IntegerOverflow)?;
                if size > self.protocol_max_table {
                    return Err(HpackError::TableSizeOverflow {
                        requested: size,
                        max: self.protocol_max_table,
                    });
                }
                self.table.set_max_size(size);
                pos = at;
            } else {
                // Literal without indexing (0000) or never indexed (0001).
                let never = first & 0x10 != 0;
                let (header, at) = self.decode_literal(block, pos, 4, never)?;
                out.push(header);
                pos = at;
            }
        }
        Ok(out)
    }

    fn decode_literal(
        &self,
        block: &[u8],
        pos: usize,
        prefix_bits: u8,
        never_indexed: bool,
    ) -> Result<(Header, usize), HpackError> {
        let (name_index, mut at) = decode_int(block, pos, prefix_bits)?;
        let name = if name_index == 0 {
            let (n, next) = decode_str(block, at, self.max_string)?;
            at = next;
            n
        } else {
            self.lookup(name_index)?.0
        };
        let (value, next) = decode_str(block, at, self.max_string)?;
        Ok((Header { name, value, never_indexed }, next))
    }
}

// --- encoder -----------------------------------------------------------

/// HPACK block encoder with its own dynamic table.
#[derive(Debug, Clone)]
pub struct Encoder {
    table: DynamicTable,
    /// Huffman-code strings when it saves bytes.
    pub use_huffman: bool,
    /// Add plain literals to the dynamic table (incremental indexing).
    /// When false, everything not already indexed goes out as
    /// literal-without-indexing.
    pub index_literals: bool,
}

impl Default for Encoder {
    fn default() -> Encoder {
        Encoder::new(DEFAULT_TABLE_SIZE)
    }
}

impl Encoder {
    /// An encoder with the given dynamic-table capacity.
    pub fn new(max_table: usize) -> Encoder {
        Encoder {
            table: DynamicTable::with_capacity(max_table),
            use_huffman: true,
            index_literals: true,
        }
    }

    /// The dynamic table (for inspection in tests).
    pub fn table(&self) -> &DynamicTable {
        &self.table
    }

    /// Emits a dynamic-table size update and resizes the local table.
    pub fn resize(&mut self, new_size: usize, out: &mut Vec<u8>) {
        self.table.set_max_size(new_size);
        encode_int(new_size as u64, 5, 0x20, out);
    }

    /// Static-table exact match (1-based index).
    fn static_find(name: &[u8], value: &[u8]) -> Option<u64> {
        STATIC_TABLE
            .iter()
            .position(|(n, v)| n.as_bytes() == name && v.as_bytes() == value)
            .map(|p| p as u64 + 1)
    }

    /// Static-table name match (1-based index of first entry).
    fn static_find_name(name: &[u8]) -> Option<u64> {
        STATIC_TABLE.iter().position(|(n, _)| n.as_bytes() == name).map(|p| p as u64 + 1)
    }

    /// Encodes one header block.
    pub fn encode_block(&mut self, headers: &[Header], out: &mut Vec<u8>) {
        for h in headers {
            self.encode_field(h, out);
        }
    }

    fn encode_field(&mut self, h: &Header, out: &mut Vec<u8>) {
        if h.never_indexed {
            let name_index = Self::static_find_name(&h.name)
                .or_else(|| self.table.find_name(&h.name).map(|p| (p + 62) as u64))
                .unwrap_or(0);
            encode_int(name_index, 4, 0x10, out);
            if name_index == 0 {
                encode_str(&h.name, self.use_huffman, out);
            }
            encode_str(&h.value, self.use_huffman, out);
            return;
        }
        if let Some(i) = Self::static_find(&h.name, &h.value) {
            encode_int(i, 7, 0x80, out);
            return;
        }
        if let Some(p) = self.table.find(&h.name, &h.value) {
            encode_int((p + 62) as u64, 7, 0x80, out);
            return;
        }
        let name_index = Self::static_find_name(&h.name)
            .or_else(|| self.table.find_name(&h.name).map(|p| (p + 62) as u64))
            .unwrap_or(0);
        if self.index_literals {
            encode_int(name_index, 6, 0x40, out);
        } else {
            encode_int(name_index, 4, 0x00, out);
        }
        if name_index == 0 {
            encode_str(&h.name, self.use_huffman, out);
        }
        encode_str(&h.value, self.use_huffman, out);
        if self.index_literals {
            self.table.insert(&h.name, &h.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(headers: &[Header]) -> Vec<Header> {
        let mut enc = Encoder::default();
        let mut block = Vec::new();
        enc.encode_block(headers, &mut block);
        Decoder::default().decode_block(&block).unwrap()
    }

    #[test]
    fn integer_primitive_round_trips() {
        for prefix in 1..=8u8 {
            for value in [0u64, 1, 9, 30, 31, 127, 128, 255, 16_383, 1 << 20, u64::MAX] {
                let mut out = Vec::new();
                encode_int(value, prefix, 0, &mut out);
                let (got, used) = decode_int(&out, 0, prefix).unwrap();
                assert_eq!((got, used), (value, out.len()), "prefix {prefix} value {value}");
            }
        }
    }

    #[test]
    fn rfc7541_c1_integer_examples() {
        // C.1.1: 10 with 5-bit prefix -> 0x0a.
        let mut out = Vec::new();
        encode_int(10, 5, 0, &mut out);
        assert_eq!(out, [0x0a]);
        // C.1.2: 1337 with 5-bit prefix -> 1f 9a 0a.
        out.clear();
        encode_int(1337, 5, 0, &mut out);
        assert_eq!(out, [0x1f, 0x9a, 0x0a]);
        // C.1.3: 42 with 8-bit prefix -> 0x2a.
        out.clear();
        encode_int(42, 8, 0, &mut out);
        assert_eq!(out, [0x2a]);
    }

    #[test]
    fn truncated_and_overlong_integers_are_rejected() {
        assert_eq!(decode_int(&[], 0, 7), Err(HpackError::TruncatedInteger));
        assert_eq!(decode_int(&[0x7f, 0x80, 0x80], 0, 7), Err(HpackError::TruncatedInteger));
        let mut evil = vec![0x7f];
        evil.extend(std::iter::repeat_n(0x80, 12));
        evil.push(0x01);
        assert_eq!(decode_int(&evil, 0, 7), Err(HpackError::IntegerOverflow));
    }

    #[test]
    fn string_caps_and_truncation() {
        let mut out = Vec::new();
        encode_str(b"hello world", false, &mut out);
        assert_eq!(decode_str(&out, 0, 1024).unwrap().0, b"hello world");
        assert_eq!(decode_str(&out, 0, 4), Err(HpackError::StringTooLong { declared: 11, max: 4 }));
        assert_eq!(
            decode_str(&out[..6], 0, 1024),
            Err(HpackError::TruncatedString { declared: 11, available: 5 })
        );
    }

    #[test]
    fn rfc7541_c3_requests_plain() {
        // C.3.1 first request: :method GET, :scheme http, :path /,
        // :authority www.example.com (literal w/ indexing, plain).
        let headers = [
            Header::new(":method", "GET"),
            Header::new(":scheme", "http"),
            Header::new(":path", "/"),
            Header::new(":authority", "www.example.com"),
        ];
        let mut enc = Encoder { use_huffman: false, ..Encoder::default() };
        let mut block = Vec::new();
        enc.encode_block(&headers, &mut block);
        let expected: Vec<u8> = {
            let mut v = vec![0x82, 0x86, 0x84, 0x41, 0x0f];
            v.extend_from_slice(b"www.example.com");
            v
        };
        assert_eq!(block, expected);
        assert_eq!(enc.table().len(), 1);
        assert_eq!(enc.table().size(), 57);
        let mut dec = Decoder::default();
        assert_eq!(dec.decode_block(&block).unwrap(), headers);
        assert_eq!(dec.table().size(), 57);
    }

    #[test]
    fn rfc7541_c4_requests_huffman() {
        let headers = [
            Header::new(":method", "GET"),
            Header::new(":scheme", "http"),
            Header::new(":path", "/"),
            Header::new(":authority", "www.example.com"),
        ];
        let mut enc = Encoder::default();
        let mut block = Vec::new();
        enc.encode_block(&headers, &mut block);
        assert_eq!(
            block,
            [
                0x82, 0x86, 0x84, 0x41, 0x8c, 0xf1, 0xe3, 0xc2, 0xe5, 0xf2, 0x3a, 0x6b, 0xa0, 0xab,
                0x90, 0xf4, 0xff
            ]
        );
        // Second request on the same connection reuses the table.
        let second = [
            Header::new(":method", "GET"),
            Header::new(":scheme", "http"),
            Header::new(":path", "/"),
            Header::new(":authority", "www.example.com"),
            Header::new("cache-control", "no-cache"),
        ];
        block.clear();
        enc.encode_block(&second, &mut block);
        assert_eq!(block, [0x82, 0x86, 0x84, 0xbe, 0x58, 0x86, 0xa8, 0xeb, 0x10, 0x64, 0x9c, 0xbf]);
    }

    #[test]
    fn never_indexed_survives_round_trip_and_stays_out_of_tables() {
        let headers = [
            Header::new(":method", "POST"),
            Header::sensitive("authorization", "Bearer s3cr3t"),
            Header::new("x-custom", "v"),
        ];
        let got = rt(&headers);
        assert_eq!(got, headers);
        let mut enc = Encoder::default();
        let mut block = Vec::new();
        enc.encode_block(&headers, &mut block);
        assert!(enc.table().find_name(b"authorization").is_none());
        assert!(enc.table().find_name(b"x-custom").is_some());
    }

    #[test]
    fn dynamic_table_evicts_in_fifo_order() {
        let mut t = DynamicTable::with_capacity(100);
        t.insert(b"aa", b"bb"); // 36
        t.insert(b"cc", b"dd"); // 36 (72 total)
        t.insert(b"ee", b"ff"); // 36 -> evicts (aa, bb)
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0), Some((&b"ee"[..], &b"ff"[..])));
        assert!(t.find(b"aa", b"bb").is_none());
        t.insert(b"x", &[b'y'; 200]); // larger than capacity: clears
        assert!(t.is_empty());
        assert_eq!(t.size(), 0);
    }

    #[test]
    fn table_size_update_is_bounded() {
        let mut block = Vec::new();
        encode_int(8192, 5, 0x20, &mut block);
        let err = Decoder::new(4096).decode_block(&block).unwrap_err();
        assert_eq!(err, HpackError::TableSizeOverflow { requested: 8192, max: 4096 });
        let mut ok = Vec::new();
        encode_int(0, 5, 0x20, &mut ok);
        let mut dec = Decoder::new(4096);
        dec.decode_block(&ok).unwrap();
        assert_eq!(dec.table().max_size(), 0);
    }

    #[test]
    fn invalid_indexes_are_rejected() {
        assert_eq!(Decoder::default().decode_block(&[0x80]), Err(HpackError::InvalidIndex(0)));
        let mut block = Vec::new();
        encode_int(99, 7, 0x80, &mut block);
        assert_eq!(Decoder::default().decode_block(&block), Err(HpackError::InvalidIndex(99)));
    }

    #[test]
    fn crlf_bytes_in_values_round_trip_unmolested() {
        // HPACK has no wire-level CRLF constraint — the downgrade layer
        // is what decides whether to reject these. The codec must carry
        // them faithfully.
        let headers = [Header::new("x-evil", "a\r\nx-injected: 1")];
        assert_eq!(rt(&headers), headers);
    }
}
