//! The connection-stream model the fuzzer evolves.
//!
//! A [`Stream`] is an ordered sequence of requests delivered over one
//! client connection. Each request carries a [`Delivery`] directive —
//! sent whole, segmented at explicit byte offsets, or truncated at a
//! byte offset with the *rest of the stream still following* — plus a
//! pipelining flag (sent back-to-back with its predecessor without
//! awaiting the response). Truncate-then-continue is the load-bearing
//! directive: cutting a `Content-Length` body short makes the next
//! request's bytes become body remainder under one framing model and a
//! fresh request under another, which is exactly the request-boundary
//! confusion the Table II vectors weaponize.
//!
//! The canonical execution semantics of a stream are its
//! [`Stream::effective_bytes`]: the concatenation of every request's
//! delivered bytes, in order. That is what one keep-alive connection
//! carries on the wire, what `Workflow::run_bytes_faulted` parses
//! message-by-message in the sim, and what the wire transport sends —
//! so a promoted stream replays identically over `sim` and `tcp-async`
//! (segment boundaries shape delivery timing, never bytes).

use std::fmt;
use std::io;

use hdiff_diff::json::{push_json_str, Json, Parser};

/// Stream codec format version.
pub const STREAM_FORMAT_VERSION: u64 = 1;

/// How one request's bytes are delivered on the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// One contiguous write.
    Whole,
    /// Split into `offsets.len() + 1` writes at the given byte offsets
    /// (strictly ascending, each in `1..len`).
    Segmented(Vec<usize>),
    /// Only the first `n` bytes (`n <= len`) are delivered; the stream
    /// continues with the next request immediately after the cut.
    TruncateAt(usize),
}

impl Delivery {
    /// Stable tag used by the codec and reports.
    pub fn tag(&self) -> &'static str {
        match self {
            Delivery::Whole => "whole",
            Delivery::Segmented(_) => "segmented",
            Delivery::TruncateAt(_) => "truncate",
        }
    }
}

/// One request on the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRequest {
    /// Raw request bytes (non-empty).
    pub bytes: Vec<u8>,
    /// Delivery directive.
    pub delivery: Delivery,
    /// Sent back-to-back with the previous request without awaiting its
    /// response (meaningless — and kept `false` — on the first request).
    pub pipelined: bool,
}

impl StreamRequest {
    /// A whole, non-pipelined request.
    pub fn whole(bytes: Vec<u8>) -> StreamRequest {
        StreamRequest { bytes, delivery: Delivery::Whole, pipelined: false }
    }

    /// The bytes this request actually puts on the connection.
    pub fn delivered_bytes(&self) -> &[u8] {
        match self.delivery {
            Delivery::TruncateAt(n) => &self.bytes[..n.min(self.bytes.len())],
            _ => &self.bytes,
        }
    }

    /// Whether the delivery directive is in-bounds for the bytes.
    pub fn well_formed(&self) -> bool {
        if self.bytes.is_empty() {
            return false;
        }
        match &self.delivery {
            Delivery::Whole => true,
            Delivery::Segmented(offsets) => {
                !offsets.is_empty()
                    && offsets.windows(2).all(|w| w[0] < w[1])
                    && offsets.iter().all(|&o| o >= 1 && o < self.bytes.len())
            }
            Delivery::TruncateAt(n) => *n <= self.bytes.len(),
        }
    }

    /// Clamps the delivery directive back in-bounds after a byte-level
    /// mutation changed the request's length.
    pub fn repair_delivery(&mut self) {
        let len = self.bytes.len();
        match &mut self.delivery {
            Delivery::Whole => {}
            Delivery::Segmented(offsets) => {
                offsets.retain(|&o| o >= 1 && o < len);
                offsets.sort_unstable();
                offsets.dedup();
                if offsets.is_empty() {
                    self.delivery = Delivery::Whole;
                }
            }
            Delivery::TruncateAt(n) => *n = (*n).min(len),
        }
    }
}

/// An ordered multi-request connection stream — the unit the fuzzer
/// schedules, mutates, minimizes, and promotes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// The requests, in connection order (non-empty).
    pub requests: Vec<StreamRequest>,
}

impl Stream {
    /// A single whole request.
    pub fn single(bytes: Vec<u8>) -> Stream {
        Stream { requests: vec![StreamRequest::whole(bytes)] }
    }

    /// The well-formedness invariants every mutation preserves: a
    /// non-empty pipelined batch of non-empty requests, segment offsets
    /// in-bounds and ascending, truncation points `<= len`, and the
    /// first request never marked pipelined.
    pub fn well_formed(&self) -> bool {
        !self.requests.is_empty()
            && self.requests.iter().all(StreamRequest::well_formed)
            && !self.requests[0].pipelined
    }

    /// Re-establishes [`Stream::well_formed`] after structural
    /// mutations: drops empty requests, repairs deliveries, and clears
    /// the first request's pipelined flag. Returns `false` when nothing
    /// survives (the caller should discard the mutant).
    pub fn repair(&mut self) -> bool {
        self.requests.retain(|r| !r.bytes.is_empty());
        if self.requests.is_empty() {
            return false;
        }
        for r in &mut self.requests {
            r.repair_delivery();
        }
        self.requests[0].pipelined = false;
        true
    }

    /// The canonical byte stream this connection carries: every
    /// request's delivered bytes, concatenated in order.
    pub fn effective_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for r in &self.requests {
            out.extend_from_slice(r.delivered_bytes());
        }
        out
    }

    /// Total byte length across all requests (pre-truncation).
    pub fn raw_len(&self) -> usize {
        self.requests.iter().map(|r| r.bytes.len()).sum()
    }

    /// FNV-1a structural digest over requests, deliveries and flags —
    /// the corpus identity used by determinism gates.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut write = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            for b in (bytes.len() as u64).to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for r in &self.requests {
            write(&r.bytes);
            write(r.delivery.tag().as_bytes());
            match &r.delivery {
                Delivery::Whole => {}
                Delivery::Segmented(offsets) => {
                    for &o in offsets {
                        write(&(o as u64).to_le_bytes());
                    }
                }
                Delivery::TruncateAt(n) => write(&(*n as u64).to_le_bytes()),
            }
            write(&[u8::from(r.pipelined)]);
        }
        h
    }

    /// Serializes the stream as a canonical JSON document (one line,
    /// fixed key order) so round-trips are byte-exact.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{{\"version\":{STREAM_FORMAT_VERSION},\"requests\":["));
        for (i, r) in self.requests.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"bytes_hex\":");
            push_json_str(&mut out, &hex_encode(&r.bytes));
            out.push_str(",\"delivery\":");
            match &r.delivery {
                Delivery::Whole => out.push_str("{\"kind\":\"whole\"}"),
                Delivery::Segmented(offsets) => {
                    out.push_str("{\"kind\":\"segmented\",\"offsets\":[");
                    for (j, o) in offsets.iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        out.push_str(&o.to_string());
                    }
                    out.push_str("]}");
                }
                Delivery::TruncateAt(n) => {
                    out.push_str(&format!("{{\"kind\":\"truncate\",\"at\":{n}}}"));
                }
            }
            out.push_str(&format!(",\"pipelined\":{}}}", r.pipelined));
        }
        out.push_str("]}\n");
        out
    }

    /// Parses a stream back from its JSON form.
    pub fn from_json(bytes: &[u8]) -> io::Result<Stream> {
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let doc = Parser::new(bytes).value()?;
        let version = doc.get("version").and_then(Json::as_u64).ok_or_else(|| bad("version"))?;
        if version != STREAM_FORMAT_VERSION {
            return Err(bad(&format!("unsupported stream version {version}")));
        }
        let reqs = doc.get("requests").and_then(Json::as_arr).ok_or_else(|| bad("requests"))?;
        let mut requests = Vec::with_capacity(reqs.len());
        for r in reqs {
            let hex = r.get("bytes_hex").and_then(Json::as_str).ok_or_else(|| bad("bytes_hex"))?;
            let bytes = hex_decode(hex).ok_or_else(|| bad("bytes_hex"))?;
            let delivery = r.get("delivery").ok_or_else(|| bad("delivery"))?;
            let kind = delivery.get("kind").and_then(Json::as_str).ok_or_else(|| bad("kind"))?;
            let delivery = match kind {
                "whole" => Delivery::Whole,
                "segmented" => {
                    let offsets = delivery
                        .get("offsets")
                        .and_then(Json::as_arr)
                        .ok_or_else(|| bad("offsets"))?
                        .iter()
                        .map(|o| o.as_u64().map(|v| v as usize))
                        .collect::<Option<Vec<usize>>>()
                        .ok_or_else(|| bad("offsets"))?;
                    Delivery::Segmented(offsets)
                }
                "truncate" => Delivery::TruncateAt(
                    delivery.get("at").and_then(Json::as_u64).ok_or_else(|| bad("at"))? as usize,
                ),
                other => return Err(bad(&format!("unknown delivery kind {other:?}"))),
            };
            let pipelined =
                r.get("pipelined").and_then(Json::as_bool).ok_or_else(|| bad("pipelined"))?;
            requests.push(StreamRequest { bytes, delivery, pipelined });
        }
        Ok(Stream { requests })
    }
}

impl fmt::Display for Stream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream[{} req, {} bytes]", self.requests.len(), self.effective_bytes().len())
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let raw = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in raw.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Stream {
        Stream {
            requests: vec![
                StreamRequest {
                    bytes: b"GET / HTTP/1.1\r\nHost: a\r\n\r\n".to_vec(),
                    delivery: Delivery::Segmented(vec![4, 9]),
                    pipelined: false,
                },
                StreamRequest {
                    bytes: b"POST /x HTTP/1.1\r\nHost: b\r\nContent-Length: 3\r\n\r\nabc".to_vec(),
                    delivery: Delivery::TruncateAt(20),
                    pipelined: true,
                },
            ],
        }
    }

    #[test]
    fn effective_bytes_concats_and_truncates() {
        let s = sample();
        let eff = s.effective_bytes();
        assert!(eff.starts_with(b"GET / HTTP/1.1\r\nHost: a\r\n\r\n"));
        assert_eq!(eff.len(), 27 + 20);
    }

    #[test]
    fn codec_round_trips_byte_exactly() {
        let s = sample();
        let json = s.to_json();
        let back = Stream::from_json(json.as_bytes()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn invariants_catch_out_of_bounds() {
        let mut s = sample();
        assert!(s.well_formed());
        s.requests[0].delivery = Delivery::Segmented(vec![0]);
        assert!(!s.well_formed());
        s.requests[0].delivery = Delivery::Segmented(vec![5, 5]);
        assert!(!s.well_formed());
        s.requests[0].delivery = Delivery::TruncateAt(10_000);
        assert!(!s.well_formed());
        s.requests[0].repair_delivery();
        assert!(s.well_formed());
    }

    #[test]
    fn repair_restores_invariants() {
        let mut s = sample();
        s.requests[0].delivery = Delivery::Segmented(vec![0, 4, 4, 9, 10_000]);
        s.requests.push(StreamRequest::whole(Vec::new()));
        s.requests[1].pipelined = true;
        assert!(s.repair());
        assert!(s.well_formed());
        assert_eq!(s.requests.len(), 2);
        assert_eq!(s.requests[0].delivery, Delivery::Segmented(vec![4, 9]));
    }

    #[test]
    fn digest_distinguishes_delivery_shapes() {
        let whole = Stream::single(b"GET / HTTP/1.1\r\nHost: a\r\n\r\n".to_vec());
        let mut seg = whole.clone();
        seg.requests[0].delivery = Delivery::Segmented(vec![4]);
        let mut cut = whole.clone();
        cut.requests[0].delivery = Delivery::TruncateAt(4);
        assert_ne!(whole.digest(), seg.digest());
        assert_ne!(whole.digest(), cut.digest());
        assert_ne!(seg.digest(), cut.digest());
    }
}
