//! Connection-level codec: whole h2 client connections as byte
//! buffers, and the stream-state machine that validates them.
//!
//! The downgrade campaign treats an h2 *case* as the full cleartext
//! (prior-knowledge h2c) client connection: preface, SETTINGS, then one
//! or more request exchanges. [`encode_client_connection`] renders a
//! request list into those bytes deterministically — same requests and
//! options, same bytes, always — and [`parse_client_connection`] is the
//! front end's view: it validates framing and stream-state rules,
//! decodes HPACK, and yields the received requests in stream order.
//!
//! The response direction ([`encode_server_connection`] /
//! [`parse_server_connection`]) carries enough of the exchange for the
//! TCP front end and `hdiff probe --protocol h2` to complete a real
//! round trip.

use std::collections::BTreeMap;

use crate::error::{H2Error, H2ErrorKind};
use crate::frame::{
    self, flags, settings_frame, split_frame, Frame, FrameType, Setting, DEFAULT_MAX_FRAME_SIZE,
    PREFACE,
};
use crate::hpack::{Decoder, Encoder, Header};

/// One h2 request: the header list exactly as it appears in the header
/// block (pseudo-headers included, order preserved) plus the
/// concatenated DATA payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct H2Request {
    pub headers: Vec<Header>,
    pub body: Vec<u8>,
}

impl H2Request {
    /// A GET-shaped request with the usual pseudo-header quartet.
    pub fn get(path: &str, authority: &str) -> H2Request {
        H2Request {
            headers: vec![
                Header::new(":method", "GET"),
                Header::new(":scheme", "http"),
                Header::new(":path", path),
                Header::new(":authority", authority),
            ],
            body: Vec::new(),
        }
    }

    /// A POST-shaped request carrying `body`.
    pub fn post(path: &str, authority: &str, body: impl Into<Vec<u8>>) -> H2Request {
        H2Request {
            headers: vec![
                Header::new(":method", "POST"),
                Header::new(":scheme", "http"),
                Header::new(":path", path),
                Header::new(":authority", authority),
            ],
            body: body.into(),
        }
    }

    /// Appends a regular header field.
    pub fn with_header(mut self, name: &str, value: &str) -> H2Request {
        self.headers.push(Header::new(name, value));
        self
    }

    /// First header with the given name (byte-exact match).
    pub fn header(&self, name: &str) -> Option<&[u8]> {
        self.headers.iter().find(|h| h.name == name.as_bytes()).map(|h| h.value.as_slice())
    }

    /// All values carried under the given name, in order.
    pub fn header_all(&self, name: &str) -> Vec<&[u8]> {
        self.headers
            .iter()
            .filter(|h| h.name == name.as_bytes())
            .map(|h| h.value.as_slice())
            .collect()
    }

    /// `:method`, defaulting to GET when absent.
    pub fn method(&self) -> &[u8] {
        self.header(":method").unwrap_or(b"GET")
    }

    /// `:path`, defaulting to `/` when absent.
    pub fn path(&self) -> &[u8] {
        self.header(":path").unwrap_or(b"/")
    }

    /// `:authority`, when present.
    pub fn authority(&self) -> Option<&[u8]> {
        self.header(":authority")
    }
}

/// How stream ids and frame boundaries are chosen when rendering a
/// connection. All fields have deterministic defaults; two encodes of
/// the same `(requests, options)` are byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodeOptions {
    /// Huffman-code HPACK strings when it saves bytes.
    pub use_huffman: bool,
    /// Split DATA into frames of at most this many bytes.
    pub data_chunk: usize,
    /// When nonzero, split the header block into HEADERS +
    /// CONTINUATION fragments of at most this many bytes.
    pub header_chunk: usize,
    /// Client SETTINGS parameters sent after the preface.
    pub settings: Vec<Setting>,
}

impl Default for EncodeOptions {
    fn default() -> EncodeOptions {
        EncodeOptions { use_huffman: true, data_chunk: 1024, header_chunk: 0, settings: Vec::new() }
    }
}

/// Renders whole client connection bytes: preface, SETTINGS, then each
/// request on streams 1, 3, 5, … . One shared HPACK encoder spans the
/// connection, exactly like a real client.
pub fn encode_client_connection(requests: &[H2Request], opts: &EncodeOptions) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(PREFACE);
    settings_frame(&opts.settings, false).encode(&mut out);
    let mut hpack = Encoder::default();
    hpack.use_huffman = opts.use_huffman;
    for (i, req) in requests.iter().enumerate() {
        let stream_id = (2 * i + 1) as u32;
        let mut block = Vec::new();
        hpack.encode_block(&req.headers, &mut block);
        let end_stream = if req.body.is_empty() { flags::END_STREAM } else { 0 };
        if opts.header_chunk > 0 && block.len() > opts.header_chunk {
            let mut chunks = block.chunks(opts.header_chunk).peekable();
            let first = chunks.next().expect("block is non-empty");
            Frame::new(FrameType::Headers, end_stream, stream_id, first.to_vec()).encode(&mut out);
            while let Some(chunk) = chunks.next() {
                let f = if chunks.peek().is_none() { flags::END_HEADERS } else { 0 };
                Frame::new(FrameType::Continuation, f, stream_id, chunk.to_vec()).encode(&mut out);
            }
        } else {
            Frame::new(FrameType::Headers, flags::END_HEADERS | end_stream, stream_id, block)
                .encode(&mut out);
        }
        if !req.body.is_empty() {
            let chunk = opts.data_chunk.max(1);
            let n = req.body.len().div_ceil(chunk);
            for (j, data) in req.body.chunks(chunk).enumerate() {
                let f = if j + 1 == n { flags::END_STREAM } else { 0 };
                Frame::new(FrameType::Data, f, stream_id, data.to_vec()).encode(&mut out);
            }
        }
    }
    out
}

/// Stream states (the request-relevant subset of RFC 9113 §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamState {
    Idle,
    Open,
    /// Client sent END_STREAM; request complete.
    HalfClosedRemote,
    /// Reset or finished.
    Closed,
}

/// Server-side stream-state bookkeeping for a client connection.
#[derive(Debug, Default)]
pub struct StreamMachine {
    states: BTreeMap<u32, StreamState>,
    highest: u32,
}

impl StreamMachine {
    /// Current state of a stream.
    pub fn state(&self, id: u32) -> StreamState {
        *self.states.get(&id).unwrap_or(&StreamState::Idle)
    }

    /// A HEADERS block arrived (first or trailers).
    pub fn recv_headers(&mut self, id: u32, end_stream: bool) -> Result<(), H2Error> {
        if id == 0 || id.is_multiple_of(2) {
            return Err(H2Error::new(
                H2ErrorKind::Malformed,
                format!("HEADERS on invalid client stream id {id}"),
            ));
        }
        match self.state(id) {
            StreamState::Idle => {
                if id <= self.highest {
                    return Err(H2Error::new(
                        H2ErrorKind::StreamState,
                        format!("stream id {id} not above highest opened {}", self.highest),
                    ));
                }
                self.highest = id;
                let next =
                    if end_stream { StreamState::HalfClosedRemote } else { StreamState::Open };
                self.states.insert(id, next);
                Ok(())
            }
            StreamState::Open => {
                // Trailers: legal only when they end the stream.
                if !end_stream {
                    return Err(H2Error::new(
                        H2ErrorKind::StreamState,
                        format!("trailers without END_STREAM on stream {id}"),
                    ));
                }
                self.states.insert(id, StreamState::HalfClosedRemote);
                Ok(())
            }
            s => Err(H2Error::new(
                H2ErrorKind::StreamState,
                format!("HEADERS on stream {id} in state {s:?}"),
            )),
        }
    }

    /// A DATA frame arrived.
    pub fn recv_data(&mut self, id: u32, end_stream: bool) -> Result<(), H2Error> {
        match self.state(id) {
            StreamState::Open => {
                if end_stream {
                    self.states.insert(id, StreamState::HalfClosedRemote);
                }
                Ok(())
            }
            s => Err(H2Error::new(
                H2ErrorKind::StreamState,
                format!("DATA on stream {id} in state {s:?}"),
            )),
        }
    }

    /// An RST_STREAM arrived.
    pub fn recv_rst(&mut self, id: u32) -> Result<(), H2Error> {
        if self.state(id) == StreamState::Idle {
            return Err(H2Error::new(
                H2ErrorKind::StreamState,
                format!("RST_STREAM on idle stream {id}"),
            ));
        }
        self.states.insert(id, StreamState::Closed);
        Ok(())
    }
}

/// One received request with its stream id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    pub stream_id: u32,
    pub request: H2Request,
    /// Whether a trailer HEADERS block contributed fields.
    pub had_trailers: bool,
}

/// Everything a front end learns from one client connection.
#[derive(Debug, Clone, Default)]
pub struct ClientConnection {
    /// Client SETTINGS parameters (first frame).
    pub settings: Vec<Setting>,
    /// Completed requests in stream order.
    pub requests: Vec<ParsedRequest>,
    /// Streams reset by the client before completing.
    pub resets: Vec<u32>,
    /// Total frames parsed.
    pub frames: usize,
    /// Whether the client sent GOAWAY.
    pub goaway: bool,
}

/// Strips DATA/HEADERS padding and the optional HEADERS priority
/// fields, returning the real fragment.
fn strip_padding_and_priority(
    header: &frame::FrameHeader,
    payload: &[u8],
) -> Result<Vec<u8>, H2Error> {
    let mut start = 0usize;
    let mut end = payload.len();
    if header.has_flag(flags::PADDED) {
        let pad = *payload.first().ok_or_else(|| {
            H2Error::new(H2ErrorKind::Malformed, "PADDED frame with empty payload")
        })? as usize;
        start = 1;
        if pad >= payload.len() {
            return Err(H2Error::new(
                H2ErrorKind::Malformed,
                format!("pad length {pad} >= payload length {}", payload.len()),
            ));
        }
        end = payload.len() - pad;
    }
    if header.kind == FrameType::Headers && header.has_flag(flags::PRIORITY) {
        if end - start < 5 {
            return Err(H2Error::new(H2ErrorKind::Malformed, "HEADERS priority fields truncated"));
        }
        start += 5;
    }
    if start > end {
        return Err(H2Error::new(H2ErrorKind::Malformed, "padding overlaps priority fields"));
    }
    Ok(payload[start..end].to_vec())
}

/// Parses whole client connection bytes as a front end would: preface,
/// SETTINGS, frames, HPACK, stream states. Fails with a typed error at
/// the first protocol violation — the downgrade profiles translate that
/// into their HTTP/1.1-facing behavior.
pub fn parse_client_connection(bytes: &[u8]) -> Result<ClientConnection, H2Error> {
    let rest = bytes
        .strip_prefix(PREFACE)
        .ok_or_else(|| H2Error::new(H2ErrorKind::Malformed, "missing or corrupt client preface"))?;
    let mut conn = ClientConnection::default();
    let mut machine = StreamMachine::default();
    let mut hpack = Decoder::default();
    // (stream id, end_stream flag, accumulated fragments)
    let mut pending_block: Option<(u32, bool, Vec<u8>)> = None;
    // Streams with headers decoded but END_STREAM not yet seen.
    let mut in_flight: BTreeMap<u32, ParsedRequest> = BTreeMap::new();
    let mut completed: Vec<ParsedRequest> = Vec::new();
    let mut pos = 0usize;
    let mut saw_settings = false;

    while pos < rest.len() {
        let (frame, used) = match split_frame(&rest[pos..], DEFAULT_MAX_FRAME_SIZE)? {
            Some(x) => x,
            None => {
                return Err(H2Error::new(
                    H2ErrorKind::Truncated,
                    format!("partial frame at offset {}", PREFACE.len() + pos),
                ))
            }
        };
        pos += used;
        conn.frames += 1;
        let h = frame.header;

        if !saw_settings && h.kind != FrameType::Settings {
            return Err(H2Error::new(
                H2ErrorKind::Malformed,
                format!("first frame after preface is {} not SETTINGS", h.kind),
            ));
        }
        if let Some((cont_id, _, _)) = pending_block {
            if h.kind != FrameType::Continuation || h.stream_id != cont_id {
                return Err(H2Error::new(
                    H2ErrorKind::Malformed,
                    format!(
                        "expected CONTINUATION on stream {cont_id}, got {} on stream {}",
                        h.kind, h.stream_id
                    ),
                ));
            }
        }

        match h.kind {
            FrameType::Settings => {
                if h.stream_id != 0 {
                    return Err(H2Error::new(
                        H2ErrorKind::Malformed,
                        format!("SETTINGS on stream {}", h.stream_id),
                    ));
                }
                if !h.has_flag(flags::ACK) {
                    let params = frame::parse_settings(&frame.payload)?;
                    if !saw_settings {
                        conn.settings = params;
                    }
                }
                saw_settings = true;
            }
            FrameType::Headers => {
                let fragment = strip_padding_and_priority(&h, &frame.payload)?;
                let end_stream = h.has_flag(flags::END_STREAM);
                if h.has_flag(flags::END_HEADERS) {
                    finish_block(
                        h.stream_id,
                        end_stream,
                        &fragment,
                        &mut machine,
                        &mut hpack,
                        &mut in_flight,
                        &mut completed,
                    )?;
                } else {
                    pending_block = Some((h.stream_id, end_stream, fragment));
                }
            }
            FrameType::Continuation => {
                let (id, end_stream, mut buf) = pending_block.take().expect("checked above");
                buf.extend_from_slice(&frame.payload);
                if h.has_flag(flags::END_HEADERS) {
                    finish_block(
                        id,
                        end_stream,
                        &buf,
                        &mut machine,
                        &mut hpack,
                        &mut in_flight,
                        &mut completed,
                    )?;
                } else {
                    pending_block = Some((id, end_stream, buf));
                }
            }
            FrameType::Data => {
                let end_stream = h.has_flag(flags::END_STREAM);
                machine.recv_data(h.stream_id, end_stream)?;
                let data = strip_padding_and_priority(&h, &frame.payload)?;
                let req = in_flight.get_mut(&h.stream_id).ok_or_else(|| {
                    H2Error::new(
                        H2ErrorKind::StreamState,
                        format!("DATA on stream {} with no open request", h.stream_id),
                    )
                })?;
                req.request.body.extend_from_slice(&data);
                if end_stream {
                    let req = in_flight.remove(&h.stream_id).expect("present above");
                    completed.push(req);
                }
            }
            FrameType::RstStream => {
                machine.recv_rst(h.stream_id)?;
                in_flight.remove(&h.stream_id);
                conn.resets.push(h.stream_id);
            }
            FrameType::Goaway => {
                conn.goaway = true;
                break;
            }
            // Flow control, pings, priority and unknown extension
            // frames do not affect request reconstruction.
            FrameType::WindowUpdate
            | FrameType::Ping
            | FrameType::Priority
            | FrameType::PushPromise
            | FrameType::Unknown(_) => {}
        }
    }

    if let Some((id, _, _)) = pending_block {
        return Err(H2Error::new(
            H2ErrorKind::Truncated,
            format!("header block on stream {id} never finished (END_HEADERS missing)"),
        ));
    }
    if let Some((&id, _)) = in_flight.iter().next() {
        return Err(H2Error::new(
            H2ErrorKind::Truncated,
            format!("stream {id} still open at end of connection (no END_STREAM)"),
        ));
    }
    completed.sort_by_key(|r| r.stream_id);
    conn.requests = completed;
    Ok(conn)
}

/// Decodes a finished header block and attributes it to its stream as
/// either the request headers or trailers.
fn finish_block(
    stream_id: u32,
    end_stream: bool,
    block: &[u8],
    machine: &mut StreamMachine,
    hpack: &mut Decoder,
    in_flight: &mut BTreeMap<u32, ParsedRequest>,
    completed: &mut Vec<ParsedRequest>,
) -> Result<(), H2Error> {
    let trailers = machine.state(stream_id) == StreamState::Open;
    machine.recv_headers(stream_id, end_stream)?;
    let headers = hpack
        .decode_block(block)
        .map_err(|e| H2Error::new(H2ErrorKind::Compression, e.to_string()))?;
    if trailers {
        let req = in_flight.get_mut(&stream_id).ok_or_else(|| {
            H2Error::new(
                H2ErrorKind::StreamState,
                format!("trailers on stream {stream_id} with no open request"),
            )
        })?;
        req.request.headers.extend(headers);
        req.had_trailers = true;
        if end_stream {
            let req = in_flight.remove(&stream_id).expect("present above");
            completed.push(req);
        }
        return Ok(());
    }
    let parsed = ParsedRequest {
        stream_id,
        request: H2Request { headers, body: Vec::new() },
        had_trailers: false,
    };
    if end_stream {
        completed.push(parsed);
    } else {
        in_flight.insert(stream_id, parsed);
    }
    Ok(())
}

/// One h2 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct H2Response {
    pub status: u16,
    pub headers: Vec<Header>,
    pub body: Vec<u8>,
}

impl H2Response {
    /// A response with a body and no extra headers.
    pub fn new(status: u16, body: impl Into<Vec<u8>>) -> H2Response {
        H2Response { status, headers: Vec::new(), body: body.into() }
    }
}

/// Renders the server side of a connection: server SETTINGS, a SETTINGS
/// ACK, then per-stream HEADERS(+DATA) responses in the given order.
pub fn encode_server_connection(responses: &[(u32, H2Response)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    settings_frame(&[], false).encode(&mut out);
    settings_frame(&[], true).encode(&mut out);
    let mut hpack = Encoder::default();
    for (stream_id, resp) in responses {
        let mut fields = vec![Header::new(":status", resp.status.to_string())];
        fields.extend(resp.headers.iter().cloned());
        let mut block = Vec::new();
        hpack.encode_block(&fields, &mut block);
        let end = if resp.body.is_empty() { flags::END_STREAM } else { 0 };
        Frame::new(FrameType::Headers, flags::END_HEADERS | end, *stream_id, block)
            .encode(&mut out);
        if !resp.body.is_empty() {
            Frame::new(FrameType::Data, flags::END_STREAM, *stream_id, resp.body.clone())
                .encode(&mut out);
        }
    }
    out
}

/// Parses the server side of a connection (what a client or probe
/// reads back): responses per stream, tolerating SETTINGS/ACK/GOAWAY
/// around them. Incomplete trailing bytes are an error.
pub fn parse_server_connection(bytes: &[u8]) -> Result<Vec<(u32, H2Response)>, H2Error> {
    let mut hpack = Decoder::default();
    let mut pos = 0usize;
    let mut open: BTreeMap<u32, H2Response> = BTreeMap::new();
    let mut done: Vec<(u32, H2Response)> = Vec::new();
    while pos < bytes.len() {
        let (frame, used) = match split_frame(&bytes[pos..], DEFAULT_MAX_FRAME_SIZE)? {
            Some(x) => x,
            None => {
                return Err(H2Error::new(
                    H2ErrorKind::Truncated,
                    format!("partial frame at offset {pos}"),
                ))
            }
        };
        pos += used;
        let h = frame.header;
        match h.kind {
            FrameType::Headers => {
                let fragment = strip_padding_and_priority(&h, &frame.payload)?;
                if !h.has_flag(flags::END_HEADERS) {
                    return Err(H2Error::new(
                        H2ErrorKind::Malformed,
                        "fragmented response header blocks are not modeled",
                    ));
                }
                let fields = hpack
                    .decode_block(&fragment)
                    .map_err(|e| H2Error::new(H2ErrorKind::Compression, e.to_string()))?;
                let status = fields
                    .iter()
                    .find(|f| f.name == b":status")
                    .and_then(|f| std::str::from_utf8(&f.value).ok())
                    .and_then(|s| s.parse::<u16>().ok())
                    .ok_or_else(|| {
                        H2Error::new(H2ErrorKind::Malformed, "response without :status")
                    })?;
                let resp = H2Response {
                    status,
                    headers: fields.into_iter().filter(|f| !f.is_pseudo()).collect(),
                    body: Vec::new(),
                };
                if h.has_flag(flags::END_STREAM) {
                    done.push((h.stream_id, resp));
                } else {
                    open.insert(h.stream_id, resp);
                }
            }
            FrameType::Data => {
                let data = strip_padding_and_priority(&h, &frame.payload)?;
                if let Some(resp) = open.get_mut(&h.stream_id) {
                    resp.body.extend_from_slice(&data);
                    if h.has_flag(flags::END_STREAM) {
                        let resp = open.remove(&h.stream_id).expect("present above");
                        done.push((h.stream_id, resp));
                    }
                }
            }
            FrameType::Goaway => break,
            _ => {}
        }
    }
    done.extend(open);
    done.sort_by_key(|(id, _)| *id);
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_request_round_trips() {
        let req = H2Request::post("/submit", "example.com", b"hello".to_vec())
            .with_header("content-type", "text/plain");
        let bytes = encode_client_connection(std::slice::from_ref(&req), &EncodeOptions::default());
        assert!(bytes.starts_with(PREFACE));
        let conn = parse_client_connection(&bytes).unwrap();
        assert_eq!(conn.requests.len(), 1);
        assert_eq!(conn.requests[0].stream_id, 1);
        assert_eq!(conn.requests[0].request, req);
    }

    #[test]
    fn multiple_requests_share_the_hpack_connection_state() {
        let reqs = vec![
            H2Request::get("/a", "example.com").with_header("x-shared", "same-value"),
            H2Request::get("/b", "example.com").with_header("x-shared", "same-value"),
        ];
        let bytes = encode_client_connection(&reqs, &EncodeOptions::default());
        let conn = parse_client_connection(&bytes).unwrap();
        assert_eq!(conn.requests.len(), 2);
        assert_eq!(conn.requests[0].stream_id, 1);
        assert_eq!(conn.requests[1].stream_id, 3);
        assert_eq!(conn.requests[0].request.headers, reqs[0].headers);
        assert_eq!(conn.requests[1].request.headers, reqs[1].headers);
    }

    #[test]
    fn continuation_split_produces_identical_requests() {
        let req = H2Request::get("/long", "example.com")
            .with_header("x-padding", &"v".repeat(200))
            .with_header("x-more", &"w".repeat(200));
        let whole = encode_client_connection(std::slice::from_ref(&req), &EncodeOptions::default());
        let split = encode_client_connection(
            std::slice::from_ref(&req),
            &EncodeOptions { header_chunk: 32, ..EncodeOptions::default() },
        );
        assert_ne!(whole, split);
        let a = parse_client_connection(&whole).unwrap();
        let b = parse_client_connection(&split).unwrap();
        assert_eq!(a.requests[0].request, b.requests[0].request);
    }

    #[test]
    fn data_chunking_is_reassembled() {
        let body: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        let req = H2Request::post("/up", "example.com", body.clone());
        let bytes = encode_client_connection(
            std::slice::from_ref(&req),
            &EncodeOptions { data_chunk: 100, ..EncodeOptions::default() },
        );
        let conn = parse_client_connection(&bytes).unwrap();
        assert_eq!(conn.requests[0].request.body, body);
    }

    #[test]
    fn encoding_is_deterministic() {
        let reqs = vec![
            H2Request::get("/a", "h").with_header("k", "v"),
            H2Request::post("/b", "h", b"body".to_vec()),
        ];
        let opts = EncodeOptions::default();
        assert_eq!(encode_client_connection(&reqs, &opts), encode_client_connection(&reqs, &opts));
    }

    #[test]
    fn bad_preface_is_rejected() {
        let err = parse_client_connection(b"GET / HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err.kind, H2ErrorKind::Malformed);
        assert!(err.detail.contains("preface"));
    }

    #[test]
    fn first_frame_must_be_settings() {
        let mut bytes = PREFACE.to_vec();
        Frame::new(FrameType::Ping, 0, 0, vec![0; 8]).encode(&mut bytes);
        let err = parse_client_connection(&bytes).unwrap_err();
        assert!(err.detail.contains("SETTINGS"), "{err}");
    }

    #[test]
    fn unfinished_stream_is_truncated() {
        let req = H2Request::post("/x", "h", b"body".to_vec());
        let bytes = encode_client_connection(std::slice::from_ref(&req), &EncodeOptions::default());
        // Drop the final DATA frame.
        let cut = bytes.len() - (frame::FRAME_HEADER_LEN + 4);
        let err = parse_client_connection(&bytes[..cut]).unwrap_err();
        assert_eq!(err.kind, H2ErrorKind::Truncated);
    }

    #[test]
    fn stream_machine_enforces_monotonic_ids() {
        let mut m = StreamMachine::default();
        m.recv_headers(5, true).unwrap();
        let err = m.recv_headers(3, true).unwrap_err();
        assert_eq!(err.kind, H2ErrorKind::StreamState);
        assert!(m.recv_headers(4, true).is_err(), "even ids rejected");
        assert!(m.recv_headers(0, true).is_err(), "stream 0 rejected");
    }

    #[test]
    fn data_before_headers_is_a_stream_error() {
        let mut bytes = PREFACE.to_vec();
        settings_frame(&[], false).encode(&mut bytes);
        Frame::new(FrameType::Data, flags::END_STREAM, 1, b"x".to_vec()).encode(&mut bytes);
        let err = parse_client_connection(&bytes).unwrap_err();
        assert_eq!(err.kind, H2ErrorKind::StreamState);
    }

    #[test]
    fn trailers_are_appended_to_the_header_list() {
        let req = H2Request::post("/t", "h", b"hello".to_vec());
        let mut bytes =
            encode_client_connection(std::slice::from_ref(&req), &{ EncodeOptions::default() });
        // Rewrite: build manually to add trailers after DATA without
        // END_STREAM on the data frame.
        bytes.clear();
        bytes.extend_from_slice(PREFACE);
        settings_frame(&[], false).encode(&mut bytes);
        let mut enc = Encoder::default();
        let mut block = Vec::new();
        enc.encode_block(&req.headers, &mut block);
        Frame::new(FrameType::Headers, flags::END_HEADERS, 1, block).encode(&mut bytes);
        Frame::new(FrameType::Data, 0, 1, b"hello".to_vec()).encode(&mut bytes);
        let mut trailer_block = Vec::new();
        enc.encode_block(&[Header::new("x-checksum", "abc")], &mut trailer_block);
        Frame::new(FrameType::Headers, flags::END_HEADERS | flags::END_STREAM, 1, trailer_block)
            .encode(&mut bytes);
        let conn = parse_client_connection(&bytes).unwrap();
        assert_eq!(conn.requests.len(), 1);
        assert!(conn.requests[0].had_trailers);
        assert_eq!(conn.requests[0].request.header("x-checksum"), Some(&b"abc"[..]));
        assert_eq!(conn.requests[0].request.body, b"hello");
    }

    #[test]
    fn rst_stream_discards_the_request() {
        let mut bytes = PREFACE.to_vec();
        settings_frame(&[], false).encode(&mut bytes);
        let mut enc = Encoder::default();
        let mut block = Vec::new();
        enc.encode_block(&H2Request::post("/x", "h", b"b".to_vec()).headers, &mut block);
        Frame::new(FrameType::Headers, flags::END_HEADERS, 1, block).encode(&mut bytes);
        frame::rst_stream_frame(1, frame::error_code::PROTOCOL_ERROR).encode(&mut bytes);
        let conn = parse_client_connection(&bytes).unwrap();
        assert!(conn.requests.is_empty());
        assert_eq!(conn.resets, vec![1]);
    }

    #[test]
    fn response_connection_round_trips() {
        let responses = vec![
            (1u32, H2Response::new(200, b"ok".to_vec())),
            (3u32, H2Response::new(404, Vec::new())),
        ];
        let bytes = encode_server_connection(&responses);
        assert_eq!(parse_server_connection(&bytes).unwrap(), responses);
    }

    #[test]
    fn padded_frames_are_stripped() {
        let mut bytes = PREFACE.to_vec();
        settings_frame(&[], false).encode(&mut bytes);
        let mut enc = Encoder::default();
        let mut block = Vec::new();
        enc.encode_block(&H2Request::post("/p", "h", Vec::new()).headers, &mut block);
        Frame::new(FrameType::Headers, flags::END_HEADERS, 1, block).encode(&mut bytes);
        // Hand-build a padded DATA frame: padlen 3, "abc", 3 pad bytes.
        let mut payload = vec![3u8];
        payload.extend_from_slice(b"abc");
        payload.extend_from_slice(&[0, 0, 0]);
        Frame::new(FrameType::Data, flags::END_STREAM | flags::PADDED, 1, payload)
            .encode(&mut bytes);
        let conn = parse_client_connection(&bytes).unwrap();
        assert_eq!(conn.requests[0].request.body, b"abc");
    }
}
