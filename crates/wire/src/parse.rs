//! RFC 7230-strict reference parser.
//!
//! It accepts exactly what the RFC grammar and its MUST-level requirements
//! allow, and reports a precise [`ParseError`] otherwise. It is not the
//! oracle detection uses: HDiff decides which side of a semantic gap
//! deviates by interpreting the bytes under the strict baseline profile
//! (`diff::baseline::baseline_profile()` through `servers::interpret`),
//! next to the product profiles. [`parse_request`] is the test oracle for
//! [`Request::to_bytes`](crate::Request::to_bytes) (`tests/properties.rs`,
//! `crates/wire/tests/wire_properties.rs`); [`parse_response`] frames the
//! responses that the socket layer's drive jobs and desync attribution,
//! and `hdiff probe <host:port>`, read.
//!
//! The parser also reports `consumed` — how many input bytes belong to the
//! parsed message. Disagreement about `consumed` between two implementations
//! reading the same byte stream is the essence of HTTP Request Smuggling.

use std::fmt;

use crate::ascii;
use crate::chunked::{decode_chunked, ChunkedDecodeOptions};
use crate::header::{HeaderField, Headers};
use crate::method::Method;
use crate::response::{Response, StatusCode};
use crate::uri::RequestTarget;
use crate::version::Version;

/// How the message body was framed (RFC 7230 §3.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// No body: neither `Content-Length` nor `Transfer-Encoding`.
    None,
    /// Body delimited by `Content-Length`.
    ContentLength(u64),
    /// Body delimited by chunked transfer coding.
    Chunked,
}

/// A strict-parse failure with the RFC section it violates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The request line did not match `method SP request-target SP HTTP-version`.
    MalformedRequestLine(Vec<u8>),
    /// The method token contained non-tchar bytes.
    InvalidMethod(Vec<u8>),
    /// The version token violated the `HTTP-version` grammar.
    InvalidVersion(Vec<u8>),
    /// Whitespace between field-name and colon (RFC 7230 §3.2.4: MUST
    /// respond 400).
    WhitespaceBeforeColon(Vec<u8>),
    /// A header line with no colon, or a non-token field name.
    MalformedHeader(Vec<u8>),
    /// Obsolete line folding (RFC 7230 §3.2.4: MUST reject or replace).
    ObsFold,
    /// An HTTP/1.1 request without a `Host` header (RFC 7230 §5.4).
    MissingHost,
    /// More than one `Host` header (RFC 7230 §5.4: MUST respond 400).
    MultipleHost,
    /// `Host` header value is not a valid `uri-host [":" port]`.
    InvalidHost(Vec<u8>),
    /// `Content-Length` was not a valid decimal, or duplicates disagreed.
    InvalidContentLength(Vec<u8>),
    /// Both `Content-Length` and `Transfer-Encoding` present (RFC 7230
    /// §3.3.3 flags this as a request-smuggling signal).
    ContentLengthWithTransferEncoding,
    /// `Transfer-Encoding` present but the final coding is not `chunked`.
    NonFinalChunked(Vec<u8>),
    /// An unknown transfer coding was listed.
    UnknownTransferCoding(Vec<u8>),
    /// The chunked body failed to decode.
    Chunked(crate::chunked::ChunkedError),
    /// Fewer body bytes than `Content-Length` declared.
    BodyTruncated {
        /// Bytes the header declared.
        declared: u64,
        /// Bytes actually available.
        available: usize,
    },
    /// Input ended before the header section terminator.
    UnexpectedEof,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MalformedRequestLine(l) => {
                write!(f, "malformed request line {:?}", ascii::escape_bytes(l))
            }
            ParseError::InvalidMethod(m) => {
                write!(f, "invalid method {:?}", ascii::escape_bytes(m))
            }
            ParseError::InvalidVersion(v) => {
                write!(f, "invalid http version {:?}", ascii::escape_bytes(v))
            }
            ParseError::WhitespaceBeforeColon(n) => {
                write!(f, "whitespace before colon in {:?}", ascii::escape_bytes(n))
            }
            ParseError::MalformedHeader(h) => {
                write!(f, "malformed header line {:?}", ascii::escape_bytes(h))
            }
            ParseError::ObsFold => f.write_str("obsolete line folding"),
            ParseError::MissingHost => f.write_str("http/1.1 request without host header"),
            ParseError::MultipleHost => f.write_str("multiple host headers"),
            ParseError::InvalidHost(h) => {
                write!(f, "invalid host value {:?}", ascii::escape_bytes(h))
            }
            ParseError::InvalidContentLength(v) => {
                write!(f, "invalid content-length {:?}", ascii::escape_bytes(v))
            }
            ParseError::ContentLengthWithTransferEncoding => {
                f.write_str("content-length together with transfer-encoding")
            }
            ParseError::NonFinalChunked(v) => {
                write!(f, "transfer-encoding without final chunked {:?}", ascii::escape_bytes(v))
            }
            ParseError::UnknownTransferCoding(v) => {
                write!(f, "unknown transfer coding {:?}", ascii::escape_bytes(v))
            }
            ParseError::Chunked(e) => write!(f, "chunked body error: {e}"),
            ParseError::BodyTruncated { declared, available } => {
                write!(f, "body truncated: declared {declared} bytes, got {available}")
            }
            ParseError::UnexpectedEof => f.write_str("unexpected end of input"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<crate::chunked::ChunkedError> for ParseError {
    fn from(e: crate::chunked::ChunkedError) -> Self {
        ParseError::Chunked(e)
    }
}

/// A strictly parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    /// Parsed method.
    pub method: Method,
    /// Classified request-target.
    pub target: RequestTarget,
    /// Parsed version.
    pub version: Version,
    /// Header fields in wire order.
    pub headers: Headers,
    /// Decoded body payload (after chunked decoding, if any).
    pub body: Vec<u8>,
    /// How the body was framed.
    pub framing: Framing,
    /// Bytes of input this message occupies. Input beyond `consumed` is the
    /// next pipelined message — or a smuggled one.
    pub consumed: usize,
}

impl ParsedRequest {
    /// Effective host per RFC 7230 §5.4: the authority of an absolute-form
    /// target takes precedence over the `Host` header.
    pub fn effective_host(&self) -> Option<Vec<u8>> {
        if let Some(a) = self.target.authority() {
            let auth = crate::uri::Authority::parse(a);
            return Some(auth.host.to_ascii_lowercase());
        }
        self.headers
            .first(b"Host")
            .map(|h| crate::uri::Authority::parse(h.value()).host.to_ascii_lowercase())
    }
}

/// A strictly parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedResponse {
    /// Parsed status code.
    pub status: StatusCode,
    /// Reason phrase bytes.
    pub reason: Vec<u8>,
    /// Version token.
    pub version: Version,
    /// Header fields in wire order.
    pub headers: Headers,
    /// Decoded body.
    pub body: Vec<u8>,
    /// Bytes consumed.
    pub consumed: usize,
}

impl From<ParsedResponse> for Response {
    fn from(p: ParsedResponse) -> Response {
        Response {
            status: p.status,
            reason: p.reason.into(),
            version: p.version.to_bytes().into(),
            headers: p.headers,
            body: p.body,
        }
    }
}

fn find_line(input: &[u8], pos: usize) -> Result<(usize, usize), ParseError> {
    // Returns (line_end_exclusive, next_pos). Strict: requires CRLF.
    let rel = ascii::find_crlf(&input[pos..]).ok_or(ParseError::UnexpectedEof)?;
    Ok((pos + rel, pos + rel + 2))
}

/// Strictly parses one request from `input` (RFC 7230).
///
/// # Errors
///
/// Any deviation from the grammar or from the MUST-level requirements the
/// paper's SR corpus covers produces the corresponding [`ParseError`].
pub fn parse_request(input: &[u8]) -> Result<ParsedRequest, ParseError> {
    let (line_end, mut pos) = find_line(input, 0)?;
    let line = &input[..line_end];

    let mut parts = line.split(|&b| b == b' ');
    let method_b = parts.next().unwrap_or_default();
    let target_b = parts.next().ok_or_else(|| ParseError::MalformedRequestLine(line.to_vec()))?;
    let version_b = parts.next().ok_or_else(|| ParseError::MalformedRequestLine(line.to_vec()))?;
    if parts.next().is_some() {
        return Err(ParseError::MalformedRequestLine(line.to_vec()));
    }
    if !ascii::is_token(method_b) {
        return Err(ParseError::InvalidMethod(method_b.to_vec()));
    }
    if target_b.is_empty() {
        return Err(ParseError::MalformedRequestLine(line.to_vec()));
    }
    let version = Version::from_bytes(version_b);
    if !version.is_grammatical() {
        return Err(ParseError::InvalidVersion(version_b.to_vec()));
    }

    // Header section.
    let mut headers = Headers::new();
    loop {
        let (h_end, next) = find_line(input, pos)?;
        let raw = &input[pos..h_end];
        pos = next;
        if raw.is_empty() {
            break;
        }
        if raw[0] == b' ' || raw[0] == b'\t' {
            return Err(ParseError::ObsFold);
        }
        let field = HeaderField::from_raw(raw.to_vec());
        if field.has_ws_before_colon() {
            return Err(ParseError::WhitespaceBeforeColon(field.name_raw().to_vec()));
        }
        if !field.name_is_strict() {
            return Err(ParseError::MalformedHeader(raw.to_vec()));
        }
        headers.push_field(field);
    }

    // Host requirements (RFC 7230 §5.4).
    let host_count = headers.count(b"Host");
    if version == Version::Http11 && host_count == 0 {
        return Err(ParseError::MissingHost);
    }
    if host_count > 1 {
        return Err(ParseError::MultipleHost);
    }
    if let Some(h) = headers.first(b"Host") {
        let auth = crate::uri::Authority::parse(h.value());
        if auth.userinfo.is_some()
            || !crate::uri::is_strict_uri_host(&auth.host)
            || auth.port.as_deref().is_some_and(|p| !p.iter().all(u8::is_ascii_digit))
        {
            return Err(ParseError::InvalidHost(h.value().to_vec()));
        }
    }

    // Body framing (RFC 7230 §3.3.3).
    let framing = determine_framing(&headers)?;
    let (body, consumed) = read_body(input, pos, framing)?;

    Ok(ParsedRequest {
        method: Method::from_bytes(method_b),
        target: RequestTarget::classify(target_b),
        version,
        headers,
        body,
        framing,
        consumed,
    })
}

fn determine_framing(headers: &Headers) -> Result<Framing, ParseError> {
    let te: Vec<&HeaderField> = headers.all(b"Transfer-Encoding").collect();
    let cl: Vec<&HeaderField> = headers.all(b"Content-Length").collect();

    if !te.is_empty() {
        if !cl.is_empty() {
            return Err(ParseError::ContentLengthWithTransferEncoding);
        }
        // Collect all codings across all TE headers, in order.
        let mut codings: Vec<Vec<u8>> = Vec::new();
        for f in &te {
            for part in f.value().split(|&b| b == b',') {
                let part = ascii::trim_ows(part);
                if !part.is_empty() {
                    codings.push(part.to_ascii_lowercase());
                }
            }
        }
        if codings.is_empty() {
            return Err(ParseError::NonFinalChunked(Vec::new()));
        }
        for c in &codings {
            if !matches!(
                c.as_slice(),
                b"chunked" | b"gzip" | b"deflate" | b"compress" | b"identity"
            ) {
                return Err(ParseError::UnknownTransferCoding(c.clone()));
            }
        }
        if codings.last().map(Vec::as_slice) != Some(b"chunked") {
            return Err(ParseError::NonFinalChunked(codings.last().cloned().unwrap_or_default()));
        }
        // `identity` is obsolete (removed from RFC 7230); strict parsers
        // reject it anywhere in the list.
        if codings.iter().any(|c| c == b"identity") {
            return Err(ParseError::UnknownTransferCoding(b"identity".to_vec()));
        }
        return Ok(Framing::Chunked);
    }

    if !cl.is_empty() {
        let mut value: Option<u64> = None;
        for f in &cl {
            // A single field may itself be a comma list (after duplicate
            // folding); RFC requires all values identical.
            for part in f.value().split(|&b| b == b',') {
                let part = ascii::trim_ows(part);
                let v = ascii::parse_dec_strict(part)
                    .ok_or_else(|| ParseError::InvalidContentLength(f.value().to_vec()))?;
                match value {
                    None => value = Some(v),
                    Some(prev) if prev == v => {}
                    Some(_) => {
                        return Err(ParseError::InvalidContentLength(f.value().to_vec()));
                    }
                }
            }
        }
        return Ok(Framing::ContentLength(value.expect("cl nonempty")));
    }

    Ok(Framing::None)
}

fn read_body(input: &[u8], pos: usize, framing: Framing) -> Result<(Vec<u8>, usize), ParseError> {
    match framing {
        Framing::None => Ok((Vec::new(), pos)),
        Framing::ContentLength(n) => {
            let n_usize = usize::try_from(n).map_err(|_| ParseError::BodyTruncated {
                declared: n,
                available: input.len() - pos,
            })?;
            if input.len() - pos < n_usize {
                return Err(ParseError::BodyTruncated {
                    declared: n,
                    available: input.len() - pos,
                });
            }
            Ok((input[pos..pos + n_usize].to_vec(), pos + n_usize))
        }
        Framing::Chunked => {
            let dec = decode_chunked(&input[pos..], &ChunkedDecodeOptions::strict())?;
            Ok((dec.payload, pos + dec.consumed))
        }
    }
}

/// Strictly parses one response from `input`.
///
/// # Errors
///
/// Returns [`ParseError`] on any grammar violation. Responses without
/// framing headers are read to end-of-input per RFC 7230 §3.3.3(7).
pub fn parse_response(input: &[u8]) -> Result<ParsedResponse, ParseError> {
    let (line_end, mut pos) = find_line(input, 0)?;
    let line = &input[..line_end];
    let mut parts = line.splitn(3, |&b| b == b' ');
    let version_b = parts.next().unwrap_or_default();
    let status_b = parts.next().ok_or_else(|| ParseError::MalformedRequestLine(line.to_vec()))?;
    let reason = parts.next().unwrap_or_default().to_vec();

    let version = Version::from_bytes(version_b);
    if !version.is_grammatical() {
        return Err(ParseError::InvalidVersion(version_b.to_vec()));
    }
    if status_b.len() != 3 || !status_b.iter().all(u8::is_ascii_digit) {
        return Err(ParseError::MalformedRequestLine(line.to_vec()));
    }
    let status = StatusCode(status_b.iter().fold(0u16, |acc, &b| acc * 10 + u16::from(b - b'0')));

    let mut headers = Headers::new();
    loop {
        let (h_end, next) = find_line(input, pos)?;
        let raw = &input[pos..h_end];
        pos = next;
        if raw.is_empty() {
            break;
        }
        let field = HeaderField::from_raw(raw.to_vec());
        if !field.name_is_strict() {
            return Err(ParseError::MalformedHeader(raw.to_vec()));
        }
        headers.push_field(field);
    }

    let framing = determine_framing(&headers)?;
    let (body, consumed) = match framing {
        Framing::None => (input[pos..].to_vec(), input.len()),
        other => read_body(input, pos, other)?,
    };

    Ok(ParsedResponse { status, reason, version, headers, body, consumed })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(s: &[u8]) -> Result<ParsedRequest, ParseError> {
        parse_request(s)
    }

    #[test]
    fn simple_get() {
        let p = req(b"GET /x HTTP/1.1\r\nHost: example.com\r\n\r\n").unwrap();
        assert_eq!(p.method, Method::Get);
        assert_eq!(p.version, Version::Http11);
        assert_eq!(p.framing, Framing::None);
        assert_eq!(p.effective_host().unwrap(), b"example.com");
        assert_eq!(p.consumed, b"GET /x HTTP/1.1\r\nHost: example.com\r\n\r\n".len());
    }

    #[test]
    fn content_length_body() {
        let p = req(b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhelloEXTRA").unwrap();
        assert_eq!(p.body, b"hello");
        assert_eq!(p.framing, Framing::ContentLength(5));
        // EXTRA is pipelined data, not part of this message.
        assert_eq!(
            p.consumed,
            b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello".len()
        );
    }

    #[test]
    fn chunked_body() {
        let p = req(b"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n")
            .unwrap();
        assert_eq!(p.body, b"abc");
        assert_eq!(p.framing, Framing::Chunked);
    }

    #[test]
    fn rejects_ws_before_colon() {
        let e = req(b"GET / HTTP/1.1\r\nHost : h\r\n\r\n").unwrap_err();
        assert!(matches!(e, ParseError::WhitespaceBeforeColon(_)));
    }

    #[test]
    fn rejects_cl_plus_te() {
        let e = req(b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n")
            .unwrap_err();
        assert_eq!(e, ParseError::ContentLengthWithTransferEncoding);
    }

    #[test]
    fn rejects_duplicate_differing_cl() {
        let e =
            req(b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\nContent-Length: 0\r\n\r\n")
                .unwrap_err();
        assert!(matches!(e, ParseError::InvalidContentLength(_)));
    }

    #[test]
    fn accepts_duplicate_identical_cl_as_list() {
        // `Content-Length: 5, 5` is the folded-duplicate recovery case.
        let p = req(b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 5, 5\r\n\r\nhello").unwrap();
        assert_eq!(p.framing, Framing::ContentLength(5));
    }

    #[test]
    fn rejects_bad_cl_values() {
        for v in [&b"+6"[..], b"6,9", b"0x10", b"ten", b""] {
            let mut m = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: ".to_vec();
            m.extend_from_slice(v);
            m.extend_from_slice(b"\r\n\r\n");
            assert!(matches!(req(&m).unwrap_err(), ParseError::InvalidContentLength(_)), "{v:?}");
        }
    }

    #[test]
    fn rejects_missing_host_on_11() {
        assert_eq!(req(b"GET / HTTP/1.1\r\n\r\n").unwrap_err(), ParseError::MissingHost);
        // but 1.0 has no such requirement
        assert!(req(b"GET / HTTP/1.0\r\n\r\n").is_ok());
    }

    #[test]
    fn rejects_multiple_host() {
        let e = req(b"GET / HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n").unwrap_err();
        assert_eq!(e, ParseError::MultipleHost);
    }

    #[test]
    fn rejects_invalid_host_values() {
        for v in [&b"h1.com@h2.com"[..], b"h1.com, h2.com", b"h1.com/../h2.com"] {
            let mut m = b"GET / HTTP/1.1\r\nHost: ".to_vec();
            m.extend_from_slice(v);
            m.extend_from_slice(b"\r\n\r\n");
            let e = req(&m).unwrap_err();
            assert!(matches!(e, ParseError::InvalidHost(_)), "{v:?} -> {e:?}");
        }
    }

    #[test]
    fn rejects_invalid_versions() {
        for v in [&b"1.1/HTTP"[..], b"HTTP/3-1", b"hTTP/1.1"] {
            let mut m = b"GET / ".to_vec();
            m.extend_from_slice(v);
            m.extend_from_slice(b"\r\nHost: h\r\n\r\n");
            assert!(matches!(req(&m).unwrap_err(), ParseError::InvalidVersion(_)), "{v:?}");
        }
    }

    #[test]
    fn rejects_obs_fold() {
        let e = req(b"GET / HTTP/1.1\r\nHost: a.com\r\n\tb.com\r\n\r\n").unwrap_err();
        assert_eq!(e, ParseError::ObsFold);
    }

    #[test]
    fn rejects_obsolete_identity_coding() {
        let e = req(b"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked, identity\r\n\r\n")
            .unwrap_err();
        assert!(matches!(e, ParseError::NonFinalChunked(_) | ParseError::UnknownTransferCoding(_)));
    }

    #[test]
    fn rejects_non_final_chunked() {
        let e = req(b"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked, gzip\r\n\r\n")
            .unwrap_err();
        assert!(matches!(e, ParseError::NonFinalChunked(_)));
    }

    #[test]
    fn rejects_malformed_te_value() {
        let e = req(b"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: \x0bchunked\r\n\r\n")
            .unwrap_err();
        assert!(matches!(e, ParseError::UnknownTransferCoding(_)));
    }

    #[test]
    fn absolute_form_host_precedence() {
        let p = req(b"GET http://h2.com/ HTTP/1.1\r\nHost: h1.com\r\n\r\n").unwrap();
        assert_eq!(p.effective_host().unwrap(), b"h2.com");
    }

    #[test]
    fn extra_spaces_in_request_line_rejected() {
        assert!(matches!(
            req(b"GET /  HTTP/1.1\r\nHost: h\r\n\r\n").unwrap_err(),
            ParseError::MalformedRequestLine(_)
        ));
        assert!(matches!(
            req(b"GET /?a=b 1.1/HTTP HTTP/1.0\r\nHost: h\r\n\r\n").unwrap_err(),
            ParseError::MalformedRequestLine(_)
        ));
    }

    #[test]
    fn body_truncation_reported() {
        let e = req(b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(e, ParseError::BodyTruncated { declared: 10, available: 3 });
    }

    #[test]
    fn response_parsing() {
        let r = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok").unwrap();
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.body, b"ok");
        assert_eq!(r.reason, b"OK");
    }

    #[test]
    fn response_without_framing_reads_to_eof() {
        let r = parse_response(b"HTTP/1.1 200 OK\r\n\r\neverything here").unwrap();
        assert_eq!(r.body, b"everything here");
    }

    #[test]
    fn response_chunked() {
        let r = parse_response(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nhi\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(r.body, b"hi");
    }

    #[test]
    fn response_bad_status() {
        assert!(parse_response(b"HTTP/1.1 2x0 OK\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 9999 OK\r\n\r\n").is_err());
    }
}
