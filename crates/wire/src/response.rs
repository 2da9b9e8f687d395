//! HTTP response representation.

use std::borrow::Cow;
use std::fmt;

use crate::ascii;
use crate::header::Headers;

/// An HTTP status code, kept as a bare `u16` newtype so simulated products
/// can emit any code (including non-IANA ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 400 Bad Request — the RFC-mandated rejection code for most of the
    /// malformed messages HDiff generates.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 404 Not Found.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 408 Request Timeout — what a back-end sends when framing leaves it
    /// waiting for body bytes that never arrive.
    pub const REQUEST_TIMEOUT: StatusCode = StatusCode(408);
    /// 411 Length Required.
    pub const LENGTH_REQUIRED: StatusCode = StatusCode(411);
    /// 413 Payload Too Large (header/body oversize).
    pub const PAYLOAD_TOO_LARGE: StatusCode = StatusCode(413);
    /// 417 Expectation Failed.
    pub const EXPECTATION_FAILED: StatusCode = StatusCode(417);
    /// 421 Misdirected Request.
    pub const MISDIRECTED: StatusCode = StatusCode(421);
    /// 426 Upgrade Required.
    pub const UPGRADE_REQUIRED: StatusCode = StatusCode(426);
    /// 500 Internal Server Error.
    pub const INTERNAL_ERROR: StatusCode = StatusCode(500);
    /// 501 Not Implemented.
    pub const NOT_IMPLEMENTED: StatusCode = StatusCode(501);
    /// 502 Bad Gateway — a proxy's report of an unusable upstream reply.
    pub const BAD_GATEWAY: StatusCode = StatusCode(502);
    /// 505 HTTP Version Not Supported.
    pub const VERSION_NOT_SUPPORTED: StatusCode = StatusCode(505);

    /// The numeric code.
    pub fn as_u16(self) -> u16 {
        self.0
    }

    /// Whether this is a 2xx success code.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// Whether this is a 4xx client error.
    pub fn is_client_error(self) -> bool {
        (400..500).contains(&self.0)
    }

    /// Whether this is a 5xx server error.
    pub fn is_server_error(self) -> bool {
        (500..600).contains(&self.0)
    }

    /// Whether this is any error class (4xx or 5xx) — what the CPDoS model
    /// looks for in a cached response.
    pub fn is_error(self) -> bool {
        self.is_client_error() || self.is_server_error()
    }

    /// A canonical reason phrase for common codes; empty otherwise.
    pub fn reason(self) -> &'static str {
        match self.0 {
            100 => "Continue",
            200 => "OK",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            408 => "Request Timeout",
            411 => "Length Required",
            413 => "Payload Too Large",
            417 => "Expectation Failed",
            421 => "Misdirected Request",
            426 => "Upgrade Required",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            502 => "Bad Gateway",
            505 => "HTTP Version Not Supported",
            _ => "",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u16> for StatusCode {
    fn from(v: u16) -> Self {
        StatusCode(v)
    }
}

/// A byte-exact HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code of the status line.
    pub status: StatusCode,
    /// Reason phrase (may be empty): borrowed for the canonical phrase,
    /// owned for one read off the wire.
    pub reason: Cow<'static, [u8]>,
    /// Version token on the status line: borrowed for `HTTP/1.1`, owned
    /// for one read off the wire.
    pub version: Cow<'static, [u8]>,
    /// Header fields in wire order.
    pub headers: Headers,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// Builds a response with the canonical reason phrase and HTTP/1.1.
    pub fn new(status: StatusCode) -> Response {
        Response {
            status,
            reason: Cow::Borrowed(status.reason().as_bytes()),
            version: Cow::Borrowed(b"HTTP/1.1"),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// Builds a response with a body and a matching `Content-Length`.
    pub fn with_body(status: StatusCode, body: impl Into<Vec<u8>>) -> Response {
        const NAME: &[u8] = b"Content-Length: ";
        let body = body.into();
        let mut r = Response::new(status);
        let mut field = Vec::with_capacity(NAME.len() + 20);
        field.extend_from_slice(NAME);
        ascii::push_dec(&mut field, body.len() as u64);
        r.headers.push_raw(field);
        r.body = body;
        r
    }

    /// Serializes the response: status line, headers, blank line, body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.version);
        out.push(b' ');
        ascii::push_dec(&mut out, u64::from(self.status.0));
        if !self.reason.is_empty() {
            out.push(b' ');
            out.extend_from_slice(&self.reason);
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.headers.to_bytes());
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.status, String::from_utf8_lossy(&self.reason))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_classes() {
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::BAD_REQUEST.is_client_error());
        assert!(StatusCode::BAD_GATEWAY.is_server_error());
        assert!(StatusCode::BAD_REQUEST.is_error());
        assert!(StatusCode::INTERNAL_ERROR.is_error());
        assert!(!StatusCode::OK.is_error());
    }

    #[test]
    fn serialization() {
        let r = Response::with_body(StatusCode::OK, "hi");
        assert_eq!(r.to_bytes(), b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi");
    }

    #[test]
    fn empty_reason_omits_space() {
        let mut r = Response::new(StatusCode(299));
        r.reason = Cow::Borrowed(b"");
        assert!(r.to_bytes().starts_with(b"HTTP/1.1 299\r\n"));
    }

    #[test]
    fn canonical_reason_and_version_are_borrowed() {
        let r = Response::new(StatusCode::BAD_REQUEST);
        assert!(matches!(r.reason, Cow::Borrowed(b"Bad Request")));
        assert!(matches!(r.version, Cow::Borrowed(b"HTTP/1.1")));
    }

    #[test]
    fn reason_phrases() {
        assert_eq!(StatusCode::BAD_REQUEST.reason(), "Bad Request");
        assert_eq!(StatusCode(299).reason(), "");
        assert_eq!(StatusCode::from(417).reason(), "Expectation Failed");
    }
}
