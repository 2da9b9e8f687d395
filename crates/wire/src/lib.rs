//! HTTP/1.1 wire message model for HDiff.
//!
//! This crate defines the byte-exact message representation every other part
//! of HDiff works with. HDiff deliberately generates *malformed* HTTP — a
//! convenient high-level `http`-style API would round-trip away exactly the
//! ambiguity the framework needs to preserve. Everything here is therefore
//! byte-oriented:
//!
//! * [`Request`] / [`Response`] — ordered, duplicate-preserving, byte-exact
//!   messages with explicit serialization ([`Request::to_bytes`]).
//! * [`HeaderField`] — one raw header line; the *name* may legitimately
//!   contain trailing whitespace or control bytes, because that is precisely
//!   the kind of input HDiff tests.
//! * [`ByteView`] — a cheaply clonable view into a shared immutable
//!   buffer: how an interpretation quotes the message it parsed.
//! * [`parse`] — an RFC 7230-strict request and response parser. Detection
//!   does not use it: the strict baseline that attributes deviations is a
//!   `hdiff-servers` profile. [`parse_request`] is the test oracle for
//!   [`Request::to_bytes`]; [`parse_response`] frames the responses the
//!   socket layer and `hdiff probe` read.
//! * [`chunked`] — chunked transfer-coding encoder and a decoder with
//!   configurable error-recovery semantics, mirroring the "message repair"
//!   behaviors the paper exploits (§IV-B *Bad chunk-size value*).
//! * [`uri`] — request-target and `Host` parsing (origin/absolute/authority/
//!   asterisk forms) with the ambiguity knobs needed for Host-of-Troubles.
//!
//! # Example
//!
//! ```
//! use hdiff_wire::{Request, Method, Version};
//!
//! let req = Request::builder()
//!     .method(Method::Get)
//!     .target("/index.html")
//!     .version(Version::Http11)
//!     .header("Host", "example.com")
//!     .build();
//! let bytes = req.to_bytes();
//! assert!(bytes.starts_with(b"GET /index.html HTTP/1.1\r\n"));
//! ```

pub mod ascii;
pub mod chunked;
pub mod header;
pub mod method;
pub mod parse;
pub mod request;
pub mod response;
pub mod uri;
pub mod version;
pub mod view;

pub use chunked::{
    decode_chunked, decode_chunked_into, encode_chunked, ChunkedDecodeOptions, ChunkedError,
    OverflowBehavior,
};
pub use header::{HeaderField, Headers};
pub use method::Method;
pub use parse::{parse_request, parse_response, ParseError, ParsedRequest, ParsedResponse};
pub use request::{Request, RequestBuilder};
pub use response::{Response, StatusCode};
pub use uri::{Authority, HostParseOptions, RequestTarget};
pub use version::Version;
pub use view::ByteView;

/// Carriage-return/line-feed line terminator used throughout HTTP/1.x.
pub const CRLF: &[u8] = b"\r\n";
