//! HTTP/2 framing and HPACK for HDiff's downgrade-desync campaigns.
//!
//! Real production chains terminate HTTP/2 at the edge and *downgrade*
//! to HTTP/1.1 upstream; the translation is a semantic-gap surface the
//! paper's pure-h1 catalog predates. This crate supplies the protocol
//! substrate for interrogating it, zero-dependency like the rest of the
//! workspace:
//!
//! * [`frame`] — the 9-octet frame header codec, the frame-type subset a
//!   request/response exchange needs (DATA, HEADERS, CONTINUATION,
//!   SETTINGS, RST_STREAM, GOAWAY, WINDOW_UPDATE), and the client
//!   connection preface.
//! * [`huffman`] — RFC 7541 Appendix B coding, derived canonically from
//!   the length table with a completeness self-check and pinned to the
//!   RFC's Appendix C vectors.
//! * [`hpack`] — prefix integers, string literals, the 61-entry static
//!   table, the size-bounded dynamic table, and hardened
//!   encoder/decoder (truncation, overflow, index and table-size abuse
//!   are typed errors).
//! * [`conn`] — whole client connections as deterministic byte buffers
//!   ([`conn::encode_client_connection`]) and the front-end view that
//!   parses them back under stream-state rules
//!   ([`conn::parse_client_connection`]), plus the response direction
//!   for the TCP front end and `hdiff probe --protocol h2`.
//!
//! The downgrade *policy* layer — how a front end translates a parsed
//! [`conn::H2Request`] into HTTP/1.1 bytes — deliberately lives in
//! `hdiff-servers` with the other behavioral models; this crate only
//! says what was on the wire.

pub mod conn;
pub mod error;
pub mod frame;
pub mod hpack;
pub mod huffman;

pub use conn::{
    encode_client_connection, encode_server_connection, parse_client_connection,
    parse_server_connection, ClientConnection, EncodeOptions, H2Request, H2Response, ParsedRequest,
    StreamMachine, StreamState,
};
pub use error::{H2Error, H2ErrorKind};
pub use frame::{
    split_frame, Frame, FrameHeader, FrameType, Setting, DEFAULT_MAX_FRAME_SIZE, FRAME_HEADER_LEN,
    PREFACE,
};
pub use hpack::{Decoder, DynamicTable, Encoder, Header, HpackError};
