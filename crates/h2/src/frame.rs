//! HTTP/2 frame layer (RFC 9113 §4): the 9-octet frame header codec,
//! the frame types the downgrade campaign exchanges, and the client
//! connection preface.
//!
//! Only the subset of the protocol a request/response exchange needs is
//! modeled — no priority tree, no server push, no flow-control
//! accounting beyond parsing WINDOW_UPDATE. Unknown frame types are
//! carried through (RFC 9113 §4.1 requires ignoring them), so a parser
//! built on this layer discards rather than rejects them.

use crate::error::{H2Error, H2ErrorKind};

/// The client connection preface (RFC 9113 §3.4).
pub const PREFACE: &[u8] = b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";

/// Length of the fixed frame header.
pub const FRAME_HEADER_LEN: usize = 9;

/// Default SETTINGS_MAX_FRAME_SIZE (RFC 9113 §6.5.2). Frames longer
/// than this are rejected with `FRAME_SIZE_ERROR` semantics.
pub const DEFAULT_MAX_FRAME_SIZE: usize = 16_384;

/// Frame flags used by this subset.
pub mod flags {
    /// DATA / HEADERS: last frame of the stream.
    pub const END_STREAM: u8 = 0x01;
    /// SETTINGS / PING: acknowledgement.
    pub const ACK: u8 = 0x01;
    /// HEADERS / CONTINUATION: last header-block fragment.
    pub const END_HEADERS: u8 = 0x04;
    /// DATA / HEADERS: payload carries a pad-length prefix.
    pub const PADDED: u8 = 0x08;
    /// HEADERS: payload carries priority fields.
    pub const PRIORITY: u8 = 0x20;
}

/// The frame types of RFC 9113 §6. `Unknown` carries anything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    Data,
    Headers,
    Priority,
    RstStream,
    Settings,
    PushPromise,
    Ping,
    Goaway,
    WindowUpdate,
    Continuation,
    /// A type this subset does not model; receivers must ignore it.
    Unknown(u8),
}

impl FrameType {
    /// The wire code.
    pub fn code(self) -> u8 {
        match self {
            FrameType::Data => 0x0,
            FrameType::Headers => 0x1,
            FrameType::Priority => 0x2,
            FrameType::RstStream => 0x3,
            FrameType::Settings => 0x4,
            FrameType::PushPromise => 0x5,
            FrameType::Ping => 0x6,
            FrameType::Goaway => 0x7,
            FrameType::WindowUpdate => 0x8,
            FrameType::Continuation => 0x9,
            FrameType::Unknown(code) => code,
        }
    }

    /// Decodes a wire code.
    pub fn from_code(code: u8) -> FrameType {
        match code {
            0x0 => FrameType::Data,
            0x1 => FrameType::Headers,
            0x2 => FrameType::Priority,
            0x3 => FrameType::RstStream,
            0x4 => FrameType::Settings,
            0x5 => FrameType::PushPromise,
            0x6 => FrameType::Ping,
            0x7 => FrameType::Goaway,
            0x8 => FrameType::WindowUpdate,
            0x9 => FrameType::Continuation,
            other => FrameType::Unknown(other),
        }
    }
}

impl std::fmt::Display for FrameType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameType::Data => write!(f, "DATA"),
            FrameType::Headers => write!(f, "HEADERS"),
            FrameType::Priority => write!(f, "PRIORITY"),
            FrameType::RstStream => write!(f, "RST_STREAM"),
            FrameType::Settings => write!(f, "SETTINGS"),
            FrameType::PushPromise => write!(f, "PUSH_PROMISE"),
            FrameType::Ping => write!(f, "PING"),
            FrameType::Goaway => write!(f, "GOAWAY"),
            FrameType::WindowUpdate => write!(f, "WINDOW_UPDATE"),
            FrameType::Continuation => write!(f, "CONTINUATION"),
            FrameType::Unknown(code) => write!(f, "UNKNOWN({code:#x})"),
        }
    }
}

/// The fixed 9-octet frame header: 24-bit payload length, 8-bit type,
/// 8-bit flags, reserved bit + 31-bit stream identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Payload length (24 bits on the wire).
    pub length: u32,
    /// Frame type.
    pub kind: FrameType,
    /// Type-specific flags.
    pub flags: u8,
    /// Stream identifier (31 bits; the reserved bit is dropped on
    /// decode and sent as zero on encode).
    pub stream_id: u32,
}

impl FrameHeader {
    /// Appends the 9 header octets to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push((self.length >> 16) as u8);
        out.push((self.length >> 8) as u8);
        out.push(self.length as u8);
        out.push(self.kind.code());
        out.push(self.flags);
        let sid = self.stream_id & 0x7fff_ffff;
        out.extend_from_slice(&sid.to_be_bytes());
    }

    /// Decodes 9 octets. Only fails when fewer than 9 bytes are given.
    pub fn decode(bytes: &[u8]) -> Result<FrameHeader, H2Error> {
        if bytes.len() < FRAME_HEADER_LEN {
            return Err(H2Error::new(
                H2ErrorKind::Truncated,
                format!("frame header needs 9 octets, got {}", bytes.len()),
            ));
        }
        let length = (u32::from(bytes[0]) << 16) | (u32::from(bytes[1]) << 8) | u32::from(bytes[2]);
        let kind = FrameType::from_code(bytes[3]);
        let flags = bytes[4];
        let stream_id = u32::from_be_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]) & 0x7fff_ffff;
        Ok(FrameHeader { length, kind, flags, stream_id })
    }

    /// Whether `flag` is set.
    pub fn has_flag(&self, flag: u8) -> bool {
        self.flags & flag != 0
    }
}

/// A whole frame: header plus owned payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub header: FrameHeader,
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a frame, filling in the payload length.
    pub fn new(kind: FrameType, flags: u8, stream_id: u32, payload: Vec<u8>) -> Frame {
        Frame {
            header: FrameHeader { length: payload.len() as u32, kind, flags, stream_id },
            payload,
        }
    }

    /// Appends the wire form (header + payload) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        debug_assert_eq!(self.header.length as usize, self.payload.len());
        self.header.encode(out);
        out.extend_from_slice(&self.payload);
    }

    /// The wire form as a fresh buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + self.payload.len());
        self.encode(&mut out);
        out
    }
}

/// One SETTINGS parameter (identifier, value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Setting {
    pub id: u16,
    pub value: u32,
}

/// SETTINGS identifiers this subset knows by name.
pub mod settings {
    pub const HEADER_TABLE_SIZE: u16 = 0x1;
    pub const ENABLE_PUSH: u16 = 0x2;
    pub const MAX_CONCURRENT_STREAMS: u16 = 0x3;
    pub const INITIAL_WINDOW_SIZE: u16 = 0x4;
    pub const MAX_FRAME_SIZE: u16 = 0x5;
    pub const MAX_HEADER_LIST_SIZE: u16 = 0x6;
}

/// Encodes a SETTINGS frame from parameter pairs.
pub fn settings_frame(params: &[Setting], ack: bool) -> Frame {
    let mut payload = Vec::with_capacity(params.len() * 6);
    for p in params {
        payload.extend_from_slice(&p.id.to_be_bytes());
        payload.extend_from_slice(&p.value.to_be_bytes());
    }
    let flags = if ack { flags::ACK } else { 0 };
    Frame::new(FrameType::Settings, flags, 0, payload)
}

/// Decodes a SETTINGS payload into parameter pairs. The payload length
/// must be a multiple of six (RFC 9113 §6.5).
pub fn parse_settings(payload: &[u8]) -> Result<Vec<Setting>, H2Error> {
    if !payload.len().is_multiple_of(6) {
        return Err(H2Error::new(
            H2ErrorKind::Malformed,
            format!("SETTINGS payload length {} not a multiple of 6", payload.len()),
        ));
    }
    Ok(payload
        .chunks_exact(6)
        .map(|c| Setting {
            id: u16::from_be_bytes([c[0], c[1]]),
            value: u32::from_be_bytes([c[2], c[3], c[4], c[5]]),
        })
        .collect())
}

/// Encodes an RST_STREAM frame.
pub fn rst_stream_frame(stream_id: u32, error_code: u32) -> Frame {
    Frame::new(FrameType::RstStream, 0, stream_id, error_code.to_be_bytes().to_vec())
}

/// Error codes (RFC 9113 §7) used by this subset.
pub mod error_code {
    pub const NO_ERROR: u32 = 0x0;
    pub const PROTOCOL_ERROR: u32 = 0x1;
    pub const FRAME_SIZE_ERROR: u32 = 0x6;
    pub const COMPRESSION_ERROR: u32 = 0x9;
}

/// Splits the next whole frame off the front of `buf`.
///
/// Returns `Ok(None)` when the buffer holds only a partial frame;
/// `Ok(Some((frame, consumed)))` on success. A frame whose declared
/// length exceeds `max_frame_size` is rejected before waiting for its
/// payload, so a lying length cannot stall the parser.
pub fn split_frame(buf: &[u8], max_frame_size: usize) -> Result<Option<(Frame, usize)>, H2Error> {
    if buf.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let header = FrameHeader::decode(buf)?;
    let len = header.length as usize;
    if len > max_frame_size {
        return Err(H2Error::new(
            H2ErrorKind::FrameTooLarge,
            format!("{} frame of {len} bytes exceeds max frame size {max_frame_size}", header.kind),
        ));
    }
    let total = FRAME_HEADER_LEN + len;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = buf[FRAME_HEADER_LEN..total].to_vec();
    Ok(Some((Frame { header, payload }, total)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = FrameHeader {
            length: 0x01_02_03,
            kind: FrameType::Headers,
            flags: flags::END_HEADERS | flags::END_STREAM,
            stream_id: 0x7fff_fffe,
        };
        let mut wire = Vec::new();
        h.encode(&mut wire);
        assert_eq!(wire.len(), FRAME_HEADER_LEN);
        assert_eq!(FrameHeader::decode(&wire).unwrap(), h);
    }

    #[test]
    fn reserved_bit_is_dropped() {
        let mut wire = Vec::new();
        FrameHeader { length: 0, kind: FrameType::Ping, flags: 0, stream_id: 5 }.encode(&mut wire);
        wire[5] |= 0x80; // set the reserved bit on the wire
        assert_eq!(FrameHeader::decode(&wire).unwrap().stream_id, 5);
    }

    #[test]
    fn split_frame_handles_partials_and_oversize() {
        let frame = Frame::new(FrameType::Data, flags::END_STREAM, 1, b"hello".to_vec());
        let wire = frame.to_bytes();
        for cut in 0..wire.len() {
            assert!(split_frame(&wire[..cut], DEFAULT_MAX_FRAME_SIZE).unwrap().is_none());
        }
        let (parsed, used) = split_frame(&wire, DEFAULT_MAX_FRAME_SIZE).unwrap().unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(parsed, frame);
        let err = split_frame(&wire, 3).unwrap_err();
        assert_eq!(err.kind, H2ErrorKind::FrameTooLarge);
    }

    #[test]
    fn settings_round_trip() {
        let params = [
            Setting { id: settings::MAX_FRAME_SIZE, value: 16_384 },
            Setting { id: settings::ENABLE_PUSH, value: 0 },
        ];
        let frame = settings_frame(&params, false);
        assert_eq!(parse_settings(&frame.payload).unwrap(), params);
        assert!(parse_settings(&frame.payload[..5]).is_err());
    }

    #[test]
    fn unknown_frame_types_round_trip() {
        assert_eq!(FrameType::from_code(0xbe), FrameType::Unknown(0xbe));
        assert_eq!(FrameType::from_code(0xbe).code(), 0xbe);
        for code in 0..=9u8 {
            assert_eq!(FrameType::from_code(code).code(), code);
        }
    }
}
