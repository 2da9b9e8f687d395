//! Typed reject reasons and decisions: what the engine logs about a
//! message (the "logs" of Fig. 6).
//!
//! Every rejection is a [`RejectReason`] and every lenient choice or
//! repair a [`Decision`], one variant per policy axis and per repair. A
//! variant that quotes the message carries a [`ByteView`] of the bytes it
//! quotes, so recording a decision copies nothing. Both render through
//! `Display` to the engine's log lines; callers that classify a
//! rejection match on the variant instead of searching its text.

use std::fmt;

use hdiff_wire::chunked::ChunkedError;
use hdiff_wire::uri::HostError;
use hdiff_wire::ByteView;

/// Why the engine rejected a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// The input holds no CRLF at all.
    NoRequestLineTerminator,
    /// The request line does not split into two or three tokens.
    MalformedRequestLine,
    /// The method is not a token.
    InvalidMethod,
    /// The version token is not `HTTP/x.y` (strict version policy).
    InvalidVersion,
    /// An HTTP/0.9 request to a profile without 0.9 support.
    Http09Unsupported,
    /// A version above 1.1 under the 505 policy.
    MajorVersionUnsupported,
    /// The input ends inside the header section.
    HeaderSectionUnterminated,
    /// The header section exceeds the profile's size limit.
    HeaderSectionTooLarge,
    /// An obs-fold continuation line under the rejecting policy.
    ObsFold,
    /// A continuation line before any header line.
    LeadingWhitespace,
    /// A header line without a colon under the rejecting name policy.
    HeaderLineWithoutColon,
    /// Whitespace between a field name and its colon.
    WhitespaceBeforeColon,
    /// A field name that is not a token.
    InvalidHeaderName,
    /// More than one Host field under the rejecting policy.
    MultipleHost,
    /// An HTTP/1.1 request with neither a Host field nor an authority.
    MissingHost,
    /// The Host value is ambiguous under the profile's host policy.
    BadHost(HostError),
    /// The Host field disagrees with the absolute-form target.
    HostMismatch,
    /// The Host value is not a strictly valid `uri-host`.
    InvalidHost,
    /// A Content-Length value that is not a strict decimal list; quotes
    /// the field value.
    InvalidContentLength(ByteView),
    /// A Content-Length list whose members differ byte-wise.
    DifferingContentLengthList,
    /// A Content-Length value even the lenient reading cannot parse;
    /// quotes the field value.
    UnparseableContentLength(ByteView),
    /// More than one Content-Length field under the rejecting policy.
    MultipleContentLength,
    /// Content-Length fields with different values.
    DifferingContentLength,
    /// A transfer coding outside the known set; quotes the coding,
    /// lowercased.
    UnknownTransferCoding(ByteView),
    /// Transfer-Encoding fields naming no coding.
    EmptyTransferEncoding,
    /// A coding list that does not end in chunked.
    FinalCodingNotChunked,
    /// chunked applied more than once.
    ChunkedAppliedTwice,
    /// chunked in an HTTP/1.0 request under the rejecting policy.
    ChunkedUnder10,
    /// Content-Length together with a valid Transfer-Encoding.
    ClWithTe,
    /// Body framing on GET/HEAD under the rejecting policy.
    BodyOnGetHead,
    /// An expectation other than `100-continue`.
    UnknownExpectation,
    /// An expectation on a request without a body.
    ExpectOnBodyless,
    /// Fewer body bytes than Content-Length announced.
    BodyShorterThanCl,
    /// The chunked body failed to decode.
    Chunked(ChunkedError),
}

impl RejectReason {
    /// The response status the rejection produces.
    pub fn status(&self) -> u16 {
        match self {
            RejectReason::MajorVersionUnsupported => 505,
            RejectReason::HeaderSectionTooLarge => 431,
            RejectReason::UnknownExpectation | RejectReason::ExpectOnBodyless => 417,
            RejectReason::BodyShorterThanCl => 408,
            _ => 400,
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            RejectReason::NoRequestLineTerminator => "no request line terminator",
            RejectReason::MalformedRequestLine => "malformed request line",
            RejectReason::InvalidMethod => "invalid method token",
            RejectReason::InvalidVersion => "invalid http version",
            RejectReason::Http09Unsupported => "http/0.9 not supported",
            RejectReason::MajorVersionUnsupported => "major version not supported",
            RejectReason::HeaderSectionUnterminated => "header section not terminated",
            RejectReason::HeaderSectionTooLarge => "header section too large",
            RejectReason::ObsFold => "obsolete line folding",
            RejectReason::LeadingWhitespace => "leading whitespace before first header",
            RejectReason::HeaderLineWithoutColon => "header line without colon",
            RejectReason::WhitespaceBeforeColon => "whitespace before colon",
            RejectReason::InvalidHeaderName => "invalid header name",
            RejectReason::MultipleHost => "multiple host headers",
            RejectReason::MissingHost => "missing host header",
            RejectReason::BadHost(e) => return write!(f, "bad host: {e}"),
            RejectReason::HostMismatch => "host mismatch with absolute-uri",
            RejectReason::InvalidHost => "invalid host value",
            RejectReason::InvalidContentLength(value) => {
                return write!(f, "invalid content-length {:?}", String::from_utf8_lossy(value));
            }
            RejectReason::DifferingContentLengthList => "differing content-length list values",
            RejectReason::UnparseableContentLength(value) => {
                return write!(
                    f,
                    "unparseable content-length {:?}",
                    String::from_utf8_lossy(value)
                );
            }
            RejectReason::MultipleContentLength => "multiple content-length headers",
            RejectReason::DifferingContentLength => "differing content-length headers",
            RejectReason::UnknownTransferCoding(coding) => {
                return write!(f, "unknown transfer coding {:?}", String::from_utf8_lossy(coding));
            }
            RejectReason::EmptyTransferEncoding => "empty transfer-encoding",
            RejectReason::FinalCodingNotChunked => "final transfer coding is not chunked",
            RejectReason::ChunkedAppliedTwice => "chunked transfer coding applied twice",
            RejectReason::ChunkedUnder10 => "chunked not allowed under http/1.0",
            RejectReason::ClWithTe => "content-length with transfer-encoding",
            RejectReason::BodyOnGetHead => "body on GET/HEAD not allowed",
            RejectReason::UnknownExpectation => "unknown expectation",
            RejectReason::ExpectOnBodyless => "expect on bodyless request",
            RejectReason::BodyShorterThanCl => "body shorter than content-length",
            RejectReason::Chunked(e) => return write!(f, "chunked error: {e}"),
        };
        f.write_str(text)
    }
}

/// One lenient choice or repair the engine made while accepting a
/// message, or the rejection that ended it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// An invalid version token was accepted.
    InvalidVersionAccepted,
    /// The request is HTTP/0.9.
    Http09,
    /// A version above 1.1 was read as 1.1.
    Http2TreatedAs11,
    /// An obs-fold continuation was merged into the previous line.
    ObsFoldMerged,
    /// Whitespace before a colon was trimmed and the name used; quotes
    /// the trimmed name.
    WsBeforeColonTrimmed(ByteView),
    /// Non-token bytes were stripped from a field name; quotes the name
    /// as received.
    NameJunkStripped(ByteView),
    /// Of several Host fields the first was used.
    MultipleHostFirst,
    /// Of several Host fields the last was used.
    MultipleHostLast,
    /// A Content-Length value only the lenient reading parses; quotes the
    /// value and carries the number read.
    ContentLengthLenient(ByteView, u64),
    /// Content-Length list members that agree numerically but differ in
    /// spelling; quotes the value.
    ContentLengthMembersDiffer(ByteView),
    /// Of several Content-Length fields the first was used.
    DuplicateClFirst,
    /// Of several Content-Length fields the last was used.
    DuplicateClLast,
    /// chunked was recognized inside a malformed Transfer-Encoding.
    TeChunkedSubstring,
    /// A malformed Transfer-Encoding was ignored.
    TeIgnored,
    /// chunked in an HTTP/1.0 request was ignored.
    ChunkedIgnoredUnder10,
    /// Transfer-Encoding framed the body over Content-Length.
    TeOverridesCl,
    /// Content-Length framed the body over Transfer-Encoding.
    ClOverridesTe,
    /// A leniently recognized Transfer-Encoding framed the body over
    /// Content-Length.
    LenientTeOverridesCl,
    /// Body framing on GET/HEAD was ignored.
    FatRequestFramingIgnored,
    /// An expectation was ignored by policy.
    ExpectIgnored,
    /// An expectation was ignored because the request is HTTP/1.0.
    ExpectIgnoredUnder10,
    /// The chunked body needed repair to decode.
    ChunkedRepaired,
    /// The message was rejected: a rejected interpretation's only note.
    Rejected(RejectReason),
}

impl Decision {
    /// The view a quoting decision carries, to be pointed at the bytes it
    /// quotes once the interpretation's buffer exists.
    pub(crate) fn quote_mut(&mut self) -> Option<&mut ByteView> {
        match self {
            Decision::WsBeforeColonTrimmed(quote)
            | Decision::NameJunkStripped(quote)
            | Decision::ContentLengthLenient(quote, _)
            | Decision::ContentLengthMembersDiffer(quote) => Some(quote),
            _ => None,
        }
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Decision::InvalidVersionAccepted => "accepted invalid version token",
            Decision::Http09 => "http/0.9 request",
            Decision::Http2TreatedAs11 => "http/2 token treated as 1.1",
            Decision::ObsFoldMerged => "merged obs-fold",
            Decision::WsBeforeColonTrimmed(name) => {
                return write!(
                    f,
                    "trimmed whitespace before colon in {:?}",
                    String::from_utf8_lossy(name)
                );
            }
            Decision::NameJunkStripped(name) => {
                return write!(
                    f,
                    "stripped junk from header name {:?}",
                    String::from_utf8_lossy(name)
                );
            }
            Decision::MultipleHostFirst => "multiple host: using first",
            Decision::MultipleHostLast => "multiple host: using last",
            Decision::ContentLengthLenient(value, parsed) => {
                return write!(
                    f,
                    "leniently parsed content-length {:?} as {parsed}",
                    String::from_utf8_lossy(value)
                );
            }
            Decision::ContentLengthMembersDiffer(value) => {
                return write!(
                    f,
                    "content-length list members differ textually {:?}",
                    String::from_utf8_lossy(value)
                );
            }
            Decision::DuplicateClFirst => "multiple content-length: using first",
            Decision::DuplicateClLast => "multiple content-length: using last",
            Decision::TeChunkedSubstring => "leniently recognized chunked in malformed TE",
            Decision::TeIgnored => "ignored malformed transfer-encoding",
            Decision::ChunkedIgnoredUnder10 => "ignored chunked under http/1.0",
            Decision::TeOverridesCl => "te overrides cl",
            Decision::ClOverridesTe => "cl overrides te",
            Decision::LenientTeOverridesCl => "lenient te overrides cl",
            Decision::FatRequestFramingIgnored => "ignored body framing on GET/HEAD",
            Decision::ExpectIgnored => "expect ignored",
            Decision::ExpectIgnoredUnder10 => "expect ignored under http/1.0",
            Decision::ChunkedRepaired => "repaired malformed chunked body",
            Decision::Rejected(reason) => return fmt::Display::fmt(reason, f),
        };
        f.write_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_render_the_engine_log_lines() {
        let quote = |text: &[u8]| ByteView::from(text);
        let expected = [
            (Decision::InvalidVersionAccepted, "accepted invalid version token"),
            (Decision::Http09, "http/0.9 request"),
            (Decision::Http2TreatedAs11, "http/2 token treated as 1.1"),
            (Decision::ObsFoldMerged, "merged obs-fold"),
            (
                Decision::WsBeforeColonTrimmed(quote(b"Content-Length")),
                "trimmed whitespace before colon in \"Content-Length\"",
            ),
            (
                Decision::NameJunkStripped(quote(b"\x0bHost\xff")),
                "stripped junk from header name \"\\u{b}Host\u{fffd}\"",
            ),
            (Decision::MultipleHostFirst, "multiple host: using first"),
            (Decision::MultipleHostLast, "multiple host: using last"),
            (
                Decision::ContentLengthLenient(quote(b"+6"), 6),
                "leniently parsed content-length \"+6\" as 6",
            ),
            (
                Decision::ContentLengthMembersDiffer(quote(b"10, 010")),
                "content-length list members differ textually \"10, 010\"",
            ),
            (Decision::DuplicateClFirst, "multiple content-length: using first"),
            (Decision::DuplicateClLast, "multiple content-length: using last"),
            (Decision::TeChunkedSubstring, "leniently recognized chunked in malformed TE"),
            (Decision::TeIgnored, "ignored malformed transfer-encoding"),
            (Decision::ChunkedIgnoredUnder10, "ignored chunked under http/1.0"),
            (Decision::TeOverridesCl, "te overrides cl"),
            (Decision::ClOverridesTe, "cl overrides te"),
            (Decision::LenientTeOverridesCl, "lenient te overrides cl"),
            (Decision::FatRequestFramingIgnored, "ignored body framing on GET/HEAD"),
            (Decision::ExpectIgnored, "expect ignored"),
            (Decision::ExpectIgnoredUnder10, "expect ignored under http/1.0"),
            (Decision::ChunkedRepaired, "repaired malformed chunked body"),
            (
                Decision::Rejected(RejectReason::BadHost(HostError {
                    reason: "comma in host value",
                })),
                "bad host: comma in host value",
            ),
            (
                Decision::Rejected(RejectReason::Chunked(ChunkedError::Truncated)),
                "chunked error: chunked body truncated",
            ),
        ];
        for (decision, text) in expected {
            assert_eq!(decision.to_string(), text);
        }
    }

    #[test]
    fn only_quoting_decisions_hand_out_a_quote() {
        let mut quoting = Decision::ContentLengthLenient(ByteView::new(), 1);
        *quoting.quote_mut().expect("quotes the value") = ByteView::from(&b"01"[..]);
        assert_eq!(quoting.to_string(), "leniently parsed content-length \"01\" as 1");
        assert!(Decision::TeIgnored.quote_mut().is_none());
        assert!(Decision::Rejected(RejectReason::InvalidContentLength(ByteView::new()))
            .quote_mut()
            .is_none());
    }

    #[test]
    fn statuses_follow_the_reason() {
        assert_eq!(RejectReason::MajorVersionUnsupported.status(), 505);
        assert_eq!(RejectReason::HeaderSectionTooLarge.status(), 431);
        assert_eq!(RejectReason::UnknownExpectation.status(), 417);
        assert_eq!(RejectReason::ExpectOnBodyless.status(), 417);
        assert_eq!(RejectReason::BodyShorterThanCl.status(), 408);
        assert_eq!(RejectReason::MissingHost.status(), 400);
    }
}
