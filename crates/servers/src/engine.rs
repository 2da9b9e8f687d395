//! The configurable interpretation engine: one request, one profile, one
//! [`Interpretation`].
//!
//! This function is the shared implementation of all ten product models.
//! Every branch that differs between real products is routed through a
//! [`ParserProfile`] policy, so a product's behavior is exactly its
//! profile — auditable data, not code.
//!
//! An accepted interpretation copies the bytes of the message it
//! consumed once, into one shared buffer, and every part of it — method,
//! target, Host, body, each classified header line, each quoting
//! [`Decision`] — is a [`ByteView`] into that buffer. Bytes the message
//! does not hold verbatim (a merged obs-fold line, a lowercased Host, a
//! decoded chunked body) are appended to the same buffer. While the
//! message is being read, the parts are kept as spans in a per-thread
//! scratch area, so the buffer and the header list are the only
//! allocations an ordinary accept makes.

use std::borrow::Cow;
use std::cell::RefCell;

use hdiff_wire::ascii;
use hdiff_wire::chunked::decode_chunked_into;
use hdiff_wire::header::HeaderField;
use hdiff_wire::uri::{host_in, is_strict_uri_host, Authority, RequestTarget};
use hdiff_wire::version::Version;
use hdiff_wire::view::{offset_of, ByteView};

pub use crate::decision::{Decision, RejectReason};
use crate::profile::{
    AbsUriPolicy, Chunked10Policy, ClTePolicy, ClValuePolicy, DuplicateClPolicy, ExpectPolicy,
    FatRequestPolicy, Http2TokenPolicy, MultiHostPolicy, NamePolicy, ObsFoldPolicy, ParserProfile,
    TeRecognition, VersionPolicy, WsColonPolicy,
};

/// Whether the implementation accepted the request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Parsed and would be processed.
    Accept,
    /// Rejected with a status code and a reason (the log line).
    Reject {
        /// Response status code.
        status: u16,
        /// Why; renders to the log line.
        reason: RejectReason,
    },
}

impl Outcome {
    /// Convenience: is this an accept?
    pub fn is_accept(&self) -> bool {
        matches!(self, Outcome::Accept)
    }

    /// The response status this outcome produces (200 for accepts).
    pub fn status(&self) -> u16 {
        match self {
            Outcome::Accept => 200,
            Outcome::Reject { status, .. } => *status,
        }
    }
}

/// The body framing the implementation chose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FramingChoice {
    /// No body.
    None,
    /// Content-Length framing with the effective value.
    ContentLength(u64),
    /// Chunked framing.
    Chunked,
}

/// One header field as the implementation classified it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifiedHeader {
    /// The raw field, a view into the interpretation's buffer.
    pub field: HeaderField<ByteView>,
    /// Canonical lowercase name if the implementation recognized the
    /// field; `None` for unknown/opaque fields it would pass through.
    /// Borrowed for the names the engines compare against (see
    /// [`canonical_name`]), owned for any other name.
    pub canon: Option<Cow<'static, str>>,
}

/// Header names the engines compare canonical names against. Each
/// canonicalizes to a borrowed `'static` string, so recognizing the
/// fields that drive framing, routing and hop-by-hop stripping costs no
/// allocation.
const COMPARED_NAMES: [&str; 9] = [
    "host",
    "content-length",
    "transfer-encoding",
    "expect",
    "connection",
    "keep-alive",
    "proxy-authorization",
    "proxy-authenticate",
    "te",
];

/// The canonical (ASCII-lowercased) spelling of a header name:
/// `String::from_utf8_lossy(name).to_ascii_lowercase()`, borrowed when
/// the name is one the engines compare against.
pub fn canonical_name(name: &[u8]) -> Cow<'static, str> {
    match COMPARED_NAMES.iter().find(|known| name.eq_ignore_ascii_case(known.as_bytes())) {
        Some(known) => Cow::Borrowed(known),
        None => Cow::Owned(String::from_utf8_lossy(name).to_ascii_lowercase()),
    }
}

/// The complete interpretation of one request under one profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interpretation {
    /// Accept or reject (+status).
    pub outcome: Outcome,
    /// Method token.
    pub method: ByteView,
    /// Request-target bytes as received.
    pub target: ByteView,
    /// Version as received.
    pub version: Version,
    /// The host identity the implementation acts on (cache key, vhost).
    pub host: Option<ByteView>,
    /// The body payload as understood (chunked-decoded).
    pub body: ByteView,
    /// The framing decision.
    pub framing: FramingChoice,
    /// Bytes of input consumed by this message (disagreement here is
    /// request smuggling).
    pub consumed: usize,
    /// Offset where the body starts (end of the header section); the raw
    /// body slice a transparent proxy forwards is
    /// `input[body_start..consumed]`.
    pub body_start: usize,
    /// Classified header fields in wire order.
    pub headers: Vec<ClassifiedHeader>,
    /// Whether chunked decoding needed repair (lenient options fired).
    pub repaired_chunked: bool,
    /// The decisions made, in order (the "logs" of Fig. 6); a rejected
    /// interpretation's only decision is its rejection.
    pub notes: Vec<Decision>,
}

impl Interpretation {
    fn reject(reason: RejectReason) -> Interpretation {
        Interpretation {
            outcome: Outcome::Reject { status: reason.status(), reason: reason.clone() },
            method: ByteView::new(),
            target: ByteView::new(),
            version: Version::Http11,
            host: None,
            body: ByteView::new(),
            framing: FramingChoice::None,
            consumed: 0,
            body_start: 0,
            headers: Vec::new(),
            repaired_chunked: false,
            notes: vec![Decision::Rejected(reason)],
        }
    }

    /// All classified headers matching a canonical name.
    pub fn recognized<'a>(&'a self, canon: &'a str) -> impl Iterator<Item = &'a ClassifiedHeader> {
        self.headers.iter().filter(move |h| h.canon.as_deref() == Some(canon))
    }
}

/// A range of the bytes a message is read from: positions below the
/// input's length are the input's own bytes, positions past it index the
/// extra bytes (see [`Scratch::extra`]).
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: usize,
    end: usize,
}

/// One header line as classified, before the buffer exists.
struct Line {
    span: Span,
    canon: Option<Cow<'static, str>>,
}

/// The parts of an interpretation while its message is being read,
/// reused from message to message on each thread.
#[derive(Default)]
struct Scratch {
    /// Header lines in wire order.
    lines: Vec<Line>,
    /// Decisions in order, each with the span it quotes (empty when it
    /// quotes nothing).
    notes: Vec<(Decision, Span)>,
    /// Bytes the message does not hold verbatim: merged obs-fold lines,
    /// a lowercased Host, a decoded chunked body.
    extra: Vec<u8>,
    /// The buffer's contents, assembled when there are extra bytes.
    joined: Vec<u8>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The bytes a message is read from: the input and the extra bytes.
#[derive(Clone, Copy)]
struct Bytes<'a> {
    input: &'a [u8],
    extra: &'a [u8],
}

impl<'a> Bytes<'a> {
    fn get(self, span: Span) -> &'a [u8] {
        let n = self.input.len();
        if span.end <= n {
            &self.input[span.start..span.end]
        } else {
            &self.extra[span.start - n..span.end - n]
        }
    }

    /// The span of `part`, a subslice of the input or of the extra bytes.
    fn span_of(self, part: &[u8]) -> Span {
        if part.is_empty() {
            return Span::default();
        }
        let start = match offset_of(self.input, part) {
            Some(at) => at,
            None => {
                self.input.len()
                    + offset_of(self.extra, part).expect("a span is part of the message")
            }
        };
        Span { start, end: start + part.len() }
    }

    /// The header field on the line at `span`.
    fn field(self, span: Span) -> HeaderField<&'a [u8]> {
        HeaderField::over(self.get(span))
    }

    /// The value of the header field on the line at `span`.
    fn value(self, span: Span) -> &'a [u8] {
        self.get(self.span_of(self.field(span).value()))
    }
}

/// Records a decision that quotes nothing.
fn note(notes: &mut Vec<(Decision, Span)>, decision: Decision) {
    notes.push((decision, Span::default()));
}

/// Appends the bytes at `span` to the extra bytes, lowercased, unless
/// they have no uppercase letter; returns the span of the lowercase
/// spelling.
fn lowercased(input: &[u8], extra: &mut Vec<u8>, span: Span) -> Span {
    if !(Bytes { input, extra }).get(span).iter().any(u8::is_ascii_uppercase) {
        return span;
    }
    let at = extra.len();
    let n = input.len();
    if span.end <= n {
        extra.extend_from_slice(&input[span.start..span.end]);
    } else {
        extra.extend_from_within(span.start - n..span.end - n);
    }
    extra[at..].make_ascii_lowercase();
    Span { start: n + at, end: n + extra.len() }
}

/// Interprets one request from `input` under `profile`.
pub fn interpret(profile: &ParserProfile, input: &[u8]) -> Interpretation {
    // Fault hook: a profile marked `always_panic` models an
    // implementation that crashes on input — the campaign runner must
    // catch, quarantine and keep going.
    assert!(
        !profile.always_panic,
        "injected parser panic in {} ({} input bytes)",
        profile.name,
        input.len()
    );
    SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        scratch.lines.clear();
        scratch.notes.clear();
        scratch.extra.clear();
        read_message(profile, input, scratch).unwrap_or_else(Interpretation::reject)
    })
}

fn read_message(
    profile: &ParserProfile,
    input: &[u8],
    s: &mut Scratch,
) -> Result<Interpretation, RejectReason> {
    let Some(line_end) = ascii::find_crlf(input) else {
        // HTTP/0.9 simple request: `GET /path\n`? Model strictly: no CRLF
        // at all means an incomplete message.
        return Err(RejectReason::NoRequestLineTerminator);
    };
    let line = &input[..line_end];
    let mut pos = line_end + 2;

    // ---- request line -------------------------------------------------
    let (method, target_b, version_b) = split_request_line(line, profile.multi_space_request_line)
        .ok_or(RejectReason::MalformedRequestLine)?;
    if !ascii::is_token(method) {
        return Err(RejectReason::InvalidMethod);
    }
    let version = Version::from_bytes(version_b);
    match &version {
        Version::Invalid(_) => match profile.version_policy {
            VersionPolicy::Strict => return Err(RejectReason::InvalidVersion),
            VersionPolicy::AcceptAny | VersionPolicy::RepairAppend => {
                note(&mut s.notes, Decision::InvalidVersionAccepted);
            }
        },
        Version::Http09 => {
            if !profile.supports_09 {
                return Err(RejectReason::Http09Unsupported);
            }
            note(&mut s.notes, Decision::Http09);
        }
        v if v.is_post_1_1() => match profile.http2_token {
            Http2TokenPolicy::Reject505 => return Err(RejectReason::MajorVersionUnsupported),
            Http2TokenPolicy::TreatAs11 => note(&mut s.notes, Decision::Http2TreatedAs11),
        },
        _ => {}
    }

    // ---- header section -------------------------------------------------
    let mut header_bytes = 0usize;
    loop {
        let h_end =
            ascii::find_crlf(&input[pos..]).ok_or(RejectReason::HeaderSectionUnterminated)?;
        let raw = &input[pos..pos + h_end];
        let span = Span { start: pos, end: pos + h_end };
        pos += h_end + 2;
        if raw.is_empty() {
            break;
        }
        header_bytes += raw.len() + 2;
        if header_bytes > profile.max_header_bytes {
            return Err(RejectReason::HeaderSectionTooLarge);
        }
        if raw[0] == b' ' || raw[0] == b'\t' {
            // obs-fold continuation.
            match profile.obs_fold {
                ObsFoldPolicy::Reject => return Err(RejectReason::ObsFold),
                ObsFoldPolicy::MergeSp => {
                    let Some(last) = s.lines.last_mut() else {
                        return Err(RejectReason::LeadingWhitespace);
                    };
                    // The merged line is the previous one, a space and
                    // the continuation, appended to the extra bytes.
                    let n = input.len();
                    let at = s.extra.len();
                    if last.span.end <= n {
                        s.extra.extend_from_slice(&input[last.span.start..last.span.end]);
                    } else {
                        s.extra.extend_from_within(last.span.start - n..last.span.end - n);
                    }
                    s.extra.push(b' ');
                    s.extra.extend_from_slice(ascii::trim_ows(raw));
                    last.span = Span { start: n + at, end: n + s.extra.len() };
                    note(&mut s.notes, Decision::ObsFoldMerged);
                    continue;
                }
            }
        }
        let canon = classify_header(profile, span, HeaderField::over(raw), &mut s.notes)?;
        s.lines.push(Line { span, canon });
    }
    let body_start = pos;

    // ---- host -------------------------------------------------------------
    let bytes = Bytes { input, extra: &s.extra };
    let target_authority = RequestTarget::authority_in(target_b);
    let mut host_fields =
        s.lines.iter().filter(|l| l.canon.as_deref() == Some("host")).map(|l| l.span);
    let header_host: Option<&[u8]> = match (host_fields.next(), host_fields.next()) {
        (None, _) => None,
        (Some(only), None) => Some(bytes.value(only)),
        (Some(first), Some(second)) => match profile.multi_host {
            MultiHostPolicy::Reject => return Err(RejectReason::MultipleHost),
            MultiHostPolicy::First => {
                note(&mut s.notes, Decision::MultipleHostFirst);
                Some(bytes.value(first))
            }
            MultiHostPolicy::Last => {
                note(&mut s.notes, Decision::MultipleHostLast);
                Some(bytes.value(host_fields.next_back().unwrap_or(second)))
            }
        },
    };
    if header_host.is_none()
        && profile.host_required_11
        && version == Version::Http11
        && target_authority.is_none()
    {
        return Err(RejectReason::MissingHost);
    }
    let header_host = header_host.map(|v| bytes.span_of(v));
    // The host the implementation reads, as a span of the message; it is
    // lowercased below. Case changes no verdict of `is_strict_uri_host`.
    let host_of = |value: Span| {
        host_in(bytes.get(value), &profile.host_parse)
            .map(|h| bytes.span_of(h))
            .map_err(RejectReason::BadHost)
    };
    let host = match (target_authority, header_host) {
        (Some(authority), hh) => {
            let uri_host = bytes.span_of(Authority::host_in(authority));
            match profile.abs_uri {
                AbsUriPolicy::PreferUri => Some(uri_host),
                AbsUriPolicy::PreferHost => match hh {
                    Some(v) => Some(host_of(v)?),
                    None => Some(uri_host),
                },
                AbsUriPolicy::RejectMismatch => match hh {
                    Some(v) => {
                        let h = host_of(v)?;
                        if !bytes.get(h).eq_ignore_ascii_case(bytes.get(uri_host)) {
                            return Err(RejectReason::HostMismatch);
                        }
                        Some(h)
                    }
                    None => Some(uri_host),
                },
            }
        }
        (_, Some(v)) => {
            let h = host_of(v)?;
            if profile.validate_host && !is_strict_uri_host(bytes.get(h)) {
                return Err(RejectReason::InvalidHost);
            }
            Some(h)
        }
        _ => None,
    };
    let host = host.map(|h| lowercased(input, &mut s.extra, h));

    // ---- framing -------------------------------------------------------------
    let bytes = Bytes { input, extra: &s.extra };
    let framing = decide_framing(profile, bytes, &s.lines, &version, &mut s.notes)?;

    // Fat GET/HEAD handling.
    let is_bodyless_method = method == b"GET" || method == b"HEAD";
    let framing = if is_bodyless_method && framing != FramingChoice::None {
        match profile.fat_request {
            FatRequestPolicy::AcceptParse => framing,
            FatRequestPolicy::IgnoreFraming => {
                note(&mut s.notes, Decision::FatRequestFramingIgnored);
                FramingChoice::None
            }
            FatRequestPolicy::Reject => return Err(RejectReason::BodyOnGetHead),
        }
    } else {
        framing
    };

    // ---- Expect ----------------------------------------------------------------
    if let Some(expect) = s.lines.iter().find(|l| l.canon.as_deref() == Some("expect")) {
        let known = bytes.value(expect.span).eq_ignore_ascii_case(b"100-continue");
        if version != Version::Http10 {
            match profile.expect {
                ExpectPolicy::Strict => {
                    if !known {
                        return Err(RejectReason::UnknownExpectation);
                    }
                }
                ExpectPolicy::Ignore => note(&mut s.notes, Decision::ExpectIgnored),
                ExpectPolicy::RejectOnGet => {
                    if is_bodyless_method && framing == FramingChoice::None {
                        return Err(RejectReason::ExpectOnBodyless);
                    }
                    if !known {
                        return Err(RejectReason::UnknownExpectation);
                    }
                }
            }
        } else {
            note(&mut s.notes, Decision::ExpectIgnoredUnder10);
        }
    }

    // ---- body -------------------------------------------------------------------
    // `kept` is how much of the input the buffer copies: the message up
    // to where its body ends, or only its header section when the body
    // is the decoded chunked payload among the extra bytes.
    let mut repaired = false;
    let (body, consumed, kept) = match framing {
        FramingChoice::None => (Span::default(), pos, pos),
        FramingChoice::ContentLength(n) => {
            let n_usize = usize::try_from(n).unwrap_or(usize::MAX);
            if input.len() - pos < n_usize {
                return Err(RejectReason::BodyShorterThanCl);
            }
            (Span { start: pos, end: pos + n_usize }, pos + n_usize, pos + n_usize)
        }
        FramingChoice::Chunked => {
            let at = input.len() + s.extra.len();
            let (used, repair) =
                decode_chunked_into(&input[pos..], &profile.chunk_opts, &mut s.extra)
                    .map_err(RejectReason::Chunked)?;
            repaired = repair;
            if repair {
                note(&mut s.notes, Decision::ChunkedRepaired);
            }
            (Span { start: at, end: input.len() + s.extra.len() }, pos + used, body_start)
        }
    };

    // ---- the buffer ---------------------------------------------------------------
    let buffer = if s.extra.is_empty() {
        ByteView::from(&input[..kept])
    } else {
        s.joined.clear();
        s.joined.extend_from_slice(&input[..kept]);
        s.joined.extend_from_slice(&s.extra);
        ByteView::from(&s.joined[..])
    };
    let n = input.len();
    let view = |span: Span| {
        if span.start == span.end {
            ByteView::new()
        } else if span.end <= n {
            debug_assert!(span.end <= kept, "a view of input the buffer does not hold");
            buffer.slice(span.start..span.end)
        } else {
            buffer.slice(span.start - n + kept..span.end - n + kept)
        }
    };
    let method = view(bytes_span(input, method));
    let target = view(bytes_span(input, target_b));
    Ok(Interpretation {
        outcome: Outcome::Accept,
        method,
        target,
        version,
        host: host.map(view),
        body: view(body),
        framing,
        consumed,
        body_start,
        headers: s
            .lines
            .drain(..)
            .map(|line| ClassifiedHeader {
                field: HeaderField::over(view(line.span)),
                canon: line.canon,
            })
            .collect(),
        repaired_chunked: repaired,
        notes: s
            .notes
            .drain(..)
            .map(|(mut decision, quoted)| {
                if let Some(quote) = decision.quote_mut() {
                    *quote = view(quoted);
                }
                decision
            })
            .collect(),
    })
}

/// The span of `part`, a subslice of `input`.
fn bytes_span(input: &[u8], part: &[u8]) -> Span {
    Bytes { input, extra: &[] }.span_of(part)
}

/// Classifies the header line at `span` under the profile's name
/// policies. Returns `Ok(Some(lowercase_name))` when recognized,
/// `Ok(None)` for unknown/opaque fields, `Err(reason)` for rejections.
fn classify_header(
    profile: &ParserProfile,
    span: Span,
    field: HeaderField<&[u8]>,
    notes: &mut Vec<(Decision, Span)>,
) -> Result<Option<Cow<'static, str>>, RejectReason> {
    // The span of a part of the line.
    let quote = |part: &[u8]| {
        let start = span.start + offset_of(field.raw(), part).expect("part of the line");
        Span { start, end: start + part.len() }
    };
    if field.raw().iter().all(|&b| b != b':') {
        return match profile.name_policy {
            NamePolicy::Reject => Err(RejectReason::HeaderLineWithoutColon),
            _ => Ok(None),
        };
    }
    if field.has_ws_before_colon() {
        match profile.ws_colon {
            WsColonPolicy::Reject => return Err(RejectReason::WhitespaceBeforeColon),
            WsColonPolicy::AcceptUse => {
                let name = field.name_trimmed();
                notes.push((Decision::WsBeforeColonTrimmed(ByteView::new()), quote(name)));
                return Ok(Some(canonical_name(name)));
            }
            WsColonPolicy::TreatUnknown => return Ok(None),
        }
    }
    let name = field.name_raw();
    if ascii::is_token(name) {
        return Ok(Some(canonical_name(name)));
    }
    match profile.name_policy {
        NamePolicy::Reject => Err(RejectReason::InvalidHeaderName),
        NamePolicy::TreatUnknown => Ok(None),
        NamePolicy::Strip => {
            let stripped: Vec<u8> = name.iter().copied().filter(|&b| ascii::is_tchar(b)).collect();
            if stripped.is_empty() {
                Ok(None)
            } else {
                notes.push((Decision::NameJunkStripped(ByteView::new()), quote(name)));
                Ok(Some(canonical_name(&stripped)))
            }
        }
    }
}

/// Splits a request line into method, target and version on SP. A
/// two-token line is HTTP/0.9; with `multi_space` runs of SP count as
/// one separator. `None` for any other token count.
fn split_request_line(line: &[u8], multi_space: bool) -> Option<(&[u8], &[u8], &[u8])> {
    let mut parts = line.split(|&b| b == b' ').filter(|p| !(multi_space && p.is_empty()));
    match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(target), None, _) => Some((method, target, b"HTTP/0.9")),
        (Some(method), Some(target), Some(version), None) => Some((method, target, version)),
        _ => None,
    }
}

/// Reads one Content-Length field value (`raw`, at `span`) under
/// `policy`, noting any lenient repair.
fn content_length_value(
    policy: ClValuePolicy,
    raw: &[u8],
    span: Span,
    notes: &mut Vec<(Decision, Span)>,
) -> Result<u64, RejectReason> {
    let members = || raw.split(|&b| b == b',').map(ascii::trim_ows);
    let first_member = members().next();
    match policy {
        ClValuePolicy::Strict => {
            // A comma list of identical values is the RFC recovery
            // case — identical meaning identical *member bytes*, not
            // merely equal parsed numbers: `10, 010` is a byte-level
            // disagreement some real servers reject, and comparing
            // parsed values here would silently collapse it.
            let mut first = None;
            for member in members() {
                match ascii::parse_dec_strict(member) {
                    Some(v) => {
                        first.get_or_insert(v);
                    }
                    None => return Err(RejectReason::InvalidContentLength(ByteView::from(raw))),
                }
            }
            if members().any(|m| Some(m) != first_member) {
                return Err(RejectReason::DifferingContentLengthList);
            }
            Ok(first.expect("split yields at least one member"))
        }
        ClValuePolicy::Lenient => match ascii::parse_dec_lenient(raw) {
            Some(v) => {
                if ascii::parse_dec_strict(raw).is_none() {
                    notes.push((Decision::ContentLengthLenient(ByteView::new(), v), span));
                }
                // List members that agree numerically but differ in
                // spelling (`10, 010`): accepted, but the repair is
                // recorded so the divergence stays observable.
                if members().nth(1).is_some()
                    && members().all(|m| ascii::parse_dec_lenient(m) == Some(v))
                    && members().any(|m| Some(m) != first_member)
                {
                    notes.push((Decision::ContentLengthMembersDiffer(ByteView::new()), span));
                }
                Ok(v)
            }
            None => Err(RejectReason::UnparseableContentLength(ByteView::from(raw))),
        },
    }
}

/// Why Transfer-Encoding values are not a strictly valid coding list.
#[derive(Debug, PartialEq, Eq)]
enum TeFault<'a> {
    /// A coding outside [`KNOWN_CODINGS`].
    Unknown(&'a [u8]),
    /// No coding at all.
    Empty,
    /// The list does not end in chunked.
    FinalNotChunked,
    /// chunked appears more than once.
    ChunkedTwice,
}

impl TeFault<'_> {
    fn reason(self) -> RejectReason {
        match self {
            TeFault::Unknown(coding) => {
                RejectReason::UnknownTransferCoding(ByteView::from(coding.to_ascii_lowercase()))
            }
            TeFault::Empty => RejectReason::EmptyTransferEncoding,
            TeFault::FinalNotChunked => RejectReason::FinalCodingNotChunked,
            TeFault::ChunkedTwice => RejectReason::ChunkedAppliedTwice,
        }
    }
}

/// Checks that the Transfer-Encoding field values form a strictly valid
/// coding list ending in chunked.
fn strict_te<'a>(values: impl Iterator<Item = &'a [u8]>) -> Result<(), TeFault<'a>> {
    let codings = values
        .flat_map(|v| v.split(|&b| b == b','))
        .map(ascii::trim_ows)
        .filter(|part| !part.is_empty());
    let mut last: Option<&[u8]> = None;
    let mut chunked = 0usize;
    for coding in codings {
        if !KNOWN_CODINGS.iter().any(|known| coding.eq_ignore_ascii_case(known)) {
            return Err(TeFault::Unknown(coding));
        }
        if coding.eq_ignore_ascii_case(b"chunked") {
            chunked += 1;
        }
        last = Some(coding);
    }
    let Some(last) = last else {
        return Err(TeFault::Empty);
    };
    if !last.eq_ignore_ascii_case(b"chunked") {
        return Err(TeFault::FinalNotChunked);
    }
    // RFC 7230 §4.1.1: chunked must not be applied more than once.
    if chunked > 1 {
        return Err(TeFault::ChunkedTwice);
    }
    Ok(())
}

/// The transfer codings [`strict_te`] recognizes.
const KNOWN_CODINGS: [&[u8]; 4] = [b"chunked", b"gzip", b"deflate", b"compress"];

fn decide_framing(
    profile: &ParserProfile,
    bytes: Bytes<'_>,
    lines: &[Line],
    version: &Version,
    notes: &mut Vec<(Decision, Span)>,
) -> Result<FramingChoice, RejectReason> {
    let fields_named = |name: &'static str| {
        lines
            .iter()
            .filter(move |l| l.canon.as_deref() == Some(name))
            .map(move |l| bytes.value(l.span))
    };

    // Content-Length value(s). At most one is read without a list.
    let mut cl_first = None;
    let mut cl_last = None;
    let mut cl_count = 0usize;
    let mut cl_differ = false;
    for raw in fields_named("content-length") {
        let v = content_length_value(profile.cl_value, raw, bytes.span_of(raw), notes)?;
        cl_differ |= cl_last.is_some_and(|last| last != v);
        cl_first.get_or_insert(v);
        cl_last = Some(v);
        cl_count += 1;
    }
    let cl = if cl_count <= 1 {
        cl_first
    } else {
        match profile.duplicate_cl {
            DuplicateClPolicy::Reject => return Err(RejectReason::MultipleContentLength),
            DuplicateClPolicy::RejectIfDiffer => {
                if cl_differ {
                    return Err(RejectReason::DifferingContentLength);
                }
                cl_first
            }
            DuplicateClPolicy::First => {
                note(notes, Decision::DuplicateClFirst);
                cl_first
            }
            DuplicateClPolicy::Last => {
                note(notes, Decision::DuplicateClLast);
                cl_last
            }
        }
    };

    // Transfer-Encoding recognition.
    let (te_chunked, te_strictly_valid) = if fields_named("transfer-encoding").next().is_none() {
        (false, false)
    } else {
        match strict_te(fields_named("transfer-encoding")) {
            Ok(()) => (true, true),
            Err(fault) => match profile.te_recognition {
                TeRecognition::Strict => return Err(fault.reason()),
                TeRecognition::ChunkedSubstring => {
                    let has = fields_named("transfer-encoding")
                        .any(|v| v.windows(7).any(|w| w.eq_ignore_ascii_case(b"chunked")));
                    if has {
                        note(notes, Decision::TeChunkedSubstring);
                    }
                    (has, false)
                }
                TeRecognition::IgnoreInvalid => {
                    note(notes, Decision::TeIgnored);
                    (false, false)
                }
            },
        }
    };

    // HTTP/1.0 + chunked.
    let te_chunked = if te_chunked && version.is_pre_1_1() {
        match profile.chunked_in_10 {
            Chunked10Policy::Process => true,
            Chunked10Policy::Ignore => {
                note(notes, Decision::ChunkedIgnoredUnder10);
                false
            }
            Chunked10Policy::Reject => return Err(RejectReason::ChunkedUnder10),
        }
    } else {
        te_chunked
    };

    match (te_chunked, cl) {
        (true, Some(_)) => {
            if te_strictly_valid {
                match profile.cl_with_te {
                    ClTePolicy::Reject => Err(RejectReason::ClWithTe),
                    ClTePolicy::TeWins => {
                        note(notes, Decision::TeOverridesCl);
                        Ok(FramingChoice::Chunked)
                    }
                    ClTePolicy::ClWins => {
                        note(notes, Decision::ClOverridesTe);
                        Ok(FramingChoice::ContentLength(cl.expect("checked")))
                    }
                }
            } else if profile.lenient_te_overrides_cl {
                note(notes, Decision::LenientTeOverridesCl);
                Ok(FramingChoice::Chunked)
            } else {
                Ok(FramingChoice::ContentLength(cl.expect("checked")))
            }
        }
        (true, None) => Ok(FramingChoice::Chunked),
        (false, Some(n)) => Ok(FramingChoice::ContentLength(n)),
        (false, None) => Ok(FramingChoice::None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ParserProfile;

    fn strict() -> ParserProfile {
        ParserProfile::strict("baseline")
    }

    #[test]
    fn accepts_plain_get() {
        let i = interpret(&strict(), b"GET / HTTP/1.1\r\nHost: h1.com\r\n\r\n");
        assert!(i.outcome.is_accept());
        assert_eq!(i.host.as_deref(), Some(&b"h1.com"[..]));
        assert_eq!(i.framing, FramingChoice::None);
    }

    #[test]
    fn strict_rejects_ws_colon_but_lenient_uses_it() {
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length : 3\r\n\r\nabc";
        let i = interpret(&strict(), msg);
        assert_eq!(i.outcome.status(), 400);

        let mut lenient = strict();
        lenient.ws_colon = WsColonPolicy::AcceptUse;
        let i = interpret(&lenient, msg);
        assert!(i.outcome.is_accept(), "{:?}", i.outcome);
        assert_eq!(i.body, b"abc");
        assert_eq!(i.framing, FramingChoice::ContentLength(3));
    }

    #[test]
    fn ws_colon_treat_unknown_leaves_body_unread() {
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length : 3\r\n\r\nabc";
        let mut p = strict();
        p.ws_colon = WsColonPolicy::TreatUnknown;
        let i = interpret(&p, msg);
        assert!(i.outcome.is_accept());
        assert_eq!(i.framing, FramingChoice::None);
        // The 3 body bytes are left in the stream: the smuggling gap.
        assert_eq!(&msg[i.consumed..], b"abc");
    }

    #[test]
    fn junk_name_policies() {
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\n\x0bTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        let i = interpret(&strict(), msg);
        assert_eq!(i.outcome.status(), 400);

        let mut unknown = strict();
        unknown.name_policy = NamePolicy::TreatUnknown;
        let i = interpret(&unknown, msg);
        assert!(i.outcome.is_accept());
        assert_eq!(i.framing, FramingChoice::None, "junk TE must not frame");

        let mut strip = strict();
        strip.name_policy = NamePolicy::Strip;
        let i = interpret(&strip, msg);
        assert!(i.outcome.is_accept());
        assert_eq!(i.framing, FramingChoice::Chunked, "stripped name recognizes TE");
        assert_eq!(i.body, b"abc");
    }

    #[test]
    fn duplicate_cl_policies() {
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\nContent-Length: 0\r\n\r\n0123456789";
        assert_eq!(interpret(&strict(), msg).outcome.status(), 400);

        let mut first = strict();
        first.duplicate_cl = DuplicateClPolicy::First;
        let i = interpret(&first, msg);
        assert_eq!(i.framing, FramingChoice::ContentLength(10));
        assert_eq!(i.body, b"0123456789");

        let mut last = strict();
        last.duplicate_cl = DuplicateClPolicy::Last;
        let i = interpret(&last, msg);
        assert_eq!(i.framing, FramingChoice::ContentLength(0));
        assert_eq!(&msg[i.consumed..], b"0123456789", "ten smuggled bytes");
    }

    #[test]
    fn lenient_cl_values() {
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: +6\r\n\r\nabcdef";
        assert_eq!(interpret(&strict(), msg).outcome.status(), 400);
        let mut lenient = strict();
        lenient.cl_value = ClValuePolicy::Lenient;
        let i = interpret(&lenient, msg);
        assert!(i.outcome.is_accept());
        assert_eq!(i.body, b"abcdef");
    }

    #[test]
    fn strict_cl_list_compares_member_bytes_not_values() {
        // Both members parse to 10, but the bytes disagree: strict must
        // reject rather than collapse the disagreement.
        let differ = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10, 010\r\n\r\n0123456789";
        let i = interpret(&strict(), differ);
        assert_eq!(i.outcome.status(), 400);
        assert!(
            matches!(&i.outcome, Outcome::Reject { reason, .. }
                if reason.to_string().contains("differing content-length list values")),
            "{:?}",
            i.outcome
        );

        // Byte-identical members remain the accepted RFC recovery case.
        let same = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10, 10\r\n\r\n0123456789";
        let i = interpret(&strict(), same);
        assert!(i.outcome.is_accept(), "{:?}", i.outcome);
        assert_eq!(i.framing, FramingChoice::ContentLength(10));
        assert!(
            i.notes.iter().all(|n| !n.to_string().contains("differ textually")),
            "{:?}",
            i.notes
        );
    }

    #[test]
    fn lenient_cl_list_records_textual_disagreement() {
        let differ = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10, 010\r\n\r\n0123456789";
        let mut lenient = strict();
        lenient.cl_value = ClValuePolicy::Lenient;
        let i = interpret(&lenient, differ);
        assert!(i.outcome.is_accept(), "{:?}", i.outcome);
        assert_eq!(i.framing, FramingChoice::ContentLength(10));
        assert!(
            i.notes.iter().any(|n| n.to_string().contains("differ textually")),
            "expected a repair note, got {:?}",
            i.notes
        );

        // Identical spellings carry no such note.
        let same = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10, 10\r\n\r\n0123456789";
        let i = interpret(&lenient, same);
        assert!(i.outcome.is_accept());
        assert!(
            i.notes.iter().all(|n| !n.to_string().contains("differ textually")),
            "{:?}",
            i.notes
        );
    }

    #[test]
    fn cl_plus_valid_te_policies() {
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        assert_eq!(interpret(&strict(), msg).outcome.status(), 400);

        let mut tewins = strict();
        tewins.cl_with_te = ClTePolicy::TeWins;
        let i = interpret(&tewins, msg);
        assert_eq!(i.framing, FramingChoice::Chunked);
        assert_eq!(i.body, b"abc");

        let mut clwins = strict();
        clwins.cl_with_te = ClTePolicy::ClWins;
        let i = interpret(&clwins, msg);
        assert_eq!(i.framing, FramingChoice::ContentLength(3));
        assert_eq!(i.body, b"3\r\n", "reads 3 bytes of the chunked framing");
    }

    #[test]
    fn tomcat_style_lenient_te_with_cl() {
        // CL + malformed TE (\x0bchunked): strict rejects the TE value;
        // substring recognition frames chunked and silently drops CL.
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\nTransfer-Encoding:\x0bchunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        assert_eq!(interpret(&strict(), msg).outcome.status(), 400);

        let mut tomcatish = strict();
        tomcatish.te_recognition = TeRecognition::ChunkedSubstring;
        let i = interpret(&tomcatish, msg);
        assert!(i.outcome.is_accept(), "{:?}", i.outcome);
        assert_eq!(i.framing, FramingChoice::Chunked);
        assert_eq!(i.body, b"abc");
    }

    #[test]
    fn ignore_invalid_te_uses_cl() {
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\nTransfer-Encoding: xchunked\r\n\r\nabcdef";
        let mut p = strict();
        p.te_recognition = TeRecognition::IgnoreInvalid;
        let i = interpret(&p, msg);
        assert!(i.outcome.is_accept());
        assert_eq!(i.framing, FramingChoice::ContentLength(3));
        assert_eq!(i.body, b"abc");
    }

    #[test]
    fn chunked_under_http10_policies() {
        let msg = b"POST / HTTP/1.0\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        let mut process = strict();
        process.chunked_in_10 = Chunked10Policy::Process;
        assert_eq!(interpret(&process, msg).framing, FramingChoice::Chunked);

        let mut ignore = strict();
        ignore.chunked_in_10 = Chunked10Policy::Ignore;
        let i = interpret(&ignore, msg);
        assert_eq!(i.framing, FramingChoice::None);
        assert!(msg[i.consumed..].starts_with(b"3\r\n"), "chunked bytes smuggled");

        assert_eq!(interpret(&strict(), msg).outcome.status(), 400);
    }

    #[test]
    fn multiple_host_policies() {
        let msg = b"GET / HTTP/1.1\r\nHost: h1.com\r\nHost: h2.com\r\n\r\n";
        assert_eq!(interpret(&strict(), msg).outcome.status(), 400);

        let mut first = strict();
        first.multi_host = MultiHostPolicy::First;
        assert_eq!(interpret(&first, msg).host.as_deref(), Some(&b"h1.com"[..]));

        let mut last = strict();
        last.multi_host = MultiHostPolicy::Last;
        assert_eq!(interpret(&last, msg).host.as_deref(), Some(&b"h2.com"[..]));
    }

    #[test]
    fn missing_host_on_11() {
        assert_eq!(interpret(&strict(), b"GET / HTTP/1.1\r\n\r\n").outcome.status(), 400);
        assert!(interpret(&strict(), b"GET / HTTP/1.0\r\n\r\n").outcome.is_accept());
    }

    #[test]
    fn absolute_uri_policies() {
        let msg = b"GET http://h2.com/ HTTP/1.1\r\nHost: h1.com\r\n\r\n";
        let i = interpret(&strict(), msg); // strict prefers URI
        assert_eq!(i.host.as_deref(), Some(&b"h2.com"[..]));

        let mut prefer_host = strict();
        prefer_host.abs_uri = AbsUriPolicy::PreferHost;
        assert_eq!(interpret(&prefer_host, msg).host.as_deref(), Some(&b"h1.com"[..]));

        let mut reject = strict();
        reject.abs_uri = AbsUriPolicy::RejectMismatch;
        assert_eq!(interpret(&reject, msg).outcome.status(), 400);
    }

    #[test]
    fn invalid_host_values_and_transparent_parsing() {
        let msg = b"GET / HTTP/1.1\r\nHost: h1.com@h2.com\r\n\r\n";
        assert_eq!(interpret(&strict(), msg).outcome.status(), 400);

        let mut transparent = strict();
        transparent.host_parse = hdiff_wire::HostParseOptions::transparent();
        transparent.validate_host = false;
        let i = interpret(&transparent, msg);
        assert!(i.outcome.is_accept());
        assert_eq!(i.host.as_deref(), Some(&b"h1.com@h2.com"[..]));
    }

    #[test]
    fn invalid_version_policies() {
        let msg = b"GET / 1.1/HTTP\r\nHost: h\r\n\r\n";
        assert_eq!(interpret(&strict(), msg).outcome.status(), 400);
        let mut acc = strict();
        acc.version_policy = VersionPolicy::AcceptAny;
        assert!(interpret(&acc, msg).outcome.is_accept());
    }

    #[test]
    fn http09_support() {
        let msg = b"GET / HTTP/0.9\r\nHost: h\r\n\r\n";
        assert_eq!(interpret(&strict(), msg).outcome.status(), 400);
        let mut p = strict();
        p.supports_09 = true;
        assert!(interpret(&p, msg).outcome.is_accept());
    }

    #[test]
    fn http2_token_policies() {
        let msg = b"GET / HTTP/2.0\r\nHost: h\r\n\r\n";
        assert_eq!(interpret(&strict(), msg).outcome.status(), 505);
        let mut p = strict();
        p.http2_token = Http2TokenPolicy::TreatAs11;
        assert!(interpret(&p, msg).outcome.is_accept());
    }

    #[test]
    fn fat_get_policies() {
        let msg = b"GET / HTTP/1.1\r\nHost: h\r\nContent-Length: 17\r\n\r\nGET /x HTTP/1.1\r\n";
        let i = interpret(&strict(), msg);
        assert!(i.outcome.is_accept());
        assert_eq!(i.body.len(), 17);

        let mut ignore = strict();
        ignore.fat_request = FatRequestPolicy::IgnoreFraming;
        let i = interpret(&ignore, msg);
        assert_eq!(i.framing, FramingChoice::None);
        assert!(msg[i.consumed..].starts_with(b"GET /x"), "inner request smuggled");

        let mut reject = strict();
        reject.fat_request = FatRequestPolicy::Reject;
        assert_eq!(interpret(&reject, msg).outcome.status(), 400);
    }

    #[test]
    fn expect_policies() {
        let get = b"GET / HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\n\r\n";
        assert!(interpret(&strict(), get).outcome.is_accept());

        let mut lighttpdish = strict();
        lighttpdish.expect = ExpectPolicy::RejectOnGet;
        assert_eq!(interpret(&lighttpdish, get).outcome.status(), 417);

        let unknown = b"GET / HTTP/1.1\r\nHost: h\r\nExpect: 100-continuce\r\n\r\n";
        assert_eq!(interpret(&strict(), unknown).outcome.status(), 417);
        let mut ignore = strict();
        ignore.expect = ExpectPolicy::Ignore;
        assert!(interpret(&ignore, unknown).outcome.is_accept());

        // HTTP/1.0: the expectation MUST be ignored.
        let old = b"GET / HTTP/1.0\r\nHost: h\r\nExpect: 100-continuce\r\n\r\n";
        assert!(interpret(&strict(), old).outcome.is_accept());
    }

    #[test]
    fn chunk_repair_flag_propagates() {
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n1000000000000000a\r\nabc\r\n0\r\n\r\nxx";
        assert_eq!(interpret(&strict(), msg).outcome.status(), 400);
        let mut p = strict();
        p.chunk_opts = hdiff_wire::ChunkedDecodeOptions {
            overflow: hdiff_wire::OverflowBehavior::Wrap,
            truncate_short_final_chunk: true,
            ..hdiff_wire::ChunkedDecodeOptions::strict()
        };
        let i = interpret(&p, msg);
        assert!(i.outcome.is_accept());
        assert!(i.repaired_chunked);
        assert_eq!(i.body, b"abc\r\n0\r\n\r\n", "wrapped size 10 swallows framing");
    }

    #[test]
    fn obs_fold_policies() {
        let msg = b"GET / HTTP/1.1\r\nHost: h1.com\r\n\th2.com\r\n\r\n";
        assert_eq!(interpret(&strict(), msg).outcome.status(), 400);
        let mut merge = strict();
        merge.obs_fold = ObsFoldPolicy::MergeSp;
        merge.validate_host = false;
        merge.host_parse = hdiff_wire::HostParseOptions::transparent();
        let i = interpret(&merge, msg);
        assert!(i.outcome.is_accept());
        assert_eq!(i.host.as_deref(), Some(&b"h1.com h2.com"[..]));
    }

    #[test]
    fn oversized_headers_rejected() {
        let mut p = strict();
        p.max_header_bytes = 64;
        let big = vec![b'a'; 100];
        let mut msg = b"GET / HTTP/1.1\r\nHost: h\r\nX-Big: ".to_vec();
        msg.extend_from_slice(&big);
        msg.extend_from_slice(b"\r\n\r\n");
        assert_eq!(interpret(&p, &msg).outcome.status(), 431);
    }

    #[test]
    fn duplicated_chunked_te_rejected_strictly_but_recognized_by_substring() {
        // CVE-2020-1944 flavor: `Transfer-Encoding: chunked` twice.
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        assert_eq!(interpret(&strict(), msg).outcome.status(), 400);
        let mut lenient = strict();
        lenient.te_recognition = TeRecognition::ChunkedSubstring;
        let i = interpret(&lenient, msg);
        assert!(i.outcome.is_accept());
        assert_eq!(i.framing, FramingChoice::Chunked);
        assert_eq!(i.body, b"abc");
    }

    #[test]
    fn consumed_marks_pipelined_boundary() {
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabcGET /next HTTP/1.1\r\nHost: h\r\n\r\n";
        let i = interpret(&strict(), msg);
        assert!(i.outcome.is_accept());
        assert!(msg[i.consumed..].starts_with(b"GET /next"));
    }

    /// The helpers above replaced copying code; each must give the old
    /// code's answer on any input. The `old_*` functions are that code.
    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// `items` joined by `separators`, with now and then a stray byte
        /// in place of an item.
        fn list_of(
            items: &'static [&'static [u8]],
            separators: &'static [&'static [u8]],
        ) -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(any::<u32>(), 0..5).prop_map(move |codes| {
                let mut out = Vec::new();
                for (i, code) in codes.into_iter().enumerate() {
                    if i > 0 {
                        out.extend_from_slice(separators[(code >> 16) as usize % separators.len()]);
                    }
                    match code % 8 {
                        7 => out.push((code >> 8) as u8),
                        _ => out.extend_from_slice(items[(code / 8) as usize % items.len()]),
                    }
                }
                out
            })
        }

        /// Content-Length members: equal numbers in several spellings,
        /// other numbers, and non-numbers.
        const LENGTHS: [&[u8]; 9] =
            [b"10", b"010", b"0010", b"+10", b"0", b"3", b"99999999999999999999", b"1O", b""];
        /// Transfer codings in several spellings, and unknown ones.
        const CODINGS: [&[u8]; 8] =
            [b"chunked", b"CHUNKED", b"gzip", b"Deflate", b"compress", b"identity", b"", b"x"];
        /// Separators of a field-value list, with optional whitespace.
        const COMMAS: [&[u8]; 5] = [b",", b", ", b" ,", b",,", b" "];
        /// Request-line tokens, including empty ones.
        const TOKENS: [&[u8]; 7] = [b"GET", b"/a", b"HTTP/1.1", b"", b"\t", b"x,y", b"HTTP/0.9"];
        /// Runs of SP between request-line tokens.
        const SPACES: [&[u8]; 3] = [b" ", b"  ", b"   "];

        /// Decisions as the interpretation renders them, each quoting
        /// the bytes of `bytes` at its span.
        fn rendered(bytes: Bytes<'_>, notes: Vec<(Decision, Span)>) -> Vec<String> {
            notes
                .into_iter()
                .map(|(mut decision, span)| {
                    if let Some(quote) = decision.quote_mut() {
                        *quote = ByteView::from(bytes.get(span));
                    }
                    decision.to_string()
                })
                .collect()
        }

        fn old_split_request_line(line: &[u8], multi_space: bool) -> Option<(&[u8], &[u8], &[u8])> {
            let parts: Vec<&[u8]> = if multi_space {
                line.split(|&b| b == b' ').filter(|p| !p.is_empty()).collect()
            } else {
                line.split(|&b| b == b' ').collect()
            };
            match parts.len() {
                2 => Some((parts[0], parts[1], b"HTTP/0.9")),
                3 => Some((parts[0], parts[1], parts[2])),
                _ => None,
            }
        }

        fn old_content_length_value(
            policy: ClValuePolicy,
            raw: &[u8],
            notes: &mut Vec<String>,
        ) -> Result<u64, (u16, String)> {
            match policy {
                ClValuePolicy::Strict => {
                    let mut vals = Vec::new();
                    let mut members: Vec<&[u8]> = Vec::new();
                    for part in raw.split(|&b| b == b',') {
                        let member = ascii::trim_ows(part);
                        match ascii::parse_dec_strict(member) {
                            Some(v) => {
                                vals.push(v);
                                members.push(member);
                            }
                            None => {
                                return Err((
                                    400,
                                    format!(
                                        "invalid content-length {:?}",
                                        String::from_utf8_lossy(raw)
                                    ),
                                ));
                            }
                        }
                    }
                    if members.windows(2).any(|w| w[0] != w[1]) {
                        return Err((400, "differing content-length list values".to_string()));
                    }
                    Ok(vals[0])
                }
                ClValuePolicy::Lenient => match ascii::parse_dec_lenient(raw) {
                    Some(v) => {
                        if ascii::parse_dec_strict(raw).is_none() {
                            notes.push(format!(
                                "leniently parsed content-length {:?} as {v}",
                                String::from_utf8_lossy(raw)
                            ));
                        }
                        let members: Vec<&[u8]> =
                            raw.split(|&b| b == b',').map(ascii::trim_ows).collect();
                        if members.len() > 1
                            && members.iter().all(|m| ascii::parse_dec_lenient(m) == Some(v))
                            && members.windows(2).any(|w| w[0] != w[1])
                        {
                            notes.push(format!(
                                "content-length list members differ textually {:?}",
                                String::from_utf8_lossy(raw)
                            ));
                        }
                        Ok(v)
                    }
                    None => Err((
                        400,
                        format!("unparseable content-length {:?}", String::from_utf8_lossy(raw)),
                    )),
                },
            }
        }

        fn old_strict_te(values: &[Vec<u8>]) -> Result<bool, String> {
            let mut codings = Vec::new();
            for v in values {
                for part in v.split(|&b| b == b',') {
                    let part = ascii::trim_ows(part).to_ascii_lowercase();
                    if !part.is_empty() {
                        codings.push(part);
                    }
                }
            }
            if codings.is_empty() {
                return Err("empty transfer-encoding".to_string());
            }
            for c in &codings {
                if !matches!(c.as_slice(), b"chunked" | b"gzip" | b"deflate" | b"compress") {
                    return Err(format!(
                        "unknown transfer coding {:?}",
                        String::from_utf8_lossy(c)
                    ));
                }
            }
            if codings.last().map(Vec::as_slice) != Some(b"chunked") {
                return Err("final transfer coding is not chunked".to_string());
            }
            if codings.iter().filter(|c| c.as_slice() == b"chunked").count() > 1 {
                return Err("chunked transfer coding applied twice".to_string());
            }
            Ok(true)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn request_line_split_matches_the_collected_split(line in list_of(&TOKENS, &SPACES)) {
                for multi_space in [false, true] {
                    prop_assert_eq!(
                        split_request_line(&line, multi_space),
                        old_split_request_line(&line, multi_space)
                    );
                }
            }

            #[test]
            fn content_length_reading_matches_the_collected_members(raw in list_of(&LENGTHS, &COMMAS)) {
                let bytes = Bytes { input: &raw, extra: &[] };
                let span = bytes.span_of(&raw);
                for policy in [ClValuePolicy::Strict, ClValuePolicy::Lenient] {
                    let (mut new_notes, mut old_notes) = (Vec::new(), Vec::new());
                    let new = content_length_value(policy, &raw, span, &mut new_notes)
                        .map_err(|reason| (reason.status(), reason.to_string()));
                    prop_assert_eq!(new, old_content_length_value(policy, &raw, &mut old_notes));
                    prop_assert_eq!(rendered(bytes, new_notes), old_notes);
                }
            }

            #[test]
            fn te_check_matches_the_lowercased_codings(
                values in proptest::collection::vec(list_of(&CODINGS, &COMMAS), 0..3),
            ) {
                let new = strict_te(values.iter().map(Vec::as_slice));
                prop_assert_eq!(
                    new.map(|()| true).map_err(|fault| fault.reason().to_string()),
                    old_strict_te(&values)
                );
            }
        }
    }
}
