//! Forwarding wrapper: how a proxy rebuilds the downstream message.
//!
//! The exploitability of most semantic gaps hinges on what a proxy
//! *forwards*: transparent pass-through of fields it did not recognize,
//! request-line "repair", hop-by-hop stripping, host rewriting, and
//! re-framing of bodies it repaired. Every one of those decisions is a
//! [`crate::profile::ProxyBehavior`] toggle.

use hdiff_wire::ascii;
use hdiff_wire::uri::{Authority, RequestTarget};
use hdiff_wire::version::Version;
use hdiff_wire::{encode_chunked, ByteView, Response, StatusCode};

use crate::cache::Cache;
use crate::engine::{interpret, FramingChoice, Interpretation, Outcome};
use crate::fault::{FaultDecision, FaultKind};
use crate::profile::{ForwardVersion, ParserProfile, RewriteAbsUri, VersionPolicy};
use crate::server::MAX_MESSAGES;

/// Header names a hop-by-hop-stripping proxy always removes, whatever
/// the Connection header nominates (RFC 7230 §6.1).
const HOP_BY_HOP: [&str; 5] =
    ["connection", "keep-alive", "proxy-authorization", "proxy-authenticate", "te"];

/// What the proxy did with one parsed message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForwardAction {
    /// Forwarded downstream as these bytes.
    Forwarded(Vec<u8>),
    /// Rejected at the proxy with this response.
    Rejected(Response),
}

impl ForwardAction {
    /// The forwarded bytes, if any.
    pub fn forwarded(&self) -> Option<&[u8]> {
        match self {
            ForwardAction::Forwarded(b) => Some(b),
            ForwardAction::Rejected(_) => None,
        }
    }

    /// Damages a forwarded message as the forward-stage fault `decision`
    /// does: `ConnReset` cuts it to a prefix, `GarbleForward` flips one
    /// octet, and `StallRead` forwards nothing. Returns whether the
    /// connection drops the rest of the stream. The one implementation
    /// of forward damage: the in-process proxy stream and the socket
    /// proxy both call it. A rejection is left as it is.
    pub fn apply_fault(&mut self, decision: FaultDecision) -> bool {
        let ForwardAction::Forwarded(bytes) = self else { return false };
        match decision.kind {
            FaultKind::ConnReset => {
                bytes.truncate(decision.reset_point(bytes.len()));
                true
            }
            FaultKind::GarbleForward => {
                *bytes = decision.garble(bytes);
                false
            }
            FaultKind::StallRead => {
                bytes.clear();
                true
            }
            FaultKind::TruncateResponse | FaultKind::Transient5xx => false,
        }
    }
}

/// One client message processed by the proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyResult {
    /// How the proxy interpreted the message.
    pub interpretation: Interpretation,
    /// What it did.
    pub action: ForwardAction,
}

/// A simulated forwarding proxy with its response cache.
#[derive(Debug, Clone)]
pub struct Proxy {
    /// The behavioral profile (must have `proxy: Some(..)`).
    pub profile: ParserProfile,
    /// The proxy's shared response cache.
    pub cache: Cache,
}

impl Proxy {
    /// Wraps a profile as a proxy.
    ///
    /// # Panics
    ///
    /// Panics if the profile has no proxy behavior configured.
    pub fn new(profile: ParserProfile) -> Proxy {
        let behavior = profile.proxy.clone().expect("profile must have proxy behavior");
        Proxy { cache: Cache::new(behavior.cache), profile }
    }

    /// The product name.
    pub fn name(&self) -> &str {
        &self.profile.name
    }

    /// Processes one client message (first on the stream).
    pub fn forward(&self, input: &[u8]) -> ProxyResult {
        let interpretation = interpret(&self.profile, input);
        match &interpretation.outcome {
            Outcome::Reject { status, reason } => {
                let mut r = Response::with_body(StatusCode(*status), reason.to_string());
                r.headers.push("Server", &self.profile.name);
                ProxyResult { action: ForwardAction::Rejected(r), interpretation }
            }
            Outcome::Accept => {
                let (bytes, rewritten_host) = self.rebuild(input, &interpretation);
                let mut interpretation = interpretation;
                if let Some(h) = rewritten_host {
                    // The proxy rewrote the Host header; its routing view
                    // is the host it actually forwards.
                    interpretation.host = Some(h);
                }
                ProxyResult { action: ForwardAction::Forwarded(bytes), interpretation }
            }
        }
    }

    /// Processes a whole connection: consecutive messages, each forwarded
    /// or rejected. Smuggled payloads surface as extra messages here.
    pub fn forward_stream(&self, input: &[u8]) -> Vec<ProxyResult> {
        self.forward_stream_with(input, None)
    }

    /// [`Proxy::forward_stream`] under a forward-stage fault already
    /// decided for this hop: every forwarded message is damaged by
    /// [`ForwardAction::apply_fault`], and a fault that drops the rest of
    /// the stream ends it after that message.
    pub fn forward_stream_with(
        &self,
        input: &[u8],
        fault: Option<FaultDecision>,
    ) -> Vec<ProxyResult> {
        let mut out = Vec::new();
        let mut pos = 0usize;
        for _ in 0..MAX_MESSAGES {
            if pos >= input.len() {
                break;
            }
            let mut r = self.forward(&input[pos..]);
            let consumed = r.interpretation.consumed;
            let rejected = matches!(r.action, ForwardAction::Rejected(_));
            let drop_rest = fault.is_some_and(|d| r.action.apply_fault(d));
            out.push(r);
            if rejected || consumed == 0 || drop_rest {
                break;
            }
            pos += consumed;
        }
        out
    }

    /// Rebuilds the downstream message per the proxy behavior toggles.
    /// Returns the bytes and the rewritten Host identity, if any.
    fn rebuild(&self, input: &[u8], i: &Interpretation) -> (Vec<u8>, Option<ByteView>) {
        let behavior = self.profile.proxy.as_ref().expect("proxy behavior checked in new");
        // The forwarded message is about the consumed input plus a Via
        // line; sizing for that builds it in one allocation.
        let mut out = Vec::with_capacity(i.consumed + 32 + self.profile.name.len());

        // ---- request line -------------------------------------------------
        // Only a target that carries an authority can be rewritten; the
        // common origin-form target is forwarded without being copied.
        let authority = RequestTarget::authority_in(&i.target);
        let absolute = authority.map(|_| RequestTarget::classify(&i.target));
        let uri_host = || authority.map(|a| lowercase_host(i, a));
        let (origin_form, rewritten_host) = match (&absolute, behavior.rewrite_abs_uri) {
            (Some(t @ RequestTarget::Absolute { .. }), RewriteAbsUri::Always) => {
                (t.to_origin_form(), uri_host())
            }
            // A non-http scheme falls through and is forwarded
            // transparently — the Varnish HoT gap.
            (Some(t @ RequestTarget::Absolute { .. }), RewriteAbsUri::OnlyHttpScheme)
                if t.is_http_absolute() =>
            {
                (t.to_origin_form(), uri_host())
            }
            _ => (None, None),
        };
        let target_bytes = origin_form.as_deref().unwrap_or(&i.target);

        out.extend_from_slice(&i.method);
        out.push(b' ');
        out.extend_from_slice(target_bytes);
        match (&i.version, self.profile.version_policy, behavior.forward_version) {
            (Version::Invalid(raw), VersionPolicy::RepairAppend, _) => {
                // Keep the bad token and append the own version — the
                // Nginx/Squid/ATS repair (`GET /?a=b 1.1/HTTP HTTP/1.1`).
                out.push(b' ');
                out.extend_from_slice(raw);
                out.extend_from_slice(b" HTTP/1.1");
            }
            (v, _, ForwardVersion::Blind) => {
                if *v != Version::Http09 {
                    out.push(b' ');
                    v.push_to(&mut out);
                } else {
                    // Blind 0.9 forwarding keeps the two-token line.
                    out.push(b' ');
                    out.extend_from_slice(b"HTTP/0.9");
                }
            }
            (_, _, ForwardVersion::Own) => {
                out.push(b' ');
                out.extend_from_slice(b"HTTP/1.1");
            }
        }
        out.extend_from_slice(b"\r\n");

        // ---- headers -------------------------------------------------------
        // Hop-by-hop removal set: the fixed names plus every name the
        // Connection headers nominate.
        let is_hop_by_hop = |canon: &str| {
            behavior.strip_hop_by_hop
                && (HOP_BY_HOP.contains(&canon)
                    || i.recognized("connection").any(|h| {
                        h.field.value().split(|&b| b == b',').any(|part| {
                            let name = ascii::trim_ows(part);
                            !name.is_empty() && name.eq_ignore_ascii_case(canon.as_bytes())
                        })
                    }))
        };

        let is_bodyless = i.method == b"GET" || i.method == b"HEAD";
        let mut wrote_host = false;
        for h in &i.headers {
            let canon = h.canon.as_deref();
            // Hop-by-hop stripping (by canonical name).
            if let Some(c) = canon {
                if is_hop_by_hop(c) {
                    continue;
                }
                if c == "host" {
                    if let Some(new_host) = &rewritten_host {
                        if !wrote_host {
                            out.extend_from_slice(b"Host: ");
                            out.extend_from_slice(new_host);
                            out.extend_from_slice(b"\r\n");
                            wrote_host = true;
                        }
                        continue;
                    }
                }
                if c == "expect" && is_bodyless && !behavior.forward_expect_on_get {
                    continue; // strict proxies answer/strip the expectation
                }
            }
            // Whitespace-before-colon normalization.
            if h.field.has_ws_before_colon() && behavior.normalize_ws_colon {
                out.extend_from_slice(h.field.name_trimmed());
                out.extend_from_slice(b": ");
                out.extend_from_slice(h.field.value());
                out.extend_from_slice(b"\r\n");
                continue;
            }
            // Everything else — including fields the proxy did not
            // recognize — is forwarded verbatim (transparent forwarding).
            out.extend_from_slice(h.field.raw());
            out.extend_from_slice(b"\r\n");
        }
        if !wrote_host {
            if let Some(new_host) = &rewritten_host {
                out.extend_from_slice(b"Host: ");
                out.extend_from_slice(new_host);
                out.extend_from_slice(b"\r\n");
            } else if behavior.add_host_from_uri && i.recognized("host").next().is_none() {
                if let Some(auth) = authority {
                    out.extend_from_slice(b"Host: ");
                    out.extend(Authority::host_in(auth).iter().map(u8::to_ascii_lowercase));
                    out.extend_from_slice(b"\r\n");
                }
            }
        }
        if behavior.add_via {
            out.extend_from_slice(b"Via: 1.1 ");
            out.extend_from_slice(self.profile.name.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");

        // ---- body ------------------------------------------------------------
        match i.framing {
            FramingChoice::None => {}
            FramingChoice::Chunked if i.repaired_chunked && behavior.reencode_repaired_chunked => {
                // Re-frame the body as the proxy (mis)understood it.
                out.extend_from_slice(&encode_chunked(&i.body));
            }
            _ => {
                // Transparent: forward exactly the raw body bytes consumed.
                out.extend_from_slice(&input[i.body_start..i.consumed]);
            }
        }
        (out, rewritten_host)
    }
}

/// The lowercased host of `authority`, a part of `i.target`, as a view:
/// the interpretation's own Host when it is that host, a view of the
/// target when the host is already lowercase, and a copy otherwise.
fn lowercase_host(i: &Interpretation, authority: &[u8]) -> ByteView {
    let host = Authority::host_in(authority);
    match &i.host {
        Some(own) if own.eq_ignore_ascii_case(host) => own.clone(),
        _ if !host.iter().any(u8::is_ascii_uppercase) => i.target.slice_ref(host),
        _ => ByteView::from(host.to_ascii_lowercase()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{NamePolicy, ParserProfile, ProxyBehavior};

    fn strict_proxy() -> Proxy {
        let mut p = ParserProfile::strict("strictproxy");
        p.proxy = Some(ProxyBehavior::strict());
        Proxy::new(p)
    }

    #[test]
    fn forwards_simple_get_with_via_and_own_version() {
        let pr = strict_proxy();
        let r = pr.forward(b"GET / HTTP/1.1\r\nHost: h1.com\r\n\r\n");
        let bytes = r.action.forwarded().unwrap();
        let s = String::from_utf8_lossy(bytes);
        assert!(s.starts_with("GET / HTTP/1.1\r\n"), "{s}");
        assert!(s.contains("Via: 1.1 strictproxy"));
        assert!(s.contains("Host: h1.com"));
    }

    #[test]
    fn rejects_bubble_up() {
        let pr = strict_proxy();
        let r = pr.forward(b"GET / HTTP/1.1\r\nHost : h1.com\r\n\r\n");
        assert!(
            matches!(r.action, ForwardAction::Rejected(ref resp) if resp.status == StatusCode::BAD_REQUEST)
        );
    }

    #[test]
    fn absolute_uri_rewritten_to_origin_form() {
        let pr = strict_proxy();
        let r = pr.forward(b"GET http://h2.com/a?b=1 HTTP/1.1\r\nHost: h1.com\r\n\r\n");
        let s = String::from_utf8_lossy(r.action.forwarded().unwrap());
        assert!(s.starts_with("GET /a?b=1 HTTP/1.1\r\n"), "{s}");
        assert!(s.contains("Host: h2.com"), "{s}");
        assert!(!s.contains("h1.com"), "original Host must be replaced: {s}");
    }

    #[test]
    fn non_http_scheme_forwarded_transparently_under_varnish_policy() {
        let mut p = ParserProfile::strict("varnishish");
        p.abs_uri = crate::profile::AbsUriPolicy::PreferHost;
        let mut b = ProxyBehavior::strict();
        b.rewrite_abs_uri = RewriteAbsUri::OnlyHttpScheme;
        p.proxy = Some(b);
        let pr = Proxy::new(p);
        let r = pr.forward(b"GET test://h2.com/?a=1 HTTP/1.1\r\nHost: h1.com\r\n\r\n");
        let s = String::from_utf8_lossy(r.action.forwarded().unwrap());
        assert!(s.starts_with("GET test://h2.com/?a=1 HTTP/1.1\r\n"), "{s}");
        assert!(s.contains("Host: h1.com"), "Host untouched: {s}");
        // Proxy itself believes the host is h1.com (PreferHost).
        assert_eq!(r.interpretation.host.as_deref(), Some(&b"h1.com"[..]));
    }

    #[test]
    fn hop_by_hop_nomination_removes_host() {
        // Table II: `Connection: close, Host` strips Host downstream.
        let pr = strict_proxy();
        let r = pr.forward(b"GET / HTTP/1.1\r\nHost: h1.com\r\nConnection: close, Host\r\n\r\n");
        let s = String::from_utf8_lossy(r.action.forwarded().unwrap());
        assert!(!s.contains("Host:"), "{s}");
        assert!(!s.contains("Connection:"), "{s}");
    }

    #[test]
    fn expect_stripped_on_get_by_strict_but_forwarded_by_ats_policy() {
        let input = b"GET / HTTP/1.1\r\nHost: h1.com\r\nExpect: 100-continue\r\n\r\n";
        let strict = strict_proxy();
        let s1 =
            String::from_utf8_lossy(strict.forward(input).action.forwarded().unwrap()).to_string();
        assert!(!s1.contains("Expect"), "{s1}");

        let mut p = ParserProfile::strict("atsish");
        let mut b = ProxyBehavior::strict();
        b.forward_expect_on_get = true;
        p.proxy = Some(b);
        let ats = Proxy::new(p);
        let s2 =
            String::from_utf8_lossy(ats.forward(input).action.forwarded().unwrap()).to_string();
        assert!(s2.contains("Expect: 100-continue"), "{s2}");
    }

    #[test]
    fn repair_append_keeps_bad_version_token() {
        let mut p = ParserProfile::strict("nginxish");
        p.version_policy = VersionPolicy::RepairAppend;
        p.proxy = Some(ProxyBehavior::strict());
        let pr = Proxy::new(p);
        let r = pr.forward(b"GET /?a=b 1.1/HTTP\r\nHost: h1.com\r\n\r\n");
        let s = String::from_utf8_lossy(r.action.forwarded().unwrap());
        assert!(s.starts_with("GET /?a=b 1.1/HTTP HTTP/1.1\r\n"), "{s}");
    }

    #[test]
    fn blind_forwarding_keeps_old_version() {
        let mut p = ParserProfile::strict("haproxyish");
        p.supports_09 = true;
        let mut b = ProxyBehavior::strict();
        b.forward_version = ForwardVersion::Blind;
        p.proxy = Some(b);
        let pr = Proxy::new(p);
        let r = pr.forward(b"GET / HTTP/0.9\r\nHost: h1.com\r\n\r\n");
        let s = String::from_utf8_lossy(r.action.forwarded().unwrap());
        assert!(s.starts_with("GET / HTTP/0.9\r\n"), "{s}");
    }

    #[test]
    fn unknown_headers_forwarded_verbatim() {
        let mut p = ParserProfile::strict("transparentish");
        p.name_policy = NamePolicy::TreatUnknown;
        p.proxy = Some(ProxyBehavior::strict());
        let pr = Proxy::new(p);
        let r = pr.forward(b"GET / HTTP/1.1\r\nHost: h1.com\r\n\x0bHost: h2.com\r\n\r\n");
        let bytes = r.action.forwarded().unwrap();
        assert!(
            bytes.windows(14).any(|w| w == b"\x0bHost: h2.com\r"),
            "{:?}",
            String::from_utf8_lossy(bytes)
        );
    }

    #[test]
    fn ws_colon_normalization_toggle() {
        let mut p = ParserProfile::strict("lenient");
        p.ws_colon = crate::profile::WsColonPolicy::AcceptUse;
        p.proxy = Some(ProxyBehavior::strict());
        let pr = Proxy::new(p);
        let input = b"POST / HTTP/1.1\r\nHost: h1.com\r\nContent-Length : 3\r\n\r\nabc";
        let s = String::from_utf8_lossy(pr.forward(input).action.forwarded().unwrap()).to_string();
        assert!(s.contains("Content-Length: 3"), "{s}");
        assert!(!s.contains("Content-Length :"), "{s}");

        let mut p2 = ParserProfile::strict("transparent");
        p2.ws_colon = crate::profile::WsColonPolicy::TreatUnknown;
        let mut b2 = ProxyBehavior::strict();
        b2.normalize_ws_colon = false;
        p2.proxy = Some(b2);
        let pr2 = Proxy::new(p2);
        let s2 =
            String::from_utf8_lossy(pr2.forward(input).action.forwarded().unwrap()).to_string();
        assert!(s2.contains("Content-Length : 3"), "{s2}");
    }

    #[test]
    fn repaired_chunked_is_reframed() {
        let mut p = ParserProfile::strict("squidish");
        p.chunk_opts = hdiff_wire::ChunkedDecodeOptions {
            overflow: hdiff_wire::OverflowBehavior::Wrap,
            truncate_short_final_chunk: true,
            ..hdiff_wire::ChunkedDecodeOptions::strict()
        };
        let mut b = ProxyBehavior::strict();
        b.reencode_repaired_chunked = true;
        p.proxy = Some(b);
        let pr = Proxy::new(p);
        let input = b"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n1000000000000000a\r\nabc\r\n0\r\n\r\n";
        let r = pr.forward(input);
        let bytes = r.action.forwarded().unwrap();
        let s = String::from_utf8_lossy(bytes);
        // The proxy re-encodes its (wrong) 10-byte payload: "a\r\n".
        assert!(s.contains("\r\n\r\na\r\nabc"), "{s}");
        assert!(r.interpretation.repaired_chunked);
    }

    #[test]
    fn pipelined_messages_forward_separately() {
        let pr = strict_proxy();
        let rs = pr.forward_stream(
            b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n",
        );
        assert_eq!(rs.len(), 2);
        assert!(rs[1].action.forwarded().unwrap().starts_with(b"GET /b"));
    }
}
