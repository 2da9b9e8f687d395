//! Request-target and `Host` parsing with Host-of-Troubles ambiguity knobs.
//!
//! RFC 7230 §5.3 defines four request-target forms; RFC 3986 §3.2 defines the
//! authority component. Host-of-Troubles attacks (paper §IV-B) exploit
//! implementations that resolve ambiguous host spellings differently:
//! `h1.com@h2.com` (userinfo vs. host), `h1.com, h2.com` (list), and
//! `h1.com/../h2.com` (path-looking suffixes). [`HostParseOptions`] makes
//! each resolution policy explicit so every simulated product states its
//! interpretation rather than hiding it in parsing code.

use std::fmt;

use crate::ascii;

/// The four request-target forms of RFC 7230 §5.3, plus `Invalid`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestTarget {
    /// `origin-form`: absolute path with optional query (`/where?q=now`).
    Origin {
        /// Path component, beginning with `/`.
        path: Vec<u8>,
        /// Query (bytes after `?`), if present.
        query: Option<Vec<u8>>,
    },
    /// `absolute-form`: a full URI (`http://example.com/path`).
    Absolute {
        /// URI scheme, verbatim (case preserved).
        scheme: Vec<u8>,
        /// Raw authority bytes between `//` and the next `/`, `?` or `#`.
        authority: Vec<u8>,
        /// Remainder (path + query), may be empty.
        rest: Vec<u8>,
    },
    /// `authority-form`: bare authority, used with `CONNECT`.
    Authority(Vec<u8>),
    /// `asterisk-form`: `*`, used with `OPTIONS`.
    Asterisk,
    /// Anything else, preserved verbatim.
    Invalid(Vec<u8>),
}

impl RequestTarget {
    /// Classifies raw request-target bytes.
    ///
    /// ```
    /// use hdiff_wire::RequestTarget;
    /// assert!(matches!(RequestTarget::classify(b"/a?b=1"), RequestTarget::Origin { .. }));
    /// assert!(matches!(RequestTarget::classify(b"http://h.com/"), RequestTarget::Absolute { .. }));
    /// assert_eq!(RequestTarget::classify(b"*"), RequestTarget::Asterisk);
    /// ```
    pub fn classify(raw: &[u8]) -> RequestTarget {
        match Form::of(raw) {
            Form::Asterisk => RequestTarget::Asterisk,
            Form::Origin => {
                let (path, query) = match raw.iter().position(|&b| b == b'?') {
                    Some(i) => (raw[..i].to_vec(), Some(raw[i + 1..].to_vec())),
                    None => (raw.to_vec(), None),
                };
                RequestTarget::Origin { path, query }
            }
            Form::Absolute { scheme, authority, rest } => RequestTarget::Absolute {
                scheme: scheme.to_vec(),
                authority: authority.to_vec(),
                rest: rest.to_vec(),
            },
            Form::Authority => RequestTarget::Authority(raw.to_vec()),
            Form::Invalid => RequestTarget::Invalid(raw.to_vec()),
        }
    }

    /// The authority bytes `RequestTarget::classify(raw).authority()`
    /// returns, borrowed from `raw`: the form test without copying any
    /// part of the target. `None` for origin-form targets, which is what
    /// most requests carry.
    ///
    /// ```
    /// use hdiff_wire::RequestTarget;
    /// assert_eq!(RequestTarget::authority_in(b"http://h.com:80/a"), Some(&b"h.com:80"[..]));
    /// assert_eq!(RequestTarget::authority_in(b"/a?b=1"), None);
    /// ```
    pub fn authority_in(raw: &[u8]) -> Option<&[u8]> {
        match Form::of(raw) {
            Form::Absolute { authority, .. } => Some(authority),
            Form::Authority => Some(raw),
            Form::Asterisk | Form::Origin | Form::Invalid => None,
        }
    }

    /// The authority bytes carried by this target, if any.
    pub fn authority(&self) -> Option<&[u8]> {
        match self {
            RequestTarget::Absolute { authority, .. } => Some(authority),
            RequestTarget::Authority(a) => Some(a),
            _ => None,
        }
    }

    /// The scheme, if this is absolute-form.
    pub fn scheme(&self) -> Option<&[u8]> {
        match self {
            RequestTarget::Absolute { scheme, .. } => Some(scheme),
            _ => None,
        }
    }

    /// Whether this is absolute-form with an `http`/`https` scheme — the
    /// case proxies are required to rewrite when forwarding.
    pub fn is_http_absolute(&self) -> bool {
        matches!(self.scheme(), Some(s) if ascii::eq_ignore_case(s, b"http") || ascii::eq_ignore_case(s, b"https"))
    }

    /// Rewrites an absolute-form target to its origin-form (`rest`, or `/`
    /// when empty) — the canonical proxy forwarding transformation.
    pub fn to_origin_form(&self) -> Option<Vec<u8>> {
        match self {
            RequestTarget::Absolute { rest, .. } => {
                Some(if rest.is_empty() { b"/".to_vec() } else { rest.clone() })
            }
            _ => None,
        }
    }
}

/// The form of a request-target, with the absolute form's parts borrowed
/// from the raw bytes: the one classification both
/// [`RequestTarget::classify`] and [`RequestTarget::authority_in`] read.
enum Form<'a> {
    Asterisk,
    Origin,
    Absolute { scheme: &'a [u8], authority: &'a [u8], rest: &'a [u8] },
    Authority,
    Invalid,
}

impl<'a> Form<'a> {
    fn of(raw: &'a [u8]) -> Form<'a> {
        if raw == b"*" {
            return Form::Asterisk;
        }
        if raw.first() == Some(&b'/') {
            return Form::Origin;
        }
        if let Some(colon) = raw.iter().position(|&b| b == b':') {
            let scheme = &raw[..colon];
            if is_scheme(scheme) && raw[colon + 1..].starts_with(b"//") {
                let after = &raw[colon + 3..];
                let end = after
                    .iter()
                    .position(|&b| b == b'/' || b == b'?' || b == b'#')
                    .unwrap_or(after.len());
                return Form::Absolute { scheme, authority: &after[..end], rest: &after[end..] };
            }
            // authority-form with a port, e.g. `example.com:443`.
            if !scheme.is_empty()
                && raw[colon + 1..].iter().all(u8::is_ascii_digit)
                && !raw[colon + 1..].is_empty()
                && looks_like_host(scheme)
            {
                return Form::Authority;
            }
        }
        if looks_like_host(raw) && !raw.is_empty() {
            return Form::Authority;
        }
        Form::Invalid
    }
}

fn is_scheme(s: &[u8]) -> bool {
    !s.is_empty()
        && s[0].is_ascii_alphabetic()
        && s.iter().all(|&b| b.is_ascii_alphanumeric() || b == b'+' || b == b'-' || b == b'.')
}

fn looks_like_host(s: &[u8]) -> bool {
    !s.is_empty()
        && s.iter().all(|&b| {
            b.is_ascii_alphanumeric() || matches!(b, b'.' | b'-' | b'_' | b'[' | b']' | b':')
        })
}

/// A parsed authority: `[userinfo@]host[:port]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Authority {
    /// Userinfo before `@`, if present.
    pub userinfo: Option<Vec<u8>>,
    /// The host component (lowercased for comparison happens elsewhere;
    /// bytes preserved here).
    pub host: Vec<u8>,
    /// Port digits after `:`, if present.
    pub port: Option<Vec<u8>>,
}

impl Authority {
    /// RFC 3986-conformant split: userinfo is everything before the *last*
    /// `@`; port is digits after the last `:` outside an IPv6 literal.
    pub fn parse(raw: &[u8]) -> Authority {
        let (userinfo, hostport) = split_userinfo(raw);
        let (host, port) = split_port(hostport);
        Authority {
            userinfo: userinfo.map(<[u8]>::to_vec),
            host: host.to_vec(),
            port: port.map(<[u8]>::to_vec),
        }
    }

    /// The host component `Authority::parse(raw).host` holds, borrowed
    /// from `raw`.
    ///
    /// ```
    /// use hdiff_wire::Authority;
    /// assert_eq!(Authority::host_in(b"u@H2.com:80"), b"H2.com");
    /// ```
    pub fn host_in(raw: &[u8]) -> &[u8] {
        split_port(split_userinfo(raw).1).0
    }

    /// The effective host an RFC-conformant implementation derives.
    pub fn effective_host(&self) -> &[u8] {
        &self.host
    }
}

impl fmt::Display for Authority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(u) = &self.userinfo {
            write!(f, "{}@", ascii::escape_bytes(u))?;
        }
        write!(f, "{}", ascii::escape_bytes(&self.host))?;
        if let Some(p) = &self.port {
            write!(f, ":{}", ascii::escape_bytes(p))?;
        }
        Ok(())
    }
}

/// Splits `[userinfo@]hostport` at the last `@`.
fn split_userinfo(raw: &[u8]) -> (Option<&[u8]>, &[u8]) {
    match raw.iter().rposition(|&b| b == b'@') {
        Some(i) => (Some(&raw[..i]), &raw[i + 1..]),
        None => (None, raw),
    }
}

fn split_port(hostport: &[u8]) -> (&[u8], Option<&[u8]>) {
    if hostport.first() == Some(&b'[') {
        // IPv6 literal: port comes after the closing bracket.
        if let Some(close) = hostport.iter().position(|&b| b == b']') {
            let rest = &hostport[close + 1..];
            if let Some(stripped) = rest.strip_prefix(b":") {
                return (&hostport[..close + 1], Some(stripped));
            }
            return (&hostport[..close + 1], None);
        }
        return (hostport, None);
    }
    match hostport.iter().rposition(|&b| b == b':') {
        Some(i) => (&hostport[..i], Some(&hostport[i + 1..])),
        None => (hostport, None),
    }
}

/// How an implementation resolves `user@host` spellings in a host position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtSignPolicy {
    /// Reject the message (strict: `@` is not legal in `uri-host`).
    Reject,
    /// Treat everything after the last `@` as the host (RFC 3986 authority
    /// reading applied to the Host header).
    UseAfter,
    /// Treat everything before the first `@` as the host (naive reading —
    /// the front-end half of the `h1.com@h2.com` HoT gap).
    UseBefore,
    /// Pass the whole value through untouched (transparent forwarding).
    Whole,
}

/// How an implementation resolves comma-separated host lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommaPolicy {
    /// Reject the message.
    Reject,
    /// Take the first element.
    TakeFirst,
    /// Take the last element.
    TakeLast,
    /// Keep the whole value.
    Whole,
}

/// How an implementation treats `/`-containing host values
/// (`h1.com/../h2.com`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlashPolicy {
    /// Reject the message.
    Reject,
    /// Truncate at the first slash.
    Truncate,
    /// Keep the whole value.
    Whole,
}

/// Per-implementation `Host` interpretation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostParseOptions {
    /// `@` handling.
    pub at_sign: AtSignPolicy,
    /// Comma-list handling.
    pub comma: CommaPolicy,
    /// Slash handling.
    pub slash: SlashPolicy,
    /// Whether an empty host value is accepted.
    pub allow_empty: bool,
}

impl HostParseOptions {
    /// RFC-strict policy: reject every ambiguous spelling.
    pub fn strict() -> HostParseOptions {
        HostParseOptions {
            at_sign: AtSignPolicy::Reject,
            comma: CommaPolicy::Reject,
            slash: SlashPolicy::Reject,
            allow_empty: true, // `Host:` with empty value is grammatical (uri-host can be empty reg-name)
        }
    }

    /// Fully transparent policy: take the value as-is.
    pub fn transparent() -> HostParseOptions {
        HostParseOptions {
            at_sign: AtSignPolicy::Whole,
            comma: CommaPolicy::Whole,
            slash: SlashPolicy::Whole,
            allow_empty: true,
        }
    }
}

impl Default for HostParseOptions {
    fn default() -> Self {
        HostParseOptions::strict()
    }
}

/// Error from [`interpret_host`] under a rejecting policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostError {
    /// Human-readable reason (lowercase, no punctuation).
    pub reason: &'static str,
}

impl fmt::Display for HostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.reason)
    }
}

impl std::error::Error for HostError {}

/// Applies a [`HostParseOptions`] policy to a raw `Host` value, returning
/// the host identity the implementation would act on (port stripped).
///
/// ```
/// use hdiff_wire::uri::{interpret_host, AtSignPolicy, CommaPolicy, SlashPolicy};
/// use hdiff_wire::HostParseOptions;
/// let naive = HostParseOptions {
///     at_sign: AtSignPolicy::UseBefore,
///     comma: CommaPolicy::TakeFirst,
///     slash: SlashPolicy::Truncate,
///     allow_empty: true,
/// };
/// assert_eq!(interpret_host(b"h1.com@h2.com", &naive).unwrap(), b"h1.com");
/// let rfc = HostParseOptions { at_sign: AtSignPolicy::UseAfter, ..naive };
/// assert_eq!(interpret_host(b"h1.com@h2.com", &rfc).unwrap(), b"h2.com");
/// ```
pub fn interpret_host(raw: &[u8], opts: &HostParseOptions) -> Result<Vec<u8>, HostError> {
    host_in(raw, opts).map(<[u8]>::to_ascii_lowercase)
}

/// The bytes of `raw` that [`interpret_host`] lowercases into the host
/// identity: every policy step narrows the value, so it stays a slice of
/// `raw`.
///
/// ```
/// use hdiff_wire::uri::host_in;
/// use hdiff_wire::HostParseOptions;
/// assert_eq!(host_in(b" H1.com:80 ", &HostParseOptions::strict()).unwrap(), b"H1.com");
/// ```
pub fn host_in<'a>(raw: &'a [u8], opts: &HostParseOptions) -> Result<&'a [u8], HostError> {
    let mut value = ascii::trim_ows(raw);
    if value.is_empty() {
        return if opts.allow_empty {
            Ok(value)
        } else {
            Err(HostError { reason: "empty host value" })
        };
    }

    if value.contains(&b',') {
        match opts.comma {
            CommaPolicy::Reject => return Err(HostError { reason: "comma in host value" }),
            CommaPolicy::TakeFirst => {
                let i = value.iter().position(|&b| b == b',').expect("checked");
                value = &value[..i];
            }
            CommaPolicy::TakeLast => {
                let i = value.iter().rposition(|&b| b == b',').expect("checked");
                value = &value[i + 1..];
            }
            CommaPolicy::Whole => {}
        }
        value = ascii::trim_ows(value);
    }

    if value.contains(&b'@') {
        match opts.at_sign {
            AtSignPolicy::Reject => return Err(HostError { reason: "at sign in host value" }),
            AtSignPolicy::UseAfter => {
                let i = value.iter().rposition(|&b| b == b'@').expect("checked");
                value = &value[i + 1..];
            }
            AtSignPolicy::UseBefore => {
                let i = value.iter().position(|&b| b == b'@').expect("checked");
                value = &value[..i];
            }
            AtSignPolicy::Whole => {}
        }
    }

    if value.contains(&b'/') {
        match opts.slash {
            SlashPolicy::Reject => return Err(HostError { reason: "slash in host value" }),
            SlashPolicy::Truncate => {
                let i = value.iter().position(|&b| b == b'/').expect("checked");
                value = &value[..i];
            }
            SlashPolicy::Whole => {}
        }
    }

    // Strip the port for identity comparison. Userinfo handling already
    // happened above per policy, so only the port is split here.
    Ok(split_port(value).0)
}

/// Whether `s` is a strictly valid RFC 3986 `uri-host` (reg-name, IPv4, or
/// IP-literal). Percent-encoding is accepted in reg-names.
pub fn is_strict_uri_host(s: &[u8]) -> bool {
    if s.is_empty() {
        return true; // reg-name may be empty
    }
    if s.first() == Some(&b'[') {
        return s.last() == Some(&b']')
            && s[1..s.len() - 1].iter().all(|&b| b.is_ascii_hexdigit() || b == b':' || b == b'.');
    }
    let mut i = 0;
    while i < s.len() {
        let b = s[i];
        if b == b'%' {
            if i + 2 > s.len() || i + 2 > s.len() - 1 {
                return false;
            }
            if !(s[i + 1].is_ascii_hexdigit() && s[i + 2].is_ascii_hexdigit()) {
                return false;
            }
            i += 3;
            continue;
        }
        let unreserved = b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~');
        let sub_delim = matches!(
            b,
            b'!' | b'$' | b'&' | b'\'' | b'(' | b')' | b'*' | b'+' | b',' | b';' | b'='
        );
        if !(unreserved || sub_delim) {
            return false;
        }
        i += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_origin_form() {
        match RequestTarget::classify(b"/path?q=1") {
            RequestTarget::Origin { path, query } => {
                assert_eq!(path, b"/path");
                assert_eq!(query.as_deref(), Some(&b"q=1"[..]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn classify_absolute_form() {
        match RequestTarget::classify(b"http://h2.com/?a=1") {
            RequestTarget::Absolute { scheme, authority, rest } => {
                assert_eq!(scheme, b"http");
                assert_eq!(authority, b"h2.com");
                assert_eq!(rest, b"/?a=1");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn classify_non_http_scheme_absolute() {
        // Table II: `test://h2.com/?a=1` — the Varnish HoT vector.
        let t = RequestTarget::classify(b"test://h2.com/?a=1");
        assert_eq!(t.scheme(), Some(&b"test"[..]));
        assert!(!t.is_http_absolute());
        assert_eq!(t.authority(), Some(&b"h2.com"[..]));
    }

    #[test]
    fn classify_authority_and_asterisk() {
        assert_eq!(RequestTarget::classify(b"*"), RequestTarget::Asterisk);
        assert!(matches!(RequestTarget::classify(b"example.com:443"), RequestTarget::Authority(_)));
        assert!(matches!(RequestTarget::classify(b"h2.com"), RequestTarget::Authority(_)));
    }

    #[test]
    fn classify_invalid() {
        assert!(matches!(RequestTarget::classify(b"??"), RequestTarget::Invalid(_)));
        assert!(matches!(RequestTarget::classify(b""), RequestTarget::Invalid(_)));
    }

    #[test]
    fn to_origin_form_rewrite() {
        let t = RequestTarget::classify(b"http://h.com/a/b?c=1");
        assert_eq!(t.to_origin_form().unwrap(), b"/a/b?c=1");
        let bare = RequestTarget::classify(b"http://h.com");
        assert_eq!(bare.to_origin_form().unwrap(), b"/");
    }

    #[test]
    fn authority_userinfo_split_is_rfc_conformant() {
        // `h1@h2.com` — userinfo h1, host h2.com.
        let a = Authority::parse(b"h1@h2.com");
        assert_eq!(a.userinfo.as_deref(), Some(&b"h1"[..]));
        assert_eq!(a.host, b"h2.com");
        assert_eq!(a.port, None);
    }

    #[test]
    fn authority_port_split() {
        let a = Authority::parse(b"example.com:8080");
        assert_eq!(a.host, b"example.com");
        assert_eq!(a.port.as_deref(), Some(&b"8080"[..]));
    }

    #[test]
    fn authority_ipv6_literal() {
        let a = Authority::parse(b"[::1]:443");
        assert_eq!(a.host, b"[::1]");
        assert_eq!(a.port.as_deref(), Some(&b"443"[..]));
        let b = Authority::parse(b"[2001:db8::1]");
        assert_eq!(b.host, b"[2001:db8::1]");
        assert_eq!(b.port, None);
    }

    #[test]
    fn interpret_host_policies_disagree() {
        let naive = HostParseOptions {
            at_sign: AtSignPolicy::UseBefore,
            comma: CommaPolicy::TakeFirst,
            slash: SlashPolicy::Truncate,
            allow_empty: true,
        };
        let rfc = HostParseOptions {
            at_sign: AtSignPolicy::UseAfter,
            comma: CommaPolicy::TakeLast,
            slash: SlashPolicy::Truncate,
            allow_empty: true,
        };
        // The three Table II invalid-Host spellings.
        assert_eq!(interpret_host(b"h1.com@h2.com", &naive).unwrap(), b"h1.com");
        assert_eq!(interpret_host(b"h1.com@h2.com", &rfc).unwrap(), b"h2.com");
        assert_eq!(interpret_host(b"h1.com, h2.com", &naive).unwrap(), b"h1.com");
        assert_eq!(interpret_host(b"h1.com, h2.com", &rfc).unwrap(), b"h2.com");
        assert_eq!(interpret_host(b"h1.com/../h2.com", &naive).unwrap(), b"h1.com");
    }

    #[test]
    fn strict_policy_rejects_ambiguity() {
        let strict = HostParseOptions::strict();
        assert!(interpret_host(b"h1.com@h2.com", &strict).is_err());
        assert!(interpret_host(b"h1.com, h2.com", &strict).is_err());
        assert!(interpret_host(b"h1.com/x", &strict).is_err());
        assert_eq!(interpret_host(b"H1.COM:80", &strict).unwrap(), b"h1.com");
    }

    #[test]
    fn transparent_policy_keeps_everything() {
        let t = HostParseOptions::transparent();
        assert_eq!(interpret_host(b"h1.com@h2.com", &t).unwrap(), b"h1.com@h2.com");
    }

    #[test]
    fn strict_uri_host_validation() {
        assert!(is_strict_uri_host(b"example.com"));
        assert!(is_strict_uri_host(b"127.0.0.1"));
        assert!(is_strict_uri_host(b"[::1]"));
        assert!(is_strict_uri_host(b"a%41b"));
        assert!(is_strict_uri_host(b""));
        assert!(!is_strict_uri_host(b"h1.com@h2.com"));
        assert!(!is_strict_uri_host(b"h1.com/x"));
        assert!(!is_strict_uri_host(b"h1.com h2.com"));
        assert!(!is_strict_uri_host(b"a%4"));
        assert!(!is_strict_uri_host(b"a%zz"));
    }
}
