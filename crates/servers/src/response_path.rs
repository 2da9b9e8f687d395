//! The response path: how an implementation interprets and a proxy relays
//! an origin response.
//!
//! RFC 7230 places response-side MUSTs on intermediaries that mirror the
//! request-side ones — most prominently §3.2.4: *"A proxy or gateway that
//! receives an obs-fold in a response message … MUST either discard the
//! message and replace it with a 502 (Bad Gateway) response, or replace
//! each received obs-fold with one or more SP octets"*. This module
//! interprets raw response bytes under a [`ParserProfile`] and rebuilds
//! the upstream response a proxy would relay.

use hdiff_wire::ascii;
use hdiff_wire::chunked::decode_chunked;
use hdiff_wire::header::HeaderField;
use hdiff_wire::{ByteView, Response, StatusCode};

use crate::engine::{canonical_name, ClassifiedHeader, FramingChoice};
use crate::profile::{NamePolicy, ObsFoldPolicy, ParserProfile, WsColonPolicy};

/// How a response was handled on the relay path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelayAction {
    /// Relayed downstream as these bytes.
    Relayed(Vec<u8>),
    /// Discarded and replaced with a generated response (502 for malformed
    /// upstream messages, per RFC 7230 §3.2.4).
    Replaced(Response),
}

impl RelayAction {
    /// The relayed bytes, if any.
    pub fn relayed(&self) -> Option<&[u8]> {
        match self {
            RelayAction::Relayed(b) => Some(b),
            RelayAction::Replaced(_) => None,
        }
    }
}

/// Interprets a raw response under `profile` and decides the relay action
/// a proxy with that profile would take.
pub fn relay_response(profile: &ParserProfile, input: &[u8]) -> RelayAction {
    let bad_gateway = |reason: &str| {
        let mut r = Response::with_body(StatusCode::BAD_GATEWAY, reason.to_string());
        r.headers.push("Server", profile.name.clone());
        RelayAction::Replaced(r)
    };

    let Some(line_end) = ascii::find_crlf(input) else {
        return bad_gateway("upstream response without status line");
    };
    let line = &input[..line_end];
    let mut pos = line_end + 2;

    let mut parts = line.splitn(3, |&b| b == b' ');
    let version = parts.next().unwrap_or_default();
    let status_b = parts.next().unwrap_or_default();
    let _reason = parts.next().unwrap_or_default();
    if !version.starts_with(b"HTTP/")
        || status_b.len() != 3
        || !status_b.iter().all(u8::is_ascii_digit)
    {
        return bad_gateway("malformed upstream status line");
    }

    // Header section with response-side policies.
    let mut headers: Vec<ClassifiedHeader> = Vec::new();
    let mut notes = Vec::new();
    loop {
        let Some(h_end) = ascii::find_crlf(&input[pos..]) else {
            return bad_gateway("upstream header section not terminated");
        };
        let raw = &input[pos..pos + h_end];
        pos += h_end + 2;
        if raw.is_empty() {
            break;
        }
        if raw[0] == b' ' || raw[0] == b'\t' {
            match profile.obs_fold {
                ObsFoldPolicy::Reject => {
                    // The RFC MUST: discard and replace with 502.
                    return bad_gateway("obs-fold in upstream response");
                }
                ObsFoldPolicy::MergeSp => {
                    if let Some(last) = headers.pop() {
                        let mut merged = last.field.raw().to_vec();
                        merged.push(b' ');
                        merged.extend_from_slice(ascii::trim_ows(raw));
                        headers.push(ClassifiedHeader {
                            field: HeaderField::over(ByteView::from(merged)),
                            canon: last.canon,
                        });
                        notes.push("merged response obs-fold".to_string());
                        continue;
                    }
                    return bad_gateway("leading whitespace before first response header");
                }
            }
        }
        let field = HeaderField::over(ByteView::from(raw));
        let canon = if field.has_ws_before_colon() {
            match profile.ws_colon {
                // §3.2.4: a proxy MUST remove such whitespace from a
                // response before forwarding — every policy normalizes.
                WsColonPolicy::Reject | WsColonPolicy::AcceptUse | WsColonPolicy::TreatUnknown => {
                    notes.push("normalized ws-colon response header".to_string());
                    Some(canonical_name(field.name_trimmed()))
                }
            }
        } else if ascii::is_token(field.name_raw()) {
            Some(canonical_name(field.name_raw()))
        } else {
            match profile.name_policy {
                NamePolicy::Reject => return bad_gateway("invalid upstream header name"),
                NamePolicy::TreatUnknown => None,
                NamePolicy::Strip => Some(canonical_name(
                    &field
                        .name_raw()
                        .iter()
                        .copied()
                        .filter(|&b| ascii::is_tchar(b))
                        .collect::<Vec<u8>>(),
                )),
            }
        };
        headers.push(ClassifiedHeader { field, canon });
    }

    // Framing: CL wins when present; otherwise chunked; otherwise to-EOF.
    let framing = response_framing(&headers);
    let body: Vec<u8> = match framing {
        FramingChoice::None => input[pos..].to_vec(),
        FramingChoice::ContentLength(n) => {
            let n = usize::try_from(n).unwrap_or(usize::MAX);
            if input.len() - pos < n {
                return bad_gateway("upstream body shorter than content-length");
            }
            input[pos..pos + n].to_vec()
        }
        FramingChoice::Chunked => match decode_chunked(&input[pos..], &profile.chunk_opts) {
            Ok(dec) => dec.payload,
            Err(e) => return bad_gateway(&format!("upstream chunked error: {e}")),
        },
    };

    // Rebuild: normalized headers minus hop-by-hop, body re-framed by CL.
    let status = StatusCode(status_b.iter().fold(0u16, |a, &b| a * 10 + u16::from(b - b'0')));
    let mut out = Vec::new();
    out.extend_from_slice(b"HTTP/1.1 ");
    out.extend_from_slice(status_b);
    out.extend_from_slice(b" ");
    out.extend_from_slice(status.reason().as_bytes());
    out.extend_from_slice(b"\r\n");
    for h in &headers {
        let skip = matches!(
            h.canon.as_deref(),
            Some("connection")
                | Some("keep-alive")
                | Some("transfer-encoding")
                | Some("content-length")
                | Some("proxy-authenticate")
        );
        if skip {
            continue;
        }
        match &h.canon {
            Some(name) if h.field.has_ws_before_colon() => {
                // Normalized spelling.
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(b": ");
                out.extend_from_slice(h.field.value());
            }
            _ => out.extend_from_slice(h.field.raw()),
        }
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
    out.extend_from_slice(b"Via: 1.1 ");
    out.extend_from_slice(profile.name.as_bytes());
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(&body);
    RelayAction::Relayed(out)
}

fn response_framing(headers: &[ClassifiedHeader]) -> FramingChoice {
    let te_chunked = headers.iter().any(|h| {
        h.canon.as_deref() == Some("transfer-encoding")
            && h.field.value().to_ascii_lowercase().windows(7).any(|w| w == b"chunked")
    });
    if te_chunked {
        return FramingChoice::Chunked;
    }
    for h in headers {
        if h.canon.as_deref() == Some("content-length") {
            if let Some(n) = ascii::parse_dec_strict(h.field.value()) {
                return FramingChoice::ContentLength(n);
            }
        }
    }
    FramingChoice::None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::products::{product, ProductId};
    use crate::profile::ParserProfile;

    #[test]
    fn clean_response_is_relayed_with_via() {
        let p = product(ProductId::Apache);
        let action = relay_response(
            &p,
            b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\r\nhi",
        );
        let bytes = action.relayed().expect("relayed");
        let s = String::from_utf8_lossy(bytes);
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("Via: 1.1 apache"));
        assert!(s.ends_with("hi"));
    }

    #[test]
    fn obs_fold_response_becomes_502_under_the_rfc_must() {
        // "MUST either discard the message and replace it with a 502 …"
        let p = ParserProfile::strict("strictproxy");
        let action =
            relay_response(&p, b"HTTP/1.1 200 OK\r\nX-Meta: a\r\n b\r\nContent-Length: 0\r\n\r\n");
        match action {
            RelayAction::Replaced(r) => assert_eq!(r.status, StatusCode::BAD_GATEWAY),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn obs_fold_response_merged_under_the_alternative() {
        // "… or replace each received obs-fold with one or more SP octets".
        let mut p = ParserProfile::strict("lenientproxy");
        p.obs_fold = ObsFoldPolicy::MergeSp;
        let action =
            relay_response(&p, b"HTTP/1.1 200 OK\r\nX-Meta: a\r\n b\r\nContent-Length: 0\r\n\r\n");
        let bytes = action.relayed().expect("relayed");
        assert!(
            String::from_utf8_lossy(bytes).contains("X-Meta: a b"),
            "{}",
            String::from_utf8_lossy(bytes)
        );
    }

    #[test]
    fn ws_colon_response_header_is_normalized() {
        // §3.2.4: "A proxy MUST remove any such whitespace from a response
        // message before forwarding the message downstream."
        let p = product(ProductId::Apache);
        let action =
            relay_response(&p, b"HTTP/1.1 200 OK\r\nX-Info : v\r\nContent-Length: 0\r\n\r\n");
        let bytes = action.relayed().expect("relayed");
        let s = String::from_utf8_lossy(bytes);
        assert!(s.contains("x-info: v"), "{s}");
        assert!(!s.contains("X-Info :"), "{s}");
    }

    #[test]
    fn chunked_upstream_body_is_reframed_with_content_length() {
        let p = product(ProductId::Nginx);
        let action = relay_response(
            &p,
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
        );
        let bytes = action.relayed().expect("relayed");
        let s = String::from_utf8_lossy(bytes);
        assert!(s.contains("Content-Length: 5"), "{s}");
        assert!(!s.to_lowercase().contains("transfer-encoding"), "{s}");
        assert!(s.ends_with("hello"));
    }

    #[test]
    fn malformed_upstream_status_line_becomes_502() {
        let p = product(ProductId::Squid);
        for bad in [&b"garbage\r\n\r\n"[..], b"HTTP/1.1 2x0 OK\r\n\r\n", b"no crlf at all"] {
            let action = relay_response(&p, bad);
            assert!(
                matches!(action, RelayAction::Replaced(ref r) if r.status == StatusCode::BAD_GATEWAY)
            );
        }
    }

    #[test]
    fn hop_by_hop_response_fields_are_stripped() {
        let p = product(ProductId::Haproxy);
        let action = relay_response(
            &p,
            b"HTTP/1.1 200 OK\r\nConnection: close\r\nKeep-Alive: timeout=5\r\nContent-Length: 0\r\n\r\n",
        );
        let bytes = action.relayed().expect("relayed");
        let s = String::from_utf8_lossy(bytes).to_lowercase();
        assert!(!s.contains("keep-alive"), "{s}");
    }
}
