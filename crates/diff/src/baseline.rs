//! The RFC-strict oracle and deviation analysis.
//!
//! Plain differential testing only sees *that* two implementations differ.
//! Because HDiff extracted formal rules, it can also say *which* side
//! conforms: every implementation's interpretation is compared against the
//! strict baseline profile, and lenient deviations (accepting what the
//! baseline rejects, or resolving differently while both accept) are
//! attributed to the deviating product.

use std::sync::LazyLock;

use hdiff_gen::AttackClass;
use hdiff_servers::{interpret, Interpretation, Outcome, ParserProfile, RejectReason};

/// What kind of deviation from the baseline was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviationKind {
    /// Accepted a message the baseline rejects (lenient acceptance).
    LenientAccept,
    /// Rejected a message the baseline accepts (strict-side deviation;
    /// safe in itself but a CPDoS error source).
    StrictReject,
    /// Both accept but the framing/consumed/payload differs.
    Framing,
    /// Both accept but the host identity differs.
    Host,
    /// The implementation repaired a malformed construct.
    Repair,
}

/// One deviation record. Detection renders its evidence from the two
/// interpretations (see [`crate::findings::Evidence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deviation {
    /// The deviation kind.
    pub kind: DeviationKind,
    /// Attack class the deviation evidences.
    pub class: AttackClass,
}

/// The RFC-strict baseline profile.
pub fn baseline_profile() -> ParserProfile {
    ParserProfile::strict("rfc-baseline")
}

/// [`baseline_profile`], built once for the whole process: detection
/// interprets every case under it.
pub(crate) fn strict_baseline() -> &'static ParserProfile {
    static BASELINE: LazyLock<ParserProfile> = LazyLock::new(baseline_profile);
    &BASELINE
}

/// Classifies a baseline rejection (plus the message bytes) into the
/// attack class a lenient acceptance of it evidences.
fn classify_reason(reason: &RejectReason, bytes: &[u8]) -> AttackClass {
    use RejectReason as R;
    match reason {
        // Content-Length, Transfer-Encoding, chunked and body rules. An
        // expectation on a bodyless request is judged as a body rule.
        R::InvalidContentLength(_)
        | R::DifferingContentLengthList
        | R::UnparseableContentLength(_)
        | R::MultipleContentLength
        | R::DifferingContentLength
        | R::UnknownTransferCoding(_)
        | R::EmptyTransferEncoding
        | R::FinalCodingNotChunked
        | R::ChunkedAppliedTwice
        | R::ChunkedUnder10
        | R::ClWithTe
        | R::BodyOnGetHead
        | R::ExpectOnBodyless
        | R::BodyShorterThanCl
        | R::Chunked(_) => AttackClass::Hrs,
        R::MultipleHost | R::MissingHost | R::BadHost(_) | R::HostMismatch | R::InvalidHost => {
            AttackClass::Hot
        }
        R::InvalidVersion
        | R::Http09Unsupported
        | R::MajorVersionUnsupported
        | R::UnknownExpectation => AttackClass::Cpdos,
        // Generic reasons (whitespace before colon, invalid header name):
        // decide by what the message is actually smuggling.
        R::NoRequestLineTerminator
        | R::MalformedRequestLine
        | R::InvalidMethod
        | R::HeaderSectionUnterminated
        | R::HeaderSectionTooLarge
        | R::ObsFold
        | R::LeadingWhitespace
        | R::HeaderLineWithoutColon
        | R::WhitespaceBeforeColon
        | R::InvalidHeaderName => {
            let has =
                |needle: &[u8]| bytes.windows(needle.len()).any(|w| w.eq_ignore_ascii_case(needle));
            if has(b"transfer-encoding") || has(b"content-length") {
                AttackClass::Hrs
            } else if has(b"host") {
                AttackClass::Hot
            } else {
                AttackClass::Cpdos
            }
        }
    }
}

/// Computes the deviations of `impl_interp` relative to the baseline's
/// interpretation of the same bytes.
pub fn deviations(
    implementation: &Interpretation,
    baseline: &Interpretation,
    bytes: &[u8],
) -> Vec<Deviation> {
    let mut out = Vec::new();
    match (&implementation.outcome, &baseline.outcome) {
        (Outcome::Accept, Outcome::Reject { reason, .. }) => {
            out.push(Deviation {
                kind: DeviationKind::LenientAccept,
                class: classify_reason(reason, bytes),
            });
        }
        (Outcome::Reject { .. }, Outcome::Accept) => {
            out.push(Deviation { kind: DeviationKind::StrictReject, class: AttackClass::Cpdos });
        }
        (Outcome::Accept, Outcome::Accept) => {
            if implementation.framing != baseline.framing
                || implementation.consumed != baseline.consumed
                || implementation.body != baseline.body
            {
                out.push(Deviation { kind: DeviationKind::Framing, class: AttackClass::Hrs });
            }
            if implementation.host != baseline.host {
                out.push(Deviation { kind: DeviationKind::Host, class: AttackClass::Hot });
            }
        }
        (Outcome::Reject { .. }, Outcome::Reject { .. }) => {}
    }
    if implementation.repaired_chunked {
        out.push(Deviation { kind: DeviationKind::Repair, class: AttackClass::Hrs });
    }
    out
}

/// Convenience: interpret under the baseline and diff in one call.
pub fn deviations_from_strict(profile: &ParserProfile, bytes: &[u8]) -> Vec<Deviation> {
    let b = interpret(strict_baseline(), bytes);
    let i = interpret(profile, bytes);
    deviations(&i, &b, bytes)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hdiff_servers::{product, ProductId};
    use hdiff_wire::uri::HostError;
    use hdiff_wire::{ByteView, ChunkedError};

    /// Every reject reason the engine gives, the quoting ones quoting
    /// words the text searches looked for.
    pub(crate) fn every_reason() -> Vec<RejectReason> {
        use RejectReason as R;
        let quote = |text: &str| ByteView::from(text.as_bytes());
        let mut reasons = vec![
            R::NoRequestLineTerminator,
            R::MalformedRequestLine,
            R::InvalidMethod,
            R::InvalidVersion,
            R::Http09Unsupported,
            R::MajorVersionUnsupported,
            R::HeaderSectionUnterminated,
            R::HeaderSectionTooLarge,
            R::ObsFold,
            R::LeadingWhitespace,
            R::HeaderLineWithoutColon,
            R::WhitespaceBeforeColon,
            R::InvalidHeaderName,
            R::MultipleHost,
            R::MissingHost,
            R::HostMismatch,
            R::InvalidHost,
            R::InvalidContentLength(quote("host 0.9")),
            R::DifferingContentLengthList,
            R::UnparseableContentLength(quote("expect")),
            R::MultipleContentLength,
            R::DifferingContentLength,
            R::UnknownTransferCoding(quote("host")),
            R::EmptyTransferEncoding,
            R::FinalCodingNotChunked,
            R::ChunkedAppliedTwice,
            R::ChunkedUnder10,
            R::ClWithTe,
            R::BodyOnGetHead,
            R::UnknownExpectation,
            R::ExpectOnBodyless,
            R::BodyShorterThanCl,
        ];
        for reason in [
            "empty host value",
            "comma in host value",
            "at sign in host value",
            "slash in host value",
        ] {
            reasons.push(R::BadHost(HostError { reason }));
        }
        for error in [
            ChunkedError::InvalidSize(b"host".to_vec()),
            ChunkedError::SizeOverflow(b"1".to_vec()),
            ChunkedError::InvalidExtension(b";version".to_vec()),
            ChunkedError::Truncated,
            ChunkedError::MissingDataCrlf,
            ChunkedError::NulInData,
        ] {
            reasons.push(R::Chunked(error));
        }
        reasons
    }

    /// The text search [`classify_reason`] replaced.
    fn old_classify_reason(reason: &str, bytes: &[u8]) -> AttackClass {
        let r = reason.to_ascii_lowercase();
        let lower: Vec<u8> = bytes.to_ascii_lowercase();
        let has = |needle: &[u8]| lower.windows(needle.len()).any(|w| w == needle);
        if r.contains("content-length")
            || r.contains("transfer")
            || r.contains("chunk")
            || r.contains("body")
        {
            return AttackClass::Hrs;
        }
        if r.contains("host") {
            return AttackClass::Hot;
        }
        if r.contains("version") || r.contains("expect") || r.contains("0.9") {
            return AttackClass::Cpdos;
        }
        if has(b"transfer-encoding") || has(b"content-length") {
            AttackClass::Hrs
        } else if has(b"host") {
            AttackClass::Hot
        } else {
            AttackClass::Cpdos
        }
    }

    #[test]
    fn every_reason_classifies_as_its_text_did() {
        let messages: [&[u8]; 4] = [
            b"GET / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nHOST: h\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n",
            b"POST / HTTP/1.1\r\nHost: h\r\ncontent-LENGTH: 3\r\n\r\n",
        ];
        for reason in every_reason() {
            for bytes in messages {
                assert_eq!(
                    classify_reason(&reason, bytes),
                    old_classify_reason(&reason.to_string(), bytes),
                    "{reason:?} on {:?}",
                    String::from_utf8_lossy(bytes)
                );
            }
        }
    }

    #[test]
    fn iis_ws_colon_is_a_lenient_hrs_deviation() {
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length : 3\r\n\r\nabc";
        let devs = deviations_from_strict(&product(ProductId::Iis), msg);
        assert_eq!(devs.len(), 1, "{devs:?}");
        assert_eq!(devs[0].kind, DeviationKind::LenientAccept);
        assert_eq!(devs[0].class, AttackClass::Hrs);
    }

    #[test]
    fn weblogic_http09_is_a_cpdos_class_deviation() {
        let msg = b"GET / HTTP/0.9\r\nHost: h\r\n\r\n";
        let devs = deviations_from_strict(&product(ProductId::Weblogic), msg);
        assert!(devs.iter().any(|d| d.class == AttackClass::Cpdos), "{devs:?}");
    }

    #[test]
    fn varnish_invalid_host_is_a_hot_deviation() {
        let msg = b"GET / HTTP/1.1\r\nHost: h1.com@h2.com\r\n\r\n";
        let devs = deviations_from_strict(&product(ProductId::Varnish), msg);
        assert!(devs.iter().any(|d| d.class == AttackClass::Hot), "{devs:?}");
    }

    #[test]
    fn haproxy_chunk_repair_is_an_hrs_deviation() {
        let msg = b"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n1000000000000000a\r\nabc\r\n0\r\n\r\n";
        let devs = deviations_from_strict(&product(ProductId::Haproxy), msg);
        assert!(devs.iter().any(|d| d.kind == DeviationKind::Repair), "{devs:?}");
    }

    #[test]
    fn strict_product_has_no_deviation_on_clean_request() {
        let msg = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";
        for id in ProductId::ALL {
            let devs = deviations_from_strict(&product(id), msg);
            assert!(devs.is_empty(), "{id}: {devs:?}");
        }
    }

    #[test]
    fn apache_never_deviates_leniently_on_catalog_payloads() {
        // Apache is Table I's fully-strict product (CPDoS only, via its
        // cache): it must never accept what the baseline rejects.
        for entry in hdiff_gen::catalog::catalog() {
            for (req, note) in &entry.requests {
                let bytes = req.to_bytes();
                let devs = deviations_from_strict(&product(ProductId::Apache), &bytes);
                assert!(
                    devs.iter().all(|d| d.kind != DeviationKind::LenientAccept
                        && d.kind != DeviationKind::Framing
                        && d.kind != DeviationKind::Host),
                    "{}: {note}: {devs:?}",
                    entry.id
                );
            }
        }
    }

    #[test]
    fn lighttpd_expect_rejection_is_strict_side() {
        let msg = b"GET / HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\n\r\n";
        let devs = deviations_from_strict(&product(ProductId::Lighttpd), msg);
        assert!(devs.iter().any(|d| d.kind == DeviationKind::StrictReject), "{devs:?}");
    }
}
