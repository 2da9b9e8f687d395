//! The `HMetrics` vector (§III-D, *Semantic Metrics*).
//!
//! > "we define an n-dimension vector HMetrics for the server behavior of
//! > each request: HMetrics = ⟨uuid, status_code, host, data, …⟩"
//!
//! One vector summarizes one implementation's observable behavior on one
//! request; detection rules are predicates over sets of vectors.

use hdiff_servers::{Decision, FramingChoice, Interpretation};
use hdiff_wire::{ascii, ByteView};

/// The behavior vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HMetrics {
    /// Test-case id.
    pub uuid: u64,
    /// Implementation name.
    pub implementation: String,
    /// Response status code (200 when accepted).
    pub status_code: u16,
    /// Whether the message was accepted.
    pub accepted: bool,
    /// The host identity the implementation acted on.
    pub host: Option<ByteView>,
    /// The body payload as understood.
    pub data: ByteView,
    /// The framing decision, when accepted.
    pub framing: Option<FramingChoice>,
    /// Bytes consumed from the stream.
    pub consumed: usize,
    /// Whether message repair fired (chunk rewrites etc.).
    pub repaired: bool,
    /// The decisions the implementation logged.
    pub notes: Vec<Decision>,
}

impl HMetrics {
    /// Builds a vector from an interpretation.
    pub fn from_interpretation(uuid: u64, implementation: &str, i: &Interpretation) -> HMetrics {
        HMetrics {
            uuid,
            implementation: implementation.to_string(),
            status_code: i.outcome.status(),
            accepted: i.outcome.is_accept(),
            host: i.host.clone(),
            data: i.body.clone(),
            framing: i.outcome.is_accept().then_some(i.framing),
            consumed: i.consumed,
            repaired: i.repaired_chunked,
            notes: i.notes.clone(),
        }
    }

    /// Whether two vectors disagree on message framing while both
    /// accepting — the core smuggling signal.
    pub fn framing_disagrees(&self, other: &HMetrics) -> bool {
        self.accepted
            && other.accepted
            && (self.framing != other.framing
                || self.consumed != other.consumed
                || self.data != other.data)
    }

    /// Whether two vectors disagree on the host identity while both
    /// accepting — the HoT signal.
    pub fn host_disagrees(&self, other: &HMetrics) -> bool {
        self.accepted && other.accepted && self.host != other.host
    }

    /// One-line rendering for logs.
    pub fn summary(&self) -> String {
        format!(
            "{}: status={} host={} framing={:?} consumed={} data={}B{}",
            self.implementation,
            self.status_code,
            self.host.as_deref().map(ascii::escape_bytes).unwrap_or_else(|| "-".into()),
            self.framing,
            self.consumed,
            self.data.len(),
            if self.repaired { " repaired" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_servers::{interpret, ParserProfile};

    fn metrics(profile: &ParserProfile, bytes: &[u8]) -> HMetrics {
        HMetrics::from_interpretation(1, &profile.name, &interpret(profile, bytes))
    }

    #[test]
    fn from_interpretation_maps_fields() {
        let p = ParserProfile::strict("base");
        let m = metrics(&p, b"POST / HTTP/1.1\r\nHost: h1.com\r\nContent-Length: 3\r\n\r\nabc");
        assert!(m.accepted);
        assert_eq!(m.status_code, 200);
        assert_eq!(m.host.as_deref(), Some(&b"h1.com"[..]));
        assert_eq!(m.data, b"abc");
        assert_eq!(m.framing, Some(FramingChoice::ContentLength(3)));
    }

    #[test]
    fn framing_disagreement_signal() {
        let strict = ParserProfile::strict("a");
        let mut lenient = ParserProfile::strict("b");
        lenient.duplicate_cl = hdiff_servers::profile::DuplicateClPolicy::First;
        let mut lenient2 = ParserProfile::strict("c");
        lenient2.duplicate_cl = hdiff_servers::profile::DuplicateClPolicy::Last;
        let msg =
            b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\nContent-Length: 0\r\n\r\nabc";
        let m1 = metrics(&lenient, msg);
        let m2 = metrics(&lenient2, msg);
        let m0 = metrics(&strict, msg);
        assert!(m1.framing_disagrees(&m2));
        assert!(!m0.accepted, "strict rejects; no both-accept signal");
        assert!(!m0.framing_disagrees(&m1));
    }

    #[test]
    fn host_disagreement_signal() {
        let mut first = ParserProfile::strict("f");
        first.multi_host = hdiff_servers::profile::MultiHostPolicy::First;
        let mut last = ParserProfile::strict("l");
        last.multi_host = hdiff_servers::profile::MultiHostPolicy::Last;
        let msg = b"GET / HTTP/1.1\r\nHost: h1.com\r\nHost: h2.com\r\n\r\n";
        let m1 = metrics(&first, msg);
        let m2 = metrics(&last, msg);
        assert!(m1.host_disagrees(&m2));
        assert!(!m1.host_disagrees(&m1.clone()));
    }

    #[test]
    fn summary_is_readable() {
        let p = ParserProfile::strict("base");
        let m = metrics(&p, b"GET / HTTP/1.1\r\nHost: h\r\n\r\n");
        assert!(m.summary().contains("status=200"));
        assert!(m.summary().starts_with("base:"));
    }
}
