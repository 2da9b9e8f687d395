//! HTTP version handling, including the malformed versions HDiff generates.
//!
//! Table II of the paper lists *invalid HTTP-version* (`1.1/HTTP`,
//! `HTTP/3-1`, `hTTP/1.1`) and *lower/higher HTTP-version* (`HTTP/0.9`,
//! `HTTP/2.0`) as attack vectors, so the wire model must be able to carry a
//! version that is not `HTTP-name "/" DIGIT "." DIGIT` at all.

use std::fmt;

use crate::ascii;

/// An HTTP version as it appears on the request line.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Version {
    /// `HTTP/0.9` — the pre-header protocol; a bare `GET path` line.
    Http09,
    /// `HTTP/1.0`.
    Http10,
    /// `HTTP/1.1`.
    Http11,
    /// `HTTP/2.0` as a literal request-line token (a smuggling vector; real
    /// HTTP/2 is binary-framed and out of scope, as in the paper).
    Http20,
    /// Any other `HTTP/D.D` version (e.g. `HTTP/1.2`).
    Other(u8, u8),
    /// A token in version position that does not match the grammar at all
    /// (`1.1/HTTP`, `HTTP/3-1`, `hTTP/1.1`, …), preserved verbatim.
    Invalid(Vec<u8>),
}

impl Version {
    /// Parses version bytes. Grammar-violating input is preserved as
    /// [`Version::Invalid`] rather than rejected, because HDiff needs to
    /// carry it to the target implementations.
    ///
    /// ```
    /// use hdiff_wire::Version;
    /// assert_eq!(Version::from_bytes(b"HTTP/1.1"), Version::Http11);
    /// assert!(matches!(Version::from_bytes(b"1.1/HTTP"), Version::Invalid(_)));
    /// ```
    pub fn from_bytes(b: &[u8]) -> Version {
        match b {
            b"HTTP/0.9" => return Version::Http09,
            b"HTTP/1.0" => return Version::Http10,
            b"HTTP/1.1" => return Version::Http11,
            b"HTTP/2.0" => return Version::Http20,
            _ => {}
        }
        // HTTP-name is case-sensitive %x48.54.54.50.
        if b.len() == 8
            && &b[..5] == b"HTTP/"
            && b[5].is_ascii_digit()
            && b[6] == b'.'
            && b[7].is_ascii_digit()
        {
            return Version::Other(b[5] - b'0', b[7] - b'0');
        }
        Version::Invalid(b.to_vec())
    }

    /// The wire bytes for this version.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.push_to(&mut out);
        out
    }

    /// Appends the wire bytes for this version to `out`: what
    /// [`Version::to_bytes`] returns, without the temporary vector.
    pub fn push_to(&self, out: &mut Vec<u8>) {
        match self {
            Version::Http09 => out.extend_from_slice(b"HTTP/0.9"),
            Version::Http10 => out.extend_from_slice(b"HTTP/1.0"),
            Version::Http11 => out.extend_from_slice(b"HTTP/1.1"),
            Version::Http20 => out.extend_from_slice(b"HTTP/2.0"),
            Version::Other(maj, min) => {
                out.extend_from_slice(b"HTTP/");
                ascii::push_dec(out, u64::from(*maj));
                out.push(b'.');
                ascii::push_dec(out, u64::from(*min));
            }
            Version::Invalid(raw) => out.extend_from_slice(raw),
        }
    }

    /// Whether the version matches the RFC 7230 `HTTP-version` grammar.
    pub fn is_grammatical(&self) -> bool {
        !matches!(self, Version::Invalid(_))
    }

    /// `(major, minor)` if grammatical.
    pub fn numbers(&self) -> Option<(u8, u8)> {
        match self {
            Version::Http09 => Some((0, 9)),
            Version::Http10 => Some((1, 0)),
            Version::Http11 => Some((1, 1)),
            Version::Http20 => Some((2, 0)),
            Version::Other(a, b) => Some((*a, *b)),
            Version::Invalid(_) => None,
        }
    }

    /// Whether this version is older than HTTP/1.1 (relevant to
    /// `Transfer-Encoding`, which was introduced in 1.1, and to cacheability
    /// heuristics several proxies apply).
    pub fn is_pre_1_1(&self) -> bool {
        matches!(self.numbers(), Some((0, _)) | Some((1, 0)))
    }

    /// Whether this version is newer than HTTP/1.1 as a request-line token.
    pub fn is_post_1_1(&self) -> bool {
        matches!(self.numbers(), Some((maj, _)) if maj >= 2)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Version::Invalid(raw) => write!(f, "{}", ascii::escape_bytes(raw)),
            other => write!(f, "{}", String::from_utf8_lossy(&other.to_bytes())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_versions_round_trip() {
        for (bytes, v) in [
            (&b"HTTP/0.9"[..], Version::Http09),
            (b"HTTP/1.0", Version::Http10),
            (b"HTTP/1.1", Version::Http11),
            (b"HTTP/2.0", Version::Http20),
        ] {
            assert_eq!(Version::from_bytes(bytes), v);
            assert_eq!(v.to_bytes(), bytes);
        }
    }

    #[test]
    fn other_grammatical_versions() {
        assert_eq!(Version::from_bytes(b"HTTP/1.2"), Version::Other(1, 2));
        assert_eq!(Version::Other(3, 0).to_bytes(), b"HTTP/3.0");
        assert!(Version::Other(1, 2).is_grammatical());
    }

    #[test]
    fn paper_invalid_versions_are_preserved() {
        for raw in [&b"1.1/HTTP"[..], b"HTTP/3-1", b"hTTP/1.1", b"HTTP/11", b"http/1.1"] {
            let v = Version::from_bytes(raw);
            assert!(matches!(v, Version::Invalid(_)), "{raw:?}");
            assert_eq!(v.to_bytes(), raw);
            assert!(!v.is_grammatical());
        }
    }

    #[test]
    fn version_ordering_helpers() {
        assert!(Version::Http09.is_pre_1_1());
        assert!(Version::Http10.is_pre_1_1());
        assert!(!Version::Http11.is_pre_1_1());
        assert!(Version::Http20.is_post_1_1());
        assert!(!Version::Http11.is_post_1_1());
        assert!(!Version::Invalid(b"x".to_vec()).is_pre_1_1());
    }

    #[test]
    fn display_escapes_invalid() {
        let v = Version::Invalid(b"HTTP/\x0b1.1".to_vec());
        assert_eq!(v.to_string(), "HTTP/\\x0b1.1");
    }
}
