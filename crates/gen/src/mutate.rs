//! The mutation engine (§III-D).
//!
//! "To trigger possible processing discrepancies between different HTTP
//! servers, HDiff also introduces common mutations on the valid requests,
//! such as header repeating, inserting Unicode characters, header
//! encoding, and case variation. … We only apply several rounds of
//! mutations to each test case so that the changes make a small impact on
//! the format."
//!
//! Special characters follow Table II's `[sc]` legend: common whitespace
//! (`SP`, `HTAB`, `\x0b`, `\x0d`, `\x00`), grammatical characters
//! (`{ } < > @ , " $`) and Unicode bytes.

use hdiff_wire::{HeaderField, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Table II's `[sc]` special characters.
pub const SPECIAL_CHARS: &[&[u8]] = &[
    b" ",
    b"\t",
    b"\x0b",
    b"\x0d",
    b"\x00",
    b"{",
    b"}",
    b"<",
    b">",
    b"@",
    b",",
    b"\"",
    b"$",
    b"\xc2\xa0",     // U+00A0 no-break space (UTF-8)
    b"\xe2\x80\x8b", // U+200B zero-width space
];

/// The mutation operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationKind {
    /// Duplicate an existing header with a different value.
    HeaderRepeat,
    /// Insert a special character before the header name.
    SpecialCharBeforeName,
    /// Insert a special character between name and colon.
    SpecialCharBeforeColon,
    /// Insert a special character right after the colon.
    SpecialCharAfterColon,
    /// Insert a special character inside the value.
    SpecialCharInValue,
    /// Randomly flip letter case in a header name.
    NameCaseVariation,
    /// Randomly flip letter case in the method token.
    MethodCaseVariation,
    /// Percent-encode one byte of the value (header encoding).
    ValuePercentEncode,
    /// Turn a header into an obs-fold continuation pair.
    ObsFold,
    /// Replace the HTTP version with a malformed/shifted token.
    VersionSwap,
}

impl MutationKind {
    /// All operators, for round-robin application.
    pub const ALL: [MutationKind; 10] = [
        MutationKind::HeaderRepeat,
        MutationKind::SpecialCharBeforeName,
        MutationKind::SpecialCharBeforeColon,
        MutationKind::SpecialCharAfterColon,
        MutationKind::SpecialCharInValue,
        MutationKind::NameCaseVariation,
        MutationKind::MethodCaseVariation,
        MutationKind::ValuePercentEncode,
        MutationKind::ObsFold,
        MutationKind::VersionSwap,
    ];
}

/// Version tokens used by [`MutationKind::VersionSwap`] — Table II's
/// invalid and lower/higher versions.
pub const VERSION_POOL: &[&[u8]] = &[
    b"1.1/HTTP",
    b"HTTP/3-1",
    b"hTTP/1.1",
    b"HTTP/0.9",
    b"HTTP/1.0",
    b"HTTP/2.0",
    b"HTTP/1.2",
    b"HTTP/11",
];

/// Seeded mutation engine.
#[derive(Debug)]
pub struct MutationEngine {
    rng: StdRng,
    /// Mutation rounds per case (the paper keeps this small).
    pub rounds: usize,
}

impl MutationEngine {
    /// Engine with a seed and the default small round count.
    pub fn new(seed: u64) -> MutationEngine {
        MutationEngine { rng: StdRng::seed_from_u64(seed), rounds: 2 }
    }

    /// Applies one specific mutation, returning a description of what was
    /// done (or `None` if the request has no applicable site).
    pub fn apply(&mut self, request: &mut Request, kind: MutationKind) -> Option<String> {
        match kind {
            MutationKind::HeaderRepeat => {
                let n = request.headers.len();
                if n == 0 {
                    return None;
                }
                let idx = self.rng.gen_range(0..n);
                let field = request.headers.iter().nth(idx)?;
                let name = field.name_trimmed().to_vec();
                let mut value = field.value().to_vec();
                value.extend_from_slice(b".alt");
                let note = format!("repeat header {}", String::from_utf8_lossy(&name));
                request.headers.push(name, value);
                Some(note)
            }
            MutationKind::SpecialCharBeforeName
            | MutationKind::SpecialCharBeforeColon
            | MutationKind::SpecialCharAfterColon
            | MutationKind::SpecialCharInValue => self.special_char(request, kind),
            MutationKind::NameCaseVariation => {
                let n = request.headers.len();
                if n == 0 {
                    return None;
                }
                let idx = self.rng.gen_range(0..n);
                let mut raw = request.headers.iter().nth(idx)?.raw().to_vec();
                let flip = self.rng.gen_range(0..raw.len().max(1));
                for (i, b) in raw.iter_mut().enumerate() {
                    if i <= flip && b.is_ascii_alphabetic() {
                        *b ^= 0x20;
                    }
                    if *b == b':' {
                        break;
                    }
                }
                replace_header(request, idx, raw);
                Some("case variation in header name".to_string())
            }
            MutationKind::MethodCaseVariation => {
                let mut m = request.method_bytes().to_vec();
                if m.is_empty() {
                    return None;
                }
                let i = self.rng.gen_range(0..m.len());
                if m[i].is_ascii_alphabetic() {
                    m[i] ^= 0x20;
                }
                request.set_method(&m);
                Some("case variation in method".to_string())
            }
            MutationKind::ValuePercentEncode => {
                let n = request.headers.len();
                if n == 0 {
                    return None;
                }
                let idx = self.rng.gen_range(0..n);
                let field = request.headers.iter().nth(idx)?;
                let value = field.value();
                if value.is_empty() {
                    return None;
                }
                let pos = self.rng.gen_range(0..value.len());
                let name = field.name_raw();
                // The encoded byte takes three bytes, two more than before.
                let mut raw = Vec::with_capacity(name.len() + 2 + value.len() + 2);
                raw.extend_from_slice(name);
                raw.extend_from_slice(b": ");
                raw.extend_from_slice(&value[..pos]);
                raw.extend_from_slice(format!("%{:02X}", value[pos]).as_bytes());
                raw.extend_from_slice(&value[pos + 1..]);
                replace_header(request, idx, raw);
                Some("percent-encode byte in value".to_string())
            }
            MutationKind::ObsFold => {
                // Only headers with a foldable (>=2 byte) value qualify.
                let eligible: Vec<usize> = request
                    .headers
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.value().len() >= 2)
                    .map(|(i, _)| i)
                    .collect();
                if eligible.is_empty() {
                    return None;
                }
                let idx = eligible[self.rng.gen_range(0..eligible.len())];
                let field = request.headers.iter().nth(idx)?;
                let value = field.value();
                let split = value.len() / 2;
                let name = field.name_raw();
                let mut raw = Vec::with_capacity(name.len() + 2 + value.len() + 3);
                raw.extend_from_slice(name);
                raw.extend_from_slice(b": ");
                raw.extend_from_slice(&value[..split]);
                raw.extend_from_slice(b"\r\n ");
                raw.extend_from_slice(&value[split..]);
                replace_header(request, idx, raw);
                Some("obs-fold continuation".to_string())
            }
            MutationKind::VersionSwap => {
                let v = VERSION_POOL[self.rng.gen_range(0..VERSION_POOL.len())];
                request.set_version(v);
                Some(format!("version swapped to {}", String::from_utf8_lossy(v)))
            }
        }
    }

    fn special_char(&mut self, request: &mut Request, kind: MutationKind) -> Option<String> {
        let n = request.headers.len();
        if n == 0 {
            return None;
        }
        let idx = self.rng.gen_range(0..n);
        let sc = SPECIAL_CHARS[self.rng.gen_range(0..SPECIAL_CHARS.len())];
        let field = request.headers.iter().nth(idx)?;
        let (name, value) = (field.name_raw(), field.value_raw());
        let mut raw = Vec::with_capacity(name.len() + 1 + sc.len() + value.len());
        match kind {
            MutationKind::SpecialCharBeforeName => {
                raw.extend_from_slice(sc);
                raw.extend_from_slice(name);
                raw.push(b':');
                raw.extend_from_slice(value);
            }
            MutationKind::SpecialCharBeforeColon => {
                raw.extend_from_slice(name);
                raw.extend_from_slice(sc);
                raw.push(b':');
                raw.extend_from_slice(value);
            }
            MutationKind::SpecialCharAfterColon => {
                raw.extend_from_slice(name);
                raw.push(b':');
                raw.extend_from_slice(sc);
                raw.extend_from_slice(value);
            }
            MutationKind::SpecialCharInValue => {
                raw.extend_from_slice(name);
                raw.push(b':');
                if value.is_empty() {
                    raw.extend_from_slice(sc);
                } else {
                    let pos = self.rng.gen_range(0..value.len());
                    raw.extend_from_slice(&value[..pos]);
                    raw.extend_from_slice(sc);
                    raw.extend_from_slice(&value[pos..]);
                }
            }
            _ => unreachable!("non-special-char kind"),
        }
        replace_header(request, idx, raw);
        Some(format!("{kind:?} with {:?}", String::from_utf8_lossy(sc)))
    }

    /// Applies up to `rounds` random mutations, returning descriptions.
    pub fn mutate(&mut self, request: &mut Request) -> Vec<String> {
        let rounds = self.rounds;
        let mut notes = Vec::new();
        for _ in 0..rounds {
            let kind = MutationKind::ALL[self.rng.gen_range(0..MutationKind::ALL.len())];
            if let Some(note) = self.apply(request, kind) {
                notes.push(note);
            }
        }
        notes
    }
}

/// Replaces the raw line of the header at `idx`, leaving every other
/// field where it is. Callers size `raw` exactly: the corpus keeps it.
fn replace_header(request: &mut Request, idx: usize, raw: Vec<u8>) {
    if let Some(field) = request.headers.iter_mut().nth(idx) {
        *field = HeaderField::from_raw(raw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_wire::{Method, Request, Version};

    fn base() -> Request {
        Request::builder()
            .method(Method::Post)
            .target("/a")
            .version(Version::Http11)
            .header("Host", "h1.com")
            .header("Content-Length", "3")
            .body(b"abc".to_vec())
            .build()
    }

    #[test]
    fn header_repeat_duplicates() {
        let mut e = MutationEngine::new(1);
        let mut r = base();
        let note = e.apply(&mut r, MutationKind::HeaderRepeat).unwrap();
        assert!(note.starts_with("repeat header"));
        assert_eq!(r.headers.len(), 3);
    }

    #[test]
    fn special_char_before_colon_breaks_strictness() {
        let mut e = MutationEngine::new(2);
        let mut r = base();
        e.apply(&mut r, MutationKind::SpecialCharBeforeColon).unwrap();
        let any_ws = r.headers.iter().any(|f| !f.name_is_strict());
        assert!(any_ws, "{:?}", r.to_bytes());
    }

    #[test]
    fn version_swap_uses_pool() {
        let mut e = MutationEngine::new(3);
        let mut r = base();
        e.apply(&mut r, MutationKind::VersionSwap).unwrap();
        assert!(VERSION_POOL.contains(&r.version_bytes()));
    }

    #[test]
    fn obs_fold_inserts_continuation() {
        let mut e = MutationEngine::new(4);
        let mut r = base();
        e.apply(&mut r, MutationKind::ObsFold).unwrap();
        assert!(r.to_bytes().windows(3).any(|w| w == b"\r\n " || w == b"\r\n\t"));
    }

    #[test]
    fn mutate_applies_bounded_rounds() {
        let mut e = MutationEngine::new(5);
        let mut r = base();
        let notes = e.mutate(&mut r);
        assert!(notes.len() <= e.rounds);
    }

    #[test]
    fn mutations_never_panic_on_minimal_request() {
        let mut e = MutationEngine::new(6);
        for kind in MutationKind::ALL {
            let mut r = Request::builder().build(); // no headers at all
            let _ = e.apply(&mut r, kind);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut e = MutationEngine::new(seed);
            let mut r = base();
            e.mutate(&mut r);
            r.to_bytes()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn percent_encode_changes_value() {
        let mut e = MutationEngine::new(7);
        let mut r = base();
        e.apply(&mut r, MutationKind::ValuePercentEncode).unwrap();
        assert!(r.to_bytes().contains(&b'%'));
    }
}
