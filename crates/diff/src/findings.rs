//! Finding records produced by the detection models.
//!
//! A campaign keeps every finding until it ends, so a [`Finding`] is a
//! compact value: names are 2-byte [`Name`] handles, the culprits an
//! inline pair of them, the origin one `Arc<str>` shared by the case's
//! findings, and the evidence an [`Evidence`] value that carries what the
//! detection rule saw and is rendered to text only when shown.

use std::fmt;
use std::sync::Arc;

use hdiff_gen::AttackClass;
use hdiff_servers::FramingChoice;
use hdiff_wire::StatusCode;

use crate::names::Name;
use crate::syntax::verdict_label;

/// One detected semantic-gap candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Attack class.
    pub class: AttackClass,
    /// Test-case id that triggered it.
    pub uuid: u64,
    /// Test-case origin string, shared by the case's findings.
    pub origin: Arc<str>,
    /// Front-end (proxy) involved, if pair-shaped.
    pub front: Option<Name>,
    /// Back-end involved, if pair-shaped.
    pub back: Option<Name>,
    /// Products whose nonconformance the finding evidences.
    pub culprits: Culprits,
    /// What the detection rule saw.
    pub evidence: Evidence,
}

impl Finding {
    /// Whether this finding names a front/back pair.
    pub fn is_pair(&self) -> bool {
        self.front.is_some() && self.back.is_some()
    }

    /// `(front, back)` when pair-shaped.
    pub fn pair(&self) -> Option<(&'static str, &'static str)> {
        match (self.front, self.back) {
            (Some(f), Some(b)) => Some((f.as_str(), b.as_str())),
            _ => None,
        }
    }

    /// Whether `other` shows the same divergence: the same class, front
    /// and back. A minimizer keeps a candidate only while the finding it
    /// shrinks reproduces in this sense.
    pub fn same_divergence(&self, other: &Finding) -> bool {
        self.class == other.class && self.front == other.front && self.back == other.back
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] case #{} ({})", self.class, self.uuid, self.origin)?;
        if let Some((front, back)) = self.pair() {
            write!(f, " {front} -> {back}")?;
        }
        write!(f, ": {}", self.evidence)
    }
}

/// The products a finding blames: a set of at most two names, iterated
/// in string order. No detection rule blames more than the two parties
/// of a pair.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct Culprits([Option<Name>; 2]);

impl Culprits {
    /// Adds `name`; `Err(name)` when two other names are already in.
    pub fn try_insert(&mut self, name: Name) -> Result<(), Name> {
        match self.0 {
            [Some(a), _] if a == name => Ok(()),
            [_, Some(b)] if b == name => Ok(()),
            [None, _] => {
                self.0[0] = Some(name);
                Ok(())
            }
            [Some(a), None] => {
                self.0 = if name < a { [Some(name), Some(a)] } else { [Some(a), Some(name)] };
                Ok(())
            }
            [Some(_), Some(_)] => Err(name),
        }
    }

    /// Adds `name`.
    ///
    /// # Panics
    ///
    /// Panics when two other names are already in.
    pub fn insert(&mut self, name: Name) {
        if let Err(name) = self.try_insert(name) {
            panic!("a finding blames at most two products, not also {name}");
        }
    }

    /// The names, in string order.
    pub fn iter(&self) -> impl Iterator<Item = Name> + '_ {
        self.0.iter().flatten().copied()
    }

    /// How many names are in.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether no name is in.
    pub fn is_empty(&self) -> bool {
        self.0[0].is_none()
    }

    /// Whether `name` is in.
    pub fn contains(&self, name: &str) -> bool {
        self.iter().any(|n| n == name)
    }
}

impl<N: Into<Name>> FromIterator<N> for Culprits {
    /// # Panics
    ///
    /// Panics on a third distinct name.
    fn from_iter<I: IntoIterator<Item = N>>(names: I) -> Culprits {
        let mut culprits = Culprits::default();
        for name in names {
            culprits.insert(name.into());
        }
        culprits
    }
}

impl fmt::Debug for Culprits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Why a finding was reported: the values its detection rule saw.
///
/// `Display` renders the evidence text each rule has always reported
/// (the variant docs give the shape). Findings whose evidence is made
/// as text — cookie, h2 downgrade and transport divergences — and every
/// finding read back from a checkpoint or replay bundle carry
/// [`Evidence::Text`].
///
/// Evidence compares by its rendering, so a finding read back from disk
/// equals the one that was written.
#[derive(Debug, Clone)]
pub enum Evidence {
    /// `{name}: accepted message the baseline rejects ({reason})`, with
    /// the baseline's rejection reason.
    LenientAccept {
        /// The lenient implementation.
        name: Name,
        /// Why the strict baseline rejected the message.
        reason: Arc<str>,
    },
    /// `{name}: framing differs from baseline ({:?} vs {:?}, consumed
    /// {} vs {})`.
    Framing(Box<FramingDeviation>),
    /// `{name}: host identity differs from baseline`.
    HostIdentity {
        /// The deviating implementation.
        name: Name,
    },
    /// `{name}: repaired malformed chunked framing`.
    ChunkRepair {
        /// The repairing implementation.
        name: Name,
    },
    /// `host views differ: proxy sees {:?}, backend sees {:?}`, plus
    /// `; Host ABNF: proxy view {}, backend view {}` when a syntax oracle
    /// judged the views. Shared by a case's findings with the same views.
    HostViews(Arc<HostViews>),
    /// `desync: proxy forwarded {forwarded} message(s), backend parsed
    /// {parsed}`.
    Desync {
        /// Messages the proxy forwarded.
        forwarded: usize,
        /// Messages the back-end split the forwarded bytes into.
        parsed: usize,
    },
    /// `boundary disagreement: forwarded message is {forwarded} bytes,
    /// backend consumed {consumed}`.
    Boundary {
        /// Length of the first forwarded message.
        forwarded: usize,
        /// Bytes of it the back-end consumed as its first message.
        consumed: usize,
    },
    /// `proxy accepted but backend rejected framing ({status} {reason})`.
    FramingRejected {
        /// The back-end's rejection status.
        status: u16,
        /// The back-end's rejection reason.
        reason: Arc<str>,
    },
    /// `error response ({status}) stored in the {proxy} cache`.
    CachedError {
        /// Status of the stored error response.
        status: StatusCode,
        /// The caching proxy.
        proxy: Name,
    },
    /// Evidence rendered where the finding was made, or read from disk.
    Text(Arc<str>),
}

/// The values of an [`Evidence::Framing`] deviation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FramingDeviation {
    /// The deviating implementation.
    pub name: Name,
    /// Its framing decision, then the baseline's.
    pub framing: [FramingChoice; 2],
    /// Bytes it consumed, then the baseline's.
    pub consumed: [usize; 2],
}

/// The values of an [`Evidence::HostViews`] finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostViews {
    /// The proxy's host view, as (lossy) UTF-8.
    pub proxy: Box<str>,
    /// The back-end's host view, as (lossy) UTF-8.
    pub backend: Box<str>,
    /// Whether each view matches the grammar's `Host` production (`None`
    /// inside: undecided), when a syntax oracle judged them.
    pub host_abnf: Option<[Option<bool>; 2]>,
}

impl Evidence {
    /// The text of an [`Evidence::Text`] value.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Evidence::Text(text) => Some(text),
            _ => None,
        }
    }
}

impl From<&str> for Evidence {
    fn from(text: &str) -> Evidence {
        Evidence::Text(text.into())
    }
}

impl From<String> for Evidence {
    fn from(text: String) -> Evidence {
        Evidence::Text(text.into())
    }
}

impl fmt::Display for Evidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Evidence::LenientAccept { name, reason } => {
                write!(f, "{name}: accepted message the baseline rejects ({reason})")
            }
            Evidence::Framing(d) => write!(
                f,
                "{}: framing differs from baseline ({:?} vs {:?}, consumed {} vs {})",
                d.name, d.framing[0], d.framing[1], d.consumed[0], d.consumed[1]
            ),
            Evidence::HostIdentity { name } => {
                write!(f, "{name}: host identity differs from baseline")
            }
            Evidence::ChunkRepair { name } => write!(f, "{name}: repaired malformed chunked framing"),
            Evidence::HostViews(views) => {
                write!(
                    f,
                    "host views differ: proxy sees {:?}, backend sees {:?}",
                    views.proxy, views.backend
                )?;
                if let Some([proxy, backend]) = views.host_abnf {
                    write!(
                        f,
                        "; Host ABNF: proxy view {}, backend view {}",
                        verdict_label(proxy),
                        verdict_label(backend)
                    )?;
                }
                Ok(())
            }
            Evidence::Desync { forwarded, parsed } => write!(
                f,
                "desync: proxy forwarded {forwarded} message(s), backend parsed {parsed}"
            ),
            Evidence::Boundary { forwarded, consumed } => write!(
                f,
                "boundary disagreement: forwarded message is {forwarded} bytes, backend consumed {consumed}"
            ),
            Evidence::FramingRejected { status, reason } => {
                write!(f, "proxy accepted but backend rejected framing ({status} {reason})")
            }
            Evidence::CachedError { status, proxy } => {
                write!(f, "error response ({status}) stored in the {proxy} cache")
            }
            Evidence::Text(text) => f.write_str(text),
        }
    }
}

impl PartialEq for Evidence {
    fn eq(&self, other: &Evidence) -> bool {
        match (self, other) {
            (Evidence::Text(a), Evidence::Text(b)) => a == b,
            _ => self.to_string() == other.to_string(),
        }
    }
}

impl Eq for Evidence {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_pair() {
        let f = Finding {
            class: AttackClass::Hot,
            uuid: 3,
            origin: "catalog:invalid-host".into(),
            front: Some("varnish".into()),
            back: Some("weblogic".into()),
            culprits: ["varnish"].into_iter().collect(),
            evidence: "host views differ".into(),
        };
        assert!(f.is_pair());
        assert_eq!(f.pair(), Some(("varnish", "weblogic")));
        let s = f.to_string();
        assert!(s.contains("[HoT]"));
        assert!(s.contains("varnish -> weblogic"));
    }

    #[test]
    fn a_finding_stays_within_one_cache_line() {
        assert!(std::mem::size_of::<Finding>() <= 64, "{}", std::mem::size_of::<Finding>());
    }

    #[test]
    fn culprits_are_a_sorted_set_of_at_most_two() {
        let mut c = Culprits::default();
        assert!(c.is_empty());
        c.insert("squid".into());
        c.insert("iis".into());
        c.insert("squid".into());
        assert_eq!(c.iter().map(Name::as_str).collect::<Vec<_>>(), ["iis", "squid"]);
        assert_eq!(c.len(), 2);
        assert!(c.contains("iis") && !c.contains("nginx"));
        assert_eq!(c.try_insert("nginx".into()), Err("nginx".into()));
        assert_eq!(format!("{c:?}"), r#"{"iis", "squid"}"#);
        let reversed: Culprits = ["iis", "squid"].into_iter().rev().collect();
        assert_eq!(reversed, c);
    }

    #[test]
    fn evidence_of_different_variants_compares_by_its_rendering() {
        let typed = Evidence::Desync { forwarded: 2, parsed: 1 };
        let text = Evidence::from("desync: proxy forwarded 2 message(s), backend parsed 1");
        assert_eq!(typed, text);
        assert_eq!(text, typed);
        assert_ne!(typed, Evidence::Desync { forwarded: 2, parsed: 3 });
        assert_ne!(typed, Evidence::from("desync"));
        let views = Evidence::HostViews(Arc::new(HostViews {
            proxy: "a\"b".into(),
            backend: "c".into(),
            host_abnf: Some([Some(false), None]),
        }));
        assert_eq!(
            views.to_string(),
            r#"host views differ: proxy sees "a\"b", backend sees "c"; Host ABNF: proxy view invalid, backend view undecided"#
        );
        assert_eq!(views, Evidence::from(views.to_string()));
    }
}
