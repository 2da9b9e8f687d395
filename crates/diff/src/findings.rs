//! Finding records produced by the detection models.

use std::collections::BTreeSet;
use std::fmt;

use hdiff_gen::AttackClass;

/// One detected semantic-gap candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Attack class.
    pub class: AttackClass,
    /// Test-case id that triggered it.
    pub uuid: u64,
    /// Test-case origin string.
    pub origin: String,
    /// Front-end (proxy) involved, if pair-shaped.
    pub front: Option<String>,
    /// Back-end involved, if pair-shaped.
    pub back: Option<String>,
    /// Products whose nonconformance the finding evidences.
    pub culprits: BTreeSet<String>,
    /// Human-readable evidence.
    pub evidence: String,
}

impl Finding {
    /// Whether this finding names a front/back pair.
    pub fn is_pair(&self) -> bool {
        self.front.is_some() && self.back.is_some()
    }

    /// `(front, back)` when pair-shaped.
    pub fn pair(&self) -> Option<(&str, &str)> {
        match (&self.front, &self.back) {
            (Some(f), Some(b)) => Some((f.as_str(), b.as_str())),
            _ => None,
        }
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
            culprits: ["varnish".to_string()].into_iter().collect(),
            evidence: "host views differ".into(),
        };
        assert!(f.is_pair());
        assert_eq!(f.pair(), Some(("varnish", "weblogic")));
        let s = f.to_string();
        assert!(s.contains("[HoT]"));
        assert!(s.contains("varnish -> weblogic"));
    }
}
