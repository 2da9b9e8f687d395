//! Cookie-gap detection models.
//!
//! Pairwise over profile views, the same shape as the HTTP detectors:
//! a gap exists when two components in one deployment would disagree
//! about the same cookie bytes. Each divergence gets a stable tag in
//! the finding evidence (`cookie:<tag>: …`) and maps onto the paper's
//! attack classes by consequence:
//!
//! * `shadow-precedence`, `version-legacy`, `quoted-value` → **HoT**
//!   shape: two components bind the same request to different
//!   identities (session fixation / cookie shadowing).
//! * `attr-smuggle` → **HRS** shape: bytes one side treats as data are
//!   control (an attribute or an extra pair) on the other.
//! * `attr-case`, `domain-scope`, `expires-leniency` → **CPDoS** shape:
//!   the components disagree about whether a cookie exists/applies at
//!   all, so a cache or gateway keyed on one view poisons the other.
//!
//! Culprit attribution is policy-derived: for every tag, RFC 6265 picks
//! a side, so the profile whose policy deviates from §5 is the culprit.

use std::collections::BTreeSet;
use std::sync::Arc;

use hdiff_diff::{Culprits, Finding, Name};
use hdiff_gen::AttackClass;

use crate::parse::CookieView;
use crate::profile::{
    AttrCase, CookieProfile, DollarNames, DomainMatch, Duplicates, ExpiresDates, QuotedValues,
    ValueSplit,
};

/// Every divergence-class tag the cookie models emit.
pub const TAGS: [&str; 7] = [
    "shadow-precedence",
    "attr-smuggle",
    "attr-case",
    "domain-scope",
    "expires-leniency",
    "version-legacy",
    "quoted-value",
];

/// Attack class a tag maps to, `None` for unknown tags.
pub fn class_for_tag(tag: &str) -> Option<AttackClass> {
    match tag {
        "shadow-precedence" | "version-legacy" | "quoted-value" => Some(AttackClass::Hot),
        "attr-smuggle" => Some(AttackClass::Hrs),
        "attr-case" | "domain-scope" | "expires-leniency" => Some(AttackClass::Cpdos),
        _ => None,
    }
}

/// Which of the pair deviates from RFC 6265 for a given tag.
fn culprits_for(tag: &str, a: &CookieProfile, b: &CookieProfile) -> Culprits {
    let deviates = |p: &CookieProfile| match tag {
        "shadow-precedence" => p.duplicates == Duplicates::FirstWins,
        "attr-smuggle" => p.split == ValueSplit::QuoteAware,
        "attr-case" => p.attr_case == AttrCase::CanonicalOnly,
        "domain-scope" => p.domain != DomainMatch::Rfc6265,
        "expires-leniency" => p.expires == ExpiresDates::Rfc1123Only,
        "version-legacy" => p.dollar == DollarNames::Rfc2109Meta,
        "quoted-value" => p.quotes == QuotedValues::Strip,
        _ => false,
    };
    [a, b].iter().filter(|p| deviates(p)).map(|p| Name::intern(p.name)).collect()
}

fn strip_quotes(v: &str) -> &str {
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        &v[1..v.len() - 1]
    } else {
        v
    }
}

/// Non-`$` pair names of an inbound view, in order, deduplicated.
fn inbound_names(view: &CookieView) -> Vec<&str> {
    let mut names = Vec::new();
    for (n, _) in &view.inbound {
        if !n.starts_with('$') && !names.contains(&n.as_str()) {
            names.push(n.as_str());
        }
    }
    names
}

struct PairDetector<'a> {
    uuid: u64,
    origin: &'a Arc<str>,
    pa: &'a CookieProfile,
    pb: &'a CookieProfile,
    a: &'a CookieView,
    b: &'a CookieView,
    emitted: BTreeSet<&'static str>,
    out: Vec<Finding>,
}

impl<'a> PairDetector<'a> {
    /// At most one finding per tag per pair: the first, strongest
    /// witness wins, matching how the HTTP detectors dedupe.
    fn emit(&mut self, tag: &'static str, detail: String) {
        if !self.emitted.insert(tag) {
            return;
        }
        let Some(class) = class_for_tag(tag) else { return };
        self.out.push(Finding {
            class,
            uuid: self.uuid,
            origin: Arc::clone(self.origin),
            front: Some(Name::intern(self.a.profile)),
            back: Some(Name::intern(self.b.profile)),
            culprits: culprits_for(tag, self.pa, self.pb),
            evidence: format!("cookie:{tag}: {detail}").into(),
        });
    }

    fn check_set_lines(&mut self) {
        for (k, (oa, ob)) in self.a.sets.iter().zip(self.b.sets.iter()).enumerate() {
            if oa.stored != ob.stored {
                let (kept, dropped, why) = if oa.stored {
                    (self.a.profile, self.b.profile, ob.reason)
                } else {
                    (self.b.profile, self.a.profile, oa.reason)
                };
                match why {
                    Some("expired") => self.emit(
                        "expires-leniency",
                        format!(
                            "set-cookie #{k} `{}`: {dropped} expired it, {kept} kept a live cookie",
                            oa.name
                        ),
                    ),
                    Some("domain-mismatch") => self.emit(
                        "domain-scope",
                        format!(
                            "set-cookie #{k} `{}`: {kept} stored it for this host, {dropped} rejected the Domain",
                            oa.name
                        ),
                    ),
                    _ => {}
                }
                continue;
            }
            if !oa.stored {
                continue;
            }
            if oa.value != ob.value {
                if strip_quotes(&oa.value) == strip_quotes(&ob.value) {
                    self.emit(
                        "quoted-value",
                        format!(
                            "set-cookie #{k} `{}`: stored values differ only by DQUOTE stripping ({:?} vs {:?})",
                            oa.name, oa.value, ob.value
                        ),
                    );
                } else if oa.value.contains(';') != ob.value.contains(';') {
                    self.emit(
                        "attr-smuggle",
                        format!(
                            "set-cookie #{k} `{}`: one side keeps `;`-bytes as value ({:?} vs {:?})",
                            oa.name, oa.value, ob.value
                        ),
                    );
                }
            }
            if oa.attrs != ob.attrs {
                if oa.value.contains(';') || ob.value.contains(';') {
                    self.emit(
                        "attr-smuggle",
                        format!(
                            "set-cookie #{k} `{}`: attribute sets diverge across a quoted `;` ({:?} vs {:?})",
                            oa.name, oa.attrs, ob.attrs
                        ),
                    );
                } else {
                    self.emit(
                        "attr-case",
                        format!(
                            "set-cookie #{k} `{}`: recognized attributes differ ({:?} vs {:?})",
                            oa.name, oa.attrs, ob.attrs
                        ),
                    );
                }
            }
        }
    }

    fn check_jars(&mut self) {
        for (name, va) in &self.a.jar {
            let Some((_, vb)) = self.b.jar.iter().find(|(n, _)| n == name) else { continue };
            if va == vb {
                continue;
            }
            // Only a precedence gap when the per-line parses agreed and
            // the name was written more than once — otherwise the value
            // difference is a quote/split gap reported above.
            let writes: Vec<(&str, &str)> = self
                .a
                .sets
                .iter()
                .zip(self.b.sets.iter())
                .filter(|(oa, _)| oa.name == *name)
                .map(|(oa, ob)| (oa.value.as_str(), ob.value.as_str()))
                .collect();
            if writes.len() >= 2 && writes.iter().all(|(x, y)| x == y) {
                self.emit(
                    "shadow-precedence",
                    format!(
                        "jar `{name}`: duplicate writes resolve differently ({:?} vs {:?})",
                        va, vb
                    ),
                );
            }
        }
    }

    fn check_inbound(&mut self) {
        // RFC 2109 `$` metadata consumed on one side only.
        let dollar_a: Vec<&String> =
            self.a.inbound.iter().map(|(n, _)| n).filter(|n| n.starts_with('$')).collect();
        let dollar_b: Vec<&String> =
            self.b.inbound.iter().map(|(n, _)| n).filter(|n| n.starts_with('$')).collect();
        if dollar_a != dollar_b && (!self.a.meta.is_empty() || !self.b.meta.is_empty()) {
            self.emit(
                "version-legacy",
                format!(
                    "cookie header: `$` names are cookies on one side, metadata on the other ({dollar_a:?} vs {dollar_b:?})"
                ),
            );
        }
        // A pair minted (or swallowed) by quote-unaware splitting.
        let names_a = inbound_names(self.a);
        let names_b = inbound_names(self.b);
        if names_a != names_b {
            self.emit(
                "attr-smuggle",
                format!("cookie header: pair names diverge ({names_a:?} vs {names_b:?})"),
            );
        }
        // Same pair, different forwarded bytes.
        for (name, va) in &self.a.inbound {
            let Some((_, vb)) = self.b.inbound.iter().find(|(n, _)| n == name) else { continue };
            if va == vb {
                continue;
            }
            if strip_quotes(va) == strip_quotes(vb) {
                self.emit(
                    "quoted-value",
                    format!(
                        "cookie header `{name}`: forwarded values differ only by DQUOTE stripping ({va:?} vs {vb:?})"
                    ),
                );
            } else {
                self.emit(
                    "attr-smuggle",
                    format!(
                        "cookie header `{name}`: forwarded values diverge at a quoted `;` ({va:?} vs {vb:?})"
                    ),
                );
            }
        }
    }
}

/// Diffs every profile pair's views of one case.
///
/// `profiles` and `views` are parallel (one view per profile, same
/// order); findings come out in pair order `(i, j)` with `i < j`, so
/// the result is deterministic for a given case.
pub fn detect_cookie_case(
    uuid: u64,
    origin: &str,
    profiles: &[CookieProfile],
    views: &[CookieView],
) -> Vec<Finding> {
    assert_eq!(profiles.len(), views.len(), "one view per profile");
    let origin: Arc<str> = origin.into();
    let mut out = Vec::new();
    for i in 0..views.len() {
        for j in i + 1..views.len() {
            let mut d = PairDetector {
                uuid,
                origin: &origin,
                pa: &profiles[i],
                pb: &profiles[j],
                a: &views[i],
                b: &views[j],
                emitted: BTreeSet::new(),
                out: Vec::new(),
            };
            d.check_set_lines();
            d.check_jars();
            d.check_inbound();
            out.extend(d.out);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::seed_vectors;
    use crate::parse::interpret;
    use crate::profile::profiles;

    fn run(id: &str) -> Vec<Finding> {
        let seed = seed_vectors().into_iter().find(|s| s.id == id).unwrap();
        let ps = profiles();
        let views: Vec<CookieView> = ps.iter().map(|p| interpret(p, &seed.case)).collect();
        detect_cookie_case(1, &format!("cookie:{id}"), &ps, &views)
    }

    fn tags(findings: &[Finding]) -> BTreeSet<String> {
        findings
            .iter()
            .filter_map(|f| {
                let rest = f.evidence.as_text()?.strip_prefix("cookie:")?;
                Some(rest[..rest.find(':')?].to_string())
            })
            .collect()
    }

    #[test]
    fn control_seed_is_clean() {
        assert!(run("plain-session").is_empty());
    }

    #[test]
    fn each_targeted_seed_hits_its_tag() {
        for (id, tag) in [
            ("duplicate-name", "shadow-precedence"),
            ("quoted-semicolon-value", "attr-smuggle"),
            ("uppercase-attrs", "attr-case"),
            ("legacy-expires", "expires-leniency"),
            ("dotted-domain", "domain-scope"),
            ("version-meta", "version-legacy"),
            ("quoted-cookie", "quoted-value"),
            ("inbound-smuggle", "attr-smuggle"),
        ] {
            assert!(
                tags(&run(id)).contains(tag),
                "{id} should produce {tag}: {:?}",
                tags(&run(id))
            );
        }
    }

    #[test]
    fn findings_carry_pair_shape_and_policy_culprits() {
        let findings = run("duplicate-name");
        assert!(!findings.is_empty());
        for f in &findings {
            assert!(f.is_pair());
            assert!(f.evidence.to_string().starts_with("cookie:shadow-precedence:"), "{f}");
            // RFC 6265 mandates last-wins, so the first-wins side is at fault.
            for c in f.culprits.iter() {
                assert!(
                    ["servlet-jar", "proxy-gateway", "rfc2109-agent"].contains(&c.as_str()),
                    "{c}"
                );
            }
            assert_eq!(f.class, AttackClass::Hot);
        }
    }

    #[test]
    fn classes_map_by_consequence() {
        assert_eq!(class_for_tag("attr-smuggle"), Some(AttackClass::Hrs));
        assert_eq!(class_for_tag("domain-scope"), Some(AttackClass::Cpdos));
        assert_eq!(class_for_tag("shadow-precedence"), Some(AttackClass::Hot));
        assert_eq!(class_for_tag("nonsense"), None);
        for tag in TAGS {
            assert!(class_for_tag(tag).is_some(), "{tag}");
        }
    }
}
