//! Aggregation of findings into Table I verdicts and Fig. 7 pair sets.

use std::collections::{BTreeMap, BTreeSet};

use hdiff_gen::AttackClass;
use hdiff_servers::ParserProfile;

use crate::findings::Finding;
use crate::names::Name;

/// The proxy×back-end pair sets per attack class (Figure 7).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PairMatrix {
    pairs: BTreeMap<AttackClass, BTreeSet<(Name, Name)>>,
}

impl PairMatrix {
    /// Builds the matrix from findings.
    pub fn from_findings(findings: &[Finding]) -> PairMatrix {
        let mut m = PairMatrix::default();
        for f in findings {
            if let (Some(front), Some(back)) = (f.front, f.back) {
                m.pairs.entry(f.class).or_default().insert((front, back));
            }
        }
        m
    }

    /// Pairs for one class.
    pub fn pairs(&self, class: AttackClass) -> Vec<(String, String)> {
        self.pairs
            .get(&class)
            .map(|s| s.iter().map(|(f, b)| (f.to_string(), b.to_string())).collect())
            .unwrap_or_default()
    }

    /// Number of pairs for one class.
    pub fn count(&self, class: AttackClass) -> usize {
        self.pairs.get(&class).map_or(0, BTreeSet::len)
    }

    /// Whether a specific pair is affected by a class.
    pub fn contains(&self, class: AttackClass, front: &str, back: &str) -> bool {
        let (Some(front), Some(back)) = (Name::get(front), Name::get(back)) else { return false };
        self.pairs.get(&class).is_some_and(|s| s.contains(&(front, back)))
    }

    /// Distinct front-ends affected per class.
    pub fn fronts(&self, class: AttackClass) -> BTreeSet<String> {
        self.pairs
            .get(&class)
            .map(|s| s.iter().map(|(f, _)| f.to_string()).collect())
            .unwrap_or_default()
    }
}

/// Per-product vulnerability verdicts (the check-marks of Table I).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdicts {
    table: BTreeMap<String, BTreeSet<AttackClass>>,
}

impl Verdicts {
    /// Builds verdicts from findings, applying the Table I attribution
    /// rules:
    ///
    /// * **HRS** — products named as culprits of HRS findings (lenient
    ///   framing deviants, repairers, desync parties).
    /// * **HoT** — culprits of HoT findings plus both parties of HoT
    ///   pairs.
    /// * **CPDoS** — proxies only: fronts of CPDoS findings and proxy
    ///   culprits of CPDoS-class deviations (the paper does not consider
    ///   CPDoS for products in pure server mode).
    pub fn from_findings(findings: &[Finding], profiles: &[ParserProfile]) -> Verdicts {
        let is_proxy = |name: &str| profiles.iter().any(|p| p.name == name && p.is_proxy());
        let mut table: BTreeMap<String, BTreeSet<AttackClass>> = BTreeMap::new();
        for p in profiles {
            table.entry(p.name.clone()).or_default();
        }
        let mut mark = |name: &str, class: AttackClass| match table.get_mut(name) {
            Some(classes) => {
                classes.insert(class);
            }
            None => {
                table.insert(name.to_string(), BTreeSet::from([class]));
            }
        };
        for f in findings {
            match f.class {
                AttackClass::Hrs => {
                    for c in f.culprits.iter() {
                        mark(&c, AttackClass::Hrs);
                    }
                }
                AttackClass::Hot => {
                    // HoT is inherently pairwise: a lone lenient host
                    // resolution is only a vulnerability when some other
                    // implementation resolves differently, so only pair
                    // findings mark products.
                    if let Some((front, back)) = f.pair() {
                        mark(front, AttackClass::Hot);
                        mark(back, AttackClass::Hot);
                    }
                }
                AttackClass::Cpdos => {
                    for name in f.front.into_iter().chain(f.culprits.iter()) {
                        if is_proxy(&name) {
                            mark(&name, AttackClass::Cpdos);
                        }
                    }
                }
            }
        }
        Verdicts { table }
    }

    /// Whether a product is marked vulnerable to a class.
    pub fn is_vulnerable(&self, product: &str, class: AttackClass) -> bool {
        self.table.get(product).is_some_and(|s| s.contains(&class))
    }

    /// The classes a product is vulnerable to.
    pub fn classes(&self, product: &str) -> Vec<AttackClass> {
        self.table.get(product).map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    /// All products in the table.
    pub fn products(&self) -> Vec<&str> {
        self.table.keys().map(String::as_str).collect()
    }

    /// Total number of (product, class) marks.
    pub fn total_marks(&self) -> usize {
        self.table.values().map(BTreeSet::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(
        class: AttackClass,
        front: Option<&str>,
        back: Option<&str>,
        culprits: &[&str],
    ) -> Finding {
        Finding {
            class,
            uuid: 1,
            origin: "test".into(),
            front: front.map(Name::from),
            back: back.map(Name::from),
            culprits: culprits.iter().copied().collect(),
            evidence: "e".into(),
        }
    }

    #[test]
    fn pair_matrix_collects_pairs() {
        let fs = vec![
            finding(AttackClass::Hot, Some("varnish"), Some("iis"), &[]),
            finding(AttackClass::Hot, Some("varnish"), Some("iis"), &[]),
            finding(AttackClass::Cpdos, Some("nginx"), Some("apache"), &["nginx"]),
        ];
        let m = PairMatrix::from_findings(&fs);
        assert_eq!(m.count(AttackClass::Hot), 1);
        assert!(m.contains(AttackClass::Hot, "varnish", "iis"));
        assert_eq!(m.fronts(AttackClass::Cpdos), ["nginx".to_string()].into_iter().collect());
        assert_eq!(m.count(AttackClass::Hrs), 0);
    }

    #[test]
    fn verdict_rules() {
        let profiles = hdiff_servers::products();
        let fs = vec![
            finding(AttackClass::Hrs, None, None, &["iis"]),
            finding(AttackClass::Hot, Some("varnish"), Some("tomcat"), &["varnish"]),
            // CPDoS attribution ignores server-mode-only products.
            finding(AttackClass::Cpdos, Some("nginx"), Some("weblogic"), &["weblogic"]),
        ];
        let v = Verdicts::from_findings(&fs, &profiles);
        assert!(v.is_vulnerable("iis", AttackClass::Hrs));
        assert!(v.is_vulnerable("varnish", AttackClass::Hot));
        assert!(v.is_vulnerable("tomcat", AttackClass::Hot));
        assert!(v.is_vulnerable("nginx", AttackClass::Cpdos));
        assert!(!v.is_vulnerable("weblogic", AttackClass::Cpdos), "servers get '-' for CPDoS");
        assert_eq!(v.total_marks(), 4);
        assert_eq!(v.products().len(), 10);
    }
}
