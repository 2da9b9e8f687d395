//! Grammar coverage over the compiled op arena.
//!
//! A campaign that generates thousands of requests from the adapted
//! RFC 7230–7235 grammar still tells us nothing about *which slice* of
//! that grammar it exercised — a generator stuck sampling the same three
//! `Host` spellings looks exactly like one sweeping the whole production.
//! This module tracks two complementary coverage dimensions over the
//! [`CompiledGrammar`] IR:
//!
//! * **rule coverage** — an interned-rule bitset: which grammar-defined
//!   rules were entered at all, fed by both the generator walk and the
//!   packrat matcher ([`hdiff_abnf::memo::match_rule_traced`]);
//! * **alternation coverage** — a bitset with one slot per arm of every
//!   multi-arm [`Op::Alt`] reachable from a grammar rule's definition:
//!   which grammar *choices* the generator actually took. Rule coverage
//!   saturates quickly (every walk touches `header-field`); arm coverage
//!   is the discriminating progress metric, exactly as grammar-based
//!   protocol fuzzers use it.
//!
//! Both denominators deliberately exclude the implicit core rules
//! (`ALPHA`, `HEXDIG`, …): their alternations are trivially saturated and
//! would only dilute the signal the metric exists to provide.
//!
//! The map is cheap to merge (word-wise OR) and deterministic, so
//! campaign summaries can carry a [`GrammarCoverage`] snapshot without
//! perturbing cross-thread reproducibility. The generator's
//! coverage-guided mode ([`crate::GenOptions::coverage_guided`]) consults
//! [`CoverageMap::alt_covered`] to bias traversal toward cold arms.

use std::fmt;

use hdiff_abnf::compile::{CompiledGrammar, Op, RuleOrigin};

/// Sentinel for "this op is not a tracked alternation".
const NO_ALT: u32 = u32::MAX;

/// Mutable coverage state over one compiled grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageMap {
    /// One bit per interned rule: tracked (grammar-defined) rules.
    tracked_rules: Vec<u64>,
    /// One bit per interned rule: entered at least once.
    rule_bits: Vec<u64>,
    /// Tracked rules (the denominator of rule coverage).
    rule_total: usize,
    /// Per-op offset into `arm_bits`, [`NO_ALT`] for ops that are not
    /// tracked alternations.
    alt_offsets: Vec<u32>,
    /// One bit per tracked alternation arm.
    arm_bits: Vec<u64>,
    /// Total tracked arms (the denominator of alternation coverage).
    arm_total: usize,
}

#[inline]
fn set_bit(bits: &mut [u64], idx: usize) {
    bits[idx / 64] |= 1u64 << (idx % 64);
}

#[inline]
fn get_bit(bits: &[u64], idx: usize) -> bool {
    bits[idx / 64] & (1u64 << (idx % 64)) != 0
}

fn count_bits(bits: &[u64]) -> usize {
    bits.iter().map(|w| w.count_ones() as usize).sum()
}

fn words(bits: usize) -> usize {
    bits.div_ceil(64)
}

impl CoverageMap {
    /// Builds an all-cold map for `cg`: walks each grammar-defined rule's
    /// op tree once (rule references are boundaries, so core-rule regions
    /// are never entered), assigning a dense arm-bit range to every
    /// multi-arm alternation met along the way.
    pub fn new(cg: &CompiledGrammar) -> CoverageMap {
        let ops = cg.arena().ops.len();
        let mut alt_offsets = vec![NO_ALT; ops];
        let mut arm_total = 0usize;
        let mut tracked_rules = vec![0u64; words(cg.rule_count()).max(1)];
        let mut rule_total = 0usize;
        let mut stack = Vec::new();
        for idx in 0..cg.rule_count() {
            let info = cg.rule(idx as u32);
            if info.origin != RuleOrigin::Grammar {
                continue;
            }
            let Some(root) = info.root else { continue };
            set_bit(&mut tracked_rules, idx);
            rule_total += 1;
            stack.push(root);
            while let Some(op) = stack.pop() {
                match cg.arena().op(op) {
                    Op::Alt(range) => {
                        let kids = cg.arena().kid_slice(range);
                        if kids.len() >= 2 && alt_offsets[op as usize] == NO_ALT {
                            alt_offsets[op as usize] = arm_total as u32;
                            arm_total += kids.len();
                        }
                        stack.extend_from_slice(kids);
                    }
                    Op::Cat(range) => stack.extend_from_slice(cg.arena().kid_slice(range)),
                    Op::Repeat { kid, .. } | Op::Opt { kid } => stack.push(kid),
                    Op::Rule(_) | Op::Lit { .. } | Op::Byte(_) | Op::Range { .. } | Op::Fail => {}
                }
            }
        }
        CoverageMap {
            tracked_rules,
            rule_bits: vec![0; words(cg.rule_count()).max(1)],
            rule_total,
            alt_offsets,
            arm_bits: vec![0; words(arm_total).max(1)],
            arm_total,
        }
    }

    /// Marks rule `idx` as entered. Untracked indices (core rules,
    /// undefined references, detached-program extra names) are ignored,
    /// so callers can record unconditionally.
    pub fn record_rule(&mut self, idx: u32) {
        let idx = idx as usize;
        if idx < self.tracked_rules.len() * 64 && get_bit(&self.tracked_rules, idx) {
            set_bit(&mut self.rule_bits, idx);
        }
    }

    /// Marks arm `arm` of the alternation at op `op` as taken. Ops that
    /// are not tracked alternations are ignored.
    pub fn record_alt(&mut self, op: u32, arm: usize) {
        let Some(&off) = self.alt_offsets.get(op as usize) else { return };
        if off != NO_ALT {
            set_bit(&mut self.arm_bits, off as usize + arm);
        }
    }

    /// Whether arm `arm` of the alternation at op `op` has been taken.
    /// Untracked ops report `true` (nothing cold to chase there).
    pub fn alt_covered(&self, op: u32, arm: usize) -> bool {
        match self.alt_offsets.get(op as usize) {
            Some(&off) if off != NO_ALT => get_bit(&self.arm_bits, off as usize + arm),
            _ => true,
        }
    }

    /// Whether rule `idx` has been entered.
    pub fn rule_covered(&self, idx: u32) -> bool {
        (idx as usize) < self.rule_bits.len() * 64 && get_bit(&self.rule_bits, idx as usize)
    }

    /// Absorbs a matcher trace (the visited-rule list from
    /// [`hdiff_abnf::memo::match_rule_traced`]).
    pub fn absorb_rules(&mut self, rules: &[u32]) {
        for &r in rules {
            self.record_rule(r);
        }
    }

    /// Word-wise OR of another map over the same grammar.
    ///
    /// # Panics
    ///
    /// Panics if the maps were built for different grammars (shape
    /// mismatch) — merging those would silently corrupt both metrics.
    pub fn merge(&mut self, other: &CoverageMap) {
        assert_eq!(self.arm_total, other.arm_total, "coverage maps of different grammars");
        assert_eq!(self.rule_bits.len(), other.rule_bits.len());
        for (a, b) in self.rule_bits.iter_mut().zip(&other.rule_bits) {
            *a |= b;
        }
        for (a, b) in self.arm_bits.iter_mut().zip(&other.arm_bits) {
            *a |= b;
        }
    }

    /// Immutable summary snapshot.
    pub fn summary(&self) -> GrammarCoverage {
        GrammarCoverage {
            rules_covered: count_bits(&self.rule_bits),
            rules_total: self.rule_total,
            alts_covered: count_bits(&self.arm_bits),
            alts_total: self.arm_total,
        }
    }
}

/// A frozen coverage summary, reported per campaign in the diff engine's
/// `RunSummary`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GrammarCoverage {
    /// Grammar-defined rules entered at least once.
    pub rules_covered: usize,
    /// Grammar-defined rules in total.
    pub rules_total: usize,
    /// Alternation arms taken at least once.
    pub alts_covered: usize,
    /// Alternation arms in grammar-defined rules in total.
    pub alts_total: usize,
}

impl GrammarCoverage {
    /// Rule coverage in [0, 1].
    pub fn rule_fraction(&self) -> f64 {
        if self.rules_total == 0 {
            0.0
        } else {
            self.rules_covered as f64 / self.rules_total as f64
        }
    }

    /// Alternation-arm coverage in [0, 1].
    pub fn alt_fraction(&self) -> f64 {
        if self.alts_total == 0 {
            0.0
        } else {
            self.alts_covered as f64 / self.alts_total as f64
        }
    }
}

impl fmt::Display for GrammarCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rules {}/{} ({:.0}%), alternation arms {}/{} ({:.0}%)",
            self.rules_covered,
            self.rules_total,
            self.rule_fraction() * 100.0,
            self.alts_covered,
            self.alts_total,
            self.alt_fraction() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{AbnfGenerator, GenOptions};
    use crate::predefined::PredefinedRules;
    use hdiff_abnf::{parse_rulelist, Grammar};

    fn grammar(text: &str) -> Grammar {
        Grammar::from_rules("t", parse_rulelist(text).unwrap())
    }

    fn opts() -> GenOptions {
        GenOptions { predefined: PredefinedRules::empty(), ..GenOptions::default() }
    }

    #[test]
    fn fresh_map_is_all_cold() {
        let g = grammar("x = \"aa\" / \"bb\" / \"cc\"");
        let map = CoverageMap::new(&g.compiled());
        let s = map.summary();
        assert_eq!(s.alts_covered, 0);
        assert_eq!(s.alts_total, 3);
        assert_eq!(s.rules_covered, 0);
        assert_eq!(s.rules_total, 1);
    }

    #[test]
    fn core_rule_alternations_are_not_tracked() {
        // ALPHA is itself an alternation, but core rules must not dilute
        // the denominator.
        let g = grammar("x = 1*ALPHA");
        let s = CoverageMap::new(&g.compiled()).summary();
        assert_eq!(s.alts_total, 0);
        assert_eq!(s.rules_total, 1);
    }

    #[test]
    fn full_enumeration_reaches_full_alternation_coverage() {
        // Depth-first traversal of the whole derivation tree must light
        // every arm of every alternation — 100% by construction.
        let g = grammar("x = y \"!\" / z\ny = \"aa\" / \"bb\"\nz = \"cc\" / \"dd\" / \"ee\"");
        let mut generator = AbnfGenerator::new(g, opts());
        generator.enable_coverage();
        let all = generator.enumerate("x", 1000);
        assert!(all.len() >= 5);
        let s = generator.coverage().unwrap().summary();
        assert_eq!(s.alts_covered, s.alts_total, "{s}");
        assert_eq!(s.alts_total, 7, "{s}");
        assert_eq!(s.rules_covered, 3, "{s}");
        assert_eq!(s.rules_total, 3, "{s}");
    }

    #[test]
    fn cold_biased_mode_strictly_beats_uniform_on_a_fixed_seed() {
        // Twelve arms, twelve draws. The cold-biased walk covers a fresh
        // arm per draw; uniform sampling repeats itself (birthday bound).
        let text = "x = \"a1\" / \"b1\" / \"c1\" / \"d1\" / \"e1\" / \"f1\" / \"g1\" / \"h1\" / \"i1\" / \"j1\" / \"k1\" / \"l1\"";
        let run = |guided: bool| {
            let mut generator = AbnfGenerator::new(
                grammar(text),
                GenOptions { coverage_guided: guided, seed: 7, ..opts() },
            );
            generator.enable_coverage();
            for _ in 0..12 {
                generator.generate("x").unwrap();
            }
            generator.coverage().unwrap().summary()
        };
        let uniform = run(false);
        let guided = run(true);
        assert_eq!(guided.alts_covered, guided.alts_total, "guided covers all: {guided}");
        assert!(
            guided.alts_covered > uniform.alts_covered,
            "guided {guided} must strictly beat uniform {uniform}"
        );
    }

    #[test]
    fn guided_mode_stays_deterministic_per_seed() {
        let text = "x = 1*3( \"aa\" / \"bb\" / \"cc\" / \"dd\" )";
        let run = || {
            let mut generator = AbnfGenerator::new(
                grammar(text),
                GenOptions { coverage_guided: true, seed: 11, ..opts() },
            );
            (0..20).filter_map(|_| generator.generate("x")).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn matcher_traces_feed_rule_coverage() {
        let g = grammar("t = a \"!\"\na = 1*ALPHA");
        let cg = g.compiled();
        let mut map = CoverageMap::new(&cg);
        let (outcome, visited) = hdiff_abnf::memo::match_rule_traced(&cg, "t", b"abc!", 10_000);
        assert_eq!(outcome, hdiff_abnf::matcher::MatchOutcome::Match);
        assert!(!visited.is_empty());
        map.absorb_rules(&visited);
        assert!(map.rule_covered(cg.rule_index("t").unwrap()));
        assert!(map.rule_covered(cg.rule_index("a").unwrap()));
        assert_eq!(map.summary().rules_covered, 2);
    }

    #[test]
    fn merge_is_a_union() {
        let g = grammar("x = \"aa\" / \"bb\"");
        let cg = g.compiled();
        let mut a = CoverageMap::new(&cg);
        let mut b = CoverageMap::new(&cg);
        a.record_rule(cg.rule_index("x").unwrap());
        let alt_op = (0..cg.arena().ops.len() as u32)
            .find(|&i| a.alt_offsets[i as usize] != NO_ALT)
            .unwrap();
        b.record_alt(alt_op, 1);
        a.merge(&b);
        let merged = a.summary();
        assert_eq!(merged.rules_covered, 1);
        assert_eq!(merged.alts_covered, 1);
        assert!(a.alt_covered(alt_op, 1));
        assert!(!a.alt_covered(alt_op, 0));
    }
}
