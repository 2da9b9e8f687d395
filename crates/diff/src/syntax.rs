//! Grammar-backed syntax oracle for detection and SR checking.
//!
//! The paper's detection models compare implementation *views*; the
//! adapted ABNF grammar additionally says which views are even
//! syntactically legal. This module wraps the compiled packrat matcher
//! ([`hdiff_abnf::CompiledGrammar`]) as a cheap, shareable oracle the
//! campaign runner consults per finding — the compile happens once, and
//! each query is a memoized match at the default budget (no 500k-budget
//! workarounds needed).

use std::sync::Arc;

use hdiff_abnf::matcher::{MatchOutcome, DEFAULT_BUDGET};
use hdiff_abnf::{memo, CompiledGrammar, Grammar};

/// A conformance oracle over one adapted grammar.
///
/// Cloning is cheap (the compiled program is behind an [`Arc`]) and the
/// oracle is `Sync`, so the work-stealing workers can all consult one
/// instance without coordination.
#[derive(Debug, Clone)]
pub struct SyntaxOracle {
    compiled: Arc<CompiledGrammar>,
}

impl SyntaxOracle {
    /// Builds (or reuses) the compiled form of `grammar`.
    pub fn new(grammar: &Grammar) -> SyntaxOracle {
        SyntaxOracle { compiled: grammar.compiled() }
    }

    /// Whether the grammar defines `rule` at all.
    pub fn has_rule(&self, rule: &str) -> bool {
        self.compiled.rule_index(rule).is_some()
    }

    /// Whether `value` belongs to `rule`'s production. `None` when the
    /// grammar lacks the rule or the matcher cannot decide (grammar
    /// cycle / budget overflow) — callers must treat that as "no
    /// verdict", never as invalid.
    pub fn conforms(&self, rule: &str, value: &[u8]) -> Option<bool> {
        if !self.has_rule(rule) {
            return None;
        }
        match memo::match_rule(&self.compiled, rule, value, DEFAULT_BUDGET) {
            MatchOutcome::Match => Some(true),
            MatchOutcome::NoMatch => Some(false),
            MatchOutcome::Overflow => None,
        }
    }
}

/// The evidence label of a [`SyntaxOracle::conforms`] verdict.
pub(crate) fn verdict_label(verdict: Option<bool>) -> &'static str {
    match verdict {
        Some(true) => "valid",
        Some(false) => "invalid",
        None => "undecided",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> SyntaxOracle {
        let grammar = hdiff_analyzer::DocumentAnalyzer::with_default_inputs()
            .analyze(&hdiff_corpus::core_documents())
            .grammar;
        SyntaxOracle::new(&grammar)
    }

    #[test]
    fn host_conformance_verdicts() {
        let o = oracle();
        assert_eq!(o.conforms("Host", b"example.com"), Some(true));
        assert_eq!(o.conforms("Host", b"h1.com:8080"), Some(true));
        assert_eq!(o.conforms("Host", b"h1 h2"), Some(false));
        assert_eq!(o.conforms("Host", b"h1.com, h2.com"), Some(false));
        assert_eq!(verdict_label(o.conforms("Host", b"h1 h2")), "invalid");
    }

    #[test]
    fn unknown_rule_gives_no_verdict() {
        let o = oracle();
        assert_eq!(o.conforms("no-such-rule", b"x"), None);
        assert_eq!(verdict_label(o.conforms("no-such-rule", b"x")), "undecided");
    }
}
