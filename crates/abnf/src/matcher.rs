//! The ABNF syntax oracle: does a byte string derive from a rule?
//!
//! The generator's inverse. Used to (a) property-test that generated
//! values actually belong to the grammar that produced them, and (b) let
//! detection code ask conformance questions ("is this Host value inside
//! the `Host` production?") directly against the adapted grammar, the way
//! the paper uses ABNF as the syntax oracle.
//!
//! [`matches()`]/[`matches_with_budget`] are thin wrappers over the
//! compiled, memoizing matcher ([`crate::memo`]): the grammar is lowered
//! once to the arena IR ([`Grammar::compiled`], cached per grammar) and
//! matched with packrat memoization, so repeated sub-derivations cost
//! O(1) and the expansion budget is effectively never reached on real
//! inputs. The original backtracking recognizer is preserved unchanged in
//! [`reference`](mod@reference) as the differential-testing oracle and benchmark
//! baseline.

use crate::grammar::Grammar;
use crate::memo;

/// Result of a match attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchOutcome {
    /// The entire input derives from the rule.
    Match,
    /// The input does not derive from the rule.
    NoMatch,
    /// The expansion budget was exhausted or a left-recursive cycle was
    /// detected (the matcher cannot assert a definite `NoMatch`).
    Overflow,
}

impl MatchOutcome {
    /// Whether this is a definite match.
    pub fn is_match(self) -> bool {
        self == MatchOutcome::Match
    }
}

/// Default expansion budget. For the compiled matcher this counts *fresh
/// rule computations* (memo misses), which are bounded by `rules ×
/// positions` — typical matches use well under 1% of it. For
/// [`reference`](mod@reference) it counts node expansions, as before.
pub const DEFAULT_BUDGET: usize = 200_000;

/// Tests whether `input` (in full) derives from `rule` in `grammar`.
///
/// ```
/// use hdiff_abnf::{matcher, parse_rulelist, Grammar};
/// let g = Grammar::from_rules("t", parse_rulelist("token = 1*ALPHA\n").unwrap());
/// assert!(matcher::matches(&g, "token", b"Hello").is_match());
/// assert!(!matcher::matches(&g, "token", b"not a token").is_match());
/// ```
pub fn matches(grammar: &Grammar, rule: &str, input: &[u8]) -> MatchOutcome {
    matches_with_budget(grammar, rule, input, DEFAULT_BUDGET)
}

/// [`matches()`] with an explicit expansion budget.
pub fn matches_with_budget(
    grammar: &Grammar,
    rule: &str,
    input: &[u8],
    budget: usize,
) -> MatchOutcome {
    memo::match_rule(&grammar.compiled(), rule, input, budget)
}

/// The original backtracking recognizer, kept verbatim as the
/// differential-testing oracle for the compiled matcher (see
/// `tests/matcher_equivalence.rs`) and as the benchmark baseline.
///
/// A classic recursive-descent recognizer: every rule reference clones
/// and re-walks the rule's AST, so shared sub-derivations are recomputed
/// and pathological inputs exhaust the expansion budget
/// ([`MatchOutcome::Overflow`]) rather than looping.
pub mod reference {
    use super::MatchOutcome;
    use crate::ast::{Node, Repeat};
    use crate::grammar::Grammar;

    struct Matcher<'g> {
        grammar: &'g Grammar,
        input: &'g [u8],
        budget: usize,
        overflowed: bool,
    }

    impl<'g> Matcher<'g> {
        /// Returns every end offset reachable by matching `node` at `pos`.
        /// Deduplicated and sorted descending so full-input matches are
        /// found fast.
        fn match_node(&mut self, node: &Node, pos: usize) -> Vec<usize> {
            if self.budget == 0 {
                self.overflowed = true;
                return Vec::new();
            }
            self.budget -= 1;
            let mut ends = match node {
                Node::Alternation(alts) => {
                    let mut out = Vec::new();
                    for a in alts {
                        out.extend(self.match_node(a, pos));
                    }
                    out
                }
                Node::Concatenation(seq) => {
                    let mut current = vec![pos];
                    for part in seq {
                        let mut next = Vec::new();
                        for &p in &current {
                            next.extend(self.match_node(part, p));
                        }
                        next.sort_unstable();
                        next.dedup();
                        if next.is_empty() {
                            return Vec::new();
                        }
                        current = next;
                    }
                    current
                }
                Node::Repetition(rep, inner) => self.match_repeat(*rep, inner, pos),
                Node::Group(inner) => self.match_node(inner, pos),
                Node::Optional(inner) => {
                    let mut out = self.match_node(inner, pos);
                    out.push(pos);
                    out
                }
                Node::RuleRef(name) => match self.grammar.get(name) {
                    Some(rule) => {
                        let node = rule.node.clone();
                        self.match_node(&node, pos)
                    }
                    None => Vec::new(),
                },
                Node::CharVal { value, case_sensitive } => {
                    let v = value.as_bytes();
                    let end = pos + v.len();
                    if end <= self.input.len() {
                        let slice = &self.input[pos..end];
                        let ok = if *case_sensitive {
                            slice == v
                        } else {
                            slice.eq_ignore_ascii_case(v)
                        };
                        if ok {
                            return vec![end];
                        }
                    }
                    Vec::new()
                }
                Node::NumVal(v) => self.match_char(*v, pos).into_iter().collect(),
                Node::NumRange(lo, hi) => {
                    if pos < self.input.len() {
                        let b = u32::from(self.input[pos]);
                        if b >= *lo && b <= *hi {
                            return vec![pos + 1];
                        }
                    }
                    Vec::new()
                }
                Node::NumSeq(vs) => {
                    let mut p = pos;
                    for v in vs {
                        match self.match_char(*v, p) {
                            Some(next) => p = next,
                            None => return Vec::new(),
                        }
                    }
                    vec![p]
                }
                Node::ProseVal(_) => Vec::new(), // prose cannot be matched
            };
            ends.sort_unstable_by(|a, b| b.cmp(a));
            ends.dedup();
            ends
        }

        fn match_char(&self, v: u32, pos: usize) -> Option<usize> {
            if v <= 0xff {
                (pos < self.input.len() && self.input[pos] == v as u8).then_some(pos + 1)
            } else {
                let c = char::from_u32(v)?;
                let mut buf = [0u8; 4];
                let enc = c.encode_utf8(&mut buf).as_bytes();
                let end = pos + enc.len();
                (end <= self.input.len() && &self.input[pos..end] == enc).then_some(end)
            }
        }

        fn match_repeat(&mut self, rep: Repeat, inner: &Node, pos: usize) -> Vec<usize> {
            let max = rep.max.unwrap_or(u32::MAX);
            let mut frontier = vec![pos];
            let mut results = Vec::new();
            if rep.min == 0 {
                results.push(pos);
            }
            let mut count = 0u32;
            while count < max && !frontier.is_empty() {
                count += 1;
                let mut next = Vec::new();
                for &p in &frontier {
                    for end in self.match_node(inner, p) {
                        if end > p {
                            next.push(end);
                        } else if count >= rep.min {
                            // Zero-width inner match: accept but do not loop.
                            results.push(end);
                        }
                    }
                }
                next.sort_unstable();
                next.dedup();
                if count >= rep.min {
                    results.extend(next.iter().copied());
                }
                frontier = next;
                if self.overflowed {
                    break;
                }
            }
            results.sort_unstable_by(|a, b| b.cmp(a));
            results.dedup();
            results
        }
    }

    /// Reference-matcher counterpart of [`super::matches`].
    pub fn matches(grammar: &Grammar, rule: &str, input: &[u8]) -> MatchOutcome {
        matches_with_budget(grammar, rule, input, super::DEFAULT_BUDGET)
    }

    /// Reference-matcher counterpart of [`super::matches_with_budget`].
    pub fn matches_with_budget(
        grammar: &Grammar,
        rule: &str,
        input: &[u8],
        budget: usize,
    ) -> MatchOutcome {
        let Some(r) = grammar.get(rule) else {
            return MatchOutcome::NoMatch;
        };
        let node = r.node.clone();
        let mut m = Matcher { grammar, input, budget, overflowed: false };
        let ends = m.match_node(&node, 0);
        if ends.contains(&input.len()) {
            MatchOutcome::Match
        } else if m.overflowed {
            MatchOutcome::Overflow
        } else {
            MatchOutcome::NoMatch
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rulelist;

    fn grammar(text: &str) -> Grammar {
        Grammar::from_rules("t", parse_rulelist(text).unwrap())
    }

    /// Runs an assertion against both the compiled and the reference
    /// matcher — the suite below documents semantics both must share.
    fn both(g: &Grammar, rule: &str, input: &[u8], want_match: bool) {
        assert_eq!(matches(g, rule, input).is_match(), want_match, "compiled: {rule} {input:?}");
        assert_eq!(
            reference::matches(g, rule, input).is_match(),
            want_match,
            "reference: {rule} {input:?}"
        );
    }

    #[test]
    fn literals_and_case() {
        let g = grammar("a = \"GET\"\nb = %s\"GET\"\n");
        both(&g, "a", b"GET", true);
        both(&g, "a", b"get", true); // char-val is case-insensitive
        both(&g, "b", b"GET", true);
        both(&g, "b", b"get", false); // %s is case-sensitive
        both(&g, "a", b"GETX", false); // must consume all input
    }

    #[test]
    fn repetition_bounds() {
        let g = grammar("x = 2*4\"a\"\ny = *\"b\"\nz = 3DIGIT\n");
        both(&g, "x", b"a", false);
        both(&g, "x", b"aa", true);
        both(&g, "x", b"aaaa", true);
        both(&g, "x", b"aaaaa", false);
        both(&g, "y", b"", true);
        both(&g, "y", b"bbbbbb", true);
        both(&g, "z", b"404", true);
        both(&g, "z", b"40", false);
    }

    #[test]
    fn alternation_and_groups() {
        let g = grammar("m = (\"GET\" / \"POST\") \" \" 1*ALPHA\n");
        both(&g, "m", b"GET abc", true);
        both(&g, "m", b"POST x", true);
        both(&g, "m", b"PUT x", false);
    }

    #[test]
    fn http_version_rule() {
        let g = grammar(
            "HTTP-version = HTTP-name \"/\" DIGIT \".\" DIGIT\nHTTP-name = %x48.54.54.50\n",
        );
        both(&g, "HTTP-version", b"HTTP/1.1", true);
        both(&g, "HTTP-version", b"http/1.1", false); // HTTP-name is a byte sequence
        both(&g, "HTTP-version", b"HTTP/11", false);
        both(&g, "HTTP-version", b"1.1/HTTP", false);
    }

    #[test]
    fn backtracking_across_concatenation() {
        // `1*ALPHA "a"` needs the repetition to give back a character.
        let g = grammar("t = 1*ALPHA \"a\"\n");
        both(&g, "t", b"xya", true);
        both(&g, "t", b"aa", true);
        both(&g, "t", b"a", false);
    }

    #[test]
    fn recursive_rule() {
        let g = grammar("comment = \"(\" *( ctext / comment ) \")\"\nctext = %x61-7A\n");
        both(&g, "comment", b"(abc)", true);
        both(&g, "comment", b"(a(b)c)", true);
        both(&g, "comment", b"(a(b)c", false);
    }

    #[test]
    fn overflow_is_reported_not_hung() {
        let g = grammar("x = *( \"\" )\n"); // zero-width star: pathological
        let out = matches_with_budget(&g, "x", b"a", 50);
        assert!(matches!(out, MatchOutcome::NoMatch | MatchOutcome::Overflow));
        let out = reference::matches_with_budget(&g, "x", b"a", 50);
        assert!(matches!(out, MatchOutcome::NoMatch | MatchOutcome::Overflow));
    }

    #[test]
    fn unknown_rule_is_no_match() {
        let g = grammar("a = \"x\"\n");
        assert_eq!(matches(&g, "nope", b"x"), MatchOutcome::NoMatch);
        assert_eq!(reference::matches(&g, "nope", b"x"), MatchOutcome::NoMatch);
    }

    #[test]
    fn compiled_needs_no_budget_where_reference_overflows() {
        // Nested ambiguous repetition: the reference matcher re-expands
        // `1*ALPHA` per split point and overflows small budgets; the
        // memoized matcher completes in ~rules × positions computations.
        let g = grammar("t = 1*( a ) \"!\"\na = 1*ALPHA\n");
        let input = [b"x".repeat(48), b"!".to_vec()].concat();
        assert_eq!(matches_with_budget(&g, "t", &input, 5_000), MatchOutcome::Match);
        assert_eq!(
            reference::matches_with_budget(&g, "t", &input, 5_000),
            MatchOutcome::Overflow,
            "reference matcher should exhaust this budget (else the test grammar is too easy)"
        );
    }

    #[test]
    fn real_corpus_host_rule_accepts_valid_and_rejects_invalid() {
        let mut adaptor = crate::Adaptor::new();
        for doc in hdiff_corpus::core_documents() {
            let (rules, _) = crate::extract_abnf(&doc.full_text());
            adaptor.add_document(doc.tag.clone(), rules);
        }
        for doc in hdiff_corpus::reference_documents() {
            let (rules, _) = crate::extract_abnf(&doc.full_text());
            adaptor.register_reference(doc.tag.clone(), Grammar::from_rules(&doc.tag, rules));
        }
        let (g, _) = adaptor.adapt(&crate::AdaptOptions::default());
        for ok in [&b"example.com"[..], b"h1.com:8080", b"127.0.0.1", b"h2.com"] {
            both(&g, "Host", ok, true);
        }
        for bad in [&b"h1.com@h2.com"[..], b"h1.com, h2.com", b"h1 h2"] {
            both(&g, "Host", bad, false);
        }
    }
}
