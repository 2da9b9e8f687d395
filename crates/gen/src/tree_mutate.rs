//! ABNF-tree mutation (§III-D, *SR Translator*).
//!
//! > "HDiff will first generate a series of host headers that match the
//! > ABNF rules and then **mutate the original ABNF syntax tree** to
//! > generate malformed host data."
//!
//! Byte-level mutation (see [`crate::mutate`]) perturbs serialized
//! requests; tree mutation perturbs the *grammar* and then generates from
//! the mutated tree, producing values that are structurally close to the
//! language but just outside it — `h1..com`, `h1.com:80:80`,
//! `h1.com@h2.com`-style near-misses the paper credits for its effective
//! HoT corpus.
//!
//! [`TreeMutator::malformed_values`] builds one [`AbnfGenerator`] per call
//! (the grammar clone, the predefined-leaf table and the min-depth
//! fixpoint) and, per value, only the mutated tree, its detached
//! compilation and the value itself. Each value still gets its own seed,
//! drawn from the mutator's RNG, and [`AbnfGenerator::reseed`] restarts
//! the shared generator from it, so every value is the one a generator
//! built for it alone would produce.

use hdiff_abnf::{Grammar, Node, Repeat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::generator::{AbnfGenerator, GenOptions};

/// The tree-mutation operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeMutation {
    /// Duplicate one element of a concatenation (`host "." host`).
    DuplicateElement,
    /// Drop one element of a concatenation.
    DropElement,
    /// Materialize an optional element twice (`[":" port]` → `":" port ":" port`).
    DoubleOptional,
    /// Bump a repetition's bounds beyond the rule's limits.
    BumpRepetition,
    /// Inject a reserved delimiter literal between elements (`@`, `,`,
    /// `/`, ` `).
    InjectDelimiter,
    /// Replace a literal with a visually-close wrong one (`.` → `..`).
    StutterLiteral,
}

impl TreeMutation {
    /// All operators.
    pub const ALL: [TreeMutation; 6] = [
        TreeMutation::DuplicateElement,
        TreeMutation::DropElement,
        TreeMutation::DoubleOptional,
        TreeMutation::BumpRepetition,
        TreeMutation::InjectDelimiter,
        TreeMutation::StutterLiteral,
    ];
}

const DELIMITERS: [&str; 6] = ["@", ",", "/", " ", ":", ".."];

/// Seeded ABNF-tree mutator.
#[derive(Debug)]
pub struct TreeMutator {
    rng: StdRng,
}

impl TreeMutator {
    /// Creates a mutator with a seed.
    pub fn new(seed: u64) -> TreeMutator {
        TreeMutator { rng: StdRng::seed_from_u64(seed) }
    }

    /// Applies one random mutation somewhere in the tree, returning the
    /// mutated copy and the operator used.
    pub fn mutate(&mut self, node: &Node) -> (Node, TreeMutation) {
        let op = TreeMutation::ALL[self.rng.gen_range(0..TreeMutation::ALL.len())];
        let mut copy = node.clone();
        if !self.apply(&mut copy, op) {
            // The chosen operator found no applicable site; fall back to
            // delimiter injection, which always applies at the root.
            let mut copy2 = node.clone();
            self.inject_at_root(&mut copy2);
            return (copy2, TreeMutation::InjectDelimiter);
        }
        (copy, op)
    }

    /// Produces `count` byte values generated from mutated copies of
    /// `rule`'s tree — the malformed-but-plausible corpus.
    ///
    /// The generator is built once per call, with the default options
    /// (which include the standard predefined leaves). Per value, the
    /// mutator mutates the tree, then draws the value's seed from its own
    /// RNG and reseeds the generator with it. A generator without coverage
    /// keeps no state between values except its RNG, so each value is
    /// byte-identical to one from a fresh generator built with that seed.
    pub fn malformed_values(
        &mut self,
        grammar: &Grammar,
        rule: &str,
        count: usize,
    ) -> Vec<(Vec<u8>, TreeMutation)> {
        let Some(r) = grammar.get(rule) else { return Vec::new() };
        let base = r.node.clone();
        let mut generator = AbnfGenerator::new(grammar.clone(), GenOptions::default());
        let mut out = Vec::new();
        for i in 0..count {
            let (mutated, op) = self.mutate(&base);
            generator.reseed(self.rng.gen());
            let value = generator.generate_node(&mutated);
            if !value.is_empty() || i == 0 {
                out.push((value, op));
            }
        }
        out
    }

    fn apply(&mut self, node: &mut Node, op: TreeMutation) -> bool {
        // Collect applicable sites, pick one uniformly, mutate in place.
        let sites = count_sites(node, op);
        if sites == 0 {
            return false;
        }
        let target = self.rng.gen_range(0..sites);
        let mut seen = 0usize;
        self.apply_at(node, op, target, &mut seen)
    }

    fn inject_at_root(&mut self, node: &mut Node) {
        let delim = DELIMITERS[self.rng.gen_range(0..DELIMITERS.len())];
        let lit = Node::CharVal { value: delim.to_string(), case_sensitive: false };
        let old = std::mem::replace(node, Node::Alternation(Vec::new()));
        *node = Node::Concatenation(vec![old.clone(), lit, old]);
    }

    #[allow(clippy::only_used_in_recursion)]
    fn apply_at(
        &mut self,
        node: &mut Node,
        op: TreeMutation,
        target: usize,
        seen: &mut usize,
    ) -> bool {
        if site_matches(node, op) {
            if *seen == target {
                self.mutate_site(node, op);
                return true;
            }
            *seen += 1;
        }
        match node {
            Node::Alternation(v) | Node::Concatenation(v) => {
                for n in v {
                    if self.apply_at(n, op, target, seen) {
                        return true;
                    }
                }
                false
            }
            Node::Repetition(_, i) | Node::Group(i) | Node::Optional(i) => {
                self.apply_at(i, op, target, seen)
            }
            _ => false,
        }
    }

    fn mutate_site(&mut self, node: &mut Node, op: TreeMutation) {
        match (op, &mut *node) {
            (TreeMutation::DuplicateElement, Node::Concatenation(v)) => {
                let idx = self.rng.gen_range(0..v.len());
                let dup = v[idx].clone();
                v.insert(idx, dup);
            }
            (TreeMutation::DropElement, Node::Concatenation(v)) => {
                let idx = self.rng.gen_range(0..v.len());
                v.remove(idx);
            }
            (TreeMutation::DoubleOptional, Node::Optional(inner)) => {
                let i = (**inner).clone();
                *node = Node::Concatenation(vec![i.clone(), i]);
            }
            (TreeMutation::BumpRepetition, Node::Repetition(rep, _)) => {
                // Exceed the maximum (or force extra minimum repetitions).
                let bumped = match rep.max {
                    Some(max) => Repeat { min: max + 1, max: Some(max + 2) },
                    None => Repeat { min: rep.min + 3, max: Some(rep.min + 4) },
                };
                *rep = bumped;
            }
            (TreeMutation::InjectDelimiter, Node::Concatenation(v)) => {
                let delim = DELIMITERS[self.rng.gen_range(0..DELIMITERS.len())];
                let idx = self.rng.gen_range(0..=v.len());
                v.insert(idx, Node::CharVal { value: delim.to_string(), case_sensitive: false });
            }
            (TreeMutation::StutterLiteral, Node::CharVal { value, .. }) => {
                let doubled = value.clone();
                value.push_str(&doubled);
            }
            _ => {}
        }
    }
}

fn site_matches(node: &Node, op: TreeMutation) -> bool {
    match op {
        TreeMutation::DuplicateElement
        | TreeMutation::DropElement
        | TreeMutation::InjectDelimiter => matches!(node, Node::Concatenation(v) if !v.is_empty()),
        TreeMutation::DoubleOptional => matches!(node, Node::Optional(_)),
        TreeMutation::BumpRepetition => matches!(node, Node::Repetition(..)),
        TreeMutation::StutterLiteral => {
            matches!(node, Node::CharVal { value, .. } if !value.is_empty())
        }
    }
}

fn count_sites(node: &Node, op: TreeMutation) -> usize {
    let own = usize::from(site_matches(node, op));
    own + match node {
        Node::Alternation(v) | Node::Concatenation(v) => v.iter().map(|n| count_sites(n, op)).sum(),
        Node::Repetition(_, i) | Node::Group(i) | Node::Optional(i) => count_sites(i, op),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predefined::PredefinedRules;
    use hdiff_abnf::{matcher, parse_rulelist};

    fn grammar(text: &str) -> Grammar {
        Grammar::from_rules("t", parse_rulelist(text).unwrap())
    }

    #[test]
    fn mutation_changes_the_tree() {
        let g = grammar("Host = uri-host [ \":\" port ]\nuri-host = 1*ALPHA\nport = 1*DIGIT\n");
        let base = g.get("Host").unwrap().node.clone();
        let mut m = TreeMutator::new(7);
        let mut changed = 0;
        for _ in 0..20 {
            let (mutated, _) = m.mutate(&base);
            if mutated != base {
                changed += 1;
            }
        }
        assert!(changed >= 18, "only {changed}/20 mutations changed the tree");
    }

    #[test]
    fn malformed_host_values_leave_the_language() {
        let g = grammar(
            "Host = uri-host [ \":\" port ]\nuri-host = 1*( ALPHA / DIGIT / \".\" / \"-\" )\nport = 1*DIGIT\n",
        );
        let mut m = TreeMutator::new(42);
        let values = m.malformed_values(&g, "Host", 40);
        assert!(!values.is_empty());
        let outside =
            values.iter().filter(|(v, _)| !matcher::matches(&g, "Host", v).is_match()).count();
        // Not every mutation leaves the language (duplicating an ALPHA
        // repetition stays inside), but a solid share must.
        assert!(outside * 3 >= values.len(), "{outside}/{} mutants escaped", values.len());
    }

    #[test]
    fn double_optional_materializes_double_port() {
        let g = grammar("Host = \"h\" [ \":\" \"8\" ]\n");
        let base = g.get("Host").unwrap().node.clone();
        let mut m = TreeMutator::new(1);
        // Drive until the DoubleOptional operator fires.
        for _ in 0..200 {
            let (mutated, op) = m.mutate(&base);
            if op == TreeMutation::DoubleOptional {
                let mut generator = AbnfGenerator::new(
                    g.clone(),
                    GenOptions { predefined: PredefinedRules::empty(), ..GenOptions::default() },
                );
                let v = generator.generate_node(&mutated);
                assert_eq!(v, b"h:8:8", "{:?}", String::from_utf8_lossy(&v));
                return;
            }
        }
        panic!("DoubleOptional never selected");
    }

    #[test]
    fn real_corpus_host_mutants_include_hot_shapes() {
        let analysis = hdiff_analyzer::DocumentAnalyzer::with_default_inputs()
            .analyze(&hdiff_corpus::core_documents());
        let mut m = TreeMutator::new(0xb0b);
        let values = m.malformed_values(&analysis.grammar, "Host", 60);
        assert!(values.len() >= 30, "{}", values.len());
        // At least one mutant must contain a routing-ambiguity delimiter.
        assert!(
            values.iter().any(|(v, _)| v.iter().any(|b| matches!(b, b'@' | b',' | b'/' | b' '))),
            "no ambiguous delimiters among mutants"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = grammar("Host = 1*ALPHA [ \":\" 1*DIGIT ]\n");
        let run = |seed| {
            let mut m = TreeMutator::new(seed);
            m.malformed_values(&g, "Host", 10)
        };
        assert_eq!(run(5), run(5));
    }

    /// `malformed_values` with a fresh generator built for every value,
    /// seeded from the mutator's RNG right after the tree mutation.
    fn fresh_generator_per_value(
        seed: u64,
        grammar: &Grammar,
        rule: &str,
        count: usize,
    ) -> Vec<(Vec<u8>, TreeMutation)> {
        let mut m = TreeMutator::new(seed);
        let base = grammar.get(rule).unwrap().node.clone();
        let mut out = Vec::new();
        for i in 0..count {
            let (mutated, op) = m.mutate(&base);
            let mut generator = AbnfGenerator::new(
                grammar.clone(),
                GenOptions {
                    seed: m.rng.gen(),
                    predefined: PredefinedRules::standard(),
                    ..GenOptions::default()
                },
            );
            let value = generator.generate_node(&mutated);
            if !value.is_empty() || i == 0 {
                out.push((value, op));
            }
        }
        out
    }

    #[test]
    fn one_generator_per_call_matches_a_fresh_generator_per_value() {
        let toy = grammar(
            "Host = uri-host [ \":\" port ]\nuri-host = 1*( ALPHA / DIGIT / \".\" / \"-\" )\nport = 1*DIGIT\n",
        );
        let adapted = hdiff_analyzer::DocumentAnalyzer::with_default_inputs()
            .analyze(&hdiff_corpus::core_documents())
            .grammar;
        for (g, seeds) in [(&toy, [0u64, 7, 42, 0x7ee]), (&adapted, [1, 7, 11, 0xb0b])] {
            for seed in seeds {
                for count in [0, 1, 5, 40] {
                    assert_eq!(
                        TreeMutator::new(seed).malformed_values(g, "Host", count),
                        fresh_generator_per_value(seed, g, "Host", count),
                        "seed {seed}, count {count}"
                    );
                }
            }
        }
    }
}
