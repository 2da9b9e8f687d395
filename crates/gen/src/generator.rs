//! Depth-bounded ABNF tree traversal (§III-D, *ABNF Generator*).
//!
//! The generator walks the adapted grammar from a start rule down to leaf
//! nodes. Two mechanisms keep output useful and finite:
//!
//! * a **recursion depth cap** (the paper limits traversal to depth 7) —
//!   when the cap is hit, the generator takes the alternative/repetition
//!   with the smallest guaranteed depth, computed by a memoized min-depth
//!   analysis that also proves termination for recursive rules like
//!   RFC 7230's `comment`;
//! * **predefined leaf rules** that replace free traversal for selected
//!   rules with representative values (see [`crate::predefined`]).
//!
//! Traversal runs over the grammar's compiled arena IR
//! ([`hdiff_abnf::compile`]): rule references are `u32` indices into a
//! shared `Arc<CompiledGrammar>` instead of string-keyed map lookups that
//! clone whole AST subtrees, and the min-depth table is a dense `Vec`
//! indexed by rule id. The lowering is structure-preserving (one op per
//! AST node, groups inlined), so the walk makes exactly the same RNG
//! draws as the original AST walk — generation is bit-for-bit identical
//! per seed. Free-standing (e.g. mutated) trees are compiled on the fly
//! against the shared grammar ([`CompiledGrammar::compile_detached`]).

use std::sync::Arc;

use hdiff_abnf::compile::{CompiledGrammar, Op, OpArena, RuleOrigin, UNBOUNDED};
use hdiff_abnf::{Grammar, Node};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::coverage::CoverageMap;
use crate::predefined::PredefinedRules;

const INF: usize = usize::MAX / 4;

/// Generation options.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Maximum traversal depth (rule-reference expansions on one path).
    pub max_depth: usize,
    /// Maximum repetitions taken for unbounded `*` repeats.
    pub max_repeat: u32,
    /// Predefined leaf values.
    pub predefined: PredefinedRules,
    /// RNG seed — generation is fully deterministic per seed.
    pub seed: u64,
    /// Bias alternation choices toward arms the coverage map has not seen
    /// yet (implies coverage tracking). Off by default: the cold-arm pick
    /// consumes RNG draws differently from the uniform walk, so enabling
    /// it changes the generated stream for a given seed.
    pub coverage_guided: bool,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            max_depth: 7,
            max_repeat: 3,
            predefined: PredefinedRules::standard(),
            seed: 0x4844_6966_6621,
            coverage_guided: false,
        }
    }
}

/// The ABNF test-string generator.
#[derive(Debug)]
pub struct AbnfGenerator {
    grammar: Grammar,
    compiled: Arc<CompiledGrammar>,
    opts: GenOptions,
    rng: StdRng,
    /// Min expansion depth per compiled rule index (grammar rules only;
    /// core rules cost a flat 1, undefined rules are unreachable).
    min_depth: Vec<usize>,
    /// Grammar coverage accumulated across generations, when enabled.
    coverage: Option<CoverageMap>,
}

impl AbnfGenerator {
    /// Builds a generator over an adapted grammar. The compiled form is
    /// taken from the grammar's cache, so constructing many generators
    /// over (clones of) one grammar compiles it once.
    pub fn new(grammar: Grammar, opts: GenOptions) -> AbnfGenerator {
        let rng = StdRng::seed_from_u64(opts.seed);
        let compiled = grammar.compiled();
        let mut g =
            AbnfGenerator { grammar, compiled, opts, rng, min_depth: Vec::new(), coverage: None };
        g.compute_min_depths();
        if g.opts.coverage_guided {
            g.enable_coverage();
        }
        g
    }

    /// Starts coverage tracking (idempotent; accumulated state is kept).
    pub fn enable_coverage(&mut self) {
        if self.coverage.is_none() {
            self.coverage = Some(CoverageMap::new(&self.compiled));
        }
    }

    /// The accumulated coverage map, if tracking is enabled.
    pub fn coverage(&self) -> Option<&CoverageMap> {
        self.coverage.as_ref()
    }

    /// Mutable access to the coverage map (e.g. to absorb matcher traces).
    pub fn coverage_mut(&mut self) -> Option<&mut CoverageMap> {
        self.coverage.as_mut()
    }

    /// Takes the coverage map out of the generator, disabling tracking.
    pub fn take_coverage(&mut self) -> Option<CoverageMap> {
        self.coverage.take()
    }

    /// The grammar being generated from.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// Restarts the random stream from `seed`, so the next values are the
    /// ones a generator built with `GenOptions { seed, .. }` and otherwise
    /// identical options would produce. Nothing else needs resetting: the
    /// compiled grammar and the min-depth table depend only on the grammar
    /// and the options, and the RNG is the only state a generation call
    /// changes. The one exception is coverage, which keeps accumulating
    /// across a reseed (and, under `coverage_guided`, steers later picks).
    pub fn reseed(&mut self, seed: u64) {
        self.opts.seed = seed;
        self.rng = StdRng::seed_from_u64(seed);
    }

    /// Generates one value for `rule`, or `None` when the rule is unknown.
    pub fn generate(&mut self, rule: &str) -> Option<Vec<u8>> {
        let cg = self.compiled.clone();
        let idx = cg.rule_index(rule)?;
        let root = cg.rule(idx).root?;
        if let Some(cov) = &mut self.coverage {
            cov.record_rule(idx);
        }
        let mut out = Vec::new();
        self.eval_op(&cg, cg.arena(), &[], root, 0, &mut out);
        Some(out)
    }

    /// Generates one value from an arbitrary syntax-tree node (used by the
    /// tree mutator to generate from mutated grammars). The node is
    /// compiled against the shared grammar on the fly.
    pub fn generate_node(&mut self, node: &Node) -> Vec<u8> {
        let cg = self.compiled.clone();
        let program = cg.compile_detached(node);
        let mut out = Vec::new();
        self.eval_op(&cg, &program.arena, &program.extra_names, program.root, 0, &mut out);
        out
    }

    /// Generates `count` values for `rule` (deduplicated, order preserved).
    pub fn generate_many(&mut self, rule: &str, count: usize) -> Vec<Vec<u8>> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        // Allow extra attempts so duplicates do not starve the result.
        for _ in 0..count.saturating_mul(4) {
            if out.len() >= count {
                break;
            }
            if let Some(v) = self.generate(rule) {
                if seen.insert(v.clone()) {
                    out.push(v);
                }
            } else {
                break;
            }
        }
        out
    }

    /// Exhaustively enumerates derivations of `rule`, depth-first, up to
    /// `limit` results (the paper's "depth-first traversal of the tree"
    /// generation mode — random sampling via [`AbnfGenerator::generate`]
    /// complements it for wide grammars).
    ///
    /// Unbounded repetitions are capped at `max_repeat`; wide byte ranges
    /// contribute only their endpoints plus one midpoint so enumeration
    /// stays representative rather than exhaustive over bytes.
    pub fn enumerate(&mut self, rule: &str, limit: usize) -> Vec<Vec<u8>> {
        let cg = self.compiled.clone();
        let Some(idx) = cg.rule_index(rule) else { return Vec::new() };
        let Some(root) = cg.rule(idx).root else { return Vec::new() };
        if let Some(cov) = &mut self.coverage {
            cov.record_rule(idx);
        }
        let mut out = self.enum_op(&cg, cg.arena(), &[], root, 0, limit);
        out.truncate(limit);
        out.sort();
        out.dedup();
        out
    }

    /// The rule name an `Op::Rule` index refers to (grammar/core rules or
    /// a detached program's extra names).
    fn rule_name<'c>(cg: &'c CompiledGrammar, extra: &'c [String], r: u32) -> &'c str {
        let count = cg.rule_count() as u32;
        if r < count {
            &cg.rule(r).name
        } else {
            &extra[(r - count) as usize]
        }
    }

    fn enum_op(
        &mut self,
        cg: &CompiledGrammar,
        arena: &OpArena,
        extra: &[String],
        op: u32,
        depth: usize,
        limit: usize,
    ) -> Vec<Vec<u8>> {
        if limit == 0 {
            return Vec::new();
        }
        match arena.op(op) {
            Op::Alt(range) => {
                let shared = std::ptr::eq(arena, cg.arena());
                let mut out = Vec::new();
                for (arm, &k) in arena.kid_slice(range).iter().enumerate() {
                    if out.len() >= limit {
                        break;
                    }
                    if shared {
                        if let Some(cov) = &mut self.coverage {
                            cov.record_alt(op, arm);
                        }
                    }
                    let got = self.enum_op(cg, arena, extra, k, depth, limit - out.len());
                    out.extend(got);
                }
                out
            }
            Op::Cat(range) => {
                let mut prefixes: Vec<Vec<u8>> = vec![Vec::new()];
                for &part in arena.kid_slice(range) {
                    let parts = self.enum_op(cg, arena, extra, part, depth, limit);
                    if parts.is_empty() {
                        return Vec::new();
                    }
                    prefixes = cross(&prefixes, &parts, limit);
                }
                prefixes
            }
            Op::Repeat { min, max, kid } => {
                let cap = min.saturating_add(self.opts.max_repeat);
                let max = if max == UNBOUNDED { cap } else { max.min(cap) };
                let mut out = Vec::new();
                for n in min..=max {
                    if out.len() >= limit {
                        break;
                    }
                    if n == 0 {
                        out.push(Vec::new());
                        continue;
                    }
                    // Each of the n slots is enumerated afresh and crossed
                    // in, under the remaining budget.
                    let remaining = limit - out.len();
                    let mut prefixes: Vec<Vec<u8>> = vec![Vec::new()];
                    let mut dead = false;
                    for _ in 0..n {
                        let parts = self.enum_op(cg, arena, extra, kid, depth, remaining);
                        if parts.is_empty() {
                            dead = true;
                            break;
                        }
                        prefixes = cross(&prefixes, &parts, remaining);
                    }
                    if !dead {
                        out.extend(prefixes);
                    }
                }
                out
            }
            Op::Opt { kid } => {
                let mut out = vec![Vec::new()];
                out.extend(self.enum_op(cg, arena, extra, kid, depth, limit.saturating_sub(1)));
                out
            }
            Op::Rule(r) => {
                if let Some(cov) = &mut self.coverage {
                    cov.record_rule(r);
                }
                let name = Self::rule_name(cg, extra, r);
                if let Some(values) = self.opts.predefined.get(name) {
                    if !values.is_empty() {
                        return values.iter().take(limit).cloned().collect();
                    }
                }
                let root = if (r as usize) < cg.rule_count() { cg.rule(r).root } else { None };
                if depth >= self.opts.max_depth {
                    // Depth cap: fall back to one sampled value.
                    let mut v = Vec::new();
                    if let Some(root) = root {
                        self.eval_op(cg, cg.arena(), extra, root, depth + 1, &mut v);
                    }
                    return vec![v];
                }
                match root {
                    Some(root) => self.enum_op(cg, cg.arena(), extra, root, depth + 1, limit),
                    None => Vec::new(),
                }
            }
            Op::Lit { range, .. } => vec![arena.lit_bytes(range).to_vec()],
            Op::Byte(b) => vec![vec![b]],
            Op::Range { lo, hi } => {
                // Representative endpoints + midpoint.
                let mid = lo + (hi - lo) / 2;
                let mut picks = vec![lo, mid, hi];
                picks.dedup();
                picks
                    .into_iter()
                    .take(limit)
                    .map(|v| {
                        let mut out = Vec::new();
                        push_char(v, &mut out);
                        out
                    })
                    .collect()
            }
            Op::Fail => Vec::new(),
        }
    }

    fn eval_op(
        &mut self,
        cg: &CompiledGrammar,
        arena: &OpArena,
        extra: &[String],
        op: u32,
        depth: usize,
        out: &mut Vec<u8>,
    ) {
        match arena.op(op) {
            Op::Alt(range) => {
                let kids = arena.kid_slice(range);
                // Alt-arm coverage is keyed by op index, which is only
                // meaningful in the grammar's own arena (detached mutant
                // programs have their own index space).
                let shared = std::ptr::eq(arena, cg.arena());
                let idx = if depth >= self.opts.max_depth {
                    // Depth cap: cheapest alternative.
                    (0..kids.len())
                        .min_by_key(|&i| self.op_min_depth(cg, arena, extra, kids[i]))
                        .unwrap_or(0)
                } else if self.opts.coverage_guided && shared {
                    self.pick_alt_guided(op, kids.len())
                } else {
                    self.rng.gen_range(0..kids.len())
                };
                if shared {
                    if let Some(cov) = &mut self.coverage {
                        cov.record_alt(op, idx);
                    }
                }
                self.eval_op(cg, arena, extra, kids[idx], depth, out);
            }
            Op::Cat(range) => {
                for &k in arena.kid_slice(range) {
                    self.eval_op(cg, arena, extra, k, depth, out);
                }
            }
            Op::Repeat { min, max, kid } => {
                let n = self.pick_repeat(min, max, depth);
                for _ in 0..n {
                    self.eval_op(cg, arena, extra, kid, depth, out);
                }
            }
            Op::Opt { kid } => {
                let take = depth < self.opts.max_depth && self.rng.gen_bool(0.5);
                if take {
                    self.eval_op(cg, arena, extra, kid, depth, out);
                }
            }
            Op::Rule(r) => {
                if let Some(cov) = &mut self.coverage {
                    cov.record_rule(r);
                }
                let name = Self::rule_name(cg, extra, r);
                if let Some(values) = self.opts.predefined.get(name) {
                    if !values.is_empty() {
                        let idx = self.rng.gen_range(0..values.len());
                        out.extend_from_slice(&values[idx]);
                        return;
                    }
                }
                // Hard guard: an ill-founded grammar (mutual recursion with
                // no terminating alternative) must degrade to empty output,
                // never to unbounded recursion.
                if depth > self.opts.max_depth + 64 {
                    return;
                }
                if (r as usize) < cg.rule_count() {
                    if let Some(root) = cg.rule(r).root {
                        self.eval_op(cg, cg.arena(), extra, root, depth + 1, out);
                    }
                }
                // Unknown rule: generate nothing (adaptor reports these).
            }
            Op::Lit { range, .. } => out.extend_from_slice(arena.lit_bytes(range)),
            Op::Byte(b) => out.push(b),
            Op::Range { lo, hi } => {
                let hi = hi.max(lo);
                // Bias printable ASCII inside wide ranges.
                let v = if lo <= 0x21 && hi >= 0x7e {
                    self.rng.gen_range(0x21..=0x7e)
                } else {
                    self.rng.gen_range(lo..=hi)
                };
                push_char(v, out);
            }
            Op::Fail => {
                // Prose-vals and invalid scalars: nothing to generate.
            }
        }
    }

    /// Cold-biased alternation pick: choose uniformly among the arms the
    /// coverage map has not seen yet, falling back to a uniform pick over
    /// all arms once the alternation is saturated.
    fn pick_alt_guided(&mut self, op: u32, arms: usize) -> usize {
        if let Some(cov) = &self.coverage {
            let cold: Vec<usize> = (0..arms).filter(|&i| !cov.alt_covered(op, i)).collect();
            if !cold.is_empty() {
                hdiff_obs::count("gen.alt.cold", 1);
                let pick = self.rng.gen_range(0..cold.len());
                return cold[pick];
            }
            hdiff_obs::count("gen.alt.saturated", 1);
        }
        self.rng.gen_range(0..arms)
    }

    fn pick_repeat(&mut self, min: u32, max: u32, depth: usize) -> u32 {
        let cap = min.saturating_add(self.opts.max_repeat);
        let max = if max == UNBOUNDED { cap } else { max.min(cap) };
        if depth >= self.opts.max_depth || min >= max {
            return min;
        }
        self.rng.gen_range(min..=max)
    }

    /// Minimum expansion depth of each grammar rule (∞ for rules that
    /// cannot terminate without the depth cap, which the grammar should
    /// not have). Fixpoint over the compiled rule table.
    fn compute_min_depths(&mut self) {
        let cg = self.compiled.clone();
        self.min_depth = vec![INF; cg.rule_count()];
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..cg.rule_count() {
                let info = cg.rule(i as u32);
                if info.origin != RuleOrigin::Grammar {
                    continue;
                }
                let Some(root) = info.root else { continue };
                let d = 1 + self.op_min_depth(&cg, cg.arena(), &[], root);
                if d < self.min_depth[i] {
                    self.min_depth[i] = d;
                    changed = true;
                }
            }
        }
    }

    fn op_min_depth(
        &self,
        cg: &CompiledGrammar,
        arena: &OpArena,
        extra: &[String],
        op: u32,
    ) -> usize {
        match arena.op(op) {
            Op::Alt(range) => arena
                .kid_slice(range)
                .iter()
                .map(|&k| self.op_min_depth(cg, arena, extra, k))
                .min()
                .unwrap_or(0),
            Op::Cat(range) => arena
                .kid_slice(range)
                .iter()
                .map(|&k| self.op_min_depth(cg, arena, extra, k))
                .max()
                .unwrap_or(0),
            Op::Repeat { min, kid, .. } => {
                if min == 0 {
                    0
                } else {
                    self.op_min_depth(cg, arena, extra, kid)
                }
            }
            Op::Opt { .. } => 0,
            Op::Rule(r) => {
                let name = Self::rule_name(cg, extra, r);
                if self.opts.predefined.get(name).is_some() {
                    return 0; // predefined values cost no traversal
                }
                if (r as usize) < cg.rule_count() {
                    match cg.rule(r).origin {
                        RuleOrigin::Grammar => self.min_depth[r as usize],
                        RuleOrigin::Core => 1,
                        RuleOrigin::Undefined => INF,
                    }
                } else {
                    INF
                }
            }
            _ => 0,
        }
    }
}

/// Cross product of `prefixes × parts`, capped at `limit` results.
fn cross(prefixes: &[Vec<u8>], parts: &[Vec<u8>], limit: usize) -> Vec<Vec<u8>> {
    let mut next = Vec::new();
    'outer: for p in prefixes {
        for q in parts {
            if next.len() >= limit {
                break 'outer;
            }
            let mut v = p.clone();
            v.extend_from_slice(q);
            next.push(v);
        }
    }
    next
}

fn push_char(v: u32, out: &mut Vec<u8>) {
    if v <= 0xff {
        out.push(v as u8);
    } else if let Some(c) = char::from_u32(v) {
        let mut buf = [0u8; 4];
        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_abnf::parse_rulelist;

    fn grammar(text: &str) -> Grammar {
        Grammar::from_rules("t", parse_rulelist(text).unwrap())
    }

    fn gen(text: &str) -> AbnfGenerator {
        AbnfGenerator::new(
            grammar(text),
            GenOptions { predefined: PredefinedRules::empty(), ..GenOptions::default() },
        )
    }

    #[test]
    fn literal_generation() {
        let mut g = gen("greeting = \"hello\"");
        assert_eq!(g.generate("greeting").unwrap(), b"hello");
        assert!(g.generate("missing").is_none());
    }

    #[test]
    fn http_version_generation_is_valid() {
        let mut g =
            gen("HTTP-version = HTTP-name \"/\" DIGIT \".\" DIGIT\nHTTP-name = %x48.54.54.50");
        for _ in 0..20 {
            let v = g.generate("HTTP-version").unwrap();
            assert_eq!(v.len(), 8);
            assert!(v.starts_with(b"HTTP/"), "{v:?}");
            assert!(v[5].is_ascii_digit() && v[6] == b'.' && v[7].is_ascii_digit());
        }
    }

    #[test]
    fn repetition_bounds_respected() {
        let mut g = gen("x = 2*4\"a\"");
        for _ in 0..20 {
            let v = g.generate("x").unwrap();
            assert!((2..=4).contains(&v.len()), "{v:?}");
        }
    }

    #[test]
    fn unbounded_repetition_capped() {
        let mut g = AbnfGenerator::new(
            grammar("x = *\"a\""),
            GenOptions {
                max_repeat: 3,
                predefined: PredefinedRules::empty(),
                ..GenOptions::default()
            },
        );
        for _ in 0..20 {
            assert!(g.generate("x").unwrap().len() <= 3);
        }
    }

    #[test]
    fn recursive_rules_terminate() {
        // RFC 7230 comment is self-recursive.
        let mut g = gen("comment = \"(\" *( ctext / comment ) \")\"\nctext = %x61-7A");
        for _ in 0..50 {
            let v = g.generate("comment").unwrap();
            assert!(v.starts_with(b"(") && v.ends_with(b")"));
        }
    }

    #[test]
    fn predefined_values_used() {
        let mut predefined = PredefinedRules::empty();
        predefined.set("uri-host", vec![b"h1.com".to_vec()]);
        let mut g = AbnfGenerator::new(
            grammar("Host = uri-host [ \":\" port ]\nuri-host = 1*ALPHA\nport = 1*DIGIT"),
            GenOptions { predefined, ..GenOptions::default() },
        );
        for _ in 0..10 {
            let v = g.generate("Host").unwrap();
            assert!(v.starts_with(b"h1.com"), "{:?}", String::from_utf8_lossy(&v));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let make = |seed| {
            let mut g = AbnfGenerator::new(
                grammar("x = 1*5ALPHA"),
                GenOptions { seed, predefined: PredefinedRules::empty(), ..GenOptions::default() },
            );
            g.generate_many("x", 10)
        };
        assert_eq!(make(42), make(42));
        assert_ne!(make(42), make(43));
    }

    #[test]
    fn generate_many_deduplicates() {
        let mut g = gen("x = \"a\" / \"b\"");
        let vs = g.generate_many("x", 10);
        assert!(vs.len() <= 2);
        let set: std::collections::BTreeSet<_> = vs.iter().collect();
        assert_eq!(set.len(), vs.len());
    }

    #[test]
    fn num_range_stays_in_range() {
        let mut g = gen("d = %x30-39");
        for _ in 0..20 {
            let v = g.generate("d").unwrap();
            assert!(v[0].is_ascii_digit());
        }
    }

    #[test]
    fn enumeration_is_exhaustive_for_small_rules() {
        let mut g = gen("coding = \"chunked\" / \"gzip\" / \"deflate\"");
        let all = g.enumerate("coding", 100);
        assert_eq!(all, vec![b"chunked".to_vec(), b"deflate".to_vec(), b"gzip".to_vec()]);
    }

    #[test]
    fn enumeration_expands_repetitions_and_options() {
        let mut g = gen("x = 1*2\"a\" [ \"b\" ]");
        let mut all = g.enumerate("x", 100);
        all.sort();
        assert_eq!(all, vec![b"a".to_vec(), b"aa".to_vec(), b"aab".to_vec(), b"ab".to_vec()]);
    }

    #[test]
    fn enumeration_respects_the_limit() {
        let mut g = gen("d = 4DIGIT");
        let some = g.enumerate("d", 10);
        assert!(some.len() <= 10);
        assert!(!some.is_empty());
        for v in &some {
            assert_eq!(v.len(), 4);
            assert!(v.iter().all(u8::is_ascii_digit));
        }
    }

    #[test]
    fn enumeration_of_http_version_covers_grammar_shape() {
        let mut g =
            gen("HTTP-version = HTTP-name \"/\" DIGIT \".\" DIGIT\nHTTP-name = %x48.54.54.50");
        let all = g.enumerate("HTTP-version", 1000);
        // DIGIT enumerates endpoints + midpoint: 3 choices per digit slot.
        assert_eq!(all.len(), 9);
        assert!(all.contains(&b"HTTP/0.0".to_vec()));
        assert!(all.contains(&b"HTTP/9.9".to_vec()));
        for v in &all {
            assert!(v.starts_with(b"HTTP/"));
        }
    }

    #[test]
    fn enumerated_values_match_the_grammar() {
        let g = grammar("t = 1*2( \"x\" / \"y\" ) [ \":\" DIGIT ]");
        let mut generator = AbnfGenerator::new(
            g.clone(),
            GenOptions { predefined: PredefinedRules::empty(), ..GenOptions::default() },
        );
        let all = generator.enumerate("t", 200);
        assert!(all.len() >= 6);
        for v in &all {
            assert!(
                hdiff_abnf::matcher::matches(&g, "t", v).is_match(),
                "{:?}",
                String::from_utf8_lossy(v)
            );
        }
    }

    #[test]
    fn generates_valid_host_from_real_corpus_grammar() {
        let out = hdiff_analyzer::DocumentAnalyzer::with_default_inputs()
            .analyze(&hdiff_corpus::core_documents());
        let mut g = AbnfGenerator::new(out.grammar, GenOptions::default());
        let hosts = g.generate_many("Host", 25);
        assert!(!hosts.is_empty());
        for h in &hosts {
            // Predefined uri-host keeps these realistic.
            let s = String::from_utf8_lossy(h);
            assert!(
                s.starts_with("h1.com")
                    || s.starts_with("h2.com")
                    || s.starts_with("example.com")
                    || s.starts_with("127.0.0.1")
                    || s.starts_with('['),
                "{s}"
            );
        }
    }

    #[test]
    fn generates_whole_http_message_from_corpus_grammar() {
        let out = hdiff_analyzer::DocumentAnalyzer::with_default_inputs()
            .analyze(&hdiff_corpus::core_documents());
        let mut g = AbnfGenerator::new(out.grammar, GenOptions::default());
        let msgs = g.generate_many("HTTP-message", 10);
        assert!(!msgs.is_empty());
        // Every generated message must contain a CRLF-terminated start line.
        for m in &msgs {
            assert!(m.windows(2).any(|w| w == b"\r\n"), "{:?}", String::from_utf8_lossy(m));
        }
    }

    #[test]
    fn reseeding_reproduces_a_fresh_generator() {
        let out = hdiff_analyzer::DocumentAnalyzer::with_default_inputs()
            .analyze(&hdiff_corpus::core_documents());
        let host = out.grammar.get("Host").unwrap().node.clone();
        let fresh = |seed| {
            AbnfGenerator::new(out.grammar.clone(), GenOptions { seed, ..GenOptions::default() })
        };
        // One generator, advanced by earlier values before every reseed.
        let mut reused = fresh(3);
        for seed in [0, 7, 11, u64::MAX] {
            reused.generate("HTTP-message");
            reused.reseed(seed);
            let (mut a, mut b) = (fresh(seed), fresh(seed));
            for _ in 0..5 {
                assert_eq!(reused.generate("Host"), a.generate("Host"), "seed {seed}");
            }
            reused.reseed(seed);
            for _ in 0..5 {
                assert_eq!(reused.generate_node(&host), b.generate_node(&host), "seed {seed}");
            }
        }
    }

    #[test]
    fn compiled_walk_preserves_the_ast_walk_rng_stream() {
        // The arena lowering is structure-preserving, so generation from a
        // detached compilation of a rule's AST must be byte-identical to
        // generation from the rule itself under the same seed.
        let g = grammar("Host = 1*3ALPHA [ \":\" 1*2DIGIT ] *( \";\" %x61-7A )");
        let direct: Vec<_> = {
            let mut gen = AbnfGenerator::new(
                g.clone(),
                GenOptions { predefined: PredefinedRules::empty(), ..GenOptions::default() },
            );
            (0..30).filter_map(|_| gen.generate("Host")).collect()
        };
        let via_node: Vec<_> = {
            let node = g.get("Host").unwrap().node.clone();
            let mut gen = AbnfGenerator::new(
                g,
                GenOptions { predefined: PredefinedRules::empty(), ..GenOptions::default() },
            );
            (0..30).map(|_| gen.generate_node(&node)).collect()
        };
        assert_eq!(direct, via_node);
    }
}
