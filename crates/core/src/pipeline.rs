//! The end-to-end HDiff pipeline.

use hdiff_analyzer::{AnalyzerOutput, DocumentAnalyzer};
use hdiff_diff::{DiffEngine, RunSummary};
use hdiff_gen::{
    catalog, AbnfGenerator, GenOptions, MutationEngine, Origin, SrTranslator, TestCase, TreeMutator,
};
use hdiff_wire::{Method, Request, Version};

use crate::config::HdiffConfig;

/// Everything a pipeline run produced.
#[derive(Debug)]
pub struct PipelineReport {
    /// Documentation-analyzer output (SRs, grammar, statistics).
    pub analysis: AnalyzerOutput,
    /// Test cases translated from SRs.
    pub sr_cases: usize,
    /// Test cases generated from the ABNF grammar (+ mutations).
    pub abnf_cases: usize,
    /// Catalog cases.
    pub catalog_cases: usize,
    /// The generated test-case corpus (for exploit reports and replay).
    pub cases: Vec<TestCase>,
    /// The differential-testing summary (findings, verdicts, pairs).
    pub summary: RunSummary,
}

impl PipelineReport {
    /// Looks up the test case behind a finding.
    pub fn case(&self, uuid: u64) -> Option<&TestCase> {
        self.cases.iter().find(|c| c.uuid == uuid)
    }
}

impl PipelineReport {
    /// Total generated test cases.
    pub fn total_cases(&self) -> usize {
        self.sr_cases + self.abnf_cases + self.catalog_cases
    }
}

/// The orchestrator.
#[derive(Debug)]
pub struct HDiff {
    config: HdiffConfig,
}

impl HDiff {
    /// Creates an orchestrator with the given configuration.
    pub fn new(config: HdiffConfig) -> HDiff {
        HDiff { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &HdiffConfig {
        &self.config
    }

    /// Runs the Documentation Analyzer only.
    pub fn analyze(&self) -> AnalyzerOutput {
        DocumentAnalyzer::with_default_inputs().analyze(&hdiff_corpus::core_documents())
    }

    /// Track-1-only analysis: the adapted grammar (and everything
    /// derived from it) without the sentence-level SR extraction. The
    /// grammar is identical to [`HDiff::analyze`]'s; requirements are
    /// empty.
    pub fn analyze_syntax(&self) -> AnalyzerOutput {
        DocumentAnalyzer::with_default_inputs().analyze_syntax(&hdiff_corpus::core_documents())
    }

    /// Generates the full test-case corpus from an analysis.
    pub fn generate_cases(&self, analysis: &AnalyzerOutput) -> Vec<TestCase> {
        self.generate_cases_with_coverage(analysis).0
    }

    /// [`HDiff::generate_cases`] plus the grammar coverage the generation
    /// phase reached: generator-side rule/alternation hits merged with
    /// packrat-matcher traces over the generated `Host` values.
    pub fn generate_cases_with_coverage(
        &self,
        analysis: &AnalyzerOutput,
    ) -> (Vec<TestCase>, Option<hdiff_gen::GrammarCoverage>) {
        let mut cases = Vec::new();
        let mut next_uuid = 1u64;

        // 1. SR translator cases (with assertions).
        {
            let _stage = hdiff_obs::span("stage.sr-translate");
            let gen = AbnfGenerator::new(
                analysis.grammar.clone(),
                GenOptions { seed: self.config.seed, ..GenOptions::default() },
            );
            let mut translator = SrTranslator::new(gen);
            translator.variants = self.config.sr_variants;
            let mut sr_cases = translator.translate_all(&analysis.requirements);
            for c in &mut sr_cases {
                c.uuid = next_uuid;
                next_uuid += 1;
            }
            cases.extend(sr_cases);
        }

        // 2. ABNF-generated seeds plus mutations.
        let mut gen = AbnfGenerator::new(
            analysis.grammar.clone(),
            GenOptions {
                seed: self.config.seed ^ 0xabcd,
                coverage_guided: self.config.coverage_guided,
                ..GenOptions::default()
            },
        );
        gen.enable_coverage();
        let mut mutator = MutationEngine::new(self.config.seed ^ 0x5eed);
        let gen_stage = hdiff_obs::span("stage.generate");
        let hosts = gen.generate_many("Host", self.config.abnf_seeds);
        // Matcher-side coverage feed: re-match each generated host so the
        // rules reachable only through matching (e.g. the `uri-host`
        // breakdown under predefined leaf values) are accounted too.
        {
            let cg = analysis.grammar.compiled();
            for host in &hosts {
                let (_, visited) = hdiff_abnf::memo::match_rule_traced(
                    &cg,
                    "Host",
                    host,
                    hdiff_abnf::matcher::DEFAULT_BUDGET,
                );
                if let Some(cov) = gen.coverage_mut() {
                    cov.absorb_rules(&visited);
                }
            }
        }
        let targets = gen.generate_many("origin-form", self.config.abnf_seeds / 2 + 1);
        let te_values = gen.generate_many("transfer-coding", 8);
        let expect_values = gen.generate_many("Expect", 4);
        drop(gen_stage);
        for i in 0..self.config.abnf_seeds {
            let host = &hosts[i % hosts.len().max(1)];
            let target =
                targets.get(i % targets.len().max(1)).cloned().unwrap_or_else(|| b"/".to_vec());
            let mut b = Request::builder();
            b.method(if i % 3 == 0 { Method::Post } else { Method::Get })
                .target(&target)
                .version(Version::Http11)
                .header("Host", host);
            match i % 5 {
                0 => {
                    b.header("Content-Length", "3").body(b"abc".to_vec());
                }
                1 => {
                    let te = &te_values[i % te_values.len().max(1)];
                    if te == b"chunked" {
                        b.header("Transfer-Encoding", te).body(hdiff_wire::encode_chunked(b"abc"));
                    } else {
                        b.header("X-Accept-Coding", te);
                    }
                }
                2 => {
                    let e = &expect_values[i % expect_values.len().max(1)];
                    b.header("Expect", e);
                }
                _ => {}
            }
            let seed_req = b.build();
            let mut seed_case = TestCase::generated(next_uuid, seed_req.clone(), "abnf seed");
            seed_case.origin = Origin::Abnf;
            next_uuid += 1;
            cases.push(seed_case);
            for _ in 0..self.config.mutants_per_seed {
                let _mutate = hdiff_obs::span("stage.mutate");
                let mut mutant = seed_req.clone();
                let notes = mutator.mutate(&mut mutant);
                let mut c = TestCase::generated(next_uuid, mutant, notes.join("; "));
                c.origin = Origin::Abnf;
                next_uuid += 1;
                cases.push(c);
            }
        }

        // 2b. Tree-mutated host values: "mutate the original ABNF syntax
        // tree to generate malformed host data" (§III-D).
        let mut tree_mutator = TreeMutator::new(self.config.seed ^ 0x7ee);
        let malformed = {
            let _mutate = hdiff_obs::span("stage.mutate");
            tree_mutator.malformed_values(&analysis.grammar, "Host", self.config.abnf_seeds / 4)
        };
        for (value, op) in malformed {
            if value.is_empty() || value.len() > 256 {
                continue;
            }
            let mut b = Request::builder();
            b.method(Method::Get).target("/").version(Version::Http11).header("Host", &value);
            let mut c =
                TestCase::generated(next_uuid, b.build(), format!("tree-mutated host ({op:?})"));
            c.origin = Origin::Abnf;
            next_uuid += 1;
            cases.push(c);
        }

        // 3. The Table II catalog.
        for entry in catalog::catalog() {
            for (req, note) in &entry.requests {
                cases.push(TestCase {
                    uuid: next_uuid,
                    request: req.clone(),
                    assertions: Vec::new(),
                    origin: Origin::Catalog(entry.id.to_string()),
                    note: note.clone(),
                });
                next_uuid += 1;
            }
        }
        let coverage = gen.take_coverage().map(|c| c.summary());
        (cases, coverage)
    }

    /// Analyzes, generates the corpus, and builds the configured engine
    /// — everything [`HDiff::run`] does short of executing the cases.
    ///
    /// This is the determinism anchor for the sharded campaign fabric:
    /// the supervisor and every worker process call `prepare()` from the
    /// same [`HdiffConfig`], so corpus order, case UUIDs, and engine
    /// construction are byte-identical across processes and a shard is
    /// fully described by a contiguous index range into `cases`.
    pub fn prepare(&self) -> PreparedCampaign {
        // The calling thread's switch: generation records under it, and
        // the engine captures it for its workers when a run starts.
        hdiff_obs::set_enabled(self.config.telemetry);
        // Start the generation phase from a clean thread-local slate so a
        // previous run on this thread cannot leak into this summary.
        let _ = hdiff_obs::drain();
        let analysis = {
            let _stage = hdiff_obs::span("stage.analyze");
            self.analyze()
        };
        let (cases, coverage) = self.generate_cases_with_coverage(&analysis);

        let sr_cases = cases.iter().filter(|c| matches!(c.origin, Origin::Sr(_))).count();
        let abnf_cases = cases.iter().filter(|c| matches!(c.origin, Origin::Abnf)).count();
        let catalog_cases = cases.iter().filter(|c| matches!(c.origin, Origin::Catalog(_))).count();
        hdiff_obs::count_many(&[
            ("gen.cases.sr", sr_cases as u64),
            ("gen.cases.abnf", abnf_cases as u64),
            ("gen.cases.catalog", catalog_cases as u64),
        ]);

        let engine = self.build_engine(&analysis, coverage);
        PreparedCampaign { analysis, sr_cases, abnf_cases, catalog_cases, cases, engine }
    }

    /// [`HDiff::prepare`] fed a pre-generated corpus (the fleet
    /// supervisor's `corpus.json` artifact): skips SR extraction and
    /// case generation, rebuilding only the grammar the engine's syntax
    /// oracle needs. The engine configuration is identical to
    /// [`HDiff::prepare`]'s, so per-case records come out byte-identical
    /// — that is the fleet's merge invariant. Summary-level fields
    /// derived from generation (grammar coverage, SR assertions,
    /// generation telemetry) are absent here; fleet workers' own
    /// summaries are discarded in favor of the supervisor's canonical
    /// merge, which recomputes them from the full `prepare()`.
    pub fn prepare_with_cases(&self, cases: Vec<TestCase>) -> PreparedCampaign {
        hdiff_obs::set_enabled(self.config.telemetry);
        let _ = hdiff_obs::drain();
        let analysis = {
            let _stage = hdiff_obs::span("stage.analyze");
            self.analyze_syntax()
        };
        let sr_cases = cases.iter().filter(|c| matches!(c.origin, Origin::Sr(_))).count();
        let abnf_cases = cases.iter().filter(|c| matches!(c.origin, Origin::Abnf)).count();
        let catalog_cases = cases.iter().filter(|c| matches!(c.origin, Origin::Catalog(_))).count();
        hdiff_obs::count_many(&[
            ("gen.cases.sr", sr_cases as u64),
            ("gen.cases.abnf", abnf_cases as u64),
            ("gen.cases.catalog", catalog_cases as u64),
        ]);
        let engine = self.build_engine(&analysis, None);
        PreparedCampaign { analysis, sr_cases, abnf_cases, catalog_cases, cases, engine }
    }

    /// The one place engine knobs are set from the config, shared by
    /// both prepare paths so they cannot drift.
    fn build_engine(
        &self,
        analysis: &AnalyzerOutput,
        coverage: Option<hdiff_gen::GrammarCoverage>,
    ) -> DiffEngine {
        let mut engine = DiffEngine::standard();
        engine.threads = self.config.threads;
        engine.transport = self.config.transport;
        engine.checkpoint_every = self.config.checkpoint_every.max(1);
        // The adapted grammar doubles as a syntax oracle: HoT findings
        // get per-view `Host` conformance verdicts and lenient hosts
        // surface as SR violations.
        engine.syntax_oracle = Some(hdiff_diff::SyntaxOracle::new(&analysis.grammar));
        engine.grammar_coverage = coverage;
        if self.config.fault_rate > 0 {
            engine.fault_plan =
                hdiff_servers::fault::FaultPlan::new(self.config.seed, self.config.fault_rate);
        }
        // Generation-phase telemetry accumulated on this thread rides into
        // the summary alongside the per-case buckets the engine merges.
        engine.base_telemetry = hdiff_obs::drain();
        engine
    }

    /// Runs the whole pipeline.
    pub fn run(&self) -> PipelineReport {
        let prepared = self.prepare();
        let summary = prepared.engine.run(&prepared.cases);
        prepared.into_report(summary)
    }
}

/// A fully generated campaign that has not executed yet: the corpus in
/// canonical order plus the configured [`DiffEngine`]. Produced by
/// [`HDiff::prepare`]; shard workers run a slice of `cases`, the fleet
/// supervisor merges their checkpoints with the same engine.
#[derive(Debug)]
pub struct PreparedCampaign {
    /// Documentation-analyzer output (SRs, grammar, statistics).
    pub analysis: AnalyzerOutput,
    /// Test cases translated from SRs.
    pub sr_cases: usize,
    /// Test cases generated from the ABNF grammar (+ mutations).
    pub abnf_cases: usize,
    /// Catalog cases.
    pub catalog_cases: usize,
    /// The corpus in canonical (deterministic) order.
    pub cases: Vec<TestCase>,
    /// The configured engine, ready to run or to merge shard records.
    pub engine: DiffEngine,
}

impl PreparedCampaign {
    /// Packages an executed summary with this campaign's generation
    /// metadata into the [`PipelineReport`] that [`HDiff::run`] returns.
    pub fn into_report(self, summary: RunSummary) -> PipelineReport {
        PipelineReport {
            analysis: self.analysis,
            sr_cases: self.sr_cases,
            abnf_cases: self.abnf_cases,
            catalog_cases: self.catalog_cases,
            cases: self.cases,
            summary,
        }
    }
}

impl Default for HDiff {
    fn default() -> Self {
        HDiff::new(HdiffConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_gen::AttackClass;

    #[test]
    fn quick_pipeline_end_to_end() {
        let report = HDiff::new(HdiffConfig::quick()).run();
        assert!(report.analysis.stats.srs >= 40);
        assert!(report.sr_cases > 0);
        assert!(report.abnf_cases > 0);
        assert!(report.catalog_cases >= 14);
        assert_eq!(report.summary.cases, report.total_cases());
        for class in AttackClass::ALL {
            assert!(!report.summary.findings_of(class).is_empty(), "no {class} findings");
        }
        assert!(!report.summary.sr_violations.is_empty());
        let cov = report.summary.coverage.expect("pipeline campaigns report grammar coverage");
        assert!(cov.rules_covered > 0 && cov.rules_covered <= cov.rules_total, "{cov}");
        assert!(cov.alts_covered > 0 && cov.alts_covered <= cov.alts_total, "{cov}");
    }

    #[test]
    fn coverage_guided_pipeline_does_not_lose_coverage() {
        let uniform = HDiff::new(HdiffConfig::quick()).run();
        let mut config = HdiffConfig::quick();
        config.coverage_guided = true;
        let guided = HDiff::new(config).run();
        let (u, g) = (uniform.summary.coverage.unwrap(), guided.summary.coverage.unwrap());
        assert_eq!(u.alts_total, g.alts_total);
        assert!(
            g.alts_covered >= u.alts_covered,
            "cold-biased generation must not cover fewer arms: {g} vs {u}"
        );
    }

    #[test]
    fn quick_pipeline_reproduces_table1_verdicts() {
        let report = HDiff::new(HdiffConfig::quick()).run();
        let v = &report.summary.verdicts;
        // The expected Table I matrix (see the paper).
        let expected: [(&str, &[AttackClass]); 10] = [
            ("iis", &[AttackClass::Hrs, AttackClass::Hot]),
            ("tomcat", &[AttackClass::Hrs, AttackClass::Hot]),
            ("weblogic", &[AttackClass::Hrs, AttackClass::Hot]),
            ("lighttpd", &[AttackClass::Hrs]),
            ("apache", &[AttackClass::Cpdos]),
            ("nginx", &[AttackClass::Hot, AttackClass::Cpdos]),
            ("varnish", &[AttackClass::Hrs, AttackClass::Hot, AttackClass::Cpdos]),
            ("squid", &[AttackClass::Hrs, AttackClass::Cpdos]),
            ("haproxy", &[AttackClass::Hrs, AttackClass::Hot, AttackClass::Cpdos]),
            ("ats", &[AttackClass::Hrs, AttackClass::Cpdos]),
        ];
        for (product, classes) in expected {
            for class in AttackClass::ALL {
                let expected_mark = classes.contains(&class);
                assert_eq!(
                    v.is_vulnerable(product, class),
                    expected_mark,
                    "{product} x {class}: expected {expected_mark}, verdicts {:?}",
                    v.classes(product)
                );
            }
        }
    }
}
