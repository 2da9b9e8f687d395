//! The coverage-guided differential fuzzing loop.
//!
//! Each iteration draws an energy-weighted parent (and a second parent
//! for splices) from the corpus, mutates it into a candidate stream,
//! executes the stream's effective bytes through the full Fig. 6
//! workflow on the configured transport (under the campaign's per-case
//! runner, [`run_case`]), and scores it with a two-part fitness signal:
//!
//! 1. **grammar coverage delta** — alternation arms the candidate's
//!    freshly generated material touched (generator-side
//!    [`CoverageMap`] merge delta) plus rules its `Host` values visit
//!    under the packrat matcher's trace;
//! 2. **behavior-digest novelty** — `(view label, FNV-1a digest)` pairs
//!    across the 12 implementation views (6 direct back-ends, 6 proxy
//!    chains) never seen in the session.
//!
//! Either signal earns a corpus slot and rewards the parent. Every
//! never-seen divergence class (`class|front|back` of a detector
//! finding) is ddmin-minimized at stream granularity
//! ([`minimize_stream`]) and promoted to a candidate golden
//! [`ReplayBundle`].
//!
//! Determinism-under-seed is the core promise: candidates are derived
//! and scored serially in batch order from one RNG stream; worker
//! threads only execute a batch (order-preserving, see
//! `hdiff_diff::schedule`), so a session is a pure function of
//! `(seed, iteration budget, transport)` — invariant across `--threads`.

use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use hdiff_abnf::Grammar;
use hdiff_diff::minimize::{ddmin_items, minimize, MinimizeOptions, MinimizeStats};
use hdiff_diff::replay::behavior_digests;
use hdiff_diff::runner::{run_case, Attempt};
use hdiff_diff::{
    detect_case, schedule, CaseError, Finding, FindingContext, ReplayBundle, Transport, Workflow,
};
use hdiff_gen::{AbnfGenerator, CoverageMap, GenOptions, GrammarCoverage};
use hdiff_servers::fault::{FaultInjector, FaultPlan, FaultSession};
use hdiff_servers::ParserProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::corpus::Corpus;
use crate::mutate::{host_values, inject_line, IngredientPool, StreamMutator};
use crate::stream::Stream;

/// `(grammar rule, header-line prefix)` pairs the fresh-material
/// operator draws from: the fields the three detection models care
/// about plus the alternation-rich grammar regions.
pub const FRESH_RULES: [(&str, &[u8]); 6] = [
    ("Host", b"Host: "),
    ("transfer-coding", b"Transfer-Encoding: "),
    ("TE", b"TE: "),
    ("Via", b"Via: "),
    ("Expect", b"Expect: "),
    ("Connection", b"Connection: "),
];

/// Base of the uuid range fuzz cases occupy, far above campaign uuids.
pub const FUZZ_UUID_BASE: u64 = 0xfa22_0000_0000_0000;

/// Corpus capacity.
const CORPUS_CAP: usize = 256;
/// Candidates per scheduling batch. Fixed independently of the thread
/// count so the candidate sequence is thread-invariant.
const BATCH: usize = 8;
/// Predicate-call budget for stream minimization at promotion.
const MINIMIZE_ATTEMPTS: usize = 256;
/// Promotion ceiling per session (counted when hit, never silent).
const MAX_PROMOTIONS: usize = 16;

/// How long the loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuzzBudget {
    /// Exactly this many stream executions (seed streams included) —
    /// the fully deterministic mode the regression gates use.
    Iters(u64),
    /// Wall-clock bound: the deterministic candidate sequence is cut at
    /// whatever prefix fits the time window.
    Seconds(u64),
}

/// Session configuration.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// RNG seed — the session is a pure function of it (given the same
    /// iteration budget and transport).
    pub seed: u64,
    /// Iteration or wall-clock budget.
    pub budget: FuzzBudget,
    /// Worker threads for batch execution; `0` = one per core. Never
    /// affects results, only wall-clock.
    pub threads: usize,
    /// Transport streams execute over.
    pub transport: Transport,
    /// Directory promoted bundles (and their stream sidecars) are
    /// written to.
    pub promote_dir: Option<PathBuf>,
    /// Directory of previously promoted artifacts to seed the session
    /// with: every `*.stream` sidecar loads as a full connection
    /// stream, and every `*.json` replay bundle *without* a sidecar
    /// contributes its request bytes as a single-request stream.
    /// Files load in sorted name order ahead of the template seeds, so
    /// a corpus-seeded session is as deterministic as a cold one.
    pub seed_corpus: Option<PathBuf>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0xfa22,
            budget: FuzzBudget::Iters(256),
            threads: 0,
            transport: Transport::Sim,
            promote_dir: None,
            seed_corpus: None,
        }
    }
}

/// A minimized, bundled divergence the session discovered.
#[derive(Debug, Clone)]
pub struct PromotedStream {
    /// Bundle name (`fuzz-<fnv64 of the class key>`).
    pub name: String,
    /// The divergence class that triggered promotion.
    pub class_key: String,
    /// The minimized stream.
    pub stream: Stream,
    /// The candidate golden bundle recorded from the minimized stream.
    pub bundle: ReplayBundle,
    /// Minimization bookkeeping (byte lengths, attempts, quarantines).
    pub shrink: MinimizeStats,
}

/// Everything a session produced. The determinism gates compare
/// [`FuzzReport::corpus_digests`], [`FuzzReport::coverage`],
/// [`FuzzReport::novel_digest_views`], [`FuzzReport::divergence_classes`]
/// and the promoted name set — never wall-clock.
#[derive(Debug)]
pub struct FuzzReport {
    /// Transport the session executed over.
    pub transport: Transport,
    /// Streams executed (seeds included).
    pub execs: u64,
    /// Executions that panicked the harness (quarantined, skipped).
    pub quarantined: u64,
    /// Executions lost to loopback testbed failures (wire transports).
    pub net_errors: u64,
    /// Wall-clock of the loop.
    pub elapsed: Duration,
    /// Structural digests of the final corpus, admission order.
    pub corpus_digests: Vec<u64>,
    /// Grammar coverage the session reached.
    pub coverage: GrammarCoverage,
    /// Distinct `(view label, digest)` pairs observed.
    pub novel_digest_views: u64,
    /// Distinct divergence class keys observed, ascending.
    pub divergence_classes: Vec<String>,
    /// Minimized promoted bundles, discovery order.
    pub promoted: Vec<PromotedStream>,
    /// Session telemetry (fuzz counters, generation counters, per-case
    /// spans) merged in batch order.
    pub telemetry: hdiff_obs::Telemetry,
}

impl FuzzReport {
    /// Executions per second.
    pub fn execs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.execs as f64 / secs
        } else {
            0.0
        }
    }

    /// Names of the promoted bundles, discovery order.
    pub fn promoted_names(&self) -> Vec<String> {
        self.promoted.iter().map(|p| p.name.clone()).collect()
    }

    /// Human-readable session summary (the `hdiff fuzz` stdout view).
    pub fn render(&self) -> String {
        use std::fmt::Write;

        let mut out = String::new();
        let _ = writeln!(out, "== fuzz session ({}) ==", self.transport.as_str());
        let _ = writeln!(
            out,
            "executions      : {} ({:.1}/s, {} quarantined, {} net errors)",
            self.execs,
            self.execs_per_sec(),
            self.quarantined,
            self.net_errors
        );
        let _ = writeln!(out, "corpus          : {} entries", self.corpus_digests.len());
        let _ = writeln!(
            out,
            "grammar coverage: {}/{} rules ({:.1}%), {}/{} alternation arms ({:.1}%)",
            self.coverage.rules_covered,
            self.coverage.rules_total,
            100.0 * self.coverage.rule_fraction(),
            self.coverage.alts_covered,
            self.coverage.alts_total,
            100.0 * self.coverage.alt_fraction(),
        );
        let _ =
            writeln!(out, "novel digests   : {} behavior-digest views", self.novel_digest_views);
        let _ = writeln!(
            out,
            "divergences     : {} class(es){}",
            self.divergence_classes.len(),
            if self.divergence_classes.is_empty() { String::new() } else { ":".to_string() }
        );
        for class in &self.divergence_classes {
            let _ = writeln!(out, "  {class}");
        }
        let _ = writeln!(out, "promoted        : {} minimized bundle(s)", self.promoted.len());
        for p in &self.promoted {
            let _ = writeln!(
                out,
                "  {}  {}  {} -> {} bytes ({} requests)",
                p.name,
                p.class_key,
                p.shrink.original_len,
                p.shrink.minimized_len,
                p.stream.requests.len(),
            );
        }
        out
    }
}

/// Loads seed streams from a directory of promoted artifacts.
///
/// `*.stream` sidecars parse as full connection streams; `*.json`
/// replay bundles whose stem has no sidecar contribute their request
/// bytes as single-request streams (the sidecar, when present, is the
/// richer form of the same case). Files load in sorted name order, and
/// unreadable entries and streams that are not
/// [well formed](Stream::well_formed) are skipped with a diagnostic,
/// never a panic — a corpus directory is operator input.
fn load_seed_corpus(dir: &std::path::Path) -> Vec<Stream> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("cannot read seed corpus {}: {e}", dir.display());
            return Vec::new();
        }
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    let has_sidecar = |path: &std::path::Path| path.with_extension("stream").is_file();
    let mut streams = Vec::new();
    for path in &paths {
        let ext = path.extension().and_then(|e| e.to_str());
        let loaded = match ext {
            Some("stream") => std::fs::read(path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| Stream::from_json(&bytes).map_err(|e| e.to_string()))
                .map(Some),
            Some("json") if !has_sidecar(path) => std::fs::read(path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| ReplayBundle::from_json(&bytes).map_err(|e| e.to_string()))
                .map(|bundle| Some(Stream::single(bundle.request))),
            _ => Ok(None),
        };
        match loaded {
            Ok(Some(stream)) if stream.well_formed() => streams.push(stream),
            Ok(Some(_)) => {
                eprintln!("skipping seed corpus entry {}: malformed stream", path.display())
            }
            Ok(None) => {}
            Err(e) => eprintln!("skipping seed corpus entry {}: {e}", path.display()),
        }
    }
    streams
}

/// The fuzzing session driver.
#[derive(Debug)]
pub struct FuzzEngine {
    opts: FuzzOptions,
    workflow: Workflow,
    profiles: Vec<ParserProfile>,
    grammar: Grammar,
}

/// A candidate awaiting execution: the stream, its parent (if any), and
/// the generator-side coverage gain attributed at creation.
struct Candidate {
    stream: Stream,
    parent: Option<u64>,
    gen_gain: usize,
    op: &'static str,
    uuid: u64,
    origin: String,
    /// The execution's behavior digests, set by [`FuzzEngine::attempt`]
    /// (at most once: a fault-free session never retries).
    digests: OnceLock<Vec<(String, u64)>>,
}

impl FuzzEngine {
    /// An engine over the standard Fig. 6 environment and the adapted
    /// RFC grammar.
    pub fn standard(opts: FuzzOptions) -> FuzzEngine {
        let grammar = hdiff_analyzer::DocumentAnalyzer::with_default_inputs()
            .analyze_syntax(&hdiff_corpus::core_documents())
            .grammar;
        FuzzEngine::with_environment(opts, Workflow::standard(), hdiff_servers::products(), grammar)
    }

    /// An engine over an explicit environment (tests reuse one analyzed
    /// grammar across many sessions).
    pub fn with_environment(
        opts: FuzzOptions,
        workflow: Workflow,
        profiles: Vec<ParserProfile>,
        grammar: Grammar,
    ) -> FuzzEngine {
        FuzzEngine { opts, workflow, profiles, grammar }
    }

    /// The options in use.
    pub fn options(&self) -> &FuzzOptions {
        &self.opts
    }

    /// Runs the session to its budget and reports. The session records
    /// under the calling thread's telemetry switches.
    pub fn run(&self) -> FuzzReport {
        let started = Instant::now();
        let opts = &self.opts;
        if let Some(dir) = &opts.promote_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create promote dir {}: {e}", dir.display());
            }
        }
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let cg = self.grammar.compiled();
        let mut global_cov = CoverageMap::new(&cg);
        // Every stage scope below folds into the session's arrays by
        // metric id; names are built once, for the report.
        let recorder = hdiff_obs::Recorder::capture();
        let mut tele = hdiff_obs::Tally::default();

        // Pool + generator: built inside a case scope so their
        // generation counters land in the session telemetry, not the
        // ambient thread-local.
        let ((pool, mut gen), build_tel) = recorder.case(FUZZ_UUID_BASE, || {
            let pool = IngredientPool::build(&self.grammar, opts.seed);
            let gen = AbnfGenerator::new(
                self.grammar.clone(),
                GenOptions {
                    seed: opts.seed ^ 0x9e0_47a1,
                    coverage_guided: true,
                    ..GenOptions::default()
                },
            );
            (pool, gen)
        });
        tele.add(&build_tel);
        let mut mutator = StreamMutator::new(opts.seed ^ 0x5_7e4a, pool);
        let mut corpus = Corpus::new(CORPUS_CAP);

        let mut execs = 0u64;
        let mut quarantined = 0u64;
        let mut net_errors = 0u64;
        let mut seen_views: std::collections::BTreeSet<(String, u64)> =
            std::collections::BTreeSet::new();
        let mut novel_views = 0u64;
        let mut seen_classes: std::collections::BTreeSet<String> =
            std::collections::BTreeSet::new();
        let mut promoted: Vec<PromotedStream> = Vec::new();

        let deadline = match opts.budget {
            FuzzBudget::Seconds(s) => Some(started + Duration::from_secs(s)),
            FuzzBudget::Iters(_) => None,
        };
        let target = match opts.budget {
            FuzzBudget::Iters(n) => Some(n),
            FuzzBudget::Seconds(_) => None,
        };
        let threads = schedule::effective_threads(opts.threads);
        let injector = FaultInjector::new(FaultPlan::disabled());

        // Seed streams: corpus-loaded artifacts first (they carry known
        // divergences), then every pool template as a single-request
        // stream, plus one pipelined two-request stream.
        let mut pending_seeds: Vec<Stream> = Vec::new();
        if let Some(dir) = &opts.seed_corpus {
            let (loaded, load_tel) = recorder.case(FUZZ_UUID_BASE, || {
                let loaded = load_seed_corpus(dir);
                hdiff_obs::count("fuzz.seed-corpus.loaded", loaded.len() as u64);
                loaded
            });
            tele.add(&load_tel);
            pending_seeds.extend(loaded);
        }
        pending_seeds.extend(mutator.pool().requests.iter().map(|r| Stream::single(r.clone())));
        if mutator.pool().requests.len() >= 2 {
            let mut s = Stream::single(mutator.pool().requests[0].clone());
            s.requests.push(crate::stream::StreamRequest {
                bytes: mutator.pool().requests[1].clone(),
                delivery: crate::stream::Delivery::Whole,
                pipelined: true,
            });
            pending_seeds.push(s);
        }

        loop {
            if let Some(t) = target {
                if execs >= t {
                    break;
                }
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    break;
                }
            }

            // Assemble the next batch: remaining seeds first, then
            // mutated candidates. Serial and RNG-driven — identical for
            // every thread count.
            let room = match target {
                Some(t) => (t - execs).min(BATCH as u64) as usize,
                None => BATCH,
            };
            let mut batch: Vec<Candidate> = Vec::with_capacity(room);
            while batch.len() < room {
                let exec_idx = execs + batch.len() as u64;
                let uuid = FUZZ_UUID_BASE + 1 + exec_idx;
                let (stream, parent, gen_gain, op) = if !pending_seeds.is_empty() {
                    (pending_seeds.remove(0), None, 0, "seed")
                } else if corpus.is_empty() {
                    // Every seed quarantined (pathological profile set):
                    // fall back to a pool template.
                    (Stream::single(mutator.pool().requests[0].clone()), None, 0, "seed")
                } else {
                    let parent = corpus.pick(&mut rng);
                    let parent_id = parent.id;
                    let parent_stream = parent.stream.clone();
                    let other = corpus.pick(&mut rng).stream.clone();
                    let ((mut stream, op), mut_tel) =
                        recorder.case(uuid, || mutator.mutate(&parent_stream, &other));
                    tele.add(&mut_tel);
                    // Fresh-material operator: a quarter of candidates get
                    // a grammar-generated header value spliced in; the
                    // alternation arms that generation touched are the
                    // candidate's gen-side coverage claim. The rule table
                    // mixes the attack-relevant fields (Host, the framing
                    // headers) with the arm-rich ones (Via, TE) so the
                    // session keeps finding cold grammar regions.
                    let mut gen_gain = 0usize;
                    if rng.gen_bool(0.25) {
                        let (rule, header) = FRESH_RULES[rng.gen_range(0..FRESH_RULES.len())];
                        let (value, gen_tel) = recorder.case(uuid, || gen.generate(rule));
                        tele.add(&gen_tel);
                        if let Some(value) = value {
                            let req = rng.gen_range(0..stream.requests.len());
                            let line = [header, &value, b"\r\n"].concat();
                            inject_line(&mut stream.requests[req].bytes, &line);
                            stream.requests[req].repair_delivery();
                            let before = summary_points(&global_cov);
                            if let Some(cov) = gen.coverage() {
                                global_cov.merge(cov);
                            }
                            gen_gain = summary_points(&global_cov) - before;
                        }
                    }
                    (stream, Some(parent_id), gen_gain, op)
                };
                let origin = format!("fuzz:{}:{}", opts.seed, exec_idx);
                let digests = OnceLock::new();
                batch.push(Candidate { stream, parent, gen_gain, op, uuid, origin, digests });
            }
            if batch.is_empty() {
                break;
            }

            // Execute the batch across workers, each candidate through
            // the campaign's per-case runner; records come back in batch
            // order regardless of scheduling.
            let attempt = |c: &Candidate, session: &FaultSession| self.attempt(c, session);
            let records = schedule::run_stealing(&batch, threads.min(batch.len()), |c| {
                run_case(c, c.uuid, &injector, recorder, &attempt)
            });

            // Score serially, in batch order. A budget-exhausted
            // execution is still scored.
            for (cand, record) in batch.iter().zip(&records) {
                execs += 1;
                tele.count("fuzz.execs", 1);
                tele.count(&format!("fuzz.op.{}", cand.op), 1);
                tele.add(&record.telemetry);
                if record.quarantined {
                    quarantined += 1;
                    continue;
                }
                if matches!(record.error, Some(CaseError::Io(_))) {
                    net_errors += 1;
                    continue;
                }

                // Matcher-side coverage: trace every Host value the
                // stream carries.
                let before = summary_points(&global_cov);
                for req in &cand.stream.requests {
                    for host in host_values(&req.bytes) {
                        let (_, visited) =
                            hdiff_abnf::memo::match_rule_traced(&cg, "Host", &host, 20_000);
                        global_cov.absorb_rules(&visited);
                    }
                }
                let cov_gain = cand.gen_gain + (summary_points(&global_cov) - before);

                let mut new_views = 0u64;
                for (label, digest) in cand.digests.get().into_iter().flatten() {
                    if seen_views.insert((label.clone(), *digest)) {
                        new_views += 1;
                    }
                }
                novel_views += new_views;
                if new_views > 0 {
                    tele.count("fuzz.digest.novel", new_views);
                }

                let mut fresh_classes: Vec<(String, Finding)> = Vec::new();
                for f in &record.findings {
                    let key = class_key(f);
                    if seen_classes.insert(key.clone()) {
                        fresh_classes.push((key, f.clone()));
                    }
                }
                if !fresh_classes.is_empty() {
                    tele.count("fuzz.class.novel", fresh_classes.len() as u64);
                }

                if cov_gain > 0 || new_views > 0 || !fresh_classes.is_empty() {
                    let energy = 1 + 2 * (cov_gain as u64).min(8) + 2 * new_views.min(8);
                    corpus.add(cand.stream.clone(), energy, cand.parent);
                    tele.count("fuzz.corpus.add", 1);
                    if let Some(parent) = cand.parent {
                        corpus.reward(parent, 2);
                    }
                }

                for (key, finding) in fresh_classes {
                    if promoted.len() >= MAX_PROMOTIONS {
                        tele.count("fuzz.promote.skipped", 1);
                        continue;
                    }
                    let ((stream, bundle, shrink), promote_tel) =
                        recorder.case(cand.uuid, || self.promote(cand, &finding, &key));
                    tele.add(&promote_tel);
                    tele.count("fuzz.promoted", 1);
                    let name = bundle_name(&key);
                    if let Some(dir) = &opts.promote_dir {
                        let _ = std::fs::create_dir_all(dir);
                        if let Err(e) = bundle.save(&dir.join(format!("{name}.json"))) {
                            eprintln!("cannot save promoted bundle {name}: {e}");
                        }
                        let _ =
                            std::fs::write(dir.join(format!("{name}.stream")), stream.to_json());
                    }
                    promoted.push(PromotedStream { name, class_key: key, stream, bundle, shrink });
                }
            }
        }

        FuzzReport {
            transport: opts.transport,
            execs,
            quarantined,
            net_errors,
            elapsed: started.elapsed(),
            corpus_digests: corpus.digests(),
            coverage: global_cov.summary(),
            novel_digest_views: novel_views,
            divergence_classes: seen_classes.into_iter().collect(),
            promoted,
            telemetry: tele.into_telemetry(),
        }
    }

    /// One execution of a candidate, run by [`run_case`]: its effective
    /// bytes through the workflow on the configured transport, then
    /// detection. The behavior digests go to the candidate's slot.
    fn attempt(
        &self,
        cand: &Candidate,
        session: &FaultSession,
    ) -> Result<Attempt, hdiff_net::NetError> {
        let _span = hdiff_obs::span("stage.fuzz-exec");
        let outcome = self.workflow.execute(
            self.opts.transport,
            cand.uuid,
            cand.origin.clone(),
            cand.stream.effective_bytes(),
            session,
        )?;
        let _ = cand.digests.set(behavior_digests(&outcome));
        Ok(Attempt {
            findings: detect_case(&self.profiles, &outcome),
            budget_exhausted: outcome.budget_exhausted,
            ..Attempt::default()
        })
    }

    /// Minimizes the triggering stream and records the candidate golden
    /// bundle. The bundle is recorded over the sim transport (the
    /// canonical form every golden bundle uses); transport parity is
    /// the replay gate's job.
    fn promote(
        &self,
        cand: &Candidate,
        finding: &Finding,
        key: &str,
    ) -> (Stream, ReplayBundle, MinimizeStats) {
        let opts = MinimizeOptions {
            max_attempts: MINIMIZE_ATTEMPTS,
            byte_pass_limit: 0,
            chunk_width: 16,
        };
        let ctx = FindingContext::new(&self.workflow, &self.profiles);
        let predicate = |s: &Stream| ctx.reproduces(finding, &s.effective_bytes());
        let (stream, shrink) = minimize_stream(&cand.stream, predicate, &opts);
        let bundle = ReplayBundle::record(
            &bundle_name(key),
            &format!("fuzz-promoted divergence {key}"),
            cand.uuid,
            &cand.origin,
            &stream.effective_bytes(),
            None,
            &self.workflow,
            &self.profiles,
            None,
        );
        (stream, bundle, shrink)
    }
}

/// Shrinks a whole stream while `predicate` keeps holding: request-level
/// ddmin first (dropping whole requests via
/// [`hdiff_diff::minimize::ddmin_items`]), then a byte-level
/// [`hdiff_diff::minimize::minimize`] pass inside each surviving
/// request. Every predicate call — at both granularities — runs under
/// `catch_unwind`; a candidate hostile enough to panic the probe is
/// quarantined and rejected, never fatal. Deterministic.
pub fn minimize_stream<P>(
    stream: &Stream,
    predicate: P,
    opts: &MinimizeOptions,
) -> (Stream, MinimizeStats)
where
    P: Fn(&Stream) -> bool,
{
    let original_len = stream.raw_len();
    let (kept, mut stats) = ddmin_items(
        &stream.requests,
        |requests| !requests.is_empty() && predicate(&Stream { requests: requests.to_vec() }),
        opts,
    );
    let mut current = Stream { requests: kept };
    if !current.repair() {
        current = stream.clone();
    }
    for i in 0..current.requests.len() {
        if stats.attempts >= opts.max_attempts {
            break;
        }
        let remaining =
            MinimizeOptions { max_attempts: opts.max_attempts - stats.attempts, ..opts.clone() };
        let base = current.clone();
        let shrunk = minimize(
            &base.requests[i].bytes,
            |candidate| {
                let mut t = base.clone();
                t.requests[i].bytes = candidate.to_vec();
                t.requests[i].repair_delivery();
                predicate(&t)
            },
            &remaining,
        );
        stats.attempts += shrunk.stats.attempts;
        stats.accepted += shrunk.stats.accepted;
        stats.quarantined += shrunk.stats.quarantined;
        current.requests[i].bytes = shrunk.bytes;
        current.requests[i].repair_delivery();
    }
    stats.original_len = original_len;
    stats.minimized_len = current.raw_len();
    (current, stats)
}

/// `class|front|back` — the divergence-class identity promotion keys on.
pub fn class_key(f: &Finding) -> String {
    format!(
        "{}|{}|{}",
        f.class,
        f.front.as_deref().unwrap_or("-"),
        f.back.as_deref().unwrap_or("-")
    )
}

/// `fuzz-<fnv64 of the class key>` — stable per divergence class.
pub fn bundle_name(class_key: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in class_key.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fuzz-{h:016x}")
}

fn summary_points(cov: &CoverageMap) -> usize {
    let s = cov.summary();
    s.rules_covered + s.alts_covered
}
