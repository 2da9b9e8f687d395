//! The traced pass: per-layer metrics from spans around the calls each
//! workload makes into the HDiff crates.
//!
//! It runs apart from the untraced end-to-end runs. Each workload's own
//! inputs go through the same public calls the program makes, in the
//! program's order, with an in-memory span around each call (see
//! [`crate::span`]). Untraced reference runs of the program's campaign
//! call give the denominators (`diff.engine_self_ms`,
//! `trace.overhead_frac`). Every metric of [`PER_LAYER`] is printed for
//! every workload; a layer the workload does not exercise reads 0.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fs;
use std::io::BufWriter;
use std::path::Path;
use std::time::{Duration, Instant};

use hdiff_abnf::CompiledGrammar;
use hdiff_analyzer::DocumentAnalyzer;
use hdiff_core::{HDiff, PreparedCampaign};
use hdiff_diff::minimize::MinimizeOptions;
use hdiff_diff::replay::behavior_digests;
use hdiff_diff::srcheck::{check_all, check_host_conformance};
use hdiff_diff::transport::run_bytes_tcp_async;
use hdiff_diff::{detect_case, detect_case_with_oracle, detect_degradation, Finding, Workflow};
use hdiff_fuzz::engine::FRESH_RULES;
use hdiff_fuzz::FUZZ_UUID_BASE;
use hdiff_fuzz::{class_key, minimize_stream, FuzzEngine, IngredientPool, Stream, StreamMutator};
use hdiff_gen::{AbnfGenerator, GenOptions, TestCase};
use hdiff_net::AsyncTestbed;

use crate::net_tally::NetTally;
use crate::output::{Metric, RunResult};
use crate::rebuild::{self, ChainTally};
use crate::span::{Breakdown, Tracer, RUN_CASE};
use crate::workloads::{fuzz_options, h1_config, Workload, FUZZ_ITERS};
use crate::{procfs, stats};

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("analyzer.analyze_ms", "ms"),
    ("analyzer.syntax_ms", "ms"),
    ("abnf.compile_ms", "ms"),
    ("gen.generate_ms", "ms"),
    ("gen.cases", "count"),
    ("wire.render_us", "us"),
    ("servers.direct_us", "us"),
    ("servers.proxy_us", "us"),
    ("servers.replay_us", "us"),
    ("servers.replay_us_p99", "us"),
    ("servers.messages_per_case", "count"),
    ("servers.replay_frac", "frac"),
    ("diff.chain_us", "us"),
    ("diff.chain_us_p50", "us"),
    ("diff.chain_us_p99", "us"),
    ("diff.chain_self_us", "us"),
    ("diff.detect_us", "us"),
    ("diff.detect_us_p99", "us"),
    ("diff.findings_per_case", "count"),
    ("diff.digest_us", "us"),
    ("diff.summarize_ms", "ms"),
    ("diff.engine_self_ms", "ms"),
    ("diff.minimize_ms", "ms"),
    ("diff.minimize_attempts", "count"),
    ("diff.minimize_accept_frac", "frac"),
    ("obs.overhead_frac", "frac"),
    ("abnf.host_match_us", "us"),
    ("fuzz.mutate_us", "us"),
    ("fuzz.requests_per_stream", "count"),
    ("fuzz.novel_frac", "frac"),
    ("fuzz.corpus_add_frac", "frac"),
    ("net.case_us_p50", "us"),
    ("net.case_us_p99", "us"),
    ("net.overhead_us", "us"),
    ("net.exchanges_per_case", "count"),
    ("net.conns_per_exchange", "count"),
    ("net.pool_reuse_frac", "frac"),
    ("net.wakeups_per_exchange", "count"),
    ("net.deadline_fires", "count"),
    ("net.timeouts", "count"),
    ("net.drift", "ratio"),
    ("net.tw_at_start", "count"),
    ("trace.overhead_frac", "frac"),
];

/// Back-to-back passes over one harness-owned testbed on h1-tcp-async;
/// `net.drift` compares the first quarter of the traced exchanges with
/// the last, which with four passes are the first and last pass.
const NET_PASSES: usize = 4;

/// Repetitions of the millisecond-scale set-up calls (median reported).
const SETUP_REPS: usize = 5;

/// Where the spans of a traced pass are written, relative to the
/// working directory.
const SPANS_DIR: &str = "perfbench/out";

/// Per-layer values set so far; the rest read 0.
#[derive(Debug, Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name} is not a per-layer metric");
        self.0.insert(name, value);
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Runs the traced pass of `workload`.
pub fn run(workload: Workload, seed: u64, seconds: u64) -> RunResult {
    let tw_at_start = procfs::time_wait_sockets();
    let mut layers = Layers::default();
    let mut result = RunResult::default();
    let tracer = match workload {
        Workload::H1Sim => trace_h1_sim(seed, seconds, &mut layers, &mut result),
        Workload::FuzzStreams => trace_fuzz(seed, &mut layers, &mut result),
        Workload::H1TcpAsync => {
            layers.set("net.tw_at_start", tw_at_start.unwrap_or(0) as f64);
            trace_h1_tcp_async(seed, &mut layers, &mut result)
        }
    };
    write_spans(&tracer, workload);
    result.metrics = layers.into_metrics();
    result
}

fn write_spans(tracer: &Tracer, workload: Workload) {
    let path = Path::new(SPANS_DIR).join(format!("spans-{}.tsv", workload.name()));
    let written =
        fs::create_dir_all(SPANS_DIR).and_then(|()| fs::File::create(&path)).and_then(|file| {
            let mut out = BufWriter::new(file);
            tracer.write_tsv(&mut out)?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => eprintln!("{} spans written to {}", tracer.spans().len(), path.display()),
        Err(e) => eprintln!("cannot write spans to {}: {e}", path.display()),
    }
}

/// Seconds one call of `f` takes, as the median of `reps` calls.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// The set-up layers every workload goes through: documentation
/// analysis (full and syntax-only) and grammar compilation.
fn time_setup_layers(layers: &mut Layers) {
    let analyze =
        || DocumentAnalyzer::with_default_inputs().analyze(&hdiff_corpus::core_documents());
    layers.set("analyzer.analyze_ms", 1e3 * median_secs(SETUP_REPS, analyze));
    let syntax =
        || DocumentAnalyzer::with_default_inputs().analyze_syntax(&hdiff_corpus::core_documents());
    layers.set("analyzer.syntax_ms", 1e3 * median_secs(SETUP_REPS, syntax));
    let grammar = syntax().grammar;
    layers.set(
        "abnf.compile_ms",
        1e3 * median_secs(SETUP_REPS, || CompiledGrammar::compile(&grammar)),
    );
}

/// Corpus generation of an h1 workload (`generate_cases_with_coverage`).
fn time_generation(layers: &mut Layers, hdiff: &HDiff) {
    let analysis = hdiff.analyze();
    let mut cases = 0;
    let secs = median_secs(3, || {
        let (generated, coverage) = hdiff.generate_cases_with_coverage(&analysis);
        cases = generated.len();
        (generated, coverage)
    });
    layers.set("gen.generate_ms", 1e3 * secs);
    layers.set("gen.cases", cases as f64);
}

/// `DiffEngine::run`'s end-of-campaign pass (SR checks and Host
/// conformance), as a run-level span.
fn summarize(
    t: &mut Tracer,
    prepared: &PreparedCampaign,
    profiles: &[hdiff_servers::ParserProfile],
) {
    t.set_case(RUN_CASE);
    t.time("diff.summarize", |_| {
        let mut violations = check_all(profiles, &prepared.cases);
        if let Some(oracle) = &prepared.engine.syntax_oracle {
            violations.extend(check_host_conformance(oracle, profiles, &prepared.cases));
        }
        violations.len()
    });
}

/// Milliseconds of the run-level span named `name`.
fn run_span_ms(t: &Tracer, name: &str) -> f64 {
    t.spans().iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).sum()
}

/// Sets the servers/chain/detect metrics shared by every workload that
/// runs the rebuilt chain.
fn set_chain_layers(layers: &mut Layers, bd: &Breakdown, tally: &ChainTally, findings: usize) {
    let cases = bd.cases() as f64;
    let replay = bd.per_case_us("servers.replay");
    let chain = bd.per_case_us("diff.chain");
    let detect = bd.per_case_us("diff.detect");
    layers.set("servers.direct_us", stats::mean(&bd.per_case_us("servers.direct")));
    layers.set("servers.proxy_us", stats::mean(&bd.per_case_us("servers.proxy")));
    layers.set("servers.replay_us", stats::mean(&replay));
    layers.set("servers.replay_us_p99", stats::percentile(&replay, 99.0));
    layers.set("servers.messages_per_case", stats::ratio(tally.messages as f64, cases));
    layers.set("servers.replay_frac", stats::ratio(tally.replayed as f64, tally.chains as f64));
    layers.set("diff.chain_us", stats::mean(&chain));
    layers.set("diff.chain_us_p50", stats::percentile(&chain, 50.0));
    layers.set("diff.chain_us_p99", stats::percentile(&chain, 99.0));
    layers.set("diff.chain_self_us", stats::mean(&bd.per_case_self_us("diff.chain")));
    layers.set("diff.detect_us", stats::mean(&detect));
    layers.set("diff.detect_us_p99", stats::percentile(&detect, 99.0));
    layers.set("diff.findings_per_case", stats::ratio(findings as f64, cases));
}

/// h1-sim: the corpus through render → rebuilt chain → detection, then
/// the summarize pass; untraced `DiffEngine::run` with telemetry on and
/// off alternates for the rest of the time budget.
fn trace_h1_sim(seed: u64, seconds: u64, layers: &mut Layers, result: &mut RunResult) -> Tracer {
    let started = Instant::now();
    let hdiff = HDiff::new(h1_config(Workload::H1Sim, seed));
    time_setup_layers(layers);
    time_generation(layers, &hdiff);
    let prepared = hdiff.prepare();
    let profiles = hdiff_servers::products();
    let workflow = prepared.engine.workflow();
    let oracle = prepared.engine.syntax_oracle.as_ref();

    // Untraced campaigns bracket the traced pass (host speed drifts over
    // tens of seconds, so the reference is taken next to it).
    let campaign_ms = |telemetry: bool| {
        hdiff_obs::set_enabled(telemetry);
        let ms = 1e3 * median_secs(1, || prepared.engine.run(&prepared.cases));
        hdiff_obs::set_enabled(true);
        ms
    };
    let mut on = vec![campaign_ms(true)];

    let mut t = Tracer::new();
    let mut tally = ChainTally::default();
    let mut findings = 0usize;
    for (seq, case) in prepared.cases.iter().enumerate() {
        t.set_case(seq as u64);
        let outcome = t.time("case", |t| {
            let (origin, bytes) = t.time("wire.render", |_| render(case));
            let outcome = rebuild::run_bytes(t, workflow, case.uuid, &origin, &bytes, &mut tally);
            findings += t.time("diff.detect", |_| {
                detect_case_with_oracle(&profiles, &outcome, oracle).len()
                    + detect_degradation(&outcome).len()
            });
            outcome
        });
        let program = workflow.run_case(case);
        result.check(behavior_digests(&outcome) == behavior_digests(&program), || {
            format!("case {}: rebuilt workflow digests differ from Workflow::run_case", case.uuid)
        });
    }
    summarize(&mut t, &prepared, &profiles);
    result.attempted = prepared.cases.len() as u64;
    result.failed = result.problems.len() as u64;

    let bd = Breakdown::new(&t);
    set_chain_layers(layers, &bd, &tally, findings);
    layers.set("wire.render_us", stats::mean(&bd.per_case_us("wire.render")));
    let summarize_ms = run_span_ms(&t, "diff.summarize");
    layers.set("diff.summarize_ms", summarize_ms);
    let traced_ms = bd.total_ms("case") + summarize_ms;
    on.push(campaign_ms(true));
    let untraced_ms = stats::median(&on);

    // Telemetry off and on in turn until the time budget is spent.
    let mut off = Vec::new();
    while off.is_empty() || started.elapsed() < Duration::from_secs(seconds) {
        off.push(campaign_ms(false));
        on.push(campaign_ms(true));
    }
    eprintln!(
        "untraced DiffEngine::run ms, telemetry on {on:?} off {off:?}; traced {traced_ms:.1} ms"
    );
    let layer_ms =
        bd.total_ms("wire.render") + bd.total_ms("diff.chain") + bd.total_ms("diff.detect");
    layers.set("diff.engine_self_ms", untraced_ms - layer_ms - summarize_ms);
    layers.set("obs.overhead_frac", stats::median(&on) / stats::median(&off) - 1.0);
    layers.set("trace.overhead_frac", traced_ms / untraced_ms - 1.0);
    t
}

/// The origin label and client bytes of a case — what
/// `Workflow::run_case` derives before running the chain.
fn render(case: &TestCase) -> (String, Vec<u8>) {
    (case.origin.to_string(), case.request.to_bytes())
}

/// h1-tcp-async: `NET_PASSES` passes of the corpus over one
/// harness-owned testbed. Each case is rendered, exchanged over the
/// sockets (`net.case`, with reactor counter deltas around it) and
/// detected on the socket outcome; the rebuilt sim chain then runs on
/// the same bytes as the reference the socket outcome must equal.
fn trace_h1_tcp_async(seed: u64, layers: &mut Layers, result: &mut RunResult) -> Tracer {
    let hdiff = HDiff::new(h1_config(Workload::H1TcpAsync, seed));
    time_setup_layers(layers);
    time_generation(layers, &hdiff);
    let prepared = hdiff.prepare();
    let profiles = hdiff_servers::products();
    // Untraced campaigns, each on a fresh engine's own testbed, bracket
    // the traced passes.
    let campaign_ms = || {
        1e3 * median_secs(1, || {
            let mut engine = hdiff_diff::DiffEngine::standard();
            engine.threads = 1;
            engine.transport = prepared.engine.transport;
            engine.syntax_oracle = prepared.engine.syntax_oracle.clone();
            engine.run(&prepared.cases)
        })
    };
    let mut untraced = vec![campaign_ms()];
    let workflow = prepared.engine.workflow();
    let oracle = prepared.engine.syntax_oracle.as_ref();

    let testbed = match AsyncTestbed::new(workflow.backends(), workflow.proxies()) {
        Ok(testbed) => testbed,
        Err(e) => {
            result.check(false, || format!("cannot spawn the loopback testbed: {e}"));
            return Tracer::new();
        }
    };
    let mut t = Tracer::new();
    let mut tally = ChainTally::default();
    let mut net = NetTally::default();
    let mut timeouts = 0u64;
    let mut findings = 0usize;
    let mut seq = 0u64;
    for _ in 0..NET_PASSES {
        for case in &prepared.cases {
            t.set_case(seq);
            seq += 1;
            let (wire, sim) = t.time("case", |t| {
                let (origin, bytes) = t.time("wire.render", |_| render(case));
                let before = testbed.stats();
                let (wire, telemetry) = t.time("net.case", |_| {
                    hdiff_obs::with_case(case.uuid, || {
                        run_bytes_tcp_async(workflow, case.uuid, &origin, &bytes, None, &testbed)
                    })
                });
                net.add(&before, &testbed.stats());
                timeouts += telemetry.counters.get("net.exchange.timeout").copied().unwrap_or(0);
                findings += t.time("diff.detect", |_| {
                    detect_case_with_oracle(&profiles, &wire, oracle).len()
                        + detect_degradation(&wire).len()
                });
                let sim = rebuild::run_bytes(t, workflow, case.uuid, &origin, &bytes, &mut tally);
                (wire, sim)
            });
            result.check(behavior_digests(&wire) == behavior_digests(&sim), || {
                format!("case {}: socket outcome differs from the sim workflow", case.uuid)
            });
        }
        testbed.clear_echo_records();
    }
    summarize(&mut t, &prepared, &profiles);
    untraced.push(campaign_ms());
    let untraced_ms = stats::median(&untraced);
    result.attempted = seq;
    result.failed = result.problems.len() as u64 + timeouts;

    let bd = Breakdown::new(&t);
    set_chain_layers(layers, &bd, &tally, findings);
    layers.set("wire.render_us", stats::mean(&bd.per_case_us("wire.render")));
    let summarize_ms = run_span_ms(&t, "diff.summarize");
    layers.set("diff.summarize_ms", summarize_ms);

    let net_us = bd.per_case_us("net.case");
    let chain_us = bd.per_case_us("diff.chain");
    let overhead: Vec<f64> = net_us.iter().zip(&chain_us).map(|(n, c)| n - c).collect();
    let quarter = net_us.len() / 4;
    layers.set("net.case_us_p50", stats::percentile(&net_us, 50.0));
    layers.set("net.case_us_p99", stats::percentile(&net_us, 99.0));
    layers.set("net.overhead_us", stats::mean(&overhead));
    layers.set("net.exchanges_per_case", stats::ratio(net.exchanges as f64, seq as f64));
    layers.set("net.conns_per_exchange", net.conns_per_exchange());
    layers.set("net.pool_reuse_frac", net.pool_reuse_frac());
    layers.set("net.wakeups_per_exchange", net.wakeups_per_exchange());
    layers.set("net.deadline_fires", net.deadline_fires as f64);
    layers.set("net.timeouts", timeouts as f64);
    layers.set(
        "net.drift",
        stats::ratio(
            stats::mean(&net_us[net_us.len() - quarter..]),
            stats::mean(&net_us[..quarter]),
        ),
    );

    // The first pass is the one comparable with a fresh engine's
    // campaign; the rebuilt sim chain is the harness's reference, not
    // program work, so it is left out of the traced time. (The engine's
    // self time is not derived here: socket timings of two campaigns
    // differ by more than the engine's own work.)
    let n = prepared.cases.len();
    let first = |name: &str| bd.per_case_us(name)[..n].iter().sum::<f64>() / 1e3;
    let traced_ms = first("case") - first("diff.chain") + summarize_ms;
    eprintln!("untraced DiffEngine::run ms {untraced:?}; traced first pass {traced_ms:.1} ms");
    layers.set("trace.overhead_frac", traced_ms / untraced_ms - 1.0);
    t
}

/// fuzz-streams: `FuzzEngine::run` is one opaque call, so the pass runs
/// a seeded stream sample from `IngredientPool`/`StreamMutator` through
/// the calls the engine makes per candidate — mutate, execute (rebuilt
/// chain), digest, detect, Host-matcher trace — and minimizes the
/// stream of every newly seen divergence class as promotion does.
fn trace_fuzz(seed: u64, layers: &mut Layers, result: &mut RunResult) -> Tracer {
    time_setup_layers(layers);
    let engine = FuzzEngine::standard(fuzz_options(seed));
    let clock = Instant::now();
    let report = engine.run();
    let untraced_ms = clock.elapsed().as_secs_f64() * 1e3;

    let grammar = DocumentAnalyzer::with_default_inputs()
        .analyze_syntax(&hdiff_corpus::core_documents())
        .grammar;
    let cg = grammar.compiled();
    let pool = IngredientPool::build(&grammar, seed);
    let seeds: Vec<Stream> = pool.requests.iter().map(|r| Stream::single(r.clone())).collect();
    let mut mutator = StreamMutator::new(seed ^ 0x5_7e4a, pool);
    let mut generator = AbnfGenerator::new(
        grammar.clone(),
        GenOptions { seed: seed ^ 0x9e0_47a1, coverage_guided: true, ..GenOptions::default() },
    );
    let workflow = Workflow::standard();
    let profiles = hdiff_servers::products();
    let minimize_opts = MinimizeOptions { max_attempts: 256, byte_pass_limit: 0, chunk_width: 16 };

    let mut t = Tracer::new();
    let mut tally = ChainTally::default();
    let mut rng = SplitMix64(seed);
    let mut parents = seeds.clone();
    let mut seen_views: HashSet<(String, u64)> = HashSet::new();
    let mut seen_classes: BTreeSet<String> = BTreeSet::new();
    let (mut findings, mut requests, mut views, mut novel_views) = (0usize, 0usize, 0usize, 0usize);
    let (mut minimized, mut attempts, mut accepted) = (0usize, 0usize, 0usize);
    for i in 0..FUZZ_ITERS {
        t.set_case(i);
        let stream = match seeds.get(i as usize) {
            Some(s) => s.clone(),
            None => {
                let a = &parents[rng.below(parents.len())];
                let b = &parents[rng.below(parents.len())];
                let mut stream = t.time("fuzz.mutate", |_| mutator.mutate(a, b)).0;
                // A quarter of candidates get a grammar-generated header
                // spliced in, as the engine's fresh-material operator does.
                if rng.below(4) == 0 {
                    let (rule, header) = FRESH_RULES[rng.below(FRESH_RULES.len())];
                    let req = rng.below(stream.requests.len());
                    t.time("gen.fresh", |_| {
                        if let Some(value) = generator.generate(rule) {
                            let line = [header, &value, b"\r\n"].concat();
                            inject_after_request_line(&mut stream.requests[req].bytes, &line);
                            stream.requests[req].repair_delivery();
                        }
                    });
                }
                stream
            }
        };
        let uuid = FUZZ_UUID_BASE + 1 + i;
        let origin = format!("fuzz:{seed}:{i}");
        let bytes = stream.effective_bytes();
        let (digests, found) = t.time("case", |t| {
            let outcome = rebuild::run_bytes(t, &workflow, uuid, &origin, &bytes, &mut tally);
            let digests = t.time("diff.digest", |_| behavior_digests(&outcome));
            let found = t.time("diff.detect", |_| detect_case(&profiles, &outcome));
            t.time("abnf.host_match", |_| {
                for req in &stream.requests {
                    for host in host_values(&req.bytes) {
                        std::hint::black_box(hdiff_abnf::memo::match_rule_traced(
                            &cg, "Host", &host, 20_000,
                        ));
                    }
                }
            });
            (digests, found)
        });
        let program = workflow.run_bytes_faulted(uuid, &origin, &bytes, None);
        result.check(digests == behavior_digests(&program), || {
            format!("stream {i}: rebuilt workflow digests differ from Workflow::run_bytes_faulted")
        });

        findings += found.len();
        requests += stream.requests.len();
        views += digests.len();
        let fresh_views = digests.into_iter().filter(|v| seen_views.insert(v.clone())).count();
        novel_views += fresh_views;
        let fresh: Vec<&Finding> =
            found.iter().filter(|f| seen_classes.insert(class_key(f))).collect();
        if fresh_views > 0 || !fresh.is_empty() {
            parents.push(stream.clone());
        }
        for finding in fresh.into_iter().take(16usize.saturating_sub(minimized)) {
            let triggers = |s: &Stream| {
                let outcome = workflow.run_bytes_faulted(uuid, &origin, &s.effective_bytes(), None);
                detect_case(&profiles, &outcome).iter().any(|f| {
                    f.class == finding.class && f.front == finding.front && f.back == finding.back
                })
            };
            let (_, shrink) =
                t.time("diff.minimize", |_| minimize_stream(&stream, triggers, &minimize_opts));
            minimized += 1;
            attempts += shrink.attempts;
            accepted += shrink.accepted;
        }
    }
    result.attempted = FUZZ_ITERS;
    result.failed = result.problems.len() as u64;

    let bd = Breakdown::new(&t);
    set_chain_layers(layers, &bd, &tally, findings);
    layers.set("diff.digest_us", stats::mean(&bd.per_case_us("diff.digest")));
    layers.set("abnf.host_match_us", stats::mean(&bd.per_case_us("abnf.host_match")));
    layers.set("fuzz.mutate_us", stats::mean(&bd.per_case_us("fuzz.mutate")));
    layers.set("fuzz.requests_per_stream", stats::ratio(requests as f64, FUZZ_ITERS as f64));
    layers.set("diff.minimize_ms", bd.total_ms("diff.minimize"));
    layers.set("diff.minimize_attempts", attempts as f64);
    layers.set("diff.minimize_accept_frac", stats::ratio(accepted as f64, attempts as f64));
    // Novelty and corpus growth come from the program's own session
    // counters; the sample's view novelty is printed for comparison.
    let counter = |name: &str| report.telemetry.counters.get(name).copied().unwrap_or(0) as f64;
    let views_per_exec = stats::ratio(views as f64, FUZZ_ITERS as f64);
    layers.set(
        "fuzz.novel_frac",
        stats::ratio(report.novel_digest_views as f64, report.execs as f64 * views_per_exec),
    );
    layers.set(
        "fuzz.corpus_add_frac",
        stats::ratio(counter("fuzz.corpus.add"), counter("fuzz.execs")),
    );
    eprintln!(
        "sample: {minimized} minimizations, {novel_views}/{views} novel views; session: {} classes, {} promoted",
        report.divergence_classes.len(),
        report.promoted.len()
    );
    let traced_ms = ["case", "fuzz.mutate", "gen.fresh", "diff.minimize"]
        .iter()
        .map(|n| bd.total_ms(n))
        .sum::<f64>();
    eprintln!("untraced FuzzEngine::run {untraced_ms:.1} ms; traced sample {traced_ms:.1} ms");
    layers.set("trace.overhead_frac", traced_ms / untraced_ms - 1.0);
    t
}

/// The value of every `Host` header line in the head of `bytes` (the
/// fuzz engine's matcher-trace feed).
fn host_values(bytes: &[u8]) -> Vec<Vec<u8>> {
    let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap_or(bytes.len());
    bytes[..head_end]
        .split(|&b| b == b'\n')
        .skip(1)
        .filter_map(|line| {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            let value =
                line.get(..5).filter(|n| n.eq_ignore_ascii_case(b"host:")).map(|_| &line[5..])?;
            let start = value.iter().position(|&b| b != b' ' && b != b'\t').unwrap_or(value.len());
            let value = &value[start..];
            (!value.is_empty() && value.len() <= 128).then(|| value.to_vec())
        })
        .collect()
}

/// Splices `line` in right after the first CRLF of `bytes`.
fn inject_after_request_line(bytes: &mut Vec<u8>, line: &[u8]) {
    let at = bytes.windows(2).position(|w| w == b"\r\n").map_or(0, |i| i + 2);
    bytes.splice(at..at, line.iter().copied());
}

/// Deterministic parent picks for the fuzz sample.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_match_benchmark_json() {
        let names: BTreeSet<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), PER_LAYER.len());
        let json = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }

    #[test]
    fn unset_layers_read_zero_in_report_order() {
        let mut layers = Layers::default();
        layers.set("net.drift", 1.5);
        let metrics = layers.into_metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics[0], Metric::new("analyzer.analyze_ms", 0.0, "ms"));
        assert!(metrics.iter().any(|m| m == &Metric::new("net.drift", 1.5, "ratio")));
    }

    #[test]
    fn host_values_reads_every_host_line_of_the_head() {
        let req = b"GET / HTTP/1.1\r\nHost: a.example\r\nX: y\r\nhOsT:\t b\r\nHost:\r\n\r\nHost: body\r\n";
        assert_eq!(host_values(req), vec![b"a.example".to_vec(), b"b".to_vec()]);
        assert!(host_values(b"Host: x\r\n\r\n").is_empty(), "the request line is never a header");
    }

    #[test]
    fn injected_lines_follow_the_request_line() {
        let mut req = b"GET / HTTP/1.1\r\nHost: a\r\n\r\n".to_vec();
        inject_after_request_line(&mut req, b"TE: x\r\n");
        assert_eq!(req, b"GET / HTTP/1.1\r\nTE: x\r\nHost: a\r\n\r\n".to_vec());
        let mut bare = b"junk".to_vec();
        inject_after_request_line(&mut bare, b"A\r\n");
        assert_eq!(bare, b"A\r\njunk".to_vec());
    }

    #[test]
    fn splitmix_picks_are_deterministic_and_in_range() {
        let mut a = SplitMix64(7);
        let mut b = SplitMix64(7);
        let picks: Vec<usize> = (0..100).map(|_| a.below(13)).collect();
        assert_eq!(picks, (0..100).map(|_| b.below(13)).collect::<Vec<_>>());
        assert!(picks.iter().all(|&p| p < 13));
        assert!(picks.iter().collect::<BTreeSet<_>>().len() > 5);
    }
}
