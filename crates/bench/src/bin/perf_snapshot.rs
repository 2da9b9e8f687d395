//! Writes `BENCH_matcher.json`: median ns/op for the compiled matcher,
//! the legacy reference matcher, ABNF generation, and a full
//! workflow+detection case — the perf numbers the compiled-IR rewrite
//! is accountable for. Also writes `BENCH_minimize.json`: aggregate
//! shrink ratio and wall time for delta-debugging the noise-padded
//! Table II catalog down to minimal reproducers.
//!
//! Also writes `BENCH_net.json`: throughput and round-trip latency of
//! the loopback TCP transport against the same profiles called
//! in-process, over the Table II catalog payloads.
//!
//! Also writes `BENCH_obs.json`: quick-campaign wall time with telemetry
//! collecting versus disabled — the overhead budget for the
//! instrumentation layer.
//!
//! Also writes `BENCH_fleet.json`: quick-campaign wall time single-process
//! versus a four-shard worker fleet, and whether the merged summary
//! converged to the single-process one. Skipped (with a note) when the
//! `hdiff` binary is not built next to this snapshot binary.
//!
//! Also writes `BENCH_h2.json` (h2 framing/HPACK costs and downgrade
//! campaign throughput) and `BENCH_cookie.json` (the eight-profile
//! cookie matrix per-case cost and the protocol-generic campaign
//! throughput).
//!
//! Usage: `cargo run --release -p hdiff-bench --bin perf_snapshot`
//! (`-- --smoke` for a fast CI-sized run).

use std::time::Instant;

use hdiff_abnf::matcher;
use hdiff_analyzer::DocumentAnalyzer;
use hdiff_diff::workflow::Workflow;
use hdiff_diff::{detect_case, FindingContext, MinimizeOptions};
use hdiff_gen::{catalog, AbnfGenerator, GenOptions, TestCase};
use hdiff_wire::Request;

/// Budget the old call sites granted the backtracking matcher.
const REFERENCE_BUDGET: usize = 500_000;

/// The matching workload: Host, URI and coding values of realistic shapes.
const WORKLOAD: &[(&str, &str)] = &[
    ("Host", "example.com:8080"),
    ("Host", "a.b.c.d.e.f.g.example.com:80"),
    ("Host", "mutated.host.with.many.labels.and.a.long.tail.example.com:8080"),
    ("Host", "h1.com@h2.com"),
    ("uri-host", "127.0.0.1"),
    ("origin-form", "/a/b/c/d/e/index.html?q=1&r=2"),
    ("transfer-coding", "chunked"),
];

/// Runs `f` (`reps` ops per sample, `samples` samples) and returns the
/// median per-op nanoseconds.
fn median_ns(samples: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut per_op = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        per_op.push(start.elapsed().as_nanos() as f64 / reps as f64);
    }
    per_op.sort_by(|a, b| a.total_cmp(b));
    per_op[per_op.len() / 2]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (samples, reps) = if smoke { (5, 10) } else { (21, 200) };

    let analysis = DocumentAnalyzer::with_default_inputs().analyze(&hdiff_corpus::core_documents());
    let grammar = &analysis.grammar;
    let _ = grammar.compiled(); // compile once, outside the timing loops

    // One matching "op" sweeps the whole workload, so both matchers pay
    // for the same mix of accepts and rejects.
    let compiled_ns = median_ns(samples, reps, || {
        for (rule, input) in WORKLOAD {
            std::hint::black_box(matcher::matches(grammar, rule, input.as_bytes()));
        }
    }) / WORKLOAD.len() as f64;
    let reference_ns = median_ns(samples, reps.div_ceil(10), || {
        for (rule, input) in WORKLOAD {
            std::hint::black_box(matcher::reference::matches_with_budget(
                grammar,
                rule,
                input.as_bytes(),
                REFERENCE_BUDGET,
            ));
        }
    }) / WORKLOAD.len() as f64;
    let speedup = reference_ns / compiled_ns;

    let mut generator = AbnfGenerator::new(grammar.clone(), GenOptions::default());
    let generate_ns = median_ns(samples, reps, || {
        std::hint::black_box(generator.generate("Host"));
    });

    let workflow = Workflow::standard();
    let products = hdiff_servers::products();
    let case = TestCase::generated(1, Request::get("h1.com@h2.com"), "perf snapshot case");
    let full_case_ns = median_ns(samples, reps.div_ceil(10), || {
        let outcome = workflow.run_case(&case);
        std::hint::black_box(detect_case(&products, &outcome));
    });

    let json = format!(
        "{{\n  \"schema\": \"hdiff-bench-matcher-v1\",\n  \"smoke\": {smoke},\n  \"samples\": {samples},\n  \"workload_inputs\": {},\n  \"match_compiled_ns\": {compiled_ns:.1},\n  \"match_reference_ns\": {reference_ns:.1},\n  \"speedup\": {speedup:.1},\n  \"generate_host_ns\": {generate_ns:.1},\n  \"full_case_ns\": {full_case_ns:.1}\n}}\n",
        WORKLOAD.len()
    );
    std::fs::write("BENCH_matcher.json", &json).expect("write BENCH_matcher.json");
    print!("{json}");
    eprintln!(
        "compiled {compiled_ns:.0} ns/op vs reference {reference_ns:.0} ns/op -> {speedup:.1}x"
    );

    minimize_snapshot(smoke, &workflow, &products);
    let net_gate_ok = net_snapshot(smoke);
    obs_snapshot(smoke);
    fleet_snapshot(smoke);
    h2_snapshot(smoke);
    cookie_snapshot(smoke);
    if !net_gate_ok {
        eprintln!("perf_snapshot: BENCH_net regression gate FAILED (see above)");
        std::process::exit(1);
    }
}

/// Pulls a bare numeric value out of the flat snapshot JSON (the files
/// this binary writes never nest, so a key scan is enough).
fn json_number(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = doc.find(&needle)? + needle.len();
    let rest = doc[at..].trim_start();
    let end =
        rest.find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Writes `BENCH_fleet.json`: quick-campaign wall time in-process versus
/// a four-shard worker fleet, plus a convergence bit (merged summary ==
/// single-process summary). The fleet pays per-worker corpus preparation,
/// so on the quick campaign the interesting number is the overhead, not a
/// speedup.
fn fleet_snapshot(smoke: bool) {
    use hdiff_core::{HDiff, HdiffConfig};
    use hdiff_fleet::{run_fleet, FleetConfig};

    let worker_exe = std::env::current_exe()
        .ok()
        .and_then(|p| Some(p.parent()?.join(format!("hdiff{}", std::env::consts::EXE_SUFFIX))))
        .filter(|p| p.is_file());
    let Some(worker_exe) = worker_exe else {
        eprintln!(
            "BENCH_fleet: no hdiff binary next to perf_snapshot \
             (build it with `cargo build --release` first); skipping"
        );
        return;
    };

    let rounds = if smoke { 1 } else { 3 };
    let shards = 4u32;
    let config = HdiffConfig::quick();

    let mut single_ms = f64::INFINITY;
    let mut single_summary = None;
    for _ in 0..rounds {
        let start = Instant::now();
        let report = HDiff::new(config.clone()).run();
        single_ms = single_ms.min(start.elapsed().as_secs_f64() * 1e3);
        single_summary = Some(report.summary);
    }

    let mut fleet_ms = f64::INFINITY;
    let mut converged = false;
    for round in 0..rounds {
        let dir =
            std::env::temp_dir().join(format!("hdiff-bench-fleet-{}-{round}", std::process::id()));
        let mut fleet = FleetConfig::new(shards, dir);
        fleet.worker_exe = worker_exe.clone();
        let start = Instant::now();
        match run_fleet(&config, &fleet) {
            Ok(report) => {
                fleet_ms = fleet_ms.min(start.elapsed().as_secs_f64() * 1e3);
                converged = Some(&report.summary) == single_summary.as_ref();
            }
            Err(err) => {
                eprintln!("BENCH_fleet: fleet round failed: {err}");
                return;
            }
        }
    }
    let overhead = fleet_ms / single_ms.max(1e-9) - 1.0;

    let json = format!(
        "{{\n  \"schema\": \"hdiff-bench-fleet-v1\",\n  \"smoke\": {smoke},\n  \"rounds\": {rounds},\n  \"shards\": {shards},\n  \"single_ms\": {single_ms:.1},\n  \"fleet_ms\": {fleet_ms:.1},\n  \"overhead_pct\": {:.1},\n  \"converged\": {converged}\n}}\n",
        overhead * 100.0
    );
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    print!("{json}");
    eprintln!(
        "single {single_ms:.0} ms vs {shards}-shard fleet {fleet_ms:.0} ms \
         -> {:.1}% overhead, converged: {converged}",
        overhead * 100.0
    );
}

/// Writes `BENCH_obs.json`: wall time of the quick campaign with
/// telemetry collecting versus fully disabled, and the overhead the
/// instrumentation layer is accountable for (budget: <= 5%).
fn obs_snapshot(smoke: bool) {
    use hdiff_core::{HDiff, HdiffConfig};

    let rounds = if smoke { 2 } else { 7 };
    let campaign = |telemetry: bool| -> f64 {
        let mut config = HdiffConfig::quick();
        config.telemetry = telemetry;
        let start = Instant::now();
        let report = HDiff::new(config).run();
        let wall = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&report.summary);
        wall
    };
    // Warm-up pass so neither arm pays one-time lazy-init costs, then
    // interleave the arms so clock drift and cache state hit both
    // equally; the minimum is the least-noisy estimate of each.
    let _ = campaign(false);
    let mut instrumented_ms = f64::INFINITY;
    let mut disabled_ms = f64::INFINITY;
    for _ in 0..rounds {
        instrumented_ms = instrumented_ms.min(campaign(true));
        disabled_ms = disabled_ms.min(campaign(false));
    }
    hdiff_obs::set_enabled(true);
    let overhead = instrumented_ms / disabled_ms.max(1e-9) - 1.0;

    let json = format!(
        "{{\n  \"schema\": \"hdiff-bench-obs-v1\",\n  \"smoke\": {smoke},\n  \"rounds\": {rounds},\n  \"instrumented_ms\": {instrumented_ms:.1},\n  \"disabled_ms\": {disabled_ms:.1},\n  \"overhead_pct\": {:.1}\n}}\n",
        overhead * 100.0
    );
    std::fs::write("BENCH_obs.json", &json).expect("write BENCH_obs.json");
    print!("{json}");
    eprintln!(
        "telemetry on {instrumented_ms:.0} ms vs off {disabled_ms:.0} ms \
         -> {:.1}% overhead",
        overhead * 100.0
    );
}

/// Writes `BENCH_net.json`: requests/second and p50/p99 round-trip time
/// for the Table II catalog sent one exchange at a time over loopback
/// TCP, next to the same profile invoked as an in-process function on
/// identical bytes — plus a reactor concurrency sweep (1/64/512 driven
/// connections, pipelined 32 deep).
///
/// Returns the regression-gate verdict against the *committed*
/// `BENCH_net.json` read before overwriting: in full mode the async
/// 512-connection throughput must stay within 20% of the baseline; in
/// smoke mode (CI hardware varies) the speedup over the serial exchange
/// rate is compared instead, with [`SERIAL_SPEEDUP_FLOOR`] as an
/// alternate floor. A baseline without the ratio skips the gate with a
/// note, and so does a target without the epoll backend.
fn net_snapshot(smoke: bool) -> bool {
    use hdiff_net::{DriveSpec, ExchangeSpec, Job, NetServerConfig, Reactor, SendMode};
    use std::time::Duration;

    let previous = std::fs::read_to_string("BENCH_net.json").ok();
    let rounds = if smoke { 2 } else { 10 };
    let payloads: Vec<Vec<u8>> = catalog::catalog()
        .iter()
        .flat_map(|e| e.requests.iter().map(|(req, _)| req.to_bytes()))
        .collect();
    let profile = hdiff_servers::backends().into_iter().next().expect("at least one backend");

    // In-process baseline: the same engine as a function call.
    let server = hdiff_servers::Server::new(profile.clone());
    let mut sim_rtts_ns = Vec::new();
    for _ in 0..rounds {
        for bytes in &payloads {
            let start = Instant::now();
            std::hint::black_box(server.handle_stream(bytes));
            sim_rtts_ns.push(start.elapsed().as_nanos() as f64);
        }
    }

    let reactor = match Reactor::spawn() {
        Ok(reactor) => reactor,
        Err(err) => {
            eprintln!("BENCH_net: skipped (no reactor backend: {err})");
            return true;
        }
    };

    // Serial wire: one exchange job at a time (connect, send, FIN, read
    // to EOF) against a reactor-hosted origin.
    let serial = reactor
        .add_origin(profile.clone(), NetServerConfig::default(), false)
        .expect("add serial origin");
    let mut tcp_rtts_ns = Vec::new();
    let wall = Instant::now();
    for _ in 0..rounds {
        for bytes in &payloads {
            let start = Instant::now();
            let spec = ExchangeSpec::paired(&serial, bytes, SendMode::Whole);
            let outs = reactor.run(vec![Job::Exchange(ExchangeSpec { pair: None, ..spec })]);
            let exchange = outs[0].as_exchange().expect("exchange output");
            assert!(exchange.error.is_none(), "wire exchange: {exchange:?}");
            std::hint::black_box(&exchange.response);
            tcp_rtts_ns.push(start.elapsed().as_nanos() as f64);
        }
    }
    let tcp_wall_s = wall.elapsed().as_secs_f64();
    let req_per_s = tcp_rtts_ns.len() as f64 / tcp_wall_s.max(1e-9);
    let _ = reactor.take_server_logs(serial.id);

    let percentile = |samples: &mut Vec<f64>, p: f64| -> f64 {
        samples.sort_by(|a, b| a.total_cmp(b));
        let idx = ((samples.len() - 1) as f64 * p).round() as usize;
        samples[idx]
    };
    let tcp_p50_us = percentile(&mut tcp_rtts_ns, 0.50) / 1e3;
    let tcp_p99_us = percentile(&mut tcp_rtts_ns, 0.99) / 1e3;
    let sim_p50_us = percentile(&mut sim_rtts_ns, 0.50) / 1e3;
    let sim_p99_us = percentile(&mut sim_rtts_ns, 0.99) / 1e3;

    // Async sweep: N pipelined connections driven by the epoll reactor
    // against one strict origin (reply retention off, so the numbers
    // measure the loop, not Vec growth).
    const PIPELINE: usize = 32;
    const SWEEP: [usize; 3] = [1, 64, 512];
    let config = NetServerConfig { max_messages: usize::MAX, ..NetServerConfig::default() };
    let origin = reactor.add_origin(profile, config, false).expect("add sweep origin");
    let payload = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n".to_vec();
    let sweep_rounds = if smoke { 1 } else { 3 };
    let mut points = Vec::new();
    for conns in SWEEP {
        let per_conn = if smoke {
            (20_000 / conns as u64).max(100)
        } else {
            (150_000 / conns as u64).max(1_000)
        };
        let mut best = 0f64;
        for _ in 0..sweep_rounds {
            let jobs: Vec<Job> = (0..conns)
                .map(|_| {
                    Job::Drive(DriveSpec {
                        addr: origin.addr,
                        payload: payload.clone(),
                        requests: per_conn,
                        pipeline: PIPELINE,
                        read_timeout: Duration::from_secs(5),
                    })
                })
                .collect();
            let start = Instant::now();
            let outs = reactor.run(jobs);
            let wall = start.elapsed().as_secs_f64();
            let completed: u64 =
                outs.iter().filter_map(|o| o.as_drive()).map(|d| d.completed).sum();
            assert_eq!(
                completed,
                per_conn * conns as u64,
                "async sweep dropped requests at {conns} conns"
            );
            best = best.max(completed as f64 / wall.max(1e-9));
        }
        eprintln!("async sweep: {conns} conns x {per_conn} reqs -> {best:.0} req/s");
        points.push(best);
    }

    let speedup = points[2] / req_per_s.max(1e-9);
    let async_block = format!(
        ",\n  \"async_pipeline_depth\": {PIPELINE},\n  \"async_1_req_per_s\": {:.0},\n  \"async_64_req_per_s\": {:.0},\n  \"async_512_req_per_s\": {:.0},\n  \"speedup_vs_serial\": {speedup:.1}",
        points[0], points[1], points[2]
    );
    let json = format!(
        "{{\n  \"schema\": \"hdiff-bench-net-v2\",\n  \"smoke\": {smoke},\n  \"payloads\": {},\n  \"requests\": {},\n  \"tcp_req_per_s\": {req_per_s:.0},\n  \"tcp_rtt_p50_us\": {tcp_p50_us:.1},\n  \"tcp_rtt_p99_us\": {tcp_p99_us:.1},\n  \"inprocess_p50_us\": {sim_p50_us:.1},\n  \"inprocess_p99_us\": {sim_p99_us:.1}{async_block}\n}}\n",
        payloads.len(),
        tcp_rtts_ns.len(),
    );
    std::fs::write("BENCH_net.json", &json).expect("write BENCH_net.json");
    print!("{json}");
    eprintln!(
        "wire {req_per_s:.0} req/s (p50 {tcp_p50_us:.0} us, p99 {tcp_p99_us:.0} us) \
         vs in-process p50 {sim_p50_us:.1} us"
    );

    net_gate(smoke, previous.as_deref(), &points, req_per_s)
}

/// The smoke gate's alternate floor for the async 512-connection rate
/// over the serial exchange rate. The acceptance target was 10x over the
/// blocking thread-per-socket client that served serial exchanges before
/// the reactor did; on the sizing VM that client ran 1.55x the reactor's
/// serial rate (median of 14 alternating runs in one process), so the
/// same target reads 10 x 1.55 = 15.5, rounded up.
const SERIAL_SPEEDUP_FLOOR: f64 = 16.0;

/// The BENCH_net regression gate (see [`net_snapshot`]).
fn net_gate(smoke: bool, previous: Option<&str>, points: &[f64], serial: f64) -> bool {
    let Some(previous) = previous else {
        eprintln!("BENCH_net gate: no committed baseline; skipped");
        return true;
    };
    let async_512 = points[2];
    let speedup = async_512 / serial.max(1e-9);
    let baseline = json_number(previous, "async_512_req_per_s")
        .zip(json_number(previous, "speedup_vs_serial"));
    let Some((prev_rps, prev_speedup)) = baseline else {
        eprintln!("BENCH_net gate: committed baseline predates the serial-exchange ratio; skipped");
        return true;
    };
    if smoke {
        // CI hardware varies, so compare the hardware-relative speedup
        // ratio; the acceptance target is an alternate floor so a faster
        // committed baseline can't make the gate flaky.
        let ok = speedup >= 0.8 * prev_speedup || speedup >= SERIAL_SPEEDUP_FLOOR;
        if !ok {
            eprintln!(
                "BENCH_net gate: speedup regressed to {speedup:.1}x \
                 (baseline {prev_speedup:.1}x, floor {:.1}x)",
                0.8 * prev_speedup
            );
        }
        ok
    } else {
        let ok = async_512 >= 0.8 * prev_rps;
        if !ok {
            eprintln!(
                "BENCH_net gate: async 512-conn throughput regressed to {async_512:.0} req/s \
                 (baseline {prev_rps:.0}, floor {:.0})",
                0.8 * prev_rps
            );
        }
        ok
    }
}

/// Writes `BENCH_h2.json`: HTTP/2 framing and HPACK layer throughput
/// (encode + parse of the downgrade seed-vector connections, HPACK
/// block round-trips), plus end-to-end downgrade-campaign cases/s over
/// the in-process fronts through the campaign driver.
fn h2_snapshot(smoke: bool) {
    use hdiff_diff::{
        run_protocol_campaign, seed_vectors, DowngradeProtocol, ProtocolCampaignOptions,
    };
    use hdiff_h2::hpack::{Decoder, Encoder, Header};
    use hdiff_h2::{encode_client_connection, parse_client_connection, EncodeOptions};

    let (samples, reps) = if smoke { (5, 20) } else { (21, 200) };

    // Framing: one op encodes and re-parses every seed vector's whole
    // client connection (preface, SETTINGS, HEADERS + DATA per stream).
    let vectors = seed_vectors();
    let encoded: Vec<Vec<u8>> = vectors
        .iter()
        .map(|v| encode_client_connection(&v.requests, &EncodeOptions::default()))
        .collect();
    let conn_bytes: usize = encoded.iter().map(Vec::len).sum();
    let encode_ns = median_ns(samples, reps, || {
        for v in &vectors {
            std::hint::black_box(encode_client_connection(&v.requests, &EncodeOptions::default()));
        }
    }) / vectors.len() as f64;
    let parse_ns = median_ns(samples, reps, || {
        for bytes in &encoded {
            std::hint::black_box(parse_client_connection(bytes).expect("seed vectors parse"));
        }
    }) / vectors.len() as f64;
    let parse_mb_per_s =
        (conn_bytes as f64 / vectors.len() as f64) / (parse_ns / 1e9) / (1024.0 * 1024.0);

    // HPACK: block encode + decode of a realistic request header list.
    let headers = vec![
        Header::new(":method", "POST"),
        Header::new(":path", "/submit/form?id=12345"),
        Header::new(":scheme", "https"),
        Header::new(":authority", "origin.example.com"),
        Header::new("content-length", "512"),
        Header::new("accept-encoding", "gzip, deflate, br"),
        Header::new("user-agent", "bench/1.0 (perf snapshot)"),
        Header::sensitive("authorization", "Bearer 0123456789abcdef"),
    ];
    let hpack_ns = median_ns(samples, reps, || {
        let mut enc = Encoder::default();
        let mut dec = Decoder::default();
        let mut block = Vec::new();
        enc.encode_block(&headers, &mut block);
        std::hint::black_box(dec.decode_block(&block).expect("block decodes"));
    });

    // End to end: the seeded downgrade campaign (sim fronts, one inline
    // worker), cases/s.
    let campaign_rounds = if smoke { 2 } else { 7 };
    let mut campaign_ms = f64::INFINITY;
    let mut cases = 0usize;
    let protocol = DowngradeProtocol::standard();
    let opts = ProtocolCampaignOptions { threads: 1, promote_dir: None };
    for _ in 0..campaign_rounds {
        let start = Instant::now();
        let summary = run_protocol_campaign(&protocol, &opts).expect("downgrade campaign runs");
        campaign_ms = campaign_ms.min(start.elapsed().as_secs_f64() * 1e3);
        cases = summary.run.cases;
    }
    let cases_per_s = cases as f64 / (campaign_ms / 1e3).max(1e-9);

    let json = format!(
        "{{\n  \"schema\": \"hdiff-bench-h2-v1\",\n  \"smoke\": {smoke},\n  \"samples\": {samples},\n  \"vectors\": {},\n  \"encode_conn_ns\": {encode_ns:.1},\n  \"parse_conn_ns\": {parse_ns:.1},\n  \"parse_mb_per_s\": {parse_mb_per_s:.1},\n  \"hpack_roundtrip_ns\": {hpack_ns:.1},\n  \"campaign_cases\": {cases},\n  \"campaign_ms\": {campaign_ms:.1},\n  \"campaign_cases_per_s\": {cases_per_s:.0}\n}}\n",
        vectors.len()
    );
    std::fs::write("BENCH_h2.json", &json).expect("write BENCH_h2.json");
    print!("{json}");
    eprintln!(
        "h2 framing parse {parse_ns:.0} ns/conn ({parse_mb_per_s:.0} MB/s), \
         hpack round-trip {hpack_ns:.0} ns/block, \
         downgrade campaign {cases_per_s:.0} cases/s"
    );
}

/// Writes `BENCH_cookie.json`: per-case cost of the eight-profile
/// cookie interpretation matrix plus end-to-end campaign throughput of
/// the campaign driver.
fn cookie_snapshot(smoke: bool) {
    use hdiff_cookie::{seed_vectors, CookieProtocol, COOKIE_UUID_BASE};
    use hdiff_diff::{run_protocol_campaign, Protocol, ProtocolCampaignOptions};

    let (samples, reps) = if smoke { (5, 20) } else { (21, 200) };
    let protocol = CookieProtocol::standard();
    let seeds = seed_vectors();
    let cases: Vec<Vec<u8>> = seeds.iter().map(|s| s.case.to_bytes()).collect();

    // One op executes every seed case through the full profile matrix
    // (parse -> 8 interpretations -> pairwise detection -> digests).
    let execute_ns = median_ns(samples, reps, || {
        for (i, bytes) in cases.iter().enumerate() {
            let uuid = COOKIE_UUID_BASE + i as u64;
            std::hint::black_box(
                protocol.execute(uuid, "bench:cookie", bytes).expect("in-process"),
            );
        }
    }) / cases.len() as f64;

    // End to end: the seeded cookie campaign via the campaign driver, on
    // one inline worker.
    let campaign_rounds = if smoke { 2 } else { 7 };
    let mut campaign_ms = f64::INFINITY;
    let mut campaign_cases = 0usize;
    let mut classes = 0usize;
    let opts = ProtocolCampaignOptions { threads: 1, promote_dir: None };
    for _ in 0..campaign_rounds {
        let start = Instant::now();
        let summary = run_protocol_campaign(&protocol, &opts).expect("cookie campaign runs");
        campaign_ms = campaign_ms.min(start.elapsed().as_secs_f64() * 1e3);
        campaign_cases = summary.run.cases;
        classes = summary.classes.len();
    }
    let cases_per_s = campaign_cases as f64 / (campaign_ms / 1e3).max(1e-9);

    let json = format!(
        "{{\n  \"schema\": \"hdiff-bench-cookie-v1\",\n  \"smoke\": {smoke},\n  \"samples\": {samples},\n  \"seed_cases\": {},\n  \"execute_case_ns\": {execute_ns:.1},\n  \"campaign_cases\": {campaign_cases},\n  \"campaign_classes\": {classes},\n  \"campaign_ms\": {campaign_ms:.1},\n  \"campaign_cases_per_s\": {cases_per_s:.0}\n}}\n",
        cases.len()
    );
    std::fs::write("BENCH_cookie.json", &json).expect("write BENCH_cookie.json");
    print!("{json}");
    eprintln!(
        "cookie matrix execute {execute_ns:.0} ns/case, \
         campaign {cases_per_s:.0} cases/s ({classes} divergence classes)"
    );
}

/// Campaign-style padding: inert noise headers inserted before the blank
/// line, tripling the request size (same shape `regen_golden` uses).
fn pad_with_noise(bytes: &[u8]) -> Vec<u8> {
    let Some(head_end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") else {
        return bytes.to_vec();
    };
    let mut out = bytes[..head_end + 2].to_vec();
    let mut i = 0usize;
    while out.len() + (bytes.len() - head_end - 2) < bytes.len() * 3 {
        out.extend_from_slice(format!("X-Pad-{i}: {:a>40}\r\n", "").as_bytes());
        i += 1;
    }
    out.extend_from_slice(&bytes[head_end + 2..]);
    out
}

/// Writes `BENCH_minimize.json`: the delta-debugging minimizer run over
/// every noise-padded Table II vector that flags a finding — aggregate
/// shrink ratio, probe counts, and wall time.
fn minimize_snapshot(smoke: bool, workflow: &Workflow, products: &[hdiff_servers::ParserProfile]) {
    let ctx = FindingContext::new(workflow, products);
    let opts = MinimizeOptions::default();

    // The workload: one (padded bytes, finding) seed per catalog vector.
    let mut seeds = Vec::new();
    for (idx, entry) in catalog::catalog().iter().enumerate() {
        let uuid = 9000 + idx as u64;
        let origin = format!("catalog:{}", entry.id);
        let seed = entry.requests.iter().find_map(|(req, _)| {
            let padded = pad_with_noise(&req.to_bytes());
            let findings = ctx.findings_for(uuid, &origin, &padded);
            let of_class = |f: &&hdiff_diff::Finding| entry.classes.contains(&f.class);
            findings
                .iter()
                .filter(of_class)
                .find(|f| f.is_pair())
                .or_else(|| findings.iter().find(of_class))
                .cloned()
                .map(|f| (padded, f))
        });
        if let Some(s) = seed {
            seeds.push(s);
        }
        if smoke && seeds.len() >= 3 {
            break;
        }
    }

    let start = Instant::now();
    let mut padded_bytes = 0usize;
    let mut minimized_bytes = 0usize;
    let mut attempts = 0usize;
    let mut accepted = 0usize;
    for (padded, finding) in &seeds {
        let out = ctx.minimize_finding(finding, padded, &opts);
        padded_bytes += out.stats.original_len;
        minimized_bytes += out.stats.minimized_len;
        attempts += out.stats.attempts;
        accepted += out.stats.accepted;
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let shrink_ratio = minimized_bytes as f64 / padded_bytes.max(1) as f64;

    let json = format!(
        "{{\n  \"schema\": \"hdiff-bench-minimize-v1\",\n  \"smoke\": {smoke},\n  \"cases\": {},\n  \"padded_bytes\": {padded_bytes},\n  \"minimized_bytes\": {minimized_bytes},\n  \"shrink_ratio\": {shrink_ratio:.3},\n  \"attempts\": {attempts},\n  \"accepted\": {accepted},\n  \"wall_ms\": {wall_ms:.1}\n}}\n",
        seeds.len()
    );
    std::fs::write("BENCH_minimize.json", &json).expect("write BENCH_minimize.json");
    print!("{json}");
    eprintln!(
        "minimized {} case(s): {padded_bytes} -> {minimized_bytes} bytes \
         (ratio {shrink_ratio:.2}) in {wall_ms:.0} ms",
        seeds.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baseline, as the smoke gate reads it.
    fn committed() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_net.json");
        std::fs::read_to_string(path).expect("BENCH_net.json is committed")
    }

    #[test]
    fn the_smoke_gate_fails_a_rate_more_than_a_fifth_below_the_committed_ratio() {
        let previous = committed();
        let ratio = json_number(&previous, "speedup_vs_serial").expect("committed ratio");
        let serial = 10_000.0;
        let at = |factor: f64| [0.0, 0.0, serial * ratio * factor];
        assert!(net_gate(true, Some(&previous), &at(1.0), serial));
        assert!(net_gate(true, Some(&previous), &at(0.81), serial));
        // The alternate floor must not rescue a regression past the 20%
        // band around the committed ratio.
        assert!(!net_gate(true, Some(&previous), &at(0.79), serial), "ratio {ratio}");
    }
}
