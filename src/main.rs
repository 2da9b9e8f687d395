//! `hdiff` — command-line front end for the HDiff pipeline.
//!
//! ```text
//! hdiff run [--quick]        full pipeline: stats, Table I, Figure 7
//! hdiff stats                corpus/extraction statistics (§IV-B)
//! hdiff table1               Table I verdict matrix
//! hdiff table2               Table II attack-vector inventory
//! hdiff figure7              Figure 7 pair grids
//! hdiff findings [--csv]     every finding (text or CSV)
//! hdiff probe <file>         interpret a raw request file under all ten
//!                            product models and the strict baseline
//! hdiff probe <host:port>    send a catalog vector to a live server and
//!                            pretty-print the raw response
//! hdiff replay [--all] <p>   re-execute recorded replay bundles and diff
//!                            verdicts + behavior digests
//! hdiff golden regen <dir>   rebuild the minimized golden bundle corpus
//! hdiff run --frontend h2    downgrade-desync campaign: h2 seed vectors
//!                            through the downgrade front ends
//! hdiff run --protocol cookie  RFC 6265 cookie workload through the
//!                            generic protocol campaign driver
//! hdiff probe --frontend h2 <host:port>   sweep the h2 seed corpus
//!                            against a live h2c endpoint
//! hdiff golden regen-h2 <dir> rebuild the golden h2 downgrade bundles
//! hdiff run --shards N       run the campaign through the crash-tolerant
//!                            sharded fleet (supervisor + N workers)
//! hdiff worker ...           internal: one shard of a fleet campaign
//! ```

use std::path::Path;
use std::process::ExitCode;

use hdiff::report;
use hdiff::{HDiff, HdiffConfig};

/// Reads the value of a `--flag N` pair, reporting parse failures.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let Some(raw) = args.get(i + 1) else {
        return Err(format!("{flag} needs a value"));
    };
    raw.parse::<T>().map(Some).map_err(|_| format!("{flag}: invalid value {raw:?}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("run");
    let quick = args.iter().any(|a| a == "--quick");
    let mut config = if quick { HdiffConfig::quick() } else { HdiffConfig::full() };
    match flag_value::<usize>(&args, "--threads") {
        Ok(Some(n)) => config.threads = n,
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    match flag_value::<u8>(&args, "--fault-rate") {
        Ok(Some(pct)) if pct <= 100 => config.fault_rate = pct,
        Ok(Some(pct)) => {
            eprintln!("--fault-rate: {pct} is not a percentage");
            return ExitCode::FAILURE;
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if args.iter().any(|a| a == "--coverage-guided") {
        config.coverage_guided = true;
    }
    let transport = match flag_value::<String>(&args, "--transport") {
        Ok(Some(raw)) => match hdiff::diff::Transport::parse(&raw) {
            Ok(t) => Some(t),
            Err(e) => {
                eprintln!("--transport: {e}");
                return ExitCode::FAILURE;
            }
        },
        Ok(None) => None,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(t) = transport {
        config.transport = t;
    }
    let frontend = match flag_value::<String>(&args, "--frontend") {
        Ok(Some(raw)) => match hdiff::diff::Frontend::parse(&raw) {
            Some(f) => Some(f),
            None => {
                eprintln!("--frontend: unknown frontend {raw:?} (expected: h1, h2)");
                return ExitCode::FAILURE;
            }
        },
        Ok(None) => None,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(f) = frontend {
        config.frontend = f;
    }
    match flag_value::<String>(&args, "--protocol") {
        Ok(Some(name)) => {
            if name != "http" && protocol_by_name(&name).is_none() {
                eprintln!("--protocol: unknown workload {name:?} (expected: http, cookie)");
                return ExitCode::FAILURE;
            }
            config.protocol = name;
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if config.protocol != "http" && config.frontend == hdiff::diff::Frontend::H2 {
        eprintln!("--protocol {} does not combine with --frontend h2", config.protocol);
        return ExitCode::FAILURE;
    }
    if args.iter().any(|a| a == "--no-telemetry") {
        config.telemetry = false;
    }
    match flag_value::<u32>(&args, "--shards") {
        Ok(Some(n)) => config.shards = n,
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    match flag_value::<u8>(&args, "--fleet-chaos") {
        Ok(Some(pct)) if pct <= 100 => config.fleet_chaos = pct,
        Ok(Some(pct)) => {
            eprintln!("--fleet-chaos: {pct} is not a percentage");
            return ExitCode::FAILURE;
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    match flag_value::<usize>(&args, "--checkpoint-every") {
        Ok(Some(n)) if n > 0 => config.checkpoint_every = n,
        Ok(Some(_)) => {
            eprintln!("--checkpoint-every: must be at least 1");
            return ExitCode::FAILURE;
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let (trace_out, summary_out, fleet_dir) = match (
        flag_value::<String>(&args, "--trace-out"),
        flag_value::<String>(&args, "--summary-out"),
        flag_value::<String>(&args, "--fleet-dir"),
    ) {
        (Ok(t), Ok(s), Ok(d)) => (t, s, d),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let sinks = TelemetrySinks { trace_out, summary_out, fleet_dir };

    match command {
        "worker" => run_worker_cli(&args),
        "run" if config.frontend == hdiff::diff::Frontend::H2 => run_downgrade_cli(&args, &config),
        "run" if config.protocol != "http" => run_protocol_cli(&args, &config),
        "run" => {
            let r = run_pipeline(config, &sinks);
            println!("{}", report::render_stats(&r));
            println!("{}", report::render_table1(&r.summary));
            println!("{}", report::render_figure7(&r.summary));
            println!("{}", report::render_resilience(&r.summary));
            ExitCode::SUCCESS
        }
        "stats" => {
            let r = run_pipeline(config, &sinks);
            println!("{}", report::render_stats(&r));
            ExitCode::SUCCESS
        }
        "table1" => {
            let r = run_pipeline(config, &sinks);
            println!("{}", report::render_table1(&r.summary));
            println!("{}", report::render_sr_violations(&r.summary));
            ExitCode::SUCCESS
        }
        "table2" => {
            let r = run_pipeline(config, &sinks);
            println!("{}", report::render_table2(&r.summary));
            ExitCode::SUCCESS
        }
        "figure7" => {
            let r = run_pipeline(config, &sinks);
            println!("{}", report::render_figure7(&r.summary));
            ExitCode::SUCCESS
        }
        "exploits" => {
            let r = run_pipeline(config, &sinks);
            println!("{}", report::render_exploits(&r, 20));
            ExitCode::SUCCESS
        }
        "report" => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with('-')) else {
                eprintln!("usage: hdiff report <summary.json | trace.jsonl>");
                return ExitCode::FAILURE;
            };
            match hdiff::diff::load_report(Path::new(path)) {
                Ok(input) => {
                    println!("{}", hdiff::obs::render_report(&input));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot report on {path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "findings" => {
            let r = run_pipeline(config, &sinks);
            if args.iter().any(|a| a == "--csv") {
                print!("{}", report::render_findings_csv(&r.summary));
            } else {
                for f in &r.summary.findings {
                    println!("{f}");
                }
            }
            ExitCode::SUCCESS
        }
        "probe" => {
            let Some(target) = args
                .iter()
                .enumerate()
                .skip(1)
                .find(|(i, a)| !a.starts_with('-') && args[i - 1] != "--frontend")
                .map(|(_, a)| a)
            else {
                eprintln!("usage: hdiff probe [--frontend h2] <raw-request-file | host:port>");
                return ExitCode::FAILURE;
            };
            if config.frontend == hdiff::diff::Frontend::H2 {
                if Path::new(target).exists() || !target.contains(':') {
                    eprintln!("--frontend h2 probes a live host:port (h2c prior knowledge)");
                    return ExitCode::FAILURE;
                }
                return probe_live_h2(target);
            }
            if !Path::new(target).exists() && target.contains(':') {
                return probe_live(target);
            }
            match std::fs::read(target) {
                Ok(bytes) => {
                    probe(&bytes);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot read {target}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "fuzz" => run_fuzz_cli(&args, transport),
        "replay" => {
            let Some(path) = args
                .iter()
                .enumerate()
                .skip(1)
                .find(|(i, a)| !a.starts_with('-') && args[i - 1] != "--transport")
                .map(|(_, a)| a)
            else {
                eprintln!(
                    "usage: hdiff replay [--all] [--transport sim|tcp-async] <bundle.json | directory>"
                );
                return ExitCode::FAILURE;
            };
            replay(Path::new(path), transport)
        }
        "golden" => {
            let (Some(sub), Some(dir)) = (args.get(1), args.get(2)) else {
                eprintln!("usage: hdiff golden <regen | regen-h2> <directory>");
                return ExitCode::FAILURE;
            };
            match sub.as_str() {
                "regen" => golden_regen(Path::new(dir)),
                "regen-h2" => golden_regen_h2(Path::new(dir)),
                _ => {
                    eprintln!("unknown golden subcommand {sub:?} (expected: regen, regen-h2)");
                    ExitCode::FAILURE
                }
            }
        }
        "--help" | "-h" | "help" => {
            print_help();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?}");
            print_help();
            ExitCode::FAILURE
        }
    }
}

/// Where campaign telemetry goes besides the summary itself, plus the
/// fleet working directory when one was requested.
struct TelemetrySinks {
    trace_out: Option<String>,
    summary_out: Option<String>,
    fleet_dir: Option<String>,
}

/// Runs the pipeline honoring the telemetry sinks: `--trace-out` turns on
/// raw event capture and writes the replay-stable JSONL event log;
/// `--summary-out` writes the machine-readable campaign summary. With
/// `--shards N` (N > 0) the campaign runs through the sharded fleet
/// fabric instead of in-process.
fn run_pipeline(config: HdiffConfig, sinks: &TelemetrySinks) -> hdiff::PipelineReport {
    if sinks.trace_out.is_some() {
        hdiff::obs::set_trace(true);
    }
    let r = if config.shards > 0 {
        let mut fleet = match &sinks.fleet_dir {
            Some(dir) => {
                let mut f = hdiff::fleet::FleetConfig::new(config.shards, dir);
                f.keep_dir = true;
                f
            }
            None => hdiff::fleet::FleetConfig::new(
                config.shards,
                std::env::temp_dir().join(format!("hdiff-fleet-{}", std::process::id())),
            ),
        };
        fleet.chaos_rate = config.fleet_chaos;
        match hdiff::fleet::run_fleet(&config, &fleet) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("fleet campaign failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        HDiff::new(config).run()
    };
    if let Some(path) = &sinks.summary_out {
        match hdiff::diff::write_summary(Path::new(path), &r.summary) {
            Ok(()) => eprintln!("summary written to {path}"),
            Err(e) => eprintln!("cannot write summary to {path}: {e}"),
        }
    }
    if let Some(path) = &sinks.trace_out {
        match hdiff::diff::write_trace(Path::new(path), &r.summary.telemetry.merged) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => eprintln!("cannot write trace to {path}: {e}"),
        }
    }
    r
}

fn print_help() {
    println!(
        "hdiff — semantic gap attack discovery (DSN 2022 reproduction)\n\n\
         options (any command):\n\
         \x20 --quick          small corpus for fast runs\n\
         \x20 --threads N      worker threads (0 = one per core)\n\
         \x20 --fault-rate N   inject faults into N% of hop decisions\n\
         \x20 --transport T    run cases over `sim` (in-process, default) or\n\
         \x20                  `tcp-async` (loopback sockets on one epoll\n\
         \x20                  event loop, Linux x86_64/aarch64 only)\n\
         \x20 --frontend F     campaign client protocol: `h1` (default) or\n\
         \x20                  `h2` (HTTP/2 into the downgrade front ends)\n\
         \x20 --protocol P     campaign workload: `http` (default, the full\n\
         \x20                  pipeline) or `cookie` (RFC 6265 profiles\n\
         \x20                  through the generic protocol driver)\n\
         \x20 --no-telemetry   skip span/counter/histogram collection\n\
         \x20 --summary-out F  write the machine-readable summary JSON to F\n\
         \x20 --trace-out F    record raw events, write JSONL trace to F\n\n\
         commands:\n\
         \x20 run [--quick]    full pipeline: stats, Table I, Figure 7\n\
         \x20 stats            corpus/extraction statistics\n\
         \x20 table1           Table I verdict matrix\n\
         \x20 table2           Table II attack-vector inventory\n\
         \x20 figure7          Figure 7 pair grids\n\
         \x20 findings [--csv] list every finding\n\
         \x20 report <path>    profile a recorded summary JSON or JSONL trace\n\
         \x20 exploits         exploit write-ups with payloads\n\
         \x20 probe <file>     interpret a raw request under all products\n\
         \x20 probe <host:port>   send a catalog vector to a live server\n\
         \x20 probe --frontend h2 <host:port>  sweep the h2 downgrade seed\n\
         \x20                  corpus against a live h2c endpoint\n\
         \x20 replay [--all] <p>  re-execute replay bundle(s), diff verdicts\n\
         \x20 golden regen <dir>  rebuild the minimized golden corpus\n\
         \x20 golden regen-h2 <dir>  rebuild the golden h2 downgrade bundles\n\
         \x20 run --frontend h2   downgrade-desync campaign over the h2 seed\n\
         \x20                  vectors [--promote-dir D] [--min-classes N]\n\
         \x20 run --protocol cookie  cookie workload campaign over the RFC\n\
         \x20                  6265 profile matrix [--promote-dir D]\n\
         \x20                  [--min-classes N]\n\
         \x20 fuzz [...]       coverage-guided fuzzing over connection streams:\n\
         \x20                  [--seconds N | --iters N] [--seed S]\n\
         \x20                  [--promote-dir D] [--seed-corpus D] [--min-novel N]\n\n\
         generation options:\n\
         \x20 --coverage-guided  bias ABNF generation toward cold alternations\n\n\
         fleet options (sharded multi-process campaigns):\n\
         \x20 --shards N           run the campaign as N worker processes\n\
         \x20                      (0 = in-process, the default)\n\
         \x20 --fleet-chaos N      SIGKILL N% of worker incarnations on a\n\
         \x20                      deterministic schedule (recovery drill)\n\
         \x20 --fleet-dir D        keep shard checkpoints under D\n\
         \x20 --checkpoint-every N cases per shard checkpoint (default 64)"
    );
}

/// Replays one bundle file or every `*.json` bundle in a directory;
/// fails when any replay drifts from its recorded verdicts or digests.
/// A `--transport` override re-executes recorded bundles over that
/// transport instead of the one they were recorded with.
fn replay(path: &Path, transport: Option<hdiff::diff::Transport>) -> ExitCode {
    use hdiff::diff::{ReplayBundle, Workflow};

    let workflow = Workflow::standard();
    let profiles = hdiff::servers::products();
    let mut paths: Vec<std::path::PathBuf> = if path.is_dir() {
        match std::fs::read_dir(path) {
            Ok(entries) => entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "json"))
                .collect(),
            Err(e) => {
                eprintln!("cannot replay {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        vec![path.to_path_buf()]
    };
    paths.sort();
    let mut reports: Vec<(std::path::PathBuf, hdiff::diff::ReplayReport)> = Vec::new();
    for p in paths {
        match ReplayBundle::load(&p) {
            Ok(mut bundle) => {
                // Protocol-keyed bundles route back to the workload that
                // recorded them; classic bundles replay through the h1/h2
                // machinery (honoring a --transport override).
                let report = if let Some(name) = bundle.protocol.clone() {
                    match protocol_by_name(&name) {
                        Some(proto) => bundle.replay_protocol(proto.as_ref()),
                        None => {
                            eprintln!(
                                "cannot replay {}: unknown protocol workload {name:?}",
                                p.display()
                            );
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    if let Some(t) = transport {
                        bundle.transport = t;
                    }
                    bundle.replay(&workflow, &profiles, None)
                };
                reports.push((p, report));
            }
            Err(e) => {
                eprintln!("cannot load {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if reports.is_empty() {
        eprintln!("no replay bundles found in {}", path.display());
        return ExitCode::FAILURE;
    }
    let mut failed = 0usize;
    for (p, report) in &reports {
        println!("{}  [{}]", report.summary(), p.display());
        if !report.passed() {
            failed += 1;
            for f in &report.missing {
                println!("  missing    : {f}");
            }
            for f in &report.unexpected {
                println!("  unexpected : {f}");
            }
        }
    }
    println!("{} bundle(s), {} failed", reports.len(), failed);
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `hdiff fuzz` — coverage-guided differential fuzzing over connection
/// streams. Runs a deterministic seeded session, prints the session
/// stats and every promoted divergence, then renders the telemetry
/// report. With `--min-novel N`, exits nonzero unless at least N novel
/// behavior-digest views were observed (the CI smoke gate).
fn run_fuzz_cli(args: &[String], transport: Option<hdiff::diff::Transport>) -> ExitCode {
    use hdiff::fuzz::{FuzzBudget, FuzzEngine, FuzzOptions};

    let parse = || -> Result<(FuzzOptions, u64), String> {
        let mut opts = FuzzOptions::default();
        if let Some(seed) = flag_value::<u64>(args, "--seed")? {
            opts.seed = seed;
        }
        match (flag_value::<u64>(args, "--seconds")?, flag_value::<u64>(args, "--iters")?) {
            (Some(_), Some(_)) => return Err("--seconds and --iters are exclusive".to_string()),
            (Some(s), None) => opts.budget = FuzzBudget::Seconds(s),
            (None, Some(n)) => opts.budget = FuzzBudget::Iters(n),
            (None, None) => {}
        }
        if let Some(n) = flag_value::<usize>(args, "--threads")? {
            opts.threads = n;
        }
        if let Some(t) = transport {
            opts.transport = t;
        }
        if let Some(dir) = flag_value::<String>(args, "--promote-dir")? {
            opts.promote_dir = Some(dir.into());
        }
        if let Some(dir) = flag_value::<String>(args, "--seed-corpus")? {
            if !std::path::Path::new(&dir).is_dir() {
                return Err(format!("--seed-corpus: not a directory: {dir}"));
            }
            opts.seed_corpus = Some(dir.into());
        }
        let min_novel = flag_value::<u64>(args, "--min-novel")?.unwrap_or(0);
        Ok((opts, min_novel))
    };
    let (opts, min_novel) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: hdiff fuzz [--seconds N | --iters N] [--seed S] [--threads N] \
                 [--transport sim|tcp-async] [--promote-dir D] [--seed-corpus D] \
                 [--min-novel N]"
            );
            return ExitCode::FAILURE;
        }
    };
    let engine = FuzzEngine::standard(opts);
    let r = engine.run();
    println!("{}", r.render());
    println!(
        "{}",
        hdiff::obs::render_report(&hdiff::obs::ReportInput {
            title: format!("fuzz session (seed {})", engine.options().seed),
            telemetry: r.telemetry.clone(),
            slowest: Vec::new(),
            top_n: 10,
        })
    );
    if r.novel_digest_views < min_novel {
        eprintln!(
            "fuzz: only {} novel behavior-digest view(s), expected at least {min_novel}",
            r.novel_digest_views
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `hdiff run --frontend h2` — the downgrade-desync campaign: every h2
/// seed vector is encoded as an h2c client connection, translated to
/// HTTP/1.1 by the three front-end profiles, and the reconstructed
/// bytes re-interpreted by the backend matrix. `--transport tcp-async`
/// serves the fronts over loopback sockets instead of in-process (the
/// translation must stay byte-identical). With `--min-classes N`, exits
/// nonzero unless at least N distinct downgrade classes were detected
/// (the CI gate).
fn run_downgrade_cli(args: &[String], config: &HdiffConfig) -> ExitCode {
    use hdiff::diff::{run_downgrade_campaign, DowngradeCampaignOptions, Transport};

    let (promote_dir, min_classes) = match (
        flag_value::<String>(args, "--promote-dir"),
        flag_value::<usize>(args, "--min-classes"),
    ) {
        (Ok(d), Ok(m)) => (d, m.unwrap_or(0)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = DowngradeCampaignOptions {
        threads: config.threads,
        tcp: config.transport == Transport::TcpAsync,
        promote_dir: promote_dir.map(Into::into),
    };
    let summary = match run_downgrade_campaign(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("downgrade campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("== downgrade campaign (h2 front ends, {} transport) ==", config.transport);
    println!("cases    : {}", summary.cases);
    println!("findings : {}", summary.findings.len());
    for f in &summary.findings {
        println!("  {f}");
    }
    println!("classes  : {} ({})", summary.classes.len(), summary.classes.join(", "));
    for p in &summary.promoted {
        println!("promoted : {}", p.display());
    }
    if summary.classes.len() < min_classes {
        eprintln!(
            "downgrade campaign detected {} class(es), expected at least {min_classes}",
            summary.classes.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Resolves a named [`hdiff::diff::Protocol`] workload. `"http"` is not
/// listed here: it runs through the full bespoke pipeline (analyzer,
/// generator, fault campaign), not the generic driver.
fn protocol_by_name(name: &str) -> Option<Box<dyn hdiff::diff::Protocol>> {
    match name {
        "cookie" => Some(Box::new(hdiff::cookie::CookieProtocol::standard())),
        _ => None,
    }
}

/// `hdiff run --protocol <name>` — a protocol workload campaign through
/// the generic driver: the workload's seed corpus fans out over its
/// behavioral profile matrix, findings merge deterministically, and with
/// `--promote-dir` the first finding of each divergence class is
/// minimized and frozen as a protocol-keyed replay bundle. With
/// `--min-classes N`, exits nonzero unless at least N distinct classes
/// were detected (the CI gate).
fn run_protocol_cli(args: &[String], config: &HdiffConfig) -> ExitCode {
    use hdiff::diff::{run_protocol_campaign, ProtocolCampaignOptions, Transport};

    let (promote_dir, min_classes) = match (
        flag_value::<String>(args, "--promote-dir"),
        flag_value::<usize>(args, "--min-classes"),
    ) {
        (Ok(d), Ok(m)) => (d, m.unwrap_or(0)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if config.transport != Transport::Sim {
        eprintln!("--protocol {} runs over --transport sim", config.protocol);
        return ExitCode::FAILURE;
    }
    let Some(protocol) = protocol_by_name(&config.protocol) else {
        eprintln!("unknown protocol workload {:?}", config.protocol);
        return ExitCode::FAILURE;
    };
    let opts = ProtocolCampaignOptions {
        threads: config.threads,
        promote_dir: promote_dir.map(Into::into),
    };
    let summary = match run_protocol_campaign(protocol.as_ref(), &opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{} campaign failed: {e}", config.protocol);
            return ExitCode::FAILURE;
        }
    };
    println!("== {} campaign (generic protocol driver, sim transport) ==", summary.protocol);
    println!("cases    : {}", summary.cases);
    println!("findings : {}", summary.findings.len());
    for f in &summary.findings {
        println!("  {f}");
    }
    println!("classes  : {} ({})", summary.classes.len(), summary.classes.join(", "));
    for p in &summary.promoted {
        println!("promoted : {}", p.display());
    }
    if summary.classes.len() < min_classes {
        eprintln!(
            "{} campaign detected {} class(es), expected at least {min_classes}",
            summary.protocol,
            summary.classes.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Regenerates the golden replay corpus from the Table II catalog.
fn golden_regen(dir: &Path) -> ExitCode {
    use hdiff::diff::{replay::regen_golden, Workflow};

    let workflow = Workflow::standard();
    let profiles = hdiff::servers::products();
    match regen_golden(dir, &workflow, &profiles) {
        Ok(paths) => {
            for p in &paths {
                println!("wrote {}", p.display());
            }
            println!("{} bundle(s) regenerated", paths.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("golden regen failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Regenerates the golden h2 downgrade bundle corpus (the promoted
/// output of a deterministic single-threaded sim campaign).
fn golden_regen_h2(dir: &Path) -> ExitCode {
    match hdiff::diff::regen_h2_golden(dir) {
        Ok(paths) => {
            for p in &paths {
                println!("wrote {}", p.display());
            }
            println!("{} bundle(s) regenerated", paths.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("golden regen-h2 failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `hdiff worker` — one shard of a fleet campaign (spawned by the
/// supervisor; see `hdiff run --shards N`).
fn run_worker_cli(args: &[String]) -> ExitCode {
    use std::time::Duration;

    let parse = || -> Result<hdiff::fleet::WorkerOptions, String> {
        let shard_arg = flag_value::<String>(args, "--shard")?
            .ok_or_else(|| "--shard is required".to_string())?;
        let shard = hdiff::diff::ShardSpec::parse(&shard_arg)
            .ok_or_else(|| format!("--shard: invalid spec {shard_arg:?}"))?;
        let checkpoint = flag_value::<String>(args, "--checkpoint")?
            .ok_or_else(|| "--checkpoint is required".to_string())?;
        let config_path = flag_value::<String>(args, "--config")?
            .ok_or_else(|| "--config is required".to_string())?;
        let bytes =
            std::fs::read(&config_path).map_err(|e| format!("cannot read {config_path}: {e}"))?;
        let config = HdiffConfig::from_json(&bytes).map_err(|e| format!("{config_path}: {e}"))?;
        Ok(hdiff::fleet::WorkerOptions {
            shard,
            checkpoint: checkpoint.into(),
            config,
            corpus: flag_value::<String>(args, "--corpus")?.map(Into::into),
            min_generation: flag_value::<u64>(args, "--min-generation")?.unwrap_or(0),
            alive_interval: Duration::from_millis(
                flag_value::<u64>(args, "--alive-interval-ms")?.unwrap_or(1000),
            ),
            chaos_pause: Duration::from_millis(
                flag_value::<u64>(args, "--chaos-pause-ms")?.unwrap_or(0),
            ),
            stall: args.iter().any(|a| a == "--stall"),
        })
    };
    let opts = match parse() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: hdiff worker --shard i/k:start..end --checkpoint F --config F \
                 [--corpus F] [--min-generation G] [--alive-interval-ms N]"
            );
            return ExitCode::FAILURE;
        }
    };
    let shard = opts.shard;
    match hdiff::fleet::run_worker(opts) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hdiff worker {shard}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `hdiff probe <host:port>` exit code: the TCP connection never opened.
const PROBE_EXIT_CONNECT: u8 = 2;
/// `hdiff probe <host:port>` exit code: the server accepted but the read
/// timed out with nothing arriving.
const PROBE_EXIT_TIMEOUT: u8 = 3;
/// `hdiff probe <host:port>` exit code: the live server's response status
/// class diverges from the RFC-strict baseline's interpretation.
const PROBE_EXIT_DIVERGENCE: u8 = 4;

/// Repetitions per catalog vector in the live-probe sweep — enough for
/// stable p50/p99 quantiles without hammering the target.
const PROBE_REPS: usize = 8;

/// Sweeps the entire Table II catalog against a live `host:port`,
/// reusing one pooled keep-alive connection across vectors (reconnecting
/// only when the server closes it), and reports per-vector RTT p50/p99
/// plus agreement with the RFC-strict baseline's interpretation.
/// Transient connect failures are retried with backoff; terminal
/// outcomes map to distinct exit codes so scripts can branch: 0 = every
/// answered vector agrees with the strict baseline,
/// [`PROBE_EXIT_CONNECT`], [`PROBE_EXIT_TIMEOUT`],
/// [`PROBE_EXIT_DIVERGENCE`].
fn probe_live(target: &str) -> ExitCode {
    use hdiff::net::{io_timeout, ConnPool, NetClientConfig};
    use std::io::ErrorKind;
    use std::net::ToSocketAddrs;
    use std::time::Instant;

    const RETRIES: u32 = 3;

    let addr = match target.to_socket_addrs().map(|mut a| a.next()) {
        Ok(Some(addr)) => addr,
        _ => {
            eprintln!("cannot resolve {target}");
            return ExitCode::from(PROBE_EXIT_CONNECT);
        }
    };
    let catalog = hdiff::gen::catalog::catalog();
    if catalog.is_empty() {
        eprintln!("catalog is empty");
        return ExitCode::FAILURE;
    }
    // One pooled keep-alive connection serves the whole sweep; a vector
    // the server answers slowly (or not at all) costs one quarter of the
    // shared timeout instead of the full 500ms default.
    let config = NetClientConfig { read_timeout: io_timeout() / 4, ..NetClientConfig::default() };
    let mut pool = ConnPool::with_config(addr, 1, config);

    // Fail fast (with retries) if the target is not accepting at all.
    let mut attempt = 0u32;
    loop {
        match pool.request(b"GET / HTTP/1.1\r\nHost: probe\r\n\r\n") {
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::ConnectionRefused && attempt < RETRIES => {
                attempt += 1;
                let backoff = io_timeout() / 4 * (1 << attempt);
                eprintln!("attempt {attempt} failed ({e}); retrying in {backoff:?}");
                std::thread::sleep(backoff);
            }
            Err(e) if e.kind() == ErrorKind::ConnectionRefused => {
                eprintln!("cannot connect to {target} after {attempt} retries: {e}");
                return ExitCode::from(PROBE_EXIT_CONNECT);
            }
            // Reachable but not speaking framed HTTP to the warmup probe:
            // the sweep itself will classify each vector.
            Err(_) => break,
        }
    }

    println!("probing {target}: full catalog sweep, {PROBE_REPS} reps/vector over one keep-alive connection\n");
    println!("{:<26} {:<6} {:>9} {:>9} {:<8} verdict", "vector", "reps", "p50", "p99", "status");
    let mut divergences = 0usize;
    let mut answered = 0usize;
    let mut silent = 0usize;
    for entry in &catalog {
        for (idx, (request, _note)) in entry.requests.iter().enumerate() {
            let bytes = request.to_bytes();
            let label = if entry.requests.len() == 1 {
                entry.id.to_string()
            } else {
                format!("{}#{}", entry.id, idx)
            };
            let mut rtts_ns: Vec<u64> = Vec::with_capacity(PROBE_REPS);
            let mut last_status: Option<u16> = None;
            for _ in 0..PROBE_REPS {
                let started = Instant::now();
                match pool.request(&bytes) {
                    Ok(parsed) => {
                        rtts_ns
                            .push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                        last_status = Some(parsed.status.as_u16());
                    }
                    // No framed answer (timeout, close, garbage): one
                    // attempt is the observation; repeating would spend
                    // the timeout budget seven more times for nothing.
                    Err(_) => break,
                }
            }
            let baseline = hdiff::servers::interpret(
                &hdiff::servers::ParserProfile::strict("baseline"),
                &bytes,
            );
            let expected = baseline.outcome.status();
            let verdict = match last_status {
                Some(live) if live / 100 == expected / 100 => {
                    answered += 1;
                    "agrees".to_string()
                }
                Some(_) => {
                    answered += 1;
                    divergences += 1;
                    format!("DIVERGES (baseline {expected})")
                }
                None => {
                    silent += 1;
                    "no framed response".to_string()
                }
            };
            println!(
                "{:<26} {:<6} {:>9} {:>9} {:<8} {}",
                label,
                rtts_ns.len(),
                quantile_ms(&mut rtts_ns, 50),
                quantile_ms(&mut rtts_ns, 99),
                last_status.map_or_else(|| "-".to_string(), |s| s.to_string()),
                verdict,
            );
        }
    }
    let stats = pool.stats();
    println!(
        "\n{} vectors answered, {} silent, {} divergent; pool: {} reuse hits, {} connects, {} evictions",
        answered, silent, divergences, stats.hits, stats.misses, stats.evictions
    );
    if divergences > 0 {
        ExitCode::from(PROBE_EXIT_DIVERGENCE)
    } else if answered == 0 {
        eprintln!("no vector produced a framed response before the timeout");
        ExitCode::from(PROBE_EXIT_TIMEOUT)
    } else {
        ExitCode::SUCCESS
    }
}

/// Sweeps the h2 downgrade seed corpus against a live cleartext HTTP/2
/// (prior knowledge) endpoint: each vector is one client connection
/// (write, FIN, read to EOF), and the per-stream response statuses are
/// compared — by status class — against what each modeled front-end
/// profile predicts (200 echo when the request downgrades, the reject
/// status otherwise). A target whose behavior matches no modeled front
/// on some vector is a divergence. Exit codes mirror the h1 probe:
/// 0 = every answered vector matches at least one front,
/// [`PROBE_EXIT_CONNECT`], [`PROBE_EXIT_TIMEOUT`],
/// [`PROBE_EXIT_DIVERGENCE`].
fn probe_live_h2(target: &str) -> ExitCode {
    use hdiff::h2::{encode_client_connection, parse_server_connection, EncodeOptions};
    use hdiff::net::io_timeout;
    use std::io::{Read, Write};
    use std::net::{Shutdown, TcpStream, ToSocketAddrs};

    let addr = match target.to_socket_addrs().map(|mut a| a.next()) {
        Ok(Some(addr)) => addr,
        _ => {
            eprintln!("cannot resolve {target}");
            return ExitCode::from(PROBE_EXIT_CONNECT);
        }
    };
    let fronts = hdiff::servers::fronts();
    let vectors = hdiff::diff::seed_vectors();
    println!("probing {target}: {} h2 downgrade vectors (h2c prior knowledge)\n", vectors.len());
    println!("{:<24} {:<10} verdict", "vector", "statuses");
    let mut answered = 0usize;
    let mut silent = 0usize;
    let mut divergent = 0usize;
    let mut connect_failures = 0usize;
    for vector in &vectors {
        let bytes = encode_client_connection(&vector.requests, &EncodeOptions::default());
        let raw = match TcpStream::connect(addr) {
            Ok(mut stream) => {
                let _ = stream.set_read_timeout(Some(io_timeout()));
                let mut raw = Vec::new();
                if stream.write_all(&bytes).is_ok() {
                    let _ = stream.shutdown(Shutdown::Write);
                    let _ = stream.read_to_end(&mut raw);
                }
                raw
            }
            Err(e) => {
                eprintln!("cannot connect to {target}: {e}");
                connect_failures += 1;
                continue;
            }
        };
        let live: Vec<u16> = match parse_server_connection(&raw) {
            Ok(responses) if !responses.is_empty() => {
                responses.iter().map(|(_, r)| r.status).collect()
            }
            _ => {
                silent += 1;
                println!("{:<24} {:<10} no h2 response frames", vector.id, "-");
                continue;
            }
        };
        answered += 1;
        let class_signature =
            |statuses: &[u16]| -> Vec<u16> { statuses.iter().map(|s| s / 100).collect() };
        let predicted = |front: &hdiff::servers::DowngradeProfile| -> Vec<u16> {
            vector
                .requests
                .iter()
                .map(|r| {
                    let o = front.downgrade(r);
                    if o.h1.is_some() {
                        200
                    } else {
                        o.reject.as_ref().map_or(500, |(status, _)| *status)
                    }
                })
                .collect()
        };
        let matches: Vec<&str> = fronts
            .iter()
            .filter(|f| class_signature(&predicted(f)) == class_signature(&live))
            .map(|f| f.name.as_str())
            .collect();
        let statuses = live.iter().map(u16::to_string).collect::<Vec<_>>().join(",");
        if matches.is_empty() {
            divergent += 1;
            println!("{:<24} {:<10} DIVERGES (matches no modeled front)", vector.id, statuses);
        } else {
            println!("{:<24} {:<10} matches {}", vector.id, statuses, matches.join("/"));
        }
    }
    println!("\n{answered} vectors answered, {silent} silent, {divergent} divergent");
    if connect_failures == vectors.len() {
        ExitCode::from(PROBE_EXIT_CONNECT)
    } else if divergent > 0 {
        ExitCode::from(PROBE_EXIT_DIVERGENCE)
    } else if answered == 0 {
        eprintln!("no vector produced h2 response frames before the timeout");
        ExitCode::from(PROBE_EXIT_TIMEOUT)
    } else {
        ExitCode::SUCCESS
    }
}

/// Formats the `pct`-th percentile of `rtts_ns` (sorting in place) as
/// milliseconds, `-` when no samples arrived.
fn quantile_ms(rtts_ns: &mut [u64], pct: usize) -> String {
    if rtts_ns.is_empty() {
        return "-".to_string();
    }
    rtts_ns.sort_unstable();
    let idx = (rtts_ns.len() * pct / 100).min(rtts_ns.len() - 1);
    format!("{:.3}ms", rtts_ns[idx] as f64 / 1e6)
}

/// Interprets raw request bytes under every product and the baseline.
fn probe(bytes: &[u8]) {
    use hdiff::servers::{interpret, ParserProfile};
    use hdiff::wire::ascii;

    println!("request ({} bytes):", bytes.len());
    println!("  {}\n", ascii::escape_bytes(bytes));
    println!("{:<12} {:<7} {:<22} {:<26} notes", "product", "status", "host", "framing");
    let mut profiles = vec![ParserProfile::strict("baseline")];
    profiles.extend(hdiff::servers::products());
    for p in profiles {
        let i = interpret(&p, bytes);
        println!(
            "{:<12} {:<7} {:<22} {:<26} {}",
            p.name,
            i.outcome.status(),
            i.host.as_deref().map(ascii::escape_bytes).unwrap_or_else(|| "-".into()),
            format!("{:?}", i.framing),
            i.notes.join("; "),
        );
    }
}
