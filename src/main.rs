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
//! hdiff probe <host:port>    sweep the Table II catalog against a live
//!                            server, one connection per request
//! hdiff replay <p>           re-execute one replay bundle or a directory
//!                            of them; diff verdicts + behavior digests
//! hdiff golden regen <dir>   rebuild the minimized golden bundle corpus
//! hdiff run --protocol h2    downgrade-desync campaign: h2 seed vectors
//!                            through the downgrade front ends
//! hdiff run --protocol cookie  RFC 6265 cookie workload
//! hdiff report <path>        profile a summary JSON or JSONL trace that
//!                            any `run` workload wrote
//! hdiff probe --protocol h2 <host:port>   sweep the h2 seed corpus
//!                            against a live h2c endpoint
//! hdiff golden regen-h2 <dir> rebuild the golden h2 downgrade bundles
//! hdiff run --shards N       run the campaign through the crash-tolerant
//!                            sharded fleet (supervisor + N workers)
//! hdiff worker ...           internal: one shard of a fleet campaign
//! ```
//!
//! Every `--flag` is checked against the command (and, for `run`, the
//! `--protocol` workload) before anything runs: a flag no command knows,
//! or one the command cannot honour, exits 1 with an error naming it.
//! So does a fleet flag (`--fleet-chaos`, `--checkpoint-every`,
//! `--fleet-dir`) without `--shards N` (N > 0). Every `run` workload
//! writes `--summary-out` and `--trace-out` the same way.

use std::path::Path;
use std::process::ExitCode;

use hdiff::diff::{Protocol, Transport};
use hdiff::report;
use hdiff::{HDiff, HdiffConfig};

/// Every flag the CLI knows, and whether it takes a value.
const FLAGS: &[(&str, bool)] = &[
    ("--quick", false),
    ("--threads", true),
    ("--fault-rate", true),
    ("--coverage-guided", false),
    ("--transport", true),
    ("--protocol", true),
    ("--no-telemetry", false),
    ("--shards", true),
    ("--fleet-chaos", true),
    ("--checkpoint-every", true),
    ("--trace-out", true),
    ("--summary-out", true),
    ("--fleet-dir", true),
    ("--csv", false),
    ("--promote-dir", true),
    ("--min-classes", true),
    ("--seed", true),
    ("--seconds", true),
    ("--iters", true),
    ("--seed-corpus", true),
    ("--min-novel", true),
    ("--shard", true),
    ("--checkpoint", true),
    ("--config", true),
    ("--corpus", true),
    ("--min-generation", true),
    ("--alive-interval-ms", true),
    ("--chaos-pause-ms", true),
    ("--stall", false),
];

/// The flags of the full HTTP/1.1 pipeline, which every report command
/// runs.
const PIPELINE_FLAGS: &[&str] = &[
    "--quick",
    "--threads",
    "--fault-rate",
    "--coverage-guided",
    "--transport",
    "--protocol",
    "--no-telemetry",
    "--shards",
    "--fleet-chaos",
    "--checkpoint-every",
    "--trace-out",
    "--summary-out",
    "--fleet-dir",
];

/// The flags of a seed-corpus workload (`run --protocol h2|cookie`).
const PROTOCOL_FLAGS: &[&str] = &[
    "--threads",
    "--transport",
    "--protocol",
    "--promote-dir",
    "--min-classes",
    "--no-telemetry",
    "--trace-out",
    "--summary-out",
];

/// The flags that configure a sharded fleet, which only `--shards N`
/// (N > 0) runs.
const FLEET_FLAGS: &[&str] = &["--fleet-chaos", "--checkpoint-every", "--fleet-dir"];

/// The workloads `--protocol` names.
const WORKLOADS: &[&str] = &["http", "h2", "cookie"];

/// Rejects every `--flag` in `args` that `command`, running `workload`,
/// does not use, and a `--protocol` workload the command cannot run.
/// Unknown commands pass, so the dispatch can report them.
fn check_flags(args: &[String], command: &str, workload: &str) -> Result<(), String> {
    let (allowed, workloads): (&[&[&str]], &[&str]) = match command {
        "run" if workload == "http" => (&[PIPELINE_FLAGS], WORKLOADS),
        "run" => (&[PROTOCOL_FLAGS], WORKLOADS),
        "stats" | "table1" | "table2" | "figure7" | "exploits" => (&[PIPELINE_FLAGS], &["http"]),
        "findings" => (&[PIPELINE_FLAGS, &["--csv"]], &["http"]),
        "probe" => (&[&["--protocol"]], &["http", "h2"]),
        "fuzz" => (
            &[&[
                "--seed",
                "--seconds",
                "--iters",
                "--threads",
                "--transport",
                "--promote-dir",
                "--seed-corpus",
                "--min-novel",
            ]],
            &["http"],
        ),
        "replay" => (&[&["--transport"]], &["http"]),
        "worker" => (
            &[&[
                "--shard",
                "--checkpoint",
                "--config",
                "--corpus",
                "--min-generation",
                "--alive-interval-ms",
                "--chaos-pause-ms",
                "--stall",
            ]],
            &["http"],
        ),
        "report" | "golden" | "--help" | "-h" | "help" => (&[], &["http"]),
        _ => return Ok(()),
    };
    let scope =
        if command == "run" { format!("the {workload} workload") } else { format!("`{command}`") };
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            continue;
        }
        let Some(&(_, takes_value)) = FLAGS.iter().find(|(flag, _)| flag == arg) else {
            return Err(format!("unknown flag {arg}"));
        };
        if !allowed.iter().any(|flags| flags.contains(&arg.as_str())) {
            return Err(format!("{arg} is not supported by {scope}"));
        }
        if takes_value {
            rest.next();
        }
    }
    if !workloads.contains(&workload) {
        return Err(format!("--protocol {workload} is not supported by {scope}"));
    }
    Ok(())
}

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
    match run_cli(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses and checks every flag, then runs the command. An `Err` is a
/// usage error: printed to stderr, exit 1.
fn run_cli(args: &[String]) -> Result<ExitCode, String> {
    let command = args.first().map(String::as_str).unwrap_or("run");
    let workload = match flag_value::<String>(args, "--protocol")? {
        Some(name) if WORKLOADS.contains(&name.as_str()) => name,
        Some(name) => {
            return Err(format!(
                "--protocol: unknown workload {name:?} (expected: http, h2, cookie)"
            ))
        }
        None => "http".to_string(),
    };
    check_flags(args, command, &workload)?;
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let percent = |flag: &str| -> Result<Option<u8>, String> {
        match flag_value::<u8>(args, flag)? {
            Some(pct) if pct > 100 => Err(format!("{flag}: {pct} is not a percentage")),
            pct => Ok(pct),
        }
    };
    let mut config = if has("--quick") { HdiffConfig::quick() } else { HdiffConfig::full() };
    config.protocol = workload;
    if let Some(n) = flag_value(args, "--threads")? {
        config.threads = n;
    }
    if let Some(pct) = percent("--fault-rate")? {
        config.fault_rate = pct;
    }
    config.coverage_guided |= has("--coverage-guided");
    let transport = match flag_value::<String>(args, "--transport")? {
        Some(raw) => Some(Transport::parse(&raw).map_err(|e| format!("--transport: {e}"))?),
        None => None,
    };
    if let Some(t) = transport {
        config.transport = t;
    }
    config.telemetry &= !has("--no-telemetry");
    if let Some(n) = flag_value(args, "--shards")? {
        config.shards = n;
    }
    if let Some(pct) = percent("--fleet-chaos")? {
        config.fleet_chaos = pct;
    }
    match flag_value::<usize>(args, "--checkpoint-every")? {
        Some(0) => return Err("--checkpoint-every: must be at least 1".to_string()),
        Some(n) => config.checkpoint_every = n,
        None => {}
    }
    if config.shards == 0 {
        if let Some(flag) = FLEET_FLAGS.iter().find(|flag| has(flag)) {
            return Err(format!("{flag} needs --shards N (N > 0)"));
        }
    }
    let sinks = TelemetrySinks {
        trace_out: flag_value(args, "--trace-out")?,
        summary_out: flag_value(args, "--summary-out")?,
        fleet_dir: flag_value(args, "--fleet-dir")?,
    };

    Ok(match command {
        "worker" => run_worker_cli(args),
        "run" if config.protocol != "http" => run_protocol_cli(args, &config, &sinks)?,
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
                return Err("usage: hdiff report <summary.json | trace.jsonl>".to_string());
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
            if has("--csv") {
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
                .find(|(i, a)| !a.starts_with('-') && args[i - 1] != "--protocol")
                .map(|(_, a)| a)
            else {
                return Err(
                    "usage: hdiff probe [--protocol h2] <raw-request-file | host:port>".to_string()
                );
            };
            if config.protocol == "h2" {
                if Path::new(target).exists() || !target.contains(':') {
                    return Err(
                        "--protocol h2 probes a live host:port (h2c prior knowledge)".to_string()
                    );
                }
                return Ok(probe_live_h2(target));
            }
            if !Path::new(target).exists() && target.contains(':') {
                return Ok(probe_live(target));
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
        "fuzz" => run_fuzz_cli(args, transport),
        "replay" => {
            let Some(path) = args
                .iter()
                .enumerate()
                .skip(1)
                .find(|(i, a)| !a.starts_with('-') && args[i - 1] != "--transport")
                .map(|(_, a)| a)
            else {
                return Err(
                    "usage: hdiff replay [--transport sim|tcp-async] <bundle.json | directory>"
                        .to_string(),
                );
            };
            replay(Path::new(path), transport)
        }
        "golden" => {
            let (Some(sub), Some(dir)) = (args.get(1), args.get(2)) else {
                return Err("usage: hdiff golden <regen | regen-h2> <directory>".to_string());
            };
            match sub.as_str() {
                "regen" => golden_regen(Path::new(dir)),
                "regen-h2" => golden_regen_h2(Path::new(dir)),
                _ => {
                    return Err(format!(
                        "unknown golden subcommand {sub:?} (expected: regen, regen-h2)"
                    ))
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
    })
}

/// Where campaign telemetry goes besides the summary itself, plus the
/// fleet working directory when one was requested.
struct TelemetrySinks {
    trace_out: Option<String>,
    summary_out: Option<String>,
    fleet_dir: Option<String>,
}

/// Runs a campaign under the telemetry sinks, for every `run` workload:
/// `--no-telemetry` (`telemetry` false) records nothing, `--trace-out`
/// turns on raw event capture. Afterwards `--summary-out` writes the
/// machine-readable summary and `--trace-out` the replay-stable JSONL
/// event log, from the [`RunSummary`](hdiff::diff::RunSummary) that
/// `summary` finds in the result (none when the campaign failed).
fn record_campaign<R>(
    telemetry: bool,
    sinks: &TelemetrySinks,
    campaign: impl FnOnce() -> R,
    summary: impl FnOnce(&R) -> Option<&hdiff::diff::RunSummary>,
) -> R {
    hdiff::obs::set_enabled(telemetry);
    if sinks.trace_out.is_some() {
        hdiff::obs::set_trace(true);
    }
    let r = campaign();
    let Some(summary) = summary(&r) else { return r };
    if let Some(path) = &sinks.summary_out {
        match hdiff::diff::write_summary(Path::new(path), summary) {
            Ok(()) => eprintln!("summary written to {path}"),
            Err(e) => eprintln!("cannot write summary to {path}: {e}"),
        }
    }
    if let Some(path) = &sinks.trace_out {
        match hdiff::diff::write_trace(Path::new(path), &summary.telemetry.merged) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => eprintln!("cannot write trace to {path}: {e}"),
        }
    }
    r
}

/// Runs the pipeline honoring the telemetry sinks ([`record_campaign`]).
/// With `--shards N` (N > 0) the campaign runs through the sharded fleet
/// fabric instead of in-process.
fn run_pipeline(config: HdiffConfig, sinks: &TelemetrySinks) -> hdiff::PipelineReport {
    let telemetry = config.telemetry;
    let pipeline = || {
        if config.shards == 0 {
            return HDiff::new(config).run();
        }
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
    };
    record_campaign(telemetry, sinks, pipeline, |r| Some(&r.summary))
}

fn print_help() {
    println!(
        "hdiff — semantic gap attack discovery (DSN 2022 reproduction)\n\n\
         A flag the command (or its --protocol workload) does not use is an\n\
         error, never silently ignored.\n\n\
         pipeline options (run, stats, table1, table2, figure7, exploits,\n\
         findings):\n\
         \x20 --quick          small corpus for fast runs\n\
         \x20 --threads N      worker threads (0 = one per core)\n\
         \x20 --fault-rate N   inject faults into N% of hop decisions\n\
         \x20 --transport T    run cases over `sim` (in-process, default) or\n\
         \x20                  `tcp-async` (loopback sockets on one epoll\n\
         \x20                  event loop, Linux x86_64/aarch64 only)\n\
         \x20 --protocol P     campaign workload: `http` (default, the full\n\
         \x20                  pipeline); `run` also takes `h2` and `cookie`\n\
         \x20 --no-telemetry   skip span/counter/histogram collection\n\
         \x20 --summary-out F  write the machine-readable summary JSON to F\n\
         \x20 --trace-out F    record raw events, write JSONL trace to F\n\
         \x20 --coverage-guided  bias ABNF generation toward cold alternations\n\n\
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
         \x20 probe <host:port>   sweep the Table II catalog against a live\n\
         \x20                  server, one connection per request\n\
         \x20 probe --protocol h2 <host:port>  sweep the h2 downgrade seed\n\
         \x20                  corpus against a live h2c endpoint\n\
         \x20 replay [--transport T] <p>  re-execute replay bundle(s),\n\
         \x20                  diff verdicts\n\
         \x20 golden regen <dir>  rebuild the minimized golden corpus\n\
         \x20 golden regen-h2 <dir>  rebuild the golden h2 downgrade bundles\n\
         \x20 run --protocol h2      downgrade-desync campaign over the h2 seed\n\
         \x20                  vectors (HTTP/2 into the downgrade front ends)\n\
         \x20 run --protocol cookie  cookie workload campaign over the RFC\n\
         \x20                  6265 profile matrix (sim transport only)\n\
         \x20                  both take only [--threads N] [--transport T]\n\
         \x20                  [--promote-dir D] [--min-classes N]\n\
         \x20                  [--no-telemetry] [--summary-out F]\n\
         \x20                  [--trace-out F]\n\
         \x20 fuzz [...]       coverage-guided fuzzing over connection streams:\n\
         \x20                  [--seconds N | --iters N] [--seed S] [--threads N]\n\
         \x20                  [--transport T] [--promote-dir D] [--seed-corpus D]\n\
         \x20                  [--min-novel N]\n\n\
         fleet options (sharded multi-process pipeline campaigns; the\n\
         last three need --shards N with N > 0):\n\
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
fn replay(path: &Path, transport: Option<Transport>) -> ExitCode {
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
                // recorded them, classic bundles through the h1/h2
                // machinery; both honour a --transport override.
                let report = if let Some(name) = bundle.protocol.clone() {
                    match protocol_by_name(&name, transport.unwrap_or(Transport::Sim)) {
                        Ok(proto) => bundle.replay_protocol(proto.as_ref()),
                        Err(e) => {
                            eprintln!("cannot replay {}: {e}", p.display());
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
fn run_fuzz_cli(args: &[String], transport: Option<Transport>) -> ExitCode {
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

/// Resolves a seed-corpus workload over `transport`: `h2` (the downgrade
/// fronts, in-process or over loopback sockets) or `cookie` (in-process
/// only). `"http"` is not listed: it runs through the full pipeline
/// (analyzer, generator, fault campaign), not the generic driver.
fn protocol_by_name(name: &str, transport: Transport) -> Result<Box<dyn Protocol>, String> {
    match name {
        "h2" => match hdiff::diff::DowngradeProtocol::new(transport) {
            Ok(p) => Ok(Box::new(p)),
            Err(e) => Err(format!("h2 front testbed unavailable: {e}")),
        },
        "cookie" if transport == Transport::Sim => {
            Ok(Box::new(hdiff::cookie::CookieProtocol::standard()))
        }
        "cookie" => Err("--protocol cookie runs over --transport sim".to_string()),
        _ => Err(format!("unknown protocol workload {name:?}")),
    }
}

/// `hdiff run --protocol h2|cookie` — a seed-corpus campaign through the
/// campaign driver: the workload's seed corpus fans out over its
/// behavioral matrix, findings merge deterministically, and with
/// `--promote-dir` the first finding of each divergence class is
/// minimized and frozen as a replay bundle. `h2` encodes every seed
/// vector as an h2c client connection, has the three front-end profiles
/// translate it to HTTP/1.1 (in-process, or over loopback sockets with
/// `--transport tcp-async`), and re-interprets the result on the back-end
/// matrix. The telemetry sinks work as for the h1 pipeline
/// ([`record_campaign`]). With `--min-classes N`, exits nonzero unless at
/// least N distinct classes were detected (the CI gate).
fn run_protocol_cli(
    args: &[String],
    config: &HdiffConfig,
    sinks: &TelemetrySinks,
) -> Result<ExitCode, String> {
    use hdiff::diff::{run_protocol_campaign, ProtocolCampaignOptions};

    let promote_dir = flag_value::<String>(args, "--promote-dir")?;
    let min_classes = flag_value::<usize>(args, "--min-classes")?.unwrap_or(0);
    let protocol = protocol_by_name(&config.protocol, config.transport)?;
    let name = protocol.name();
    let opts = ProtocolCampaignOptions {
        threads: config.threads,
        promote_dir: promote_dir.map(Into::into),
    };
    let campaign = || run_protocol_campaign(protocol.as_ref(), &opts);
    let summary =
        record_campaign(config.telemetry, sinks, campaign, |r| r.as_ref().ok().map(|s| &s.run))
            .map_err(|e| format!("{name} campaign failed: {e}"))?;
    let run = &summary.run;
    println!("== {name} campaign ({} transport) ==", config.transport);
    println!("cases    : {}", run.cases);
    println!("findings : {}", run.findings.len());
    for f in &run.findings {
        println!("  {f}");
    }
    println!("classes  : {} ({})", summary.classes.len(), summary.classes.join(", "));
    if !run.quarantined.is_empty() {
        let uuids: Vec<String> = run.quarantined.iter().map(u64::to_string).collect();
        println!("quarantined: {} ({})", uuids.len(), uuids.join(", "));
    }
    for p in &summary.promoted {
        println!("promoted : {}", p.display());
    }
    if summary.classes.len() < min_classes {
        return Err(format!(
            "{name} campaign detected {} class(es), expected at least {min_classes}",
            summary.classes.len()
        ));
    }
    Ok(ExitCode::SUCCESS)
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
/// `hdiff probe <host:port>` exit code: the server accepted but no vector
/// drew a response before the read timeout.
const PROBE_EXIT_TIMEOUT: u8 = 3;
/// `hdiff probe <host:port>` exit code: the live server's response status
/// class diverges from the RFC-strict baseline's interpretation.
const PROBE_EXIT_DIVERGENCE: u8 = 4;

/// Repetitions per catalog vector in the live-probe sweep.
const PROBE_REPS: usize = 8;

/// Connect failures the first exchange retries, with doubling backoff.
const PROBE_RETRIES: u32 = 3;

/// The target of a live probe, reached through the reactor. Every
/// exchange opens a fresh connection, writes one request stream, sends
/// FIN and reads to EOF (or the read deadline): the exchange every
/// tcp-async campaign case makes, so no repetition reads bytes an
/// earlier request left on a connection.
struct LiveTarget {
    addr: std::net::SocketAddr,
    reactor: hdiff::net::Reactor,
    /// Whether an exchange has connected yet.
    reached: bool,
}

impl LiveTarget {
    /// Resolves `target` (exit 2 when it does not resolve) and starts
    /// the reactor.
    fn open(target: &str) -> Result<LiveTarget, ExitCode> {
        use std::net::ToSocketAddrs;

        let Ok(Some(addr)) = target.to_socket_addrs().map(|mut a| a.next()) else {
            eprintln!("cannot resolve {target}");
            return Err(ExitCode::from(PROBE_EXIT_CONNECT));
        };
        let reactor = hdiff::net::Reactor::spawn().map_err(|e| {
            eprintln!("cannot probe {target}: {e}");
            ExitCode::FAILURE
        })?;
        Ok(LiveTarget { addr, reactor, reached: false })
    }

    /// Exchanges `bytes` with the target. The first exchange is the
    /// reachability check: while it cannot connect it is retried with
    /// backoff, and after [`PROBE_RETRIES`] retries the probe exits 2.
    fn exchange(&mut self, bytes: &[u8]) -> Result<hdiff::net::ExchangeOutput, ExitCode> {
        use hdiff::net::{io_timeout, ExchangeSpec, Job, JobOutput, NetErrorKind, SendMode};

        let mut attempt = 0u32;
        loop {
            let spec = ExchangeSpec {
                addr: self.addr,
                bytes: bytes.to_vec(),
                mode: SendMode::Whole,
                read_timeout: io_timeout() / 4,
                pair: None,
                fault: None,
                warm: false,
            };
            let out = match self.reactor.run(vec![Job::Exchange(spec)]).pop() {
                Some(JobOutput::Exchange(out)) => out,
                _ => hdiff::net::ExchangeOutput::default(),
            };
            match out.error.as_ref().filter(|e| e.kind == NetErrorKind::Connect) {
                Some(e) if !self.reached && attempt < PROBE_RETRIES => {
                    attempt += 1;
                    let backoff = io_timeout() / 4 * (1 << attempt);
                    eprintln!("attempt {attempt} failed ({e}); retrying in {backoff:?}");
                    std::thread::sleep(backoff);
                }
                Some(e) if !self.reached => {
                    eprintln!("cannot connect to {} after {attempt} retries: {e}", self.addr);
                    return Err(ExitCode::from(PROBE_EXIT_CONNECT));
                }
                _ => {
                    self.reached = true;
                    return Ok(out);
                }
            }
        }
    }
}

/// What a live sweep saw, vector by vector.
#[derive(Default)]
struct ProbeTally {
    answered: usize,
    silent: usize,
    divergent: usize,
}

impl ProbeTally {
    /// Prints the totals and maps them to the exit code: 0 = every
    /// answered vector agrees, [`PROBE_EXIT_DIVERGENCE`] when one does
    /// not, [`PROBE_EXIT_TIMEOUT`] when none was answered.
    fn finish(&self) -> ExitCode {
        println!(
            "\n{} vectors answered, {} silent, {} divergent",
            self.answered, self.silent, self.divergent
        );
        if self.divergent > 0 {
            ExitCode::from(PROBE_EXIT_DIVERGENCE)
        } else if self.answered == 0 {
            eprintln!("no vector drew a response before the read timeout");
            ExitCode::from(PROBE_EXIT_TIMEOUT)
        } else {
            ExitCode::SUCCESS
        }
    }
}

/// Sweeps the entire Table II catalog against a live `host:port`,
/// [`PROBE_REPS`] exchanges per vector, and reports each vector's median
/// RTT plus agreement with the RFC-strict baseline's interpretation.
fn probe_live(target: &str) -> ExitCode {
    let mut server = match LiveTarget::open(target) {
        Ok(server) => server,
        Err(code) => return code,
    };
    let baseline = hdiff::servers::ParserProfile::strict("baseline");
    println!(
        "probing {target}: full catalog sweep, {PROBE_REPS} reps/vector, \
         one connection per request\n"
    );
    println!("{:<26} {:<6} {:>9} {:<8} verdict", "vector", "reps", "median", "status");
    let mut tally = ProbeTally::default();
    for entry in &hdiff::gen::catalog::catalog() {
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
                let out = match server.exchange(&bytes) {
                    Ok(out) => out,
                    Err(code) => return code,
                };
                match hdiff::wire::parse_response(&out.response) {
                    Ok(parsed) => {
                        rtts_ns.push(out.rtt_ns);
                        last_status = Some(parsed.status.as_u16());
                    }
                    // No framed answer (timeout, close, garbage): one
                    // attempt is the observation; repeating would spend
                    // the read timeout seven more times for nothing.
                    Err(_) => break,
                }
            }
            let expected = hdiff::servers::interpret(&baseline, &bytes).outcome.status();
            let verdict = match last_status {
                Some(live) if live / 100 == expected / 100 => {
                    tally.answered += 1;
                    "agrees".to_string()
                }
                Some(_) => {
                    tally.answered += 1;
                    tally.divergent += 1;
                    format!("DIVERGES (baseline {expected})")
                }
                None => {
                    tally.silent += 1;
                    "no framed response".to_string()
                }
            };
            println!(
                "{:<26} {:<6} {:>9} {:<8} {}",
                label,
                rtts_ns.len(),
                median_ms(&mut rtts_ns),
                last_status.map_or_else(|| "-".to_string(), |s| s.to_string()),
                verdict,
            );
        }
    }
    tally.finish()
}

/// Sweeps the h2 downgrade seed corpus against a live cleartext HTTP/2
/// (prior knowledge) endpoint, one exchange per vector, and compares the
/// per-stream response statuses, by status class, with what each modeled
/// front-end profile predicts (200 echo when the request downgrades, the
/// reject status otherwise). A target whose behavior matches no modeled
/// front on some vector is a divergence. Exit codes as the h1 probe.
fn probe_live_h2(target: &str) -> ExitCode {
    use hdiff::h2::{encode_client_connection, parse_server_connection, EncodeOptions};

    let mut server = match LiveTarget::open(target) {
        Ok(server) => server,
        Err(code) => return code,
    };
    let fronts = hdiff::servers::fronts();
    let vectors = hdiff::diff::seed_vectors();
    println!("probing {target}: {} h2 downgrade vectors (h2c prior knowledge)\n", vectors.len());
    println!("{:<24} {:<10} verdict", "vector", "statuses");
    let mut tally = ProbeTally::default();
    for vector in &vectors {
        let bytes = encode_client_connection(&vector.requests, &EncodeOptions::default());
        let out = match server.exchange(&bytes) {
            Ok(out) => out,
            Err(code) => return code,
        };
        let live: Vec<u16> = match parse_server_connection(&out.response) {
            Ok(responses) if !responses.is_empty() => {
                responses.iter().map(|(_, r)| r.status).collect()
            }
            _ => {
                tally.silent += 1;
                println!("{:<24} {:<10} no h2 response frames", vector.id, "-");
                continue;
            }
        };
        tally.answered += 1;
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
            tally.divergent += 1;
            println!("{:<24} {:<10} DIVERGES (matches no modeled front)", vector.id, statuses);
        } else {
            println!("{:<24} {:<10} matches {}", vector.id, statuses, matches.join("/"));
        }
    }
    tally.finish()
}

/// Formats the median of `rtts_ns` (sorting in place) as milliseconds,
/// `-` when no samples arrived.
fn median_ms(rtts_ns: &mut [u64]) -> String {
    if rtts_ns.is_empty() {
        return "-".to_string();
    }
    rtts_ns.sort_unstable();
    format!("{:.3}ms", rtts_ns[rtts_ns.len() / 2] as f64 / 1e6)
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
        let notes: Vec<String> = i.notes.iter().map(ToString::to_string).collect();
        println!(
            "{:<12} {:<7} {:<22} {:<26} {}",
            p.name,
            i.outcome.status(),
            i.host.as_deref().map(ascii::escape_bytes).unwrap_or_else(|| "-".into()),
            format!("{:?}", i.framing),
            notes.join("; "),
        );
    }
}
