//! HDiff benchmark harness.
//!
//! ```text
//! perfbench --workload <h1-sim|fuzz-streams|h1-tcp-async|all>
//!           [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! `--trace 0` runs the untraced end-to-end measurement of one workload;
//! `--trace 1` runs its traced per-layer pass instead. Either way the
//! last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`, and the exit code is
//! nonzero when an output check failed. `--workload all` runs every
//! workload, each in a fresh process so peak memory is its own.
//! See `perfbench/README.md`.

mod hostspeed;
mod net_tally;
mod output;
mod pin;
mod procfs;
mod rebuild;
mod span;
mod stats;
mod traced;
mod workloads;

use std::process::{Command, ExitCode};

use workloads::Workload;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <h1-sim|fuzz-streams|h1-tcp-async|all> \
         [--seed N] [--seconds N] [--trace 0|1]\n  \
         --seed     input seed (default {}; {} is the held-out seed)\n  \
         --seconds  length of the timed phase (default 10)\n  \
         --trace    0: untraced end-to-end metrics; 1: the traced per-layer pass",
        workloads::DEFAULT_SEED,
        workloads::HELD_OUT_SEED
    )
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut all = false;
    let mut args =
        Args { workload: None, seed: workloads::DEFAULT_SEED, seconds: 10, trace: false };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name == "all" {
                    all = true;
                } else {
                    workload = Some(
                        Workload::parse(&name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
            }
            "--seed" => args.seed = parse_num(&flag, &value()?)?,
            "--seconds" => {
                args.seconds = parse_num(&flag, &value()?)?;
                if args.seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if workload.is_none() && !all {
        return Err(format!("--workload is required\n{}", usage()));
    }
    args.workload = workload;
    Ok(args)
}

fn parse_num(flag: &str, s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("{flag} takes a whole number, not {s:?}"))
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(hostspeed::READING_ARG) {
        println!("{}", hostspeed::read_here());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match pin::pin_to_one_cpu() {
        Some(cpu) => eprintln!("perfbench: pinned to cpu {cpu}"),
        None => eprintln!("perfbench: cpu affinity unavailable, running unpinned"),
    }
    let Some(workload) = args.workload else { return run_all(&args) };

    let result = if args.trace {
        traced::run(workload, args.seed, args.seconds)
    } else {
        workloads::run(workload, args.seed, args.seconds)
    };
    for m in &result.metrics {
        println!("{:<28} {:>16.6} {}", format!("{}.{}", workload.name(), m.name), m.value, m.unit);
    }
    for problem in &result.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!("{}", result.to_json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process and prints each one's
/// metrics; the last line combines them (`correct` only if all were).
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate the harness executable");
        return ExitCode::FAILURE;
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in Workload::ALL {
        let out = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for line in lines {
            println!("{line}");
        }
        correct &= out.status.success() && last.contains("\"correct\":true");
        attempted += json_u64(last, "attempted");
        failed += json_u64(last, "failed");
        if let Some(body) = last.split_once("\"metrics\":{").map(|(_, m)| m.trim_end_matches("}}"))
        {
            if !body.is_empty() {
                metrics.push(format!("\"{}\":{{{body}}}", workload.name()));
            }
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The whole-number value of `"key":N` in a result line (0 if absent).
fn json_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    line.split_once(&pat)
        .map(|(_, rest)| rest.chars().take_while(char::is_ascii_digit).collect::<String>())
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&["--workload", "h1-sim", "--seed", "11", "--seconds", "20", "--trace", "1"])
            .expect("valid");
        assert_eq!(a.workload, Some(Workload::H1Sim));
        assert_eq!((a.seed, a.seconds, a.trace), (11, 20, true));
        let all = parse(&["--workload", "all"]).expect("valid");
        assert_eq!(all.workload, None);
        assert_eq!(all.seed, workloads::DEFAULT_SEED);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "h1-sim", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "h1-sim", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "h1-sim", "--seed"]).is_err());
        assert!(parse(&["--workload", "h1-sim", "--seed", "-1"]).is_err());
    }

    #[test]
    fn reads_counts_from_a_result_line() {
        let line = "{\"correct\":true,\"attempted\":1077,\"failed\":3,\"metrics\":{}}";
        assert_eq!(json_u64(line, "attempted"), 1077);
        assert_eq!(json_u64(line, "failed"), 3);
        assert_eq!(json_u64(line, "missing"), 0);
    }
}
