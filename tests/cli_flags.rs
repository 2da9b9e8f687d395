//! The CLI rejects every flag it cannot honour: a flag no command knows,
//! and one the command (or its `--protocol` workload) does not use, both
//! exit 1 with an error naming the flag, before anything runs or writes.

use std::path::Path;
use std::process::{Command, Output};

#[test]
fn unused_and_unknown_flags_exit_1_naming_the_flag() {
    let cases: [(&[&str], &str); 13] = [
        (&["run", "--quick", "--no-such-flag", "7"], "unknown flag --no-such-flag"),
        (&["run", "--frontend", "h2"], "unknown flag --frontend"),
        (&["replay", "--all", "tests/golden"], "unknown flag --all"),
        (&["run", "--protocol", "h2", "--fault-rate", "40"], "--fault-rate"),
        (&["run", "--protocol", "cookie", "--shards", "2"], "--shards"),
        (&["run", "--protocol", "h2", "--checkpoint-every", "4"], "--checkpoint-every"),
        (&["fuzz", "--iters", "1", "--summary-out", "F"], "--summary-out"),
        (&["run", "--quick", "--promote-dir", "D"], "--promote-dir"),
        (&["stats", "--protocol", "cookie"], "--protocol cookie"),
        (&["run", "--protocol", "cookie", "--quick"], "--quick"),
        // Fleet flags without a fleet would be dropped silently.
        (&["run", "--quick", "--fleet-chaos", "50"], "--fleet-chaos needs --shards N (N > 0)"),
        (&["run", "--quick", "--checkpoint-every", "3"], "--checkpoint-every needs --shards N"),
        (&["run", "--quick", "--fleet-dir", "D"], "--fleet-dir needs --shards N (N > 0)"),
    ];
    for (i, (args, named)) in cases.iter().enumerate() {
        // Each command runs in an empty directory, so a file it creates
        // (`F`, `D` or anything else) shows up there.
        let dir = std::env::temp_dir().join(format!("hdiff-cli-flags-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = hdiff(args, &dir);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before rejecting the flag");
        let created: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert!(created.is_empty(), "{args:?} created {created:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

fn hdiff(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hdiff")).args(args).current_dir(dir).output().unwrap()
}

#[test]
fn seed_workloads_write_the_summary_and_trace_that_report_reads() {
    let dir = std::env::temp_dir().join(format!("hdiff-cli-sinks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let args = ["run", "--protocol", "cookie", "--summary-out", "s.json", "--trace-out", "t.jsonl"];
    let plain = hdiff(&["run", "--protocol", "cookie"], &dir);
    let out = hdiff(&args, &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.stdout, plain.stdout, "the sinks leave stdout unchanged");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("summary written to s.json"), "{stderr}");
    assert!(stderr.contains("trace written to t.jsonl"), "{stderr}");
    for file in ["s.json", "t.jsonl"] {
        let report = hdiff(&["report", file], &dir);
        assert_eq!(report.status.code(), Some(0), "report {file}");
        let text = String::from_utf8_lossy(&report.stdout);
        let case_span = text.lines().find(|l| l.split_whitespace().next() == Some("case"));
        let count = case_span.and_then(|l| l.split_whitespace().nth(1));
        assert_eq!(count, Some("13"), "report {file}: one `case` span per seed case\n{text}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
