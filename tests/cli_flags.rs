//! The CLI rejects every flag it cannot honour: a flag no command knows,
//! and one the command (or its `--protocol` workload) does not use, both
//! exit 1 with an error naming the flag, before anything runs or writes.

use std::process::Command;

#[test]
fn unused_and_unknown_flags_exit_1_naming_the_flag() {
    let cases: [(&[&str], &str); 9] = [
        (&["run", "--quick", "--no-such-flag", "7"], "unknown flag --no-such-flag"),
        (&["run", "--frontend", "h2"], "unknown flag --frontend"),
        (&["run", "--protocol", "h2", "--fault-rate", "40"], "--fault-rate"),
        (&["run", "--protocol", "cookie", "--shards", "2"], "--shards"),
        (&["run", "--protocol", "h2", "--summary-out", "F"], "--summary-out"),
        (&["fuzz", "--iters", "1", "--summary-out", "F"], "--summary-out"),
        (&["run", "--quick", "--promote-dir", "D"], "--promote-dir"),
        (&["stats", "--protocol", "cookie"], "--protocol cookie"),
        (&["run", "--protocol", "cookie", "--quick"], "--quick"),
    ];
    for (i, (args, named)) in cases.iter().enumerate() {
        // Each command runs in an empty directory, so a file it creates
        // (`F`, `D` or anything else) shows up there.
        let dir = std::env::temp_dir().join(format!("hdiff-cli-flags-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_hdiff"))
            .args(*args)
            .current_dir(&dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed before rejecting the flag");
        let created: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert!(created.is_empty(), "{args:?} created {created:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
