//! Files cannot fill the name table.
//!
//! Names read from a checkpoint or bundle go into the process-wide,
//! append-only name table, which never shrinks. A file is refused by
//! name once it would take the table past `FILE_NAME_LIMIT`, so a
//! corrupt or hand-made one cannot leave later detection in the same
//! process without room for its names. This file runs in a process of
//! its own because it fills the table up to that limit.

use hdiff::diff::names::FILE_NAME_LIMIT;
use hdiff::diff::{checkpoint, DiffEngine, Name, ReplayBundle};
use hdiff::gen::{catalog, Origin, TestCase};

fn finding(culprits: &[String]) -> String {
    let culprits: Vec<String> = culprits.iter().map(|c| format!("{c:?}")).collect();
    format!(
        r#"{{"class":"HRS","uuid":1,"origin":"catalog:x","front":null,"back":null,"culprits":[{}],"evidence":"e"}}"#,
        culprits.join(",")
    )
}

fn bundle(findings: &[String]) -> String {
    format!(
        r#"{{"version":1,"name":"n","description":"d","uuid":1,"origin":"catalog:x","request_hex":"","fault":null,"findings":[{}],"digests":[]}}"#,
        findings.join(",")
    )
}

fn refused(err: std::io::Error) -> bool {
    err.to_string().contains(&format!("files may fill the name table only up to {FILE_NAME_LIMIT}"))
}

#[test]
fn a_file_naming_too_many_culprits_fails_to_load_and_detection_keeps_room() {
    // More distinct culprits than the limit, two per finding.
    let many: Vec<String> = (0..FILE_NAME_LIMIT / 2 + 1)
        .map(|i| finding(&[format!("culprit-{i}-a"), format!("culprit-{i}-b")]))
        .collect();
    let err = ReplayBundle::from_json(bundle(&many).as_bytes()).unwrap_err();
    assert!(refused(err));

    // The table is full for files now: a checkpoint naming a new culprit
    // is refused too, while one naming a known culprit still loads.
    let dir = std::env::temp_dir().join(format!("hdiff-name-bound-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("checkpoint.json");
    let checkpoint = |culprit: &str| {
        format!(
            r#"{{"version":1,"generation":1,"completed":[{{"uuid":1,"replayed":false,"retries":0,"backoff_units":0,"quarantined":false,"error":null,"findings":[{}],"degradations":[]}}]}}"#,
            finding(&[culprit.to_string()])
        )
    };
    std::fs::write(&path, checkpoint("a-culprit-past-the-limit")).unwrap();
    assert!(refused(checkpoint::load(&path).unwrap_err()));
    std::fs::write(&path, checkpoint("culprit-0-a")).unwrap();
    let loaded = checkpoint::load(&path).unwrap();
    assert_eq!(loaded[&1].findings[0].culprits.iter().next().unwrap(), "culprit-0-a");
    std::fs::remove_dir_all(&dir).ok();

    // The program still names new things: detection over the Table II
    // catalog interns its products and finds what it always found.
    let fresh = Name::intern("a-name-the-program-adds-later");
    assert_eq!(fresh.as_str(), "a-name-the-program-adds-later");
    let mut cases = Vec::new();
    for entry in catalog::catalog() {
        for (request, note) in entry.requests {
            cases.push(TestCase {
                uuid: cases.len() as u64 + 1,
                request,
                assertions: Vec::new(),
                origin: Origin::Catalog(entry.id.to_string()),
                note,
            });
        }
    }
    let summary = DiffEngine::standard().run(&cases);
    assert_eq!(summary.findings.len(), 279);
}
