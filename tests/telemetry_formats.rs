//! The persisted telemetry formats, pinned by files an earlier build
//! wrote: a `--summary-out` JSON and a `--trace-out` JSONL from
//! `hdiff stats --quick`, the `hdiff report` text for each, and a
//! checkpoint of the Table II catalog interrupted after its first chunk.
//! Recording may change how it keeps telemetry in memory; these files
//! must still read, render and resume exactly as they did.

use std::path::Path;

use hdiff::diff::{load_report, DiffEngine};
use hdiff::gen::{catalog, Origin, TestCase};
use hdiff::obs::render_report;

const FIXTURES: &str = "tests/telemetry-fixtures";

fn catalog_cases() -> Vec<TestCase> {
    let mut out = Vec::new();
    let mut uuid = 1u64;
    for entry in catalog::catalog() {
        for (req, note) in &entry.requests {
            out.push(TestCase {
                uuid,
                request: req.clone(),
                assertions: Vec::new(),
                origin: Origin::Catalog(entry.id.to_string()),
                note: note.clone(),
            });
            uuid += 1;
        }
    }
    out
}

/// `hdiff report <input>` as it printed for the pinned file (the CLI
/// prints the rendering plus a newline). The path is relative to the
/// package root, as it was when the text was captured, because the
/// report's title names it.
fn assert_report_matches(input: &str, expected: &str) {
    let input = Path::new(FIXTURES).join(input);
    let expected = std::fs::read_to_string(Path::new(FIXTURES).join(expected)).unwrap();
    let rendered = format!("{}\n", render_report(&load_report(&input).unwrap()));
    assert_eq!(rendered, expected, "report of {} drifted", input.display());
}

#[test]
fn a_pinned_summary_renders_byte_for_byte() {
    assert_report_matches("quick-summary.json", "quick-summary.report.txt");
}

#[test]
fn a_pinned_trace_renders_byte_for_byte() {
    assert_report_matches("quick-trace.jsonl", "quick-trace.report.txt");
}

#[test]
fn a_pinned_checkpoint_resumes_to_the_uninterrupted_summary() {
    let cases = catalog_cases();
    let mut full = DiffEngine::standard();
    full.threads = 1;
    let full = full.run(&cases);

    // Resuming rewrites the checkpoint, so work on a copy.
    let dir = std::env::temp_dir().join(format!("hdiff-pinned-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.ckpt");
    std::fs::copy(Path::new(FIXTURES).join("catalog-partial.ckpt"), &path).unwrap();
    let pinned = hdiff::diff::checkpoint::load(&path).unwrap();
    assert_eq!(pinned.len(), 4, "the pinned file holds the first chunk");
    assert!(pinned.values().all(|r| !r.telemetry.is_empty()));

    let mut resumed = DiffEngine::standard();
    resumed.threads = 2;
    resumed.checkpoint_every = 4;
    let resumed = resumed.run_with_checkpoint(&cases, &path).unwrap();
    assert_eq!(resumed, full, "the resumed summary equals the uninterrupted one");
    assert_eq!(resumed.telemetry.merged.counters, full.telemetry.merged.counters);
    let case_spans = resumed.telemetry.merged.spans["case"].count;
    assert_eq!(case_spans, cases.len() as u64, "the pinned cases are folded in, not re-run");
    std::fs::remove_dir_all(&dir).ok();
}
