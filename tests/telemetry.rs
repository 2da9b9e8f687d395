//! Campaign telemetry acceptance: counter totals and span counts must be
//! byte-for-byte identical whatever the thread count, on either
//! transport, a campaign resumed
//! from a checkpoint must not double-count the cases already executed,
//! and the JSONL trace must order events replay-stably so two runs of the
//! same corpus produce the same event sequence (durations aside).

use std::collections::BTreeMap;

use hdiff::diff::{
    load_report, trace_to_jsonl, write_summary, write_trace, DiffEngine, RunSummary, Transport,
};
use hdiff::gen::{catalog, Origin, TestCase};

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

fn engine(threads: usize) -> DiffEngine {
    let mut engine = DiffEngine::standard();
    engine.threads = threads;
    engine
}

/// Span name -> how many times it closed (durations vary run to run, the
/// counts must not).
fn span_counts(summary: &RunSummary) -> BTreeMap<String, u64> {
    summary.telemetry.merged.spans.iter().map(|(n, s)| (n.clone(), s.count)).collect()
}

#[test]
fn counter_totals_and_span_counts_are_thread_invariant() {
    let cases = catalog_cases();
    let one = engine(1).run(&cases);
    let two = engine(2).run(&cases);
    let eight = engine(8).run(&cases);

    assert_eq!(one, two, "summaries must not depend on the thread count");
    assert_eq!(one, eight);
    // Beyond the shape equality above: exact counter totals and span
    // counts, which double-counting or dropped buckets would skew.
    assert_eq!(one.telemetry.merged.counters, two.telemetry.merged.counters);
    assert_eq!(one.telemetry.merged.counters, eight.telemetry.merged.counters);
    assert_eq!(span_counts(&one), span_counts(&two));
    assert_eq!(span_counts(&one), span_counts(&eight));

    // Every case ran under exactly one "case" span and one execute stage.
    let spans = span_counts(&one);
    assert_eq!(spans.get("case"), Some(&(cases.len() as u64)));
    assert_eq!(spans.get("stage.chain-execute"), Some(&(cases.len() as u64)));
    assert_eq!(spans.get("stage.detect"), Some(&(cases.len() as u64)));
    // The sim transport histogram saw every case exactly once.
    let rtt = one.telemetry.merged.hists.get("transport.rtt.sim").expect("sim RTT histogram");
    assert_eq!(rtt.count, cases.len() as u64);
    // The slowest-case table only names cases from this corpus.
    assert!(!one.telemetry.slowest.is_empty());
    for &(uuid, ns) in &one.telemetry.slowest {
        assert!(cases.iter().any(|c| c.uuid == uuid), "unknown uuid {uuid:#x}");
        assert!(ns > 0);
    }
}

#[test]
fn tcp_async_summaries_are_thread_invariant() {
    if !hdiff::net::reactor::sys::supported() {
        eprintln!("skipping: no epoll backend on this target");
        return;
    }
    // A loaded box can stall a loopback read past the 500ms default, and
    // a timed-out exchange changes the case; widen the timeout unless the
    // caller chose one (it caches on first use, and no other test here
    // opens a socket).
    if std::env::var(hdiff::net::IO_TIMEOUT_ENV).is_err() {
        std::env::set_var(hdiff::net::IO_TIMEOUT_ENV, "2000");
    }
    let cases = catalog_cases();
    let run = |threads: usize| {
        let mut engine = engine(threads);
        engine.transport = Transport::TcpAsync;
        engine.run(&cases)
    };
    let one = run(1);
    let four = run(4);

    assert_eq!(one.errors, 0, "tcp-async campaign hit terminal errors");
    assert_eq!(one, four, "a tcp-async summary must not depend on the thread count");
    assert_eq!(one.telemetry.merged.counters, four.telemetry.merged.counters);
    assert_eq!(span_counts(&one), span_counts(&four));
    let rtt = one.telemetry.merged.hists.get("net.exchange.rtt").expect("exchange RTT histogram");
    assert!(rtt.count > cases.len() as u64, "every case makes several exchanges");
}

#[test]
fn resumed_campaign_merges_telemetry_without_double_counting() {
    let cases = catalog_cases();
    let dir = std::env::temp_dir().join(format!("hdiff-telemetry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.ckpt");
    let _ = std::fs::remove_file(&path);

    // Uninterrupted reference run.
    let full = engine(2).run(&cases);

    // Killed after one chunk, then resumed to completion.
    let mut first = engine(2);
    first.checkpoint_every = 8;
    first.stop_after_chunks = Some(1);
    let partial = first.run_with_checkpoint(&cases, &path).unwrap();
    assert!(partial.cases < cases.len(), "the first leg must stop early");
    let partial_case_spans = span_counts(&partial).get("case").copied().unwrap_or(0);
    assert_eq!(partial_case_spans, partial.cases as u64);

    let mut second = engine(2);
    second.checkpoint_every = 8;
    let resumed = second.run_with_checkpoint(&cases, &path).unwrap();
    assert_eq!(resumed, full, "resume must reach the uninterrupted summary");
    assert_eq!(
        resumed.telemetry.merged.counters, full.telemetry.merged.counters,
        "resuming must re-merge persisted buckets, not re-run and double-count"
    );
    assert_eq!(span_counts(&resumed), span_counts(&full));

    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_event_order_is_replay_stable_and_reports_render() {
    hdiff::obs::set_trace(true);
    let cases = catalog_cases();
    let one = engine(1).run(&cases);
    let four = engine(4).run(&cases);
    hdiff::obs::set_trace(false);

    // Same (case, seq, kind, name) sequence whatever the thread count;
    // only durations may differ.
    let skeleton = |s: &RunSummary| -> Vec<(u64, u64, &'static str, String)> {
        s.telemetry
            .merged
            .sorted_events()
            .iter()
            .map(|e| (e.case, e.seq, e.kind.as_str(), e.name.clone()))
            .collect()
    };
    let sk1 = skeleton(&one);
    assert!(!sk1.is_empty(), "trace mode must record events");
    assert_eq!(sk1, skeleton(&four), "event order must not depend on the thread count");

    // JSONL lines come out in exactly that order.
    let jsonl = trace_to_jsonl(&one.telemetry.merged);
    assert_eq!(jsonl.lines().count(), sk1.len());

    // Both persisted forms round-trip into a renderable report that
    // agrees with the in-memory totals.
    let dir = std::env::temp_dir().join(format!("hdiff-telemetry-rep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let summary_path = dir.join("summary.json");
    let trace_path = dir.join("trace.jsonl");
    write_summary(&summary_path, &one).unwrap();
    write_trace(&trace_path, &one.telemetry.merged).unwrap();

    let from_summary = load_report(&summary_path).unwrap();
    assert_eq!(from_summary.telemetry.counters, one.telemetry.merged.counters);
    let from_trace = load_report(&trace_path).unwrap();
    assert_eq!(from_trace.telemetry.counters, one.telemetry.merged.counters);
    for input in [&from_summary, &from_trace] {
        let rendered = hdiff::obs::render_report(input);
        assert!(rendered.contains("stage.chain-execute"), "{rendered}");
        assert!(rendered.contains("transport.rtt.sim"), "{rendered}");
    }

    let _ = std::fs::remove_file(&summary_path);
    let _ = std::fs::remove_file(&trace_path);
}
