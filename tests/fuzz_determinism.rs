//! Determinism regression gates for the fuzzing engine: a session is a
//! pure function of `(seed, iteration budget, transport)` — identical
//! corpus digests, coverage summary, digest-novelty count, divergence
//! classes, and promoted-bundle set on every rerun, at every worker
//! thread count.

use hdiff::fuzz::{FuzzBudget, FuzzEngine, FuzzOptions, FuzzReport};

fn session(seed: u64, iters: u64, threads: usize) -> FuzzReport {
    let opts =
        FuzzOptions { seed, budget: FuzzBudget::Iters(iters), threads, ..FuzzOptions::default() };
    FuzzEngine::standard(opts).run()
}

/// The identity the gates compare — everything except wall-clock and
/// telemetry timings.
fn identity(r: &FuzzReport) -> (Vec<u64>, String, u64, Vec<String>, Vec<String>) {
    (
        r.corpus_digests.clone(),
        format!("{:?}", r.coverage),
        r.novel_digest_views,
        r.divergence_classes.clone(),
        r.promoted_names(),
    )
}

#[test]
fn same_seed_same_session() {
    let a = session(0xd5, 220, 2);
    let b = session(0xd5, 220, 2);
    assert_eq!(a.execs, b.execs);
    assert_eq!(identity(&a), identity(&b));
    assert!(!a.corpus_digests.is_empty(), "session admitted nothing to the corpus");
    assert!(a.novel_digest_views > 0, "session observed no behavior");
}

#[test]
fn thread_count_never_changes_results() {
    let one = session(0x7a11, 200, 1);
    let two = session(0x7a11, 200, 2);
    let eight = session(0x7a11, 200, 8);
    assert_eq!(identity(&one), identity(&two), "1 vs 2 threads");
    assert_eq!(identity(&one), identity(&eight), "1 vs 8 threads");
}

#[test]
fn different_seeds_explore_differently() {
    let a = session(1, 200, 2);
    let b = session(2, 200, 2);
    assert_ne!(
        a.corpus_digests, b.corpus_digests,
        "two seeds grew identical corpora — the RNG is not feeding the session"
    );
}

#[test]
fn promoted_bundles_and_counters_are_reproducible() {
    let a = session(0xfee1, 300, 4);
    let b = session(0xfee1, 300, 4);
    assert_eq!(a.promoted_names(), b.promoted_names());
    for (pa, pb) in a.promoted.iter().zip(&b.promoted) {
        assert_eq!(pa.class_key, pb.class_key);
        assert_eq!(pa.stream, pb.stream, "minimized stream differs for {}", pa.class_key);
        assert_eq!(pa.bundle.request, pb.bundle.request);
    }
    // Telemetry *counters* are part of the deterministic surface (span
    // timings are not).
    assert_eq!(a.telemetry.counters, b.telemetry.counters);
}

#[test]
fn every_execution_runs_as_one_runner_case() {
    for threads in [1, 4] {
        let r = session(0x7a11, 120, threads);
        assert_eq!(r.telemetry.spans["case"].count, r.execs, "{threads} thread(s)");
    }
}
