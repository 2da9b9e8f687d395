//! Acceptance gates for the fuzzing loop: a seeded session rediscovers
//! the paper's three Table II divergence classes (HRS, HoT, CPDoS) from
//! non-catalog inputs, and every auto-promoted bundle replays PASS —
//! with identical findings — on both the simulated and the async wire
//! transport.

use hdiff::diff::Transport;
use hdiff::fuzz::{FuzzBudget, FuzzEngine, FuzzOptions};

fn session(iters: u64) -> hdiff::fuzz::FuzzReport {
    FuzzEngine::standard(FuzzOptions {
        seed: 0x4d1f,
        budget: FuzzBudget::Iters(iters),
        threads: 2,
        ..FuzzOptions::default()
    })
    .run()
}

#[test]
fn seeded_session_rediscovers_all_three_attack_classes() {
    let r = session(400);
    for class in ["HRS|", "HoT|", "CPDoS|"] {
        assert!(
            r.divergence_classes.iter().any(|c| c.starts_with(class)),
            "no {class} divergence in {:?}",
            r.divergence_classes
        );
    }
    assert!(
        r.promoted.len() >= 3,
        "expected at least one promotion per class, got {:?}",
        r.promoted_names()
    );
    // Non-catalog by construction: every fuzz case carries a fuzz:…
    // origin, and the promoted bundles inherit it.
    for p in &r.promoted {
        assert!(
            p.bundle.origin.starts_with("fuzz:"),
            "catalog-origin promotion {:?}",
            p.bundle.origin
        );
    }
}

#[test]
fn promoted_bundles_replay_pass_on_sim_and_tcp_async() {
    let r = session(300);
    assert!(!r.promoted.is_empty(), "session promoted nothing");
    let workflow = hdiff::diff::Workflow::standard();
    let profiles = hdiff::servers::products();
    for p in &r.promoted {
        let sim = p.bundle.replay(&workflow, &profiles, None);
        assert!(
            sim.passed(),
            "{} drifts on sim: missing {:?} unexpected {:?} drifted {:?}",
            p.name,
            sim.missing,
            sim.unexpected,
            sim.drifted
        );

        // The same bundle — the same recorded findings and digests —
        // must reproduce over real multiplexed sockets: replay PASS here
        // means the wire run re-detected *identical* findings.
        let mut wire = p.bundle.clone();
        wire.transport = Transport::TcpAsync;
        let async_report = wire.replay(&workflow, &profiles, None);
        assert!(
            async_report.passed(),
            "{} drifts on tcp-async: missing {:?} unexpected {:?} drifted {:?}",
            p.name,
            async_report.missing,
            async_report.unexpected,
            async_report.drifted
        );
    }
}

#[test]
fn promote_dir_bundles_reload_and_replay() {
    let dir = std::env::temp_dir().join(format!("hdiff-fuzz-promote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let r = FuzzEngine::standard(FuzzOptions {
        seed: 0x4d1f,
        budget: FuzzBudget::Iters(300),
        threads: 2,
        promote_dir: Some(dir.clone()),
        ..FuzzOptions::default()
    })
    .run();
    assert!(!r.promoted.is_empty());
    let workflow = hdiff::diff::Workflow::standard();
    let profiles = hdiff::servers::products();
    let mut replayed = 0;
    for entry in std::fs::read_dir(&dir).expect("promote dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            let bundle = hdiff::diff::ReplayBundle::load(&path).expect("bundle loads");
            assert!(bundle.replay(&workflow, &profiles, None).passed(), "{path:?} drifts");
            replayed += 1;
            // Its stream sidecar reloads too.
            let sidecar = path.with_extension("stream");
            let json = std::fs::read(&sidecar).expect("stream sidecar exists");
            let stream = hdiff::fuzz::Stream::from_json(&json).expect("sidecar parses");
            assert_eq!(stream.effective_bytes(), bundle.request, "sidecar/bundle bytes diverge");
        }
    }
    assert_eq!(replayed, r.promoted.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seed_corpus_reloads_promoted_artifacts_and_stays_deterministic() {
    let dir = std::env::temp_dir().join(format!("hdiff-fuzz-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let producer = FuzzEngine::standard(FuzzOptions {
        seed: 0x4d1f,
        budget: FuzzBudget::Iters(300),
        threads: 2,
        promote_dir: Some(dir.clone()),
        ..FuzzOptions::default()
    })
    .run();
    assert!(!producer.promoted.is_empty(), "producer session promoted nothing");

    // A corpus-seeded session executes the promoted streams first, so a
    // budget far too small for cold discovery still reproduces known
    // divergence classes — that is the point of the flag.
    let seeded = |threads: usize| {
        FuzzEngine::standard(FuzzOptions {
            seed: 0x5eed,
            budget: FuzzBudget::Iters(40),
            threads,
            seed_corpus: Some(dir.clone()),
            ..FuzzOptions::default()
        })
        .run()
    };
    let a = seeded(1);
    let b = seeded(4);
    assert_eq!(
        a.telemetry.counters.get("fuzz.seed-corpus.loaded"),
        Some(&(producer.promoted.len() as u64)),
        "every promoted stream sidecar loads exactly once (bundles with sidecars are skipped)"
    );
    assert!(
        !a.divergence_classes.is_empty(),
        "corpus-seeded session reproduced no divergence in 40 iterations"
    );
    assert_eq!(a.corpus_digests, b.corpus_digests, "corpus loading is thread-invariant");
    assert_eq!(a.divergence_classes, b.divergence_classes);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn malformed_seed_corpus_streams_are_skipped() {
    use hdiff::fuzz::{Delivery, Stream, StreamRequest};

    let dir = std::env::temp_dir().join(format!("hdiff-fuzz-malformed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("corpus dir");
    // A stream with no requests, and one segmented past its request's end.
    std::fs::write(dir.join("a.stream"), Stream { requests: Vec::new() }.to_json()).unwrap();
    let past_end = Stream {
        requests: vec![StreamRequest {
            bytes: b"GET / HTTP/1.1\r\nHost: a\r\n\r\n".to_vec(),
            delivery: Delivery::Segmented(vec![999]),
            pipelined: false,
        }],
    };
    std::fs::write(dir.join("b.stream"), past_end.to_json()).unwrap();
    let r = FuzzEngine::standard(FuzzOptions {
        seed: 3,
        budget: FuzzBudget::Iters(60),
        threads: 1,
        seed_corpus: Some(dir.clone()),
        ..FuzzOptions::default()
    })
    .run();
    assert_eq!(r.execs, 60);
    assert_eq!(r.telemetry.counters.get("fuzz.seed-corpus.loaded"), None);
    let _ = std::fs::remove_dir_all(&dir);
}
