//! Acceptance gates for the HTTP/2 downgrade-desync subsystem, run
//! through the campaign driver: the seeded campaign detects at least
//! three distinct downgrade classes, its summary is invariant across
//! worker threads, its findings and telemetry across the sim and
//! tcp-async front-end transports (byte-stable translation), and every
//! promoted bundle re-verifies through the ordinary replay machinery.

use std::path::PathBuf;

use hdiff::diff::{
    finding_tag, run_protocol_campaign, seed_vectors, DowngradeProtocol, DowngradeWorkflow,
    Frontend, ProtocolCampaignOptions, ProtocolSummary, ReplayBundle, Transport, Workflow,
};
use hdiff::h2::{encode_client_connection, EncodeOptions};

fn run(threads: usize, tcp: bool, promote_dir: Option<PathBuf>) -> ProtocolSummary {
    let transport = if tcp { Transport::TcpAsync } else { Transport::Sim };
    let fronts = DowngradeProtocol::new(transport).expect("fronts serve");
    run_protocol_campaign(&fronts, &ProtocolCampaignOptions { threads, promote_dir })
        .expect("campaign runs")
}

fn campaign(threads: usize, tcp: bool) -> ProtocolSummary {
    run(threads, tcp, None)
}

fn identity(s: &ProtocolSummary) -> (usize, Vec<String>, Vec<String>) {
    (s.run.cases, s.run.findings.iter().map(ToString::to_string).collect(), s.classes.clone())
}

#[test]
fn seeded_campaign_detects_at_least_three_downgrade_classes() {
    let s = campaign(2, false);
    assert_eq!(s.run.cases, seed_vectors().len());
    assert!(s.classes.len() >= 3, "expected >= 3 distinct downgrade classes, got {:?}", s.classes);
    for class in ["cl-mismatch", "te-forwarded", "authority-host"] {
        assert!(s.classes.iter().any(|c| c == class), "no {class} in {:?}", s.classes);
    }
    for f in &s.run.findings {
        assert!(finding_tag(f).is_some(), "non-downgrade evidence in campaign finding {f}");
        assert!(f.origin.starts_with("h2:"), "campaign finding without h2 origin: {f}");
    }
}

#[test]
fn campaign_is_thread_and_transport_invariant() {
    let one = campaign(1, false);
    let four = campaign(4, false);
    assert_eq!(identity(&one), identity(&four), "1 vs 4 threads");
    // The whole summary, per-case telemetry shape included.
    assert_eq!(one.run, four.run, "1 vs 4 threads");

    // The socket fronts must reproduce the in-process translation byte
    // for byte: identical findings, identical classes.
    let wire = campaign(2, true);
    assert_eq!(identity(&one), identity(&wire), "sim vs tcp");
    // And the campaign records the same telemetry whichever thread the
    // fronts parse on (shape only: names, span counts, counter totals).
    assert!(one.run.telemetry.merged.counters.contains_key("h2.frames.parsed"));
    assert_eq!(one.run.telemetry, wire.run.telemetry, "sim vs tcp telemetry");
}

#[test]
fn sim_and_tcp_fronts_produce_identical_digests() {
    let workflow = DowngradeWorkflow::standard();
    let testbed = hdiff::net::FrontTestbed::new(&workflow.fronts).expect("fronts serve");
    for (i, vector) in seed_vectors().into_iter().enumerate() {
        let bytes = encode_client_connection(&vector.requests, &EncodeOptions::default());
        let uuid = hdiff::diff::H2_UUID_BASE + i as u64;
        let origin = format!("h2:{}", vector.id);
        let sim = workflow.run_bytes(uuid, &origin, &bytes);
        let tcp = hdiff::diff::run_downgrade_case_tcp(&workflow, &testbed, uuid, &origin, &bytes)
            .expect("tcp fronts serve");
        assert_eq!(
            hdiff::diff::downgrade_digests(&sim),
            hdiff::diff::downgrade_digests(&tcp),
            "digest drift between sim and tcp fronts on {}",
            vector.id
        );
    }
}

#[test]
fn promoted_bundles_reverify_through_replay() {
    let dir = std::env::temp_dir().join(format!("hdiff-h2-promote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let s = run(2, false, Some(dir.clone()));
    assert!(s.promoted.len() >= 3, "expected >= 3 promoted bundles, got {:?}", s.promoted);

    // The h1 workflow arguments are ignored for h2 bundles; replay
    // dispatches on the recorded frontend.
    let workflow = Workflow::standard();
    let profiles = hdiff::servers::products();
    for path in &s.promoted {
        let bundle = ReplayBundle::load(path).expect("promoted bundle loads");
        assert_eq!(bundle.frontend, Frontend::H2);
        assert_eq!(bundle.transport, Transport::Sim);
        let report = bundle.replay(&workflow, &profiles, None);
        assert!(report.passed(), "{}: {}", path.display(), report.summary());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_async_promotes_the_same_bundles_as_sim() {
    // Minimization and recording run on the sim whatever the transport,
    // so the socket campaign freezes byte-identical bundles.
    let base = std::env::temp_dir().join(format!("hdiff-h2-promote-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let sim = run(2, false, Some(base.join("sim")));
    let wire = run(2, true, Some(base.join("tcp-async")));
    assert!(!sim.promoted.is_empty());
    let names = |s: &ProtocolSummary| -> Vec<_> {
        s.promoted.iter().map(|p| p.file_name().unwrap().to_owned()).collect()
    };
    assert_eq!(names(&sim), names(&wire));
    for (a, b) in sim.promoted.iter().zip(&wire.promoted) {
        let (a_bytes, b_bytes) = (std::fs::read(a).unwrap(), std::fs::read(b).unwrap());
        assert_eq!(a_bytes, b_bytes, "{} differs from {}", a.display(), b.display());
    }
    let _ = std::fs::remove_dir_all(&base);
}
