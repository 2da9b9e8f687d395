//! End-to-end gate for the cookie workload behind the protocol-generic
//! campaign core: same seed corpus ⇒ identical findings regardless of
//! worker count, promoted bundles are protocol-keyed, re-verify via
//! `replay_protocol` and hold pinned reproducers, and a misrouted
//! classic replay fails loudly instead of silently mis-executing.

use std::process::Command;

use hdiff::cookie::CookieProtocol;
use hdiff::diff::{
    run_protocol_campaign, Protocol, ProtocolCampaignOptions, ReplayBundle, Workflow,
};

#[test]
fn cookie_campaign_is_deterministic_across_thread_counts() {
    let p = CookieProtocol::standard();
    let base = run_protocol_campaign(&p, &ProtocolCampaignOptions::default()).unwrap();
    assert!(base.classes.len() >= 3, "want ≥3 divergence classes, got {:?}", base.classes);
    for threads in [1, 2, 8] {
        let run = run_protocol_campaign(
            &p,
            &ProtocolCampaignOptions { threads, ..ProtocolCampaignOptions::default() },
        )
        .unwrap();
        assert_eq!(run.run.cases, base.run.cases, "threads={threads}");
        assert_eq!(run.run.findings, base.run.findings, "threads={threads}");
        assert_eq!(run.classes, base.classes, "threads={threads}");
        // The whole summary, per-case telemetry shape included.
        assert_eq!(run.run, base.run, "threads={threads}");
    }
}

/// The reproducer each divergence class minimizes to, in promotion
/// order: the cookie counterpart of the golden h2 corpus. A change to
/// the minimizer or to a profile that moves one fails here.
const PINNED: [(&str, &str); 7] = [
    ("cookie-shadow-precedence", "set: sid=\nset: sid=e\n"),
    ("cookie-attr-smuggle", "set: token=\";Secure\"\n"),
    ("cookie-attr-case", "set: Path=; HTTPONLY\n"),
    ("cookie-expires-leniency", "set: sid=; Expires=6-Nov-94 8:9:3\n"),
    ("cookie-domain-scope", "set: sid=; Domain=e.com\n"),
    ("cookie-version-legacy", "cookie: $Path=\n"),
    ("cookie-quoted-value", "cookie: token=\"\"\n"),
];

#[test]
fn promoted_cookie_reproducers_are_pinned_at_any_thread_count() {
    let promote = |threads: usize| {
        let dir = std::env::temp_dir()
            .join(format!("hdiff-cookie-pinned-{}-{threads}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ProtocolCampaignOptions { threads, promote_dir: Some(dir.clone()) };
        let promoted = run_protocol_campaign(&CookieProtocol::standard(), &opts).unwrap().promoted;
        let bundles: Vec<(String, Vec<u8>, Vec<u8>)> = promoted
            .iter()
            .map(|path| {
                let name = path.file_stem().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(path).unwrap(), ReplayBundle::load(path).unwrap().request)
            })
            .collect();
        std::fs::remove_dir_all(&dir).unwrap();
        bundles
    };
    let one = promote(1);
    assert!(one == promote(8), "the bundles differ between 1 and 8 threads");
    let requests: Vec<(&str, &str)> = one
        .iter()
        .map(|(name, _, request)| (name.as_str(), std::str::from_utf8(request).unwrap()))
        .collect();
    assert_eq!(requests, PINNED);
}

#[test]
fn promoted_cookie_bundles_replay_and_refuse_the_classic_path() {
    let dir = std::env::temp_dir().join(format!("hdiff-cookie-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = CookieProtocol::standard();
    let summary = run_protocol_campaign(
        &p,
        &ProtocolCampaignOptions { threads: 0, promote_dir: Some(dir.clone()) },
    )
    .unwrap();
    assert!(summary.promoted.len() >= 3, "{:?}", summary.promoted);

    let workflow = Workflow::standard();
    let profiles = hdiff::servers::products();
    for path in &summary.promoted {
        let bundle = ReplayBundle::load(path).unwrap();
        assert_eq!(bundle.protocol.as_deref(), Some(p.name()));

        // Routed correctly, the minimized case still reproduces.
        let report = bundle.replay_protocol(&p);
        assert!(report.passed(), "{}: {}", path.display(), report.summary());

        // Routed down the classic HTTP path, the guard fails the replay
        // with an explicit unrouted marker.
        let misrouted = bundle.replay(&workflow, &profiles, None);
        assert!(!misrouted.passed(), "{}", path.display());
        assert!(
            misrouted.drifted.iter().any(|d| d == "protocol:cookie:unrouted"),
            "{:?}",
            misrouted.drifted
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_takes_the_transport_override_to_protocol_keyed_bundles() {
    let dir = std::env::temp_dir().join(format!("hdiff-cookie-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ProtocolCampaignOptions { threads: 1, promote_dir: Some(dir.clone()) };
    let promoted = run_protocol_campaign(&CookieProtocol::standard(), &opts).unwrap().promoted;
    assert!(!promoted.is_empty());
    let replay = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_hdiff"))
            .arg("replay")
            .args(extra)
            .arg(&dir)
            .output()
            .unwrap()
    };

    let sim = replay(&[]);
    assert!(sim.status.success(), "{}", String::from_utf8_lossy(&sim.stdout));
    let summary = format!("{} bundle(s), 0 failed", promoted.len());
    assert!(String::from_utf8_lossy(&sim.stdout).contains(&summary));

    // Cookie runs only in-process: the override is refused, not dropped.
    let wire = replay(&["--transport", "tcp-async"]);
    assert_eq!(wire.status.code(), Some(1));
    assert!(wire.stdout.is_empty(), "{}", String::from_utf8_lossy(&wire.stdout));
    let stderr = String::from_utf8_lossy(&wire.stderr);
    assert!(stderr.contains("--protocol cookie runs over --transport sim"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
