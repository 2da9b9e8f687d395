//! The blocking `tcp` transport is retired with no alias: the CLI, a
//! config document and a replay bundle each reject it with an error that
//! names the value and lists the transports that remain.

use std::process::Command;

use hdiff::diff::ReplayBundle;
use hdiff::HdiffConfig;

const EXPECTED: &str = "unknown transport \"tcp\" (expected: sim, tcp-async)";

#[test]
fn the_cli_rejects_tcp_on_every_command() {
    for args in [
        &["run", "--quick", "--transport", "tcp"][..],
        &["fuzz", "--iters", "1", "--transport", "tcp"],
        &["replay", "--transport", "tcp", "tests/golden"],
        &["run", "--protocol", "h2", "--transport", "tcp"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hdiff")).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("--transport: {EXPECTED}")), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before rejecting the flag");
    }
}

#[test]
fn a_config_naming_tcp_is_rejected() {
    let err = HdiffConfig::from_json(br#"{"transport":"tcp"}"#).unwrap_err();
    assert!(err.to_string().contains(EXPECTED), "{err}");
}

#[test]
fn a_bundle_recorded_over_tcp_is_rejected() {
    let path = std::fs::read_dir("tests/golden")
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("a golden bundle");
    let json = std::fs::read_to_string(&path).unwrap();
    let bundle = ReplayBundle::from_json(json.as_bytes()).expect("the golden bundle loads");
    let mut tcp = bundle.to_json();
    let close = tcp.rfind('}').unwrap();
    tcp.insert_str(close, r#","transport":"tcp""#);
    let err = ReplayBundle::from_json(tcp.as_bytes()).unwrap_err();
    assert!(err.to_string().contains(EXPECTED), "{err}");
}
