//! `hdiff probe <host:port>` and `hdiff probe --protocol h2 <host:port>`
//! against targets this test hosts.
//!
//! Each test runs the `hdiff` binary against a server of its own: a
//! strict origin or a product model on a [`Reactor`], a listener that
//! never answers, a closed port, or one of the h2 downgrade fronts. It
//! checks the per-vector verdict lines and the exit code (0 agree,
//! 2 connect, 3 silent, 4 divergence). The silent and closed targets
//! are probed with a short socket timeout, so they finish in a few
//! seconds.

use std::net::{SocketAddr, TcpListener};
use std::process::Command;
use std::time::Duration;

use hdiff::net::{NetServerConfig, Reactor, IO_TIMEOUT_ENV};
use hdiff::servers::ParserProfile;

/// The socket timeout, in milliseconds, for a target that answers: wide,
/// so a loaded machine does not turn a slow answer into a silent vector.
const ANSWERING_MS: &str = "2000";

/// The socket timeout, in milliseconds, for a target that never answers
/// or refuses: the probe reads for a quarter of it and backs off from a
/// quarter of it.
const SILENT_MS: &str = "200";

/// Runs `hdiff probe <args>` under a socket timeout of `timeout_ms` and
/// returns its exit code and stdout.
fn probe(timeout_ms: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hdiff"))
        .arg("probe")
        .args(args)
        .env(IO_TIMEOUT_ENV, timeout_ms)
        .output()
        .expect("run hdiff probe");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    eprintln!("hdiff probe {}:\n{stdout}{stderr}", args.join(" "));
    (out.status.code().expect("hdiff probe exited on a signal"), stdout)
}

/// The label of every Table II vector, as the h1 probe prints it.
fn catalog_labels() -> Vec<String> {
    let mut labels = Vec::new();
    for entry in hdiff::gen::catalog::catalog() {
        for idx in 0..entry.requests.len() {
            labels.push(if entry.requests.len() == 1 {
                entry.id.to_string()
            } else {
                format!("{}#{}", entry.id, idx)
            });
        }
    }
    labels
}

/// The line that reports `label`.
fn line<'a>(stdout: &'a str, label: &str) -> &'a str {
    stdout
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label))
        .unwrap_or_else(|| panic!("no line for {label} in:\n{stdout}"))
}

/// A reactor serving `profile` as an origin, and the origin's address.
fn origin(profile: ParserProfile) -> Option<(Reactor, String)> {
    if !hdiff::net::reactor::sys::supported() {
        eprintln!("skipping: no epoll backend on this target");
        return None;
    }
    let reactor = Reactor::spawn().unwrap();
    let listener = reactor.add_origin(profile, NetServerConfig::default(), false).unwrap();
    Some((reactor, listener.addr.to_string()))
}

#[test]
fn a_strict_origin_agrees_on_every_vector() {
    let Some((_reactor, addr)) = origin(ParserProfile::strict("strict")) else { return };
    let (code, stdout) = probe(ANSWERING_MS, &[&addr]);
    for label in catalog_labels() {
        let line = line(&stdout, &label);
        assert!(line.ends_with(" agrees"), "{line}");
        assert_eq!(line.split_whitespace().nth(1), Some("8"), "answered every repetition: {line}");
    }
    assert_eq!(code, 0);
}

#[test]
fn the_haproxy_model_diverges_where_a_fresh_exchange_sees_it() {
    let haproxy = hdiff::servers::products().into_iter().find(|p| p.name == "haproxy").unwrap();
    let Some((_reactor, addr)) = origin(haproxy) else { return };
    let (code, stdout) = probe(ANSWERING_MS, &[&addr]);
    for label in ["invalid-cl-te#5", "multiple-cl-te#1"] {
        let line = line(&stdout, label);
        assert!(line.ends_with(" DIVERGES (baseline 400)"), "{line}");
    }
    assert_eq!(code, 4);
}

#[test]
fn a_listener_that_never_answers_exits_3() {
    if !hdiff::net::reactor::sys::supported() {
        return;
    }
    // Bound but never accept()ed: the kernel completes each handshake
    // and queues the connection, so the probe connects, writes, and
    // waits out its read timeout on every vector.
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = silent.local_addr().unwrap().to_string();
    let (code, stdout) = probe(SILENT_MS, &[&addr]);
    for label in catalog_labels() {
        let line = line(&stdout, &label);
        assert!(line.ends_with(" no framed response"), "{line}");
    }
    assert_eq!(code, 3);
}

#[test]
fn a_closed_port_exits_2_for_both_probes() {
    if !hdiff::net::reactor::sys::supported() {
        return;
    }
    let closed: SocketAddr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let addr = closed.to_string();
    assert_eq!(probe(SILENT_MS, &[&addr]).0, 2);
    assert_eq!(probe(SILENT_MS, &["--protocol", "h2", &addr]).0, 2);
}

#[test]
fn every_h2_front_matches_its_own_model() {
    if !hdiff::net::reactor::sys::supported() {
        return;
    }
    let reactor = Reactor::spawn().unwrap();
    let vectors = hdiff::diff::seed_vectors();
    for front in hdiff::servers::fronts() {
        let name = front.name.clone();
        let listener = reactor.add_h2_front(front, Duration::from_secs(2)).unwrap();
        let (code, stdout) = probe(ANSWERING_MS, &["--protocol", "h2", &listener.addr.to_string()]);
        for vector in &vectors {
            let line = line(&stdout, vector.id);
            let matched = line.split_once(" matches ").map(|(_, fronts)| fronts);
            assert!(
                matched.is_some_and(|fronts| fronts.split('/').any(|f| f == name)),
                "{name}: {line}"
            );
        }
        assert_eq!(code, 0, "{name}");
    }
}
