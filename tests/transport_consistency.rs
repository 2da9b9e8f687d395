//! Cross-transport consistency gate.
//!
//! The wire transport (`crates/net`) exists to observe byte-stream
//! behaviors the in-process calls cannot show — but on a fault-free
//! corpus both transports run the *same* engine over the *same*
//! delivered bytes, so every finding, pair verdict, and behavior digest
//! must agree. This gate runs the full Table II catalog through the
//! differential engine over `sim` and the `tcp-async` event loop and
//! fails on any drift; it also checks that segmented delivery over real
//! sockets still splits the profiles (the HMetrics divergence the
//! transport is for).

use hdiff::diff::{consistency_findings, segmented_probe, DiffEngine, Transport, Workflow};
use hdiff::gen::{catalog, Origin, TestCase};
use hdiff::net::{AsyncTestbed, SendMode};

/// Widens the shared socket timeout for this gate unless the caller
/// already chose one: a loaded CI box can stall a loopback read past the
/// 500ms default, and a timeout here means a spurious transport
/// divergence. Must run before the first socket is opened because
/// [`hdiff::net::io_timeout`] caches on first use; `#[ctor]`-less, so
/// each test calls it first thing.
fn widen_timeouts_for_ci() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        if std::env::var(hdiff::net::IO_TIMEOUT_ENV).is_err() {
            std::env::set_var(hdiff::net::IO_TIMEOUT_ENV, "2000");
        }
        // Force the cache now so every later reader sees the widened
        // value regardless of which test touches a socket first.
        assert!(hdiff::net::io_timeout() >= std::time::Duration::from_millis(1));
    });
}

/// The Table II catalog as a test-case corpus (same construction as the
/// pipeline's step 3).
fn catalog_cases() -> Vec<TestCase> {
    let mut cases = Vec::new();
    let mut next_uuid = 1u64;
    for entry in catalog::catalog() {
        for (req, note) in &entry.requests {
            cases.push(TestCase {
                uuid: next_uuid,
                request: req.clone(),
                assertions: Vec::new(),
                origin: Origin::Catalog(entry.id.to_string()),
                note: note.clone(),
            });
            next_uuid += 1;
        }
    }
    cases
}

#[test]
fn catalog_campaign_findings_match_across_transports() {
    widen_timeouts_for_ci();
    let cases = catalog_cases();

    let mut sim = DiffEngine::standard();
    sim.threads = 2;
    let sim_summary = sim.run(&cases);

    assert_eq!(sim_summary.transport, Transport::Sim);
    assert_eq!(sim_summary.errors, 0, "sim campaign hit terminal errors");
    assert!(!sim_summary.findings.is_empty(), "catalog campaign found nothing");

    if !hdiff::net::reactor::sys::supported() {
        eprintln!("skipping tcp-async leg: no epoll backend on this target");
        return;
    }
    let mut multiplexed = DiffEngine::standard();
    multiplexed.threads = 2;
    multiplexed.transport = Transport::TcpAsync;
    let async_summary = multiplexed.run(&cases);

    assert_eq!(async_summary.transport, Transport::TcpAsync);
    assert_eq!(sim_summary.cases, async_summary.cases);
    assert_eq!(async_summary.errors, 0, "tcp-async campaign hit terminal errors");
    assert_eq!(
        sim_summary.findings, async_summary.findings,
        "multiplexed campaign found different findings than the simulation"
    );
    assert_eq!(sim_summary.pairs, async_summary.pairs);
    assert_eq!(sim_summary.verdicts, async_summary.verdicts);
}

#[test]
fn catalog_vectors_are_consistent_over_the_multiplexed_transport() {
    widen_timeouts_for_ci();
    if !hdiff::net::reactor::sys::supported() {
        eprintln!("skipping: no epoll backend on this target");
        return;
    }
    let workflow = Workflow::standard();
    let profiles = hdiff::servers::products();
    // One shared testbed serves the whole catalog, so later vectors ride
    // the warm keep-alive pool instead of fresh connections.
    let testbed = AsyncTestbed::new(workflow.backends(), workflow.proxies()).unwrap();
    for (idx, entry) in catalog::catalog().iter().enumerate() {
        let uuid = 700 + idx as u64;
        let origin = format!("catalog:{}", entry.id);
        for (req, note) in &entry.requests {
            let findings = consistency_findings(
                &workflow,
                &profiles,
                uuid,
                &origin,
                &req.to_bytes(),
                &testbed,
            );
            assert!(
                findings.is_empty(),
                "multiplexed transport divergence on {origin} ({note}): {findings:?}"
            );
        }
    }
    let stats = testbed.stats();
    assert!(stats.pool_hits > 0, "catalog sweep never reused a pooled connection: {stats:?}");
}

#[test]
fn segmented_delivery_still_splits_the_profiles() {
    widen_timeouts_for_ci();
    // The Tomcat-style lenient Transfer-Encoding vector, delivered one
    // byte at a time across real socket writes: lenient profiles accept
    // the chunked body, strict profiles reject the TE/CL conflict. The
    // divergence must survive segmentation (incremental reads only
    // finalize when the parse cannot change with more bytes).
    let bytes: &[u8] =
        b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\nTransfer-Encoding:\x0bchunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
    let splits: Vec<usize> = (1..bytes.len()).collect();
    let metrics =
        segmented_probe(&hdiff::servers::backends(), 901, bytes, &SendMode::Segmented(splits));
    assert!(metrics.len() >= 2, "need at least two profile views");
    let disagree = metrics.iter().any(|a| {
        metrics.iter().any(|b| a.accepted != b.accepted || a.status_code != b.status_code)
    });
    assert!(disagree, "segmented delivery produced uniform behavior: {metrics:?}");
}
