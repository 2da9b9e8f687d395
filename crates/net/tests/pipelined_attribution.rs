//! Cross-product integration test for pipelined delivery on the wire.
//!
//! Three requests ride one connection, written as three segments, the
//! middle one malformed. For every backend product the per-request
//! response attribution and the consumed-byte accounting on the socket
//! must match what the in-process engine (`Server::handle_stream`)
//! computes for the same byte stream — the core equivalence the TCP
//! transport relies on.

use hdiff_net::{
    attribute_responses, AsyncListener, ExchangeOutput, ExchangeSpec, Job, NetServerConfig,
    Reactor, ResponseAttribution, SendMode,
};
use hdiff_servers::products::{backends, ProductId};
use hdiff_servers::{ParserProfile, Server};

const REQ_A: &[u8] = b"GET /a HTTP/1.1\r\nHost: one.example\r\n\r\n";
// Whitespace before the colon: rejected by strict parsers, tolerated
// (stripped or used) by others — a genuine mid-stream divergence point.
const REQ_BAD: &[u8] = b"GET /b HTTP/1.1\r\nHost : two.example\r\n\r\n";
const REQ_C: &[u8] = b"GET /c HTTP/1.1\r\nHost: three.example\r\n\r\n";

/// One pipelined batch: the raw response bytes and their per-request
/// attribution.
struct Batch {
    raw: Vec<u8>,
    attribution: ResponseAttribution,
    timed_out: bool,
}

/// Hosts `profile` on a fresh reactor.
fn serve(profile: ParserProfile) -> (Reactor, AsyncListener) {
    let reactor = Reactor::spawn().unwrap();
    let listener = reactor.add_origin(profile, NetServerConfig::default(), true).unwrap();
    (reactor, listener)
}

/// Writes `requests` back-to-back on one fresh connection, one write
/// each, then FIN, and attributes the response bytes back per request.
/// The exchange is unpaired, so the origin's connection log stays on its
/// listener for [`Reactor::take_server_logs`].
fn pipelined(reactor: &Reactor, l: &AsyncListener, requests: &[&[u8]]) -> Batch {
    let mut cuts = Vec::new();
    let mut end = 0;
    for r in requests {
        end += r.len();
        cuts.push(end);
    }
    let spec = ExchangeSpec::paired(l, &requests.concat(), SendMode::Segmented(cuts));
    let outs = reactor.run(vec![Job::Exchange(ExchangeSpec { pair: None, ..spec })]);
    let ex: &ExchangeOutput = outs[0].as_exchange().expect("exchange output");
    let attribution = attribute_responses(&ex.response, requests.len());
    Batch { raw: ex.response.clone(), attribution, timed_out: ex.timed_out }
}

#[test]
fn pipelined_attribution_matches_the_in_process_engine_for_every_backend() {
    let mut stream = Vec::new();
    stream.extend_from_slice(REQ_A);
    stream.extend_from_slice(REQ_BAD);
    stream.extend_from_slice(REQ_C);

    for profile in backends() {
        let name = profile.name.clone();
        let expected = Server::new(profile.clone()).handle_stream(&stream);
        let (reactor, server) = serve(profile);

        let batch = pipelined(&reactor, &server, &[REQ_A, REQ_BAD, REQ_C]);
        assert!(!batch.timed_out, "{name}: wire exchange timed out");

        let logs = reactor.take_server_logs(server.id);
        assert_eq!(logs.len(), 1, "{name}: one connection expected");
        let log = &logs[0];

        // Reply-for-reply equality with the in-process engine.
        assert_eq!(log.replies, expected, "{name}: reply sequence diverged");

        // Consumed-byte accounting: all request bytes arrived, and the
        // engine's consumed offsets are reproduced on the wire.
        assert_eq!(log.bytes_in, stream.len(), "{name}: bytes_in");
        let consumed: Vec<usize> = log.replies.iter().map(|r| r.interpretation.consumed).collect();
        let expected_consumed: Vec<usize> =
            expected.iter().map(|r| r.interpretation.consumed).collect();
        assert_eq!(consumed, expected_consumed, "{name}: consumed accounting");

        // Per-request attribution: one framed response per engine reply,
        // statuses in the same order, and every response byte attributed.
        let expected_statuses: Vec<u16> = expected.iter().map(|r| r.response.status.0).collect();
        assert_eq!(batch.attribution.statuses, expected_statuses, "{name}: attribution statuses");
        assert!(batch.attribution.clean(), "{name}: unattributed trailing bytes");
        assert_eq!(log.bytes_out, batch.raw.len(), "{name}: bytes_out");
    }
}

#[test]
fn strict_backend_stops_answering_after_the_malformed_request() {
    // Sanity-check the scenario actually exercises a mid-stream reject:
    // a strict parser answers request 1, rejects request 2, and never
    // sees request 3.
    let profile = hdiff_servers::products::product(ProductId::Nginx);
    let (reactor, server) = serve(profile);
    let batch = pipelined(&reactor, &server, &[REQ_A, REQ_BAD, REQ_C]);
    assert_eq!(batch.attribution.count(), 2, "200 then 400, nothing more");
    assert_eq!(batch.attribution.statuses[0], 200);
    assert_ne!(batch.attribution.statuses[1], 200);

    let attribution = attribute_responses(&batch.raw, 16);
    assert_eq!(attribution, batch.attribution);
}
