//! HTTP/2 downgrade front ends served over real sockets.
//!
//! A front is one [`hdiff_servers::DowngradeProfile`] behind a reactor
//! listener speaking cleartext h2 (prior knowledge; see
//! [`crate::reactor::Reactor::add_h2_front`]): it reads a whole client
//! connection to EOF, parses it with [`hdiff_h2::parse_client_connection`],
//! translates every request through the profile, and answers each stream
//! with an h2 response that *echoes the reconstructed HTTP/1.1 bytes*
//! (or the front's rejection) — so both the wire peer and the
//! connection log observe exactly what the front would have forwarded
//! upstream.
//!
//! The front delivers its [`H2FrontLog`] to the paired exchange before
//! it closes the connection, so a client that read to EOF finds the
//! complete log in its output — no sleeps, no polling.

use hdiff_h2::{encode_server_connection, parse_client_connection, H2Request, H2Response};
use hdiff_servers::{DowngradeOutcome, DowngradeProfile};

/// One client connection's worth of downgrade work, as the front saw it.
#[derive(Debug, Clone)]
pub struct H2FrontLog {
    /// Connection-level h2 parse failure, when the client bytes never
    /// yielded requests.
    pub parse_error: Option<String>,
    /// Frames the front parsed from the client connection (0 when the
    /// parse failed).
    pub frames: usize,
    /// The h2 requests the connection carried, in stream order.
    pub requests: Vec<H2Request>,
    /// Per-request translation outcomes.
    pub outcomes: Vec<DowngradeOutcome>,
    /// The concatenated h1 bytes this front forwarded upstream.
    pub h1: Vec<u8>,
}

/// Downgrades one whole client connection: the h2 server connection
/// bytes to answer with, and the log of what the front did.
pub(crate) fn serve(front: &DowngradeProfile, bytes: &[u8]) -> (Vec<u8>, H2FrontLog) {
    let (requests, stream_ids, frames, parse_error) = match parse_client_connection(bytes) {
        Ok(conn) => {
            let ids: Vec<u32> = conn.requests.iter().map(|p| p.stream_id).collect();
            let reqs: Vec<H2Request> = conn.requests.into_iter().map(|p| p.request).collect();
            (reqs, ids, conn.frames, None)
        }
        Err(e) => (Vec::new(), Vec::new(), 0, Some(e.to_string())),
    };

    let outcomes: Vec<DowngradeOutcome> = requests.iter().map(|r| front.downgrade(r)).collect();
    let h1: Vec<u8> = outcomes.iter().filter_map(|o| o.h1.as_deref()).flatten().copied().collect();

    // Each stream's response echoes the translation result: 200 with the
    // reconstructed h1 bytes when forwarded, the front's reject status
    // (reason as body) otherwise.
    let responses: Vec<(u32, H2Response)> = stream_ids
        .iter()
        .zip(&outcomes)
        .map(|(&id, o)| {
            let resp = match (&o.h1, &o.reject) {
                (Some(h1), _) => H2Response::new(200, h1.clone()),
                (None, Some((status, reason))) => {
                    H2Response::new(*status, reason.clone().into_bytes())
                }
                (None, None) => H2Response::new(500, Vec::new()),
            };
            (id, resp)
        })
        .collect();

    let log = H2FrontLog { parse_error, frames, requests, outcomes, h1 };
    (encode_server_connection(&responses), log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{ExchangeOutput, ExchangeSpec, Job, Reactor, SendMode};
    use hdiff_h2::{encode_client_connection, parse_server_connection, EncodeOptions};
    use std::time::Duration;

    fn exchange(front: DowngradeProfile, bytes: &[u8]) -> ExchangeOutput {
        let reactor = Reactor::spawn().unwrap();
        let l = reactor.add_h2_front(front, Duration::from_secs(2)).unwrap();
        let spec = ExchangeSpec::paired(&l, bytes, SendMode::Whole);
        let mut outs = reactor.run(vec![Job::Exchange(spec)]);
        outs.pop().and_then(|o| o.as_exchange().cloned()).expect("exchange output")
    }

    #[test]
    fn front_downgrades_over_the_wire_and_logs_the_h1_bytes() {
        let front = DowngradeProfile::edge();
        let req = H2Request::get("/index.html", "example.com");
        let bytes = encode_client_connection(std::slice::from_ref(&req), &EncodeOptions::default());
        let ex = exchange(front.clone(), &bytes);

        let responses = parse_server_connection(&ex.response).unwrap();
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].1.status, 200);
        let expected = front.downgrade(&req).h1.unwrap();
        assert_eq!(responses[0].1.body, expected, "response echoes the forwarded h1");

        let log = ex.front_log.expect("paired front log");
        assert!(log.parse_error.is_none());
        assert_eq!(log.frames, parse_client_connection(&bytes).unwrap().frames);
        assert_eq!(log.h1, expected);
    }

    #[test]
    fn front_rejection_travels_back_as_a_status() {
        let req = H2Request::post("/x", "example.com", b"b".to_vec())
            .with_header("transfer-encoding", "chunked");
        let bytes = encode_client_connection(std::slice::from_ref(&req), &EncodeOptions::default());
        let ex = exchange(DowngradeProfile::edge(), &bytes);
        let responses = parse_server_connection(&ex.response).unwrap();
        assert_eq!(responses[0].1.status, 400);
        let log = ex.front_log.expect("paired front log");
        assert!(log.h1.is_empty());
        assert!(log.outcomes[0].reject.is_some());
    }

    #[test]
    fn garbage_bytes_are_logged_as_a_parse_error() {
        let ex = exchange(DowngradeProfile::relay(), b"GET / HTTP/1.1\r\nHost: h\r\n\r\n");
        let log = ex.front_log.expect("paired front log");
        assert!(log.parse_error.as_deref().unwrap().contains("preface"));
        assert!(log.requests.is_empty());
        assert_eq!(log.frames, 0);
    }
}
