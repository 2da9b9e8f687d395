//! Origin-server wrapper: pipelined stream handling plus echo-style
//! responses describing the interpretation (the paper's back-end feedback
//! "through application scripting languages, such as PHP, and ASPX").

use hdiff_wire::{ascii, Response, StatusCode};

use crate::engine::{interpret, Interpretation, Outcome};
use crate::fault::FaultKind;
use crate::profile::ParserProfile;

/// The hop name under which origin-side faults are decided. One constant
/// for every back-end, so every proxy chain of the same case sees the
/// *same* injected origin fault — the precondition for comparing their
/// reactions.
pub const ORIGIN_HOP: &str = "origin";

/// The most pipelined messages one connection is parsed for, by the
/// in-process server and proxy streams and by their socket counterparts.
pub const MAX_MESSAGES: usize = 16;

/// One request's worth of server output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerReply {
    /// The interpretation that produced the response.
    pub interpretation: Interpretation,
    /// The response the server sends.
    pub response: Response,
}

/// A simulated origin server.
#[derive(Debug, Clone)]
pub struct Server {
    /// The behavioral profile.
    pub profile: ParserProfile,
}

impl Server {
    /// Wraps a profile as an origin server.
    pub fn new(profile: ParserProfile) -> Server {
        Server { profile }
    }

    /// The product name.
    pub fn name(&self) -> &str {
        &self.profile.name
    }

    /// Handles a single request (first message on the stream).
    pub fn handle(&self, input: &[u8]) -> ServerReply {
        let interpretation = interpret(&self.profile, input);
        let response = self.respond(&interpretation);
        ServerReply { interpretation, response }
    }

    /// Handles a full connection's bytes: consecutive (pipelined)
    /// messages until a reject, exhaustion, or the [`MAX_MESSAGES`] cap.
    /// This is where a smuggled second request becomes visible.
    pub fn handle_stream(&self, input: &[u8]) -> Vec<ServerReply> {
        self.handle_stream_with(input, None)
    }

    /// [`Server::handle_stream`] under an origin fault already decided
    /// for the case: `ConnReset` and `StallRead` leave the connection
    /// without a reply, and every other kind shapes each reply through
    /// [`Server::fault_reply`].
    pub fn handle_stream_with(&self, input: &[u8], fault: Option<FaultKind>) -> Vec<ServerReply> {
        if matches!(fault, Some(FaultKind::ConnReset | FaultKind::StallRead)) {
            return Vec::new();
        }
        let mut replies = Vec::new();
        let mut pos = 0usize;
        for _ in 0..MAX_MESSAGES {
            if pos >= input.len() {
                break;
            }
            let mut reply = self.handle(&input[pos..]);
            let consumed = reply.interpretation.consumed;
            let rejected = !reply.interpretation.outcome.is_accept();
            if let Some(kind) = fault {
                self.fault_reply(kind, &mut reply);
            }
            replies.push(reply);
            if rejected || consumed == 0 {
                break; // connection closes on error
            }
            pos += consumed;
        }
        replies
    }

    /// Applies the effect an origin fault of `kind` has on one reply —
    /// the one implementation both the in-process stream and the socket
    /// origin use. `Transient5xx` replaces the response with a 503
    /// saying "injected transient upstream error" with the `Server`
    /// field; `TruncateResponse` cuts the response body to half. The
    /// other kinds shape no reply.
    pub fn fault_reply(&self, kind: FaultKind, reply: &mut ServerReply) {
        match kind {
            FaultKind::Transient5xx => {
                let mut r =
                    Response::with_body(StatusCode(503), "injected transient upstream error");
                r.headers.push("Server", &self.profile.name);
                reply.response = r;
            }
            FaultKind::TruncateResponse => {
                let keep = reply.response.body.len() / 2;
                reply.response.body.truncate(keep);
            }
            _ => {}
        }
    }

    /// Builds the echo-style response: status from the outcome; on accept,
    /// a body reporting what the server understood (host, method, body
    /// length and payload) so the differential engine can read the
    /// back-end's perception (Fig. 6, step 3).
    fn respond(&self, i: &Interpretation) -> Response {
        let mut r = match &i.outcome {
            Outcome::Accept => {
                let host = i.host.as_deref().unwrap_or(b"-");
                // Sized for every part plus the decimal body length, so
                // the body is built in one allocation.
                let mut body = Vec::with_capacity(
                    40 + host.len() + i.method.len() + i.target.len() + i.body.len(),
                );
                body.extend_from_slice(b"host=");
                body.extend_from_slice(host);
                body.extend_from_slice(b";method=");
                body.extend_from_slice(&i.method);
                body.extend_from_slice(b";target=");
                body.extend_from_slice(&i.target);
                body.extend_from_slice(b";len=");
                ascii::push_dec(&mut body, i.body.len() as u64);
                body.extend_from_slice(b";data=");
                body.extend_from_slice(&i.body);
                Response::with_body(StatusCode::OK, body)
            }
            Outcome::Reject { status, reason } => {
                Response::with_body(StatusCode(*status), reason.to_string())
            }
        };
        r.headers.push("Server", &self.profile.name);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{DuplicateClPolicy, ParserProfile};

    #[test]
    fn echoes_interpretation() {
        let s = Server::new(ParserProfile::strict("base"));
        let reply = s.handle(b"POST / HTTP/1.1\r\nHost: h1.com\r\nContent-Length: 3\r\n\r\nabc");
        assert_eq!(reply.response.status, StatusCode::OK);
        let body = String::from_utf8_lossy(&reply.response.body);
        assert!(body.contains("host=h1.com"), "{body}");
        assert!(body.contains("len=3"));
        assert!(body.contains("data=abc"));
    }

    #[test]
    fn rejections_carry_status_and_reason() {
        let s = Server::new(ParserProfile::strict("base"));
        let reply = s.handle(b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(reply.response.status, StatusCode::BAD_REQUEST);
        assert!(String::from_utf8_lossy(&reply.response.body).contains("host"));
    }

    #[test]
    fn pipelined_stream_splits_messages() {
        let s = Server::new(ParserProfile::strict("base"));
        let replies = s
            .handle_stream(b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n");
        assert_eq!(replies.len(), 2);
        assert_eq!(replies[0].interpretation.target, b"/a");
        assert_eq!(replies[1].interpretation.target, b"/b");
    }

    #[test]
    fn smuggled_request_appears_as_second_message() {
        // A server that takes the LAST of two CLs (0) leaves the 10-byte
        // body in the stream; it must then be parsed as a second request.
        let mut p = ParserProfile::strict("lastcl");
        p.duplicate_cl = DuplicateClPolicy::Last;
        let s = Server::new(p);
        let replies = s.handle_stream(
            b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\nContent-Length: 0\r\n\r\nGET /smuggled HTTP/1.1\r\nHost: h\r\n\r\n",
        );
        assert_eq!(replies.len(), 2, "{replies:?}");
        assert_eq!(replies[1].interpretation.target, b"/smuggled");
    }

    #[test]
    fn stream_stops_on_reject() {
        let s = Server::new(ParserProfile::strict("base"));
        let replies = s.handle_stream(
            b"GET / HTTP/1.1\r\nBad Header\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n",
        );
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].response.status, StatusCode::BAD_REQUEST);
    }
}
