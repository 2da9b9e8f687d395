//! The response a simulated server or proxy answers a message with,
//! rendered on demand.
//!
//! The campaign reads only a reply's status: detection, behavior
//! digests and the CPDoS storability check never look at its body or
//! its header lines. An [`EchoResponse`] therefore keeps the status and
//! what its bytes are made of — views into the interpretation's buffer
//! or the reject reason, the implementation's name, and the shaping an
//! origin fault applied — and renders the bytes only when asked, for a
//! socket or a digest ([`EchoResponse::to_bytes`]) or as a wire
//! response ([`EchoResponse::to_response`]).

use std::io::Write;
use std::sync::{Mutex, PoisonError};

use hdiff_wire::{ascii, ByteView, Response, StatusCode};

use crate::decision::RejectReason;
use crate::engine::{Interpretation, Outcome};
use crate::fault::FaultKind;

/// The body of the 503 a `Transient5xx` origin fault substitutes.
const INJECTED_ERROR: &[u8] = b"injected transient upstream error";

/// The `Server` field value of every reply of the implementation
/// `name`.
///
/// Each distinct name is copied once per process into a table that is
/// never freed, so a reply carries the name as a plain reference: no
/// allocation per model or per reply, and no reference count that
/// threads running the same models would write to. The names are the
/// products' and the test models', a few dozen in a process.
pub(crate) fn server_name(name: &str) -> &'static str {
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    // Nothing panics while the lock is held, and the table is valid
    // after every push, so a poisoned lock is safe to use.
    let mut names = NAMES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&known) = names.iter().find(|&&known| known == name) {
        return known;
    }
    let name: &'static str = Box::leak(name.into());
    names.push(name);
    name
}

/// One response of a simulated implementation.
///
/// Its bytes are an HTTP/1.1 status line with the canonical reason
/// phrase, a `Content-Length` line, a `Server` line naming the
/// implementation, and the body: for an accepted message the echo of
/// what the implementation understood (`host=…;method=…;target=…;
/// len=…;data=…`, the back-end feedback of Fig. 6 step 3), for a
/// rejected one its reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EchoResponse {
    /// Status code of the status line.
    pub status: StatusCode,
    /// The `Server` field value, interned by [`server_name`].
    server: &'static str,
    body: Body,
    /// Whether only the first half of the body is sent while
    /// `Content-Length` keeps the full length.
    truncated: bool,
}

/// What the body of an [`EchoResponse`] says.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Body {
    /// The echo of an accepted message: views into its interpretation.
    Echo { host: Option<ByteView>, method: ByteView, target: ByteView, body: ByteView },
    /// The reason of a rejection.
    Reject(RejectReason),
    /// The text of an injected transient upstream error.
    Injected,
}

impl EchoResponse {
    /// What `server` answers the message it interpreted as `i` with: 200
    /// and the echo on accept, the reject status and its reason
    /// otherwise.
    pub(crate) fn new(server: &'static str, i: &Interpretation) -> EchoResponse {
        let (status, body) = match &i.outcome {
            Outcome::Accept => (
                StatusCode::OK,
                Body::Echo {
                    host: i.host.clone(),
                    method: i.method.clone(),
                    target: i.target.clone(),
                    body: i.body.clone(),
                },
            ),
            Outcome::Reject { status, reason } => {
                (StatusCode(*status), Body::Reject(reason.clone()))
            }
        };
        EchoResponse { status, server, body, truncated: false }
    }

    /// Shapes the response as an origin fault of `kind` does — the one
    /// implementation both the in-process stream and the socket origin
    /// use. `Transient5xx` replaces it with a 503 saying "injected
    /// transient upstream error"; `TruncateResponse` sends half its
    /// body while `Content-Length` keeps the full length. The other
    /// kinds shape no response.
    pub fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Transient5xx => {
                self.status = StatusCode(503);
                self.body = Body::Injected;
                self.truncated = false;
            }
            FaultKind::TruncateResponse => self.truncated = true,
            FaultKind::ConnReset | FaultKind::StallRead | FaultKind::GarbleForward => {}
        }
    }

    /// The response's bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_response().to_bytes()
    }

    /// The response as a wire [`Response`].
    pub fn to_response(&self) -> Response {
        let mut body = Vec::new();
        self.write_body(&mut body);
        let mut response = Response::with_body(self.status, body);
        response.headers.push("Server", self.server);
        if self.truncated {
            response.body.truncate(response.body.len() / 2);
        }
        response
    }

    /// Appends the whole body, before any truncation.
    fn write_body(&self, out: &mut Vec<u8>) {
        match &self.body {
            Body::Echo { host, method, target, body } => {
                out.extend_from_slice(b"host=");
                out.extend_from_slice(host.as_deref().unwrap_or(b"-"));
                out.extend_from_slice(b";method=");
                out.extend_from_slice(method);
                out.extend_from_slice(b";target=");
                out.extend_from_slice(target);
                out.extend_from_slice(b";len=");
                ascii::push_dec(out, body.len() as u64);
                out.extend_from_slice(b";data=");
                out.extend_from_slice(body);
            }
            Body::Reject(reason) => {
                write!(out, "{reason}").expect("writing to a Vec cannot fail");
            }
            Body::Injected => out.extend_from_slice(INJECTED_ERROR),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ParserProfile;
    use crate::server::Server;

    fn reply(input: &[u8]) -> EchoResponse {
        Server::new(ParserProfile::strict("base")).handle(input).response
    }

    #[test]
    fn renders_the_echo_of_an_accept() {
        assert_eq!(
            reply(b"POST /p HTTP/1.1\r\nHost: h1.com\r\nContent-Length: 3\r\n\r\nabc").to_bytes(),
            b"HTTP/1.1 200 OK\r\nContent-Length: 48\r\nServer: base\r\n\r\n\
              host=h1.com;method=POST;target=/p;len=3;data=abc"
        );
        assert_eq!(
            reply(b"GET / HTTP/1.0\r\n\r\n").to_bytes(),
            b"HTTP/1.1 200 OK\r\nContent-Length: 38\r\nServer: base\r\n\r\n\
              host=-;method=GET;target=/;len=0;data="
        );
    }

    #[test]
    fn renders_a_rejection_with_its_reason() {
        let r = reply(b"GET / HTTP/1.1\r\n\r\n");
        assert_eq!(r.status, StatusCode::BAD_REQUEST);
        assert_eq!(
            r.to_bytes(),
            b"HTTP/1.1 400 Bad Request\r\nContent-Length: 19\r\nServer: base\r\n\r\nmissing host header"
        );
    }

    #[test]
    fn faults_replace_or_truncate() {
        let mut r = reply(b"GET / HTTP/1.1\r\n\r\n");
        r.apply_fault(FaultKind::Transient5xx);
        assert_eq!(
            r.to_bytes(),
            b"HTTP/1.1 503\r\nContent-Length: 33\r\nServer: base\r\n\r\n\
              injected transient upstream error"
        );
        let mut r = reply(b"GET / HTTP/1.1\r\n\r\n");
        r.apply_fault(FaultKind::TruncateResponse);
        assert_eq!(
            r.to_bytes(),
            b"HTTP/1.1 400 Bad Request\r\nContent-Length: 19\r\nServer: base\r\n\r\nmissing h"
        );
        let mut r = reply(b"GET / HTTP/1.1\r\n\r\n");
        for kind in [FaultKind::ConnReset, FaultKind::StallRead, FaultKind::GarbleForward] {
            r.apply_fault(kind);
        }
        assert_eq!(r, reply(b"GET / HTTP/1.1\r\n\r\n"));
    }

    #[test]
    fn each_name_is_interned_once() {
        let name = String::from("interned-once");
        let first = server_name(&name);
        assert_eq!(first, "interned-once");
        assert!(std::ptr::eq(first, server_name("interned-once")));
    }
}
