//! The recording echo origin of Fig. 6.
//!
//! All proxies in the test workflow forward to this origin; it records the
//! exact bytes each forwarded message consisted of, for subsequent replay
//! against the real back-end profiles (workflow step 2).

use hdiff_wire::{Response, StatusCode};

/// A recording echo server.
#[derive(Debug, Clone, Default)]
pub struct EchoServer {
    records: Vec<Vec<u8>>,
}

impl EchoServer {
    /// Creates an empty echo server.
    pub fn new() -> EchoServer {
        EchoServer::default()
    }

    /// Receives one forwarded message, records it, and echoes it back in
    /// the response body.
    pub fn receive(&mut self, forwarded: &[u8]) -> Response {
        self.records.push(forwarded.to_vec());
        EchoServer::echo(forwarded)
    }

    /// The echo response to one forwarded message, without recording it.
    pub fn echo(forwarded: &[u8]) -> Response {
        let mut r = Response::with_body(StatusCode::OK, forwarded.to_vec());
        r.headers.push("Server", "hdiff-echo");
        r
    }

    /// All recorded messages, in arrival order.
    pub fn records(&self) -> &[Vec<u8>] {
        &self.records
    }

    /// Number of recorded messages.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Clears the recording.
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_echoes() {
        let mut e = EchoServer::new();
        let r = e.receive(b"GET / HTTP/1.1\r\nHost: h\r\n\r\n");
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.body, b"GET / HTTP/1.1\r\nHost: h\r\n\r\n");
        assert_eq!(e.len(), 1);
        e.clear();
        assert!(e.is_empty());
    }
}
