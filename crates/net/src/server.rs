//! The origin role's shared types: per-connection accounting, listener
//! configuration, the socket-level fault effects, and the rule that
//! decides when a buffered message can be answered.
//!
//! The origin state machine itself lives in [`crate::reactor`]. It runs
//! the existing [`hdiff_servers::engine`] over a buffered connection:
//! bytes are read incrementally, messages are parsed and answered as
//! they complete (keep-alive pipelining), and a connection that delivers
//! the same bytes as an in-process [`Server::handle_stream`] call
//! produces the identical reply sequence — the property the
//! cross-transport consistency pass asserts.

use std::time::Duration;

use hdiff_servers::{FaultKind, Interpretation, Outcome, RejectReason, ServerReply};
use hdiff_wire::ChunkedError;

/// The pipelining cap of every listener's default configuration: the
/// in-process streams' own cap.
pub use hdiff_servers::MAX_MESSAGES;

/// Socket-level analogues of the origin-side fault kinds. The fault plan
/// itself stays in `hdiff_servers::fault`; the campaign decides a fault
/// on the case thread and sends the *effect* with the exchange job (see
/// [`crate::reactor::FaultEffect`]), so the wire layer stays ignorant of
/// fault-schedule semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerFault {
    /// `ConnReset`: close the connection without ever replying.
    CloseNoReply,
    /// `StallRead`: hold the connection open and never reply.
    Stall,
    /// `Transient5xx`: substitute a 503 for every reply.
    Substitute503,
    /// `TruncateResponse`: halve each response body on the wire (the
    /// `Content-Length` header keeps its original value, so the client
    /// sees a genuinely short read).
    TruncateBody,
}

impl ServerFault {
    /// The origin fault kind this is the socket-level effect of; its
    /// effect on a reply is [`hdiff_servers::Server::fault_reply`]'s.
    pub fn kind(self) -> FaultKind {
        match self {
            ServerFault::CloseNoReply => FaultKind::ConnReset,
            ServerFault::Stall => FaultKind::StallRead,
            ServerFault::Substitute503 => FaultKind::Transient5xx,
            ServerFault::TruncateBody => FaultKind::TruncateResponse,
        }
    }
}

/// How a connection ended, recorded per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Teardown {
    /// Graceful close (FIN) after the last response was written.
    Fin,
    /// Aborted: closed without completing the exchange (I/O error or an
    /// injected reset).
    Abort,
    /// Held open without replying until the peer gave up (stall fault).
    Stalled,
    /// The server's own read timeout fired with the connection still open.
    TimedOut,
}

/// Per-connection accounting.
#[derive(Debug, Clone)]
pub struct ConnectionLog {
    /// Replies produced, in order — interpretation plus response, exactly
    /// what the in-process engine records.
    pub replies: Vec<ServerReply>,
    /// Request bytes received on the connection. After a rejected
    /// message the connection stops parsing but keeps reading to the
    /// client's FIN (bounded by the read timeout) before it closes, so
    /// this counts every byte the client sent, however the stream was
    /// segmented. Three closes stop counting early: the
    /// [`NetServerConfig::max_messages`] cap, and the close-without-reply
    /// and stall faults, which count what arrived before they fired.
    pub bytes_in: usize,
    /// Total response bytes written to the connection.
    pub bytes_out: usize,
    /// How the connection ended.
    pub teardown: Teardown,
}

/// Configuration for one origin listener.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Read timeout, re-armed on every read with progress; a fire with
    /// the connection open records [`Teardown::TimedOut`].
    pub read_timeout: Duration,
    /// Pipelined-message cap per connection. A connection that reaches
    /// it closes at once, unread bytes or not.
    pub max_messages: usize,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig { read_timeout: crate::timeout::io_timeout(), max_messages: MAX_MESSAGES }
    }
}

/// Classifies a rejection as "the stream is incomplete — more bytes may
/// change the verdict" (as opposed to genuinely malformed). These are
/// exactly the engine's partial-input reject reasons; a keep-alive
/// connection waits for more bytes on them instead of answering early.
pub fn incomplete_reason(i: &Interpretation) -> bool {
    match &i.outcome {
        Outcome::Accept => false,
        Outcome::Reject { status, reason } => {
            *status == 408
                || matches!(
                    reason,
                    RejectReason::NoRequestLineTerminator
                        | RejectReason::HeaderSectionUnterminated
                        | RejectReason::Chunked(ChunkedError::Truncated)
                )
        }
    }
}

/// Whether a parse of `remaining` buffered bytes can be finalized before
/// EOF. Accepts are prefix-stable except when a chunked-repair consumed
/// everything buffered (more bytes could extend the repaired body);
/// rejects are final unless they look like a partial message.
pub(crate) fn is_final(i: &Interpretation, remaining: usize, eof: bool) -> bool {
    if eof {
        return true;
    }
    if i.outcome.is_accept() {
        !(i.repaired_chunked && i.consumed >= remaining)
    } else {
        !incomplete_reason(i)
    }
}
