//! The proxy role's shared types.
//!
//! The proxy state machine lives in [`crate::reactor`]. It parses the
//! client stream with the product's [`hdiff_servers::Proxy`] wrapper and
//! relays each forwarded message over a *fresh* upstream connection —
//! so the upstream (normally the echo) learns exact message boundaries
//! from connection boundaries, without parsing. Upstream responses are
//! relayed back downstream verbatim.
//!
//! A forward-stage fault arrives as a pre-decided
//! [`hdiff_servers::fault::FaultDecision`] carried by the exchange job;
//! its byte-level effects — prefix cut, garbled octet, stalled (empty)
//! forward — are applied by [`hdiff_servers::ForwardAction::apply_fault`],
//! the function the in-process proxy stream calls, so both transports
//! forward identical damage. Which damaged messages the case keeps, and
//! which fault events it records, the case body in `hdiff_diff::workflow`
//! decides.

use std::net::SocketAddr;
use std::time::Duration;

use hdiff_servers::ProxyResult;

use crate::server::{Teardown, MAX_MESSAGES};
use crate::timeout::io_timeout;

/// Configuration for one proxy listener.
#[derive(Debug, Clone)]
pub struct NetProxyConfig {
    /// Upstream address each forwarded message is relayed to.
    pub upstream: SocketAddr,
    /// Read timeout on both the downstream and upstream side.
    pub read_timeout: Duration,
    /// Pipelined-message cap per connection.
    pub max_messages: usize,
}

impl NetProxyConfig {
    /// A default configuration forwarding to `upstream`, using the
    /// shared testbed timeout ([`crate::timeout::io_timeout`]).
    pub fn new(upstream: SocketAddr) -> NetProxyConfig {
        NetProxyConfig { upstream, read_timeout: io_timeout(), max_messages: MAX_MESSAGES }
    }
}

/// Per-connection accounting for a proxy hop.
#[derive(Debug, Clone)]
pub struct ProxyConnLog {
    /// Per-message results (interpretation + action, with post-fault
    /// forwarded bytes) — the same records the in-process
    /// [`hdiff_servers::Proxy::forward_stream_with`] produces.
    pub results: Vec<ProxyResult>,
    /// How the downstream connection ended.
    pub teardown: Teardown,
}
