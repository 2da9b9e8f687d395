//! Loopback TCP transport for the HDiff testbed.
//!
//! The paper's harness sends every test case over a real network; the
//! rest of this reproduction calls the simulated products as in-process
//! functions. This crate closes that gap: it serves every
//! [`hdiff_servers`] behavioral profile over real sockets, so an entire
//! class of behaviors — pipelining desync, connection-boundary smuggling,
//! partial-read handling — can be observed as *byte streams* instead of
//! function calls.
//!
//! One socket implementation serves everything: the epoll event loop in
//! [`reactor`], with one state machine per connection role.
//!
//! * [`reactor`] — [`reactor::Reactor`]: origin servers (the
//!   `servers::engine` over a buffered connection with keep-alive,
//!   pipelined request accounting and per-connection teardown records),
//!   proxy hops relaying each forwarded message over a fresh upstream
//!   connection, responders (the Fig. 6 echo and the h2 fronts), and the
//!   client side of every exchange (whole, segmented or truncated sends),
//!   `hdiff probe`'s exchanges with a live server included. No code
//!   outside the reactor opens a socket.
//! * [`testbed`] — [`testbed::AsyncTestbed`]: a campaign's profiles on
//!   one reactor, and [`testbed::FrontTestbed`]: the h2 downgrade fronts.
//! * [`server`], [`proxy`] — the origin and proxy roles' logs, listener
//!   configuration and fault effects.
//! * [`h2front`] — [`h2front::H2FrontLog`]: what an HTTP/2 (h2c, prior
//!   knowledge) downgrade front did with one client connection.
//! * [`desync`] — splitting a response stream back into per-request
//!   responses and comparing two implementations' attributions; a
//!   disagreement is the wire-level desync signal.
//!
//! # Synchronization model
//!
//! A campaign exchange writes the entire request stream, then
//! `shutdown(Write)` (FIN), then reads to EOF. Every server-side
//! connection delivers its log to the paired exchange *before* closing,
//! so an exchange that observed EOF carries the complete log — no
//! sleeps, no polling. An origin that rejects a message keeps reading to
//! the client's FIN before it closes, so its log counts every byte the
//! client sent. Incremental parsing only finalizes a message early when
//! the parse cannot change with more bytes (see
//! [`server::incomplete_reason`]), which keeps the wire outcome equal to
//! the in-process [`hdiff_servers::Server::handle_stream`] outcome for
//! identical byte streams.
//!
//! Targets without the epoll backend (anything but Linux on x86_64 or
//! aarch64) fail [`reactor::Reactor::spawn`] with a typed error and keep
//! only the in-process transport.

pub mod desync;
pub mod error;
pub mod h2front;
pub mod proxy;
pub mod reactor;
pub mod server;
pub mod testbed;
pub mod timeout;

pub use desync::{attribute_responses, compare_attribution, DesyncSignal, ResponseAttribution};
pub use error::{NetError, NetErrorKind};
pub use h2front::H2FrontLog;
pub use proxy::{NetProxyConfig, ProxyConnLog};
pub use reactor::{
    AsyncListener, DriveOutput, DriveSpec, ExchangeOutput, ExchangeSpec, FaultEffect, Job,
    JobOutput, ListenerId, Reactor, ReactorStats, SendMode,
};
pub use server::{ConnectionLog, NetServerConfig, ServerFault, Teardown};
pub use testbed::{AsyncTestbed, FrontTestbed};
pub use timeout::{io_timeout, stall_observe_timeout, DEFAULT_IO_TIMEOUT, IO_TIMEOUT_ENV};
