//! Persistent, reactor-hosted loopback testbeds.
//!
//! [`AsyncTestbed`] hosts every behavioral profile of a campaign — all
//! origin servers, all proxy hops, and one shared echo upstream —
//! inside a single [`crate::reactor::Reactor`] event loop for the
//! lifetime of the campaign. Cases fan out to every view *concurrently*
//! as one job batch over pre-opened connections (each carries one
//! exchange and closes), and each exchange collects its own connection
//! log through the reactor's pairing tickets (so interleaved cases can
//! never mix logs up). [`FrontTestbed`] does the same for the HTTP/2
//! downgrade fronts.

use std::time::Duration;

use hdiff_servers::{DowngradeProfile, ParserProfile};

use crate::error::NetError;
use crate::h2front::H2FrontLog;
use crate::proxy::NetProxyConfig;
use crate::reactor::{
    AsyncListener, ExchangeOutput, ExchangeSpec, FaultEffect, Job, JobOutput, Reactor,
    ReactorStats, SendMode,
};
use crate::server::NetServerConfig;
use crate::timeout::io_timeout;

/// Idle connections the reactor pre-opens per listener.
pub const WARM_DEPTH: usize = 2;

/// Every profile of a campaign, served by one event loop.
#[derive(Debug)]
pub struct AsyncTestbed {
    reactor: Reactor,
    backends: Vec<AsyncListener>,
    proxies: Vec<AsyncListener>,
    echo: AsyncListener,
}

impl AsyncTestbed {
    /// Spawns the reactor and hosts `backends` as origin listeners and
    /// `proxies` as forwarding hops (relaying to a shared echo that
    /// keeps no records), then pre-opens [`WARM_DEPTH`] idle
    /// connections to every listener.
    ///
    /// Fails with a typed error on unsupported targets (no epoll
    /// backend).
    ///
    /// # Panics
    ///
    /// Panics if a proxy profile has no proxy behavior configured (same
    /// contract as [`hdiff_servers::Proxy::new`]).
    pub fn new(
        backends: &[ParserProfile],
        proxies: &[ParserProfile],
    ) -> Result<AsyncTestbed, NetError> {
        let reactor = Reactor::spawn()?;
        let echo = reactor.add_echo(io_timeout())?;
        let mut backend_listeners = Vec::with_capacity(backends.len());
        for profile in backends {
            let l = reactor.add_origin(profile.clone(), NetServerConfig::default(), true)?;
            backend_listeners.push(l);
        }
        let mut proxy_listeners = Vec::with_capacity(proxies.len());
        for profile in proxies {
            let l = reactor.add_proxy(profile.clone(), NetProxyConfig::new(echo.addr))?;
            proxy_listeners.push(l);
        }
        for l in backend_listeners.iter().chain(&proxy_listeners) {
            reactor.warm(l.addr, WARM_DEPTH);
        }
        Ok(AsyncTestbed { reactor, backends: backend_listeners, proxies: proxy_listeners, echo })
    }

    /// Origin listeners, in the order the backend profiles were given.
    pub fn backends(&self) -> &[AsyncListener] {
        &self.backends
    }

    /// Proxy listeners, in the order the proxy profiles were given.
    pub fn proxies(&self) -> &[AsyncListener] {
        &self.proxies
    }

    /// The shared echo upstream.
    pub fn echo(&self) -> &AsyncListener {
        &self.echo
    }

    /// An exchange job against `listener`, paired so the output carries
    /// the connection log, claiming a pre-opened connection when one is
    /// available.
    pub fn exchange_job(&self, listener: &AsyncListener, bytes: &[u8], mode: SendMode) -> Job {
        self.exchange_job_with(listener, bytes, mode, None, io_timeout())
    }

    /// [`AsyncTestbed::exchange_job`] carrying a fault effect for the
    /// paired connection, with an explicit read deadline (stall
    /// observation uses a short one).
    pub fn exchange_job_with(
        &self,
        listener: &AsyncListener,
        bytes: &[u8],
        mode: SendMode,
        fault: Option<FaultEffect>,
        read_timeout: Duration,
    ) -> Job {
        Job::Exchange(ExchangeSpec {
            read_timeout,
            fault,
            warm: true,
            ..ExchangeSpec::paired(listener, bytes, mode)
        })
    }

    /// Runs a job batch to completion (all jobs concurrently) and
    /// returns outputs in submission order.
    pub fn run(&self, jobs: Vec<Job>) -> Vec<JobOutput> {
        self.reactor.run(jobs)
    }

    /// Runs one exchange to completion.
    pub fn exchange(
        &self,
        listener: &AsyncListener,
        bytes: &[u8],
        mode: SendMode,
    ) -> ExchangeOutput {
        first_exchange(self.run(vec![self.exchange_job(listener, bytes, mode)]))
    }

    /// Does nothing: the echo keeps no records (see
    /// [`Reactor::add_echo`]). Kept because the benchmark harness in
    /// `perfbench/` calls it between passes.
    pub fn clear_echo_records(&self) {}

    /// Reactor counter snapshot (pool hits/misses, churn, wakeups).
    pub fn stats(&self) -> ReactorStats {
        self.reactor.stats()
    }
}

/// The HTTP/2 downgrade fronts, served by one event loop that every
/// worker of a downgrade campaign shares.
#[derive(Debug)]
pub struct FrontTestbed {
    reactor: Reactor,
    fronts: Vec<AsyncListener>,
}

impl FrontTestbed {
    /// Spawns the reactor and hosts every front on its own listener.
    pub fn new(fronts: &[DowngradeProfile]) -> Result<FrontTestbed, NetError> {
        let reactor = Reactor::spawn()?;
        let fronts = fronts
            .iter()
            .map(|f| reactor.add_h2_front(f.clone(), io_timeout()))
            .collect::<Result<_, _>>()?;
        Ok(FrontTestbed { reactor, fronts })
    }

    /// Sends one whole h2 client connection to every front concurrently
    /// and returns each front's log, in front order (`None` when a front
    /// delivered none).
    pub fn run(&self, bytes: &[u8]) -> Vec<Option<H2FrontLog>> {
        let jobs = self
            .fronts
            .iter()
            .map(|l| Job::Exchange(ExchangeSpec::paired(l, bytes, SendMode::Whole)))
            .collect();
        self.reactor
            .run(jobs)
            .into_iter()
            .map(|o| match o {
                JobOutput::Exchange(e) => e.front_log,
                JobOutput::Drive(_) => None,
            })
            .collect()
    }
}

fn first_exchange(outs: Vec<JobOutput>) -> ExchangeOutput {
    outs.into_iter()
        .next()
        .and_then(|o| match o {
            JobOutput::Exchange(e) => Some(e),
            JobOutput::Drive(_) => None,
        })
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Teardown;
    use hdiff_servers::fault::{FaultDecision, FaultKind};
    use hdiff_servers::profile::ProxyBehavior;
    use hdiff_servers::{Proxy, Server};

    fn strict_proxy_profile() -> ParserProfile {
        let mut p = ParserProfile::strict("strictproxy");
        p.proxy = Some(ProxyBehavior::strict());
        p
    }

    /// A reactor with one echo and one strict proxy in front of it, and
    /// no warm pool (so connection counts are exact).
    fn bare_proxy() -> (Reactor, AsyncListener) {
        let reactor = Reactor::spawn().unwrap();
        let echo = reactor.add_echo(io_timeout()).unwrap();
        let proxy = reactor.add_proxy(strict_proxy_profile(), NetProxyConfig::new(echo.addr));
        (reactor, proxy.unwrap())
    }

    fn proxy_exchange(
        reactor: &Reactor,
        proxy: &AsyncListener,
        bytes: &[u8],
        fault: Option<FaultEffect>,
    ) -> ExchangeOutput {
        let spec = ExchangeSpec { fault, ..ExchangeSpec::paired(proxy, bytes, SendMode::Whole) };
        first_exchange(reactor.run(vec![Job::Exchange(spec)]))
    }

    #[test]
    fn concurrent_fanout_matches_the_in_process_engine() {
        let backends = [ParserProfile::strict("wire"), ParserProfile::strict("wire2")];
        let testbed = AsyncTestbed::new(&backends, &[]).unwrap();
        let bytes: &[u8] = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n";
        let jobs = testbed
            .backends()
            .iter()
            .map(|l| testbed.exchange_job(l, bytes, SendMode::Whole))
            .collect();
        let outs = testbed.run(jobs);
        assert_eq!(outs.len(), 2);
        for (out, profile) in outs.iter().zip(&backends) {
            let ex = out.as_exchange().expect("exchange output");
            assert!(ex.error.is_none(), "{ex:?}");
            assert!(!ex.timed_out);
            let log = ex.server_log.as_ref().expect("paired log");
            assert_eq!(log.replies, Server::new(profile.clone()).handle_stream(bytes));
            assert_eq!(log.replies.len(), 2);
        }
    }

    #[test]
    fn proxy_hop_relays_through_the_shared_echo() {
        let testbed = AsyncTestbed::new(&[], &[strict_proxy_profile()]).unwrap();
        let bytes: &[u8] = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n";
        let ex = testbed.exchange(&testbed.proxies()[0], bytes, SendMode::Whole);
        assert!(ex.error.is_none(), "{ex:?}");
        let log = ex.proxy_log.as_ref().expect("paired proxy log");
        assert_eq!(log.results, Proxy::new(strict_proxy_profile()).forward_stream(bytes));
        assert_eq!(log.results.len(), 2);
        assert_eq!(log.teardown, Teardown::Fin);
        assert!(String::from_utf8_lossy(&ex.response).starts_with("HTTP/1.1 200"));
    }

    #[test]
    fn proxy_rejection_answers_downstream_without_touching_upstream() {
        let (reactor, proxy) = bare_proxy();
        let before = reactor.stats().conns_opened;
        let ex = proxy_exchange(&reactor, &proxy, b"GET / HTTP/1.1\r\nHost : bad\r\n\r\n", None);
        assert!(String::from_utf8_lossy(&ex.response).starts_with("HTTP/1.1 400"), "{ex:?}");
        // The client's connection and the proxy's accepted end; a relay
        // would add an upstream connection and the echo's accepted end.
        assert_eq!(reactor.stats().conns_opened - before, 2);
    }

    #[test]
    fn proxy_conn_reset_fault_forwards_a_prefix_and_aborts() {
        let (reactor, proxy) = bare_proxy();
        let decision = FaultDecision { kind: FaultKind::ConnReset, salt: 99 };
        let bytes = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n";
        let ex = proxy_exchange(&reactor, &proxy, bytes, Some(FaultEffect::Forward(decision)));
        let log = ex.proxy_log.as_ref().expect("paired proxy log");
        assert_eq!(log.results.len(), 1, "drop-rest stops the stream");
        assert_eq!(log.teardown, Teardown::Abort);
        let forwarded = log.results[0].action.forwarded().unwrap();
        let clean = Proxy::new(strict_proxy_profile()).forward(bytes);
        let clean_bytes = clean.action.forwarded().unwrap();
        assert_eq!(forwarded, &clean_bytes[..decision.reset_point(clean_bytes.len())]);
        // The prefix still reached the echo, which answered it.
        assert!(String::from_utf8_lossy(&ex.response).starts_with("HTTP/1.1 200"), "{ex:?}");
    }

    #[test]
    fn the_echo_answers_with_the_bytes() {
        let testbed = AsyncTestbed::new(&[], &[]).unwrap();
        let msg = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";
        let ex = testbed.exchange(testbed.echo(), msg, SendMode::Whole);
        let text = String::from_utf8_lossy(&ex.response);
        assert!(text.starts_with("HTTP/1.1 200"), "{text}");
        assert!(ex.response.ends_with(msg), "echoed body");
    }

    #[test]
    fn the_echo_keeps_no_records_over_many_proxy_exchanges() {
        let testbed = AsyncTestbed::new(&[], &[strict_proxy_profile()]).unwrap();
        let proxy = testbed.proxies()[0].clone();
        let bytes: &[u8] = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n";
        for _ in 0..20 {
            let jobs =
                (0..50).map(|_| testbed.exchange_job(&proxy, bytes, SendMode::Whole)).collect();
            for out in testbed.run(jobs) {
                let ex = out.as_exchange().expect("exchange output");
                assert!(
                    String::from_utf8_lossy(&ex.response).starts_with("HTTP/1.1 200"),
                    "{ex:?}"
                );
            }
        }
    }

    #[test]
    fn warm_pool_serves_repeat_cases() {
        let testbed = AsyncTestbed::new(&[ParserProfile::strict("wire")], &[]).unwrap();
        let l = testbed.backends()[0].clone();
        let bytes: &[u8] = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";
        for _ in 0..4 {
            let ex = testbed.exchange(&l, bytes, SendMode::Whole);
            assert!(ex.error.is_none());
            assert!(ex.server_log.is_some());
        }
        let stats = testbed.stats();
        assert!(stats.pool_hits >= 1, "{stats:?}");
        assert_eq!(stats.pool_hits + stats.pool_misses, 4, "{stats:?}");
    }
}
