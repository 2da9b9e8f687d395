//! A persistent, reactor-hosted loopback testbed.
//!
//! The blocking transport spawns fresh listeners (and threads) for every
//! case; [`AsyncTestbed`] instead hosts every behavioral profile — all
//! origin servers, all proxy hops, and one shared echo upstream — inside
//! a single [`crate::reactor::Reactor`] event loop for the lifetime of a
//! campaign. Cases fan out to every view *concurrently* as one job
//! batch, connections come from the reactor's warm keep-alive pool, and
//! each exchange collects its own connection log through the reactor's
//! pairing tickets (so interleaved cases can never mix logs up).

use std::time::Duration;

use hdiff_servers::ParserProfile;

use crate::client::SendMode;
use crate::error::NetError;
use crate::proxy::NetProxyConfig;
use crate::reactor::{
    AsyncListener, ExchangeOutput, ExchangeSpec, Job, JobOutput, Reactor, ReactorStats,
};
use crate::server::NetServerConfig;
use crate::timeout::io_timeout;

/// Idle keep-alive connections the reactor pre-opens per listener.
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
    /// keeps no records), then pre-warms a keep-alive pool for every
    /// listener.
    ///
    /// Fails with a typed error on unsupported targets (no epoll
    /// backend) — callers degrade to the blocking transport.
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

    /// The hosting reactor.
    pub fn reactor(&self) -> &Reactor {
        &self.reactor
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
    /// the connection log, claiming a warm pooled connection when one is
    /// available.
    pub fn exchange_job(&self, listener: &AsyncListener, bytes: &[u8], mode: SendMode) -> Job {
        self.exchange_job_with_timeout(listener, bytes, mode, io_timeout())
    }

    /// [`AsyncTestbed::exchange_job`] with an explicit read deadline
    /// (stall observation uses a short one).
    pub fn exchange_job_with_timeout(
        &self,
        listener: &AsyncListener,
        bytes: &[u8],
        mode: SendMode,
        read_timeout: Duration,
    ) -> Job {
        Job::Exchange(ExchangeSpec {
            addr: listener.addr,
            bytes: bytes.to_vec(),
            mode,
            read_timeout,
            pair: Some(listener.id),
            warm: true,
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
        let out = self.run(vec![self.exchange_job(listener, bytes, mode)]);
        out.into_iter()
            .next()
            .and_then(|o| match o {
                JobOutput::Exchange(e) => Some(e),
                JobOutput::Drive(_) => None,
            })
            .unwrap_or_default()
    }

    /// Drops the echo's forwarded-message records. The testbed's echo
    /// keeps none (see [`Reactor::add_echo`]), so its memory stays flat
    /// over any campaign length without this call.
    pub fn clear_echo_records(&self) {
        let _ = self.reactor.take_echo_records(self.echo.id);
    }

    /// Reactor counter snapshot (pool hits/misses, churn, wakeups).
    pub fn stats(&self) -> ReactorStats {
        self.reactor.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_servers::profile::ProxyBehavior;
    use hdiff_servers::{Proxy, Server};

    fn strict_proxy_profile() -> ParserProfile {
        let mut p = ParserProfile::strict("strictproxy");
        p.proxy = Some(ProxyBehavior::strict());
        p
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
        let bytes: &[u8] = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n";
        let ex = testbed.exchange(&testbed.proxies()[0], bytes, SendMode::Whole);
        assert!(ex.error.is_none(), "{ex:?}");
        let log = ex.proxy_log.as_ref().expect("paired proxy log");
        assert_eq!(log.results, Proxy::new(strict_proxy_profile()).forward_stream(bytes));
        assert!(String::from_utf8_lossy(&ex.response).starts_with("HTTP/1.1 200"));
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
        let records = testbed.reactor().take_echo_records(testbed.echo().id);
        assert!(records.is_empty(), "the echo recorded {} messages", records.len());
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
