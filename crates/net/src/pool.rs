//! A blocking keep-alive client pool for live servers.
//!
//! The testbed's own traffic runs on the reactor (which keeps its own
//! warm pool inside the event loop); this type is the client `hdiff
//! probe <host:port>` points at a server the user names, driving framed
//! request/response traffic from the calling thread. The catalog sweep
//! reuses one pooled connection across every vector instead of paying
//! connect setup per probe.
//!
//! Semantics:
//!
//! * [`ConnPool::request`] claims an idle connection (pool **hit**) or
//!   opens one (**miss**), writes the request, reads one framed response
//!   (`hdiff_wire::parse_response`), and returns the connection to the
//!   pool.
//! * A reused connection the server closed in the meantime (write error
//!   or EOF before a complete response, with no partial bytes) is
//!   **evicted** and the request retried exactly once on a fresh
//!   connection — the same stale-connection rule the reactor's warm pool
//!   applies.
//! * Counters are both kept on the pool ([`PoolStats`]) and emitted as
//!   `net.pool.hit` / `net.pool.miss` / `net.pool.evict` observations,
//!   so campaign telemetry and unit tests see the same numbers.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use hdiff_wire::{parse_response, ParsedResponse};

use crate::timeout::io_timeout;

/// Timeout configuration for a [`ConnPool`]'s connections.
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// Read timeout for every connection the pool opens.
    pub read_timeout: Duration,
    /// Write timeout for every connection the pool opens.
    pub write_timeout: Duration,
}

impl Default for NetClientConfig {
    fn default() -> NetClientConfig {
        NetClientConfig { read_timeout: io_timeout(), write_timeout: io_timeout() }
    }
}

/// Pool counters. `hits + misses` equals the number of connection
/// claims: one per request plus one per stale-connection retry —
/// independent of how many threads run their own pools.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served on a reused pooled connection.
    pub hits: u64,
    /// Requests that had to open a fresh connection.
    pub misses: u64,
    /// Stale pooled connections discarded.
    pub evictions: u64,
}

/// One idle pooled connection plus any over-read response bytes.
struct Idle {
    stream: TcpStream,
    leftover: Vec<u8>,
}

/// A keep-alive connection pool for one target address.
#[derive(Debug)]
pub struct ConnPool {
    addr: SocketAddr,
    config: NetClientConfig,
    idle: Vec<Idle>,
    depth: usize,
    stats: PoolStats,
}

impl std::fmt::Debug for Idle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Idle").field("leftover", &self.leftover.len()).finish()
    }
}

impl ConnPool {
    /// A pool of up to `depth` idle connections to `addr`, using the
    /// shared testbed timeouts.
    pub fn new(addr: SocketAddr, depth: usize) -> ConnPool {
        ConnPool::with_config(addr, depth, NetClientConfig::default())
    }

    /// A pool with explicit timeouts.
    pub fn with_config(addr: SocketAddr, depth: usize, config: NetClientConfig) -> ConnPool {
        ConnPool {
            addr,
            config,
            idle: Vec::new(),
            depth: depth.max(1),
            stats: PoolStats::default(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    fn connect(&mut self) -> std::io::Result<Idle> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(self.config.read_timeout))?;
        stream.set_write_timeout(Some(self.config.write_timeout))?;
        stream.set_nodelay(true)?;
        hdiff_obs::count("net.conn.open", 1);
        Ok(Idle { stream, leftover: Vec::new() })
    }

    fn claim(&mut self) -> std::io::Result<(Idle, bool)> {
        if let Some(idle) = self.idle.pop() {
            self.stats.hits += 1;
            hdiff_obs::count("net.pool.hit", 1);
            return Ok((idle, true));
        }
        self.stats.misses += 1;
        hdiff_obs::count("net.pool.miss", 1);
        Ok((self.connect()?, false))
    }

    fn evict(&mut self) {
        self.stats.evictions += 1;
        hdiff_obs::count("net.pool.evict", 1);
    }

    /// Writes `bytes` and reads one framed response over a pooled
    /// keep-alive connection. A stale reused connection is evicted and
    /// the request retried once on a fresh one.
    pub fn request(&mut self, bytes: &[u8]) -> std::io::Result<ParsedResponse> {
        let (conn, reused) = self.claim()?;
        match self.exchange_on(conn, bytes) {
            Ok(parsed) => Ok(parsed),
            Err((_, stale)) if reused && stale => {
                // The retry is always a fresh connection (counted as a
                // miss); a second failure is a real error.
                self.evict();
                self.stats.misses += 1;
                hdiff_obs::count("net.pool.miss", 1);
                let fresh = self.connect()?;
                self.exchange_on(fresh, bytes).map_err(|(e2, _)| e2)
            }
            Err((e, _)) => Err(e),
        }
    }

    /// One framed request/response on `conn`; returns the connection to
    /// the pool on success. The error side carries whether the failure
    /// pattern is a stale keep-alive connection (nothing received).
    fn exchange_on(
        &mut self,
        mut conn: Idle,
        bytes: &[u8],
    ) -> Result<ParsedResponse, (std::io::Error, bool)> {
        if let Err(e) = conn.stream.write_all(bytes) {
            return Err((e, true));
        }
        let mut got_bytes = false;
        let mut chunk = [0u8; 4096];
        loop {
            if let Ok(parsed) = parse_response(&conn.leftover) {
                conn.leftover.drain(..parsed.consumed);
                if self.idle.len() < self.depth {
                    self.idle.push(conn);
                }
                return Ok(parsed);
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err((
                        std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "connection closed before a complete response",
                        ),
                        !got_bytes,
                    ));
                }
                Ok(n) => {
                    got_bytes = true;
                    conn.leftover.extend_from_slice(&chunk[..n]);
                }
                Err(e) => return Err((e, false)),
            }
        }
    }

    /// Closes every idle connection: FIN then drain to the server's EOF,
    /// so servers record their connection logs before this returns.
    pub fn close(&mut self) {
        for mut idle in self.idle.drain(..) {
            let _ = idle.stream.shutdown(Shutdown::Write);
            let mut sink = [0u8; 1024];
            while matches!(idle.stream.read(&mut sink), Ok(n) if n > 0) {}
        }
    }
}

impl Drop for ConnPool {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::Reactor;
    use crate::server::NetServerConfig;
    use hdiff_servers::ParserProfile;

    #[test]
    fn reuses_one_connection_across_requests() {
        let reactor = Reactor::spawn().unwrap();
        let server = reactor
            .add_origin(ParserProfile::strict("wire"), NetServerConfig::default(), true)
            .unwrap();
        let mut pool = ConnPool::new(server.addr, 2);
        for _ in 0..3 {
            let r = pool.request(b"GET / HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
            assert_eq!(r.status.as_u16(), 200);
        }
        pool.close();
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 2, "{stats:?}");
        let logs = reactor.take_server_logs(server.id);
        assert_eq!(logs.len(), 1, "all three requests rode one connection");
        assert_eq!(logs[0].replies.len(), 3);
    }
}
