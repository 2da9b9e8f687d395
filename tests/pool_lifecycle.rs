//! Keep-alive pool lifecycle gate.
//!
//! Both keep-alive pools — the blocking [`hdiff::net::ConnPool`] behind
//! `hdiff probe` and the reactor's warm pool behind `--transport
//! tcp-async` — share one contract: a request claims an idle connection
//! (hit) or opens one (miss), a connection the server closed in the
//! meantime is evicted and the request retried exactly once, and the
//! counters obey `hits + misses == requests + retries` no matter how
//! many threads run their own pools. This gate pins each clause. The
//! `ConnPool` tests point it at a reactor-hosted origin
//! ([`Reactor::add_origin`]) and read that origin's connection logs with
//! [`Reactor::take_server_logs`].

use hdiff::net::{
    AsyncListener, AsyncTestbed, ConnPool, NetServerConfig, Reactor, SendMode, IO_TIMEOUT_ENV,
};
use hdiff::servers::ParserProfile;

const REQ: &[u8] = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";

/// Shortens the shared socket timeout (unless the caller already chose
/// one) so the idle-eviction test can wait out a server-side close
/// without half-second defaults. Must run before the first socket is
/// opened because [`hdiff::net::io_timeout`] caches on first use, so
/// every test here calls it first thing.
fn pin_timeouts() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        if std::env::var(IO_TIMEOUT_ENV).is_err() {
            std::env::set_var(IO_TIMEOUT_ENV, "250");
        }
        assert!(hdiff::net::io_timeout() >= std::time::Duration::from_millis(1));
    });
}

/// A strict origin on a fresh reactor, closing each connection after
/// `max_messages` replies.
fn origin(max_messages: Option<usize>) -> (Reactor, AsyncListener) {
    let reactor = Reactor::spawn().unwrap();
    let mut config = NetServerConfig::default();
    if let Some(cap) = max_messages {
        config.max_messages = cap;
    }
    let server = reactor.add_origin(ParserProfile::strict("wire"), config, true).unwrap();
    (reactor, server)
}

#[test]
fn pooled_connection_is_reused_across_cases() {
    pin_timeouts();
    let (reactor, server) = origin(None);
    let mut pool = ConnPool::new(server.addr, 2);
    for _ in 0..4 {
        let reply = pool.request(REQ).unwrap();
        assert_eq!(reply.status.as_u16(), 200);
    }
    pool.close();
    let stats = pool.stats();
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.hits, 3, "{stats:?}");
    assert_eq!(stats.evictions, 0, "{stats:?}");
    let logs = reactor.take_server_logs(server.id);
    assert_eq!(logs.len(), 1, "all four cases rode one connection: {logs:?}");
    assert_eq!(logs[0].replies.len(), 4);
}

#[test]
fn server_initiated_close_evicts_and_retries_once() {
    pin_timeouts();
    // The server hangs up every connection after two replies, so every
    // third request lands on a stale pooled connection mid-sweep.
    let (_reactor, server) = origin(Some(2));
    let mut pool = ConnPool::new(server.addr, 2);
    for _ in 0..5 {
        let reply = pool.request(REQ).unwrap();
        assert_eq!(reply.status.as_u16(), 200, "retry-once must hide the stale connection");
    }
    let stats = pool.stats();
    assert_eq!(stats.evictions, 2, "{stats:?}");
    assert_eq!(stats.hits, 4, "{stats:?}");
    assert_eq!(stats.misses, 3, "{stats:?}");
    assert_eq!(
        stats.hits + stats.misses,
        5 + stats.evictions,
        "claims must equal requests plus retries: {stats:?}"
    );
}

#[test]
fn stale_retry_counters_reach_campaign_telemetry() {
    pin_timeouts();
    // A one-message server makes the reuse on request 2 deterministically
    // stale: claim (hit) → EOF with nothing → evict → fresh retry (miss).
    let (_reactor, server) = origin(Some(1));
    let ((), tel) = hdiff::obs::with_case(7, || {
        let mut pool = ConnPool::new(server.addr, 2);
        for _ in 0..2 {
            let reply = pool.request(REQ).unwrap();
            assert_eq!(reply.status.as_u16(), 200);
        }
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 2, 1), "{stats:?}");
    });
    assert_eq!(tel.counters.get("net.pool.hit"), Some(&1), "{:?}", tel.counters);
    assert_eq!(tel.counters.get("net.pool.miss"), Some(&2), "{:?}", tel.counters);
    assert_eq!(tel.counters.get("net.pool.evict"), Some(&1), "{:?}", tel.counters);
    assert_eq!(tel.counters.get("net.conn.open"), Some(&2), "{:?}", tel.counters);
}

#[test]
fn async_warm_pool_evicts_idle_connections_the_server_closed() {
    pin_timeouts();
    let testbed = AsyncTestbed::new(&[ParserProfile::strict("wire")], &[]).unwrap();
    let listener = testbed.backends()[0].clone();
    let first = testbed.exchange(&listener, REQ, SendMode::Whole);
    assert!(first.error.is_none(), "{first:?}");
    // Wait out the origin's read timeout: the server tears the parked
    // warm connections down, and the reactor must notice the close and
    // evict them rather than hand a dead socket to the next case.
    std::thread::sleep(hdiff::net::io_timeout() + std::time::Duration::from_millis(300));
    let second = testbed.exchange(&listener, REQ, SendMode::Whole);
    assert!(second.error.is_none(), "{second:?}");
    assert!(second.server_log.is_some(), "post-eviction case still pairs its log");
    let stats = testbed.stats();
    assert!(stats.pool_evictions >= 1, "{stats:?}");
}

#[test]
fn pool_counters_are_thread_count_invariant() {
    pin_timeouts();
    const REQUESTS_PER_THREAD: u64 = 6;
    // Two-message connections force retries so the invariant is checked
    // with a nonzero eviction term, not just hits + misses == requests.
    let (_reactor, server) = origin(Some(2));
    let addr = server.addr;

    let sweep = |threads: usize| -> (u64, u64) {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut pool = ConnPool::new(addr, 2);
                    for _ in 0..REQUESTS_PER_THREAD {
                        let reply = pool.request(REQ).unwrap();
                        assert_eq!(reply.status.as_u16(), 200);
                    }
                    pool.stats()
                })
            })
            .collect();
        let mut claims = 0;
        let mut evictions = 0;
        for handle in handles {
            let stats = handle.join().unwrap();
            assert_eq!(
                stats.hits + stats.misses,
                REQUESTS_PER_THREAD + stats.evictions,
                "per-pool invariant: {stats:?}"
            );
            claims += stats.hits + stats.misses;
            evictions += stats.evictions;
        }
        (claims, evictions)
    };

    for threads in [1usize, 4] {
        let (claims, evictions) = sweep(threads);
        assert_eq!(
            claims,
            threads as u64 * REQUESTS_PER_THREAD + evictions,
            "claims must track requests + retries at {threads} threads"
        );
    }
}
