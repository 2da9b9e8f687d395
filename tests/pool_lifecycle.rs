//! Keep-alive pool lifecycle gate.
//!
//! One keep-alive pool is left: the reactor's warm pool behind
//! `--transport tcp-async`. An exchange claims an idle pooled connection
//! (hit) or opens one (miss), and a pooled connection the server closed
//! in the meantime is evicted rather than handed to the next case. This
//! gate pins the eviction clause against an [`AsyncTestbed`] origin; the
//! pool's counters live in [`hdiff::net::ReactorStats`].

use hdiff::net::{AsyncTestbed, SendMode, IO_TIMEOUT_ENV};
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
