//! Reactor counter deltas accumulated around each traced case.

use hdiff_net::ReactorStats;

/// Sums of [`ReactorStats`] deltas over the cases of a traced pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetTally {
    /// Exchanges submitted: every testbed exchange asks for a warm
    /// pooled connection, so each one is a pool hit or a pool miss.
    pub exchanges: u64,
    /// Connections the loop opened or accepted (both ends count).
    pub conns_opened: u64,
    pub pool_hits: u64,
    /// Warm connections opened to refill a pool after its first fill.
    pub conn_churn: u64,
    pub wakeups: u64,
    pub deadline_fires: u64,
}

impl NetTally {
    /// Adds the counters' growth from `before` to `after`. Counters are
    /// monotonic; a snapshot that reads lower (a replaced reactor)
    /// contributes nothing rather than wrapping.
    pub fn add(&mut self, before: &ReactorStats, after: &ReactorStats) {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        self.exchanges +=
            d(after.pool_hits, before.pool_hits) + d(after.pool_misses, before.pool_misses);
        self.conns_opened += d(after.conns_opened, before.conns_opened);
        self.pool_hits += d(after.pool_hits, before.pool_hits);
        self.conn_churn += d(after.conn_churn, before.conn_churn);
        self.wakeups += d(after.wakeups, before.wakeups);
        self.deadline_fires += d(after.deadline_fires, before.deadline_fires);
    }

    pub fn conns_per_exchange(&self) -> f64 {
        crate::stats::ratio(self.conns_opened as f64, self.exchanges as f64)
    }

    /// Share of exchanges served by a pooled connection that had already
    /// served an earlier exchange. Each pool hit triggers a refill; a
    /// refill only opens a connection (churn) when the pool is short, so
    /// hits beyond the churn are reuses.
    pub fn pool_reuse_frac(&self) -> f64 {
        crate::stats::ratio(
            self.pool_hits.saturating_sub(self.conn_churn) as f64,
            self.exchanges as f64,
        )
    }

    pub fn wakeups_per_exchange(&self) -> f64 {
        crate::stats::ratio(self.wakeups as f64, self.exchanges as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(hits: u64, misses: u64, opened: u64, churn: u64, wakeups: u64) -> ReactorStats {
        ReactorStats {
            wakeups,
            conns_opened: opened,
            conn_churn: churn,
            pool_hits: hits,
            pool_misses: misses,
            deadline_fires: 1,
            ..ReactorStats::default()
        }
    }

    #[test]
    fn accumulates_deltas_across_cases() {
        let mut t = NetTally::default();
        t.add(&stats(10, 2, 40, 10, 100), &stats(30, 2, 85, 30, 160));
        t.add(&stats(30, 2, 85, 30, 160), &stats(36, 4, 100, 32, 190));
        assert_eq!(t.exchanges, 20 + 8);
        assert_eq!(t.conns_opened, 45 + 15);
        assert_eq!((t.pool_hits, t.conn_churn), (26, 22));
        assert_eq!(t.wakeups, 90);
        assert_eq!(t.deadline_fires, 0);
        assert!((t.conns_per_exchange() - 60.0 / 28.0).abs() < 1e-12);
        assert!((t.pool_reuse_frac() - 4.0 / 28.0).abs() < 1e-12);
        assert!((t.wakeups_per_exchange() - 90.0 / 28.0).abs() < 1e-12);
    }

    #[test]
    fn churn_matching_hits_means_no_reuse_and_counters_never_wrap() {
        let mut t = NetTally::default();
        t.add(&stats(0, 0, 0, 0, 0), &stats(5, 0, 10, 5, 9));
        assert_eq!(t.pool_reuse_frac(), 0.0);
        // A fresh reactor's snapshot reads lower than the old one's.
        t.add(&stats(50, 50, 50, 50, 50), &stats(1, 1, 1, 1, 1));
        assert_eq!(t.exchanges, 5);
        assert_eq!(NetTally::default().conns_per_exchange(), 0.0);
    }
}
