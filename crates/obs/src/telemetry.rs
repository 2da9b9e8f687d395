//! The merged telemetry value: span statistics, counters, histograms,
//! and (when tracing) the raw event log.

use std::collections::BTreeMap;

/// Number of power-of-two nanosecond buckets a [`Histogram`] holds.
/// Bucket `i` covers `[2^i, 2^(i+1))` ns; bucket 0 additionally absorbs
/// 0 ns. 40 buckets reach ~18 minutes — far beyond any single campaign
/// observation.
pub const HIST_BUCKETS: usize = 40;

/// Aggregate statistics for one named span.
#[derive(Debug, Clone, Default)]
pub struct SpanStat {
    /// Times the span was entered and exited.
    pub count: u64,
    /// Total wall time across all entries, nanoseconds.
    pub total_ns: u64,
    /// Shortest single entry, nanoseconds.
    pub min_ns: u64,
    /// Longest single entry, nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    pub(crate) fn record(&mut self, ns: u64) {
        if self.count == 0 || ns < self.min_ns {
            self.min_ns = ns;
        }
        if ns > self.max_ns {
            self.max_ns = ns;
        }
        self.count += 1;
        self.total_ns += ns;
    }

    pub(crate) fn absorb(&mut self, other: &SpanStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min_ns < self.min_ns {
            self.min_ns = other.min_ns;
        }
        if other.max_ns > self.max_ns {
            self.max_ns = other.max_ns;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
    }

    /// Mean duration in nanoseconds (0 when never entered).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// A fixed-bucket latency histogram over power-of-two ns buckets.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// One population count per bucket (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, nanoseconds.
    pub total_ns: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; HIST_BUCKETS], count: 0, total_ns: 0 }
    }
}

/// The bucket index an observation of `ns` lands in.
pub(crate) fn bucket_index(ns: u64) -> usize {
    ((63 - (ns | 1).leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

impl Histogram {
    pub(crate) fn record(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
        self.count += 1;
        self.total_ns += ns;
    }

    pub(crate) fn absorb(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
    }

    /// Mean observation in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Lower bound (ns) of the bucket holding the `q` quantile
    /// (`0.0..=1.0`), or 0 when empty. Bucket-resolution only — good
    /// enough for a p50/p99 line in a report, not for SLOs.
    pub fn quantile_lower_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        1u64 << (HIST_BUCKETS - 1)
    }
}

/// What one [`TraceEvent`] records — and the kind of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A span exit; the value is the span's duration in ns.
    Span,
    /// A counter increment; the value is the delta.
    Counter,
    /// A histogram observation; the value is the observed ns.
    Hist,
}

impl EventKind {
    /// Stable name used in the JSONL trace format.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Counter => "counter",
            EventKind::Hist => "hist",
        }
    }

    /// Parses [`EventKind::as_str`] output.
    pub fn parse(s: &str) -> Option<EventKind> {
        match s {
            "span" => Some(EventKind::Span),
            "counter" => Some(EventKind::Counter),
            "hist" => Some(EventKind::Hist),
            _ => None,
        }
    }
}

/// One recorded observation, kept only when tracing is enabled.
///
/// Events are ordered by `(case, seq)`: `seq` restarts at 0 for every
/// [`crate::with_case`] scope, so the sort order is a pure function of
/// the campaign's seed — replay-stable across thread counts — even
/// though the values of span events are wall-clock durations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The case uuid the event belongs to (0 outside any case scope).
    pub case: u64,
    /// Position within the case's event stream.
    pub seq: u64,
    /// What was recorded.
    pub kind: EventKind,
    /// The span/counter/histogram name.
    pub name: String,
    /// Duration ns (span/hist) or delta (counter).
    pub value: u64,
}

/// A campaign's merged telemetry, keyed and sorted by name — the view
/// summaries, reports and checkpoints use. Recording itself goes by
/// metric id into a [`crate::Tally`].
///
/// # Equality
///
/// `PartialEq` deliberately compares only the *deterministic shape*:
/// span names and entry counts, counter names and totals, histogram
/// names and populations. Durations (`total_ns`, `min_ns`, `max_ns`,
/// bucket placement) and the raw event log are ignored — they are
/// wall-clock measurements and two runs of the same seed will never
/// reproduce them. This is what keeps `RunSummary` equality gates
/// (single- vs multi-thread, interrupted vs resumed) meaningful with
/// telemetry embedded.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Aggregate span statistics by name.
    pub spans: BTreeMap<String, SpanStat>,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Latency histograms by name.
    pub hists: BTreeMap<String, Histogram>,
    /// Raw event log (only populated while [`crate::set_trace`] is on).
    pub events: Vec<TraceEvent>,
}

impl PartialEq for Telemetry {
    fn eq(&self, other: &Telemetry) -> bool {
        self.spans.len() == other.spans.len()
            && self
                .spans
                .iter()
                .zip(other.spans.iter())
                .all(|((an, a), (bn, b))| an == bn && a.count == b.count)
            && self.counters == other.counters
            && self.hists.len() == other.hists.len()
            && self
                .hists
                .iter()
                .zip(other.hists.iter())
                .all(|((an, a), (bn, b))| an == bn && a.count == b.count)
    }
}

impl Telemetry {
    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.hists.is_empty()
            && self.events.is_empty()
    }

    /// Folds `other` into `self`: span stats and histograms absorb,
    /// counters add, events concatenate. Merging is associative and
    /// commutative on the deterministic shape, so any merge order
    /// (worker buckets, checkpoint restores, chunk boundaries) produces
    /// an equal result.
    pub fn merge(&mut self, other: &Telemetry) {
        for (name, stat) in &other.spans {
            match self.spans.get_mut(name) {
                Some(s) => s.absorb(stat),
                None => {
                    self.spans.insert(name.clone(), stat.clone());
                }
            }
        }
        for (name, &delta) in &other.counters {
            match self.counters.get_mut(name) {
                Some(c) => *c += delta,
                None => {
                    self.counters.insert(name.clone(), delta);
                }
            }
        }
        for (name, hist) in &other.hists {
            match self.hists.get_mut(name) {
                Some(h) => h.absorb(hist),
                None => {
                    self.hists.insert(name.clone(), hist.clone());
                }
            }
        }
        self.events.extend(other.events.iter().cloned());
    }

    /// A 64-bit FNV-1a digest of the deterministic shape — exactly the
    /// fields [`Telemetry`] equality compares (span names and counts,
    /// counter names and totals, histogram names and populations), never
    /// durations. Two telemetries are `==` iff their digests agree (up
    /// to hash collisions), which gives distributed-campaign gates a
    /// single number to compare and log instead of a structural diff.
    pub fn shape_digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1000_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            // Length-separated so ("ab", 1) never collides with ("a", b1).
            for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        for (name, stat) in &self.spans {
            eat(b"span");
            eat(name.as_bytes());
            eat(&stat.count.to_le_bytes());
        }
        for (name, total) in &self.counters {
            eat(b"counter");
            eat(name.as_bytes());
            eat(&total.to_le_bytes());
        }
        for (name, hist) in &self.hists {
            eat(b"hist");
            eat(name.as_bytes());
            eat(&hist.count.to_le_bytes());
        }
        h
    }

    /// The events sorted into their replay-stable `(case, seq)` order.
    pub fn sorted_events(&self) -> Vec<TraceEvent> {
        let mut events = self.events.clone();
        events.sort_by_key(|e| (e.case, e.seq));
        events
    }

    pub fn record_span(&mut self, name: &str, ns: u64) {
        match self.spans.get_mut(name) {
            Some(s) => s.record(ns),
            None => self.spans.entry(name.to_string()).or_default().record(ns),
        }
    }

    pub fn record_count(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    pub fn record_hist(&mut self, name: &str, ns: u64) {
        match self.hists.get_mut(name) {
            Some(h) => h.record(ns),
            None => self.hists.entry(name.to_string()).or_default().record(ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_monotonic_and_bounded() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
        let mut prev = 0;
        for ns in [0u64, 1, 7, 100, 4096, 1 << 20, 1 << 35, u64::MAX] {
            let b = bucket_index(ns);
            assert!(b >= prev, "bucket order broke at {ns}");
            prev = b;
        }
    }

    #[test]
    fn span_stat_tracks_min_max_mean() {
        let mut s = SpanStat::default();
        s.record(10);
        s.record(30);
        s.record(20);
        assert_eq!((s.count, s.min_ns, s.max_ns, s.mean_ns()), (3, 10, 30, 20));
    }

    #[test]
    fn merge_is_order_insensitive_on_the_deterministic_shape() {
        let mut a = Telemetry::default();
        a.record_count("memo.hit", 3);
        a.record_span("stage.detect", 100);
        a.record_hist("rtt", 50);
        let mut b = Telemetry::default();
        b.record_count("memo.hit", 4);
        b.record_count("memo.miss", 1);
        b.record_span("stage.detect", 999);
        b.record_hist("rtt", 5000);

        let mut ab = Telemetry::default();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = Telemetry::default();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counters["memo.hit"], 7);
        assert_eq!(ab.spans["stage.detect"].count, 2);
        assert_eq!(ab.hists["rtt"].count, 2);
    }

    #[test]
    fn equality_ignores_durations_but_not_counts() {
        let mut a = Telemetry::default();
        a.record_span("s", 10);
        let mut b = Telemetry::default();
        b.record_span("s", 99999);
        assert_eq!(a, b, "durations must not break equality");
        b.record_span("s", 1);
        assert_ne!(a, b, "span counts must break equality");
    }

    #[test]
    fn shape_digest_tracks_equality_not_durations() {
        let mut a = Telemetry::default();
        a.record_span("stage.detect", 10);
        a.record_count("memo.hit", 3);
        a.record_hist("rtt", 50);
        let mut b = Telemetry::default();
        b.record_span("stage.detect", 99999); // same shape, wild duration
        b.record_count("memo.hit", 3);
        b.record_hist("rtt", 1 << 30);
        assert_eq!(a, b);
        assert_eq!(a.shape_digest(), b.shape_digest());

        b.record_count("memo.hit", 1);
        assert_ne!(a, b);
        assert_ne!(a.shape_digest(), b.shape_digest());

        // Name/count boundaries must not alias.
        let mut c = Telemetry::default();
        c.record_span("ab", 1);
        let mut d = Telemetry::default();
        d.record_span("a", 1);
        d.record_span("b", 1);
        assert_ne!(c.shape_digest(), d.shape_digest());
        assert_ne!(Telemetry::default().shape_digest(), c.shape_digest());
    }

    #[test]
    fn histogram_quantiles_land_in_the_right_bucket() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(100); // bucket 6: [64,128)
        }
        h.record(1 << 20); // one outlier
        assert_eq!(h.quantile_lower_ns(0.5), 64);
        assert_eq!(h.quantile_lower_ns(1.0), 1 << 20);
        assert_eq!(Histogram::default().quantile_lower_ns(0.5), 0);
    }
}
