//! Recording by metric id: the fixed arrays a thread (or a campaign)
//! accumulates into, and the compact bucket one case scope yields.

use std::mem;

use crate::metric::MetricId;
use crate::telemetry::{EventKind, Histogram, SpanStat, Telemetry, TraceEvent};

/// One trace event, with its metric still an id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) case: u64,
    pub(crate) seq: u64,
    pub(crate) id: MetricId,
    pub(crate) value: u64,
}

impl Event {
    fn named(&self) -> TraceEvent {
        TraceEvent {
            case: self.case,
            seq: self.seq,
            kind: self.id.kind,
            name: self.id.name().to_string(),
            value: self.value,
        }
    }
}

/// Telemetry accumulated into arrays indexed by [`MetricId`]: what every
/// thread records into, and what a campaign folds its [`CaseTelemetry`]
/// buckets into before it names the result once
/// ([`Tally::into_telemetry`]).
///
/// Only the slots listed as touched hold data, so taking a bucket
/// ([`crate::Recorder::case`]) visits and resets just those; the arrays
/// keep their size, which is what makes recording allocation-free once a
/// thread has seen every metric it records.
#[derive(Debug, Default)]
pub struct Tally {
    spans: Vec<SpanStat>,
    counters: Vec<u64>,
    hists: Vec<Histogram>,
    /// Every id whose slot is not at rest, in first-touch order.
    touched: Vec<MetricId>,
    events: Vec<Event>,
}

/// The slot for `index`, growing `slots` to hold it.
fn slot<T: Clone + Default>(slots: &mut Vec<T>, index: u32) -> &mut T {
    let i = index as usize;
    if i >= slots.len() {
        slots.resize(i + 1, T::default());
    }
    &mut slots[i]
}

impl Tally {
    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty() && self.events.is_empty()
    }

    pub(crate) fn record_span(&mut self, index: u32, ns: u64) {
        let s = slot(&mut self.spans, index);
        if s.count == 0 {
            self.touched.push(MetricId { kind: EventKind::Span, index });
        }
        s.record(ns);
    }

    pub(crate) fn record_count(&mut self, index: u32, delta: u64) {
        let c = slot(&mut self.counters, index);
        if *c == 0 && delta > 0 {
            self.touched.push(MetricId { kind: EventKind::Counter, index });
        }
        *c += delta;
    }

    pub(crate) fn record_hist(&mut self, index: u32, ns: u64) {
        let h = slot(&mut self.hists, index);
        if h.count == 0 {
            self.touched.push(MetricId { kind: EventKind::Hist, index });
        }
        h.record(ns);
    }

    pub(crate) fn push_event(&mut self, event: Event) {
        self.events.push(event);
    }

    fn absorb_span(&mut self, index: u32, stat: &SpanStat) {
        let s = slot(&mut self.spans, index);
        if s.count == 0 && stat.count > 0 {
            self.touched.push(MetricId { kind: EventKind::Span, index });
        }
        s.absorb(stat);
    }

    fn absorb_hist(&mut self, index: u32, hist: &Histogram) {
        let h = slot(&mut self.hists, index);
        if h.count == 0 && hist.count > 0 {
            self.touched.push(MetricId { kind: EventKind::Hist, index });
        }
        h.absorb(hist);
    }

    /// Adds `delta` to the named counter (the registry resolves the name).
    pub fn count(&mut self, name: &str, delta: u64) {
        self.record_count(MetricId::counter(name).index, delta);
    }

    /// Folds one case bucket in, by id: spans and histograms absorb,
    /// counters add, events append.
    pub fn add(&mut self, case: &CaseTelemetry) {
        for entry in case.entries() {
            match entry {
                Entry::Span(index, stat) => self.absorb_span(index, &stat),
                Entry::Counter(index, total) => self.record_count(index, total),
                Entry::Hist(index, total_ns, pairs) => {
                    let mut hist = Histogram { total_ns, ..Histogram::default() };
                    for pair in pairs.chunks_exact(2) {
                        hist.buckets[pair[0] as usize] = pair[1];
                        hist.count += pair[1];
                    }
                    self.absorb_hist(index, &hist);
                }
            }
        }
        self.events.extend_from_slice(&case.events);
    }

    /// Folds a named [`Telemetry`] in, registering its names.
    pub fn add_telemetry(&mut self, t: &Telemetry) {
        for (name, stat) in &t.spans {
            self.absorb_span(MetricId::span(name).index, stat);
        }
        for (name, &total) in &t.counters {
            self.record_count(MetricId::counter(name).index, total);
        }
        for (name, hist) in &t.hists {
            self.absorb_hist(MetricId::hist(name).index, hist);
        }
        self.events.extend(t.events.iter().map(|e| Event {
            case: e.case,
            seq: e.seq,
            id: crate::record::lookup(e.kind, &e.name),
            value: e.value,
        }));
    }

    /// Packs everything held into a [`CaseTelemetry`] and resets the
    /// touched slots. The bucket is one allocation (none when nothing was
    /// recorded), plus the events when tracing kept any.
    pub(crate) fn take(&mut self) -> CaseTelemetry {
        let Tally { spans, counters, hists, touched, events } = self;
        touched.sort_unstable();
        let len: usize = touched
            .iter()
            .map(|id| match id.kind {
                EventKind::Span => SPAN_WORDS,
                EventKind::Counter => 2,
                EventKind::Hist => {
                    let pairs = hists[id.index as usize].buckets.iter().filter(|&&b| b > 0);
                    2 + 2 * pairs.count()
                }
            })
            .sum();
        let mut words = Vec::with_capacity(len);
        for id in touched.drain(..) {
            let i = id.index as usize;
            match id.kind {
                EventKind::Span => {
                    let s = mem::take(&mut spans[i]);
                    words.extend([header(id, 0), s.count, s.total_ns, s.min_ns, s.max_ns]);
                }
                EventKind::Counter => {
                    words.extend([header(id, 0), mem::take(&mut counters[i])]);
                }
                EventKind::Hist => {
                    let h = &mut hists[i];
                    let filled = h.buckets.iter().filter(|&&b| b > 0).count();
                    words.extend([header(id, filled as u64), mem::take(&mut h.total_ns)]);
                    for (bucket, population) in h.buckets.iter_mut().enumerate() {
                        if *population > 0 {
                            words.extend([bucket as u64, mem::take(population)]);
                        }
                    }
                    h.count = 0;
                }
            }
        }
        CaseTelemetry { words: words.into_boxed_slice(), events: mem::take(events) }
    }

    /// The named view, building each touched metric's name once.
    pub fn into_telemetry(self) -> Telemetry {
        let mut t = Telemetry::default();
        for id in &self.touched {
            let name = id.name().to_string();
            let i = id.index as usize;
            match id.kind {
                EventKind::Span => {
                    t.spans.insert(name, self.spans[i].clone());
                }
                EventKind::Counter => {
                    t.counters.insert(name, self.counters[i]);
                }
                EventKind::Hist => {
                    t.hists.insert(name, self.hists[i].clone());
                }
            }
        }
        t.events = self.events.iter().map(Event::named).collect();
        t
    }
}

/// Words a span entry takes: header, count, total, min and max.
const SPAN_WORDS: usize = 5;

/// An entry's first word: the metric's kind and index, plus (for a
/// histogram) how many `(bucket, population)` pairs follow its total.
fn header(id: MetricId, pairs: u64) -> u64 {
    u64::from(id.index) | (id.kind as u64) << 32 | pairs << 40
}

/// One decoded entry of a [`CaseTelemetry`].
enum Entry<'a> {
    Span(u32, SpanStat),
    Counter(u32, u64),
    /// Index, total ns, and the flattened `(bucket, population)` pairs.
    Hist(u32, u64, &'a [u64]),
}

/// One case's telemetry: only the metrics the case touched, packed into
/// a single allocation of 64-bit words sorted by [`MetricId`].
///
/// A span keeps its count, total, min and max (5 words), a counter its
/// total (2 words), a histogram its total and one `(bucket, population)`
/// pair per populated bucket (2 + 2 per bucket). An h1 sim case — three
/// spans, one RTT observation and one matcher counter — takes 21 words,
/// 168 bytes. Trace events are kept only when tracing was on.
///
/// Equality compares the deterministic shape only (span counts, counter
/// totals, histogram populations), like [`Telemetry`]'s.
#[derive(Debug, Clone, Default)]
pub struct CaseTelemetry {
    words: Box<[u64]>,
    events: Vec<Event>,
}

impl CaseTelemetry {
    /// Whether the case recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty() && self.events.is_empty()
    }

    /// The case's statistic for span `id`, if the case entered it.
    pub fn span(&self, id: MetricId) -> Option<SpanStat> {
        self.entries().find_map(|e| match e {
            Entry::Span(index, stat) if id.kind == EventKind::Span && index == id.index => {
                Some(stat)
            }
            _ => None,
        })
    }

    /// The named view of this bucket.
    pub fn to_telemetry(&self) -> Telemetry {
        let mut tally = Tally::default();
        tally.add(self);
        tally.into_telemetry()
    }

    /// Packs a named [`Telemetry`] (a bucket read back from a
    /// checkpoint), registering its names.
    pub fn from_telemetry(t: &Telemetry) -> CaseTelemetry {
        let mut tally = Tally::default();
        tally.add_telemetry(t);
        tally.take()
    }

    fn entries(&self) -> impl Iterator<Item = Entry<'_>> {
        let mut rest = &self.words[..];
        std::iter::from_fn(move || {
            let (&head, tail) = rest.split_first()?;
            let index = head as u32;
            let entry = match (head >> 32) as u8 {
                k if k == EventKind::Span as u8 => {
                    let [count, total_ns, min_ns, max_ns] = [tail[0], tail[1], tail[2], tail[3]];
                    rest = &tail[SPAN_WORDS - 1..];
                    Entry::Span(index, SpanStat { count, total_ns, min_ns, max_ns })
                }
                k if k == EventKind::Counter as u8 => {
                    rest = &tail[1..];
                    Entry::Counter(index, tail[0])
                }
                _ => {
                    let pairs = 2 * (head >> 40) as usize;
                    rest = &tail[1 + pairs..];
                    Entry::Hist(index, tail[0], &tail[1..1 + pairs])
                }
            };
            Some(entry)
        })
    }

    /// `(id, count)` per entry: span entries, counter totals, histogram
    /// populations.
    fn shape(&self) -> impl Iterator<Item = (MetricId, u64)> + '_ {
        self.entries().map(|e| match e {
            Entry::Span(index, s) => (MetricId { kind: EventKind::Span, index }, s.count),
            Entry::Counter(index, total) => (MetricId { kind: EventKind::Counter, index }, total),
            Entry::Hist(index, _, pairs) => {
                let count = pairs.chunks_exact(2).map(|p| p[1]).sum();
                (MetricId { kind: EventKind::Hist, index }, count)
            }
        })
    }
}

impl PartialEq for CaseTelemetry {
    fn eq(&self, other: &CaseTelemetry) -> bool {
        self.shape().eq(other.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tally {
        let mut t = Tally::default();
        t.record_span(MetricId::span("tally.case").index, 300);
        t.record_span(MetricId::span("tally.case").index, 100);
        t.record_count(MetricId::counter("tally.hits").index, 4);
        t.record_hist(MetricId::hist("tally.rtt").index, 900);
        t.record_hist(MetricId::hist("tally.rtt").index, 70_000);
        t
    }

    #[test]
    fn a_taken_bucket_names_back_to_what_was_recorded() {
        let bucket = sample().take();
        let named = bucket.to_telemetry();
        let span = &named.spans["tally.case"];
        assert_eq!((span.count, span.total_ns, span.min_ns, span.max_ns), (2, 400, 100, 300));
        assert_eq!(named.counters["tally.hits"], 4);
        let rtt = &named.hists["tally.rtt"];
        assert_eq!((rtt.count, rtt.total_ns), (2, 70_900));
        assert_eq!(rtt.buckets[9] + rtt.buckets[16], 2);
        assert_eq!(CaseTelemetry::from_telemetry(&named), bucket);
    }

    #[test]
    fn take_resets_only_what_it_packs_and_keeps_the_arrays() {
        let mut t = sample();
        let first = t.take();
        assert!(t.is_empty());
        let (spans, hists) = (t.spans.len(), t.hists.len());
        t.record_count(MetricId::counter("tally.hits").index, 1);
        t.record_hist(MetricId::hist("tally.rtt").index, 5);
        let second = t.take().to_telemetry();
        assert_eq!(second.counters["tally.hits"], 1, "the previous total was reset");
        let rtt = &second.hists["tally.rtt"];
        assert_eq!((rtt.count, rtt.total_ns, rtt.buckets[2]), (1, 5, 1), "the histogram was reset");
        assert!(second.spans.is_empty());
        assert_eq!((t.spans.len(), t.hists.len()), (spans, hists));
        assert!(!first.is_empty());
    }

    #[test]
    fn folding_buckets_by_id_matches_merging_named_views() {
        let a = sample().take();
        let b = sample().take();
        let mut tally = Tally::default();
        tally.add(&a);
        tally.add(&b);
        let folded = tally.into_telemetry();
        let mut merged = a.to_telemetry();
        merged.merge(&b.to_telemetry());
        assert_eq!(folded, merged);
        assert_eq!(folded.spans["tally.case"].total_ns, merged.spans["tally.case"].total_ns);
        assert_eq!(folded.hists["tally.rtt"].buckets, merged.hists["tally.rtt"].buckets);
    }

    #[test]
    fn an_h1_case_bucket_takes_21_words() {
        let ((), bucket) = crate::Recorder::default().case(11, || {
            let _case = crate::span("case");
            {
                let _execute = crate::span("stage.chain-execute");
                crate::observe("transport.rtt.sim", 35_000);
            }
            let _detect = crate::span("stage.detect");
            crate::count_many(&[("abnf.memo.hit", 0), ("abnf.memo.miss", 2)]);
        });
        assert_eq!(mem::size_of_val(&*bucket.words), 168);
        assert!(bucket.events.is_empty(), "no events unless tracing");
    }

    #[test]
    fn equality_is_shape_only() {
        let mut a = Tally::default();
        a.record_span(MetricId::span("tally.eq").index, 10);
        let mut b = Tally::default();
        b.record_span(MetricId::span("tally.eq").index, 99_999);
        assert_eq!(a.take(), b.take());
        b.record_span(MetricId::span("tally.eq").index, 1);
        b.record_span(MetricId::span("tally.eq").index, 1);
        a.record_span(MetricId::span("tally.eq").index, 1);
        assert_ne!(a.take(), b.take());
    }
}
