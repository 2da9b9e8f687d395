//! The recording side: per-thread switches and arrays, scoped spans,
//! and the case scopes a campaign runs its cases in.

use std::cell::RefCell;
use std::mem;
use std::time::Instant;

use crate::metric::{MetricId, NameCache};
use crate::tally::{CaseTelemetry, Event, Tally};
use crate::telemetry::{EventKind, Telemetry};

/// The recording switches a campaign runs under: whether to record at
/// all, and whether to keep every observation as a trace event (the
/// `--trace-out` JSONL log).
///
/// Every thread has its own switches ([`set_enabled`], [`set_trace`]);
/// a new thread records with tracing off. A campaign captures the
/// switches of the thread that starts it ([`Recorder::capture`]) and
/// applies them inside every case scope ([`Recorder::case`]), on
/// whichever worker thread runs the case. So the starting thread's
/// switches govern the whole campaign, and two campaigns in one process
/// never see each other's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recorder {
    enabled: bool,
    trace: bool,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder { enabled: true, trace: false }
    }
}

/// One thread's switches and recording state.
#[derive(Default)]
struct Local {
    switches: Recorder,
    names: NameCache,
    tally: Tally,
    /// Case uuid events are attributed to (0 outside a case scope).
    case: u64,
    /// Next event sequence number within the current case scope.
    seq: u64,
}

impl Local {
    fn event(&mut self, id: MetricId, value: u64) {
        if self.switches.trace {
            self.tally.push_event(Event { case: self.case, seq: self.seq, id, value });
            self.seq += 1;
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Runs `f` against the thread's local state. Re-entrant use (a span
/// guard dropping while the local is borrowed) is skipped and yields
/// `None`: losing one observation beats panicking in a destructor.
fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> Option<R> {
    LOCAL.try_with(|l| l.try_borrow_mut().ok().map(|mut l| f(&mut l))).ok().flatten()
}

/// The id of `name` under `kind`, through this thread's cache when it
/// is free.
pub(crate) fn lookup(kind: EventKind, name: &str) -> MetricId {
    with_local(|l| l.names.id(kind, name)).unwrap_or_else(|| crate::metric::register(kind, name).0)
}

/// Whether recording is enabled on this thread.
pub fn enabled() -> bool {
    with_local(|l| l.switches.enabled).unwrap_or(false)
}

/// Enables or disables recording on this thread, and for every campaign
/// this thread starts afterwards.
pub fn set_enabled(on: bool) {
    with_local(|l| l.switches.enabled = on);
}

/// Whether event tracing is enabled on this thread.
pub fn trace_enabled() -> bool {
    with_local(|l| l.switches.trace).unwrap_or(false)
}

/// Enables or disables event tracing on this thread, and for every
/// campaign this thread starts afterwards.
pub fn set_trace(on: bool) {
    with_local(|l| l.switches.trace = on);
}

/// Adds `delta` to the named counter on this thread.
#[inline]
pub fn count(name: &str, delta: u64) {
    if delta == 0 {
        return;
    }
    with_local(|l| {
        if l.switches.enabled {
            let id = l.names.id(EventKind::Counter, name);
            l.tally.record_count(id.index, delta);
            l.event(id, delta);
        }
    });
}

/// Adds several counters in one thread-local access — what hot callers
/// (the memo matcher) use to keep overhead to a single borrow per batch.
#[inline]
pub fn count_many(pairs: &[(&str, u64)]) {
    with_local(|l| {
        if !l.switches.enabled {
            return;
        }
        for &(name, delta) in pairs {
            if delta > 0 {
                let id = l.names.id(EventKind::Counter, name);
                l.tally.record_count(id.index, delta);
                l.event(id, delta);
            }
        }
    });
}

/// Records one observation of `ns` into the named histogram.
#[inline]
pub fn observe(name: &str, ns: u64) {
    with_local(|l| {
        if l.switches.enabled {
            let id = l.names.id(EventKind::Hist, name);
            l.tally.record_hist(id.index, ns);
            l.event(id, ns);
        }
    });
}

/// A scoped span: created by [`span`], records its wall duration into
/// the named span statistic when dropped.
#[must_use = "a span measures the scope it lives in; drop it where the stage ends"]
pub struct SpanGuard {
    /// The span's id and entry time; `None` when recording was off.
    entered: Option<(MetricId, Instant)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((id, start)) = self.entered else { return };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        with_local(|l| {
            l.tally.record_span(id.index, ns);
            l.event(id, ns);
        });
    }
}

/// Enters a named span; the returned guard records enter-to-drop wall
/// time (monotonic, via [`Instant`]). Inert when recording is disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let id = with_local(|l| l.switches.enabled.then(|| l.names.id(EventKind::Span, name)));
    SpanGuard { entered: id.flatten().map(|id| (id, Instant::now())) }
}

/// Takes everything this thread has recorded, leaving it empty.
pub fn drain() -> Telemetry {
    with_local(|l| l.tally.take()).unwrap_or_default().to_telemetry()
}

/// What a case scope replaced on its thread, restored when it ends.
struct Outer {
    switches: Recorder,
    case: u64,
    seq: u64,
    /// The thread's telemetry from before the scope, if it held any.
    ambient: Option<CaseTelemetry>,
}

impl Recorder {
    /// The calling thread's switches, as a campaign captures them when
    /// it starts.
    pub fn capture() -> Recorder {
        with_local(|l| l.switches).unwrap_or_default()
    }

    /// Runs `f` on the calling thread as case `uuid`, under these
    /// switches, and returns its result with everything it recorded.
    ///
    /// Whatever the thread had already recorded (generation-stage
    /// telemetry on the main thread, an enclosing scope's) is set aside
    /// before `f` runs and restored after, so a bucket never absorbs
    /// ambient state and ambient state never loses observations. Event
    /// sequence numbers restart at 0 for the case, which is what makes
    /// the trace order replay-stable across thread counts.
    pub fn case<R>(self, uuid: u64, f: impl FnOnce() -> R) -> (R, CaseTelemetry) {
        let outer = with_local(|l| Outer {
            switches: mem::replace(&mut l.switches, self),
            case: mem::replace(&mut l.case, uuid),
            seq: mem::replace(&mut l.seq, 0),
            ambient: (!l.tally.is_empty()).then(|| l.tally.take()),
        });
        let result = f();
        let bucket = with_local(|l| {
            let bucket = l.tally.take();
            if let Some(outer) = outer {
                l.switches = outer.switches;
                l.case = outer.case;
                l.seq = outer.seq;
                if let Some(ambient) = &outer.ambient {
                    l.tally.add(ambient);
                }
            }
            bucket
        });
        (result, bucket.unwrap_or_default())
    }
}

/// Runs `f` with all telemetry it records collected into a private
/// bucket attributed to case `uuid`, returning `(result, bucket)` — the
/// named view of [`Recorder::case`] under this thread's switches.
pub fn with_case<R>(uuid: u64, f: impl FnOnce() -> R) -> (R, Telemetry) {
    let (result, bucket) = Recorder::capture().case(uuid, f);
    (result, bucket.to_telemetry())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn with_case_isolates_and_restores_ambient_telemetry() {
        let _ = drain();
        count("ambient", 2);
        let ((), bucket) = with_case(7, || {
            count("inner", 5);
            let _s = span("work");
        });
        assert_eq!(bucket.counters.get("inner"), Some(&5));
        assert_eq!(bucket.counters.get("ambient"), None);
        assert_eq!(bucket.spans["work"].count, 1);
        let ambient = drain();
        assert_eq!(ambient.counters.get("ambient"), Some(&2));
        assert_eq!(ambient.counters.get("inner"), None);
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _ = drain();
        set_enabled(false);
        count("c", 1);
        observe("h", 10);
        let _s = span("s");
        drop(_s);
        set_enabled(true);
        assert!(drain().is_empty());
    }

    #[test]
    fn trace_events_carry_case_and_restarting_seq() {
        let _ = drain();
        set_trace(true);
        let ((), a) = with_case(3, || {
            count("x", 1);
            count("y", 1);
        });
        let ((), b) = with_case(4, || count("z", 1));
        set_trace(false);
        let seqs: Vec<(u64, u64)> = a.events.iter().map(|e| (e.case, e.seq)).collect();
        assert_eq!(seqs, vec![(3, 0), (3, 1)]);
        assert_eq!(b.events[0].case, 4);
        assert_eq!(b.events[0].seq, 0, "seq restarts per case");
        let _ = drain();
    }

    #[test]
    fn count_many_batches_into_one_bucket() {
        let _ = drain();
        count_many(&[("a", 2), ("b", 0), ("c", 3)]);
        let t = drain();
        assert_eq!(t.counters.get("a"), Some(&2));
        assert_eq!(t.counters.get("b"), None, "zero deltas are not recorded");
        assert_eq!(t.counters.get("c"), Some(&3));
    }

    #[test]
    fn a_case_scope_applies_the_captured_switches_and_restores_the_thread_s() {
        let campaign = Recorder { enabled: true, trace: true };
        set_enabled(false);
        let ((), bucket) = campaign.case(9, || {
            assert!(enabled() && trace_enabled(), "the scope runs under the campaign's switches");
            count("scoped", 1);
        });
        assert!(!enabled() && !trace_enabled(), "the thread's own switches come back");
        set_enabled(true);
        let named = bucket.to_telemetry();
        assert_eq!(named.counters.get("scoped"), Some(&1));
        assert_eq!(named.events.len(), 1);
        let inert = Recorder { enabled: false, trace: false };
        let ((), bucket) = inert.case(10, || count("scoped", 1));
        assert!(bucket.is_empty());
        assert!(enabled());
    }

    #[test]
    fn threads_recording_under_opposite_switches_at_once_keep_their_own() {
        // Both threads flip their switch, then record while the other
        // thread holds the opposite setting: with one process-wide switch
        // the later flip would govern both buckets.
        let both_set = Arc::new(Barrier::new(2));
        let both_recorded = Arc::new(Barrier::new(2));
        let run = |on: bool| {
            let (both_set, both_recorded) = (Arc::clone(&both_set), Arc::clone(&both_recorded));
            std::thread::spawn(move || {
                set_enabled(on);
                set_trace(on);
                both_set.wait();
                let ((), bucket) = Recorder::capture().case(1, || {
                    count("switch.test", 1);
                    observe("switch.test.rtt", 100);
                    let _s = span("switch.test.span");
                });
                both_recorded.wait();
                bucket.to_telemetry()
            })
        };
        let (on, off) = (run(true), run(false));
        let on = on.join().expect("the recording thread does not panic");
        let off = off.join().expect("the inert thread does not panic");
        assert_eq!(on.counters.get("switch.test"), Some(&1));
        assert_eq!(on.hists["switch.test.rtt"].count, 1);
        assert_eq!(on.spans["switch.test.span"].count, 1);
        assert_eq!(on.events.len(), 3, "the tracing thread kept its events");
        assert!(off.is_empty(), "the disabled thread recorded nothing: {off:?}");
    }
}
