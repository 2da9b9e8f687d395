//! Campaign observability: tracing spans, counters, and fixed-bucket
//! latency histograms — with zero dependencies and an overhead budget.
//!
//! A differential campaign is a pipeline of stages (generate, mutate,
//! SR-translate, chain-execute, detect, minimize) fanned out over worker
//! threads. Explaining *where time goes and what each stage produced*
//! needs instrumentation, but the instrumentation must not perturb the
//! thing it measures: the campaign's hot paths (the packrat matcher, the
//! wire client) run in the hundreds of nanoseconds to tens of
//! microseconds, so every recording primitive here is a thread-local
//! operation — no locks, no atomics on the data path, no allocation
//! once a thread has seen a metric.
//!
//! The model:
//!
//! * a metric name is interned once per process to a small dense
//!   [`MetricId`]; every thread owns fixed arrays indexed by id (a
//!   [`Tally`]) behind a `thread_local!`, and [`span`], [`count`] and
//!   [`observe`] add into them;
//! * a campaign captures the switches of the thread that starts it into
//!   a [`Recorder`] and runs each test case in [`Recorder::case`], which
//!   applies those switches on whichever worker runs the case and yields
//!   a compact [`CaseTelemetry`] holding only the slots the case touched
//!   (resetting just those). The bucket travels with the case record, so
//!   checkpoints carry partial telemetry and a resumed campaign folds it
//!   back without double-counting;
//! * buckets are folded by id into a campaign [`Tally`] in input order —
//!   the same reassembly pattern the work-stealing scheduler uses for
//!   case results — which names its metrics once at the end, producing
//!   the merged [`Telemetry`] view that is identical across thread
//!   counts.
//!
//! Durations are wall-clock and therefore nondeterministic; everything
//! else (span counts, counter totals, histogram populations) is a pure
//! function of the campaign's seed. [`Telemetry`]'s and
//! [`CaseTelemetry`]'s `PartialEq` compare only that deterministic shape,
//! which is what lets `RunSummary` equality gates keep holding across
//! thread counts and hardware.
//!
//! Recording is switched per thread: [`set_enabled`] (on by default; the
//! CLI's `--no-telemetry` turns it off) and event tracing — one
//! [`TraceEvent`] per span/counter/histogram observation, for the
//! `--trace-out` JSONL log — by [`set_trace`] (off by default). No switch
//! is shared between threads; a campaign carries its own in its
//! [`Recorder`].

mod metric;
mod record;
mod report;
mod tally;
mod telemetry;

pub use metric::MetricId;
pub use record::{
    count, count_many, drain, enabled, observe, set_enabled, set_trace, span, trace_enabled,
    with_case, Recorder, SpanGuard,
};
pub use report::{render_report, ReportInput};
pub use tally::{CaseTelemetry, Tally};
pub use telemetry::{EventKind, Histogram, SpanStat, Telemetry, TraceEvent, HIST_BUCKETS};
