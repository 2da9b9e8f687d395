//! Differential testing engine — the right half of Fig. 3.
//!
//! * [`hmetrics`] — the paper's `HMetrics` vector summarizing one
//!   implementation's behavior on one request.
//! * [`baseline`] — the RFC-strict oracle and *deviation* computation:
//!   unlike plain differential testing, HDiff can tell which side of a
//!   discrepancy violates the specification (and can test a single
//!   implementation against SR assertions).
//! * [`workflow`] — the three-step test workflow of Fig. 6: client →
//!   proxy → echo, replay of forwarded bytes to back-ends (with the
//!   replay-reduction heuristics), and direct client → back-end runs.
//! * [`detect`] — the three detection models (HRS, HoT, CPDoS) expressed
//!   as predicates over `HMetrics`/chain outcomes.
//! * [`downgrade`] — the h2→h1 downgrade-desync model: each front end's
//!   reconstructed HTTP/1.1 stream diffed against every back end's
//!   interpretation of it, with its own seed corpus and replay-bundle
//!   integration, shrinking cases through [`ddmin_items`].
//! * [`protocol`] — the protocol-generic campaign core: the [`Protocol`]
//!   trait (seed corpus + execution + detection + minimize), the one
//!   reproduction check every seed workload's minimizer uses, and the
//!   seed-corpus entry into the campaign driver. [`downgrade`]'s
//!   `DowngradeProtocol` puts the h2 surface behind it on both
//!   transports; the cookie workload (`hdiff-cookie`) is the first
//!   non-HTTP instance.
//! * [`srcheck`] — single-implementation SR-assertion checking.
//! * [`findings`] and [`names`] — findings as compact, typed values over
//!   a process-wide name table.
//! * [`syntax`] — the grammar-conformance oracle over the compiled ABNF
//!   matcher, annotating findings with per-view validity verdicts.
//! * [`verdict`] — aggregation into Table I verdicts and Fig. 7 pair
//!   matrices.
//! * [`schedule`] — the work-stealing fan-out of the campaign driver and
//!   the fuzz loop.
//! * [`runner`] — the campaign driver every `run` workload goes through.
//! * [`shard`] — deterministic case-space sharding for the multi-process
//!   campaign fabric (`crates/fleet`).

pub mod baseline;
pub mod checkpoint;
pub mod detect;
pub mod downgrade;
pub mod findings;
pub mod hmetrics;
pub mod json;
pub mod minimize;
pub mod names;
pub mod protocol;
pub mod replay;
pub mod runner;
pub mod schedule;
pub mod shard;
pub mod srcheck;
pub mod syntax;
pub mod telemetry_codec;
pub mod transport;
pub mod verdict;
pub mod verify;
pub mod workflow;

pub use baseline::{deviations, Deviation, DeviationKind};
pub use detect::{detect_case, detect_case_with_oracle, detect_degradation, DegradationFinding};
pub use downgrade::{
    detect_downgrade, downgrade_digests, finding_tag, regen_h2_golden, run_downgrade_case_tcp,
    seed_vectors, DowngradeCaseOutcome, DowngradeChain, DowngradeProtocol, DowngradeWorkflow,
    Frontend, SeedVector, H2_UUID_BASE,
};
pub use findings::{Culprits, Evidence, Finding, FramingDeviation, HostViews};
pub use hmetrics::HMetrics;
pub use minimize::{
    ddmin_items, minimize, FindingContext, MinimizeOptions, MinimizeStats, Minimized,
};
pub use names::Name;
pub use protocol::{
    reproduces, run_protocol_campaign, ProtoCase, ProtoExecution, Protocol,
    ProtocolCampaignOptions, ProtocolSummary,
};
pub use replay::{Fnv, ReplayBundle, ReplayReport};
pub use runner::{
    CaseError, CaseRecord, ChunkProgress, DiffEngine, ProgressHook, RunSummary, RunTelemetry,
    MAX_RETRIES,
};
pub use shard::{shard_ranges, ShardError, ShardErrorKind, ShardSpec, ShardStat, ShardTopology};
pub use srcheck::{
    check_assertions, check_host_conformance, AcceptSet, Expected, Observed, SrViolation,
};
pub use syntax::SyntaxOracle;
pub use telemetry_codec::{
    load_report, summary_to_json, trace_to_jsonl, write_summary, write_trace,
};
pub use transport::{
    consistency_findings, pipelined_desync_findings, run_bytes_tcp_async, segmented_probe,
    Transport,
};
pub use verdict::{PairMatrix, Verdicts};
pub use verify::{verify_all, verify_finding, VerifiedFinding};
pub use workflow::{CaseOutcome, ChainRun, FaultReaction, ReplayRun, Workflow, STEP_BUDGET};
