//! The campaign driver: drives a case corpus through execution, detection
//! and aggregation — resiliently.
//!
//! Long differential campaigns meet hostile inputs: a case can panic the
//! harness, loop past any reasonable step budget, or (under fault
//! injection) hit transient upstream failures. The runner therefore
//! executes every case under [`std::panic::catch_unwind`] with a logical
//! step budget, retries transient faults with bounded (recorded, not
//! slept) exponential backoff, quarantines panicking cases instead of
//! dying, and checkpoints progress so an interrupted campaign resumes and
//! converges to the identical [`RunSummary`].
//!
//! [`drive`] is the one driver, generic over the case type and the
//! function that runs one attempt of a case: [`DiffEngine`] passes the h1
//! attempt, [`crate::run_protocol_campaign`] a seed workload's
//! `Protocol::execute`; both fold records through [`fold_records`]. The
//! stream fuzzer keeps its own serial feedback loop but executes every
//! candidate through [`run_case`], so each workload's cases run under one
//! quarantine and telemetry policy (`case` span, `case.quarantined`,
//! `case.net-error`).

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;

use hdiff_gen::TestCase;
use hdiff_servers::fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultSession};
use hdiff_servers::ParserProfile;

use crate::checkpoint;
use crate::detect::{detect_case_with_oracle, detect_degradation, DegradationFinding};
use crate::findings::Finding;
use crate::schedule;
use crate::shard::{ShardError, ShardTopology};
use crate::srcheck::{check_all, host_conformance, AcceptSet, SrViolation};
use crate::syntax::SyntaxOracle;
use crate::transport::Transport;
use crate::verdict::{PairMatrix, Verdicts};
use crate::workflow::{Workflow, STEP_BUDGET};

/// Retries a case gets when a transient injected fault fires.
pub const MAX_RETRIES: u32 = 2;

/// Why a case failed — the runner's typed error taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseError {
    /// The case panicked the harness; the uuid is quarantined and never
    /// re-attempted.
    Panic(String),
    /// The logical step budget ran out (stalled read or runaway case).
    Budget(String),
    /// A transient injected fault persisted through every retry.
    Fault(String),
    /// The (simulated) connection kept dying through every retry.
    Io(String),
}

impl CaseError {
    /// Stable lowercase tag (used by the checkpoint format and reports).
    pub fn kind(&self) -> &'static str {
        match self {
            CaseError::Panic(_) => "panic",
            CaseError::Budget(_) => "budget",
            CaseError::Fault(_) => "fault",
            CaseError::Io(_) => "io",
        }
    }

    /// Human-readable detail.
    pub fn detail(&self) -> &str {
        match self {
            CaseError::Panic(d) | CaseError::Budget(d) | CaseError::Fault(d) | CaseError::Io(d) => {
                d
            }
        }
    }
}

/// Everything recorded about one executed case — the unit the checkpoint
/// persists and the summary aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CaseRecord {
    /// Test-case id.
    pub uuid: u64,
    /// Whether any chain replayed to back-ends.
    pub replayed: bool,
    /// Retries spent on transient faults.
    pub retries: u32,
    /// Logical backoff units accumulated across retries (recorded instead
    /// of slept, so replays are instant and deterministic).
    pub backoff_units: u64,
    /// Whether the case panicked and is quarantined.
    pub quarantined: bool,
    /// Terminal error, if the case did not complete cleanly.
    pub error: Option<CaseError>,
    /// Findings from the final attempt.
    pub findings: Vec<Finding>,
    /// Degradation divergences from the final attempt.
    pub degradations: Vec<DegradationFinding>,
    /// Which engine profiles accepted the case's first message, as the
    /// final attempt recorded it; `None` when that is unknown. Never
    /// persisted: a record read back from a checkpoint has none, and the
    /// SR checks interpret such a case again.
    pub accepts: Option<AcceptSet>,
    /// Everything the case recorded through `hdiff_obs` while it ran
    /// (spans, counters, histograms — and trace events when tracing),
    /// holding only the metrics the case touched. Travels with the record
    /// through checkpoints, so a resumed campaign merges partial
    /// telemetry without double-counting. Equality is shape-only.
    pub telemetry: hdiff_obs::CaseTelemetry,
}

/// Summary of one differential-testing run, whatever the workload.
///
/// A seed-corpus campaign leaves `sr_violations`, `degradations`,
/// `verdicts` and `coverage` empty: only the h1 pipeline has SR
/// assertions, a fault model, Table I profiles and a generation phase.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Test cases executed.
    pub cases: usize,
    /// Cases that were replayed to back-ends (survived reduction).
    pub replayed_cases: usize,
    /// All findings.
    pub findings: Vec<Finding>,
    /// Degradation divergences (fault-injection campaigns only).
    pub degradations: Vec<DegradationFinding>,
    /// SR-assertion violations (single-implementation checking).
    pub sr_violations: Vec<SrViolation>,
    /// Fig. 7 pair matrix.
    pub pairs: PairMatrix,
    /// Table I verdicts.
    pub verdicts: Verdicts,
    /// Cases that ended with a terminal [`CaseError`].
    pub errors: usize,
    /// Total retries spent on transient faults.
    pub retries: usize,
    /// Total logical backoff units accumulated across those retries
    /// (recorded, not slept; each retry `k` of a case charges `2^k`).
    pub backoff_units: u64,
    /// Quarantined (panicking) case uuids, ascending.
    pub quarantined: Vec<u64>,
    /// Grammar coverage reached by the generation phase that produced the
    /// corpus, when the campaign tracked it (see
    /// [`DiffEngine::grammar_coverage`]).
    pub coverage: Option<hdiff_gen::GrammarCoverage>,
    /// Transport the campaign executed over.
    pub transport: Transport,
    /// Campaign telemetry: merged spans/counters/histograms plus the
    /// slowest cases (see [`RunTelemetry`]).
    pub telemetry: RunTelemetry,
    /// Shards that exhausted their respawn budget and were quarantined
    /// by the fleet supervisor (always empty for in-process runs).
    pub shard_errors: Vec<ShardError>,
    /// How the campaign was executed across processes. Operational
    /// metadata: its `PartialEq` compares nothing, so a sharded run's
    /// summary stays equal to the single-process one.
    pub topology: ShardTopology,
}

/// Campaign telemetry carried by a [`RunSummary`].
///
/// `PartialEq` compares only [`RunTelemetry::merged`] (itself the
/// deterministic shape: span counts, counter totals, histogram
/// populations); the slowest-case list is wall-clock ordering and two
/// equal runs will rank it differently.
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// Telemetry merged across the generation stages and every case, in
    /// input-corpus order.
    pub merged: hdiff_obs::Telemetry,
    /// `(case uuid, case wall time ns)`, slowest first; capped at
    /// [`RunTelemetry::SLOWEST_KEPT`].
    pub slowest: Vec<(u64, u64)>,
}

impl RunTelemetry {
    /// How many slowest cases a summary keeps.
    pub const SLOWEST_KEPT: usize = 16;
}

impl PartialEq for RunTelemetry {
    fn eq(&self, other: &RunTelemetry) -> bool {
        self.merged == other.merged
    }
}

impl RunSummary {
    /// Findings of one class.
    pub fn findings_of(&self, class: hdiff_gen::AttackClass) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.class == class).collect()
    }
}

/// What [`ProgressHook`] reports after every completed chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkProgress {
    /// Completed cases so far, including any resumed from a checkpoint.
    pub completed: usize,
    /// Checkpoint generation just written (unchanged when the run has no
    /// checkpoint path).
    pub generation: u64,
}

/// A per-chunk progress callback — how a shard worker streams heartbeats
/// to its supervisor without the engine knowing what a supervisor is.
pub struct ProgressHook(Box<dyn Fn(ChunkProgress) + Send + Sync>);

impl ProgressHook {
    /// Wraps a callback.
    pub fn new(f: impl Fn(ChunkProgress) + Send + Sync + 'static) -> ProgressHook {
        ProgressHook(Box::new(f))
    }

    /// Invokes the callback.
    pub fn report(&self, progress: ChunkProgress) {
        (self.0)(progress);
    }
}

impl fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// The differential-testing engine.
#[derive(Debug)]
pub struct DiffEngine {
    workflow: Workflow,
    profiles: Vec<ParserProfile>,
    /// Worker threads for case execution; `0` means one per available
    /// core ([`std::thread::available_parallelism`]).
    pub threads: usize,
    /// Fault-injection plan (disabled by default: rate 0).
    pub fault_plan: FaultPlan,
    /// Cases per checkpoint interval for [`DiffEngine::run_with_checkpoint`].
    pub checkpoint_every: usize,
    /// Stop after this many checkpoint intervals — simulates a campaign
    /// killed mid-run (tests and operational drills).
    pub stop_after_chunks: Option<usize>,
    /// Optional grammar-conformance oracle. When set, HoT findings carry
    /// per-view `Host` validity verdicts and the summary includes
    /// [`crate::check_host_conformance`] violations.
    pub syntax_oracle: Option<SyntaxOracle>,
    /// Grammar coverage reached while generating the corpus, carried into
    /// every [`RunSummary`] this engine produces. The engine itself never
    /// mutates it, so summaries stay identical across thread counts.
    pub grammar_coverage: Option<hdiff_gen::GrammarCoverage>,
    /// How cases execute: in-process simulation (default) or real
    /// loopback TCP (see [`crate::transport`]).
    pub transport: Transport,
    /// Telemetry recorded before the campaign (the generation stages the
    /// pipeline runs) — merged into every [`RunSummary`] this engine
    /// produces, never mutated by the engine itself.
    pub base_telemetry: hdiff_obs::Telemetry,
    /// Called after every chunk (post-save when checkpointing) — the
    /// shard worker's heartbeat source.
    pub progress: Option<ProgressHook>,
}

impl DiffEngine {
    /// Builds an engine over the standard Fig. 6 environment.
    pub fn standard() -> DiffEngine {
        DiffEngine::with_workflow(Workflow::standard(), hdiff_servers::products())
    }

    /// Builds an engine over custom profiles (proxies, backends).
    pub fn new(proxies: Vec<ParserProfile>, backends: Vec<ParserProfile>) -> DiffEngine {
        let mut profiles = proxies.clone();
        for b in &backends {
            if !profiles.iter().any(|p| p.name == b.name) {
                profiles.push(b.clone());
            }
        }
        DiffEngine::with_workflow(Workflow::new(proxies, backends), profiles)
    }

    fn with_workflow(workflow: Workflow, profiles: Vec<ParserProfile>) -> DiffEngine {
        DiffEngine {
            workflow,
            profiles,
            threads: 0,
            fault_plan: FaultPlan::disabled(),
            checkpoint_every: 64,
            stop_after_chunks: None,
            syntax_oracle: None,
            grammar_coverage: None,
            transport: Transport::Sim,
            base_telemetry: hdiff_obs::Telemetry::default(),
            progress: None,
        }
    }

    /// The workflow in use.
    pub fn workflow(&self) -> &Workflow {
        &self.workflow
    }

    /// Runs the full analysis over a batch of test cases.
    ///
    /// Like every campaign entry point, it records under the calling
    /// thread's telemetry switches ([`hdiff_obs::Recorder::capture`]).
    pub fn run(&self, cases: &[TestCase]) -> RunSummary {
        let mut completed = BTreeMap::new();
        self.execute(cases, &mut completed, None, 0)
            .expect("no I/O happens without a checkpoint path");
        self.summarize_records(cases, completed)
    }

    /// Like [`DiffEngine::run`], but checkpoints progress to `path` every
    /// [`DiffEngine::checkpoint_every`] cases. If `path` already holds a
    /// checkpoint from an interrupted campaign, its completed cases are
    /// loaded and skipped; the resumed run converges to the identical
    /// summary an uninterrupted run produces.
    pub fn run_with_checkpoint(&self, cases: &[TestCase], path: &Path) -> io::Result<RunSummary> {
        let (mut completed, generation) = if path.exists() {
            checkpoint::load_with_generation(path)?
        } else {
            (BTreeMap::new(), 0)
        };
        self.execute(cases, &mut completed, Some(path), generation)?;
        Ok(self.summarize_records(cases, completed))
    }

    /// The shard-worker entry point: like
    /// [`DiffEngine::run_with_checkpoint`], but starts from a
    /// pre-loaded, tolerant [`checkpoint::ResumeState`] (see
    /// [`checkpoint::resume_state`]) instead of erroring on a corrupt or
    /// stale file, and always writes a final checkpoint — even when the
    /// resume already covered every case — so the supervisor can merge
    /// the shard from its file alone.
    pub fn run_resuming(
        &self,
        cases: &[TestCase],
        resume: checkpoint::ResumeState,
        path: &Path,
    ) -> io::Result<RunSummary> {
        let checkpoint::ResumeState { mut completed, generation, .. } = resume;
        let generation = self.execute(cases, &mut completed, Some(path), generation)?;
        checkpoint::save_with_generation(path, &completed, generation + 1)?;
        if let Some(hook) = &self.progress {
            hook.report(ChunkProgress { completed: completed.len(), generation: generation + 1 });
        }
        Ok(self.summarize_records(cases, completed))
    }

    /// Assembles a [`RunSummary`] from completed records: the shared
    /// corpus-order fold plus what only h1 has (SR conformance checks,
    /// Table I verdicts, grammar coverage). Every run ends here, and so
    /// does the fleet supervisor merging per-shard checkpoints, so its
    /// result is identical to running `cases` directly.
    ///
    /// Host conformance reads the accept set each record holds and
    /// interprets only the cases without one (faulted, quarantined, or
    /// read back from a checkpoint), so the violations do not depend on
    /// how the campaign ran.
    pub fn summarize_records(
        &self,
        cases: &[TestCase],
        completed: BTreeMap<u64, CaseRecord>,
    ) -> RunSummary {
        // The accept sets in corpus order, handed out by the fold that
        // consumes the records.
        let mut accepts: Vec<Option<AcceptSet>> = Vec::with_capacity(cases.len());
        let mut summary = fold_records(
            cases,
            |c| c.uuid,
            completed,
            &self.base_telemetry,
            self.transport,
            |record| accepts.push(record.and_then(|r| r.accepts)),
        );
        summary.sr_violations = check_all(&self.profiles, cases);
        if let Some(oracle) = &self.syntax_oracle {
            summary.sr_violations.extend(host_conformance(oracle, &self.profiles, cases, &accepts));
        }
        summary.verdicts = Verdicts::from_findings(&summary.findings, &self.profiles);
        summary.coverage = self.grammar_coverage;
        summary
    }

    /// Runs every pending case through [`drive`] with the h1 attempt and
    /// this engine's settings; returns the last checkpoint generation.
    fn execute(
        &self,
        cases: &[TestCase],
        completed: &mut BTreeMap<u64, CaseRecord>,
        ckpt: Option<&Path>,
        generation: u64,
    ) -> io::Result<u64> {
        let driver = Driver {
            threads: self.threads,
            fault_plan: &self.fault_plan,
            checkpoint_every: self.checkpoint_every,
            stop_after_chunks: self.stop_after_chunks,
            progress: self.progress.as_ref(),
        };
        let attempt = |case: &TestCase, session: &FaultSession| self.attempt(case, session);
        drive(&driver, cases, |c| c.uuid, attempt, completed, ckpt, generation)
    }

    /// One attempt at an h1 case: the Fig. 6 workflow over the engine's
    /// transport, then detection.
    fn attempt(
        &self,
        case: &TestCase,
        session: &FaultSession,
    ) -> Result<Attempt, hdiff_net::NetError> {
        let outcome = {
            let _execute = hdiff_obs::span("stage.chain-execute");
            let started = std::time::Instant::now();
            let outcome = self.workflow.execute(
                self.transport,
                case.uuid,
                case.origin.to_string(),
                case.request.to_bytes(),
                session,
            );
            let rtt = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            hdiff_obs::observe(self.transport.rtt_metric(), rtt);
            outcome?
        };
        let _detect = hdiff_obs::span("stage.detect");
        let oracle = self.syntax_oracle.as_ref();
        Ok(Attempt {
            replayed: outcome.chains.iter().any(|c| !c.replays.is_empty()),
            findings: detect_case_with_oracle(&self.profiles, &outcome, oracle),
            degradations: detect_degradation(&outcome),
            accepts: AcceptSet::recorded(&self.profiles, &outcome),
            budget_exhausted: outcome.budget_exhausted,
            fault_events: outcome.fault_events,
        })
    }
}

/// What one attempt at a case produced: the per-case runner's input for
/// its retry decision and the [`CaseRecord`] fields of the same names.
#[derive(Debug, Default)]
pub struct Attempt {
    pub findings: Vec<Finding>,
    pub degradations: Vec<DegradationFinding>,
    pub accepts: Option<AcceptSet>,
    /// Faults that fired; a transient one makes the runner retry.
    pub fault_events: Vec<FaultEvent>,
    pub budget_exhausted: bool,
    pub replayed: bool,
}

/// The settings a campaign runs under: [`DiffEngine`]'s fields of the
/// same names, borrowed.
pub(crate) struct Driver<'a> {
    pub(crate) threads: usize,
    pub(crate) fault_plan: &'a FaultPlan,
    pub(crate) checkpoint_every: usize,
    pub(crate) stop_after_chunks: Option<usize>,
    pub(crate) progress: Option<&'a ProgressHook>,
}

/// The campaign driver: runs every case not yet in `completed` through
/// [`run_case`], chunk by chunk, saving a checkpoint to `ckpt` (if any)
/// after each chunk with a generation counted on from `generation`, and
/// returns the last generation written. Cases record under the switches
/// of the thread that calls this.
pub(crate) fn drive<C: Sync, E: fmt::Display>(
    driver: &Driver<'_>,
    cases: &[C],
    uuid: impl Fn(&C) -> u64 + Sync,
    attempt: impl Fn(&C, &FaultSession) -> Result<Attempt, E> + Sync,
    completed: &mut BTreeMap<u64, CaseRecord>,
    ckpt: Option<&Path>,
    mut generation: u64,
) -> io::Result<u64> {
    let pending: Vec<&C> = cases.iter().filter(|c| !completed.contains_key(&uuid(c))).collect();
    // Resolve the thread count once per run; `available_parallelism`
    // is a syscall and the answer cannot change between chunks.
    let threads = schedule::effective_threads(driver.threads);
    let recorder = hdiff_obs::Recorder::capture();
    let injector = FaultInjector::new(driver.fault_plan.clone());
    for (i, chunk) in pending.chunks(driver.checkpoint_every.max(1)).enumerate() {
        if driver.stop_after_chunks.is_some_and(|n| i >= n) {
            break;
        }
        // Workers steal cases from a shared cursor (see
        // [`schedule::run_stealing`]), so a stalled-read straggler
        // occupies one thread while the rest drain the chunk.
        let records = schedule::run_stealing(chunk, threads, |case| {
            run_case(*case, uuid(case), &injector, recorder, &attempt)
        });
        for record in records {
            completed.insert(record.uuid, record);
        }
        if let Some(path) = ckpt {
            generation += 1;
            checkpoint::save_with_generation(path, completed, generation)?;
        }
        if let Some(hook) = driver.progress {
            hook.report(ChunkProgress { completed: completed.len(), generation });
        }
    }
    Ok(generation)
}

/// The per-case runner: a telemetry scope and `case` span around attempt
/// after attempt, each under `catch_unwind` with a fresh fault session.
/// A panic quarantines the case; an attempt's error is a
/// [`CaseError::Io`]; transient faults retry up to [`MAX_RETRIES`] times,
/// then map to their [`CaseError`]; truncation and garbling faults are
/// behavioral and surface as degradation findings instead.
pub fn run_case<C, E: fmt::Display>(
    case: &C,
    uuid: u64,
    injector: &FaultInjector,
    recorder: hdiff_obs::Recorder,
    attempt: &impl Fn(&C, &FaultSession) -> Result<Attempt, E>,
) -> CaseRecord {
    let (mut record, telemetry) = recorder.case(uuid, || {
        let _case = hdiff_obs::span("case");
        let mut record = CaseRecord { uuid, ..CaseRecord::default() };
        loop {
            let session = FaultSession::new(injector, uuid, record.retries, STEP_BUDGET);
            let done = match panic::catch_unwind(AssertUnwindSafe(|| attempt(case, &session))) {
                Err(payload) => {
                    hdiff_obs::count("case.quarantined", 1);
                    record.quarantined = true;
                    record.error = Some(CaseError::Panic(panic_message(&payload)));
                    return record;
                }
                // The case could not be served (the loopback testbed failed
                // to bind, accept or spawn; a seed workload's front delivered
                // nothing): a recorded, non-quarantining outcome.
                Ok(Err(e)) => {
                    hdiff_obs::count("case.net-error", 1);
                    record.error = Some(CaseError::Io(e.to_string()));
                    return record;
                }
                Ok(Ok(done)) => done,
            };
            hdiff_obs::count("fault.events", done.fault_events.len() as u64);

            let transient = done.fault_events.iter().map(|e| e.kind).find(|k| k.is_transient());
            if let Some(kind) = transient {
                if record.retries < MAX_RETRIES {
                    record.retries += 1;
                    record.backoff_units += 1u64 << record.retries.min(16);
                    hdiff_obs::count("case.retry", 1);
                    continue;
                }
                let retries = record.retries;
                record.error = Some(match kind {
                    FaultKind::Transient5xx => {
                        CaseError::Fault(format!("transient 5xx persisted after {retries} retries"))
                    }
                    FaultKind::ConnReset => {
                        CaseError::Io(format!("connection reset persisted after {retries} retries"))
                    }
                    _ => CaseError::Budget(format!(
                        "stalled read exhausted the step budget after {retries} retries"
                    )),
                });
            } else if done.budget_exhausted {
                record.error = Some(CaseError::Budget("step budget exhausted".to_string()));
            }
            record.replayed = done.replayed;
            record.findings = done.findings;
            record.degradations = done.degradations;
            record.accepts = done.accepts;
            return record;
        }
    });
    record.telemetry = telemetry;
    record
}

/// Folds records into a [`RunSummary`] in corpus order, so the result is
/// the same however (and across how many interruptions) they were made.
/// Consumes the records, showing each case's to `visit` first, in corpus
/// order (`None` for a case without one); leaves `sr_violations`,
/// `verdicts` and `coverage` for the caller.
pub(crate) fn fold_records<C>(
    cases: &[C],
    uuid: impl Fn(&C) -> u64,
    mut completed: BTreeMap<u64, CaseRecord>,
    base_telemetry: &hdiff_obs::Telemetry,
    transport: Transport,
    mut visit: impl FnMut(Option<&CaseRecord>),
) -> RunSummary {
    let mut findings = Vec::new();
    let mut degradations = Vec::new();
    let mut replayed_cases = 0usize;
    let mut errors = 0usize;
    let mut retries = 0usize;
    let mut backoff_units = 0u64;
    let mut quarantined = Vec::new();
    let mut executed = 0usize;
    // Same reassembly discipline as case results: fold per-case
    // telemetry by metric id in input-corpus order, so the merged view
    // is identical however many threads (or interruptions) produced the
    // records.
    let mut tally = hdiff_obs::Tally::default();
    tally.add_telemetry(base_telemetry);
    let case_span = hdiff_obs::MetricId::span("case");
    let mut slowest: Vec<(u64, u64)> = Vec::new();
    for case in cases {
        let record = completed.remove(&uuid(case));
        visit(record.as_ref());
        let Some(r) = record else { continue };
        executed += 1;
        findings.extend(r.findings);
        degradations.extend(r.degradations);
        replayed_cases += usize::from(r.replayed);
        errors += usize::from(r.error.is_some());
        retries += r.retries as usize;
        backoff_units += r.backoff_units;
        if r.quarantined {
            quarantined.push(r.uuid);
        }
        tally.add(&r.telemetry);
        if let Some(span) = r.telemetry.span(case_span) {
            slowest.push((r.uuid, span.total_ns));
        }
    }
    quarantined.sort_unstable();
    // Ties break toward the lower uuid so the ranking is stable.
    slowest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    slowest.truncate(RunTelemetry::SLOWEST_KEPT);

    RunSummary {
        cases: executed,
        replayed_cases,
        pairs: PairMatrix::from_findings(&findings),
        findings,
        degradations,
        sr_violations: Vec::new(),
        verdicts: Verdicts::default(),
        errors,
        retries,
        backoff_units,
        quarantined,
        coverage: None,
        transport,
        telemetry: RunTelemetry { merged: tally.into_telemetry(), slowest },
        shard_errors: Vec::new(),
        topology: ShardTopology::in_process(),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_gen::{catalog, AttackClass, Origin, TestCase};

    fn catalog_cases() -> Vec<TestCase> {
        let mut out = Vec::new();
        let mut uuid = 1u64;
        for entry in catalog::catalog() {
            for (req, note) in &entry.requests {
                out.push(TestCase {
                    uuid,
                    request: req.clone(),
                    assertions: Vec::new(),
                    origin: Origin::Catalog(entry.id.to_string()),
                    note: note.clone(),
                });
                uuid += 1;
            }
        }
        out
    }

    #[test]
    fn catalog_run_produces_findings_of_all_three_classes() {
        let engine = DiffEngine::standard();
        let summary = engine.run(&catalog_cases());
        assert!(summary.cases >= 14);
        for class in AttackClass::ALL {
            assert!(!summary.findings_of(class).is_empty(), "no findings for {class}");
        }
        assert!(summary.replayed_cases > 0);
        // No faults injected: the resilience counters stay clean.
        assert_eq!(summary.errors, 0);
        assert_eq!(summary.retries, 0);
        assert!(summary.quarantined.is_empty());
        assert!(summary.degradations.is_empty());
    }

    #[test]
    fn the_summary_folds_base_telemetry_with_every_case_bucket() {
        let cases = catalog_cases();
        let mut engine = DiffEngine::standard();
        engine.threads = 2;
        engine.base_telemetry.record_span("stage.generate", 5_000);
        engine.base_telemetry.record_count("gen.cases.catalog", cases.len() as u64);
        let summary = engine.run(&cases);
        let merged = &summary.telemetry.merged;
        assert_eq!(merged.spans["stage.generate"].total_ns, 5_000);
        assert_eq!(merged.counters["gen.cases.catalog"], cases.len() as u64);
        assert_eq!(merged.spans["case"].count, cases.len() as u64);
        assert_eq!(summary.telemetry.slowest.len(), RunTelemetry::SLOWEST_KEPT);
    }

    #[test]
    fn catalog_run_reproduces_key_pairs() {
        let engine = DiffEngine::standard();
        let summary = engine.run(&catalog_cases());
        // The two pairs the paper names for HoT.
        assert!(
            summary.pairs.contains(AttackClass::Hot, "varnish", "iis"),
            "{:?}",
            summary.pairs.pairs(AttackClass::Hot)
        );
        assert!(
            summary.pairs.contains(AttackClass::Hot, "nginx", "weblogic"),
            "{:?}",
            summary.pairs.pairs(AttackClass::Hot)
        );
        // All six proxies must be CPDoS-affected.
        assert_eq!(
            summary.pairs.fronts(AttackClass::Cpdos).len(),
            6,
            "{:?}",
            summary.pairs.fronts(AttackClass::Cpdos)
        );
    }

    #[test]
    fn tcp_async_campaign_matches_the_sim_findings() {
        let cases = catalog_cases();
        let sim = DiffEngine::standard().run(&cases);
        let mut engine = DiffEngine::standard();
        engine.transport = Transport::TcpAsync;
        engine.threads = 2;
        let wire = engine.run(&cases);
        assert_eq!(sim.findings, wire.findings);
        assert_eq!(sim.pairs, wire.pairs);
        assert_eq!(sim.verdicts, wire.verdicts);
        assert_eq!(wire.transport, Transport::TcpAsync);
        assert_eq!(wire.errors, 0);
    }

    #[test]
    fn single_thread_and_multi_thread_agree() {
        let cases = catalog_cases();
        let mut e1 = DiffEngine::standard();
        e1.threads = 1;
        let mut e4 = DiffEngine::standard();
        e4.threads = 4;
        let s1 = e1.run(&cases);
        let s4 = e4.run(&cases);
        assert_eq!(s1, s4);
    }

    #[test]
    fn faulted_runs_are_deterministic_per_seed() {
        let cases = catalog_cases();
        let mut a = DiffEngine::standard();
        a.fault_plan = FaultPlan::new(42, 35);
        let mut b = DiffEngine::standard();
        b.fault_plan = FaultPlan::new(42, 35);
        b.threads = 2;
        assert_eq!(a.run(&cases), b.run(&cases));

        let mut c = DiffEngine::standard();
        c.fault_plan = FaultPlan::new(43, 35);
        assert_ne!(a.run(&cases), c.run(&cases), "a different seed reschedules faults");
    }

    #[test]
    fn stall_read_stragglers_do_not_change_the_summary() {
        // A stall-read-only fault plan makes some cases burn their whole
        // step budget (slow) while others finish instantly — the skew the
        // work-stealing scheduler exists for. The multi-threaded run must
        // complete and agree byte-for-byte with the single-threaded one.
        let cases = catalog_cases();
        let plan = FaultPlan::new(11, 70).with_kinds(&[FaultKind::StallRead]);
        let mut one = DiffEngine::standard();
        one.fault_plan = plan.clone();
        one.threads = 1;
        let mut many = DiffEngine::standard();
        many.fault_plan = plan;
        many.threads = 3;
        let s1 = one.run(&cases);
        let s3 = many.run(&cases);
        assert_eq!(s1, s3);
        assert!(s1.errors > 0, "a 70% stall-read rate must exhaust some step budgets: {s1:?}");
    }

    #[test]
    fn syntax_oracle_annotates_hot_findings_and_audits_hosts() {
        let grammar = hdiff_analyzer::DocumentAnalyzer::with_default_inputs()
            .analyze(&hdiff_corpus::core_documents())
            .grammar;
        let cases = catalog_cases();
        let mut engine = DiffEngine::standard();
        engine.syntax_oracle = Some(crate::syntax::SyntaxOracle::new(&grammar));
        let summary = engine.run(&cases);
        // Pair findings (Model HoT proper) carry per-view verdicts;
        // Model-0 single-implementation deviations have no pair of views.
        let hot: Vec<_> = summary
            .findings_of(AttackClass::Hot)
            .into_iter()
            .filter(|f| f.pair().is_some())
            .collect();
        assert!(!hot.is_empty());
        assert!(
            hot.iter().all(|f| f.evidence.to_string().contains("Host ABNF")),
            "oracle-run HoT pair findings must carry conformance verdicts: {hot:?}"
        );
        assert!(
            hot.iter().any(|f| f.evidence.to_string().contains("proxy view invalid")),
            "the invalid-host catalog entries must be called out: {hot:?}"
        );
        assert!(
            summary.sr_violations.iter().any(|v| v.sr_id == "rfc7230:host-abnf"),
            "catalog contains invalid-host cases some product accepts"
        );

        // Without the oracle the same run carries no annotations.
        let plain = DiffEngine::standard().run(&cases);
        assert!(plain
            .findings_of(AttackClass::Hot)
            .iter()
            .all(|f| !f.evidence.to_string().contains("Host ABNF")));
        assert!(!plain.sr_violations.iter().any(|v| v.sr_id == "rfc7230:host-abnf"));
    }

    #[test]
    fn fault_campaign_surfaces_degradations_and_counters() {
        let cases = catalog_cases();
        let mut engine = DiffEngine::standard();
        engine.fault_plan = FaultPlan::new(7, 60);
        let summary = engine.run(&cases);
        assert!(
            !summary.degradations.is_empty(),
            "a 60% fault rate over the catalog must catch divergent proxy reactions"
        );
        assert!(summary.retries > 0, "transient faults must be retried");
        for d in &summary.degradations {
            assert!(d.front_a < d.front_b, "pairs are ordered: {d:?}");
        }
    }
}
