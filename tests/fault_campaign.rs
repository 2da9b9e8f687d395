//! Fault-injection campaign acceptance: a corpus run against an
//! environment containing an always-panicking profile, under a 20% fault
//! plan, must run to completion — quarantining the panicking cases,
//! retrying transient faults, reporting typed errors — and a campaign
//! killed at a checkpoint must resume to the identical summary.

use std::sync::Once;

use hdiff::diff::{
    DiffEngine, FindingContext, MinimizeOptions, SyntaxOracle, Workflow, MAX_RETRIES, STEP_BUDGET,
};
use hdiff::gen::{catalog, Origin, TestCase};
use hdiff::servers::fault::{FaultInjector, FaultKind, FaultPlan, FaultSession, FaultStage};
use hdiff::servers::{ParserProfile, ORIGIN_HOP};

/// Silences the panic hook for the *injected* parser panics only: the
/// campaign triggers hundreds of them deliberately and the spew would
/// drown the test output. Genuine panics (failed assertions included)
/// still reach the default hook; `catch_unwind` observes every payload
/// either way.
fn quiet_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected parser panic"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

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

/// The standard environment plus one back-end whose parser panics on
/// every input — the crash-prone implementation the runner must survive.
fn hostile_engine(seed: u64) -> DiffEngine {
    let mut crasher = ParserProfile::strict("crashd");
    crasher.always_panic = true;
    let mut backends = hdiff::servers::backends();
    backends.push(crasher);
    let mut engine = DiffEngine::new(hdiff::servers::proxies(), backends);
    engine.fault_plan = FaultPlan::new(seed, 20);
    engine
}

#[test]
fn campaign_with_panicking_profile_completes_with_quarantine_and_retries() {
    quiet_panics();
    let cases = catalog_cases();
    let engine = hostile_engine(0xca);
    let summary = engine.run(&cases);

    assert_eq!(summary.cases, cases.len(), "every case is accounted for");
    assert!(!summary.quarantined.is_empty(), "panicking cases are quarantined");
    assert!(summary.errors > 0, "panics and persistent faults surface as typed errors");
    assert!(summary.retries > 0, "transient origin faults are retried");
    // Quarantined uuids are real corpus members, recorded in order.
    for w in summary.quarantined.windows(2) {
        assert!(w[0] < w[1]);
    }
    for uuid in &summary.quarantined {
        assert!(cases.iter().any(|c| c.uuid == *uuid));
    }
}

#[test]
fn sr_checks_leave_out_the_panicking_profile_instead_of_panicking() {
    // `hdiff run` always sets the syntax oracle, whose Host checks run
    // after the campaign: the panicking profile must drop out there too.
    quiet_panics();
    let cases = catalog_cases();
    let grammar = hdiff::analyzer::DocumentAnalyzer::with_default_inputs()
        .analyze(&hdiff::corpus::core_documents())
        .grammar;
    let oracle = SyntaxOracle::new(&grammar);
    let mut engine = hostile_engine(0xca);
    engine.syntax_oracle = Some(oracle.clone());
    let summary = engine.run(&cases);
    assert_eq!(summary.cases, cases.len());
    assert!(!summary.quarantined.is_empty(), "panicking cases are quarantined");

    let mut calm = DiffEngine::new(hdiff::servers::proxies(), hdiff::servers::backends());
    calm.fault_plan = FaultPlan::new(0xca, 20);
    calm.syntax_oracle = Some(oracle);
    let reference = calm.run(&cases).sr_violations;
    assert!(!reference.is_empty(), "some product accepts an invalid catalog Host");
    assert_eq!(summary.sr_violations, reference);
}

#[test]
fn killed_campaign_resumes_to_the_identical_summary() {
    quiet_panics();
    let cases = catalog_cases();
    let dir = std::env::temp_dir().join("hdiff-fault-campaign");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("resume.json");
    std::fs::remove_file(&ckpt).ok();

    // The reference: one uninterrupted run.
    let uninterrupted = hostile_engine(0xca).run(&cases);

    // The drill: die after the first checkpoint interval…
    let mut killed = hostile_engine(0xca);
    killed.checkpoint_every = 5;
    killed.stop_after_chunks = Some(1);
    let partial = killed.run_with_checkpoint(&cases, &ckpt).unwrap();
    assert!(partial.cases < cases.len(), "the kill left work undone");
    assert!(ckpt.exists(), "progress was persisted before the kill");

    // …then restart and converge.
    let mut resumed_engine = hostile_engine(0xca);
    resumed_engine.checkpoint_every = 5;
    let resumed = resumed_engine.run_with_checkpoint(&cases, &ckpt).unwrap();
    assert_eq!(resumed, uninterrupted, "resume converges to the uninterrupted summary");

    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Replays the runner's retry policy for one case against the fault
/// plan's deterministic schedule: attempts keep firing the transient
/// origin fault until one comes back clean or `MAX_RETRIES` is spent.
/// Returns `(retries, backoff_units, terminal_error)`.
fn expected_schedule(plan: &FaultPlan, uuid: u64, max_retries: u32) -> (u32, u64, bool) {
    let injector = FaultInjector::new(plan.clone());
    let mut retries = 0u32;
    let mut backoff = 0u64;
    loop {
        let session = FaultSession::new(&injector, uuid, retries, STEP_BUDGET);
        let fired = session.decide(ORIGIN_HOP, FaultStage::OriginRespond).is_some();
        if !fired {
            return (retries, backoff, false);
        }
        if retries >= max_retries {
            return (retries, backoff, true);
        }
        retries += 1;
        backoff += 1u64 << retries.min(16);
    }
}

#[test]
fn recorded_retry_counts_match_the_injected_transient_schedule_exactly() {
    // Regression: `RunSummary.backoff_units` must aggregate the per-case
    // backoff bookkeeping (it used to be recorded per case and then
    // dropped on aggregation). With the plan restricted to Transient5xx —
    // which only fires at the origin-respond decision point — the retry
    // and backoff totals are exactly computable from the fault schedule.
    let cases = catalog_cases();
    let plan = FaultPlan::new(0x5c3d, 40).with_kinds(&[FaultKind::Transient5xx]);
    let mut engine = DiffEngine::standard();
    engine.fault_plan = plan.clone();
    let summary = engine.run(&cases);

    let mut retries = 0usize;
    let mut backoff = 0u64;
    let mut errors = 0usize;
    for case in &cases {
        let (r, b, failed) = expected_schedule(&plan, case.uuid, MAX_RETRIES);
        retries += r as usize;
        backoff += b;
        errors += usize::from(failed);
    }
    assert!(retries > 0, "a 40% rate over the catalog must schedule retries");
    assert_eq!(summary.retries, retries, "recorded retries drift from the fault schedule");
    assert_eq!(summary.backoff_units, backoff, "recorded backoff drifts from the fault schedule");
    assert_eq!(summary.errors, errors, "terminal transient-5xx errors drift from the schedule");
}

#[test]
fn findings_from_a_resumed_campaign_minimize_to_identical_bytes() {
    // Checkpoint/resume × minimizer: a campaign killed at a checkpoint
    // and resumed must hand the minimizer the same findings, and the
    // minimizer must converge to byte-identical minimized cases.
    let cases = catalog_cases();
    let dir = std::env::temp_dir().join("hdiff-resume-minimize");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("campaign.json");
    std::fs::remove_file(&ckpt).ok();

    let uninterrupted = DiffEngine::standard().run(&cases);

    let mut killed = DiffEngine::standard();
    killed.checkpoint_every = 7;
    killed.stop_after_chunks = Some(1);
    let partial = killed.run_with_checkpoint(&cases, &ckpt).unwrap();
    assert!(partial.cases < cases.len(), "the kill left work undone");
    let mut resumed_engine = DiffEngine::standard();
    resumed_engine.checkpoint_every = 7;
    let resumed = resumed_engine.run_with_checkpoint(&cases, &ckpt).unwrap();
    assert_eq!(resumed, uninterrupted);

    let workflow = Workflow::standard();
    let profiles = hdiff::servers::products();
    let ctx = FindingContext::new(&workflow, &profiles);
    let opts = MinimizeOptions::default();
    let finding = resumed.findings.iter().find(|f| f.is_pair()).unwrap();
    let case = cases.iter().find(|c| c.uuid == finding.uuid).unwrap();
    let bytes = case.request.to_bytes();
    let from_resumed = ctx.minimize_finding(finding, &bytes, &opts);
    let from_uninterrupted = ctx.minimize_finding(
        uninterrupted.findings.iter().find(|f| *f == finding).unwrap(),
        &bytes,
        &opts,
    );
    assert_eq!(from_resumed, from_uninterrupted);
    assert!(from_resumed.bytes.len() <= bytes.len());

    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_free_run_matches_between_plain_and_checkpointed_execution() {
    let cases = catalog_cases();
    let dir = std::env::temp_dir().join("hdiff-fault-campaign-clean");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("clean.json");
    std::fs::remove_file(&ckpt).ok();

    let engine = DiffEngine::standard();
    let plain = engine.run(&cases);
    let checkpointed = engine.run_with_checkpoint(&cases, &ckpt).unwrap();
    assert_eq!(plain, checkpointed);
    assert_eq!(plain.errors, 0);
    assert!(plain.quarantined.is_empty());

    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_dir_all(&dir).ok();
}
