//! SR conformance from the campaign's own interpretations.
//!
//! The Host-conformance check reads which profiles accepted a case from
//! the accept set its campaign recorded, instead of interpreting the case
//! again. That rests on one premise, checked here for every case of the
//! `full()` corpus on sim and the Table II catalog over the loopback
//! testbed: the interpretation a profile recorded of a case's first
//! message is the one `interpret` gives. A case without a recorded set
//! (faulted, quarantined, or read back from a checkpoint) is interpreted,
//! so the violations must not depend on how the campaign ran: thread
//! count, fault rate, transport or resume.

use hdiff::diff::{
    AcceptSet, CaseOutcome, DiffEngine, SrViolation, Transport, Workflow, STEP_BUDGET,
};
use hdiff::gen::{catalog, Origin, TestCase};
use hdiff::servers::fault::{FaultInjector, FaultPlan, FaultSession};
use hdiff::servers::{interpret, products};
use hdiff::{HDiff, HdiffConfig};

fn catalog_cases() -> Vec<TestCase> {
    let mut out = Vec::new();
    for entry in catalog::catalog() {
        for (request, note) in entry.requests {
            out.push(TestCase {
                uuid: out.len() as u64 + 1,
                request,
                assertions: Vec::new(),
                origin: Origin::Catalog(entry.id.to_string()),
                note,
            });
        }
    }
    out
}

/// Asserts that every product recorded the outcome `interpret` gives for
/// the case's bytes, and that the accept set says the same.
fn assert_recorded_as_interpreted(case: &TestCase, outcome: &CaseOutcome) {
    let profiles = products();
    let set = AcceptSet::recorded(&profiles, outcome)
        .unwrap_or_else(|| panic!("case {}: a fault-free case records every profile", case.uuid));
    for (i, profile) in profiles.iter().enumerate() {
        let fresh = interpret(profile, &outcome.bytes).outcome;
        let recorded = outcome.recorded(&profile.name).map(|r| &r.outcome);
        assert_eq!(recorded, Some(&fresh), "case {} ({}), {}", case.uuid, case.note, profile.name);
        assert_eq!(set.accepts(i), fresh.is_accept(), "case {}, {}", case.uuid, profile.name);
    }
}

#[test]
fn every_recorded_first_message_outcome_is_the_profiles_own_on_sim() {
    let hdiff = HDiff::new(HdiffConfig::full());
    let cases = hdiff.generate_cases(&hdiff.analyze());
    let workflow = Workflow::standard();
    for case in &cases {
        assert_recorded_as_interpreted(case, &workflow.run_case(case));
    }
}

#[test]
fn every_recorded_first_message_outcome_is_the_profiles_own_over_tcp_async() {
    let workflow = Workflow::standard();
    let injector = FaultInjector::new(FaultPlan::disabled());
    for case in catalog_cases() {
        let session = FaultSession::new(&injector, case.uuid, 0, STEP_BUDGET);
        let bytes = case.request.to_bytes();
        let origin = case.origin.to_string();
        let outcome = workflow
            .execute(Transport::TcpAsync, case.uuid, origin, bytes, &session)
            .expect("the loopback testbed serves the case");
        assert_recorded_as_interpreted(&case, &outcome);
    }
}

#[test]
fn sr_violations_do_not_depend_on_how_the_campaign_ran() {
    let prepared = HDiff::new(HdiffConfig::quick()).prepare();
    let cases = &prepared.cases;
    let engine = |threads: usize| {
        let mut engine = DiffEngine::standard();
        engine.threads = threads;
        engine.syntax_oracle = prepared.engine.syntax_oracle.clone();
        engine
    };
    let reference = engine(1).run(cases).sr_violations;
    assert!(reference.iter().any(|v| v.sr_id == "rfc7230:host-abnf"), "{reference:?}");
    let same = |what: &str, got: Vec<SrViolation>| {
        assert_eq!(got.len(), reference.len(), "{what}");
        assert!(got == reference, "{what}: SR violations differ from the one-thread sim run");
    };

    same("4 threads", engine(4).run(cases).sr_violations);

    let mut faulted = engine(2);
    faulted.fault_plan = FaultPlan::new(HdiffConfig::quick().seed, 30);
    let summary = faulted.run(cases);
    assert!(summary.errors > 0, "a 30% fault rate leaves some cases without a recorded set");
    same("fault rate 30", summary.sr_violations);

    let mut wire = engine(2);
    wire.transport = Transport::TcpAsync;
    same("tcp-async", wire.run(cases).sr_violations);
    wire.fault_plan = FaultPlan::new(HdiffConfig::quick().seed, 30);
    same("tcp-async at fault rate 30", wire.run(cases).sr_violations);

    // Records read back from a checkpoint carry no accept set.
    let dir = std::env::temp_dir().join(format!("hdiff-sr-conformance-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("resume.json");
    let mut killed = engine(2);
    killed.checkpoint_every = 16;
    killed.stop_after_chunks = Some(2);
    let partial = killed.run_with_checkpoint(cases, &ckpt).unwrap();
    assert!(partial.cases < cases.len(), "the kill left work undone");
    let mut resumed = engine(2);
    resumed.checkpoint_every = 16;
    same("resumed", resumed.run_with_checkpoint(cases, &ckpt).unwrap().sr_violations);
    std::fs::remove_dir_all(&dir).ok();
}
