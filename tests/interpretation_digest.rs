//! Interpretation regression gate.
//!
//! What each simulated implementation made of each message is the raw
//! material of every finding and every behavior digest: the outcome and
//! its rendered reason, the request line, the Host identity, the body,
//! the framing and message boundaries, every classified header line with
//! its canonical name, the repair flag, every rendered note, and the
//! reply it sent. This gate digests all of it for every case of a
//! corpus, as interpreted by
//!
//! * the ten product models, each as an origin over the case bytes
//!   (`Server::handle_stream`);
//! * the six proxies over the case bytes (`Proxy::forward_stream`), and
//!   every back-end model over each proxy's forwarded stream;
//! * the strict baseline (`diff::baseline::baseline_profile()`);
//!
//! and it digests every case outcome's `behavior_digests` from
//! `Workflow::run_case`. Reasons and notes are digested as rendered
//! text, so the gate reads the same however they are stored. It uses the
//! length-separated FNV-1a of the replay digests. The `full()` corpus
//! runs here; the paper-scale h1-sim corpus (`abnf_seeds` 4000, seed 7)
//! is the same check at scale, `#[ignore]`d and run in release
//! (`cargo test --release --test interpretation_digest -- --ignored`).
//!
//! A second gate pins what a *faulted* case produces: the Table II
//! catalog and the `quick()` corpus run through `Workflow::execute` under
//! two fault plans at two attempts, and every outcome's behavior
//! digests, fault events, budget flag and each chain's forwarded bytes,
//! message lengths and relay-probe reaction are digested. The catalog
//! pass runs over both transports against the same constants.

use hdiff::diff::baseline::baseline_profile;
use hdiff::diff::replay::behavior_digests;
use hdiff::diff::{CaseOutcome, Fnv, Transport, Workflow, STEP_BUDGET};
use hdiff::gen::{catalog, Origin, TestCase};
use hdiff::servers::fault::{FaultInjector, FaultPlan, FaultSession};
use hdiff::servers::{
    backends, products, proxies, ForwardAction, Interpretation, Outcome, Proxy, ProxyResult,
    Server, ServerReply,
};
use hdiff::{HDiff, HdiffConfig};

/// Counts and digests of one corpus's interpretations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digests {
    cases: usize,
    /// Server replies and proxy results digested.
    messages: usize,
    /// The ten products as origins over the case bytes.
    direct: u64,
    /// The proxies over the case bytes: interpretation and action.
    proxy: u64,
    /// Every back-end over each proxy's forwarded stream.
    replay: u64,
    /// The strict baseline over the case bytes.
    baseline: u64,
    /// Every `(view, digest)` of `behavior_digests(run_case(case))`.
    behavior: u64,
}

fn hash_optional(h: &mut Fnv, bytes: Option<&[u8]>) {
    match bytes {
        None => h.write_u64(0),
        Some(bytes) => {
            h.write_u64(1);
            h.write(bytes);
        }
    }
}

fn hash_interpretation(h: &mut Fnv, i: &Interpretation) {
    h.write_u64(u64::from(i.outcome.status()));
    let reason = match &i.outcome {
        Outcome::Accept => None,
        Outcome::Reject { reason, .. } => Some(reason.to_string()),
    };
    hash_optional(h, reason.as_deref().map(str::as_bytes));
    h.write(&i.method[..]);
    h.write(&i.target[..]);
    h.write(format!("{:?}", i.version).as_bytes());
    hash_optional(h, i.host.as_deref());
    h.write(&i.body[..]);
    h.write(format!("{:?}", i.framing).as_bytes());
    h.write_u64(i.consumed as u64);
    h.write_u64(i.body_start as u64);
    h.write_u64(i.headers.len() as u64);
    for header in &i.headers {
        h.write(header.field.raw());
        hash_optional(h, header.canon.as_deref().map(str::as_bytes));
    }
    h.write_u64(u64::from(i.repaired_chunked));
    h.write_u64(i.notes.len() as u64);
    for note in &i.notes {
        h.write(note.to_string().as_bytes());
    }
}

/// Digests every reply; returns how many there were.
fn hash_replies(h: &mut Fnv, replies: &[ServerReply]) -> usize {
    h.write_u64(replies.len() as u64);
    for reply in replies {
        hash_interpretation(h, &reply.interpretation);
        h.write(&reply.response.to_bytes());
    }
    replies.len()
}

/// Digests every proxy result; returns how many there were.
fn hash_proxy_results(h: &mut Fnv, results: &[ProxyResult]) -> usize {
    h.write_u64(results.len() as u64);
    for result in results {
        hash_interpretation(h, &result.interpretation);
        match &result.action {
            ForwardAction::Forwarded(bytes) => {
                h.write_u64(0);
                h.write(bytes);
            }
            ForwardAction::Rejected(response) => {
                h.write_u64(1);
                h.write(&response.to_bytes());
            }
        }
    }
    results.len()
}

fn digests(cases: &[TestCase]) -> Digests {
    let products: Vec<Server> = products().into_iter().map(Server::new).collect();
    let proxies: Vec<Proxy> = proxies().into_iter().map(Proxy::new).collect();
    let backends: Vec<Server> = backends().into_iter().map(Server::new).collect();
    let baseline = Server::new(baseline_profile());
    let workflow = Workflow::standard();
    let (mut direct, mut proxy, mut replay) = (Fnv::new(), Fnv::new(), Fnv::new());
    let (mut strict, mut behavior) = (Fnv::new(), Fnv::new());
    let mut messages = 0;
    for case in cases {
        let bytes = case.request.to_bytes();
        for server in &products {
            direct.write(server.name().as_bytes());
            messages += hash_replies(&mut direct, &server.handle_stream(&bytes));
        }
        for front in &proxies {
            let results = front.forward_stream(&bytes);
            proxy.write(front.name().as_bytes());
            messages += hash_proxy_results(&mut proxy, &results);
            let forwarded: Vec<u8> =
                results.iter().filter_map(|r| r.action.forwarded()).flatten().copied().collect();
            for back in &backends {
                replay.write(front.name().as_bytes());
                replay.write(back.name().as_bytes());
                messages += hash_replies(&mut replay, &back.handle_stream(&forwarded));
            }
        }
        messages += hash_replies(&mut strict, &baseline.handle_stream(&bytes));
        for (view, digest) in behavior_digests(&workflow.run_case(case)) {
            behavior.write(view.as_bytes());
            behavior.write_u64(digest);
        }
    }
    Digests {
        cases: cases.len(),
        messages,
        direct: direct.0,
        proxy: proxy.0,
        replay: replay.0,
        baseline: strict.0,
        behavior: behavior.0,
    }
}

fn check(name: &str, config: HdiffConfig, pinned: Digests) {
    let hdiff = HDiff::new(config);
    let cases = hdiff.generate_cases(&hdiff.analyze());
    let got = digests(&cases);
    println!("{name}: {got:#x?}");
    assert_eq!(got, pinned, "{name}: interpretations drifted from the pinned digests");
}

// Recorded from the interpretations these corpora produced while every
// interpretation owned copies of its method, target, Host, body and
// header lines, and kept its notes and reject reason as strings.

const FULL: Digests = Digests {
    cases: 1_077,
    messages: 36_350,
    direct: 0x10fc_5d8e_f8c8_8323,
    proxy: 0x7af3_0391_f748_afe8,
    replay: 0x80c2_df7d_a6c7_1dd8,
    baseline: 0xd89d_11ec_2111_8d6f,
    behavior: 0x4d0a_6284_240f_c114,
};

const H1_SIM_SEED_7: Digests = Digests {
    cases: 29_188,
    messages: 935_732,
    direct: 0x058a_928c_b147_2f62,
    proxy: 0x235c_a165_e697_3346,
    replay: 0xfd24_241c_3ad7_bfae,
    baseline: 0xa5c9_80f2_afc3_bfc9,
    behavior: 0x950b_d0ed_cc49_74c0,
};

#[test]
fn full_corpus_interpretations_match_their_pinned_digests() {
    check("full", HdiffConfig::full(), FULL);
}

#[test]
#[ignore = "paper-scale corpus; run in release"]
fn h1_sim_interpretations_match_their_pinned_digests() {
    let mut config = HdiffConfig::full();
    config.abnf_seeds = 4000;
    config.threads = 1;
    config.seed = 7;
    check("h1-sim seed 7", config, H1_SIM_SEED_7);
}

/// Counts and digest of one corpus's faulted outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultedDigests {
    /// Outcomes digested: cases × plans × attempts.
    outcomes: usize,
    /// Outcomes that recorded at least one fault event.
    faulted: usize,
    /// Outcomes whose step budget ran out.
    exhausted: usize,
    /// Every digested field of every outcome, in run order.
    digest: u64,
}

/// The Table II catalog as cases, numbered from 1 in catalog order.
fn catalog_cases() -> Vec<TestCase> {
    let mut out = Vec::new();
    for entry in catalog::catalog() {
        for (req, note) in &entry.requests {
            out.push(TestCase {
                uuid: out.len() as u64 + 1,
                request: req.clone(),
                assertions: Vec::new(),
                origin: Origin::Catalog(entry.id.to_string()),
                note: note.clone(),
            });
        }
    }
    out
}

fn hash_outcome(h: &mut Fnv, outcome: &CaseOutcome) {
    for (view, digest) in behavior_digests(outcome) {
        h.write(view.as_bytes());
        h.write_u64(digest);
    }
    h.write_u64(outcome.fault_events.len() as u64);
    for event in &outcome.fault_events {
        h.write(event.hop.as_bytes());
        h.write(event.stage.as_str().as_bytes());
        h.write(event.kind.as_str().as_bytes());
    }
    h.write_u64(u64::from(outcome.budget_exhausted));
    for chain in &outcome.chains {
        h.write(chain.proxy.as_bytes());
        h.write(&chain.forwarded);
        h.write_u64(chain.forwarded_lens.len() as u64);
        for &len in &chain.forwarded_lens {
            h.write_u64(len as u64);
        }
        match &chain.relay_reaction {
            None => h.write_u64(0),
            Some(r) => {
                h.write_u64(1);
                h.write(r.fault.as_str().as_bytes());
                h.write_u64(u64::from(r.replaced));
                h.write_u64(r.status.map_or(0, |s| 1 + u64::from(s)));
                h.write_u64(r.body_len as u64);
            }
        }
    }
}

/// Runs every case under fault plans at rates 30 and 60 (seed 7), at
/// attempts 0 and 1, over `transport`.
fn faulted_digests(transport: Transport, cases: &[TestCase]) -> FaultedDigests {
    let workflow = Workflow::standard();
    let mut h = Fnv::new();
    let (mut outcomes, mut faulted, mut exhausted) = (0, 0, 0);
    for rate in [30, 60] {
        let injector = FaultInjector::new(FaultPlan::new(7, rate));
        for attempt in [0, 1] {
            for case in cases {
                let session = FaultSession::new(&injector, case.uuid, attempt, STEP_BUDGET);
                let outcome = workflow
                    .execute(
                        transport,
                        case.uuid,
                        case.origin.to_string(),
                        case.request.to_bytes(),
                        &session,
                    )
                    .expect("the loopback testbed spawns");
                hash_outcome(&mut h, &outcome);
                outcomes += 1;
                faulted += usize::from(!outcome.fault_events.is_empty());
                exhausted += usize::from(outcome.budget_exhausted);
            }
        }
    }
    FaultedDigests { outcomes, faulted, exhausted, digest: h.0 }
}

fn check_faulted(name: &str, transport: Transport, cases: &[TestCase], pinned: FaultedDigests) {
    let got = faulted_digests(transport, cases);
    println!("{name} over {transport}: {got:#x?}");
    assert_eq!(got, pinned, "{name} over {transport}: faulted outcomes drifted");
}

// Recorded while the sim decided faults and charged the step budget
// inside the server and proxy models, and the socket transport replayed
// that bookkeeping in the sim's order.

const CATALOG_FAULTED: FaultedDigests =
    FaultedDigests { outcomes: 144, faulted: 121, exhausted: 56, digest: 0x9414_47f3_e8a2_e8b4 };

const QUICK_FAULTED: FaultedDigests =
    FaultedDigests { outcomes: 860, faulted: 708, exhausted: 414, digest: 0xcf56_00e9_1040_ccaa };

#[test]
fn faulted_catalog_outcomes_match_their_pinned_digest_on_the_sim() {
    check_faulted("catalog", Transport::Sim, &catalog_cases(), CATALOG_FAULTED);
}

#[test]
fn faulted_catalog_outcomes_match_their_pinned_digest_on_the_wire() {
    check_faulted("catalog", Transport::TcpAsync, &catalog_cases(), CATALOG_FAULTED);
}

#[test]
fn faulted_quick_outcomes_match_their_pinned_digest() {
    let hdiff = HDiff::new(HdiffConfig::quick());
    let cases = hdiff.generate_cases(&hdiff.analyze());
    check_faulted("quick", Transport::Sim, &cases, QUICK_FAULTED);
}
