//! Property-based tests over the core invariants (proptest).

use proptest::prelude::*;

use hdiff::diff::{DiffEngine, MAX_RETRIES};
use hdiff::gen::{AbnfGenerator, GenOptions, MutationEngine, PredefinedRules, TestCase};
use hdiff::servers::fault::{FaultInjector, FaultKind, FaultPlan, FaultStage};
use hdiff::servers::{interpret, ParserProfile};
use hdiff::wire::chunked::encode_chunked_with;
use hdiff::wire::{decode_chunked, parse_request, ChunkedDecodeOptions, Request};

proptest! {
    /// Chunked encode→decode round-trips any payload at any chunk size.
    #[test]
    fn chunked_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..512),
                          chunk in 1usize..64) {
        let enc = encode_chunked_with(&payload, chunk);
        let dec = decode_chunked(&enc, &ChunkedDecodeOptions::strict()).unwrap();
        prop_assert_eq!(dec.payload, payload);
        prop_assert_eq!(dec.consumed, enc.len());
        prop_assert!(!dec.repaired);
    }

    /// A request built from well-formed parts always re-parses strictly,
    /// with host and body preserved.
    #[test]
    fn builder_parser_round_trip(
        host in "[a-z][a-z0-9]{0,10}(\\.[a-z]{2,3})?",
        path in "/[a-z0-9]{0,12}",
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let req = Request::builder()
            .method(hdiff::wire::Method::Post)
            .target(path.as_str())
            .version(hdiff::wire::Version::Http11)
            .header("Host", host.as_str())
            .header("Content-Length", body.len().to_string())
            .body(body.clone())
            .build();
        let bytes = req.to_bytes();
        let parsed = parse_request(&bytes).unwrap();
        prop_assert_eq!(parsed.effective_host().unwrap(), host.as_bytes().to_vec());
        prop_assert_eq!(parsed.consumed, bytes.len());
        prop_assert_eq!(parsed.body, body);
    }

    /// The strict engine never panics on arbitrary bytes and never claims
    /// to have consumed more than the input.
    #[test]
    fn engine_is_total_on_arbitrary_bytes(input in proptest::collection::vec(any::<u8>(), 0..256)) {
        let profile = ParserProfile::strict("fuzz");
        let i = interpret(&profile, &input);
        prop_assert!(i.consumed <= input.len());
    }

    /// Every product engine is total on arbitrary printable streams.
    #[test]
    fn product_engines_are_total(input in "[ -~\\r\\n]{0,200}") {
        for p in hdiff::servers::products() {
            let i = interpret(&p, input.as_bytes());
            prop_assert!(i.consumed <= input.len(), "{}", p.name);
        }
    }

    /// The mutation engine never panics and keeps the request line
    /// parseable as bytes (serialization is always possible).
    #[test]
    fn mutations_always_serialize(seed in any::<u64>(), rounds in 0usize..6) {
        let mut engine = MutationEngine::new(seed);
        engine.rounds = rounds;
        let mut req = Request::get("example.com");
        engine.mutate(&mut req);
        let bytes = req.to_bytes();
        prop_assert!(bytes.windows(2).any(|w| w == b"\r\n"));
    }

    /// The same fault plan produces a byte-identical fault schedule:
    /// every (case, hop, stage, attempt) coordinate resolves to the same
    /// decision in two independently constructed injectors.
    #[test]
    fn fault_schedule_is_deterministic(seed in any::<u64>(), rate in 0u8..=100, uuid in any::<u64>()) {
        let a = FaultInjector::new(FaultPlan::new(seed, rate));
        let b = FaultInjector::new(FaultPlan::new(seed, rate));
        for hop in ["origin", "nginx", "squid", "a-very-long-hop-name"] {
            for stage in [FaultStage::Forward, FaultStage::OriginRespond] {
                for attempt in 0..3u32 {
                    prop_assert_eq!(
                        a.decide(uuid, hop, stage, attempt),
                        b.decide(uuid, hop, stage, attempt),
                        "{hop}/{stage:?}/{attempt}"
                    );
                }
            }
        }
    }

    /// The same fault-plan seed reproduces the identical `RunSummary`,
    /// end to end — the property the checkpoint/resume machinery and the
    /// retry schedule both rest on.
    #[test]
    fn fault_campaigns_reproduce_identically(seed in any::<u64>(), rate in 0u8..=100) {
        let cases = fault_probe_cases();
        let mut first = DiffEngine::standard();
        first.fault_plan = FaultPlan::new(seed, rate);
        let mut second = DiffEngine::standard();
        second.fault_plan = FaultPlan::new(seed, rate);
        second.threads = 2;
        prop_assert_eq!(first.run(&cases), second.run(&cases));
    }

    /// Arbitrary fault plans — any seed, any rate, any non-empty subset
    /// of fault kinds — never panic the engine, and the resilience
    /// counters stay within their bounds.
    #[test]
    fn arbitrary_fault_plans_never_panic(seed in any::<u64>(), rate in 0u8..=100, mask in 1u8..32) {
        let kinds: Vec<FaultKind> = FaultKind::ALL
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| k)
            .collect();
        let cases = fault_probe_cases();
        let mut engine = DiffEngine::standard();
        engine.fault_plan = FaultPlan::new(seed, rate).with_kinds(&kinds);
        let summary = engine.run(&cases);
        prop_assert_eq!(summary.cases, cases.len());
        prop_assert!(summary.retries <= cases.len() * MAX_RETRIES as usize);
        prop_assert!(summary.errors <= summary.cases);
        prop_assert!(summary.quarantined.is_empty(), "no profile panics here");
    }

    /// ABNF generation output for `Host` under the default (predefined)
    /// options is always accepted by the strict parser when framed in a
    /// valid request.
    #[test]
    fn generated_hosts_are_strictly_acceptable(seed in any::<u64>()) {
        let analysis = analysis();
        let mut gen = AbnfGenerator::new(
            analysis,
            GenOptions { seed, predefined: PredefinedRules::standard(), ..GenOptions::default() },
        );
        if let Some(host) = gen.generate("Host") {
            let req = Request::builder().header("Host", &host).build();
            let i = interpret(&ParserProfile::strict("fuzz"), &req.to_bytes());
            prop_assert!(i.outcome.is_accept(), "host {:?}", String::from_utf8_lossy(&host));
        }
    }
}

/// A small fixed corpus that exercises both the replay path (ambiguous
/// double-CL) and the plain path, keeping each property iteration cheap.
fn fault_probe_cases() -> Vec<TestCase> {
    let mut ambiguous = Request::builder();
    ambiguous
        .method(hdiff::wire::Method::Post)
        .target("/")
        .version(hdiff::wire::Version::Http11)
        .header("Host", "h1.com")
        .header("Content-Length", "3")
        .header("Content-Length", "0")
        .body(b"abc".to_vec());
    vec![
        TestCase::generated(1, Request::get("example.com"), "plain"),
        TestCase::generated(2, ambiguous.build(), "double content-length"),
    ]
}

fn analysis() -> hdiff::abnf::Grammar {
    use std::sync::OnceLock;
    static GRAMMAR: OnceLock<hdiff::abnf::Grammar> = OnceLock::new();
    GRAMMAR
        .get_or_init(|| {
            hdiff::analyzer::DocumentAnalyzer::with_default_inputs()
                .analyze(&hdiff::corpus::core_documents())
                .grammar
        })
        .clone()
}
