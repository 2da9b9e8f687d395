//! The three detection models (HRS, HoT, CPDoS).
//!
//! Detection rules are predicates over the behavior the workflow
//! collected. Because HDiff has the strict baseline, every finding also
//! attributes nonconformance to specific products (`culprits`) — the
//! advantage over plain differential testing the paper highlights.

use std::fmt;
use std::sync::Arc;

use hdiff_gen::AttackClass;
use hdiff_servers::fault::FaultKind;
use hdiff_servers::{interpret, Interpretation, Outcome, ParserProfile, RejectReason};

use crate::baseline::{deviations, strict_baseline, Deviation, DeviationKind};
use crate::findings::{Culprits, Evidence, Finding, FramingDeviation, HostViews};
use crate::names::Name;
use crate::syntax::SyntaxOracle;
use crate::workflow::{CaseOutcome, FaultReaction};

/// Two proxies reacting differently to the *same* injected upstream
/// fault — e.g. one replaces the damaged reply with its own 502 while the
/// other relays the truncated body downstream. Not one of the paper's
/// three attack classes (those enumerate `AttackClass::ALL` and must stay
/// exactly three); degradation divergence is a separate resilience
/// finding produced only by fault-injection campaigns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationFinding {
    /// Test-case id during which the fault fired.
    pub uuid: u64,
    /// The injected fault both proxies experienced.
    pub fault: FaultKind,
    /// First proxy of the divergent pair (lexicographically smaller).
    pub front_a: String,
    /// Second proxy of the divergent pair.
    pub front_b: String,
    /// Human-readable comparison of the two reactions.
    pub evidence: String,
}

impl fmt::Display for DegradationFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[degradation] case #{} fault {}: {} vs {}: {}",
            self.uuid, self.fault, self.front_a, self.front_b, self.evidence
        )
    }
}

fn describe_reaction(r: &FaultReaction) -> String {
    let verb = if r.replaced { "replaces with own" } else { "relays" };
    match r.status {
        Some(s) => format!("{verb} {s} ({} bytes)", r.body_len),
        None => format!("{verb} unparseable bytes ({} bytes)", r.body_len),
    }
}

/// The degradation detection pass: compares every proxy pair's relay
/// reaction to the case's injected origin fault and reports each pair
/// whose reactions diverge. Returns nothing for fault-free cases.
pub fn detect_degradation(outcome: &CaseOutcome) -> Vec<DegradationFinding> {
    let reactions: Vec<(&str, &FaultReaction)> = outcome
        .chains
        .iter()
        .filter_map(|c| c.relay_reaction.as_ref().map(|r| (c.proxy.as_str(), r)))
        .collect();
    let mut findings = Vec::new();
    for (i, (name_a, a)) in reactions.iter().enumerate() {
        for (name_b, b) in &reactions[i + 1..] {
            debug_assert_eq!(a.fault, b.fault, "origin fault is decided once per case");
            // Divergence means a different *reaction shape* — substitute vs
            // relay, or a different downstream status. Byte counts stay out
            // of the predicate (every proxy's own Via/Server header length
            // would otherwise flag identical reactions) but stay in the
            // evidence.
            if a.replaced == b.replaced && a.status == b.status {
                continue;
            }
            let (front_a, front_b, a, b) =
                if name_a <= name_b { (name_a, name_b, a, b) } else { (name_b, name_a, b, a) };
            findings.push(DegradationFinding {
                uuid: outcome.uuid,
                fault: a.fault,
                front_a: (*front_a).to_string(),
                front_b: (*front_b).to_string(),
                evidence: format!(
                    "{front_a} {}; {front_b} {}",
                    describe_reaction(a),
                    describe_reaction(b)
                ),
            });
        }
    }
    findings.sort_by(|x, y| (&x.front_a, &x.front_b).cmp(&(&y.front_a, &y.front_b)));
    findings
}

/// Runs all detection models over one case outcome.
///
/// `profiles` must contain every product profile participating (for
/// deviation attribution).
pub fn detect_case(profiles: &[ParserProfile], outcome: &CaseOutcome) -> Vec<Finding> {
    detect_case_with_oracle(profiles, outcome, None)
}

/// What one case's findings share, each allocated once per case: the
/// origin, the text of every distinct reject reason, and every distinct
/// pair of host views.
struct Shared<'a> {
    origin_text: &'a str,
    origin: Option<Arc<str>>,
    reasons: Vec<(&'a RejectReason, Arc<str>)>,
    views: Vec<(&'a [u8], &'a [u8], Arc<HostViews>)>,
}

impl<'a> Shared<'a> {
    fn new(origin_text: &'a str) -> Shared<'a> {
        Shared { origin_text, origin: None, reasons: Vec::new(), views: Vec::new() }
    }

    fn origin(&mut self) -> Arc<str> {
        let text = self.origin_text;
        Arc::clone(self.origin.get_or_insert_with(|| text.into()))
    }

    /// The rendered text of `reason`.
    fn reason(&mut self, reason: &'a RejectReason) -> Arc<str> {
        if let Some((_, known)) = self.reasons.iter().find(|(r, _)| *r == reason) {
            return Arc::clone(known);
        }
        let text: Arc<str> = reason.to_string().into();
        self.reasons.push((reason, Arc::clone(&text)));
        text
    }

    fn host_views(
        &mut self,
        proxy: &'a [u8],
        backend: &'a [u8],
        oracle: Option<&SyntaxOracle>,
    ) -> Arc<HostViews> {
        if let Some((.., known)) = self.views.iter().find(|(p, b, _)| *p == proxy && *b == backend)
        {
            return Arc::clone(known);
        }
        let views = Arc::new(HostViews {
            proxy: String::from_utf8_lossy(proxy).into(),
            backend: String::from_utf8_lossy(backend).into(),
            host_abnf: oracle.map(|o| [o.conforms("Host", proxy), o.conforms("Host", backend)]),
        });
        self.views.push((proxy, backend, Arc::clone(&views)));
        views
    }
}

/// [`detect_case`], with an optional grammar-conformance oracle.
///
/// When an oracle is supplied, HoT findings are annotated with each
/// host view's verdict against the adapted `Host` production, turning
/// "the views differ" into "the views differ *and this one is not even
/// syntactically a host*" — which is what makes the pair exploitable.
pub fn detect_case_with_oracle(
    profiles: &[ParserProfile],
    outcome: &CaseOutcome,
    oracle: Option<&SyntaxOracle>,
) -> Vec<Finding> {
    let baseline = interpret(strict_baseline(), &outcome.bytes);
    let mut shared = Shared::new(&outcome.origin);
    let mut findings = Vec::new();

    // Detection is a pass over what the workflow *recorded* — it never
    // re-drives a parser. That keeps it exact under fault injection: an
    // implementation the injected fault silenced (reset/stalled before it
    // could parse) contributes no interpretation and therefore no
    // deviation, and a crash-prone profile only panics inside the
    // workflow step, where the runner's quarantine can catch it.
    let known = |name: &str| profiles.iter().any(|p| p.name == name);
    // An implementation's recorded interpretation (none for a name
    // outside `profiles`) and its deviations from the baseline.
    let single = |name| {
        let interpretation = if known(name) { outcome.recorded(name) } else { None };
        let devs =
            interpretation.map(|i| deviations(i, &baseline, &outcome.bytes)).unwrap_or_default();
        (name, interpretation, devs)
    };

    // Every implementation of the case — direct back-ends, then proxies
    // not already among them — with its deviations, worked out once.
    let mut singles: Vec<(&str, Option<&Interpretation>, Vec<Deviation>)> =
        outcome.direct.iter().map(|(name, _)| single(name.as_str())).collect();
    for chain in &outcome.chains {
        if !singles.iter().any(|(name, ..)| *name == chain.proxy) {
            singles.push(single(&chain.proxy));
        }
    }
    // Whether an implementation deviates other than by strict rejection:
    // what makes it a culprit of a pair finding. A name missing from
    // `singles` has no recorded interpretation, hence no deviation.
    let lenient = |name: &str| {
        singles
            .iter()
            .find(|(n, ..)| *n == name)
            .is_some_and(|(.., devs)| devs.iter().any(|d| d.kind != DeviationKind::StrictReject))
    };

    // ---- Model 0: single-implementation deviations ------------------------
    // (covers both direct back-end runs and proxy interpretations).
    for (name, interpretation, devs) in &singles {
        // Deviations come only from a recorded interpretation.
        let Some(i) = interpretation else { continue };
        for dev in devs {
            let name = Name::intern(name);
            let evidence = match dev.kind {
                DeviationKind::LenientAccept => {
                    let Outcome::Reject { reason, .. } = &baseline.outcome else { continue };
                    Evidence::LenientAccept { name, reason: shared.reason(reason) }
                }
                DeviationKind::Framing => Evidence::Framing(Box::new(FramingDeviation {
                    name,
                    framing: [i.framing, baseline.framing],
                    consumed: [i.consumed, baseline.consumed],
                })),
                DeviationKind::Host => Evidence::HostIdentity { name },
                DeviationKind::Repair => Evidence::ChunkRepair { name },
                DeviationKind::StrictReject => continue,
            };
            findings.push(Finding {
                class: dev.class,
                uuid: outcome.uuid,
                origin: shared.origin(),
                front: None,
                back: None,
                culprits: [name].into_iter().collect(),
                evidence,
            });
        }
    }

    // ---- Pair models over chains -------------------------------------------
    for chain in &outcome.chains {
        let Some(first_proxy) = chain.proxy_results.first() else { continue };
        if !first_proxy.interpretation.outcome.is_accept() {
            continue;
        }
        let proxy_host = &first_proxy.interpretation.host;
        let proxy_lenient = lenient(&chain.proxy);

        for replay in &chain.replays {
            let Some(first_reply) = replay.replies.first() else { continue };
            let backend_lenient = lenient(&replay.backend);
            // Names are interned only once the pair has a finding.
            let proxy = || Name::intern(&chain.proxy);
            let backend = || Name::intern(&replay.backend);
            let pair = |class, origin, culprits, evidence| Finding {
                class,
                uuid: outcome.uuid,
                origin,
                front: Some(proxy()),
                back: Some(backend()),
                culprits,
                evidence,
            };
            let pair_culprits = || {
                let mut culprits = Culprits::default();
                if proxy_lenient {
                    culprits.insert(proxy());
                }
                if backend_lenient {
                    culprits.insert(backend());
                }
                culprits
            };

            // HoT: both accept, host views differ.
            if first_reply.interpretation.outcome.is_accept() {
                if let (Some(proxy_view), Some(backend_view)) =
                    (proxy_host, &first_reply.interpretation.host)
                {
                    if proxy_view != backend_view {
                        let views = shared.host_views(proxy_view, backend_view, oracle);
                        findings.push(pair(
                            AttackClass::Hot,
                            shared.origin(),
                            [proxy(), backend()].into_iter().collect(),
                            Evidence::HostViews(views),
                        ));
                    }
                }
            }

            // HRS: desync — the back-end splits the forwarded stream into a
            // different number of messages than the proxy sent.
            let backend_msgs = replay.replies.len();
            if backend_msgs != chain.forwarded_count {
                findings.push(pair(
                    AttackClass::Hrs,
                    shared.origin(),
                    pair_culprits(),
                    Evidence::Desync { forwarded: chain.forwarded_count, parsed: backend_msgs },
                ));
            } else if let (Some(len), true) =
                (chain.forwarded_lens.first(), first_reply.interpretation.outcome.is_accept())
            {
                // Same count but different boundary for message 1.
                if first_reply.interpretation.consumed != *len {
                    findings.push(pair(
                        AttackClass::Hrs,
                        shared.origin(),
                        pair_culprits(),
                        Evidence::Boundary {
                            forwarded: *len,
                            consumed: first_reply.interpretation.consumed,
                        },
                    ));
                }
            }

            // HRS: framing-related rejection of a forwarded message the
            // proxy accepted.
            if let Outcome::Reject { status, reason } = &first_reply.interpretation.outcome {
                if is_framing_reject(reason) {
                    findings.push(pair(
                        AttackClass::Hrs,
                        shared.origin(),
                        pair_culprits(),
                        Evidence::FramingRejected {
                            status: *status,
                            reason: shared.reason(reason),
                        },
                    ));
                }
            }

            // CPDoS: the proxy cached an error response for this chain.
            if replay.cache_stored_error {
                findings.push(pair(
                    AttackClass::Cpdos,
                    shared.origin(),
                    [proxy()].into_iter().collect(),
                    Evidence::CachedError { status: first_reply.response.status, proxy: proxy() },
                ));
            }
        }
    }

    findings
}

/// Whether a rejection is on framing grounds: a Content-Length,
/// Transfer-Encoding or chunked rule, or a body shorter than announced.
fn is_framing_reject(reason: &RejectReason) -> bool {
    matches!(
        reason,
        RejectReason::InvalidContentLength(_)
            | RejectReason::DifferingContentLengthList
            | RejectReason::UnparseableContentLength(_)
            | RejectReason::MultipleContentLength
            | RejectReason::DifferingContentLength
            | RejectReason::UnknownTransferCoding(_)
            | RejectReason::EmptyTransferEncoding
            | RejectReason::FinalCodingNotChunked
            | RejectReason::ChunkedAppliedTwice
            | RejectReason::ChunkedUnder10
            | RejectReason::ClWithTe
            | RejectReason::BodyShorterThanCl
            | RejectReason::Chunked(_)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::Workflow;
    use hdiff_gen::TestCase;
    use hdiff_servers::products;
    use hdiff_wire::{Method, Request, Version};
    use std::collections::BTreeSet;

    fn run(req: Request) -> Vec<Finding> {
        let w = Workflow::standard();
        let outcome = w.run_case(&TestCase::generated(1, req, "test"));
        detect_case(&products(), &outcome)
    }

    #[test]
    fn clean_request_yields_no_findings() {
        let findings = run(Request::get("example.com"));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn varnish_absolute_uri_hot_pair_detected() {
        let mut b = Request::builder();
        b.method(Method::Get)
            .target("test://h2.com/?a=1")
            .version(Version::Http11)
            .header("Host", "h1.com");
        let findings = run(b.build());
        let hot: Vec<_> = findings.iter().filter(|f| f.class == AttackClass::Hot).collect();
        assert!(hot.iter().any(|f| f.pair() == Some(("varnish", "iis"))), "{hot:?}");
        assert!(hot.iter().any(|f| f.pair() == Some(("varnish", "tomcat"))), "{hot:?}");
    }

    #[test]
    fn multiple_host_hot_pair_varnish_weblogic() {
        let mut b = Request::builder();
        b.method(Method::Get)
            .target("/")
            .version(Version::Http11)
            .header("Host", "h1.com")
            .header("Host", "h2.com");
        let findings = run(b.build());
        assert!(
            findings
                .iter()
                .any(|f| f.class == AttackClass::Hot && f.pair() == Some(("varnish", "weblogic"))),
            "{findings:?}"
        );
        // Squid must stay out of HoT pairs (Table I).
        assert!(
            !findings
                .iter()
                .any(|f| f.class == AttackClass::Hot && f.front.as_deref() == Some("squid")),
            "{findings:?}"
        );
    }

    #[test]
    fn ws_colon_te_smuggling_detected_with_culprits() {
        let mut b = Request::builder();
        b.method(Method::Post)
            .target("/")
            .version(Version::Http11)
            .header("Host", "h1.com")
            .header_raw(b"Transfer-Encoding : chunked".to_vec())
            .body(hdiff_wire::encode_chunked(b"smuggl"));
        let findings = run(b.build());
        let hrs: Vec<_> = findings.iter().filter(|f| f.class == AttackClass::Hrs).collect();
        assert!(!hrs.is_empty(), "{findings:?}");
        assert!(hrs.iter().any(|f| f.culprits.contains("iis")), "{hrs:?}");
    }

    #[test]
    fn invalid_version_cpdos_detected_for_repairing_proxies() {
        let mut req = Request::get("h1.com");
        req.set_version(b"1.1/HTTP");
        let findings = run(req);
        let cpdos: BTreeSet<_> = findings
            .iter()
            .filter(|f| f.class == AttackClass::Cpdos)
            .filter_map(|f| f.front.as_deref())
            .collect();
        for proxy in ["nginx", "squid", "ats"] {
            assert!(cpdos.contains(proxy), "{proxy} missing from {cpdos:?}");
        }
        // Apache is strict: it rejects the bad version itself.
        assert!(!cpdos.contains("apache"));
    }

    #[test]
    fn hop_by_hop_host_removal_cpdos() {
        let mut b = Request::builder();
        b.method(Method::Get)
            .target("/")
            .version(Version::Http11)
            .header("Host", "h1.com")
            .header("Connection", "close, Host");
        let findings = run(b.build());
        let cpdos: BTreeSet<_> = findings
            .iter()
            .filter(|f| f.class == AttackClass::Cpdos)
            .filter_map(|f| f.front.as_deref())
            .collect();
        assert!(cpdos.contains("apache"), "{findings:?}");
    }

    #[test]
    fn chunk_overflow_repair_flags_squid_and_haproxy() {
        let mut b = Request::builder();
        b.method(Method::Post)
            .target("/")
            .version(Version::Http11)
            .header("Host", "h1.com")
            .header("Transfer-Encoding", "chunked")
            .body(b"1000000000000000a\r\nabc\r\n0\r\n\r\n".to_vec());
        let findings = run(b.build());
        let hrs_culprits: BTreeSet<_> = findings
            .iter()
            .filter(|f| f.class == AttackClass::Hrs)
            .flat_map(|f| f.culprits.iter().map(Name::as_str))
            .collect();
        assert!(hrs_culprits.contains("squid"), "{findings:?}");
        assert!(hrs_culprits.contains("haproxy"), "{findings:?}");
    }

    #[test]
    fn framing_rejects_are_the_reasons_the_text_search_found() {
        for reason in crate::baseline::tests::every_reason() {
            let text = reason.to_string().to_ascii_lowercase();
            let searched = ["content-length", "transfer", "chunk", "body shorter"]
                .iter()
                .any(|needle| text.contains(needle));
            assert_eq!(is_framing_reject(&reason), searched, "{reason:?}");
        }
    }
}
