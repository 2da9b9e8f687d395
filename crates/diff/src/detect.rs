//! The three detection models (HRS, HoT, CPDoS).
//!
//! Detection rules are predicates over the behavior the workflow
//! collected. Because HDiff has the strict baseline, every finding also
//! attributes nonconformance to specific products (`culprits`) — the
//! advantage over plain differential testing the paper highlights.

use std::collections::BTreeSet;
use std::fmt;

use hdiff_gen::AttackClass;
use hdiff_servers::fault::FaultKind;
use hdiff_servers::{interpret, Outcome, ParserProfile};

use crate::baseline::{deviations, strict_baseline, Deviation, DeviationKind};
use crate::findings::Finding;
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
    let mut findings = Vec::new();

    // Detection is a pass over what the workflow *recorded* — it never
    // re-drives a parser. That keeps it exact under fault injection: an
    // implementation the injected fault silenced (reset/stalled before it
    // could parse) contributes no interpretation and therefore no
    // deviation, and a crash-prone profile only panics inside the
    // workflow step, where the runner's quarantine can catch it.
    let known = |name: &str| profiles.iter().any(|p| p.name == name);
    let recorded = |name: &str| {
        outcome
            .direct
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, replies)| replies.first())
            .map(|r| &r.interpretation)
            .or_else(|| {
                outcome
                    .chains
                    .iter()
                    .find(|c| c.proxy == name)
                    .and_then(|c| c.proxy_results.first())
                    .map(|r| &r.interpretation)
            })
    };
    let devs_of = |name: &str| -> Vec<Deviation> {
        if !known(name) {
            return Vec::new();
        }
        recorded(name).map(|i| deviations(i, &baseline, &outcome.bytes)).unwrap_or_default()
    };

    // Every implementation of the case — direct back-ends, then proxies
    // not already among them — with its deviations, worked out once.
    let mut singles: Vec<(&str, Vec<Deviation>)> =
        outcome.direct.iter().map(|(name, _)| (name.as_str(), devs_of(name))).collect();
    for chain in &outcome.chains {
        if !singles.iter().any(|(name, _)| *name == chain.proxy) {
            singles.push((chain.proxy.as_str(), devs_of(&chain.proxy)));
        }
    }
    // Whether an implementation deviates other than by strict rejection:
    // what makes it a culprit of a pair finding. A name missing from
    // `singles` has no recorded interpretation, hence no deviation.
    let lenient = |name: &str| {
        singles
            .iter()
            .find(|(n, _)| *n == name)
            .is_some_and(|(_, devs)| devs.iter().any(|d| d.kind != DeviationKind::StrictReject))
    };

    // ---- Model 0: single-implementation deviations ------------------------
    // (covers both direct back-end runs and proxy interpretations).
    for (name, devs) in &singles {
        for dev in devs {
            let attributable = matches!(
                dev.kind,
                DeviationKind::LenientAccept
                    | DeviationKind::Framing
                    | DeviationKind::Host
                    | DeviationKind::Repair
            );
            if !attributable {
                continue;
            }
            findings.push(Finding {
                class: dev.class,
                uuid: outcome.uuid,
                origin: outcome.origin.clone(),
                front: None,
                back: None,
                culprits: [name.to_string()].into_iter().collect(),
                evidence: format!("{name}: {}", dev.detail),
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
            let pair_culprits = || {
                let mut culprits = BTreeSet::new();
                if proxy_lenient {
                    culprits.insert(chain.proxy.clone());
                }
                if backend_lenient {
                    culprits.insert(replay.backend.clone());
                }
                culprits
            };

            // HoT: both accept, host views differ.
            if first_reply.interpretation.outcome.is_accept() {
                let backend_host = &first_reply.interpretation.host;
                if proxy_host.is_some() && backend_host.is_some() && proxy_host != backend_host {
                    let mut evidence = format!(
                        "host views differ: proxy sees {:?}, backend sees {:?}",
                        String::from_utf8_lossy(proxy_host.as_deref().unwrap_or_default()),
                        String::from_utf8_lossy(backend_host.as_deref().unwrap_or_default()),
                    );
                    if let Some(oracle) = oracle {
                        evidence.push_str(&format!(
                            "; Host ABNF: proxy view {}, backend view {}",
                            oracle.host_label(proxy_host.as_deref().unwrap_or_default()),
                            oracle.host_label(backend_host.as_deref().unwrap_or_default()),
                        ));
                    }
                    findings.push(Finding {
                        class: AttackClass::Hot,
                        uuid: outcome.uuid,
                        origin: outcome.origin.clone(),
                        front: Some(chain.proxy.clone()),
                        back: Some(replay.backend.clone()),
                        culprits: [chain.proxy.clone(), replay.backend.clone()]
                            .into_iter()
                            .collect(),
                        evidence,
                    });
                }
            }

            // HRS: desync — the back-end splits the forwarded stream into a
            // different number of messages than the proxy sent.
            let backend_msgs = replay.replies.len();
            if backend_msgs != chain.forwarded_count {
                findings.push(Finding {
                    class: AttackClass::Hrs,
                    uuid: outcome.uuid,
                    origin: outcome.origin.clone(),
                    front: Some(chain.proxy.clone()),
                    back: Some(replay.backend.clone()),
                    culprits: pair_culprits(),
                    evidence: format!(
                        "desync: proxy forwarded {} message(s), backend parsed {}",
                        chain.forwarded_count, backend_msgs
                    ),
                });
            } else if let (Some(len), true) =
                (chain.forwarded_lens.first(), first_reply.interpretation.outcome.is_accept())
            {
                // Same count but different boundary for message 1.
                if first_reply.interpretation.consumed != *len {
                    findings.push(Finding {
                        class: AttackClass::Hrs,
                        uuid: outcome.uuid,
                        origin: outcome.origin.clone(),
                        front: Some(chain.proxy.clone()),
                        back: Some(replay.backend.clone()),
                        culprits: pair_culprits(),
                        evidence: format!(
                            "boundary disagreement: forwarded message is {} bytes, backend consumed {}",
                            len, first_reply.interpretation.consumed
                        ),
                    });
                }
            }

            // HRS: framing-related rejection of a forwarded message the
            // proxy accepted.
            if let Outcome::Reject { status, reason } = &first_reply.interpretation.outcome {
                if ["content-length", "transfer", "chunk", "body shorter"]
                    .iter()
                    .any(|needle| contains_ignore_case(reason, needle))
                {
                    findings.push(Finding {
                        class: AttackClass::Hrs,
                        uuid: outcome.uuid,
                        origin: outcome.origin.clone(),
                        front: Some(chain.proxy.clone()),
                        back: Some(replay.backend.clone()),
                        culprits: pair_culprits(),
                        evidence: format!(
                            "proxy accepted but backend rejected framing ({status} {reason})"
                        ),
                    });
                }
            }

            // CPDoS: the proxy cached an error response for this chain.
            if replay.cache_stored_error {
                findings.push(Finding {
                    class: AttackClass::Cpdos,
                    uuid: outcome.uuid,
                    origin: outcome.origin.clone(),
                    front: Some(chain.proxy.clone()),
                    back: Some(replay.backend.clone()),
                    culprits: [chain.proxy.clone()].into_iter().collect(),
                    evidence: format!(
                        "error response ({}) stored in the {} cache",
                        first_reply.response.status, chain.proxy
                    ),
                });
            }
        }
    }

    findings
}

/// Whether `haystack` contains the lowercase ASCII `needle` in any ASCII
/// case: `haystack.to_ascii_lowercase().contains(needle)` without the
/// lowercased copy.
fn contains_ignore_case(haystack: &str, needle: &str) -> bool {
    haystack.as_bytes().windows(needle.len()).any(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::Workflow;
    use hdiff_gen::TestCase;
    use hdiff_servers::products;
    use hdiff_wire::{Method, Request, Version};

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
        let culprits: BTreeSet<_> = hrs.iter().flat_map(|f| f.culprits.iter().cloned()).collect();
        assert!(culprits.contains("iis"), "{culprits:?}");
    }

    #[test]
    fn invalid_version_cpdos_detected_for_repairing_proxies() {
        let mut req = Request::get("h1.com");
        req.set_version(b"1.1/HTTP");
        let findings = run(req);
        let cpdos: BTreeSet<_> = findings
            .iter()
            .filter(|f| f.class == AttackClass::Cpdos)
            .filter_map(|f| f.front.clone())
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
            .filter_map(|f| f.front.clone())
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
            .flat_map(|f| f.culprits.iter().cloned())
            .collect();
        assert!(hrs_culprits.contains("squid"), "{findings:?}");
        assert!(hrs_culprits.contains("haproxy"), "{findings:?}");
    }
}
