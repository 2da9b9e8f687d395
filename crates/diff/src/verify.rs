//! Exploit verification — the paper's final step: "we further run these
//! potential exploits to complete verification in a real environment"
//! (§III-D *Detecting Bugs*, §IV-B).
//!
//! Detection works over the three-step workflow's logs; verification
//! re-drives each candidate exploit through the *specific* chain it names
//! and checks the end-to-end consequence:
//!
//! * **HoT** — the proxy and the back-end must both accept and resolve
//!   different hosts on a fresh chain run.
//! * **HRS** — the back-end must actually desynchronize on the bytes the
//!   proxy forwards (different message count or boundary), or reject
//!   framing the proxy accepted.
//! * **CPDoS** — the full poisoning loop must close: attack request →
//!   error response stored → an *innocent* request for the same resource
//!   is served the cached error.

use hdiff_gen::{AttackClass, TestCase};
use hdiff_servers::cache::CacheKey;
use hdiff_servers::{ForwardAction, ParserProfile, Proxy, Server};
use hdiff_wire::Request;

use crate::baseline::{baseline_profile, deviations};
use crate::findings::Finding;

/// A finding plus its verification outcome.
#[derive(Debug, Clone)]
pub struct VerifiedFinding {
    /// The original finding.
    pub finding: Finding,
    /// Whether the exploit re-ran successfully.
    pub confirmed: bool,
    /// What the verification observed.
    pub detail: String,
}

/// Verifies one finding against its test case.
pub fn verify_finding(
    profiles: &[ParserProfile],
    finding: &Finding,
    case: &TestCase,
) -> VerifiedFinding {
    let bytes = case.request.to_bytes();
    let lookup = |name: &str| profiles.iter().find(|p| p.name == name).cloned();

    let (confirmed, detail) = match (finding.class, finding.pair()) {
        (AttackClass::Hot, Some((front, back))) => verify_hot(lookup(front), lookup(back), &bytes),
        (AttackClass::Hrs, Some((front, back))) => verify_hrs(lookup(front), lookup(back), &bytes),
        (AttackClass::Cpdos, Some((front, back))) => {
            verify_cpdos(lookup(front), lookup(back), &bytes)
        }
        // Single-implementation findings: re-derive the deviation.
        (_, None) => {
            let name = finding.culprits.iter().next().map_or("", |n| n.as_str());
            match lookup(name) {
                Some(profile) => {
                    let b = hdiff_servers::interpret(&baseline_profile(), &bytes);
                    let i = hdiff_servers::interpret(&profile, &bytes);
                    let devs = deviations(&i, &b, &bytes);
                    let hit = devs.iter().any(|d| d.class == finding.class);
                    (
                        hit,
                        if hit {
                            format!("{name} still deviates from the baseline")
                        } else {
                            format!("{name} no longer deviates")
                        },
                    )
                }
                None => (false, format!("unknown implementation {name}")),
            }
        }
    };

    VerifiedFinding { finding: finding.clone(), confirmed, detail }
}

fn verify_hot(
    front: Option<ParserProfile>,
    back: Option<ParserProfile>,
    bytes: &[u8],
) -> (bool, String) {
    let (Some(front), Some(back)) = (front, back) else {
        return (false, "pair profiles unavailable".into());
    };
    let proxy = Proxy::new(front);
    let result = proxy.forward(bytes);
    let Some(forwarded) = result.action.forwarded() else {
        return (false, "front no longer forwards".into());
    };
    let reply = Server::new(back).handle(forwarded);
    if !result.interpretation.outcome.is_accept() || !reply.interpretation.outcome.is_accept() {
        return (false, "one side rejects on re-run".into());
    }
    if result.interpretation.host == reply.interpretation.host {
        return (false, "host views agree on re-run".into());
    }
    (
        true,
        format!(
            "front routes {:?}, origin serves {:?}",
            String::from_utf8_lossy(result.interpretation.host.as_deref().unwrap_or(b"-")),
            String::from_utf8_lossy(reply.interpretation.host.as_deref().unwrap_or(b"-")),
        ),
    )
}

fn verify_hrs(
    front: Option<ParserProfile>,
    back: Option<ParserProfile>,
    bytes: &[u8],
) -> (bool, String) {
    let (Some(front), Some(back)) = (front, back) else {
        return (false, "pair profiles unavailable".into());
    };
    let proxy = Proxy::new(front);
    let results = proxy.forward_stream(bytes);
    let mut forwarded = Vec::new();
    let mut lens = Vec::new();
    for r in &results {
        if let ForwardAction::Forwarded(f) = &r.action {
            forwarded.extend_from_slice(f);
            lens.push(f.len());
        }
    }
    if lens.is_empty() {
        return (false, "front no longer forwards".into());
    }
    let replies = Server::new(back).handle_stream(&forwarded);
    if replies.len() != lens.len() {
        return (
            true,
            format!("desync confirmed: {} forwarded, {} parsed", lens.len(), replies.len()),
        );
    }
    if let Some(first) = replies.first() {
        if first.interpretation.outcome.is_accept() && first.interpretation.consumed != lens[0] {
            return (
                true,
                format!(
                    "boundary gap confirmed: {} vs {} bytes",
                    lens[0], first.interpretation.consumed
                ),
            );
        }
        if !first.interpretation.outcome.is_accept() {
            return (true, "origin rejects what the front accepted".into());
        }
    }
    (false, "no desync on re-run".into())
}

fn verify_cpdos(
    front: Option<ParserProfile>,
    back: Option<ParserProfile>,
    bytes: &[u8],
) -> (bool, String) {
    let (Some(front), Some(back)) = (front, back) else {
        return (false, "pair profiles unavailable".into());
    };
    let mut proxy = Proxy::new(front.clone());
    let result = proxy.forward(bytes);
    let Some(forwarded) = result.action.forwarded().map(<[u8]>::to_vec) else {
        return (false, "front no longer forwards".into());
    };
    let reply = Server::new(back).handle(&forwarded);
    if !reply.response.status.is_error() {
        return (false, "origin no longer errors".into());
    }
    let key = CacheKey::new(
        result.interpretation.host.clone().unwrap_or_default(),
        result.interpretation.target.clone(),
    );
    let decision = proxy.cache.store(
        key,
        &result.interpretation.method,
        &result.interpretation.version,
        &reply.response,
    );
    if decision != hdiff_servers::cache::StoreDecision::Stored {
        return (false, format!("cache declined the error ({decision:?})"));
    }
    // The poisoning loop: an innocent request for the same resource must
    // hit the stored error.
    let victim_host = result.interpretation.host.clone().unwrap_or_default();
    let mut innocent = Request::get(&String::from_utf8_lossy(&victim_host));
    innocent.set_target(&result.interpretation.target);
    let innocent_interp = hdiff_servers::interpret(&front, &innocent.to_bytes());
    let innocent_key = CacheKey::new(
        innocent_interp.host.clone().unwrap_or(victim_host),
        innocent_interp.target.clone(),
    );
    match proxy.cache.lookup(&innocent_key) {
        Some(poisoned) if poisoned.status.is_error() => (
            true,
            format!("innocent request served cached {} — denial of service", poisoned.status),
        ),
        _ => (false, "innocent request misses the poisoned entry".into()),
    }
}

/// Verifies a batch of findings; returns every verification record.
pub fn verify_all(
    profiles: &[ParserProfile],
    findings: &[Finding],
    cases: &[TestCase],
) -> Vec<VerifiedFinding> {
    findings
        .iter()
        .filter_map(|f| {
            cases.iter().find(|c| c.uuid == f.uuid).map(|c| verify_finding(profiles, f, c))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::detect_case;
    use crate::workflow::Workflow;
    use hdiff_servers::products;
    use hdiff_wire::{Method, Version};

    fn findings_for(req: Request) -> (Vec<Finding>, TestCase) {
        let case = TestCase::generated(1, req, "verify-test");
        let outcome = Workflow::standard().run_case(&case);
        (detect_case(&products(), &outcome), case)
    }

    #[test]
    fn hot_pair_findings_confirm() {
        let mut b = Request::builder();
        b.method(Method::Get)
            .target("test://h2.com/?a=1")
            .version(Version::Http11)
            .header("Host", "h1.com");
        let (findings, case) = findings_for(b.build());
        let hot: Vec<_> =
            findings.iter().filter(|f| f.class == AttackClass::Hot && f.is_pair()).collect();
        assert!(!hot.is_empty());
        for f in hot {
            let v = verify_finding(&products(), f, &case);
            assert!(v.confirmed, "{f}: {}", v.detail);
        }
    }

    #[test]
    fn cpdos_findings_confirm_the_full_poisoning_loop() {
        let mut req = Request::get("victim.com");
        req.set_version(b"1.1/HTTP");
        let (findings, case) = findings_for(req);
        let cpdos: Vec<_> = findings.iter().filter(|f| f.class == AttackClass::Cpdos).collect();
        assert!(!cpdos.is_empty());
        let mut confirmed_pairs = 0;
        for f in &cpdos {
            let v = verify_finding(&products(), f, &case);
            if v.confirmed && f.is_pair() {
                confirmed_pairs += 1;
                assert!(v.detail.contains("denial of service"), "{}", v.detail);
            }
        }
        assert!(confirmed_pairs > 0, "no CPDoS pair finding survived verification");
    }

    #[test]
    fn hrs_findings_confirm() {
        let mut b = Request::builder();
        b.method(Method::Post)
            .target("/")
            .version(Version::Http11)
            .header("Host", "h1.com")
            .header_raw(b"Transfer-Encoding : chunked".to_vec())
            .body(hdiff_wire::encode_chunked(b"smuggl"));
        let (findings, case) = findings_for(b.build());
        let verified = verify_all(&products(), &findings, std::slice::from_ref(&case));
        assert!(!verified.is_empty());
        assert!(
            verified.iter().any(|v| v.finding.class == AttackClass::Hrs && v.confirmed),
            "{verified:?}"
        );
    }

    #[test]
    fn clean_pair_does_not_confirm() {
        // Fabricate a finding on a clean request: verification must refute.
        let case = TestCase::generated(1, Request::get("h1.com"), "clean");
        let fake = Finding {
            class: AttackClass::Hot,
            uuid: 1,
            origin: "fake".into(),
            front: Some("varnish".into()),
            back: Some("iis".into()),
            culprits: Default::default(),
            evidence: "fabricated".into(),
        };
        let v = verify_finding(&products(), &fake, &case);
        assert!(!v.confirmed, "{}", v.detail);
    }
}
