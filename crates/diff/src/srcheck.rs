//! Single-implementation SR-assertion checking.
//!
//! "HDiff can test a single implementation by checking whether HMetrics
//! matches the assertion from SRs" (§VII) — no second implementation
//! needed. A test case translated from an SR carries assertions; this
//! module evaluates them against one product's behavior.

use hdiff_gen::{Assertion, TestCase};
use hdiff_servers::{interpret, ParserProfile, Proxy};
use hdiff_sr::{Modality, Role};

use crate::syntax::SyntaxOracle;

/// One observed violation of an SR assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrViolation {
    /// The implementation that violated the assertion.
    pub implementation: String,
    /// The SR id.
    pub sr_id: String,
    /// Requirement strength (SHOULD violations are advisory).
    pub modality: Modality,
    /// What the SR expected.
    pub expected: String,
    /// What was observed.
    pub observed: String,
    /// True when the implementation rejected the message but with a
    /// different error code than the SR names (414 vs 431, …) — a
    /// code-level nit rather than a semantic violation.
    pub code_mismatch_only: bool,
}

impl SrViolation {
    /// Whether this violates a MUST-level requirement semantically
    /// (wrong-error-code-only mismatches are advisory).
    pub fn is_mandatory(&self) -> bool {
        self.modality.is_mandatory() && !self.code_mismatch_only
    }
}

/// The roles a profile plays in the testbed.
fn roles_of(profile: &ParserProfile) -> Vec<Role> {
    let mut roles = vec![Role::Sender, Role::Recipient];
    if profile.server_mode {
        roles.push(Role::Server);
        roles.push(Role::OriginServer);
    }
    if profile.is_proxy() {
        roles.push(Role::Proxy);
        roles.push(Role::Intermediary);
        roles.push(Role::Cache);
    }
    roles
}

fn assertion_binds(assertion: &Assertion, profile: &ParserProfile) -> bool {
    roles_of(profile).into_iter().any(|r| assertion.role.applies_to(r))
}

/// Checks one test case's assertions against one implementation.
pub fn check_assertions(profile: &ParserProfile, case: &TestCase) -> Vec<SrViolation> {
    let bytes = case.request.to_bytes();
    let mut out = Vec::new();
    for assertion in &case.assertions {
        if !assertion_binds(assertion, profile) {
            continue;
        }
        let i = interpret(profile, &bytes);
        let status = i.outcome.status();

        // Status expectation.
        if !assertion.expect.allowed_status.is_empty()
            && !assertion.expect.allowed_status.contains(&status)
        {
            let expected_error = assertion.expect.allowed_status.iter().all(|c| *c >= 400);
            let code_mismatch_only = expected_error && status >= 400;
            out.push(SrViolation {
                implementation: profile.name.clone(),
                sr_id: assertion.sr_id.clone(),
                modality: assertion.modality,
                expected: format!("status in {:?}", assertion.expect.allowed_status),
                observed: format!("status {status}"),
                code_mismatch_only,
            });
        }

        // Forwarding expectation (proxies only).
        if assertion.expect.must_not_forward && profile.is_proxy() {
            let proxy = Proxy::new(profile.clone());
            let r = proxy.forward(&bytes);
            if r.action.forwarded().is_some() {
                out.push(SrViolation {
                    implementation: profile.name.clone(),
                    sr_id: assertion.sr_id.clone(),
                    modality: assertion.modality,
                    expected: "message not forwarded".to_string(),
                    observed: "message was forwarded".to_string(),
                    code_mismatch_only: false,
                });
            }
        }

        // Cache expectation (proxies only): the profile must not be
        // *willing* to store error responses for this request shape.
        if assertion.expect.must_not_cache && profile.is_proxy() {
            if let Some(b) = &profile.proxy {
                if b.cache.enabled && b.cache.store_errors {
                    out.push(SrViolation {
                        implementation: profile.name.clone(),
                        sr_id: assertion.sr_id.clone(),
                        modality: assertion.modality,
                        expected: "error responses not cached".to_string(),
                        observed: "cache stores error responses".to_string(),
                        code_mismatch_only: false,
                    });
                }
            }
        }
    }
    out
}

/// Grammar-conformance checking against the adapted `Host` production.
///
/// RFC 7230 §5.4: a server MUST respond 400 to a request whose Host
/// field-value is invalid. The oracle's compiled matcher supplies the
/// "invalid" verdict; any implementation that *accepts* such a request
/// violates the requirement. Requests without a Host header, with a
/// syntactically valid one, or where the oracle has no verdict produce
/// nothing.
pub fn check_host_conformance(
    oracle: &SyntaxOracle,
    profiles: &[ParserProfile],
    cases: &[TestCase],
) -> Vec<SrViolation> {
    let mut out = Vec::new();
    for case in cases {
        let Some(host) = case.request.host() else { continue };
        if oracle.conforms("Host", host) != Some(false) {
            continue;
        }
        let bytes = case.request.to_bytes();
        for profile in profiles {
            let i = interpret(profile, &bytes);
            if !i.outcome.is_accept() {
                continue;
            }
            out.push(SrViolation {
                implementation: profile.name.clone(),
                sr_id: "rfc7230:host-abnf".to_string(),
                modality: Modality::Must,
                expected: "400 for a Host field-value outside the Host production".to_string(),
                observed: format!(
                    "accepted ({}) despite invalid host {:?}",
                    i.outcome.status(),
                    String::from_utf8_lossy(host)
                ),
                code_mismatch_only: false,
            });
        }
    }
    out
}

/// Checks a batch of cases against a batch of implementations, returning
/// all violations (mandatory and advisory).
pub fn check_all(profiles: &[ParserProfile], cases: &[TestCase]) -> Vec<SrViolation> {
    let mut out = Vec::new();
    for case in cases {
        if case.assertions.is_empty() {
            continue;
        }
        for p in profiles {
            out.extend(check_assertions(p, case));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_gen::{Assertion, Origin, TestCase};
    use hdiff_servers::{product, ProductId};
    use hdiff_sr::{RoleAction, SemanticDefinitions};
    use hdiff_wire::Request;

    fn sr_case(request: Request, role: Role, action: RoleAction) -> TestCase {
        let defs = SemanticDefinitions::new();
        TestCase {
            uuid: 9,
            request,
            assertions: vec![Assertion {
                role,
                modality: Modality::Must,
                expect: defs.expectation(&action),
                sr_id: "rfc7230:sr000".into(),
            }],
            origin: Origin::Sr("rfc7230:sr000".into()),
            note: "test".into(),
        }
    }

    #[test]
    fn ws_colon_assertion_catches_iis_but_not_apache() {
        // SR: server MUST respond 400 to whitespace-before-colon.
        let mut b = Request::builder();
        b.header("Host", "h1.com").header_raw(b"X-Test : 1".to_vec());
        let case = sr_case(b.build(), Role::Server, RoleAction::Respond(400));

        let iis = check_assertions(&product(ProductId::Iis), &case);
        assert_eq!(iis.len(), 1, "{iis:?}");
        assert!(iis[0].is_mandatory());
        assert!(iis[0].observed.contains("200"));

        let apache = check_assertions(&product(ProductId::Apache), &case);
        assert!(apache.is_empty(), "{apache:?}");
    }

    #[test]
    fn role_binding_filters_servers_vs_proxies() {
        let case = sr_case(Request::get("h1.com"), Role::Cache, RoleAction::Respond(400));
        // A cache-role assertion does not bind a pure server.
        assert!(check_assertions(&product(ProductId::Iis), &case).is_empty());
        // It binds a proxy (which plays the cache role) — and the plain
        // request gets 200, violating the (artificial) 400 expectation.
        assert_eq!(check_assertions(&product(ProductId::Varnish), &case).len(), 1);
    }

    #[test]
    fn not_cache_expectation_flags_error_caching_proxies() {
        let case = sr_case(Request::get("h1.com"), Role::Cache, RoleAction::NotCache);
        let v = check_assertions(&product(ProductId::Varnish), &case);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].observed.contains("stores error"));
    }

    #[test]
    fn host_conformance_flags_accepting_implementations_only() {
        let grammar = hdiff_analyzer::DocumentAnalyzer::with_default_inputs()
            .analyze(&hdiff_corpus::core_documents())
            .grammar;
        let oracle = crate::syntax::SyntaxOracle::new(&grammar);
        let products = hdiff_servers::products();

        let mut b = Request::builder();
        b.header("Host", "h1.com, h2.com");
        let invalid = TestCase::generated(1, b.build(), "comma-joined hosts");
        let violations = check_host_conformance(&oracle, &products, &[invalid]);
        assert!(!violations.is_empty(), "some product accepts the comma-joined host");
        assert!(violations.iter().all(|v| v.is_mandatory()));
        assert!(violations.iter().all(|v| v.sr_id == "rfc7230:host-abnf"));

        let clean = TestCase::generated(2, Request::get("example.com"), "clean host");
        assert!(check_host_conformance(&oracle, &products, &[clean]).is_empty());
    }

    #[test]
    fn check_all_over_real_translated_srs_finds_violations() {
        let out = hdiff_analyzer::DocumentAnalyzer::with_default_inputs()
            .analyze(&hdiff_corpus::core_documents());
        let gen =
            hdiff_gen::AbnfGenerator::new(out.grammar.clone(), hdiff_gen::GenOptions::default());
        let mut tr = hdiff_gen::SrTranslator::new(gen);
        let cases = tr.translate_all(&out.requirements);
        let violations = check_all(&hdiff_servers::products(), &cases);
        assert!(
            violations.iter().any(|v| v.is_mandatory()),
            "expected at least one MUST violation across products"
        );
        // The strict baseline itself must not violate mandatory SRs about
        // message rejection.
        let apache: Vec<_> = violations
            .iter()
            .filter(|v| v.implementation == "apache" && v.is_mandatory())
            .collect();
        assert!(
            apache.len() < violations.iter().filter(|v| v.is_mandatory()).count(),
            "apache should be among the most conformant"
        );
    }
}
