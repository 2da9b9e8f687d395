//! Single-implementation SR-assertion checking.
//!
//! "HDiff can test a single implementation by checking whether HMetrics
//! matches the assertion from SRs" (§VII) — no second implementation
//! needed. A test case translated from an SR carries assertions; this
//! module evaluates them against one product's behavior.

use std::collections::HashMap;
use std::fmt;
use std::num::NonZeroU16;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use hdiff_gen::{Assertion, TestCase};
use hdiff_servers::{interpret, Interpretation, Outcome, ParserProfile};
use hdiff_sr::{Modality, Role};

use crate::names::Name;
use crate::syntax::SyntaxOracle;
use crate::workflow::CaseOutcome;

/// One observed violation of an SR assertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrViolation {
    /// The implementation that violated the assertion.
    pub implementation: Name,
    /// The SR id.
    pub sr_id: Name,
    /// Requirement strength (SHOULD violations are advisory).
    pub modality: Modality,
    /// What the SR expected.
    pub expected: Expected,
    /// What was observed.
    pub observed: Observed,
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

/// What an SR assertion expected; `Display` renders the text reports
/// show.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// `status in [..]`: one of the assertion's allowed statuses, shared
    /// by the violations of one assertion.
    StatusIn(Arc<[u16]>),
    /// `message not forwarded`.
    NotForwarded,
    /// `error responses not cached`.
    ErrorsNotCached,
    /// `400 for a Host field-value outside the Host production`.
    HostRejected,
}

/// What an implementation did instead; `Display` renders the text
/// reports show.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Observed {
    /// `status {0}`.
    Status(u16),
    /// `message was forwarded`.
    Forwarded,
    /// `cache stores error responses`.
    CachesErrors,
    /// `accepted ({status}) despite invalid host {host:?}`, with the host
    /// value as (lossy) UTF-8, shared by every violation naming it.
    AcceptedInvalidHost {
        /// The status the implementation answered with.
        status: u16,
        /// The invalid Host field-value.
        host: Arc<str>,
    },
}

impl fmt::Display for Expected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expected::StatusIn(allowed) => write!(f, "status in {:?}", &allowed[..]),
            Expected::NotForwarded => f.write_str("message not forwarded"),
            Expected::ErrorsNotCached => f.write_str("error responses not cached"),
            Expected::HostRejected => {
                f.write_str("400 for a Host field-value outside the Host production")
            }
        }
    }
}

impl fmt::Display for Observed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Observed::Status(status) => write!(f, "status {status}"),
            Observed::Forwarded => f.write_str("message was forwarded"),
            Observed::CachesErrors => f.write_str("cache stores error responses"),
            Observed::AcceptedInvalidHost { status, host } => {
                write!(f, "accepted ({status}) despite invalid host {host:?}")
            }
        }
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

/// [`interpret`], with a parser that panics read as no interpretation.
/// SR checks run after the campaign, outside the per-case quarantine, so
/// a crash-prone profile contributes no violation instead of ending the
/// run.
fn interpret_guarded(profile: &ParserProfile, bytes: &[u8]) -> Option<Interpretation> {
    panic::catch_unwind(AssertUnwindSafe(|| interpret(profile, bytes))).ok()
}

/// Which of an engine's profiles accepted a case's first message, as the
/// campaign recorded it: bit `i` stands for profile `i`. The top bit marks
/// the set as known, so a set is never zero and `Option<AcceptSet>` takes
/// two bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptSet(NonZeroU16);

impl AcceptSet {
    /// How many profiles a set can describe.
    const CAPACITY: usize = 15;

    /// The set `outcome` recorded over `profiles`, read from each
    /// profile's [`CaseOutcome::recorded`] interpretation. `None` when a
    /// profile recorded none or there are more than 15 profiles.
    /// Interprets nothing.
    pub fn recorded(profiles: &[ParserProfile], outcome: &CaseOutcome) -> Option<AcceptSet> {
        if profiles.len() > Self::CAPACITY {
            return None;
        }
        let mut bits = 1u16 << Self::CAPACITY;
        for (i, profile) in profiles.iter().enumerate() {
            if outcome.recorded(&profile.name)?.outcome.is_accept() {
                bits |= 1 << i;
            }
        }
        NonZeroU16::new(bits).map(AcceptSet)
    }

    /// Whether profile `i` accepted.
    pub fn accepts(self, i: usize) -> bool {
        i < Self::CAPACITY && self.0.get() & (1 << i) != 0
    }
}

/// Checks one test case's assertions against one implementation.
pub fn check_assertions(profile: &ParserProfile, case: &TestCase) -> Vec<SrViolation> {
    let mut out = Vec::new();
    check_case(std::slice::from_ref(profile), case, &mut out);
    out
}

/// Checks `case`'s assertions against each of `profiles` in turn,
/// appending the violations to `out`. Each profile the assertions bind
/// interprets the request once; an assertion's allowed statuses are
/// copied once, for the first violation of it, and shared by the rest.
fn check_case(profiles: &[ParserProfile], case: &TestCase, out: &mut Vec<SrViolation>) {
    let bytes = case.request.to_bytes();
    let mut allowed: Vec<Option<Arc<[u16]>>> = vec![None; case.assertions.len()];
    for profile in profiles {
        let roles = roles_of(profile);
        let binds = |assertion: &Assertion| roles.iter().any(|r| assertion.role.applies_to(*r));
        if !case.assertions.iter().any(binds) {
            continue;
        }
        let Some(i) = interpret_guarded(profile, &bytes) else { continue };
        let status = i.outcome.status();
        let implementation = Name::intern(&profile.name);
        for (assertion, shared) in case.assertions.iter().zip(&mut allowed) {
            if !binds(assertion) {
                continue;
            }
            let violation = |expected, observed, code_mismatch_only| SrViolation {
                implementation,
                sr_id: Name::intern(&assertion.sr_id),
                modality: assertion.modality,
                expected,
                observed,
                code_mismatch_only,
            };

            // Status expectation.
            let statuses = &assertion.expect.allowed_status;
            if !statuses.is_empty() && !statuses.contains(&status) {
                let expected_error = statuses.iter().all(|c| *c >= 400);
                let code_mismatch_only = expected_error && status >= 400;
                let statuses = shared.get_or_insert_with(|| statuses.as_slice().into());
                out.push(violation(
                    Expected::StatusIn(Arc::clone(statuses)),
                    Observed::Status(status),
                    code_mismatch_only,
                ));
            }

            // Forwarding expectation (proxies only): a proxy forwards
            // exactly the messages it accepts.
            if assertion.expect.must_not_forward && profile.is_proxy() && i.outcome.is_accept() {
                out.push(violation(Expected::NotForwarded, Observed::Forwarded, false));
            }

            // Cache expectation (proxies only): the profile must not be
            // *willing* to store error responses for this request shape.
            if assertion.expect.must_not_cache && profile.is_proxy() {
                if let Some(b) = &profile.proxy {
                    if b.cache.enabled && b.cache.store_errors {
                        out.push(violation(
                            Expected::ErrorsNotCached,
                            Observed::CachesErrors,
                            false,
                        ));
                    }
                }
            }
        }
    }
}

/// Grammar-conformance checking against the adapted `Host` production.
///
/// RFC 7230 §5.4: a server MUST respond 400 to a request whose Host
/// field-value is invalid. The oracle's compiled matcher supplies the
/// "invalid" verdict; any implementation that *accepts* such a request
/// violates the requirement. Requests without a Host header, with a
/// syntactically valid one, or where the oracle has no verdict produce
/// nothing. Every invalid-Host case is interpreted under each profile;
/// a campaign's summary reads instead the accept sets its records hold
/// ([`crate::DiffEngine::summarize_records`]).
pub fn check_host_conformance(
    oracle: &SyntaxOracle,
    profiles: &[ParserProfile],
    cases: &[TestCase],
) -> Vec<SrViolation> {
    host_conformance(oracle, profiles, cases, &[])
}

/// [`check_host_conformance`], reading which profiles accepted
/// `cases[i]` from `recorded[i]` when the campaign recorded that, and
/// interpreting the case under every profile otherwise (a `None` entry,
/// or none at all). Each distinct Host value is judged once, and its
/// text allocated once for every violation that names it.
pub(crate) fn host_conformance(
    oracle: &SyntaxOracle,
    profiles: &[ParserProfile],
    cases: &[TestCase],
    recorded: &[Option<AcceptSet>],
) -> Vec<SrViolation> {
    let sr_id = Name::intern("rfc7230:host-abnf");
    let names: Vec<Name> = profiles.iter().map(|p| Name::intern(&p.name)).collect();
    // Host value → its text when the value is invalid.
    let mut judged: HashMap<&[u8], Option<Arc<str>>> = HashMap::new();
    let mut out = Vec::new();
    for (at, case) in cases.iter().enumerate() {
        let Some(host) = case.request.host() else { continue };
        let invalid = judged.entry(host).or_insert_with(|| {
            let invalid = oracle.conforms("Host", host) == Some(false);
            invalid.then(|| String::from_utf8_lossy(host).into())
        });
        let Some(host) = invalid else { continue };
        let set = recorded.get(at).copied().flatten();
        let mut bytes = None;
        for (i, (profile, &implementation)) in profiles.iter().zip(&names).enumerate() {
            let accepted = match set {
                Some(set) => set.accepts(i),
                None => {
                    let bytes = bytes.get_or_insert_with(|| case.request.to_bytes());
                    interpret_guarded(profile, bytes).is_some_and(|r| r.outcome.is_accept())
                }
            };
            if !accepted {
                continue;
            }
            out.push(SrViolation {
                implementation,
                sr_id,
                modality: Modality::Must,
                expected: Expected::HostRejected,
                observed: Observed::AcceptedInvalidHost {
                    status: Outcome::Accept.status(),
                    host: Arc::clone(host),
                },
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
        if !case.assertions.is_empty() {
            check_case(profiles, case, &mut out);
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
        assert_eq!(iis[0].observed, Observed::Status(200));

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
        assert_eq!(v[0].observed.to_string(), "cache stores error responses");
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
    fn a_proxy_forwards_exactly_the_messages_it_accepts() {
        // What lets the must-not-forward check read the interpretation
        // instead of forwarding.
        for entry in hdiff_gen::catalog::catalog() {
            for (request, note) in &entry.requests {
                let bytes = request.to_bytes();
                for profile in hdiff_servers::proxies() {
                    let accepted = interpret(&profile, &bytes).outcome.is_accept();
                    let proxy = hdiff_servers::Proxy::new(profile.clone());
                    let forwarded = proxy.forward(&bytes).action.forwarded().is_some();
                    assert_eq!(forwarded, accepted, "{} on {} ({note})", profile.name, entry.id);
                }
            }
        }
    }

    #[test]
    fn a_panicking_parser_contributes_no_violation() {
        let mut crashd = ParserProfile::strict("crashd");
        crashd.always_panic = true;
        let mut b = Request::builder();
        b.header("Host", "h1.com, h2.com");
        let case = sr_case(b.build(), Role::Recipient, RoleAction::Respond(400));
        assert!(check_assertions(&crashd, &case).is_empty());

        // Without a recorded accept set every profile is interpreted; the
        // panicking one drops out and the others still report.
        let grammar = hdiff_analyzer::DocumentAnalyzer::with_default_inputs()
            .analyze(&hdiff_corpus::core_documents())
            .grammar;
        let oracle = crate::syntax::SyntaxOracle::new(&grammar);
        let mut profiles = hdiff_servers::products();
        let reference = check_host_conformance(&oracle, &profiles, std::slice::from_ref(&case));
        assert!(!reference.is_empty());
        profiles.insert(0, crashd);
        let with_crashd = check_host_conformance(&oracle, &profiles, &[case]);
        assert_eq!(with_crashd, reference);
    }

    #[test]
    fn host_conformance_reads_a_recorded_set_instead_of_interpreting() {
        let grammar = hdiff_analyzer::DocumentAnalyzer::with_default_inputs()
            .analyze(&hdiff_corpus::core_documents())
            .grammar;
        let oracle = crate::syntax::SyntaxOracle::new(&grammar);
        let products = hdiff_servers::products();
        let mut b = Request::builder();
        b.header("Host", "h1.com, h2.com");
        let case = TestCase::generated(1, b.build(), "comma-joined hosts");
        let outcome = crate::workflow::Workflow::standard().run_case(&case);
        let set = AcceptSet::recorded(&products, &outcome).expect("every product recorded one");
        let cases = std::slice::from_ref(&case);
        let recorded = host_conformance(&oracle, &products, cases, &[Some(set)]);
        assert!(!recorded.is_empty());
        assert_eq!(recorded, check_host_conformance(&oracle, &products, cases));

        // A set stands for what the campaign saw: a known set naming no
        // accepting profile yields no violation.
        let none = AcceptSet(NonZeroU16::new(1 << AcceptSet::CAPACITY).unwrap());
        assert!(host_conformance(&oracle, &products, cases, &[Some(none)]).is_empty());
        // An outcome that recorded nothing has no set.
        let mut silenced = outcome;
        silenced.direct.clear();
        silenced.chains.clear();
        assert_eq!(AcceptSet::recorded(&products, &silenced), None);
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
