//! The three-step test workflow of Fig. 6.
//!
//! * **Step 1** — the client sends each test case to every proxy, which
//!   forwards to the echo server; proxy logs and forwarded bytes are
//!   recorded. In-process the forwarded bytes are read straight from the
//!   proxy's results, so no echo server runs.
//! * **Step 2** — forwarded bytes are replayed against every back-end
//!   (replay reduction: only proxy-accepted, ambiguous messages are
//!   replayed), simulating all proxy×back-end chains without deploying
//!   them pairwise.
//! * **Step 3** — the client also sends each case directly to every
//!   back-end to learn its own interpretation.
//!
//! After step 2 the proxy's cache policy decides whether it would store
//! the back-end response, so the CPDoS model can check storability.
//!
//! A [`Workflow`] builds its [`Server`] and [`Proxy`] models once, when it
//! is constructed, and reuses them for every case: neither keeps state
//! between cases (the storability check reads the cache policy and
//! never stores). DESIGN.md "How the sim chain allocates" lists what is
//! built once per workflow, once per case and once per message.
//!
//! [`Workflow::execute`] is the one place an h1 case is dispatched on its
//! [`Transport`], and both transports run the one case body here. The
//! body decides every fault, charges the step budget and builds the
//! [`CaseOutcome`] in Fig. 6 order; it reads each hop's raw result from
//! an executor ([`crate::transport`]'s `Hops`) that only runs hops and
//! applies the fault effects it is handed: in-process, the sim calls the
//! models one hop at a time, and `tcp-async` runs them on the loopback
//! testbed the workflow spawns at its first socket case and shares with
//! every later caller.

use std::sync::OnceLock;

use hdiff_gen::TestCase;
use hdiff_net::{AsyncTestbed, NetError};
use hdiff_servers::cache::StoreDecision;
use hdiff_servers::fault::{FaultEvent, FaultKind, FaultSession, FaultStage};
use hdiff_servers::response_path::{relay_response, RelayAction};
use hdiff_servers::{
    Interpretation, ParserProfile, Proxy, ProxyResult, Server, ServerReply, ORIGIN_HOP,
};

use crate::transport::{Hops, Transport};

/// Logical step budget of one case attempt, in every campaign, recording
/// and replay. Fixed, not a knob: replay bundles freeze digests recorded
/// under it, so a replay must run under the same budget.
pub const STEP_BUDGET: u64 = 4096;

/// One back-end's replies to a byte stream.
#[derive(Debug, Clone)]
pub struct ReplayRun {
    /// Back-end product name.
    pub backend: String,
    /// Replies, one per message the back-end parsed.
    pub replies: Vec<ServerReply>,
    /// Cache storage decision for the first reply (using the proxy's view
    /// as the key), plus whether the stored response was an error.
    pub cache_stored_error: bool,
}

/// How one proxy reacted to canonically damaged upstream bytes (the relay
/// probe run when an origin-side fault was injected). Two proxies given
/// the *same* damage that disagree here — one replaces with its own 502,
/// the other relays the damaged payload — degrade differently, which is
/// what the degradation detection pass compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReaction {
    /// The injected origin fault the probe models.
    pub fault: FaultKind,
    /// Whether the proxy discarded the upstream message and substituted
    /// its own response (RFC 7230 §3.2.4 style).
    pub replaced: bool,
    /// Status of the response the client would see, when parseable.
    pub status: Option<u16>,
    /// Total length of the bytes sent downstream.
    pub body_len: usize,
}

/// One proxy's processing of a test case.
#[derive(Debug, Clone)]
pub struct ChainRun {
    /// Proxy product name.
    pub proxy: String,
    /// Per-message proxy results (interpretation + action).
    pub proxy_results: Vec<ProxyResult>,
    /// Concatenated forwarded bytes (what travels downstream).
    pub forwarded: Vec<u8>,
    /// Number of messages the proxy forwarded.
    pub forwarded_count: usize,
    /// Length of each forwarded message (for desync comparison).
    pub forwarded_lens: Vec<usize>,
    /// Step-2 replays (empty when reduction skipped them).
    pub replays: Vec<ReplayRun>,
    /// Relay-probe reaction to the case's injected origin fault (`None`
    /// when no origin fault fired for this case).
    pub relay_reaction: Option<FaultReaction>,
}

/// The complete outcome of one test case.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Test-case id.
    pub uuid: u64,
    /// Origin string (sr:…/abnf/catalog:…).
    pub origin: String,
    /// The client bytes sent.
    pub bytes: Vec<u8>,
    /// Step-1 (+2) chain runs, one per proxy.
    pub chains: Vec<ChainRun>,
    /// Step-3 direct back-end runs.
    pub direct: Vec<(String, Vec<ServerReply>)>,
    /// Every fault the session injected while this case ran.
    pub fault_events: Vec<FaultEvent>,
    /// Whether the per-case step budget ran out mid-case.
    pub budget_exhausted: bool,
}

impl CaseOutcome {
    /// The interpretation the implementation `name` recorded of the
    /// case's first message: its first direct reply as a back-end, else
    /// its first result as a proxy. `None` when it recorded none: it is
    /// not in the testbed, or a fault silenced it before it parsed.
    pub fn recorded(&self, name: &str) -> Option<&Interpretation> {
        let direct = self.direct.iter().find(|(n, _)| n == name);
        direct.and_then(|(_, replies)| replies.first()).map(|r| &r.interpretation).or_else(|| {
            let chain = self.chains.iter().find(|c| c.proxy == name);
            chain.and_then(|c| c.proxy_results.first()).map(|r| &r.interpretation)
        })
    }
}

/// The workflow driver.
#[derive(Debug)]
pub struct Workflow {
    proxies: Vec<ParserProfile>,
    backends: Vec<ParserProfile>,
    /// `proxies` as runnable models, built once.
    pub(crate) sim_proxies: Vec<Proxy>,
    /// `backends` as runnable models, built once.
    pub(crate) sim_backends: Vec<Server>,
    /// Replay-reduction switch (on by default, like the paper).
    pub replay_reduction: bool,
    /// The loopback testbed serving every profile, spawned at the first
    /// `tcp-async` case; a spawn failure is kept and reported per case.
    testbed: OnceLock<Result<AsyncTestbed, NetError>>,
}

impl Workflow {
    /// Builds a workflow over proxy and back-end profiles.
    ///
    /// # Panics
    ///
    /// Panics if a proxy profile has no proxy behavior configured.
    pub fn new(proxies: Vec<ParserProfile>, backends: Vec<ParserProfile>) -> Workflow {
        let sim_proxies = proxies.iter().cloned().map(Proxy::new).collect();
        let sim_backends = backends.iter().cloned().map(Server::new).collect();
        Workflow {
            proxies,
            backends,
            sim_proxies,
            sim_backends,
            replay_reduction: true,
            testbed: OnceLock::new(),
        }
    }

    /// The standard Fig. 6 environment: six proxies, six back-ends.
    pub fn standard() -> Workflow {
        Workflow::new(hdiff_servers::proxies(), hdiff_servers::backends())
    }

    /// The proxies under test.
    pub fn proxies(&self) -> &[ParserProfile] {
        &self.proxies
    }

    /// The back-ends under test.
    pub fn backends(&self) -> &[ParserProfile] {
        &self.backends
    }

    /// Runs all three steps for one test case.
    pub fn run_case(&self, case: &TestCase) -> CaseOutcome {
        self.run_case_faulted(case, None)
    }

    /// [`Workflow::run_case`] under a fault session. The origin-side
    /// fault is decided once (under [`ORIGIN_HOP`]), so all back-ends and
    /// all proxy chains of the case experience the *same* damage; each
    /// proxy additionally runs a relay probe against the canonical
    /// damaged bytes for that fault so the degradation pass can compare
    /// their reactions.
    pub fn run_case_faulted(
        &self,
        case: &TestCase,
        faults: Option<&FaultSession<'_>>,
    ) -> CaseOutcome {
        self.run_steps(
            Hops::Sim(self),
            case.uuid,
            case.origin.to_string(),
            case.request.to_bytes(),
            faults,
        )
    }

    /// The raw-bytes workflow entry: runs all three steps over an exact
    /// client byte stream, bypassing [`hdiff_wire::Request`] re-rendering.
    /// This is what the minimizer and replay bundles drive — a shrunk or
    /// recorded case is just bytes, with no structured request behind it.
    pub fn run_bytes_faulted(
        &self,
        uuid: u64,
        origin: &str,
        bytes: &[u8],
        faults: Option<&FaultSession<'_>>,
    ) -> CaseOutcome {
        self.run_steps(Hops::Sim(self), uuid, origin.to_string(), bytes.to_vec(), faults)
    }

    /// Runs one case over `transport` under `faults`: the only dispatch
    /// of an h1 case on its transport. The case's origin and bytes move
    /// into the outcome, so the sim path copies neither. Fails only when
    /// the loopback testbed cannot be spawned; that failure is kept, and
    /// every later `tcp-async` case reports it again.
    pub fn execute(
        &self,
        transport: Transport,
        uuid: u64,
        origin: String,
        bytes: Vec<u8>,
        faults: &FaultSession<'_>,
    ) -> Result<CaseOutcome, NetError> {
        let hops = match transport {
            Transport::Sim => Hops::Sim(self),
            Transport::TcpAsync => Hops::wire(
                self.testbed
                    .get_or_init(|| AsyncTestbed::new(&self.backends, &self.proxies))
                    .as_ref()
                    .map_err(Clone::clone)?,
            ),
        };
        Ok(self.run_steps(hops, uuid, origin, bytes, Some(faults)))
    }

    /// The three steps over a case the outcome takes ownership of: the
    /// one case body of both transports. `hops` runs each hop and applies
    /// the fault effects it is handed; everything else happens here. The
    /// origin fault is decided once (under [`ORIGIN_HOP`]), so every
    /// back-end and every chain of the case sees the *same* damage, and
    /// each proxy's forward fault is peeked before its hop runs and
    /// recorded for each forwarded message the case keeps. One step is
    /// charged per reply and per proxy result, a hop's output is kept up
    /// to the first charge that fails, and a hop runs only while the
    /// budget has steps left; a stalled read exhausts it. Each proxy
    /// also runs a relay probe against the canonical damaged bytes of the
    /// origin fault, so the degradation pass can compare reactions.
    pub(crate) fn run_steps(
        &self,
        mut hops: Hops<'_>,
        uuid: u64,
        origin: String,
        bytes: Vec<u8>,
        faults: Option<&FaultSession<'_>>,
    ) -> CaseOutcome {
        let origin_fault =
            faults.and_then(|s| s.decide(ORIGIN_HOP, FaultStage::OriginRespond)).map(|d| d.kind);
        let forward_fault = |proxy: &str| faults.and_then(|s| s.peek(proxy, FaultStage::Forward));
        hops.start(&bytes, origin_fault, &forward_fault);
        if let (Some(session), Some(FaultKind::StallRead)) = (faults, origin_fault) {
            session.exhaust();
        }
        let has_steps = || !faults.is_some_and(FaultSession::exhausted);
        let charge = || faults.is_none_or(|s| s.charge(1));
        let probe_bytes = origin_fault.and_then(damaged_upstream_bytes);

        // Step 3: direct back-end interpretation.
        let mut direct = Vec::with_capacity(self.backends.len());
        for (i, backend) in self.backends.iter().enumerate() {
            let mut replies =
                if has_steps() { hops.direct(i, &bytes, origin_fault) } else { Vec::new() };
            replies.truncate(replies.iter().take_while(|_| charge()).count());
            direct.push((backend.name.clone(), replies));
        }

        // Steps 1 and 2 per proxy.
        let mut gate = ReplayGate::new(self.replay_reduction);
        let mut chains = Vec::with_capacity(self.proxies.len());
        for (i, proxy) in self.sim_proxies.iter().enumerate() {
            let name = &proxy.profile.name;
            let mut proxy_results =
                if has_steps() { hops.proxy(i, &bytes, forward_fault(name)) } else { Vec::new() };
            let mut kept = 0;
            for r in &proxy_results {
                if !charge() {
                    break;
                }
                if let (Some(session), Some(_)) = (faults, r.action.forwarded()) {
                    let decision = session.decide(name, FaultStage::Forward);
                    if decision.is_some_and(|d| d.kind == FaultKind::StallRead) {
                        session.exhaust();
                    }
                }
                kept += 1;
            }
            proxy_results.truncate(kept);
            let (forwarded, forwarded_lens) = forwarded_stream(&proxy_results);

            let mut replays = Vec::new();
            if gate.admits(&bytes, &proxy_results, forwarded_lens.len()) {
                if has_steps() {
                    hops.start_replay(&forwarded, origin_fault);
                }
                replays.reserve_exact(self.backends.len());
                for (j, backend) in self.backends.iter().enumerate() {
                    let mut replies = if has_steps() {
                        hops.replay(j, &forwarded, origin_fault)
                    } else {
                        Vec::new()
                    };
                    replies.truncate(replies.iter().take_while(|_| charge()).count());
                    // The proxy's cache decides on the first backend
                    // response under the proxy's own view of the request.
                    let cache_stored_error = simulate_cache(proxy, &proxy_results, &replies);
                    replays.push(ReplayRun {
                        backend: backend.name.clone(),
                        replies,
                        cache_stored_error,
                    });
                }
            }

            let relay_reaction = match (&origin_fault, &probe_bytes) {
                (Some(kind), Some(probe)) => Some(probe_relay(&proxy.profile, *kind, probe)),
                _ => None,
            };

            chains.push(ChainRun {
                proxy: name.clone(),
                proxy_results,
                forwarded,
                forwarded_count: forwarded_lens.len(),
                forwarded_lens,
                replays,
                relay_reaction,
            });
        }

        CaseOutcome {
            uuid,
            origin,
            bytes,
            chains,
            direct,
            fault_events: faults.map(|s| s.events()).unwrap_or_default(),
            budget_exhausted: faults.is_some_and(FaultSession::exhausted),
        }
    }
}

/// The replay-reduction decision of one case (§IV-A step 2). A proxy
/// chain replays to the back-ends when it forwarded something, the proxy
/// accepted at least one message, and either reduction is off or the
/// client bytes are ambiguous. The ambiguity verdict depends on the case
/// alone, so it is worked out the first time a chain needs it and reused
/// by every later chain.
struct ReplayGate {
    reduction: bool,
    ambiguous: Option<bool>,
}

impl ReplayGate {
    fn new(reduction: bool) -> ReplayGate {
        ReplayGate { reduction, ambiguous: None }
    }

    /// Whether the chain with these proxy results replays `bytes`.
    fn admits(
        &mut self,
        bytes: &[u8],
        proxy_results: &[ProxyResult],
        forwarded_count: usize,
    ) -> bool {
        forwarded_count > 0
            && proxy_results.iter().any(|r| r.interpretation.outcome.is_accept())
            && (!self.reduction || *self.ambiguous.get_or_insert_with(|| is_ambiguous(bytes)))
    }
}

/// What a proxy sent downstream: the forwarded messages concatenated,
/// and the length of each.
fn forwarded_stream(proxy_results: &[ProxyResult]) -> (Vec<u8>, Vec<usize>) {
    let messages = || proxy_results.iter().filter_map(|r| r.action.forwarded());
    let mut forwarded = Vec::with_capacity(messages().map(<[u8]>::len).sum());
    let mut lens = Vec::new();
    for message in messages() {
        forwarded.extend_from_slice(message);
        lens.push(message.len());
    }
    (forwarded, lens)
}

/// Canonical damaged upstream bytes for an origin-side fault — what a
/// proxy's response parser sees when the origin connection misbehaves
/// that way. Each payload is chosen to sit on a policy knob on which real
/// products diverge, so identical damage can draw divergent reactions:
///
/// * `ConnReset` — the tail of a folded header survives the reset
///   ([`hdiff_servers::profile::ObsFoldPolicy`]: 502 vs merge-and-relay).
/// * `TruncateResponse` — final chunk promises more bytes than arrived
///   (`truncate_short_final_chunk`: 502 vs relay-the-short-body).
/// * `GarbleForward` — a bit-flipped octet in a header name
///   ([`hdiff_servers::profile::NamePolicy`]: 502 / forward raw / strip).
/// * `Transient5xx` — a well-formed 503; every conformant proxy relays it
///   untouched (the uniform-reaction control).
/// * `StallRead` — no bytes ever arrive; nothing to probe with.
fn damaged_upstream_bytes(kind: FaultKind) -> Option<Vec<u8>> {
    match kind {
        FaultKind::ConnReset => Some(
            b"HTTP/1.1 200 OK\r\nX-Upstream-State: aborted\r\n retrying\r\nContent-Length: 4\r\n\r\nlost"
                .to_vec(),
        ),
        FaultKind::TruncateResponse => Some(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n20\r\nonly-half-arrived\r\n"
                .to_vec(),
        ),
        FaultKind::GarbleForward => {
            Some(b"HTTP/1.1 200 OK\r\nX-Ga\x02ble: hit\r\nContent-Length: 2\r\n\r\nok".to_vec())
        }
        FaultKind::Transient5xx => Some(
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 8\r\n\r\nupstream".to_vec(),
        ),
        FaultKind::StallRead => None,
    }
}

/// Runs the relay probe: `profile` relays the damaged bytes and the
/// reaction is summarized for pairwise comparison.
fn probe_relay(profile: &ParserProfile, fault: FaultKind, damaged: &[u8]) -> FaultReaction {
    match relay_response(profile, damaged) {
        RelayAction::Relayed(bytes) => FaultReaction {
            fault,
            replaced: false,
            status: hdiff_wire::parse_response(&bytes).ok().map(|r| r.status.as_u16()),
            body_len: bytes.len(),
        },
        RelayAction::Replaced(r) => FaultReaction {
            fault,
            replaced: true,
            status: Some(r.status.as_u16()),
            body_len: r.to_bytes().len(),
        },
    }
}

/// Whether the proxy would cache the back-end's first response and that
/// response is an error (the CPDoS precondition). Reads the storage
/// decision alone: the proxy's cache stays untouched.
fn simulate_cache(proxy: &Proxy, proxy_results: &[ProxyResult], replies: &[ServerReply]) -> bool {
    let (Some(first_proxy), Some(first_reply)) = (proxy_results.first(), replies.first()) else {
        return false;
    };
    let view = &first_proxy.interpretation;
    if !view.outcome.is_accept() {
        return false;
    }
    proxy.cache.decide(&view.method, &view.version, &first_reply.response) == StoreDecision::Stored
        && first_reply.response.status.is_error()
}

/// The replay-reduction ambiguity heuristic (§IV-A step 2): a request is
/// worth replaying when it carries any marker of semantic ambiguity.
/// Every marker is matched in any ASCII case, without a lowercased copy
/// of the request.
pub fn is_ambiguous(bytes: &[u8]) -> bool {
    let find =
        |needle: &[u8]| bytes.windows(needle.len()).position(|w| w.eq_ignore_ascii_case(needle));
    let count = |needle: &[u8]| {
        bytes.windows(needle.len()).filter(|w| w.eq_ignore_ascii_case(needle)).count()
    };
    let has = |needle: &[u8]| find(needle).is_some();

    // Duplicated or conflicting framing / host fields.
    if count(b"content-length") >= 2 || count(b"transfer-encoding") >= 2 || count(b"host:") >= 2 {
        return true;
    }
    if has(b"content-length") && has(b"transfer-encoding") {
        return true;
    }
    if has(b"transfer-encoding") || has(b"chunked") {
        return true;
    }
    // Special characters in the header section.
    let header_end = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap_or(bytes.len());
    let head = &bytes[..header_end];
    if head.iter().any(|&b| {
        b == 0 || b == 0x0b || (b < 0x20 && b != b'\r' && b != b'\n' && b != b'\t') || b >= 0x80
    }) {
        return true;
    }
    // Request-line anomalies.
    let line = &bytes[..hdiff_wire::ascii::find_crlf(bytes).unwrap_or(bytes.len())];
    let version_ok = line.len() >= 8 && line[line.len() - 8..].eq_ignore_ascii_case(b"http/1.1");
    if !version_ok || line.iter().filter(|&&b| b == b' ').count() != 2 {
        return true;
    }
    if has(b"://") {
        return true;
    }
    // Ambiguous Host spellings (userinfo, lists, path junk, spaces).
    if let Some(hpos) = find(b"host:") {
        let rest = &bytes[hpos + 5..];
        let value = &rest[..hdiff_wire::ascii::find_crlf(rest).unwrap_or(rest.len())];
        let spaces = value.iter().filter(|&&b| b == b' ').count();
        if value.iter().any(|&b| matches!(b, b',' | b'@' | b'/')) || spaces > 1 {
            return true;
        }
    }
    // Expect / Connection manipulation / obs-fold / body-on-GET.
    if has(b"expect") || has(b"connection:") {
        return true;
    }
    if head.windows(3).any(|w| w == b"\r\n " || w == b"\r\n\t") {
        return true;
    }
    if bytes.len() >= 3 && bytes[..3].eq_ignore_ascii_case(b"get") && header_end + 4 < bytes.len() {
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_gen::TestCase;
    use hdiff_wire::Request;

    fn case(req: Request) -> TestCase {
        TestCase::generated(1, req, "test")
    }

    #[test]
    fn plain_request_flows_through_every_chain() {
        let w = Workflow::standard();
        let outcome = w.run_case(&case(Request::get("example.com")));
        assert_eq!(outcome.chains.len(), 6);
        assert_eq!(outcome.direct.len(), 6);
        for chain in &outcome.chains {
            assert_eq!(chain.forwarded_count, 1, "{}", chain.proxy);
            // Plain request is unambiguous: replay reduction skips it.
            assert!(chain.replays.is_empty(), "{}", chain.proxy);
        }
    }

    #[test]
    fn ambiguity_heuristic() {
        assert!(!is_ambiguous(b"GET / HTTP/1.1\r\nHost: h1.com\r\n\r\n"));
        assert!(is_ambiguous(b"GET / HTTP/1.1\r\nHost: h1.com\r\nHost: h2.com\r\n\r\n"));
        assert!(is_ambiguous(
            b"POST / HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"
        ));
        assert!(is_ambiguous(b"GET / HTTP/1.0\r\nHost: h\r\n\r\n"));
        assert!(is_ambiguous(b"GET http://h2.com/ HTTP/1.1\r\nHost: h1.com\r\n\r\n"));
        assert!(is_ambiguous(b"GET / HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\n\r\n"));
        assert!(is_ambiguous(b"GET / HTTP/1.1\r\n\x0bHost: h\r\n\r\n"));
    }

    #[test]
    fn ambiguous_case_gets_replayed() {
        let w = Workflow::standard();
        let mut b = Request::builder();
        b.header("Host", "h1.com").header("Host", "h2.com");
        let outcome = w.run_case(&case(b.build()));
        // Varnish (multi-host First + transparent) forwards; its chain must
        // carry replays against all six backends.
        let varnish = outcome.chains.iter().find(|c| c.proxy == "varnish").unwrap();
        assert_eq!(varnish.replays.len(), 6);
        // Apache (strict) rejects at the proxy: no replay.
        let apache = outcome.chains.iter().find(|c| c.proxy == "apache").unwrap();
        assert!(apache.replays.is_empty());
    }

    #[test]
    fn exhaustive_mode_replays_everything_forwarded() {
        let mut w = Workflow::standard();
        w.replay_reduction = false;
        // A plain (unambiguous) request is still replayed when reduction
        // is off — quantifying what the heuristic saves.
        let outcome = w.run_case(&case(Request::get("example.com")));
        for chain in &outcome.chains {
            assert_eq!(chain.replays.len(), 6, "{}", chain.proxy);
        }
    }

    #[test]
    fn forwarded_lens_sum_to_forwarded_bytes() {
        let w = Workflow::standard();
        let mut b = Request::builder();
        b.header("Host", "h1.com").header("Host", "h2.com");
        let outcome = w.run_case(&case(b.build()));
        for chain in &outcome.chains {
            let total: usize = chain.forwarded_lens.iter().sum();
            assert_eq!(total, chain.forwarded.len(), "{}", chain.proxy);
            assert_eq!(chain.forwarded_lens.len(), chain.forwarded_count);
        }
    }

    #[test]
    fn cache_simulation_records_error_storage() {
        let w = Workflow::standard();
        // Nginx repairs the version, backends reject the repaired line,
        // nginx caches the error: CPDoS.
        let mut req = Request::get("h1.com");
        req.set_version(b"1.1/HTTP");
        let outcome = w.run_case(&case(req));
        let nginx = outcome.chains.iter().find(|c| c.proxy == "nginx").unwrap();
        assert!(!nginx.replays.is_empty());
        assert!(
            nginx.replays.iter().any(|r| r.cache_stored_error),
            "{:?}",
            nginx.replays.iter().map(|r| (&r.backend, r.cache_stored_error)).collect::<Vec<_>>()
        );
    }
}
