//! The wire transport: the Fig. 6 workflow executed over real sockets.
//!
//! [`run_bytes_tcp`] is a drop-in alternative to
//! [`Workflow::run_bytes_faulted`]: every behavioral profile is served by
//! an [`hdiff_net::NetServer`] on an ephemeral loopback port, each proxy
//! hop is an [`hdiff_net::NetProxy`] relaying to an
//! [`hdiff_net::NetEcho`], and the test case's bytes genuinely travel
//! through the kernel's TCP stack. The resulting [`CaseOutcome`] is built
//! from the servers' connection logs and mirrors the in-process outcome
//! field-for-field — fault bookkeeping included — so detection, replay
//! digests, and the run summary are transport-agnostic.
//!
//! # Synchronization
//!
//! The campaign client writes a case's bytes, half-closes (FIN), and
//! reads to EOF; every `hdiff-net` listener pushes its connection log
//! *before* closing its end. Client EOF therefore implies the log is
//! complete — no sleeps, no polling.
//!
//! # Fault mirroring
//!
//! [`hdiff_servers::fault::FaultSession`] is interior-mutable and owned by
//! the case thread, so the socket threads never see it. Instead:
//!
//! * the **origin** decision is made once on the case thread (recording
//!   the event exactly like the sim does) and its *effect* is passed to
//!   every backend listener as an [`hdiff_net::ServerFault`];
//! * each proxy's **forward** decision is [`FaultSession::peek`]ed (no
//!   event) and passed as data into [`hdiff_net::NetProxyConfig`]; after
//!   the wire run, [`FaultSession::decide`] is replayed for the kept
//!   forwarded messages so events and budget exhaustion land exactly
//!   where the sim puts them;
//! * step-budget charges are replayed on the case thread in the sim's
//!   order (direct backends, then per proxy: forwards, then replays), so
//!   `budget_exhausted` and retry behavior are identical.
//!
//! Beyond parity, the wire observes behavior the simulation cannot:
//! [`segmented_probe`] delivers a request in arbitrary TCP segments (or
//! cut short mid-body), and [`pipelined_desync_findings`] submits a
//! pipelined batch to every backend and flags response-attribution
//! disagreements — the on-the-wire symptom of request smuggling.

use std::time::Duration;

use hdiff_gen::{AttackClass, TestCase};
use hdiff_net::{
    compare_attribution, AsyncTestbed, ExchangeOutput, NetEcho, NetProxy, NetProxyConfig,
    NetServer, NetServerConfig, SendMode, ServerFault, WireClient,
};
use hdiff_servers::fault::{FaultKind, FaultSession, FaultStage};
use hdiff_servers::{ParserProfile, ServerReply, ORIGIN_HOP};

use crate::findings::Finding;
use crate::hmetrics::HMetrics;
use crate::workflow::{
    damaged_upstream_bytes, forwarded_stream, probe_relay, simulate_cache, CaseOutcome, ChainRun,
    ReplayGate, ReplayRun, Workflow,
};

/// How a campaign executes its cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// In-process simulation (the default): function calls, no sockets.
    #[default]
    Sim,
    /// Real loopback TCP, blocking: fresh listeners (threads) per case.
    Tcp,
    /// Real loopback TCP, multiplexed: every hop lives in one
    /// [`AsyncTestbed`] event loop; a case fans out to all views
    /// concurrently over pooled keep-alive connections.
    TcpAsync,
}

impl Transport {
    /// Stable name used by the CLI, config, and replay bundles.
    pub fn as_str(self) -> &'static str {
        match self {
            Transport::Sim => "sim",
            Transport::Tcp => "tcp",
            Transport::TcpAsync => "tcp-async",
        }
    }

    /// Parses [`Transport::as_str`] output.
    pub fn parse(s: &str) -> Option<Transport> {
        match s {
            "sim" => Some(Transport::Sim),
            "tcp" => Some(Transport::Tcp),
            "tcp-async" => Some(Transport::TcpAsync),
            _ => None,
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Read timeout for every listener and campaign client connection — the
/// shared testbed timeout ([`hdiff_net::io_timeout`], overridable via
/// `HDIFF_NET_TIMEOUT_MS`).
fn wire_timeout() -> Duration {
    hdiff_net::io_timeout()
}

/// Short client timeout used to *observe* an injected stall without
/// spending the full wire timeout on every stalled attempt; derived from
/// the shared timeout, not a second magic number.
fn stall_observe_timeout() -> Duration {
    hdiff_net::stall_observe_timeout()
}

/// [`Workflow::run_case_faulted`], over TCP.
pub fn run_case_tcp(
    workflow: &Workflow,
    case: &TestCase,
    faults: Option<&FaultSession<'_>>,
) -> CaseOutcome {
    run_bytes_tcp(workflow, case.uuid, &case.origin.to_string(), &case.request.to_bytes(), faults)
}

/// [`try_run_case_tcp`]'s checked sibling of [`run_case_tcp`]: a loopback
/// testbed failure (bind, accept-loop death, thread spawn) comes back as
/// a typed [`hdiff_net::NetError`] for the runner to record as a case
/// outcome instead of aborting the worker.
pub fn try_run_case_tcp(
    workflow: &Workflow,
    case: &TestCase,
    faults: Option<&FaultSession<'_>>,
) -> Result<CaseOutcome, hdiff_net::NetError> {
    try_run_bytes_tcp(
        workflow,
        case.uuid,
        &case.origin.to_string(),
        &case.request.to_bytes(),
        faults,
    )
}

/// [`Workflow::run_bytes_faulted`], over TCP. Panics on loopback socket
/// failure (bind/spawn); callers that must degrade instead use
/// [`try_run_bytes_tcp`].
pub fn run_bytes_tcp(
    workflow: &Workflow,
    uuid: u64,
    origin: &str,
    bytes: &[u8],
    faults: Option<&FaultSession<'_>>,
) -> CaseOutcome {
    try_run_bytes_tcp(workflow, uuid, origin, bytes, faults)
        .unwrap_or_else(|e| panic!("loopback testbed unavailable: {e}"))
}

/// [`run_bytes_tcp`] with loopback testbed failures surfaced as typed
/// errors instead of panics.
pub fn try_run_bytes_tcp(
    workflow: &Workflow,
    uuid: u64,
    origin: &str,
    bytes: &[u8],
    faults: Option<&FaultSession<'_>>,
) -> Result<CaseOutcome, hdiff_net::NetError> {
    let bytes = bytes.to_vec();
    let origin_fault =
        faults.and_then(|s| s.decide(ORIGIN_HOP, FaultStage::OriginRespond)).map(|d| d.kind);
    let probe_bytes = origin_fault.and_then(damaged_upstream_bytes);

    // Step 3: direct back-end interpretation, plus the listeners the
    // step-2 replays reuse (they carry the same origin-fault effect, just
    // as the sim re-decides the same fault on every backend call).
    let mut direct: Vec<(String, Vec<ServerReply>)> = Vec::new();
    let mut backend_nets: Vec<Option<NetServer>> = Vec::new();
    if origin_fault == Some(FaultKind::StallRead) {
        // Sim semantics: every backend exhausts the budget and produces
        // nothing. One real stalled exchange gives the wire observation —
        // a client-side read timeout — and the rest are skipped.
        if let Some(first) = workflow.backends().first() {
            let config =
                NetServerConfig { fault: Some(ServerFault::Stall), ..NetServerConfig::default() };
            if let Ok(server) = NetServer::spawn(first.clone(), config) {
                let mut client = WireClient::new(server.addr());
                client.read_timeout = stall_observe_timeout();
                let _ = client.exchange(&bytes, &SendMode::Whole);
            }
        }
        if let Some(session) = faults {
            session.exhaust();
        }
        for b in workflow.backends() {
            direct.push((b.name.clone(), Vec::new()));
            backend_nets.push(None);
        }
    } else {
        let server_fault = match origin_fault {
            Some(FaultKind::ConnReset) => Some(ServerFault::CloseNoReply),
            Some(FaultKind::Transient5xx) => Some(ServerFault::Substitute503),
            Some(FaultKind::TruncateResponse) => Some(ServerFault::TruncateBody),
            _ => None,
        };
        for b in workflow.backends() {
            let config = NetServerConfig { fault: server_fault, ..NetServerConfig::default() };
            let server = NetServer::spawn(b.clone(), config)?;
            let raw = roundtrip(&server, &bytes, &SendMode::Whole);
            let mut kept = Vec::new();
            for reply in raw {
                if let Some(session) = faults {
                    if !session.charge(1) {
                        break;
                    }
                }
                kept.push(reply);
            }
            direct.push((b.name.clone(), kept));
            backend_nets.push(Some(server));
        }
    }

    // Steps 1 and 2 per proxy.
    let mut gate = ReplayGate::new(workflow.replay_reduction);
    let mut chains = Vec::new();
    for (proxy_profile, proxy_sim) in workflow.proxies().iter().zip(workflow.sim_proxies()) {
        let decision = faults.and_then(|s| s.peek(&proxy_profile.name, FaultStage::Forward));
        let raw_results = if faults.is_some_and(FaultSession::exhausted) {
            Vec::new() // the sim's charge fails before the first message
        } else {
            let echo = NetEcho::spawn(wire_timeout())?;
            let config = NetProxyConfig { fault: decision, ..NetProxyConfig::new(echo.addr()) };
            let proxy = NetProxy::spawn(proxy_profile.clone(), config)?;
            let client = WireClient::new(proxy.addr());
            let _ = client.exchange(&bytes, &SendMode::Whole);
            proxy.take_logs().pop().map(|l| l.results).unwrap_or_default()
        };

        // Replay the sim's per-message bookkeeping over the wire results:
        // one budget charge per message, fault events recorded only for
        // messages that were actually forwarded.
        let mut proxy_results = Vec::new();
        for r in raw_results {
            if let Some(session) = faults {
                if !session.charge(1) {
                    break;
                }
            }
            if let (Some(session), Some(_)) = (faults, r.action.forwarded()) {
                if let Some(d) = session.decide(&proxy_profile.name, FaultStage::Forward) {
                    if d.kind == FaultKind::StallRead {
                        session.exhaust();
                    }
                }
            }
            proxy_results.push(r);
        }

        let (forwarded, forwarded_lens) = forwarded_stream(&proxy_results);

        let mut replays = Vec::new();
        if gate.admits(&bytes, &proxy_results, forwarded_lens.len()) {
            for (backend_profile, net) in workflow.backends().iter().zip(&backend_nets) {
                let raw = match (net, faults.is_some_and(FaultSession::exhausted)) {
                    (Some(server), false) => roundtrip(server, &forwarded, &SendMode::Whole),
                    _ => Vec::new(),
                };
                let mut replies = Vec::new();
                for reply in raw {
                    if let Some(session) = faults {
                        if !session.charge(1) {
                            break;
                        }
                    }
                    replies.push(reply);
                }
                let cache_stored_error = simulate_cache(proxy_sim, &proxy_results, &replies);
                replays.push(ReplayRun {
                    backend: backend_profile.name.clone(),
                    replies,
                    cache_stored_error,
                });
            }
        }

        let relay_reaction = match (&origin_fault, &probe_bytes) {
            (Some(kind), Some(probe)) => Some(probe_relay(proxy_profile, *kind, probe)),
            _ => None,
        };

        chains.push(ChainRun {
            proxy: proxy_profile.name.clone(),
            proxy_results,
            forwarded,
            forwarded_count: forwarded_lens.len(),
            forwarded_lens,
            replays,
            relay_reaction,
        });
    }

    Ok(CaseOutcome {
        uuid,
        origin: origin.to_string(),
        bytes,
        chains,
        direct,
        fault_events: faults.map(|s| s.events()).unwrap_or_default(),
        budget_exhausted: faults.is_some_and(FaultSession::exhausted),
    })
}

/// One campaign-style wire exchange against a backend listener: send per
/// `mode`, FIN, read to EOF, pop the (now guaranteed) connection log.
fn roundtrip(server: &NetServer, bytes: &[u8], mode: &SendMode) -> Vec<ServerReply> {
    let client = WireClient::new(server.addr());
    let started = std::time::Instant::now();
    let exchange = client.exchange(bytes, mode);
    let rtt = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    hdiff_obs::observe("net.exchange.rtt", rtt);
    if exchange.as_ref().is_ok_and(|e| e.timed_out) {
        hdiff_obs::count("net.exchange.timeout", 1);
    }
    server.take_logs().pop().map(|l| l.replies).unwrap_or_default()
}

/// [`run_case_tcp`] over the multiplexed transport: the case fans out to
/// every backend and proxy view of `testbed` concurrently.
pub fn run_case_tcp_async(
    workflow: &Workflow,
    case: &TestCase,
    faults: Option<&FaultSession<'_>>,
    testbed: &AsyncTestbed,
) -> CaseOutcome {
    run_bytes_tcp_async(
        workflow,
        case.uuid,
        &case.origin.to_string(),
        &case.request.to_bytes(),
        faults,
        testbed,
    )
}

/// [`try_run_bytes_tcp_async`] for a structured [`TestCase`].
pub fn try_run_case_tcp_async(
    workflow: &Workflow,
    case: &TestCase,
    faults: Option<&FaultSession<'_>>,
    testbed: &AsyncTestbed,
) -> Result<CaseOutcome, hdiff_net::NetError> {
    try_run_bytes_tcp_async(
        workflow,
        case.uuid,
        &case.origin.to_string(),
        &case.request.to_bytes(),
        faults,
        testbed,
    )
}

/// [`run_bytes_tcp`] over the multiplexed transport. Panics on testbed
/// failure; see [`try_run_bytes_tcp_async`].
pub fn run_bytes_tcp_async(
    workflow: &Workflow,
    uuid: u64,
    origin: &str,
    bytes: &[u8],
    faults: Option<&FaultSession<'_>>,
    testbed: &AsyncTestbed,
) -> CaseOutcome {
    try_run_bytes_tcp_async(workflow, uuid, origin, bytes, faults, testbed)
        .unwrap_or_else(|e| panic!("loopback testbed unavailable: {e}"))
}

/// One case over the multiplexed transport.
///
/// Fault-free cases (the overwhelming majority of a campaign) take the
/// fast path: one concurrent fan-out of the case's bytes to every
/// backend and proxy view over `testbed`'s pooled keep-alive
/// connections, then the sim's budget/event bookkeeping replayed
/// serially in the blocking path's exact order — wherever the blocking
/// path gates a wire operation on budget exhaustion, the pre-collected
/// result is discarded the same way, so the [`CaseOutcome`] is
/// field-for-field identical.
///
/// A case with any pending fault decision needs per-case listener
/// configuration, which the persistent testbed cannot provide; those
/// cases delegate to [`try_run_bytes_tcp`]. The delegation is decided by
/// [`FaultSession::peek`] (pure, no event recorded), so the blocking run
/// makes the identical decisions the sim would.
pub fn try_run_bytes_tcp_async(
    workflow: &Workflow,
    uuid: u64,
    origin: &str,
    bytes: &[u8],
    faults: Option<&FaultSession<'_>>,
    testbed: &AsyncTestbed,
) -> Result<CaseOutcome, hdiff_net::NetError> {
    let faulted = faults.is_some_and(|s| {
        s.peek(ORIGIN_HOP, FaultStage::OriginRespond).is_some()
            || workflow.proxies().iter().any(|p| s.peek(&p.name, FaultStage::Forward).is_some())
    });
    if faulted {
        return try_run_bytes_tcp(workflow, uuid, origin, bytes, faults);
    }
    let bytes = bytes.to_vec();
    // Parity with the blocking path's origin decision: no origin fault
    // pends (checked above), and `decide` records nothing when it
    // returns `None`.
    let origin_fault =
        faults.and_then(|s| s.decide(ORIGIN_HOP, FaultStage::OriginRespond)).map(|d| d.kind);
    debug_assert!(origin_fault.is_none());

    // Wave A: every backend and every proxy view observes the case's
    // bytes simultaneously.
    let backend_listeners = testbed.backends();
    let proxy_listeners = testbed.proxies();
    let mut jobs = Vec::with_capacity(backend_listeners.len() + proxy_listeners.len());
    for l in backend_listeners.iter().chain(proxy_listeners) {
        jobs.push(testbed.exchange_job(l, &bytes, SendMode::Whole));
    }
    let outs = testbed.run(jobs);
    let (backend_outs, proxy_outs) = outs.split_at(backend_listeners.len());

    // Serial bookkeeping in the blocking path's order: direct backends
    // first.
    let mut direct: Vec<(String, Vec<ServerReply>)> = Vec::new();
    for (b, out) in workflow.backends().iter().zip(backend_outs) {
        let ex = out.as_exchange();
        observe_async_exchange(ex);
        let raw =
            ex.and_then(|e| e.server_log.as_ref()).map(|l| l.replies.clone()).unwrap_or_default();
        let mut kept = Vec::new();
        for reply in raw {
            if let Some(session) = faults {
                if !session.charge(1) {
                    break;
                }
            }
            kept.push(reply);
        }
        direct.push((b.name.clone(), kept));
    }

    // Then per proxy: message charges, then replays.
    let mut gate = ReplayGate::new(workflow.replay_reduction);
    let mut chains = Vec::new();
    let proxies = workflow.proxies().iter().zip(workflow.sim_proxies());
    for ((proxy_profile, proxy_sim), out) in proxies.zip(proxy_outs) {
        let ex = out.as_exchange();
        observe_async_exchange(ex);
        let raw_results = if faults.is_some_and(FaultSession::exhausted) {
            Vec::new() // the sim's charge fails before the first message
        } else {
            ex.and_then(|e| e.proxy_log.as_ref()).map(|l| l.results.clone()).unwrap_or_default()
        };
        let mut proxy_results = Vec::new();
        for r in raw_results {
            if let Some(session) = faults {
                if !session.charge(1) {
                    break;
                }
            }
            if let (Some(session), Some(_)) = (faults, r.action.forwarded()) {
                if let Some(d) = session.decide(&proxy_profile.name, FaultStage::Forward) {
                    if d.kind == FaultKind::StallRead {
                        session.exhaust();
                    }
                }
            }
            proxy_results.push(r);
        }

        let (forwarded, forwarded_lens) = forwarded_stream(&proxy_results);

        let mut replays = Vec::new();
        if gate.admits(&bytes, &proxy_results, forwarded_lens.len()) {
            // Wave B for this proxy: the forwarded stream replays to
            // every backend concurrently. The blocking path gates each
            // backend's replay exchange on exhaustion; charges inside
            // this very loop can exhaust the budget, so the gate is
            // re-checked (and the collected result discarded) per
            // backend below.
            let replay_outs = if faults.is_some_and(FaultSession::exhausted) {
                None
            } else {
                let jobs = backend_listeners
                    .iter()
                    .map(|l| testbed.exchange_job(l, &forwarded, SendMode::Whole))
                    .collect();
                Some(testbed.run(jobs))
            };
            for (i, backend_profile) in workflow.backends().iter().enumerate() {
                let raw = match (&replay_outs, faults.is_some_and(FaultSession::exhausted)) {
                    (Some(outs), false) => {
                        let ex = outs.get(i).and_then(|o| o.as_exchange());
                        observe_async_exchange(ex);
                        ex.and_then(|e| e.server_log.as_ref())
                            .map(|l| l.replies.clone())
                            .unwrap_or_default()
                    }
                    _ => Vec::new(),
                };
                let mut replies = Vec::new();
                for reply in raw {
                    if let Some(session) = faults {
                        if !session.charge(1) {
                            break;
                        }
                    }
                    replies.push(reply);
                }
                let cache_stored_error = simulate_cache(proxy_sim, &proxy_results, &replies);
                replays.push(ReplayRun {
                    backend: backend_profile.name.clone(),
                    replies,
                    cache_stored_error,
                });
            }
        }

        chains.push(ChainRun {
            proxy: proxy_profile.name.clone(),
            proxy_results,
            forwarded,
            forwarded_count: forwarded_lens.len(),
            forwarded_lens,
            replays,
            relay_reaction: None, // an origin fault would have delegated
        });
    }

    Ok(CaseOutcome {
        uuid,
        origin: origin.to_string(),
        bytes,
        chains,
        direct,
        fault_events: faults.map(|s| s.events()).unwrap_or_default(),
        budget_exhausted: faults.is_some_and(FaultSession::exhausted),
    })
}

/// Campaign telemetry for one multiplexed exchange, emitted from the
/// case thread (the event loop itself records nothing): the RTT/timeout
/// observations [`roundtrip`] makes, plus the pool counters the
/// blocking [`hdiff_net::ConnPool`] emits.
fn observe_async_exchange(ex: Option<&ExchangeOutput>) {
    let Some(e) = ex else { return };
    hdiff_obs::observe("net.exchange.rtt", e.rtt_ns);
    if e.timed_out {
        hdiff_obs::count("net.exchange.timeout", 1);
    }
    if e.reused {
        hdiff_obs::count("net.pool.hit", 1);
    } else {
        hdiff_obs::count("net.pool.miss", 1);
        hdiff_obs::count("net.conn.open", 1);
    }
    if e.retried {
        hdiff_obs::count("net.pool.evict", 1);
        hdiff_obs::count("net.conn.open", 1);
    }
}

/// Runs one case over both transports and reports any divergence as a
/// finding: the two executions must yield the same behavior digests and
/// the same detector verdicts. A divergence means a bug in one transport
/// (or genuinely transport-dependent behavior) — either way worth a
/// first-class report, never a silent pass.
pub fn consistency_findings(
    workflow: &Workflow,
    profiles: &[ParserProfile],
    uuid: u64,
    origin: &str,
    bytes: &[u8],
) -> Vec<Finding> {
    let sim = workflow.run_bytes_faulted(uuid, origin, bytes, None);
    let tcp = run_bytes_tcp(workflow, uuid, origin, bytes, None);
    outcome_divergences(profiles, uuid, origin, &sim, "tcp", &tcp)
}

/// [`consistency_findings`] extended to the multiplexed transport: the
/// same case runs over sim, blocking TCP, *and* `testbed`, and every
/// wire execution must match the sim baseline.
pub fn consistency_findings_async(
    workflow: &Workflow,
    profiles: &[ParserProfile],
    uuid: u64,
    origin: &str,
    bytes: &[u8],
    testbed: &AsyncTestbed,
) -> Vec<Finding> {
    let sim = workflow.run_bytes_faulted(uuid, origin, bytes, None);
    let tcp = run_bytes_tcp(workflow, uuid, origin, bytes, None);
    let tcp_async = run_bytes_tcp_async(workflow, uuid, origin, bytes, None, testbed);
    let mut out = outcome_divergences(profiles, uuid, origin, &sim, "tcp", &tcp);
    out.extend(outcome_divergences(profiles, uuid, origin, &sim, "tcp-async", &tcp_async));
    out
}

/// Compares one wire execution against the sim baseline: behavior
/// digests and detector verdicts must both match.
fn outcome_divergences(
    profiles: &[ParserProfile],
    uuid: u64,
    origin: &str,
    sim: &CaseOutcome,
    wire_label: &str,
    wire: &CaseOutcome,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let sim_digests = crate::replay::behavior_digests(sim);
    let wire_digests = crate::replay::behavior_digests(wire);
    for (label, expected) in &sim_digests {
        match wire_digests.iter().find(|(l, _)| l == label) {
            Some((_, got)) if got == expected => {}
            other => out.push(divergence(
                uuid,
                origin,
                label,
                &format!(
                    "behavior digest {label} diverges across transports: sim {expected:#018x}, {wire_label} {}",
                    other.map_or("<missing>".to_string(), |(_, g)| format!("{g:#018x}")),
                ),
            )),
        }
    }

    let sim_findings = crate::detect::detect_case(profiles, sim);
    let wire_findings = crate::detect::detect_case(profiles, wire);
    if sim_findings != wire_findings {
        out.push(divergence(
            uuid,
            origin,
            "findings",
            &format!(
                "detector verdicts diverge across transports: {} sim vs {} {wire_label} findings",
                sim_findings.len(),
                wire_findings.len()
            ),
        ));
    }
    out
}

fn divergence(uuid: u64, origin: &str, label: &str, evidence: &str) -> Finding {
    Finding {
        class: AttackClass::Hrs,
        uuid,
        origin: origin.to_string(),
        front: None,
        back: None,
        culprits: std::iter::once(format!("transport:{label}")).collect(),
        evidence: evidence.to_string(),
    }
}

/// Delivers `bytes` to every profile with the given wire shaping
/// (segmented at arbitrary offsets, or truncated mid-stream) and returns
/// each implementation's [`HMetrics`] view of the *first* message — the
/// partial-read behavior only a real socket can exercise.
pub fn segmented_probe(
    profiles: &[ParserProfile],
    uuid: u64,
    bytes: &[u8],
    mode: &SendMode,
) -> Vec<HMetrics> {
    let mut out = Vec::new();
    for profile in profiles {
        let name = profile.name.clone();
        let Ok(server) = NetServer::spawn(profile.clone(), NetServerConfig::default()) else {
            continue;
        };
        if let Some(reply) = roundtrip(&server, bytes, mode).into_iter().next() {
            out.push(HMetrics::from_interpretation(uuid, &name, &reply.interpretation));
        }
    }
    out
}

/// Submits `requests` as one pipelined batch to every profile and flags
/// every pair whose response attribution disagrees (count, or status at
/// any index) — the wire-level desync signal.
pub fn pipelined_desync_findings(
    profiles: &[ParserProfile],
    uuid: u64,
    origin: &str,
    requests: &[&[u8]],
) -> Vec<Finding> {
    let mut attributions = Vec::new();
    for profile in profiles {
        let name = profile.name.clone();
        let Ok(server) = NetServer::spawn(profile.clone(), NetServerConfig::default()) else {
            continue;
        };
        let client = WireClient::new(server.addr());
        if let Ok(batch) = client.pipelined(requests) {
            attributions.push((name, batch.attribution));
        }
    }

    let mut out = Vec::new();
    for i in 0..attributions.len() {
        for j in i + 1..attributions.len() {
            let (a_name, a) = &attributions[i];
            let (b_name, b) = &attributions[j];
            if let Some(signal) = compare_attribution(a_name, a, b_name, b) {
                out.push(Finding {
                    class: AttackClass::Hrs,
                    uuid,
                    origin: origin.to_string(),
                    front: None,
                    back: None,
                    culprits: [a_name.clone(), b_name.clone()].into_iter().collect(),
                    evidence: signal.describe(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_names_round_trip() {
        for t in [Transport::Sim, Transport::Tcp, Transport::TcpAsync] {
            assert_eq!(Transport::parse(t.as_str()), Some(t));
        }
        assert_eq!(Transport::parse("quic"), None);
        assert_eq!(Transport::default(), Transport::Sim);
        assert_eq!(Transport::Tcp.to_string(), "tcp");
        assert_eq!(Transport::TcpAsync.to_string(), "tcp-async");
    }

    #[test]
    fn fault_free_case_is_transport_consistent() {
        let workflow = Workflow::standard();
        let profiles = hdiff_servers::products();
        let bytes = b"GET / HTTP/1.1\r\nHost: h1.com\r\nHost: h2.com\r\n\r\n";
        let findings = consistency_findings(&workflow, &profiles, 7, "catalog:multi-host", bytes);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn fault_free_case_is_consistent_over_the_multiplexed_transport() {
        let workflow = Workflow::standard();
        let profiles = hdiff_servers::products();
        let testbed = AsyncTestbed::new(workflow.backends(), workflow.proxies()).unwrap();
        let bytes = b"GET / HTTP/1.1\r\nHost: h1.com\r\nHost: h2.com\r\n\r\n";
        let findings = consistency_findings_async(
            &workflow,
            &profiles,
            7,
            "catalog:multi-host",
            bytes,
            &testbed,
        );
        assert!(findings.is_empty(), "{findings:?}");
        // A second case over the same testbed rides the warm pool.
        let findings = consistency_findings_async(
            &workflow,
            &profiles,
            8,
            "catalog:multi-host",
            bytes,
            &testbed,
        );
        assert!(findings.is_empty(), "{findings:?}");
        let stats = testbed.stats();
        assert!(stats.pool_hits > 0, "repeat cases must reuse pooled connections: {stats:?}");
    }

    #[test]
    fn faulted_cases_agree_between_blocking_and_multiplexed_paths() {
        use hdiff_servers::fault::{FaultInjector, FaultPlan, FaultSession};
        // A high fault rate exercises the delegation path (any pending
        // decision falls back to the blocking testbed) alongside fast-path
        // cases, and the outcome must match the blocking transport
        // field-for-field either way.
        let workflow = Workflow::standard();
        let testbed = AsyncTestbed::new(workflow.backends(), workflow.proxies()).unwrap();
        let injector = FaultInjector::new(FaultPlan::new(42, 60));
        let bytes: &[u8] = b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nabc";
        for uuid in 1..6u64 {
            let blocking_session = FaultSession::new(&injector, uuid, 0, 4096);
            let blocking = run_bytes_tcp(&workflow, uuid, "seed", bytes, Some(&blocking_session));
            let async_session = FaultSession::new(&injector, uuid, 0, 4096);
            let multiplexed =
                run_bytes_tcp_async(&workflow, uuid, "seed", bytes, Some(&async_session), &testbed);
            assert_eq!(
                crate::replay::behavior_digests(&blocking),
                crate::replay::behavior_digests(&multiplexed),
                "uuid {uuid}"
            );
            assert_eq!(blocking.fault_events, multiplexed.fault_events, "uuid {uuid}");
            assert_eq!(blocking.budget_exhausted, multiplexed.budget_exhausted, "uuid {uuid}");
        }
    }

    #[test]
    fn pipelined_desync_fires_on_framing_disagreement() {
        // CL + a whitespace-damaged Transfer-Encoding: Tomcat-style
        // parsers recognize "chunked" by substring and let it override
        // CL, consuming the chunked body and answering the pipelined
        // GET; strict parsers 400-reject the first message and stop —
        // the classic attribution split.
        let smuggle: &[u8] =
            b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\nTransfer-Encoding:\x0bchunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        let tail: &[u8] = b"GET /next HTTP/1.1\r\nHost: h\r\n\r\n";
        let findings = pipelined_desync_findings(
            &hdiff_servers::backends(),
            11,
            "probe:pipelined",
            &[smuggle, tail],
        );
        assert!(!findings.is_empty(), "no desync signal over the wire");
        for f in &findings {
            assert_eq!(f.class, AttackClass::Hrs);
            assert_eq!(f.culprits.len(), 2);
            assert!(f.evidence.contains("attribution disagreement"), "{}", f.evidence);
        }
    }

    #[test]
    fn truncated_delivery_splits_the_profiles() {
        // A Content-Length that overshoots the delivered bytes next to a
        // whitespace-damaged Transfer-Encoding, with the connection cut
        // right after the final chunk: profiles that let the lenient
        // chunked reading win see a complete message, profiles that
        // honor CL (or reject the conflict) see a truncated or invalid
        // one — acceptance at EOF diverges.
        let bytes =
            b"POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 99\r\nTransfer-Encoding:\x0bchunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        let metrics = segmented_probe(
            &hdiff_servers::backends(),
            13,
            bytes,
            &SendMode::TruncateAt(bytes.len()),
        );
        assert!(metrics.len() >= 2, "need at least two profile views");
        let disagree = metrics.iter().any(|a| {
            metrics.iter().any(|b| a.accepted != b.accepted || a.status_code != b.status_code)
        });
        assert!(disagree, "{metrics:?}");
    }
}
