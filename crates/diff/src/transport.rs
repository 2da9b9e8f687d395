//! The transports: where the hops of the Fig. 6 workflow run.
//!
//! [`Workflow::execute`] runs every h1 case through the one case body in
//! [`crate::workflow`], which decides every fault, charges the step
//! budget and builds the [`CaseOutcome`]. It reads each hop's raw result
//! from a `Hops` executor, which runs hops and applies the fault
//! effects it is handed, nothing else:
//!
//! * `Hops::Sim` calls the in-process models, one hop at a time, when
//!   the body asks for it;
//! * `Hops::Wire` runs the hops on one [`hdiff_net::AsyncTestbed`]
//!   event loop — backends as origin listeners, each proxy hop relaying
//!   to a shared echo — so the case's bytes genuinely travel through the
//!   kernel's TCP stack. Wave A sends the case to every back-end and
//!   every proxy at once, over pre-opened connections; wave B sends one
//!   admitted proxy's forwarded stream to every back-end at once. The
//!   hop results are read from the servers' connection logs.
//!
//! Both transports therefore produce a [`CaseOutcome`] by the same code,
//! fault bookkeeping included, so detection, replay digests and the run
//! summary are transport-agnostic. [`run_bytes_tcp_async`] is the
//! wire's drop-in alternative to [`Workflow::run_bytes_faulted`].
//!
//! # Synchronization
//!
//! Each exchange writes a case's bytes, half-closes (FIN), and reads to
//! EOF; every server-side connection delivers its log to the paired
//! exchange *before* closing its end. Client EOF therefore implies the
//! log is complete — no sleeps, no polling.
//!
//! # Fault effects on the wire
//!
//! [`hdiff_servers::fault::FaultSession`] is interior-mutable and owned by
//! the case thread, so the event loop never sees it. The body hands the
//! wire executor the decided origin fault, whose *effect* travels with
//! every backend exchange, direct and replayed, as an
//! [`hdiff_net::FaultEffect::Origin`], and each proxy's peeked forward
//! decision, which travels with that proxy's exchange as an
//! [`hdiff_net::FaultEffect::Forward`]. A `StallRead` origin fault makes
//! one real stalled exchange — the wire observation is the client's
//! short read deadline — and skips every other, since the stalled read
//! exhausts the budget and the body asks for no hop after it.
//!
//! Beyond parity, the wire observes behavior the simulation cannot:
//! [`segmented_probe`] delivers a request in arbitrary TCP segments (or
//! cut short mid-body), and [`pipelined_desync_findings`] submits a
//! pipelined batch to every backend and flags response-attribution
//! disagreements — the on-the-wire symptom of request smuggling.

use std::sync::Arc;

use hdiff_gen::AttackClass;
use hdiff_net::{
    attribute_responses, compare_attribution, AsyncListener, AsyncTestbed, ExchangeOutput,
    ExchangeSpec, FaultEffect, Job, JobOutput, NetServerConfig, Reactor, SendMode, ServerFault,
};
use hdiff_servers::fault::{FaultDecision, FaultKind, FaultSession};
use hdiff_servers::{ParserProfile, ProxyResult, ServerReply};

use crate::findings::Finding;
use crate::hmetrics::HMetrics;
use crate::workflow::{CaseOutcome, Workflow};

/// How a campaign executes its cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// In-process simulation (the default): function calls, no sockets.
    #[default]
    Sim,
    /// Real loopback TCP: every hop lives in one [`AsyncTestbed`] event
    /// loop; a case fans out to all views concurrently over pre-opened
    /// connections.
    TcpAsync,
}

impl Transport {
    /// Stable name used by the CLI, config, and replay bundles.
    pub fn as_str(self) -> &'static str {
        match self {
            Transport::Sim => "sim",
            Transport::TcpAsync => "tcp-async",
        }
    }

    /// The histogram a campaign records each case's execution time in.
    pub fn rtt_metric(self) -> &'static str {
        match self {
            Transport::Sim => "transport.rtt.sim",
            Transport::TcpAsync => "transport.rtt.tcp-async",
        }
    }

    /// Parses [`Transport::as_str`] output. The error names the value and
    /// lists the accepted ones.
    pub fn parse(s: &str) -> Result<Transport, String> {
        match s {
            "sim" => Ok(Transport::Sim),
            "tcp-async" => Ok(Transport::TcpAsync),
            _ => Err(format!("unknown transport {s:?} (expected: sim, tcp-async)")),
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// [`Workflow::run_bytes_faulted`], over the loopback testbed. Campaigns
/// reach this path through [`Workflow::execute`], which owns the shared
/// testbed.
pub fn run_bytes_tcp_async(
    workflow: &Workflow,
    uuid: u64,
    origin: &str,
    bytes: &[u8],
    faults: Option<&FaultSession<'_>>,
    testbed: &AsyncTestbed,
) -> CaseOutcome {
    workflow.run_steps(Hops::wire(testbed), uuid, origin.to_string(), bytes.to_vec(), faults)
}

/// Where the hops of one case run: the executor the case body in
/// [`Workflow`] reads raw hop results from. A hop applies the fault
/// effects it is handed and nothing else; the body decides every fault,
/// charges the step budget, and asks for a hop only while the budget
/// has steps left.
pub(crate) enum Hops<'a> {
    /// The workflow's in-process models, each hop called when the body
    /// asks for it.
    Sim(&'a Workflow),
    /// The loopback testbed. [`Hops::start`] runs wave A and
    /// [`Hops::start_replay`] wave B; each hop's result is taken from
    /// its exchange's connection log. A hop's bytes and fault went out
    /// with its wave, so `direct`, `proxy` and `replay` read only the
    /// hop's index here.
    Wire {
        testbed: &'a AsyncTestbed,
        /// Every back-end's exchange, then every proxy's.
        wave_a: Vec<JobOutput>,
        /// The current chain's replay exchanges, one per back-end.
        wave_b: Vec<JobOutput>,
    },
}

impl<'a> Hops<'a> {
    /// The wire executor over `testbed`.
    pub(crate) fn wire(testbed: &'a AsyncTestbed) -> Hops<'a> {
        Hops::Wire { testbed, wave_a: Vec::new(), wave_b: Vec::new() }
    }

    /// Starts a case. On the wire this runs wave A: the case's bytes to
    /// every back-end under the origin fault's effect and to every proxy
    /// under its `forward` decision, all at once; a `StallRead` origin
    /// sends to the first back-end alone, under the short stall deadline.
    /// In-process nothing runs until a hop is asked for.
    pub(crate) fn start(
        &mut self,
        bytes: &[u8],
        origin: Option<FaultKind>,
        forward: &impl Fn(&str) -> Option<FaultDecision>,
    ) {
        let Hops::Wire { testbed, wave_a, .. } = self else { return };
        let origin_effect = origin.and_then(server_fault).map(FaultEffect::Origin);
        let job = |l, effect, timeout| {
            testbed.exchange_job_with(l, bytes, SendMode::Whole, effect, timeout)
        };
        let jobs = if origin == Some(FaultKind::StallRead) {
            let stalled = |l| job(l, origin_effect, hdiff_net::stall_observe_timeout());
            testbed.backends().first().map(stalled).into_iter().collect()
        } else {
            let timeout = hdiff_net::io_timeout();
            let backends = testbed.backends().iter().map(|l| job(l, origin_effect, timeout));
            let proxies = testbed
                .proxies()
                .iter()
                .map(|l| job(l, forward(&l.name).map(FaultEffect::Forward), timeout));
            backends.chain(proxies).collect()
        };
        *wave_a = run_wave(testbed, jobs);
    }

    /// Back-end `i`'s replies to the case's bytes.
    pub(crate) fn direct(
        &mut self,
        i: usize,
        bytes: &[u8],
        origin: Option<FaultKind>,
    ) -> Vec<ServerReply> {
        match self {
            Hops::Sim(w) => w.sim_backends[i].handle_stream_with(bytes, origin),
            Hops::Wire { wave_a, .. } => take_replies(wave_a.get_mut(i)),
        }
    }

    /// Proxy `i`'s results over the case's bytes.
    pub(crate) fn proxy(
        &mut self,
        i: usize,
        bytes: &[u8],
        forward: Option<FaultDecision>,
    ) -> Vec<ProxyResult> {
        match self {
            Hops::Sim(w) => w.sim_proxies[i].forward_stream_with(bytes, forward),
            Hops::Wire { testbed, wave_a, .. } => {
                match wave_a.get_mut(testbed.backends().len() + i) {
                    Some(JobOutput::Exchange(e)) => {
                        e.proxy_log.take().map(|l| l.results).unwrap_or_default()
                    }
                    _ => Vec::new(),
                }
            }
        }
    }

    /// Starts a chain's replays. On the wire this runs wave B: the
    /// forwarded stream to every back-end at once, under the origin
    /// fault's effect. In-process nothing runs until a hop is asked for.
    pub(crate) fn start_replay(&mut self, forwarded: &[u8], origin: Option<FaultKind>) {
        let Hops::Wire { testbed, wave_b, .. } = self else { return };
        let effect = origin.and_then(server_fault).map(FaultEffect::Origin);
        let timeout = hdiff_net::io_timeout();
        let jobs = testbed
            .backends()
            .iter()
            .map(|l| testbed.exchange_job_with(l, forwarded, SendMode::Whole, effect, timeout));
        *wave_b = run_wave(testbed, jobs.collect());
    }

    /// Back-end `j`'s replies to a chain's forwarded stream.
    pub(crate) fn replay(
        &mut self,
        j: usize,
        forwarded: &[u8],
        origin: Option<FaultKind>,
    ) -> Vec<ServerReply> {
        match self {
            Hops::Sim(w) => w.sim_backends[j].handle_stream_with(forwarded, origin),
            Hops::Wire { wave_b, .. } => take_replies(wave_b.get_mut(j)),
        }
    }
}

/// The socket effect of an origin-side fault kind.
fn server_fault(kind: FaultKind) -> Option<ServerFault> {
    match kind {
        FaultKind::ConnReset => Some(ServerFault::CloseNoReply),
        FaultKind::StallRead => Some(ServerFault::Stall),
        FaultKind::Transient5xx => Some(ServerFault::Substitute503),
        FaultKind::TruncateResponse => Some(ServerFault::TruncateBody),
        FaultKind::GarbleForward => None,
    }
}

/// Runs one wave of exchanges and observes each.
fn run_wave(testbed: &AsyncTestbed, jobs: Vec<Job>) -> Vec<JobOutput> {
    let outs = testbed.run(jobs);
    for out in &outs {
        observe_async_exchange(out.as_exchange());
    }
    outs
}

/// The replies an exchange's origin connection logged, moved out of it.
fn take_replies(out: Option<&mut JobOutput>) -> Vec<ServerReply> {
    match out {
        Some(JobOutput::Exchange(e)) => e.server_log.take().map(|l| l.replies).unwrap_or_default(),
        _ => Vec::new(),
    }
}

/// Campaign telemetry for one exchange, emitted from the case thread
/// (the event loop itself records nothing): the RTT and timeout
/// observations. Whether the exchange found a pre-opened connection
/// depends on timing, not on the case, so the pool counters stay in
/// [`hdiff_net::ReactorStats`].
fn observe_async_exchange(ex: Option<&ExchangeOutput>) {
    let Some(e) = ex else { return };
    hdiff_obs::observe("net.exchange.rtt", e.rtt_ns);
    if e.timed_out {
        hdiff_obs::count("net.exchange.timeout", 1);
    }
}

/// Runs one case over the sim and over `testbed` and reports any
/// divergence as a finding: the two executions must yield the same
/// behavior digests and the same detector verdicts. A divergence means a
/// bug in the socket layer (or genuinely transport-dependent behavior) —
/// either way worth a first-class report, never a silent pass.
pub fn consistency_findings(
    workflow: &Workflow,
    profiles: &[ParserProfile],
    uuid: u64,
    origin: &str,
    bytes: &[u8],
    testbed: &AsyncTestbed,
) -> Vec<Finding> {
    let sim = workflow.run_bytes_faulted(uuid, origin, bytes, None);
    let wire = run_bytes_tcp_async(workflow, uuid, origin, bytes, None, testbed);
    let mut out = Vec::new();
    let sim_digests = crate::replay::behavior_digests(&sim);
    let wire_digests = crate::replay::behavior_digests(&wire);
    for (label, expected) in &sim_digests {
        match wire_digests.iter().find(|(l, _)| l == label) {
            Some((_, got)) if got == expected => {}
            other => out.push(divergence(
                uuid,
                origin,
                label,
                &format!(
                    "behavior digest {label} diverges across transports: sim {expected:#018x}, tcp-async {}",
                    other.map_or("<missing>".to_string(), |(_, g)| format!("{g:#018x}")),
                ),
            )),
        }
    }

    let sim_findings = crate::detect::detect_case(profiles, &sim);
    let wire_findings = crate::detect::detect_case(profiles, &wire);
    if sim_findings != wire_findings {
        out.push(divergence(
            uuid,
            origin,
            "findings",
            &format!(
                "detector verdicts diverge across transports: {} sim vs {} tcp-async findings",
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
        origin: origin.into(),
        front: None,
        back: None,
        culprits: [format!("transport:{label}")].into_iter().collect(),
        evidence: evidence.into(),
    }
}

/// Hosts every profile as an origin on a fresh reactor and sends `bytes`
/// to all of them at once, shaped by `mode`. Returns each profile's name
/// with its completed exchange; empty when no reactor can start.
fn exchange_each(
    profiles: &[ParserProfile],
    bytes: &[u8],
    mode: &SendMode,
) -> Vec<(String, ExchangeOutput)> {
    let Ok(reactor) = Reactor::spawn() else { return Vec::new() };
    let listeners: Vec<AsyncListener> = profiles
        .iter()
        .filter_map(|p| reactor.add_origin(p.clone(), NetServerConfig::default(), true).ok())
        .collect();
    let jobs = listeners
        .iter()
        .map(|l| Job::Exchange(ExchangeSpec::paired(l, bytes, mode.clone())))
        .collect();
    listeners
        .into_iter()
        .zip(reactor.run(jobs))
        .filter_map(|(l, out)| Some((l.name, out.as_exchange()?.clone())))
        .collect()
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
    exchange_each(profiles, bytes, mode)
        .into_iter()
        .filter_map(|(name, ex)| {
            let reply = ex.server_log?.replies.into_iter().next()?;
            Some(HMetrics::from_interpretation(uuid, &name, &reply.interpretation))
        })
        .collect()
}

/// Submits `requests` as one pipelined batch (one write per request) to
/// every profile and flags every pair whose response attribution
/// disagrees (count, or status at any index) — the wire-level desync
/// signal.
pub fn pipelined_desync_findings(
    profiles: &[ParserProfile],
    uuid: u64,
    origin: &str,
    requests: &[&[u8]],
) -> Vec<Finding> {
    let mut cuts = Vec::with_capacity(requests.len());
    let mut end = 0;
    for r in requests {
        end += r.len();
        cuts.push(end);
    }
    let attributions: Vec<_> =
        exchange_each(profiles, &requests.concat(), &SendMode::Segmented(cuts))
            .into_iter()
            .filter(|(_, ex)| ex.error.is_none())
            .map(|(name, ex)| (name, attribute_responses(&ex.response, requests.len())))
            .collect();

    let origin: Arc<str> = origin.into();
    let mut out = Vec::new();
    for i in 0..attributions.len() {
        for j in i + 1..attributions.len() {
            let (a_name, a) = &attributions[i];
            let (b_name, b) = &attributions[j];
            if let Some(signal) = compare_attribution(a_name, a, b_name, b) {
                out.push(Finding {
                    class: AttackClass::Hrs,
                    uuid,
                    origin: Arc::clone(&origin),
                    front: None,
                    back: None,
                    culprits: [a_name, b_name].into_iter().collect(),
                    evidence: signal.describe().into(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_servers::fault::{FaultInjector, FaultPlan, FaultStage};
    use hdiff_servers::ORIGIN_HOP;

    #[test]
    fn transport_names_round_trip() {
        for t in [Transport::Sim, Transport::TcpAsync] {
            assert_eq!(Transport::parse(t.as_str()), Ok(t));
        }
        assert_eq!(Transport::default(), Transport::Sim);
        assert_eq!(Transport::TcpAsync.to_string(), "tcp-async");
        for retired in ["tcp", "quic"] {
            let err = Transport::parse(retired).unwrap_err();
            assert!(err.contains(&format!("{retired:?}")), "{err}");
            assert!(err.contains("sim, tcp-async"), "{err}");
        }
    }

    #[test]
    fn fault_free_case_is_consistent_over_the_multiplexed_transport() {
        let workflow = Workflow::standard();
        let profiles = hdiff_servers::products();
        let testbed = AsyncTestbed::new(workflow.backends(), workflow.proxies()).unwrap();
        let bytes = b"GET / HTTP/1.1\r\nHost: h1.com\r\nHost: h2.com\r\n\r\n";
        let findings =
            consistency_findings(&workflow, &profiles, 7, "catalog:multi-host", bytes, &testbed);
        assert!(findings.is_empty(), "{findings:?}");
        // A second case over the same testbed rides the warm pool.
        let findings =
            consistency_findings(&workflow, &profiles, 8, "catalog:multi-host", bytes, &testbed);
        assert!(findings.is_empty(), "{findings:?}");
        let stats = testbed.stats();
        assert!(stats.pool_hits > 0, "repeat cases must reuse pooled connections: {stats:?}");
    }

    #[test]
    fn faulted_cases_agree_between_the_sim_and_the_reactor() {
        // At a 60% fault rate most catalog cases carry origin and
        // forward faults of every kind; the reactor's outcome must match
        // the sim's field for field.
        let workflow = Workflow::standard();
        let testbed = AsyncTestbed::new(workflow.backends(), workflow.proxies()).unwrap();
        let injector = FaultInjector::new(FaultPlan::new(42, 60));
        let mut uuid = 0u64;
        let mut faulted = 0;
        for entry in hdiff_gen::catalog::catalog() {
            for (req, _) in &entry.requests {
                uuid += 1;
                let bytes = req.to_bytes();
                let origin = format!("catalog:{}", entry.id);
                let sim_session = FaultSession::new(&injector, uuid, 0, 4096);
                let sim = workflow.run_bytes_faulted(uuid, &origin, &bytes, Some(&sim_session));
                let wire_session = FaultSession::new(&injector, uuid, 0, 4096);
                let wire = run_bytes_tcp_async(
                    &workflow,
                    uuid,
                    &origin,
                    &bytes,
                    Some(&wire_session),
                    &testbed,
                );
                assert_eq!(
                    crate::replay::behavior_digests(&sim),
                    crate::replay::behavior_digests(&wire),
                    "uuid {uuid}"
                );
                assert_eq!(sim.fault_events, wire.fault_events, "uuid {uuid}");
                assert_eq!(sim.budget_exhausted, wire.budget_exhausted, "uuid {uuid}");
                faulted += usize::from(!sim.fault_events.is_empty());
            }
        }
        assert!(faulted * 2 > uuid as usize, "only {faulted} of {uuid} cases faulted");
    }

    #[test]
    fn a_pending_origin_fault_runs_on_the_shared_testbed() {
        let workflow = Workflow::standard();
        let testbed = AsyncTestbed::new(workflow.backends(), workflow.proxies()).unwrap();
        let plan = FaultPlan::new(7, 100).with_kinds(&[FaultKind::Transient5xx]);
        let injector = FaultInjector::new(plan);
        let session = FaultSession::new(&injector, 1, 0, 4096);
        assert!(session.peek(ORIGIN_HOP, FaultStage::OriginRespond).is_some());
        let before = testbed.stats();
        let bytes = b"GET / HTTP/1.1\r\nHost: h1.com\r\n\r\n";
        let outcome = run_bytes_tcp_async(&workflow, 1, "seed", bytes, Some(&session), &testbed);
        let after = testbed.stats();
        let exchanges = |s: hdiff_net::ReactorStats| s.pool_hits + s.pool_misses;
        assert!(
            exchanges(after) - exchanges(before) >= 12,
            "the faulted case bypassed the testbed: {before:?} -> {after:?}"
        );
        let status = outcome.direct[0].1[0].response.status.as_u16();
        assert_eq!(status, 503, "the fault effect reached the backends");
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
            let evidence = f.evidence.to_string();
            assert!(evidence.contains("attribution disagreement"), "{evidence}");
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
