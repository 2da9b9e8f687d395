//! Downgrade-desync detection: the h2→h1 translation as a differential
//! surface.
//!
//! The paper's three detection models (HRS, HoT, CPDoS) compare h1
//! implementations against each other. Production chains add a fourth
//! surface *in front of* all of them: an HTTP/2 edge that reconstructs
//! an HTTP/1.1 byte stream for the origin. The reconstruction is a
//! lossy translation — `Content-Length` must be invented, pseudo-headers
//! must become a request line and `Host`, forbidden h2 fields must be
//! rejected/stripped/forwarded — and every divergence between what the
//! front *meant* to forward and what the back end *reads* is a
//! semantic-gap candidate with the same exploit shapes as the h1
//! catalog.
//!
//! The differential signal here is three-cornered:
//!
//! 1. the h2 request list the client actually sent (ground truth, from
//!    [`hdiff_h2::parse_client_connection`]),
//! 2. each [`hdiff_servers::DowngradeProfile`]'s reconstructed h1 bytes,
//! 3. each h1 back-end's interpretation of those bytes.
//!
//! [`detect_downgrade`] emits [`Finding`]s in four downgrade classes,
//! distinguished by an evidence tag (`downgrade:<tag>: …`) rather than
//! by widening [`AttackClass`] — the pipeline's three-class vocabulary
//! (and every test iterating `AttackClass::ALL`) stays intact, matching
//! the [`crate::detect::DegradationFinding`] precedent:
//!
//! * `cl-mismatch` (HRS-shaped) — a forwarded `content-length` that lies
//!   about the DATA bytes desynchronizes the back end's framing.
//! * `te-forwarded` (HRS-shaped) — `transfer-encoding` survived the
//!   downgrade; the back end honors chunked framing against a body the
//!   front delimited by DATA length.
//! * `crlf-injection` (HRS-shaped) — CR/LF inside an h2 field value
//!   became real h1 header/request lines.
//! * `authority-host` (HoT-shaped) — fronts (or front and back) resolve
//!   the request's host identity differently.
//!
//! [`DowngradeProtocol`] puts the surface behind the [`Protocol`] trait,
//! over either transport, so [`run_protocol_campaign`] drives the
//! seed-vector corpus through every front×back pair, minimizes the first
//! finding of each class at the h2-request level, and promotes it to a
//! [`ReplayBundle`] that `hdiff replay` re-verifies like any other.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use hdiff_gen::AttackClass;
use hdiff_h2::{encode_client_connection, parse_client_connection, EncodeOptions, H2Request};
use hdiff_net::FrontTestbed;
use hdiff_servers::engine::FramingChoice;
use hdiff_servers::{
    fronts, DowngradeOutcome, DowngradeProfile, ParserProfile, Server, ServerReply,
};

use crate::findings::Finding;
use crate::minimize::{ddmin_items, MinimizeOptions};
use crate::names::Name;
use crate::protocol::{
    reproduces, run_protocol_campaign, ProtoCase, ProtoExecution, Protocol, ProtocolCampaignOptions,
};
use crate::replay::{Fnv, ReplayBundle};
use crate::transport::Transport;

/// Uuid base for downgrade-campaign cases (distinct from the h1
/// campaign's and the fuzzer's ranges, so merged reports stay
/// attributable).
pub const H2_UUID_BASE: u64 = 0xd290_0000_0000_0000;

/// Which protocol a replay bundle's client bytes speak: the bundle's
/// `frontend` key. `H1` bundles replay through the Fig. 6 workflow, `H2`
/// bundles through the downgrade matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Frontend {
    /// HTTP/1.1 end to end (the original Fig. 6 workflow).
    #[default]
    H1,
    /// HTTP/2 client connection into downgrade front ends.
    H2,
}

impl Frontend {
    /// Stable name written under the bundle's `frontend` key.
    pub fn as_str(self) -> &'static str {
        match self {
            Frontend::H1 => "h1",
            Frontend::H2 => "h2",
        }
    }

    /// Parses [`Frontend::as_str`] output.
    pub fn parse(s: &str) -> Option<Frontend> {
        match s {
            "h1" => Some(Frontend::H1),
            "h2" => Some(Frontend::H2),
            _ => None,
        }
    }
}

/// One front end's view of a case: its per-request translation verdicts,
/// the concatenated h1 stream it forwarded, and what every back end made
/// of that stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DowngradeChain {
    /// Front-end profile name.
    pub front: String,
    /// Per-h2-request translation outcomes, in stream order.
    pub outcomes: Vec<DowngradeOutcome>,
    /// The forwarded h1 byte stream (forwarded requests concatenated —
    /// one upstream connection, exactly how a desync becomes exploitable).
    pub h1: Vec<u8>,
    /// How many of the h2 requests were forwarded (vs rejected).
    pub forwarded_count: usize,
    /// Every back end's replies to the forwarded stream.
    pub backends: Vec<(String, Vec<ServerReply>)>,
}

/// Everything one h2 case produced across the downgrade matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DowngradeCaseOutcome {
    pub uuid: u64,
    pub origin: String,
    /// The exact client connection bytes.
    pub bytes: Vec<u8>,
    /// Connection-level parse error, when the fronts never saw requests.
    pub parse_error: Option<String>,
    /// The h2 requests the client connection carried (ground truth).
    pub requests: Vec<H2Request>,
    /// One chain per front end.
    pub chains: Vec<DowngradeChain>,
}

/// The downgrade test matrix: front ends × h1 back ends.
#[derive(Debug, Clone)]
pub struct DowngradeWorkflow {
    pub fronts: Vec<DowngradeProfile>,
    pub backends: Vec<ParserProfile>,
}

impl DowngradeWorkflow {
    /// Every modeled front against every modeled h1 back end.
    pub fn standard() -> DowngradeWorkflow {
        DowngradeWorkflow { fronts: fronts(), backends: hdiff_servers::backends() }
    }

    /// Runs one h2 client connection through the whole matrix,
    /// in-process. Deterministic: same bytes, same outcome.
    pub fn run_bytes(&self, uuid: u64, origin: &str, bytes: &[u8]) -> DowngradeCaseOutcome {
        let (requests, frames, parse_error): (Vec<H2Request>, _, _) =
            match parse_client_connection(bytes) {
                Ok(conn) => {
                    (conn.requests.into_iter().map(|p| p.request).collect(), conn.frames, None)
                }
                Err(e) => (Vec::new(), 0, Some(e.to_string())),
            };
        let chains: Vec<DowngradeChain> =
            self.fronts.iter().map(|front| run_chain(front, &requests, &self.backends)).collect();
        count_case(parse_error.is_none(), frames, &chains);
        DowngradeCaseOutcome {
            uuid,
            origin: origin.to_string(),
            bytes: bytes.to_vec(),
            parse_error,
            requests,
            chains,
        }
    }
}

/// Counts one case's h2 telemetry on the calling thread: the case, the
/// client connection the fronts parsed (when it parsed) and its frames,
/// and each front that rejected at least one request. Both case paths
/// call it on the case thread with what the fronts saw, so a campaign
/// records the same counters over sim and tcp-async (where the fronts
/// parse on the event loop's thread).
fn count_case(parsed: bool, frames: usize, chains: &[DowngradeChain]) {
    hdiff_obs::count("h2.downgrade.cases", 1);
    if parsed {
        hdiff_obs::count("h2.conn.parsed", 1);
        hdiff_obs::count("h2.frames.parsed", frames as u64);
    }
    for chain in chains {
        if chain.forwarded_count < chain.outcomes.len() {
            hdiff_obs::count("h2.downgrade.rejects", 1);
        }
    }
}

/// Translates `requests` through one front and feeds the forwarded
/// stream to every back end. Shared between the sim and TCP paths (the
/// TCP path substitutes the socket-observed translation for the local
/// one, then reuses the back-end half).
fn run_chain(
    front: &DowngradeProfile,
    requests: &[H2Request],
    backends: &[ParserProfile],
) -> DowngradeChain {
    let outcomes: Vec<DowngradeOutcome> = requests.iter().map(|r| front.downgrade(r)).collect();
    let h1: Vec<u8> = outcomes.iter().filter_map(|o| o.h1.as_deref()).flatten().copied().collect();
    let forwarded_count = outcomes.iter().filter(|o| o.is_forwarded()).count();
    let backends = run_backends(&h1, backends);
    DowngradeChain { front: front.name.clone(), outcomes, h1, forwarded_count, backends }
}

fn run_backends(h1: &[u8], backends: &[ParserProfile]) -> Vec<(String, Vec<ServerReply>)> {
    backends
        .iter()
        .map(|profile| {
            let replies = if h1.is_empty() {
                Vec::new()
            } else {
                Server::new(profile.clone()).handle_stream(h1)
            };
            (profile.name.clone(), replies)
        })
        .collect()
}

/// Runs one h2 case with the front ends served over real loopback
/// sockets ([`hdiff_net::FrontTestbed`], whose fronts must be
/// `workflow.fronts` in order): the client connection bytes travel a TCP
/// stream to every front at once, each front parses and downgrades them
/// inside the event loop, and the h1 bytes it *logged having forwarded*
/// feed the back ends. `downgrade_digests` of this outcome must equal
/// the sim execution's — that is the byte-stability gate.
pub fn run_downgrade_case_tcp(
    workflow: &DowngradeWorkflow,
    testbed: &FrontTestbed,
    uuid: u64,
    origin: &str,
    bytes: &[u8],
) -> io::Result<DowngradeCaseOutcome> {
    let mut parse_error = None;
    let mut frames = 0;
    let mut requests: Vec<H2Request> = Vec::new();
    let mut chains = Vec::new();
    for (front, log) in workflow.fronts.iter().zip(testbed.run(bytes)) {
        let log =
            log.ok_or_else(|| io::Error::other(format!("{}: no connection log", front.name)))?;
        parse_error = log.parse_error;
        frames = log.frames;
        requests = log.requests;
        let forwarded_count = log.outcomes.iter().filter(|o| o.is_forwarded()).count();
        let backends = run_backends(&log.h1, &workflow.backends);
        chains.push(DowngradeChain {
            front: front.name.clone(),
            outcomes: log.outcomes,
            h1: log.h1,
            forwarded_count,
            backends,
        });
    }
    count_case(parse_error.is_none(), frames, &chains);
    Ok(DowngradeCaseOutcome {
        uuid,
        origin: origin.to_string(),
        bytes: bytes.to_vec(),
        parse_error,
        requests,
        chains,
    })
}

// ---------------------------------------------------------------------------
// Detection
// ---------------------------------------------------------------------------

/// The class tag of a downgrade finding (`downgrade:<tag>: …`), when the
/// finding came from [`detect_downgrade`].
pub fn finding_tag(f: &Finding) -> Option<&str> {
    f.evidence.as_text()?.strip_prefix("downgrade:")?.split(':').next()
}

/// First `host:` field value of an h1 byte stream (the host identity the
/// front believes it forwarded; the fronts emit the field lowercased).
fn first_host(h1: &[u8]) -> Option<Vec<u8>> {
    for line in h1.split(|&b| b == b'\n') {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.is_empty() {
            break; // end of the first request's header section
        }
        if line.len() >= 5 && line[..5].eq_ignore_ascii_case(b"host:") {
            let mut v = line[5..].to_vec();
            while v.first() == Some(&b' ') {
                v.remove(0);
            }
            return Some(v);
        }
    }
    None
}

/// Applies the downgrade detection model to one case outcome.
///
/// Findings reuse the existing [`Finding`] record: HRS-shaped classes
/// carry [`AttackClass::Hrs`], the host-identity class carries
/// [`AttackClass::Hot`]; the downgrade class proper lives in the
/// evidence tag (see [`finding_tag`]). `front`/`back` name the
/// implicated downgrade front and h1 back end (or two fronts, for the
/// cross-front host disagreement).
pub fn detect_downgrade(outcome: &DowngradeCaseOutcome) -> Vec<Finding> {
    let origin: Arc<str> = outcome.origin.as_str().into();
    let mut findings = Vec::new();
    for chain in &outcome.chains {
        let notes: Vec<&str> =
            chain.outcomes.iter().flat_map(|o| o.notes.iter()).map(String::as_str).collect();
        if chain.forwarded_count == 0 {
            continue;
        }
        let front_host = first_host(&chain.h1);

        // cl-mismatch: the forwarded content-length lies about the DATA
        // bytes; a back end that believed it desynchronizes (extra
        // garbage message, or a framing reject).
        if let Some(note) = notes.iter().find(|n| n.starts_with("cl-mismatch")) {
            for (back, replies) in &chain.backends {
                let first_reject =
                    replies.first().is_none_or(|r| !r.interpretation.outcome.is_accept());
                if replies.len() != chain.forwarded_count || first_reject {
                    findings.push(finding(
                        AttackClass::Hrs,
                        outcome,
                        &origin,
                        &chain.front,
                        back,
                        format!(
                            "downgrade:cl-mismatch: {note}; {back} read {} message(s) from {} forwarded",
                            replies.len(),
                            chain.forwarded_count
                        ),
                    ));
                }
            }
        }

        // te-forwarded: transfer-encoding survived into the h1 stream; a
        // back end that honors it frames the body differently than the
        // DATA length the front saw.
        if notes.contains(&"te-forwarded") {
            for (back, replies) in &chain.backends {
                let first = replies.first();
                let chunked =
                    first.is_some_and(|r| r.interpretation.framing == FramingChoice::Chunked);
                let first_reject = first.is_none_or(|r| !r.interpretation.outcome.is_accept());
                if chunked || first_reject || replies.len() != chain.forwarded_count {
                    findings.push(finding(
                        AttackClass::Hrs,
                        outcome,
                        &origin,
                        &chain.front,
                        back,
                        format!(
                            "downgrade:te-forwarded: {back} framed by transfer-encoding \
                             ({} message(s) from {} forwarded, chunked={chunked})",
                            replies.len(),
                            chain.forwarded_count
                        ),
                    ));
                }
            }
        }

        // crlf-injection: CR/LF from an h2 field value reached the h1
        // wire verbatim; the back end read the injected bytes as real
        // header lines (accept) or as a smuggled extra request.
        if notes.iter().any(|n| n.starts_with("crlf-forwarded")) {
            for (back, replies) in &chain.backends {
                let first_accept =
                    replies.first().is_some_and(|r| r.interpretation.outcome.is_accept());
                if first_accept || replies.len() > chain.forwarded_count {
                    findings.push(finding(
                        AttackClass::Hrs,
                        outcome,
                        &origin,
                        &chain.front,
                        back,
                        format!(
                            "downgrade:crlf-injection: injected CR/LF reached {back} as h1 \
                             structure ({} message(s) from {} forwarded)",
                            replies.len(),
                            chain.forwarded_count
                        ),
                    ));
                }
            }
        }

        // authority-host within one chain: the front resolved a host
        // identity, but the back end acts on a different one (duplicate
        // Host surviving the downgrade, last-wins back ends, …).
        let host_gap = notes.iter().any(|n| n.starts_with("authority-host-disagree"))
            || notes.contains(&"host-duplicated");
        if host_gap {
            if let Some(fh) = &front_host {
                for (back, replies) in &chain.backends {
                    let Some(first) = replies.first() else { continue };
                    if !first.interpretation.outcome.is_accept() {
                        continue;
                    }
                    if let Some(bh) = &first.interpretation.host {
                        if !bh.eq_ignore_ascii_case(fh) {
                            findings.push(finding(
                                AttackClass::Hot,
                                outcome,
                                &origin,
                                &chain.front,
                                back,
                                format!(
                                    "downgrade:authority-host: {} forwards host={}, {back} acts on host={}",
                                    chain.front,
                                    String::from_utf8_lossy(fh),
                                    String::from_utf8_lossy(bh)
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    // authority-host across fronts: two fronts forwarded the same h2
    // request under different host identities — the HoT shape of the
    // downgrade gap (front-dependent routing/vhost selection).
    let forwarding: Vec<(&DowngradeChain, Vec<u8>)> = outcome
        .chains
        .iter()
        .filter(|c| c.forwarded_count > 0)
        .filter_map(|c| first_host(&c.h1).map(|h| (c, h)))
        .collect();
    for (i, (a, ha)) in forwarding.iter().enumerate() {
        for (b, hb) in forwarding.iter().skip(i + 1) {
            let noted = |c: &DowngradeChain| {
                c.outcomes
                    .iter()
                    .flat_map(|o| o.notes.iter())
                    .any(|n| n.starts_with("authority-host-disagree") || n == "host-duplicated")
            };
            if !ha.eq_ignore_ascii_case(hb) && (noted(a) || noted(b)) {
                findings.push(finding(
                    AttackClass::Hot,
                    outcome,
                    &origin,
                    &a.front,
                    &b.front,
                    format!(
                        "downgrade:authority-host: fronts disagree on effective host: {}={} vs {}={}",
                        a.front,
                        String::from_utf8_lossy(ha),
                        b.front,
                        String::from_utf8_lossy(hb)
                    ),
                ));
            }
        }
    }

    hdiff_obs::count("h2.downgrade.findings", findings.len() as u64);
    findings
}

fn finding(
    class: AttackClass,
    outcome: &DowngradeCaseOutcome,
    origin: &Arc<str>,
    front: &str,
    back: &str,
    evidence: String,
) -> Finding {
    let (front, back) = (Name::intern(front), Name::intern(back));
    Finding {
        class,
        uuid: outcome.uuid,
        origin: Arc::clone(origin),
        front: Some(front),
        back: Some(back),
        culprits: [front, back].into_iter().collect(),
        evidence: evidence.into(),
    }
}

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// Behavior digests for one downgrade case: one `h2:conn` digest over
/// the connection-level parse, and one `h2:<front>` digest per chain
/// covering the translation verdicts, the exact forwarded h1 bytes, and
/// every back-end reply. Sim and TCP executions of the same case must
/// produce identical digests — this is the determinism anchor replay
/// bundles freeze.
pub fn downgrade_digests(outcome: &DowngradeCaseOutcome) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut conn = Fnv::new();
    match &outcome.parse_error {
        None => conn.write_u64(0),
        Some(e) => {
            conn.write_u64(1);
            conn.write(e.as_bytes());
        }
    }
    conn.write_u64(outcome.requests.len() as u64);
    out.push(("h2:conn".to_string(), conn.0));

    for chain in &outcome.chains {
        let mut h = Fnv::new();
        for o in &chain.outcomes {
            match (&o.h1, &o.reject) {
                (Some(bytes), _) => {
                    h.write_u64(1);
                    h.write(bytes);
                }
                (None, Some((status, reason))) => {
                    h.write_u64(0);
                    h.write_u64(u64::from(*status));
                    h.write(reason.as_bytes());
                }
                (None, None) => h.write_u64(2),
            }
            for note in &o.notes {
                h.write(note.as_bytes());
            }
        }
        h.write(&chain.h1);
        h.write_u64(chain.forwarded_count as u64);
        for (back, replies) in &chain.backends {
            h.write(back.as_bytes());
            h.write_u64(replies.len() as u64);
            for reply in replies {
                let i = &reply.interpretation;
                h.write_u64(u64::from(i.outcome.status()));
                h.write_u64(u64::from(i.outcome.is_accept()));
                match &i.host {
                    None => h.write_u64(0),
                    Some(host) => {
                        h.write_u64(1);
                        h.write(host);
                    }
                }
                h.write(&i.body);
                h.write(format!("{:?}", i.framing).as_bytes());
                h.write_u64(i.consumed as u64);
                h.write_u64(u64::from(reply.response.status.as_u16()));
            }
        }
        out.push((format!("h2:{}", chain.front), h.0));
    }
    out
}

// ---------------------------------------------------------------------------
// Seed vectors
// ---------------------------------------------------------------------------

/// One downgrade seed: a named h2 request list targeting a translation
/// gap.
#[derive(Debug, Clone)]
pub struct SeedVector {
    /// Stable identifier; campaign origins are `h2:<id>`.
    pub id: &'static str,
    pub description: &'static str,
    pub requests: Vec<H2Request>,
}

/// The downgrade seed corpus, in canonical order. Deterministic: every
/// call returns the same vectors.
pub fn seed_vectors() -> Vec<SeedVector> {
    let v = |id, description, requests| SeedVector { id, description, requests };
    vec![
        v("plain-get", "well-formed GET; must translate cleanly everywhere", vec![H2Request::get(
            "/index.html",
            "example.com",
        )]),
        v(
            "pipelined-pair",
            "two streams onto one upstream connection; boundary accounting baseline",
            vec![H2Request::get("/a", "example.com"), H2Request::get("/b", "example.com")],
        ),
        v(
            "authority-host",
            ":authority and an h2 host header disagree on the request's identity",
            vec![H2Request::get("/", "front.example").with_header("host", "back.example")],
        ),
        v(
            "cl-short",
            "content-length understates the DATA bytes; trailing bytes become a phantom message",
            vec![H2Request::post("/upload", "example.com", b"AAAAAAAAAAA".to_vec())
                .with_header("content-length", "3")],
        ),
        v(
            "cl-long",
            "content-length overstates the DATA bytes; the back end waits for a body that never comes",
            vec![H2Request::post("/upload", "example.com", b"abc".to_vec())
                .with_header("content-length", "11")],
        ),
        v(
            "cl-dup",
            "two content-length headers, the first lying about the DATA bytes",
            vec![H2Request::post("/upload", "example.com", b"abcdefg".to_vec())
                .with_header("content-length", "3")
                .with_header("content-length", "7")],
        ),
        v(
            "te-chunked",
            "transfer-encoding in h2 (RFC 9113 forbids it); chunked terminator hides a smuggled request",
            vec![H2Request::post(
                "/submit",
                "example.com",
                b"0\r\n\r\nGET /smuggled HTTP/1.1\r\nhost: evil.example\r\n\r\n".to_vec(),
            )
            .with_header("transfer-encoding", "chunked")],
        ),
        v(
            "crlf-value",
            "CR/LF inside a header value becomes an extra h1 header line",
            vec![H2Request::get("/", "example.com").with_header("x-note", "a\r\nx-injected: 1")],
        ),
        v(
            "crlf-smuggle-request",
            "CR/LF CR/LF inside a header value terminates the h1 head and smuggles a whole request",
            vec![H2Request::get("/", "example.com").with_header(
                "x-note",
                "a\r\n\r\nGET /admin HTTP/1.1\r\nhost: internal.example\r\n\r\n",
            )],
        ),
        v(
            "path-dotdot",
            "dot-segments in :path; edge normalization disagrees with verbatim fronts",
            vec![H2Request::get("/static/../admin/panel", "example.com")],
        ),
        v(
            "path-space",
            "raw space in :path; verbatim translation corrupts the h1 request line",
            vec![H2Request::get("/a b", "example.com")],
        ),
        v(
            "pseudo-after-regular",
            "pseudo-header after a regular field; ordering rule enforced only by strict fronts",
            vec![H2Request {
                headers: vec![
                    hdiff_h2::Header::new(":method", "GET"),
                    hdiff_h2::Header::new(":scheme", "http"),
                    hdiff_h2::Header::new(":path", "/"),
                    hdiff_h2::Header::new("x-early", "1"),
                    hdiff_h2::Header::new(":authority", "example.com"),
                ],
                body: Vec::new(),
            }],
        ),
    ]
}

// ---------------------------------------------------------------------------
// The Protocol instance
// ---------------------------------------------------------------------------

/// The h2 downgrade surface as a [`Protocol`] workload: the seed vectors
/// become the seed corpus, the downgrade matrix + [`detect_downgrade`] +
/// [`downgrade_digests`] become the execution, and minimization works on
/// the parsed h2 request list behind the byte-level trait surface. Built
/// for `sim`, cases run through
/// [`DowngradeWorkflow::run_bytes`]; built for `tcp-async`, the instance
/// owns one [`FrontTestbed`] that every campaign worker shares, and cases
/// run through [`run_downgrade_case_tcp`]. Minimization and bundle
/// recording run on the sim whatever the transport, so both transports
/// promote the same bundles.
#[derive(Debug)]
pub struct DowngradeProtocol {
    workflow: DowngradeWorkflow,
    /// The socket fronts, when built for `tcp-async`.
    fronts: Option<FrontTestbed>,
}

impl DowngradeProtocol {
    /// The standard front×back matrix, in-process.
    pub fn standard() -> DowngradeProtocol {
        DowngradeProtocol { workflow: DowngradeWorkflow::standard(), fronts: None }
    }

    /// The standard matrix over `transport`. For `tcp-async` this spawns
    /// the front testbed, so a spawn failure is an error before any case
    /// runs.
    pub fn new(transport: Transport) -> io::Result<DowngradeProtocol> {
        let mut p = DowngradeProtocol::standard();
        if transport == Transport::TcpAsync {
            p.fronts = Some(FrontTestbed::new(&p.workflow.fronts)?);
        }
        Ok(p)
    }
}

impl Protocol for DowngradeProtocol {
    fn name(&self) -> &'static str {
        "h2"
    }

    fn uuid_base(&self) -> u64 {
        H2_UUID_BASE
    }

    fn seed_cases(&self) -> Vec<ProtoCase> {
        seed_vectors()
            .into_iter()
            .map(|v| ProtoCase {
                id: v.id.to_string(),
                description: v.description.to_string(),
                bytes: encode_client_connection(&v.requests, &EncodeOptions::default()),
            })
            .collect()
    }

    fn execute(&self, uuid: u64, origin: &str, bytes: &[u8]) -> io::Result<ProtoExecution> {
        let outcome = match &self.fronts {
            None => self.workflow.run_bytes(uuid, origin, bytes),
            Some(fronts) => run_downgrade_case_tcp(&self.workflow, fronts, uuid, origin, bytes)?,
        };
        Ok(ProtoExecution {
            findings: detect_downgrade(&outcome),
            digests: downgrade_digests(&outcome),
        })
    }

    fn transport(&self) -> Transport {
        self.fronts.as_ref().map_or(Transport::Sim, |_| Transport::TcpAsync)
    }

    fn finding_tag(&self, f: &Finding) -> Option<String> {
        finding_tag(f).map(str::to_string)
    }

    /// ddmin over the request list, then over each request's headers,
    /// then over its body bytes, with candidates re-encoded canonically
    /// and run on the sim. encode(parse(encode(x))) is byte-identical
    /// (the h2 codec round trips), so going through bytes loses nothing.
    fn minimize(&self, bytes: &[u8], target: &Finding) -> Vec<u8> {
        let Ok(conn) = parse_client_connection(bytes) else { return bytes.to_vec() };
        let encode = |reqs: &[H2Request]| encode_client_connection(reqs, &EncodeOptions::default());
        let holds = |reqs: &[H2Request]| {
            let outcome = self.workflow.run_bytes(target.uuid, &target.origin, &encode(reqs));
            reproduces(self, target, &detect_downgrade(&outcome))
        };
        let requests: Vec<H2Request> = conn.requests.into_iter().map(|p| p.request).collect();
        let mut opts = MinimizeOptions::default();
        let (mut cur, stats) = ddmin_items(&requests, holds, &opts);
        opts.max_attempts -= stats.attempts;
        for r in 0..cur.len() {
            let headers = |h: &[hdiff_h2::Header]| {
                let mut cand = cur.clone();
                cand[r].headers = h.to_vec();
                holds(&cand)
            };
            let (kept, stats) = ddmin_items(&cur[r].headers, headers, &opts);
            opts.max_attempts -= stats.attempts;
            cur[r].headers = kept;
            let body = |b: &[u8]| {
                let mut cand = cur.clone();
                cand[r].body = b.to_vec();
                holds(&cand)
            };
            let (kept, stats) = ddmin_items(&cur[r].body, body, &opts);
            opts.max_attempts -= stats.attempts;
            cur[r].body = kept;
        }
        encode(&cur)
    }

    fn record_bundle(
        &self,
        name: &str,
        description: &str,
        uuid: u64,
        origin: &str,
        bytes: &[u8],
    ) -> io::Result<ReplayBundle> {
        // Frontend-keyed h2 bundles, not protocol-keyed ones: promoted
        // bundles stay byte-identical to the golden h2 corpus.
        Ok(ReplayBundle::record_h2(name, description, uuid, origin, bytes, &self.workflow))
    }
}

/// Regenerates the golden h2 corpus: one minimized, promoted bundle per
/// downgrade class the seed corpus detects, written to `dir` by a
/// one-thread sim campaign.
pub fn regen_h2_golden(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let opts = ProtocolCampaignOptions { threads: 1, promote_dir: Some(dir.to_path_buf()) };
    Ok(run_protocol_campaign(&DowngradeProtocol::standard(), &opts)?.promoted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::Culprits;

    fn run_vector(id: &str) -> (DowngradeCaseOutcome, Vec<Finding>) {
        let workflow = DowngradeWorkflow::standard();
        let vector = seed_vectors().into_iter().find(|v| v.id == id).unwrap();
        let bytes = encode_client_connection(&vector.requests, &EncodeOptions::default());
        let outcome = workflow.run_bytes(1, &format!("h2:{id}"), &bytes);
        let findings = detect_downgrade(&outcome);
        (outcome, findings)
    }

    #[test]
    fn plain_get_is_clean() {
        let (outcome, findings) = run_vector("plain-get");
        assert!(outcome.parse_error.is_none());
        assert_eq!(outcome.chains.len(), 3);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cl_lie_flags_forwarding_fronts() {
        let (_, findings) = run_vector("cl-short");
        assert!(!findings.is_empty());
        for f in &findings {
            assert_eq!(f.class, AttackClass::Hrs);
            assert_eq!(finding_tag(f), Some("cl-mismatch"));
            assert_ne!(f.front.as_deref(), Some("h2-edge"), "edge recomputes CL: {f}");
        }
    }

    #[test]
    fn te_forwarded_flags_only_the_legacy_front() {
        let (_, findings) = run_vector("te-chunked");
        let te: Vec<&Finding> =
            findings.iter().filter(|f| finding_tag(f) == Some("te-forwarded")).collect();
        assert!(!te.is_empty());
        for f in &te {
            assert_eq!(f.front.as_deref(), Some("h2-legacy"), "{f}");
        }
    }

    #[test]
    fn crlf_value_injects_through_legacy() {
        let (_, findings) = run_vector("crlf-value");
        let inj: Vec<&Finding> =
            findings.iter().filter(|f| finding_tag(f) == Some("crlf-injection")).collect();
        assert!(!inj.is_empty());
        assert!(inj.iter().all(|f| f.front.as_deref() == Some("h2-legacy")), "{inj:?}");
    }

    #[test]
    fn authority_host_split_is_a_hot_finding() {
        let (_, findings) = run_vector("authority-host");
        let hot: Vec<&Finding> =
            findings.iter().filter(|f| finding_tag(f) == Some("authority-host")).collect();
        assert!(!hot.is_empty());
        assert!(hot.iter().all(|f| f.class == AttackClass::Hot));
        // The cross-front shape must be present: edge forwards the
        // authority, relay prefers the h2 host header.
        assert!(
            hot.iter()
                .any(|f| f.front.as_deref() == Some("h2-edge")
                    && f.back.as_deref() == Some("h2-relay")),
            "{hot:?}"
        );
    }

    fn campaign(threads: usize) -> crate::ProtocolSummary {
        let opts = ProtocolCampaignOptions { threads, promote_dir: None };
        run_protocol_campaign(&DowngradeProtocol::standard(), &opts).unwrap()
    }

    #[test]
    fn campaign_detects_at_least_three_distinct_classes() {
        let summary = campaign(1);
        assert!(summary.run.cases >= 10);
        assert!(
            summary.classes.len() >= 3,
            "expected >=3 downgrade classes, got {:?}",
            summary.classes
        );
        assert!(summary.classes.contains(&"cl-mismatch".to_string()));
        assert!(summary.classes.contains(&"authority-host".to_string()));
    }

    #[test]
    fn campaign_is_thread_invariant() {
        let single = campaign(1);
        let threaded = campaign(4);
        assert_eq!(single.run.findings, threaded.run.findings);
        assert_eq!(single.classes, threaded.classes);
    }

    #[test]
    fn digests_are_stable_across_runs() {
        let (a, _) = run_vector("cl-short");
        let (b, _) = run_vector("cl-short");
        let digests = downgrade_digests(&a);
        assert_eq!(digests, downgrade_digests(&b));
        let labels: Vec<&str> = digests.iter().map(|(l, _)| l.as_str()).collect();
        assert!(labels.contains(&"h2:conn"));
        assert!(labels.contains(&"h2:h2-edge"));
    }

    #[test]
    fn minimizer_strips_inert_headers() {
        let p = DowngradeProtocol::standard();
        let mut requests =
            seed_vectors().into_iter().find(|v| v.id == "cl-short").unwrap().requests;
        for i in 0..6 {
            requests[0] = requests[0].clone().with_header(&format!("x-noise-{i}"), "padding");
        }
        let bytes = encode_client_connection(&requests, &EncodeOptions::default());
        let target = p.execute(7, "h2:cl-short", &bytes).unwrap().findings.remove(0);
        let minimized = p.minimize(&bytes, &target);
        assert!(minimized.len() < bytes.len());
        let min = parse_client_connection(&minimized).unwrap().requests.remove(0).request;
        assert!(
            !min.headers.iter().any(|h| h.name.starts_with(b"x-noise")),
            "noise headers survived: {:?}",
            min.headers
        );
        // The lying content-length must survive: it is the finding.
        assert!(min.header("content-length").is_some());
    }

    #[test]
    fn finding_tag_parses_the_evidence_prefix() {
        let f = Finding {
            class: AttackClass::Hrs,
            uuid: 1,
            origin: "h2:x".into(),
            front: None,
            back: None,
            culprits: Culprits::default(),
            evidence: "downgrade:cl-mismatch: declared=3 data=11".into(),
        };
        assert_eq!(finding_tag(&f), Some("cl-mismatch"));
        let plain = Finding { evidence: "host views differ".into(), ..f };
        assert_eq!(finding_tag(&plain), None);
    }

    #[test]
    fn frontend_round_trips() {
        for fe in [Frontend::H1, Frontend::H2] {
            assert_eq!(Frontend::parse(fe.as_str()), Some(fe));
        }
        assert_eq!(Frontend::parse("h3"), None);
        assert_eq!(Frontend::default(), Frontend::H1);
    }
}
