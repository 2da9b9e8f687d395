//! Self-contained replay bundles for recorded findings.
//!
//! A finding flagged by a campaign is only as good as its reproduction: a
//! [`ReplayBundle`] freezes everything needed to re-execute one case
//! byte-identically — the exact client bytes, the fault-plan parameters
//! (if any), the findings the detectors flagged, and an FNV-1a digest of
//! every implementation's `HMetrics` view. Replaying a bundle re-runs the
//! workflow and diffs both the detector verdicts and the digests, so any
//! behavioral drift in the simulated implementations is caught even when
//! the top-level verdict happens to survive.
//!
//! Bundles serialize to single JSON files via the hand-rolled codec in
//! [`crate::json`] (request bytes hex-encoded so arbitrary octets
//! survive). The checked-in `tests/golden/` corpus — one minimized bundle
//! per Table II catalog vector, built by [`regen_golden`] — is the
//! regression gate: `hdiff replay tests/golden` must stay green.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use hdiff_servers::fault::{FaultInjector, FaultPlan, FaultSession};
use hdiff_servers::{FramingChoice, Interpretation, ParserProfile};

use crate::checkpoint::{data_err, read_finding, write_finding};
use crate::detect::detect_case_with_oracle;
use crate::downgrade::{
    detect_downgrade, downgrade_digests, DowngradeProtocol, DowngradeWorkflow, Frontend,
};
use crate::findings::Finding;
use crate::json::{push_json_str, Json, Parser};
use crate::minimize::{FindingContext, MinimizeOptions};
use crate::syntax::SyntaxOracle;
use crate::transport::Transport;
use crate::workflow::{CaseOutcome, Workflow, STEP_BUDGET};

/// On-disk bundle format version; bumped on incompatible changes.
pub const FORMAT_VERSION: u64 = 1;

/// A frozen, re-executable finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayBundle {
    /// Bundle name (also the suggested file stem).
    pub name: String,
    /// Human-readable description of what the case demonstrates.
    pub description: String,
    /// Test-case id the detectors saw.
    pub uuid: u64,
    /// Origin string (`catalog:…`/`sr:…`/`abnf`).
    pub origin: String,
    /// The exact client bytes.
    pub request: Vec<u8>,
    /// Fault-plan `(seed, rate)` when the case ran under injection;
    /// `None` replays under a disabled plan.
    pub fault: Option<(u64, u8)>,
    /// The findings the detectors flagged at record time.
    pub findings: Vec<Finding>,
    /// FNV-1a 64 digests of every implementation view, labelled
    /// `direct:<backend>` / `proxy:<proxy>`.
    pub digests: Vec<(String, u64)>,
    /// Transport the bundle replays under. Bundles recorded before the
    /// wire transport existed carry no key and default to [`Transport::Sim`],
    /// so the checked-in golden corpus keeps working unchanged; `hdiff
    /// replay --transport tcp-async` overrides it at replay time.
    pub transport: Transport,
    /// Which protocol the recorded client bytes speak. `H1` bundles
    /// (the default; key absent on disk, so the existing corpus is
    /// untouched) replay through the h1 workflow; `H2` bundles carry a
    /// whole h2 client connection and replay through the downgrade
    /// matrix ([`crate::downgrade::DowngradeWorkflow`]).
    pub frontend: Frontend,
    /// Name of the [`crate::protocol::Protocol`] workload that recorded
    /// the bundle, for non-HTTP workloads (e.g. `"cookie"`). `None` (key
    /// absent on disk — the h1/h2 corpora are untouched) replays through
    /// the HTTP dispatch above; `Some` bundles must be routed to their
    /// workload via [`ReplayBundle::replay_protocol`].
    pub protocol: Option<String>,
}

/// The outcome of replaying one bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Name of the bundle replayed.
    pub bundle: String,
    /// Expected findings that were not re-detected.
    pub missing: Vec<Finding>,
    /// Re-detected findings the bundle did not expect.
    pub unexpected: Vec<Finding>,
    /// Digest labels whose value drifted (or vanished / appeared).
    pub drifted: Vec<String>,
}

impl ReplayReport {
    /// Whether the replay reproduced the record byte-identically.
    pub fn passed(&self) -> bool {
        self.missing.is_empty() && self.unexpected.is_empty() && self.drifted.is_empty()
    }

    /// One-line rendering for CLI output.
    pub fn summary(&self) -> String {
        if self.passed() {
            format!("PASS {}", self.bundle)
        } else {
            format!(
                "FAIL {} (missing {}, unexpected {}, drifted {})",
                self.bundle,
                self.missing.len(),
                self.unexpected.len(),
                self.drifted.join("+"),
            )
        }
    }
}

impl ReplayBundle {
    /// Records a bundle by executing `bytes` through `workflow` and
    /// freezing the detector verdicts and behavior digests.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        name: &str,
        description: &str,
        uuid: u64,
        origin: &str,
        bytes: &[u8],
        fault: Option<(u64, u8)>,
        workflow: &Workflow,
        profiles: &[ParserProfile],
        oracle: Option<&SyntaxOracle>,
    ) -> ReplayBundle {
        let (outcome, findings) =
            execute(workflow, profiles, oracle, uuid, origin, bytes, fault, Transport::Sim);
        ReplayBundle {
            name: name.to_string(),
            description: description.to_string(),
            uuid,
            origin: origin.to_string(),
            request: bytes.to_vec(),
            fault,
            findings,
            digests: behavior_digests(&outcome),
            transport: Transport::Sim,
            frontend: Frontend::H1,
            protocol: None,
        }
    }

    /// Records an h2 bundle: `bytes` is a whole h2 client connection,
    /// executed through the downgrade matrix and frozen with the
    /// downgrade detector's verdicts and `h2:*` digests.
    pub fn record_h2(
        name: &str,
        description: &str,
        uuid: u64,
        origin: &str,
        bytes: &[u8],
        workflow: &DowngradeWorkflow,
    ) -> ReplayBundle {
        let outcome = workflow.run_bytes(uuid, origin, bytes);
        ReplayBundle {
            name: name.to_string(),
            description: description.to_string(),
            uuid,
            origin: origin.to_string(),
            request: bytes.to_vec(),
            fault: None,
            findings: detect_downgrade(&outcome),
            digests: downgrade_digests(&outcome),
            transport: Transport::Sim,
            frontend: Frontend::H2,
            protocol: None,
        }
    }

    /// Re-executes the bundle and diffs verdicts and digests against the
    /// recorded expectations. H2 bundles execute through
    /// [`DowngradeProtocol`] over the bundle's transport; the
    /// `workflow`/`profiles` arguments (which describe the h1 pipeline)
    /// are not consulted for them.
    ///
    /// # Panics
    ///
    /// Panics if the bundle's `tcp-async` testbed cannot be spawned.
    pub fn replay(
        &self,
        workflow: &Workflow,
        profiles: &[ParserProfile],
        oracle: Option<&SyntaxOracle>,
    ) -> ReplayReport {
        // Protocol-keyed bundles (cookie, …) cannot be resolved at this
        // layer — the workload crates sit above hdiff-diff. The caller
        // must route them via `replay_protocol`; misrouting here is
        // reported as a failure, never a silent mis-execution.
        if let Some(protocol) = &self.protocol {
            return ReplayReport {
                bundle: self.name.clone(),
                missing: self.findings.clone(),
                unexpected: Vec::new(),
                drifted: vec![format!("protocol:{protocol}:unrouted")],
            };
        }
        match self.frontend {
            Frontend::H1 => {
                let (outcome, findings) = execute(
                    workflow,
                    profiles,
                    oracle,
                    self.uuid,
                    &self.origin,
                    &self.request,
                    self.fault,
                    self.transport,
                );
                self.report(&findings, &behavior_digests(&outcome))
            }
            Frontend::H2 => {
                let fronts = DowngradeProtocol::new(self.transport)
                    .unwrap_or_else(|e| panic!("h2 front testbed unavailable: {e}"));
                self.replay_protocol(&fronts)
            }
        }
    }

    /// The report of a re-execution that produced `findings` and
    /// `digests`.
    pub(crate) fn report(&self, findings: &[Finding], digests: &[(String, u64)]) -> ReplayReport {
        ReplayReport {
            bundle: self.name.clone(),
            missing: self.findings.iter().filter(|f| !findings.contains(f)).cloned().collect(),
            unexpected: findings.iter().filter(|f| !self.findings.contains(f)).cloned().collect(),
            drifted: diff_digests(&self.digests, digests),
        }
    }

    /// Serializes the bundle as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{{\"version\":{FORMAT_VERSION},\"name\":"));
        push_json_str(&mut out, &self.name);
        out.push_str(",\"description\":");
        push_json_str(&mut out, &self.description);
        out.push_str(&format!(",\"uuid\":{},\"origin\":", self.uuid));
        push_json_str(&mut out, &self.origin);
        out.push_str(",\"request_hex\":");
        push_json_str(&mut out, &hex_encode(&self.request));
        out.push_str(",\"fault\":");
        match self.fault {
            None => out.push_str("null"),
            Some((seed, rate)) => out.push_str(&format!("{{\"seed\":{seed},\"rate\":{rate}}}")),
        }
        out.push_str(",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_finding(&mut out, f);
        }
        out.push_str("],\"digests\":[");
        for (i, (label, digest)) in self.digests.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"label\":");
            push_json_str(&mut out, label);
            out.push_str(&format!(",\"digest\":{digest}}}"));
        }
        out.push(']');
        // The default (sim) is written as key absence, so sim bundles —
        // the golden corpus included — stay byte-identical to the
        // pre-wire-transport format.
        if self.transport != Transport::Sim {
            out.push_str(",\"transport\":");
            push_json_str(&mut out, self.transport.as_str());
        }
        // Same pattern: h1 (the default) is key absence, so every bundle
        // recorded before the h2 front ends existed parses unchanged.
        if self.frontend != Frontend::H1 {
            out.push_str(",\"frontend\":");
            push_json_str(&mut out, self.frontend.as_str());
        }
        // And again: HTTP bundles carry no protocol key, so the golden
        // corpora predate-and-survive the protocol-generic core.
        if let Some(protocol) = &self.protocol {
            out.push_str(",\"protocol\":");
            push_json_str(&mut out, protocol);
        }
        out.push_str("}\n");
        out
    }

    /// Parses a bundle from JSON bytes.
    pub fn from_json(bytes: &[u8]) -> io::Result<ReplayBundle> {
        let root = Parser::new(bytes).value()?;
        let version = root.get("version").and_then(Json::as_u64).unwrap_or(0);
        if version != FORMAT_VERSION {
            return Err(data_err(format!(
                "replay bundle format v{version}, this build reads v{FORMAT_VERSION}"
            )));
        }
        let string = |key: &str| {
            root.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| data_err(format!("bundle {key}")))
        };
        let fault = match root.get("fault") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let seed =
                    v.get("seed").and_then(Json::as_u64).ok_or_else(|| data_err("fault seed"))?;
                let rate =
                    v.get("rate").and_then(Json::as_u64).ok_or_else(|| data_err("fault rate"))?;
                let rate = u8::try_from(rate).map_err(|_| data_err("fault rate range"))?;
                Some((seed, rate))
            }
        };
        let mut digests = Vec::new();
        for d in root.get("digests").and_then(Json::as_arr).unwrap_or_default() {
            let label = d
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| data_err("digest label"))?
                .to_string();
            let digest =
                d.get("digest").and_then(Json::as_u64).ok_or_else(|| data_err("digest value"))?;
            digests.push((label, digest));
        }
        let transport = match root.get("transport") {
            None | Some(Json::Null) => Transport::Sim,
            Some(v) => {
                let raw = v.as_str().ok_or_else(|| data_err("bundle transport"))?;
                Transport::parse(raw).map_err(|e| data_err(format!("bundle: {e}")))?
            }
        };
        let frontend = match root.get("frontend") {
            None | Some(Json::Null) => Frontend::H1,
            Some(v) => {
                v.as_str().and_then(Frontend::parse).ok_or_else(|| data_err("bundle frontend"))?
            }
        };
        let protocol = match root.get("protocol") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_str().ok_or_else(|| data_err("bundle protocol must be a string"))?.to_string(),
            ),
        };
        Ok(ReplayBundle {
            name: string("name")?,
            description: string("description")?,
            uuid: root.get("uuid").and_then(Json::as_u64).ok_or_else(|| data_err("bundle uuid"))?,
            origin: string("origin")?,
            request: hex_decode(&string("request_hex")?)?,
            fault,
            findings: root
                .get("findings")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .map(read_finding)
                .collect::<io::Result<_>>()?,
            digests,
            transport,
            frontend,
            protocol,
        })
    }

    /// Writes the bundle to `path` atomically.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json().as_bytes())?;
        std::fs::rename(&tmp, path)
    }

    /// Loads a bundle written by [`ReplayBundle::save`].
    pub fn load(path: &Path) -> io::Result<ReplayBundle> {
        ReplayBundle::from_json(&std::fs::read(path)?)
    }
}

/// Labels whose digest drifted between the recorded and replayed views
/// (changed value, vanished, or newly appeared).
fn diff_digests(expected: &[(String, u64)], actual: &[(String, u64)]) -> Vec<String> {
    let mut drifted: Vec<String> = Vec::new();
    for (label, want) in expected {
        match actual.iter().find(|(l, _)| l == label) {
            Some((_, got)) if got == want => {}
            _ => drifted.push(label.clone()),
        }
    }
    for (label, _) in actual {
        if !expected.iter().any(|(l, _)| l == label) {
            drifted.push(label.clone());
        }
    }
    drifted
}

/// Replays every `*.json` bundle in `dir` (sorted by file name, so runs
/// are order-stable) and returns one report per bundle.
pub fn replay_dir(
    dir: &Path,
    workflow: &Workflow,
    profiles: &[ParserProfile],
    oracle: Option<&SyntaxOracle>,
) -> io::Result<Vec<(PathBuf, ReplayReport)>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    let mut reports = Vec::new();
    for path in paths {
        let bundle = ReplayBundle::load(&path)?;
        reports.push((path, bundle.replay(workflow, profiles, oracle)));
    }
    Ok(reports)
}

/// Regenerates the golden corpus: for each Table II catalog vector, finds
/// a payload that trips a detector of the entry's class, pads it with
/// campaign-style noise headers, delta-minimizes it, and records the
/// minimized case as `catalog-<id>.json` in `dir`. Returns the written
/// paths. Entries whose payloads flag nothing in the simulated
/// environment are skipped (reported by absence).
pub fn regen_golden(
    dir: &Path,
    workflow: &Workflow,
    profiles: &[ParserProfile],
) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let ctx = FindingContext::new(workflow, profiles);
    let opts = MinimizeOptions::default();
    let mut written = Vec::new();
    for (idx, entry) in hdiff_gen::catalog::catalog().iter().enumerate() {
        let uuid = 9000 + idx as u64;
        let origin = format!("catalog:{}", entry.id);
        // First payload whose (padded) bytes flag a finding of the
        // entry's class; pair findings preferred as the stronger repro.
        let mut picked: Option<(Vec<u8>, Finding, String)> = None;
        for (request, note) in &entry.requests {
            let padded = pad_with_noise(&request.to_bytes());
            let findings = ctx.findings_for(uuid, &origin, &padded);
            let of_class = |f: &&Finding| entry.classes.contains(&f.class);
            let best = findings
                .iter()
                .filter(of_class)
                .find(|f| f.is_pair())
                .or_else(|| findings.iter().find(of_class));
            if let Some(f) = best {
                picked = Some((padded, f.clone(), note.clone()));
                break;
            }
        }
        let Some((padded, finding, note)) = picked else { continue };
        let minimized = ctx.minimize_finding(&finding, &padded, &opts);
        let name = format!("catalog-{}", entry.id);
        let description = format!("{} — {note}", entry.description);
        let bundle = ReplayBundle::record(
            &name,
            &description,
            uuid,
            &origin,
            &minimized.bytes,
            None,
            workflow,
            profiles,
            ctx.oracle,
        );
        let path = dir.join(format!("{name}.json"));
        bundle.save(&path)?;
        written.push(path);
    }
    Ok(written)
}

/// Runs one case exactly the way record/replay both must: a fresh fault
/// session (disabled plan unless `fault` is set) under [`STEP_BUDGET`],
/// through the chosen transport.
///
/// # Panics
///
/// Panics if the workflow's `tcp-async` testbed cannot be spawned.
#[allow(clippy::too_many_arguments)]
fn execute(
    workflow: &Workflow,
    profiles: &[ParserProfile],
    oracle: Option<&SyntaxOracle>,
    uuid: u64,
    origin: &str,
    bytes: &[u8],
    fault: Option<(u64, u8)>,
    transport: Transport,
) -> (CaseOutcome, Vec<Finding>) {
    let plan = match fault {
        Some((seed, rate)) => FaultPlan::new(seed, rate),
        None => FaultPlan::disabled(),
    };
    let injector = FaultInjector::new(plan);
    let session = FaultSession::new(&injector, uuid, 0, STEP_BUDGET);
    let outcome = workflow
        .execute(transport, uuid, origin.to_string(), bytes.to_vec(), &session)
        .unwrap_or_else(|e| panic!("loopback testbed unavailable: {e}"));
    let findings = detect_case_with_oracle(profiles, &outcome, oracle);
    (outcome, findings)
}

// ---------------------------------------------------------------------------
// Behavior digests
// ---------------------------------------------------------------------------

/// FNV-1a 64 running hash: the one digest primitive every workload's
/// behavior digests build on (h1 `direct:`/`proxy:` views, the h2
/// downgrade chains, the cookie workload's per-profile jars), so digests
/// stay comparable across record/replay no matter which crate computed
/// them.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    /// A fresh hash at the FNV-1a 64 offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes bytes in, with no length separator.
    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes a byte string, length-separated.
    pub fn write(&mut self, bytes: &[u8]) {
        self.mix(bytes);
        // Length separator: distinguishes ("ab","c") from ("a","bc").
        self.write_u64(bytes.len() as u64);
    }

    /// Hashes the concatenation of `parts` as one length-separated byte
    /// string, without concatenating them.
    pub fn write_parts(&mut self, parts: &[&[u8]]) {
        for part in parts {
            self.mix(part);
        }
        self.write_u64(parts.iter().map(|part| part.len() as u64).sum());
    }

    /// Hashes the text `value` renders to as one length-separated byte
    /// string: `write(value.to_string().as_bytes())` without the string.
    pub fn write_display(&mut self, value: &impl fmt::Display) {
        struct Text<'a> {
            hash: &'a mut Fnv,
            len: u64,
        }
        impl fmt::Write for Text<'_> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.hash.mix(s.as_bytes());
                self.len += s.len() as u64;
                Ok(())
            }
        }
        let mut text = Text { hash: self, len: 0 };
        fmt::write(&mut text, format_args!("{value}")).expect("hashing text never fails");
        let len = text.len;
        self.write_u64(len);
    }

    /// Hashes a u64 (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.mix(&v.to_le_bytes());
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

/// Hashes what `implementation` made of one message: outcome, Host,
/// body, framing, boundary, repair flag and decisions (the fields of its
/// [`crate::HMetrics`] vector).
fn hash_interpretation(h: &mut Fnv, implementation: &str, i: &Interpretation) {
    h.write(implementation.as_bytes());
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
    hash_framing(h, i.outcome.is_accept().then_some(i.framing));
    h.write_u64(i.consumed as u64);
    h.write_u64(u64::from(i.repaired_chunked));
    for note in &i.notes {
        h.write_display(note);
    }
}

/// Hashes `framing` as its `Debug` text, the way the digests have always
/// spelled it (`None`, `Some(Chunked)`, `Some(ContentLength(3))`, …).
fn hash_framing(h: &mut Fnv, framing: Option<FramingChoice>) {
    let mut digits = [0u8; 20];
    let parts: [&[u8]; 3] = match framing {
        None => [b"None", b"", b""],
        Some(FramingChoice::None) => [b"Some(None)", b"", b""],
        Some(FramingChoice::Chunked) => [b"Some(Chunked)", b"", b""],
        Some(FramingChoice::ContentLength(n)) => {
            let mut at = digits.len();
            let mut n = n;
            loop {
                at -= 1;
                digits[at] = b'0' + (n % 10) as u8;
                n /= 10;
                if n == 0 {
                    break;
                }
            }
            [b"Some(ContentLength(", &digits[at..], b"))"]
        }
    };
    h.write_parts(&parts);
}

/// Canonical behavior digests for one case outcome: one per direct
/// back-end view, one per proxy chain (covering the proxy's own
/// interpretations, the exact forwarded bytes, and every step-2 replay).
/// The cross-transport consistency pass compares these digests between a
/// sim and a TCP execution of the same case.
pub fn behavior_digests(outcome: &CaseOutcome) -> Vec<(String, u64)> {
    let mut out = Vec::with_capacity(outcome.direct.len() + outcome.chains.len());
    for (backend, replies) in &outcome.direct {
        let mut h = Fnv::new();
        for reply in replies {
            hash_interpretation(&mut h, backend, &reply.interpretation);
            h.write_u64(u64::from(reply.response.status.as_u16()));
        }
        out.push((format!("direct:{backend}"), h.0));
    }
    for chain in &outcome.chains {
        let mut h = Fnv::new();
        for r in &chain.proxy_results {
            hash_interpretation(&mut h, &chain.proxy, &r.interpretation);
        }
        h.write(&chain.forwarded);
        h.write_u64(chain.forwarded_count as u64);
        for replay in &chain.replays {
            h.write(replay.backend.as_bytes());
            h.write_u64(u64::from(replay.cache_stored_error));
            for reply in &replay.replies {
                hash_interpretation(&mut h, &replay.backend, &reply.interpretation);
                h.write_u64(u64::from(reply.response.status.as_u16()));
            }
        }
        out.push((format!("proxy:{}", chain.proxy), h.0));
    }
    out
}

// ---------------------------------------------------------------------------
// Hex codec
// ---------------------------------------------------------------------------

fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(s: &str) -> io::Result<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return Err(data_err("odd-length hex request"));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(s.get(i..i + 2).unwrap_or_default(), 16)
                .map_err(|_| data_err("invalid hex request"))
        })
        .collect()
}

/// Pads a request with inert noise headers (inserted before the blank
/// line) to model the generation noise a campaign case carries; the
/// minimizer's job is to strip them back out.
fn pad_with_noise(bytes: &[u8]) -> Vec<u8> {
    let Some(head_end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") else {
        return bytes.to_vec();
    };
    let mut out = bytes[..head_end + 2].to_vec();
    let mut i = 0usize;
    while out.len() + (bytes.len() - head_end - 2) < bytes.len() * 3 {
        out.extend_from_slice(format!("X-Pad-{i}: {:a>40}\r\n", "").as_bytes());
        i += 1;
    }
    out.extend_from_slice(&bytes[head_end + 2..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_gen::AttackClass;

    #[test]
    fn framing_and_text_hash_as_their_rendered_strings() {
        let written = |text: &str| {
            let mut h = Fnv::new();
            h.write(text.as_bytes());
            h.0
        };
        for framing in [
            None,
            Some(FramingChoice::None),
            Some(FramingChoice::Chunked),
            Some(FramingChoice::ContentLength(0)),
            Some(FramingChoice::ContentLength(1_234_567)),
            Some(FramingChoice::ContentLength(u64::MAX)),
        ] {
            let mut h = Fnv::new();
            hash_framing(&mut h, framing);
            assert_eq!(h.0, written(&format!("{framing:?}")), "{framing:?}");
        }
        let mut h = Fnv::new();
        h.write_display(&format_args!("{} of {:?}", 3, "é"));
        assert_eq!(h.0, written("3 of \"é\""));
        let mut h = Fnv::new();
        h.write_parts(&[b"ab", b"", b"c"]);
        assert_eq!(h.0, written("abc"));
    }

    fn dual_host() -> Vec<u8> {
        b"GET / HTTP/1.1\r\nHost: h1.com\r\nHost: h2.com\r\n\r\n".to_vec()
    }

    #[test]
    fn record_then_replay_passes() {
        let workflow = Workflow::standard();
        let profiles = hdiff_servers::products();
        let bundle = ReplayBundle::record(
            "dual-host",
            "two plain Host headers",
            77,
            "catalog:multiple-host",
            &dual_host(),
            None,
            &workflow,
            &profiles,
            None,
        );
        assert!(bundle.findings.iter().any(|f| f.class == AttackClass::Hot));
        assert_eq!(bundle.digests.len(), 12, "6 direct + 6 proxy views");
        let report = bundle.replay(&workflow, &profiles, None);
        assert!(report.passed(), "{}", report.summary());
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let workflow = Workflow::standard();
        let profiles = hdiff_servers::products();
        let bundle = ReplayBundle::record(
            "rt",
            "roundtrip \"quoted\" — unicode",
            3,
            "catalog:multiple-host",
            b"GET / HTTP/1.1\r\nHost: h1.com\r\nHost: h2.com\r\n\r\n\x00\xff",
            Some((42, 7)),
            &workflow,
            &profiles,
            None,
        );
        let parsed = ReplayBundle::from_json(bundle.to_json().as_bytes()).unwrap();
        assert_eq!(bundle, parsed);
    }

    #[test]
    fn tampered_request_is_caught_as_drift() {
        let workflow = Workflow::standard();
        let profiles = hdiff_servers::products();
        let mut bundle = ReplayBundle::record(
            "tampered",
            "",
            5,
            "catalog:multiple-host",
            &dual_host(),
            None,
            &workflow,
            &profiles,
            None,
        );
        // Swap the second host: the verdict class may survive but the
        // behavior digests must not.
        let pos = bundle.request.windows(6).position(|w| w == b"h2.com").unwrap();
        bundle.request[pos] = b'x';
        let report = bundle.replay(&workflow, &profiles, None);
        assert!(!report.passed(), "{report:?}");
        assert!(!report.drifted.is_empty());
    }

    #[test]
    fn corrupt_and_mismatched_bundles_are_errors() {
        assert!(ReplayBundle::from_json(b"{").is_err());
        assert!(ReplayBundle::from_json(b"{\"version\":99}").is_err());
        assert!(ReplayBundle::from_json(
            b"{\"version\":1,\"name\":\"x\",\"description\":\"\",\"uuid\":1,\"origin\":\"o\",\"request_hex\":\"zz\",\"fault\":null,\"findings\":[],\"digests\":[]}"
        )
        .is_err());
    }

    #[test]
    fn hex_roundtrips_arbitrary_octets() {
        let all: Vec<u8> = (0..=255u8).collect();
        assert_eq!(hex_decode(&hex_encode(&all)).unwrap(), all);
        assert!(hex_decode("abc").is_err());
    }

    #[test]
    fn save_load_and_replay_dir() {
        let dir = std::env::temp_dir().join("hdiff-replay-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let workflow = Workflow::standard();
        let profiles = hdiff_servers::products();
        let bundle = ReplayBundle::record(
            "on-disk",
            "",
            9,
            "catalog:multiple-host",
            &dual_host(),
            None,
            &workflow,
            &profiles,
            None,
        );
        bundle.save(&dir.join("on-disk.json")).unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let reports = replay_dir(&dir, &workflow, &profiles, None).unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].1.passed());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn h2_bundle_records_replays_and_round_trips() {
        let wf = DowngradeWorkflow::standard();
        let requests =
            vec![hdiff_h2::H2Request::post("/upload", "example.com", b"AAAAAAAAAAA".to_vec())
                .with_header("content-length", "3")];
        let bytes =
            hdiff_h2::encode_client_connection(&requests, &hdiff_h2::EncodeOptions::default());
        let bundle = ReplayBundle::record_h2("h2-cl", "lying CL", 11, "h2:cl-short", &bytes, &wf);
        assert_eq!(bundle.frontend, Frontend::H2);
        assert!(!bundle.findings.is_empty());
        assert!(bundle.digests.iter().any(|(l, _)| l == "h2:conn"));

        // The JSON carries the frontend key and survives a roundtrip.
        let json = bundle.to_json();
        assert!(json.contains("\"frontend\":\"h2\""));
        let parsed = ReplayBundle::from_json(json.as_bytes()).unwrap();
        assert_eq!(bundle, parsed);

        // Replay dispatches to the downgrade matrix and passes; the h1
        // workflow arguments are ignored for h2 bundles.
        let workflow = Workflow::standard();
        let profiles = hdiff_servers::products();
        let report = parsed.replay(&workflow, &profiles, None);
        assert!(report.passed(), "{}", report.summary());

        // Tampering with the connection bytes is caught as drift.
        let mut tampered = parsed.clone();
        let last = tampered.request.len() - 1;
        tampered.request[last] ^= 0xff;
        let report = tampered.replay(&workflow, &profiles, None);
        assert!(!report.passed());
    }

    #[test]
    fn h1_bundles_do_not_write_a_frontend_key() {
        let workflow = Workflow::standard();
        let profiles = hdiff_servers::products();
        let bundle = ReplayBundle::record(
            "plain",
            "",
            1,
            "catalog:multiple-host",
            &dual_host(),
            None,
            &workflow,
            &profiles,
            None,
        );
        assert!(!bundle.to_json().contains("frontend"));
    }

    #[test]
    fn noise_padding_triples_and_minimizes_away() {
        let padded = pad_with_noise(&dual_host());
        assert!(padded.len() >= dual_host().len() * 5 / 2);
        assert!(padded.windows(6).any(|w| w == b"X-Pad-"));
        // The padded case still ends with the original body section.
        assert!(padded.ends_with(b"\r\n\r\n"));
    }
}
