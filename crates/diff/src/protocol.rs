//! The protocol-generic campaign core.
//!
//! HDiff's methodology — extract grammars and requirements from an RFC
//! family, generate seed cases, fan them out over behavioral profiles,
//! diff the observables, minimize and freeze what diverges — is not
//! HTTP-specific, but the machinery grew up HTTP-hardwired. [`Protocol`]
//! is the seam: one trait bundling everything the campaign driver needs
//! to know about a workload (its grammar set, its seed corpus, how to
//! execute one case into findings + behavior digests, how to classify
//! and minimize a finding, and how to freeze a replay bundle).
//!
//! [`run_protocol_campaign`] is the driver every workload shares. It is
//! the exact shape the h2 downgrade campaign pioneered — deterministic
//! work-stealing fan-out, findings merged in corpus order, first finding
//! of each class tag minimized and promoted — hoisted above the protocol.
//! The h2 downgrade surface itself now runs through it (see
//! [`crate::downgrade::DowngradeProtocol`]), HTTP/1.1 is available
//! behind it as [`crate::http1::Http1Protocol`], and the cookie workload
//! (`hdiff-cookie`) is the first non-HTTP instance.
//!
//! Protocol-keyed [`ReplayBundle`]s carry a `protocol` name so `hdiff
//! replay` can route them back to the instance that recorded them; the
//! key is absent for classic h1/h2 bundles, keeping the golden corpora
//! byte-identical.

use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};

use crate::findings::Finding;
use crate::replay::{ReplayBundle, ReplayReport};
use crate::schedule;
use crate::transport::Transport;
use crate::Frontend;

/// One seed case of a protocol workload: a stable identifier, a
/// human-readable description (carried into promoted bundles), and the
/// exact client bytes the campaign executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoCase {
    /// Stable identifier; campaign origins are `<protocol>:<id>`.
    pub id: String,
    /// What the case demonstrates.
    pub description: String,
    /// The encoded case (a protocol-specific byte form that
    /// [`Protocol::execute`] parses back).
    pub bytes: Vec<u8>,
}

/// One implementation's observable view of a case, reduced to a metrics
/// vector: the accept/reject verdict plus named observables the
/// detection models compare across views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoView {
    /// Name of the behavioral profile that produced this view.
    pub view: String,
    /// Whether the profile accepted the case.
    pub accepted: bool,
    /// Status code (or protocol-specific equivalent; 0 when none).
    pub status: u16,
    /// Named observables, in a stable order.
    pub metrics: Vec<(String, String)>,
}

/// Everything one executed case produced: per-profile views, the
/// detection model's findings, and behavior digests (the determinism
/// anchor replay bundles freeze).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoExecution {
    /// Per-profile observable views.
    pub views: Vec<ProtoView>,
    /// Findings the workload's detection models flagged.
    pub findings: Vec<Finding>,
    /// Labelled FNV-1a digests of every view's behavior.
    pub digests: Vec<(String, u64)>,
}

/// A differential workload: grammars, seed corpus, execution, detection,
/// minimization, and bundle recording for one protocol family.
///
/// Implementations must be deterministic: same bytes, same
/// [`ProtoExecution`], regardless of thread count or call order — that
/// is what makes [`run_protocol_campaign`] thread-invariant.
pub trait Protocol: Sync {
    /// Stable workload name: the campaign origin prefix, the promoted
    /// bundle name prefix, and the `protocol` key in replay bundles.
    fn name(&self) -> &'static str;

    /// Base for case UUIDs, distinct per workload so merged reports stay
    /// attributable.
    fn uuid_base(&self) -> u64;

    /// The ABNF grammar set behind the workload, as `(rule-set name,
    /// grammar)` pairs. Empty for binary-framed surfaces with no ABNF
    /// grammar (e.g. the h2 downgrade front).
    fn grammars(&self) -> Vec<(String, hdiff_abnf::Grammar)>;

    /// The seed corpus, in canonical (deterministic) order.
    fn seed_cases(&self) -> Vec<ProtoCase>;

    /// Executes one case in-process.
    fn execute(&self, uuid: u64, origin: &str, bytes: &[u8]) -> ProtoExecution;

    /// The divergence-class tag of a finding this workload emitted
    /// (conventionally an evidence prefix `<name>:<tag>: …`), or `None`
    /// for findings from other detectors.
    fn finding_tag(&self, f: &Finding) -> Option<String>;

    /// Structurally minimizes `bytes` while the `target` finding keeps
    /// reproducing (same class, tag, front, back). Must return bytes
    /// that still trigger the finding; returning the input unchanged is
    /// always sound.
    fn minimize(&self, bytes: &[u8], target: &Finding) -> Vec<u8>;

    /// Freezes `bytes` as a replay bundle. The default executes the case
    /// and records a protocol-keyed bundle that [`ReplayBundle::replay_protocol`]
    /// re-verifies; workloads with a richer bespoke format (h1's
    /// fault-aware bundles, h2's frontend-keyed ones) override this.
    fn record_bundle(
        &self,
        name: &str,
        description: &str,
        uuid: u64,
        origin: &str,
        bytes: &[u8],
    ) -> ReplayBundle {
        let exec = self.execute(uuid, origin, bytes);
        ReplayBundle {
            name: name.to_string(),
            description: description.to_string(),
            uuid,
            origin: origin.to_string(),
            request: bytes.to_vec(),
            fault: None,
            findings: exec.findings,
            digests: exec.digests,
            transport: Transport::Sim,
            frontend: Frontend::H1,
            protocol: Some(self.name().to_string()),
        }
    }
}

impl ReplayBundle {
    /// Re-executes a protocol-keyed bundle against `p` and diffs
    /// verdicts and digests, exactly like [`ReplayBundle::replay`] does
    /// for h1/h2 bundles.
    pub fn replay_protocol(&self, p: &dyn Protocol) -> ReplayReport {
        let exec = p.execute(self.uuid, &self.origin, &self.request);
        ReplayReport {
            bundle: self.name.clone(),
            missing: self.findings.iter().filter(|f| !exec.findings.contains(f)).cloned().collect(),
            unexpected: exec
                .findings
                .iter()
                .filter(|f| !self.findings.contains(f))
                .cloned()
                .collect(),
            drifted: crate::replay::diff_digests(&self.digests, &exec.digests),
        }
    }
}

/// Options for [`run_protocol_campaign`].
#[derive(Debug, Clone, Default)]
pub struct ProtocolCampaignOptions {
    /// Worker threads for the case fan-out (`0`/`1` runs inline).
    pub threads: usize,
    /// When set, the first finding of each class tag is minimized and
    /// promoted to a replay bundle in this directory.
    pub promote_dir: Option<PathBuf>,
}

/// What a protocol campaign produced.
#[derive(Debug, Clone)]
pub struct ProtocolSummary {
    /// The workload's [`Protocol::name`].
    pub protocol: String,
    /// Seed cases executed.
    pub cases: usize,
    /// Every finding, in corpus order.
    pub findings: Vec<Finding>,
    /// Sorted distinct class tags observed.
    pub classes: Vec<String>,
    /// Replay bundles written (when `promote_dir` was set).
    pub promoted: Vec<PathBuf>,
}

/// The `<protocol>.campaign.cases` counter name, interned once per
/// protocol so later campaigns build no string.
fn campaign_cases_counter(protocol: &'static str) -> &'static str {
    static INTERNED: Mutex<Vec<(&'static str, &'static str)>> = Mutex::new(Vec::new());
    // Entries are pushed whole, so a poisoned list is still valid.
    let mut interned = INTERNED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&(_, name)) = interned.iter().find(|(p, _)| *p == protocol) {
        return name;
    }
    let name = hdiff_obs::MetricId::counter(&format!("{protocol}.campaign.cases")).name();
    interned.push((protocol, name));
    name
}

/// Runs a workload's seed corpus through its differential matrix: the
/// shared campaign driver. Deterministic and invariant in `threads`
/// (cases fan out via [`schedule::run_stealing`], findings merge in
/// corpus order); when promoting, the first finding of each class tag is
/// minimized and frozen as `<protocol>-<tag>.json`. Workers record
/// under the calling thread's telemetry switches.
pub fn run_protocol_campaign(
    p: &dyn Protocol,
    opts: &ProtocolCampaignOptions,
) -> io::Result<ProtocolSummary> {
    let seeds = p.seed_cases();
    let cases: Vec<(u64, ProtoCase)> =
        seeds.into_iter().enumerate().map(|(i, c)| (p.uuid_base() + i as u64, c)).collect();

    let recorder = hdiff_obs::Recorder::capture();
    let per_case: Vec<Vec<Finding>> =
        schedule::run_stealing(&cases, opts.threads.max(1), |(uuid, case)| {
            let origin = format!("{}:{}", p.name(), case.id);
            recorder.apply(|| p.execute(*uuid, &origin, &case.bytes).findings)
        });

    let mut findings = Vec::new();
    for case_findings in &per_case {
        findings.extend(case_findings.iter().cloned());
    }

    let mut classes: BTreeSet<String> = BTreeSet::new();
    for f in &findings {
        if let Some(tag) = p.finding_tag(f) {
            classes.insert(tag);
        }
    }

    let mut promoted = Vec::new();
    if let Some(dir) = &opts.promote_dir {
        std::fs::create_dir_all(dir)?;
        let mut done: BTreeSet<String> = BTreeSet::new();
        for (idx, case_findings) in per_case.iter().enumerate() {
            let (_, case) = &cases[idx];
            for f in case_findings {
                let Some(tag) = p.finding_tag(f) else { continue };
                if !done.insert(tag.clone()) {
                    continue;
                }
                let minimized = p.minimize(&case.bytes, f);
                let name = format!("{}-{tag}", p.name());
                let bundle =
                    p.record_bundle(&name, &case.description, f.uuid, &f.origin, &minimized);
                let path = dir.join(format!("{name}.json"));
                bundle.save(&path)?;
                promoted.push(path);
            }
        }
    }

    hdiff_obs::count(campaign_cases_counter(p.name()), cases.len() as u64);
    Ok(ProtocolSummary {
        protocol: p.name().to_string(),
        cases: cases.len(),
        findings,
        classes: classes.into_iter().collect(),
        promoted,
    })
}
