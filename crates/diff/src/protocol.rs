//! The protocol-generic campaign core.
//!
//! HDiff's methodology — generate seed cases, fan them out over
//! behavioral profiles, diff the observables, minimize and freeze what
//! diverges — is not HTTP-specific. [`Protocol`] is the seam: one trait
//! holding exactly what the campaign driver calls for a workload (its
//! seed corpus, how to execute one case into findings + behavior
//! digests, how to classify and minimize a finding, and how to freeze a
//! replay bundle).
//!
//! [`run_protocol_campaign`] runs a workload's seed corpus through the
//! campaign driver h1 uses ([`crate::runner`]), returns the same
//! [`RunSummary`], and promotes the first finding of each class tag,
//! minimized. The h2 downgrade surface runs through it on both
//! transports (see [`crate::downgrade::DowngradeProtocol`]), and the
//! cookie workload (`hdiff-cookie`) is the first non-HTTP instance.
//! HTTP/1.1 gets its corpus from the generation pipeline and reaches
//! the same driver through [`crate::DiffEngine`].
//!
//! Protocol-keyed [`ReplayBundle`]s carry a `protocol` name so `hdiff
//! replay` can route them back to the instance that recorded them; the
//! key is absent for classic h1/h2 bundles, keeping the golden corpora
//! byte-identical.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::PathBuf;

use hdiff_servers::fault::FaultPlan;

use crate::findings::Finding;
use crate::replay::{ReplayBundle, ReplayReport};
use crate::runner::{drive, fold_records, Attempt, CaseError, Driver, RunSummary};
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

/// Everything one executed case produced: the detection model's findings
/// and behavior digests (the determinism anchor replay bundles freeze).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoExecution {
    /// Findings the workload's detection models flagged.
    pub findings: Vec<Finding>,
    /// Labelled FNV-1a digests of every view's behavior.
    pub digests: Vec<(String, u64)>,
}

/// A differential workload: seed corpus, execution, detection,
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

    /// The seed corpus, in canonical (deterministic) order.
    fn seed_cases(&self) -> Vec<ProtoCase>;

    /// Executes one case. Fails only when the workload's transport
    /// cannot serve it (an in-process workload never fails).
    fn execute(&self, uuid: u64, origin: &str, bytes: &[u8]) -> io::Result<ProtoExecution>;

    /// The transport [`Protocol::execute`] runs cases over, reported in
    /// the campaign's [`RunSummary`]. In-process unless overridden.
    fn transport(&self) -> Transport {
        Transport::Sim
    }

    /// The divergence-class tag of a finding this workload emitted
    /// (conventionally an evidence prefix `<name>:<tag>: …`), or `None`
    /// for findings from other detectors.
    fn finding_tag(&self, f: &Finding) -> Option<String>;

    /// Structurally minimizes `bytes` while the `target` finding keeps
    /// reproducing (see [`reproduces`]), one level of the case's
    /// structure at a time through [`crate::minimize::ddmin_items`],
    /// under one attempt budget. Must return bytes that still trigger
    /// the finding; returning the input unchanged is always sound.
    fn minimize(&self, bytes: &[u8], target: &Finding) -> Vec<u8>;

    /// Freezes `bytes` as a replay bundle. The default executes the case
    /// and records a protocol-keyed bundle that [`ReplayBundle::replay_protocol`]
    /// re-verifies; h2 overrides it with its frontend-keyed format.
    fn record_bundle(
        &self,
        name: &str,
        description: &str,
        uuid: u64,
        origin: &str,
        bytes: &[u8],
    ) -> io::Result<ReplayBundle> {
        let exec = self.execute(uuid, origin, bytes)?;
        Ok(ReplayBundle {
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
        })
    }
}

impl ReplayBundle {
    /// Re-executes the bundle against `p` and diffs verdicts and digests,
    /// exactly like [`ReplayBundle::replay`] does for h1 bundles.
    ///
    /// # Panics
    ///
    /// Panics if `p` cannot execute the case (its testbed failed).
    pub fn replay_protocol(&self, p: &dyn Protocol) -> ReplayReport {
        let exec = p
            .execute(self.uuid, &self.origin, &self.request)
            .unwrap_or_else(|e| panic!("{} replay cannot execute: {e}", p.name()));
        self.report(&exec.findings, &exec.digests)
    }
}

/// Whether `findings` reproduce `target` for workload `p`: one of them
/// shows the [same divergence](Finding::same_divergence) under the same
/// [`Protocol::finding_tag`]. Every seed workload's minimizer keeps a
/// candidate only while this holds; it is a free function so that no
/// workload can loosen it.
pub fn reproduces(p: &dyn Protocol, target: &Finding, findings: &[Finding]) -> bool {
    let tag = p.finding_tag(target);
    findings.iter().any(|f| f.same_divergence(target) && p.finding_tag(f) == tag)
}

/// Options for [`run_protocol_campaign`].
#[derive(Debug, Clone, Default)]
pub struct ProtocolCampaignOptions {
    /// Worker threads for the case fan-out; `0` means one per available
    /// core, `1` runs inline.
    pub threads: usize,
    /// When set, the first finding of each class tag is minimized and
    /// promoted to a replay bundle in this directory.
    pub promote_dir: Option<PathBuf>,
}

/// What a protocol campaign produced: the driver's [`RunSummary`] plus
/// what only a seed-corpus workload has.
#[derive(Debug, Clone)]
pub struct ProtocolSummary {
    /// The campaign summary; its `quarantined` cases panicked, added no
    /// findings and are never promoted.
    pub run: RunSummary,
    /// Sorted distinct class tags observed.
    pub classes: Vec<String>,
    /// Replay bundles written (when `promote_dir` was set).
    pub promoted: Vec<PathBuf>,
}

/// A seed case and its campaign uuid.
type SeedCase = (u64, ProtoCase);

/// `p`'s seed corpus, uuids counted from [`Protocol::uuid_base`].
fn seed_corpus(p: &dyn Protocol) -> Vec<SeedCase> {
    let seeds = p.seed_cases().into_iter().enumerate();
    seeds.map(|(i, case)| (p.uuid_base() + i as u64, case)).collect()
}

/// One attempt at a seed case, under the origin `<protocol>:<id>`. A seed
/// workload has no fault model: the driver's fault session goes unused.
fn seed_attempt(p: &dyn Protocol, (uuid, case): &SeedCase) -> io::Result<Attempt> {
    let origin = format!("{}:{}", p.name(), case.id);
    let exec = p.execute(*uuid, &origin, &case.bytes)?;
    Ok(Attempt { findings: exec.findings, ..Attempt::default() })
}

/// Runs a workload's seed corpus through its differential matrix on the
/// campaign driver ([`crate::runner::drive`]): one chunk, no checkpoint,
/// no faults. Deterministic and invariant in `threads`; when promoting,
/// the first finding of each class tag is minimized and frozen as
/// `<protocol>-<tag>.json`. A case whose execution panics is
/// quarantined; a case the workload fails to execute fails the campaign
/// with the first such error in corpus order. Cases record under the
/// calling thread's telemetry switches.
pub fn run_protocol_campaign(
    p: &dyn Protocol,
    opts: &ProtocolCampaignOptions,
) -> io::Result<ProtocolSummary> {
    let cases = seed_corpus(p);
    let driver = Driver {
        threads: opts.threads,
        fault_plan: &FaultPlan::disabled(),
        checkpoint_every: cases.len(),
        stop_after_chunks: None,
        progress: None,
    };
    let uuid = |c: &SeedCase| c.0;
    let mut completed = BTreeMap::new();
    drive(&driver, &cases, uuid, |c, _| seed_attempt(p, c), &mut completed, None, 0)?;

    let records = || cases.iter().map(|c| (&c.1, &completed[&c.0]));
    for (_, record) in records() {
        if let Some(CaseError::Io(detail)) = &record.error {
            return Err(io::Error::other(detail.clone()));
        }
    }

    let mut promoted = Vec::new();
    if let Some(dir) = &opts.promote_dir {
        std::fs::create_dir_all(dir)?;
        let mut done: BTreeSet<String> = BTreeSet::new();
        for (case, record) in records() {
            for f in &record.findings {
                let Some(tag) = p.finding_tag(f) else { continue };
                if !done.insert(tag.clone()) {
                    continue;
                }
                let minimized = p.minimize(&case.bytes, f);
                let name = format!("{}-{tag}", p.name());
                let bundle =
                    p.record_bundle(&name, &case.description, f.uuid, &f.origin, &minimized)?;
                let path = dir.join(format!("{name}.json"));
                bundle.save(&path)?;
                promoted.push(path);
            }
        }
    }

    let run = fold_records(&cases, uuid, completed, &Default::default(), p.transport(), |_| {});
    let classes: BTreeSet<String> = run.findings.iter().filter_map(|f| p.finding_tag(f)).collect();
    Ok(ProtocolSummary { run, classes: classes.into_iter().collect(), promoted })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint;
    use crate::findings::Culprits;
    use crate::transport::Transport::Sim;
    use hdiff_gen::AttackClass;
    use hdiff_servers::fault::FaultSession;

    const BASE: u64 = 100;

    /// Eight cases, each flagging one finding tagged by its parity, except
    /// that the cases at `panics_at` panic and those at `fails_at` cannot
    /// be served.
    struct Fragile {
        panics_at: u8,
        fails_at: Vec<u8>,
    }

    impl Protocol for Fragile {
        fn name(&self) -> &'static str {
            "fragile"
        }

        fn uuid_base(&self) -> u64 {
            BASE
        }

        fn seed_cases(&self) -> Vec<ProtoCase> {
            (0..8u8)
                .map(|i| ProtoCase {
                    id: format!("c{i}"),
                    description: String::new(),
                    bytes: vec![i],
                })
                .collect()
        }

        fn execute(&self, uuid: u64, origin: &str, bytes: &[u8]) -> io::Result<ProtoExecution> {
            assert_ne!(bytes[0], self.panics_at, "hostile case");
            if self.fails_at.contains(&bytes[0]) {
                return Err(io::Error::other(format!("{origin} unserved")));
            }
            let finding = Finding {
                class: AttackClass::Hrs,
                uuid,
                origin: origin.into(),
                front: None,
                back: None,
                culprits: Culprits::default(),
                evidence: format!("fragile:parity{}: case {}", bytes[0] % 2, bytes[0]).into(),
            };
            Ok(ProtoExecution { findings: vec![finding], digests: Vec::new() })
        }

        fn finding_tag(&self, f: &Finding) -> Option<String> {
            let rest = f.evidence.as_text()?.strip_prefix("fragile:")?;
            Some(rest[..rest.find(':')?].to_string())
        }

        fn minimize(&self, bytes: &[u8], _target: &Finding) -> Vec<u8> {
            bytes.to_vec()
        }
    }

    #[test]
    fn a_panicking_case_is_quarantined_at_any_thread_count() {
        let dir = std::env::temp_dir().join(format!("hdiff-fragile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fragile = Fragile { panics_at: 1, fails_at: Vec::new() };
        let run = |threads: usize| {
            let promote_dir = Some(dir.join(threads.to_string()));
            run_protocol_campaign(&fragile, &ProtocolCampaignOptions { threads, promote_dir })
                .expect("a panic does not fail the campaign")
        };
        let (one, four) = (run(1), run(4));
        assert_eq!(one.run.cases, 8);
        assert_eq!(one.run.quarantined, vec![BASE + 1]);
        let flagged: Vec<u64> = one.run.findings.iter().map(|f| f.uuid).collect();
        let expected: Vec<u64> = [0, 2, 3, 4, 5, 6, 7].iter().map(|i| BASE + i).collect();
        assert_eq!(flagged, expected, "every other case keeps its findings");
        assert_eq!(one.classes, ["parity0", "parity1"]);
        // The quarantined case was the first of its class; the class is
        // promoted from the next case instead.
        let parity1 = one.promoted.iter().find(|p| p.ends_with("fragile-parity1.json")).unwrap();
        assert_eq!(ReplayBundle::load(parity1).unwrap().uuid, BASE + 3);
        assert_eq!(
            (&one.run.findings, &one.classes, &one.run.quarantined),
            (&four.run.findings, &four.classes, &four.run.quarantined)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_finding_under_another_tag_does_not_reproduce() {
        let fragile = Fragile { panics_at: u8::MAX, fails_at: Vec::new() };
        let finding = |case| fragile.execute(BASE, "fragile:c", &[case]).unwrap().findings;
        let (even, odd, even_again) = (finding(0), finding(1), finding(2));
        assert!(even[0].same_divergence(&odd[0]), "same class, front and back");
        assert!(!reproduces(&fragile, &even[0], &odd), "parity1 is another tag");
        assert!(reproduces(&fragile, &even[0], &even_again));
    }

    #[test]
    fn the_first_unserved_case_in_corpus_order_fails_the_campaign() {
        let fragile = Fragile { panics_at: u8::MAX, fails_at: vec![6, 2] };
        for threads in [1, 4] {
            let opts = ProtocolCampaignOptions { threads, promote_dir: None };
            let err = run_protocol_campaign(&fragile, &opts).unwrap_err();
            assert_eq!(err.to_string(), "fragile:c2 unserved", "threads={threads}");
        }
    }

    #[test]
    fn a_killed_seed_campaign_resumes_to_the_uninterrupted_summary() {
        // The kill-and-resume gate, on a seed workload: stop after one
        // three-case chunk with a checkpoint, resume from it, and fold the
        // records into the summary an uninterrupted campaign returns,
        // quarantined case and per-case telemetry included.
        let fragile = Fragile { panics_at: 1, fails_at: Vec::new() };
        let cases = seed_corpus(&fragile);
        let attempt = |c: &SeedCase, _: &FaultSession| seed_attempt(&fragile, c);
        for threads in [1, 4] {
            let path = std::env::temp_dir()
                .join(format!("hdiff-fragile-resume-{}-{threads}.ckpt", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let plan = FaultPlan::disabled();
            let mut driver = Driver {
                threads,
                fault_plan: &plan,
                checkpoint_every: 3,
                stop_after_chunks: Some(1),
                progress: None,
            };
            let mut first = BTreeMap::new();
            let generation =
                drive(&driver, &cases, |c| c.0, attempt, &mut first, Some(&path), 0).unwrap();
            assert_eq!((first.len(), generation), (3, 1), "threads={threads}");

            driver.stop_after_chunks = None;
            let (mut resumed, generation) = checkpoint::load_with_generation(&path).unwrap();
            assert_eq!(resumed.len(), 3, "threads={threads}");
            drive(&driver, &cases, |c| c.0, attempt, &mut resumed, Some(&path), generation)
                .unwrap();
            let summary = fold_records(&cases, |c| c.0, resumed, &Default::default(), Sim, |_| {});

            let opts = ProtocolCampaignOptions { threads, promote_dir: None };
            let uninterrupted = run_protocol_campaign(&fragile, &opts).unwrap().run;
            assert_eq!(summary, uninterrupted, "threads={threads}");
            assert_eq!(summary.quarantined, vec![BASE + 1]);
            assert_eq!(summary.telemetry.merged.spans["case"].count, 8);
            let _ = std::fs::remove_file(&path);
        }
    }
}
