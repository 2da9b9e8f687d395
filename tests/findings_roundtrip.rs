//! Findings through the on-disk formats.
//!
//! A finding is stored compactly in memory (name handles, an inline
//! culprit pair, typed evidence) but written as text: checkpoints and
//! replay bundles carry every name and the rendered evidence. Reading
//! one back must give a finding equal to the one written — the resumed
//! campaign's summary and a bundle's replay verdict compare findings —
//! and writing that again must give the same bytes. This runs every
//! finding of the Table II catalog campaign (no syntax oracle) and of
//! `HDiff::new(HdiffConfig::full()).run()` (with one) through both
//! codecs, checks that a case's findings share one origin allocation,
//! and that a file naming more than two culprits is refused by name.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use hdiff::diff::{checkpoint, CaseRecord, DiffEngine, Finding, Frontend, ReplayBundle, Transport};
use hdiff::gen::{catalog, Origin, TestCase};
use hdiff::{HDiff, HdiffConfig};

fn catalog_cases() -> Vec<TestCase> {
    let mut cases = Vec::new();
    for entry in catalog::catalog() {
        for (request, note) in entry.requests {
            cases.push(TestCase {
                uuid: cases.len() as u64 + 1,
                request,
                assertions: Vec::new(),
                origin: Origin::Catalog(entry.id.to_string()),
                note,
            });
        }
    }
    cases
}

/// Every finding of the two campaigns, by campaign.
fn campaigns() -> [(&'static str, Vec<Finding>); 2] {
    [
        ("catalog", DiffEngine::standard().run(&catalog_cases()).findings),
        ("full", HDiff::new(HdiffConfig::full()).run().summary.findings),
    ]
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hdiff-findings-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The findings grouped into one record per case, as a campaign
/// checkpoints them.
fn records_of(findings: &[Finding]) -> BTreeMap<u64, CaseRecord> {
    let mut records: BTreeMap<u64, CaseRecord> = BTreeMap::new();
    for f in findings {
        let record = records
            .entry(f.uuid)
            .or_insert_with(|| CaseRecord { uuid: f.uuid, ..CaseRecord::default() });
        record.findings.push(f.clone());
    }
    records
}

fn bundle_of(name: &str, findings: Vec<Finding>) -> ReplayBundle {
    ReplayBundle {
        name: name.to_string(),
        description: "every finding of a campaign".to_string(),
        uuid: 1,
        origin: "test".to_string(),
        request: b"GET / HTTP/1.1\r\nHost: h\r\n\r\n".to_vec(),
        fault: None,
        findings,
        digests: Vec::new(),
        transport: Transport::Sim,
        frontend: Frontend::H1,
        protocol: None,
    }
}

#[test]
fn a_finding_fits_in_64_bytes() {
    let size = std::mem::size_of::<Finding>();
    assert!(size <= 64, "Finding is {size} bytes");
}

#[test]
fn every_finding_reads_back_equal_from_checkpoints_and_bundles() {
    let dir = scratch_dir("roundtrip");
    for (name, findings) in campaigns() {
        assert!(!findings.is_empty(), "{name}: no findings");

        let path = dir.join(format!("{name}.json"));
        let records = records_of(&findings);
        checkpoint::save_with_generation(&path, &records, 1).unwrap();
        let written = std::fs::read(&path).unwrap();
        let loaded = checkpoint::load(&path).unwrap();
        assert_eq!(loaded, records, "{name}: checkpoint records changed in the round trip");
        for (read, original) in loaded.values().flat_map(|r| &r.findings).zip(&findings) {
            assert_eq!(read.to_string(), original.to_string(), "{name}");
        }
        checkpoint::save_with_generation(&path, &loaded, 1).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), written, "{name}: checkpoint bytes drifted");

        let bundle = bundle_of(name, findings.clone());
        let json = bundle.to_json();
        let read = ReplayBundle::from_json(json.as_bytes()).unwrap();
        assert_eq!(read.findings, findings, "{name}: bundle findings changed in the round trip");
        assert_eq!(read, bundle);
        assert_eq!(read.to_json(), json, "{name}: bundle bytes drifted");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_findings_of_a_case_share_one_origin() {
    for (name, findings) in campaigns() {
        for record in records_of(&findings).values() {
            let first = &record.findings[0].origin;
            assert!(
                record.findings.iter().all(|f| Arc::ptr_eq(&f.origin, first)),
                "{name}: case #{} holds more than one origin allocation",
                record.uuid
            );
        }
    }
}

#[test]
fn a_finding_with_three_culprits_fails_to_load_by_name() {
    let finding = r#"{"class":"HRS","uuid":1,"origin":"catalog:x","front":null,"back":null,"culprits":["apache","iis","nginx"],"evidence":"e"}"#;
    let dir = scratch_dir("culprits");
    let path = dir.join("checkpoint.json");
    std::fs::write(
        &path,
        format!(
            r#"{{"version":1,"generation":1,"completed":[{{"uuid":1,"replayed":false,"retries":0,"backoff_units":0,"quarantined":false,"error":null,"findings":[{finding}],"degradations":[]}}]}}"#
        ),
    )
    .unwrap();
    let err = checkpoint::load(&path).unwrap_err();
    assert!(err.to_string().contains("more than two culprits"), "{err}");
    std::fs::remove_dir_all(&dir).ok();

    let bundle = format!(
        r#"{{"version":1,"name":"n","description":"d","uuid":1,"origin":"catalog:x","request_hex":"","fault":null,"findings":[{finding}],"digests":[]}}"#
    );
    let err = ReplayBundle::from_json(bundle.as_bytes()).unwrap_err();
    assert!(err.to_string().contains("more than two culprits"), "{err}");

    // Two culprits, or one named twice, still load.
    let two = bundle.replace(r#""apache","iis","nginx""#, r#""iis","apache","iis""#);
    let read = ReplayBundle::from_json(two.as_bytes()).unwrap();
    let culprits: Vec<&str> = read.findings[0].culprits.iter().map(|n| n.as_str()).collect();
    assert_eq!(culprits, ["apache", "iis"]);
}
