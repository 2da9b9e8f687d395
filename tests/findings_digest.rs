//! Rendered-findings regression gate.
//!
//! Every finding and SR violation a campaign reports reaches a reader
//! only as text: its `Display` line, the `findings --csv` table, the
//! `exploits` write-ups and the SR-violation fields. This gate digests
//! all four renderings of two campaigns — the Table II catalog without a
//! syntax oracle, and `HDiff::new(HdiffConfig::full()).run()` with one —
//! with the length-separated FNV-1a the replay digests use, so a change
//! to how findings are built or stored that moves one rendered byte
//! fails here. The paper-scale h1-sim campaign (`abnf_seeds` 4000, seed
//! 7) is the same check at scale; it is `#[ignore]`d and runs in release
//! (`cargo test --release --test findings_digest -- --ignored`).

use hdiff::diff::Fnv;
use hdiff::gen::{catalog, Origin, TestCase};
use hdiff::report::{render_exploits, render_findings_csv};
use hdiff::{HDiff, HdiffConfig, PipelineReport};

/// Counts and digests of one campaign's rendered findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rendered {
    findings: usize,
    sr_violations: usize,
    /// Every finding's `Display` line, in summary order.
    lines: u64,
    /// `render_findings_csv`.
    csv: u64,
    /// `render_exploits` with no limit.
    exploits: u64,
    /// Every SR violation as
    /// `implementation|sr_id|modality|expected|observed|code_mismatch_only`.
    sr: u64,
}

fn digest_of(text: &str) -> u64 {
    let mut h = Fnv::new();
    h.write(text.as_bytes());
    h.0
}

fn rendered(report: &PipelineReport) -> Rendered {
    let summary = &report.summary;
    let mut lines = Fnv::new();
    for f in &summary.findings {
        lines.write(f.to_string().as_bytes());
    }
    let mut sr = Fnv::new();
    for v in &summary.sr_violations {
        let line = format!(
            "{}|{}|{}|{}|{}|{}",
            v.implementation, v.sr_id, v.modality, v.expected, v.observed, v.code_mismatch_only
        );
        sr.write(line.as_bytes());
    }
    Rendered {
        findings: summary.findings.len(),
        sr_violations: summary.sr_violations.len(),
        lines: lines.0,
        csv: digest_of(&render_findings_csv(summary)),
        exploits: digest_of(&render_exploits(report, usize::MAX)),
        sr: sr.0,
    }
}

/// The Table II catalog as a campaign corpus, uuids from 1.
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

/// The catalog campaign on the standard engine, without a syntax oracle
/// (HoT evidence then carries no `Host ABNF` verdicts).
fn catalog_report() -> PipelineReport {
    let mut prepared = HDiff::new(HdiffConfig::quick()).prepare_with_cases(catalog_cases());
    prepared.engine.syntax_oracle = None;
    let summary = prepared.engine.run(&prepared.cases);
    prepared.into_report(summary)
}

fn check(name: &str, got: Rendered, pinned: Rendered) {
    println!("{name}: {got:#x?}");
    assert_eq!(got, pinned, "{name}: rendered findings drifted from the pinned digests");
}

// Recorded from the findings these campaigns produced while every
// finding still owned its names, culprit set and evidence as strings.

const CATALOG: Rendered = Rendered {
    findings: 279,
    sr_violations: 0,
    lines: 0x2a9c0adca3933d18,
    csv: 0xb55bad6d8373931a,
    exploits: 0x444fd831422433fa,
    sr: 0xcbf29ce484222325,
};

const FULL: Rendered = Rendered {
    findings: 3_590,
    sr_violations: 967,
    lines: 0x59454988447187a6,
    csv: 0x5a349e67055e7bd5,
    exploits: 0x7b7ababd27c60e67,
    sr: 0x73bbc88658de163f,
};

const H1_SIM_SEED_7: Rendered = Rendered {
    findings: 98_578,
    sr_violations: 22_699,
    lines: 0x6c2f71748c529119,
    csv: 0x0be34693521a1e96,
    exploits: 0x81350a0bd6312e4c,
    sr: 0x53c2e1873d0513b9,
};

#[test]
fn catalog_and_full_campaigns_render_their_pinned_findings() {
    check("catalog", rendered(&catalog_report()), CATALOG);
    check("full", rendered(&HDiff::new(HdiffConfig::full()).run()), FULL);
}

#[test]
#[ignore = "paper-scale campaign; run in release"]
fn h1_sim_campaign_renders_its_pinned_findings() {
    let mut config = HdiffConfig::full();
    config.abnf_seeds = 4000;
    config.seed = 7;
    check("h1-sim seed 7", rendered(&HDiff::new(config).run()), H1_SIM_SEED_7);
}
