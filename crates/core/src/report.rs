//! Rendering of the paper's tables and figures as text.

use hdiff_diff::{Name, RunSummary};
use hdiff_gen::{catalog, AttackClass};
use hdiff_servers::ParserProfile;

use crate::pipeline::PipelineReport;

fn mark(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "-"
    }
}

/// Renders the §IV-B statistics paragraph ("Table 0").
pub fn render_stats(report: &PipelineReport) -> String {
    let s = &report.analysis.stats;
    let mut out = String::new();
    out.push_str("== Corpus & extraction statistics (paper §IV-B) ==\n");
    out.push_str(&format!("documents analyzed        : {}\n", s.documents));
    out.push_str(&format!("words                     : {}   (paper: 172,088)\n", s.words));
    out.push_str(&format!("valid sentences           : {}   (paper: 5,995)\n", s.sentences));
    out.push_str(&format!(
        "SR candidates (sentiment) : {}   [keyword grep baseline: {}]\n",
        s.sr_candidates, s.keyword_grep_candidates
    ));
    out.push_str(&format!("specification requirements: {}   (paper: 117)\n", s.srs));
    out.push_str(&format!("ABNF grammar rules        : {}   (paper: 269)\n", s.abnf_rules));
    out.push_str(&format!("SR-translated test cases  : {}   (paper: 8,427)\n", report.sr_cases));
    out.push_str(&format!("ABNF-generated test cases : {}   (paper: 92,658)\n", report.abnf_cases));
    out.push_str(&format!("catalog test cases        : {}\n", report.catalog_cases));
    out
}

/// Renders Table I: tested implementations and vulnerability verdicts.
pub fn render_table1(summary: &RunSummary) -> String {
    let products = hdiff_servers::products();
    let mut out = String::new();
    out.push_str("== Table I: tested HTTP implementations and vulnerability ==\n");
    out.push_str(&format!(
        "{:<10} {:<12} {:<7} {:<6} | {:<5} {:<5} {:<6}\n",
        "Product", "Version", "Server", "Proxy", "HRS", "HoT", "CPDoS"
    ));
    out.push_str(&"-".repeat(64));
    out.push('\n');
    for p in &products {
        let v = &summary.verdicts;
        let cpdos = if p.is_proxy() {
            mark(v.is_vulnerable(&p.name, AttackClass::Cpdos))
        } else {
            "-" // the paper does not consider CPDoS in server mode
        };
        out.push_str(&format!(
            "{:<10} {:<12} {:<7} {:<6} | {:<5} {:<5} {:<6}\n",
            p.name,
            p.version,
            mark(p.server_mode),
            mark(p.is_proxy()),
            mark(v.is_vulnerable(&p.name, AttackClass::Hrs)),
            mark(v.is_vulnerable(&p.name, AttackClass::Hot)),
            cpdos,
        ));
    }
    out
}

/// Renders Table II: the attack-vector inventory with findings counts.
pub fn render_table2(summary: &RunSummary) -> String {
    let mut out = String::new();
    out.push_str("== Table II: examples of semantic gap attacks found ==\n");
    out.push_str(&format!(
        "{:<14} {:<22} {:<12} {:<9}\n",
        "HTTP field", "Description", "Classes", "Findings"
    ));
    out.push_str(&"-".repeat(64));
    out.push('\n');
    for entry in catalog::catalog() {
        let origin = format!("catalog:{}", entry.id);
        let findings = summary.findings.iter().filter(|f| *f.origin == *origin).count();
        let classes: Vec<String> = entry.classes.iter().map(ToString::to_string).collect();
        out.push_str(&format!(
            "{:<14} {:<22} {:<12} {:<9}\n",
            entry.group.to_string(),
            entry.description,
            classes.join(","),
            findings
        ));
    }
    out
}

/// Renders Figure 7: the proxy × back-end pair grid per attack class.
pub fn render_figure7(summary: &RunSummary) -> String {
    let proxies = hdiff_servers::proxies();
    let backends = hdiff_servers::backends();
    let mut out = String::new();
    out.push_str("== Figure 7: server pairs affected by the three attacks ==\n");
    for class in AttackClass::ALL {
        out.push_str(&format!("\n[{class}] {} affected pair(s)\n", summary.pairs.count(class)));
        out.push_str(&format!("{:<10}", ""));
        for b in &backends {
            out.push_str(&format!("{:<10}", b.name));
        }
        out.push('\n');
        for p in &proxies {
            out.push_str(&format!("{:<10}", p.name));
            for b in &backends {
                let hit = summary.pairs.contains(class, &p.name, &b.name);
                out.push_str(&format!("{:<10}", if hit { "X" } else { "." }));
            }
            out.push('\n');
        }
    }
    out
}

/// Renders exploit write-ups: for each of the first `limit` findings, the
/// description plus the exact payload that reproduces it — "HDiff would
/// output the test case as a potential exploit together with the
/// description of the vulnerability discovered" (§III-D).
pub fn render_exploits(report: &PipelineReport, limit: usize) -> String {
    use hdiff_wire::ascii;
    let mut out = String::new();
    out.push_str("== potential exploits ==\n");
    let mut seen_cases = std::collections::BTreeSet::new();
    let mut written = 0usize;
    for finding in &report.summary.findings {
        if written >= limit {
            break;
        }
        if !seen_cases.insert((finding.uuid, finding.class)) {
            continue; // one write-up per (case, class)
        }
        let Some(case) = report.case(finding.uuid) else { continue };
        written += 1;
        out.push_str(&format!("\n[{}] case #{} ({})\n", finding.class, finding.uuid, case.note));
        if let Some((front, back)) = finding.pair() {
            out.push_str(&format!("  chain    : {front} -> {back}\n"));
        }
        out.push_str(&format!("  evidence : {}\n", finding.evidence));
        if !finding.culprits.is_empty() {
            let culprits: Vec<&str> = finding.culprits.iter().map(Name::as_str).collect();
            out.push_str(&format!("  culprits : {}\n", culprits.join(", ")));
        }
        out.push_str("  payload  :\n");
        for line in ascii::escape_bytes(&case.request.to_bytes()).split("\\r\\n") {
            if !line.is_empty() {
                out.push_str(&format!("    {line}\n"));
            }
        }
    }
    out
}

/// Renders all findings as CSV (`class,uuid,origin,front,back,culprits,evidence`).
pub fn render_findings_csv(summary: &RunSummary) -> String {
    fn esc(s: &str) -> String {
        if s.contains([',', '"', '\n']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut out = String::from("class,uuid,origin,front,back,culprits,evidence\n");
    for f in &summary.findings {
        let culprits: Vec<&str> = f.culprits.iter().map(Name::as_str).collect();
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            f.class,
            f.uuid,
            esc(&f.origin),
            esc(f.front.as_deref().unwrap_or("")),
            esc(f.back.as_deref().unwrap_or("")),
            esc(&culprits.join(";")),
            esc(&f.evidence.to_string()),
        ));
    }
    out
}

/// Renders the resilience counters of a run: typed case errors, retries,
/// quarantined cases, and fault-degradation divergences.
pub fn render_resilience(summary: &RunSummary) -> String {
    let mut out = String::new();
    out.push_str("== resilience: errors, retries, quarantine, degradation ==\n");
    out.push_str(&format!("cases with terminal errors: {}\n", summary.errors));
    out.push_str(&format!("transient-fault retries   : {}\n", summary.retries));
    out.push_str(&format!("logical backoff units     : {}\n", summary.backoff_units));
    if let Some(cov) = &summary.coverage {
        out.push_str(&format!("grammar coverage          : {cov}\n"));
    }
    out.push_str(&format!(
        "quarantined cases         : {}{}\n",
        summary.quarantined.len(),
        if summary.quarantined.is_empty() {
            String::new()
        } else {
            format!(
                " (uuids: {})",
                summary.quarantined.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
            )
        }
    ));
    out.push_str(&format!("degradation divergences   : {}\n", summary.degradations.len()));
    for d in &summary.degradations {
        out.push_str(&format!("  {d}\n"));
    }
    let topo = &summary.topology;
    if topo.shards > 0 {
        out.push_str(&format!(
            "fleet topology            : {} shard(s), {} respawn(s), {} chaos kill(s), {} watchdog kill(s)\n",
            topo.shards,
            topo.total_respawns(),
            topo.total_chaos_kills(),
            topo.total_watchdog_kills(),
        ));
        for (i, s) in topo.stats.iter().enumerate() {
            if s.respawns > 0 || s.chaos_kills > 0 || s.watchdog_kills > 0 {
                out.push_str(&format!(
                    "  shard {i}: {} case(s), {} respawn(s), {} chaos kill(s), {} watchdog kill(s), generation {}\n",
                    s.cases, s.respawns, s.chaos_kills, s.watchdog_kills, s.generation
                ));
            }
        }
    }
    for e in &summary.shard_errors {
        out.push_str(&format!("  {e}\n"));
    }
    out
}

/// Renders the per-product SR-violation counts (single-implementation
/// conformance checking).
pub fn render_sr_violations(summary: &RunSummary) -> String {
    let mut out = String::new();
    out.push_str("== SR-assertion violations (MUST-level) per implementation ==\n");
    let products: Vec<ParserProfile> = hdiff_servers::products();
    for p in &products {
        let mandatory = summary
            .sr_violations
            .iter()
            .filter(|v| v.implementation == p.name && v.is_mandatory())
            .count();
        let advisory = summary
            .sr_violations
            .iter()
            .filter(|v| v.implementation == p.name && !v.is_mandatory())
            .count();
        out.push_str(&format!(
            "{:<10} mandatory: {:<5} advisory: {:<5}\n",
            p.name, mandatory, advisory
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HDiff, HdiffConfig};

    #[test]
    fn reports_render_without_panicking() {
        let report = HDiff::new(HdiffConfig::quick()).run();
        let t0 = render_stats(&report);
        assert!(t0.contains("specification requirements"));
        let t1 = render_table1(&report.summary);
        assert!(t1.contains("varnish"));
        assert!(t1.lines().count() >= 13);
        let t2 = render_table2(&report.summary);
        assert!(t2.contains("Invalid CL/TE header"));
        let f7 = render_figure7(&report.summary);
        assert!(f7.contains("[HoT]"));
        let sr = render_sr_violations(&report.summary);
        assert!(sr.contains("mandatory"));
        let rz = render_resilience(&report.summary);
        assert!(rz.contains("quarantined cases         : 0"), "{rz}");
    }
}
