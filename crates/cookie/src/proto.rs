//! [`CookieProtocol`] — the cookie workload behind [`Protocol`].
//!
//! This is the proof that the campaign core is protocol-generic: no
//! HTTP machinery anywhere, yet `run_protocol_campaign` drives the seed
//! corpus through the profile matrix on the same campaign driver as
//! HTTP/1.1, returns the same `RunSummary`, and promotes minimized
//! protocol-keyed replay bundles that
//! [`hdiff_diff::ReplayBundle::replay_protocol`] re-verifies.

use std::io;

use hdiff_diff::minimize::{ddmin_items, MinimizeOptions};
use hdiff_diff::{reproduces, Finding, Fnv, ProtoCase, ProtoExecution, Protocol};

use crate::cases::{seed_vectors, CookieCase};
use crate::detect::detect_cookie_case;
use crate::parse::{interpret, CookieView};
use crate::profile::{profiles, CookieProfile};

/// Uuid base for cookie campaign cases, distinct from every HTTP
/// corpus (h1 catalog 9000s, h2 0xd2…, fuzz 0xfa…).
pub const COOKIE_UUID_BASE: u64 = 0xc001_0000_0000_0000;

/// RFC 6265 cookies as a differential workload over the profile matrix.
#[derive(Debug)]
pub struct CookieProtocol {
    profiles: Vec<CookieProfile>,
}

impl CookieProtocol {
    /// The standard eight-profile matrix.
    pub fn standard() -> CookieProtocol {
        CookieProtocol { profiles: profiles() }
    }

    /// The profile matrix behind this instance.
    pub fn profiles(&self) -> &[CookieProfile] {
        &self.profiles
    }

    /// Runs one case through every profile: the in-process execution
    /// behind [`Protocol::execute`], which never fails.
    fn run(&self, uuid: u64, origin: &str, bytes: &[u8]) -> ProtoExecution {
        let case = CookieCase::parse(bytes);
        let views: Vec<CookieView> = self.profiles.iter().map(|p| interpret(p, &case)).collect();
        let findings = detect_cookie_case(uuid, origin, &self.profiles, &views);
        let digests =
            views.iter().map(|v| (format!("cookie:{}", v.profile), digest_view(v))).collect();
        hdiff_obs::count("cookie.exec.cases", 1);
        ProtoExecution { findings, digests }
    }
}

/// FNV-1a digest of everything observable in one profile's view.
fn digest_view(v: &CookieView) -> u64 {
    let mut h = Fnv::new();
    for o in &v.sets {
        h.write(o.name.as_bytes());
        h.write(o.value.as_bytes());
        for a in &o.attrs {
            h.write(a.as_bytes());
        }
        h.write_u64(u64::from(o.stored));
        h.write(o.reason.unwrap_or("").as_bytes());
    }
    h.write(v.header.as_bytes());
    for (n, val) in v.inbound.iter().chain(v.meta.iter()) {
        h.write(n.as_bytes());
        h.write(val.as_bytes());
    }
    h.0
}

/// Splits a case line into owned `(prefix, value)` when it is a
/// header-value line the minimizer may rewrite.
fn split_header_line(line: &str) -> Option<(String, String)> {
    let (prefix, value) = line.split_once(':')?;
    matches!(prefix, "set" | "cookie").then(|| (prefix.to_string(), value.to_string()))
}

/// The divergence tag of a cookie finding (`cookie:<tag>: …` evidence).
fn evidence_tag(f: &Finding) -> Option<String> {
    let rest = f.evidence.as_text()?.strip_prefix("cookie:")?;
    Some(rest[..rest.find(':')?].to_string())
}

impl Protocol for CookieProtocol {
    fn name(&self) -> &'static str {
        "cookie"
    }

    fn uuid_base(&self) -> u64 {
        COOKIE_UUID_BASE
    }

    fn seed_cases(&self) -> Vec<ProtoCase> {
        seed_vectors()
            .into_iter()
            .map(|s| ProtoCase {
                id: s.id.to_string(),
                description: s.description.to_string(),
                bytes: s.case.to_bytes(),
            })
            .collect()
    }

    fn execute(&self, uuid: u64, origin: &str, bytes: &[u8]) -> io::Result<ProtoExecution> {
        Ok(self.run(uuid, origin, bytes))
    }

    fn finding_tag(&self, f: &Finding) -> Option<String> {
        evidence_tag(f)
    }

    /// ddmin over the lines, then over each `set:`/`cookie:` line's
    /// `;`-segments, then over each segment's value, character by
    /// character (the case is text, so a candidate never splits one).
    fn minimize(&self, bytes: &[u8], target: &Finding) -> Vec<u8> {
        let encode = |lines: &[String]| (lines.join("\n") + "\n").into_bytes();
        let holds = |lines: &[String]| {
            let exec = self.run(target.uuid, &target.origin, &encode(lines));
            reproduces(self, target, &exec.findings)
        };
        let lines: Vec<String> =
            String::from_utf8_lossy(bytes).lines().map(str::to_string).collect();
        let mut opts = MinimizeOptions::default();
        let (mut lines, stats) = ddmin_items(&lines, holds, &opts);
        opts.max_attempts -= stats.attempts;
        for i in 0..lines.len() {
            let Some((prefix, value)) = split_header_line(&lines[i]) else { continue };
            let line = |segs: &[String]| format!("{prefix}:{}", segs.join(";"));
            let holds_segs = |segs: &[String]| {
                let mut cand = lines.clone();
                cand[i] = line(segs);
                holds(&cand)
            };
            let segs: Vec<String> = value.split(';').map(str::to_string).collect();
            let (mut segs, stats) = ddmin_items(&segs, holds_segs, &opts);
            opts.max_attempts -= stats.attempts;
            for j in 0..segs.len() {
                let Some((name, value)) = segs[j].split_once('=') else { continue };
                let (name, value) = (name.to_string(), value.chars().collect::<Vec<_>>());
                let seg = |v: &[char]| format!("{name}={}", v.iter().collect::<String>());
                let holds_value = |v: &[char]| {
                    let mut cand = segs.clone();
                    cand[j] = seg(v);
                    holds_segs(&cand)
                };
                let (kept, stats) = ddmin_items(&value, holds_value, &opts);
                opts.max_attempts -= stats.attempts;
                segs[j] = seg(&kept);
            }
            lines[i] = line(&segs);
        }
        encode(&lines)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_diff::{run_protocol_campaign, ProtocolCampaignOptions, ReplayBundle};

    #[test]
    fn campaign_finds_every_divergence_class() {
        let p = CookieProtocol::standard();
        let summary =
            run_protocol_campaign(&p, &ProtocolCampaignOptions::default()).expect("campaign");
        assert_eq!(p.name(), "cookie");
        assert_eq!(summary.run.cases, seed_vectors().len());
        for tag in crate::detect::TAGS {
            assert!(summary.classes.contains(&tag.to_string()), "{tag}: {:?}", summary.classes);
        }
        // ≥3 distinct attack classes among the findings.
        let classes: std::collections::BTreeSet<_> =
            summary.run.findings.iter().map(|f| f.class).collect();
        assert!(classes.len() >= 3, "{classes:?}");
    }

    #[test]
    fn campaign_is_thread_invariant() {
        let p = CookieProtocol::standard();
        let base =
            run_protocol_campaign(&p, &ProtocolCampaignOptions::default()).expect("campaign");
        for threads in [2, 8] {
            let t = run_protocol_campaign(
                &p,
                &ProtocolCampaignOptions { threads, ..ProtocolCampaignOptions::default() },
            )
            .expect("campaign");
            assert_eq!(base.run.findings, t.run.findings, "threads={threads}");
            assert_eq!(base.classes, t.classes, "threads={threads}");
        }
    }

    #[test]
    fn promoted_bundles_are_protocol_keyed_and_replay() {
        let dir = std::env::temp_dir().join(format!("hdiff-cookie-promote-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = CookieProtocol::standard();
        let summary = run_protocol_campaign(
            &p,
            &ProtocolCampaignOptions { threads: 0, promote_dir: Some(dir.clone()) },
        )
        .expect("campaign");
        assert_eq!(summary.promoted.len(), crate::detect::TAGS.len());
        for path in &summary.promoted {
            let bundle = ReplayBundle::load(path).expect("load");
            assert_eq!(bundle.protocol.as_deref(), Some("cookie"));
            let report = bundle.replay_protocol(&p);
            assert!(report.passed(), "{}: {}", path.display(), report.summary());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn minimizer_shrinks_the_kitchen_sink() {
        let p = CookieProtocol::standard();
        let seed = seed_vectors().into_iter().find(|s| s.id == "kitchen-sink").unwrap();
        let bytes = seed.case.to_bytes();
        let exec = p.execute(42, "cookie:kitchen-sink", &bytes).unwrap();
        let target = exec
            .findings
            .iter()
            .find(|f| evidence_tag(f).as_deref() == Some("shadow-precedence"))
            .expect("kitchen-sink produces a precedence finding")
            .clone();
        let minimized = p.minimize(&bytes, &target);
        assert!(minimized.len() < bytes.len(), "{}", String::from_utf8_lossy(&minimized));
        // The target finding survives on the minimized bytes.
        let again = p.execute(42, "cookie:kitchen-sink", &minimized).unwrap();
        assert!(reproduces(&p, &target, &again.findings));
        // The unrelated lang cookie and $Version line are gone.
        let text = String::from_utf8_lossy(&minimized);
        assert!(!text.contains("lang="), "{text}");
        assert!(!text.contains("$Version"), "{text}");
    }
}
