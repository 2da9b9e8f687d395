//! Generated-corpus regression gate.
//!
//! `HDiff::generate_cases` is a pure function of the configuration and
//! the analyzed grammar, and every campaign, fleet worker and benchmark
//! round relies on it producing the same cases in the same order. This
//! gate digests the whole corpus of four configurations (`quick()`,
//! `full()`, and the paper-scale `full()` with 4,000 ABNF seeds and one
//! thread at seeds 7 and 11): every case's uuid, origin, note, assertion
//! fields and rendered request bytes, in corpus order, with the
//! length-separated FNV-1a the replay digests use. A change to
//! generation that moves one byte fails here; a deliberate change is
//! accepted by re-recording the constants and saying why.

use hdiff::diff::Fnv;
use hdiff::gen::TestCase;
use hdiff::{HDiff, HdiffConfig};

/// FNV-1a over every field of every case, in corpus order.
fn digest(cases: &[TestCase]) -> u64 {
    let mut h = Fnv::new();
    for c in cases {
        h.write_u64(c.uuid);
        h.write(c.origin.to_string().as_bytes());
        h.write(c.note.as_bytes());
        h.write_u64(c.assertions.len() as u64);
        for a in &c.assertions {
            h.write(format!("{:?}", a.role).as_bytes());
            h.write(format!("{:?}", a.modality).as_bytes());
            h.write(format!("{:?}", a.expect).as_bytes());
            h.write(a.sr_id.as_bytes());
        }
        h.write(&c.request.to_bytes());
    }
    h.0
}

/// The paper-scale configuration the `h1-sim` benchmark workload runs.
fn h1_sim(seed: u64) -> HdiffConfig {
    let mut config = HdiffConfig::full();
    config.abnf_seeds = 4000;
    config.threads = 1;
    config.seed = seed;
    config
}

/// (configuration, case count, digest), recorded from the corpus these
/// configurations generated before the tree mutator reused one generator
/// per call.
fn pinned() -> [(&'static str, HdiffConfig, usize, u64); 4] {
    [
        ("quick", HdiffConfig::quick(), 215, 0xad12_c46d_82e8_d308),
        ("full", HdiffConfig::full(), 1077, 0xc39e_46f2_fe2b_dd74),
        ("h1-sim seed 7", h1_sim(7), 29_188, 0x20d2_b9e4_9057_0829),
        ("h1-sim seed 11", h1_sim(11), 29_187, 0x2990_49b4_2a4d_32d8),
    ]
}

#[test]
fn generated_corpora_match_their_pinned_digests() {
    // Analysis does not depend on the configuration; do it once.
    let analysis = HDiff::new(HdiffConfig::quick()).analyze();
    let mut drift = Vec::new();
    for (name, config, count, pinned) in pinned() {
        let cases = HDiff::new(config).generate_cases(&analysis);
        let got = (cases.len(), digest(&cases));
        println!("{name}: {} cases, digest {:#018x}", got.0, got.1);
        if got != (count, pinned) {
            drift.push(format!(
                "{name}: {} cases, digest {:#018x} (pinned {count}, {pinned:#018x})",
                got.0, got.1
            ));
        }
    }
    assert!(drift.is_empty(), "generated corpus drifted:\n{}", drift.join("\n"));
}
