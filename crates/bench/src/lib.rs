//! Benchmark and table/figure regeneration harness for HDiff.
//!
//! Binaries (one per paper artifact — see `DESIGN.md` §4):
//!
//! * `table0_stats` — the §IV-B corpus/extraction/generation statistics.
//! * `table1_vulnerabilities` — Table I (implementations × verdicts).
//! * `table2_attack_examples` — Table II (attack-vector inventory).
//! * `figure7_server_pairs` — Figure 7 (pair grids per attack class).
//! * `ablations` — the DESIGN.md §5 ablation studies (replay reduction,
//!   predefined leaf rules, depth cap, mutation rounds, SR finder recall).
//! * `perf_snapshot` — writes the `BENCH_*.json` layer snapshots.
//!
//! End-to-end and per-layer timings come from the `perfbench` harness.

use hdiff_core::{HDiff, HdiffConfig, PipelineReport};

/// Runs the full-configuration pipeline once (shared by harness binaries).
pub fn full_run() -> PipelineReport {
    HDiff::new(HdiffConfig::full()).run()
}
