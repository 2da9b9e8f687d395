//! Pipeline configuration.

use std::io;

use hdiff_diff::json::Parser;
use hdiff_diff::Transport;

/// Configuration for one [`crate::HDiff`] run.
#[derive(Debug, Clone)]
pub struct HdiffConfig {
    /// Variants the SR translator produces per (SR, strategy).
    pub sr_variants: usize,
    /// Valid seed requests generated from the ABNF grammar.
    pub abnf_seeds: usize,
    /// Mutants derived from each seed.
    pub mutants_per_seed: usize,
    /// RNG seed (full determinism per seed).
    pub seed: u64,
    /// Worker threads for the differential engine; `0` means one per
    /// available core (`std::thread::available_parallelism`).
    pub threads: usize,
    /// Fault-injection rate in percent (0 disables the fault campaign).
    pub fault_rate: u8,
    /// Bias the ABNF generator toward grammar alternations it has not
    /// taken yet (changes the generated stream for a given seed; coverage
    /// is tracked and reported either way).
    pub coverage_guided: bool,
    /// How test cases reach the behavioral profiles: in-process
    /// simulation (the default) or real TCP sockets.
    pub transport: Transport,
    /// Collect spans, counters and latency histograms during the run
    /// (surfaced via `RunSummary::telemetry` and `hdiff report`). On by
    /// default; disable to shave the last few percent off a campaign.
    pub telemetry: bool,
    /// Worker *processes* for the sharded campaign fabric; `0` (the
    /// default) keeps the current in-process path.
    pub shards: u32,
    /// Fleet-chaos rate in percent: the supervisor SIGKILLs worker
    /// incarnations on a pure-hash schedule to exercise the recovery
    /// path (0 disables; only meaningful with `shards > 0`).
    pub fleet_chaos: u8,
    /// Cases per checkpoint interval (shard workers checkpoint and
    /// heartbeat at this granularity).
    pub checkpoint_every: usize,
    /// Which workload the campaign runs: `"http"` (the default, the
    /// full HTTP/1.1 pipeline), `"h2"` (the downgrade fronts) or
    /// `"cookie"`, the last two through [`hdiff_diff::run_protocol_campaign`].
    pub protocol: String,
}

impl HdiffConfig {
    /// The full experiment configuration (used by the table harnesses).
    pub fn full() -> HdiffConfig {
        HdiffConfig {
            sr_variants: 3,
            abnf_seeds: 120,
            mutants_per_seed: 6,
            seed: 0x4844_6966_6621,
            threads: 0,
            fault_rate: 0,
            coverage_guided: false,
            transport: Transport::Sim,
            telemetry: true,
            shards: 0,
            fleet_chaos: 0,
            checkpoint_every: 64,
            protocol: "http".to_string(),
        }
    }

    /// A fast configuration for tests and examples.
    pub fn quick() -> HdiffConfig {
        HdiffConfig {
            sr_variants: 2,
            abnf_seeds: 20,
            mutants_per_seed: 2,
            seed: 0x4844_6966_6621,
            threads: 2,
            fault_rate: 0,
            coverage_guided: false,
            transport: Transport::Sim,
            telemetry: true,
            shards: 0,
            fleet_chaos: 0,
            checkpoint_every: 64,
            protocol: "http".to_string(),
        }
    }

    /// Serializes the configuration as one JSON object — how a fleet
    /// supervisor ships the *exact* campaign parameters to its worker
    /// processes, so every worker regenerates the identical corpus.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"sr_variants\":{},\"abnf_seeds\":{},\"mutants_per_seed\":{},",
                "\"seed\":{},\"threads\":{},\"fault_rate\":{},\"coverage_guided\":{},",
                "\"transport\":\"{}\",\"telemetry\":{},\"shards\":{},",
                "\"fleet_chaos\":{},\"checkpoint_every\":{},\"protocol\":\"{}\"}}"
            ),
            self.sr_variants,
            self.abnf_seeds,
            self.mutants_per_seed,
            self.seed,
            self.threads,
            self.fault_rate,
            self.coverage_guided,
            self.transport,
            self.telemetry,
            self.shards,
            self.fleet_chaos,
            self.checkpoint_every,
            self.protocol,
        )
    }

    /// Parses [`HdiffConfig::to_json`] output. Unknown keys are ignored
    /// and missing keys keep their [`HdiffConfig::full`] defaults, so
    /// config files stay forward- and backward-compatible.
    pub fn from_json(bytes: &[u8]) -> io::Result<HdiffConfig> {
        let root = Parser::new(bytes).value()?;
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut config = HdiffConfig::full();
        let usize_field = |key: &str, default: usize| -> io::Result<usize> {
            match root.get(key) {
                None => Ok(default),
                Some(v) => usize::try_from(
                    v.as_u64().ok_or_else(|| bad(&format!("config {key} must be a number")))?,
                )
                .map_err(|_| bad(&format!("config {key} out of range"))),
            }
        };
        config.sr_variants = usize_field("sr_variants", config.sr_variants)?;
        config.abnf_seeds = usize_field("abnf_seeds", config.abnf_seeds)?;
        config.mutants_per_seed = usize_field("mutants_per_seed", config.mutants_per_seed)?;
        config.threads = usize_field("threads", config.threads)?;
        config.checkpoint_every = usize_field("checkpoint_every", config.checkpoint_every)?;
        if let Some(v) = root.get("coverage_guided") {
            config.coverage_guided =
                v.as_bool().ok_or_else(|| bad("config coverage_guided must be a bool"))?;
        }
        if let Some(v) = root.get("telemetry") {
            config.telemetry = v.as_bool().ok_or_else(|| bad("config telemetry must be a bool"))?;
        }
        if let Some(v) = root.get("seed") {
            config.seed = v.as_u64().ok_or_else(|| bad("config seed must be a number"))?;
        }
        if let Some(v) = root.get("fault_rate") {
            let n = v.as_u64().ok_or_else(|| bad("config fault_rate must be a number"))?;
            config.fault_rate =
                u8::try_from(n).map_err(|_| bad("config fault_rate out of range"))?;
        }
        if let Some(v) = root.get("fleet_chaos") {
            let n = v.as_u64().ok_or_else(|| bad("config fleet_chaos must be a number"))?;
            config.fleet_chaos =
                u8::try_from(n).map_err(|_| bad("config fleet_chaos out of range"))?;
        }
        if let Some(v) = root.get("shards") {
            let n = v.as_u64().ok_or_else(|| bad("config shards must be a number"))?;
            config.shards = u32::try_from(n).map_err(|_| bad("config shards out of range"))?;
        }
        if let Some(v) = root.get("transport") {
            let s = v.as_str().ok_or_else(|| bad("config transport must be a string"))?;
            config.transport = Transport::parse(s).map_err(|e| bad(&format!("config: {e}")))?;
        }
        if let Some(v) = root.get("protocol") {
            let s = v.as_str().ok_or_else(|| bad("config protocol must be a string"))?;
            if s.is_empty() {
                return Err(bad("config protocol must not be empty"));
            }
            config.protocol = s.to_string();
        }
        Ok(config)
    }
}

impl Default for HdiffConfig {
    fn default() -> Self {
        HdiffConfig::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let full = HdiffConfig::full();
        let quick = HdiffConfig::quick();
        assert!(full.abnf_seeds > quick.abnf_seeds);
        assert_eq!(HdiffConfig::default().abnf_seeds, full.abnf_seeds);
        assert_eq!(hdiff_gen::GenOptions::default().max_depth, 7, "the paper's depth cap");
        assert_eq!(full.shards, 0, "default stays in-process");
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let mut config = HdiffConfig::quick();
        config.seed = 0xdead_beef;
        config.fault_rate = 13;
        config.coverage_guided = true;
        config.transport = Transport::TcpAsync;
        config.telemetry = false;
        config.shards = 4;
        config.fleet_chaos = 85;
        config.checkpoint_every = 8;
        config.protocol = "cookie".to_string();
        let parsed = HdiffConfig::from_json(config.to_json().as_bytes()).expect("roundtrip");
        assert_eq!(format!("{config:?}"), format!("{parsed:?}"));
    }

    #[test]
    fn from_json_defaults_missing_keys_and_rejects_garbage() {
        let sparse = HdiffConfig::from_json(b"{\"abnf_seeds\":5,\"shards\":2}").expect("sparse");
        assert_eq!(sparse.abnf_seeds, 5);
        assert_eq!(sparse.shards, 2);
        assert_eq!(sparse.checkpoint_every, HdiffConfig::full().checkpoint_every);
        assert_eq!(sparse.protocol, "http");
        assert!(HdiffConfig::from_json(b"not json").is_err());
        assert!(HdiffConfig::from_json(b"{\"protocol\":\"\"}").is_err());
        assert!(HdiffConfig::from_json(b"{\"protocol\":7}").is_err());
        assert!(HdiffConfig::from_json(b"{\"transport\":\"carrier-pigeon\"}").is_err());
        // The retired `frontend` key is ignored like any unknown key.
        assert!(HdiffConfig::from_json(b"{\"frontend\":\"h2\"}").is_ok());
        assert!(HdiffConfig::from_json(b"{\"fault_rate\":700}").is_err());
    }
}
