//! `Workflow::run_case` rebuilt from the public calls it makes, with a
//! span around each layer call.
//!
//! The program's workflow is one opaque call; to split its time across
//! layers the traced pass re-runs the same three steps of Fig. 6 here,
//! in the same order, on the fault-free path: step 3 (every back-end
//! interprets the client bytes), then per proxy step 1 (forward + echo)
//! and, when replay reduction lets it through, step 2 (every back-end
//! interprets the forwarded bytes, and the proxy cache stores the first
//! reply). Callers check that the rebuilt outcome's behavior digests
//! equal the program's own.

use hdiff_diff::workflow::is_ambiguous;
use hdiff_diff::{CaseOutcome, ChainRun, ReplayRun, Workflow};
use hdiff_servers::cache::{CacheKey, StoreDecision};
use hdiff_servers::{EchoServer, Proxy, ProxyResult, Server, ServerReply};

use crate::span::Tracer;

/// Work counts of the rebuilt chains.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChainTally {
    /// Messages the simulated servers parsed (direct replies, proxy
    /// results and replay replies).
    pub messages: u64,
    /// Proxy chains run.
    pub chains: u64,
    /// Chains that passed replay reduction and replayed to back-ends.
    pub replayed: u64,
}

/// Runs the three workflow steps over `bytes` under a `diff.chain` span
/// with `servers.direct`, `servers.proxy` and `servers.replay` children.
pub fn run_bytes(
    t: &mut Tracer,
    workflow: &Workflow,
    uuid: u64,
    origin: &str,
    bytes: &[u8],
    tally: &mut ChainTally,
) -> CaseOutcome {
    t.time("diff.chain", |t| {
        let bytes = bytes.to_vec();
        let direct: Vec<(String, Vec<ServerReply>)> = t.time("servers.direct", |_| {
            workflow
                .backends()
                .iter()
                .map(|b| (b.name.clone(), Server::new(b.clone()).handle_stream(&bytes)))
                .collect()
        });
        tally.messages += direct.iter().map(|(_, r)| r.len() as u64).sum::<u64>();

        let mut chains = Vec::with_capacity(workflow.proxies().len());
        for profile in workflow.proxies() {
            let (proxy, proxy_results, forwarded, forwarded_lens) = t.time("servers.proxy", |_| {
                let proxy = Proxy::new(profile.clone());
                let mut echo = EchoServer::new();
                let proxy_results = proxy.forward_stream(&bytes);
                let mut forwarded = Vec::new();
                let mut forwarded_lens = Vec::new();
                for r in &proxy_results {
                    if let Some(f) = r.action.forwarded() {
                        echo.receive(f);
                        forwarded.extend_from_slice(f);
                        forwarded_lens.push(f.len());
                    }
                }
                (proxy, proxy_results, forwarded, forwarded_lens)
            });
            tally.chains += 1;
            tally.messages += proxy_results.len() as u64;

            let any_accepted = proxy_results.iter().any(|r| r.interpretation.outcome.is_accept());
            let should_replay = !forwarded_lens.is_empty()
                && any_accepted
                && (!workflow.replay_reduction || is_ambiguous(&bytes));
            let mut replays = Vec::new();
            if should_replay {
                tally.replayed += 1;
                replays = t.time("servers.replay", |_| {
                    workflow
                        .backends()
                        .iter()
                        .map(|b| {
                            let replies = Server::new(b.clone()).handle_stream(&forwarded);
                            let cache_stored_error =
                                cache_stores_error(&proxy, &proxy_results, &replies);
                            ReplayRun { backend: b.name.clone(), replies, cache_stored_error }
                        })
                        .collect::<Vec<_>>()
                });
                tally.messages += replays.iter().map(|r| r.replies.len() as u64).sum::<u64>();
            }

            chains.push(ChainRun {
                proxy: profile.name.clone(),
                proxy_results,
                forwarded,
                forwarded_count: forwarded_lens.len(),
                forwarded_lens,
                replays,
                relay_reaction: None,
            });
        }

        CaseOutcome {
            uuid,
            origin: origin.to_string(),
            bytes,
            chains,
            direct,
            fault_events: Vec::new(),
            budget_exhausted: false,
        }
    })
}

/// Feeds a copy of the proxy's cache the first back-end reply under the
/// proxy's own view of the request; true when an error response was
/// stored (the CPDoS precondition).
fn cache_stores_error(
    proxy: &Proxy,
    proxy_results: &[ProxyResult],
    replies: &[ServerReply],
) -> bool {
    let (Some(first), Some(reply)) = (proxy_results.first(), replies.first()) else {
        return false;
    };
    if !first.interpretation.outcome.is_accept() {
        return false;
    }
    let mut cache = proxy.cache.clone();
    let key = CacheKey::new(
        first.interpretation.host.clone().unwrap_or_default(),
        first.interpretation.target.clone(),
    );
    let decision = cache.store(
        key,
        &first.interpretation.method,
        &first.interpretation.version,
        &reply.response,
    );
    decision == StoreDecision::Stored && reply.response.status.is_error()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_diff::replay::behavior_digests;
    use hdiff_gen::catalog;

    #[test]
    fn rebuilt_workflow_matches_run_case_over_the_table_ii_catalog() {
        let workflow = Workflow::standard();
        let mut t = Tracer::new();
        let mut tally = ChainTally::default();
        let mut uuid = 0u64;
        for entry in catalog::catalog() {
            for (request, _) in &entry.requests {
                uuid += 1;
                let bytes = request.to_bytes();
                let origin = format!("catalog:{}", entry.id);
                let rebuilt = run_bytes(&mut t, &workflow, uuid, &origin, &bytes, &mut tally);
                let program = workflow.run_bytes_faulted(uuid, &origin, &bytes, None);
                assert_eq!(
                    behavior_digests(&rebuilt),
                    behavior_digests(&program),
                    "catalog entry {} diverges from Workflow::run_case",
                    entry.id
                );
            }
        }
        assert!(uuid >= 14, "the catalog has at least one vector per Table II row");
        let proxies = workflow.proxies().len() as u64;
        assert_eq!(tally.chains, uuid * proxies);
        assert!(tally.replayed > 0 && tally.replayed < tally.chains);
        assert!(tally.messages >= uuid * (proxies + workflow.backends().len() as u64));
        // One chain span per case, with at least the direct and proxy
        // children under it.
        let chains = t.spans().iter().filter(|s| s.name == "diff.chain").count() as u64;
        assert_eq!(chains, uuid);
        assert_eq!(
            t.spans().iter().filter(|s| s.name == "servers.proxy").count() as u64,
            tally.chains
        );
        assert_eq!(
            t.spans().iter().filter(|s| s.name == "servers.replay").count() as u64,
            tally.replayed
        );
    }
}
