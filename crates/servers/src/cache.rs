//! The shared response cache of a proxy — the CPDoS attack surface.

use std::collections::BTreeMap;

use hdiff_wire::Version;

use crate::profile::CacheBehavior;
use crate::reply::EchoResponse;

/// Cache key: the host identity *as the cache understood it* plus the
/// request target. A disagreement between the cache's host and the origin's
/// host is exactly what lets an attacker poison a victim entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    /// Effective host (lowercased identity).
    pub host: Vec<u8>,
    /// Request target bytes.
    pub target: Vec<u8>,
}

impl CacheKey {
    /// Builds a key.
    pub fn new(host: impl Into<Vec<u8>>, target: impl Into<Vec<u8>>) -> CacheKey {
        CacheKey { host: host.into(), target: target.into() }
    }
}

/// Storage decision plus the policy that made it — kept for reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreDecision {
    /// Stored.
    Stored,
    /// Not stored: cache disabled.
    Disabled,
    /// Not stored: method not cacheable.
    MethodNotCacheable,
    /// Not stored: error status and `store_errors` off.
    ErrorNotStorable,
    /// Not stored: pre-1.1 request and `store_pre11` off.
    Pre11NotStorable,
}

/// Re-export for policy configuration.
pub use crate::profile::CacheBehavior as CachePolicy;

/// An in-memory shared cache with an explicit storability policy.
#[derive(Debug, Clone)]
pub struct Cache {
    policy: CacheBehavior,
    entries: BTreeMap<CacheKey, EchoResponse>,
}

impl Cache {
    /// Creates a cache with the given policy.
    pub fn new(policy: CacheBehavior) -> Cache {
        Cache { policy, entries: BTreeMap::new() }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Attempts to store a response for `(key, method, request version)`.
    /// Stores exactly when [`Cache::decide`] says [`StoreDecision::Stored`].
    /// The entry is the response itself, rendered only when someone asks
    /// for its bytes.
    pub fn store(
        &mut self,
        key: CacheKey,
        method: &[u8],
        request_version: &Version,
        response: &EchoResponse,
    ) -> StoreDecision {
        let decision = self.decide(method, request_version, response);
        if decision == StoreDecision::Stored {
            self.entries.insert(key, response.clone());
        }
        decision
    }

    /// The decision [`Cache::store`] would make for this request and
    /// response, read from the policy and the response's status alone:
    /// nothing is stored, copied or rendered. The decision never depends
    /// on the key or on what the cache already holds.
    pub fn decide(
        &self,
        method: &[u8],
        request_version: &Version,
        response: &EchoResponse,
    ) -> StoreDecision {
        if !self.policy.enabled {
            return StoreDecision::Disabled;
        }
        if method != b"GET" {
            return StoreDecision::MethodNotCacheable;
        }
        if response.status.is_error() && !self.policy.store_errors {
            return StoreDecision::ErrorNotStorable;
        }
        if request_version.is_pre_1_1() && !self.policy.store_pre11 {
            return StoreDecision::Pre11NotStorable;
        }
        StoreDecision::Stored
    }

    /// Looks up a stored response.
    pub fn lookup(&self, key: &CacheKey) -> Option<&EchoResponse> {
        self.entries.get(key)
    }

    /// Whether any stored entry is an error response — the CPDoS telltale.
    pub fn poisoned_entries(&self) -> Vec<(&CacheKey, &EchoResponse)> {
        self.entries.iter().filter(|(_, r)| r.status.is_error()).collect()
    }

    /// Clears the cache.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ParserProfile;
    use crate::server::Server;
    use hdiff_wire::StatusCode;

    fn policy(errors: bool, pre11: bool) -> CacheBehavior {
        CacheBehavior { enabled: true, store_errors: errors, store_pre11: pre11 }
    }

    /// A strict origin's 200 reply.
    fn ok() -> EchoResponse {
        Server::new(ParserProfile::strict("o"))
            .handle(b"GET / HTTP/1.1\r\nHost: h\r\n\r\n")
            .response
    }

    /// A strict origin's 400 reply.
    fn bad_request() -> EchoResponse {
        Server::new(ParserProfile::strict("o")).handle(b"GET / HTTP/1.1\r\n\r\n").response
    }

    #[test]
    fn stores_ok_get_responses() {
        let mut c = Cache::new(policy(false, false));
        let d = c.store(CacheKey::new("h1.com", "/"), b"GET", &Version::Http11, &ok());
        assert_eq!(d, StoreDecision::Stored);
        let stored = c.lookup(&CacheKey::new("h1.com", "/")).unwrap();
        assert_eq!(stored.status, StatusCode::OK);
        assert_eq!(stored.to_bytes(), ok().to_bytes());
        assert!(c.poisoned_entries().is_empty());
    }

    #[test]
    fn error_storability_is_the_cpdos_switch() {
        let err = bad_request();
        let key = CacheKey::new("victim.com", "/");

        let mut strict = Cache::new(policy(false, false));
        assert_eq!(
            strict.store(key.clone(), b"GET", &Version::Http11, &err),
            StoreDecision::ErrorNotStorable
        );
        assert!(strict.is_empty());

        let mut lax = Cache::new(policy(true, false));
        assert_eq!(lax.store(key.clone(), b"GET", &Version::Http11, &err), StoreDecision::Stored);
        assert_eq!(lax.poisoned_entries().len(), 1);
    }

    #[test]
    fn pre11_policy() {
        let ok = ok();
        let key = CacheKey::new("h", "/");
        let mut strict = Cache::new(policy(true, false));
        assert_eq!(
            strict.store(key.clone(), b"GET", &Version::Http10, &ok),
            StoreDecision::Pre11NotStorable
        );
        let mut lax = Cache::new(policy(true, true));
        assert_eq!(lax.store(key, b"GET", &Version::Http10, &ok), StoreDecision::Stored);
    }

    #[test]
    fn only_get_is_cacheable() {
        let mut c = Cache::new(policy(true, true));
        let d = c.store(CacheKey::new("h", "/"), b"POST", &Version::Http11, &ok());
        assert_eq!(d, StoreDecision::MethodNotCacheable);
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let mut c =
            Cache::new(CacheBehavior { enabled: false, store_errors: true, store_pre11: true });
        let d = c.store(CacheKey::new("h", "/"), b"GET", &Version::Http11, &ok());
        assert_eq!(d, StoreDecision::Disabled);
    }
}
