//! Metric names interned to small dense ids.
//!
//! A metric is a kind (span, counter or histogram) plus a name. The first
//! use of a name with a kind registers it in one process-wide,
//! append-only table, which hands out the next index of that kind; every
//! later use resolves to the same [`MetricId`]. Each thread caches the
//! name → index mapping it has seen, so after the first use a lookup
//! takes no lock and allocates nothing. Ids are only compared within one
//! process: everything persisted or printed is keyed and sorted by name.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::telemetry::EventKind;

/// A registered metric: its kind and its dense index among the metrics
/// of that kind. Obtain one with [`MetricId::span`], [`MetricId::counter`]
/// or [`MetricId::hist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    pub(crate) kind: EventKind,
    pub(crate) index: u32,
}

impl MetricId {
    /// The id of the span named `name`, registering it on first use.
    pub fn span(name: &str) -> MetricId {
        crate::record::lookup(EventKind::Span, name)
    }

    /// The id of the counter named `name`, registering it on first use.
    pub fn counter(name: &str) -> MetricId {
        crate::record::lookup(EventKind::Counter, name)
    }

    /// The id of the histogram named `name`, registering it on first use.
    pub fn hist(name: &str) -> MetricId {
        crate::record::lookup(EventKind::Hist, name)
    }

    /// The registered name.
    pub fn name(self) -> &'static str {
        registry().names[self.kind as usize][self.index as usize]
    }
}

/// The process-wide table: per kind, names by index and indices by name.
struct Registry {
    names: [Vec<&'static str>; 3],
    indices: [BTreeMap<&'static str, u32>; 3],
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    names: [Vec::new(), Vec::new(), Vec::new()],
    indices: [BTreeMap::new(), BTreeMap::new(), BTreeMap::new()],
});

fn registry() -> MutexGuard<'static, Registry> {
    // Registration only appends, and a name pushed without its index
    // entry (a panic between the two) is merely never found again, so
    // the table stays valid even if a holder panicked.
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Registers `name` under `kind` (once per process) and returns its id
/// together with the interned name.
pub(crate) fn register(kind: EventKind, name: &str) -> (MetricId, &'static str) {
    let mut reg = registry();
    let k = kind as usize;
    if let Some((&interned, &index)) = reg.indices[k].get_key_value(name) {
        return (MetricId { kind, index }, interned);
    }
    let index = u32::try_from(reg.names[k].len()).expect("fewer than 2^32 metric names");
    // Interned names live for the rest of the process: the table only
    // grows, by one short string per distinct metric.
    let interned: &'static str = Box::leak(name.to_owned().into_boxed_str());
    reg.names[k].push(interned);
    reg.indices[k].insert(interned, index);
    (MetricId { kind, index }, interned)
}

/// Slots in a thread's address-keyed front cache.
const RECENT: usize = 64;

/// One thread's name → index cache over the registry.
#[derive(Debug)]
pub(crate) struct NameCache {
    /// The last lookup that landed in each slot, keyed by the address
    /// of the name looked up (call sites pass string literals, so the
    /// address repeats). A hit still compares the bytes with the
    /// interned name, so an address reused by another string can never
    /// yield the wrong id.
    recent: [(usize, &'static str, MetricId); RECENT],
    by_name: [HashMap<&'static str, u32>; 3],
}

impl Default for NameCache {
    fn default() -> NameCache {
        // Address 0 is never a string's: every slot starts as a miss.
        let empty = (0, "", MetricId { kind: EventKind::Span, index: u32::MAX });
        NameCache { recent: [empty; RECENT], by_name: Default::default() }
    }
}

impl NameCache {
    /// The id of `name` under `kind`; takes the registry lock only the
    /// first time this thread sees the name.
    pub(crate) fn id(&mut self, kind: EventKind, name: &str) -> MetricId {
        let addr = name.as_ptr() as usize;
        let slot = (addr ^ addr >> 6 ^ kind as usize) % RECENT;
        let (seen, interned, id) = self.recent[slot];
        if seen == addr && id.kind == kind && interned == name {
            return id;
        }
        let cache = &mut self.by_name[kind as usize];
        let (id, interned) = match cache.get_key_value(name) {
            Some((&interned, &index)) => (MetricId { kind, index }, interned),
            None => {
                let (id, interned) = register(kind, name);
                cache.insert(interned, id.index);
                (id, interned)
            }
        };
        self.recent[slot] = (addr, interned, id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_name_registers_once_per_kind() {
        let a = MetricId::counter("metric.test.once");
        let b = MetricId::counter("metric.test.once");
        let span = MetricId::span("metric.test.once");
        assert_eq!(a, b);
        assert_eq!(span.kind, EventKind::Span);
        assert_eq!(a.name(), "metric.test.once");
        assert_eq!(span.name(), "metric.test.once");
        let other = MetricId::counter("metric.test.other");
        assert_ne!(a, other);
    }

    #[test]
    fn a_reused_address_never_returns_another_name_s_id() {
        let mut cache = NameCache::default();
        let mut name = String::from("metric.test.reuse.a");
        let a = cache.id(EventKind::Counter, &name);
        // Same buffer, same length, different bytes.
        name.replace_range(.., "metric.test.reuse.b");
        let b = cache.id(EventKind::Counter, &name);
        assert_ne!(a, b);
        assert_eq!(b.name(), "metric.test.reuse.b");
        assert_eq!(cache.id(EventKind::Span, &name).kind, EventKind::Span);
    }

    #[test]
    fn threads_resolve_a_name_to_the_same_id() {
        let here = MetricId::hist("metric.test.shared");
        let there = std::thread::spawn(|| MetricId::hist("metric.test.shared"))
            .join()
            .expect("the lookup thread does not panic");
        assert_eq!(here, there);
    }
}
