//! Deterministic infrastructure-fault injection.
//!
//! Real deployments fail in ways a clean testbed never shows: origins
//! reset connections mid-message, responses arrive truncated, reads
//! stall, forwarded bytes get garbled, transient 5xx errors appear and
//! disappear. A campaign that dies on the first such fault cannot run at
//! scale, and a differential engine that never sees faults misses an
//! entire class of semantic gaps — implementations *react differently to
//! the same broken upstream*, which is itself a detectable divergence.
//!
//! Every fault decision here is a pure function of
//! `(seed, case uuid, hop, stage, attempt)`, so a replayed case sees a
//! byte-identical fault schedule, retries deterministically clear (or
//! deterministically re-hit) transient faults, and an interrupted
//! campaign resumes to the same result.

use std::cell::{Cell, RefCell};
use std::fmt;

/// The kinds of infrastructure fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Connection reset mid-message: the peer sees a byte prefix.
    ConnReset,
    /// Origin response cut short (body shorter than its framing claims).
    TruncateResponse,
    /// A read that never completes; modeled as logical step-budget
    /// exhaustion rather than wall-clock time.
    StallRead,
    /// Forwarded bytes corrupted in flight.
    GarbleForward,
    /// A transient 5xx from the origin that clears on retry.
    Transient5xx,
}

impl FaultKind {
    /// Every kind, in a fixed order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::ConnReset,
        FaultKind::TruncateResponse,
        FaultKind::StallRead,
        FaultKind::GarbleForward,
        FaultKind::Transient5xx,
    ];

    /// Whether a bounded retry may clear the fault (the decision hash
    /// includes the attempt number, so a retry re-rolls it).
    pub fn is_transient(self) -> bool {
        matches!(self, FaultKind::Transient5xx | FaultKind::ConnReset | FaultKind::StallRead)
    }

    /// Stable name used in checkpoints and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::ConnReset => "conn-reset",
            FaultKind::TruncateResponse => "truncate-response",
            FaultKind::StallRead => "stall-read",
            FaultKind::GarbleForward => "garble-forward",
            FaultKind::Transient5xx => "transient-5xx",
        }
    }

    /// Parses [`FaultKind::as_str`] output.
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in a hop's processing a fault strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultStage {
    /// A proxy forwarding the request downstream.
    Forward,
    /// The origin producing its response.
    OriginRespond,
}

impl FaultStage {
    /// Stable name used in checkpoints and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultStage::Forward => "forward",
            FaultStage::OriginRespond => "origin-respond",
        }
    }

    /// Parses [`FaultStage::as_str`] output.
    pub fn parse(s: &str) -> Option<FaultStage> {
        [FaultStage::Forward, FaultStage::OriginRespond].into_iter().find(|st| st.as_str() == s)
    }

    /// The fault kinds that can physically occur at this stage.
    fn applicable(self) -> &'static [FaultKind] {
        match self {
            FaultStage::Forward => {
                &[FaultKind::ConnReset, FaultKind::GarbleForward, FaultKind::StallRead]
            }
            FaultStage::OriginRespond => &[
                FaultKind::ConnReset,
                FaultKind::TruncateResponse,
                FaultKind::Transient5xx,
                FaultKind::StallRead,
            ],
        }
    }
}

impl fmt::Display for FaultStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Configuration for a campaign's fault injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed mixed into every decision hash.
    pub seed: u64,
    /// Percent (0..=100) of decision points that fault.
    pub rate: u8,
    /// Kinds eligible for injection (intersected with the stage's
    /// applicable set).
    pub kinds: Vec<FaultKind>,
}

impl FaultPlan {
    /// A plan injecting all kinds at `rate` percent.
    pub fn new(seed: u64, rate: u8) -> FaultPlan {
        FaultPlan { seed, rate: rate.min(100), kinds: FaultKind::ALL.to_vec() }
    }

    /// A plan that never faults.
    pub fn disabled() -> FaultPlan {
        FaultPlan { seed: 0, rate: 0, kinds: Vec::new() }
    }

    /// Restricts the plan to the given kinds.
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> FaultPlan {
        self.kinds = kinds.to_vec();
        self
    }
}

/// One decision to inject a fault, with a salt for deterministic
/// byte-level effects (truncation points, garble positions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultDecision {
    /// What to inject.
    pub kind: FaultKind,
    /// Deterministic per-decision entropy.
    pub salt: u64,
}

impl FaultDecision {
    /// The prefix length a reset-mid-message leaves behind: always at
    /// least one byte short, never empty for non-empty input.
    pub fn reset_point(&self, len: usize) -> usize {
        if len <= 1 {
            return 0;
        }
        1 + (self.salt as usize) % (len - 1)
    }

    /// Corrupts one byte of `bytes` in place of clean forwarding.
    pub fn garble(&self, bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        if !out.is_empty() {
            let idx = (self.salt as usize) % out.len();
            // Flip a low bit-pattern that keeps the byte printable-ish but
            // changes token identity.
            out[idx] ^= 0x02;
        }
        out
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The deterministic fault oracle.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Wraps a plan.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan }
    }

    /// The plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides whether the decision point `(uuid, hop, stage, attempt)`
    /// faults, and with what. Pure: identical inputs always yield the
    /// identical decision.
    pub fn decide(
        &self,
        uuid: u64,
        hop: &str,
        stage: FaultStage,
        attempt: u32,
    ) -> Option<FaultDecision> {
        if self.plan.rate == 0 || self.plan.kinds.is_empty() {
            return None;
        }
        let eligible: Vec<FaultKind> =
            stage.applicable().iter().copied().filter(|k| self.plan.kinds.contains(k)).collect();
        if eligible.is_empty() {
            return None;
        }
        let h = mix(self
            .plan
            .seed
            .wrapping_add(mix(uuid))
            .wrapping_add(mix(hash_str(hop)))
            .wrapping_add(mix(stage as u64 + 1))
            .wrapping_add(mix(u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15))));
        if h % 100 >= u64::from(self.plan.rate) {
            return None;
        }
        let kind = eligible[((h >> 32) as usize) % eligible.len()];
        Some(FaultDecision { kind, salt: mix(h) })
    }
}

/// A fault that actually fired during a case run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// The hop at which it fired (`"origin"` for the origin).
    pub hop: String,
    /// The processing stage.
    pub stage: FaultStage,
    /// What was injected.
    pub kind: FaultKind,
}

/// Per-case-attempt fault context: the decisions recorded as events and
/// the step budget. For an h1 case only the case body in
/// `hdiff_diff::workflow` decides faults and charges steps; the server
/// and proxy models only apply the effects they are handed.
/// Interior-mutable so the body takes `&self`; a session belongs to one
/// worker thread for one attempt.
#[derive(Debug)]
pub struct FaultSession<'a> {
    injector: &'a FaultInjector,
    /// The case being run.
    pub uuid: u64,
    /// The retry attempt (0 = first try).
    pub attempt: u32,
    events: RefCell<Vec<FaultEvent>>,
    remaining_steps: Cell<u64>,
}

impl<'a> FaultSession<'a> {
    /// Starts a session with `budget` logical steps.
    pub fn new(injector: &'a FaultInjector, uuid: u64, attempt: u32, budget: u64) -> Self {
        FaultSession {
            injector,
            uuid,
            attempt,
            events: RefCell::new(Vec::new()),
            remaining_steps: Cell::new(budget),
        }
    }

    /// Looks up the decision for `(hop, stage)` *without* recording an
    /// event. A proxy hop needs its forward decision before it runs (on
    /// the wire it runs on the event loop, which cannot share this
    /// `RefCell`-based session), but the event is recorded only for a
    /// forwarded message the case keeps — the caller follows up with
    /// [`FaultSession::decide`] then.
    pub fn peek(&self, hop: &str, stage: FaultStage) -> Option<FaultDecision> {
        self.injector.decide(self.uuid, hop, stage, self.attempt)
    }

    /// Decides a fault for `(hop, stage)` and records it. Deterministic,
    /// so repeated calls for the same point record one event.
    pub fn decide(&self, hop: &str, stage: FaultStage) -> Option<FaultDecision> {
        let decision = self.injector.decide(self.uuid, hop, stage, self.attempt)?;
        let event = FaultEvent { hop: hop.to_string(), stage, kind: decision.kind };
        let mut events = self.events.borrow_mut();
        if !events.contains(&event) {
            events.push(event);
        }
        Some(decision)
    }

    /// Charges `steps` against the budget; `false` once exhausted.
    pub fn charge(&self, steps: u64) -> bool {
        let rem = self.remaining_steps.get();
        if rem == 0 {
            return false;
        }
        self.remaining_steps.set(rem.saturating_sub(steps));
        self.remaining_steps.get() > 0
    }

    /// Burns the whole remaining budget (a stalled read never returns).
    pub fn exhaust(&self) {
        self.remaining_steps.set(0);
    }

    /// Whether the step budget ran out.
    pub fn exhausted(&self) -> bool {
        self.remaining_steps.get() == 0
    }

    /// The faults that fired so far.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_faults() {
        let inj = FaultInjector::new(FaultPlan::disabled());
        for uuid in 0..200 {
            assert!(inj.decide(uuid, "nginx", FaultStage::Forward, 0).is_none());
        }
    }

    #[test]
    fn full_rate_always_faults() {
        let inj = FaultInjector::new(FaultPlan::new(7, 100));
        for uuid in 0..200 {
            assert!(inj.decide(uuid, "nginx", FaultStage::Forward, 0).is_some());
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultInjector::new(FaultPlan::new(42, 35));
        let b = FaultInjector::new(FaultPlan::new(42, 35));
        for uuid in 0..500 {
            for stage in [FaultStage::Forward, FaultStage::OriginRespond] {
                assert_eq!(a.decide(uuid, "squid", stage, 3), b.decide(uuid, "squid", stage, 3));
            }
        }
    }

    #[test]
    fn decisions_vary_with_every_key_component() {
        let inj = FaultInjector::new(FaultPlan::new(1, 50));
        let base: Vec<_> =
            (0..200).map(|u| inj.decide(u, "nginx", FaultStage::Forward, 0)).collect();
        let by_hop: Vec<_> =
            (0..200).map(|u| inj.decide(u, "squid", FaultStage::Forward, 0)).collect();
        let by_attempt: Vec<_> =
            (0..200).map(|u| inj.decide(u, "nginx", FaultStage::Forward, 1)).collect();
        assert_ne!(base, by_hop);
        assert_ne!(base, by_attempt);
    }

    #[test]
    fn rate_is_roughly_respected() {
        let inj = FaultInjector::new(FaultPlan::new(9, 20));
        let fired = (0..2000)
            .filter(|&u| inj.decide(u, "h", FaultStage::OriginRespond, 0).is_some())
            .count();
        assert!((200..=600).contains(&fired), "20% of 2000 ≈ 400, got {fired}");
    }

    #[test]
    fn stage_filters_kinds() {
        let plan = FaultPlan::new(3, 100).with_kinds(&[FaultKind::Transient5xx]);
        let inj = FaultInjector::new(plan);
        // Transient5xx cannot occur at the Forward stage.
        assert!(inj.decide(1, "nginx", FaultStage::Forward, 0).is_none());
        assert_eq!(
            inj.decide(1, "origin", FaultStage::OriginRespond, 0).map(|d| d.kind),
            Some(FaultKind::Transient5xx)
        );
    }

    #[test]
    fn session_records_unique_events_and_budget() {
        let inj = FaultInjector::new(FaultPlan::new(3, 100));
        let s = FaultSession::new(&inj, 11, 0, 10);
        s.decide("origin", FaultStage::OriginRespond);
        s.decide("origin", FaultStage::OriginRespond);
        assert_eq!(s.events().len(), 1);
        assert!(s.charge(5));
        assert!(!s.charge(5));
        assert!(s.exhausted());
    }

    #[test]
    fn reset_point_is_a_proper_prefix() {
        let d = FaultDecision { kind: FaultKind::ConnReset, salt: 0xDEAD_BEEF };
        for len in [0usize, 1, 2, 10, 1000] {
            let p = d.reset_point(len);
            assert!(p < len.max(1), "len={len} p={p}");
        }
    }

    #[test]
    fn garble_changes_exactly_one_byte() {
        let d = FaultDecision { kind: FaultKind::GarbleForward, salt: 12345 };
        let input = b"GET / HTTP/1.1\r\nHost: h\r\n\r\n";
        let out = d.garble(input);
        assert_eq!(out.len(), input.len());
        let diff = input.iter().zip(&out).filter(|(a, b)| a != b).count();
        assert_eq!(diff, 1);
    }

    #[test]
    fn kind_and_stage_names_round_trip() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::parse(k.as_str()), Some(k));
        }
        for st in [FaultStage::Forward, FaultStage::OriginRespond] {
            assert_eq!(FaultStage::parse(st.as_str()), Some(st));
        }
    }
}
