//! Delta-debugging minimization of flagged cases.
//!
//! A campaign finding is a raw mutated byte string: the trigger of the
//! semantic gap is buried in generation noise (padding headers, mutated
//! fields that turned out irrelevant). This module shrinks such a case
//! while a pluggable predicate — typically "the same detector still fires
//! on the same profile pair" — keeps holding, using Zeller-style ddmin
//! (complement removal with progressive re-chunking) at three
//! granularities:
//!
//! 1. **header lines** — whole `CRLF`-terminated lines of the header
//!    section (the request line is always kept), which removes noise
//!    headers in `O(log n)` predicate calls;
//! 2. **byte chunks** — fixed-width slices of the whole candidate, which
//!    shrinks bodies and multi-byte values structure-blind;
//! 3. **single bytes** — a final sweep removing one byte at a time
//!    (skipped above [`MinimizeOptions::byte_pass_limit`], where it would
//!    dominate the budget for marginal gain).
//!
//! The passes repeat to fixpoint under a global attempt budget. Every
//! predicate call runs under [`std::panic::catch_unwind`]: a shrink
//! candidate hostile enough to panic the harness is counted as
//! quarantined and rejected, never fatal — the same resilience posture as
//! the campaign runner. Minimization is fully deterministic: same input,
//! predicate, and options give the same minimized bytes, byte for byte.

use std::borrow::Cow;
use std::panic::{self, AssertUnwindSafe};

use hdiff_servers::fault::{FaultInjector, FaultPlan, FaultSession};
use hdiff_servers::ParserProfile;

use crate::detect::detect_case_with_oracle;
use crate::findings::Finding;
use crate::syntax::SyntaxOracle;
use crate::workflow::{Workflow, STEP_BUDGET};

/// Tuning knobs for one minimization.
#[derive(Debug, Clone)]
pub struct MinimizeOptions {
    /// Global predicate-call budget across all passes.
    pub max_attempts: usize,
    /// Run the single-byte sweep only when the candidate is at most this
    /// long.
    pub byte_pass_limit: usize,
    /// Width of the byte-chunk pass's atoms.
    pub chunk_width: usize,
}

impl Default for MinimizeOptions {
    fn default() -> Self {
        MinimizeOptions { max_attempts: 4096, byte_pass_limit: 512, chunk_width: 8 }
    }
}

/// Bookkeeping of one minimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MinimizeStats {
    /// Predicate calls made (including the initial validity check).
    pub attempts: usize,
    /// Candidates the predicate accepted.
    pub accepted: usize,
    /// Candidates that panicked the predicate (counted as rejected).
    pub quarantined: usize,
    /// Input length in bytes.
    pub original_len: usize,
    /// Output length in bytes.
    pub minimized_len: usize,
}

impl MinimizeStats {
    /// `minimized_len / original_len` in [0, 1]; 1.0 for empty input.
    pub fn shrink_ratio(&self) -> f64 {
        if self.original_len == 0 {
            1.0
        } else {
            self.minimized_len as f64 / self.original_len as f64
        }
    }
}

/// A minimization result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Minimized {
    /// The smallest accepted candidate (the input itself if nothing
    /// smaller was accepted, or if the predicate rejected the input).
    pub bytes: Vec<u8>,
    /// What it cost.
    pub stats: MinimizeStats,
}

/// Shrinks `bytes` while `predicate` holds. The predicate must hold on
/// `bytes` itself; if it does not, the input is returned unchanged (with
/// `stats.attempts == 1`) rather than "minimized" to something unrelated.
pub fn minimize<F>(bytes: &[u8], predicate: F, opts: &MinimizeOptions) -> Minimized
where
    F: Fn(&[u8]) -> bool,
{
    let mut m = Minimizer { predicate: &predicate, opts, stats: MinimizeStats::default() };
    m.stats.original_len = bytes.len();
    if !m.check(bytes) {
        m.stats.minimized_len = bytes.len();
        return Minimized { bytes: bytes.to_vec(), stats: m.stats };
    }
    let mut current = bytes.to_vec();
    loop {
        let before = current.len();
        current = m.header_line_pass(current);
        current = m.chunk_pass(current);
        current = m.byte_sweep(current);
        if current.len() >= before || m.exhausted() {
            break;
        }
    }
    m.stats.minimized_len = current.len();
    Minimized { bytes: current, stats: m.stats }
}

/// Zeller-style ddmin over an arbitrary atom sequence — the structured
/// entry point: a caller whose case has structure (a fuzz stream's
/// requests, an h2 case's requests and headers, a cookie case's lines
/// and `;`-segments) passes one level's parts as atoms and a predicate
/// over the surviving subsequence, then shrinks each surviving part one
/// level down. Same contract as [`minimize`]: the predicate must
/// hold on the full sequence (otherwise it is returned unchanged with
/// `stats.attempts == 1`), every predicate call runs under
/// `catch_unwind` (a panicking candidate is counted as quarantined and
/// rejected), and the whole pass is budgeted by
/// [`MinimizeOptions::max_attempts`]. Deterministic: same items,
/// predicate, and options give the same surviving subsequence.
pub fn ddmin_items<T, P>(
    items: &[T],
    predicate: P,
    opts: &MinimizeOptions,
) -> (Vec<T>, MinimizeStats)
where
    T: Clone,
    P: Fn(&[T]) -> bool,
{
    let mut m = Minimizer { predicate: &predicate, opts, stats: MinimizeStats::default() };
    m.stats.original_len = items.len();
    let mut kept = items.to_vec();
    if m.check(items) {
        kept = m.ddmin(kept, &|kept| Cow::Borrowed(kept));
    }
    m.stats.minimized_len = kept.len();
    (kept, m.stats)
}

/// The budgeted, quarantining ddmin state over a predicate on `[T]`.
struct Minimizer<'a, T> {
    predicate: &'a dyn Fn(&[T]) -> bool,
    opts: &'a MinimizeOptions,
    stats: MinimizeStats,
}

impl<T: Clone> Minimizer<'_, T> {
    fn exhausted(&self) -> bool {
        self.stats.attempts >= self.opts.max_attempts
    }

    /// One budgeted, quarantined predicate call.
    fn check(&mut self, candidate: &[T]) -> bool {
        if self.exhausted() {
            return false;
        }
        self.stats.attempts += 1;
        match panic::catch_unwind(AssertUnwindSafe(|| (self.predicate)(candidate))) {
            Ok(true) => {
                self.stats.accepted += 1;
                true
            }
            Ok(false) => false,
            Err(_) => {
                self.stats.quarantined += 1;
                false
            }
        }
    }

    /// ddmin proper: removes complement chunks of `atoms` while the
    /// assembled candidate keeps satisfying the predicate, re-chunking
    /// finer on failure. Returns the minimal surviving atom list.
    fn ddmin<A: Clone>(
        &mut self,
        mut atoms: Vec<A>,
        assemble: &dyn Fn(&[A]) -> Cow<'_, [T]>,
    ) -> Vec<A> {
        if atoms.is_empty() {
            return atoms;
        }
        // Cheapest first: all atoms gone at once.
        if self.check(&assemble(&[])) {
            return Vec::new();
        }
        let mut n = 2usize.min(atoms.len());
        while atoms.len() >= 2 && !self.exhausted() {
            let chunk = atoms.len().div_ceil(n);
            let mut reduced = false;
            let mut start = 0usize;
            while start < atoms.len() && !self.exhausted() {
                let end = (start + chunk).min(atoms.len());
                let complement: Vec<A> =
                    atoms[..start].iter().chain(atoms[end..].iter()).cloned().collect();
                if self.check(&assemble(&complement)) {
                    atoms = complement;
                    n = n.saturating_sub(1).max(2).min(atoms.len().max(2));
                    reduced = true;
                    break;
                }
                start = end;
            }
            if !reduced {
                if chunk <= 1 {
                    break;
                }
                n = (n * 2).min(atoms.len());
            }
        }
        atoms
    }
}

impl Minimizer<'_, u8> {
    /// Header-line granularity: ddmin over the header lines after the
    /// request line, keeping request line, blank line, and body fixed.
    /// Skipped for candidates without an HTTP-shaped head.
    fn header_line_pass(&mut self, current: Vec<u8>) -> Vec<u8> {
        let Some(head_end) = find(&current, b"\r\n\r\n") else { return current };
        let Some(line_end) = find(&current, b"\r\n") else { return current };
        let prefix = current[..line_end + 2].to_vec();
        let suffix = current[head_end + 2..].to_vec(); // blank line + body
        let mut lines: Vec<Vec<u8>> = Vec::new();
        let mut rest = &current[line_end + 2..head_end + 2];
        while let Some(e) = find(rest, b"\r\n") {
            lines.push(rest[..e + 2].to_vec());
            rest = &rest[e + 2..];
        }
        if lines.is_empty() {
            return current;
        }
        let assemble = |kept: &[Vec<u8>]| {
            let mut out = prefix.clone();
            for l in kept {
                out.extend_from_slice(l);
            }
            out.extend_from_slice(&suffix);
            out
        };
        let kept = self.ddmin(lines, &|kept| Cow::Owned(assemble(kept)));
        assemble(&kept)
    }

    /// Byte-chunk granularity: ddmin over fixed-width slices of the whole
    /// candidate.
    fn chunk_pass(&mut self, current: Vec<u8>) -> Vec<u8> {
        let width = self.opts.chunk_width.max(1);
        if current.len() <= width {
            return current;
        }
        let atoms: Vec<Vec<u8>> = current.chunks(width).map(<[u8]>::to_vec).collect();
        let kept = self.ddmin(atoms, &|kept| Cow::Owned(kept.concat()));
        let candidate = kept.concat();
        if candidate.len() < current.len() {
            candidate
        } else {
            current
        }
    }

    /// Single-byte granularity: repeatedly remove any one byte whose
    /// removal keeps the predicate true, to fixpoint.
    fn byte_sweep(&mut self, current: Vec<u8>) -> Vec<u8> {
        if current.len() > self.opts.byte_pass_limit {
            return current;
        }
        let mut cur = current;
        let mut changed = true;
        while changed && !self.exhausted() {
            changed = false;
            let mut i = 0usize;
            while i < cur.len() && !self.exhausted() {
                let mut cand = Vec::with_capacity(cur.len() - 1);
                cand.extend_from_slice(&cur[..i]);
                cand.extend_from_slice(&cur[i + 1..]);
                if self.check(&cand) {
                    cur = cand;
                    changed = true;
                } else {
                    i += 1;
                }
            }
        }
        cur
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Everything needed to re-detect a finding on arbitrary candidate bytes:
/// the workflow environment, the profile set and an optional syntax
/// oracle. Every attempt runs on the sim under [`STEP_BUDGET`], which
/// bounds hostile candidates.
pub struct FindingContext<'a> {
    workflow: &'a Workflow,
    profiles: &'a [ParserProfile],
    /// Oracle used for detection annotations (kept identical to the
    /// campaign's so re-detected findings compare equal).
    pub oracle: Option<&'a SyntaxOracle>,
}

impl<'a> FindingContext<'a> {
    /// Builds a context over a workflow and profile set.
    pub fn new(workflow: &'a Workflow, profiles: &'a [ParserProfile]) -> FindingContext<'a> {
        FindingContext { workflow, profiles, oracle: None }
    }

    /// Detects findings on exact candidate bytes, under a fresh disabled
    /// fault session that still enforces [`STEP_BUDGET`].
    pub fn findings_for(&self, uuid: u64, origin: &str, bytes: &[u8]) -> Vec<Finding> {
        let injector = FaultInjector::new(FaultPlan::disabled());
        let session = FaultSession::new(&injector, uuid, 0, STEP_BUDGET);
        let outcome = self.workflow.run_bytes_faulted(uuid, origin, bytes, Some(&session));
        detect_case_with_oracle(self.profiles, &outcome, self.oracle)
    }

    /// Whether `bytes` still reproduce `finding`: some finding with the
    /// [same divergence](Finding::same_divergence) is detected on them.
    pub fn reproduces(&self, finding: &Finding, bytes: &[u8]) -> bool {
        self.findings_for(finding.uuid, &finding.origin, bytes)
            .iter()
            .any(|f| f.same_divergence(finding))
    }

    /// Minimizes the bytes behind `finding` while it
    /// [reproduces](FindingContext::reproduces).
    pub fn minimize_finding(
        &self,
        finding: &Finding,
        bytes: &[u8],
        opts: &MinimizeOptions,
    ) -> Minimized {
        let _span = hdiff_obs::span("stage.minimize");
        minimize(bytes, |candidate| self.reproduces(finding, candidate), opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdiff_gen::AttackClass;

    fn opts() -> MinimizeOptions {
        MinimizeOptions::default()
    }

    #[test]
    fn ddmin_items_shrinks_to_the_needed_atoms() {
        let items: Vec<u32> = (0..16).collect();
        let (kept, stats) = ddmin_items(&items, |c| c.contains(&3) && c.contains(&11), &opts());
        assert_eq!(kept, vec![3, 11]);
        assert_eq!(stats.original_len, 16);
        assert_eq!(stats.minimized_len, 2);
    }

    #[test]
    fn ddmin_items_rejected_input_is_unchanged() {
        let items = vec![1u8, 2, 3];
        let (kept, stats) = ddmin_items(&items, |_| false, &opts());
        assert_eq!(kept, items);
        assert_eq!(stats.attempts, 1);
    }

    #[test]
    fn ddmin_items_quarantines_panicking_candidates() {
        let hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let items: Vec<u32> = (0..12).collect();
        let (kept, stats) = ddmin_items(
            &items,
            |c| {
                if c.len() < 2 {
                    panic!("harness wedged");
                }
                c.contains(&5) && c.contains(&9)
            },
            &opts(),
        );
        panic::set_hook(hook);
        assert_eq!(kept, vec![5, 9]);
        assert!(stats.quarantined > 0, "{stats:?}");
    }

    #[test]
    fn rejected_input_is_returned_unchanged() {
        let out = minimize(b"hello world", |_| false, &opts());
        assert_eq!(out.bytes, b"hello world");
        assert_eq!(out.stats.attempts, 1);
        assert_eq!(out.stats.accepted, 0);
    }

    #[test]
    fn shrinks_to_the_embedded_trigger() {
        // Predicate: candidate still contains the token. ddmin must strip
        // everything else.
        let noise = "xxxxxxxxxxxxxxxxTRIGGERyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy";
        let holds = |c: &[u8]| find(c, b"TRIGGER").is_some();
        let out = minimize(noise.as_bytes(), holds, &opts());
        assert_eq!(out.bytes, b"TRIGGER");
        assert!(out.stats.accepted > 0);
        assert!(out.stats.shrink_ratio() < 0.2, "{:?}", out.stats);
    }

    #[test]
    fn header_line_pass_strips_noise_headers() {
        let mut req = b"POST / HTTP/1.1\r\nHost: h1.com\r\n".to_vec();
        for i in 0..20 {
            req.extend_from_slice(format!("X-Pad-{i}: aaaaaaaaaaaaaaaaaaaaaaaa\r\n").as_bytes());
        }
        req.extend_from_slice(b"Content-Length: 3\r\n\r\nabc");
        let holds = |c: &[u8]| {
            c.starts_with(b"POST") && find(c, b"Content-Length: 3").is_some() && c.ends_with(b"abc")
        };
        let out = minimize(&req, holds, &opts());
        assert!(find(&out.bytes, b"X-Pad-").is_none(), "{}", String::from_utf8_lossy(&out.bytes));
        assert!(out.bytes.len() * 2 <= req.len());
    }

    #[test]
    fn panicking_candidates_are_quarantined_not_fatal() {
        let hook = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        // Panics whenever the candidate lost its final byte; the minimizer
        // must absorb the panics and still shrink the front.
        let out = minimize(
            b"aaaaaaaaaaaaaaaaZ",
            |c: &[u8]| {
                if !c.ends_with(b"Z") {
                    panic!("harness wedged");
                }
                true
            },
            &opts(),
        );
        panic::set_hook(hook);
        assert_eq!(out.bytes, b"Z");
        assert!(out.stats.quarantined > 0, "{:?}", out.stats);
    }

    #[test]
    fn attempt_budget_is_respected() {
        let tight = MinimizeOptions { max_attempts: 10, ..MinimizeOptions::default() };
        let out = minimize(&[b'a'; 300], |_| true, &tight);
        assert!(out.stats.attempts <= 10, "{:?}", out.stats);
    }

    #[test]
    fn minimization_is_deterministic() {
        let input: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8 | 1).collect();
        let holds = |c: &[u8]| c.iter().filter(|&&b| b == 3).count() >= 2;
        let a = minimize(&input, holds, &opts());
        let b = minimize(&input, holds, &opts());
        assert_eq!(a, b);
    }

    #[test]
    fn finding_context_redetects_and_minimizes_a_catalog_finding() {
        let workflow = Workflow::standard();
        let profiles = hdiff_servers::products();
        let ctx = FindingContext::new(&workflow, &profiles);
        // The dual-Host catalog vector, padded with noise headers.
        let mut bytes = b"GET / HTTP/1.1\r\nHost: h1.com\r\nHost: h2.com\r\n".to_vec();
        for i in 0..12 {
            bytes.extend_from_slice(format!("X-Pad-{i}: {:a>40}\r\n", "").as_bytes());
        }
        bytes.extend_from_slice(b"\r\n");
        let findings = ctx.findings_for(77, "catalog:dual-host", &bytes);
        let hot = findings
            .iter()
            .find(|f| f.class == AttackClass::Hot && f.is_pair())
            .expect("dual-host must flag HoT");
        let out = ctx.minimize_finding(hot, &bytes, &opts());
        assert!(out.bytes.len() * 2 <= bytes.len(), "{}", String::from_utf8_lossy(&out.bytes));
        // The minimized case still trips the same detector pair.
        let again = ctx.findings_for(77, "catalog:dual-host", &out.bytes);
        assert!(again.iter().any(|f| f.same_divergence(hot)));
    }
}
