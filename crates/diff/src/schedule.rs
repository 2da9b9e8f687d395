//! Work-stealing fan-out for campaign chunks.
//!
//! The old scheduler pre-split every chunk into `threads` equal slices
//! (`div_ceil`), so one slow case — a stalled-read fault, a pathological
//! mutation — pinned its whole slice while sibling workers sat idle.
//! Here workers share a single atomic cursor over the chunk and claim the
//! next pending case the moment they finish one, so stragglers never
//! strand unrelated work behind them.
//!
//! Telemetry note: workers never touch shared telemetry state. Each case
//! runs in [`hdiff_obs::Recorder::case`] under the switches the campaign
//! captured from the thread that started it, so a worker records exactly
//! as that thread would. The scope collects the case's spans, counters
//! and histograms into the worker's own arrays and packs the touched
//! slots into a compact bucket travelling inside the
//! [`crate::CaseRecord`]. The runner folds buckets by metric id in corpus
//! order (`runner::fold_records`), so the merged totals are identical
//! whichever worker — or how many workers — executed each case, and
//! resuming from a checkpoint re-folds persisted buckets without
//! double-counting.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count a campaign's `threads` setting asks for: `0` means one
/// per available core, anything else is taken as is.
pub fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    }
}

/// Runs `job` over every item, fanning out across at most `workers`
/// OS threads, and returns the results in input order.
///
/// * Workers claim items one at a time from a shared [`AtomicUsize`]
///   cursor — no static pre-split, so a straggler only occupies the one
///   thread that claimed it.
/// * The worker count is clamped to `items.len()`: a chunk of 3 cases on
///   a 16-thread engine spawns 3 workers, never 16 (13 of which would
///   have nothing to do).
/// * `workers <= 1` (and single-item chunks) run inline on the caller's
///   thread with no spawning at all.
pub fn run_stealing<T, R, F>(items: &[T], workers: usize, job: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = workers.max(1).min(items.len());
    if workers == 1 {
        return items.iter().map(&job).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(idx) else { break };
                        done.push((idx, job(item)));
                    }
                    done
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("scheduler worker panicked")).collect()
    });

    for (idx, result) in buckets.into_iter().flatten() {
        debug_assert!(slots[idx].is_none(), "case {idx} claimed twice");
        slots[idx] = Some(result);
    }
    slots.into_iter().map(|s| s.expect("every case is claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let got = run_stealing(&items, 8, |&n| n * 3);
        let want: Vec<usize> = items.iter().map(|n| n * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let items: Vec<u8> = Vec::new();
        let got = run_stealing(&items, 8, |_| unreachable!("no items to run"));
        assert!(got.is_empty());
    }

    #[test]
    fn workers_are_clamped_to_item_count() {
        // 3 items, 16 requested workers: at most 3 distinct threads may
        // ever touch a case (plus zero empty spawns doing no work).
        let threads = Mutex::new(HashSet::new());
        let items = [1u8, 2, 3];
        let got = run_stealing(&items, 16, |&n| {
            threads.lock().unwrap().insert(std::thread::current().id());
            n
        });
        assert_eq!(got, vec![1, 2, 3]);
        assert!(threads.lock().unwrap().len() <= 3, "{:?}", threads.lock().unwrap());
    }

    #[test]
    fn single_worker_runs_inline() {
        let caller = std::thread::current().id();
        let items = [1u8, 2, 3];
        let got = run_stealing(&items, 1, |&n| {
            assert_eq!(std::thread::current().id(), caller);
            n * 2
        });
        assert_eq!(got, vec![2, 4, 6]);
    }

    /// The no-idle property the rewrite exists for: with one straggler
    /// (index 0) and many quick cases, the other worker must drain every
    /// quick case while the straggler is still running. The straggler
    /// spins until it *observes* all other cases complete — under the old
    /// `div_ceil` pre-split (2 workers × 6-item slices) the quick cases
    /// in the straggler's own slice could never finish and this would
    /// time out.
    #[test]
    fn no_worker_idles_while_cases_remain() {
        let quick_done = AtomicUsize::new(0);
        let items: Vec<usize> = (0..12).collect();
        let quick_total = items.len() - 1;
        let got = run_stealing(&items, 2, |&n| {
            if n == 0 {
                let deadline = Instant::now() + Duration::from_secs(10);
                while quick_done.load(Ordering::SeqCst) < quick_total {
                    assert!(
                        Instant::now() < deadline,
                        "straggler stranded {} unfinished case(s): a worker idled",
                        quick_total - quick_done.load(Ordering::SeqCst)
                    );
                    std::thread::yield_now();
                }
            } else {
                quick_done.fetch_add(1, Ordering::SeqCst);
            }
            n
        });
        assert_eq!(got, items);
    }
}
