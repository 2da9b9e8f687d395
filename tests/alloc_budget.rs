//! Allocation budget of the in-process Fig. 6 chain.
//!
//! Counts heap allocations per case while the Table II catalog runs
//! through `Workflow::run_case` and through a one-thread
//! `DiffEngine::run` (detection, telemetry and summary included). The
//! counter is thread-local, so allocations the test harness makes on
//! its other threads never reach it. Each bound sits just above the
//! count the current code makes (DESIGN.md "How the sim chain
//! allocates" lists what the chain builds once per workflow, once per
//! case and once per message); a change that brings back per-case
//! rebuilds or per-message temporaries fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hdiff::diff::{DiffEngine, Workflow};
use hdiff::gen::{catalog, Origin, TestCase};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` keeps the allocator usable while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a const-initialized thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (fresh and grown) this thread makes while `f` runs.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

fn catalog_cases() -> Vec<TestCase> {
    let mut cases = Vec::new();
    for entry in catalog::catalog() {
        for (request, note) in entry.requests {
            cases.push(TestCase {
                uuid: cases.len() as u64 + 1,
                request,
                assertions: Vec::new(),
                origin: Origin::Catalog(entry.id.to_string()),
                note,
            });
        }
    }
    cases
}

/// Allocations per case of `Workflow::run_case` over the catalog. The
/// code this budget was set on makes 392.7 (14,136 over 36 cases).
const RUN_CASE_BUDGET: f64 = 400.0;

/// Allocations per case of a one-thread `DiffEngine::run` over the
/// catalog. The code this budget was set on makes 541.4 (19,489 over 36
/// cases).
const ENGINE_RUN_BUDGET: f64 = 550.0;

#[test]
fn run_case_stays_within_its_allocation_budget() {
    let cases = catalog_cases();
    let workflow = Workflow::standard();
    // One case outside the count, so one-time initialization is not
    // charged to the campaign.
    workflow.run_case(&cases[0]);
    let (allocations, chains) =
        allocations_in(|| cases.iter().map(|c| workflow.run_case(c).chains.len()).sum::<usize>());
    assert_eq!(chains, cases.len() * workflow.proxies().len());
    let per_case = allocations as f64 / cases.len() as f64;
    println!("Workflow::run_case: {allocations} allocations over {} cases", cases.len());
    assert!(
        per_case <= RUN_CASE_BUDGET,
        "Workflow::run_case made {per_case:.1} allocations per case, budget {RUN_CASE_BUDGET}"
    );
}

#[test]
fn engine_run_stays_within_its_allocation_budget() {
    let cases = catalog_cases();
    let mut engine = DiffEngine::standard();
    engine.threads = 1;
    engine.run(&cases[..1]);
    let (allocations, summary) = allocations_in(|| engine.run(&cases));
    assert_eq!(summary.cases, cases.len());
    assert!(!summary.findings.is_empty());
    let per_case = allocations as f64 / cases.len() as f64;
    println!("DiffEngine::run: {allocations} allocations over {} cases", cases.len());
    assert!(
        per_case <= ENGINE_RUN_BUDGET,
        "DiffEngine::run made {per_case:.1} allocations per case, budget {ENGINE_RUN_BUDGET}"
    );
}
