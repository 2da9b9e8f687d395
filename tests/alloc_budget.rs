//! Allocation and heap budgets of the in-process Fig. 6 chain and of
//! corpus generation.
//!
//! Counts heap allocations per case while the Table II catalog runs
//! through `Workflow::run_case` and through a one-thread
//! `DiffEngine::run` (detection, telemetry and summary included), and
//! how far a campaign's live heap grows per case. On the generation side
//! it counts allocations per value of the ABNF-tree mutator over the
//! adapted grammar, and per case of `HDiff::generate_cases` on the
//! paper-scale configuration (analysis outside the count). The counters
//! are thread-local, so allocations the test harness makes on its other
//! threads never reach them. Each bound sits just above what the current
//! code makes (DESIGN.md "How the sim chain allocates" lists what the
//! chain builds once per workflow, once per case and once per message,
//! and what generation builds once per call and once per value;
//! DESIGN.md §13 what a case's telemetry keeps); a change that brings
//! back per-case rebuilds, per-message temporaries, per-case telemetry
//! maps or a generator per generated value fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hdiff::diff::{DiffEngine, Workflow};
use hdiff::gen::{catalog, Origin, TestCase, TreeMutator};
use hdiff::obs::{count, observe, span, Recorder};
use hdiff::servers::{interpret, products, proxies, ParserProfile, Proxy, Server};
use hdiff::{HDiff, HdiffConfig};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` reached since the last [`heap_growth_in`].
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Records one allocation that changes this thread's live bytes by
/// `delta`.
fn bump(delta: i64) {
    // `try_with` keeps the allocator usable while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    grow(delta);
}

fn grow(delta: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// A layout size as a byte delta (sizes never exceed `isize::MAX`).
fn bytes(size: usize) -> i64 {
    size as i64
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counters are const-initialized thread-local `Cell`s, which never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(bytes(layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(bytes(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(bytes(new_size) - bytes(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-bytes(layout.size()));
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

/// How far this thread's live heap rose above its level at the start
/// while `f` ran (allocations `f` frees again before it returns count
/// only while they were live).
fn heap_growth_in<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (PEAK.with(Cell::get) - start, out)
}

/// The Table II catalog, `rounds` times over, with distinct uuids.
fn catalog_rounds(rounds: usize) -> Vec<TestCase> {
    let mut cases = Vec::new();
    for _ in 0..rounds {
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
    }
    cases
}

fn catalog_cases() -> Vec<TestCase> {
    catalog_rounds(1)
}

/// Allocations per case of `Workflow::run_case` over the catalog. The
/// code this budget was set on makes 127.2 (4,578 over 36 cases); while
/// every reply and proxy rejection was built as a wire `Response` it
/// made 224.1 (8,068), and while every interpretation also owned copies
/// of its parts and every response its reason and version 392.7
/// (14,136).
const RUN_CASE_BUDGET: f64 = 129.0;

/// Allocations per case of a one-thread `DiffEngine::run` over the
/// catalog. The code this budget was set on makes 141.7 (5,100 over 36
/// cases); with wire `Response` replies it made 238.6 (8,590), with
/// owned interpretation parts too 414.5 (14,922), and while findings
/// also owned their names, culprit sets and evidence as strings 489.8
/// (17,634).
const ENGINE_RUN_BUDGET: f64 = 143.0;

/// Bytes per case a one-thread `DiffEngine::run` over the catalog, 20
/// times over, may grow the heap by: its records, their telemetry
/// buckets and the summary. The code this budget was set on grows it by
/// 1,380 bytes per case (993,875 over 720 cases); with
/// findings that owned their names, culprit sets and evidence as strings
/// it grew by 5,144, and with a named telemetry map per case and findings
/// cloned into the summary by 14,537.
const ENGINE_HEAP_BUDGET: f64 = 1_400.0;

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
    // One catalog round outside the count, so one-time initialization
    // (the name table's entries among it) is not charged to the campaign.
    engine.run(&cases);
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

#[test]
fn engine_run_stays_within_its_heap_budget() {
    let cases = catalog_rounds(20);
    let mut engine = DiffEngine::standard();
    engine.threads = 1;
    // As above: the names are in the table before the count starts, so
    // the growth does not depend on which test thread met them first.
    engine.run(&catalog_cases());
    let (growth, summary) = heap_growth_in(|| engine.run(&cases));
    assert_eq!(summary.cases, cases.len());
    let per_case = growth as f64 / cases.len() as f64;
    println!("DiffEngine::run: heap grew by {growth} bytes over {} cases", cases.len());
    assert!(
        per_case <= ENGINE_HEAP_BUDGET,
        "DiffEngine::run grew the heap by {per_case:.0} bytes per case, budget {ENGINE_HEAP_BUDGET}"
    );
}

/// Allocations per message of `interpret` over the catalog under each
/// of the ten product profiles (360 messages). The code this budget was
/// set on makes 1.85 (667): an accepted message's one buffer and header
/// list, a rejection's one-note list and its quote, and the names of
/// unrecognized fields. While an interpretation owned copies of its
/// method, target, Host, body and header lines and kept its notes as
/// strings it made 6.83 (2,460).
const INTERPRET_BUDGET: f64 = 1.9;

/// Allocations per message of `Server::handle` over the catalog under
/// each of the ten product profiles: the interpretation, plus a copy of
/// a reject reason that quotes a chunk line (the reply's response holds
/// views and renders nothing). The code this budget was set on makes
/// 1.90 (684); while the reply built its response (body, header list,
/// `Content-Length` and `Server` lines) it made 6.14 (2,211), and with
/// owned interpretation parts and a response that owned its reason
/// phrase and version token 12.83 (4,620).
const SERVER_HANDLE_BUDGET: f64 = 1.95;

/// Allocations per message of `Proxy::forward` over the catalog under
/// each of the six proxy profiles: the interpretation plus the
/// forwarded bytes of an accepted message (a rejection renders
/// nothing). The code this budget was set on makes 2.58 (557 over 216
/// messages).
const PROXY_FORWARD_BUDGET: f64 = 2.6;

/// Every catalog message under every one of `models`, run through `f`
/// once outside the count and once inside it; prints the count under
/// `name` and returns the allocations per message and how many of the
/// counted messages `f` accepted.
fn per_message<M>(name: &str, models: &[M], f: impl Fn(&M, &[u8]) -> bool) -> (f64, usize) {
    let messages: Vec<Vec<u8>> = catalog_cases().iter().map(|c| c.request.to_bytes()).collect();
    let run = || {
        let mut accepted = 0;
        for model in models {
            for message in &messages {
                accepted += usize::from(f(model, message));
            }
        }
        accepted
    };
    run();
    let (allocations, accepted) = allocations_in(run);
    let count = models.len() * messages.len();
    println!("{name}: {allocations} allocations over {count} messages");
    (allocations as f64 / count as f64, accepted)
}

/// The ten products as origin servers.
fn servers() -> Vec<Server> {
    products().into_iter().map(Server::new).collect()
}

#[test]
fn interpret_stays_within_its_allocation_budget() {
    let (per_message, accepted) = per_message("interpret", &servers(), |server, message| {
        interpret(&server.profile, message).outcome.is_accept()
    });
    assert!(accepted > 0);
    assert!(
        per_message <= INTERPRET_BUDGET,
        "interpret made {per_message:.2} allocations per message, budget {INTERPRET_BUDGET}"
    );
}

#[test]
fn server_handle_stays_within_its_allocation_budget() {
    let (per_message, accepted) = per_message("Server::handle", &servers(), |server, message| {
        server.handle(message).response.status.is_success()
    });
    assert!(accepted > 0);
    assert!(
        per_message <= SERVER_HANDLE_BUDGET,
        "Server::handle made {per_message:.2} allocations per message, budget {SERVER_HANDLE_BUDGET}"
    );
}

#[test]
fn proxy_forward_stays_within_its_allocation_budget() {
    let proxies: Vec<Proxy> = proxies().into_iter().map(Proxy::new).collect();
    let (per_message, forwarded) = per_message("Proxy::forward", &proxies, |proxy, message| {
        proxy.forward(message).action.forwarded().is_some()
    });
    assert!(forwarded > 0);
    assert!(
        per_message <= PROXY_FORWARD_BUDGET,
        "Proxy::forward made {per_message:.2} allocations per message, budget {PROXY_FORWARD_BUDGET}"
    );
}

#[test]
fn an_interpretation_copies_only_the_message_it_consumed() {
    // One message followed by 64 KiB of the pipelined stream.
    let message = b"POST / HTTP/1.1\r\nHost: h1.com\r\nContent-Length: 3\r\n\r\nabc";
    let mut stream = message.to_vec();
    stream.resize(message.len() + 65_536, b'G');
    let profile = ParserProfile::strict("baseline");
    // Outside the measurement: the thread's scratch area reaches its size.
    interpret(&profile, &stream);
    let (growth, i) = heap_growth_in(|| interpret(&profile, &stream));
    assert_eq!(i.consumed, message.len());
    assert_eq!(i.body, b"abc".to_vec());
    println!("interpret: heap grew by {growth} bytes for a {}-byte message", message.len());
    assert!(growth < 1_024, "the interpretation holds {growth} bytes of a 64 KiB stream");
}

/// Prints the per-case allocation counts of `Workflow::run_case` and of
/// a one-thread `DiffEngine::run` over the paper-scale h1-sim corpus
/// (`abnf_seeds` 4000, seed 7). It asserts no budget: the catalog
/// budgets above are the gate, and this is the same count at the scale
/// the benchmark runs (`cargo test --release --test alloc_budget --
/// --ignored --nocapture`).
#[test]
#[ignore = "paper-scale corpus; run in release"]
fn h1_sim_allocations_per_case() {
    let mut config = HdiffConfig::full();
    config.abnf_seeds = 4000;
    config.threads = 1;
    config.seed = 7;
    let hdiff = HDiff::new(config);
    let cases = hdiff.generate_cases(&hdiff.analyze());
    let workflow = Workflow::standard();
    workflow.run_case(&cases[0]);
    let (allocations, _) =
        allocations_in(|| cases.iter().map(|c| workflow.run_case(c).chains.len()).sum::<usize>());
    println!(
        "h1-sim Workflow::run_case: {:.1} allocations per case ({allocations} over {})",
        allocations as f64 / cases.len() as f64,
        cases.len()
    );
    let mut engine = DiffEngine::standard();
    engine.threads = 1;
    engine.run(&catalog_cases());
    let (allocations, summary) = allocations_in(|| engine.run(&cases));
    assert_eq!(summary.cases, cases.len());
    println!(
        "h1-sim DiffEngine::run: {:.1} allocations per case ({allocations} over {})",
        allocations as f64 / cases.len() as f64,
        cases.len()
    );
}

#[test]
fn a_case_scope_makes_at_most_one_allocation() {
    // What an h1 sim case records: three spans, one RTT observation and
    // one matcher counter.
    let recorder = Recorder::capture();
    let h1_case = |uuid: u64| {
        let ((), bucket) = recorder.case(uuid, || {
            let _case = span("case");
            {
                let _execute = span("stage.chain-execute");
                observe("transport.rtt.sim", 35_000);
            }
            let _detect = span("stage.detect");
            count("abnf.memo.miss", 2);
        });
        bucket
    };
    // The first scope registers the names and sizes the thread's arrays.
    assert!(!h1_case(0).is_empty());
    let mut buckets = Vec::with_capacity(1000);
    let (allocations, ()) = allocations_in(|| buckets.extend((1..=1000).map(h1_case)));
    assert_eq!(buckets.len(), 1000);
    println!("1000 case scopes: {allocations} allocations");
    assert!(allocations <= 1000, "{allocations} allocations for 1000 case scopes");
}

/// Allocations per requested value of `TreeMutator::malformed_values`
/// over the adapted grammar, 1,000 Host values. The code this budget was
/// set on makes 28.8 (28,799 over 1,000 values); building a generator
/// per value made 4,412.5.
const TREE_MUTATION_BUDGET: f64 = 29.5;

/// Allocations per case of `HDiff::generate_cases` on the paper-scale
/// configuration (`full()` with 4,000 ABNF seeds, one thread, seed 7:
/// 29,188 cases). The code this budget was set on makes 21.2 (618,504
/// over 29,188 cases); with a generator per tree-mutated value and a
/// header list rebuilt per header edit it made 179.3.
const GENERATE_CASES_BUDGET: f64 = 21.6;

#[test]
fn tree_mutation_stays_within_its_allocation_budget() {
    let grammar = HDiff::new(HdiffConfig::full()).analyze_syntax().grammar;
    // Compile outside the count: the compiled form is cached per grammar.
    grammar.compiled();
    let values = 1000;
    let (allocations, out) =
        allocations_in(|| TreeMutator::new(7 ^ 0x7ee).malformed_values(&grammar, "Host", values));
    assert!(!out.is_empty());
    let per_value = allocations as f64 / values as f64;
    println!("TreeMutator::malformed_values: {allocations} allocations over {values} values");
    assert!(
        per_value <= TREE_MUTATION_BUDGET,
        "malformed_values made {per_value:.1} allocations per value, budget {TREE_MUTATION_BUDGET}"
    );
}

#[test]
fn corpus_generation_stays_within_its_allocation_budget() {
    let mut config = HdiffConfig::full();
    config.abnf_seeds = 4000;
    config.threads = 1;
    config.seed = 7;
    let hdiff = HDiff::new(config);
    let analysis = hdiff.analyze();
    let (allocations, cases) = allocations_in(|| hdiff.generate_cases(&analysis));
    assert_eq!(cases.len(), 29_188);
    let per_case = allocations as f64 / cases.len() as f64;
    println!("HDiff::generate_cases: {allocations} allocations over {} cases", cases.len());
    assert!(
        per_case <= GENERATE_CASES_BUDGET,
        "generate_cases made {per_case:.1} allocations per case, budget {GENERATE_CASES_BUDGET}"
    );
}
