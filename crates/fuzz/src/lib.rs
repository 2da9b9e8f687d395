//! Coverage-guided differential fuzzing over multi-request connection
//! streams.
//!
//! The campaign pipeline (`crates/core`) tests what the generators and
//! the catalog already know how to write. This crate closes the other
//! loop: it *evolves* inputs, guided by what the testbed does with
//! them. The unit of evolution is not a request but a **connection
//! stream** ([`Stream`]) — an ordered request sequence with a per-request
//! delivery directive ([`Delivery`]: whole, segmented, or truncated) and
//! keep-alive/pipelining structure — because the highest-value semantic
//! gaps (request smuggling, desync) live at request *boundaries*, which
//! single-request corpora cannot express.
//!
//! * [`stream`] — the stream model, its well-formedness invariants,
//!   repair, digesting, and a byte-exact JSON codec.
//! * [`mutate`] — stream-level mutators (splice, duplicate-with-mutation,
//!   reorder, boundary-shift segmentation, truncate-then-continue)
//!   composed with grammar-aware byte mutators over an
//!   [`IngredientPool`] distilled from the analyzed RFC grammar.
//! * [`corpus`] — the bounded energy-weighted scheduler.
//! * [`engine`] — the loop: mutate → execute on sim/tcp-async →
//!   score by grammar-coverage delta and behavior-digest novelty →
//!   ddmin-minimize and promote each never-seen divergence class to a
//!   candidate golden [`hdiff_diff::ReplayBundle`].
//!
//! Sessions are deterministic per `(seed, iteration budget, transport)`
//! and invariant across worker-thread counts; see [`engine`] for the
//! mechanism.

pub mod corpus;
pub mod engine;
pub mod mutate;
pub mod stream;

pub use corpus::{Corpus, CorpusEntry, ENERGY_CAP};
pub use engine::{
    bundle_name, class_key, minimize_stream, FuzzBudget, FuzzEngine, FuzzOptions, FuzzReport,
    PromotedStream, FUZZ_UUID_BASE,
};
pub use mutate::{IngredientPool, StreamMutator, MAX_REQUESTS, STREAM_OPS};
pub use stream::{Delivery, Stream, StreamRequest, STREAM_FORMAT_VERSION};
