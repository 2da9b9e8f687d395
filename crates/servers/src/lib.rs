//! Simulated HTTP implementations — the substrate of HDiff's testbed.
//!
//! The paper tests ten real products in VMs. This crate substitutes
//! *behavioral models*: one configurable HTTP/1.1 engine
//! ([`profile::ParserProfile`], ~40 toggles) instantiated ten times with
//! the parsing/forwarding quirks the paper documents per product
//! ([`mod@products`]). The differential engine only observes wire behavior
//! (status codes, forwarded bytes, parsed host, body framing, cache
//! state), which these models reproduce faithfully — see `DESIGN.md` §2
//! for the substitution argument and §7 for the per-product quirk
//! inventory.
//!
//! * [`profile`] — the behavior-toggle vocabulary (every policy enum) and
//!   the RFC-strict default profile.
//! * [`engine`] — `interpret()`: one request parsed under a profile into
//!   an [`Interpretation`] (outcome, effective host, framing, consumed
//!   bytes, decisions), every part a view into one copy of the message.
//! * [`decision`] — the typed reject reasons and decisions an
//!   interpretation records.
//! * [`server`] — origin-server wrapper: pipelined stream handling and
//!   echo-style responses describing the interpretation.
//! * [`reply`] — the response a server or proxy answers a message with,
//!   kept as its status and parts and rendered on demand.
//! * [`proxy`] — forwarding wrapper: request-line rewriting, hop-by-hop
//!   stripping, version repair, message repair, transparent forwarding.
//! * [`cache`] — the shared response cache used by CPDoS detection.
//! * [`downgrade`] — HTTP/2 front-end models: pseudo-headers back into
//!   request-line/`Host`, `Content-Length` reconstruction, forbidden
//!   header handling — the h2→h1 translation gap surface.
//! * [`echo`] — the recording echo origin of Fig. 6.
//! * [`mod@products`] — the ten product profiles.

pub mod cache;
pub mod chain;
pub mod decision;
pub mod downgrade;
pub mod echo;
pub mod engine;
pub mod fault;
pub mod products;
pub mod profile;
pub mod proxy;
pub mod reply;
pub mod response_path;
pub mod server;

pub use cache::{Cache, CacheKey, CachePolicy};
pub use chain::{run_multihop, HopRecord, MultiHopResult};
pub use decision::{Decision, RejectReason};
pub use downgrade::{
    fronts, AuthorityPolicy, ClPolicy, DowngradeOutcome, DowngradeProfile, PathPolicy,
    SanitizePolicy, TePolicy,
};
pub use echo::EchoServer;
pub use engine::{interpret, FramingChoice, Interpretation, Outcome};
pub use fault::{
    FaultDecision, FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultSession, FaultStage,
};
pub use products::{backends, product, products, proxies, ProductId};
pub use profile::ParserProfile;
pub use proxy::{ForwardAction, Proxy, ProxyResult};
pub use reply::EchoResponse;
pub use response_path::{relay_response, RelayAction};
pub use server::{Server, ServerReply, MAX_MESSAGES, ORIGIN_HOP};
