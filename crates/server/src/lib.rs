//! `ipm_server` — the concurrent query-serving subsystem.
//!
//! The paper's closing claim is that millisecond phrase mining is feasible
//! "for search-like interactive systems". This crate is that system's
//! serving layer: it puts the thread-safe [`ipm_core::QueryEngine`] (all
//! four algorithms, both list backends, result cache) behind a TCP
//! protocol with real concurrency control — `std::net` and the vendored
//! shims only, no external dependencies.
//!
//! * [`wire`] — the line-delimited JSON protocol: one schema shared by
//!   the server, the [`client`], and `ipm query --json`.
//! * [`queue`] — a bounded MPSC job queue; admission control rejects
//!   (rather than queues) work beyond the configured depth, which the
//!   server surfaces as structured `overloaded` errors.
//! * [`singleflight`] — request coalescing keyed by the engine's
//!   [`ipm_core::CacheKey`]: N concurrent identical queries trigger one
//!   execution and N cache-consistent responses.
//! * `front` (private) — the connection front end both tiers share:
//!   accept loop, line-framed per-connection readers, the control verbs
//!   and the graceful-shutdown handshake.
//! * [`server`] — the fixed worker pool behind the front end, serving
//!   counters (`served`/`coalesced`/`shed` next to the engine's cache
//!   stats and per-backend IO aggregates), and graceful shutdown
//!   (protocol verb or [`server::ServerHandle::shutdown`]).
//! * [`client`] — a blocking client plus the closed-loop load generator
//!   used by the CLI, the serving benchmark and the CI smoke job.
//! * [`router`] — the scatter-gather coordinator (protocol v5): pooled
//!   connections to a tier of shard servers, hedged requests after an
//!   adaptive per-shard delay, replica failover, and honest partial
//!   results when a whole shard is unreachable.
//!
//! ```no_run
//! use ipm_core::{MinerConfig, PhraseMiner, QueryEngine};
//! use ipm_server::{Client, SearchRequest, Server, ServerConfig};
//!
//! let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
//! let engine = QueryEngine::new(PhraseMiner::build(&corpus, MinerConfig::default()));
//! let handle = Server::spawn(engine, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(&handle.addr().to_string()).unwrap();
//! let response = client.search(&SearchRequest::new("w1 OR w2")).unwrap();
//! assert_eq!(response["ok"].as_bool(), Some(true));
//! ```

pub mod client;
mod front;
pub mod queue;
pub mod router;
pub mod server;
pub mod singleflight;
pub mod wire;

pub use client::{run_load, run_open_loop, Client, LoadReport, OpenLoopConfig, OpenLoopReport};
pub use router::{HedgeConfig, Router, RouterConfig, RouterHandle, RouterStats};
pub use server::{clamped_delay, Server, ServerConfig, ServerHandle, ServerStats, MAX_DELAY_MS};
pub use wire::{ErrorKind, SearchRequest, WireRequest, MAX_BATCH};
