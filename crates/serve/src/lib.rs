//! # tsubasa-serve
//!
//! The serving layer of the TSUBASA reproduction: epoch-published sketches,
//! a plan cache, and a concurrent TCP query server.
//!
//! The paper's deployment story is a climate-network service that keeps
//! ingesting observations while analysts query the current network. This
//! crate makes that concrete with three pieces:
//!
//! * [`EpochStore`] / [`EpochIngest`] — every completed basic window
//!   freezes the sketches into an immutable **epoch** published by an
//!   atomic `Arc` swap; readers never block writers and every response
//!   names the epoch it was computed from;
//! * [`PlanCache`] — a built [`tsubasa_core::QueryPlan`] and the `P`
//!   correlations it recombines are pure functions of
//!   `(epoch, windows, method)`, so an LRU keyed by
//!   [`tsubasa_core::plan::PlanKey`] holds both: the first query on a key
//!   fills its correlation view with one sweep fanned over the shared
//!   [`tsubasa_parallel::WorkerPool`], and every query on it is one sink
//!   pass over that view;
//! * [`server`] / [`ServeClient`] — a std-only length-prefixed binary
//!   protocol over TCP; a blocking server answers each query through
//!   [`QueryEngine`], so responses are edge lists and never dense matrices.
//!
//! Every served answer is bit-identical to the corresponding serial library
//! call against the answering epoch's sketch — the `serve_concurrency`,
//! `serve_faults`, and `serve_plan_cache` suites at the workspace root pin
//! that, along with the server's fault tolerance.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod cache;
pub mod client;
pub mod epoch;
pub mod proto;
pub mod query;
pub mod server;

pub use cache::{CacheStats, CachedPlan, PlanCache};
pub use client::{ClientError, NetworkReply, ServeClient, TopKReply};
pub use epoch::{mirror_sketches_to_pile, Epoch, EpochIngest, EpochStore};
pub use proto::{DeltaReply, ErrorCode, Method, ProtoError, Request, Response, StatsReply};
pub use query::{QueryEngine, QueryError, UnavailableReason};
pub use server::{start, ServerHandle, ServerStats};
