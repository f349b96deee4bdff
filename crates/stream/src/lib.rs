//! # tsubasa-stream
//!
//! Real-time ingestion for TSUBASA (paper §3.1.2, §3.2.2 and Algorithm 3).
//!
//! Raw observations arrive in arbitrary-sized pieces; the algorithms update
//! the network only when a complete basic window (`B` points per series) has
//! accumulated. This crate provides
//!
//! * [`StreamBuffer`] — accumulates per-series observations and emits
//!   complete basic-window chunks;
//! * [`StreamReplay`] — replays a historical collection as a stream, used by
//!   examples and the Figure 5d benchmark;
//! * [`RealTimeNetwork`] — the end-to-end Algorithm 3 driver: construct the
//!   initial network from historical data, then ingest chunks and update the
//!   correlation matrix incrementally with either the exact (Lemma 2) or the
//!   approximate (Equation 6) updater.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod buffer;
pub mod realtime;
pub mod replay;

pub use buffer::StreamBuffer;
pub use realtime::{RealTimeNetwork, UpdateEngine};
pub use replay::StreamReplay;
