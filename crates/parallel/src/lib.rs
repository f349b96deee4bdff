//! # tsubasa-parallel
//!
//! The parallel, disk-based TSUBASA configuration (paper §3.4).
//!
//! The all-pair workload is embarrassingly parallel: the `N(N−1)/2` unordered
//! pairs are split into contiguous runs of the packed triangle processed by
//! independent computation workers, while a single dedicated database worker
//! persists sketches (see [`tsubasa_storage::PileBatchWriter`]). A query is
//! one [`tsubasa_core::source::SourcePlan`] on the engine's pool: the
//! per-series statistics are folded into one read-only
//! [`tsubasa_core::plan::QueryPlan`] shared by every worker; each worker
//! sweeps its run's columns of the source's window-major table and either
//! writes correlations straight into its disjoint contiguous slice of the
//! packed result matrix (runs are contiguous in row-major pair order, so no
//! merge step exists) or streams them, tile by tile, into its own sink
//! ([`tsubasa_core::sweep::sweep_pooled`] — the one pooled streamed sweep,
//! shared with the serving layer). A run is an index range: no query builds a
//! per-pair list ([`partition_pairs`] survives for the benchmark ledger's
//! decomposition and as a test oracle).
//!
//! Both phases report the timing breakdowns the paper's Figure 6a/6b plot:
//! sketch-computation vs database-write time, and database-read vs
//! matrix-calculation time.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod engine;
pub mod partition;
pub mod pool;
pub mod timing;

pub use engine::{ParallelConfig, ParallelEngine, QueryMethod, SketchMethod};
pub use partition::{partition_pairs, PairPartition};
pub use pool::WorkerPool;
pub use timing::{QueryReport, SketchReport};
