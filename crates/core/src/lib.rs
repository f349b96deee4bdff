//! # tsubasa-core
//!
//! Core library of the TSUBASA reproduction (SIGMOD 2022): exact pairwise
//! Pearson correlation of large collections of synchronized time-series using
//! the *basic window* model, plus the machinery needed to turn correlation
//! matrices into climate networks.
//!
//! The central ideas implemented here:
//!
//! * **Sketching (Algorithm 1)** — one pass over the data computes, for every
//!   basic window, the mean and standard deviation of every series and the
//!   Pearson correlation of every pair of series. See [`sketch`].
//! * **Exact recombination (Lemma 1)** — the Pearson correlation of an
//!   arbitrary query window is recovered *exactly* from those per-window
//!   statistics, including query windows whose boundaries fall inside a basic
//!   window. See [`exact`].
//! * **Query planning** — all-pairs queries precompute the per-series half of
//!   the Lemma 1 recombination once per query window into a flat
//!   [`plan::QueryPlan`] table, then evaluate every pair with an
//!   allocation-free kernel, across the machine's hardware threads
//!   ([`runner::ScopedRunner::machine`]). See [`plan`].
//! * **Incremental update (Lemma 2)** — for real-time sliding windows the
//!   correlation after a new basic window arrives is derived from the previous
//!   value plus the statistics of the evicted and arriving windows only.
//!   See [`incremental`].
//! * **Network construction (Algorithms 2 & 3)** — thresholding the
//!   correlation matrix yields the climate network adjacency matrix.
//!   See [`matrix`] and [`construct`].
//! * **Threshold-matrix inference (Algorithm 5)** — correlation bounds from a
//!   shared anchor series decide many cells of the thresholded matrix without
//!   computing them. See [`inference`].
//!
//! The DFT-based approximate comparator lives in the companion crate
//! `tsubasa-dft`; disk-backed sketch storage in `tsubasa-storage`; the
//! parallel engine in `tsubasa-parallel`; streaming ingestion in
//! `tsubasa-stream`.
//!
//! ## Quick example
//!
//! ```
//! use tsubasa_core::prelude::*;
//!
//! // Three tiny synchronized series.
//! let collection = SeriesCollection::from_rows(vec![
//!     vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
//!     vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0],
//!     vec![8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0],
//! ])
//! .unwrap();
//!
//! // Sketch with basic windows of 4 points.
//! let sketch = SketchSet::build(&collection, 4).unwrap();
//!
//! // Exact correlation matrix on the full range, then threshold at 0.9.
//! let window = QueryWindow::new(7, 8).unwrap();
//! let matrix = exact::correlation_matrix(&collection, &sketch, window).unwrap();
//! let network = matrix.threshold(0.9).unwrap();
//!
//! assert_eq!(network.edge_count(), 1); // series 0 and 1 move together
//! assert!(matrix.get(0, 2) < -0.99);   // series 2 is anti-correlated
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod baseline;
pub mod capacity;
pub mod construct;
pub mod delta;
pub mod error;
pub mod exact;
pub mod incremental;
pub mod inference;
pub mod matrix;
pub mod plan;
pub mod runner;
pub mod sketch;
pub mod source;
pub mod stats;
pub mod sweep;
pub mod timeseries;
pub mod window;

pub use delta::{EdgeDelta, EdgeWatch};
pub use error::{Error, Result};
pub use matrix::{AdjacencyMatrix, CorrelationMatrix};
pub use plan::{PlanKey, PlanMethod, QueryPlan};
pub use runner::{Job, JobRunner, ScopedRunner, SerialRunner};
pub use sketch::{PairSketch, SeriesSketch, SketchSet};
pub use source::{audit_nan_chunk, check_source_windows, CorrSource, PairTable, SourcePlan};
pub use stats::WindowStats;
pub use sweep::{EdgeList, EdgeSink, RankedEdge, StatsSink, TileSink, TopK, TopKSink};
pub use timeseries::{GeoLocation, SeriesCollection, SeriesId, TimeSeries};
pub use window::{BasicWindowing, QueryWindow, WindowSegmentation, WindowSpan};

/// Convenient glob import for downstream users:
/// `use tsubasa_core::prelude::*;`.
pub mod prelude {
    pub use crate::baseline;
    pub use crate::capacity::{min_basic_window_for_budget, recommend_basic_window, SketchPlan};
    pub use crate::construct::{HistoricalBuilder, NetworkConfig};
    pub use crate::delta::{EdgeDelta, EdgeWatch};
    pub use crate::error::{Error, Result};
    pub use crate::exact;
    pub use crate::incremental::{SlidingNetwork, SlidingPair, SlidingState};
    pub use crate::inference;
    pub use crate::matrix::{AdjacencyMatrix, CorrelationMatrix};
    pub use crate::plan::{PlanKey, PlanMethod, QueryPlan};
    pub use crate::sketch::{PairSketch, SeriesSketch, SketchSet};
    pub use crate::source::{audit_nan_chunk, CorrSource, PairTable, SourcePlan};
    pub use crate::stats::{pearson, WindowStats};
    pub use crate::sweep::{EdgeList, EdgeSink, RankedEdge, StatsSink, TileSink, TopK, TopKSink};
    pub use crate::timeseries::{GeoLocation, SeriesCollection, SeriesId, TimeSeries};
    pub use crate::window::{BasicWindowing, QueryWindow, WindowSegmentation, WindowSpan};
}
