//! # tsubasa-network
//!
//! Network-science utilities on top of the correlation matrices produced by
//! `tsubasa-core`: the downstream consumer that the paper's pipeline hands
//! its networks to (Figure 1 — "visualization and network science tools").
//!
//! * [`ClimateNetwork`] — an adjacency matrix annotated with node locations
//!   and names, with adjacency-list style accessors.
//! * [`metrics`] — degree distribution, density, clustering coefficients.
//! * [`components`] — connected components.
//! * [`communities`] — deterministic label-propagation community detection.
//! * [`similarity`] — the edge-count / similarity-ratio comparisons of the
//!   paper's accuracy experiment (Figure 5a), plus precision/recall of an
//!   approximate network against the exact one. The networks themselves come
//!   from the query paths: `tsubasa_core::source::SourcePlan` (exact) and
//!   `tsubasa_dft::ApproxPlan` (approximate, Equation 4).
//! * [`export`] — edge-list CSV and Graphviz DOT export.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod communities;
pub mod components;
pub mod dynamics;
pub mod export;
pub mod graph;
pub mod metrics;
pub mod similarity;

pub use dynamics::{DynamicsBuilder, DynamicsTracker, SnapshotDelta};
pub use graph::ClimateNetwork;
pub use similarity::NetworkComparison;
