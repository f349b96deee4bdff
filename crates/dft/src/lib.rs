//! # tsubasa-dft
//!
//! The DFT-based *approximate* correlation comparator that TSUBASA is
//! evaluated against (paper §2.2 and §3.2): the StatStream / "uncooperative
//! time-series" family of techniques that
//!
//! 1. normalize every basic window to unit norm,
//! 2. take the first `n` DFT coefficients of each normalized window,
//! 3. approximate the per-window distance by the coefficient distance
//!    (`d_j ≃ Dist_n(X̂_j, Ŷ_j)`), and
//! 4. recombine the per-window distances into a query-window distance
//!    (Equation 5) and correlation (Equation 3), or prune threshold queries
//!    with the distance bound (Equation 4).
//!
//! For real-time data the query-window distance is updated incrementally
//! (Equation 6): only the arriving basic window needs new DFT coefficients.
//!
//! All-pairs queries go through [`plan::ApproxPlan`], the comparator's face
//! of `tsubasa_core::source::SourcePlan` (the one query plan over a source
//! for both methods): per-series recombination tables shared across pairs,
//! a window-major table of `1 − d²/2` estimates swept by the tiled batch
//! kernel, and the Equation 4 radius for thresholded networks. The Equation 3/4
//! helpers [`distance_from_corr`] and [`pruning_radius`] live in
//! `tsubasa_core::stats`, beside the one edge rule that uses them, and are
//! re-exported here.
//!
//! The approximation becomes exact when all `B` coefficients are used —
//! the property the paper's Figure 5a verifies and that the tests in this
//! crate assert.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod approx;
pub mod dft;
pub mod incremental;
pub mod normalize;
pub mod plan;
pub mod sketch;

pub use approx::{
    approximate_correlation_matrix, approximate_correlation_matrix_reference, approximate_network,
    corr_from_distance, distance_from_corr, pruning_radius, statstream_average_correlation,
};
pub use dft::{naive_dft, Complex};
pub use incremental::SlidingApproxNetwork;
pub use normalize::normalize_unit;
pub use plan::ApproxPlan;
pub use sketch::DftSketchSet;
