//! End-to-end approximate network construction — the Figure 5a experiment
//! surface.
//!
//! [`ApproxNetworkBuilder`] is the approximate sibling of
//! [`tsubasa_core::construct::HistoricalBuilder`]: it owns a
//! [`DftSketchSet`] and answers aligned query-window requests through the
//! batched [`ApproxPlan`] (tiled Equation 5 recombination, Equation 4
//! pruning). [`exact_vs_approx`] runs the full exact-vs-approximate
//! comparison in one call — both networks over the same windows, compared
//! with [`NetworkComparison`] — so precision/recall/similarity experiments
//! (and the Equation 4 no-false-negative property suite) go through one
//! entry point.

use std::ops::Range;

use tsubasa_core::error::{Error, Result};
use tsubasa_core::exact;
use tsubasa_core::matrix::{AdjacencyMatrix, CorrelationMatrix};
use tsubasa_core::SeriesCollection;
use tsubasa_dft::plan::ApproxPlan;
use tsubasa_dft::sketch::{DftSketchSet, Transform};

use crate::similarity::NetworkComparison;

/// Approximate-network builder over a [`DftSketchSet`]: sketch once, answer
/// aligned matrix/network queries through the batched [`ApproxPlan`].
///
/// ```
/// use tsubasa_core::SeriesCollection;
/// use tsubasa_dft::sketch::Transform;
/// use tsubasa_network::approx::ApproxNetworkBuilder;
///
/// let collection = SeriesCollection::from_rows(vec![
///     vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0],
///     vec![2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0],
///     vec![9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 1.0],
/// ])
/// .unwrap();
/// // All 4 coefficients kept → exact up to floating point.
/// let builder = ApproxNetworkBuilder::new(&collection, 4, 4, Transform::Naive).unwrap();
/// let network = builder.network(0..2, 0.8).unwrap();
/// assert!(network.has_edge(0, 1));
/// ```
#[derive(Debug, Clone)]
pub struct ApproxNetworkBuilder {
    sketch: DftSketchSet,
}

impl ApproxNetworkBuilder {
    /// Sketch `collection` for the DFT comparator (`coefficients` of the
    /// first DFT coefficients per basic window; clamped to the window size).
    pub fn new(
        collection: &SeriesCollection,
        basic_window: usize,
        coefficients: usize,
        transform: Transform,
    ) -> Result<Self> {
        Ok(Self {
            sketch: DftSketchSet::build(collection, basic_window, coefficients, transform)?,
        })
    }

    /// Wrap an existing comparator sketch.
    pub fn from_sketch(sketch: DftSketchSet) -> Self {
        Self { sketch }
    }

    /// The underlying comparator sketch.
    pub fn sketch(&self) -> &DftSketchSet {
        &self.sketch
    }

    /// The batched evaluation plan for an aligned range of basic windows —
    /// build it once when several thresholds are probed over the same window.
    pub fn plan(&self, windows: Range<usize>) -> Result<ApproxPlan<'_>> {
        ApproxPlan::build(&self.sketch, windows)
    }

    /// Approximate all-pairs correlation matrix (tiled Equation 5) over an
    /// aligned range of basic windows.
    pub fn correlation_matrix(&self, windows: Range<usize>) -> Result<CorrelationMatrix> {
        self.plan(windows)?.correlation_matrix()
    }

    /// The Equation 4-pruned approximate climate network at threshold
    /// `theta` — a superset of the exact network (false positives possible,
    /// false negatives not).
    pub fn network(&self, windows: Range<usize>, theta: f64) -> Result<AdjacencyMatrix> {
        self.plan(windows)?.network(theta)
    }

    /// Compare the approximate network against a caller-supplied exact
    /// reference network at the same threshold.
    pub fn compare_with(
        &self,
        reference: &AdjacencyMatrix,
        windows: Range<usize>,
        theta: f64,
    ) -> Result<NetworkComparison> {
        Ok(NetworkComparison::compare(
            reference,
            &self.network(windows, theta)?,
        ))
    }
}

/// The Figure 5a measurement in one call: build the exact network (Lemma 1
/// over a [`tsubasa_core::SketchSet`], thresholded at `theta`) and the
/// Equation 4-pruned approximate network (`coefficients` DFT coefficients)
/// over the same aligned window range, and compare them.
///
/// `windows` of `None` covers every sketched basic window. The returned
/// [`NetworkComparison`] carries edge counts, the similarity ratio `D_p`,
/// and the false-positive/false-negative split behind precision/recall —
/// [`NetworkComparison::has_no_false_negatives`] is the Equation 4
/// guarantee.
pub fn exact_vs_approx(
    collection: &SeriesCollection,
    basic_window: usize,
    coefficients: usize,
    theta: f64,
    windows: Option<Range<usize>>,
) -> Result<NetworkComparison> {
    if !(-1.0..=1.0).contains(&theta) {
        return Err(Error::InvalidThreshold(theta));
    }
    let exact_sketch = tsubasa_core::SketchSet::build(collection, basic_window)?;
    let windows = windows.unwrap_or(0..exact_sketch.window_count());
    let exact_net =
        exact::correlation_matrix_aligned(&exact_sketch, windows.clone())?.threshold(theta)?;
    let builder =
        ApproxNetworkBuilder::new(collection, basic_window, coefficients, Transform::Naive)?;
    builder.compare_with(&exact_net, windows, theta)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collection(n: usize, len: usize) -> SeriesCollection {
        SeriesCollection::from_rows(
            (0..n)
                .map(|s| {
                    (0..len)
                        .map(|i| {
                            (i as f64 * 0.05).sin() * (1.0 + s as f64 * 0.2)
                                + i as f64 * 0.002 * s as f64
                                + ((i * (s + 3) + 11) % 17) as f64 * 0.05
                        })
                        .collect()
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn builder_network_is_a_superset_of_the_exact_network() {
        let c = collection(6, 240);
        let b = 40;
        let theta = 0.75;
        // Few coefficients → under-estimated distances → superset of edges.
        let builder = ApproxNetworkBuilder::new(&c, b, 4, Transform::Naive).unwrap();
        let cmp = {
            let exact_sketch = tsubasa_core::SketchSet::build(&c, b).unwrap();
            let exact_net = exact::correlation_matrix_aligned(&exact_sketch, 0..6)
                .unwrap()
                .threshold(theta)
                .unwrap();
            builder.compare_with(&exact_net, 0..6, theta).unwrap()
        };
        assert!(cmp.has_no_false_negatives());
        assert!(cmp.candidate_edges >= cmp.reference_edges);
    }

    #[test]
    fn exact_vs_approx_with_all_coefficients_agrees_perfectly() {
        let c = collection(5, 200);
        let b = 25;
        let cmp = exact_vs_approx(&c, b, b, 0.7, None).unwrap();
        assert!(cmp.has_no_false_negatives());
        assert_eq!(cmp.false_positives, 0);
        assert_eq!(cmp.similarity_ratio, 1.0);
        assert!((cmp.precision() - 1.0).abs() < 1e-12);
        assert!((cmp.recall() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn entry_points_validate_inputs() {
        let c = collection(3, 100);
        assert!(exact_vs_approx(&c, 25, 25, 1.5, None).is_err());
        assert!(exact_vs_approx(&c, 0, 25, 0.5, None).is_err());
        let builder = ApproxNetworkBuilder::new(&c, 25, 25, Transform::Naive).unwrap();
        assert!(builder.network(0..9, 0.5).is_err());
        assert!(builder.correlation_matrix(2..2).is_err());
        assert_eq!(builder.sketch().series_count(), 3);
        let rebuilt = ApproxNetworkBuilder::from_sketch(builder.sketch().clone());
        assert_eq!(
            rebuilt.network(0..4, 0.5).unwrap(),
            builder.network(0..4, 0.5).unwrap()
        );
    }
}
