//! The approximate query path's plan — the DFT-comparator face of
//! [`tsubasa_core::source::SourcePlan`], the one query plan over a source
//! for both methods.
//!
//! The scalar approximate path ([`crate::approx::approximate_pair_correlation`])
//! re-derives, for every one of the `N(N−1)/2` pairs, the per-series half of
//! the Equation 5 recombination (length-weighted query mean, mean offsets δ,
//! the denominator `Σ_j B_j (σ² + δ²)`) and allocates a scratch `Vec` of
//! window contributions per pair for `tsubasa_core::exact::combine`.
//! [`ApproxPlan`] factors that waste out, exactly as `QueryPlan` did for the
//! exact path:
//!
//! * the **per-series window-stat tables** (σ/mean/len, δ offsets, means and
//!   denominators) are computed once per query window — they are literally a
//!   [`QueryPlan`] built from the base sketch's window statistics, so the
//!   window-major σ/δ tables, the batch [`QueryPlan::block_kernel`], the
//!   dense fill and the streamed tile loop are the exact path's own;
//! * the per-pair **correlation estimates** `ĉ_k = 1 − d_k²/2` (Equation 3)
//!   are what every backend stores, so the plan **borrows** the source's
//!   window-major estimate table and copies nothing — building a plan costs
//!   the per-series tables alone, at any table size;
//! * every pair is then evaluated by the same cache-blocked tiled sweep as
//!   the exact matrix paths — Equation 5 and Lemma 1 share their
//!   recombination algebra, only the per-window correlation source differs.
//!
//! The scalar per-pair path survives as the arithmetic yardstick. The plan's
//! tables fold the statistics as `exact::combine` does and every pair
//! accumulates its windows in the same order, so the matrix is the scalar
//! path's **bits**, pinned over 256 random configurations by
//! `tests/approx_plan_agreement.rs`.
//!
//! # Equation 4 pruning
//!
//! [`ApproxPlan::network_streamed`] builds the thresholded approximate
//! network of Algorithm 4: a pair is an edge when its recombined query-window
//! distance is within the Equation 4 pruning radius `radius(θ) = √(2(1−θ))`
//! — the approximate rule of [`EdgeRule::for_method`], which every
//! approximate network in the workspace (the parallel engine's and the
//! served ones too) applies. Because partial-coefficient distances never
//! over-estimate (`d̂_j ≤ d_j`), the estimated per-window correlations — and
//! with them the recombined query-window correlation — never under-estimate,
//! so the in-radius pair set is a **superset of the exact network**: false
//! positives possible, false negatives not. The sweep tests every pair: the
//! tile-level correlation bound decides no tile on anomaly data
//! (`tsubasa_core::sweep`), so it is not on the query path.

use std::ops::Range;

use tsubasa_core::error::Result;
use tsubasa_core::matrix::CorrelationMatrix;
use tsubasa_core::plan::{PlanMethod, QueryPlan};
use tsubasa_core::runner::ScopedRunner;
use tsubasa_core::source::SourcePlan;
use tsubasa_core::stats::clamp_corr;
#[cfg(doc)]
use tsubasa_core::sweep::EdgeRule;
use tsubasa_core::sweep::{EdgeList, TableAudit, TopK, DEFAULT_TILE_PAIRS};

use crate::sketch::DftSketchSet;

/// The approximate all-pairs evaluation plan over a comparator sketch: a
/// [`SourcePlan`] of [`PlanMethod::Approximate`], answered on the machine's
/// hardware threads ([`ScopedRunner::machine`]) in tiles of
/// [`DEFAULT_TILE_PAIRS`] with no table audit — the same bits as a single
/// run. See the [module docs](self).
///
/// The streamed entry points ([`ApproxPlan::network_streamed`],
/// [`ApproxPlan::top_k`]) allocate nothing per pair and never consult the
/// dense budget; [`ApproxPlan::correlation_matrix`] materializes the packed
/// `N(N−1)/2` triangle and fails with
/// [`Error::TooLarge`](tsubasa_core::error::Error::TooLarge) past it.
///
/// # Example
///
/// ```
/// use tsubasa_core::SeriesCollection;
/// use tsubasa_dft::plan::ApproxPlan;
/// use tsubasa_dft::sketch::{DftSketchSet, Transform};
///
/// let collection = SeriesCollection::from_rows(vec![
///     vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0],
///     vec![2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0],
///     vec![9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 1.0],
/// ])
/// .unwrap();
/// // All 4 coefficients kept → the approximation is exact (Equation 3).
/// let sketch = DftSketchSet::build(&collection, 4, 4, Transform::Naive).unwrap();
/// let plan = ApproxPlan::build(&sketch, 0..2).unwrap();
/// let matrix = plan.correlation_matrix().unwrap();
/// assert!(matrix.get(0, 2) < -0.9); // anti-correlated pair
/// let network = plan.network_streamed(0.8).unwrap();
/// assert_eq!(network.edges(), &[(0, 1)]);
/// ```
#[derive(Debug)]
pub struct ApproxPlan<'a>(SourcePlan<'a>);

impl<'a> ApproxPlan<'a> {
    /// Build the plan for an aligned range of sketched basic windows: the
    /// per-series statistic tables come from the base sketch, the per-pair
    /// correlation estimates are the comparator's own table. No raw data is
    /// needed.
    pub fn build(sketch: &'a DftSketchSet, windows: Range<usize>) -> Result<Self> {
        SourcePlan::new(sketch, windows, PlanMethod::Approximate).map(Self)
    }

    /// Number of series covered by the plan.
    pub fn series_count(&self) -> usize {
        self.0.series_count()
    }

    /// The range of sketched basic windows the plan covers.
    pub fn windows(&self) -> Range<usize> {
        self.0.windows()
    }

    /// The shared per-series recombination tables (the exact path's plan
    /// type, reused verbatim).
    pub fn query_plan(&self) -> &QueryPlan {
        self.0.query_plan()
    }

    /// The approximate all-pairs correlation matrix (Equation 5 recombined
    /// through the tiled batch kernel): [`SourcePlan::correlation_matrix`].
    /// Degenerate (constant-series) pairs hold `0.0`, the explicit mapping of
    /// [`tsubasa_core::error::Error::DegenerateWindow`] shared with the
    /// exact matrix paths.
    pub fn correlation_matrix(&self) -> Result<CorrelationMatrix> {
        Ok(self.0.correlation_matrix(&self.runner())?.0)
    }

    /// The StatStream-average recombination over the same window-major
    /// estimate table: `out[p] = clamp(Σ_k ĉ_k / w)`. Kept for the Figure 5a
    /// comparison of the two strategies; agreement with the scalar
    /// [`crate::approx::statstream_average_correlation`] is within the tiled
    /// tolerance contract.
    pub fn statstream_correlations_into(&self, out: &mut [f64]) {
        let view = self.0.table();
        debug_assert_eq!(out.len(), view.pair_count());
        out.fill(0.0);
        let w = view.window_count();
        for k in 0..w {
            for (slot, &c) in out.iter_mut().zip(view.window_row(k)) {
                *slot += c;
            }
        }
        let inv = 1.0 / w as f64;
        for slot in out.iter_mut() {
            *slot = clamp_corr(*slot * inv);
        }
    }

    /// Algorithm 4: the approximate network at `theta` under the Equation 4
    /// radius rule ([`SourcePlan::network`]) — a superset of the exact
    /// network (false positives possible, false negatives not; see the
    /// [module docs](self)) with no `N(N−1)/2` result buffer.
    pub fn network_streamed(&self, theta: f64) -> Result<EdgeList> {
        let runner = self.runner();
        let (edges, _) = self
            .0
            .network(&runner, theta, DEFAULT_TILE_PAIRS, TableAudit::Off)?;
        Ok(edges)
    }

    /// The `k` strongest approximate edges, streamed
    /// ([`SourcePlan::top_k`]): equals the sorted dense
    /// [`ApproxPlan::correlation_matrix`] top k.
    pub fn top_k(&self, k: usize) -> TopK {
        let (top, _) = self
            .0
            .top_k(&self.runner(), k, DEFAULT_TILE_PAIRS, TableAudit::Off);
        top
    }

    /// The runner of one sweep over this plan's pairs on this machine.
    fn runner(&self) -> ScopedRunner {
        ScopedRunner::machine(self.0.query_plan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{approximate_pair_correlation, ApproxStrategy};
    use crate::sketch::Transform;
    use tsubasa_core::runner::SerialRunner;
    use tsubasa_core::sketch::pair_index;
    use tsubasa_core::stats::{distance_from_corr, pruning_radius};
    use tsubasa_core::sweep::{sweep_run, CorrelationBounds, EdgeRule, EdgeSink};
    use tsubasa_core::{baseline, QueryWindow, SeriesCollection};

    fn collection(n: usize, len: usize) -> SeriesCollection {
        SeriesCollection::from_rows(
            (0..n)
                .map(|s| {
                    (0..len)
                        .map(|i| {
                            (i as f64 * 0.07 + s as f64).sin() * 1.3
                                + ((i * (s + 2) + 3) % 19) as f64 * 0.06
                        })
                        .collect()
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn plan_matrix_matches_scalar_reference_path() {
        let c = collection(6, 180);
        let sk = DftSketchSet::build(&c, 20, 9, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 1..8).unwrap();
        let m = plan.correlation_matrix().unwrap();
        for (i, j) in c.pairs() {
            let reference =
                approximate_pair_correlation(&sk, 1..8, i, j, ApproxStrategy::Equation5).unwrap();
            assert_eq!(m.get(i, j).to_bits(), reference.to_bits(), "pair ({i},{j})");
        }
    }

    #[test]
    fn full_coefficients_recover_the_exact_matrix() {
        let c = collection(5, 200);
        let b = 25;
        let sk = DftSketchSet::build(&c, b, b, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 0..8).unwrap();
        let query = QueryWindow::new(199, 200).unwrap();
        let exact = baseline::correlation_matrix(&c, query).unwrap();
        assert!(plan.correlation_matrix().unwrap().max_abs_diff(&exact) < 1e-9);
    }

    #[test]
    fn parallel_sweep_is_identical_to_serial() {
        let c = collection(7, 240);
        let sk = DftSketchSet::build(&c, 24, 12, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 0..10).unwrap();
        let (serial, _) = plan.0.correlation_matrix(&SerialRunner).unwrap();
        let off = TableAudit::Off;
        let (network, _) = plan
            .0
            .network(&SerialRunner, 0.3, DEFAULT_TILE_PAIRS, off)
            .unwrap();
        let (top, _) = plan.0.top_k(&SerialRunner, 9, DEFAULT_TILE_PAIRS, off);
        assert_eq!(plan.correlation_matrix().unwrap(), serial);
        assert_eq!(plan.network_streamed(0.3).unwrap(), network);
        assert_eq!(plan.top_k(9), top);
        for workers in [1usize, 3, 8] {
            let runner = ScopedRunner::new(workers);
            let (pooled, _) = plan.0.correlation_matrix(&runner).unwrap();
            assert_eq!(serial, pooled, "{workers}");
            for tile_len in [1, 5, DEFAULT_TILE_PAIRS] {
                let (edges, _) = plan
                    .0
                    .network(&runner, 0.3, tile_len, TableAudit::Off)
                    .unwrap();
                assert_eq!(edges, network, "{workers} {tile_len}");
                let (pooled, _) = plan.0.top_k(&runner, 9, tile_len, TableAudit::Off);
                assert_eq!(pooled, top, "{workers} {tile_len}");
            }
        }
    }

    #[test]
    fn degenerate_series_yield_zero_rows() {
        let mut rows = vec![vec![7.0; 80]];
        rows.extend((1..4).map(|s| {
            (0..80)
                .map(|i| (i as f64 * 0.21 + s as f64).cos())
                .collect::<Vec<f64>>()
        }));
        let c = SeriesCollection::from_rows(rows).unwrap();
        let sk = DftSketchSet::build(&c, 16, 16, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 0..5).unwrap();
        assert!(plan.query_plan().is_degenerate(0));
        let m = plan.correlation_matrix().unwrap();
        for j in 1..4 {
            assert_eq!(m.get(0, j), 0.0);
        }
    }

    #[test]
    fn network_streamed_matches_dense_network() {
        let c = collection(7, 240);
        let sk = DftSketchSet::build(&c, 24, 12, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 0..10).unwrap();
        let dense = plan.correlation_matrix().unwrap();
        for theta in [-0.3, 0.0, 0.55, 0.9] {
            let streamed = plan.network_streamed(theta).unwrap();
            // The Equation 4 radius predicate over the dense matrix.
            let radius = pruning_radius(theta);
            let want: Vec<(usize, usize)> = dense
                .iter_pairs()
                .filter(|&(_, _, c)| distance_from_corr(c) <= radius)
                .map(|(i, j, _)| (i, j))
                .collect();
            assert_eq!(streamed.edges(), &want[..], "theta={theta}");
            assert_eq!(streamed.nan_pair_count(), 0);
        }
        assert!(plan.network_streamed(1.5).is_err());
    }

    #[test]
    fn streamed_pruning_skips_tiles_without_changing_edges() {
        // The last series is constant within each window (`s = 0, t = 1`),
        // the rest are window-periodic (`s = 1, t = 0`), so every pair with
        // the last series has a bound near 0 and its tile, where it is alone,
        // is skipped.
        let (n, b) = (8, 40);
        let c = SeriesCollection::from_rows(
            (0..n)
                .map(|s| {
                    (0..6 * b)
                        .map(|i| match s == n - 1 {
                            true => (i / b) as f64,
                            false => ((i % b) * 7919 * (s + 1) % 101) as f64 * 0.01,
                        })
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        let sk = DftSketchSet::build(&c, b, 8, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 0..6).unwrap();
        let theta = 0.95;
        let (qp, view) = (plan.query_plan(), plan.0.table());
        let bounds = CorrelationBounds::from_plan(qp);
        let sweep = |bounds: Option<&CorrelationBounds>| {
            let mut sink =
                EdgeSink::with_rule(EdgeRule::for_method(PlanMethod::Approximate, theta).unwrap());
            sweep_run(qp, &view, bounds, 0..28, 2, &mut sink);
            sink
        };
        let (pruned, full) = (sweep(Some(&bounds)), sweep(None));
        assert!(pruned.skipped_pairs() > 0);
        assert_eq!(full.skipped_pairs(), 0);
        let pruned = pruned.finish(8);
        assert_eq!(pruned.edges(), full.finish(8).edges());
        assert_eq!(pruned, plan.network_streamed(theta).unwrap());
    }

    #[test]
    fn streamed_top_k_matches_sorted_dense() {
        let c = collection(6, 200);
        let sk = DftSketchSet::build(&c, 25, 10, Transform::Naive).unwrap();
        let plan = ApproxPlan::build(&sk, 0..8).unwrap();
        let dense = plan.correlation_matrix().unwrap();
        let mut all: Vec<(usize, usize, f64)> = dense.iter_pairs().collect();
        all.sort_by(|a, b| {
            b.2.total_cmp(&a.2)
                .then_with(|| pair_index(a.0, a.1, 6).cmp(&pair_index(b.0, b.1, 6)))
        });
        for k in [0, 1, 5, 15, 40] {
            let top = plan.top_k(k);
            assert_eq!(top.edges.len(), k.min(all.len()), "k={k}");
            for (got, want) in top.edges.iter().zip(&all) {
                assert_eq!((got.i, got.j), (want.0, want.1), "k={k}");
                assert_eq!(got.corr, want.2, "k={k}");
            }
        }
    }

    #[test]
    fn build_validates_the_window_range() {
        let c = collection(3, 100);
        let sk = DftSketchSet::build(&c, 20, 20, Transform::Naive).unwrap();
        assert!(ApproxPlan::build(&sk, 0..9).is_err());
        assert!(ApproxPlan::build(&sk, 2..2).is_err());
        let plan = ApproxPlan::build(&sk, 0..5).unwrap();
        assert_eq!(plan.series_count(), 3);
        assert_eq!(plan.windows(), 0..5);
        assert!(!plan.query_plan().is_degenerate(0));
    }
}
