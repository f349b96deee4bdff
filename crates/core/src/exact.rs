//! Exact recombination of Pearson correlation from basic-window statistics
//! (paper Lemma 1) and the historical network-construction path built on it
//! (Algorithm 2).
//!
//! The central function is [`combine`], which implements the generalized
//! Lemma 1 for basic windows of arbitrary (possibly unequal) sizes:
//!
//! ```text
//!              Σ_j B_j (σ_xj σ_yj c_j + δ_xj δ_yj)
//! Corr(x,y) = ───────────────────────────────────────────────
//!             √(Σ_i B_i (σ_xi² + δ_xi²)) √(Σ_i B_i (σ_yi² + δ_yi²))
//! ```
//!
//! with `δ_xj = x̄_j − x̄` where `x̄` is the length-weighted mean of the query
//! window (`Σ B_k x̄_k / Σ B_k`; with equal-size windows this is exactly the
//! paper's `Σ x̄_k / ns`).
//!
//! [`pair_correlation`] applies the decomposition of
//! [`crate::window::BasicWindowing::segment`] so that query windows whose
//! boundaries fall *inside* a basic window are handled exactly: the partial
//! head and tail are re-sketched from raw data, the interior windows come
//! from the pre-computed sketch.
//!
//! The all-pairs entry points do *not* loop over [`pair_correlation`]: they
//! build a [`crate::plan::QueryPlan`] once per query and hand it to one of
//! the two loops every correlation in the workspace comes from, fanned over
//! the machine's hardware threads ([`ScopedRunner::machine`]; the sweep is
//! memory-latency-bound, so a second hardware thread hides its stalls). The
//! matrix entry point ([`correlation_matrix`]) calls the **dense fill**
//! ([`crate::sweep::fill_packed`]), which writes the packed triangle in
//! place; the streamed ones ([`network_streamed`], [`top_k`]) call the
//! **streamed tile loop** ([`crate::sweep::network_pooled`],
//! [`crate::sweep::top_k_pooled`]) into one sink per run, merged in run
//! order. Queries over an aligned range
//! of basic windows need no raw data and go through the one plan over a
//! source, [`crate::source::SourcePlan`]. Both loops evaluate the plan's batch
//! kernel ([`QueryPlan::block_kernel`]) against the sketch's window-major
//! correlation table (borrowed zero-copy through
//! [`SketchSet::window_corrs_view`]). On an aligned window that kernel is bit
//! for bit [`pair_correlation`]. On an unaligned window it takes the
//! correlations of a partial head/tail window from the window kernel's
//! z-score products where the per-pair reference centers raw values, so the
//! matrix paths agree with the reference within `1e-10` absolute (the
//! `tiled_kernel_agreement` property suite pins this) rather than
//! bit-for-bit.

use crate::error::{Error, Result};
use crate::matrix::CorrelationMatrix;
use crate::plan::{PlanMethod, QueryPlan};
use crate::runner::{JobRunner, ScopedRunner};
use crate::sketch::SketchSet;
use crate::stats::{clamp_corr, WindowStats};
use crate::sweep::{
    fill_packed, network_pooled, top_k_pooled, EdgeList, EdgeRule, TableAudit, TopK,
    DEFAULT_TILE_PAIRS,
};
use crate::timeseries::{SeriesCollection, SeriesId};
use crate::window::QueryWindow;

/// The contribution of one basic window (full or partial) to a pairwise
/// correlation: the two per-series statistics plus the within-window
/// correlation `c_j`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowContribution {
    /// Statistics of this window of the first series.
    pub x: WindowStats,
    /// Statistics of this window of the second series.
    pub y: WindowStats,
    /// Pearson correlation of the two windows.
    pub corr: f64,
}

impl WindowContribution {
    /// Sketch a raw (partial) window pair on the fly: per-series statistics
    /// first, then the centered cross-product for the correlation
    /// ([`crate::stats::pair_corr_from_stats`]) — how [`pair_correlation`]
    /// handles the partial head/tail of an unaligned query. (The all-pairs
    /// kernel mints those correlations from z-scores instead, which is why
    /// it agrees with the reference within `1e-10` there.)
    pub fn from_raw(x: &[f64], y: &[f64]) -> Self {
        let sx = WindowStats::from_values(x);
        let sy = WindowStats::from_values(y);
        let c = crate::stats::pair_corr_from_stats(x, y, &sx, &sy);
        Self {
            x: sx,
            y: sy,
            corr: c,
        }
    }
}

/// Exact Pearson correlation of the concatenation of the given windows
/// (Lemma 1, generalized to arbitrary window lengths).
///
/// Fails with [`Error::DegenerateWindow`] when the concatenated window has
/// zero variance in either series (a constant series), or when no points are
/// covered at all — Pearson correlation is undefined there. Callers that
/// want the classic "constant ⇒ 0.0" convention of
/// [`crate::stats::pearson`] map the error explicitly, as
/// [`pair_correlation`] does.
pub fn combine(parts: &[WindowContribution]) -> Result<f64> {
    let total: f64 = parts.iter().map(|p| p.x.len as f64).sum();
    if total == 0.0 {
        return Err(Error::DegenerateWindow { points: 0 });
    }
    // Length-weighted means of the whole query window.
    let mean_x = parts.iter().map(|p| p.x.len as f64 * p.x.mean).sum::<f64>() / total;
    let mean_y = parts.iter().map(|p| p.y.len as f64 * p.y.mean).sum::<f64>() / total;

    let mut num = 0.0;
    let mut den_x = 0.0;
    let mut den_y = 0.0;
    for p in parts {
        let b = p.x.len as f64;
        let dx = p.x.mean - mean_x;
        let dy = p.y.mean - mean_y;
        num += b * (p.x.std * p.y.std * p.corr + dx * dy);
        den_x += b * (p.x.std * p.x.std + dx * dx);
        den_y += b * (p.y.std * p.y.std + dy * dy);
    }
    if den_x <= 0.0 || den_y <= 0.0 {
        return Err(Error::DegenerateWindow {
            points: total as usize,
        });
    }
    Ok(clamp_corr(num / (den_x.sqrt() * den_y.sqrt())))
}

/// Map the [`Error::DegenerateWindow`] produced by a constant series to the
/// `0.0` correlation convention of [`crate::stats::pearson`], passing every
/// other error through. The matrix-construction paths use this so that
/// constant series yield isolated nodes instead of failing the whole query.
pub(crate) fn degenerate_to_zero(r: Result<f64>) -> Result<f64> {
    match r {
        Err(Error::DegenerateWindow { .. }) => Ok(0.0),
        other => other,
    }
}

/// Variance-recombination identity used in the proof of Lemma 1: the
/// population variance of the concatenation of windows is
/// `Σ B_i (σ_i² + δ_i²) / T`. Kept as the paper's identity with its unit
/// test; no product path calls it (the sliding engines keep raw sums,
/// `SlidingSeriesState`).
pub fn combined_variance(parts: &[WindowStats]) -> f64 {
    let total: f64 = parts.iter().map(|p| p.len as f64).sum();
    if total == 0.0 {
        return 0.0;
    }
    let mean = parts.iter().map(|p| p.len as f64 * p.mean).sum::<f64>() / total;
    parts
        .iter()
        .map(|p| p.len as f64 * (p.std * p.std + (p.mean - mean).powi(2)))
        .sum::<f64>()
        / total
}

/// Exact Pearson correlation of series `i` and `j` on `query`, recombined
/// from the sketch (Lemma 1). Arbitrary query windows are supported; the
/// partial head/tail, if any, are sketched from the raw data in `collection`.
///
/// This is the *reference* per-pair path and the one scalar Lemma 1 in the
/// workspace: it reads the pair's strided column of the sketch's
/// window-major table ([`SketchSet::pair_sketch`]), materializes the
/// [`WindowContribution`]s of the pair and recombines them with
/// [`combine`]. The all-pairs entry points ([`correlation_matrix`] and the
/// streamed ones) instead share a precomputed [`crate::plan::QueryPlan`]
/// across pairs and produce bit-identical values on aligned windows; the
/// equality is asserted by the `flat_kernel_equivalence` property tests.
///
/// The query window and both series ids are validated before anything else,
/// the diagonal (`i == j`, correlation `1.0`) included. A constant series
/// yields `0.0` (the [`crate::stats::pearson`] convention), mapped
/// explicitly from [`Error::DegenerateWindow`].
pub fn pair_correlation(
    collection: &SeriesCollection,
    sketch: &SketchSet,
    query: QueryWindow,
    i: SeriesId,
    j: SeriesId,
) -> Result<f64> {
    query.validate(collection.series_len())?;
    let seg = sketch.windowing().segment(query);
    if seg.full.end > sketch.window_count() {
        return Err(Error::SketchMismatch {
            requested: format!("basic windows up to {}", seg.full.end),
            available: format!("{} sketched windows", sketch.window_count()),
        });
    }
    let (xs, ys) = (collection.get(i)?.values(), collection.get(j)?.values());
    if let Some(&id) = [i, j].iter().find(|&&id| id >= sketch.series_count()) {
        return Err(Error::UnknownSeries(id));
    }
    if i == j {
        return Ok(1.0);
    }
    // When the caller passes (i, j) with i > j the pair sketch still refers
    // to (min, max); correlation is symmetric so the value is unaffected.
    let pair = sketch.pair_sketch(i, j)?;

    let mut parts = Vec::with_capacity(
        seg.full_count() + seg.head.is_some() as usize + seg.tail.is_some() as usize,
    );
    if let Some(head) = seg.head {
        parts.push(WindowContribution::from_raw(head.slice(xs), head.slice(ys)));
    }
    for w in seg.full.clone() {
        let stats = sketch.stats_rows().row(w);
        parts.push(WindowContribution {
            x: stats[i],
            y: stats[j],
            corr: pair.corrs[w],
        });
    }
    if let Some(tail) = seg.tail {
        parts.push(WindowContribution::from_raw(tail.slice(xs), tail.slice(ys)));
    }
    degenerate_to_zero(combine(&parts))
}

/// Exact all-pair correlation matrix on `query` (the correlation-matrix step
/// of Algorithm 2), recombined from the sketch through a shared
/// [`QueryPlan`]: the dense fill on the machine's hardware threads. A run
/// boundary never changes a pair's arithmetic, so the matrix is the same
/// bits as a single-run fill.
///
/// ```
/// use tsubasa_core::prelude::*;
///
/// let collection = SeriesCollection::from_rows(vec![
///     vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
///     vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0],
/// ])
/// .unwrap();
/// let sketch = SketchSet::build(&collection, 4).unwrap();
/// let query = QueryWindow::new(7, 8).unwrap();
/// let matrix = exact::correlation_matrix(&collection, &sketch, query).unwrap();
/// assert!((matrix.get(0, 1) - 1.0).abs() < 1e-12); // perfectly correlated
/// ```
pub fn correlation_matrix(
    collection: &SeriesCollection,
    sketch: &SketchSet,
    query: QueryWindow,
) -> Result<CorrelationMatrix> {
    let plan = QueryPlan::build(collection, sketch, query)?;
    dense_matrix(&ScopedRunner::machine(&plan), sketch, plan)
}

/// The thresholded network (`c > θ`, the semantics of
/// [`CorrelationMatrix::threshold`]) computed through the streaming sweep:
/// the packed triangle is never materialized; each
/// [`QueryPlan::block_kernel`] tile is thresholded and discarded. The edge
/// set equals `correlation_matrix(..)?.threshold(theta)` exactly — same
/// kernel, same values, tile and run boundaries don't change any pair's
/// arithmetic, and the runs' edges are appended in run order — at
/// `O(tile + edges)` memory per hardware thread.
pub fn network_streamed(
    collection: &SeriesCollection,
    sketch: &SketchSet,
    query: QueryWindow,
    theta: f64,
) -> Result<EdgeList> {
    let rule = EdgeRule::for_method(PlanMethod::Exact, theta)?;
    let plan = QueryPlan::build(collection, sketch, query)?;
    let view = sketch.window_corrs_view(plan.full_windows());
    let runner = ScopedRunner::machine(&plan);
    let tile = DEFAULT_TILE_PAIRS;
    Ok(network_pooled(&runner, &plan, view, rule, tile, TableAudit::Off).0)
}

/// The `k` strongest edges of the query window, streamed: a k-bounded heap
/// per run replaces the dense triangle, and the runs' heaps merge into the
/// global top k ([`top_k_pooled`]; `k = 0` sweeps nothing). Ranking is total
/// ([`f64::total_cmp`], ties by ascending pair index) and equals the sorted
/// dense matrix's top k.
pub fn top_k(
    collection: &SeriesCollection,
    sketch: &SketchSet,
    query: QueryWindow,
    k: usize,
) -> Result<TopK> {
    let plan = QueryPlan::build(collection, sketch, query)?;
    let view = sketch.window_corrs_view(plan.full_windows());
    let runner = ScopedRunner::machine(&plan);
    let (tile, audit) = (DEFAULT_TILE_PAIRS, TableAudit::Off);
    Ok(top_k_pooled(&runner, &plan, view, k, tile, audit).0)
}

/// The dense fill of `plan` over the sketch's rows of its full windows, on
/// `runner`, as a matrix.
fn dense_matrix(
    runner: &dyn JobRunner,
    sketch: &SketchSet,
    plan: QueryPlan,
) -> Result<CorrelationMatrix> {
    let view = sketch.window_corrs_view(plan.full_windows());
    let (values, _) = fill_packed(runner, &plan, view)?;
    let n = plan.series_count();
    Ok(CorrelationMatrix::from_upper_triangle(n, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::runner::SerialRunner;
    use crate::sketch::pair_index;
    use crate::source::SourcePlan;
    use crate::stats::pearson;
    use proptest::prelude::*;

    fn lcg_series(seed: u64, len: usize) -> Vec<f64> {
        // Small deterministic pseudo-random series without pulling `rand`
        // into the unit tests of the hot path.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let noise = (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0;
                (i as f64 * 0.1).sin() * 2.0 + noise
            })
            .collect()
    }

    fn test_collection(n: usize, len: usize) -> SeriesCollection {
        SeriesCollection::from_rows((0..n).map(|s| lcg_series(s as u64 + 1, len)).collect())
            .unwrap()
    }

    #[test]
    fn combine_single_window_equals_direct_pearson() {
        let x = lcg_series(1, 50);
        let y = lcg_series(2, 50);
        let part = WindowContribution::from_raw(&x, &y);
        assert!((combine(&[part]).unwrap() - pearson(&x, &y)).abs() < 1e-12);
    }

    #[test]
    fn combine_rejects_degenerate_windows() {
        // A constant series has zero variance: the denominator is 0 and the
        // correlation is undefined — a typed error, not a silent 0.0.
        let constant = vec![5.0; 30];
        let y = lcg_series(2, 30);
        let part = WindowContribution::from_raw(&constant, &y);
        let err = combine(&[part]).unwrap_err();
        assert!(matches!(err, Error::DegenerateWindow { points: 30 }));
        // No points at all is degenerate too.
        assert!(matches!(
            combine(&[]).unwrap_err(),
            Error::DegenerateWindow { points: 0 }
        ));
    }

    #[test]
    fn lemma1_equals_direct_pearson_aligned() {
        let x = lcg_series(7, 120);
        let y = lcg_series(9, 120);
        // Split into 6 windows of 20 and recombine.
        let parts: Vec<WindowContribution> = (0..6)
            .map(|w| {
                WindowContribution::from_raw(&x[w * 20..(w + 1) * 20], &y[w * 20..(w + 1) * 20])
            })
            .collect();
        let direct = pearson(&x, &y);
        assert!((combine(&parts).unwrap() - direct).abs() < 1e-10);
    }

    #[test]
    fn lemma1_equals_direct_pearson_unequal_windows() {
        let x = lcg_series(3, 100);
        let y = lcg_series(4, 100);
        // Deliberately unequal window sizes: 13 + 40 + 40 + 7.
        let cuts = [0usize, 13, 53, 93, 100];
        let parts: Vec<WindowContribution> = cuts
            .windows(2)
            .map(|c| WindowContribution::from_raw(&x[c[0]..c[1]], &y[c[0]..c[1]]))
            .collect();
        assert!((combine(&parts).unwrap() - pearson(&x, &y)).abs() < 1e-10);
    }

    #[test]
    fn combined_variance_matches_direct() {
        let x = lcg_series(11, 90);
        let parts: Vec<WindowStats> = (0..3)
            .map(|w| WindowStats::from_values(&x[w * 30..(w + 1) * 30]))
            .collect();
        let direct = WindowStats::from_values(&x).variance();
        assert!((combined_variance(&parts) - direct).abs() < 1e-10);
    }

    #[test]
    fn pair_correlation_matches_baseline_on_aligned_window() {
        let c = test_collection(5, 200);
        let sketch = SketchSet::build(&c, 25).unwrap();
        let query = QueryWindow::new(199, 150).unwrap(); // indices 50..=199, aligned
        for (i, j) in c.pairs() {
            let exact = pair_correlation(&c, &sketch, query, i, j).unwrap();
            let direct = baseline::pair_correlation(&c, query, i, j).unwrap();
            assert!(
                (exact - direct).abs() < 1e-10,
                "pair ({i},{j}): {exact} vs {direct}"
            );
        }
    }

    #[test]
    fn pair_correlation_matches_baseline_on_arbitrary_window() {
        let c = test_collection(4, 200);
        let sketch = SketchSet::build(&c, 30).unwrap();
        // Start and end both unaligned: indices 37..=171.
        let query = QueryWindow::new(171, 135).unwrap();
        for (i, j) in c.pairs() {
            let exact = pair_correlation(&c, &sketch, query, i, j).unwrap();
            let direct = baseline::pair_correlation(&c, query, i, j).unwrap();
            assert!(
                (exact - direct).abs() < 1e-10,
                "pair ({i},{j}): {exact} vs {direct}"
            );
        }
    }

    #[test]
    fn pair_correlation_window_inside_single_basic_window() {
        let c = test_collection(3, 100);
        let sketch = SketchSet::build(&c, 50).unwrap();
        let query = QueryWindow::new(40, 20).unwrap(); // inside basic window 0
        let exact = pair_correlation(&c, &sketch, query, 0, 1).unwrap();
        let direct = baseline::pair_correlation(&c, query, 0, 1).unwrap();
        assert!((exact - direct).abs() < 1e-10);
    }

    #[test]
    fn self_correlation_is_one() {
        let c = test_collection(3, 100);
        let sketch = SketchSet::build(&c, 20).unwrap();
        let query = QueryWindow::new(99, 80).unwrap();
        assert_eq!(pair_correlation(&c, &sketch, query, 2, 2).unwrap(), 1.0);
    }

    #[test]
    fn the_diagonal_is_validated_like_any_pair() {
        let c = test_collection(3, 100);
        let sketch = SketchSet::build(&c, 20).unwrap();
        let query = QueryWindow::new(99, 80).unwrap();
        let bad_window = QueryWindow::new(200, 10).unwrap();
        let pair = |q, i| pair_correlation(&c, &sketch, q, i, i);
        assert!(matches!(
            pair(bad_window, 1),
            Err(Error::InvalidQueryWindow { .. })
        ));
        assert!(matches!(pair(query, 99), Err(Error::UnknownSeries(99))));
        assert!(matches!(
            pair_correlation(&c, &sketch, query, 0, 99),
            Err(Error::UnknownSeries(99))
        ));
    }

    #[test]
    fn aligned_helper_matches_full_path() {
        // The aligned plan over a source (sketch only) answers the reference
        // path's bits.
        let c = test_collection(4, 120);
        let sketch = SketchSet::build(&c, 20).unwrap();
        let query = QueryWindow::new(119, 80).unwrap(); // windows 2..6
        let plan = SourcePlan::new(&sketch, 2..6, PlanMethod::Exact).unwrap();
        let (m, _) = plan.correlation_matrix(&SerialRunner).unwrap();
        for (i, j) in c.pairs() {
            let b = pair_correlation(&c, &sketch, query, i, j).unwrap();
            assert_eq!(m.get(i, j).to_bits(), b.to_bits(), "pair ({i},{j})");
        }
    }

    #[test]
    fn aligned_helper_rejects_bad_range() {
        let c = test_collection(3, 100);
        let sketch = SketchSet::build(&c, 20).unwrap();
        for windows in [0..9, 2..2] {
            assert!(matches!(
                SourcePlan::new(&sketch, windows, PlanMethod::Exact),
                Err(Error::SketchMismatch { .. })
            ));
        }
    }

    #[test]
    fn matrix_construction_is_symmetric_with_unit_diagonal() {
        let c = test_collection(6, 150);
        let sketch = SketchSet::build(&c, 25).unwrap();
        let query = QueryWindow::new(149, 100).unwrap();
        let m = correlation_matrix(&c, &sketch, query).unwrap();
        for i in 0..6 {
            assert_eq!(m.get(i, i), 1.0);
            for j in 0..6 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let c = test_collection(7, 240);
        let sketch = SketchSet::build(&c, 25).unwrap();
        // Unaligned window so the partial-window path is exercised too.
        let query = QueryWindow::new(233, 180).unwrap();
        let serial = correlation_matrix(&c, &sketch, query).unwrap();
        let fill = |runner: &dyn JobRunner| {
            let plan = QueryPlan::build(&c, &sketch, query).unwrap();
            dense_matrix(runner, &sketch, plan).unwrap()
        };
        assert_eq!(fill(&SerialRunner), serial);
        // workers == 0 is clamped to 1, counts above the pairs are clamped down.
        for workers in [0, 1, 2, 3, 8, 100] {
            assert_eq!(
                fill(&ScopedRunner::new(workers)),
                serial,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn unpack_pair_index_inverts_pair_index() {
        let n = 9;
        for i in 0..n {
            for j in (i + 1)..n {
                let p = crate::sketch::pair_index(i, j, n);
                assert_eq!(crate::sketch::unpack_pair_index(p, n), (i, j));
            }
        }
    }

    #[test]
    fn matrix_sweep_stays_within_tolerance_of_pair_reference() {
        let c = test_collection(6, 200);
        let sketch = SketchSet::build(&c, 30).unwrap();
        // Unaligned on both ends so head/tail tiles are exercised.
        let query = QueryWindow::new(187, 150).unwrap();
        let m = correlation_matrix(&c, &sketch, query).unwrap();
        for (i, j) in c.pairs() {
            let reference = pair_correlation(&c, &sketch, query, i, j).unwrap();
            assert!(
                (m.get(i, j) - reference).abs() <= 1e-10,
                "pair ({i},{j}): {} vs {reference}",
                m.get(i, j)
            );
        }
    }

    #[test]
    fn query_beyond_sketched_windows_errors() {
        let c = test_collection(3, 105);
        // 105/20 = 5 sketched windows covering 0..100; a query ending at 104
        // needs a partial tail beyond the sketch, which is fine, but a query
        // whose *full* windows exceed the sketch must error.
        let sketch = SketchSet::build(&c, 20).unwrap();
        let query = QueryWindow::new(104, 100).unwrap();
        // This query's tail (100..105) is partial and is computed from raw
        // data, so it should succeed.
        assert!(pair_correlation(&c, &sketch, query, 0, 1).is_ok());
        // A query window that doesn't fit the series errors.
        let too_long = QueryWindow::new(200, 10).unwrap();
        assert!(pair_correlation(&c, &sketch, too_long, 0, 1).is_err());
    }

    #[test]
    fn constant_series_yield_zero_correlation() {
        let c = SeriesCollection::from_rows(vec![vec![5.0; 60], lcg_series(1, 60)]).unwrap();
        let sketch = SketchSet::build(&c, 10).unwrap();
        let query = QueryWindow::new(59, 40).unwrap();
        assert_eq!(pair_correlation(&c, &sketch, query, 0, 1).unwrap(), 0.0);
    }

    #[test]
    fn network_streamed_matches_dense_threshold() {
        let c = test_collection(7, 200);
        let sketch = SketchSet::build(&c, 25).unwrap();
        // Unaligned window so head/tail tiles are exercised.
        let query = QueryWindow::new(187, 150).unwrap();
        let dense = correlation_matrix(&c, &sketch, query).unwrap();
        for theta in [-0.4, 0.0, 0.35, 0.9] {
            let streamed = network_streamed(&c, &sketch, query, theta).unwrap();
            let reference = dense.threshold(theta).unwrap();
            assert_eq!(streamed.to_adjacency(), reference, "theta={theta}");
            assert_eq!(streamed.nan_pair_count(), 0);
        }
        assert!(matches!(
            network_streamed(&c, &sketch, query, 1.5),
            Err(Error::InvalidThreshold(_))
        ));
    }

    #[test]
    fn top_k_matches_sorted_dense_matrix() {
        let c = test_collection(6, 200);
        let sketch = SketchSet::build(&c, 25).unwrap();
        let query = QueryWindow::new(191, 160).unwrap();
        let dense = correlation_matrix(&c, &sketch, query).unwrap();
        let n = c.len();
        let mut all: Vec<(usize, usize, f64)> = dense.iter_pairs().collect();
        all.sort_by(|a, b| {
            b.2.total_cmp(&a.2)
                .then_with(|| pair_index(a.0, a.1, n).cmp(&pair_index(b.0, b.1, n)))
        });
        for k in [0, 1, 4, 15, 50] {
            let top = top_k(&c, &sketch, query, k).unwrap();
            assert_eq!(top.edges.len(), k.min(all.len()), "k={k}");
            for (got, want) in top.edges.iter().zip(&all) {
                assert_eq!((got.i, got.j), (want.0, want.1), "k={k}");
                assert_eq!(got.corr, want.2, "k={k}");
            }
        }
    }

    #[test]
    fn a_collection_of_another_series_count_is_a_sketch_mismatch() {
        // A sketch of 6 series packs 15 pairs a row; a 4- or 8-series plan
        // would address it with the wrong stride and answer plausibly.
        let sketched = test_collection(6, 120);
        let sketch = SketchSet::build(&sketched, 20).unwrap();
        type Entry = fn(&SeriesCollection, &SketchSet, QueryWindow) -> Result<()>;
        let entries: [(&str, Entry); 5] = [
            ("correlation_matrix", |c, s, q| {
                correlation_matrix(c, s, q).map(drop)
            }),
            ("fill_packed on 2 workers", |c, s, q| {
                dense_matrix(&ScopedRunner::new(2), s, QueryPlan::build(c, s, q)?).map(drop)
            }),
            ("network_streamed", |c, s, q| {
                network_streamed(c, s, q, 0.2).map(drop)
            }),
            ("top_k", |c, s, q| top_k(c, s, q, 3).map(drop)),
            ("QueryPlan::build", |c, s, q| {
                QueryPlan::build(c, s, q).map(drop)
            }),
        ];
        let fewer = sketched.take_series(4).unwrap();
        let more = test_collection(8, 120);
        for query in [(119, 80), (110, 75)] {
            let query = QueryWindow::new(query.0, query.1).unwrap();
            for (name, entry) in entries {
                assert!(entry(&sketched, &sketch, query).is_ok(), "{name}");
                for (given, other) in [(4, &fewer), (8, &more)] {
                    let what = format!("{name}, {given} series on a 6-series sketch, {query:?}");
                    match entry(other, &sketch, query) {
                        Err(Error::SketchMismatch {
                            requested,
                            available,
                        }) => assert!(
                            requested.contains(&format!("{given} series"))
                                && available.contains("6 series"),
                            "{what}: requested {requested}, available {available}"
                        ),
                        other => panic!("{what}: {other:?}"),
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Lemma 1 recombination equals the direct Pearson computation for
        /// random data, random basic-window sizes, and random (arbitrary,
        /// unaligned) query windows.
        #[test]
        fn prop_lemma1_equals_direct(
            seed in 0u64..1000,
            series_len in 60usize..240,
            basic in 5usize..40,
            start_off in 0usize..30,
            end_off in 0usize..30,
        ) {
            let c = SeriesCollection::from_rows(vec![
                lcg_series(seed, series_len),
                lcg_series(seed + 17, series_len),
            ]).unwrap();
            let sketch = SketchSet::build(&c, basic).unwrap();
            let start = start_off.min(series_len - 2);
            let end = series_len - 1 - end_off.min(series_len - 2 - start);
            prop_assume!(end > start);
            let query = QueryWindow::new(end, end - start + 1).unwrap();
            let exact = pair_correlation(&c, &sketch, query, 0, 1).unwrap();
            let direct = baseline::pair_correlation(&c, query, 0, 1).unwrap();
            prop_assert!((exact - direct).abs() < 1e-8, "{exact} vs {direct}");
        }

        /// The recombined value is always a valid correlation.
        #[test]
        fn prop_combined_in_range(
            seed in 0u64..1000,
            len in 40usize..160,
            basic in 4usize..20,
        ) {
            let c = SeriesCollection::from_rows(vec![
                lcg_series(seed, len),
                lcg_series(seed * 31 + 7, len),
            ]).unwrap();
            let sketch = SketchSet::build(&c, basic).unwrap();
            let query = QueryWindow::new(len - 1, len).unwrap();
            let v = pair_correlation(&c, &sketch, query, 0, 1).unwrap();
            prop_assert!((-1.0..=1.0).contains(&v));
        }
    }
}
