//! Sketching for the DFT comparator (the full Algorithm 1, lines 8–10).
//!
//! On top of the statistics kept by [`tsubasa_core::SketchSet`] (per-window
//! mean/σ and per-pair correlation), the comparator stores, per pair and per
//! basic window, the Euclidean distance of the first `n` DFT coefficients of
//! the two normalized windows (`d_j`). The number of coefficients is fixed at
//! sketch time; using all `B` coefficients makes the comparator exact.
//!
//! # The tiled distance sweep
//!
//! [`DftSketchSet::build`] evaluates the `N(N−1)/2` pair distances of each
//! window as a batch kernel over a **coefficient-major structure-of-arrays
//! layout**: the first `n` complex coefficients of every series' normalized
//! window are flattened into one contiguous real row of `2n` values
//! (`[re₀, im₀, re₁, im₁, …]`), after which every pair's squared coefficient
//! distance is a cache-blocked difference-square sweep over contiguous rows
//! ([`tsubasa_core::stats::tiled_pair_dist_sq_into`], the distance sibling of
//! the exact sketch's `Z·Zᵀ` kernel). Distances are stored once, in the
//! window-major table the approximate query plan streams
//! ([`DftSketchSet::window_dists_view`], zero-copy) — shared immutable rows,
//! like the exact sketch's correlations;
//! [`DftSketchSet::pair_distances`] gathers one pair's column of it on
//! demand. The scalar per-pair path survives as
//! [`DftSketchSet::build_reference`]; every accumulated term of the tiled
//! sweep is non-negative, so the two agree far inside the `1e-10` tolerance
//! contract pinned by `tests/approx_plan_agreement.rs`.

use serde::{Deserialize, Serialize};
use tsubasa_core::capacity::check_dense_budget;
use tsubasa_core::error::{Error, Result};
use tsubasa_core::plan::{CorrView, PlanMethod, TransposedCorrs, WindowRows};
use tsubasa_core::sketch::pair_index;
use tsubasa_core::source::{check_source_windows, CorrSource, PairTable};
use tsubasa_core::stats::{
    normalize_into, tiled_pair_corrs_into, tiled_pair_dist_sq_into, WindowStats,
};
use tsubasa_core::{SeriesCollection, SketchSet};

use crate::dft::{coefficient_distance, naive_dft, Complex, DftPlanner};
use crate::normalize::normalize_unit_with_stats;

/// How the DFT coefficients of a basic window are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Transform {
    /// Naive `O(B²)` DFT — the cost model assumed by the paper.
    Naive,
    /// Iterative radix-2 FFT through a reusable [`DftPlanner`] (bit-reversal
    /// and twiddle tables built once per sketch, `O(B log B)` per window for
    /// power-of-two `B`, naive fallback otherwise). Used by the `dft_vs_fft`
    /// ablation and the parallel engine's comparator path.
    Fft,
}

/// The comparator's sketch: the core statistics plus per-pair per-window DFT
/// coefficient distances in one window-major table (see the
/// [module docs](self) for the tiled sweep that produces them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DftSketchSet {
    base: SketchSet,
    /// Number of DFT coefficients used when computing distances.
    coefficients: usize,
    /// All pair distances, window-major (`ns` rows of `P`, row `w` holds
    /// `d_w` of every pair in packed order) — the table
    /// [`crate::plan::ApproxPlan`] streams, in the same shared-row storage as
    /// [`SketchSet`]'s pair correlations, so a clone copies no distance.
    window_dists: WindowRows,
}

/// Flatten the first `n_coeff` complex coefficients into a contiguous real
/// row (`[re₀, im₀, re₁, im₁, …]`). The Euclidean distance of two such rows
/// equals the complex coefficient distance: `|X_k − Y_k|² = Δre² + Δim²`.
pub(crate) fn flatten_coeffs_into(coeffs: &[Complex], n_coeff: usize, row: &mut [f64]) {
    debug_assert_eq!(row.len(), 2 * n_coeff);
    for (k, c) in coeffs.iter().take(n_coeff).enumerate() {
        row[2 * k] = c.re;
        row[2 * k + 1] = c.im;
    }
}

impl DftSketchSet {
    /// Sketch a collection for the DFT comparator: basic-window statistics,
    /// per-pair correlations (reused by Equation 5), normalized-window DFT
    /// coefficients, and the per-pair coefficient distances.
    ///
    /// `coefficients` is the `n` of `Dist_n`; it is clamped to the basic
    /// window size.
    ///
    /// Per window, the first `n` coefficients of every series are flattened
    /// into a coefficient-major structure-of-arrays block and all pair
    /// distances of the window are evaluated as one tiled difference-square
    /// sweep ([`tiled_pair_dist_sq_into`]); the coefficients themselves are
    /// transient (one window block is live at a time), matching the paper's
    /// space analysis. [`DftSketchSet::build_reference`] keeps the scalar
    /// per-pair path as the arithmetic yardstick.
    pub fn build(
        collection: &SeriesCollection,
        basic_window: usize,
        coefficients: usize,
        transform: Transform,
    ) -> Result<Self> {
        let base = SketchSet::build(collection, basic_window)?;
        let n_coeff = coefficients.clamp(1, basic_window);
        let ns = base.window_count();
        let n = collection.len();
        let n_pairs = n * n.saturating_sub(1) / 2;

        let planner = DftPlanner::new(basic_window);
        let row_len = 2 * n_coeff;
        // Coefficient-major scratch: row `i` holds series `i`'s flattened
        // coefficients of the current window, contiguous. Reused per window.
        let mut rows = vec![0.0f64; n * row_len];
        let mut sq = vec![0.0f64; n_pairs];
        let mut window_dists = vec![0.0f64; ns * n_pairs];
        for w in 0..ns {
            let span = base.windowing().window_span(w);
            for (id, series) in collection.iter_with_ids() {
                let stats = base.series_sketch(id)?.window(w);
                let normalized = normalize_unit_with_stats(span.slice(series.values()), &stats);
                let c = match transform {
                    Transform::Naive => naive_dft(&normalized),
                    Transform::Fft => planner.transform(&normalized),
                };
                flatten_coeffs_into(&c, n_coeff, &mut rows[id * row_len..(id + 1) * row_len]);
            }
            tiled_pair_dist_sq_into(&rows, n, row_len, &mut sq);
            for (slot, &s) in window_dists[w * n_pairs..(w + 1) * n_pairs]
                .iter_mut()
                .zip(&sq)
            {
                *slot = s.max(0.0).sqrt();
            }
        }

        Ok(Self {
            base,
            coefficients: n_coeff,
            window_dists: WindowRows::from_flat(window_dists, n_pairs, ns),
        })
    }

    /// The scalar reference sketch: identical shapes to
    /// [`DftSketchSet::build`], with every pair-window distance computed by
    /// the per-pair [`coefficient_distance`] pass over per-series coefficient
    /// vectors. This path is the arithmetic yardstick the tiled sweep is
    /// tested against (`tests/approx_plan_agreement.rs`); it is kept for that
    /// role, not for speed.
    pub fn build_reference(
        collection: &SeriesCollection,
        basic_window: usize,
        coefficients: usize,
        transform: Transform,
    ) -> Result<Self> {
        let base = SketchSet::build(collection, basic_window)?;
        let n_coeff = coefficients.clamp(1, basic_window);
        let ns = base.window_count();
        let n = collection.len();

        let n_pairs = n * n.saturating_sub(1) / 2;

        let planner = DftPlanner::new(basic_window);
        let mut window_dists = Vec::with_capacity(ns * n_pairs);
        for w in 0..ns {
            let span = base.windowing().window_span(w);
            // DFT coefficients of every series' normalized window `w`.
            let mut coeffs: Vec<Vec<Complex>> = Vec::with_capacity(n);
            for (id, series) in collection.iter_with_ids() {
                let stats = base.series_sketch(id)?.window(w);
                let normalized = normalize_unit_with_stats(span.slice(series.values()), &stats);
                coeffs.push(match transform {
                    Transform::Naive => naive_dft(&normalized),
                    Transform::Fft => planner.transform(&normalized),
                });
            }
            for (i, j) in collection.pairs() {
                window_dists.push(coefficient_distance(&coeffs[i], &coeffs[j], n_coeff));
            }
        }

        Ok(Self {
            base,
            coefficients: n_coeff,
            window_dists: WindowRows::from_flat(window_dists, n_pairs, ns),
        })
    }

    /// Construct a comparator sketch from already-computed parts: the core
    /// statistics sketch plus a window-major flat table of pair distances
    /// (`window_dists[w·P + p]`, same packed pair order as `base`), which
    /// becomes the sketch's table as is. Used by snapshot paths that maintain
    /// distances incrementally
    /// (`SlidingApproxNetwork::snapshot_sketch`) and by any epoch-publication
    /// layer that freezes a growing comparator sketch.
    pub fn from_parts(
        base: SketchSet,
        coefficients: usize,
        window_dists: Vec<f64>,
    ) -> Result<Self> {
        let n = base.series_count();
        let n_pairs = n * n.saturating_sub(1) / 2;
        let ns = base.window_count();
        if window_dists.len() != ns * n_pairs {
            return Err(Error::SketchMismatch {
                requested: format!(
                    "{} pair distances ({ns} windows × {n_pairs} pairs)",
                    ns * n_pairs
                ),
                available: format!("{} pair distances", window_dists.len()),
            });
        }
        let n_coeff = coefficients.clamp(1, base.basic_window());
        Ok(Self {
            base,
            coefficients: n_coeff,
            window_dists: WindowRows::from_flat(window_dists, n_pairs, ns),
        })
    }

    /// Append the sketch of one newly completed basic window from its raw
    /// points (`chunk[i]` holds the `B` new values of series `i`): per-series
    /// statistics, per-pair correlations (both into the core `base` sketch,
    /// through the same tiled `Z·Zᵀ` kernel as [`SketchSet::push_window`]'s
    /// callers), and per-pair DFT coefficient distances.
    /// This is the real-time ingestion path of the comparator; arithmetic is
    /// identical to rebuilding with [`DftSketchSet::build`] over the extended
    /// data, so a grown sketch stays bit-equal to a rebuilt one.
    pub fn push_window(&mut self, chunk: &[Vec<f64>], transform: Transform) -> Result<()> {
        let n = self.series_count();
        let b = self.basic_window();
        if chunk.len() != n {
            return Err(Error::UnalignedSeries {
                expected: n,
                found: chunk.len(),
                index: 0,
            });
        }
        for points in chunk {
            if points.len() != b {
                return Err(Error::ChunkSizeMismatch {
                    expected: b,
                    found: points.len(),
                });
            }
        }
        let n_pairs = n * n.saturating_sub(1) / 2;

        let stats: Vec<WindowStats> = chunk
            .iter()
            .map(|points| WindowStats::from_values(points))
            .collect();

        // Exact half: z-normalize the chunk once and batch all pair
        // correlations of the arriving window.
        let mut z = vec![0.0f64; n * b];
        for (i, points) in chunk.iter().enumerate() {
            normalize_into(points, &stats[i], &mut z[i * b..(i + 1) * b]);
        }
        let mut pair_corrs = vec![0.0f64; n_pairs];
        tiled_pair_corrs_into(&z, n, b, &mut pair_corrs);
        drop(z);

        // Comparator half: unit-normalized DFT coefficients, flattened
        // coefficient-major, then one tiled difference-square sweep.
        let planner = DftPlanner::new(b);
        let row_len = 2 * self.coefficients;
        let mut rows = vec![0.0f64; n * row_len];
        for (i, points) in chunk.iter().enumerate() {
            let normalized = normalize_unit_with_stats(points, &stats[i]);
            let c = match transform {
                Transform::Naive => naive_dft(&normalized),
                Transform::Fft => planner.transform(&normalized),
            };
            flatten_coeffs_into(
                &c,
                self.coefficients,
                &mut rows[i * row_len..(i + 1) * row_len],
            );
        }
        let mut sq = vec![0.0f64; n_pairs];
        tiled_pair_dist_sq_into(&rows, n, row_len, &mut sq);
        let dists: Vec<f64> = sq.iter().map(|&s| s.max(0.0).sqrt()).collect();

        self.base.push_window(stats, pair_corrs)?;
        self.window_dists.push(dists);
        Ok(())
    }

    /// The underlying statistics sketch.
    pub fn base(&self) -> &SketchSet {
        &self.base
    }

    /// Number of DFT coefficients the distances were computed with.
    pub fn coefficients(&self) -> usize {
        self.coefficients
    }

    /// Basic-window size.
    pub fn basic_window(&self) -> usize {
        self.base.basic_window()
    }

    /// Number of series.
    pub fn series_count(&self) -> usize {
        self.base.series_count()
    }

    /// Number of sketched basic windows.
    pub fn window_count(&self) -> usize {
        self.base.window_count()
    }

    /// Per-window DFT distances of one unordered pair: column `p` of the
    /// window-major table, gathered on every call (`O(ns)` strided reads,
    /// nothing cached).
    pub fn pair_distances(&self, i: usize, j: usize) -> Result<Vec<f64>> {
        let n = self.series_count();
        if i == j || i >= n || j >= n {
            return Err(Error::UnknownSeries(i.max(j)));
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        Ok(self
            .window_dists_view(0..self.window_count())
            .pair_column(pair_index(a, b, n))
            .collect())
    }

    /// Zero-copy window-major view of the pair distances over the basic
    /// windows in `windows` — the table [`crate::plan::ApproxPlan`] maps into
    /// per-window correlation estimates. Row `k` of the view is
    /// `d_{windows.start+k}` of every pair in packed order. ([`CorrView`] is
    /// a layout type, not a semantic one: here its rows hold distances.)
    ///
    /// # Panics
    ///
    /// Panics when `windows` exceeds the sketched window range.
    pub fn window_dists_view(&self, windows: std::ops::Range<usize>) -> CorrView<'_> {
        self.window_dists.view(windows)
    }

    /// Number of floats stored (core statistics plus distances) — used for
    /// the Figure 6d space-overhead comparison.
    pub fn stored_floats(&self) -> usize {
        // The comparator does not need the per-pair correlations of the core
        // sketch (it has distances instead), so count series stats + dists.
        let ns = self.window_count();
        let n = self.series_count();
        ns * (2 * n + n * (n - 1) / 2)
    }
}

/// The comparator as a dual-method [`CorrSource`]: exact tables borrow the
/// base sketch's window-major correlations, approximate tables map the
/// window-major distance table through Equation 3 (`ĉ = 1 − d²/2`) — the
/// exact values `ApproxPlan` recombines, so engine answers over this source
/// are bit-identical to the in-memory plan's.
impl CorrSource for DftSketchSet {
    fn series_count(&self) -> usize {
        DftSketchSet::series_count(self)
    }

    fn window_count(&self, _method: PlanMethod) -> usize {
        // Both tables cover every sketched window: the comparator stores the
        // base statistics sketch *and* the distance table side by side.
        DftSketchSet::window_count(self)
    }

    fn zero_copy(&self) -> bool {
        true
    }

    fn series_stats(&self, windows: std::ops::Range<usize>) -> Result<Vec<Vec<WindowStats>>> {
        CorrSource::series_stats(self.base(), windows)
    }

    fn full_table(
        &self,
        windows: std::ops::Range<usize>,
        method: PlanMethod,
    ) -> Result<Option<PairTable<'_>>> {
        match method {
            PlanMethod::Exact => CorrSource::full_table(self.base(), windows, method),
            PlanMethod::Approximate => {
                check_source_windows(self, &windows, method)?;
                let n = DftSketchSet::series_count(self);
                let n_pairs = n * n.saturating_sub(1) / 2;
                // The estimate table is materialized (Equation 3 is a map,
                // not a view); over the dense budget callers fall back to
                // chunked reads instead.
                if check_dense_budget(n_pairs, windows.len()).is_err() {
                    return Ok(None);
                }
                let dists = self.window_dists_view(windows.clone());
                Ok(Some(PairTable::Owned(TransposedCorrs::from_fn(
                    n_pairs,
                    windows.len(),
                    |p, k| {
                        let d = dists.window_row(k)[p];
                        1.0 - d * d / 2.0
                    },
                ))))
            }
        }
    }

    fn chunk_table(
        &self,
        chunk: &[(usize, usize)],
        windows: std::ops::Range<usize>,
        method: PlanMethod,
    ) -> Result<TransposedCorrs> {
        check_source_windows(self, &windows, method)?;
        let n = DftSketchSet::series_count(self);
        match method {
            PlanMethod::Exact => CorrSource::chunk_table(self.base(), chunk, windows, method),
            PlanMethod::Approximate => {
                let dists = self.window_dists_view(windows.clone());
                Ok(TransposedCorrs::from_fn(
                    chunk.len(),
                    windows.len(),
                    |p, k| {
                        let (a, b) = chunk[p];
                        let d = dists.window_row(k)[pair_index(a, b, n)];
                        1.0 - d * d / 2.0
                    },
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsubasa_core::stats::pearson;

    fn collection(n: usize, len: usize) -> SeriesCollection {
        SeriesCollection::from_rows(
            (0..n)
                .map(|s| {
                    (0..len)
                        .map(|i| {
                            ((i + s * 13) as f64 * 0.17).sin() + 0.3 * ((i * s + 7) % 5) as f64
                        })
                        .collect()
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn build_produces_expected_shapes() {
        let c = collection(4, 120);
        let sk = DftSketchSet::build(&c, 20, 10, Transform::Naive).unwrap();
        assert_eq!(sk.basic_window(), 20);
        assert_eq!(sk.coefficients(), 10);
        assert_eq!(sk.window_count(), 6);
        assert_eq!(sk.series_count(), 4);
        assert_eq!(sk.pair_distances(0, 3).unwrap().len(), 6);
        assert!(sk.stored_floats() > 0);
    }

    #[test]
    fn coefficients_clamped_to_basic_window() {
        let c = collection(2, 60);
        let sk = DftSketchSet::build(&c, 15, 500, Transform::Naive).unwrap();
        assert_eq!(sk.coefficients(), 15);
        let sk0 = DftSketchSet::build(&c, 15, 0, Transform::Naive).unwrap();
        assert_eq!(sk0.coefficients(), 1);
    }

    #[test]
    fn full_coefficient_distance_recovers_window_correlation() {
        let c = collection(3, 100);
        let b = 25;
        let sk = DftSketchSet::build(&c, b, b, Transform::Naive).unwrap();
        // With all coefficients, 1 - d²/2 equals the exact per-window
        // correlation (Equation 3).
        let dists = sk.pair_distances(0, 1).unwrap();
        for (w, &d) in dists.iter().enumerate() {
            let x = &c.get(0).unwrap().values()[w * b..(w + 1) * b];
            let y = &c.get(1).unwrap().values()[w * b..(w + 1) * b];
            let expected = pearson(x, y);
            assert!(
                ((1.0 - d * d / 2.0) - expected).abs() < 1e-9,
                "window {w}: {} vs {expected}",
                1.0 - d * d / 2.0
            );
        }
    }

    #[test]
    fn fewer_coefficients_underestimate_distance() {
        let c = collection(2, 200);
        let full = DftSketchSet::build(&c, 50, 50, Transform::Naive).unwrap();
        let few = DftSketchSet::build(&c, 50, 5, Transform::Naive).unwrap();
        let d_full = full.pair_distances(0, 1).unwrap();
        let d_few = few.pair_distances(0, 1).unwrap();
        for (a, b) in d_full.iter().zip(&d_few) {
            assert!(
                b <= &(a + 1e-12),
                "partial distance must not exceed full distance"
            );
        }
    }

    #[test]
    fn fft_and_naive_sketches_agree() {
        let c = collection(3, 128);
        let a = DftSketchSet::build(&c, 32, 16, Transform::Naive).unwrap();
        let b = DftSketchSet::build(&c, 32, 16, Transform::Fft).unwrap();
        for (i, j) in c.pairs() {
            let da = a.pair_distances(i, j).unwrap();
            let db = b.pair_distances(i, j).unwrap();
            for (x, y) in da.iter().zip(db) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn tiled_build_matches_reference_path() {
        let c = collection(7, 130);
        for (b, n_coeff) in [(13usize, 13usize), (20, 7), (32, 32)] {
            let tiled = DftSketchSet::build(&c, b, n_coeff, Transform::Naive).unwrap();
            let reference =
                DftSketchSet::build_reference(&c, b, n_coeff, Transform::Naive).unwrap();
            assert_eq!(tiled.base(), reference.base());
            for (i, j) in c.pairs() {
                let dt = tiled.pair_distances(i, j).unwrap();
                let dr = reference.pair_distances(i, j).unwrap();
                for (a, b) in dt.iter().zip(dr) {
                    assert!((a - b).abs() <= 1e-12, "pair ({i},{j}): {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn window_dists_view_mirrors_pair_distances() {
        // The on-demand pair view is a column of the one table, whichever way
        // the sketch came to be: built, assembled from parts, or grown.
        fn assert_mirrors(sk: &DftSketchSet, c: &SeriesCollection) {
            let ns = sk.window_count();
            let view = sk.window_dists_view(1..ns);
            assert_eq!(view.pair_count(), 6);
            assert_eq!(view.window_count(), ns - 1);
            for (p, (i, j)) in c.pairs().enumerate() {
                let dists = sk.pair_distances(i, j).unwrap();
                assert_eq!(dists, sk.pair_distances(j, i).unwrap());
                assert_eq!(dists.len(), ns);
                for k in 0..ns - 1 {
                    assert_eq!(view.window_row(k)[p], dists[1 + k]);
                }
            }
        }
        let full = collection(4, 120);
        let c = full.truncate_length(100).unwrap();
        let built = DftSketchSet::build(&c, 20, 10, Transform::Naive).unwrap();
        assert_mirrors(&built, &c);

        let table: Vec<f64> = (0..5)
            .flat_map(|w| built.window_dists_view(w..w + 1).window_row(0).to_vec())
            .collect();
        let mut assembled = DftSketchSet::from_parts(built.base().clone(), 10, table).unwrap();
        assert_eq!(assembled, built);
        assert_mirrors(&assembled, &c);

        let chunk: Vec<Vec<f64>> = full.iter().map(|s| s.values()[100..].to_vec()).collect();
        assembled.push_window(&chunk, Transform::Naive).unwrap();
        assert_mirrors(&assembled, &full);
        assert_eq!(
            assembled,
            DftSketchSet::build(&full, 20, 10, Transform::Naive).unwrap()
        );
    }

    #[test]
    fn pair_distances_rejects_bad_ids() {
        let c = collection(3, 60);
        let sk = DftSketchSet::build(&c, 20, 20, Transform::Naive).unwrap();
        assert!(sk.pair_distances(1, 1).is_err());
        assert!(sk.pair_distances(0, 9).is_err());
    }
}
