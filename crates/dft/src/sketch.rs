//! Sketching for the DFT comparator (the full Algorithm 1, lines 8–10).
//!
//! On top of the statistics kept by [`tsubasa_core::SketchSet`] (per-window
//! mean/σ and per-pair correlation), the comparator keeps one value per pair
//! and basic window, derived from the Euclidean distance `d_j` of the first
//! `n` DFT coefficients of the two normalized windows. The number of
//! coefficients is fixed at sketch time; using all `B` coefficients makes the
//! comparator exact.
//!
//! # What is stored: Equation 3's image of `d_j`
//!
//! Algorithm 1 stores `d_j`. Every consumer — Equations 5 and 6, Algorithm 4
//! — reads it only through Equation 3, `ĉ_j = 1 − d_j²/2`, so this sketch
//! stores that estimate `ĉ_j` instead: the same float count (Figure 6d is
//! unchanged), the same bits on every backend (in memory, in a pile, in a
//! sliding state), and a table a query borrows as is
//! ([`DftSketchSet::window_ests_view`], zero-copy at any size). The estimate
//! is kept unclamped, so a NaN stays visible to the NaN audit; callers that
//! hold a raw distance use [`crate::approx::corr_from_distance`], the clamped
//! public form. [`DftSketchSet::pair_estimates`] gathers one pair's column on
//! demand.
//!
//! # The window kernel
//!
//! [`ComparatorKernel::window_ests_into`] turns one basic window into its
//! packed row of estimates, and every site that sketches a comparator window
//! calls it ([`DftSketchSet::build`], the parallel engine's pile sketching,
//! and [`ComparatorKernel::arriving_ests`] for every arriving window of a
//! dual-method epoch ingest or a sliding updater, each holding one kernel
//! across windows). The first `n`
//! complex coefficients of every series' normalized window are flattened into
//! `2n` real values (`[re₀, im₀, re₁, im₁, …]`) in the series' lane of a
//! packed panel block ([`tsubasa_core::stats::packed_lane_mut`]) — computed
//! for the whole window at once by the direct sums of
//! [`crate::dft::window_dft_into`] (`B·n` multiply-adds per series, twiddles
//! once per window, [`naive_dft`]'s bits, at every window size) — every
//! pair's squared coefficient distance comes from the register-tiled
//! difference-square sweep over those panels
//! ([`tsubasa_core::stats::tiled_pair_dist_sq_in`] — the exact sketch's
//! `Z·Zᵀ` micro-kernel with `(x − y)²` for `x·y`, each sum one serial chain),
//! and the epilogue applies Equation 3 to the squared distance as it stands:
//! `ĉ = 1 − max(d², 0)/2` (a NaN `d²` stays NaN), with no square root taken
//! in between. The scalar
//! per-pair path survives as [`DftSketchSet::build_reference`], which goes
//! through `d`; every accumulated term of the sweep is non-negative, so the
//! two agree far inside the `1e-10` tolerance contract pinned by
//! `tests/approx_plan_agreement.rs`.

use tsubasa_core::error::{Error, Result};
use tsubasa_core::plan::{CorrView, PlanMethod, WindowRows};
use tsubasa_core::runner::{JobRunner, SerialRunner};
use tsubasa_core::sketch::{packed_pairs, pair_index};
use tsubasa_core::source::{check_source_windows, CorrSource, PairTable};
use tsubasa_core::stats::{packed_lane_mut, packed_len, tiled_pair_dist_sq_in, WindowStats};
use tsubasa_core::{SeriesCollection, SketchSet};

use crate::dft::{coefficient_distance, naive_dft, window_dft_into, Complex};
use crate::normalize::{normalize_unit_into, normalize_unit_with_stats};

/// How the DFT coefficients of a basic window are computed: always by the
/// naive DFT's direct sums. The one variant remains only because
/// [`DftSketchSet::build`]'s signature names it; no other entry point takes a
/// transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transform {
    /// The naive DFT's direct sums — the cost model assumed by the paper:
    /// `B·c` multiply-adds per series-window for the `c` kept coefficients
    /// (`B²` when all are kept), run a window at a time
    /// ([`crate::dft::window_dft_into`], twiddles computed once per window)
    /// with [`naive_dft`]'s bits.
    Naive,
}

/// The comparator's sketch: the core statistics plus per-pair per-window
/// Equation 3 estimates `ĉ = 1 − d²/2` of the DFT coefficient distances, in
/// one window-major table (see the [module docs](self) for the format and the
/// kernel that produces it).
#[derive(Debug, Clone, PartialEq)]
pub struct DftSketchSet {
    base: SketchSet,
    /// Number of DFT coefficients used when computing distances.
    coefficients: usize,
    /// All pair estimates, window-major (`ns` rows of `P`, row `w` holds
    /// `ĉ_w` of every pair in packed order) — the table
    /// [`crate::plan::ApproxPlan`] borrows, in the same shared-row storage as
    /// [`SketchSet`]'s pair correlations, so a clone copies no estimate.
    window_ests: WindowRows,
}

/// Equation 3, unclamped: the estimate `1 − d²/2` the comparator stores for
/// a squared coefficient distance `d²`.
fn estimate_from_distance_sq(d_sq: f64) -> f64 {
    1.0 - d_sq / 2.0
}

/// The kernel's epilogue: every squared distance of a row to its estimate
/// `ĉ = 1 − max(d², 0)/2`, in place.
fn ests_from_dist_sq(row: &mut [f64]) {
    for slot in row {
        // A comparison, not `f64::max`: `max` drops a NaN operand, and a NaN
        // `d²` stored as `ĉ = 1.0` is a perfect correlation no audit can see.
        let d_sq = if *slot < 0.0 { 0.0 } else { *slot };
        *slot = estimate_from_distance_sq(d_sq);
    }
}

/// **The** comparator window kernel: one basic window of every series to that
/// window's packed row of Equation 3 estimates `ĉ`. It owns the panel-packed
/// scratch, reused across windows.
///
/// The window's series are normalized into panel lanes and transformed
/// together by the direct sums of [`window_dft_into`]: `B·c` multiply-adds
/// per series-window for the `c` kept coefficients, twiddles computed once
/// per window, each coefficient bit-identical to [`naive_dft`]'s. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct ComparatorKernel {
    basic_window: usize,
    coefficients: usize,
    /// Series `i`'s unit-normalized window in lane `i` of a packed block
    /// ([`packed_len`]): the direct sums' input.
    z: Vec<f64>,
    /// Series `i`'s flattened coefficients of the current window, in lane
    /// `i` of a packed block.
    rows: Vec<f64>,
}

impl ComparatorKernel {
    /// A kernel for windows of `basic_window` points keeping `coefficients`
    /// coefficients (the `n` of `Dist_n`, clamped to `1..=basic_window`).
    pub fn new(basic_window: usize, coefficients: usize) -> Self {
        Self {
            basic_window,
            coefficients: coefficients.clamp(1, basic_window.max(1)),
            z: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Number of coefficients kept per window.
    pub fn coefficients(&self) -> usize {
        self.coefficients
    }

    /// Fill `out` with the estimates of one window: `window[i]` holds the
    /// window's `B` points of series `i`, `stats[i]` their statistics. The
    /// difference-square sweep is fanned out over `runner`; every pair's sum
    /// is one serial chain, so the row's bits do not depend on the worker
    /// count. The epilogue is the one place sketch data goes through
    /// Equation 3, formed from the squared distance directly.
    ///
    /// # Panics
    ///
    /// Panics when a series' window is not `B` points long.
    pub fn window_ests_into<S: AsRef<[f64]>>(
        &mut self,
        window: &[S],
        stats: &[WindowStats],
        runner: &dyn JobRunner,
        out: &mut [f64],
    ) {
        let (n, b) = (window.len(), self.basic_window);
        self.z.resize(packed_len(n, b), 0.0);
        for (i, (points, stats)) in window.iter().zip(stats).enumerate() {
            let points = points.as_ref();
            assert_eq!(points.len(), b, "series {i}: a window of {b} points");
            normalize_unit_into(points, stats, packed_lane_mut(&mut self.z, i, b));
        }
        // `[re₀, im₀, re₁, im₁, …]` in every lane: the Euclidean distance of
        // two such rows is the complex coefficient distance, `|X_k − Y_k|² =
        // Δre² + Δim²`.
        let row_len = 2 * self.coefficients;
        self.rows.resize(packed_len(n, row_len), 0.0);
        window_dft_into(&self.z, b, self.coefficients, &mut self.rows);
        tiled_pair_dist_sq_in(runner, &self.rows, n, row_len, out);
        ests_from_dist_sq(out);
    }

    /// The packed estimate row of an arriving window
    /// ([`tsubasa_core::sketch::arriving_window`]), on the calling thread.
    pub fn arriving_ests(&mut self, chunk: &[Vec<f64>], stats: &[WindowStats]) -> Vec<f64> {
        let mut row = vec![0.0; packed_pairs(chunk.len())];
        self.window_ests_into(chunk, stats, &SerialRunner, &mut row);
        row
    }
}

impl DftSketchSet {
    /// Sketch a collection for the DFT comparator: basic-window statistics,
    /// per-pair correlations (the exact base), and the per-pair Equation 3
    /// estimates of the normalized windows' coefficient distances.
    ///
    /// `coefficients` is the `n` of `Dist_n`; it is clamped to the basic
    /// window size.
    ///
    /// One [`ComparatorKernel`] call per window fills that window's row of
    /// the table in place; the coefficients themselves are transient (one
    /// window block is live at a time), matching the paper's space analysis.
    /// [`DftSketchSet::build_reference`] keeps the scalar per-pair path as
    /// the arithmetic yardstick.
    pub fn build(
        collection: &SeriesCollection,
        basic_window: usize,
        coefficients: usize,
        _transform: Transform,
    ) -> Result<Self> {
        let base = SketchSet::build(collection, basic_window)?;
        let mut kernel = ComparatorKernel::new(basic_window, coefficients);
        let ns = base.window_count();
        let n_pairs = packed_pairs(collection.len());

        let mut window_ests = vec![0.0f64; ns * n_pairs];
        let mut window: Vec<&[f64]> = Vec::with_capacity(collection.len());
        for w in 0..ns {
            let span = base.windowing().window_span(w);
            window.clear();
            window.extend(collection.iter().map(|s| span.slice(s.values())));
            let row = &mut window_ests[w * n_pairs..(w + 1) * n_pairs];
            kernel.window_ests_into(&window, base.stats_rows().row(w), &SerialRunner, row);
        }

        Ok(Self {
            base,
            coefficients: kernel.coefficients(),
            window_ests: WindowRows::from_flat(window_ests, n_pairs, ns),
        })
    }

    /// The scalar reference sketch: identical shapes to
    /// [`DftSketchSet::build`], with every pair-window estimate computed from
    /// the per-pair [`coefficient_distance`] pass over per-series coefficient
    /// vectors from [`naive_dft`]. This path is the arithmetic yardstick the
    /// tiled sweep is tested against (`tests/approx_plan_agreement.rs`); it
    /// is kept for that role, not for speed.
    pub fn build_reference(
        collection: &SeriesCollection,
        basic_window: usize,
        coefficients: usize,
    ) -> Result<Self> {
        let base = SketchSet::build(collection, basic_window)?;
        let n_coeff = coefficients.clamp(1, basic_window);
        let ns = base.window_count();
        let n = collection.len();
        let n_pairs = packed_pairs(n);

        let mut window_ests = Vec::with_capacity(ns * n_pairs);
        for w in 0..ns {
            let span = base.windowing().window_span(w);
            // DFT coefficients of every series' normalized window `w`.
            let mut coeffs: Vec<Vec<Complex>> = Vec::with_capacity(n);
            for (id, series) in collection.iter_with_ids() {
                let stats = &base.stats_rows().row(w)[id];
                let normalized = normalize_unit_with_stats(span.slice(series.values()), stats);
                coeffs.push(naive_dft(&normalized));
            }
            for (i, j) in collection.pairs() {
                let d = coefficient_distance(&coeffs[i], &coeffs[j], n_coeff);
                window_ests.push(estimate_from_distance_sq(d * d));
            }
        }

        Ok(Self {
            base,
            coefficients: n_coeff,
            window_ests: WindowRows::from_flat(window_ests, n_pairs, ns),
        })
    }

    /// Construct a comparator sketch from already-computed parts: the core
    /// statistics sketch plus the window-major table of pair estimates (one
    /// row of `P` per window of `base`, same packed pair order), taken as it
    /// is: rows shared with another table stay shared.
    pub fn from_parts(base: SketchSet, coefficients: usize, ests: WindowRows) -> Result<Self> {
        let n_pairs = packed_pairs(base.series_count());
        let ns = base.window_count();
        let (rows, width) = (ests.window_count(), ests.width());
        if rows != ns || width != n_pairs {
            return Err(Error::SketchMismatch {
                requested: format!("{ns} windows × {n_pairs} pair estimates"),
                available: format!("{rows} windows × {width} pair estimates"),
            });
        }
        Ok(Self {
            coefficients: coefficients.clamp(1, base.basic_window()),
            base,
            window_ests: ests,
        })
    }

    /// Append one newly completed basic window — its per-series statistics
    /// and pair correlations (into `base`) and its pair estimates, as the
    /// arrival step ([`tsubasa_core::sketch::arriving_window`]) and the two
    /// window kernels minted them — so a grown sketch stays bit-equal to one
    /// rebuilt with [`DftSketchSet::build`]. Parts of the wrong arity are an
    /// [`Error::SketchMismatch`] and append nothing.
    pub fn push_window(
        &mut self,
        stats: Vec<WindowStats>,
        pair_corrs: Vec<f64>,
        ests: Vec<f64>,
    ) -> Result<()> {
        let n_pairs = packed_pairs(self.series_count());
        if ests.len() != n_pairs {
            return Err(Error::SketchMismatch {
                requested: format!("{} pair estimates", ests.len()),
                available: format!("{n_pairs} pairs"),
            });
        }
        self.base.push_window(stats, pair_corrs)?;
        self.window_ests.push(ests);
        Ok(())
    }

    /// Let go of the oldest basic window: its statistics and correlations
    /// ([`SketchSet::drop_oldest_window`]) and its row of estimates.
    pub fn drop_oldest_window(&mut self) {
        self.base.drop_oldest_window();
        self.window_ests.drop_oldest();
    }

    /// The underlying statistics sketch.
    pub fn base(&self) -> &SketchSet {
        &self.base
    }

    /// The estimate table: row `w` holds `ĉ_w` of every pair, in packed
    /// order.
    pub fn ests_rows(&self) -> &WindowRows {
        &self.window_ests
    }

    /// Number of DFT coefficients the estimates were computed with.
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

    /// Per-window Equation 3 estimates of one unordered pair: column `p` of
    /// the window-major table, gathered on every call (`O(ns)` strided reads,
    /// nothing cached).
    pub fn pair_estimates(&self, i: usize, j: usize) -> Result<Vec<f64>> {
        let n = self.series_count();
        if i == j || i >= n || j >= n {
            return Err(Error::UnknownSeries(i.max(j)));
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        Ok(self
            .window_ests_view(0..self.window_count())
            .pair_column(pair_index(a, b, n))
            .collect())
    }

    /// Zero-copy window-major view of the pair estimates over the basic
    /// windows in `windows` — the table [`crate::plan::ApproxPlan`] sweeps.
    /// Row `k` of the view is `ĉ_{windows.start+k}` of every pair in packed
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when `windows` exceeds the sketched window range.
    pub fn window_ests_view(&self, windows: std::ops::Range<usize>) -> CorrView<'_> {
        self.window_ests.view(windows)
    }

    /// Number of floats stored (core statistics plus estimates) — used for
    /// the Figure 6d space-overhead comparison.
    pub fn stored_floats(&self) -> usize {
        // The comparator does not need the per-pair correlations of the core
        // sketch (it has estimates instead), so count series stats + ests.
        let n = self.series_count();
        self.window_count() * (2 * n + packed_pairs(n))
    }
}

/// The comparator as a dual-method [`CorrSource`]: exact tables borrow the
/// base sketch's window-major correlations, approximate tables borrow the
/// window-major estimate table — the values `ApproxPlan` recombines and a
/// pile's `PairEsts` rows hold, so answers over any of them are bit-identical.
impl CorrSource for DftSketchSet {
    fn series_count(&self) -> usize {
        DftSketchSet::series_count(self)
    }

    fn window_count(&self, _method: PlanMethod) -> usize {
        // Both tables cover every sketched window: the comparator stores the
        // base statistics sketch *and* the estimate table side by side.
        DftSketchSet::window_count(self)
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
                Ok(Some(PairTable::Borrowed(self.window_ests_view(windows))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsubasa_core::sketch::{arriving_corrs, arriving_window};
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
        assert_eq!(sk.pair_estimates(0, 3).unwrap().len(), 6);
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
        // With all coefficients, the stored estimate 1 - d²/2 equals the
        // exact per-window correlation (Equation 3).
        let ests = sk.pair_estimates(0, 1).unwrap();
        for (w, &est) in ests.iter().enumerate() {
            let x = &c.get(0).unwrap().values()[w * b..(w + 1) * b];
            let y = &c.get(1).unwrap().values()[w * b..(w + 1) * b];
            let expected = pearson(x, y);
            assert!(
                (est - expected).abs() < 1e-9,
                "window {w}: {est} vs {expected}"
            );
        }
    }

    #[test]
    fn fewer_coefficients_underestimate_distance() {
        let c = collection(2, 200);
        let full = DftSketchSet::build(&c, 50, 50, Transform::Naive).unwrap();
        let few = DftSketchSet::build(&c, 50, 5, Transform::Naive).unwrap();
        // A partial distance never exceeds the full one, so a partial
        // estimate 1 − d²/2 never falls below the full one.
        let est_full = full.pair_estimates(0, 1).unwrap();
        let est_few = few.pair_estimates(0, 1).unwrap();
        for (a, b) in est_full.iter().zip(&est_few) {
            assert!(
                b >= &(a - 1e-12),
                "partial estimate must not fall below the full estimate"
            );
        }
    }

    #[test]
    fn tiled_build_matches_reference_path() {
        let c = collection(7, 130);
        for (b, n_coeff) in [(13usize, 13usize), (20, 7), (32, 32)] {
            let tiled = DftSketchSet::build(&c, b, n_coeff, Transform::Naive).unwrap();
            let reference = DftSketchSet::build_reference(&c, b, n_coeff).unwrap();
            assert_eq!(tiled.base(), reference.base());
            for (i, j) in c.pairs() {
                let dt = tiled.pair_estimates(i, j).unwrap();
                let dr = reference.pair_estimates(i, j).unwrap();
                for (a, b) in dt.iter().zip(dr) {
                    assert!((a - b).abs() <= 1e-12, "pair ({i},{j}): {a} vs {b}");
                }
            }
        }
    }

    /// The per-series path the kernel's direct sums replaced: each series'
    /// normalized window through [`naive_dft`], its first `c` coefficients
    /// into its lane, then the kernel's sweep and epilogue.
    fn per_series_row(window: &[Vec<f64>], stats: &[WindowStats], c: usize) -> Vec<f64> {
        let n = window.len();
        let mut rows = vec![0.0; packed_len(n, 2 * c)];
        for (i, (points, st)) in window.iter().zip(stats).enumerate() {
            let normalized = normalize_unit_with_stats(points, st);
            let coeffs = naive_dft(&normalized);
            let flat = coeffs.iter().flat_map(|x| [x.re, x.im]);
            for (slot, v) in packed_lane_mut(&mut rows, i, 2 * c).zip(flat) {
                *slot = v;
            }
        }
        let mut row = vec![0.0; packed_pairs(n)];
        tiled_pair_dist_sq_in(&SerialRunner, &rows, n, 2 * c, &mut row);
        ests_from_dist_sq(&mut row);
        row
    }

    #[test]
    fn kernel_rows_equal_the_per_series_path_bit_for_bit() {
        // Window sizes at and off powers of two, series counts at the edges
        // of a panel, and in every panel finite lanes beside a NaN σ, ±∞ points
        // under finite statistics and a constant window.
        for b in [1usize, 3, 12, 16, 50, 120, 128] {
            for n in [1usize, 7, 8, 9, 33] {
                let mut window = Vec::with_capacity(n);
                let mut stats = Vec::with_capacity(n);
                for i in 0..n {
                    let mut points: Vec<f64> = (0..b)
                        .map(|t| ((t * 5 + i * 11) as f64 * 0.29).cos() * (1.0 + i as f64 * 0.1))
                        .collect();
                    let mut st = WindowStats::from_values(&points);
                    match i % 8 {
                        2 => st.std = f64::NAN,
                        4 => {
                            points[b / 2] = f64::INFINITY;
                            points[b - 1] = f64::NEG_INFINITY;
                        }
                        6 => {
                            points.fill(-2.0);
                            st = WindowStats::from_values(&points);
                        }
                        _ => {}
                    }
                    window.push(points);
                    stats.push(st);
                }
                for c in [1, b.div_ceil(4), b] {
                    let mut kernel = ComparatorKernel::new(b, c);
                    // Twice through one kernel: its scratch carries over.
                    for _ in 0..2 {
                        let mut row = vec![0.0; packed_pairs(n)];
                        kernel.window_ests_into(&window, &stats, &SerialRunner, &mut row);
                        let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(&row),
                            bits(&per_series_row(&window, &stats, c)),
                            "B = {b}, c = {c}, N = {n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_nan_distance_is_stored_as_a_nan_estimate() {
        // Caller-supplied statistics with a NaN σ make one series' normalized
        // window, coefficients and every squared distance to it NaN. The
        // kernel must store that NaN (as the scalar reference arithmetic
        // does), not launder it into the perfect-correlation estimate 1.0.
        let (n, b, n_coeff, poisoned) = (5usize, 16usize, 6usize, 2usize);
        let c = collection(n, b);
        let window: Vec<&[f64]> = c.iter().map(|s| s.values()).collect();
        let mut stats: Vec<WindowStats> = window
            .iter()
            .map(|points| WindowStats::from_values(points))
            .collect();
        stats[poisoned].std = f64::NAN;

        let mut row = vec![0.0f64; packed_pairs(n)];
        ComparatorKernel::new(b, n_coeff).window_ests_into(
            &window,
            &stats,
            &SerialRunner,
            &mut row,
        );

        let coeffs: Vec<Vec<Complex>> = window
            .iter()
            .zip(&stats)
            .map(|(points, st)| naive_dft(&normalize_unit_with_stats(points, st)))
            .collect();
        for (p, (i, j)) in c.pairs().enumerate() {
            let d = coefficient_distance(&coeffs[i], &coeffs[j], n_coeff);
            let reference = estimate_from_distance_sq(d * d);
            if i == poisoned || j == poisoned {
                assert!(reference.is_nan(), "pair ({i},{j})");
                assert!(row[p].is_nan(), "pair ({i},{j}): stored {}", row[p]);
            } else {
                assert!((row[p] - reference).abs() <= 1e-12, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn window_ests_view_mirrors_pair_estimates() {
        // The on-demand pair view is a column of the one table, whichever way
        // the sketch came to be: built, assembled from parts, or grown.
        fn assert_mirrors(sk: &DftSketchSet, c: &SeriesCollection) {
            let ns = sk.window_count();
            let view = sk.window_ests_view(1..ns);
            assert_eq!(view.pair_count(), 6);
            assert_eq!(view.window_count(), ns - 1);
            for (p, (i, j)) in c.pairs().enumerate() {
                let ests = sk.pair_estimates(i, j).unwrap();
                assert_eq!(ests, sk.pair_estimates(j, i).unwrap());
                assert_eq!(ests.len(), ns);
                for k in 0..ns - 1 {
                    assert_eq!(view.window_row(k)[p], ests[1 + k]);
                }
            }
        }
        let full = collection(4, 120);
        let c = full.truncate_length(100).unwrap();
        let built = DftSketchSet::build(&c, 20, 10, Transform::Naive).unwrap();
        assert_mirrors(&built, &c);

        let table: Vec<f64> = (0..5)
            .flat_map(|w| built.window_ests_view(w..w + 1).window_row(0).to_vec())
            .collect();
        let table = WindowRows::from_flat(table, 6, 5);
        let mut assembled = DftSketchSet::from_parts(built.base().clone(), 10, table).unwrap();
        assert_eq!(assembled, built);
        assert_mirrors(&assembled, &c);

        let chunk: Vec<Vec<f64>> = full.iter().map(|s| s.values()[100..].to_vec()).collect();
        let stats = arriving_window(&chunk, 4, 20).unwrap();
        let corrs = arriving_corrs(&chunk, &stats, &mut Vec::new());
        let ests = ComparatorKernel::new(20, 10).arriving_ests(&chunk, &stats);
        assembled.push_window(stats, corrs, ests).unwrap();
        assert_mirrors(&assembled, &full);
        assert_eq!(
            assembled,
            DftSketchSet::build(&full, 20, 10, Transform::Naive).unwrap()
        );
    }

    #[test]
    fn pair_estimates_rejects_bad_ids() {
        let c = collection(3, 60);
        let sk = DftSketchSet::build(&c, 20, 20, Transform::Naive).unwrap();
        assert!(sk.pair_estimates(1, 1).is_err());
        assert!(sk.pair_estimates(0, 9).is_err());
    }

    #[test]
    fn an_empty_sketch_stores_no_floats() {
        // Zero series: the pair count saturates instead of underflowing.
        let base = SketchSet::from_window_major(4, 0, vec![], WindowRows::from_flat(vec![], 0, 0));
        let empty = DftSketchSet::from_parts(base.unwrap(), 2, WindowRows::from_flat(vec![], 0, 0));
        let empty = empty.unwrap();
        assert_eq!(empty.stored_floats(), 0);
    }
}
