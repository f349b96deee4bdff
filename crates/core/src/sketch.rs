//! One-pass basic-window sketching (paper Algorithm 1).
//!
//! The sketch of a collection consists of
//!
//! * per series, per basic window: mean and population standard deviation
//!   ([`SeriesSketch`]), and
//! * per unordered pair of series, per basic window: the Pearson correlation
//!   of the two aligned windows (`c_j`; one pair's run of them is a
//!   [`PairSketch`]).
//!
//! Both are computed in a single pass over the raw data and are all that
//! Lemma 1 needs to recombine the exact correlation of any query window. The
//! space cost matches the paper's analysis — `L/B · (2N + N(N-1)/2)` floats —
//! because every `c_j` is stored exactly once, in the window-major table the
//! batch kernel below writes and the query kernel streams.
//!
//! # The tiled batch kernel
//!
//! [`SketchSet::build`] evaluates the `N(N−1)/2` pair passes as a batch
//! kernel, one basic window at a time: the window of every series is
//! z-normalized once (`z = (x − μ)/σ`) into a packed scratch — eight series
//! to a point-major panel — after which the window's pair correlations are
//! one register-tiled `Z·Zᵀ` over those panels
//! ([`crate::stats::window_corrs_into`]; every pair's sum is one serial
//! chain over the window's points). Dividing by `σ` per element instead of
//! once at the end reorders the floating-point operations, so the tiled
//! sketch agrees with the scalar reference within `1e-10` absolute rather
//! than bit-for-bit; [`SketchSet::build_reference`] keeps the scalar per-pair
//! path available as the reference implementation, and the
//! `tiled_kernel_agreement` property suite pins the tolerance.

use crate::error::{Error, Result};
use crate::plan::{CorrView, WindowRows};
use crate::runner::SerialRunner;
use crate::stats::{pair_corr_from_stats, window_corrs_into, WindowStats};
use crate::timeseries::{SeriesCollection, SeriesId};
use crate::window::BasicWindowing;

/// Per-basic-window statistics of one series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSketch {
    /// Which series these statistics describe.
    pub series: SeriesId,
    /// Statistics of basic windows `0..ns`, in order.
    pub windows: Vec<WindowStats>,
}

impl SeriesSketch {
    /// Number of sketched basic windows.
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Statistics of basic window `j`.
    pub fn window(&self, j: usize) -> WindowStats {
        self.windows[j]
    }
}

/// Per-basic-window correlations of one unordered pair of series.
#[derive(Debug, Clone, PartialEq)]
pub struct PairSketch {
    /// The smaller series id of the pair.
    pub a: SeriesId,
    /// The larger series id of the pair.
    pub b: SeriesId,
    /// Pearson correlation of the aligned basic windows `0..ns`, in order
    /// (`c_j` in the paper).
    pub corrs: Vec<f64>,
}

impl PairSketch {
    /// Number of sketched basic windows.
    pub fn window_count(&self) -> usize {
        self.corrs.len()
    }
}

/// Index of the unordered pair `(i, j)`, `i < j`, in a packed upper-triangle
/// layout of an `n × n` symmetric matrix (diagonal excluded).
///
/// Row `i` starts after `i` rows of decreasing length `n-1, n-2, ...`.
pub fn pair_index(i: usize, j: usize, n: usize) -> usize {
    debug_assert!(i < j && j < n, "pair_index requires i < j < n");
    // Offset of row i: sum_{k<i} (n-1-k) = i*(2n-i-1)/2
    i * (2 * n - i - 1) / 2 + (j - i - 1)
}

/// Map a packed upper-triangle index back to its unordered pair `(i, j)`,
/// `i < j` — the inverse of [`pair_index`]. The parallel sweeps use it to
/// locate the first pair of a contiguous packed run
/// (see [`crate::plan::row_segments`]).
pub fn unpack_pair_index(p: usize, n: usize) -> (usize, usize) {
    let mut i = 0;
    let mut row_start = 0;
    loop {
        let row_len = n - 1 - i;
        if p < row_start + row_len {
            return (i, i + 1 + p - row_start);
        }
        row_start += row_len;
        i += 1;
    }
}

/// The complete sketch of a collection: the statistics of every series and
/// the correlation of every pair in every basic window, produced by one pass
/// over the raw data (Algorithm 1).
///
/// Both are stored once, window-major, one row per window: row `w` of the
/// statistics table holds window `w` of every series in id order, row `w` of
/// the pair table `c_w` of every pair in packed order. That is the layout
/// the window kernel writes, the tiled query kernel streams without any
/// per-query transposition ([`SketchSet::window_corrs_view`] hands out a
/// zero-copy view) and an arriving basic window extends by one row per table
/// ([`SketchSet::push_window`]). A row is immutable once it is in its table
/// and shared by reference count ([`WindowRows`]), so `clone()` bumps two
/// counts per window and copies no value — which is what lets a serving
/// layer publish a clone per arriving window — and an arriving window never
/// moves the rows before it. A series' run of statistics ([`SeriesSketch`])
/// and a pair's run of correlations ([`PairSketch`]) are strided reads of
/// the tables, gathered on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchSet {
    basic_window: usize,
    n_series: usize,
    /// All per-series statistics, window-major (`ns` rows of `N`).
    stats: WindowRows<WindowStats>,
    /// All pair correlations, window-major (`ns` rows of `P`).
    window_corrs: WindowRows,
}

/// Number of unordered pairs of `n` series (`0` for `n < 2`).
pub fn packed_pairs(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// The arrival step of Algorithm 3, the one way a completed basic window
/// enters a sketch, a pile or a sliding state: check that `chunk` holds `b`
/// points of each of `n` series ([`Error::UnalignedSeries`] /
/// [`Error::ChunkSizeMismatch`]) and summarize each series once. The
/// window's row then comes from its method's one kernel ([`arriving_corrs`],
/// or the comparator's), and every consumer takes both as they are.
pub fn arriving_window(chunk: &[Vec<f64>], n: usize, b: usize) -> Result<Vec<WindowStats>> {
    if chunk.len() != n {
        return Err(Error::UnalignedSeries {
            expected: n,
            found: chunk.len(),
            index: 0,
        });
    }
    if let Some(points) = chunk.iter().find(|points| points.len() != b) {
        return Err(Error::ChunkSizeMismatch {
            expected: b,
            found: points.len(),
        });
    }
    Ok(chunk.iter().map(|p| WindowStats::from_values(p)).collect())
}

/// The packed correlation row of an arriving window: the exact window kernel
/// ([`window_corrs_into`]) on the calling thread, so the row is the one
/// [`SketchSet::build`] stores for the same window, bit for bit. `z` is the
/// kernel's packed scratch: a consumer may keep one across windows, so a tick
/// does not allocate and zero a fresh `N × B` block.
pub fn arriving_corrs(chunk: &[Vec<f64>], stats: &[WindowStats], z: &mut Vec<f64>) -> Vec<f64> {
    let mut row = vec![0.0; packed_pairs(chunk.len())];
    window_corrs_into(chunk, stats, &SerialRunner, z, &mut row);
    row
}

/// Pair-block size of the cache-blocked scatter: one tile fills a contiguous
/// 512-byte run of a window row while keeping 64 per-pair read streams open,
/// instead of striding the whole `ns × P` table per pair.
const LAYOUT_TILE: usize = 64;

/// Cache-blocked scatter of pair-major [`PairSketch`] vectors into a
/// window-major table (`flat[w·P + p] = pairs[p].corrs[w]`) — the one
/// pair-major → window-major conversion, behind [`SketchSet::from_parts`].
fn scatter_pair_rows(pairs: &[PairSketch], ns: usize) -> WindowRows {
    let n_pairs = pairs.len();
    let mut flat = vec![0.0f64; n_pairs * ns];
    for p0 in (0..n_pairs).step_by(LAYOUT_TILE) {
        let p1 = (p0 + LAYOUT_TILE).min(n_pairs);
        for w in 0..ns {
            let row = &mut flat[w * n_pairs..(w + 1) * n_pairs];
            for (slot, pair) in row[p0..p1].iter_mut().zip(&pairs[p0..p1]) {
                *slot = pair.corrs[w];
            }
        }
    }
    WindowRows::from_flat(flat, n_pairs, ns)
}

impl SketchSet {
    /// Sketch an entire collection with basic windows of `basic_window`
    /// points (Algorithm 1, statistics-only lines 4–7 and 12).
    ///
    /// Per window, the statistics of every series, then one call of the
    /// shared exact window kernel ([`crate::stats::window_corrs_into`]): the
    /// window of every series is z-normalized once into a panel-packed block
    /// and the window's pair correlations are one register-tiled `Z·Zᵀ` over
    /// it. The result agrees with the
    /// scalar reference path ([`SketchSet::build_reference`]) within `1e-10`
    /// absolute on every correlation (see the module docs for why the two
    /// are not bit-identical).
    ///
    /// Fails if the basic window is zero or longer than the series.
    pub fn build(collection: &SeriesCollection, basic_window: usize) -> Result<Self> {
        // The kernel's packed normalized scratch is reused across windows —
        // only one window block is ever live, never a normalized copy of the
        // whole dataset.
        let mut z = Vec::new();
        Self::build_rows(collection, basic_window, |window, stats, row| {
            window_corrs_into(window, stats, &SerialRunner, &mut z, row);
        })
    }

    /// The scalar reference sketch: identical shapes and statistics to
    /// [`SketchSet::build`], with every pair correlation computed by the
    /// reference centered-cross-product pass ([`pair_corr_from_stats`]) over
    /// the raw window slices.
    ///
    /// This path is the arithmetic yardstick the tiled kernel is tested
    /// against (≤ `1e-10` absolute per correlation); it is kept for that
    /// role, not for speed.
    pub fn build_reference(collection: &SeriesCollection, basic_window: usize) -> Result<Self> {
        Self::build_rows(collection, basic_window, |window, stats, row| {
            for (slot, (i, j)) in row.iter_mut().zip(collection.pairs()) {
                *slot = pair_corr_from_stats(window[i], window[j], &stats[i], &stats[j]);
            }
        })
    }

    /// The one pass of both builders: per basic window, the statistics of
    /// every series and the packed pair row `pair_row` writes from the
    /// window's slices and statistics, each table written window-major in
    /// place into one block that becomes its rows as is.
    fn build_rows(
        collection: &SeriesCollection,
        basic_window: usize,
        mut pair_row: impl FnMut(&[&[f64]], &[WindowStats], &mut [f64]),
    ) -> Result<Self> {
        let series_len = collection.series_len();
        if basic_window == 0 || basic_window > series_len {
            return Err(Error::InvalidBasicWindow {
                window: basic_window,
                series_len,
            });
        }
        let windowing = BasicWindowing::new(basic_window)?;
        let ns = windowing.complete_windows(series_len);
        let n = collection.len();
        let n_pairs = packed_pairs(n);
        crate::capacity::check_dense_budget(n_pairs, ns)?;

        let mut stats = Vec::with_capacity(ns * n);
        let mut corrs = vec![0.0f64; ns * n_pairs];
        let mut window: Vec<&[f64]> = Vec::with_capacity(n);
        for w in 0..ns {
            let span = windowing.window_span(w);
            window.clear();
            window.extend(collection.iter().map(|s| span.slice(s.values())));
            stats.extend(window.iter().map(|v| WindowStats::from_values(v)));
            let row = &mut corrs[w * n_pairs..(w + 1) * n_pairs];
            pair_row(&window, &stats[w * n..], row);
        }
        Ok(Self {
            basic_window,
            n_series: n,
            stats: WindowRows::from_flat(stats, n, ns),
            window_corrs: WindowRows::from_flat(corrs, n_pairs, ns),
        })
    }

    /// Construct a sketch set from pair-major parts (one [`PairSketch`] per
    /// pair, packed order). Used when re-hydrating a sketch from pile rows;
    /// the pair vectors are scattered once into the window-major table and
    /// dropped.
    pub fn from_parts(
        basic_window: usize,
        n_series: usize,
        series: Vec<SeriesSketch>,
        pairs: Vec<PairSketch>,
    ) -> Result<Self> {
        let n_pairs = packed_pairs(n_series);
        if pairs.len() != n_pairs {
            return Err(Error::SketchMismatch {
                requested: format!("{n_series} series / {n_pairs} pairs"),
                available: format!("{} series / {} pairs", series.len(), pairs.len()),
            });
        }
        let ns = series.first().map_or(0, |s| s.windows.len());
        if let Some(bad) = pairs.iter().find(|p| p.corrs.len() != ns) {
            return Err(Error::SketchMismatch {
                requested: format!("{ns} windows per pair"),
                available: format!(
                    "{} windows for pair ({}, {})",
                    bad.corrs.len(),
                    bad.a,
                    bad.b
                ),
            });
        }
        Self::from_window_major(
            basic_window,
            n_series,
            series,
            scatter_pair_rows(&pairs, ns),
        )
    }

    /// Construct a sketch set from per-series statistics, turned once into
    /// window-major rows, plus the window-major pair-correlation table itself
    /// (one row of `P` packed correlations per window of `series`), taken as
    /// it is: rows shared with another table stay shared.
    pub fn from_window_major(
        basic_window: usize,
        n_series: usize,
        series: Vec<SeriesSketch>,
        window_corrs: WindowRows,
    ) -> Result<Self> {
        if basic_window == 0 {
            return Err(Error::InvalidBasicWindow {
                window: 0,
                series_len: 0,
            });
        }
        let n_pairs = packed_pairs(n_series);
        let ns = series.first().map_or(0, |s| s.windows.len());
        let (rows, width) = (window_corrs.window_count(), window_corrs.width());
        if series.len() != n_series || rows != ns || width != n_pairs {
            return Err(Error::SketchMismatch {
                requested: format!("{n_series} series / {ns} windows × {n_pairs} pairs"),
                available: format!("{} series / {rows} windows × {width} pairs", series.len()),
            });
        }
        if let Some((id, ragged)) = series
            .iter()
            .enumerate()
            .find(|(_, s)| s.windows.len() != ns)
        {
            return Err(Error::SketchMismatch {
                requested: format!("{ns} windows per series (the count of series 0)"),
                available: format!("{} windows for series {id}", ragged.windows.len()),
            });
        }
        let stats = (0..ns).flat_map(|w| series.iter().map(move |s| s.windows[w]));
        Ok(Self {
            basic_window,
            n_series,
            stats: WindowRows::from_flat(stats.collect(), n_series, ns),
            window_corrs,
        })
    }

    /// The basic-window size (`B`) this sketch was built with.
    pub fn basic_window(&self) -> usize {
        self.basic_window
    }

    /// The basic-window configuration as a [`BasicWindowing`].
    pub fn windowing(&self) -> BasicWindowing {
        BasicWindowing {
            size: self.basic_window,
        }
    }

    /// Number of series covered.
    pub fn series_count(&self) -> usize {
        self.n_series
    }

    /// Number of sketched basic windows per series.
    pub fn window_count(&self) -> usize {
        self.stats.window_count()
    }

    /// Per-window statistics of one series: column `id` of the statistics
    /// table, gathered on every call (`O(ns)` strided reads, nothing cached).
    pub fn series_sketch(&self, id: SeriesId) -> Result<SeriesSketch> {
        if id >= self.n_series {
            return Err(Error::UnknownSeries(id));
        }
        let windows = (0..self.window_count())
            .map(|w| self.stats.row(w)[id])
            .collect();
        Ok(SeriesSketch {
            series: id,
            windows,
        })
    }

    /// The statistics table: row `w` holds window `w` of every series, in
    /// id order.
    pub fn stats_rows(&self) -> &WindowRows<WindowStats> {
        &self.stats
    }

    /// The pair table: row `w` holds `c_w` of every pair, in packed order.
    pub fn corr_rows(&self) -> &WindowRows {
        &self.window_corrs
    }

    /// Per-window correlations of one unordered pair (order of the arguments
    /// does not matter): column `p` of the window-major table, gathered into
    /// an owned [`PairSketch`] on every call — `O(ns)` strided reads, nothing
    /// cached.
    pub fn pair_sketch(&self, i: SeriesId, j: SeriesId) -> Result<PairSketch> {
        if i == j || i >= self.n_series || j >= self.n_series {
            return Err(Error::UnknownSeries(i.max(j)));
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let corrs = self
            .window_corrs_view(0..self.window_count())
            .pair_column(pair_index(a, b, self.n_series))
            .collect();
        Ok(PairSketch { a, b, corrs })
    }

    /// Append the sketch of one newly completed basic window: per-series
    /// statistics and per-pair correlations, in the same packed order as the
    /// stored sketches. Each buffer becomes its table's new row as it is.
    /// Used by the streaming layer. A sketch of no series holds no windows,
    /// so it accepts the empty parts and stays empty.
    pub fn push_window(
        &mut self,
        series_stats: Vec<WindowStats>,
        pair_corrs: Vec<f64>,
    ) -> Result<()> {
        let n_pairs = packed_pairs(self.n_series);
        if series_stats.len() != self.n_series || pair_corrs.len() != n_pairs {
            return Err(Error::SketchMismatch {
                requested: format!("{} series / {} pairs", series_stats.len(), pair_corrs.len()),
                available: format!("{} series / {n_pairs} pairs", self.n_series),
            });
        }
        if self.n_series > 0 {
            self.stats.push(series_stats);
            self.window_corrs.push(pair_corrs);
        }
        Ok(())
    }

    /// Let go of the oldest basic window: its row of statistics and its row
    /// of pair correlations ([`WindowRows::drop_oldest`]). The windows after it are re-indexed
    /// from 0, so a sketch that pushes one window and drops one slides the
    /// real-time query window of Algorithm 3 forward by one.
    pub fn drop_oldest_window(&mut self) {
        self.stats.drop_oldest();
        self.window_corrs.drop_oldest();
    }

    /// Zero-copy window-major view of the pair correlations over the basic
    /// windows in `full` — the table [`crate::plan::QueryPlan::block_kernel`]
    /// streams. Row `k` of the view is `c_{full.start+k}` of every pair in
    /// packed order.
    ///
    /// # Panics
    ///
    /// Panics when `full` exceeds the sketched window range.
    pub fn window_corrs_view(&self, full: std::ops::Range<usize>) -> CorrView<'_> {
        self.window_corrs.view(full)
    }

    /// Number of floats stored by the sketch — the paper's space-overhead
    /// quantity ψ = L/B · (2N + N(N-1)/2). Used by the Figure 6d experiment.
    pub fn stored_floats(&self) -> usize {
        let ns = self.window_count();
        ns * (2 * self.n_series + packed_pairs(self.n_series))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::pearson;

    fn collection() -> SeriesCollection {
        SeriesCollection::from_rows(vec![
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0],
            vec![2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0],
            vec![9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 1.0],
        ])
        .unwrap()
    }

    #[test]
    fn pair_index_is_a_bijection() {
        let n = 7;
        let mut seen = vec![false; n * (n - 1) / 2];
        for i in 0..n {
            for j in (i + 1)..n {
                let idx = pair_index(i, j, n);
                assert!(!seen[idx], "duplicate index for ({i},{j})");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn build_produces_expected_shapes() {
        let c = collection();
        let sketch = SketchSet::build(&c, 4).unwrap();
        assert_eq!(sketch.basic_window(), 4);
        assert_eq!(sketch.series_count(), 3);
        assert_eq!(sketch.window_count(), 2);
        assert_eq!(sketch.window_corrs_view(0..2).pair_count(), 3);
        assert_eq!(sketch.stored_floats(), 2 * (2 * 3 + 3));
    }

    #[test]
    fn build_rejects_bad_basic_window() {
        let c = collection();
        assert!(SketchSet::build(&c, 0).is_err());
        assert!(SketchSet::build(&c, 9).is_err());
        assert!(SketchSet::build(&c, 8).is_ok());
    }

    #[test]
    fn sketch_statistics_match_direct_computation() {
        let c = collection();
        let sketch = SketchSet::build(&c, 4).unwrap();
        let s0 = sketch.series_sketch(0).unwrap();
        let direct = WindowStats::from_values(&c.get(0).unwrap().values()[0..4]);
        assert!((s0.window(0).mean - direct.mean).abs() < 1e-12);
        assert!((s0.window(0).std - direct.std).abs() < 1e-12);

        let p01 = sketch.pair_sketch(0, 1).unwrap();
        let direct_c = pearson(
            &c.get(0).unwrap().values()[4..8],
            &c.get(1).unwrap().values()[4..8],
        );
        assert!((p01.corrs[1] - direct_c).abs() < 1e-12);
    }

    #[test]
    fn pair_sketch_is_order_insensitive() {
        let c = collection();
        let sketch = SketchSet::build(&c, 4).unwrap();
        let ab = sketch.pair_sketch(0, 2).unwrap();
        let ba = sketch.pair_sketch(2, 0).unwrap();
        assert_eq!(ab, ba);
        assert!(sketch.pair_sketch(1, 1).is_err());
        assert!(sketch.pair_sketch(0, 5).is_err());
    }

    #[test]
    fn tiled_build_matches_reference_path() {
        let rows: Vec<Vec<f64>> = (0..7)
            .map(|s| {
                (0..95)
                    .map(|i| {
                        ((i as f64 * 0.31 + s as f64).sin() * 3.0)
                            + ((i * 7 + s * 13) % 17) as f64 * 0.25
                    })
                    .collect()
            })
            .collect();
        let c = SeriesCollection::from_rows(rows).unwrap();
        for b in [4usize, 13, 31] {
            let tiled = SketchSet::build(&c, b).unwrap();
            let reference = SketchSet::build_reference(&c, b).unwrap();
            // Per-series statistics share the same code path: identical.
            assert_eq!(tiled.stats, reference.stats);
            for (i, j) in c.pairs() {
                let t = tiled.pair_sketch(i, j).unwrap();
                let r = reference.pair_sketch(i, j).unwrap();
                assert_eq!((t.a, t.b, t.corrs.len()), (i, j, r.corrs.len()));
                for (ct, cr) in t.corrs.iter().zip(&r.corrs) {
                    assert!(
                        (ct - cr).abs() <= 1e-10,
                        "pair ({i},{j}) B={b}: {ct} vs {cr}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiled_build_keeps_constant_window_convention() {
        // Series 0 is constant: every correlation involving it is 0.0 in both
        // the tiled and the reference sketch.
        let c = SeriesCollection::from_rows(vec![
            vec![3.0; 24],
            (0..24).map(|i| (i as f64 * 0.4).sin()).collect(),
        ])
        .unwrap();
        let tiled = SketchSet::build(&c, 6).unwrap();
        let reference = SketchSet::build_reference(&c, 6).unwrap();
        assert_eq!(tiled.pair_sketch(0, 1).unwrap().corrs, vec![0.0; 4]);
        assert_eq!(tiled, reference);
    }

    #[test]
    fn trailing_remainder_is_not_sketched() {
        let c = SeriesCollection::from_rows(vec![vec![1.0; 10], vec![2.0; 10]]).unwrap();
        let sketch = SketchSet::build(&c, 4).unwrap();
        // 10 / 4 = 2 complete windows; the trailing 2 points are ignored.
        assert_eq!(sketch.window_count(), 2);
    }

    #[test]
    fn push_window_extends_all_sketches() {
        let c = collection();
        let mut sketch = SketchSet::build(&c, 4).unwrap();
        let stats = vec![
            WindowStats {
                len: 4,
                mean: 0.0,
                std: 1.0
            };
            3
        ];
        sketch.push_window(stats, vec![0.5, 0.2, -0.1]).unwrap();
        assert_eq!(sketch.window_count(), 3);
        assert_eq!(sketch.pair_sketch(1, 2).unwrap().corrs.len(), 3);
    }

    #[test]
    fn push_window_rejects_wrong_arity() {
        let c = collection();
        let mut sketch = SketchSet::build(&c, 4).unwrap();
        let err = sketch.push_window(vec![], vec![]).unwrap_err();
        assert!(matches!(err, Error::SketchMismatch { .. }));
    }

    #[test]
    fn from_parts_validates_counts() {
        let c = collection();
        let sketch = SketchSet::build(&c, 4).unwrap();
        let series: Vec<_> = (0..3).map(|i| sketch.series_sketch(i).unwrap()).collect();
        let pairs: Vec<_> = c
            .pairs()
            .map(|(i, j)| sketch.pair_sketch(i, j).unwrap())
            .collect();
        assert_eq!(
            SketchSet::from_parts(4, 3, series.clone(), pairs.clone()).unwrap(),
            sketch
        );
        assert!(SketchSet::from_parts(4, 4, series, pairs).is_err());
    }

    #[test]
    fn ragged_series_are_a_typed_error_not_a_later_index_panic() {
        // Four windows of three series; the table is sized by series 0, so a
        // series with another window count used to be accepted and the first
        // query over it indexed past its statistics.
        let rows: Vec<Vec<f64>> = (0..3)
            .map(|s| (0..16).map(|t| ((t * (s + 2)) % 7) as f64).collect())
            .collect();
        let c = SeriesCollection::from_rows(rows).unwrap();
        let sketch = SketchSet::build(&c, 4).unwrap();
        let series: Vec<SeriesSketch> = (0..3).map(|i| sketch.series_sketch(i).unwrap()).collect();
        let table = WindowRows::from_flat(
            (0..4)
                .flat_map(|w| sketch.window_corrs_view(w..w + 1).window_row(0).to_vec())
                .collect(),
            3,
            4,
        );
        let pairs: Vec<PairSketch> = c
            .pairs()
            .map(|(i, j)| sketch.pair_sketch(i, j).unwrap())
            .collect();
        let extra = series[0].windows[0];
        type Bend = fn(&mut Vec<WindowStats>, WindowStats);
        let cases: [(&str, usize, Bend, usize); 4] = [
            ("short", 2, |w, _| w.truncate(3), 3),
            ("long", 1, |w, extra| w.push(extra), 5),
            ("empty", 2, |w, _| w.clear(), 0),
            ("short, not the last", 1, |w, _| w.truncate(3), 3),
        ];
        for (name, id, bend, found) in cases {
            let mut ragged = series.clone();
            bend(&mut ragged[id].windows, extra);
            for (route, built) in [
                (
                    "from_window_major",
                    SketchSet::from_window_major(4, 3, ragged.clone(), table.clone()),
                ),
                (
                    "from_parts",
                    SketchSet::from_parts(4, 3, ragged.clone(), pairs.clone()),
                ),
            ] {
                match built {
                    Err(Error::SketchMismatch {
                        requested,
                        available,
                    }) => {
                        assert!(
                            requested.contains("4 windows"),
                            "{name}/{route}: {requested}"
                        );
                        assert_eq!(
                            available,
                            format!("{found} windows for series {id}"),
                            "{name}/{route}"
                        );
                    }
                    other => panic!("{name}/{route}: expected SketchMismatch, got {other:?}"),
                }
            }
        }
        // The well-formed parts still assemble, both ways.
        assert_eq!(
            SketchSet::from_window_major(4, 3, series.clone(), table).unwrap(),
            sketch
        );
        assert_eq!(SketchSet::from_parts(4, 3, series, pairs).unwrap(), sketch);
    }

    #[test]
    fn empty_series_sets_are_typed_errors_not_underflows() {
        // One series sketch declared as zero series: a mismatch, not `0 - 1`.
        let one = SeriesSketch {
            series: 0,
            windows: Vec::new(),
        };
        let err = SketchSet::from_parts(4, 0, vec![one], vec![]).unwrap_err();
        assert!(matches!(err, Error::SketchMismatch { .. }));
        // The empty sketch is accepted and stays appendable.
        let mut empty = SketchSet::from_parts(4, 0, vec![], vec![]).unwrap();
        empty.push_window(vec![], vec![]).unwrap();
        assert_eq!((empty.window_count(), empty.stored_floats()), (0, 0));
    }
}
