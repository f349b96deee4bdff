//! Incremental correlation maintenance for real-time data (paper Lemma 2 and
//! Algorithm 3).
//!
//! A real-time query window `w = ("now", m)` always covers the `m` most
//! recent points. Data arrives in chunks of one basic window (`B` points per
//! series); when a chunk completes, the window slides forward by `B`: the
//! oldest basic window falls out and the new one enters. Lemma 2 derives the
//! new correlation from
//!
//! * the previous correlation, previous window standard deviations and means,
//! * the statistics of the *evicted* first basic window, and
//! * the statistics of the *arriving* basic window,
//!
//! without touching any other data. [`lemma2_update`] is the pure formula;
//! [`SlidingPair`] maintains one pair and [`SlidingNetwork`] maintains the
//! complete correlation matrix / climate network.
//!
//! One deliberate deviation from the paper's notation: the mean-shift term
//! `α` is divided by the *new* total length `T' = T − B_1 + B_{ns+1}` rather
//! than `T`. The two coincide for the equal-size basic windows used in every
//! experiment; the `T'` form stays exact when the evicted and arriving
//! windows have different lengths.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

use crate::delta::{EdgeDelta, EdgeWatch};
use crate::error::{Error, Result};
use crate::exact::{self, WindowContribution};
use crate::matrix::{AdjacencyMatrix, CorrelationMatrix};
use crate::plan::{carve_for_workers, row_segments, QueryPlan};
use crate::runner::{Job, JobRunner, SerialRunner};
use crate::sketch::{pair_index, SeriesSketch, SketchSet};
use crate::stats::{clamp_corr, window_corrs_into, WindowStats};
use crate::timeseries::SeriesCollection;

/// Summary of one series over the current sliding query window, maintained
/// incrementally from per-basic-window statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingSeriesState {
    windows: VecDeque<WindowStats>,
    /// Σ_j B_j · mean_j  (= sum of all raw values in the window).
    sum: f64,
    /// Σ_j B_j · (σ_j² + mean_j²)  (= sum of squared raw values).
    sum_sq: f64,
    /// Σ_j B_j  (= number of raw values, `T`).
    total: usize,
}

impl SlidingSeriesState {
    /// Build the state from the per-window statistics of the initial query
    /// window (oldest first).
    pub fn new(windows: Vec<WindowStats>) -> Self {
        let mut state = Self {
            windows: VecDeque::new(),
            sum: 0.0,
            sum_sq: 0.0,
            total: 0,
        };
        for w in windows {
            state.push_back(w);
        }
        state
    }

    fn push_back(&mut self, stats: WindowStats) {
        self.sum += stats.sum();
        self.sum_sq += stats.sum_of_squares();
        self.total += stats.len;
        self.windows.push_back(stats);
    }

    fn pop_front(&mut self) -> Option<WindowStats> {
        let evicted = self.windows.pop_front()?;
        self.sum -= evicted.sum();
        self.sum_sq -= evicted.sum_of_squares();
        self.total -= evicted.len;
        Some(evicted)
    }

    /// Slide the window: evict the oldest basic window, append the new one.
    /// Returns the evicted statistics.
    pub fn slide(&mut self, arriving: WindowStats) -> Option<WindowStats> {
        let evicted = self.pop_front();
        self.push_back(arriving);
        evicted
    }

    /// Number of raw points currently covered (`T`).
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Mean of the current query window.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Population variance of the current query window.
    pub fn variance(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / self.total as f64 - mean * mean).max(0.0)
    }

    /// Population standard deviation of the current query window.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Statistics of the oldest basic window still inside the query window.
    pub fn front(&self) -> Option<WindowStats> {
        self.windows.front().copied()
    }

    /// Number of basic windows currently covered (`ns`).
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Statistics of every basic window currently inside the query window,
    /// oldest first. Snapshot paths ([`SlidingState::series_sketches`]) use
    /// this to rebuild a [`SeriesSketch`] from the live sliding state.
    pub fn window_stats(&self) -> impl Iterator<Item = WindowStats> + '_ {
        self.windows.iter().copied()
    }
}

/// The pure Lemma 2 update: correlation of the slid window from the previous
/// correlation plus the evicted and arriving basic-window statistics.
///
/// * `total_len` — `T`, the raw length of the previous query window.
/// * `mean_x`, `mean_y`, `std_x`, `std_y` — statistics of the previous query
///   window (means are needed to express the δ terms; Lemma 1 lets the caller
///   maintain them incrementally so they are never recomputed from raw data).
/// * `corr_t` — the previous correlation.
/// * `evicted`, `arriving` — statistics of the basic window leaving/entering
///   the query window and their per-pair correlations `c_1`, `c_{ns+1}`.
#[allow(clippy::too_many_arguments)]
pub fn lemma2_update(
    total_len: f64,
    mean_x: f64,
    mean_y: f64,
    std_x: f64,
    std_y: f64,
    corr_t: f64,
    evicted: &WindowContribution,
    arriving: &WindowContribution,
) -> f64 {
    let b1 = evicted.x.len as f64;
    let bn = arriving.x.len as f64;
    let new_total = total_len - b1 + bn;
    if new_total <= 0.0 {
        return 0.0;
    }

    // δ terms are offsets from the *old* query-window mean, per Lemma 2.
    let dx1 = evicted.x.mean - mean_x;
    let dy1 = evicted.y.mean - mean_y;
    let dxn = arriving.x.mean - mean_x;
    let dyn_ = arriving.y.mean - mean_y;

    // Shift of the query-window mean caused by the slide.
    let alpha_x = (bn * dxn - b1 * dx1) / new_total;
    let alpha_y = (bn * dyn_ - b1 * dy1) / new_total;

    let numerator = total_len * std_x * std_y * corr_t
        + bn * (arriving.x.std * arriving.y.std * arriving.corr + dxn * dyn_)
        - b1 * (evicted.x.std * evicted.y.std * evicted.corr + dx1 * dy1)
        - new_total * alpha_x * alpha_y;

    let var_x_term = total_len * std_x * std_x + bn * (arriving.x.std.powi(2) + dxn * dxn)
        - b1 * (evicted.x.std.powi(2) + dx1 * dx1)
        - new_total * alpha_x * alpha_x;
    let var_y_term = total_len * std_y * std_y + bn * (arriving.y.std.powi(2) + dyn_ * dyn_)
        - b1 * (evicted.y.std.powi(2) + dy1 * dy1)
        - new_total * alpha_y * alpha_y;

    // NaN anywhere in the inputs (NaN observations poison the arriving
    // window's statistics, and from there every aggregate) must stay NaN so
    // the lenient thresholding sinks can audit the pair. The old behaviour
    // let `clamp_corr` silently map NaN to 0.0 — a plausible-looking
    // correlation fabricated from undefined data.
    if numerator.is_nan() || var_x_term.is_nan() || var_y_term.is_nan() {
        return f64::NAN;
    }
    if var_x_term <= 0.0 || var_y_term <= 0.0 {
        return 0.0;
    }
    clamp_corr(numerator / (var_x_term.sqrt() * var_y_term.sqrt()))
}

/// Incrementally maintained correlation of a single pair of streams over a
/// sliding query window. Useful on its own for monitoring one link; the
/// all-pair engine is [`SlidingNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingPair {
    x: SlidingSeriesState,
    y: SlidingSeriesState,
    pair_corrs: VecDeque<f64>,
    corr: f64,
}

impl SlidingPair {
    /// Initialize from the raw values of the initial query window, cut into
    /// basic windows of `basic_window` points. The window length must be a
    /// positive multiple of `basic_window` (the real-time model of §3.1.2).
    pub fn new(x: &[f64], y: &[f64], basic_window: usize) -> Result<Self> {
        if basic_window == 0 || x.len() < basic_window {
            return Err(Error::InvalidBasicWindow {
                window: basic_window,
                series_len: x.len(),
            });
        }
        if x.len() != y.len() || !x.len().is_multiple_of(basic_window) {
            return Err(Error::ChunkSizeMismatch {
                expected: basic_window,
                found: x.len(),
            });
        }
        let ns = x.len() / basic_window;
        let mut xw = Vec::with_capacity(ns);
        let mut yw = Vec::with_capacity(ns);
        let mut corrs = VecDeque::with_capacity(ns);
        let mut parts = Vec::with_capacity(ns);
        for j in 0..ns {
            let range = j * basic_window..(j + 1) * basic_window;
            let part = WindowContribution::from_raw(&x[range.clone()], &y[range]);
            xw.push(part.x);
            yw.push(part.y);
            corrs.push_back(part.corr);
            parts.push(part);
        }
        // Keep the pearson convention: a constant window starts at 0.0
        // (only `DegenerateWindow` is mapped; other errors would propagate).
        let corr = exact::degenerate_to_zero(exact::combine(&parts))?;
        Ok(Self {
            x: SlidingSeriesState::new(xw),
            y: SlidingSeriesState::new(yw),
            pair_corrs: corrs,
            corr,
        })
    }

    /// Current correlation over the sliding window.
    pub fn correlation(&self) -> f64 {
        self.corr
    }

    /// Slide the window by one basic window given the newly arrived chunk of
    /// raw points (`chunk_x.len() == chunk_y.len() == B`).
    pub fn ingest(&mut self, chunk_x: &[f64], chunk_y: &[f64]) -> Result<f64> {
        let expected = self.x.front().map(|w| w.len).unwrap_or(0);
        if chunk_x.len() != expected || chunk_y.len() != expected {
            return Err(Error::ChunkSizeMismatch {
                expected,
                found: chunk_x.len(),
            });
        }
        let arriving = WindowContribution::from_raw(chunk_x, chunk_y);
        let (sx, sy, c_new) = (arriving.x, arriving.y, arriving.corr);
        let evicted = WindowContribution {
            x: self.x.front().expect("non-empty window"),
            y: self.y.front().expect("non-empty window"),
            corr: *self.pair_corrs.front().expect("non-empty window"),
        };
        self.corr = lemma2_update(
            self.x.total_len() as f64,
            self.x.mean(),
            self.y.mean(),
            self.x.std(),
            self.y.std(),
            self.corr,
            &evicted,
            &arriving,
        );
        self.x.slide(sx);
        self.y.slide(sy);
        self.pair_corrs.pop_front();
        self.pair_corrs.push_back(c_new);
        Ok(self.corr)
    }
}

/// The flat pre-slide snapshots the per-pair sweep reads: per-series
/// aggregates of the old query window, the evicted and arriving basic-window
/// statistics, and the two windows' packed per-pair rows with the map that
/// turns a stored value into a correlation.
struct SlideSweepInputs<'a, F> {
    n: usize,
    /// Stored per-pair row of the evicted basic window (`c_1` after `row_corr`).
    evicted_row: &'a [f64],
    /// Stored per-pair row of the arriving basic window (`c_{ns+1}` after
    /// `row_corr`).
    arriving_row: &'a [f64],
    /// Stored value → window correlation: identity for the exact engine,
    /// the clamp of the stored Equation 3 estimate `ĉ` for the DFT engine
    /// (Equation 6 is Lemma 2 over those).
    row_corr: F,
    fronts: &'a [WindowStats],
    /// `T` per series (raw length of the old query window).
    totals: &'a [f64],
    means: &'a [f64],
    stds: &'a [f64],
    arriving_stats: &'a [WindowStats],
}

impl<F: Fn(f64) -> f64> SlideSweepInputs<'_, F> {
    #[inline]
    fn update_pair(&self, i: usize, j: usize, idx: usize, corr_t: f64) -> f64 {
        let evicted = WindowContribution {
            x: self.fronts[i],
            y: self.fronts[j],
            corr: (self.row_corr)(self.evicted_row[idx]),
        };
        let arriving = WindowContribution {
            x: self.arriving_stats[i],
            y: self.arriving_stats[j],
            corr: (self.row_corr)(self.arriving_row[idx]),
        };
        lemma2_update(
            self.totals[i],
            self.means[i],
            self.means[j],
            self.stds[i],
            self.stds[j],
            corr_t,
            &evicted,
            &arriving,
        )
    }
}

/// Apply the per-pair sliding update (Lemma 2 / Equation 6) to every pair of
/// `corrs`, one disjoint contiguous slice of the packed triangle per worker
/// of `runner`. Identical to a serial sweep for any worker count: each pair
/// reads only the shared snapshots and writes its own slot.
fn slide_pair_sweep<F: Fn(f64) -> f64 + Sync>(
    runner: &dyn JobRunner,
    inputs: &SlideSweepInputs<'_, F>,
    corrs: &mut [f64],
) {
    let jobs: Vec<Job<'_>> = carve_for_workers(corrs, runner.worker_count())
        .into_iter()
        .map(|(start, slice)| {
            Box::new(move || {
                let mut cursor = 0;
                for (i, j0, len) in row_segments(start, slice.len(), inputs.n) {
                    for j in j0..j0 + len {
                        slice[cursor] = inputs.update_pair(i, j, start + cursor, slice[cursor]);
                        cursor += 1;
                    }
                }
            }) as Job<'_>
        })
        .collect();
    runner.run(jobs);
}

/// The state and the tick both sliding engines share: per-series sliding
/// aggregates, one stored per-pair row per basic window inside the query
/// window, the current packed correlations and the optional edge
/// subscription. [`SlidingNetwork`] (exact, Lemma 2) and
/// `tsubasa_dft::SlidingApproxNetwork` (Equation 6) each hold one and
/// dereference to it; they differ only in how a row is computed from an
/// arriving chunk and in what a stored row value means.
///
/// A tick ([`SlidingState::slide_in`]) is three steps: the arriving window's
/// row, one Lemma 2 sweep over every pair, and — only with a subscription —
/// one [`EdgeWatch::observe`] pass over the swept correlations.
#[derive(Debug, Clone)]
pub struct SlidingState {
    basic_window: usize,
    series: Vec<SlidingSeriesState>,
    /// Per basic window inside the query window: the packed per-pair row the
    /// engine stores (correlations `c` or Equation 3 estimates `ĉ`), oldest
    /// window first.
    pair_windows: VecDeque<Vec<f64>>,
    /// Current packed per-pair correlations over the sliding window.
    corrs: Vec<f64>,
    /// Active edge subscription ([`SlidingState::subscribe_edges`]).
    watch: Option<EdgeWatch>,
}

impl SlidingState {
    /// Assemble the state over basic windows `windows` of `sketch`: the
    /// per-series statistics come from the sketch, `pair_windows` holds the
    /// engine's stored row of each of those windows (oldest first) and
    /// `corrs` the initial packed correlations over them.
    pub fn new(
        sketch: &SketchSet,
        windows: std::ops::Range<usize>,
        pair_windows: VecDeque<Vec<f64>>,
        corrs: Vec<f64>,
    ) -> Result<Self> {
        let series = (0..sketch.series_count())
            .map(|i| {
                let sk = sketch.series_sketch(i)?;
                Ok(SlidingSeriesState::new(
                    windows.clone().map(|w| sk.window(w)).collect(),
                ))
            })
            .collect::<Result<_>>()?;
        Ok(Self {
            basic_window: sketch.basic_window(),
            series,
            pair_windows,
            corrs,
            watch: None,
        })
    }

    /// Number of series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// The basic-window (chunk) size every ingest expects.
    pub fn basic_window(&self) -> usize {
        self.basic_window
    }

    /// Number of basic windows in the sliding query window.
    pub fn window_count(&self) -> usize {
        self.pair_windows.len()
    }

    /// Slide forward by one basic window; `chunk[i]` holds the `B` newly
    /// observed points of series `i`. The engine supplies its two
    /// differences: `arriving_row` fills the arriving window's stored
    /// packed per-pair row from the chunk's per-series statistics, and
    /// `row_corr` maps a stored row value to that window's pair correlation.
    /// The update is identical for any worker count of `runner`.
    pub fn slide_in(
        &mut self,
        runner: &dyn JobRunner,
        chunk: &[Vec<f64>],
        arriving_row: impl FnOnce(&[WindowStats], &mut [f64]),
        row_corr: impl Fn(f64) -> f64 + Sync,
    ) -> Result<()> {
        let n = self.series.len();
        if chunk.len() != n {
            return Err(Error::UnalignedSeries {
                expected: n,
                found: chunk.len(),
                index: 0,
            });
        }
        for points in chunk {
            if points.len() != self.basic_window {
                return Err(Error::ChunkSizeMismatch {
                    expected: self.basic_window,
                    found: points.len(),
                });
            }
        }

        // Sketch the arriving basic window: per-series statistics, then the
        // engine's per-pair row.
        let arriving_stats: Vec<WindowStats> = chunk
            .iter()
            .map(|points| WindowStats::from_values(points))
            .collect();
        let mut arriving = vec![0.0f64; self.corrs.len()];
        arriving_row(&arriving_stats, &mut arriving);

        // Snapshot the per-series sliding state into flat arrays once — the
        // same precompute-then-sweep shape as the QueryPlan kernel — instead
        // of re-reading deque fronts and aggregates `n − 1` times per series
        // inside the pair loop.
        let fronts: Vec<WindowStats> = self
            .series
            .iter()
            .map(|s| s.front().expect("non-empty"))
            .collect();
        let totals: Vec<f64> = self.series.iter().map(|s| s.total_len() as f64).collect();
        let means: Vec<f64> = self.series.iter().map(|s| s.mean()).collect();
        let stds: Vec<f64> = self.series.iter().map(|s| s.std()).collect();

        // Apply Lemma 2 to every pair before mutating any per-series state.
        // The evicted window's row is moved out up front so the sweep can
        // borrow `self.corrs` mutably alongside it.
        let evicted = self.pair_windows.pop_front().expect("non-empty window");
        let inputs = SlideSweepInputs {
            n,
            evicted_row: &evicted,
            arriving_row: &arriving,
            row_corr,
            fronts: &fronts,
            totals: &totals,
            means: &means,
            stds: &stds,
            arriving_stats: &arriving_stats,
        };
        slide_pair_sweep(runner, &inputs, &mut self.corrs);
        if let Some(watch) = &mut self.watch {
            watch.observe(&self.corrs);
        }

        for (state, stats) in self.series.iter_mut().zip(&arriving_stats) {
            state.slide(*stats);
        }
        self.pair_windows.push_back(arriving);
        Ok(())
    }

    /// Current correlation of one pair.
    pub fn correlation(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 1.0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.corrs[pair_index(a, b, self.series.len())]
    }

    /// Snapshot of the current correlation matrix.
    pub fn correlation_matrix(&self) -> CorrelationMatrix {
        CorrelationMatrix::from_upper_triangle(self.series.len(), self.corrs.clone())
    }

    /// Snapshot of the current climate network at threshold `theta`. The
    /// lenient thresholding keeps this path infallible: NaN correlations
    /// (possible once NaN observations are ingested — the sliding
    /// recombination deliberately keeps them NaN instead of fabricating a
    /// value) are counted on the returned matrix's
    /// [`nan_pair_count`](AdjacencyMatrix::nan_pair_count), never silently
    /// dropped.
    pub fn network(&self, theta: f64) -> AdjacencyMatrix {
        AdjacencyMatrix::threshold_packed(self.series.len(), &self.corrs, theta, false)
    }

    /// Subscribe to edge-level changes of the θ-thresholded network: returns
    /// the baseline snapshot (identical to [`SlidingState::network`] at
    /// `theta`, NaN audit included), and from the next ingest on,
    /// [`SlidingState::changed_edges`] carries the [`EdgeDelta`] of the
    /// latest tick — the pairs one re-threshold pass over the swept
    /// correlations found flipped. Applying each delta to the previous
    /// snapshot reproduces a full re-threshold bit for bit. Re-subscribing
    /// replaces any previous subscription.
    pub fn subscribe_edges(&mut self, theta: f64) -> Result<AdjacencyMatrix> {
        let (watch, baseline) = EdgeWatch::new(theta, self.series.len(), &self.corrs)?;
        self.watch = Some(watch);
        Ok(baseline)
    }

    /// The [`EdgeDelta`] emitted by the most recent ingest tick, or `None`
    /// when there is no active subscription or no tick has happened since
    /// subscribing.
    pub fn changed_edges(&self) -> Option<&EdgeDelta> {
        self.watch.as_ref().and_then(|w| w.last())
    }

    /// Drop the active edge subscription, if any, so subsequent ingests skip
    /// the re-threshold pass.
    pub fn unsubscribe_edges(&mut self) {
        self.watch = None;
    }

    /// Per-series statistics of every basic window inside the query window
    /// (oldest first, series ids re-indexed from 0) — the series half of a
    /// snapshot sketch.
    pub fn series_sketches(&self) -> Vec<SeriesSketch> {
        self.series
            .iter()
            .enumerate()
            .map(|(series, state)| SeriesSketch {
                series,
                windows: state.window_stats().collect(),
            })
            .collect()
    }

    /// The stored per-pair rows flattened window-major (oldest window
    /// first): the pair table of a snapshot sketch, copied as is.
    pub fn window_major_rows(&self) -> Vec<f64> {
        let mut flat = Vec::with_capacity(self.pair_windows.len() * self.corrs.len());
        for row in &self.pair_windows {
            flat.extend_from_slice(row);
        }
        flat
    }
}

/// Incrementally maintained all-pair correlation matrix and climate network
/// over a sliding real-time query window (Algorithm 3's update step).
///
/// Initialization reuses the flat [`QueryPlan`] kernel over the historical
/// sketch; every [`SlidingNetwork::ingest`] then applies Lemma 2 to all
/// pairs. Everything but the arriving-window kernel lives in the shared
/// [`SlidingState`], which this type dereferences to.
///
/// ```
/// use tsubasa_core::prelude::*;
///
/// let historical = SeriesCollection::from_rows(vec![
///     vec![1.0, 2.0, 3.0, 4.0, 5.0, 7.0],
///     vec![6.0, 5.0, 4.0, 3.0, 2.0, 0.0],
/// ])
/// .unwrap();
/// let sketch = SketchSet::build(&historical, 2).unwrap();
/// // Query window: the 4 most recent points (2 basic windows of 2).
/// let mut net = SlidingNetwork::initialize(&historical, &sketch, 4).unwrap();
/// assert!(net.correlation(0, 1) < -0.99); // anti-correlated
///
/// // One basic window of new observations per series slides the window.
/// net.ingest(&[vec![8.0, 9.0], vec![-1.0, -2.0]]).unwrap();
/// assert_eq!(net.window_count(), 2);
/// assert!(net.correlation(0, 1) < -0.99);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingNetwork {
    state: SlidingState,
}

impl Deref for SlidingNetwork {
    type Target = SlidingState;

    fn deref(&self) -> &SlidingState {
        &self.state
    }
}

impl DerefMut for SlidingNetwork {
    fn deref_mut(&mut self) -> &mut SlidingState {
        &mut self.state
    }
}

impl SlidingNetwork {
    /// Build the initial state from historical data: the query window covers
    /// the most recent `query_len` points of `collection` (which must be a
    /// positive multiple of the sketch's basic window and fit inside the
    /// sketched range).
    pub fn initialize(
        collection: &SeriesCollection,
        sketch: &SketchSet,
        query_len: usize,
    ) -> Result<Self> {
        let b = sketch.basic_window();
        if query_len == 0 || !query_len.is_multiple_of(b) {
            return Err(Error::InvalidQueryWindow {
                end: collection.series_len().saturating_sub(1),
                len: query_len,
                series_len: collection.series_len(),
            });
        }
        let ns = query_len / b;
        let available = sketch.window_count();
        if ns > available {
            return Err(Error::SketchMismatch {
                requested: format!("{ns} basic windows"),
                available: format!("{available} sketched windows"),
            });
        }
        let first_window = available - ns;
        let n = sketch.series_count();
        if collection.len() != n {
            return Err(Error::SketchMismatch {
                requested: format!("{} series", collection.len()),
                available: format!("{n} sketched series"),
            });
        }

        // Each basic window's packed per-pair correlations are one contiguous
        // row of the sketch's window-major table.
        let table = sketch.window_corrs_view(first_window..available);
        let rows: Vec<&[f64]> = (0..ns).map(|k| table.window_row(k)).collect();
        let pair_windows: VecDeque<Vec<f64>> = rows.iter().map(|row| row.to_vec()).collect();

        // One shared QueryPlan computes the per-series half of Lemma 1 once;
        // the scalar per-pair kernel then runs over each pair's column of the
        // table (bit-identical to `exact::pair_correlation_aligned`). Pairs
        // are walked in packed order through one reused column buffer, so the
        // `ns` strided row streams advance sequentially and stay
        // cache-resident.
        let plan = QueryPlan::build_aligned(sketch, first_window..available)?;
        let mut column = Vec::with_capacity(ns);
        let mut corrs = Vec::with_capacity(table.pair_count());
        for (p, (i, j)) in collection.pairs().enumerate() {
            column.clear();
            column.extend(rows.iter().map(|row| row[p]));
            corrs.push(plan.pair_kernel(i, j, &column, None));
        }

        let state = SlidingState::new(sketch, first_window..available, pair_windows, corrs)?;
        Ok(Self { state })
    }

    /// Slide the network forward by one basic window. `chunk[i]` holds the
    /// `B` newly observed points of series `i`. This is the
    /// `UpdateNetwork` step of Algorithm 3 (Lemma 2 applied to every pair),
    /// run inline on the calling thread; [`SlidingNetwork::ingest_in`] is the
    /// same update fanned out over a [`JobRunner`].
    pub fn ingest(&mut self, chunk: &[Vec<f64>]) -> Result<()> {
        self.ingest_in(&SerialRunner, chunk)
    }

    /// [`SlidingNetwork::ingest`] with the per-pair Lemma 2 sweep split into
    /// disjoint contiguous slices of the packed correlation triangle, one per
    /// worker of `runner`. Hand the same reusable pool
    /// (`tsubasa_parallel::WorkerPool`) to every call so repeated slides stop
    /// paying thread startup. The result is identical to the serial
    /// [`SlidingNetwork::ingest`] for any worker count (each pair's update
    /// reads only shared snapshots and its own slot).
    pub fn ingest_in(&mut self, runner: &dyn JobRunner, chunk: &[Vec<f64>]) -> Result<()> {
        // The arriving window's row comes from the shared exact window kernel
        // (inline: `runner` fans out the Lemma 2 sweep only). A stored row
        // value is the correlation itself.
        let arriving_corrs = |stats: &[WindowStats], row: &mut [f64]| {
            window_corrs_into(chunk, stats, &SerialRunner, &mut Vec::new(), row);
        };
        self.state.slide_in(runner, chunk, arriving_corrs, |c| c)
    }

    /// Freeze the sliding state into an immutable [`SketchSet`] covering
    /// exactly the basic windows currently inside the query window (oldest
    /// first, re-indexed from 0). The snapshot shares no storage with the
    /// live network, so an epoch-publication layer can hand it out behind an
    /// `Arc` while ingestion keeps sliding. Queries planned against the
    /// snapshot are bit-identical to planning against the original sketch
    /// over the same windows: per-window statistics and correlations are
    /// copied, never recomputed.
    pub fn snapshot_sketch(&self) -> Result<SketchSet> {
        SketchSet::from_window_major(
            self.basic_window(),
            self.series_count(),
            self.series_sketches(),
            self.window_major_rows(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::window::QueryWindow;
    use proptest::prelude::*;

    fn lcg_series(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                let noise = (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0;
                (i as f64 * 0.07).cos() * 1.5 + 0.5 * noise
            })
            .collect()
    }

    #[test]
    fn sliding_series_state_tracks_mean_and_std() {
        let data = lcg_series(5, 60);
        let windows: Vec<WindowStats> = (0..3)
            .map(|j| WindowStats::from_values(&data[j * 20..(j + 1) * 20]))
            .collect();
        let state = SlidingSeriesState::new(windows);
        let direct = WindowStats::from_values(&data[0..60]);
        assert_eq!(state.total_len(), 60);
        assert!((state.mean() - direct.mean).abs() < 1e-10);
        assert!((state.std() - direct.std).abs() < 1e-10);
    }

    #[test]
    fn sliding_series_state_slide_updates_aggregates() {
        let data = lcg_series(6, 80);
        let mut state = SlidingSeriesState::new(
            (0..3)
                .map(|j| WindowStats::from_values(&data[j * 20..(j + 1) * 20]))
                .collect(),
        );
        let arriving = WindowStats::from_values(&data[60..80]);
        let evicted = state.slide(arriving).unwrap();
        assert_eq!(evicted.len, 20);
        let direct = WindowStats::from_values(&data[20..80]);
        assert!((state.mean() - direct.mean).abs() < 1e-10);
        assert!((state.std() - direct.std).abs() < 1e-10);
        assert_eq!(state.window_count(), 3);
    }

    #[test]
    fn lemma2_matches_from_scratch_single_pair() {
        let b = 10;
        let x = lcg_series(1, 100);
        let y = lcg_series(2, 100);
        // Initial window covers indices 0..60; slide twice to 20..80.
        let mut pair = SlidingPair::new(&x[0..60], &y[0..60], b).unwrap();
        for step in 0..2 {
            let lo = 60 + step * b;
            pair.ingest(&x[lo..lo + b], &y[lo..lo + b]).unwrap();
            let window_start = (step + 1) * b;
            let direct = crate::stats::pearson(&x[window_start..lo + b], &y[window_start..lo + b]);
            assert!(
                (pair.correlation() - direct).abs() < 1e-9,
                "step {step}: {} vs {direct}",
                pair.correlation()
            );
        }
    }

    #[test]
    fn sliding_pair_rejects_bad_chunk() {
        let x = lcg_series(3, 40);
        let y = lcg_series(4, 40);
        let mut pair = SlidingPair::new(&x, &y, 10).unwrap();
        assert!(pair.ingest(&x[0..5], &y[0..5]).is_err());
        assert!(SlidingPair::new(&x[0..35], &y[0..35], 10).is_err());
        assert!(SlidingPair::new(&x, &y, 0).is_err());
    }

    fn build_network(
        n: usize,
        len: usize,
        b: usize,
        query: usize,
    ) -> (SeriesCollection, SlidingNetwork) {
        let c = SeriesCollection::from_rows(
            (0..n).map(|s| lcg_series(s as u64 * 13 + 1, len)).collect(),
        )
        .unwrap();
        let sketch = SketchSet::build(&c, b).unwrap();
        let net = SlidingNetwork::initialize(&c, &sketch, query).unwrap();
        (c, net)
    }

    #[test]
    fn sliding_network_initialization_matches_baseline() {
        let (c, net) = build_network(5, 200, 20, 120);
        let query = QueryWindow::new(199, 120).unwrap();
        let direct = baseline::correlation_matrix(&c, query).unwrap();
        let incr = net.correlation_matrix();
        assert!(incr.max_abs_diff(&direct) < 1e-9);
    }

    #[test]
    fn sliding_network_tracks_baseline_over_many_slides() {
        let n = 4;
        let b = 15;
        let query_len = 90;
        let total = 400;
        let full: Vec<Vec<f64>> = (0..n)
            .map(|s| lcg_series(s as u64 * 7 + 3, total))
            .collect();
        // Historical prefix of 150 points; stream the rest chunk by chunk.
        let hist_len = 150;
        let c = SeriesCollection::from_rows(full.iter().map(|s| s[..hist_len].to_vec()).collect())
            .unwrap();
        let sketch = SketchSet::build(&c, b).unwrap();
        let mut net = SlidingNetwork::initialize(&c, &sketch, query_len).unwrap();

        let mut now = hist_len;
        while now + b <= total {
            let chunk: Vec<Vec<f64>> = full.iter().map(|s| s[now..now + b].to_vec()).collect();
            net.ingest(&chunk).unwrap();
            now += b;

            // Compare against a from-scratch baseline on the same window.
            let cur = SeriesCollection::from_rows(full.iter().map(|s| s[..now].to_vec()).collect())
                .unwrap();
            let query = QueryWindow::latest(now, query_len).unwrap();
            let direct = baseline::correlation_matrix(&cur, query).unwrap();
            let diff = net.correlation_matrix().max_abs_diff(&direct);
            assert!(diff < 1e-7, "drift {diff} at now={now}");
        }
        assert!(
            now > hist_len + 10 * b,
            "the loop must have exercised many slides"
        );
    }

    #[test]
    fn ingest_in_is_identical_across_worker_counts() {
        use crate::runner::ScopedRunner;
        let n = 5;
        let b = 10;
        let total = 260;
        let full: Vec<Vec<f64>> = (0..n)
            .map(|s| lcg_series(s as u64 * 3 + 2, total))
            .collect();
        let hist = 160;
        let c =
            SeriesCollection::from_rows(full.iter().map(|s| s[..hist].to_vec()).collect()).unwrap();
        let sketch = SketchSet::build(&c, b).unwrap();
        let serial = SlidingNetwork::initialize(&c, &sketch, 80).unwrap();
        let mut nets = [serial.clone(), serial.clone(), serial];
        let runners: Vec<ScopedRunner> = [1usize, 3, 8]
            .iter()
            .map(|&w| ScopedRunner::new(w))
            .collect();
        let mut now = hist;
        while now + b <= total {
            let chunk: Vec<Vec<f64>> = full.iter().map(|s| s[now..now + b].to_vec()).collect();
            for (net, runner) in nets.iter_mut().zip(&runners) {
                net.ingest_in(runner, &chunk).unwrap();
            }
            now += b;
            let m0 = nets[0].correlation_matrix();
            assert_eq!(m0, nets[1].correlation_matrix());
            assert_eq!(m0, nets[2].correlation_matrix());
        }
    }

    #[test]
    fn subscribed_deltas_track_full_rethreshold() {
        let n = 5;
        let b = 10;
        let total = 300;
        let theta = 0.2;
        let full: Vec<Vec<f64>> = (0..n)
            .map(|s| lcg_series(s as u64 * 11 + 5, total))
            .collect();
        let hist = 120;
        let c =
            SeriesCollection::from_rows(full.iter().map(|s| s[..hist].to_vec()).collect()).unwrap();
        let sketch = SketchSet::build(&c, b).unwrap();
        let mut net = SlidingNetwork::initialize(&c, &sketch, 80).unwrap();
        assert!(net.changed_edges().is_none());

        let mut snapshot = net.subscribe_edges(theta).unwrap();
        assert_eq!(snapshot, net.network(theta));

        let mut now = hist;
        while now + b <= total {
            let chunk: Vec<Vec<f64>> = full.iter().map(|s| s[now..now + b].to_vec()).collect();
            net.ingest(&chunk).unwrap();
            now += b;

            let delta = net.changed_edges().expect("subscribed").clone();
            assert_eq!(delta.total_pairs, n * (n - 1) / 2);
            delta.apply_to(&mut snapshot).unwrap();
            let expected = net.network(theta);
            assert_eq!(snapshot, expected, "edge drift at now={now}");
            assert_eq!(snapshot.nan_pair_count(), expected.nan_pair_count());
        }

        net.unsubscribe_edges();
        let chunk: Vec<Vec<f64>> = full.iter().map(|s| s[..b].to_vec()).collect();
        net.ingest(&chunk).unwrap();
        assert!(net.changed_edges().is_none());
    }

    #[test]
    fn subscribe_rejects_invalid_threshold() {
        let (_, mut net) = build_network(3, 100, 10, 50);
        assert!(matches!(
            net.subscribe_edges(2.0),
            Err(Error::InvalidThreshold(_))
        ));
    }

    #[test]
    fn sliding_network_rejects_malformed_chunks() {
        let (_, mut net) = build_network(3, 100, 10, 50);
        // Wrong series count.
        assert!(net.ingest(&[vec![0.0; 10]]).is_err());
        // Wrong chunk length.
        assert!(net
            .ingest(&[vec![0.0; 5], vec![0.0; 5], vec![0.0; 5]])
            .is_err());
    }

    #[test]
    fn initialize_rejects_misaligned_query() {
        let c = SeriesCollection::from_rows(vec![lcg_series(1, 100), lcg_series(2, 100)]).unwrap();
        let sketch = SketchSet::build(&c, 10).unwrap();
        assert!(SlidingNetwork::initialize(&c, &sketch, 0).is_err());
        assert!(SlidingNetwork::initialize(&c, &sketch, 35).is_err());
        assert!(SlidingNetwork::initialize(&c, &sketch, 200).is_err());
        assert!(SlidingNetwork::initialize(&c, &sketch, 100).is_ok());
    }

    #[test]
    fn network_snapshot_thresholds_current_state() {
        let (_, net) = build_network(4, 150, 15, 90);
        let m = net.correlation_matrix();
        let g = net.network(0.2);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_eq!(g.has_edge(i, j), m.get(i, j) > 0.2);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Lemma 2 applied repeatedly stays numerically glued to the
        /// from-scratch computation.
        #[test]
        fn prop_incremental_matches_direct(
            seed in 0u64..500,
            b in 5usize..20,
            ns in 3usize..8,
            slides in 1usize..6,
        ) {
            let query_len = b * ns;
            let total = query_len + b * slides + 10;
            let x = lcg_series(seed, total);
            let y = lcg_series(seed + 99, total);
            let mut pair = SlidingPair::new(&x[..query_len], &y[..query_len], b).unwrap();
            for s in 0..slides {
                let lo = query_len + s * b;
                pair.ingest(&x[lo..lo + b], &y[lo..lo + b]).unwrap();
                let start = (s + 1) * b;
                let direct = crate::stats::pearson(&x[start..lo + b], &y[start..lo + b]);
                prop_assert!((pair.correlation() - direct).abs() < 1e-7);
            }
        }
    }
}
