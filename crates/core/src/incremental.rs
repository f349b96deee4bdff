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
//! complete correlation matrix / climate network, whose tick
//! ([`SlidingState::slide_in`]) evaluates the formula's per-series half once
//! per series and sweeps only its per-pair half over the pairs.
//!
//! # Precondition of the 1e-10 contract: stream anomalies, not raw values
//!
//! Lemma 2 rewrites every correlation from its own previous value, so
//! rounding error accumulates over ticks, and it enters through the
//! query-window variance `sum_sq/T − mean²`, which cancels (mean/σ)² of its
//! leading digits. Measured over 10⁵ ticks against from-scratch recomputation
//! (`tests/sliding_drift.rs`, both engines): on zero-mean anomaly-like series
//! the worst error is 1.6e-13, growing about as √ticks — inside the 1e-10
//! contract for any realistic run; on the same series offset by 300 (raw
//! Kelvin) it is 9.6e-12 after 10 ticks and 4.1e-9 after 10⁵ — outside it
//! within a thousand ticks. Remove the climatology, or at least the mean,
//! before streaming.
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
use crate::plan::{carve_for_workers, row_segments, PlanMethod, WindowRows};
use crate::runner::{Job, JobRunner, SerialRunner};
use crate::sketch::{arriving_window, packed_pairs, pair_index, SketchSet};
use crate::source::SourcePlan;
use crate::stats::{clamp_corr, window_corrs_into, WindowStats};
use crate::sweep::{fill_packed, EdgeRule};
use crate::timeseries::SeriesCollection;

/// Summary of one series over the current sliding query window, maintained
/// incrementally from per-basic-window statistics that the engine holds and
/// hands back on eviction ([`SlidingSeriesState::slide`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingSeriesState {
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
    pub fn new<'a>(windows: impl IntoIterator<Item = &'a WindowStats>) -> Self {
        let mut state = Self {
            sum: 0.0,
            sum_sq: 0.0,
            total: 0,
        };
        for w in windows {
            state.add(w);
        }
        state
    }

    fn add(&mut self, stats: &WindowStats) {
        self.sum += stats.sum();
        self.sum_sq += stats.sum_of_squares();
        self.total += stats.len;
    }

    /// Slide the window: take out the oldest basic window, `evicted`, then
    /// add the arriving one.
    pub fn slide(&mut self, evicted: &WindowStats, arriving: &WindowStats) {
        self.sum -= evicted.sum();
        self.sum_sq -= evicted.sum_of_squares();
        self.total -= evicted.len;
        self.add(arriving);
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
}

/// The pure Lemma 2 update: correlation of the slid window from the previous
/// correlation plus the evicted and arriving basic-window statistics.
///
/// This is the scalar form — what [`SlidingPair`] calls — and the oracle of
/// the all-pair tick: [`SlidingState::slide_in`] hoists every term below that
/// depends on one series only out of its pair sweep, and a unit test pins the
/// swept results to this function bit for bit.
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
    /// The basic windows inside the query window, oldest first.
    windows: VecDeque<WindowContribution>,
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
        let parts: Vec<WindowContribution> = x
            .chunks(basic_window)
            .zip(y.chunks(basic_window))
            .map(|(x, y)| WindowContribution::from_raw(x, y))
            .collect();
        // Keep the pearson convention: a constant window starts at 0.0
        // (only `DegenerateWindow` is mapped; other errors would propagate).
        let corr = exact::degenerate_to_zero(exact::combine(&parts))?;
        Ok(Self {
            x: SlidingSeriesState::new(parts.iter().map(|p| &p.x)),
            y: SlidingSeriesState::new(parts.iter().map(|p| &p.y)),
            windows: parts.into(),
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
        let evicted = *self.windows.front().expect("non-empty window");
        let expected = evicted.x.len;
        if chunk_x.len() != expected || chunk_y.len() != expected {
            return Err(Error::ChunkSizeMismatch {
                expected,
                found: chunk_x.len(),
            });
        }
        let arriving = WindowContribution::from_raw(chunk_x, chunk_y);
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
        self.x.slide(&evicted.x, &arriving.x);
        self.y.slide(&evicted.y, &arriving.y);
        self.windows.pop_front();
        self.windows.push_back(arriving);
        Ok(self.corr)
    }
}

/// The per-series half of Lemma 2 for one tick: every term [`lemma2_update`]
/// derives from one series alone, evaluated once per series — the same
/// expressions in the same order — instead of once per pair. The sweep reads
/// the row side (`i`) as scalars and the column side (`j`) as contiguous
/// slices.
///
/// `T`, `B_1`, `B_{ns+1}` and `T'` are per-tick scalars because
/// [`SlidingState::new`] and [`SlidingState::slide_in`] admit only windows of
/// exactly `basic_window` points: every series covers the same `T`, and
/// `T' = T − B_1 + B_{ns+1} > 0`.
struct SeriesTerms {
    /// `B_1`, points in the evicted basic window.
    b1: f64,
    /// `B_{ns+1}`, points in the arriving basic window.
    bn: f64,
    /// `σ` of the old query window.
    std: Vec<f64>,
    /// `T·σ`.
    t_std: Vec<f64>,
    /// `σ` of the evicted and of the arriving basic window.
    std1: Vec<f64>,
    stdn: Vec<f64>,
    /// `δ_1`, `δ_{ns+1}`: the evicted / arriving window mean as an offset
    /// from the old query-window mean.
    d1: Vec<f64>,
    dn: Vec<f64>,
    /// `α`, the shift of the query-window mean, and `T'·α`.
    alpha: Vec<f64>,
    t_alpha: Vec<f64>,
    /// The variance term (`T'·σ'²`) and its square root.
    var: Vec<f64>,
    root: Vec<f64>,
}

impl SeriesTerms {
    fn new(
        series: &[SlidingSeriesState],
        evicted: &[WindowStats],
        arriving: &[WindowStats],
        basic_window: usize,
    ) -> Self {
        let n = series.len();
        let total_len = series.first().map_or(0, |s| s.total_len()) as f64;
        let b1 = basic_window as f64;
        let bn = basic_window as f64;
        let new_total = total_len - b1 + bn;
        let mut terms = Self {
            b1,
            bn,
            std: Vec::with_capacity(n),
            t_std: Vec::with_capacity(n),
            std1: Vec::with_capacity(n),
            stdn: Vec::with_capacity(n),
            d1: Vec::with_capacity(n),
            dn: Vec::with_capacity(n),
            alpha: Vec::with_capacity(n),
            t_alpha: Vec::with_capacity(n),
            var: Vec::with_capacity(n),
            root: Vec::with_capacity(n),
        };
        for ((state, evicted), arriving) in series.iter().zip(evicted).zip(arriving) {
            let (mean, std) = (state.mean(), state.std());
            let d1 = evicted.mean - mean;
            let dn = arriving.mean - mean;
            let alpha = (bn * dn - b1 * d1) / new_total;
            let var = total_len * std * std + bn * (arriving.std.powi(2) + dn * dn)
                - b1 * (evicted.std.powi(2) + d1 * d1)
                - new_total * alpha * alpha;
            terms.std.push(std);
            terms.t_std.push(total_len * std);
            terms.std1.push(evicted.std);
            terms.stdn.push(arriving.std);
            terms.d1.push(d1);
            terms.dn.push(dn);
            terms.alpha.push(alpha);
            terms.t_alpha.push(new_total * alpha);
            terms.var.push(var);
            terms.root.push(var.sqrt());
        }
        terms
    }

    /// Lemma 2 over one same-row run of pairs `(i, j0..j0 + corrs.len())`:
    /// `corrs` holds the run's correlations (updated in place), `evicted` and
    /// `arriving` the two windows' stored values of the same pairs. Every
    /// result equals [`lemma2_update`] bit for bit; the body is one
    /// expression per pair with selects instead of early returns, so the
    /// loop vectorises.
    #[inline]
    fn sweep_row<F: Fn(f64) -> f64>(
        &self,
        i: usize,
        j0: usize,
        corrs: &mut [f64],
        evicted: &[f64],
        arriving: &[f64],
        row_corr: &F,
    ) {
        // Every operand is cut to `len` before the loop, so no bounds check
        // survives inside it.
        let len = corrs.len();
        let (b1, bn) = (self.b1, self.bn);
        let (t_std_i, std1_i, stdn_i) = (self.t_std[i], self.std1[i], self.stdn[i]);
        let (d1_i, dn_i, t_alpha_i) = (self.d1[i], self.dn[i], self.t_alpha[i]);
        let (var_i, root_i) = (self.var[i], self.root[i]);
        let (evicted, arriving) = (&evicted[..len], &arriving[..len]);
        let (std, std1, stdn) = (
            &self.std[j0..j0 + len],
            &self.std1[j0..j0 + len],
            &self.stdn[j0..j0 + len],
        );
        let (d1, dn, alpha) = (
            &self.d1[j0..j0 + len],
            &self.dn[j0..j0 + len],
            &self.alpha[j0..j0 + len],
        );
        let (var, root) = (&self.var[j0..j0 + len], &self.root[j0..j0 + len]);
        for k in 0..len {
            let numerator = t_std_i * std[k] * corrs[k]
                + bn * (stdn_i * stdn[k] * row_corr(arriving[k]) + dn_i * dn[k])
                - b1 * (std1_i * std1[k] * row_corr(evicted[k]) + d1_i * d1[k])
                - t_alpha_i * alpha[k];
            let mut corr = clamp_corr(numerator / (root_i * root[k]));
            if var_i <= 0.0 || var[k] <= 0.0 {
                corr = 0.0;
            }
            // NaN anywhere in the inputs stays NaN (see `lemma2_update`).
            if numerator.is_nan() || var_i.is_nan() || var[k].is_nan() {
                corr = f64::NAN;
            }
            corrs[k] = corr;
        }
    }
}

/// Apply the per-pair sliding update (Lemma 2 / Equation 6) to every pair of
/// `corrs`, one disjoint contiguous slice of the packed triangle per worker
/// of `runner`. `evicted` and `arriving` are the stored packed rows of the
/// two basic windows and `row_corr` maps a stored value to the window's pair
/// correlation: identity for the exact engine, the clamp of the stored
/// Equation 3 estimate `ĉ` for the DFT engine (Equation 6 is Lemma 2 over
/// those). Identical to a serial sweep for any worker count: each pair reads
/// only the shared terms and rows and writes its own slot.
fn slide_pair_sweep<F: Fn(f64) -> f64 + Sync>(
    runner: &dyn JobRunner,
    terms: &SeriesTerms,
    evicted: &[f64],
    arriving: &[f64],
    row_corr: F,
    corrs: &mut [f64],
) {
    let n = terms.std.len();
    let row_corr = &row_corr;
    let jobs: Vec<Job<'_>> = carve_for_workers(corrs, runner.worker_count())
        .into_iter()
        .map(|(start, slice)| {
            Box::new(move || {
                let mut at = 0;
                for (i, j0, len) in row_segments(start, slice.len(), n) {
                    let pairs = start + at..start + at + len;
                    terms.sweep_row(
                        i,
                        j0,
                        &mut slice[at..at + len],
                        &evicted[pairs.clone()],
                        &arriving[pairs],
                        row_corr,
                    );
                    at += len;
                }
            }) as Job<'_>
        })
        .collect();
    runner.run(jobs);
}

/// The state and the tick both sliding engines share: the held windows'
/// rows, per-series sliding aggregates, the current packed correlations and
/// the optional edge subscription. [`SlidingNetwork`] (exact, Lemma 2) and
/// `tsubasa_dft::SlidingApproxNetwork` (Equation 6) each hold one and
/// dereference to it; they differ only in which kernel mints an arriving
/// window's row and in what a stored row value means.
///
/// Per basic window inside the query window it holds a row of per-series
/// statistics and a row of stored per-pair values (`c`, or Equation 3's
/// `ĉ`), shared with its bootstrap sketch ([`SlidingState::store`]): the rows
/// a fresh sketch of the window holds. A built sketch's rows share one block,
/// which lives until its last row held anywhere has slid out.
///
/// A tick ([`SlidingState::slide_in`]) takes the arriving window's statistics
/// and row (the arrival step, [`arriving_window`], and the engine's one
/// kernel), evaluates the per-series terms of Lemma 2 (`O(N)`), sweeps the
/// per-pair half over every pair, and — only with a subscription — runs one
/// [`EdgeWatch::observe`] pass over the swept correlations; the last two run
/// at memory speed. Every window the state ever holds covers exactly
/// `basic_window` points ([`SlidingState::new`] and the tick's shape check
/// see to it), which is what lets the sweep take `T`, `B_1` and `B_{ns+1}` as
/// per-tick scalars.
#[derive(Debug, Clone)]
pub struct SlidingState {
    basic_window: usize,
    /// The running aggregates of each series over the held windows.
    series: Vec<SlidingSeriesState>,
    /// Per held window, the statistics of every series.
    stats: WindowRows<WindowStats>,
    /// Per held window, the packed per-pair row the engine stores.
    pair_windows: WindowRows,
    /// Current packed per-pair correlations over the sliding window.
    corrs: Vec<f64>,
    /// The engine's method, which picks its [`EdgeRule`].
    method: PlanMethod,
    /// Active edge subscription ([`SlidingState::subscribe_edges`]).
    watch: Option<EdgeWatch>,
    /// The buffer of the pair row the last tick evicted, when no other
    /// table held that row: the next arriving row is minted into it
    /// ([`SlidingState::row_buffer`]).
    spare: Option<Vec<f64>>,
}

impl SlidingState {
    /// The trailing `query_len / B` of `available` sketched windows: a query
    /// length that is no positive multiple of `B` is an
    /// [`Error::InvalidQueryWindow`] ending at the last sketched point, one
    /// longer than the sketch an [`Error::SketchMismatch`].
    pub fn trailing_windows(
        basic_window: usize,
        available: usize,
        query_len: usize,
    ) -> Result<std::ops::Range<usize>> {
        let sketched = available * basic_window;
        if query_len == 0 || !query_len.is_multiple_of(basic_window) {
            return Err(Error::InvalidQueryWindow {
                end: sketched.saturating_sub(1),
                len: query_len,
                series_len: sketched,
            });
        }
        let ns = query_len / basic_window;
        if ns > available {
            return Err(Error::SketchMismatch {
                requested: format!("{ns} basic windows"),
                available: format!("{available} sketched windows"),
            });
        }
        Ok(available - ns..available)
    }

    /// Assemble the state of a `method` engine over basic windows `windows`
    /// of `sketch`: the per-series statistics rows are the sketch's own,
    /// `table` holds the engine's stored row of each of those windows
    /// (oldest first) and `corrs` the initial packed correlations over them.
    /// Both tables are shared, not copied.
    ///
    /// Everything a tick assumes is checked here, once, and answered with
    /// [`Error::SketchMismatch`]: the window range is non-empty and inside
    /// the sketch, every one of those windows covers exactly `basic_window`
    /// points for every series (Lemma 2 takes `T`, `B_1` and `B_{ns+1}` from
    /// one series for both, so a tick is only correct when all series agree
    /// on them), there is one stored row per window, and every row and
    /// `corrs` hold one value per pair.
    pub fn new(
        sketch: &SketchSet,
        windows: std::ops::Range<usize>,
        table: WindowRows,
        corrs: Vec<f64>,
        method: PlanMethod,
    ) -> Result<Self> {
        let basic_window = sketch.basic_window();
        let n_pairs = packed_pairs(sketch.series_count());
        let shape = (table.window_count(), table.width(), corrs.len());
        if windows.is_empty() || shape != (windows.len(), n_pairs, n_pairs) {
            return Err(Error::SketchMismatch {
                requested: format!(
                    "a row of {n_pairs} values per window of {windows:?} and as many correlations"
                ),
                available: format!("(rows, values per row, correlations) = {shape:?}"),
            });
        }
        let sketched = sketch.stats_rows();
        let whole = |w: usize| sketched.row(w).iter().all(|s| s.len == basic_window);
        if windows.end > sketched.window_count() || !windows.clone().all(whole) {
            return Err(Error::SketchMismatch {
                requested: format!("windows {windows:?} of {basic_window} points each"),
                available: format!(
                    "{} sketched windows, short of the range or of another length",
                    sketched.window_count()
                ),
            });
        }
        let stats = sketched.range(windows);
        let series = (0..sketch.series_count())
            .map(|i| SlidingSeriesState::new((0..stats.window_count()).map(|k| &stats.row(k)[i])))
            .collect();
        Ok(Self {
            basic_window,
            series,
            stats,
            pair_windows: table,
            corrs,
            method,
            watch: None,
            spare: None,
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
        self.pair_windows.window_count()
    }

    /// Slide forward by one basic window: `stats[i]` are the arriving
    /// window's statistics of series `i` and `arriving` its packed per-pair
    /// row, both as the arrival step ([`arriving_window`]) and the engine's
    /// kernel minted them; `row_corr` maps a stored row value to that
    /// window's pair correlation. Statistics of another series count or
    /// window length, or a row of another width, are an
    /// [`Error::SketchMismatch`] and leave the state as it was.
    ///
    /// The tick, in order: the per-series terms of Lemma 2 (`δ`, `α`, the
    /// variance term and its root — once per series, from the pre-slide
    /// state); the pair sweep, which leaves in every slot the bits
    /// [`lemma2_update`] returns for that pair, for any worker count of
    /// `runner`; the subscription's watch scan, if any; and only then
    /// the slide of the per-series aggregates and of the held rows, which
    /// takes `stats` and `arriving` as the newest rows without copying them.
    pub fn slide_in(
        &mut self,
        runner: &dyn JobRunner,
        stats: Vec<WindowStats>,
        arriving: Vec<f64>,
        row_corr: impl Fn(f64) -> f64 + Sync,
    ) -> Result<()> {
        let (n, b, pairs) = (self.series.len(), self.basic_window, self.corrs.len());
        if stats.len() != n || stats.iter().any(|s| s.len != b) || arriving.len() != pairs {
            return Err(Error::SketchMismatch {
                requested: format!("{n} windows of {b} points and {pairs} pair values"),
                available: format!("{} windows and {} pair values", stats.len(), arriving.len()),
            });
        }

        // The per-series half of Lemma 2, once per series, read from the
        // pre-slide state; then the per-pair half over every pair.
        let evicted = self.stats.row(0);
        let terms = SeriesTerms::new(&self.series, evicted, &stats, b);
        slide_pair_sweep(
            runner,
            &terms,
            self.pair_windows.row(0),
            &arriving,
            row_corr,
            &mut self.corrs,
        );
        if let Some(watch) = &mut self.watch {
            watch.observe(&self.corrs);
        }

        for ((state, evicted), arriving) in self.series.iter_mut().zip(evicted).zip(&stats) {
            state.slide(evicted, arriving);
        }
        self.stats.drop_oldest();
        self.stats.push(stats);
        self.spare = self.pair_windows.drop_oldest();
        self.pair_windows.push(arriving);
        Ok(())
    }

    /// The buffer the engine mints the next arriving pair row into, one
    /// value per pair: the evicted row's when the last tick freed one, so a
    /// steady tick allocates and zeroes no row, else a fresh zeroed one. The
    /// kernel overwrites every value.
    pub fn row_buffer(&mut self) -> Vec<f64> {
        let pairs = self.corrs.len();
        self.spare.take().unwrap_or_else(|| vec![0.0; pairs])
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

    /// Snapshot of the current climate network under the engine's
    /// [`EdgeRule::for_method`] at `theta`, θ unchecked. The lenient
    /// thresholding keeps this path infallible: NaN correlations (possible
    /// once NaN observations are ingested — the sliding recombination
    /// deliberately keeps them NaN instead of fabricating a value) are
    /// counted on the returned matrix's
    /// [`nan_pair_count`](AdjacencyMatrix::nan_pair_count), never silently
    /// dropped.
    pub fn network(&self, theta: f64) -> AdjacencyMatrix {
        let rule = EdgeRule::new(self.method, theta);
        AdjacencyMatrix::threshold_packed(self.series.len(), &self.corrs, rule)
    }

    /// Subscribe an [`EdgeWatch`] under the engine's rule at `theta`
    /// (checked) to the θ-network: returns its first scan's network, equal to
    /// [`SlidingState::network`] (NaN audit included), and from then on
    /// [`SlidingState::changed_edges`] carries the [`EdgeDelta`] of each
    /// ingest tick's scan. Applying each delta to the previous snapshot
    /// reproduces a full re-threshold bit for bit. Re-subscribing replaces
    /// any previous subscription.
    pub fn subscribe_edges(&mut self, theta: f64) -> Result<AdjacencyMatrix> {
        let (rule, n) = (EdgeRule::for_method(self.method, theta)?, self.series.len());
        let mut watch = EdgeWatch::new(rule, n);
        watch.observe(&self.corrs);
        let mut baseline = AdjacencyMatrix::empty(n);
        watch.take_delta().apply_to(&mut baseline)?;
        self.watch = Some(watch);
        Ok(baseline)
    }

    /// The [`EdgeDelta`] of the most recent ingest tick (empty right after
    /// subscribing), or `None` without a subscription.
    pub fn changed_edges(&self) -> Option<&EdgeDelta> {
        self.watch.as_ref().map(EdgeWatch::delta)
    }

    /// Drop the active edge subscription, if any, so subsequent ingests skip
    /// the watch scan.
    pub fn unsubscribe_edges(&mut self) {
        self.watch = None;
    }

    /// The held windows of the live window store, oldest first: per basic
    /// window inside the query window, the row of per-series statistics and
    /// the engine's stored per-pair row.
    pub fn store(&self) -> (&WindowRows<WindowStats>, &WindowRows) {
        (&self.stats, &self.pair_windows)
    }
}

/// Incrementally maintained all-pair correlation matrix and climate network
/// over a sliding real-time query window (Algorithm 3's update step).
///
/// Initialization is the dense fill ([`fill_packed`]) of a [`SourcePlan`]
/// over the historical sketch; every [`SlidingNetwork::ingest`] then applies Lemma 2 to all
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
    /// The arriving window kernel's packed scratch, kept across ticks.
    z: Vec<f64>,
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
        let (b, available) = (sketch.basic_window(), sketch.window_count());
        let windows = SlidingState::trailing_windows(b, available, query_len)?;
        let n = sketch.series_count();
        if collection.len() != n {
            return Err(Error::SketchMismatch {
                requested: format!("{} series", collection.len()),
                available: format!("{n} sketched series"),
            });
        }

        // The one aligned plan over a source, as the approximate network's
        // `ApproxPlan`: the dense fill runs its batch kernel over the sketch's
        // lent window-major table (on aligned windows bit-identical to
        // `exact::pair_correlation`). The state shares that table's rows.
        let plan = SourcePlan::new(sketch, windows.clone(), PlanMethod::Exact)?;
        let (corrs, _) = fill_packed(&SerialRunner, plan.query_plan(), plan.table())?;
        let table = sketch.corr_rows().range(windows.clone());
        let state = SlidingState::new(sketch, windows, table, corrs, PlanMethod::Exact)?;
        Ok(Self {
            state,
            z: Vec::new(),
        })
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
        // The arrival step, then the arriving row from the shared exact
        // window kernel (inline: `runner` fans out the Lemma 2 sweep only),
        // minted as `arriving_corrs` mints it but into the buffer the last
        // tick freed. A stored row value is the correlation itself.
        let stats = arriving_window(chunk, self.series_count(), self.basic_window())?;
        let mut row = self.state.row_buffer();
        window_corrs_into(chunk, &stats, &SerialRunner, &mut self.z, &mut row);
        self.state.slide_in(runner, stats, row, |c| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::sketch::SeriesSketch;
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
        let state = SlidingSeriesState::new(&windows);
        let direct = WindowStats::from_values(&data[0..60]);
        assert_eq!(state.total_len(), 60);
        assert!((state.mean() - direct.mean).abs() < 1e-10);
        assert!((state.std() - direct.std).abs() < 1e-10);
    }

    #[test]
    fn sliding_series_state_slide_updates_aggregates() {
        let data = lcg_series(6, 80);
        let windows: Vec<WindowStats> = (0..3)
            .map(|j| WindowStats::from_values(&data[j * 20..(j + 1) * 20]))
            .collect();
        let mut state = SlidingSeriesState::new(&windows);
        let arriving = WindowStats::from_values(&data[60..80]);
        state.slide(&windows[0], &arriving);
        let direct = WindowStats::from_values(&data[20..80]);
        assert!((state.mean() - direct.mean).abs() < 1e-10);
        assert!((state.std() - direct.std).abs() < 1e-10);
        assert_eq!(state.total_len(), 3 * 20);
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

    /// A sketch whose series `s` holds one window of `lens[s][w]` points per
    /// entry (statistics of seeded noise, zero pair rows).
    fn sketch_of_window_lens(basic_window: usize, lens: &[Vec<usize>]) -> Result<SketchSet> {
        let n = lens.len();
        let series = lens
            .iter()
            .enumerate()
            .map(|(s, lens)| SeriesSketch {
                series: s,
                windows: lens
                    .iter()
                    .enumerate()
                    .map(|(w, &len)| {
                        WindowStats::from_values(&lcg_series((s * 16 + w) as u64, len))
                    })
                    .collect(),
            })
            .collect();
        let (windows, pairs) = (lens[0].len(), packed_pairs(n));
        let rows = WindowRows::from_flat(vec![0.0; windows * pairs], pairs, windows);
        SketchSet::from_window_major(basic_window, n, series, rows)
    }

    #[test]
    fn new_rejects_what_a_tick_cannot_run_on() {
        let full = vec![4usize; 3];
        let good = sketch_of_window_lens(4, &[full.clone(), full.clone(), full.clone()]).unwrap();
        let odd_len =
            sketch_of_window_lens(4, &[full.clone(), vec![4, 3, 4], full.clone()]).unwrap();
        // A series with fewer windows never gets as far as a tick: no sketch
        // can be assembled around it.
        assert!(matches!(
            sketch_of_window_lens(4, &[full.clone(), vec![4, 4], full.clone()]),
            Err(Error::SketchMismatch { .. })
        ));
        // One row per way to break a tick: sketch, window range, stored rows,
        // values per row, values in `corrs` (3 series: 3 pairs).
        let build = |sketch, windows, rows: usize, row_len: usize, corrs_len: usize| {
            let table = WindowRows::from_flat(vec![0.1; rows * row_len], row_len, rows);
            SlidingState::new(
                sketch,
                windows,
                table,
                vec![0.2; corrs_len],
                PlanMethod::Exact,
            )
        };
        assert!(build(&good, 1..3, 2, 3, 3).is_ok());
        for (what, built) in [
            (
                "a 3-point window under B = 4",
                build(&odd_len, 0..3, 3, 3, 3),
            ),
            ("an empty window range", build(&good, 2..2, 0, 3, 3)),
            ("a range past the sketch", build(&good, 2..4, 2, 3, 3)),
            ("fewer rows than windows", build(&good, 0..3, 2, 3, 3)),
            ("more rows than windows", build(&good, 1..3, 3, 3, 3)),
            ("a short pair row", build(&good, 0..3, 3, 2, 3)),
            ("short correlations", build(&good, 0..3, 3, 3, 2)),
        ] {
            assert!(
                matches!(built, Err(Error::SketchMismatch { .. })),
                "{what}: {built:?}"
            );
        }

        // The same sketch through the public bootstrap: a typed error, not a
        // network that ticks to plausible asymmetric values.
        let c = SeriesCollection::from_rows((0..3).map(|s| lcg_series(s, 12)).collect()).unwrap();
        assert!(matches!(
            SlidingNetwork::initialize(&c, &odd_len, 12),
            Err(Error::SketchMismatch { .. })
        ));
    }

    /// SplitMix64: the seeded case generator of the bit-identity pin.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[-1, 1)`.
        fn signed(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }

        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next_u64() % (hi - lo) as u64) as usize
        }

        /// `value`, or with probability `1 / one_in` a NaN or an infinity.
        fn hostile(&mut self, value: f64, one_in: usize) -> f64 {
            match self.range(0, one_in * 3) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                _ => value,
            }
        }
    }

    /// The tick's oracle: [`lemma2_update`] called pair by pair on the
    /// pre-tick state.
    fn lemma2_pair_by_pair(
        pre: &SlidingState,
        arriving_stats: &[WindowStats],
        arriving_row: &[f64],
        row_corr: impl Fn(f64) -> f64,
    ) -> Vec<f64> {
        let n = pre.series.len();
        let mut out = Vec::with_capacity(pre.corrs.len());
        for i in 0..n {
            for j in i + 1..n {
                let idx = pair_index(i, j, n);
                let (x, y) = (&pre.series[i], &pre.series[j]);
                let evicted = WindowContribution {
                    x: pre.stats.row(0)[i],
                    y: pre.stats.row(0)[j],
                    corr: row_corr(pre.pair_windows.row(0)[idx]),
                };
                let arriving = WindowContribution {
                    x: arriving_stats[i],
                    y: arriving_stats[j],
                    corr: row_corr(arriving_row[idx]),
                };
                out.push(lemma2_update(
                    x.total_len() as f64,
                    x.mean(),
                    y.mean(),
                    x.std(),
                    y.std(),
                    pre.corrs[idx],
                    &evicted,
                    &arriving,
                ));
            }
        }
        out
    }

    /// One tick of a clone of `pre` under `row_corr` and `workers`, pinned to
    /// the oracle under `to_bits()`. Returns the post-tick state.
    fn pinned_tick<F: Fn(f64) -> f64 + Sync + Copy>(
        pre: &SlidingState,
        chunk: &[Vec<f64>],
        arriving_row: &[f64],
        row_corr: F,
        workers: usize,
        label: &str,
    ) -> SlidingState {
        let stats: Vec<WindowStats> = chunk.iter().map(|c| WindowStats::from_values(c)).collect();
        let expected = lemma2_pair_by_pair(pre, &stats, arriving_row, row_corr);
        let mut state = pre.clone();
        let runner = crate::runner::ScopedRunner::new(workers);
        state
            .slide_in(&runner, stats, arriving_row.to_vec(), row_corr)
            .unwrap();
        for (idx, (got, want)) in state.corrs.iter().zip(&expected).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{label}, {workers} workers, pair {idx}: swept {got} vs lemma2_update {want}"
            );
        }
        state
    }

    #[test]
    fn sweep_equals_lemma2_update_bit_for_bit() {
        let mut rng = Rng(0x1e44_a2b1_7c0d_0020);
        let (mut nan_results, mut zero_results, mut finite_results) = (0usize, 0usize, 0usize);
        for shape in 0..48usize {
            let n = rng.range(3, 41);
            let b = rng.range(4, 13);
            let windows = rng.range(2, 6);
            let ticks = 3;
            let pairs = packed_pairs(n);
            // Per series: noise around an offset, a constant, noise so large
            // its variance term is `∞ − ∞`, or just large enough that it is
            // `∞` (the `∞ / ∞ → 0.0` arm of `clamp_corr`).
            let kinds: Vec<usize> = (0..n).map(|_| rng.range(0, 8)).collect();
            let offsets: Vec<f64> = (0..n).map(|_| 300.0 * rng.signed()).collect();
            // One value in 100 windows' worth is NaN or ±∞: in the stored
            // windows (the first evicted among them) and in arriving chunks.
            let window_values = |rng: &mut Rng, s: usize| -> Vec<f64> {
                (0..b)
                    .map(|_| {
                        let v = match kinds[s] {
                            0 => offsets[s],
                            1 => 1e160 * rng.signed(),
                            2 => 1e154 * rng.signed(),
                            _ => offsets[s] + rng.signed(),
                        };
                        rng.hostile(v, 100 * b)
                    })
                    .collect()
            };
            let series: Vec<SeriesSketch> = (0..n)
                .map(|s| SeriesSketch {
                    series: s,
                    windows: (0..windows)
                        .map(|_| WindowStats::from_values(&window_values(&mut rng, s)))
                        .collect(),
                })
                .collect();
            // Stored pair values: one in 60 hostile, and straying past ±1 so
            // the clamping `row_corr` differs from the identity.
            let stored_row = |rng: &mut Rng| -> Vec<f64> {
                (0..pairs)
                    .map(|_| {
                        let v = 1.2 * rng.signed();
                        rng.hostile(v, 60)
                    })
                    .collect()
            };
            let table: Vec<f64> = (0..windows).flat_map(|_| stored_row(&mut rng)).collect();
            let corrs = stored_row(&mut rng);
            let zeros = WindowRows::from_flat(vec![0.0; windows * pairs], pairs, windows);
            let sketch = SketchSet::from_window_major(b, n, series, zeros).unwrap();
            let table = WindowRows::from_flat(table, pairs, windows);
            let initial =
                SlidingState::new(&sketch, 0..windows, table, corrs, PlanMethod::Exact).unwrap();

            let mut exact = initial.clone();
            let mut clamped = initial;
            for tick in 0..ticks {
                let chunk: Vec<Vec<f64>> = (0..n).map(|s| window_values(&mut rng, s)).collect();
                let arriving_row = stored_row(&mut rng);
                let label = format!("shape {shape} (n={n}, b={b}, {windows} windows), tick {tick}");
                let identity = |c: f64| c;
                pinned_tick(&exact, &chunk, &arriving_row, identity, 3, &label);
                exact = pinned_tick(&exact, &chunk, &arriving_row, identity, 1, &label);
                pinned_tick(&clamped, &chunk, &arriving_row, clamp_corr, 1, &label);
                clamped = pinned_tick(&clamped, &chunk, &arriving_row, clamp_corr, 3, &label);
                for c in exact.corrs.iter().chain(&clamped.corrs) {
                    if c.is_nan() {
                        nan_results += 1;
                    } else if *c == 0.0 {
                        zero_results += 1;
                    } else {
                        finite_results += 1;
                    }
                }
            }
        }
        assert!(nan_results > 100, "only {nan_results} NaN results");
        assert!(zero_results > 100, "only {zero_results} 0.0 results");
        assert!(
            finite_results > 10_000,
            "only {finite_results} other results"
        );
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
    fn slide_in_rejects_values_of_another_shape() {
        let (_, mut net) = build_network(3, 100, 10, 50);
        let before = net.correlation_matrix();
        let stats = [WindowStats::from_values(&[1.0; 10]); 3];
        let short = [WindowStats::from_values(&[1.0; 9]); 3];
        for (what, stats, row) in [
            ("two series", &stats[..2], vec![0.0; 3]),
            ("a 9-point window", &short[..], vec![0.0; 3]),
            ("a short row", &stats[..], vec![0.0; 2]),
        ] {
            let sliding = net.slide_in(&SerialRunner, stats.to_vec(), row, |c| c);
            assert!(
                matches!(sliding, Err(Error::SketchMismatch { .. })),
                "{what}: {sliding:?}"
            );
        }
        assert_eq!(net.correlation_matrix(), before);
        assert_eq!(net.window_count(), 5);
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
