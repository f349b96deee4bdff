//! The precomputed per-query evaluation plan behind the all-pairs paths.
//!
//! TSUBASA's Lemma 1 recombines the correlation of a query window from
//! per-basic-window statistics. Done naively — as the reference per-pair path
//! [`crate::exact::pair_correlation`] does — every one of the `N(N−1)/2`
//! pairs re-derives the *per-series* part of the recombination: the
//! length-weighted query-window mean `x̄`, the per-window mean offsets
//! `δ_xj = x̄_j − x̄`, and the whole denominator `Σ_j B_j (σ_xj² + δ_xj²)`.
//! Each series' values are recomputed `N−1` times, and every pair allocates a
//! scratch `Vec` of window contributions.
//!
//! [`QueryPlan`] factors that waste out. Built **once per query window**, it
//! stores flat window-major `Vec<f64>` tables (row = window of the plan, in
//! `[head?, full basic windows…, tail?]` order, column = series):
//!
//! * `stds_t[k·n + i]` — `σ` of series `i` in plan window `k`,
//! * `deltas_t[k·n + i]` — `δ = mean_k − x̄_i`,
//! * per series: the query-window mean `x̄_i` and the full denominator
//!   `den_i = Σ_k B_k (σ² + δ²)`,
//! * shared: the window lengths `B_k` and the total query length `T`.
//!
//! The kernel that remains, [`QueryPlan::block_kernel`], is allocation-free
//! and evaluates a tile of pairs `(i, j0..)` from cache-friendly flat rows
//! plus one contiguous run of each window row of the sketch's window-major
//! correlation table:
//!
//! ```text
//! num(i,j) = Σ_k B_k (σ_ik σ_jk c_k + δ_ik δ_jk)
//! corr(i,j) = num / (√den_i √den_j)
//! ```
//!
//! The tables are folded with the same operands in the same order as
//! [`crate::exact::combine`], and each pair accumulates its windows in plan
//! order, so on an aligned window the kernel is **bit-for-bit identical** to
//! the reference path — a property the `flat_kernel_equivalence` test suite
//! asserts over 256 random configurations.
//!
//! A partial head or tail window of an unaligned query is what Lemma 1 says
//! it is: one more plan window, whose correlation row happens not to be
//! stored. The plan keeps the head's and the tail's z-scores in the window
//! kernel's packed panel layout ([`crate::stats::packed_len`]), and the
//! kernel that mints every stored row mints theirs at query time, one
//! aligned group of four triangle rows at a time, into the [`PartialCorrs`]
//! scratch the tile driver owns. Such a `c` is
//! `clamp_corr(Σ_t z_i[t]·z_j[t] · (1/len))`, one left-to-right fused chain,
//! where the reference centers raw values per pair, so on an unaligned
//! window the kernel agrees with the reference within `1e-10`, not bit for
//! bit.
//!
//! # Example
//!
//! ```
//! use tsubasa_core::plan::{PartialCorrs, QueryPlan};
//! use tsubasa_core::{exact, QueryWindow, SeriesCollection, SketchSet};
//!
//! let collection = SeriesCollection::from_rows(vec![
//!     vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0],
//!     vec![2.0, 1.0, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0],
//!     vec![9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 1.0],
//! ])
//! .unwrap();
//! let sketch = SketchSet::build(&collection, 4).unwrap();
//!
//! // An unaligned query window (indices 1..=6) — the plan re-sketches the
//! // partial head/tail and reuses the sketched interior.
//! let query = QueryWindow::new(6, 6).unwrap();
//! let plan = QueryPlan::build(&collection, &sketch, query).unwrap();
//!
//! // Row 0 of the packed triangle: pairs (0, 1) and (0, 2).
//! let view = sketch.window_corrs_view(plan.full_windows());
//! let mut row = [0.0; 2];
//! plan.block_kernel(0, 1, view, 0, &mut PartialCorrs::default(), &mut row);
//! let reference = exact::pair_correlation(&collection, &sketch, query, 0, 1).unwrap();
//! assert!((row[0] - reference).abs() <= 1e-10);
//! ```

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::sketch::{pair_index, SketchSet};
use crate::stats::{
    clamp_corr, normalize_each, packed_corr_rows_into, packed_lane_mut, packed_len, WindowStats,
    TILE_ROWS,
};
use crate::timeseries::{SeriesCollection, SeriesId};
use crate::window::{QueryWindow, WindowSpan};

/// A flat, per-query-window table of combined per-series statistics: the
/// precomputed half of the Lemma 1 recombination, shared by all pairs.
///
/// Built with [`QueryPlan::build`] (arbitrary query windows, needs raw data
/// for partial head/tail) or [`QueryPlan::from_window_stats`] (sketch-only,
/// for windows aligned to basic-window boundaries, from the statistics any
/// source serves — see [`crate::source::SourcePlan`]). See the [module
/// documentation](crate::plan) for the layout and an example.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Number of series covered.
    n: usize,
    /// Number of plan windows (`head? + full + tail?`).
    w: usize,
    /// The range of full basic-window indices into the sketch.
    full: Range<usize>,
    /// Raw span of the partial head window, if the query start is unaligned.
    head: Option<WindowSpan>,
    /// Raw span of the partial tail window, if the query end is unaligned.
    tail: Option<WindowSpan>,
    /// Window lengths `B_k` (shared by all series), one per plan window.
    lens: Vec<f64>,
    /// Total raw points covered (`T = Σ B_k`).
    total: f64,
    /// Length-weighted query-window mean per series.
    means: Vec<f64>,
    /// Denominator `Σ_k B_k (σ² + δ²)` per series (`T ·` population variance).
    dens: Vec<f64>,
    /// `σ` per plan window per series, window-major (`stds_t[k·n + i]`): a
    /// tile of pairs `(i, j0..)` of [`QueryPlan::block_kernel`] reads `σ_j` of
    /// one window as a contiguous slice.
    stds_t: Vec<f64>,
    /// `δ = mean_k − x̄_i` per plan window per series, window-major like
    /// `stds_t`.
    deltas_t: Vec<f64>,
    /// Z-normalized partial-head values in the window kernel's packed panel
    /// layout ([`packed_len`]`(n, head_len)`; empty when aligned): the block
    /// the head's correlation row is minted from, a few triangle rows at a
    /// time ([`PartialCorrs`]).
    head_z: Vec<f64>,
    /// Z-normalized partial-tail values, packed like `head_z`.
    tail_z: Vec<f64>,
}

impl QueryPlan {
    /// Build the plan for an arbitrary query window: interior basic windows
    /// come from `sketch`; the statistics of a partial head/tail window are
    /// computed from the raw data in `collection`, and its z-scores go
    /// straight into the packed block [`QueryPlan::block_kernel`] mints the
    /// window's correlations from.
    ///
    /// A `collection` of another series count than `sketch` is an
    /// [`Error::SketchMismatch`]: the plan would address the sketch's packed
    /// pair rows with the wrong stride.
    pub fn build(
        collection: &SeriesCollection,
        sketch: &SketchSet,
        query: QueryWindow,
    ) -> Result<Self> {
        query.validate(collection.series_len())?;
        let n = collection.len();
        if n != sketch.series_count() {
            return Err(Error::SketchMismatch {
                requested: format!("a plan over a collection of {n} series"),
                available: format!("a sketch of {} series", sketch.series_count()),
            });
        }
        let seg = sketch.windowing().segment(query);
        if seg.full.end > sketch.window_count() {
            return Err(Error::SketchMismatch {
                requested: format!("basic windows up to {}", seg.full.end),
                available: format!("{} sketched windows", sketch.window_count()),
            });
        }
        let w = seg.full_count() + seg.head.is_some() as usize + seg.tail.is_some() as usize;

        let mut plan = Self::empty(n, w, seg.full.clone(), seg.head, seg.tail);
        // The partial windows' statistics of every series, their z-scores
        // packed as they go; the interior rows are the sketch's own.
        let partial = |span: Option<WindowSpan>, z: &mut Vec<f64>| {
            span.map(|span| {
                *z = vec![0.0; packed_len(n, span.len())];
                collection
                    .iter_with_ids()
                    .map(|(i, series)| sketch_partial(span, series.values(), i, z))
                    .collect::<Vec<_>>()
            })
        };
        let head = partial(seg.head, &mut plan.head_z);
        let tail = partial(seg.tail, &mut plan.tail_z);
        let stats = sketch.stats_rows();
        let rows: Vec<&[WindowStats]> = head
            .as_deref()
            .into_iter()
            .chain(seg.full.clone().map(|k| stats.row(k)))
            .chain(tail.as_deref())
            .collect();
        plan.fold_windows(|k| rows[k].iter());
        plan.finalize()
    }

    /// Build an aligned plan from per-series window statistics that were read
    /// back from a sketch store (`stats[i][k]` is the `k`-th window of series
    /// `i`). This is the constructor the parallel disk engine uses: the store
    /// already served the statistics, so no [`SketchSet`] exists in memory.
    pub fn from_window_stats(stats: &[Vec<WindowStats>]) -> Result<Self> {
        let n = stats.len();
        let w = stats.first().map_or(0, |row| row.len());
        if n == 0 || w == 0 {
            return Err(Error::EmptyInput("window statistics for a query plan"));
        }
        if let Some(bad) = stats.iter().find(|row| row.len() != w) {
            return Err(Error::SketchMismatch {
                requested: format!("{w} windows per series"),
                available: format!("{} windows", bad.len()),
            });
        }
        let mut plan = Self::empty(n, w, 0..w, None, None);
        plan.fold_windows(|k| stats.iter().map(move |row| &row[k]));
        plan.finalize()
    }

    fn empty(
        n: usize,
        w: usize,
        full: Range<usize>,
        head: Option<WindowSpan>,
        tail: Option<WindowSpan>,
    ) -> Self {
        Self {
            n,
            w,
            full,
            head,
            tail,
            lens: Vec::new(),
            total: 0.0,
            means: Vec::new(),
            dens: Vec::new(),
            stds_t: Vec::new(),
            deltas_t: Vec::new(),
            head_z: Vec::new(),
            tail_z: Vec::new(),
        }
    }

    /// Fold the plan windows' statistics into the flat tables, one window at
    /// a time: `window(k)` yields plan window `k`'s statistics of every
    /// series, in series order.
    ///
    /// Per series the arithmetic mirrors [`crate::exact::combine`] operation
    /// for operation (`T` and the weighted mean summed in window order from
    /// [`Iterator::sum`]'s start, the same accumulation expression and order
    /// for the denominator) so the kernel stays bit-identical to the
    /// reference path.
    fn fold_windows<'a, I>(&mut self, window: impl Fn(usize) -> I)
    where
        I: Iterator<Item = &'a WindowStats>,
    {
        let (n, w) = (self.n, self.w);
        self.lens = (0..w)
            .map(|k| window(k).next().map_or(0.0, |s| s.len as f64))
            .collect();
        self.total = self.lens.iter().sum();
        let start: f64 = std::iter::empty::<f64>().sum();
        let mut means = vec![start; n];
        for k in 0..w {
            for (mean, s) in means.iter_mut().zip(window(k)) {
                *mean += s.len as f64 * s.mean;
            }
        }
        means.iter_mut().for_each(|mean| *mean /= self.total);
        let mut dens = vec![0.0; n];
        // Window-major, so the `σ` / `δ` tables are written in order.
        self.stds_t = Vec::with_capacity(n * w);
        self.deltas_t = Vec::with_capacity(n * w);
        for k in 0..w {
            for ((&mean, den), s) in means.iter().zip(&mut dens).zip(window(k)) {
                let b = s.len as f64;
                let d = s.mean - mean;
                self.stds_t.push(s.std);
                self.deltas_t.push(d);
                *den += b * (s.std * s.std + d * d);
            }
        }
        self.means = means;
        self.dens = dens;
    }

    fn finalize(self) -> Result<Self> {
        if self.total == 0.0 {
            return Err(Error::DegenerateWindow { points: 0 });
        }
        Ok(self)
    }

    /// Number of series covered by the plan.
    pub fn series_count(&self) -> usize {
        self.n
    }

    /// Number of plan windows (partial head/tail included).
    pub fn window_count(&self) -> usize {
        self.w
    }

    /// The range of full basic-window indices the plan covers in the sketch.
    pub fn full_windows(&self) -> Range<usize> {
        self.full.clone()
    }

    /// True when the query aligns with basic-window boundaries (no partial
    /// head or tail) — the case where the kernel never touches raw data.
    pub fn is_aligned(&self) -> bool {
        self.head.is_none() && self.tail.is_none()
    }

    /// Total raw points covered by the query window (`T`).
    pub fn total_len(&self) -> f64 {
        self.total
    }

    /// Length-weighted query-window mean of series `i`.
    pub fn mean(&self, i: SeriesId) -> f64 {
        self.means[i]
    }

    /// `T ·` population variance of series `i` over the query window — the
    /// Lemma 1 denominator `Σ_k B_k (σ² + δ²)`.
    pub fn denominator(&self, i: SeriesId) -> f64 {
        self.dens[i]
    }

    /// True when series `i` is constant over the query window (its Lemma 1
    /// denominator is non-positive), i.e. the pair correlations involving it
    /// are degenerate.
    pub fn is_degenerate(&self, i: SeriesId) -> bool {
        self.dens[i] <= 0.0
    }

    /// Per-series Cauchy–Schwarz split of the Lemma 1 numerator: for series
    /// `i`, `s_i = √(Σ_k B_k σ_ik² / den_i)` and
    /// `t_i = √(Σ_k B_k δ_ik² / den_i)` (so `s_i² + t_i² = 1`). Because every
    /// per-window correlation is ≤ 1,
    /// `corr(i,j) ≤ s_i s_j + t_i t_j` — the per-tile upper bound behind
    /// `sweep_run`'s Equation 4 tile pruning (see [`crate::sweep`]). Degenerate
    /// series get `(0, 0)`, matching their `corr = 0` convention.
    pub(crate) fn bound_components(&self) -> (Vec<f64>, Vec<f64>) {
        let mut s = Vec::with_capacity(self.n);
        let mut t = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let den = self.dens[i];
            if den <= 0.0 {
                s.push(0.0);
                t.push(0.0);
                continue;
            }
            let mut ss = 0.0;
            let mut tt = 0.0;
            for k in 0..self.w {
                let b = self.lens[k];
                let sd = self.stds_t[k * self.n + i];
                let dl = self.deltas_t[k * self.n + i];
                ss += b * sd * sd;
                tt += b * dl * dl;
            }
            s.push((ss / den).sqrt());
            t.push((tt / den).sqrt());
        }
        (s, t)
    }

    /// The tiled batch kernel: correlations of the contiguous pair tile
    /// `(i, j0), (i, j0+1), …, (i, j0+out.len()−1)` written into `out`.
    ///
    /// `corrs` is a window-major view of the per-pair sketch correlations
    /// covering exactly the plan's full windows
    /// ([`CorrView::window_count`] `==` [`QueryPlan::full_windows`]`.len()`) —
    /// lent zero-copy by the backend
    /// ([`SketchSet::window_corrs_view`], a mapped pile's rows) — and
    /// `pair_offset` locates pair `(i, j0)` inside its pair dimension.
    /// Because the tile shares `i`, the inner loop streams four contiguous
    /// arrays (`σ_j`, `δ_j`, `c_k`, `out`) with an independent accumulator
    /// per pair — no reduction chain, so the backend can vectorize across
    /// the tile.
    ///
    /// A partial head or tail window is one more plan window whose `c` row
    /// is not stored: the first tile evaluated in an aligned group of four
    /// triangle rows (the window kernel's register tile) mints the group's head
    /// and tail `c` into `partial`, with the kernel behind
    /// [`crate::stats::window_corrs_into`] over the plan's packed z-scores,
    /// and every tile of the group reads its slice of them. `partial` is the
    /// caller's, one per run of tiles over this plan ([`PartialCorrs`]); an
    /// aligned plan never touches it.
    ///
    /// A pair's numerator accumulates the `w` plan windows in plan order
    /// (`[head?, full…, tail?]`, like [`crate::exact::combine`]) from `0.0`,
    /// whatever tile or run the pair falls in. A partial window's `c` is the
    /// kernel's serial `clamp_corr(Σ_t z_i[t]·z_j[t] · (1/len))` where the
    /// scalar reference centers raw values per pair, so agreement with it is
    /// a *tolerance* contract — ≤ `1e-10` absolute, pinned by the
    /// `tiled_kernel_agreement` suite — not bit-equality. Degenerate
    /// (constant-series) pairs yield `0.0` as everywhere else.
    ///
    /// # Panics
    ///
    /// Panics when the tile exceeds the series range (`j0 ≤ i` or
    /// `j0 + out.len() > n`) or when `corrs` does not cover the plan's full
    /// windows — programming errors that would silently produce wrong tiles.
    pub fn block_kernel(
        &self,
        i: SeriesId,
        j0: SeriesId,
        corrs: CorrView<'_>,
        pair_offset: usize,
        partial: &mut PartialCorrs,
        out: &mut [f64],
    ) {
        let np = out.len();
        let n = self.n;
        assert!(
            i < j0 && j0 + np <= n,
            "block_kernel tile ({i}, {j0}..{}) out of range for {n} series",
            j0 + np
        );
        assert_eq!(
            corrs.window_count(),
            self.full.len(),
            "block_kernel needs one transposed correlation row per full plan window"
        );
        let in_group = if self.is_aligned() {
            0
        } else {
            let group = partial.mint_group_of(self, i);
            pair_index(i, j0, n) - pair_index(group, group + 1, n)
        };
        let head_off = usize::from(self.head.is_some());
        out.fill(0.0);

        // Everything the tile touches is contiguous.
        for k in 0..self.w {
            let lk = self.lens[k];
            let si = self.stds_t[k * n + i];
            let di = self.deltas_t[k * n + i];
            let st = &self.stds_t[k * n + j0..k * n + j0 + np];
            let dt = &self.deltas_t[k * n + j0..k * n + j0 + np];
            let c = if k < head_off {
                &partial.head[in_group..in_group + np]
            } else if k < head_off + self.full.len() {
                &corrs.window_row(k - head_off)[pair_offset..pair_offset + np]
            } else {
                &partial.tail[in_group..in_group + np]
            };
            for p in 0..np {
                out[p] += lk * (si * st[p] * c[p] + di * dt[p]);
            }
        }

        // Normalize and clamp; degenerate pairs keep the 0.0 convention.
        let den_i = self.dens[i];
        for (p, slot) in out.iter_mut().enumerate() {
            let den_j = self.dens[j0 + p];
            *slot = if den_i <= 0.0 || den_j <= 0.0 {
                0.0
            } else {
                clamp_corr(*slot / (den_i.sqrt() * den_j.sqrt()))
            };
        }
    }
}

/// Statistics of series `i` over the partial window `span` of its `values`,
/// the window's z-scores written to lane `i` of the packed block `z`.
fn sketch_partial(span: WindowSpan, values: &[f64], i: SeriesId, z: &mut [f64]) -> WindowStats {
    let points = span.slice(values);
    let stats = WindowStats::from_values(points);
    normalize_each(points, &stats, packed_lane_mut(z, i, span.len()));
    stats
}

/// The scratch of [`QueryPlan::block_kernel`] for unaligned plans: the
/// correlation rows of the partial head and tail windows over one aligned
/// group of four triangle rows, in packed order from the group's first row —
/// at most `2 · 4 · (n − 1)` values, allocated at the first mint.
///
/// Whoever drives tiles owns one per run (each run of
/// [`crate::sweep::sweep_run`] and of [`crate::sweep::fill_packed`]) and
/// passes it to every `block_kernel` call of the run. The kernel re-mints it
/// when a tile's row lies outside the minted group, so a run in row order
/// mints each group it evaluates once and a group whose tiles are all pruned
/// never. It remembers the group, not the
/// plan: use a fresh one ([`Default`], which allocates nothing) per plan.
#[derive(Debug, Default)]
pub struct PartialCorrs {
    /// First triangle row of the minted group.
    group: Option<usize>,
    head: Vec<f64>,
    tail: Vec<f64>,
}

impl PartialCorrs {
    /// Make the minted group the one containing triangle row `i` of `plan`;
    /// returns the group's first row.
    fn mint_group_of(&mut self, plan: &QueryPlan, i: SeriesId) -> usize {
        let group = i / TILE_ROWS * TILE_ROWS;
        if self.group == Some(group) {
            return group;
        }
        let n = plan.n;
        let rows = group..(group + TILE_ROWS).min(n);
        for (span, z, c) in [
            (plan.head, &plan.head_z, &mut self.head),
            (plan.tail, &plan.tail_z, &mut self.tail),
        ] {
            if let Some(span) = span {
                c.resize(TILE_ROWS * (n - 1), 0.0);
                packed_corr_rows_into(z, n, span.len(), rows.clone(), c);
            }
        }
        self.group = Some(group);
        group
    }
}

/// A borrowed window-major view of per-pair per-window correlations:
/// `row k` holds `c_k` of every covered pair, contiguous in packed pair
/// order.
///
/// A tile of pairs reads one contiguous run of each row, which is what
/// [`QueryPlan::block_kernel`] streams. Only a *row* has to be contiguous:
/// the view addresses window rows, so the table behind it is either one slab
/// (a sweep's scratch tile) or one slice per row —
/// the shared rows of an in-memory sketch ([`WindowRows`], borrowed by
/// [`SketchSet::window_corrs_view`]: the built history in one block, every
/// arriving window in its own) or rows borrowed from a mapped pile, wherever
/// its segments put them. Rows are immutable once appended, so no backend
/// copies or gathers anything to hand out a view, and one pair's per-window
/// values (a [`crate::sketch::PairSketch`]) are a strided column of it.
#[derive(Debug, Clone, Copy)]
pub struct CorrView<'a> {
    pairs: usize,
    windows: usize,
    rows: Rows<'a>,
}

/// Where the rows of a [`CorrView`] live.
#[derive(Debug, Clone, Copy)]
enum Rows<'a> {
    /// One contiguous slab: `data[k · pairs + p]` is window `k` of pair `p`.
    Slab(&'a [f64]),
    /// One borrowed slice per window.
    Borrowed(&'a [&'a [f64]]),
    /// One shared row per window.
    Shared(&'a [SharedRow<f64>]),
}

impl<'a> CorrView<'a> {
    /// Wrap a window-major buffer of `windows` rows of `pairs` correlations.
    ///
    /// # Panics
    ///
    /// Panics when the buffer length does not match `pairs · windows`.
    pub fn new(data: &'a [f64], pairs: usize, windows: usize) -> Self {
        assert_eq!(
            data.len(),
            pairs * windows,
            "window-major corr buffer has the wrong shape"
        );
        Self {
            pairs,
            windows,
            rows: Rows::Slab(data),
        }
    }

    /// View one borrowed slice of `pairs` correlations per window.
    ///
    /// # Panics
    ///
    /// Panics when a row does not hold exactly `pairs` values.
    pub(crate) fn from_rows(rows: &'a [&'a [f64]], pairs: usize) -> Self {
        assert!(
            rows.iter().all(|row| row.len() == pairs),
            "window rows have the wrong width"
        );
        Self {
            pairs,
            windows: rows.len(),
            rows: Rows::Borrowed(rows),
        }
    }

    /// Number of pairs covered.
    pub fn pair_count(&self) -> usize {
        self.pairs
    }

    /// Number of windows covered.
    pub fn window_count(&self) -> usize {
        self.windows
    }

    /// The contiguous correlations of all pairs in window `k`.
    pub fn window_row(&self, k: usize) -> &'a [f64] {
        match self.rows {
            Rows::Slab(data) => &data[k * self.pairs..(k + 1) * self.pairs],
            Rows::Borrowed(rows) => rows[k],
            Rows::Shared(rows) => rows[k].values(),
        }
    }

    /// The values of pair `p` in every covered window, oldest first: a
    /// strided read of column `p`, one element per row.
    pub fn pair_column(&self, p: usize) -> impl Iterator<Item = f64> + 'a {
        let view = *self;
        (0..view.windows).map(move |k| view.window_row(k)[p])
    }
}

/// One window's row of a [`WindowRows`] table: a span of a block of values
/// that is immutable from the moment it is shared.
#[derive(Clone)]
struct SharedRow<T> {
    block: Arc<Vec<T>>,
    span: Range<usize>,
}

impl<T> SharedRow<T> {
    fn values(&self) -> &[T] {
        &self.block[self.span.clone()]
    }
}

impl<T: PartialEq> PartialEq for SharedRow<T> {
    fn eq(&self, other: &Self) -> bool {
        self.values() == other.values()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SharedRow<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.values().fmt(f)
    }
}

/// A window-major table of shared immutable rows — the live window store:
/// pair rows (`c` or `ĉ` in packed order) as `WindowRows<f64>`, per-series
/// statistics as `WindowRows<WindowStats>`.
///
/// The table takes ownership of the buffers it is given, whole
/// ([`WindowRows::from_flat`]: every row of a built sketch lies in the one
/// block the sketching pass wrote) or one arriving row at a time
/// ([`WindowRows::push`]), and never writes to them again. So a clone shares
/// every row it holds and copies no value, a cut to a range of windows
/// ([`WindowRows::range`]) shares every row whose block lies inside the range
/// (and copies the others once, so it never keeps a longer table's block
/// alive), and appending a window adds that window's buffer alone. An epoch published as a clone of a live sketch therefore
/// costs `O(windows)` whatever `N`, and a block is freed when the last table
/// holding one of its rows goes (or lets it go, [`WindowRows::drop_oldest`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRows<T = f64> {
    width: usize,
    rows: Vec<SharedRow<T>>,
}

impl<T> WindowRows<T> {
    /// Take a window-major buffer (`flat[k · width + v]`) as the rows of
    /// `windows` windows, without copying it.
    ///
    /// # Panics
    ///
    /// Panics when the buffer length does not match `width · windows`.
    pub fn from_flat(flat: Vec<T>, width: usize, windows: usize) -> Self {
        assert_eq!(
            flat.len(),
            width * windows,
            "window-major buffer has the wrong shape"
        );
        let block = Arc::new(flat);
        let rows = (0..windows)
            .map(|k| SharedRow {
                block: Arc::clone(&block),
                span: k * width..(k + 1) * width,
            })
            .collect();
        Self { width, rows }
    }

    /// Append `row` as the next window, without copying it.
    ///
    /// # Panics
    ///
    /// Panics when `row` does not hold exactly `width` values.
    pub fn push(&mut self, row: Vec<T>) {
        assert_eq!(row.len(), self.width, "window row has the wrong width");
        self.rows.push(SharedRow {
            span: 0..row.len(),
            block: Arc::new(row),
        });
    }

    /// Let go of the oldest window's row; its buffer is freed once no table
    /// holds a row of it. When this table held the last handle to a buffer
    /// that is that row alone (a [`WindowRows::push`]ed row no clone
    /// shares), the buffer is handed back instead, for the caller to mint a
    /// later row into.
    pub fn drop_oldest(&mut self) -> Option<Vec<T>> {
        if self.rows.is_empty() {
            return None;
        }
        let SharedRow { block, span } = self.rows.remove(0);
        Arc::try_unwrap(block)
            .ok()
            .filter(|block| block.len() == span.len())
    }

    /// Number of windows held.
    pub fn window_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of values in every row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The values of window `k`.
    ///
    /// # Panics
    ///
    /// Panics when `k` is past the held windows.
    pub fn row(&self, k: usize) -> &[T] {
        self.rows[k].values()
    }
}

impl<T: Clone> WindowRows<T> {
    /// The rows of `windows` as a table of their own, which holds no value of
    /// a window outside `windows`: a row whose block lies wholly inside the
    /// range stays shared, and the rows whose block reaches outside it are
    /// copied, together, into one block of the table's own. A cut to the
    /// whole of a built table copies nothing; a cut into it copies its rows
    /// once, so the longer table's block is not kept alive by the cut.
    ///
    /// # Panics
    ///
    /// Panics when `windows` exceeds the held range.
    pub fn range(&self, windows: Range<usize>) -> Self {
        let rows = &self.rows[windows];
        let mut held: HashMap<*const Vec<T>, usize> = HashMap::new();
        for row in rows {
            *held.entry(Arc::as_ptr(&row.block)).or_default() += row.span.len();
        }
        let reaches_out = |row: &SharedRow<T>| held[&Arc::as_ptr(&row.block)] < row.block.len();
        let copied: Vec<T> = rows
            .iter()
            .filter(|row| reaches_out(row))
            .flat_map(|row| row.values().iter().cloned())
            .collect();
        let block = (!copied.is_empty()).then(|| Arc::new(copied));
        let mut next = 0..0;
        let rows = rows
            .iter()
            .map(|row| match &block {
                Some(block) if reaches_out(row) => {
                    next = next.end..next.end + row.span.len();
                    SharedRow {
                        block: Arc::clone(block),
                        span: next.clone(),
                    }
                }
                _ => row.clone(),
            })
            .collect();
        Self {
            width: self.width,
            rows,
        }
    }
}

impl WindowRows {
    /// Zero-copy view of the rows of `windows`.
    ///
    /// # Panics
    ///
    /// Panics when `windows` exceeds the stored range.
    pub fn view(&self, windows: Range<usize>) -> CorrView<'_> {
        CorrView {
            pairs: self.width,
            windows: windows.len(),
            rows: Rows::Shared(&self.rows[windows]),
        }
    }
}

/// Decompose a contiguous run of packed upper-triangle pair indices
/// (`start..start + count` in row-major order over `n` series) into
/// same-row segments `(i, j_start, len)` — the tiles
/// [`QueryPlan::block_kernel`] consumes. Both matrix sweeps and the disk
/// engine partition pairs into contiguous packed runs, so every partition is
/// a short list of these segments, allocated once at its length.
pub fn row_segments(start: usize, count: usize, n: usize) -> Vec<(usize, usize, usize)> {
    let first = match count {
        0 => (0, 0),
        _ => crate::sketch::unpack_pair_index(start, n),
    };
    let segments = || {
        let ((mut i, mut j), mut remaining) = (first, count);
        std::iter::from_fn(move || {
            (remaining > 0).then(|| {
                let take = (n - j).min(remaining);
                let segment = (i, j, take);
                remaining -= take;
                i += 1;
                j = i + 1;
                segment
            })
        })
    };
    let mut out = Vec::with_capacity(segments().count());
    out.extend(segments());
    out
}

/// Split `total` work items into `parts` contiguous runs whose sizes differ
/// by at most one — the partition policy shared by [`carve_for_workers`],
/// [`runs_for_workers`] and the parallel engine's `partition_pairs`.
/// `parts == 0` is clamped to 1.
pub fn even_sizes(total: usize, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    let base = total / parts;
    let remainder = total % parts;
    (0..parts)
        .map(|p| base + usize::from(p < remainder))
        .collect()
}

/// Carve a flat packed-triangle buffer into one disjoint contiguous mutable
/// slice per worker ([`even_sizes`], in order), each tagged with the packed
/// index of its first pair so the worker can recover `(i, j)` coordinates via
/// [`row_segments`].
///
/// This is the sharing primitive of the writing sweeps — the dense fill
/// ([`crate::sweep::fill_packed`]) and the sliding-network update: because
/// pair partitions are contiguous runs of the row-major packed upper
/// triangle, each worker owns one slice and writes its correlations without
/// synchronization or a merge step.
pub fn carve_for_workers(mut values: &mut [f64], workers: usize) -> Vec<(usize, &mut [f64])> {
    let mut start = 0;
    let mut out = Vec::new();
    for size in even_sizes(values.len(), workers) {
        let (chunk, rest) = std::mem::take(&mut values).split_at_mut(size);
        out.push((start, chunk));
        start += size;
        values = rest;
    }
    out
}

/// The read-only twin of [`carve_for_workers`], for sweeps that write no
/// packed buffer: the non-empty contiguous ascending runs of `0..total`, one
/// per worker ([`even_sizes`]).
pub fn runs_for_workers(total: usize, workers: usize) -> Vec<Range<usize>> {
    let mut start = 0;
    even_sizes(total, workers)
        .into_iter()
        .filter(|&size| size > 0)
        .map(|size| {
            let run = start..start + size;
            start = run.end;
            run
        })
        .collect()
}

/// Which recombination a cached plan evaluates: the exact Lemma 1 kernel
/// ([`QueryPlan`]) or the approximate Equation 5 kernel (`ApproxPlan` in
/// `tsubasa-dft`). Part of [`PlanKey`], the cache identity of a built plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlanMethod {
    /// Exact Lemma 1 recombination over per-window Pearson correlations.
    Exact,
    /// Approximate Equation 5 recombination over DFT coefficient distances.
    Approximate,
}

/// The cache identity of a built per-query plan: which immutable sketch
/// snapshot it was built against (the *epoch*), which aligned basic-window
/// range it covers, and which recombination method it evaluates.
///
/// Plans are pure functions of these three coordinates — a plan built twice
/// from the same epoch's sketch over the same windows is bit-identical — so a
/// `(PlanKey → plan)` cache can serve repeated query windows without paying
/// the `O(n·ns)` table build, as long as epochs are published immutably
/// (append-only snapshots, never edited in place). `tsubasa-serve`'s plan
/// cache keys on exactly this type; it lives here so any caching layer
/// agrees on the identity of a plan.
///
/// ```
/// use std::collections::HashMap;
/// use tsubasa_core::plan::{PlanKey, PlanMethod};
///
/// let key = PlanKey::new(3, 2..8, PlanMethod::Exact);
/// let mut cache: HashMap<PlanKey, &str> = HashMap::new();
/// cache.insert(key, "a built plan");
/// assert_eq!(cache.get(&PlanKey::new(3, 2..8, PlanMethod::Exact)), Some(&"a built plan"));
/// assert_eq!(cache.get(&PlanKey::new(4, 2..8, PlanMethod::Exact)), None); // other epoch
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanKey {
    /// Id of the immutable sketch snapshot (epoch) the plan reads.
    pub epoch: u64,
    /// Start of the aligned basic-window range the plan covers.
    pub window_start: usize,
    /// End (exclusive) of the aligned basic-window range.
    pub window_end: usize,
    /// Which recombination the plan evaluates.
    pub method: PlanMethod,
}

impl PlanKey {
    /// Key for a plan over `windows` of epoch `epoch` using `method`.
    pub fn new(epoch: u64, windows: Range<usize>, method: PlanMethod) -> Self {
        Self {
            epoch,
            window_start: windows.start,
            window_end: windows.end,
            method,
        }
    }

    /// The aligned basic-window range this key covers.
    pub fn windows(&self) -> Range<usize> {
        self.window_start..self.window_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;

    fn lcg_series(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let noise = (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0;
                (i as f64 * 0.13).sin() * 2.0 + noise
            })
            .collect()
    }

    fn test_collection(n: usize, len: usize) -> SeriesCollection {
        SeriesCollection::from_rows((0..n).map(|s| lcg_series(s as u64 + 1, len)).collect())
            .unwrap()
    }

    /// The packed triangle as [`QueryPlan::block_kernel`] writes it, one
    /// whole row per tile, one scratch for the plan.
    fn kernel_triangle(plan: &QueryPlan, sketch: &SketchSet) -> Vec<f64> {
        let (n, view) = (plan.n, sketch.window_corrs_view(plan.full_windows()));
        let mut partial = PartialCorrs::default();
        let mut out = vec![f64::NAN; n * (n - 1) / 2];
        for i in 0..n - 1 {
            let p0 = pair_index(i, i + 1, n);
            plan.block_kernel(
                i,
                i + 1,
                view,
                p0,
                &mut partial,
                &mut out[p0..p0 + n - 1 - i],
            );
        }
        out
    }

    fn assert_same_tables(a: &QueryPlan, b: &QueryPlan) {
        assert_eq!((a.n, a.w, &a.lens, a.total), (b.n, b.w, &b.lens, b.total));
        assert_eq!((&a.means, &a.dens), (&b.means, &b.dens));
        assert_eq!((&a.stds_t, &a.deltas_t), (&b.stds_t, &b.deltas_t));
    }

    #[test]
    fn window_fold_is_the_series_major_arithmetic_bit_for_bit() {
        // Windows of two lengths (a partial head's and full ones), means of
        // both signs, and a series whose every mean is −0.0: its weighted
        // mean is −0.0 only when the fold starts where `Iterator::sum` does.
        let lens = [7usize, 20, 20, 20, 13];
        let stats: Vec<Vec<WindowStats>> = (0..6)
            .map(|i| {
                lens.iter()
                    .enumerate()
                    .map(|(k, &len)| WindowStats {
                        len,
                        mean: if i == 5 {
                            -0.0
                        } else {
                            ((i * 7 + k * 3) as f64 * 0.61).sin() * 1e3
                        },
                        std: ((i + k) % 3) as f64 * 0.37,
                    })
                    .collect()
            })
            .collect();
        let plan = QueryPlan::from_window_stats(&stats).unwrap();
        let n = stats.len();
        for (i, row) in stats.iter().enumerate() {
            let total: f64 = row.iter().map(|s| s.len as f64).sum();
            let mean = row.iter().map(|s| s.len as f64 * s.mean).sum::<f64>() / total;
            let mut den = 0.0;
            for (k, s) in row.iter().enumerate() {
                let d = s.mean - mean;
                assert_eq!(plan.stds_t[k * n + i].to_bits(), s.std.to_bits());
                assert_eq!(plan.deltas_t[k * n + i].to_bits(), d.to_bits());
                den += s.len as f64 * (s.std * s.std + d * d);
            }
            assert_eq!(plan.total_len().to_bits(), total.to_bits());
            assert_eq!(plan.mean(i).to_bits(), mean.to_bits(), "series {i}");
            assert_eq!(plan.denominator(i).to_bits(), den.to_bits(), "series {i}");
        }
        assert!(plan.mean(5).is_sign_negative());
    }

    #[test]
    fn a_range_shares_whole_blocks_and_copies_the_rest() {
        let shares = |a: &WindowRows, k: usize, b: &WindowRows, l: usize| {
            Arc::ptr_eq(&a.rows[k].block, &b.rows[l].block)
        };
        let mut rows = WindowRows::from_flat((0..12).map(f64::from).collect(), 2, 6);
        rows.push(vec![12.0, 13.0]);
        rows.push(vec![14.0, 15.0]);

        // The whole built block and the pushed rows: every row shared.
        let whole = rows.range(0..8);
        assert_eq!(whole, rows);
        assert!((0..8).all(|k| shares(&whole, k, &rows, k)));

        // Rows 4 and 5 of the built block are copied into one block of their
        // own; the pushed rows stay shared.
        let cut = rows.range(4..8);
        assert_eq!(
            cut,
            WindowRows::from_flat((8..16).map(f64::from).collect(), 2, 4)
        );
        assert!(!shares(&cut, 0, &rows, 4) && !shares(&cut, 1, &rows, 5));
        assert!(shares(&cut, 0, &cut, 1) && cut.rows[0].block.len() == 4);
        assert!(shares(&cut, 2, &rows, 6) && shares(&cut, 3, &rows, 7));

        // A cut of the cut: the copied block lies wholly inside 0..2.
        let again = cut.range(0..2);
        assert!(shares(&again, 0, &cut, 0) && shares(&again, 1, &cut, 1));
        let straddle = cut.range(1..3);
        assert_eq!(straddle.row(0), &[10.0, 11.0]);
        assert!(!shares(&straddle, 0, &cut, 1) && shares(&straddle, 1, &rows, 6));
        assert_eq!(straddle.rows[0].block.len(), 2);
    }

    #[test]
    fn plan_matches_reference_path_bitwise_aligned() {
        let c = test_collection(6, 180);
        let sketch = SketchSet::build(&c, 20).unwrap();
        let query = QueryWindow::new(159, 140).unwrap(); // windows 1..8
        let plan = QueryPlan::build(&c, &sketch, query).unwrap();
        assert!(plan.is_aligned());
        let got = kernel_triangle(&plan, &sketch);
        for (p, (i, j)) in c.pairs().enumerate() {
            let reference = exact::pair_correlation(&c, &sketch, query, i, j).unwrap();
            assert_eq!(got[p].to_bits(), reference.to_bits(), "pair ({i},{j})");
        }
    }

    #[test]
    fn aligned_builder_matches_general_builder() {
        // The sketch-only plan of an aligned range (through the source's
        // statistics) is the general plan of the same query window.
        let c = test_collection(4, 120);
        let sketch = SketchSet::build(&c, 20).unwrap();
        let query = QueryWindow::new(119, 80).unwrap(); // windows 2..6
        let from_query = QueryPlan::build(&c, &sketch, query).unwrap();
        let source = crate::source::SourcePlan::new(&sketch, 2..6, PlanMethod::Exact).unwrap();
        assert_same_tables(source.query_plan(), &from_query);
        let (m, _) = source
            .correlation_matrix(&crate::runner::SerialRunner)
            .unwrap();
        let b = exact::pair_correlation(&c, &sketch, query, 0, 3).unwrap();
        assert_eq!(m.get(0, 3).to_bits(), b.to_bits());
    }

    #[test]
    fn from_window_stats_matches_aligned_builder() {
        let c = test_collection(3, 100);
        let sketch = SketchSet::build(&c, 10).unwrap();
        let stats: Vec<Vec<WindowStats>> = (0..3)
            .map(|i| {
                (2..8)
                    .map(|k| sketch.series_sketch(i).unwrap().window(k))
                    .collect()
            })
            .collect();
        let from_stats = QueryPlan::from_window_stats(&stats).unwrap();
        let query = QueryWindow::new(79, 60).unwrap(); // windows 2..8
        let aligned = QueryPlan::build(&c, &sketch, query).unwrap();
        // `full` ranges differ (store plans are 0-based) but the numeric
        // tables must agree.
        assert_same_tables(&from_stats, &aligned);
    }

    #[test]
    fn accessors_expose_window_shape() {
        let c = test_collection(3, 100);
        let sketch = SketchSet::build(&c, 10).unwrap();
        let query = QueryWindow::new(97, 93).unwrap(); // head 5..10, tail 90..98
        let plan = QueryPlan::build(&c, &sketch, query).unwrap();
        assert_eq!(plan.series_count(), 3);
        assert_eq!(plan.full_windows(), 1..9);
        assert_eq!(plan.window_count(), 8 + 2);
        assert_eq!(plan.total_len(), 93.0);
        assert!(!plan.is_degenerate(0));
    }

    #[test]
    fn degenerate_series_yield_zero_pairs() {
        let c = SeriesCollection::from_rows(vec![vec![5.0; 60], lcg_series(1, 60)]).unwrap();
        let sketch = SketchSet::build(&c, 10).unwrap();
        let query = QueryWindow::new(49, 40).unwrap(); // windows 1..5
        let plan = QueryPlan::build(&c, &sketch, query).unwrap();
        assert!(plan.is_degenerate(0));
        assert!(!plan.is_degenerate(1));
        assert_eq!(kernel_triangle(&plan, &sketch), vec![0.0]);
    }

    #[test]
    fn carve_for_workers_covers_disjoint_ranges() {
        let mut values = vec![0.0; 10];
        let chunks = carve_for_workers(&mut values, 3);
        assert_eq!(
            chunks
                .iter()
                .map(|(start, c)| (*start, c.len()))
                .collect::<Vec<_>>(),
            vec![(0, 4), (4, 3), (7, 3)]
        );
        for (w, (_, chunk)) in chunks.into_iter().enumerate() {
            chunk.fill(w as f64);
        }
        assert_eq!(
            values,
            vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        );
        // More workers than values: the surplus slices are empty.
        let mut few = vec![0.0; 2];
        let sizes: Vec<usize> = carve_for_workers(&mut few, 4)
            .iter()
            .map(|(_, c)| c.len())
            .collect();
        assert_eq!(sizes, vec![1, 1, 0, 0]);
    }

    #[test]
    fn block_kernel_matches_scalar_kernel_unaligned() {
        let c = test_collection(5, 200);
        let sketch = SketchSet::build(&c, 30).unwrap();
        // Head and tail both partial: indices 37..=171.
        let query = QueryWindow::new(171, 135).unwrap();
        let plan = QueryPlan::build(&c, &sketch, query).unwrap();
        assert!(!plan.is_aligned());
        let got = kernel_triangle(&plan, &sketch);
        for (p, (i, j)) in c.pairs().enumerate() {
            let reference = exact::pair_correlation(&c, &sketch, query, i, j).unwrap();
            assert!(
                (got[p] - reference).abs() <= 1e-10,
                "pair ({i},{j}): {} vs {reference}",
                got[p]
            );
        }
    }

    /// What [`QueryPlan::block_kernel`] must write for pair `(i, j)`, spelled
    /// one pair at a time: each partial-window `c` the serial fused fold
    /// `clamp_corr(Σ_t z_i[t]·z_j[t] · (1/len))` over the window's z-scores,
    /// the plan windows accumulated in plan order.
    fn scalar_block(
        plan: &QueryPlan,
        c: &SeriesCollection,
        view: CorrView<'_>,
        i: usize,
        j: usize,
    ) -> f64 {
        let n = plan.n;
        let partial_corr = |span: WindowSpan| {
            let z = |s: usize| {
                let points = span.slice(c.get(s).unwrap().values());
                let mut z = vec![9.0; points.len()];
                normalize_each(points, &WindowStats::from_values(points), z.iter_mut());
                z
            };
            let sum = z(i)
                .iter()
                .zip(&z(j))
                .fold(0.0, |sum, (x, y)| x.mul_add(*y, sum));
            clamp_corr(sum * (1.0 / span.len() as f64))
        };
        let corrs = (plan.head.map(partial_corr).into_iter())
            .chain(view.pair_column(pair_index(i, j, n)))
            .chain(plan.tail.map(partial_corr));
        let mut num = 0.0;
        for (k, ck) in corrs.enumerate() {
            let (si, sj) = (plan.stds_t[k * n + i], plan.stds_t[k * n + j]);
            let (di, dj) = (plan.deltas_t[k * n + i], plan.deltas_t[k * n + j]);
            num += plan.lens[k] * (si * sj * ck + di * dj);
        }
        if plan.dens[i] <= 0.0 || plan.dens[j] <= 0.0 {
            return 0.0;
        }
        clamp_corr(num / (plan.dens[i].sqrt() * plan.dens[j].sqrt()))
    }

    /// Copies every tile to its place in the packed triangle.
    struct Collect(Vec<f64>);

    impl crate::sweep::TileSink for Collect {
        fn consume(&mut self, _i: usize, _j0: usize, pair0: usize, corrs: &[f64]) {
            self.0[pair0..pair0 + corrs.len()].copy_from_slice(corrs);
        }
    }

    #[test]
    fn partial_windows_are_position_independent_bit_for_bit() {
        const B: usize = 12;
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Partial lengths around the panel width, the shortest (one point: a
        // constant window) and the longest; then a tail only, a head only
        // and a query inside one basic window.
        let lengths = [1usize, 2, 7, 8, 9, B - 1];
        let mut shapes: Vec<(usize, usize)> = lengths
            .iter()
            .flat_map(|&head| lengths.map(|tail| (B - head, 4 * B + tail)))
            .collect();
        shapes.extend([(B, 4 * B + 7), (B - 7, 4 * B), (B + 1, 2 * B - 3)]);

        for n in [2usize, 3, 5, 8, 9, 17, 33] {
            let mut rows: Vec<Vec<f64>> = (0..n).map(|s| lcg_series(s as u64 + 1, 5 * B)).collect();
            // Constant over every head but nowhere else; +∞ inside every tail.
            rows[1][..B].fill(3.0);
            if n > 2 {
                rows[n - 1][4 * B] = f64::INFINITY;
            }
            let c = SeriesCollection::from_rows(rows).unwrap();
            let sketch = SketchSet::build(&c, B).unwrap();
            let pairs = n * (n - 1) / 2;
            let mut rng = proptest::prelude::TestRng::new(n as u64);

            for &(start, end) in &shapes {
                let query = QueryWindow::new(end - 1, end - start).unwrap();
                let what = format!("n={n} query {start}..{end}");
                let plan = QueryPlan::build(&c, &sketch, query).unwrap();
                assert!(!plan.is_aligned(), "{what}");
                let view = sketch.window_corrs_view(plan.full_windows());
                let want: Vec<f64> = c
                    .pairs()
                    .map(|(i, j)| scalar_block(&plan, &c, view, i, j))
                    .collect();
                let truth = crate::baseline::correlation_matrix(&c, query).unwrap();
                for (p, (i, j)) in c.pairs().enumerate() {
                    let finite = n == 2 || j != n - 1;
                    assert!(
                        !finite || (want[p] - truth.get(i, j)).abs() <= 1e-10,
                        "{what} pair ({i},{j}): {} vs baseline {}",
                        want[p],
                        truth.get(i, j)
                    );
                }

                // Streamed: every tile length, the triangle cut anywhere.
                for tile_len in [1usize, 3, 7, 1024] {
                    for runs in [1usize, 2, 3, 8] {
                        let mut cuts: Vec<usize> = (1..runs)
                            .map(|_| rng.below(pairs as u64) as usize)
                            .collect();
                        cuts.extend([0, pairs]);
                        cuts.sort_unstable();
                        let mut sink = Collect(vec![f64::NAN; pairs]);
                        for run in cuts.windows(2) {
                            crate::sweep::sweep_run(
                                &plan,
                                &view,
                                None,
                                run[0]..run[1],
                                tile_len,
                                &mut sink,
                            );
                        }
                        assert_eq!(
                            bits(&sink.0),
                            bits(&want),
                            "{what} tile_len={tile_len} cuts={cuts:?}"
                        );
                    }
                }

                // One scratch carried across rows in descending order: every
                // row but the first leaves the minted group or re-enters one.
                let mut partial = PartialCorrs::default();
                let mut got = vec![f64::NAN; pairs];
                for i in (0..n - 1).rev() {
                    let p0 = pair_index(i, i + 1, n);
                    let tile = &mut got[p0..p0 + n - 1 - i];
                    plan.block_kernel(i, i + 1, view, p0, &mut partial, tile);
                }
                assert_eq!(bits(&got), bits(&want), "{what} rows descending");

                // Dense, serial and pooled.
                let dense = exact::correlation_matrix(&c, &sketch, query).unwrap();
                assert_eq!(bits(dense.upper_triangle()), bits(&want), "{what} dense");
                for workers in [1usize, 2, 8] {
                    let runner = crate::runner::ScopedRunner::new(workers);
                    let (pooled, _) = crate::sweep::fill_packed(&runner, &plan, view).unwrap();
                    assert_eq!(bits(&pooled), bits(&want), "{what} workers={workers}");
                }
            }
        }
    }

    #[test]
    fn block_kernel_zeroes_degenerate_pairs() {
        let c =
            SeriesCollection::from_rows(vec![vec![5.0; 60], lcg_series(1, 60), lcg_series(2, 60)])
                .unwrap();
        let sketch = SketchSet::build(&c, 10).unwrap();
        let plan = QueryPlan::build(&c, &sketch, QueryWindow::new(59, 60).unwrap()).unwrap();
        let corrs_t = sketch.window_corrs_view(0..6);
        let mut tile = vec![9.0f64; 2];
        plan.block_kernel(0, 1, corrs_t, 0, &mut PartialCorrs::default(), &mut tile);
        assert_eq!(tile, vec![0.0, 0.0]);
    }

    #[test]
    fn corr_views_mirror_pair_sketches() {
        // The on-demand pair view is a column of the one table, whichever way
        // the sketch came to be: built, assembled from parts, or grown.
        fn assert_mirrors(sketch: &SketchSet, c: &SeriesCollection) {
            let ns = sketch.window_count();
            let t = sketch.window_corrs_view(2..ns);
            assert_eq!(t.pair_count(), 6);
            assert_eq!(t.window_count(), ns - 2);
            for (p, (i, j)) in c.pairs().enumerate() {
                let pair = sketch.pair_sketch(i, j).unwrap();
                assert_eq!((pair.a, pair.b, pair.corrs.len()), (i, j, ns));
                for kk in 0..ns - 2 {
                    assert_eq!(t.window_row(kk)[p], pair.corrs[2 + kk]);
                }
                assert!(t.pair_column(p).eq(pair.corrs[2..].iter().copied()));
            }
        }
        let c = test_collection(4, 120);
        let built = SketchSet::build(&c, 20).unwrap();
        assert_mirrors(&built, &c);

        let pairs = c
            .pairs()
            .map(|(i, j)| built.pair_sketch(i, j).unwrap())
            .collect();
        let series = (0..built.series_count())
            .map(|i| built.series_sketch(i).unwrap())
            .collect();
        let mut assembled = SketchSet::from_parts(20, 4, series, pairs).unwrap();
        assert_eq!(assembled, built);
        assert_mirrors(&assembled, &c);

        let stats = (0..4).map(|i| built.series_sketch(i).unwrap().window(0));
        let row = (0..6).map(|p| 0.1 * p as f64 - 0.2).collect::<Vec<_>>();
        assembled.push_window(stats.collect(), row.clone()).unwrap();
        assert_mirrors(&assembled, &c);
        assert_eq!(assembled.window_corrs_view(6..7).window_row(0), &row[..]);

        let slab = [0.0, 10.0, 20.0, 1.0, 11.0, 21.0];
        let f = CorrView::new(&slab, 3, 2);
        assert_eq!(f.window_row(1), &[1.0, 11.0, 21.0]);
        assert_eq!(f.pair_count(), 3);
    }

    #[test]
    fn row_segments_cover_packed_runs() {
        let n = 6; // 15 pairs
                   // The whole triangle from 0 decomposes into the 5 rows.
        assert_eq!(
            row_segments(0, 15, n),
            vec![(0, 1, 5), (1, 2, 4), (2, 3, 3), (3, 4, 2), (4, 5, 1)]
        );
        // A run starting mid-row splits the first row.
        assert_eq!(row_segments(2, 5, n), vec![(0, 3, 3), (1, 2, 2)]);
        assert!(row_segments(4, 0, n).is_empty());
        // Segments re-concatenate to exactly the run's pairs.
        let segs = row_segments(7, 6, n);
        let mut rebuilt = Vec::new();
        for (i, j0, len) in segs {
            for p in 0..len {
                rebuilt.push(crate::sketch::pair_index(i, j0 + p, n));
            }
        }
        assert_eq!(rebuilt, (7..13).collect::<Vec<_>>());
    }

    #[test]
    fn builders_validate_inputs() {
        let c = test_collection(3, 100);
        let sketch = SketchSet::build(&c, 20).unwrap();
        assert!(QueryPlan::from_window_stats(&[]).is_err());
        let ragged = vec![
            vec![WindowStats::from_values(&[1.0, 2.0]); 3],
            vec![WindowStats::from_values(&[1.0, 2.0]); 2],
        ];
        assert!(QueryPlan::from_window_stats(&ragged).is_err());
        let too_long = QueryWindow::new(200, 10).unwrap();
        assert!(QueryPlan::build(&c, &sketch, too_long).is_err());
    }
}
