//! The backend-agnostic sketch **source** abstraction: one query pipeline
//! over in-memory sketches and mapped piles.
//!
//! The paper's query algebra — Lemma 1 exact recombination and the Equation 5
//! approximate recombination over Equation 3 estimates — only ever needs two
//! things from a sketch backend:
//!
//! * the per-series window statistics of the query range (the input of
//!   [`QueryPlan::from_window_stats`](crate::plan::QueryPlan::from_window_stats)),
//!   and
//! * a window-major per-pair table of correlations `c` (exact) or Equation 3
//!   estimates `ĉ = 1 − d²/2` (approximate) for the same range — the layout
//!   [`QueryPlan::block_kernel`](crate::plan::QueryPlan::block_kernel)
//!   streams.
//!
//! [`CorrSource`] is exactly that contract, and both tables are every
//! backend's stored layout and stored values — a [`SketchSet`]'s only copy of
//! its pair correlations, a comparator's only copy of its estimates, a pile's
//! on-disk rows, the same bits on each — so a backend **lends** the table
//! ([`CorrSource::full_table`]) and never copies or converts a value to serve
//! it. It declares its capabilities per [`PlanMethod`] through
//! [`CorrSource::window_count`]. Every query over a source is `series_stats`
//! → `QueryPlan::from_window_stats` → lent table → sweep → sink, whatever the
//! method or backend; growing a new backend (tiered storage, replicas, remote
//! piles) means implementing the trait, not forking the pipeline.
//!
//! # The NaN audit
//!
//! Every backend shares one audit convention: the recombination kernel clamps
//! NaN window values to the `0.0` convention, so a NaN in the method's table
//! would silently produce a plausible-looking correlation. The audit reports
//! each pair with a NaN window to the sink as a one-slot NaN tile, which the
//! sinks count (never rank or threshold). Queries run it inside the sweep's
//! one tile loop ([`crate::sweep::TableAudit`]) as a scan of the row slices
//! the kernel is about to read; [`audit_nan_chunk`] here is the same audit
//! pair by pair — the definition that scan is tested against, and a step of
//! the benchmark ledger's decomposition. No query prunes tiles (the Equation
//! 4 bound decides none on anomaly data, see [`crate::sweep`]), so an
//! audited sweep reads every pair's columns and its count is exhaustive.

use std::ops::Range;
use std::time::Duration;

use crate::delta::EdgeWatch;
use crate::error::{Error, Result};
use crate::matrix::CorrelationMatrix;
use crate::plan::{CorrView, PlanMethod, QueryPlan};
use crate::runner::JobRunner;
use crate::sketch::{pair_index, SketchSet};
use crate::stats::WindowStats;
use crate::sweep::{
    fill_packed, network_pooled, sweep_pooled, top_k_pooled, EdgeList, EdgeRule, TableAudit,
    TileSink, TopK,
};

/// A window-major pair table lent by a [`CorrSource`]: a zero-copy borrow of
/// the backend's own storage — a view of an in-memory sketch's shared rows,
/// or one borrowed slice per row of a mapped pile, wherever its segments put
/// them. Both present the same [`CorrView`]; no table is ever owned.
#[derive(Debug)]
pub enum PairTable<'a> {
    /// Zero-copy view straight into the backend's storage.
    Borrowed(CorrView<'a>),
    /// Zero-copy too: one slice of `pairs` values per window, borrowed from
    /// the backend's storage; the table owns only the list of rows.
    Rows {
        /// Values per row.
        pairs: usize,
        /// The rows, oldest window first.
        rows: Vec<&'a [f64]>,
    },
}

impl PairTable<'_> {
    /// The window-major view the sweep kernels consume.
    ///
    /// # Panics
    ///
    /// Panics when a [`PairTable::Rows`] row is not `pairs` wide.
    pub fn view(&self) -> CorrView<'_> {
        match self {
            PairTable::Borrowed(v) => *v,
            PairTable::Rows { pairs, rows } => CorrView::from_rows(rows, *pairs),
        }
    }

    /// Always `true`: every table is lent, none is copied. Kept for the
    /// benchmark crate, which reports it per query.
    pub fn is_zero_copy(&self) -> bool {
        true
    }
}

/// A sketch backend the unified query pipeline can recombine from.
///
/// Implementations: [`SketchSet`] (exact, in memory), `DftSketchSet` (both
/// methods, in memory — in `tsubasa-dft`) and `SketchPile` (mapped pile, in
/// `tsubasa-storage`).
///
/// The trait is object-safe: serving layers hold `Arc<dyn CorrSource>`
/// payloads and the engines take `&S where S: CorrSource + ?Sized`.
pub trait CorrSource: Send + Sync {
    /// Number of series covered.
    fn series_count(&self) -> usize;

    /// Basic windows answerable under `method` — the capability declaration.
    /// Asking for more (or for a method the backend does not cover at all)
    /// is a typed [`Error::SketchMismatch`] from [`check_source_windows`].
    fn window_count(&self, method: PlanMethod) -> usize;

    /// The per-series window statistics of `windows`, series-major
    /// (`out[series][k]`) — the input of
    /// [`QueryPlan::from_window_stats`](crate::plan::QueryPlan::from_window_stats).
    fn series_stats(&self, windows: Range<usize>) -> Result<Vec<Vec<WindowStats>>>;

    /// The full-width pair table for `windows` under `method`, lent from the
    /// backend's storage. Every backend in this workspace returns `Some` for
    /// any range it covers, whatever its size; the `Option` is the trait's
    /// frozen signature, and the engines read a foreign `None` through
    /// [`CorrSource::lent_table`].
    fn full_table(
        &self,
        windows: Range<usize>,
        method: PlanMethod,
    ) -> Result<Option<PairTable<'_>>>;

    /// [`CorrSource::full_table`] with a declined table (`None`) turned into
    /// the one typed [`Error::Storage`] — what every engine calls.
    fn lent_table(&self, windows: Range<usize>, method: PlanMethod) -> Result<PairTable<'_>> {
        self.full_table(windows, method)?
            .ok_or_else(|| Error::Storage("source lends no pair table".into()))
    }
}

/// The NaN audit, pair by pair: scan a chunk's columns of a full-width
/// window-major table (column = packed pair index over `n` series) for NaN
/// windows and report each affected pair to the sink as a one-slot NaN tile
/// (`sink.consume(a, b, pair, &[NaN])`), which the sinks count as audit
/// metadata — never rank or threshold. No query calls this: the sweep's tile
/// loop runs the equivalent row-slice scan ([`crate::sweep::TableAudit`]).
pub fn audit_nan_chunk(
    view: CorrView<'_>,
    chunk: &[(usize, usize)],
    n: usize,
    sink: &mut dyn TileSink,
) {
    let w = view.window_count();
    for &(a, b) in chunk {
        let p = pair_index(a, b, n);
        if (0..w).any(|k| view.window_row(k)[p].is_nan()) {
            sink.consume(a, b, p, &[f64::NAN]);
        }
    }
}

impl CorrSource for SketchSet {
    fn series_count(&self) -> usize {
        SketchSet::series_count(self)
    }

    fn window_count(&self, method: PlanMethod) -> usize {
        match method {
            PlanMethod::Exact => SketchSet::window_count(self),
            // The exact sketch stores no coefficient distances.
            PlanMethod::Approximate => 0,
        }
    }

    fn series_stats(&self, windows: Range<usize>) -> Result<Vec<Vec<WindowStats>>> {
        check_source_windows(self, &windows, PlanMethod::Exact)?;
        (0..SketchSet::series_count(self))
            .map(|i| {
                let sk = self.series_sketch(i)?;
                Ok(windows.clone().map(|w| sk.window(w)).collect())
            })
            .collect()
    }

    fn full_table(
        &self,
        windows: Range<usize>,
        method: PlanMethod,
    ) -> Result<Option<PairTable<'_>>> {
        check_source_windows(self, &windows, method)?;
        Ok(Some(PairTable::Borrowed(self.window_corrs_view(windows))))
    }
}

/// Validate a window range against a source's coverage for `method` — the
/// shared typed-rejection helper of the unified pipeline.
pub fn check_source_windows<S: CorrSource + ?Sized>(
    source: &S,
    windows: &Range<usize>,
    method: PlanMethod,
) -> Result<()> {
    let available = source.window_count(method);
    if windows.start >= windows.end || windows.end > available {
        return Err(Error::SketchMismatch {
            requested: format!("{method:?} windows {windows:?}"),
            available: format!("{method:?} windows 0..{available}"),
        });
    }
    Ok(())
}

/// The one query plan over a source, for both methods: the per-series
/// recombination tables of an aligned window range
/// ([`QueryPlan::from_window_stats`] over [`CorrSource::series_stats`]) and
/// the method's window-major table, lent by the source for the plan's
/// lifetime. Lemma 1 (exact) and Equation 5 (approximate) share the
/// recombination, so the method picks only the table and the network's edge
/// rule ([`EdgeRule::for_method`]). Every answer observes every pair, so its
/// NaN audit is exhaustive.
///
/// Every answer runs on any [`JobRunner`] and returns the workers' summed
/// busy time beside it. A run boundary never changes a pair's arithmetic, so
/// the answers are the same bits for any worker count, and the same bits on
/// every backend that stores the same rows.
///
/// ```
/// use tsubasa_core::prelude::*;
/// use tsubasa_core::runner::SerialRunner;
/// use tsubasa_core::source::SourcePlan;
/// use tsubasa_core::sweep::{TableAudit, DEFAULT_TILE_PAIRS};
///
/// let collection = SeriesCollection::from_rows(vec![
///     vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0],
///     vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 17.0],
///     vec![9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 1.0],
/// ])
/// .unwrap();
/// let sketch = SketchSet::build(&collection, 4).unwrap();
/// let plan = SourcePlan::new(&sketch, 0..2, PlanMethod::Exact).unwrap();
/// let (matrix, _) = plan.correlation_matrix(&SerialRunner).unwrap();
/// assert!(matrix.get(0, 2) < -0.9);
/// let (edges, _) = plan
///     .network(&SerialRunner, 0.9, DEFAULT_TILE_PAIRS, TableAudit::Off)
///     .unwrap();
/// assert_eq!(edges.edges(), &[(0, 1)]);
/// ```
#[derive(Debug)]
pub struct SourcePlan<'a> {
    method: PlanMethod,
    windows: Range<usize>,
    plan: QueryPlan,
    table: PairTable<'a>,
}

impl<'a> SourcePlan<'a> {
    /// Plan `method` over the aligned basic windows `windows` of `source`:
    /// validate the range ([`check_source_windows`]), build the per-series
    /// tables from the source's statistics, and borrow its table.
    pub fn new<S: CorrSource + ?Sized>(
        source: &'a S,
        windows: Range<usize>,
        method: PlanMethod,
    ) -> Result<Self> {
        check_source_windows(source, &windows, method)?;
        let plan = QueryPlan::from_window_stats(&source.series_stats(windows.clone())?)?;
        Ok(Self {
            method,
            table: source.lent_table(windows.clone(), method)?,
            windows,
            plan,
        })
    }

    /// Number of series covered.
    pub fn series_count(&self) -> usize {
        self.plan.series_count()
    }

    /// The range of sketched basic windows the plan covers.
    pub fn windows(&self) -> Range<usize> {
        self.windows.clone()
    }

    /// The per-series recombination tables.
    pub fn query_plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// The lent window-major table: correlations (exact) or Equation 3
    /// estimates (approximate), oldest window first.
    pub fn table(&self) -> CorrView<'_> {
        self.table.view()
    }

    /// The all-pairs correlation matrix: the dense fill ([`fill_packed`]) on
    /// `runner`, refused with [`Error::TooLarge`] past the dense budget.
    /// Degenerate (constant-series) pairs hold `0.0`.
    pub fn correlation_matrix(
        &self,
        runner: &dyn JobRunner,
    ) -> Result<(CorrelationMatrix, Duration)> {
        let (values, busy) = fill_packed(runner, &self.plan, self.table())?;
        let matrix = CorrelationMatrix::from_upper_triangle(self.series_count(), values);
        Ok((matrix, busy))
    }

    /// The thresholded network under the method's edge rule
    /// ([`EdgeRule::for_method`]; θ outside `[-1, 1]` is
    /// [`Error::InvalidThreshold`]), streamed on `runner` in tiles of at most
    /// `tile_len` pairs with the table audit `audit` — the packed triangle is
    /// never materialized. The edge set is the rule applied to
    /// [`SourcePlan::correlation_matrix`], in pair order.
    pub fn network(
        &self,
        runner: &dyn JobRunner,
        theta: f64,
        tile_len: usize,
        audit: TableAudit,
    ) -> Result<(EdgeList, Duration)> {
        let rule = EdgeRule::for_method(self.method, theta)?;
        let (plan, view) = (&self.plan, self.table());
        Ok(network_pooled(runner, plan, view, rule, tile_len, audit))
    }

    /// One scan of `watch` ([`EdgeWatch`], under this plan's method's rule)
    /// streamed like [`SourcePlan::network`], one run of the watch per
    /// worker, without the table audit: its network becomes that network,
    /// NaN count included.
    pub fn scan(&self, runner: &dyn JobRunner, watch: &mut EdgeWatch, tile_len: usize) {
        let (plan, view, off) = (&self.plan, self.table(), TableAudit::Off);
        let make_run = |run| watch.run(run);
        let (runs, _) = sweep_pooled(runner, plan, view, tile_len, off, make_run);
        watch.take_delta();
        for run in runs {
            watch.absorb(run);
        }
    }

    /// The `k` strongest pairs, streamed like [`SourcePlan::network`]
    /// ([`top_k_pooled`]; `k = 0` sweeps nothing). Ranking is total
    /// ([`f64::total_cmp`], ties by ascending pair index) and equals the
    /// sorted dense matrix's top k.
    pub fn top_k(
        &self,
        runner: &dyn JobRunner,
        k: usize,
        tile_len: usize,
        audit: TableAudit,
    ) -> (TopK, Duration) {
        top_k_pooled(runner, &self.plan, self.table(), k, tile_len, audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ScopedRunner, SerialRunner};
    use crate::sweep::{EdgeSink, DEFAULT_TILE_PAIRS};
    use crate::SeriesCollection;

    fn sketch() -> SketchSet {
        let c = SeriesCollection::from_rows(
            (0..4)
                .map(|s| {
                    (0..60)
                        .map(|i| (i as f64 * 0.2 + s as f64).sin() + ((i * (s + 2)) % 5) as f64)
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        SketchSet::build(&c, 20).unwrap()
    }

    #[test]
    fn sketchset_source_capabilities_and_tables() {
        let sk = sketch();
        let src: &dyn CorrSource = &sk;
        assert_eq!(src.series_count(), 4);
        assert_eq!(src.window_count(PlanMethod::Exact), 3);
        assert_eq!(src.window_count(PlanMethod::Approximate), 0);

        let table = src.lent_table(0..3, PlanMethod::Exact).unwrap();
        assert!(table.is_zero_copy());
        let view = table.view();
        let direct = sk.window_corrs_view(0..3);
        for k in 0..3 {
            assert_eq!(view.window_row(k), direct.window_row(k));
        }
        // Stats match the sketch's own windows.
        let stats = src.series_stats(0..3).unwrap();
        for (i, row) in stats.iter().enumerate() {
            for (k, st) in row.iter().enumerate() {
                assert_eq!(*st, sk.series_sketch(i).unwrap().window(k));
            }
        }
        // The approximate method is a typed mismatch.
        assert!(src.full_table(0..3, PlanMethod::Approximate).is_err());
        assert!(check_source_windows(src, &(0..3), PlanMethod::Approximate).is_err());
        assert!(check_source_windows(src, &(2..2), PlanMethod::Exact).is_err());
        assert!(check_source_windows(src, &(0..4), PlanMethod::Exact).is_err());
    }

    #[test]
    fn source_plan_network_matches_the_dense_threshold() {
        let c = SeriesCollection::from_rows(
            (0..6)
                .map(|s| {
                    (0..180)
                        .map(|i| (i as f64 * 0.13 + s as f64).sin() + ((i * (s + 3)) % 7) as f64)
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        let sk = SketchSet::build(&c, 20).unwrap();
        let plan = SourcePlan::new(&sk, 1..8, PlanMethod::Exact).unwrap();
        assert_eq!((plan.series_count(), plan.windows()), (6, 1..8));
        let (dense, _) = plan.correlation_matrix(&SerialRunner).unwrap();
        let tiles = (DEFAULT_TILE_PAIRS, TableAudit::Off);
        for theta in [-0.5, 0.0, 0.25, 0.9] {
            let (edges, _) = plan
                .network(&SerialRunner, theta, tiles.0, tiles.1)
                .unwrap();
            assert_eq!(edges.to_adjacency(), dense.threshold(theta).unwrap());
            for workers in [2, 5] {
                let runner = ScopedRunner::new(workers);
                assert_eq!(plan.correlation_matrix(&runner).unwrap().0, dense);
                let (pooled, _) = plan.network(&runner, theta, 3, TableAudit::Swept).unwrap();
                assert_eq!(pooled, edges, "{workers}");
            }
        }
        let (top, _) = plan.top_k(&SerialRunner, 3, tiles.0, tiles.1);
        let mut all: Vec<f64> = dense.iter_pairs().map(|(_, _, c)| c).collect();
        all.sort_by(|a, b| b.total_cmp(a));
        let got: Vec<f64> = top.edges.iter().map(|e| e.corr).collect();
        assert_eq!(got, all[..3]);
        assert!(matches!(
            plan.network(&SerialRunner, 1.5, tiles.0, tiles.1),
            Err(Error::InvalidThreshold(_))
        ));
        assert!(SourcePlan::new(&sk, 0..10, PlanMethod::Exact).is_err());
        assert!(SourcePlan::new(&sk, 0..3, PlanMethod::Approximate).is_err());
    }

    #[test]
    fn a_zero_k_top_k_is_empty_and_sweeps_nothing() {
        // A NaN planted in pair 4's second window: an audited sweep counts it.
        let c = SeriesCollection::from_rows(
            (0..5)
                .map(|s| {
                    (0..60)
                        .map(|i| (i * (s + 2)) as f64 * 0.3)
                        .map(f64::sin)
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        let built = SketchSet::build(&c, 20).unwrap();
        let view = built.window_corrs_view(0..3);
        let pairs = (0..10)
            .map(|p| {
                let (a, b) = crate::sketch::unpack_pair_index(p, 5);
                let mut corrs: Vec<f64> = view.pair_column(p).collect();
                corrs[1] = if p == 4 { f64::NAN } else { corrs[1] };
                crate::sketch::PairSketch { a, b, corrs }
            })
            .collect();
        let series = built.series_sketches().cloned().collect();
        let sk = SketchSet::from_parts(20, 5, series, pairs).unwrap();
        let plan = SourcePlan::new(&sk, 0..3, PlanMethod::Exact).unwrap();
        let (one, _) = plan.top_k(&SerialRunner, 1, 4, TableAudit::Swept);
        assert!(one.nan_pairs > 0, "the table must hold NaN");
        let empty = TopK {
            edges: Vec::new(),
            nan_pairs: 0,
        };
        for runner in [&SerialRunner as &dyn JobRunner, &ScopedRunner::new(3)] {
            for audit in [TableAudit::Off, TableAudit::Swept] {
                let got = plan.top_k(runner, 0, 4, audit);
                assert_eq!(got, (empty.clone(), Duration::ZERO), "{audit:?}");
            }
        }
        let query = crate::QueryWindow::new(59, 60).unwrap();
        assert_eq!(crate::exact::top_k(&c, &sk, query, 0).unwrap(), empty);
    }

    #[test]
    fn a_table_of_borrowed_rows_presents_the_same_view() {
        let sk = sketch();
        let direct = sk.window_corrs_view(0..3);
        let rows: Vec<&[f64]> = (0..3)
            .map(|k| sk.window_corrs_view(k..k + 1).window_row(0))
            .collect();
        let table = PairTable::Rows { pairs: 6, rows };
        assert!(table.is_zero_copy());
        let view = table.view();
        assert_eq!((view.pair_count(), view.window_count()), (6, 3));
        for k in 0..3 {
            assert_eq!(view.window_row(k), direct.window_row(k));
        }
        for p in 0..6 {
            assert!(view.pair_column(p).eq(direct.pair_column(p)));
        }
    }

    #[test]
    fn nan_audit_counts_the_poisoned_pairs_of_a_chunk() {
        let n = 4;
        let pairs = n * (n - 1) / 2;
        // A NaN in pair (1, 3)'s second window.
        let mut slab = vec![0.5f64; pairs * 2];
        slab[pairs + pair_index(1, 3, n)] = f64::NAN;
        let view = CorrView::new(&slab, pairs, 2);
        for (chunk, want) in [
            (&[(1usize, 2usize), (1, 3), (2, 3)][..], 1),
            (&[(0, 1), (0, 2)][..], 0),
        ] {
            let mut sink = EdgeSink::new(0.9);
            audit_nan_chunk(view, chunk, n, &mut sink);
            assert_eq!(sink.finish(n).nan_pair_count(), want);
        }
    }
}
