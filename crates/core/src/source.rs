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
//! * a window-major per-pair table of correlations (exact) or `1 − d²/2`
//!   estimates (approximate) for the same range — the layout
//!   [`QueryPlan::block_kernel`](crate::plan::QueryPlan::block_kernel)
//!   streams.
//!
//! [`CorrSource`] is exactly that contract, and the table is every backend's
//! stored layout — a [`SketchSet`]'s only copy of its pair correlations, a
//! pile's on-disk rows — so serving it converts nothing. A backend serves the
//! table either **whole** ([`CorrSource::full_table`] — zero-copy for mapped
//! piles and in-memory sketches) or **chunk at a time**
//! ([`CorrSource::chunk_table`] — what a DFT sketch falls back to when its
//! estimate table would exceed the dense budget), and declares its
//! capabilities per [`PlanMethod`] through [`CorrSource::window_count`]. The
//! engines are written once against this trait; growing a new backend (tiered
//! storage, replicas, remote piles) means implementing it, not forking the
//! pipeline.
//!
//! # The NaN audit
//!
//! Every backend shares one audit convention, implemented in exactly one
//! place ([`audit_nan_chunk`]): the recombination kernel clamps NaN window
//! values to the `0.0` convention, so a NaN in the method's table would
//! silently produce a plausible-looking correlation. The audit scans the
//! chunk's table columns and reports each affected pair to the sink as a
//! one-slot NaN tile, which the sinks count (never rank or threshold). (The
//! Equation 3 map `1 − d²/2` is NaN iff the distance is, so auditing the
//! estimate table audits the distances.) Chunks skipped by Equation 4
//! pruning are audited only under the engines' opt-in `audit_pruned_chunks`
//! policy — pruning decides from per-series statistics alone, so the skipped
//! columns are otherwise never touched (and, on a mapped pile, never faulted
//! in).

use std::ops::Range;

use crate::error::{Error, Result};
use crate::plan::{CorrView, PlanMethod, TransposedCorrs};
use crate::sketch::{pair_index, SketchSet};
use crate::stats::WindowStats;
use crate::sweep::TileSink;

/// A window-major pair table served by a [`CorrSource`]: a zero-copy borrow
/// of the backend's own storage — a view of an in-memory sketch's shared
/// rows, or one borrowed slice per row of a mapped pile, wherever its
/// segments put them — or an owned buffer (a table mapped from distances).
/// All present the same [`CorrView`].
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
    /// An owned window-major buffer computed for this request.
    Owned(TransposedCorrs),
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
            PairTable::Owned(t) => t.view(),
        }
    }

    /// Whether this table borrows the backend's storage directly (no value
    /// was copied to build it).
    pub fn is_zero_copy(&self) -> bool {
        !matches!(self, PairTable::Owned(_))
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

    /// Whether [`CorrSource::full_table`] borrows the backend's storage
    /// directly (no copy), whatever the range.
    fn zero_copy(&self) -> bool {
        false
    }

    /// Whether any exact-method windows are answerable.
    fn supports_exact(&self) -> bool {
        self.window_count(PlanMethod::Exact) > 0
    }

    /// Whether any approximate-method windows are answerable.
    fn supports_approx(&self) -> bool {
        self.window_count(PlanMethod::Approximate) > 0
    }

    /// The per-series window statistics of `windows`, series-major
    /// (`out[series][k]`) — the input of
    /// [`QueryPlan::from_window_stats`](crate::plan::QueryPlan::from_window_stats).
    fn series_stats(&self, windows: Range<usize>) -> Result<Vec<Vec<WindowStats>>>;

    /// The full-width pair table for `windows` under `method`, when the
    /// backend can serve one — `Ok(None)` when it can only serve chunked
    /// reads (a DFT sketch whose estimate table would exceed the dense
    /// budget), which callers answer by streaming
    /// [`CorrSource::chunk_table`] instead.
    fn full_table(
        &self,
        windows: Range<usize>,
        method: PlanMethod,
    ) -> Result<Option<PairTable<'_>>>;

    /// The window-major table of one contiguous chunk of packed pairs
    /// (column `p` of the result is `chunk[p]`). The default gathers columns
    /// from [`CorrSource::full_table`]; backends that may decline the full
    /// table override it.
    fn chunk_table(
        &self,
        chunk: &[(usize, usize)],
        windows: Range<usize>,
        method: PlanMethod,
    ) -> Result<TransposedCorrs> {
        let n = self.series_count();
        let table = self.full_table(windows.clone(), method)?.ok_or_else(|| {
            Error::Storage("source serves neither full nor chunked pair tables".into())
        })?;
        let view = table.view();
        Ok(TransposedCorrs::from_fn(
            chunk.len(),
            windows.len(),
            |p, k| {
                let (a, b) = chunk[p];
                view.window_row(k)[pair_index(a, b, n)]
            },
        ))
    }
}

/// The Equation 3 estimate side of a source: an owned window-major table of
/// `1 − d²/2` estimates, the input `ApproxPlan` (in `tsubasa-dft`)
/// recombines through Equation 5. Blanket-implemented for every
/// [`CorrSource`] (including `dyn CorrSource`) on top of the approximate
/// pair table.
pub trait EstSource: CorrSource {
    /// The owned estimate table for `windows` — the backing buffer of an
    /// approximate plan. Bit-identical to the backend's approximate
    /// [`CorrSource::full_table`] values.
    fn est_table(&self, windows: Range<usize>) -> Result<TransposedCorrs> {
        match self.full_table(windows.clone(), PlanMethod::Approximate)? {
            Some(PairTable::Owned(t)) => Ok(t),
            Some(borrowed) => {
                let v = borrowed.view();
                Ok(TransposedCorrs::from_fn(
                    v.pair_count(),
                    v.window_count(),
                    |p, k| v.window_row(k)[p],
                ))
            }
            None => {
                let n = self.series_count();
                let pairs: Vec<(usize, usize)> = (0..n)
                    .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
                    .collect();
                self.chunk_table(&pairs, windows, PlanMethod::Approximate)
            }
        }
    }
}

impl<T: CorrSource + ?Sized> EstSource for T {}

/// **The** NaN-audit hook shared by every backend: scan a chunk's columns of
/// a window-major table for NaN windows and report each affected pair to the
/// sink as a one-slot NaN tile (`sink.consume(a, b, pair, &[NaN])`), which
/// the sinks count as audit metadata — never rank or threshold.
///
/// `view` is either the full-width table (columns addressed by the global
/// packed pair index) or a chunk-width table from
/// [`CorrSource::chunk_table`] (columns addressed by chunk position); the
/// two cases are distinguished by the view's pair count. When the chunk
/// covers the whole triangle the interpretations coincide, so the
/// distinction is unambiguous.
pub fn audit_nan_chunk(
    view: CorrView<'_>,
    chunk: &[(usize, usize)],
    n: usize,
    sink: &mut dyn TileSink,
) {
    let full_width = view.pair_count() == n * n.saturating_sub(1) / 2;
    let w = view.window_count();
    for (idx, &(a, b)) in chunk.iter().enumerate() {
        let p = pair_index(a, b, n);
        let col = if full_width { p } else { idx };
        if (0..w).any(|k| view.window_row(k)[col].is_nan()) {
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

    fn zero_copy(&self) -> bool {
        true
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::EdgeSink;
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
        assert!(src.supports_exact() && !src.supports_approx());
        assert!(src.zero_copy());

        let table = src.full_table(0..3, PlanMethod::Exact).unwrap().unwrap();
        assert!(table.is_zero_copy());
        let view = table.view();
        let direct = sk.window_corrs_view(0..3);
        for k in 0..3 {
            assert_eq!(view.window_row(k), direct.window_row(k));
        }
        // Default chunk gather matches the full table's columns.
        let chunk = [(0usize, 2usize), (0, 3), (1, 2)];
        let chunked = src.chunk_table(&chunk, 1..3, PlanMethod::Exact).unwrap();
        for (p, &(a, b)) in chunk.iter().enumerate() {
            for k in 0..2 {
                assert_eq!(
                    chunked.view().window_row(k)[p],
                    sk.window_corrs_view(1..3).window_row(k)[pair_index(a, b, 4)]
                );
            }
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
    fn nan_audit_counts_identically_on_full_and_chunk_width_views() {
        let n = 4;
        let pairs = n * (n - 1) / 2;
        // Full-width table with a NaN in pair (1, 3)'s second window.
        let poisoned = pair_index(1, 3, n);
        let full = TransposedCorrs::from_fn(pairs, 2, |p, k| {
            if p == poisoned && k == 1 {
                f64::NAN
            } else {
                0.5
            }
        });
        let chunk = [(1usize, 2usize), (1, 3), (2, 3)];
        let mut sink = EdgeSink::new(0.9);
        audit_nan_chunk(full.view(), &chunk, n, &mut sink);
        assert_eq!(sink.finish(n).nan_pair_count(), 1);

        // The same chunk served as a chunk-width table (columns by position).
        let chunk_width = TransposedCorrs::from_fn(chunk.len(), 2, |p, k| {
            full.view().window_row(k)[pair_index(chunk[p].0, chunk[p].1, n)]
        });
        let mut sink = EdgeSink::new(0.9);
        audit_nan_chunk(chunk_width.view(), &chunk, n, &mut sink);
        assert_eq!(sink.finish(n).nan_pair_count(), 1);
    }
}
