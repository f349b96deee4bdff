//! Capacity planning: the space/usability trade-off of §3.3.
//!
//! The sketch stores `L/B · (2N + N(N−1)/2)` floating-point values, so the
//! basic-window size `B` controls both the space overhead and the usability
//! of arbitrary query windows: a large `B` shrinks the sketch but makes the
//! partial head/tail windows of unaligned queries expensive
//! (`O(l*/B + B)` per pair). This module exposes the formulas the paper's
//! discussion uses so deployments can pick `B` deliberately.

use crate::error::{Error, Result};

/// Description of a planned sketch deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchPlan {
    /// Number of series (`N`).
    pub n_series: usize,
    /// Length of each series (`L`).
    pub series_len: usize,
    /// Basic-window size (`B`).
    pub basic_window: usize,
}

impl SketchPlan {
    /// Number of complete basic windows per series.
    pub fn windows(&self) -> usize {
        self.series_len / self.basic_window
    }

    /// Number of stored floating-point values — the paper's
    /// ψ = L/B · (2N + N(N−1)/2).
    pub fn stored_floats(&self) -> usize {
        self.windows() * (2 * self.n_series + self.n_series * (self.n_series - 1) / 2)
    }

    /// Stored bytes assuming `f64` statistics.
    pub fn stored_bytes(&self) -> usize {
        self.stored_floats() * std::mem::size_of::<f64>()
    }

    /// Per-pair cost (in touched sketch entries / raw points) of a query of
    /// length `query_len` whose boundaries may fall inside basic windows:
    /// `l*/B` interior windows plus up to `2B` raw points for the partial
    /// head and tail. This is the `O(l*/B + B)` expression of §3.3.
    pub fn generic_query_cost(&self, query_len: usize) -> usize {
        query_len / self.basic_window + 2 * self.basic_window
    }
}

/// Default budget for dense all-pairs buffers: 32 GiB.
pub const DEFAULT_DENSE_LIMIT_BYTES: u64 = 32 << 30;

/// The in-effect dense-buffer budget: `TSUBASA_DENSE_LIMIT_BYTES` when set
/// (`0` disables the check entirely), else
/// [`DEFAULT_DENSE_LIMIT_BYTES`].
pub fn dense_limit_bytes() -> Option<u64> {
    match std::env::var("TSUBASA_DENSE_LIMIT_BYTES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        Some(0) => None,
        Some(limit) => Some(limit),
        None => Some(DEFAULT_DENSE_LIMIT_BYTES),
    }
}

/// Check that a dense buffer of `pairs × windows` f64 values fits the
/// configured budget, erroring with [`Error::TooLarge`] (which points at the
/// streamed sweep API) instead of letting the allocator abort the process.
/// The product saturates in u128, so adversarially large requests fail
/// cleanly rather than overflowing.
pub fn check_dense_budget(pairs: usize, windows: usize) -> Result<()> {
    let Some(limit) = dense_limit_bytes() else {
        return Ok(());
    };
    let bytes = (pairs as u128)
        .saturating_mul(windows as u128)
        .saturating_mul(std::mem::size_of::<f64>() as u128);
    if bytes > limit as u128 {
        return Err(Error::TooLarge { bytes, limit });
    }
    Ok(())
}

/// The largest basic-window size is bounded below by the space budget: the
/// sketch of `n_series` series of length `series_len` fits in `budget_bytes`
/// only if `B` is at least this value. Returns an error when even `B =
/// series_len` (a single window) does not fit.
pub fn min_basic_window_for_budget(
    n_series: usize,
    series_len: usize,
    budget_bytes: usize,
) -> Result<usize> {
    if n_series == 0 || series_len == 0 {
        return Err(Error::EmptyInput(
            "capacity planning needs a non-empty dataset",
        ));
    }
    let per_window_floats = 2 * n_series + n_series * (n_series - 1) / 2;
    let per_window_bytes = per_window_floats * std::mem::size_of::<f64>();
    if per_window_bytes == 0 || budget_bytes < per_window_bytes {
        return Err(Error::Storage(format!(
            "budget of {budget_bytes} bytes cannot hold even one basic window \
             ({per_window_bytes} bytes per window for {n_series} series)"
        )));
    }
    let max_windows = budget_bytes / per_window_bytes;
    // L/B <= max_windows  ⇒  B >= ceil(L / max_windows).
    Ok(series_len.div_ceil(max_windows).max(1))
}

/// Pick a basic-window size that minimizes the generic (unaligned) query cost
/// `l*/B + 2B` for a typical query length, subject to the space budget. The
/// unconstrained optimum is `B ≈ √(l*/2)`; the space budget can only push it
/// upward.
pub fn recommend_basic_window(
    n_series: usize,
    series_len: usize,
    typical_query_len: usize,
    budget_bytes: usize,
) -> Result<usize> {
    let floor = min_basic_window_for_budget(n_series, series_len, budget_bytes)?;
    let optimum = ((typical_query_len as f64 / 2.0).sqrt().round() as usize).max(1);
    Ok(optimum.max(floor).min(series_len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::SketchSet;
    use crate::timeseries::SeriesCollection;

    #[test]
    fn dense_budget_check_flags_oversized_requests() {
        // Within any sane default budget.
        assert!(check_dense_budget(1_000, 10).is_ok());
        // u128 arithmetic: usize::MAX² pairs × windows must not panic.
        let huge = check_dense_budget(usize::MAX, usize::MAX);
        match huge {
            Err(Error::TooLarge { bytes, limit }) => {
                assert!(bytes > limit as u128);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn stored_floats_matches_actual_sketch() {
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|s| {
                (0..120)
                    .map(|i| ((i * (s + 1)) as f64 * 0.3).sin())
                    .collect()
            })
            .collect();
        let collection = SeriesCollection::from_rows(rows).unwrap();
        let sketch = SketchSet::build(&collection, 20).unwrap();
        let plan = SketchPlan {
            n_series: 6,
            series_len: 120,
            basic_window: 20,
        };
        assert_eq!(plan.stored_floats(), sketch.stored_floats());
        assert_eq!(plan.stored_bytes(), sketch.stored_floats() * 8);
        assert_eq!(plan.windows(), 6);
    }

    #[test]
    fn min_basic_window_respects_budget() {
        let n = 100;
        let len = 10_000;
        // A generous budget allows small windows.
        let b_small = min_basic_window_for_budget(n, len, 1 << 30).unwrap();
        assert_eq!(b_small, 1);
        // A tight budget forces larger windows; the resulting plan must fit.
        let budget = 10 * 1024 * 1024;
        let b = min_basic_window_for_budget(n, len, budget).unwrap();
        let plan = SketchPlan {
            n_series: n,
            series_len: len,
            basic_window: b,
        };
        assert!(
            plan.stored_bytes() <= budget,
            "{} > {budget}",
            plan.stored_bytes()
        );
        // One window smaller would overflow the budget (or be impossible).
        if b > 1 {
            let tighter = SketchPlan {
                n_series: n,
                series_len: len,
                basic_window: b - 1,
            };
            assert!(tighter.stored_bytes() > budget);
        }
    }

    #[test]
    fn min_basic_window_rejects_impossible_budgets() {
        assert!(min_basic_window_for_budget(1_000, 1_000, 8).is_err());
        assert!(min_basic_window_for_budget(0, 1_000, 1 << 20).is_err());
    }

    #[test]
    fn generic_query_cost_has_interior_plus_edges_shape() {
        let plan = |b: usize| SketchPlan {
            n_series: 10,
            series_len: 100_000,
            basic_window: b,
        };
        let l = 10_000;
        // Cost is high for tiny B (many windows) and for huge B (big partial
        // windows), lower in between.
        let tiny = plan(10).generic_query_cost(l);
        let mid = plan(70).generic_query_cost(l);
        let huge = plan(5_000).generic_query_cost(l);
        assert!(mid < tiny);
        assert!(mid < huge);
    }

    #[test]
    fn recommendation_balances_budget_and_query_cost() {
        // Unconstrained: B ≈ sqrt(l/2).
        let b = recommend_basic_window(50, 8_760, 3_000, 1 << 30).unwrap();
        assert_eq!(b, ((3_000f64 / 2.0).sqrt().round()) as usize);
        // Constrained: the budget floor dominates.
        let floor = min_basic_window_for_budget(50, 8_760, 200 * 1024).unwrap();
        let constrained = recommend_basic_window(50, 8_760, 3_000, 200 * 1024).unwrap();
        assert!(constrained >= floor);
        // Never exceeds the series length.
        let capped = recommend_basic_window(5, 100, 1_000_000, 1 << 30).unwrap();
        assert!(capped <= 100);
    }
}
