//! Equality guard for the all-pairs kernel.
//!
//! The matrix entry points (`exact::correlation_matrix`, the aligned
//! `SourcePlan::correlation_matrix`) are the dense fill
//! (`sweep::fill_packed`) of the tiled batch kernel
//! (`QueryPlan::block_kernel`). On an aligned window that kernel performs
//! the reference per-pair path's operations (`exact::pair_correlation`:
//! contributions → `combine`) in the same order, so the aligned matrix is
//! pinned **bit for bit** to the reference: any divergence means the plan's
//! precomputed tables no longer mirror the Lemma 1 arithmetic
//! operation-for-operation. On an unaligned window the kernel mints the
//! partial head/tail correlations from z-score products, so there the
//! contract is agreement within `1e-10` absolute (see
//! `tiled_kernel_agreement.rs` for the dedicated suites), while serial and
//! parallel fills must still agree with *each other* exactly for any worker
//! count.

mod support;

use proptest::prelude::*;
use support::Generator;
use tsubasa_core::plan::QueryPlan;
use tsubasa_core::prelude::*;
use tsubasa_core::runner::{ScopedRunner, SerialRunner};
use tsubasa_core::sweep::fill_packed;

const SERIES: Generator = Generator {
    freq: 0.11,
    amp: 2.0,
    stride: 131,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The dense fill stays within the 1e-10 tolerance contract of the
    /// reference per-pair path on random (generally unaligned) query
    /// windows, equals it bit for bit whenever the window happens to be
    /// aligned, and serial vs parallel fills agree exactly for any worker
    /// count.
    #[test]
    fn prop_flat_kernel_and_parallel_sweep_match_reference(
        seed in 0u64..10_000,
        n in 2usize..6,
        series_len in 60usize..220,
        basic in 5usize..40,
        start_off in 0usize..35,
        end_off in 0usize..35,
        workers in 1usize..5,
    ) {
        let c = SERIES.collection(seed, n, series_len);
        let sketch = SketchSet::build(&c, basic).unwrap();
        let start = start_off.min(series_len - 2);
        let end = series_len - 1 - end_off.min(series_len - 2 - start);
        prop_assume!(end > start);
        let query = QueryWindow::new(end, end - start + 1).unwrap();

        let plan = QueryPlan::build(&c, &sketch, query).unwrap();
        let serial = exact::correlation_matrix(&c, &sketch, query).unwrap();
        let view = sketch.window_corrs_view(plan.full_windows());
        let (parallel, _) = fill_packed(&ScopedRunner::new(workers), &plan, view).unwrap();
        let parallel = CorrelationMatrix::from_upper_triangle(n, parallel);

        for (i, j) in c.pairs() {
            let reference = exact::pair_correlation(&c, &sketch, query, i, j).unwrap();
            prop_assert!((serial.get(i, j) - reference).abs() <= 1e-10);
            if plan.is_aligned() {
                prop_assert_eq!(serial.get(i, j).to_bits(), reference.to_bits());
            }
            prop_assert_eq!(serial.get(i, j).to_bits(), parallel.get(i, j).to_bits());
        }
    }

    /// Aligned windows take the sketch-only path (no raw data): the dense
    /// fill of the aligned matrix, planned over the source or over the query
    /// window, must be bit-identical to the reference per-pair path.
    #[test]
    fn prop_aligned_kernel_matches_reference(
        seed in 0u64..10_000,
        n in 2usize..6,
        basic in 5usize..30,
        windows_total in 4usize..12,
        skip_front in 0usize..3,
        skip_back in 0usize..3,
    ) {
        prop_assume!(skip_front + skip_back + 1 < windows_total);
        let series_len = basic * windows_total;
        let c = SERIES.collection(seed.wrapping_add(7), n, series_len);
        let sketch = SketchSet::build(&c, basic).unwrap();
        let range = skip_front..windows_total - skip_back;
        let query = QueryWindow::new(range.end * basic - 1, range.len() * basic).unwrap();

        let (matrix, _) = SourcePlan::new(&sketch, range.clone(), PlanMethod::Exact)
            .unwrap()
            .correlation_matrix(&SerialRunner)
            .unwrap();
        let dense = exact::correlation_matrix(&c, &sketch, query).unwrap();
        for (i, j) in c.pairs() {
            let reference = exact::pair_correlation(&c, &sketch, query, i, j).unwrap();
            prop_assert_eq!(matrix.get(i, j).to_bits(), reference.to_bits());
            prop_assert_eq!(dense.get(i, j).to_bits(), reference.to_bits());
        }
    }
}
