//! Equality guard for the flat all-pairs kernel (PR 2 tentpole, amended by
//! the PR 4 tiled kernels).
//!
//! The scalar `QueryPlan` kernel must match the reference per-pair path
//! (`exact::pair_correlation`: `gather_contributions` → `combine`) **bit for
//! bit** across aligned and unaligned query windows: any divergence means
//! the plan's precomputed tables no longer mirror the Lemma 1 arithmetic
//! operation-for-operation.
//!
//! The matrix entry points (`correlation_matrix`, `correlation_matrix_parallel`,
//! the aligned `SourcePlan::correlation_matrix`) are the dense fill
//! (`sweep::fill_packed`) of the *tiled* batch kernel. On an aligned window that kernel performs
//! the scalar kernel's operations in the same order, so the aligned matrix
//! is pinned **bit for bit** to the reference too; on an unaligned window it
//! mints the partial head/tail correlations from z-score products, so there
//! the contract is agreement within `1e-10` absolute (see
//! `tiled_kernel_agreement.rs` for the dedicated suites), while serial and
//! parallel fills must still agree with *each other* exactly for any worker
//! count.

use proptest::prelude::*;
use tsubasa_core::plan::QueryPlan;
use tsubasa_core::prelude::*;
use tsubasa_core::runner::SerialRunner;

fn lcg_series(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0;
            (i as f64 * 0.11).sin() * 2.0 + noise
        })
        .collect()
}

fn collection(seed: u64, n: usize, len: usize) -> SeriesCollection {
    SeriesCollection::from_rows(
        (0..n)
            .map(|s| lcg_series(seed.wrapping_add(s as u64 * 131), len))
            .collect(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The scalar flat kernel equals the reference per-pair path bit-for-bit
    /// on random (generally unaligned) query windows; the tiled matrix
    /// sweeps stay within the 1e-10 tolerance contract of that same
    /// reference, and serial vs parallel sweeps agree exactly for any worker
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
        let c = collection(seed, n, series_len);
        let sketch = SketchSet::build(&c, basic).unwrap();
        let start = start_off.min(series_len - 2);
        let end = series_len - 1 - end_off.min(series_len - 2 - start);
        prop_assume!(end > start);
        let query = QueryWindow::new(end, end - start + 1).unwrap();

        let plan = QueryPlan::build(&c, &sketch, query).unwrap();
        let serial = exact::correlation_matrix(&c, &sketch, query).unwrap();
        let parallel = exact::correlation_matrix_parallel(&c, &sketch, query, workers).unwrap();

        for (i, j) in c.pairs() {
            let reference = exact::pair_correlation(&c, &sketch, query, i, j).unwrap();
            let kernel = plan.pair_correlation(&c, &sketch, i, j).unwrap();
            prop_assert_eq!(kernel.to_bits(), reference.to_bits());
            prop_assert!((serial.get(i, j) - reference).abs() <= 1e-10);
            prop_assert_eq!(serial.get(i, j).to_bits(), parallel.get(i, j).to_bits());
        }
    }

    /// Aligned windows take the sketch-only path (no raw data); the scalar
    /// kernel and the dense fill of the aligned matrix must both be
    /// bit-identical to the reference aligned helper.
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
        let c = collection(seed.wrapping_add(7), n, series_len);
        let sketch = SketchSet::build(&c, basic).unwrap();
        let range = skip_front..windows_total - skip_back;

        let plan = QueryPlan::build_aligned(&sketch, range.clone()).unwrap();
        let (matrix, _) = SourcePlan::new(&sketch, range.clone(), PlanMethod::Exact)
            .unwrap()
            .correlation_matrix(&SerialRunner)
            .unwrap();
        for (i, j) in c.pairs() {
            let reference = exact::pair_correlation_aligned(&sketch, range.clone(), i, j).unwrap();
            let kernel = plan.pair_correlation_aligned(&sketch, i, j).unwrap();
            prop_assert_eq!(kernel.to_bits(), reference.to_bits());
            prop_assert_eq!(matrix.get(i, j).to_bits(), reference.to_bits());
        }
    }
}
