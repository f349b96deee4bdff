//! Tolerance and pruning guards for the approximate plan layer (PR 5
//! tentpole).
//!
//! Three 256-case property suites:
//!
//! * the comparator window kernel of `DftSketchSet::build`
//!   (panel-packed coefficient rows, `tiled_pair_dist_sq_in`, then the
//!   Equation 3 epilogue) agrees with the scalar per-pair
//!   `coefficient_distance` path (`DftSketchSet::build_reference`) within
//!   `1e-10` absolute on every stored pair-window estimate `1 − d²/2` — the
//!   same tolerance contract as `tests/tiled_kernel_agreement.rs`;
//! * the batched `ApproxPlan` Equation 5 sweep (and the StatStream-average
//!   sweep) agree with the scalar per-pair reference recombination within
//!   `1e-10` absolute on every correlation;
//! * the Equation 4 pruning guarantee holds end-to-end: with all
//!   coefficients kept, the pruned approximate network misses no edge of the
//!   exact network (`NetworkComparison::has_no_false_negatives`) for random
//!   series and random thresholds.

use proptest::prelude::*;
use tsubasa_core::{exact, SeriesCollection, SketchSet};
use tsubasa_dft::approx::{
    approximate_correlation_matrix, approximate_correlation_matrix_reference,
    approximate_pair_correlation, ApproxStrategy,
};
use tsubasa_dft::plan::ApproxPlan;
use tsubasa_dft::sketch::{DftSketchSet, Transform};
use tsubasa_network::NetworkComparison;

fn lcg_series(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0;
            (i as f64 * 0.19).sin() * 2.0 + noise
        })
        .collect()
}

fn collection(seed: u64, n: usize, len: usize) -> SeriesCollection {
    SeriesCollection::from_rows(
        (0..n)
            .map(|s| lcg_series(seed.wrapping_add(s as u64 * 613), len))
            .collect(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Tiled sketch rows vs the scalar per-pair reference: every stored
    /// pair-window estimate of the coefficient distance within 1e-10 (in
    /// practice the two agree at the last-ulp level — the difference-square
    /// sweep has no cancelling terms), identical base statistics.
    #[test]
    fn prop_tiled_distances_agree_with_scalar(
        seed in 0u64..10_000,
        n in 2usize..6,
        series_len in 40usize..140,
        basic in 4usize..16,
        coeff in 1usize..16,
    ) {
        prop_assume!(basic <= series_len);
        let c = collection(seed, n, series_len);
        let tiled = DftSketchSet::build(&c, basic, coeff, Transform::Naive).unwrap();
        let reference = DftSketchSet::build_reference(&c, basic, coeff, Transform::Naive).unwrap();
        prop_assert_eq!(tiled.coefficients(), reference.coefficients());
        prop_assert_eq!(tiled.base(), reference.base());
        for (i, j) in c.pairs() {
            let dt = tiled.pair_estimates(i, j).unwrap();
            let dr = reference.pair_estimates(i, j).unwrap();
            for (w, (a, b)) in dt.iter().zip(dr).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-10,
                    "pair ({},{}) window {}: {} vs {}", i, j, w, a, b
                );
            }
        }
    }

    /// Batched ApproxPlan sweep vs the scalar per-pair recombination, on
    /// random window subranges and coefficient counts, for both strategies.
    #[test]
    fn prop_approx_plan_agrees_with_scalar_reference(
        seed in 0u64..10_000,
        n in 2usize..6,
        series_len in 60usize..160,
        basic in 5usize..16,
        coeff in 1usize..16,
        start_frac in 0usize..3,
    ) {
        prop_assume!(basic <= series_len);
        let c = collection(seed.wrapping_add(7), n, series_len);
        let sk = DftSketchSet::build(&c, basic, coeff, Transform::Naive).unwrap();
        let ns = sk.window_count();
        let start = (start_frac * ns / 4).min(ns - 1);
        let windows = start..ns;

        let plan = ApproxPlan::build(&sk, windows.clone()).unwrap();
        let m = plan.correlation_matrix().unwrap();
        for (i, j) in c.pairs() {
            let reference = approximate_pair_correlation(
                &sk, windows.clone(), i, j, ApproxStrategy::Equation5,
            ).unwrap();
            prop_assert!(
                (m.get(i, j) - reference).abs() <= 1e-10,
                "pair ({},{}): {} vs {}", i, j, m.get(i, j), reference
            );
        }

        let avg = approximate_correlation_matrix(
            &sk, windows.clone(), ApproxStrategy::StatStreamAverage,
        ).unwrap();
        let avg_ref = approximate_correlation_matrix_reference(
            &sk, windows, ApproxStrategy::StatStreamAverage,
        ).unwrap();
        prop_assert!(avg.max_abs_diff(&avg_ref) <= 1e-10);
    }

    /// Equation 4 end-to-end: with all coefficients kept, the pruned
    /// approximate network is a no-false-negative superset of the exact
    /// network for random series and random thresholds.
    #[test]
    fn prop_eq4_pruning_has_no_false_negatives(
        seed in 0u64..10_000,
        n in 2usize..7,
        series_len in 60usize..160,
        basic in 5usize..16,
        theta_step in 0usize..19,
    ) {
        prop_assume!(basic <= series_len);
        let theta = theta_step as f64 * 0.05;
        let c = collection(seed.wrapping_add(29), n, series_len);

        // All coefficients kept: distances are exact (up to FP), so the
        // Equation 4 radius prunes nothing that the exact network keeps.
        let sk = DftSketchSet::build(&c, basic, basic, Transform::Naive).unwrap();
        let ns = sk.window_count();
        let approx_net = ApproxPlan::build(&sk, 0..ns).unwrap().network(theta).unwrap();

        let exact_sketch = SketchSet::build(&c, basic).unwrap();
        let exact_net = exact::correlation_matrix_aligned(&exact_sketch, 0..ns)
            .unwrap()
            .threshold(theta)
            .unwrap();

        let cmp = NetworkComparison::compare(&exact_net, &approx_net);
        prop_assert!(
            cmp.has_no_false_negatives(),
            "theta {}: {} exact edges, {} candidate edges, {} false negatives",
            theta, cmp.reference_edges, cmp.candidate_edges, cmp.false_negatives
        );
        prop_assert!(cmp.candidate_edges >= cmp.reference_edges);
    }
}
