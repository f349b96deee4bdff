//! Tolerance and pruning guards for the approximate plan layer.
//!
//! Three 256-case property suites:
//!
//! * the comparator window kernel of `DftSketchSet::build`
//!   (panel-packed coefficient rows, `tiled_pair_dist_sq_in`, then the
//!   Equation 3 epilogue) agrees with the scalar per-pair
//!   `coefficient_distance` path (`DftSketchSet::build_reference`) within
//!   `1e-10` absolute on every stored pair-window estimate `1 − d²/2` — the
//!   same tolerance contract as `tests/tiled_kernel_agreement.rs`;
//! * the batched `ApproxPlan` Equation 5 sweep equals the scalar per-pair
//!   reference recombination (`exact::combine` over the stored estimates)
//!   **bit for bit** on every correlation — the same kernel, the same
//!   operations in the same order, as the exact path's aligned matrix —
//!   and the StatStream-average sweep agrees with its reference within
//!   `1e-10` absolute;
//! * the Equation 4 pruning guarantee holds end-to-end: with all
//!   coefficients kept, the pruned approximate network misses no edge of the
//!   exact network (`NetworkComparison::has_no_false_negatives`) for random
//!   series and random thresholds.

mod support;

use proptest::prelude::*;
use support::Generator;
use tsubasa_core::{PlanMethod, SerialRunner, SketchSet, SourcePlan};
use tsubasa_dft::approx::{
    approximate_correlation_matrix, approximate_correlation_matrix_reference,
    approximate_pair_correlation, ApproxStrategy,
};
use tsubasa_dft::plan::ApproxPlan;
use tsubasa_dft::sketch::{DftSketchSet, Transform};
use tsubasa_network::NetworkComparison;

const SERIES: Generator = Generator {
    freq: 0.19,
    amp: 2.0,
    stride: 613,
};

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
        let c = SERIES.collection(seed, n, series_len);
        let tiled = DftSketchSet::build(&c, basic, coeff, Transform::Naive).unwrap();
        let reference = DftSketchSet::build_reference(&c, basic, coeff).unwrap();
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
    /// random window subranges and coefficient counts, for both strategies:
    /// Equation 5 bit for bit, the StatStream average within 1e-10.
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
        let c = SERIES.collection(seed.wrapping_add(7), n, series_len);
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
                m.get(i, j).to_bits() == reference.to_bits(),
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
        let c = SERIES.collection(seed.wrapping_add(29), n, series_len);

        // All coefficients kept: distances are exact (up to FP), so the
        // Equation 4 radius prunes nothing that the exact network keeps.
        let sk = DftSketchSet::build(&c, basic, basic, Transform::Naive).unwrap();
        let ns = sk.window_count();
        let approx_net = ApproxPlan::build(&sk, 0..ns)
            .unwrap()
            .network_streamed(theta)
            .unwrap()
            .to_adjacency();

        let exact_sketch = SketchSet::build(&c, basic).unwrap();
        let exact_net = SourcePlan::new(&exact_sketch, 0..ns, PlanMethod::Exact)
            .unwrap()
            .correlation_matrix(&SerialRunner)
            .unwrap()
            .0
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
