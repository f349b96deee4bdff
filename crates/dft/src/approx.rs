//! Approximate query-window correlation from per-window Equation 3 estimates
//! of DFT distances (paper Equations 3, 4, 5 and Algorithm 4).
//!
//! Two recombination strategies are implemented:
//!
//! * [`ApproxStrategy::Equation5`] — the paper's Equation 5, which weights
//!   every per-window distance with the window's mean/σ statistics and makes
//!   no assumption that the windows look alike. Exact when all coefficients
//!   are used.
//! * [`ApproxStrategy::StatStreamAverage`] — the plain StatStream heuristic:
//!   the query-window correlation is the average of the per-window
//!   correlations. Valid only when basic-window statistics match the query
//!   window ("cooperative" series), which climate data generally are not —
//!   this is the source of the spurious edges in Figure 5a.

use tsubasa_core::error::{Error, Result};
use tsubasa_core::exact::{self, WindowContribution};
use tsubasa_core::matrix::{AdjacencyMatrix, CorrelationMatrix};
use tsubasa_core::plan::PlanMethod;
use tsubasa_core::sketch::packed_pairs;
use tsubasa_core::stats::clamp_corr;
pub use tsubasa_core::stats::{distance_from_corr, pruning_radius};
use tsubasa_core::sweep::{sweep_packed, EdgeRule, EdgeSink, DEFAULT_TILE_PAIRS};

use crate::plan::ApproxPlan;
use crate::sketch::DftSketchSet;

/// Equation 3: correlation of two unit-normalized windows from their
/// Euclidean (or DFT coefficient) distance.
pub fn corr_from_distance(d: f64) -> f64 {
    clamp_corr(1.0 - d * d / 2.0)
}

/// The StatStream heuristic: the query-window correlation is the average of
/// the per-window correlation estimates `ĉ_j = 1 − d_j²/2`.
///
/// Fails with [`Error::DegenerateWindow`] when no windows are supplied —
/// there is nothing to average, matching the error convention of
/// [`exact::combine`].
pub fn statstream_average_correlation(ests: &[f64]) -> Result<f64> {
    if ests.is_empty() {
        return Err(Error::DegenerateWindow { points: 0 });
    }
    Ok(clamp_corr(ests.iter().sum::<f64>() / ests.len() as f64))
}

/// Which recombination the approximate matrix / network construction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApproxStrategy {
    /// Paper Equation 5 (statistics-weighted recombination).
    Equation5,
    /// StatStream's per-window averaging.
    StatStreamAverage,
}

/// Approximate correlation of one pair over an aligned range of basic
/// windows.
///
/// This is the *reference* per-pair path. Its Equation 5 is Equation 3
/// substituted into Lemma 1: the pair's per-window contributions carry the
/// stored estimate `ĉ_j = 1 − d_j²/2` as their correlation and are
/// recombined by the exact path's [`exact::combine`] — algebraically the
/// paper's Equation 5 and numerically more stable. The all-pairs entry
/// points share an [`ApproxPlan`] instead and produce the same bits.
///
/// The window range and both series ids are validated before anything else,
/// the diagonal (`i == j`, correlation `1.0`) included. A degenerate (empty
/// or constant-series) window maps [`Error::DegenerateWindow`] to the
/// classic `0.0` convention, exactly as the exact path's
/// [`exact::pair_correlation`] does.
pub fn approximate_pair_correlation(
    sketch: &DftSketchSet,
    windows: std::ops::Range<usize>,
    i: usize,
    j: usize,
    strategy: ApproxStrategy,
) -> Result<f64> {
    if windows.end > sketch.window_count() || windows.is_empty() {
        return Err(Error::SketchMismatch {
            requested: format!("basic windows {windows:?}"),
            available: format!("{} sketched windows", sketch.window_count()),
        });
    }
    let base = sketch.base();
    let (sx, sy) = (base.series_sketch(i)?, base.series_sketch(j)?);
    if i == j {
        return Ok(1.0);
    }
    let ests = sketch.pair_estimates(i, j)?;
    let corr = match strategy {
        ApproxStrategy::Equation5 => exact::combine(
            &windows
                .map(|w| WindowContribution {
                    x: sx.window(w),
                    y: sy.window(w),
                    corr: ests[w],
                })
                .collect::<Vec<_>>(),
        ),
        ApproxStrategy::StatStreamAverage => statstream_average_correlation(&ests[windows]),
    };
    match corr {
        Err(Error::DegenerateWindow { .. }) => Ok(0.0),
        other => other,
    }
}

/// Approximate all-pair correlation matrix over an aligned range of basic
/// windows, evaluated through a shared [`ApproxPlan`] (per-series
/// recombination tables built once, cache-blocked tiled sweep over the
/// window-major correlation-estimate table).
pub fn approximate_correlation_matrix(
    sketch: &DftSketchSet,
    windows: std::ops::Range<usize>,
    strategy: ApproxStrategy,
) -> Result<CorrelationMatrix> {
    let plan = ApproxPlan::build(sketch, windows)?;
    match strategy {
        ApproxStrategy::Equation5 => plan.correlation_matrix(),
        ApproxStrategy::StatStreamAverage => {
            let n = plan.series_count();
            let mut values = vec![0.0f64; packed_pairs(n)];
            plan.statstream_correlations_into(&mut values);
            Ok(CorrelationMatrix::from_upper_triangle(n, values))
        }
    }
}

/// The scalar reference all-pairs matrix: [`approximate_pair_correlation`]
/// looped pair by pair — exactly the pre-plan evaluation path. Kept as the
/// arithmetic yardstick for the `approx_plan_agreement` property suite, not
/// for speed.
pub fn approximate_correlation_matrix_reference(
    sketch: &DftSketchSet,
    windows: std::ops::Range<usize>,
    strategy: ApproxStrategy,
) -> Result<CorrelationMatrix> {
    // Validate up front so empty/out-of-range windows error for every
    // series count, exactly like the plan-based path (the pair loop below
    // would never reach the per-pair validation when there are no pairs).
    if windows.end > sketch.window_count() || windows.is_empty() {
        return Err(Error::SketchMismatch {
            requested: format!("basic windows {windows:?}"),
            available: format!("{} sketched windows", sketch.window_count()),
        });
    }
    let n = sketch.series_count();
    let mut m = CorrelationMatrix::identity(n);
    for i in 0..n {
        for j in (i + 1)..n {
            m.set(
                i,
                j,
                approximate_pair_correlation(sketch, windows.clone(), i, j, strategy)?,
            );
        }
    }
    Ok(m)
}

/// Algorithm 4: the approximate climate network. Pairs are connected when
/// their estimated query-window distance is within the Equation 4 pruning
/// radius for θ — a superset of the exact network (false positives possible,
/// false negatives not, assuming distances are not over-estimated).
///
/// The Equation 5 strategy is [`ApproxPlan::network_streamed`] (tiled sweep
/// of every pair); the StatStream strategy streams the averaged
/// estimates through the same radius rule ([`EdgeRule::for_method`]).
pub fn approximate_network(
    sketch: &DftSketchSet,
    windows: std::ops::Range<usize>,
    theta: f64,
    strategy: ApproxStrategy,
) -> Result<AdjacencyMatrix> {
    // The rule checks θ before the windows; the Equation 5 sweep makes its
    // own.
    let rule = EdgeRule::for_method(PlanMethod::Approximate, theta)?;
    let plan = ApproxPlan::build(sketch, windows)?;
    let edges = match strategy {
        ApproxStrategy::Equation5 => plan.network_streamed(theta)?,
        ApproxStrategy::StatStreamAverage => {
            let n = plan.series_count();
            let mut values = vec![0.0f64; packed_pairs(n)];
            plan.statstream_correlations_into(&mut values);
            let mut sink = EdgeSink::with_rule(rule);
            sweep_packed(n, &values, DEFAULT_TILE_PAIRS, &mut sink);
            sink.finish(n)
        }
    };
    Ok(edges.to_adjacency())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sketch::Transform;
    use tsubasa_core::runner::SerialRunner;
    use tsubasa_core::source::SourcePlan;
    use tsubasa_core::stats::WindowStats;
    use tsubasa_core::sweep::TableAudit;
    use tsubasa_core::{baseline, QueryWindow, SeriesCollection, SketchSet};

    fn collection(n: usize, len: usize) -> SeriesCollection {
        SeriesCollection::from_rows(
            (0..n)
                .map(|s| {
                    (0..len)
                        .map(|i| {
                            // Strong seasonal component plus a per-series trend and
                            // deterministic "noise": deliberately uncooperative.
                            (i as f64 * 0.05).sin() * (1.0 + s as f64 * 0.2)
                                + i as f64 * 0.002 * s as f64
                                + ((i * (s + 3) + 11) % 17) as f64 * 0.05
                        })
                        .collect()
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn eq3_roundtrip() {
        for c in [-1.0, -0.3, 0.0, 0.5, 0.99, 1.0] {
            let d = distance_from_corr(c);
            assert!((corr_from_distance(d) - c).abs() < 1e-12);
        }
        assert!((pruning_radius(0.75) - (2.0f64 * 0.25).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn equation5_with_all_coefficients_is_exact() {
        let c = collection(4, 200);
        let b = 25;
        let sk = DftSketchSet::build(&c, b, b, Transform::Naive).unwrap();
        let query = QueryWindow::new(199, 200).unwrap();
        let exact = baseline::correlation_matrix(&c, query).unwrap();
        let approx = approximate_correlation_matrix(&sk, 0..8, ApproxStrategy::Equation5).unwrap();
        assert!(
            approx.max_abs_diff(&exact) < 1e-9,
            "max diff {}",
            approx.max_abs_diff(&exact)
        );
    }

    #[test]
    fn fewer_coefficients_degrade_accuracy() {
        let c = collection(4, 200);
        let b = 50;
        let query = QueryWindow::new(199, 200).unwrap();
        let exact = baseline::correlation_matrix(&c, query).unwrap();
        let full = DftSketchSet::build(&c, b, b, Transform::Naive).unwrap();
        let coarse = DftSketchSet::build(&c, b, 2, Transform::Naive).unwrap();
        let err_full = approximate_correlation_matrix(&full, 0..4, ApproxStrategy::Equation5)
            .unwrap()
            .mean_abs_diff(&exact);
        let err_coarse = approximate_correlation_matrix(&coarse, 0..4, ApproxStrategy::Equation5)
            .unwrap()
            .mean_abs_diff(&exact);
        assert!(err_full < 1e-9);
        assert!(err_coarse > err_full, "{err_coarse} vs {err_full}");
    }

    #[test]
    fn statstream_average_differs_from_exact_on_uncooperative_data() {
        // The averaging heuristic ignores mean drift across windows, so on
        // trending data it disagrees with the exact correlation.
        let c = collection(3, 200);
        let b = 50;
        let sk = DftSketchSet::build(&c, b, b, Transform::Naive).unwrap();
        let query = QueryWindow::new(199, 200).unwrap();
        let exact = baseline::correlation_matrix(&c, query).unwrap();
        let avg =
            approximate_correlation_matrix(&sk, 0..4, ApproxStrategy::StatStreamAverage).unwrap();
        assert!(avg.max_abs_diff(&exact) > 1e-3);
    }

    #[test]
    fn approximate_network_has_no_false_negatives() {
        let c = collection(6, 240);
        let b = 40;
        let theta = 0.75;
        let query = QueryWindow::new(239, 240).unwrap();
        let exact_net = baseline::correlation_matrix(&c, query)
            .unwrap()
            .threshold(theta)
            .unwrap();
        // Few coefficients → under-estimated distances → superset of edges.
        let sk = DftSketchSet::build(&c, b, 4, Transform::Naive).unwrap();
        let approx_net = approximate_network(&sk, 0..6, theta, ApproxStrategy::Equation5).unwrap();
        for i in 0..6 {
            for j in (i + 1)..6 {
                if exact_net.has_edge(i, j) {
                    assert!(
                        approx_net.has_edge(i, j),
                        "missing exact edge ({i},{j}) in the approximate network"
                    );
                }
            }
        }
        assert!(approx_net.edge_count() >= exact_net.edge_count());
    }

    #[test]
    fn exact_vs_approx_with_all_coefficients_agrees_perfectly() {
        // All coefficients kept: the approximate network is the exact one.
        let c = collection(5, 200);
        let b = 25;
        let (theta, windows) = (0.7, 0..8);
        let exact = SketchSet::build(&c, b).unwrap();
        let (exact_net, _) = SourcePlan::new(&exact, windows.clone(), PlanMethod::Exact)
            .unwrap()
            .network(&SerialRunner, theta, DEFAULT_TILE_PAIRS, TableAudit::Off)
            .unwrap();
        assert!(exact_net.edge_count() > 0);
        let sk = DftSketchSet::build(&c, b, b, Transform::Naive).unwrap();
        let approx_net = approximate_network(&sk, windows, theta, ApproxStrategy::Equation5);
        assert_eq!(approx_net.unwrap(), exact_net.to_adjacency());
    }

    #[test]
    fn entry_points_validate_inputs() {
        let c = collection(3, 100);
        assert!(DftSketchSet::build(&c, 0, 25, Transform::Naive).is_err());
        let sk = DftSketchSet::build(&c, 25, 25, Transform::Naive).unwrap();
        for windows in [0..9usize, 2..2] {
            assert!(matches!(
                ApproxPlan::build(&sk, windows).unwrap_err(),
                Error::SketchMismatch { .. }
            ));
        }
        let plan = ApproxPlan::build(&sk, 0..4).unwrap();
        assert_eq!(plan.series_count(), 3);
        assert!(matches!(
            plan.network_streamed(1.5).unwrap_err(),
            Error::InvalidThreshold(_)
        ));
        // A cloned sketch answers identically.
        let clone = sk.clone();
        assert_eq!(
            ApproxPlan::build(&clone, 0..4)
                .unwrap()
                .network_streamed(0.5)
                .unwrap(),
            plan.network_streamed(0.5).unwrap()
        );
    }

    #[test]
    fn approximate_network_validates_inputs() {
        let c = collection(3, 100);
        let sk = DftSketchSet::build(&c, 25, 25, Transform::Naive).unwrap();
        assert!(approximate_network(&sk, 0..4, 1.5, ApproxStrategy::Equation5).is_err());
        assert!(approximate_pair_correlation(&sk, 0..9, 0, 1, ApproxStrategy::Equation5).is_err());
        // Empty and out-of-range windows error identically on the plan-based
        // and the scalar reference matrix paths.
        for windows in [2..2usize, 0..9] {
            for f in [
                approximate_correlation_matrix,
                approximate_correlation_matrix_reference,
            ] {
                assert!(matches!(
                    f(&sk, windows.clone(), ApproxStrategy::Equation5).unwrap_err(),
                    Error::SketchMismatch { .. }
                ));
            }
        }
        assert_eq!(
            approximate_pair_correlation(&sk, 0..4, 2, 2, ApproxStrategy::Equation5).unwrap(),
            1.0
        );
    }

    #[test]
    fn statstream_average_helper_behaviour() {
        // No windows to average → a typed degenerate error, not a silent 0.0.
        assert!(matches!(
            statstream_average_correlation(&[]).unwrap_err(),
            Error::DegenerateWindow { points: 0 }
        ));
        // The plain mean of the per-window estimates, clamped to [-1, 1].
        assert_eq!(statstream_average_correlation(&[1.0, 1.0]).unwrap(), 1.0);
        assert_eq!(
            statstream_average_correlation(&[0.5, -0.25]).unwrap(),
            0.125
        );
        assert_eq!(statstream_average_correlation(&[1.5, 1.0]).unwrap(), 1.0);
    }

    #[test]
    fn query_correlation_rejects_degenerate_windows() {
        // Equation 5 is Lemma 1 over the estimates, so it inherits
        // `exact::combine`'s contract: a constant series has zero variance
        // across every window, the denominator vanishes and the correlation
        // is undefined — a typed error carrying the covered point count, not
        // a silent 0.0.
        let constant = WindowStats::from_values(&[5.0; 30]);
        let live = WindowStats::from_values(&(0..30).map(|i| i as f64).collect::<Vec<_>>());
        let parts = [0.955, 0.995].map(|corr| WindowContribution {
            x: constant,
            y: live,
            corr,
        });
        assert!(matches!(
            exact::combine(&parts).unwrap_err(),
            Error::DegenerateWindow { points: 60 }
        ));
    }

    #[test]
    fn the_diagonal_is_validated_like_any_pair() {
        let c = collection(3, 100);
        let sk = DftSketchSet::build(&c, 25, 25, Transform::Naive).unwrap();
        for strategy in [ApproxStrategy::Equation5, ApproxStrategy::StatStreamAverage] {
            let pair = |windows, i| approximate_pair_correlation(&sk, windows, i, i, strategy);
            assert!(matches!(pair(0..9, 1), Err(Error::SketchMismatch { .. })));
            assert!(matches!(pair(0..4, 99), Err(Error::UnknownSeries(99))));
            assert_eq!(pair(0..4, 2).unwrap(), 1.0);
        }
    }

    #[test]
    fn degenerate_pairs_map_to_zero_at_the_call_sites() {
        // A constant series through the public pair/matrix paths keeps the
        // paper's 0.0 convention — mapped explicitly from the typed error,
        // exactly as `exact::pair_correlation` does.
        let mut rows = vec![vec![7.0; 100]];
        rows.push((0..100).map(|i| (i as f64 * 0.2).sin()).collect());
        let c = SeriesCollection::from_rows(rows).unwrap();
        let sk = DftSketchSet::build(&c, 25, 25, Transform::Naive).unwrap();
        assert_eq!(
            approximate_pair_correlation(&sk, 0..4, 0, 1, ApproxStrategy::Equation5).unwrap(),
            0.0
        );
        let m = approximate_correlation_matrix(&sk, 0..4, ApproxStrategy::Equation5).unwrap();
        assert_eq!(m.get(0, 1), 0.0);
        // The StatStream average cannot detect a constant series from the
        // estimates alone (a zero-vector window sits at distance 1 from any
        // unit vector → estimate 0.5 per window); only the Equation 5
        // denominator carries that information. Its degenerate case is the
        // empty window range, covered above.
        assert!(
            approximate_pair_correlation(&sk, 0..4, 0, 1, ApproxStrategy::StatStreamAverage)
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn plan_and_reference_matrices_agree() {
        let c = collection(5, 200);
        let sk = DftSketchSet::build(&c, 25, 10, Transform::Naive).unwrap();
        for strategy in [ApproxStrategy::Equation5, ApproxStrategy::StatStreamAverage] {
            let tiled = approximate_correlation_matrix(&sk, 1..7, strategy).unwrap();
            let reference = approximate_correlation_matrix_reference(&sk, 1..7, strategy).unwrap();
            assert!(
                tiled.max_abs_diff(&reference) <= 1e-10,
                "{strategy:?}: {}",
                tiled.max_abs_diff(&reference)
            );
        }
    }
}
