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
use tsubasa_core::matrix::{AdjacencyMatrix, CorrelationMatrix};
use tsubasa_core::plan::PlanMethod;
use tsubasa_core::sketch::packed_pairs;
use tsubasa_core::stats::{clamp_corr, WindowStats};
pub use tsubasa_core::stats::{distance_from_corr, pruning_radius};
use tsubasa_core::sweep::{sweep_packed, EdgeRule, EdgeSink, DEFAULT_TILE_PAIRS};

use crate::plan::ApproxPlan;
use crate::sketch::DftSketchSet;

/// Equation 3: correlation of two unit-normalized windows from their
/// Euclidean (or DFT coefficient) distance.
pub fn corr_from_distance(d: f64) -> f64 {
    clamp_corr(1.0 - d * d / 2.0)
}

/// One basic window's contribution to the approximate recombination: the two
/// per-series statistics plus the pair's stored Equation 3 estimate
/// `ĉ_j = 1 − d_j²/2` of the DFT coefficient distance `d_j`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxWindow {
    /// Statistics of this window of the first series.
    pub x: WindowStats,
    /// Statistics of this window of the second series.
    pub y: WindowStats,
    /// Equation 3 estimate of the normalized windows' correlation.
    pub est: f64,
}

/// Equation 5 (combined with Equation 3): the approximate correlation of the
/// query window assembled from per-window statistics and estimates.
///
/// Implemented by substituting the per-window correlation estimate
/// `c_j ≈ ĉ_j = 1 − d_j²/2` into the Lemma 1 recombination, which is
/// algebraically identical to the paper's Equation 5 and numerically more
/// stable.
///
/// Fails with [`Error::DegenerateWindow`] when the recombined window covers
/// no points at all or has zero variance in either series (a constant
/// series) — Pearson correlation is undefined there, the same contract as
/// the exact path's [`tsubasa_core::exact::combine`]. Callers that want the
/// classic "constant ⇒ 0.0" convention map the error explicitly, as
/// [`approximate_pair_correlation`] does.
pub fn query_correlation(parts: &[ApproxWindow]) -> Result<f64> {
    let total: f64 = parts.iter().map(|p| p.x.len as f64).sum();
    if total == 0.0 {
        return Err(Error::DegenerateWindow { points: 0 });
    }
    let mean_x = parts.iter().map(|p| p.x.len as f64 * p.x.mean).sum::<f64>() / total;
    let mean_y = parts.iter().map(|p| p.y.len as f64 * p.y.mean).sum::<f64>() / total;
    let mut num = 0.0;
    let mut den_x = 0.0;
    let mut den_y = 0.0;
    for p in parts {
        let b = p.x.len as f64;
        let dx = p.x.mean - mean_x;
        let dy = p.y.mean - mean_y;
        num += b * (p.x.std * p.y.std * p.est + dx * dy);
        den_x += b * (p.x.std * p.x.std + dx * dx);
        den_y += b * (p.y.std * p.y.std + dy * dy);
    }
    if den_x <= 0.0 || den_y <= 0.0 {
        return Err(Error::DegenerateWindow {
            points: total as usize,
        });
    }
    Ok(clamp_corr(num / (den_x.sqrt() * den_y.sqrt())))
}

/// Equation 5 expressed as a distance (`Dist_n(X̂, Ŷ)` of the whole query
/// window): `Dist² = 2(1 − corr)`. Propagates
/// [`Error::DegenerateWindow`] from [`query_correlation`].
pub fn query_distance(parts: &[ApproxWindow]) -> Result<f64> {
    Ok(distance_from_corr(query_correlation(parts)?))
}

/// The StatStream heuristic: the query-window correlation is the average of
/// the per-window correlation estimates `ĉ_j = 1 − d_j²/2`.
///
/// Fails with [`Error::DegenerateWindow`] when no windows are supplied —
/// there is nothing to average, matching the error convention of
/// [`query_correlation`].
pub fn statstream_average_correlation(ests: &[f64]) -> Result<f64> {
    if ests.is_empty() {
        return Err(Error::DegenerateWindow { points: 0 });
    }
    Ok(clamp_corr(ests.iter().sum::<f64>() / ests.len() as f64))
}

/// Map the [`Error::DegenerateWindow`] produced by an empty or
/// constant-series window to the `0.0` correlation convention of
/// [`tsubasa_core::stats::pearson`], passing every other error through —
/// the approximate twin of the exact path's explicit mapping.
fn degenerate_to_zero(r: Result<f64>) -> Result<f64> {
    match r {
        Err(Error::DegenerateWindow { .. }) => Ok(0.0),
        other => other,
    }
}

/// Which recombination the approximate matrix / network construction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApproxStrategy {
    /// Paper Equation 5 (statistics-weighted recombination).
    Equation5,
    /// StatStream's per-window averaging.
    StatStreamAverage,
}

fn gather_parts(
    sketch: &DftSketchSet,
    windows: std::ops::Range<usize>,
    i: usize,
    j: usize,
) -> Result<Vec<ApproxWindow>> {
    let base = sketch.base();
    let sx = base.series_sketch(i)?;
    let sy = base.series_sketch(j)?;
    let ests = sketch.pair_estimates(i, j)?;
    Ok(windows
        .map(|w| ApproxWindow {
            x: sx.window(w),
            y: sy.window(w),
            est: ests[w],
        })
        .collect())
}

/// Approximate correlation of one pair over an aligned range of basic
/// windows.
///
/// This is the *reference* per-pair path: it materializes the pair's
/// [`ApproxWindow`] contributions and recombines them scalar-ly; the
/// all-pairs entry points share an [`ApproxPlan`] instead and agree with
/// this path within `1e-10` absolute. A degenerate (empty or
/// constant-series) window maps [`Error::DegenerateWindow`] to the classic
/// `0.0` convention, exactly as the exact path's
/// [`tsubasa_core::exact::pair_correlation`] does.
pub fn approximate_pair_correlation(
    sketch: &DftSketchSet,
    windows: std::ops::Range<usize>,
    i: usize,
    j: usize,
    strategy: ApproxStrategy,
) -> Result<f64> {
    if i == j {
        return Ok(1.0);
    }
    if windows.end > sketch.window_count() || windows.is_empty() {
        return Err(Error::SketchMismatch {
            requested: format!("basic windows {windows:?}"),
            available: format!("{} sketched windows", sketch.window_count()),
        });
    }
    match strategy {
        ApproxStrategy::Equation5 => {
            let parts = gather_parts(sketch, windows, i, j)?;
            degenerate_to_zero(query_correlation(&parts))
        }
        ApproxStrategy::StatStreamAverage => {
            let ests = sketch.pair_estimates(i, j)?;
            degenerate_to_zero(statstream_average_correlation(
                &ests[windows.start..windows.end],
            ))
        }
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
        // No windows at all → points: 0, the exact path's `combine(&[])`
        // convention.
        assert!(matches!(
            query_correlation(&[]).unwrap_err(),
            Error::DegenerateWindow { points: 0 }
        ));
        // A constant series has zero variance across every window: the
        // denominator vanishes and the correlation is undefined — a typed
        // error carrying the covered point count, not a silent 0.0.
        let constant = WindowStats::from_values(&[5.0; 30]);
        let live = WindowStats::from_values(&(0..30).map(|i| i as f64).collect::<Vec<_>>());
        let parts = [
            ApproxWindow {
                x: constant,
                y: live,
                est: 0.955,
            },
            ApproxWindow {
                x: constant,
                y: live,
                est: 0.995,
            },
        ];
        assert!(matches!(
            query_correlation(&parts).unwrap_err(),
            Error::DegenerateWindow { points: 60 }
        ));
        assert!(query_distance(&parts).is_err());
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
