//! Basic-window normalization for the DFT comparator.
//!
//! A basic window `x = [x_1, ..., x_B]` is normalized to *unit norm*:
//! `x̂_i = (x_i − mean) / (σ · √B)`. With this convention
//!
//! * `‖x̂‖ = 1`, so the correlation/distance identity of paper Equation 3
//!   holds exactly: `corr(x, y) = 1 − d(x̂, ŷ)²/2`;
//! * the unitary DFT of `x̂` preserves the distance, so coefficient distances
//!   approximate `d(x̂, ŷ)` from below.
//!
//! A constant window has no direction; it normalizes to the all-zero vector,
//! consistent with `tsubasa-core`'s convention that its correlation with
//! anything is 0.

use tsubasa_core::stats::WindowStats;

/// Normalize a window to unit norm using its (pre-computed) statistics.
pub fn normalize_unit_with_stats(values: &[f64], stats: &WindowStats) -> Vec<f64> {
    let mut out = vec![0.0; values.len()];
    normalize_unit_into(values, stats, out.iter_mut());
    out
}

/// [`normalize_unit_with_stats`] into any run of slots, one per value: a
/// slice, or one lane of a packed block
/// ([`tsubasa_core::stats::packed_lane_mut`]), the input of
/// [`crate::dft::window_dft_into`].
pub fn normalize_unit_into<'a>(
    values: &[f64],
    stats: &WindowStats,
    out: impl Iterator<Item = &'a mut f64>,
) {
    if stats.std == 0.0 {
        out.for_each(|slot| *slot = 0.0);
        return;
    }
    let denom = stats.std * (values.len() as f64).sqrt();
    for (slot, &v) in out.zip(values) {
        *slot = (v - stats.mean) / denom;
    }
}

/// Normalize a window to unit norm, computing its statistics on the fly.
pub fn normalize_unit(values: &[f64]) -> Vec<f64> {
    let stats = WindowStats::from_values(values);
    normalize_unit_with_stats(values, &stats)
}

/// Euclidean distance between two equally long normalized windows.
pub fn normalized_distance(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tsubasa_core::stats::pearson;

    #[test]
    fn normalized_window_has_unit_norm() {
        let x: Vec<f64> = (0..40)
            .map(|i| (i as f64 * 0.3).sin() * 3.0 + 10.0)
            .collect();
        let n = normalize_unit(&x);
        let norm: f64 = n.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
        // Zero mean.
        assert!(n.iter().sum::<f64>().abs() < 1e-9);
    }

    #[test]
    fn constant_window_normalizes_to_zero() {
        let n = normalize_unit(&[5.0; 10]);
        assert!(n.iter().all(|&v| v == 0.0));
        assert!(normalize_unit(&[]).is_empty());
    }

    #[test]
    fn equation3_distance_correlation_identity() {
        let x: Vec<f64> = (0..50)
            .map(|i| (i as f64 * 0.2).sin() + 0.05 * i as f64)
            .collect();
        let y: Vec<f64> = (0..50)
            .map(|i| (i as f64 * 0.22).cos() * 2.0 - 1.0)
            .collect();
        let d = normalized_distance(&normalize_unit(&x), &normalize_unit(&y));
        let corr = pearson(&x, &y);
        assert!((corr - (1.0 - d * d / 2.0)).abs() < 1e-9);
    }

    proptest! {
        /// corr = 1 − d²/2 for every pair of non-constant windows.
        #[test]
        fn prop_equation3_identity(
            x in proptest::collection::vec(-100.0f64..100.0, 4..80),
            y in proptest::collection::vec(-100.0f64..100.0, 4..80),
        ) {
            let n = x.len().min(y.len());
            let (x, y) = (&x[..n], &y[..n]);
            let sx = tsubasa_core::stats::WindowStats::from_values(x);
            let sy = tsubasa_core::stats::WindowStats::from_values(y);
            prop_assume!(sx.std > 1e-9 && sy.std > 1e-9);
            let d = normalized_distance(&normalize_unit(x), &normalize_unit(y));
            let corr = pearson(x, y);
            prop_assert!((corr - (1.0 - d * d / 2.0)).abs() < 1e-7);
        }
    }
}
