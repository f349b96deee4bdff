//! Streamed-sweep agreement guards (PR 6 tentpole).
//!
//! Four 64-case property suites — 256 cases total — pin the tile-at-a-time
//! sweep to the dense all-pairs reference on both query paths:
//!
//! * exact `network_streamed(θ)` produces exactly the edge set of
//!   `correlation_matrix(..).threshold(θ)` for random collections, random
//!   (unaligned) query windows, and random thresholds;
//! * exact `top_k(k)` returns exactly the `k` strongest dense pairs under
//!   the total-order (`f64::total_cmp` descending, packed pair index
//!   ascending), with bit-equal correlations;
//! * approximate `ApproxPlan::network_streamed(θ)` produces exactly the
//!   pairs of the dense `ApproxPlan::correlation_matrix()` within the
//!   Equation 4 radius (`distance_from_corr(c) ≤ √(2(1−θ))`), even though
//!   the streamed path skips whole tiles via per-tile upper bounds;
//! * approximate `ApproxPlan::top_k(k)` matches the sorted dense
//!   approximate matrix the same way.
//!
//! Deterministic companions cover the degenerate shapes property inputs
//! rarely hit: constant (zero-variance) series, two-series collections, and
//! NaN-bearing user matrices streamed through `sweep_matrix` (NaN pairs are
//! audited, never silently dropped, and never become edges).

use proptest::prelude::*;
use tsubasa_core::matrix::CorrelationMatrix;
use tsubasa_core::sketch::pair_index;
use tsubasa_core::sweep::{sweep_matrix, EdgeSink, TopKSink};
use tsubasa_core::{exact, QueryWindow, SeriesCollection, SketchSet};
use tsubasa_dft::plan::ApproxPlan;
use tsubasa_dft::sketch::{DftSketchSet, Transform};

fn lcg_series(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0;
            (i as f64 * 0.23).sin() * 1.5 + noise
        })
        .collect()
}

fn collection(seed: u64, n: usize, len: usize) -> SeriesCollection {
    SeriesCollection::from_rows(
        (0..n)
            .map(|s| lcg_series(seed.wrapping_add(s as u64 * 7919), len))
            .collect(),
    )
    .unwrap()
}

/// Dense pairs sorted under the top-k total order: correlation descending
/// by `total_cmp`, ties broken by ascending packed pair index.
fn sorted_pairs(matrix: &CorrelationMatrix) -> Vec<(usize, usize, f64)> {
    let n = matrix.len();
    let mut all: Vec<(usize, usize, f64)> = matrix.iter_pairs().collect();
    all.sort_by(|a, b| {
        b.2.total_cmp(&a.2)
            .then_with(|| pair_index(a.0, a.1, n).cmp(&pair_index(b.0, b.1, n)))
    });
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact path: the streamed threshold network equals the dense
    /// `threshold(θ)` edge set exactly — same strict `c > θ` predicate,
    /// same per-pair arithmetic regardless of tile boundaries.
    #[test]
    fn prop_exact_streamed_network_matches_dense(
        seed in 0u64..10_000,
        n in 2usize..7,
        series_len in 80usize..180,
        basic in 10usize..25,
        query_frac in 3usize..9,
        theta in -0.95f64..0.95,
    ) {
        prop_assume!(basic * 2 <= series_len);
        let c = collection(seed, n, series_len);
        let sketch = SketchSet::build(&c, basic).unwrap();
        // Unaligned query so head/tail partial windows are exercised.
        let end = series_len - 1 - (seed as usize % 7).min(series_len / 8);
        let len = (end + 1) * query_frac / 9;
        prop_assume!(len >= 2);
        let query = QueryWindow::new(end, len).unwrap();
        let dense = exact::correlation_matrix(&c, &sketch, query).unwrap();
        let streamed = exact::network_streamed(&c, &sketch, query, theta).unwrap();
        prop_assert_eq!(streamed.to_adjacency(), dense.threshold(theta).unwrap());
        prop_assert_eq!(streamed.nan_pair_count(), 0);
    }

    /// Exact path: `top_k(k)` is exactly the sorted dense prefix —
    /// bit-equal correlations, identical tie-breaks — even with the
    /// bound-based tile pruning active.
    #[test]
    fn prop_exact_top_k_matches_sorted_dense(
        seed in 0u64..10_000,
        n in 2usize..7,
        series_len in 80usize..180,
        basic in 10usize..25,
        k in 0usize..40,
    ) {
        prop_assume!(basic * 2 <= series_len);
        let c = collection(seed, n, series_len);
        let sketch = SketchSet::build(&c, basic).unwrap();
        let end = series_len - 1 - (seed as usize % 5).min(series_len / 8);
        let query = QueryWindow::new(end, end / 2 + 1).unwrap();
        let dense = exact::correlation_matrix(&c, &sketch, query).unwrap();
        let all = sorted_pairs(&dense);
        let top = exact::top_k(&c, &sketch, query, k).unwrap();
        prop_assert_eq!(top.edges.len(), k.min(all.len()));
        for (got, want) in top.edges.iter().zip(&all) {
            prop_assert_eq!((got.i, got.j), (want.0, want.1));
            // Bit-equal: the streamed kernel is the dense kernel.
            prop_assert_eq!(got.corr.to_bits(), want.2.to_bits());
        }
    }

    /// Approximate path: the streamed Equation 4-pruned network equals the
    /// radius predicate, spelled out here, over the dense approximate matrix
    /// — in pair order — including at tiny coefficient counts where pruning
    /// skips many tiles.
    #[test]
    fn prop_approx_streamed_network_matches_dense(
        seed in 0u64..10_000,
        n in 2usize..7,
        series_len in 80usize..180,
        basic in 10usize..25,
        coeff in 1usize..12,
        theta in -0.95f64..0.95,
    ) {
        prop_assume!(basic * 2 <= series_len);
        let c = collection(seed, n, series_len);
        let sketch = DftSketchSet::build(&c, basic, coeff, Transform::Naive).unwrap();
        let windows = 0..sketch.window_count();
        let plan = ApproxPlan::build(&sketch, windows).unwrap();
        let streamed = plan.network_streamed(theta).unwrap();
        let radius = (2.0 * (1.0 - theta)).sqrt();
        let dense: Vec<(usize, usize)> = plan
            .correlation_matrix()
            .unwrap()
            .iter_pairs()
            .filter(|&(_, _, c)| (2.0 * (1.0 - c.clamp(-1.0, 1.0))).max(0.0).sqrt() <= radius)
            .map(|(i, j, _)| (i, j))
            .collect();
        prop_assert_eq!(streamed.edges(), &dense[..]);
        prop_assert_eq!(streamed.nan_pair_count(), 0);
    }

    /// Approximate path: `ApproxPlan::top_k(k)` equals the sorted dense
    /// approximate matrix prefix bit-for-bit.
    #[test]
    fn prop_approx_top_k_matches_sorted_dense(
        seed in 0u64..10_000,
        n in 2usize..7,
        series_len in 80usize..180,
        basic in 10usize..25,
        coeff in 1usize..12,
        k in 0usize..40,
    ) {
        prop_assume!(basic * 2 <= series_len);
        let c = collection(seed, n, series_len);
        let sketch = DftSketchSet::build(&c, basic, coeff, Transform::Naive).unwrap();
        let windows = 0..sketch.window_count();
        let plan = ApproxPlan::build(&sketch, windows).unwrap();
        let all = sorted_pairs(&plan.correlation_matrix().unwrap());
        let top = plan.top_k(k);
        prop_assert_eq!(top.edges.len(), k.min(all.len()));
        for (got, want) in top.edges.iter().zip(&all) {
            prop_assert_eq!((got.i, got.j), (want.0, want.1));
            prop_assert_eq!(got.corr.to_bits(), want.2.to_bits());
        }
    }
}

/// Constant (zero-variance) series clamp to correlation 0 in the kernel;
/// the streamed and dense paths must agree on that clamp — no NaN escapes
/// on either side.
#[test]
fn degenerate_constant_series_agree_on_both_paths() {
    let c = SeriesCollection::from_rows(vec![
        vec![3.0; 120],
        lcg_series(7, 120),
        vec![-1.5; 120],
        lcg_series(11, 120),
    ])
    .unwrap();
    let sketch = SketchSet::build(&c, 15).unwrap();
    let query = QueryWindow::new(119, 90).unwrap();
    let dense = exact::correlation_matrix(&c, &sketch, query).unwrap();
    for theta in [-0.5, 0.0, 0.5] {
        let streamed = exact::network_streamed(&c, &sketch, query, theta).unwrap();
        assert_eq!(streamed.to_adjacency(), dense.threshold(theta).unwrap());
        assert_eq!(streamed.nan_pair_count(), 0, "kernel clamps, never NaN");
    }
    let top = exact::top_k(&c, &sketch, query, 6).unwrap();
    assert_eq!(top.edges.len(), 6);
    assert_eq!(top.nan_pairs, 0);
}

/// Two series is the smallest non-trivial sweep: one pair, one tile.
#[test]
fn degenerate_two_series_single_pair() {
    let c = collection(3, 2, 100);
    let sketch = SketchSet::build(&c, 20).unwrap();
    let query = QueryWindow::new(99, 80).unwrap();
    let dense = exact::correlation_matrix(&c, &sketch, query).unwrap();
    let corr = dense.get(0, 1);
    let streamed = exact::network_streamed(&c, &sketch, query, corr - 1e-6).unwrap();
    assert_eq!(streamed.edge_count(), 1);
    let streamed = exact::network_streamed(&c, &sketch, query, (corr + 1e-6).min(1.0)).unwrap();
    assert_eq!(streamed.edge_count(), 0);
    let top = exact::top_k(&c, &sketch, query, 5).unwrap();
    assert_eq!(top.edges.len(), 1);
    assert_eq!(top.edges[0].corr, corr);
}

/// NaN-bearing user matrices: the streamed sweep audits NaN pairs and the
/// edge set matches `threshold_lenient` (which also never lets a NaN pair
/// through) — the strict dense `threshold` refuses the same matrix.
#[test]
fn nan_bearing_matrix_is_audited_not_dropped() {
    let mut m = CorrelationMatrix::identity(5);
    m.set(0, 1, 0.9);
    m.set(0, 2, f64::NAN);
    m.set(1, 2, -0.3);
    m.set(2, 3, f64::NAN);
    m.set(3, 4, 0.6);
    for theta in [-0.5, 0.0, 0.55] {
        assert!(m.threshold(theta).is_err(), "strict path must refuse NaN");
        let lenient = m.threshold_lenient(theta);
        for tile in [1, 3, 1024] {
            let mut sink = EdgeSink::new(theta);
            sweep_matrix(&m, tile, &mut sink);
            let edges = sink.finish(5);
            assert_eq!(edges.nan_pair_count(), 2, "tile={tile}");
            assert_eq!(edges.to_adjacency(), lenient, "tile={tile} theta={theta}");
        }
    }
    // Top-k over the same matrix: NaN pairs are counted, never ranked.
    let mut sink = TopKSink::new(10);
    sweep_matrix(&m, 4, &mut sink);
    let top = sink.finish();
    assert_eq!(top.nan_pairs, 2);
    assert_eq!(top.edges.len(), 8, "10 pairs minus 2 NaN");
    assert_eq!((top.edges[0].i, top.edges[0].j), (0, 1));
    assert!(top.edges.iter().all(|e| !e.corr.is_nan()));
}
