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
//! audited, never silently dropped, and never become edges). One more pins
//! the entry points, which fan their sweep over the machine's hardware
//! threads, to a single run of the same loop bit for bit.

use proptest::prelude::*;
use tsubasa_core::matrix::CorrelationMatrix;
use tsubasa_core::plan::{runs_for_workers, CorrView, QueryPlan};
use tsubasa_core::sketch::{packed_pairs, pair_index, unpack_pair_index};
use tsubasa_core::sweep::{
    fill_packed, network_pooled, sweep_matrix, sweep_run, top_k_pooled, CorrelationBounds,
    EdgeList, EdgeRule, EdgeSink, TableAudit, TopK, TopKSink, DEFAULT_TILE_PAIRS,
};
use tsubasa_core::{
    exact, JobRunner, PlanMethod, QueryWindow, ScopedRunner, SerialRunner, SeriesCollection,
    SketchSet, SourcePlan,
};
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

/// The single-run answers of one plan over one table: the dense fill on the
/// calling thread, and one `sweep_run` of the whole triangle into one sink.
struct SingleRun {
    matrix: Vec<f64>,
    edges: Vec<(f64, EdgeList)>,
    top: Vec<(usize, TopK)>,
}

impl SingleRun {
    fn of(plan: &QueryPlan, view: CorrView<'_>, method: PlanMethod, thetas: &[f64]) -> Self {
        let n = plan.series_count();
        let all = 0..packed_pairs(n);
        let bounds = CorrelationBounds::from_plan(plan);
        // Exact networks observe every pair; approximate ones prune (Equation 4).
        let prune = (method == PlanMethod::Approximate).then_some(&bounds);
        let tile = DEFAULT_TILE_PAIRS;
        let edges = thetas
            .iter()
            .map(|&theta| {
                let rule = EdgeRule::for_method(method, theta).unwrap();
                let mut sink = EdgeSink::with_rule(rule);
                sweep_run(plan, &view, prune, all.clone(), tile, &mut sink);
                (theta, sink.finish(n))
            })
            .collect();
        // k = 2000 keeps every pair: 48 series have 1 128.
        let top = [0, 1, 5, 40, 2000]
            .into_iter()
            .map(|k| {
                let mut sink = TopKSink::new(k);
                sweep_run(plan, &view, Some(&bounds), all.clone(), tile, &mut sink);
                (k, sink.finish())
            })
            .collect();
        Self {
            matrix: fill_packed(&SerialRunner, plan, view).unwrap().0,
            edges,
            top,
        }
    }

    fn check(
        &self,
        what: &str,
        matrix: &CorrelationMatrix,
        network: impl Fn(f64) -> EdgeList,
        top_k: impl Fn(usize) -> TopK,
    ) {
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(matrix.upper_triangle()), bits(&self.matrix), "{what}");
        for (theta, want) in &self.edges {
            let got = network(*theta);
            assert_eq!(got.edges(), want.edges(), "{what} theta={theta}");
            assert_eq!(got.nan_pair_count(), want.nan_pair_count(), "{what}");
            assert_eq!(got.node_count(), want.node_count(), "{what}");
        }
        for (k, want) in &self.top {
            let got = top_k(*k);
            let ranked = |t: &TopK| -> Vec<(usize, usize, u64)> {
                t.edges
                    .iter()
                    .map(|e| (e.i, e.j, e.corr.to_bits()))
                    .collect()
            };
            assert_eq!(ranked(&got), ranked(want), "{what} k={k}");
            assert_eq!(got.nan_pairs, want.nan_pairs, "{what} k={k}");
        }
    }
}

/// Thresholds that hit the rule's boundary: three stored correlations
/// (the strongest, the median, the weakest non-NaN value) and one plain value.
fn boundary_thetas(values: &[f64]) -> Vec<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|c| !c.is_nan()).collect();
    sorted.sort_by(f64::total_cmp);
    let mut thetas = vec![0.3];
    if let (Some(&lo), Some(&hi)) = (sorted.first(), sorted.last()) {
        thetas.extend([lo, sorted[sorted.len() / 2], hi]);
    }
    thetas
}

/// The exact entry points and `ApproxPlan`'s answers run on the machine's
/// hardware threads; they, and the loops they call on two and three runs,
/// equal a single run of the same loops bit for bit — correlations, edge
/// order, NaN counts — on aligned and unaligned windows. At 48 series the
/// two-run cut falls inside a four-row partial-window group. One series is
/// constant, one holds a NaN in one basic window, and every network is also
/// asked at a θ equal to a stored correlation.
#[test]
fn pooled_entry_points_equal_a_single_run_bit_for_bit() {
    const B: usize = 16;
    // The two-run cut of 48 series falls inside row 13 — inside the aligned
    // four-row group 12..16, mid-row.
    let cut = runs_for_workers(packed_pairs(48), 2)[1].start;
    let (row, col) = unpack_pair_index(cut, 48);
    assert!(row % 4 != 0 && col > row + 1, "cut at ({row}, {col})");

    for n in [1usize, 2, 7, 9, 33, 48] {
        let mut rows: Vec<Vec<f64>> = (0..n)
            .map(|s| lcg_series(s as u64 * 31 + 5, 10 * B))
            .collect();
        if n > 2 {
            rows[1].fill(2.5);
            rows[n - 1][5 * B + 3] = f64::NAN;
        }
        let c = SeriesCollection::from_rows(rows).unwrap();
        let sketch = SketchSet::build(&c, B).unwrap();

        // Unaligned on both ends and aligned, with and without the NaN window.
        for (end, len) in [
            (10 * B - 6, 7 * B + 3),
            (10 * B - 1, 4 * B),
            (6 * B - 1, 5 * B),
        ] {
            let query = QueryWindow::new(end, len).unwrap();
            let what = format!("exact n={n} query ({end}, {len})");
            let plan = QueryPlan::build(&c, &sketch, query).unwrap();
            let view = sketch.window_corrs_view(plan.full_windows());
            let matrix = exact::correlation_matrix(&c, &sketch, query).unwrap();
            let thetas = boundary_thetas(matrix.upper_triangle());
            let single = SingleRun::of(&plan, view, PlanMethod::Exact, &thetas);
            single.check(
                &what,
                &matrix,
                |theta| exact::network_streamed(&c, &sketch, query, theta).unwrap(),
                |k| exact::top_k(&c, &sketch, query, k).unwrap(),
            );
            // The entry points' loops on more runs than a small query gets.
            let bounds = CorrelationBounds::from_plan(&plan);
            let (tile, off) = (DEFAULT_TILE_PAIRS, TableAudit::Off);
            for runner in [ScopedRunner::new(2), ScopedRunner::new(3)] {
                let values = fill_packed(&runner, &plan, view).unwrap().0;
                single.check(
                    &format!("{what} on {} runs", runner.worker_count()),
                    &CorrelationMatrix::from_upper_triangle(n, values),
                    |theta| {
                        let rule = EdgeRule::for_method(PlanMethod::Exact, theta).unwrap();
                        network_pooled(&runner, &plan, view, None, rule, tile, off).0
                    },
                    |k| top_k_pooled(&runner, &plan, view, Some(&bounds), k, tile, off).0,
                );
            }
        }

        let dft = DftSketchSet::build(&c, B, 6, Transform::Naive).unwrap();
        for windows in [0..10, 2..7, 6..10] {
            let what = format!("approximate n={n} windows {windows:?}");
            let source = SourcePlan::new(&dft, windows.clone(), PlanMethod::Approximate).unwrap();
            let plan = ApproxPlan::build(&dft, windows).unwrap();
            let matrix = plan.correlation_matrix().unwrap();
            let thetas = boundary_thetas(matrix.upper_triangle());
            let single = SingleRun::of(
                source.query_plan(),
                source.table(),
                PlanMethod::Approximate,
                &thetas,
            );
            single.check(
                &what,
                &matrix,
                |theta| plan.network_streamed(theta).unwrap(),
                |k| plan.top_k(k),
            );
            let (tile, off) = (DEFAULT_TILE_PAIRS, TableAudit::Off);
            for runner in [ScopedRunner::new(2), ScopedRunner::new(3)] {
                single.check(
                    &format!("{what} on {} runs", runner.worker_count()),
                    &source.correlation_matrix(&runner).unwrap().0,
                    |theta| source.network(&runner, theta, tile, off).unwrap().0,
                    |k| source.top_k(&runner, k, tile, off).0,
                );
            }
        }
    }
}
