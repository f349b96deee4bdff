//! Tolerance guard for the tiled batch kernels (PR 4 tentpole).
//!
//! The tiled sketch (`SketchSet::build`, window-major z-normalized rows +
//! `Z·Zᵀ` dot products) and the tiled query sweep
//! (`QueryPlan::block_kernel` over a window-major transposed correlation
//! table) reorder floating-point accumulation relative to the scalar
//! reference paths, so their contract is **agreement within `1e-10`
//! absolute** on every correlation value — pinned here over 256 random
//! configurations each — with the scalar paths
//! (`SketchSet::build_reference`, `exact::pair_correlation`) kept alive as
//! the yardstick.
//!
//! The worker-pool suites assert the orthogonal invariant: fanning either
//! sweep out over a reusable `WorkerPool` changes *nothing* — matrices are
//! identical across 1/2/8 workers and across repeated queries on one pool.

use proptest::prelude::*;
use tsubasa_core::plan::QueryPlan;
use tsubasa_core::prelude::*;
use tsubasa_core::runner::JobRunner;
use tsubasa_parallel::WorkerPool;

fn lcg_series(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 33) as f64 / (1u64 << 31) as f64 - 1.0;
            (i as f64 * 0.23).sin() * 2.0 + noise
        })
        .collect()
}

fn collection(seed: u64, n: usize, len: usize) -> SeriesCollection {
    SeriesCollection::from_rows(
        (0..n)
            .map(|s| lcg_series(seed.wrapping_add(s as u64 * 977), len))
            .collect(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Tiled sketch vs scalar reference sketch: identical per-series
    /// statistics, pair correlations within 1e-10.
    #[test]
    fn prop_tiled_sketch_agrees_with_reference(
        seed in 0u64..10_000,
        n in 2usize..40,
        series_len in 40usize..200,
        basic in 4usize..40,
    ) {
        prop_assume!(basic <= series_len);
        let c = collection(seed, n, series_len);
        let tiled = SketchSet::build(&c, basic).unwrap();
        let reference = SketchSet::build_reference(&c, basic).unwrap();
        for (i, j) in c.pairs() {
            let t = tiled.pair_sketch(i, j).unwrap();
            let r = reference.pair_sketch(i, j).unwrap();
            for (ct, cr) in t.corrs.iter().zip(&r.corrs) {
                prop_assert!((ct - cr).abs() <= 1e-10, "pair ({i},{j}): {ct} vs {cr}");
            }
        }
        for i in 0..n {
            prop_assert_eq!(
                tiled.series_sketch(i).unwrap(),
                reference.series_sketch(i).unwrap()
            );
        }
    }

    /// Block-kernel matrix sweep vs the scalar per-pair reference path on
    /// random (generally unaligned) query windows, over a reference sketch
    /// so only the query kernel is under test. `n` reaches past four panels,
    /// so the partial windows are minted over full panels, full row groups
    /// followed by a partial one, and a truncated last group.
    #[test]
    fn prop_block_kernel_agrees_with_scalar_reference(
        seed in 0u64..10_000,
        n in 2usize..40,
        series_len in 60usize..220,
        basic in 5usize..40,
        start_off in 0usize..35,
        end_off in 0usize..35,
    ) {
        let c = collection(seed.wrapping_add(13), n, series_len);
        let sketch = SketchSet::build_reference(&c, basic).unwrap();
        let start = start_off.min(series_len - 2);
        let end = series_len - 1 - end_off.min(series_len - 2 - start);
        prop_assume!(end > start);
        let query = QueryWindow::new(end, end - start + 1).unwrap();

        let matrix = exact::correlation_matrix(&c, &sketch, query).unwrap();
        let plan = QueryPlan::build(&c, &sketch, query).unwrap();
        for (i, j) in c.pairs() {
            let reference = exact::pair_correlation(&c, &sketch, query, i, j).unwrap();
            prop_assert!(
                (matrix.get(i, j) - reference).abs() <= 1e-10,
                "pair ({i},{j}): {} vs {}", matrix.get(i, j), reference
            );
            // The scalar plan kernel stays bit-identical to the reference.
            let kernel = plan.pair_correlation(&c, &sketch, i, j).unwrap();
            prop_assert_eq!(kernel.to_bits(), reference.to_bits());
        }
    }
}

#[test]
fn pool_worker_count_does_not_change_the_matrix() {
    let c = collection(42, 9, 360);
    let sketch = SketchSet::build(&c, 30).unwrap();
    // Unaligned query so the head/tail tiles run under the pool too.
    let query = QueryWindow::new(343, 250).unwrap();
    let serial = exact::correlation_matrix(&c, &sketch, query).unwrap();
    for workers in [1usize, 2, 8] {
        let pool = WorkerPool::new(workers);
        let pooled = exact::correlation_matrix_parallel_in(&pool, &c, &sketch, query).unwrap();
        assert_eq!(serial, pooled, "workers={workers}");
    }
}

#[test]
fn one_pool_serves_many_queries_without_respawning() {
    let c = collection(7, 8, 400);
    let sketch = SketchSet::build(&c, 25).unwrap();
    let pool = WorkerPool::new(4);
    assert_eq!(pool.worker_count(), 4);
    // The same pool instance is handed to every query (and a sliding-network
    // ingest) back to back; each result must equal its fresh-thread twin.
    for (end, len) in [(399usize, 300usize), (349, 200), (374, 175), (399, 100)] {
        let query = QueryWindow::new(end, len).unwrap();
        let pooled = exact::correlation_matrix_parallel_in(&pool, &c, &sketch, query).unwrap();
        let serial = exact::correlation_matrix(&c, &sketch, query).unwrap();
        assert_eq!(pooled, serial, "query ({end},{len})");
    }
    let mut net = SlidingNetwork::initialize(&c, &sketch, 200).unwrap();
    let chunk: Vec<Vec<f64>> = (0..8).map(|s| lcg_series(s as u64 + 500, 25)).collect();
    let mut twin = net.clone();
    net.ingest_in(&pool, &chunk).unwrap();
    twin.ingest(&chunk).unwrap();
    assert_eq!(net.correlation_matrix(), twin.correlation_matrix());
}
