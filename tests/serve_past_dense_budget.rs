//! Served queries past the dense budget.
//!
//! A served key's correlation view is `8·P` bytes, so the engine fills one
//! only when it fits the dense budget. Past it, nothing is materialized:
//! every query is its key's `SourcePlan` streamed on the pool, answers
//! bit-identically to the serial `SourcePlan`, and the cache holds plans but
//! no view.
//!
//! One `#[test]` in its own binary: it sets `TSUBASA_DENSE_LIMIT_BYTES`
//! process-wide.

use std::sync::Arc;

use tsubasa::core::prelude::*;
use tsubasa::core::sweep::{TableAudit, DEFAULT_TILE_PAIRS};
use tsubasa::core::SerialRunner;
use tsubasa::dft::sketch::Transform;
use tsubasa::parallel::WorkerPool;
use tsubasa::prelude::*;

const N: usize = 12;
const BASIC: usize = 16;
const WINDOWS: usize = 6;

#[test]
fn served_queries_past_the_dense_budget_stream_without_a_view() {
    let rows = (0..N)
        .map(|s| {
            (0..WINDOWS * BASIC)
                .map(|i| {
                    (i as f64 * 0.13 + s as f64 * 0.57).cos() + ((i * (s + 2)) % 7) as f64 * 0.09
                })
                .collect()
        })
        .collect();
    let c = SeriesCollection::from_rows(rows).unwrap();
    // Build before lowering the budget: building is the one step it governs
    // besides the view.
    let dft = DftSketchSet::build(&c, BASIC, 8, Transform::Fft).unwrap();
    let store = Arc::new(EpochStore::new(2));
    store
        .publish(Some(dft.base().clone()), Some(dft.clone()))
        .unwrap();
    let served = QueryEngine::new(
        store,
        Arc::new(PlanCache::new(8)),
        Arc::new(WorkerPool::new(2)),
    );

    // One view is `8·P` bytes: one value short of it.
    let pairs = N * (N - 1) / 2;
    std::env::set_var("TSUBASA_DENSE_LIMIT_BYTES", (pairs * 8 - 8).to_string());

    let ranked = |top: &TopK| {
        let edges = top.edges.iter().map(|e| (e.i, e.j, e.corr.to_bits()));
        (edges.collect::<Vec<_>>(), top.nan_pairs)
    };
    for method in [PlanMethod::Exact, PlanMethod::Approximate] {
        for last in [0u32, 2] {
            let windows = WINDOWS - if last == 0 { WINDOWS } else { last as usize }..WINDOWS;
            for (theta, k) in [(-0.2, 1u32), (0.35, 9), (0.8, 40)] {
                let (_, net) = served.network(method, last, theta).unwrap();
                let (_, top) = served.top_k(method, last, k).unwrap();
                let plan = SourcePlan::new(&dft, windows.clone(), method).unwrap();
                let tiles = DEFAULT_TILE_PAIRS;
                let (want_net, _) = plan
                    .network(&SerialRunner, theta, tiles, TableAudit::Off)
                    .unwrap();
                let (want_top, _) = plan.top_k(&SerialRunner, k as usize, tiles, TableAudit::Off);
                let case = format!("{method:?} last {last} θ {theta} k {k}");
                assert_eq!(net.edges(), want_net.edges(), "{case}");
                assert_eq!(net.nan_pair_count(), want_net.nan_pair_count(), "{case}");
                assert_eq!(ranked(&top), ranked(&want_top), "{case}");
            }
        }
    }

    // Four keys planned and cached, every repeat a hit, no view held.
    let stats = served.cache().stats();
    assert_eq!((stats.misses, stats.hits, stats.len), (4, 20, 4));
    assert_eq!(stats.view_bytes, 0);
}
