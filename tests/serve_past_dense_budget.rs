//! Served queries past the dense budget.
//!
//! A served key's correlation view is `8·P` bytes, so the engine fills one
//! only when it fits the dense budget. Past it, nothing is materialized:
//! every query is its key's `SourcePlan` streamed on the pool (on a
//! one-worker pool, one run on the calling thread), answers bit-identically
//! to the serial `SourcePlan`, and the cache holds plans but no view. A delta subscription past the budget scans each epoch by one
//! streamed sweep, and its replayed deltas equal every epoch's serial
//! network.
//!
//! One `#[test]` in its own binary: it sets `TSUBASA_DENSE_LIMIT_BYTES`
//! process-wide.

use std::collections::BTreeSet;
use std::sync::Arc;

use tsubasa::core::prelude::*;
use tsubasa::core::sweep::{TableAudit, DEFAULT_TILE_PAIRS};
use tsubasa::core::SerialRunner;
use tsubasa::dft::sketch::Transform;
use tsubasa::parallel::WorkerPool;
use tsubasa::prelude::*;
use tsubasa::serve::Method;

const N: usize = 12;
const BASIC: usize = 16;
const WINDOWS: usize = 6;

/// The dual sketch of the seeded series, shifted by `phase`.
fn dual_sketch(phase: f64) -> DftSketchSet {
    let rows = (0..N)
        .map(|s| {
            (0..WINDOWS * BASIC)
                .map(|i| {
                    (i as f64 * 0.13 + s as f64 * (0.57 + phase)).cos()
                        + ((i * (s + 2)) % 7) as f64 * 0.09
                })
                .collect()
        })
        .collect();
    let c = SeriesCollection::from_rows(rows).unwrap();
    DftSketchSet::build(&c, BASIC, 8, Transform::Naive).unwrap()
}

#[test]
fn served_queries_past_the_dense_budget_stream_without_a_view() {
    // Build before lowering the budget: building is the one step it governs
    // besides the view. The later epochs feed the subscription leg.
    let dft = dual_sketch(0.0);
    let later: Vec<DftSketchSet> = [0.4, 0.9].into_iter().map(dual_sketch).collect();

    // One view is `8·P` bytes: one value short of it.
    let pairs = N * (N - 1) / 2;
    std::env::set_var("TSUBASA_DENSE_LIMIT_BYTES", (pairs * 8 - 8).to_string());

    // Two runs of each sweep on the pool, and one inline on the calling
    // thread: a one-worker pool is never woken.
    for workers in [2, 1] {
        serve_past_the_budget(&dft, &later, workers);
    }
}

/// Every query and subscription of an engine with a `workers`-thread pool
/// over `dft` and then the `later` epochs, past the dense budget, against
/// the serial `SourcePlan`.
fn serve_past_the_budget(dft: &DftSketchSet, later: &[DftSketchSet], workers: usize) {
    let store = Arc::new(EpochStore::new(4));
    store
        .publish(Some(dft.base().clone()), Some(dft.clone()))
        .unwrap();
    let served = Arc::new(QueryEngine::new(
        Arc::clone(&store),
        Arc::new(PlanCache::new(8)),
        Arc::new(WorkerPool::new(workers)),
    ));

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
                let plan = SourcePlan::new(dft, windows.clone(), method).unwrap();
                let tiles = DEFAULT_TILE_PAIRS;
                let (want_net, _) = plan
                    .network(&SerialRunner, theta, tiles, TableAudit::Off)
                    .unwrap();
                let (want_top, _) = plan.top_k(&SerialRunner, k as usize, tiles, TableAudit::Off);
                let case = format!("{workers} workers {method:?} last {last} θ {theta} k {k}");
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

    // A subscription per method over TCP; each replays its deltas onto its
    // baseline and must reach every epoch's serial network.
    let handle = tsubasa::serve::start(Arc::clone(&served), "127.0.0.1:0").unwrap();
    let serial = |dft: &DftSketchSet, method, theta| {
        let plan = SourcePlan::new(dft, 0..WINDOWS, method).unwrap();
        let (net, _) = plan
            .network(&SerialRunner, theta, DEFAULT_TILE_PAIRS, TableAudit::Off)
            .unwrap();
        let edges: BTreeSet<(u32, u32)> = net
            .edges()
            .iter()
            .map(|&(i, j)| (i as u32, j as u32))
            .collect();
        (edges, net.nan_pair_count() as u64)
    };
    let theta = 0.35;
    let wire = [Method::Exact, Method::Approximate];
    let mut clients: Vec<_> = wire
        .iter()
        .map(|&method| {
            let mut client = ServeClient::connect(handle.local_addr()).unwrap();
            let baseline = client.subscribe_deltas(method, theta, 2).unwrap();
            let edges: BTreeSet<(u32, u32)> = baseline.edges.into_iter().collect();
            (client, edges, baseline.nan_pairs)
        })
        .collect();
    let methods = [PlanMethod::Exact, PlanMethod::Approximate];
    for ((_, edges, nan_pairs), method) in clients.iter().zip(methods) {
        assert_eq!((edges.clone(), *nan_pairs), serial(dft, method, theta));
    }
    let mut flips = 0;
    for (step, next) in later.iter().enumerate() {
        store
            .publish(Some(next.base().clone()), Some(next.clone()))
            .unwrap();
        for ((client, edges, _), method) in clients.iter_mut().zip(methods) {
            let delta = client.next_delta().unwrap();
            assert_eq!(delta.epoch, 2 + step as u64);
            for pair in &delta.vanished {
                assert!(edges.remove(pair), "vanished edge {pair:?} was absent");
            }
            for pair in &delta.appeared {
                assert!(edges.insert(*pair), "appeared edge {pair:?} was present");
            }
            flips += delta.appeared.len() + delta.vanished.len();
            let case = format!("{workers} workers {method:?} epoch {}", delta.epoch);
            let want = serial(next, method, theta);
            assert_eq!((edges.clone(), delta.nan_pairs), want, "{case}");
        }
    }
    assert!(flips > 0, "the epochs must flip edges");
    let view_bytes = served.cache().stats().view_bytes;
    assert_eq!(view_bytes, 0, "no view past the budget");
    handle.shutdown();
}
