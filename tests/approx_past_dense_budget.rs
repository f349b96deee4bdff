//! Approximate queries past the dense budget.
//!
//! The comparator stores the Equation 3 estimates every approximate query
//! reads, so a query borrows that table as is: nothing `pairs × windows` is
//! ever allocated, and the streamed entry points must answer — with the same
//! bits — however small the dense budget is. Only the entry points that
//! materialize the packed `N(N−1)/2` triangle may refuse.
//!
//! One `#[test]` in its own binary: it sets `TSUBASA_DENSE_LIMIT_BYTES`
//! process-wide.

use std::sync::Arc;

use tsubasa::core::prelude::*;
use tsubasa::dft::sketch::Transform;
use tsubasa::parallel::{ParallelConfig, ParallelEngine, QueryMethod, SketchMethod, WorkerPool};
use tsubasa::prelude::*;

const N: usize = 12;
const BASIC: usize = 16;
const WINDOWS: usize = 6;
const THETA: f64 = 0.35;
const K: usize = 9;

fn collection() -> SeriesCollection {
    let rows = (0..N)
        .map(|s| {
            (0..WINDOWS * BASIC)
                .map(|i| {
                    (i as f64 * 0.17 + s as f64 * 0.41).sin() + ((i * (s + 3)) % 11) as f64 * 0.07
                })
                .collect()
        })
        .collect();
    SeriesCollection::from_rows(rows).unwrap()
}

/// Every streamed approximate answer of the three entry-point groups, in a
/// fixed order, with correlations by bit pattern.
type Answers = Vec<(Vec<(usize, usize)>, Vec<(usize, usize, u64)>)>;

fn streamed_answers(
    dft: &DftSketchSet,
    engine: &ParallelEngine,
    served: &QueryEngine,
    epoch: &tsubasa::serve::Epoch,
) -> Answers {
    let ranked = |top: TopK| {
        top.edges
            .iter()
            .map(|e| (e.i, e.j, e.corr.to_bits()))
            .collect::<Vec<_>>()
    };
    let mut answers = Vec::new();
    for windows in [0..WINDOWS, 2..WINDOWS] {
        let plan = ApproxPlan::build(dft, windows.clone()).unwrap();
        answers.push((
            plan.network_streamed(THETA).unwrap().edges().to_vec(),
            ranked(plan.top_k(K)),
        ));

        let approx = QueryMethod::Approximate;
        let (edges, _) = engine.network(dft, windows.clone(), approx, THETA).unwrap();
        let (top, _) = engine.top_k(dft, windows.clone(), approx, K).unwrap();
        answers.push((edges.edges().to_vec(), ranked(top)));

        let last = windows.len() as u32;
        let approx = PlanMethod::Approximate;
        let edges = served.network_on(epoch, approx, last, THETA).unwrap();
        let top = served.top_k_on(epoch, approx, last, K as u32).unwrap();
        answers.push((edges.edges().to_vec(), ranked(top)));
    }
    answers
}

#[test]
fn streamed_approximate_queries_ignore_the_dense_budget() {
    // Build every sketch first: building is the one step the budget governs.
    let c = collection();
    let dft = DftSketchSet::build(&c, BASIC, 8, Transform::Naive).unwrap();
    let store = Arc::new(EpochStore::new(2));
    let (_ingest, epoch) = EpochIngest::dual(Arc::clone(&store), &c, BASIC, 8).unwrap();
    let served = QueryEngine::new(
        store,
        Arc::new(PlanCache::new(8)),
        Arc::new(WorkerPool::new(2)),
    );
    let engine = ParallelEngine::new(ParallelConfig {
        workers: 2,
        batch_pairs: 8,
        sketch_method: SketchMethod::Dft { coefficients: 8 },
        audit_pruned_chunks: false,
    });

    let unbudgeted = streamed_answers(&dft, &engine, &served, &epoch);
    assert!(unbudgeted
        .iter()
        .all(|(edges, top)| !edges.is_empty() && top.len() == K));
    // The three groups agree among themselves, per window range.
    for group in unbudgeted.chunks(3) {
        assert!(group[0] == group[1] && group[1] == group[2]);
    }
    let full = ApproxPlan::build(&dft, 0..WINDOWS).unwrap();
    assert!(full.correlation_matrix().is_ok());

    // A budget below one packed row of `P` values.
    let pairs = N * (N - 1) / 2;
    std::env::set_var("TSUBASA_DENSE_LIMIT_BYTES", (pairs * 8 - 8).to_string());

    // Every streamed path still answers, off lent tables, bit for bit.
    assert_eq!(streamed_answers(&dft, &engine, &served, &epoch), unbudgeted);
    let approx = PlanMethod::Approximate;
    assert!(dft.lent_table(0..WINDOWS, approx).unwrap().is_zero_copy());
    let source = epoch.source(approx).unwrap();
    assert!(source
        .lent_table(0..WINDOWS, approx)
        .unwrap()
        .is_zero_copy());

    // The paths that allocate the packed triangle still refuse.
    let too_large = |r: Result<()>| matches!(r, Err(Error::TooLarge { .. }));
    let dense = engine.query(&dft, 0..WINDOWS, QueryMethod::Approximate);
    assert!(too_large(dense.map(|_| ())));
    let plan = ApproxPlan::build(&dft, 0..WINDOWS).unwrap();
    assert!(too_large(plan.correlation_matrix().map(|_| ())));
    let sliding = SlidingApproxNetwork::initialize(&dft, WINDOWS * BASIC);
    assert!(too_large(sliding.map(|_| ())));
}
