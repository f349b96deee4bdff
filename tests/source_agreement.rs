//! Cross-backend [`CorrSource`] agreement grid.
//!
//! The tentpole invariant of the unified query pipeline: every backend — an
//! in-memory sketch built in one block, the same sketch grown window by
//! window (separately allocated shared rows), the mapped pile, and the pile
//! with mmap disabled (`TSUBASA_PILE_NO_MMAP=1`) — answers matrix, network,
//! and top-k queries **bit-identically** under both query methods, at any
//! worker count. The engine's `query`/`network`/`top_k` are written once
//! against the trait, so this grid is the proof that every backend lends the
//! kernel the same window-major values, however its rows are laid out: 144
//! cases of `{built, grown, pile, pile-no-mmap} × {exact, approximate} ×
//! {matrix, network(θ), top_k} × {1, 2, 8 workers}` over two window ranges.
//! A third test holds the engine's approximate network to the serial
//! `ApproxPlan` and the served answer at radius-boundary thresholds, and a
//! fourth holds the sliding approximate networks to the same answer.

use std::ops::Range;
use std::path::PathBuf;

use std::sync::Arc;

use tsubasa::core::plan::WindowRows;
use tsubasa::core::prelude::*;
use tsubasa::core::sketch::{arriving_corrs, arriving_window};
use tsubasa::parallel::{ParallelConfig, ParallelEngine, QueryMethod, SketchMethod, WorkerPool};
use tsubasa::serve::{mirror_sketches_to_pile, EpochStore, PlanCache, QueryEngine};
use tsubasa::storage::{PileWriter, SketchPile};
use tsubasa_dft::sketch::{ComparatorKernel, DftSketchSet, Transform};
use tsubasa_dft::{ApproxPlan, SlidingApproxNetwork};
use tsubasa_stream::{RealTimeNetwork, UpdateEngine};

const WINDOWS: usize = 4;
const THETA: f64 = 0.3;
const K: usize = 5;

/// Deterministic multi-scale series; series 0 carries one NaN observation in
/// basic window 1, so the kernel's NaN-clamping convention is exercised
/// identically on every backend.
fn collection(n: usize, basic_window: usize) -> SeriesCollection {
    let len = WINDOWS * basic_window;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|s| {
            (0..len)
                .map(|i| {
                    if s == 0 && i == basic_window + 1 {
                        f64::NAN
                    } else {
                        (i as f64 * 0.11 + s as f64 * 0.63).sin()
                            + ((i * (s + 2)) % 13) as f64 * 0.05
                    }
                })
                .collect()
        })
        .collect();
    SeriesCollection::from_rows(rows).unwrap()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tsubasa-source-agree-{}-{tag}.pile",
        std::process::id()
    ))
}

fn engine(workers: usize) -> ParallelEngine {
    ParallelEngine::new(ParallelConfig {
        workers,
        batch_pairs: 4,
        sketch_method: SketchMethod::Dft { coefficients: 8 },
        audit_pruned_chunks: false,
    })
}

/// Run all three query kinds on `source` and compare each against the
/// single-worker in-memory reference. Returns the number of cases covered.
fn assert_source_matches<S: CorrSource + ?Sized>(
    eng: &ParallelEngine,
    source: &S,
    windows: Range<usize>,
    qm: QueryMethod,
    reference: &(CorrelationMatrix, EdgeList, TopK),
    label: &str,
) -> usize {
    let (matrix, _) = eng.query(source, windows.clone(), qm).unwrap();
    assert_eq!(matrix, reference.0, "matrix mismatch: {label}");

    let (edges, _) = eng.network(source, windows.clone(), qm, THETA).unwrap();
    assert_eq!(
        edges.edges(),
        reference.1.edges(),
        "edges mismatch: {label}"
    );
    assert_eq!(
        edges.nan_pair_count(),
        reference.1.nan_pair_count(),
        "nan audit mismatch: {label}"
    );

    let (top, _) = eng.top_k(source, windows, qm, K).unwrap();
    assert_eq!(top.edges, reference.2.edges, "top-k mismatch: {label}");
    assert_eq!(
        top.nan_pairs, reference.2.nan_pairs,
        "top-k nan audit mismatch: {label}"
    );
    3
}

/// `ParallelConfig::audit_pruned_chunks` must behave identically on every
/// backend: a NaN planted in an Equation-4-prunable chunk is silently skipped
/// with the default config and counted when the audit is on, with the
/// **same** counts from the pile and from an in-memory comparator carrying
/// the same planted estimate — the policy lives in the one shared audit
/// hook, not per backend.
#[test]
fn pruned_chunk_nan_audit_is_identical_on_chunked_and_pile() {
    let n = 6;
    let b = 25;
    // Engineer the Equation 4 bound (`s_i s_j + t_i t_j` with
    // `s² + t² = 1`): the last series is piecewise-constant per window (all
    // numerator mass in between-window deltas, `t ≈ 1`), the rest are
    // window-periodic (identical windows, so all mass in within-window
    // stds, `s = 1`). Every pair touching the last series then has a bound
    // near zero and deterministically prunes under any positive θ.
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|s| {
            (0..WINDOWS * b)
                .map(|i| {
                    if s == n - 1 {
                        (i / b) as f64
                    } else {
                        ((i % b) * 7919 * (s + 1) % 101) as f64 * 0.01
                    }
                })
                .collect()
        })
        .collect();
    let c = SeriesCollection::from_rows(rows).unwrap();
    let dft = DftSketchSet::build(&c, b, 8, Transform::Naive).unwrap();

    // A NaN estimate planted for the last pair, (n-2, n-1), in window 2: in
    // an in-memory comparator, and in the pile that mirrors it.
    let pairs = n * (n - 1) / 2;
    let mut ests: Vec<f64> = (0..WINDOWS)
        .flat_map(|w| dft.window_ests_view(w..w + 1).window_row(0).to_vec())
        .collect();
    ests[3 * pairs - 1] = f64::NAN;
    let ests = WindowRows::from_flat(ests, pairs, WINDOWS);
    let memory = DftSketchSet::from_parts(dft.base().clone(), 8, ests).unwrap();
    let path = temp_path("pruned-nan");
    let mut writer = PileWriter::create(&path, n, b).unwrap();
    mirror_sketches_to_pile(&mut writer, Some(memory.base()), Some(&memory)).unwrap();
    let pile = writer.into_pile().unwrap();

    let theta = 0.9;
    let mut counts = Vec::new();
    for audit in [false, true] {
        let eng = ParallelEngine::new(ParallelConfig {
            workers: 2,
            batch_pairs: 1,
            sketch_method: SketchMethod::Dft { coefficients: 8 },
            audit_pruned_chunks: audit,
        });
        let (e_memory, _) = eng
            .network(&memory, 0..WINDOWS, QueryMethod::Approximate, theta)
            .unwrap();
        let (e_pile, _) = eng
            .network(&pile, 0..WINDOWS, QueryMethod::Approximate, theta)
            .unwrap();
        assert_eq!(
            e_memory.nan_pair_count(),
            e_pile.nan_pair_count(),
            "audit={audit}: memory and pile must count identically"
        );
        assert_eq!(e_memory.edges(), e_pile.edges(), "audit={audit}");
        counts.push(e_memory.nan_pair_count());
    }
    // The planted chunk really was pruned: silent mode misses exactly the
    // planted pair, the audit observes it — and only the accounting differs.
    assert_eq!(counts[0], 0, "pruned chunk must be silent by default");
    assert_eq!(counts[1], 1, "audit must observe the pruned chunk's NaN");
    std::fs::remove_file(&path).ok();
}

#[test]
fn all_backends_agree_bit_for_bit_across_the_grid() {
    let n = 6;
    let b = 20;
    let c = collection(n, b);

    // One in-memory dual sketch is the root of every backend, so the grid
    // isolates the *serving* path: the grown sketch and the pile carry the
    // exact same window values the built sketch does.
    let dft = DftSketchSet::build(&c, b, 8, Transform::Naive).unwrap();

    // The same sketch grown from a 2-window prefix: its later rows are
    // separately allocated, and the one kernel per method makes them the
    // built sketch's rows bit for bit.
    let prefix = c.truncate_length(2 * b).unwrap();
    let mut grown = DftSketchSet::build(&prefix, b, 8, Transform::Naive).unwrap();
    let mut kernel = ComparatorKernel::new(b, 8, Transform::Naive);
    for w in 2..WINDOWS {
        let chunk: Vec<Vec<f64>> = c
            .iter()
            .map(|s| s.values()[w * b..(w + 1) * b].to_vec())
            .collect();
        let stats = arriving_window(&chunk, n, b).unwrap();
        let (corrs, ests) = (
            arriving_corrs(&chunk, &stats),
            kernel.arriving_ests(&chunk, &stats),
        );
        grown.push_window(stats, corrs, ests).unwrap();
    }

    // Mapped pile with correlation and estimate rows mirrored per window.
    let path = temp_path("grid");
    let mut writer = PileWriter::create(&path, n, b).unwrap();
    mirror_sketches_to_pile(&mut writer, Some(dft.base()), Some(&dft)).unwrap();
    let pile = writer.into_pile().unwrap();

    // The same file opened with the mmap fast path disabled: queries go
    // through the heap-buffered fallback and must not change a bit. CI also
    // reruns this whole suite under an ambient TSUBASA_PILE_NO_MMAP=1, in
    // which case both opens exercise the fallback — restore, don't clear.
    let ambient = std::env::var("TSUBASA_PILE_NO_MMAP").ok();
    std::env::set_var("TSUBASA_PILE_NO_MMAP", "1");
    let pile_nommap = SketchPile::open(&path).unwrap();
    match &ambient {
        Some(v) => std::env::set_var("TSUBASA_PILE_NO_MMAP", v),
        None => std::env::remove_var("TSUBASA_PILE_NO_MMAP"),
    }
    assert!(
        pile.is_mmap() || ambient.as_deref() == Some("1"),
        "grid must exercise the mapped path unless mmap is disabled"
    );
    assert!(
        !pile_nommap.is_mmap(),
        "grid must exercise the buffered fallback path"
    );

    let mut cases = 0usize;
    for qm in [QueryMethod::Exact, QueryMethod::Approximate] {
        for windows in [0..WINDOWS, 1..WINDOWS] {
            let reference = {
                let eng = engine(1);
                let (m, _) = eng.query(&dft, windows.clone(), qm).unwrap();
                let (e, _) = eng.network(&dft, windows.clone(), qm, THETA).unwrap();
                let (t, _) = eng.top_k(&dft, windows.clone(), qm, K).unwrap();
                (m, e, t)
            };
            for workers in [1usize, 2, 8] {
                let eng = engine(workers);
                let tag = |which: &str| format!("{which} {qm:?} w={workers} {windows:?}");
                cases += assert_source_matches(
                    &eng,
                    &dft,
                    windows.clone(),
                    qm,
                    &reference,
                    &tag("built"),
                );
                cases += assert_source_matches(
                    &eng,
                    &grown,
                    windows.clone(),
                    qm,
                    &reference,
                    &tag("grown"),
                );
                cases += assert_source_matches(
                    &eng,
                    &pile,
                    windows.clone(),
                    qm,
                    &reference,
                    &tag("pile"),
                );
                cases += assert_source_matches(
                    &eng,
                    &pile_nommap,
                    windows.clone(),
                    qm,
                    &reference,
                    &tag("pile-no-mmap"),
                );
            }
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(
        cases >= 144,
        "agreement grid must cover >= 144 cases, ran {cases}"
    );
}

/// Every approximate network applies the one Equation 4 edge rule,
/// `distance_from_corr(c) ≤ √(2(1−θ))`, so a pair whose approximate
/// correlation is exactly θ is an edge on every entry point. With θ set to
/// each pair's own correlation in turn (45 pairs, from the engine's dense
/// query), the engine's network over memory and over the pile, at 1, 2 and 8
/// workers, equals `ApproxPlan::network_streamed(θ)` and the served answer —
/// edges, order and NaN count.
#[test]
fn approximate_networks_agree_at_the_radius_boundary() {
    let (n, b, windows) = (10, 60, 0..10);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|s| {
            (0..windows.end * b)
                .map(|i| {
                    (i as f64 * 0.07 + s as f64 * 0.9).sin() + ((i * (s + 3)) % 17) as f64 * 0.04
                })
                .collect()
        })
        .collect();
    let c = SeriesCollection::from_rows(rows).unwrap();
    let dft = DftSketchSet::build(&c, b, 20, Transform::Naive).unwrap();
    let path = temp_path("radius-boundary");
    let mut writer = PileWriter::create(&path, n, b).unwrap();
    mirror_sketches_to_pile(&mut writer, Some(dft.base()), Some(&dft)).unwrap();
    let pile = writer.into_pile().unwrap();
    let store = Arc::new(EpochStore::new(2));
    let epoch = store
        .publish(Some(dft.base().clone()), Some(dft.clone()))
        .unwrap();
    let served = QueryEngine::new(
        store,
        Arc::new(PlanCache::new(4)),
        Arc::new(WorkerPool::new(2)),
    );
    let engines: Vec<ParallelEngine> = [1, 2, 8].into_iter().map(engine).collect();
    let approx = QueryMethod::Approximate;
    let (dense, _) = engines[0].query(&dft, windows.clone(), approx).unwrap();
    let plan = ApproxPlan::build(&dft, windows.clone()).unwrap();

    let mut cases = 0;
    for (i, j, theta) in dense.iter_pairs() {
        let want = plan.network_streamed(theta).unwrap();
        assert!(want.edges().contains(&(i, j)), "({i}, {j}) at θ = {theta}");
        let last = windows.len() as u32;
        let got = served
            .network_on(&epoch, PlanMethod::Approximate, last, theta)
            .unwrap();
        assert_eq!(got, want, "served, ({i}, {j}) at θ = {theta}");
        for eng in &engines {
            let workers = eng.config().workers;
            for (label, source) in [("memory", &dft as &dyn CorrSource), ("pile", &pile)] {
                let (got, _) = eng.network(source, windows.clone(), approx, theta).unwrap();
                assert_eq!(got, want, "{label} w={workers}, ({i}, {j}) at θ = {theta}");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 45 * 6);
    std::fs::remove_file(&path).ok();
}

/// The sliding approximate networks apply the same Equation 4 rule: with θ
/// set to each pair's own sliding estimate ĉ right after initialize (15
/// pairs), `SlidingApproxNetwork::network(θ)`, its `subscribe_edges(θ)`
/// baseline and the approximate `RealTimeNetwork`'s
/// `network_with_threshold(θ)` all equal `ApproxPlan::network_streamed(θ)`
/// over the same windows — a pair at exactly θ is an edge on every path.
#[test]
fn sliding_approximate_networks_agree_at_the_radius_boundary() {
    let (n, b, coefficients, windows) = (6, 40, 4, 5);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|s| {
            (0..windows * b)
                .map(|i| {
                    (i as f64 * 0.09 + s as f64 * 0.8).sin() + ((i * (s + 5)) % 19) as f64 * 0.03
                })
                .collect()
        })
        .collect();
    let c = SeriesCollection::from_rows(rows).unwrap();
    let dft = DftSketchSet::build(&c, b, coefficients, SlidingApproxNetwork::TRANSFORM).unwrap();
    let plan = ApproxPlan::build(&dft, 0..windows).unwrap();
    let mut sliding = SlidingApproxNetwork::initialize(&dft, windows * b).unwrap();
    let engine = UpdateEngine::Approximate { coefficients };
    let realtime = RealTimeNetwork::new(&c, b, windows * b, 0.5, engine).unwrap();

    let mut cases = 0;
    for i in 0..n {
        for j in i + 1..n {
            let theta = sliding.correlation(i, j);
            let want = plan.network_streamed(theta).unwrap();
            assert!(want.edges().contains(&(i, j)), "({i}, {j}) at θ = {theta}");
            let want = want.to_adjacency();
            let label = format!("({i}, {j}) at θ = {theta}");
            assert_eq!(sliding.network(theta), want, "network, {label}");
            assert_eq!(
                realtime.network_with_threshold(theta),
                want,
                "realtime, {label}"
            );
            let baseline = sliding.subscribe_edges(theta).unwrap();
            assert_eq!(baseline, want, "subscription baseline, {label}");
            assert_eq!(baseline.nan_pair_count(), want.nan_pair_count());
            cases += 1;
        }
    }
    assert_eq!(cases, 15);
}
