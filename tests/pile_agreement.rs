//! Pile agreement grid.
//!
//! What `sketch_to_pile` writes and what the mapped pile answers, pinned
//! against the in-memory sketch of the same data:
//!
//! * the rows themselves — statistics, `PairCorrs` and `PairEsts` — equal the
//!   rows of `SketchSet::build` / `DftSketchSet::build(.., Transform::Naive)`
//!   **bit for bit**, at 1, 2 and 8 workers, with and without a NaN
//!   observation: one window kernel per method mints every row, and a
//!   pair's sum is the same serial chain wherever a pooled sweep is split;
//! * every pile answer — both sketch methods × matrix/network/top-k × 1/2/8
//!   workers × three window ranges, 108 cases — is **bit-identical** to the
//!   same query on that in-memory `DftSketchSet`: mapping, segment boundaries
//!   and worker count must not change a single output bit, NaN audit
//!   included — and every table the pile serves, within a segment or across
//!   several, is zero-copy;
//! * NaN **table values** are counted identically by the exhaustive exact
//!   audit on both backends;
//! * a pile that lacks a method's table rejects that method with a typed
//!   `Error::SketchMismatch`.

use std::path::PathBuf;

use tsubasa::core::plan::WindowRows;
use tsubasa::core::prelude::*;
use tsubasa::parallel::{ParallelConfig, ParallelEngine, QueryMethod, SketchMethod};
use tsubasa::storage::{encode_series_stats, PileWriter, SegmentKind, SketchPile};
use tsubasa_dft::sketch::{DftSketchSet, Transform};

const WINDOWS: usize = 4;

/// Deterministic multi-scale series. With `nan` set, series 0 carries one NaN
/// observation in basic window 1, so whatever the sketch kernels make of a
/// poisoned window is served identically by both backends.
fn collection(n: usize, basic_window: usize, nan: bool) -> SeriesCollection {
    let len = WINDOWS * basic_window;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|s| {
            (0..len)
                .map(|i| {
                    if nan && s == 0 && i == basic_window + 1 {
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
        "tsubasa-pile-agree-{}-{tag}.pile",
        std::process::id()
    ))
}

fn engine(workers: usize, sketch_method: SketchMethod) -> ParallelEngine {
    ParallelEngine::new(ParallelConfig {
        workers,
        batch_pairs: 8,
        sketch_method,
        audit_pruned_chunks: false,
    })
}

/// Sketch `c` into a fresh pile (unlinked right away: the returned mapping
/// keeps the file alive).
fn sketch(eng: &ParallelEngine, c: &SeriesCollection, b: usize, tag: &str) -> SketchPile {
    let path = temp_path(tag);
    let writer = PileWriter::create(&path, c.len(), b).unwrap();
    let (_, pile) = eng.sketch_to_pile(c, b, writer).unwrap();
    std::fs::remove_file(&path).ok();
    pile
}

const METHODS: [(SketchMethod, QueryMethod, PlanMethod); 2] = [
    (SketchMethod::Exact, QueryMethod::Exact, PlanMethod::Exact),
    (
        SketchMethod::Dft { coefficients: 8 },
        QueryMethod::Approximate,
        PlanMethod::Approximate,
    ),
];

#[test]
fn pile_answers_match_a_memory_sketch_of_its_rows_across_the_grid() {
    let mut cases = 0usize;
    for n in [3usize, 6, 10] {
        for b in [20usize, 50] {
            let c = collection(n, b, true);
            // The in-memory reference answers both methods: its base holds
            // the `PairCorrs` rows, its estimate table the `PairEsts` rows.
            let memory = DftSketchSet::build(&c, b, 8, Transform::Naive).unwrap();
            for (method, qmethod, pmethod) in METHODS {
                for workers in [1usize, 2, 8] {
                    let eng = engine(workers, method);
                    let pile = sketch(&eng, &c, b, &format!("{n}-{b}-{workers}-{qmethod:?}"));
                    let kind = match pmethod {
                        PlanMethod::Exact => SegmentKind::PairCorrs,
                        PlanMethod::Approximate => SegmentKind::PairEsts,
                    };

                    for windows in [0..WINDOWS, 0..2, 2..WINDOWS] {
                        let tag = format!("n={n} b={b} {qmethod:?} w={workers} {windows:?}");
                        let table = pile.pair_table(windows.clone(), kind).unwrap();
                        assert!(table.is_zero_copy(), "copied table {tag}");
                        let (m_memory, _) = eng.query(&memory, windows.clone(), qmethod).unwrap();
                        let (m_pile, _) = eng.query(&pile, windows.clone(), qmethod).unwrap();
                        assert_eq!(m_memory, m_pile, "matrix mismatch {tag}");

                        let (e_memory, _) =
                            eng.network(&memory, windows.clone(), qmethod, 0.3).unwrap();
                        let (e_pile, _) =
                            eng.network(&pile, windows.clone(), qmethod, 0.3).unwrap();
                        assert_eq!(e_memory.edges(), e_pile.edges(), "edges mismatch {tag}");
                        assert_eq!(
                            e_memory.nan_pair_count(),
                            e_pile.nan_pair_count(),
                            "nan audit mismatch {tag}"
                        );

                        let (t_memory, _) =
                            eng.top_k(&memory, windows.clone(), qmethod, 5).unwrap();
                        let (t_pile, _) = eng.top_k(&pile, windows.clone(), qmethod, 5).unwrap();
                        assert_eq!(t_memory.edges, t_pile.edges, "top-k mismatch {tag}");
                        assert_eq!(t_memory.nan_pairs, t_pile.nan_pairs, "top-k nan {tag}");

                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(
        cases >= 108,
        "agreement grid must cover >= 108 cases, ran {cases}"
    );
}

#[test]
fn pile_rows_equal_the_in_memory_sketch_rows_bit_for_bit() {
    let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for nan in [false, true] {
        for (n, b) in [(3usize, 20usize), (6, 50), (10, 20), (10, 50)] {
            let c = collection(n, b, nan);
            let reference = DftSketchSet::build(&c, b, 8, Transform::Naive).unwrap();
            let want_stats = CorrSource::series_stats(&reference, 0..WINDOWS).unwrap();
            for (method, _, pmethod) in METHODS {
                let kind = match pmethod {
                    PlanMethod::Exact => SegmentKind::PairCorrs,
                    PlanMethod::Approximate => SegmentKind::PairEsts,
                };
                let want = reference.lent_table(0..WINDOWS, pmethod).unwrap();
                for workers in [1usize, 2, 8] {
                    let tag = format!("nan={nan} n={n} b={b} {kind:?} workers={workers}");
                    let pile = sketch(&engine(workers, method), &c, b, &format!("rows-{tag}"));
                    let stats = pile.series_stats(0..WINDOWS).unwrap();
                    for (got, want) in stats.iter().flatten().zip(want_stats.iter().flatten()) {
                        assert_eq!(got.len, want.len, "{tag}");
                        assert_eq!(got.mean.to_bits(), want.mean.to_bits(), "{tag}");
                        assert_eq!(got.std.to_bits(), want.std.to_bits(), "{tag}");
                    }
                    let table = pile.pair_table(0..WINDOWS, kind).unwrap();
                    for w in 0..WINDOWS {
                        assert_eq!(
                            bits(table.view().window_row(w)),
                            bits(want.view().window_row(w)),
                            "{tag} window {w}"
                        );
                    }
                }
            }
        }
    }
}

/// NaN **table values** must be observed identically on both backends: the
/// pile's rows are copied into a second pile with one NaN correlation
/// planted, and the exact network's exhaustive audit must count it on the
/// pile and on an in-memory sketch carrying the same planted value.
#[test]
fn planted_nan_rows_audit_identically_on_pile_and_memory() {
    let n = 6;
    let b = 25;
    let c = collection(n, b, true);
    let eng = engine(2, SketchMethod::Exact);
    let clean = sketch(&eng, &c, b, "nan-source");

    // Copy row by row, planting a NaN correlation in pair (0, 1), window 1.
    let path = temp_path("nan-plant");
    let mut writer = PileWriter::create(&path, n, b).unwrap();
    let mut planted = Vec::new();
    for w in 0..WINDOWS {
        let stats: Vec<WindowStats> = clean
            .series_stats(w..w + 1)
            .unwrap()
            .iter()
            .map(|s| s[0])
            .collect();
        writer
            .append(SegmentKind::SeriesStats, &encode_series_stats(&stats))
            .unwrap();
        let table = clean.pair_table(w..w + 1, SegmentKind::PairCorrs).unwrap();
        let mut corr_row = table.view().window_row(0).to_vec();
        if w == 1 {
            corr_row[0] = f64::NAN;
        }
        writer.append(SegmentKind::PairCorrs, &corr_row).unwrap();
        planted.extend(corr_row);
    }
    let pile = writer.into_pile().unwrap();
    std::fs::remove_file(&path).ok();
    let built = SketchSet::build(&c, b).unwrap();
    let series = (0..n).map(|i| built.series_sketch(i).unwrap()).collect();
    let planted = WindowRows::from_flat(planted, n * (n - 1) / 2, WINDOWS);
    let memory = SketchSet::from_window_major(b, n, series, planted).unwrap();
    // One segment per appended row, so every range below spans segments and
    // is still served straight from the mapping.
    assert_eq!(pile.segment_count(), 2 * WINDOWS);
    for windows in [0..WINDOWS, 1..3, 2..WINDOWS] {
        let table = pile.pair_table(windows, SegmentKind::PairCorrs).unwrap();
        assert!(table.is_zero_copy());
    }

    // The exact network audits exhaustively (no pruning): exactly the
    // planted pair is counted, on both backends, and the edge sets still
    // agree bit-for-bit (the kernel clamps the NaN slot to 0.0).
    let (e_memory, _) = eng
        .network(&memory, 0..WINDOWS, QueryMethod::Exact, 0.0)
        .unwrap();
    let (e_pile, _) = eng
        .network(&pile, 0..WINDOWS, QueryMethod::Exact, 0.0)
        .unwrap();
    assert_eq!(e_memory.nan_pair_count(), 1);
    assert_eq!(e_pile.nan_pair_count(), 1);
    assert_eq!(e_memory.edges(), e_pile.edges());

    let (m_memory, _) = eng.query(&memory, 0..WINDOWS, QueryMethod::Exact).unwrap();
    let (m_pile, _) = eng.query(&pile, 0..WINDOWS, QueryMethod::Exact).unwrap();
    assert_eq!(m_memory, m_pile);

    // A range that excludes the poisoned window audits zero NaN pairs.
    let (tail, _) = eng
        .network(&pile, 2..WINDOWS, QueryMethod::Exact, 0.0)
        .unwrap();
    assert_eq!(tail.nan_pair_count(), 0);
}

#[test]
fn a_pile_without_the_methods_table_is_a_typed_mismatch() {
    let c = collection(6, 20, false);
    for (method, _, _) in METHODS {
        let eng = engine(2, method);
        let pile = sketch(&eng, &c, 20, &format!("typed-{method:?}"));
        // An estimates-only pile cannot answer exact queries, and vice versa.
        let missing = match method {
            SketchMethod::Exact => QueryMethod::Approximate,
            SketchMethod::Dft { .. } => QueryMethod::Exact,
        };
        assert!(matches!(
            eng.query(&pile, 0..WINDOWS, missing),
            Err(Error::SketchMismatch { .. })
        ));
        assert!(matches!(
            eng.network(&pile, 0..WINDOWS, missing, 0.3),
            Err(Error::SketchMismatch { .. })
        ));
        assert!(matches!(
            eng.top_k(&pile, 0..WINDOWS, missing, 5),
            Err(Error::SketchMismatch { .. })
        ));
    }
}
