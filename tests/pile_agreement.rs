//! Pile agreement grid.
//!
//! What `sketch_to_pile` writes and what the mapped pile answers, pinned
//! against the in-memory references:
//!
//! * every pile answer — both sketch methods × matrix/network/top-k × 1/2/8
//!   workers × three window ranges, 108 cases — is **bit-identical** to the
//!   same query on an in-memory `SketchSet` rehydrated from the pile's own
//!   rows (`SketchSet::from_parts`): mapping, segment boundaries and worker
//!   count must not change a single output bit, NaN audit included — and
//!   every table the pile serves, within a segment or across several, is
//!   zero-copy;
//! * the rows themselves are within `1e-10` of `SketchSet::build` /
//!   `DftSketchSet::build` (the engine's sketch kernel and the in-memory one
//!   sum in different orders, so this is a tolerance, not bit equality);
//! * NaN **table values** are counted identically by the exhaustive exact
//!   audit on both backends;
//! * a pile that lacks a method's table rejects that method with a typed
//!   `Error::SketchMismatch`.

use std::ops::Range;
use std::path::PathBuf;

use tsubasa::core::prelude::*;
use tsubasa::core::source::check_source_windows;
use tsubasa::parallel::{ParallelConfig, ParallelEngine, QueryMethod, SketchMethod};
use tsubasa::storage::{PileWriter, SegmentKind, SketchPile};
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

/// The in-memory reference: a `SketchSet` holding exactly the pile's rows of
/// one pair kind, answering the method that kind serves. (Lemma 1 and
/// Equation 5 share one kernel and differ only in the table they read, so
/// estimate rows rehydrate into the same structure as correlation rows.)
struct Rehydrated {
    sketch: SketchSet,
    method: PlanMethod,
}

impl Rehydrated {
    fn from_pile(pile: &SketchPile, method: PlanMethod) -> Self {
        let kind = match method {
            PlanMethod::Exact => SegmentKind::PairCorrs,
            PlanMethod::Approximate => SegmentKind::PairEsts,
        };
        let n = pile.n_series();
        let ns = pile.windows(kind);
        let table = pile.pair_table(0..ns, kind).unwrap();
        let view = table.view();
        let series = pile
            .series_stats(0..ns)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(series, windows)| SeriesSketch { series, windows })
            .collect();
        let pairs = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .enumerate()
            .map(|(p, (a, b))| PairSketch {
                a,
                b,
                corrs: (0..ns).map(|k| view.window_row(k)[p]).collect(),
            })
            .collect();
        Self {
            sketch: SketchSet::from_parts(pile.basic_window(), n, series, pairs).unwrap(),
            method,
        }
    }
}

impl CorrSource for Rehydrated {
    fn series_count(&self) -> usize {
        self.sketch.series_count()
    }

    fn window_count(&self, method: PlanMethod) -> usize {
        if method == self.method {
            self.sketch.window_count()
        } else {
            0
        }
    }

    fn series_stats(&self, windows: Range<usize>) -> Result<Vec<Vec<WindowStats>>> {
        CorrSource::series_stats(&self.sketch, windows)
    }

    fn full_table(
        &self,
        windows: Range<usize>,
        method: PlanMethod,
    ) -> Result<Option<PairTable<'_>>> {
        check_source_windows(self, &windows, method)?;
        Ok(Some(PairTable::Borrowed(
            self.sketch.window_corrs_view(windows),
        )))
    }
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
            for (method, qmethod, pmethod) in METHODS {
                for workers in [1usize, 2, 8] {
                    let eng = engine(workers, method);
                    let pile = sketch(&eng, &c, b, &format!("{n}-{b}-{workers}-{qmethod:?}"));
                    let memory = Rehydrated::from_pile(&pile, pmethod);
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
fn pile_rows_are_within_tolerance_of_the_in_memory_sketch_kernels() {
    for n in [3usize, 6, 10] {
        for b in [20usize, 50] {
            let c = collection(n, b, false);
            let pairs = n * (n - 1) / 2;

            let exact = sketch(
                &engine(2, SketchMethod::Exact),
                &c,
                b,
                &format!("rows-{n}-{b}"),
            );
            let reference = SketchSet::build(&c, b).unwrap();
            assert_eq!(
                exact.series_stats(0..WINDOWS).unwrap(),
                CorrSource::series_stats(&reference, 0..WINDOWS).unwrap()
            );
            let table = exact
                .pair_table(0..WINDOWS, SegmentKind::PairCorrs)
                .unwrap();
            let want = reference.window_corrs_view(0..WINDOWS);
            for w in 0..WINDOWS {
                for p in 0..pairs {
                    let (got, want) = (table.view().window_row(w)[p], want.window_row(w)[p]);
                    assert!((got - want).abs() <= 1e-10, "corr n={n} b={b} w={w} p={p}");
                }
            }

            let dft = sketch(
                &engine(2, SketchMethod::Dft { coefficients: 8 }),
                &c,
                b,
                &format!("rows-dft-{n}-{b}"),
            );
            let reference = DftSketchSet::build(&c, b, 8, Transform::Fft).unwrap();
            let table = dft.pair_table(0..WINDOWS, SegmentKind::PairEsts).unwrap();
            let want = reference.window_dists_view(0..WINDOWS);
            for w in 0..WINDOWS {
                for p in 0..pairs {
                    let d = want.window_row(w)[p];
                    let got = table.view().window_row(w)[p];
                    assert!(
                        (got - (1.0 - d * d / 2.0)).abs() <= 1e-10,
                        "est n={n} b={b} w={w} p={p}"
                    );
                }
            }
        }
    }
}

/// NaN **table values** must be observed identically on both backends: the
/// pile's rows are copied into a second pile with one NaN correlation
/// planted, and the exact network's exhaustive audit must count it on the
/// pile and on the sketch rehydrated from it.
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
    for w in 0..WINDOWS {
        let stats_row: Vec<f64> = clean
            .series_stats(w..w + 1)
            .unwrap()
            .iter()
            .flat_map(|s| [s[0].len as f64, s[0].mean, s[0].std])
            .collect();
        writer.append(SegmentKind::SeriesStats, &stats_row).unwrap();
        let table = clean.pair_table(w..w + 1, SegmentKind::PairCorrs).unwrap();
        let mut corr_row = table.view().window_row(0).to_vec();
        if w == 1 {
            corr_row[0] = f64::NAN;
        }
        writer.append(SegmentKind::PairCorrs, &corr_row).unwrap();
    }
    let pile = writer.into_pile().unwrap();
    std::fs::remove_file(&path).ok();
    let memory = Rehydrated::from_pile(&pile, PlanMethod::Exact);
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
