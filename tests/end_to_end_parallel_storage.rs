//! Workspace integration tests: the parallel + disk-based configuration —
//! partitioned sketching through the database-writer worker into the pile,
//! queries off the mapped (and reopened) file, and the space accounting used
//! by the Figure 6d experiment.

use tsubasa::core::prelude::*;
use tsubasa::data::prelude::*;
use tsubasa::parallel::{ParallelConfig, ParallelEngine, QueryMethod, SketchMethod};
use tsubasa::storage::{PileWriter, SketchPile};

fn grid(cells: usize, points: usize) -> SeriesCollection {
    generate_berkeley_like(&BerkeleyLikeConfig {
        cells,
        points,
        seed: 2024,
        regions: 4,
        ..BerkeleyLikeConfig::default()
    })
    .unwrap()
}

fn temp_pile(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("tsubasa-it-{}-{tag}.pile", std::process::id()))
}

fn engine(workers: usize, batch_pairs: usize) -> ParallelEngine {
    ParallelEngine::new(ParallelConfig {
        workers,
        batch_pairs,
        sketch_method: SketchMethod::Exact,
        audit_pruned_chunks: false,
    })
}

#[test]
fn parallel_disk_pipeline_matches_serial_exact_path() {
    let collection = grid(24, 720);
    let b = 120;
    let ns = 720 / b;
    let path = temp_pile("pipeline");
    let engine = engine(4, 16);

    let writer = PileWriter::create(&path, collection.len(), b).unwrap();
    let (sketch_report, pile) = engine.sketch_to_pile(&collection, b, writer).unwrap();
    assert_eq!(sketch_report.pairs, collection.pair_count());
    assert_eq!(pile.exact_query_windows(), ns);

    let (parallel_matrix, query_report) = engine.query(&pile, 0..ns, QueryMethod::Exact).unwrap();
    assert_eq!(query_report.pairs, collection.pair_count());

    // Serial reference on the same aligned window.
    let builder =
        HistoricalBuilder::new(collection.clone(), NetworkConfig::new(b, 0.75).unwrap()).unwrap();
    let query = QueryWindow::new(ns * b - 1, ns * b).unwrap();
    let serial_matrix = builder.correlation_matrix(query).unwrap();
    assert!(parallel_matrix.max_abs_diff(&serial_matrix) < 1e-9);

    // The file alone reproduces the same result without raw data.
    drop(pile);
    let reopened = SketchPile::open(&path).unwrap();
    assert_eq!(reopened.truncated_bytes(), 0);
    let (from_file, _) = engine.query(&reopened, 0..ns, QueryMethod::Exact).unwrap();
    assert_eq!(from_file, parallel_matrix);

    std::fs::remove_file(&path).ok();
}

#[test]
fn pile_and_memory_sketch_are_interchangeable() {
    let collection = grid(12, 600);
    let b = 100;
    let engine = engine(3, 8);

    let memory = SketchSet::build(&collection, b).unwrap();
    let (mem_matrix, _) = engine.query(&memory, 0..6, QueryMethod::Exact).unwrap();

    let path = temp_pile("interchange");
    let writer = PileWriter::create(&path, collection.len(), b).unwrap();
    let (_, pile) = engine.sketch_to_pile(&collection, b, writer).unwrap();
    let (pile_matrix, _) = engine.query(&pile, 0..6, QueryMethod::Exact).unwrap();

    // Two sketch kernels, one query pipeline: same statistics bit for bit,
    // correlations within the kernels' summation-order tolerance.
    assert_eq!(
        pile.series_stats(0..6).unwrap(),
        CorrSource::series_stats(&memory, 0..6).unwrap()
    );
    assert!(mem_matrix.max_abs_diff(&pile_matrix) < 1e-10);
    std::fs::remove_file(&path).ok();
}

#[test]
fn space_overhead_shrinks_as_basic_window_grows() {
    // The Figure 6d relationship: fewer, larger basic windows → fewer stored
    // rows → smaller pile.
    let collection = grid(16, 960);
    let n = collection.len();
    let engine = engine(2, 8);
    let mut previous: Option<u64> = None;
    for b in [60usize, 120, 240, 480] {
        let path = temp_pile(&format!("space-{b}"));
        let writer = PileWriter::create(&path, n, b).unwrap();
        let (_, pile) = engine.sketch_to_pile(&collection, b, writer).unwrap();
        // One `f64` per pair and three per series per window, plus a 64-byte
        // header for the file and for each segment.
        let payload = (960 / b * (collection.pair_count() + 3 * n) * 8) as u64;
        assert_eq!(
            pile.space_bytes(),
            payload + 64 * (1 + pile.segment_count() as u64)
        );
        if let Some(prev) = previous {
            assert!(pile.space_bytes() < prev, "space must shrink as B grows");
        }
        previous = Some(pile.space_bytes());
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn partition_count_changes_throughput_not_results() {
    let collection = grid(20, 600);
    let b = 120;
    let mut reference: Option<CorrelationMatrix> = None;
    for workers in [1usize, 2, 6, 12] {
        let engine = engine(workers, 4);
        let path = temp_pile(&format!("partitions-{workers}"));
        let writer = PileWriter::create(&path, collection.len(), b).unwrap();
        let (_, pile) = engine.sketch_to_pile(&collection, b, writer).unwrap();
        let (matrix, report) = engine.query(&pile, 0..5, QueryMethod::Exact).unwrap();
        assert_eq!(report.workers, workers);
        match &reference {
            None => reference = Some(matrix),
            Some(r) => assert_eq!(r, &matrix),
        }
        std::fs::remove_file(&path).ok();
    }
}
