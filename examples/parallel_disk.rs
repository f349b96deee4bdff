//! Parallel, disk-based TSUBASA: sketch a gridded dataset into an on-disk
//! sketch pile with many computation workers plus one database worker, then
//! rebuild the correlation matrix from the mapped file — the configuration
//! of the paper's scalability experiments (Figure 6).
//!
//! ```bash
//! cargo run --release --example parallel_disk
//! ```

use tsubasa::core::prelude::*;
use tsubasa::data::prelude::*;
use tsubasa::parallel::{ParallelConfig, ParallelEngine, QueryMethod, SketchMethod};
use tsubasa::storage::PileWriter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Berkeley-Earth-like grid, scaled to laptop size.
    let collection = generate_berkeley_like(&BerkeleyLikeConfig {
        cells: 200,
        points: 1_440,
        ..BerkeleyLikeConfig::default()
    })?;
    let basic_window = 120; // the paper's scalability setting
    println!(
        "dataset: {} grid cells x {} daily points, B={basic_window}",
        collection.len(),
        collection.series_len()
    );

    let path = std::env::temp_dir().join(format!(
        "tsubasa-parallel-example-{}.pile",
        std::process::id()
    ));
    let writer = PileWriter::create(&path, collection.len(), basic_window)?;

    let workers = std::thread::available_parallelism()?
        .get()
        .saturating_sub(1)
        .max(1);
    let engine = ParallelEngine::new(ParallelConfig {
        workers,
        batch_pairs: 128,
        sketch_method: SketchMethod::Exact,
        audit_pruned_chunks: false,
    });

    // --- Sketch phase: computation workers + one database writer -----------
    let (report, pile) = engine.sketch_to_pile(&collection, basic_window, writer)?;
    println!(
        "sketch: {} pairs on {} workers | compute {:?} (sum) | db write {:?} | wall {:?}",
        report.pairs, report.workers, report.compute_time, report.write_time, report.wall_time
    );
    println!(
        "sketch pile size on disk: {} KiB in {} segments",
        pile.space_bytes() / 1024,
        pile.segment_count()
    );

    // --- Query phase: sweep the mapped sketches into the matrix ------------
    let windows = pile.exact_query_windows();
    let (matrix, qreport) = engine.query(&pile, 0..windows, QueryMethod::Exact)?;
    println!(
        "query:  db read {:?} (sum) | matrix calc {:?} (sum) | wall {:?}",
        qreport.read_time, qreport.compute_time, qreport.wall_time
    );
    let network = matrix.threshold(0.75)?;
    println!(
        "network @ 0.75: {} edges over {} cells",
        network.edge_count(),
        matrix.len()
    );

    // Spot-check against the brute-force baseline on the aligned window.
    let query = QueryWindow::new(windows * basic_window - 1, windows * basic_window)?;
    let direct = baseline::correlation_matrix(&collection, query)?;
    println!(
        "max |parallel - baseline| = {:.2e}",
        matrix.max_abs_diff(&direct)
    );

    std::fs::remove_file(&path).ok();
    Ok(())
}
