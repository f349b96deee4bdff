//! Historical-data workflow: compare TSUBASA's exact sketch-based
//! construction against the raw-data baseline and the DFT approximation on
//! the same query windows — a miniature version of the paper's Figures 5a-5c.
//!
//! ```bash
//! cargo run --release --example historical_network
//! ```

use std::time::Instant;

use tsubasa::core::prelude::*;
use tsubasa::core::sweep::fill_packed;
use tsubasa::core::{JobRunner, ScopedRunner, SerialRunner};
use tsubasa::data::prelude::*;
use tsubasa::dft::approx::{approximate_network, ApproxStrategy};
use tsubasa::dft::sketch::{DftSketchSet, Transform};
use tsubasa::network::NetworkComparison;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = NceaLikeConfig {
        stations: 60,
        points: 6_000,
        ..NceaLikeConfig::default()
    };
    let collection = generate_ncea_like(&config)?;
    let basic_window = 200;
    let theta = 0.75;
    println!(
        "dataset: {} stations x {} points, B={basic_window}, theta={theta}",
        collection.len(),
        collection.series_len()
    );

    // --- Sketch phase -------------------------------------------------------
    let t = Instant::now();
    let builder =
        HistoricalBuilder::new(collection.clone(), NetworkConfig::new(basic_window, theta)?)?;
    let tsubasa_sketch_time = t.elapsed();

    let t = Instant::now();
    let dft_sketch = DftSketchSet::build(
        &collection,
        basic_window,
        basic_window * 3 / 4,
        Transform::Naive,
    )?;
    let dft_sketch_time = t.elapsed();
    println!("sketch time: TSUBASA {tsubasa_sketch_time:?}   DFT(75% coeffs) {dft_sketch_time:?}");

    // --- Query phase on aligned and arbitrary windows -----------------------
    for len in [1_000usize, 3_000, 4_321] {
        let query = QueryWindow::latest(collection.series_len(), len)?;
        let windows = builder.sketch().windowing().segment(query);

        let t = Instant::now();
        let exact_matrix = builder.correlation_matrix(query)?;
        let exact_time = t.elapsed();

        let t = Instant::now();
        let baseline_matrix = baseline::correlation_matrix(&collection, query)?;
        let baseline_time = t.elapsed();

        println!(
            "query len {len:>5} ({} full basic windows, aligned={}):",
            windows.full_count(),
            windows.is_aligned()
        );
        // The query fans its dense fill over as many of the machine's
        // hardware threads as its work pays for (one here, below 300 000
        // pair-windows), sharing one read-only QueryPlan; a single run on
        // the calling thread fills the same plan bit for bit.
        let t = Instant::now();
        let plan = QueryPlan::build(&collection, builder.sketch(), query)?;
        let threads = ScopedRunner::machine(&plan).worker_count();
        let view = builder.sketch().window_corrs_view(plan.full_windows());
        let (single_run, _) = fill_packed(&SerialRunner, &plan, view)?;
        let single_time = t.elapsed();
        let single_matrix = CorrelationMatrix::from_upper_triangle(collection.len(), single_run);
        assert_eq!(single_matrix, exact_matrix);

        println!(
            "  TSUBASA query x{threads} {exact_time:>10?}   single run {single_time:>10?}   \
             baseline {baseline_time:>10?}   max diff {:.2e}",
            exact_matrix.max_abs_diff(&baseline_matrix)
        );

        // The DFT comparator only supports aligned windows; compare networks
        // on the aligned portion.
        if windows.is_aligned() {
            let t = Instant::now();
            let approx_net = approximate_network(
                &dft_sketch,
                windows.full.clone(),
                theta,
                ApproxStrategy::Equation5,
            )?;
            let approx_time = t.elapsed();
            let exact_net = exact_matrix.threshold(theta)?;
            let cmp = NetworkComparison::compare(&exact_net, &approx_net);
            println!(
                "  DFT approx    {approx_time:>10?}   edges {} vs exact {}   D_p {:.4}   false pos {}",
                cmp.candidate_edges, cmp.reference_edges, cmp.similarity_ratio, cmp.false_positives
            );
        }
    }
    Ok(())
}
