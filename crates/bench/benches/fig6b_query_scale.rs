//! Figure 6b — Parallel & disk-based query-time breakdown.
//!
//! Setup (paper §4.3): same configuration as Figure 6a (B=120, query window
//! 960, 63+1 workers in the paper); after sketching into the pile, the
//! correlation matrix is rebuilt from the mapped sketches. The figure separates
//! database-read time from matrix-calculation time.
//!
//! Expected shape (paper): read time is a small fraction of matrix
//! calculation; TSUBASA and the approximation have on-par query time; both
//! grow quadratically with the number of series.

use tsubasa_bench::{fmt_ms, millis, scaled, workers, Table};
use tsubasa_data::prelude::*;
use tsubasa_parallel::{ParallelConfig, ParallelEngine, QueryMethod, SketchMethod};
use tsubasa_storage::PileWriter;

fn main() {
    let basic_window = 120;
    let points = 960;
    let workers = workers();
    let sweep: Vec<usize> = [100usize, 200, 400]
        .iter()
        .map(|&n| scaled(n, 24))
        .collect();
    println!(
        "Figure 6b: parallel query breakdown | B={basic_window} | query window {points} | {workers} workers + 1 db worker"
    );

    let mut table = Table::new(&["series", "method", "db read", "matrix calc", "wall"]);
    let mut json_rows = Vec::new();

    for &n in &sweep {
        let collection = generate_berkeley_like(&BerkeleyLikeConfig {
            cells: n,
            points,
            ..BerkeleyLikeConfig::default()
        })
        .expect("generate dataset");

        for (label, sketch_method, query_method) in [
            ("TSUBASA", SketchMethod::Exact, QueryMethod::Exact),
            (
                "DFT 75%",
                SketchMethod::Dft {
                    coefficients: basic_window * 3 / 4,
                },
                QueryMethod::Approximate,
            ),
        ] {
            let path = std::env::temp_dir().join(format!(
                "tsubasa-fig6b-{}-{n}-{label}.pile",
                std::process::id()
            ));
            let engine = ParallelEngine::new(ParallelConfig {
                workers,
                batch_pairs: 128,
                sketch_method,
                audit_pruned_chunks: false,
            });
            let writer = PileWriter::create(&path, n, basic_window).unwrap();
            let (_, pile) = engine
                .sketch_to_pile(&collection, basic_window, writer)
                .unwrap();
            let (_, report) = engine
                .query(&pile, 0..points / basic_window, query_method)
                .unwrap();
            table.row(vec![
                n.to_string(),
                label.to_string(),
                fmt_ms(millis(report.read_time)),
                fmt_ms(millis(report.compute_time)),
                fmt_ms(millis(report.wall_time)),
            ]);
            json_rows.push(serde_json::json!({
                "series": n,
                "method": label,
                "read_ms": millis(report.read_time),
                "compute_ms": millis(report.compute_time),
                "wall_ms": millis(report.wall_time),
            }));
            std::fs::remove_file(&path).ok();
        }
    }

    table.print("Figure 6b: query-time breakdown vs number of series");
    tsubasa_bench::write_json(
        "fig6b_query_scale",
        &serde_json::json!({
            "basic_window": basic_window,
            "query_window": points,
            "workers": workers,
            "rows": json_rows,
        }),
    );
}
