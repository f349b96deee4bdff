//! Figure 6a — Parallel & disk-based sketch-time breakdown.
//!
//! Setup (paper §4.3): Berkeley-Earth-like gridded data, basic window B=120,
//! query window 960; the number of time-series is swept. Computation workers
//! sketch pair partitions while one database worker appends the window-major
//! rows to the pile; the figure separates sketch-computation time from
//! database-write time.
//!
//! Expected shape (paper): TSUBASA's sketch computation is cheaper than the
//! DFT comparator's (linear vs quadratic in B per window); for TSUBASA a
//! large share of the total is the database write; both grow quadratically
//! with the number of series.

use tsubasa_bench::{fmt_ms, millis, scaled, workers, Table};
use tsubasa_data::prelude::*;
use tsubasa_parallel::{ParallelConfig, ParallelEngine, SketchMethod};
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
        "Figure 6a: parallel sketch breakdown | B={basic_window} | {points} points | {workers} computation workers + 1 db worker"
    );

    let mut table = Table::new(&["series", "method", "sketch calc (sum)", "db write", "wall"]);
    let mut json_rows = Vec::new();

    for &n in &sweep {
        let collection = generate_berkeley_like(&BerkeleyLikeConfig {
            cells: n,
            points,
            ..BerkeleyLikeConfig::default()
        })
        .expect("generate dataset");

        for (label, method) in [
            ("TSUBASA", SketchMethod::Exact),
            (
                "DFT 75%",
                SketchMethod::Dft {
                    coefficients: basic_window * 3 / 4,
                },
            ),
        ] {
            let path = std::env::temp_dir().join(format!(
                "tsubasa-fig6a-{}-{n}-{label}.pile",
                std::process::id()
            ));
            let engine = ParallelEngine::new(ParallelConfig {
                workers,
                batch_pairs: tsubasa_storage::default_batch_pairs(),
                sketch_method: method,
                audit_pruned_chunks: false,
            });
            let writer = PileWriter::create(&path, n, basic_window).unwrap();
            let (report, _pile) = engine
                .sketch_to_pile(&collection, basic_window, writer)
                .unwrap();
            table.row(vec![
                n.to_string(),
                label.to_string(),
                fmt_ms(millis(report.compute_time)),
                fmt_ms(millis(report.write_time)),
                fmt_ms(millis(report.wall_time)),
            ]);
            json_rows.push(serde_json::json!({
                "series": n,
                "method": label,
                "compute_ms": millis(report.compute_time),
                "write_ms": millis(report.write_time),
                "wall_ms": millis(report.wall_time),
                "pairs": report.pairs,
            }));
            std::fs::remove_file(&path).ok();
        }
    }

    table.print("Figure 6a: sketch-time breakdown vs number of series");
    tsubasa_bench::write_json(
        "fig6a_sketch_scale",
        &serde_json::json!({
            "basic_window": basic_window,
            "points": points,
            "workers": workers,
            "db_batch_pairs": tsubasa_storage::default_batch_pairs(),
            "rows": json_rows,
        }),
    );
}
