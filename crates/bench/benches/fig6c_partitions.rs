//! Figure 6c — Impact of the number of partitions / cores.
//!
//! Setup (paper §4.3): a fixed number of series (2,000 in the paper, scaled
//! here); the number of partitions (= computation workers) is swept while the
//! sketch-computation and matrix-calculation wall times are measured.
//!
//! Expected shape (paper): both wall times fall as the partition count grows,
//! with diminishing returns once the machine's cores are saturated.

use tsubasa_bench::{fmt_ms, millis, scaled, Table};
use tsubasa_data::prelude::*;
use tsubasa_ledger::json::{obj, Value};
use tsubasa_parallel::{ParallelConfig, ParallelEngine, QueryMethod, SketchMethod};
use tsubasa_storage::PileWriter;

fn main() {
    let basic_window = 120;
    let points = 960;
    let n = scaled(300, 60);
    let max_workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    println!(
        "Figure 6c: partition sweep | {n} series x {points} points | B={basic_window} | host has {max_workers} cores"
    );

    let collection = generate_berkeley_like(&BerkeleyLikeConfig {
        cells: n,
        points,
        ..BerkeleyLikeConfig::default()
    })
    .expect("generate dataset");

    let mut table = Table::new(&["partitions", "sketch wall", "query wall"]);
    let mut json_rows = Vec::new();

    for partitions in [1usize, 2, 4, 8, 16] {
        let path = std::env::temp_dir().join(format!(
            "tsubasa-fig6c-{}-{partitions}.pile",
            std::process::id()
        ));
        let engine = ParallelEngine::new(ParallelConfig {
            workers: partitions,
            batch_pairs: 128,
            sketch_method: SketchMethod::Exact,
            audit_pruned_chunks: false,
        });
        let writer = PileWriter::create(&path, n, basic_window).unwrap();
        let (sketch_report, pile) = engine
            .sketch_to_pile(&collection, basic_window, writer)
            .unwrap();
        let (_, query_report) = engine
            .query(&pile, 0..points / basic_window, QueryMethod::Exact)
            .unwrap();

        table.row(vec![
            partitions.to_string(),
            fmt_ms(millis(sketch_report.wall_time)),
            fmt_ms(millis(query_report.wall_time)),
        ]);
        json_rows.push(obj([
            ("partitions", (partitions as u64).into()),
            ("sketch_wall_ms", millis(sketch_report.wall_time).into()),
            ("query_wall_ms", millis(query_report.wall_time).into()),
        ]));
        std::fs::remove_file(&path).ok();
    }

    table.print("Figure 6c: impact of the number of partitions");
    tsubasa_bench::write_json(
        "fig6c_partitions",
        &obj([
            ("series", (n as u64).into()),
            ("points", (points as u64).into()),
            ("basic_window", (basic_window as u64).into()),
            ("host_cores", (max_workers as u64).into()),
            ("rows", Value::Arr(json_rows)),
        ]),
    )
    .expect("write fig6c_partitions results");
}
