//! Figure 6d — Space overhead of the sketch store.
//!
//! Setup (paper §4.3): 2,000 series (scaled here), Berkeley-Earth-like length
//! of 3,652 points; the size of the sketch database is reported as the basic
//! window size grows, for TSUBASA and for the DFT approximation.
//!
//! Expected shape (paper): both algorithms store rows of the same size per
//! basic window, so their space overhead is identical and shrinks inversely
//! with B (fewer windows to store).

use tsubasa_bench::{scaled, Table};
use tsubasa_data::prelude::*;
use tsubasa_ledger::json::{obj, Value};
use tsubasa_parallel::{ParallelConfig, ParallelEngine};
use tsubasa_storage::PileWriter;

/// Payload bytes of a pile holding `windows` basic windows of `n` series:
/// per window one `f64` per pair (the correlation, or the Equation 3
/// estimate — same size for both algorithms, the paper's observation) and a
/// `(len, mean, std)` triple per series. The 64-byte file and segment headers
/// come on top.
fn payload_bytes(n: usize, windows: usize) -> u64 {
    (windows * (n * (n - 1) / 2 + 3 * n) * 8) as u64
}

fn main() {
    let n = scaled(2_000, 200);
    let points = 3_652;
    println!("Figure 6d: sketch space overhead | {n} series x {points} points");

    let mut table = Table::new(&["B", "windows", "TSUBASA pile (MiB)", "DFT pile (MiB)"]);
    let mut json_rows = Vec::new();

    for basic_window in [60usize, 120, 240, 480, 960] {
        let windows = points / basic_window;
        let bytes = payload_bytes(n, windows);
        let mib = bytes as f64 / (1024.0 * 1024.0);
        table.row(vec![
            basic_window.to_string(),
            windows.to_string(),
            format!("{mib:.1}"),
            format!("{mib:.1}"),
        ]);
        json_rows.push(obj([
            ("basic_window", (basic_window as u64).into()),
            ("windows", (windows as u64).into()),
            ("bytes", bytes.into()),
            ("mib", mib.into()),
        ]));
    }

    // Validate the analytic formula against an actual on-disk pile at a
    // small scale (the big layouts above would needlessly write gigabytes).
    let small = generate_berkeley_like(&BerkeleyLikeConfig {
        cells: 40,
        points: 720,
        ..BerkeleyLikeConfig::default()
    })
    .unwrap();
    let path = std::env::temp_dir().join(format!("tsubasa-fig6d-{}.pile", std::process::id()));
    let engine = ParallelEngine::new(ParallelConfig::default());
    let writer = PileWriter::create(&path, small.len(), 120).unwrap();
    let (_, pile) = engine.sketch_to_pile(&small, 120, writer).unwrap();
    let actual = pile.space_bytes();
    let predicted = payload_bytes(small.len(), 720 / 120) + 64 * (1 + pile.segment_count() as u64);
    println!("validation on a 40-series pile: predicted {predicted} bytes, on-disk {actual} bytes");
    assert_eq!(
        actual, predicted,
        "analytic space formula must match the real pile"
    );
    std::fs::remove_file(&path).ok();

    table.print("Figure 6d: sketch-store size vs basic-window size");
    tsubasa_bench::write_json(
        "fig6d_space",
        &obj([
            ("series", (n as u64).into()),
            ("points", (points as u64).into()),
            ("rows", Value::Arr(json_rows)),
        ]),
    )
    .expect("write fig6d_space results");
}
