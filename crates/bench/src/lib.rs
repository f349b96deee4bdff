//! Shared harness utilities for the figure-reproduction benchmarks.
//!
//! Every `benches/figNx_*.rs` target is a stand-alone binary (`harness =
//! false`) that generates its workload, runs the sweep the corresponding
//! paper figure reports, prints the series as an aligned text table, and
//! drops a machine-readable JSON copy under `target/bench-results/`. (The
//! repo's regression benchmark is `crates/ledger`, declared in
//! `BENCHMARK.json`; these binaries reproduce the paper's figures.)
//!
//! Scale knobs:
//!
//! * `TSUBASA_BENCH_SCALE` — multiplies dataset sizes (default 1.0; use
//!   `0.2` for a quick smoke run, `2.0`+ on beefier machines).
//! * `TSUBASA_BENCH_WORKERS` — overrides the worker count used by the
//!   parallel benchmarks (default: available cores minus one).

#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Measure the wall-clock time of a closure, returning its result too.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Milliseconds as an `f64`, convenient for tables and JSON.
pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The dataset scale factor from `TSUBASA_BENCH_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("TSUBASA_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0)
}

/// Apply the scale factor to a count, with a floor so sweeps stay non-trivial.
pub fn scaled(base: usize, floor: usize) -> usize {
    ((base as f64 * scale()).round() as usize).max(floor)
}

/// The worker count for parallel benchmarks: `TSUBASA_BENCH_WORKERS` or
/// available cores minus one (the paper reserves one core for the database
/// worker).
pub fn workers() -> usize {
    std::env::var("TSUBASA_BENCH_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|v| *v > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get().saturating_sub(1).max(1))
                .unwrap_or(1)
        })
}

/// A simple fixed-width table printer for the benchmark output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must have as many cells as the header).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Print the table to stdout with a title.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===");
        print!("{}", self.render());
    }
}

/// Write a JSON result blob under `target/bench-results/<name>.json`.
pub fn write_json(name: &str, value: &serde_json::Value) {
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(body) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(&path, body);
        println!("(results written to {})", path.display());
    }
}

/// Directory where benchmark results are persisted.
///
/// Resolution order: `CARGO_TARGET_DIR` if set; else the enclosing workspace
/// root found by walking up from the current directory to the first
/// `Cargo.lock`; else the compile-time workspace location. The workspace
/// anchor matters because cargo runs bench binaries with the *package*
/// directory as the working directory — a cwd-relative `target/` would
/// scatter results under `crates/bench/target/` instead of the advertised
/// `target/bench-results/`. The runtime walk (rather than a baked-in
/// `env!` path alone) keeps relocated checkouts writing next to themselves.
pub fn results_dir() -> PathBuf {
    if let Some(dir) = std::env::var_os("CARGO_TARGET_DIR") {
        return PathBuf::from(dir).join("bench-results");
    }
    let mut dir = std::env::current_dir().unwrap_or_default();
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("target").join("bench-results");
        }
        if !dir.pop() {
            break;
        }
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(|ws| ws.to_path_buf())
        .unwrap_or_default()
        .join("target")
        .join("bench-results")
}

/// Format a millisecond value with sensible precision.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0} ms")
    } else if ms >= 1.0 {
        format!("{ms:.2} ms")
    } else {
        format!("{:.1} us", ms * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_something() {
        let (value, elapsed) = time(|| (0..10_000).sum::<u64>());
        assert_eq!(value, 49_995_000);
        assert!(elapsed >= Duration::ZERO);
    }

    #[test]
    fn scaled_applies_floor() {
        assert!(scaled(100, 10) >= 10);
        assert_eq!(millis(Duration::from_millis(250)), 250.0);
    }

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["a", "value"]);
        t.row(vec!["1".into(), "10 ms".into()]);
        t.row(vec!["200".into(), "3 ms".into()]);
        let r = t.render();
        assert!(r.contains("value"));
        assert!(r.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn fmt_ms_chooses_units() {
        assert_eq!(fmt_ms(0.5), "500.0 us");
        assert_eq!(fmt_ms(12.345), "12.35 ms");
        assert_eq!(fmt_ms(250.0), "250 ms");
    }

    #[test]
    fn workers_is_positive() {
        assert!(workers() >= 1);
    }
}
