//! The TSUBASA benchmark ledger: four workloads, named end-to-end and
//! per-layer metrics, a traced run, and a regression diff — one harness
//! whose workload and metric names later issues can cite.
//!
//! Every layer is measured from outside, by timing calls into the product
//! crates' public functions. The binary (`src/main.rs`) is the command line;
//! this library holds everything it runs so `tests/smoke.rs` can read the
//! declarations and parse results. See `README.md` beside this crate.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod alloc;
pub mod data;
pub mod diff;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod tmp;
pub mod trace;
pub mod workloads;

use json::{obj, Value};
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};

/// Seconds a run measures for when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;

/// The declarations, in the shape of `BENCHMARK.json`.
pub fn describe() -> Value {
    let text = |s: &str| Value::from(s);
    obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "-p",
                    "tsubasa-ledger",
                    "--",
                    "run",
                ]
                .iter()
                .map(|s| text(s))
                .collect(),
            ),
        ),
        ("paths", Value::Arr(vec![text("crates/ledger")])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The metric tables of `README.md`, as markdown.
pub fn glossary() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | meaning |\n|---|---|---|---|---|\n",
    );
    for m in &END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.meaning
        );
    }
    out += "\n| per-layer metric | unit | better | how (public call) | should move |\n|---|---|---|---|---|\n";
    for m in &PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.how,
            m.moves
        );
    }
    out
}
