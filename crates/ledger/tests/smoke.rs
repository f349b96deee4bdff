//! Runs all four workloads at smoke scale, oracles on, traced and untraced,
//! and holds their output to the contract in the repository's
//! `BENCHMARK.json`: every declared metric is reported, by its declared
//! name and unit, with a finite value, and nothing undeclared is.

use std::collections::BTreeSet;
use std::process::Command;

use tsubasa_ledger::json::{parse, Value};
use tsubasa_ledger::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    parse(&text).expect("BENCHMARK.json parses")
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn field<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{entry} has no string {key}"))
}

/// `(name, unit)` of every metric declared under `section`.
fn declared(benchmark: &Value, section: &str) -> Vec<(String, String)> {
    benchmark
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

#[test]
fn benchmark_json_repeats_the_ledger_declarations() {
    let benchmark = benchmark_json();
    let keys: Vec<&str> = benchmark
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        benchmark,
        tsubasa_ledger::describe(),
        "regenerate with `ledger describe`"
    );

    let workloads = benchmark
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, workload) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(field(entry, "name"), workload.name);
        assert!(field(entry, "why").len() <= 200);
    }
    let end_to_end = benchmark
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, metric) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(field(entry, "name"), metric.name);
        assert_eq!(field(entry, "unit"), metric.unit);
        assert_eq!(field(entry, "better"), metric.better.as_str());
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            Some(metric.bound)
        );
    }
    let per_layer = benchmark
        .get("per_layer")
        .and_then(Value::as_array)
        .unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, metric) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(field(entry, "name"), metric.name);
        assert_eq!(field(entry, "unit"), metric.unit);
        assert_eq!(field(entry, "better"), metric.better.as_str());
    }
    let mut names = BTreeSet::new();
    for (name, _) in declared(&benchmark, "end_to_end")
        .into_iter()
        .chain(declared(&benchmark, "per_layer"))
        .chain(declared_workloads(&benchmark))
    {
        assert!(name_ok(&name), "bad name {name}");
        assert!(names.insert(name.clone()), "{name} is used twice");
    }
}

fn declared_workloads(benchmark: &Value) -> Vec<(String, String)> {
    benchmark
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| (field(w, "name").to_string(), String::new()))
        .collect()
}

/// Run one workload at smoke scale and hold its result line to the
/// declarations of `section`.
fn run_and_check(workload: &str, trace: bool, section: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "0.6",
        ])
        .args(["--scale", "smoke", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run the ledger binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stderr}"
    );

    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().expect("a result line");
    let result = parse(line).unwrap_or_else(|e| panic!("result line does not parse ({e}): {line}"));
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stderr}");
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{stderr}"
    );

    let want = declared(&benchmark_json(), section);
    let metrics = result.get("metrics").and_then(Value::as_object).unwrap();
    for (name, entry) in metrics {
        assert!(name_ok(name), "{workload}: bad metric name {name}");
        let unit = field(entry, "unit");
        assert!(
            want.iter().any(|(n, u)| n == name && u == unit),
            "{workload}: {name} [{unit}] is not declared under {section}"
        );
        let value = entry.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} is not a finite number"
        );
        if !trace {
            assert_ne!(value, Some(0.0), "{workload}: end-to-end {name} is 0");
        }
    }
    for (name, _) in &want {
        assert!(
            metrics.iter().any(|(n, _)| n == name),
            "{workload}: declared metric {name} missing from the output"
        );
    }
}

#[test]
fn hist_mem_reports_every_declared_metric() {
    run_and_check("hist-mem", false, "end_to_end");
    run_and_check("hist-mem", true, "per_layer");
}

#[test]
fn realtime_reports_every_declared_metric() {
    run_and_check("realtime", false, "end_to_end");
    run_and_check("realtime", true, "per_layer");
}

#[test]
fn pile_ooc_reports_every_declared_metric() {
    run_and_check("pile-ooc", false, "end_to_end");
    run_and_check("pile-ooc", true, "per_layer");
}

#[test]
fn serve_live_reports_every_declared_metric() {
    run_and_check("serve-live", false, "end_to_end");
    run_and_check("serve-live", true, "per_layer");
}
