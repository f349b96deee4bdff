//! `ledger diff A B`: compare two sets of runs, metric by metric and
//! workload by workload, against each end-to-end metric's own bound.
//!
//! A set is a file of result lines (`ledger run --out FILE` appends one per
//! run), at least three per workload. A pairing is `worse` when set B's
//! median is worse than set A's by more than the bound, `unresolved` when
//! either set's own quartile spread is wider than the bound (unless every
//! run of B beats every run of A), and `ok` otherwise. Per-layer metrics
//! have no bound: they are listed with both medians and no verdict.

use std::collections::BTreeMap;

use crate::json::{parse, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, relative_spread};

/// Runs a set needs per workload before its spread means anything.
pub const MIN_RUNS: usize = 3;

/// Counts that must repeat exactly between runs of one commit on one seed.
pub const EXACT_REPEAT: [&str; 7] = [
    "stored_bytes_per_value",
    "core.sweep.skipped_pair_share",
    "core.delta.rechecked_share",
    "core.delta.changed_edges_per_tick",
    "storage.pile.bytes_written",
    "storage.pile.syncs",
    "storage.pile.segments_after_compact",
];

/// `(workload, metric)` → the values of every run in a set.
pub type Set = BTreeMap<(String, String), Vec<f64>>;

/// Parse a set file: one JSON result object per non-empty line.
pub fn read_set(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", number + 1))?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: no metrics", number + 1))?;
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Value::as_f64) {
                set.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

/// The verdict on one metric × workload pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A set's own spread is wider than the bound, so the bound cannot be
    /// resolved.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge set `b` against set `a` for one metric.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (med_a, med_b) = (median(a), median(b));
    let scale = med_a.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (med_b - med_a) / scale,
        Better::Higher => (med_a - med_b) / scale,
    };
    let spread = |v: &[f64]| relative_spread(v).unwrap_or(0.0);
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let every_b_beats_every_a = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let every_a_beats_every_b = a.iter().all(|&x| b.iter().all(|&y| beats(x, y)));
    if spread(a).max(spread(b)) > bound {
        if every_b_beats_every_a {
            Verdict::Ok
        } else if every_a_beats_every_b && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn summary(values: &[f64]) -> String {
    match quartiles(values) {
        Some((q1, q2, q3)) => format!("{q2:.6} [{q1:.6}, {q3:.6}] n={}", values.len()),
        None => format!("{:.6} n={}", median(values), values.len()),
    }
}

/// Compare two sets; prints a table and returns `(worse, unresolved)`.
pub fn diff(a: &Set, b: &Set) -> Result<(usize, usize), String> {
    let (mut worse, mut unresolved) = (0, 0);
    println!(
        "{:<12} {:<34} {:<10} {:<44} B median [q1, q3]",
        "workload", "metric", "verdict", "A median [q1, q3]"
    );
    for ((workload, name), values_a) in a {
        let Some(values_b) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let verdict = match END_TO_END.iter().find(|m| m.name == name) {
            Some(metric) => {
                if values_a.len() < MIN_RUNS || values_b.len() < MIN_RUNS {
                    return Err(format!(
                        "{name}@{workload}: a set needs at least {MIN_RUNS} runs (got {} and {})",
                        values_a.len(),
                        values_b.len()
                    ));
                }
                let verdict = judge(values_a, values_b, metric.better, metric.bound);
                worse += (verdict == Verdict::Worse) as usize;
                unresolved += (verdict == Verdict::Unresolved) as usize;
                verdict.as_str()
            }
            None if PER_LAYER.iter().any(|m| m.name == name) => "-",
            None => "undeclared",
        };
        let exact = EXACT_REPEAT.contains(&name.as_str()).then(|| {
            let first = values_a[0].to_bits();
            if values_a
                .iter()
                .chain(values_b)
                .all(|v| v.to_bits() == first)
            {
                "  (repeats exactly)"
            } else {
                "  (VARIES between runs)"
            }
        });
        println!(
            "{workload:<12} {name:<34} {verdict:<10} {:<44} {}{}",
            summary(values_a),
            summary(values_b),
            exact.unwrap_or("")
        );
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok((worse, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_sets_are_judged_against_the_bound() {
        let a = [10.0, 10.1, 9.9];
        assert_eq!(
            judge(&a, &[10.4, 10.5, 10.3], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[11.4, 11.5, 11.3], Better::Lower, 0.10),
            Verdict::Worse
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&a, &[8.4, 8.5, 8.3], Better::Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[11.4, 11.5, 11.3], Better::Higher, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn a_wide_set_is_unresolved_unless_one_side_wins_every_pair() {
        let noisy = [10.0, 14.0, 7.0];
        assert_eq!(
            judge(&noisy, &[10.5, 9.0, 12.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Every run of B beats every run of A: resolved in B's favour.
        assert_eq!(
            judge(&noisy, &[5.0, 6.0, 4.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        // Every run of A beats every run of B, and by more than the bound.
        assert_eq!(
            judge(&noisy, &[20.0, 25.0, 30.0], Better::Lower, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn set_files_group_values_by_workload_and_metric() {
        let line = |w: &str, v: f64| {
            format!(
                r#"{{"workload": "{w}", "seed": 1, "correct": true, "attempted": 1, "failed": 0, "metrics": {{"sketch_s": {{"value": {v}, "unit": "s"}}}}}}"#
            )
        };
        let text = [
            line("hist-mem", 1.0),
            line("hist-mem", 1.1),
            line("realtime", 2.0),
        ]
        .join("\n");
        let set = read_set(&text).unwrap();
        assert_eq!(
            set[&("hist-mem".to_string(), "sketch_s".to_string())],
            vec![1.0, 1.1]
        );
        assert_eq!(
            set[&("realtime".to_string(), "sketch_s".to_string())],
            vec![2.0]
        );
        assert!(read_set("{\"metrics\": {}}").is_err());
        // Too few runs is an error, not a verdict.
        assert!(diff(&set, &set).is_err());
    }
}
