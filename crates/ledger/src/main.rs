//! The TSUBASA benchmark ledger.
//!
//! ```text
//! ledger run --workload <hist-mem|realtime|pile-ooc|serve-live|all>
//!            [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke] [--out FILE]
//! ledger diff A B
//! ledger describe
//! ledger glossary
//! ```
//!
//! `run` measures one workload for `--seconds` seconds on inputs made from
//! `--seed`, checks every output against an oracle, prints every metric by
//! name with unit, sample count and bound on stderr, and prints one JSON
//! result object as the last line of stdout: every end-to-end metric when
//! `--trace 0`, every per-layer metric when `--trace 1`. It exits non-zero
//! when any operation failed or any oracle disagreed. `diff` compares two
//! files of result lines against the metrics' bounds. `describe` prints the
//! declarations `BENCHMARK.json` repeats, `glossary` the metric tables of
//! `README.md` beside this crate.

#![deny(unsafe_code)]

use std::io::Write;
use std::process::ExitCode;

use tsubasa_ledger::harness::{calibrate, Env, Scale};
use tsubasa_ledger::json::{obj, Value};
use tsubasa_ledger::metrics::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use tsubasa_ledger::{alloc, describe, diff, glossary, workloads, RUN_SECONDS};

// The counters behind `peak_alloc_mib` and `stored_bytes_per_value`; only
// the benchmark binary installs them.
#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage:
  ledger run --workload <hist-mem|realtime|pile-ooc|serve-live|all> [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke] [--out FILE]
  ledger diff A B
  ledger describe
  ledger glossary";

struct RunArgs {
    workload: String,
    env: Env,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut out = None;
    let mut env = Env {
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        scale: Scale::Full,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => env.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                env.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                env.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--scale" => {
                env.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("--scale takes full or smoke, not {value}")),
                }
            }
            "--out" => out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("no workload called {workload}"));
    }
    Ok(RunArgs { workload, env, out })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Print every metric of the run by name, with unit, sample count, bound
/// and direction.
fn print_table(workload: &str, env: &Env, report: &Report) {
    eprintln!(
        "\n== {workload} | seed {} | {} s | {} | nproc {} | {} | avx2 {} ==",
        env.seed,
        env.seconds,
        if env.trace { "traced" } else { "untraced" },
        env.nproc,
        cpu_model(),
        cfg!(target_feature = "avx2"),
    );
    eprintln!(
        "{:<38} {:>16} {:<8} {:>8} {:>6}  better",
        "metric", "value", "unit", "samples", "bound"
    );
    let row = |name: &str, unit: &str, bound: Option<f64>, better: &str| {
        if let Some(m) = report.get(name) {
            eprintln!(
                "{name:<38} {:>16.6} {unit:<8} {:>8} {:>6}  {better}",
                m.value,
                m.samples,
                bound.map_or("-".to_string(), |b| format!("{b}")),
            );
        }
    };
    if env.trace {
        for m in &PER_LAYER {
            row(m.name, m.unit, None, m.better.as_str());
        }
    } else {
        for m in &END_TO_END {
            row(m.name, m.unit, Some(m.bound), m.better.as_str());
        }
    }
    eprintln!(
        "attempted {} failed {} failed_share {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for failure in &report.failures {
        eprintln!("FAILED: {failure}");
    }
}

fn run_one(workload: &str, env: &Env, out: Option<&str>) -> ExitCode {
    let calib_before = calibrate();
    let Some(mut report) = workloads::run(workload, env) else {
        eprintln!("no workload called {workload}");
        return ExitCode::from(2);
    };
    let calib_after = calibrate();
    report.set("machine.calib_ms", (calib_before + calib_after) / 2.0, 2);
    eprintln!("calibration spin: {calib_before:.2} ms before, {calib_after:.2} ms after");
    print_table(workload, env, &report);

    let metrics = report.metrics_json(env.trace);
    if let Err(problem) = &metrics {
        eprintln!("FAILED: {problem}");
    }
    let correct = report.failed == 0 && report.attempted > 0 && metrics.is_ok();
    let result = obj([
        ("correct", correct.into()),
        ("attempted", report.attempted.max(1).into()),
        ("failed", report.failed.into()),
        ("metrics", metrics.unwrap_or(Value::Obj(Vec::new()))),
    ]);
    if let Some(path) = out {
        let mut line = vec![
            ("workload".to_string(), Value::from(workload)),
            ("seed".to_string(), env.seed.into()),
            ("trace".to_string(), (env.trace as u64).into()),
            ("seconds".to_string(), env.seconds.into()),
        ];
        line.extend(
            result
                .as_object()
                .expect("result is an object")
                .iter()
                .cloned(),
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", Value::Obj(line)));
        if let Err(e) = appended {
            eprintln!("ledger: could not append to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: one fresh process per workload, so no workload runs on
/// the heap and caches another left behind.
fn run_all(args: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut code = ExitCode::SUCCESS;
    for workload in &WORKLOADS {
        let child_args: Vec<String> = args
            .iter()
            .map(|a| {
                if a == "all" {
                    workload.name.to_string()
                } else {
                    a.clone()
                }
            })
            .collect();
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(&child_args)
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            code = ExitCode::FAILURE;
        }
    }
    code
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(run) if run.workload == "all" => run_all(&args[1..]),
            Ok(run) => run_one(&run.workload, &run.env, run.out.as_deref()),
            Err(problem) => {
                eprintln!("{problem}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("diff") if args.len() == 3 => {
            let read = |path: &String| {
                std::fs::read_to_string(path)
                    .map_err(|e| format!("{path}: {e}"))
                    .and_then(|text| diff::read_set(&text).map_err(|e| format!("{path}: {e}")))
            };
            match (read(&args[1]), read(&args[2])) {
                (Ok(a), Ok(b)) => match diff::diff(&a, &b) {
                    Ok((0, _)) => ExitCode::SUCCESS,
                    Ok(_) => ExitCode::FAILURE,
                    Err(problem) => {
                        eprintln!("{problem}");
                        ExitCode::from(2)
                    }
                },
                (Err(problem), _) | (_, Err(problem)) => {
                    eprintln!("{problem}");
                    ExitCode::from(2)
                }
            }
        }
        Some("describe") => {
            println!("{}", describe());
            ExitCode::SUCCESS
        }
        Some("glossary") => {
            print!("{}", glossary());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
