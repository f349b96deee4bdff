//! What one exact sliding tick costs, step by step, at the ledger's
//! `realtime` shape (N = 512, B = 120, a 12-window query), timed through
//! public calls on the same chunks:
//!
//! * `arriving_window` — the arrival step's shape check and statistics;
//! * `arriving_corrs` — the arriving window's correlation row (a fresh row,
//!   normalization and the window kernel);
//! * `tick` / `tick+watch` — `SlidingNetwork::ingest` without and with an
//!   edge subscription (the arrival step, the row, the Lemma 2 sweep and,
//!   subscribed, the `EdgeWatch` scan);
//! * `kernel B=120` / `kernel B=8` — `tiled_pair_corrs_into` alone on one
//!   normalized `N × B` block: the window kernel's multiply-add loop and its
//!   per-pair finish, which does not scale with `B`;
//! * `watch` / `count` — one `EdgeWatch::observe` over the subscribed
//!   network's correlations at two ticks in turn, and a plain
//!   compare-and-count over the same slice, in ns per pair.
//!
//! The stream cycles through 60 generated windows of NCEA-like stations.
//! Steps are interleaved tick by tick in rotating order, so machine noise
//! falls on all of them alike; each line is the median and minimum over the
//! ticks. The last line is the share of a subscribed tick spent outside the
//! window kernel (`1 − kernel B=120 / tick+watch`).
//!
//! ```bash
//! cargo run --release --example tick_probe
//! ```

use std::hint::black_box;
use std::time::Instant;

use tsubasa::core::prelude::*;
use tsubasa::core::sketch::{arriving_corrs, arriving_window};
use tsubasa::core::stats::{normalize_into, tiled_pair_corrs_into, WindowStats};
use tsubasa::core::sweep::EdgeRule;
use tsubasa::data::prelude::*;

/// Series.
const N: usize = 512;
/// Points per basic window.
const B: usize = 120;
/// Basic windows in the sliding query window.
const WINDOWS: usize = 12;
/// Windows of stream data, replayed cyclically.
const CYCLE: usize = 60;
/// Timed ticks.
const TICKS: usize = 560;
/// Share of pairs the subscribed network connects.
const DENSITY: f64 = 0.08;

/// A normalized `N × len` block, row-major, from the first `len` points of
/// each series of `chunk`.
fn normalized(chunk: &[Vec<f64>], len: usize) -> Vec<f64> {
    let mut z = vec![0.0; N * len];
    for (row, points) in z.chunks_exact_mut(len).zip(chunk) {
        normalize_into(
            &points[..len],
            &WindowStats::from_values(&points[..len]),
            row,
        );
    }
    z
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = NceaLikeConfig {
        stations: N,
        points: (WINDOWS + CYCLE) * B,
        ..NceaLikeConfig::default()
    };
    let collection = generate_ncea_like(&config)?;
    let history = collection.truncate_length(WINDOWS * B)?;
    let chunks: Vec<Vec<Vec<f64>>> = (WINDOWS..WINDOWS + CYCLE)
        .map(|w| {
            collection
                .iter()
                .map(|s| s.values()[w * B..(w + 1) * B].to_vec())
                .collect()
        })
        .collect();

    let sketch = SketchSet::build(&history, B)?;
    let mut unsubscribed = SlidingNetwork::initialize(&history, &sketch, WINDOWS * B)?;
    let mut sorted = unsubscribed.correlation_matrix().upper_triangle().to_vec();
    sorted.sort_by(f64::total_cmp);
    let theta = sorted[((1.0 - DENSITY) * sorted.len() as f64) as usize];
    let mut subscribed = unsubscribed.clone();
    subscribed.subscribe_edges(theta)?;

    let blocks = [normalized(&chunks[0], B), normalized(&chunks[0], 8)];
    let mut out = vec![0.0; N * (N - 1) / 2];
    let pairs = out.len();

    let names = [
        "arriving_window",
        "arriving_corrs",
        "tick",
        "tick+watch",
        "kernel B=120",
        "kernel B=8",
    ];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut z = Vec::new();
    let mut flips = 0;
    for tick in 0..TICKS {
        let chunk = &chunks[tick % CYCLE];
        for k in 0..names.len() {
            let op = (tick + k) % names.len();
            let t = Instant::now();
            match op {
                0 => {
                    black_box(arriving_window(chunk, N, B)?);
                }
                1 => {
                    let stats = arriving_window(chunk, N, B)?;
                    let start = Instant::now();
                    black_box(arriving_corrs(chunk, &stats, &mut z));
                    times[op].push(start.elapsed().as_secs_f64() * 1e6);
                    continue;
                }
                2 => unsubscribed.ingest(chunk)?,
                3 => {
                    subscribed.ingest(chunk)?;
                    let delta = subscribed.changed_edges().expect("subscribed");
                    flips += delta.appeared.len() + delta.vanished.len();
                }
                4 => tiled_pair_corrs_into(&blocks[0], N, B, &mut out),
                _ => tiled_pair_corrs_into(&blocks[1], N, 8, &mut out),
            }
            times[op].push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    assert_eq!(
        subscribed.correlation_matrix(),
        unsubscribed.correlation_matrix()
    );

    // The watch alone, over two of the subscribed network's triangles.
    let views = [subscribed.correlation_matrix().upper_triangle().to_vec(), {
        subscribed.ingest(&chunks[TICKS % CYCLE])?;
        subscribed.correlation_matrix().upper_triangle().to_vec()
    }];
    let mut watch = EdgeWatch::new(EdgeRule::for_method(PlanMethod::Exact, theta)?, N);
    let (mut watch_ns, mut count_ns) = (Vec::new(), Vec::new());
    for round in 0..TICKS {
        let values = &views[round % 2];
        let t = Instant::now();
        black_box(watch.observe(values));
        watch_ns.push(t.elapsed().as_secs_f64() * 1e9 / pairs as f64);
        let t = Instant::now();
        black_box(black_box(values).iter().filter(|&&c| c > theta).count());
        count_ns.push(t.elapsed().as_secs_f64() * 1e9 / pairs as f64);
    }

    let median = |t: &mut Vec<f64>| {
        t.sort_by(f64::total_cmp);
        (t[t.len() / 2], t[0])
    };
    println!(
        "# N = {N}, B = {B}, {WINDOWS}-window query, {TICKS} ticks: θ = {theta:.4}, {:.1} flips per tick",
        flips as f64 / TICKS as f64
    );
    println!("step               µs p50      µs min");
    let mut medians = Vec::new();
    for (name, mut t) in names.into_iter().zip(times) {
        let (p50, min) = median(&mut t);
        medians.push(p50);
        println!("{name:<16} {p50:>9.1} {min:>11.1}");
    }
    println!("step            ns/pair p50 ns/pair min");
    for (name, t) in [("watch", &mut watch_ns), ("count", &mut count_ns)] {
        let (p50, min) = median(t);
        println!("{name:<16} {p50:>9.3} {min:>11.3}");
    }
    println!(
        "non-kernel share of a subscribed tick: {:.1} %",
        100.0 * (1.0 - medians[4] / medians[3])
    );
    Ok(())
}
