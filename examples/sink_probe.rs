//! What one pass over a served correlation view costs per pair, by consumer:
//! the pass a served query makes over its key's `P`-length view
//! (`sweep_packed` in `DEFAULT_TILE_PAIRS` tiles, as `QueryEngine` does),
//! timed for
//!
//! * `edge` — an `EdgeSink` under the exact rule (a network query);
//! * `top-k` — a `TopKSink` with k = 100 (a top-k query);
//! * `watch` — one `EdgeWatch::observe`, alternating between two views so
//!   that each scan flips edges (a subscription frame, a sliding tick's diff);
//! * `threshold` — `CorrelationMatrix::threshold_lenient` (the sliding
//!   engines' `network`);
//! * `count` — a plain compare-and-count over the same slice, the floor any
//!   of them could reach.
//!
//! The views are exact correlation triangles of NCEA-like stations at θ
//! picked for 8 % density, each with one NaN planted. The consumers are
//! interleaved round by round in rotating order, so machine noise falls on
//! all of them alike; each line reports the per-op median and minimum in
//! nanoseconds per pair. Every answer is checked against the dense
//! threshold first.
//!
//! ```bash
//! cargo run --release --example sink_probe
//! ```

use std::hint::black_box;
use std::time::Instant;

use tsubasa::core::prelude::*;
use tsubasa::core::sweep::{sweep_packed, EdgeRule, DEFAULT_TILE_PAIRS};
use tsubasa::data::prelude::*;

/// Points per basic window.
const B: usize = 100;
/// Share of pairs in the probed network.
const DENSITY: f64 = 0.08;
/// Edges a top-k query keeps.
const K: usize = 100;
/// Interleaved rounds per shape.
const ROUNDS: usize = 300;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for n in [256, 512] {
        let windows = 25;
        let config = NceaLikeConfig {
            stations: n,
            points: windows * B,
            ..NceaLikeConfig::default()
        };
        let collection = generate_ncea_like(&config)?;
        let sketch = SketchSet::build(&collection, B)?;
        // Two views, the latest 25 and the latest 24 windows, a NaN in each.
        let mut views = Vec::new();
        for w in [windows, windows - 1] {
            let query = QueryWindow::latest(collection.series_len(), w * B)?;
            let mut corrs = exact::correlation_matrix(&collection, &sketch, query)?
                .upper_triangle()
                .to_vec();
            let pairs = corrs.len();
            corrs[pairs / 3] = f64::NAN;
            views.push(CorrelationMatrix::from_upper_triangle(n, corrs));
        }
        let mut sorted: Vec<f64> = views[0].upper_triangle().to_vec();
        sorted.retain(|c| !c.is_nan());
        sorted.sort_by(f64::total_cmp);
        let theta = sorted[((1.0 - DENSITY) * sorted.len() as f64) as usize];
        let rule = EdgeRule::for_method(PlanMethod::Exact, theta)?;
        let pairs = views[0].upper_triangle().len();

        // Every consumer's answer against the dense threshold.
        let dense = views[0].threshold_lenient(theta);
        let mut sink = EdgeSink::with_rule(rule);
        sweep_packed(n, views[0].upper_triangle(), DEFAULT_TILE_PAIRS, &mut sink);
        let edges = sink.finish(n);
        assert_eq!(edges.to_adjacency(), dense);
        assert_eq!(edges.nan_pair_count(), 1);
        let mut top = TopKSink::new(K);
        sweep_packed(n, views[0].upper_triangle(), DEFAULT_TILE_PAIRS, &mut top);
        let top = top.finish();
        assert_eq!((top.edges.len(), top.nan_pairs), (K, 1));
        assert!(top.edges.iter().all(|e| dense.has_edge(e.i, e.j)));
        let mut watch = EdgeWatch::new(rule, n);
        let mut network = AdjacencyMatrix::empty(n);
        watch
            .observe(views[0].upper_triangle())
            .apply_to(&mut network)?;
        assert_eq!(network, dense);
        let flips = {
            let delta = watch.observe(views[1].upper_triangle());
            delta.appeared.len() + delta.vanished.len()
        };
        println!(
            "# N = {n}: θ = {theta:.4}, {} edges, {flips} flips per watch scan",
            dense.edge_count()
        );
        println!("consumer    N     pairs    ns/pair p50   ns/pair min");

        let names = ["edge", "top-k", "watch", "threshold", "count"];
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
        for round in 0..ROUNDS {
            let view = &views[round % 2];
            let values = view.upper_triangle();
            for k in 0..names.len() {
                let op = (round + k) % names.len();
                let t = Instant::now();
                match op {
                    0 => {
                        let mut sink = EdgeSink::with_rule(rule);
                        sweep_packed(n, values, DEFAULT_TILE_PAIRS, &mut sink);
                        black_box(sink.finish(n));
                    }
                    1 => {
                        let mut sink = TopKSink::new(K);
                        sweep_packed(n, values, DEFAULT_TILE_PAIRS, &mut sink);
                        black_box(sink.finish());
                    }
                    2 => {
                        black_box(watch.observe(values));
                    }
                    3 => {
                        black_box(view.threshold_lenient(theta));
                    }
                    _ => {
                        black_box(black_box(values).iter().filter(|&&c| c > theta).count());
                    }
                }
                times[op].push(t.elapsed().as_secs_f64() * 1e9 / pairs as f64);
            }
        }
        for (name, mut t) in names.into_iter().zip(times) {
            t.sort_by(f64::total_cmp);
            println!(
                "{name:<10} {n:>4} {pairs:>9} {:>13.3} {:>13.3}",
                t[t.len() / 2],
                t[0]
            );
        }
    }
    Ok(())
}
