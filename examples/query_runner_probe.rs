//! How many hardware threads an in-memory query sweep should use: times one
//! exact θ-network query (plan build plus streamed sweep) per shape on three
//! runners, interleaved round by round in rotating order so that machine
//! noise falls on all three alike:
//!
//! * `single` — one run on the calling thread (`SerialRunner`);
//! * `machine` — `ScopedRunner::machine`, what `exact::network_streamed`
//!   uses: one run per hardware thread the sweep's work pays for;
//! * `two` — two runs whatever the size (`ScopedRunner::new(2)`).
//!
//! Each line reports the per-op median and minimum of every runner, and the
//! share of rounds in which `machine` was no slower than `single`. Every
//! runner's edge list is asserted equal to the single run's.
//!
//! ```bash
//! cargo run --release --example query_runner_probe
//! ```

use std::time::Instant;

use tsubasa::core::prelude::*;
use tsubasa::core::sketch::packed_pairs;
use tsubasa::core::sweep::{network_pooled, EdgeRule, TableAudit, DEFAULT_TILE_PAIRS};
use tsubasa::core::{JobRunner, ScopedRunner, SerialRunner};
use tsubasa::data::prelude::*;

/// Points per basic window.
const B: usize = 100;
/// Share of pairs in the probed network, as in the benchmark ledger (θ is
/// its quantile).
const DENSITY: f64 = 0.08;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // (series, windows, rounds): around the spawn break-even and at the
    // benchmark's full `hist-mem` shape.
    let shapes = [
        (48, 8, 400),
        (100, 15, 400),
        (160, 15, 300),
        (200, 15, 300),
        (256, 15, 200),
        (320, 15, 200),
        (512, 25, 150),
    ];
    println!("shape                pair-windows  workers  single p50/min (µs)  machine p50/min (µs)  two p50/min (µs)  machine<=single");
    for (n, windows, rounds) in shapes {
        let config = NceaLikeConfig {
            stations: n,
            points: windows * B,
            ..NceaLikeConfig::default()
        };
        let collection = generate_ncea_like(&config)?;
        let sketch = SketchSet::build(&collection, B)?;
        let query = QueryWindow::latest(collection.series_len(), windows * B)?;
        let mut corrs = exact::correlation_matrix(&collection, &sketch, query)?
            .upper_triangle()
            .to_vec();
        corrs.sort_by(f64::total_cmp);
        let theta = corrs[((1.0 - DENSITY) * corrs.len() as f64) as usize];
        let rule = EdgeRule::for_method(PlanMethod::Exact, theta)?;
        let query_on = |runner: &dyn JobRunner| -> Result<(EdgeList, f64), Error> {
            let t = Instant::now();
            let plan = QueryPlan::build(&collection, &sketch, query)?;
            let view = sketch.window_corrs_view(plan.full_windows());
            let (tile, audit) = (DEFAULT_TILE_PAIRS, TableAudit::Off);
            let (edges, _) = network_pooled(runner, &plan, view, None, rule, tile, audit);
            Ok((edges, t.elapsed().as_secs_f64() * 1e6))
        };
        let plan = QueryPlan::build(&collection, &sketch, query)?;
        let machine = ScopedRunner::machine(&plan);
        let two = ScopedRunner::new(2);
        let runners: [&dyn JobRunner; 3] = [&SerialRunner, &machine, &two];
        let (reference, _) = query_on(&SerialRunner)?;
        let mut times = [Vec::new(), Vec::new(), Vec::new()];
        let mut machine_wins = 0;
        for round in 0..rounds {
            let mut this_round = [0.0; 3];
            for k in 0..3 {
                let arm = (round + k) % 3;
                let (edges, us) = query_on(runners[arm])?;
                assert_eq!(edges, reference, "runner {arm} at N = {n}");
                this_round[arm] = us;
            }
            machine_wins += usize::from(this_round[1] <= this_round[0]);
            for (arm, us) in this_round.into_iter().enumerate() {
                times[arm].push(us);
            }
        }
        let [single, pooled, forced] = times.map(|mut t| {
            t.sort_by(f64::total_cmp);
            (t[t.len() / 2], t[0])
        });
        println!(
            "N={n:<4} windows={windows:<3} {:>12}  {:>7}  {:>10.1} / {:<8.1} {:>10.1} / {:<8.1} {:>8.1} / {:<8.1} {:>6.0} %",
            packed_pairs(n) * plan.window_count(),
            machine.worker_count(),
            single.0,
            single.1,
            pooled.0,
            pooled.1,
            forced.0,
            forced.1,
            100.0 * machine_wins as f64 / rounds as f64,
        );
    }
    Ok(())
}
