//! Figure 5a — Network accuracy comparison.
//!
//! Setup (paper §4.1): NCEA-like station data, basic window B = 200,
//! threshold θ = 0.75. The DFT-based approximate network is built with an
//! increasing number of coefficients (50 → 200 = all of them) and compared to
//! the exact TSUBASA network on two measures: number of edges and the
//! correlation similarity ratio D_p.
//!
//! Expected shape (paper): the approximate network has *more* edges (false
//! positives, never false negatives); the edge count converges to the exact
//! count and D_p climbs to 1.0 only when (nearly) all coefficients are used.

use tsubasa_bench::{millis, scaled, time, Table};
use tsubasa_core::prelude::*;
use tsubasa_data::prelude::*;
use tsubasa_dft::approx::{approximate_correlation_matrix_reference, ApproxStrategy};
use tsubasa_dft::sketch::{DftSketchSet, Transform};
use tsubasa_network::ApproxNetworkBuilder;

/// Climate networks are built on *anomaly* series (departure from the usual
/// behaviour, paper §1). Remove the diurnal climatology and a 30-day moving
/// seasonal estimate from a raw hourly series so that the correlation
/// structure reflects weather variability rather than the shared annual
/// cycle (which would otherwise connect every pair of stations).
fn deseasonalize(values: &[f64]) -> Vec<f64> {
    let diurnal_removed = {
        let clim = seasonal_climatology(values, 24);
        anomalies(values, &clim)
    };
    // Centred moving average over ~30 days of hours as the seasonal estimate.
    let half = 360usize;
    let n = diurnal_removed.len();
    let mut prefix = vec![0.0f64; n + 1];
    for (i, v) in diurnal_removed.iter().enumerate() {
        prefix[i + 1] = prefix[i] + v;
    }
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            let mean = (prefix[hi] - prefix[lo]) / (hi - lo) as f64;
            diurnal_removed[i] - mean
        })
        .collect()
}

fn main() {
    let basic_window = 200;
    let theta = 0.75;
    let stations = scaled(100, 24);
    let points = scaled(8_760, 2_000);
    println!("Figure 5a: accuracy | {stations} stations x {points} points | B={basic_window} theta={theta}");

    let raw = generate_ncea_like(&NceaLikeConfig {
        stations,
        points,
        ..NceaLikeConfig::default()
    })
    .expect("generate dataset");
    let collection =
        SeriesCollection::from_rows(raw.iter().map(|s| deseasonalize(s.values())).collect())
            .expect("anomaly transform");

    // Exact network (independent of the coefficient count).
    let builder = HistoricalBuilder::new(
        collection.clone(),
        NetworkConfig::new(basic_window, theta).unwrap(),
    )
    .expect("sketch");
    let n_windows = builder.sketch().window_count();
    let query = QueryWindow::new(n_windows * basic_window - 1, n_windows * basic_window).unwrap();
    let (exact_matrix, exact_time) = time(|| builder.correlation_matrix(query).unwrap());
    let exact_net = exact_matrix.threshold(theta).unwrap();
    println!(
        "exact network: {} edges over {} pairs (query time {:?})",
        exact_net.edge_count(),
        collection.pair_count(),
        exact_time
    );

    let mut table = Table::new(&[
        "coefficients",
        "approx edges",
        "exact edges",
        "similarity D_p",
        "false pos",
        "false neg",
        "precision",
        "recall",
        "tiled query ms",
        "scalar query ms",
        "x",
    ]);
    let mut json_rows = Vec::new();

    for coefficients in [50usize, 100, 150, 200] {
        let sketch = DftSketchSet::build(&collection, basic_window, coefficients, Transform::Naive)
            .expect("dft sketch");
        let builder = ApproxNetworkBuilder::from_sketch(sketch);
        // Tiled batched path (ApproxPlan + Equation 4 pruning) vs the scalar
        // per-pair reference recombination — the same-binary speedup, at
        // the Figure 5a shape.
        // Best-of-3: single-shot sub-ms timings swing ~2× on a busy box.
        let approx_net = builder.network(0..n_windows, theta).unwrap();
        let t_tiled = (0..3)
            .map(|_| time(|| builder.network(0..n_windows, theta).unwrap()).1)
            .min()
            .unwrap();
        let t_scalar = (0..3)
            .map(|_| {
                time(|| {
                    approximate_correlation_matrix_reference(
                        builder.sketch(),
                        0..n_windows,
                        ApproxStrategy::Equation5,
                    )
                    .unwrap()
                })
                .1
            })
            .min()
            .unwrap();
        let cmp = tsubasa_network::NetworkComparison::compare(&exact_net, &approx_net);
        table.row(vec![
            coefficients.to_string(),
            cmp.candidate_edges.to_string(),
            cmp.reference_edges.to_string(),
            format!("{:.4}", cmp.similarity_ratio),
            cmp.false_positives.to_string(),
            cmp.false_negatives.to_string(),
            format!("{:.4}", cmp.precision()),
            format!("{:.4}", cmp.recall()),
            format!("{:.3}", millis(t_tiled)),
            format!("{:.3}", millis(t_scalar)),
            format!("{:.2}", millis(t_scalar) / millis(t_tiled)),
        ]);
        json_rows.push(serde_json::json!({
            "coefficients": coefficients,
            "approx_edges": cmp.candidate_edges,
            "exact_edges": cmp.reference_edges,
            "similarity_ratio": cmp.similarity_ratio,
            "false_positives": cmp.false_positives,
            "false_negatives": cmp.false_negatives,
            "precision": cmp.precision(),
            "recall": cmp.recall(),
            "approx_query_tiled_ms": millis(t_tiled),
            "approx_query_scalar_ms": millis(t_scalar),
            "approx_query_speedup": millis(t_scalar) / millis(t_tiled),
        }));
    }

    table.print("Figure 5a: network accuracy vs number of DFT coefficients");
    tsubasa_bench::write_json(
        "fig5a_accuracy",
        &serde_json::json!({
            "stations": stations,
            "points": points,
            "basic_window": basic_window,
            "theta": theta,
            "exact_edges": exact_net.edge_count(),
            "rows": json_rows,
        }),
    );
}
