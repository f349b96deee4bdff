//! Backend benchmark — one query pipeline, two sketch backends.
//!
//! The engine's `query`/`network`/`top_k` are written once against the
//! `CorrSource` trait; this bench times the identical query against each
//! backend — the in-memory dual sketch and the memory-mapped pile — under
//! both query methods, and asserts the answers agree bit-for-bit while
//! reporting what each backend's serving path costs.

use std::time::{Duration, Instant};

use tsubasa_bench::{fmt_ms, millis, scaled, workers, Table};
use tsubasa_core::source::CorrSource;
use tsubasa_core::sweep::{EdgeList, TopK};
use tsubasa_data::prelude::*;
use tsubasa_dft::sketch::{DftSketchSet, Transform};
use tsubasa_parallel::{ParallelConfig, ParallelEngine, QueryMethod, SketchMethod};
use tsubasa_serve::mirror_sketches_to_pile;
use tsubasa_storage::PileWriter;

fn time_queries<S: CorrSource + ?Sized>(
    engine: &ParallelEngine,
    source: &S,
    windows: usize,
    method: QueryMethod,
    theta: f64,
    k: usize,
) -> (Duration, Duration, EdgeList, TopK) {
    let t = Instant::now();
    let (net, _) = engine.network(source, 0..windows, method, theta).unwrap();
    let net_wall = t.elapsed();
    let t = Instant::now();
    let (top, _) = engine.top_k(source, 0..windows, method, k).unwrap();
    let top_wall = t.elapsed();
    (net_wall, top_wall, net, top)
}

fn main() {
    let basic_window = 120;
    let points = 960;
    let windows = points / basic_window;
    let theta = 0.7;
    let k = 50;
    let coefficients = 16;
    let workers = workers();
    let sweep: Vec<usize> = [100usize, 200].iter().map(|&n| scaled(n, 24)).collect();

    println!(
        "Backend benchmark: one CorrSource pipeline over memory / pile | \
         B={basic_window} | {points} points | theta={theta} | k={k} | {workers} workers"
    );

    let engine = ParallelEngine::new(ParallelConfig {
        workers,
        batch_pairs: 256,
        sketch_method: SketchMethod::Dft { coefficients },
        audit_pruned_chunks: false,
    });

    let mut table = Table::new(&["series", "method", "backend", "network", "top-k"]);
    let mut json_rows = Vec::new();

    for &n in &sweep {
        let collection = generate_berkeley_like(&BerkeleyLikeConfig {
            cells: n,
            points,
            ..BerkeleyLikeConfig::default()
        })
        .expect("generate dataset");
        let dft =
            DftSketchSet::build(&collection, basic_window, coefficients, Transform::Naive).unwrap();

        // Pile with correlation and estimate rows mirrored per window.
        let path = std::env::temp_dir().join(format!(
            "tsubasa-figbackend-{}-{n}.pile",
            std::process::id()
        ));
        let mut writer = PileWriter::create(&path, n, basic_window).unwrap();
        mirror_sketches_to_pile(&mut writer, Some(dft.base()), Some(&dft)).unwrap();
        let pile = writer.into_pile().unwrap();

        for method in [QueryMethod::Exact, QueryMethod::Approximate] {
            let (mem_net_w, mem_top_w, mem_net, mem_top) =
                time_queries(&engine, &dft, windows, method, theta, k);
            let (pile_net_w, pile_top_w, pile_net, pile_top) =
                time_queries(&engine, &pile, windows, method, theta, k);

            assert_eq!(mem_net.edges(), pile_net.edges(), "pile net {method:?}");
            assert_eq!(mem_top.edges, pile_top.edges, "pile top-k {method:?}");

            for (backend, net_w, top_w) in [
                ("memory", mem_net_w, mem_top_w),
                ("pile", pile_net_w, pile_top_w),
            ] {
                table.row(vec![
                    n.to_string(),
                    format!("{method:?}"),
                    backend.to_string(),
                    fmt_ms(millis(net_w)),
                    fmt_ms(millis(top_w)),
                ]);
                json_rows.push(serde_json::json!({
                    "series": n,
                    "method": format!("{method:?}"),
                    "backend": backend,
                    "network_wall_ms": millis(net_w),
                    "top_k_wall_ms": millis(top_w),
                    "edges": mem_net.edge_count(),
                }));
            }
        }

        std::fs::remove_file(&path).ok();
    }

    table.print("Unified pipeline: identical queries per backend (answers bit-identical)");
    tsubasa_bench::write_json(
        "fig_backend",
        &serde_json::json!({
            "basic_window": basic_window,
            "points": points,
            "theta": theta,
            "k": k,
            "coefficients": coefficients,
            "workers": workers,
            "rows": json_rows,
        }),
    );
}
