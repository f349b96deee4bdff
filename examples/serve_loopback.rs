//! Serve loopback: publish epochs from streaming ingest and answer network /
//! top-k queries over TCP — the full `tsubasa-serve` stack on 127.0.0.1.
//!
//! An [`EpochIngest`](tsubasa::serve::EpochIngest) folds each completed
//! basic window into a dual-method sketch of the history's window count (the
//! arriving window evicts the oldest) and publishes an immutable epoch
//! snapshot; a [`QueryEngine`](tsubasa::serve::QueryEngine) answers
//! from the latest epoch through a plan cache and a worker pool; the
//! length-prefixed binary protocol carries queries and edge lists over a
//! real socket. Every response echoes the id of the epoch that answered it,
//! and every served network and top-k is checked bit for bit against the
//! same engine's in-process answer (`QueryEngine::{network, top_k}`): a
//! mismatch — a codec or framing fault — exits non-zero.
//!
//! ```bash
//! cargo run --release --example serve_loopback
//! ```

use std::sync::Arc;
use std::time::Duration;

use tsubasa::core::PlanMethod;
use tsubasa::data::prelude::*;
use tsubasa::dft::sketch::Transform;
use tsubasa::parallel::WorkerPool;
use tsubasa::serve::{
    server, EpochIngest, EpochStore, Method, NetworkReply, PlanCache, QueryEngine, ServeClient,
    TopKReply,
};

type Checked = Result<(), Box<dyn std::error::Error>>;

/// The served network must be the engine's in-process answer, bit for bit.
fn check_network(
    engine: &QueryEngine,
    got: &NetworkReply,
    method: PlanMethod,
    last: u32,
    theta: f64,
) -> Checked {
    let (epoch, net) = engine.network(method, last, theta)?;
    let want = NetworkReply {
        epoch,
        nodes: net.node_count() as u32,
        nan_pairs: net.nan_pair_count() as u64,
        edges: net
            .edges()
            .iter()
            .map(|&(i, j)| (i as u32, j as u32))
            .collect(),
    };
    if *got != want {
        return Err(format!("served {method:?} network differs from the in-process answer").into());
    }
    Ok(())
}

/// The served top-k must be the engine's in-process answer, correlations
/// compared by their bits.
fn check_top_k(
    engine: &QueryEngine,
    got: &TopKReply,
    method: PlanMethod,
    last: u32,
    k: u32,
) -> Checked {
    let (epoch, ranked) = engine.top_k(method, last, k)?;
    let served: Vec<_> = got
        .edges
        .iter()
        .map(|&(i, j, c)| (i as usize, j as usize, c.to_bits()))
        .collect();
    let local: Vec<_> = ranked
        .edges
        .iter()
        .map(|e| (e.i, e.j, e.corr.to_bits()))
        .collect();
    if (got.epoch, got.nan_pairs, served) != (epoch, ranked.nan_pairs as u64, local) {
        return Err(format!("served {method:?} top-k differs from the in-process answer").into());
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A year's history for 20 stations; the tail arrives as a stream.
    let config = NceaLikeConfig {
        stations: 20,
        points: 2_400,
        ..NceaLikeConfig::default()
    };
    let world = generate_ncea_like(&config)?;
    let historical = world.truncate_length(2_000)?;
    let basic_window = 100;

    // Ingest side: epoch 1 covers the history's 20 basic windows, the
    // horizon; every completed basic window slides it forward by one and
    // publishes the next immutable snapshot (exact base + DFT comparator).
    let store = Arc::new(EpochStore::new(16));
    let (mut ingest, first) = EpochIngest::dual(
        Arc::clone(&store),
        &historical,
        basic_window,
        16,
        Transform::Fft,
    )?;
    println!(
        "epoch {} published: {} series x {} basic windows",
        first.id(),
        first.series_count(),
        first.window_count()
    );

    // Serving side: plan cache + worker pool, bound to a loopback port.
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(&store),
        Arc::new(PlanCache::new(32)),
        Arc::new(WorkerPool::new(2)),
    ));
    let handle = server::start(Arc::clone(&engine), "127.0.0.1:0")?;
    println!("serving on {}", handle.local_addr());

    let mut client = ServeClient::connect(handle.local_addr())?;
    client.set_read_timeout(Some(Duration::from_secs(10)))?;

    // Exact θ-network over the horizon, then the approximate comparator over
    // the trailing 8 windows, then the 5 strongest pairs.
    let net = client.network(Method::Exact, 0, 0.7)?;
    check_network(&engine, &net, PlanMethod::Exact, 0, 0.7)?;
    println!(
        "epoch {}: exact network theta=0.7 -> {} edges over {} nodes",
        net.epoch,
        net.edges.len(),
        net.nodes
    );
    let approx = client.network(Method::Approximate, 8, 0.7)?;
    check_network(&engine, &approx, PlanMethod::Approximate, 8, 0.7)?;
    println!(
        "epoch {}: approximate network (last 8 windows) -> {} edges",
        approx.epoch,
        approx.edges.len()
    );
    let top = client.top_k(Method::Exact, 0, 5)?;
    check_top_k(&engine, &top, PlanMethod::Exact, 0, 5)?;
    for (rank, (i, j, corr)) in top.edges.iter().enumerate() {
        println!("  #{} pair ({i}, {j}) corr {corr:.4}", rank + 1);
    }

    // Stream the remaining observations: each completed basic window
    // publishes a new epoch, and the very next query answers from it —
    // readers never block the writer.
    let updates: Vec<Vec<f64>> = world
        .iter()
        .map(|s| s.values()[2_000..2_400].to_vec())
        .collect();
    let published = ingest.ingest(&updates)?;
    println!("streamed 400 points -> {} new epochs", published.len());

    let net = client.network(Method::Exact, 0, 0.7)?;
    check_network(&engine, &net, PlanMethod::Exact, 0, 0.7)?;
    let top = client.top_k(Method::Approximate, 0, 50)?;
    check_top_k(&engine, &top, PlanMethod::Approximate, 0, 50)?;
    println!(
        "epoch {}: exact network now {} edges over {} basic windows",
        net.epoch,
        net.edges.len(),
        store.latest().map(|e| e.window_count()).unwrap_or(0)
    );

    // The repeated-window workload above answers from the plan cache.
    let stats = client.stats()?;
    println!(
        "server: {} requests on {} connections, plan cache {} hits / {} misses",
        stats.requests, stats.connections, stats.cache_hits, stats.cache_misses
    );

    drop(client);
    handle.shutdown();
    Ok(())
}
