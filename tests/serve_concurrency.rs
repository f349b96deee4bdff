//! Concurrency pin for the serve crate (PR 7).
//!
//! Readers query a live server over TCP while ingestion keeps publishing
//! epochs. Every response carries the id of the epoch that answered it, and
//! this suite re-computes every response **serially** against exactly that
//! snapshot (fetched back from the [`EpochStore`] by the echoed id) and
//! requires bit-identity — correlations compared via `f64::to_bits`, edge
//! lists compared in full. Publication must never tear a reader's view:
//! a response is either entirely epoch `e` or entirely epoch `e+1`.
//!
//! * `concurrent_readers_*`: 4 reader threads × 16 queries each against a
//!   server sweeping on 1, 2, and 8 workers, with ingestion publishing 12
//!   epochs underneath them;
//! * a 64-case property suite over one shared server (background ingest)
//!   varying method, query kind, window range, θ, and k.

use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use proptest::prelude::*;
use tsubasa_core::runner::SerialRunner;
use tsubasa_core::source::SourcePlan;
use tsubasa_core::sweep::{TableAudit, DEFAULT_TILE_PAIRS};
use tsubasa_core::{PlanMethod, SeriesCollection};
use tsubasa_parallel::WorkerPool;
use tsubasa_serve::client::{NetworkReply, TopKReply};
use tsubasa_serve::{
    server, Epoch, EpochIngest, EpochStore, Method, PlanCache, QueryEngine, ServeClient,
    ServerHandle,
};

const BASIC: usize = 20;
const SERIES: usize = 6;
const INITIAL_WINDOWS: usize = 6;
const INGEST_CHUNKS: usize = 12;
const READ_TIMEOUT: Duration = Duration::from_secs(30);

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn lcg_series(seed: u64, len: usize) -> Vec<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    (0..len)
        .map(|i| {
            let noise = lcg(&mut state) as f64 / (1u64 << 31) as f64 - 1.0;
            (i as f64 * 0.17 + seed as f64 * 0.4).sin() * 1.2 + noise * 0.6
        })
        .collect()
}

fn historical(seed: u64) -> SeriesCollection {
    SeriesCollection::from_rows(
        (0..SERIES)
            .map(|s| lcg_series(seed.wrapping_add(s as u64 * 101), INITIAL_WINDOWS * BASIC))
            .collect(),
    )
    .unwrap()
}

/// One basic window of fresh points for every series.
fn chunk(seed: u64, step: usize) -> Vec<Vec<f64>> {
    (0..SERIES)
        .map(|s| lcg_series(seed ^ (step as u64 * 977 + s as u64 * 131), BASIC))
        .collect()
}

/// The serial plan of `method` over `windows` of the epoch's in-memory
/// sketch — what every served answer must equal bit for bit.
fn serial_plan(epoch: &Epoch, method: Method, windows: std::ops::Range<usize>) -> SourcePlan<'_> {
    match method {
        Method::Exact => SourcePlan::new(epoch.exact().unwrap(), windows, PlanMethod::Exact),
        Method::Approximate => {
            SourcePlan::new(&**epoch.approx().unwrap(), windows, PlanMethod::Approximate)
        }
    }
    .unwrap()
}

/// Serially recompute a network reply against the epoch that answered it and
/// require bit-identity.
fn verify_network(
    epoch: &Epoch,
    method: Method,
    last_windows: u32,
    theta: f64,
    got: &NetworkReply,
) {
    assert_eq!(got.epoch, epoch.id());
    let wc = epoch.window_count();
    let windows = if last_windows == 0 {
        0..wc
    } else {
        wc - last_windows as usize..wc
    };
    let (serial, _) = serial_plan(epoch, method, windows)
        .network(&SerialRunner, theta, DEFAULT_TILE_PAIRS, TableAudit::Off)
        .unwrap();
    assert_eq!(got.nodes as usize, serial.node_count());
    assert_eq!(got.nan_pairs, serial.nan_pair_count() as u64);
    let expect: Vec<(u32, u32)> = serial
        .edges()
        .iter()
        .map(|&(i, j)| (i as u32, j as u32))
        .collect();
    assert_eq!(
        got.edges,
        expect,
        "epoch {} windows {last_windows}",
        epoch.id()
    );
}

/// Serially recompute a top-k reply against the epoch that answered it and
/// require bit-identity (corr compared via `to_bits`).
fn verify_top_k(epoch: &Epoch, method: Method, last_windows: u32, k: u32, got: &TopKReply) {
    assert_eq!(got.epoch, epoch.id());
    let wc = epoch.window_count();
    let windows = if last_windows == 0 {
        0..wc
    } else {
        wc - last_windows as usize..wc
    };
    let (serial, _) = serial_plan(epoch, method, windows).top_k(
        &SerialRunner,
        k as usize,
        DEFAULT_TILE_PAIRS,
        TableAudit::Off,
    );
    assert_eq!(got.nan_pairs, serial.nan_pairs as u64);
    assert_eq!(got.edges.len(), serial.edges.len());
    for (a, b) in got.edges.iter().zip(&serial.edges) {
        assert_eq!(
            (a.0, a.1, a.2.to_bits()),
            (b.i as u32, b.j as u32, b.corr.to_bits()),
            "epoch {} k {k}",
            epoch.id()
        );
    }
}

/// One query chosen by `sel`, verified against the echoed epoch.
fn query_and_verify(client: &mut ServeClient, store: &EpochStore, sel: u64) {
    let method = if sel & 1 == 0 {
        Method::Exact
    } else {
        Method::Approximate
    };
    // Trailing-window counts never exceed the first epoch's coverage, so any
    // answering epoch accepts them.
    let last_windows = (sel >> 1) as u32 % (INITIAL_WINDOWS as u32 + 1);
    if sel & 8 == 0 {
        let theta = ((sel >> 4) % 180) as f64 / 100.0 - 0.9;
        let got = client.network(method, last_windows, theta).unwrap();
        let epoch = store
            .get(got.epoch)
            .expect("answering epoch still retained");
        verify_network(&epoch, method, last_windows, theta, &got);
    } else {
        let k = ((sel >> 4) % 12) as u32;
        let got = client.top_k(method, last_windows, k).unwrap();
        let epoch = store
            .get(got.epoch)
            .expect("answering epoch still retained");
        verify_top_k(&epoch, method, last_windows, k, &got);
    }
}

/// 4 reader threads × 16 queries racing 12 epoch publications; every reply
/// re-checked serially against its echoed epoch.
fn run_concurrent_readers(workers: usize) {
    let seed = 0xA5A5 ^ workers as u64;
    let store = Arc::new(EpochStore::new(64)); // retain everything published here
    let (mut ingest, first) =
        EpochIngest::dual(Arc::clone(&store), &historical(seed), BASIC, BASIC).unwrap();
    assert_eq!(first.id(), 1);
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(&store),
        Arc::new(PlanCache::new(32)),
        Arc::new(WorkerPool::new(workers)),
    ));
    let handle = server::start(engine, "127.0.0.1:0").unwrap();
    let addr = handle.local_addr();

    let readers: Vec<_> = (0..4)
        .map(|r| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let mut client = ServeClient::connect(addr).unwrap();
                client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
                let mut state = (seed ^ (r as u64 * 0x9E37_79B9)) | 1;
                for _ in 0..16 {
                    let sel = lcg(&mut state);
                    query_and_verify(&mut client, &store, sel);
                }
            })
        })
        .collect();

    // Publish one epoch per completed basic window while the readers hammer
    // the server.
    for step in 0..INGEST_CHUNKS {
        let published = ingest.ingest(&chunk(seed, step)).unwrap();
        assert_eq!(published.len(), 1);
        thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(store.published(), 1 + INGEST_CHUNKS as u64);

    for reader in readers {
        reader.join().expect("reader thread panicked");
    }
    handle.shutdown();
}

#[test]
fn concurrent_readers_match_serial_one_worker() {
    run_concurrent_readers(1);
}

#[test]
fn concurrent_readers_match_serial_two_workers() {
    run_concurrent_readers(2);
}

#[test]
fn concurrent_readers_match_serial_eight_workers() {
    run_concurrent_readers(8);
}

/// Shared fixture for the property suite: a server on 2 workers whose store
/// retains every epoch, with a background thread publishing 12 epochs while
/// the first cases run.
fn shared() -> &'static (ServerHandle, SocketAddr) {
    static FIXTURE: OnceLock<(ServerHandle, SocketAddr)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let seed = 0xBEEF;
        let store = Arc::new(EpochStore::new(64));
        let (mut ingest, _) =
            EpochIngest::dual(Arc::clone(&store), &historical(seed), BASIC, BASIC).unwrap();
        let engine = Arc::new(QueryEngine::new(
            store,
            Arc::new(PlanCache::new(32)),
            Arc::new(WorkerPool::new(2)),
        ));
        let handle = server::start(engine, "127.0.0.1:0").unwrap();
        let addr = handle.local_addr();
        thread::spawn(move || {
            for step in 0..INGEST_CHUNKS {
                ingest.ingest(&chunk(seed, step)).unwrap();
                thread::sleep(Duration::from_millis(20));
            }
        });
        (handle, addr)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any (method, kind, windows, θ/k) query answered while epochs are
    /// being published is bit-identical to the serial answer over the epoch
    /// snapshot it echoes.
    #[test]
    fn prop_live_queries_bit_match_their_epoch(
        method_sel in 0u8..2,
        kind in 0u8..2,
        last_windows in 0u32..(INITIAL_WINDOWS as u32 + 1),
        theta in -0.9f64..0.9,
        k in 0u32..12,
    ) {
        let (handle, addr) = shared();
        let store = Arc::clone(handle.engine().store());
        let method = if method_sel == 1 { Method::Approximate } else { Method::Exact };
        let mut client = ServeClient::connect(*addr).unwrap();
        client.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
        if kind == 0 {
            let got = client.network(method, last_windows, theta).unwrap();
            let epoch = store.get(got.epoch).expect("answering epoch still retained");
            verify_network(&epoch, method, last_windows, theta, &got);
        } else {
            let got = client.top_k(method, last_windows, k).unwrap();
            let epoch = store.get(got.epoch).expect("answering epoch still retained");
            verify_top_k(&epoch, method, last_windows, k, &got);
        }
    }
}
