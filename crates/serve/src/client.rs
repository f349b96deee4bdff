//! A small blocking client for the serve protocol, used by the examples,
//! benchmarks, and test harnesses.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::proto::{
    decode_response, encode_request, read_frame, write_frame, DeltaReply, ErrorCode, Method,
    ProtoError, Request, Response, StatsReply, MAX_RESPONSE_FRAME,
};

/// Failures observed by a client.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or framing broke.
    Proto(ProtoError),
    /// The server answered with a typed error frame.
    Server {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server answered with a response of the wrong kind for the
    /// request (protocol violation).
    UnexpectedResponse,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Proto(e) => write!(f, "protocol failure: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::UnexpectedResponse => write!(f, "response kind does not match request"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Proto(ProtoError::Io(e))
    }
}

/// A network response, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReply {
    /// Epoch the server answered from.
    pub epoch: u64,
    /// Node (series) count of that epoch.
    pub nodes: u32,
    /// NaN-audited pair count.
    pub nan_pairs: u64,
    /// Edge endpoints, ascending pair order.
    pub edges: Vec<(u32, u32)>,
}

/// A top-k response, decoded.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKReply {
    /// Epoch the server answered from.
    pub epoch: u64,
    /// NaN-audited pair count.
    pub nan_pairs: u64,
    /// `(i, j, corr)` strongest first; correlations are bit-exact.
    pub edges: Vec<(u32, u32, f64)>,
}

/// A blocking connection to a serve instance: one in-flight request at a
/// time, responses matched by order.
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Bound how long a single response read may block (`None` blocks until
    /// the server answers or closes).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Send one request and read its response frame.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode_request(request))?;
        loop {
            match read_frame(&mut self.stream, MAX_RESPONSE_FRAME)? {
                Some(payload) => return Ok(decode_response(&payload)?),
                None => continue, // read timeout configured by the caller
            }
        }
    }

    /// Query the thresholded network.
    pub fn network(
        &mut self,
        method: Method,
        last_windows: u32,
        theta: f64,
    ) -> Result<NetworkReply, ClientError> {
        match self.request(&Request::Network {
            method,
            last_windows,
            theta,
        })? {
            Response::Network {
                epoch,
                nodes,
                nan_pairs,
                edges,
            } => Ok(NetworkReply {
                epoch,
                nodes,
                nan_pairs,
                edges,
            }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Query the k strongest pairs.
    pub fn top_k(
        &mut self,
        method: Method,
        last_windows: u32,
        k: u32,
    ) -> Result<TopKReply, ClientError> {
        match self.request(&Request::TopK {
            method,
            last_windows,
            k,
        })? {
            Response::TopK {
                epoch,
                nan_pairs,
                edges,
            } => Ok(TopKReply {
                epoch,
                nan_pairs,
                edges,
            }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Fetch the server's counter snapshot.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Open a delta subscription: the server answers with the baseline
    /// network of the latest epoch, then streams exactly `max_frames` delta
    /// frames (one per newly observed epoch publication) which
    /// [`ServeClient::next_delta`] reads one at a time. After the last frame
    /// the connection returns to request–response.
    pub fn subscribe_deltas(
        &mut self,
        method: Method,
        theta: f64,
        max_frames: u32,
    ) -> Result<NetworkReply, ClientError> {
        match self.request(&Request::SubscribeDeltas {
            method,
            theta,
            max_frames,
        })? {
            Response::Network {
                epoch,
                nodes,
                nan_pairs,
                edges,
            } => Ok(NetworkReply {
                epoch,
                nodes,
                nan_pairs,
                edges,
            }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::UnexpectedResponse),
        }
    }

    /// Read the next delta frame of an open subscription. Blocks (subject to
    /// the configured read timeout) until the server observes the next epoch
    /// publication.
    pub fn next_delta(&mut self) -> Result<DeltaReply, ClientError> {
        loop {
            match read_frame(&mut self.stream, MAX_RESPONSE_FRAME)? {
                Some(payload) => {
                    return match decode_response(&payload)? {
                        Response::Delta(d) => Ok(d),
                        Response::Error { code, message } => {
                            Err(ClientError::Server { code, message })
                        }
                        _ => Err(ClientError::UnexpectedResponse),
                    }
                }
                None => continue, // read timeout configured by the caller
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PlanCache;
    use crate::epoch::EpochStore;
    use crate::query::QueryEngine;
    use crate::server;
    use std::sync::Arc;
    use tsubasa_core::plan::PlanMethod;
    use tsubasa_core::runner::SerialRunner;
    use tsubasa_core::source::SourcePlan;
    use tsubasa_core::sweep::{EdgeList, TableAudit, TopK, DEFAULT_TILE_PAIRS};
    use tsubasa_core::SeriesCollection;
    use tsubasa_core::SketchSet;
    use tsubasa_dft::sketch::{DftSketchSet, Transform};
    use tsubasa_parallel::WorkerPool;

    /// The serial exact plan over every window of `sketch`.
    fn serial(sketch: &SketchSet) -> SourcePlan<'_> {
        SourcePlan::new(sketch, 0..sketch.window_count(), PlanMethod::Exact).unwrap()
    }

    fn serial_network(sketch: &SketchSet, theta: f64) -> EdgeList {
        let plan = serial(sketch);
        plan.network(&SerialRunner, theta, DEFAULT_TILE_PAIRS, TableAudit::Off)
            .unwrap()
            .0
    }

    fn serial_top_k(sketch: &SketchSet, k: usize) -> TopK {
        let plan = serial(sketch);
        plan.top_k(&SerialRunner, k, DEFAULT_TILE_PAIRS, TableAudit::Off)
            .0
    }

    fn collection_with_phase(phase: f64) -> SeriesCollection {
        SeriesCollection::from_rows(
            (0..5)
                .map(|s| {
                    (0..100)
                        .map(|i| {
                            (i as f64 * 0.09 + s as f64 * (0.5 + phase)).sin()
                                + (i % (s + 2)) as f64 * 0.1
                        })
                        .collect()
                })
                .collect(),
        )
        .unwrap()
    }

    fn sketch_with_phase(phase: f64) -> SketchSet {
        SketchSet::build(&collection_with_phase(phase), 20).unwrap()
    }

    fn loopback() -> (server::ServerHandle, SketchSet) {
        let sketch = sketch_with_phase(0.0);
        let store = Arc::new(EpochStore::new(4));
        store.publish(Some(sketch.clone()), None).unwrap();
        let engine = Arc::new(QueryEngine::new(
            store,
            Arc::new(PlanCache::new(8)),
            Arc::new(WorkerPool::new(2)),
        ));
        let handle = server::start(engine, "127.0.0.1:0").unwrap();
        (handle, sketch)
    }

    #[test]
    fn loopback_round_trip_matches_serial() {
        let (handle, sketch) = loopback();
        let mut client = ServeClient::connect(handle.local_addr()).unwrap();

        let net = client.network(Method::Exact, 0, 0.3).unwrap();
        assert_eq!(net.epoch, 1);
        let serial = serial_network(&sketch, 0.3);
        let expected: Vec<(u32, u32)> = serial
            .edges()
            .iter()
            .map(|&(i, j)| (i as u32, j as u32))
            .collect();
        assert_eq!(net.edges, expected);
        assert_eq!(net.nodes as usize, serial.node_count());

        let top = client.top_k(Method::Exact, 0, 4).unwrap();
        let serial = serial_top_k(&sketch, 4);
        assert_eq!(top.edges.len(), serial.edges.len());
        for (got, want) in top.edges.iter().zip(&serial.edges) {
            assert_eq!(
                (got.0 as usize, got.1 as usize, got.2.to_bits()),
                (want.i, want.j, want.corr.to_bits())
            );
        }

        // A second identical query hits the plan cache.
        client.network(Method::Exact, 0, 0.3).unwrap();
        let stats = client.stats().unwrap();
        assert!(stats.cache_hits >= 1, "repeat query must hit the cache");
        assert_eq!(stats.epoch, 1);
        assert!(stats.requests >= 4);

        // Typed server-side errors keep the connection usable.
        match client.network(Method::Exact, 0, 2.0) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Query),
            other => panic!("expected a Query error, got {other:?}"),
        }
        match client.network(Method::Approximate, 0, 0.3) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::UnavailableNoApprox)
            }
            other => panic!("expected UnavailableNoApprox, got {other:?}"),
        }
        assert!(client.stats().is_ok(), "connection survives typed errors");

        handle.shutdown();
    }

    #[test]
    fn subscription_streams_one_delta_per_published_epoch() {
        let theta = 0.3;
        let store = Arc::new(EpochStore::new(4));
        store.publish(Some(sketch_with_phase(0.0)), None).unwrap();
        let engine = Arc::new(QueryEngine::new(
            Arc::clone(&store),
            Arc::new(PlanCache::new(8)),
            Arc::new(WorkerPool::new(2)),
        ));
        let handle = server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let mut client = ServeClient::connect(handle.local_addr()).unwrap();

        // A zero-frame subscription is rejected, and the connection survives.
        match client.subscribe_deltas(Method::Exact, theta, 0) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Query),
            other => panic!("expected a Query error, got {other:?}"),
        }
        assert!(client.stats().is_ok());

        let baseline = client.subscribe_deltas(Method::Exact, theta, 2).unwrap();
        assert_eq!(baseline.epoch, 1);
        let mut edges: std::collections::BTreeSet<(u32, u32)> =
            baseline.edges.iter().copied().collect();

        // Each publication after the baseline yields exactly one delta frame;
        // replaying it onto the running edge set reproduces the published
        // epoch's network. Reading the frame before publishing the next epoch
        // pins the one-frame-per-epoch correspondence.
        for (frame, phase) in [(1u64, 0.9), (2, 1.7)] {
            store.publish(Some(sketch_with_phase(phase)), None).unwrap();
            let delta = client.next_delta().unwrap();
            assert_eq!(delta.epoch, 1 + frame);
            assert_eq!(delta.nodes, baseline.nodes);
            for pair in &delta.vanished {
                assert!(edges.remove(pair), "vanished edge {pair:?} was absent");
            }
            for pair in &delta.appeared {
                assert!(
                    edges.insert(*pair),
                    "appeared edge {pair:?} already present"
                );
            }
        }

        // After the last frame the connection resumes request–response, and
        // the replayed edge set matches a fresh full query bit for bit.
        let fresh = client.network(Method::Exact, 0, theta).unwrap();
        assert_eq!(fresh.epoch, 3);
        let expected: std::collections::BTreeSet<(u32, u32)> =
            fresh.edges.iter().copied().collect();
        assert_eq!(edges, expected);

        handle.shutdown();
    }

    /// Four subscribers at one θ across three publishes: each replays its
    /// deltas onto its baseline to every published epoch's serial network,
    /// and the engine plans and fills one view per epoch between them — one
    /// miss per epoch, every other lookup a hit.
    #[test]
    fn subscribers_at_one_theta_share_one_view_per_epoch() {
        use std::collections::BTreeSet;
        use std::sync::mpsc;

        const SUBSCRIBERS: usize = 4;
        let theta = 0.3;
        let phases = [0.0, 0.9, 1.7, 2.4];
        let sketches: Vec<SketchSet> = phases.iter().map(|&p| sketch_with_phase(p)).collect();
        let store = Arc::new(EpochStore::new(8));
        store.publish(Some(sketches[0].clone()), None).unwrap();
        let engine = Arc::new(QueryEngine::new(
            Arc::clone(&store),
            Arc::new(PlanCache::new(8)),
            Arc::new(WorkerPool::new(2)),
        ));
        let handle = server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let addr = handle.local_addr();

        // Every subscriber reports (epoch, replayed edge set) after its
        // baseline and after each delta.
        let (tx, rx) = mpsc::channel::<(u64, BTreeSet<(u32, u32)>)>();
        let subscribers: Vec<_> = (0..SUBSCRIBERS)
            .map(|_| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let mut client = ServeClient::connect(addr).unwrap();
                    client
                        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
                        .unwrap();
                    let frames = (phases.len() - 1) as u32;
                    let baseline = client
                        .subscribe_deltas(Method::Exact, theta, frames)
                        .unwrap();
                    let mut edges: BTreeSet<(u32, u32)> = baseline.edges.into_iter().collect();
                    tx.send((baseline.epoch, edges.clone())).unwrap();
                    for _ in 0..frames {
                        let delta = client.next_delta().unwrap();
                        for pair in &delta.vanished {
                            assert!(edges.remove(pair), "vanished edge {pair:?} was absent");
                        }
                        for pair in &delta.appeared {
                            assert!(edges.insert(*pair), "appeared edge {pair:?} was present");
                        }
                        tx.send((delta.epoch, edges.clone())).unwrap();
                    }
                })
            })
            .collect();

        // Publish the next epoch only once every subscriber has reported the
        // current one, so no two publications collapse into one delta.
        for (step, sketch) in sketches.iter().enumerate() {
            if step > 0 {
                store.publish(Some(sketch.clone()), None).unwrap();
            }
            let serial = serial_network(sketch, theta);
            let expected: BTreeSet<(u32, u32)> = serial
                .edges()
                .iter()
                .map(|&(i, j)| (i as u32, j as u32))
                .collect();
            for _ in 0..SUBSCRIBERS {
                let (epoch, edges) = rx.recv().unwrap();
                assert_eq!(epoch, 1 + step as u64);
                assert_eq!(edges, expected, "epoch {epoch}");
            }
        }
        for subscriber in subscribers {
            subscriber.join().expect("subscriber panicked");
        }

        let stats = engine.cache().stats();
        let lookups = (SUBSCRIBERS * phases.len()) as u64;
        assert_eq!(stats.misses, phases.len() as u64, "one miss per epoch");
        assert_eq!(stats.hits, lookups - stats.misses);
        handle.shutdown();
    }

    /// An approximate subscription at θ on one pair's estimate, so that pair
    /// sits on the Equation 4 radius: the baseline and each replayed delta
    /// equal the served approximate network of the epoch they name, edges
    /// and NaN count.
    #[test]
    fn approximate_subscription_replays_to_each_served_network() {
        use std::collections::BTreeSet;

        let dft_with_phase = |phase| {
            DftSketchSet::build(&collection_with_phase(phase), 20, 6, Transform::Naive).unwrap()
        };
        let store = Arc::new(EpochStore::new(8));
        let first = dft_with_phase(0.0);
        store
            .publish(Some(first.base().clone()), Some(first.clone()))
            .unwrap();
        let engine = Arc::new(QueryEngine::new(
            Arc::clone(&store),
            Arc::new(PlanCache::new(8)),
            Arc::new(WorkerPool::new(2)),
        ));
        let windows = 0..first.window_count();
        let (estimates, _) = SourcePlan::new(&first, windows, PlanMethod::Approximate)
            .unwrap()
            .correlation_matrix(&SerialRunner)
            .unwrap();
        let theta = estimates.get(0, 1);
        let handle = server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let mut client = ServeClient::connect(handle.local_addr()).unwrap();

        let served = |epoch: u64| {
            let epoch = store.get(epoch).unwrap();
            let net = engine
                .network_on(&epoch, PlanMethod::Approximate, 0, theta)
                .unwrap();
            let edges: BTreeSet<(u32, u32)> = net
                .edges()
                .iter()
                .map(|&(i, j)| (i as u32, j as u32))
                .collect();
            (edges, net.nan_pair_count() as u64)
        };
        let baseline = client
            .subscribe_deltas(Method::Approximate, theta, 2)
            .unwrap();
        let mut edges: BTreeSet<(u32, u32)> = baseline.edges.iter().copied().collect();
        assert!(edges.contains(&(0, 1)), "the pair at θ is an edge");
        assert_eq!((edges.clone(), baseline.nan_pairs), served(1));

        let mut flips = 0;
        for phase in [0.9, 1.7] {
            let next = dft_with_phase(phase);
            store
                .publish(Some(next.base().clone()), Some(next))
                .unwrap();
            let delta = client.next_delta().unwrap();
            for pair in &delta.vanished {
                assert!(edges.remove(pair), "vanished edge {pair:?} was absent");
            }
            for pair in &delta.appeared {
                assert!(edges.insert(*pair), "appeared edge {pair:?} was present");
            }
            flips += delta.appeared.len() + delta.vanished.len();
            assert_eq!((edges.clone(), delta.nan_pairs), served(delta.epoch));
        }
        assert!(flips > 0, "the epochs must flip edges");
        handle.shutdown();
    }
}
