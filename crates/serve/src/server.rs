//! The blocking TCP query server: an accept thread plus one thread per
//! connection, all answering from the shared [`QueryEngine`].
//!
//! Fault policy, pinned by the `serve_faults` suite:
//!
//! * a malformed body or unknown opcode in a *complete* frame is answered
//!   with a typed `0xEE` error frame and the connection keeps serving —
//!   framing stays in sync because the bad frame was fully consumed;
//! * a hostile length prefix (oversized) or a mid-frame truncation/stall
//!   desyncs the framing, so the server answers if it can and closes that
//!   connection — other connections are unaffected;
//! * a panic during query evaluation is caught at the connection boundary
//!   and answered as an internal error; no worker thread is left hung.
//!
//! Shutdown is cooperative: connections poll an atomic flag between frames
//! (reads use a short timeout, and a subscription waiting for the next epoch
//! wakes on the same tick), the accept loop polls it between accepts, and
//! [`ServerHandle::shutdown`] joins every thread before returning.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use tsubasa_core::delta::EdgeWatch;
use tsubasa_core::plan::PlanMethod;
use tsubasa_core::sweep::EdgeRule;

use crate::proto::{
    decode_request, encode_response, read_frame, write_frame, DeltaReply, ErrorCode, Method,
    ProtoError, Request, Response, StatsReply, MAX_REQUEST_FRAME,
};
use crate::query::{QueryEngine, QueryError, UnavailableReason};

/// How often blocked reads, subscriptions waiting for an epoch and the
/// accept loop wake to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Monotonic serving counters, shared by every connection thread.
#[derive(Debug, Default)]
pub struct ServerStats {
    requests: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
}

impl ServerStats {
    /// Frames answered (successes and error frames alike).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Frames answered with an error frame.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Connections accepted since start.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }
}

/// A running server. Dropping the handle shuts the server down and joins
/// every thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<QueryEngine>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine answering this server's queries.
    pub fn engine(&self) -> &Arc<QueryEngine> {
        &self.engine
    }

    /// Serving counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Stop accepting, drain every connection thread, and return once all
    /// threads have exited.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self
            .conns
            .lock()
            .expect("connection registry poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `engine` on
/// background threads.
pub fn start(engine: Arc<QueryEngine>, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let stats = Arc::new(ServerStats::default());
    let shutdown = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<thread::JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept = {
        let engine = Arc::clone(&engine);
        let stats = Arc::clone(&stats);
        let shutdown = Arc::clone(&shutdown);
        let conns = Arc::clone(&conns);
        thread::spawn(move || {
            while !shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        stats.connections.fetch_add(1, Ordering::Relaxed);
                        let engine = Arc::clone(&engine);
                        let stats = Arc::clone(&stats);
                        let shutdown = Arc::clone(&shutdown);
                        let handle = thread::spawn(move || {
                            handle_connection(stream, &engine, &stats, &shutdown);
                        });
                        conns
                            .lock()
                            .expect("connection registry poisoned")
                            .push(handle);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(POLL_INTERVAL);
                    }
                    Err(_) => thread::sleep(POLL_INTERVAL),
                }
            }
        })
    };

    Ok(ServerHandle {
        addr: local,
        engine,
        stats,
        shutdown,
        accept: Some(accept),
        conns,
    })
}

fn handle_connection(
    mut stream: TcpStream,
    engine: &QueryEngine,
    stats: &ServerStats,
    shutdown: &AtomicBool,
) {
    // Accepted sockets may inherit the listener's non-blocking flag on some
    // platforms; the frame reader expects timeout-based blocking reads.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));

    while !shutdown.load(Ordering::Relaxed) {
        let payload = match read_frame(&mut stream, MAX_REQUEST_FRAME) {
            Ok(None) => continue, // idle: poll the shutdown flag
            Ok(Some(payload)) => payload,
            Err(ProtoError::Closed) => break,
            Err(ProtoError::BadPayload(msg)) => {
                // An empty frame: fully consumed, framing still in sync.
                if answer_error(&mut stream, stats, ErrorCode::Malformed, &msg).is_err() {
                    break;
                }
                continue;
            }
            Err(ProtoError::Oversized { len, max }) => {
                // The prefix itself is garbage; we cannot resync, so answer
                // (best effort) and close this connection.
                let msg = format!("frame length {len} exceeds maximum {max}");
                let _ = answer_error(&mut stream, stats, ErrorCode::Malformed, &msg);
                break;
            }
            // Truncated / Stalled / Io: the transport is gone or desynced.
            Err(_) => break,
        };

        stats.requests.fetch_add(1, Ordering::Relaxed);
        let response = match decode_request(&payload) {
            Ok(Request::SubscribeDeltas {
                method,
                theta,
                max_frames,
            }) => {
                // The one multi-frame exchange: stream the baseline and the
                // requested number of delta frames inline, then fall back to
                // request–response on this same connection.
                match serve_subscription(
                    &mut stream,
                    engine,
                    stats,
                    shutdown,
                    method,
                    theta,
                    max_frames,
                ) {
                    Ok(()) => continue,
                    Err(_) => break,
                }
            }
            Ok(request) => {
                match catch_unwind(AssertUnwindSafe(|| dispatch(engine, stats, &request))) {
                    Ok(response) => response,
                    Err(_) => Response::Error {
                        code: ErrorCode::Internal,
                        message: "query evaluation panicked".to_string(),
                    },
                }
            }
            Err(ProtoError::UnknownOpcode(op)) => Response::Error {
                code: ErrorCode::UnknownOpcode,
                message: format!("opcode 0x{op:02x}"),
            },
            Err(e) => Response::Error {
                code: ErrorCode::Malformed,
                message: e.to_string(),
            },
        };
        if matches!(response, Response::Error { .. }) {
            stats.errors.fetch_add(1, Ordering::Relaxed);
        }
        if write_frame(&mut stream, &encode_response(&response)).is_err() {
            break;
        }
    }
}

/// Count and send an error frame for a request that never reached dispatch.
fn answer_error(
    stream: &mut TcpStream,
    stats: &ServerStats,
    code: ErrorCode,
    message: &str,
) -> io::Result<()> {
    stats.requests.fetch_add(1, Ordering::Relaxed);
    stats.errors.fetch_add(1, Ordering::Relaxed);
    let response = Response::Error {
        code,
        message: message.to_string(),
    };
    write_frame(stream, &encode_response(&response))
}

/// Serve one `subscribe_deltas` exchange: a baseline network frame for the
/// latest epoch, then exactly `max_frames` delta frames — one per newly
/// observed epoch publication (publications landing between observations
/// collapse into one cumulative delta against the last streamed epoch).
///
/// Between frames the connection thread sleeps on the store's publication
/// signal ([`crate::EpochStore::wait_for_newer`]), so a delta leaves one
/// wake-up after its epoch is published. The connection holds one
/// [`EdgeWatch`] under the method's rule at θ, and each frame is one
/// [`QueryEngine::observe`] scan of it: the baseline is the first scan's
/// `appeared` list (every edge, ascending), each delta frame the next
/// epoch's flips. The scan reads the epoch's correlation view, so any number
/// of subscribers at one epoch, method and θ cost one view fill between
/// them, plus one scan each.
///
/// Returns `Err` only when the transport broke (the caller closes the
/// connection); query-level rejections are answered with an error frame and
/// end the exchange with `Ok`, leaving the connection serving. A server
/// shutdown while waiting for the next epoch ends the stream early — the
/// subscriber sees the connection close, the repo-wide signal for "server
/// gone".
fn serve_subscription(
    stream: &mut TcpStream,
    engine: &QueryEngine,
    stats: &ServerStats,
    shutdown: &AtomicBool,
    method: Method,
    theta: f64,
    max_frames: u32,
) -> io::Result<()> {
    let fail = |stats: &ServerStats, stream: &mut TcpStream, response: Response| {
        stats.errors.fetch_add(1, Ordering::Relaxed);
        write_frame(stream, &encode_response(&response))
    };
    if max_frames == 0 {
        return fail(
            stats,
            stream,
            Response::Error {
                code: ErrorCode::Query,
                message: "subscribe_deltas needs max_frames >= 1".to_string(),
            },
        );
    }
    let method = plan_method(method);
    let rule = match EdgeRule::for_method(method, theta) {
        Ok(rule) => rule,
        Err(e) => return fail(stats, stream, error_response(e.into())),
    };
    let nodes = engine
        .store()
        .latest()
        .map_or(0, |epoch| epoch.series_count());
    let mut watch = EdgeWatch::new(rule, nodes);
    let mut last_epoch = 0;
    for frame in 0..=max_frames {
        // After the baseline, sleep until the next epoch publication wakes
        // this thread; the timeout only bounds how long a shutdown goes
        // unnoticed.
        while frame > 0 && !engine.store().wait_for_newer(last_epoch, POLL_INTERVAL) {
            if shutdown.load(Ordering::Relaxed) {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "server shutting down",
                ));
            }
        }
        last_epoch = match engine.observe(&mut watch, method, 0) {
            Ok(epoch) => epoch,
            Err(e) => return fail(stats, stream, error_response(e)),
        };
        let delta = watch.take_delta();
        let (nodes, nan_pairs) = (delta.nodes as u32, delta.nan_pairs as u64);
        let response = match frame {
            0 => Response::Network {
                epoch: last_epoch,
                nodes,
                nan_pairs,
                edges: wire_pairs(&delta.appeared),
            },
            _ => Response::Delta(DeltaReply {
                epoch: last_epoch,
                nodes,
                nan_pairs,
                appeared: wire_pairs(&delta.appeared),
                vanished: wire_pairs(&delta.vanished),
            }),
        };
        write_frame(stream, &encode_response(&response))?;
    }
    Ok(())
}

/// Node pairs as the wire carries them.
fn wire_pairs(pairs: &[(usize, usize)]) -> Vec<(u32, u32)> {
    pairs.iter().map(|&(i, j)| (i as u32, j as u32)).collect()
}

fn plan_method(method: Method) -> PlanMethod {
    match method {
        Method::Exact => PlanMethod::Exact,
        Method::Approximate => PlanMethod::Approximate,
    }
}

fn error_response(e: QueryError) -> Response {
    match e {
        QueryError::Unavailable(reason) => Response::Error {
            code: match reason {
                UnavailableReason::NoEpoch => ErrorCode::UnavailableNoEpoch,
                UnavailableReason::NoExact => ErrorCode::UnavailableNoExact,
                UnavailableReason::NoApprox => ErrorCode::UnavailableNoApprox,
            },
            message: reason.to_string(),
        },
        QueryError::Rejected(err) => Response::Error {
            code: ErrorCode::Query,
            message: err.to_string(),
        },
    }
}

fn dispatch(engine: &QueryEngine, stats: &ServerStats, request: &Request) -> Response {
    match request {
        Request::Network {
            method,
            last_windows,
            theta,
        } => match engine.network(plan_method(*method), *last_windows, *theta) {
            Ok((epoch, edges)) => Response::Network {
                epoch,
                nodes: edges.node_count() as u32,
                nan_pairs: edges.nan_pair_count() as u64,
                edges: wire_pairs(edges.edges()),
            },
            Err(e) => error_response(e),
        },
        Request::TopK {
            method,
            last_windows,
            k,
        } => match engine.top_k(plan_method(*method), *last_windows, *k) {
            Ok((epoch, ranked)) => Response::TopK {
                epoch,
                nan_pairs: ranked.nan_pairs as u64,
                edges: ranked
                    .edges
                    .iter()
                    .map(|e| (e.i as u32, e.j as u32, e.corr))
                    .collect(),
            },
            Err(e) => error_response(e),
        },
        Request::Stats => Response::Stats(stats_reply(engine, stats)),
        // Subscriptions are multi-frame and handled inline by the connection
        // loop before dispatch; reaching here is a server bug.
        Request::SubscribeDeltas { .. } => Response::Error {
            code: ErrorCode::Internal,
            message: "subscribe_deltas must be handled by the connection loop".to_string(),
        },
    }
}

fn stats_reply(engine: &QueryEngine, stats: &ServerStats) -> StatsReply {
    let latest = engine.store().latest();
    let cache = engine.cache().stats();
    StatsReply {
        epoch: latest.as_ref().map(|e| e.id()).unwrap_or(0),
        published: engine.store().published(),
        series: latest
            .as_ref()
            .map(|e| e.series_count() as u32)
            .unwrap_or(0),
        windows: latest
            .as_ref()
            .map(|e| e.window_count() as u32)
            .unwrap_or(0),
        requests: stats.requests(),
        errors: stats.errors(),
        connections: stats.connections(),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
    }
}
