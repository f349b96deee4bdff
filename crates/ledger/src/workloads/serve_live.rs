//! `serve-live` — the serving story: a writer thread ingests one basic
//! window per cadence tick (open loop, timed from when each tick was due)
//! while one client connection queries over loopback TCP (closed loop).
//!
//! A query is a pooled sweep plus `serve::{proto, server, cache}` and the
//! thread hand-offs; repeated keys hit the plan cache, every epoch adds
//! fresh keys, and reads run beside the writer.
//!
//! The run is cut into segments. Every segment bootstraps a fresh store,
//! starts a fresh server and plays the same short schedule of ticks, so the
//! bootstraps are spread over the run and every tick ingests onto a history
//! of about the same length; the client's round of requests keeps replaying
//! across the segments, each request reporting its fastest repetition
//! ([`Replay`]).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsubasa_core::prelude::*;
use tsubasa_core::sweep::CorrelationBounds;
use tsubasa_parallel::WorkerPool;
use tsubasa_serve::proto::{decode_response, encode_response, Response};
use tsubasa_serve::{
    server, CachedPlan, EpochIngest, EpochStore, Method, PlanCache, QueryEngine, ServeClient,
};

use crate::alloc;
use crate::data::{dataset, pick_theta, window_chunk, Rng, BASIC_WINDOW};
use crate::harness::{
    check_density, fastest, pool_dispatch_us, record_trace_cost, repeat_setup, save_trace,
    serial_network, serial_top_k, time_ms, Class, Deadline, Env, Replay, Scale, TOP_K,
};
use crate::metrics::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Epochs the store retains.
const RETAINED_EPOCHS: usize = 8;
/// Plans the cache holds.
const CACHED_PLANS: usize = 64;
/// Every how many query replies one is recomputed in-process.
const CHECK_EVERY: usize = 50;
/// Timed bootstraps at the start of every segment; the last one serves.
const SEGMENT_BOOTSTRAPS: usize = 2;
/// Requests in the client's seeded round.
const ROUND_OPS: usize = 100;

#[derive(Debug, Clone, Copy)]
struct Size {
    /// Series.
    n: usize,
    /// Basic windows sketched before the server starts.
    bootstrap_windows: usize,
    /// Writer cadence.
    cadence: Duration,
    /// Trailing windows of the common query, and of the short one.
    last: (u32, u32),
    /// Ticks the writer plays per segment.
    segment_ticks: usize,
}

impl Size {
    fn of(scale: Scale) -> Self {
        match scale {
            // Sized so that a query is mostly compute: at N=256 a trailing-30
            // query sweeps 1 M pair-windows (~1 ms) against ~0.15 ms of
            // thread hand-offs and socket calls, whose cost on a shared VM
            // drifts by a third from one minute to the next. The history
            // stays short (30 → 38 windows per segment) because HEAD clones
            // the whole sketch per epoch — 20 MB of fresh pages per tick
            // here, 8–100 ms depending on how the VM's page faults go — and
            // segments are short so that every tick gets ~18 repetitions.
            Scale::Full => Self {
                n: 256,
                bootstrap_windows: 30,
                cadence: Duration::from_millis(100),
                last: (30, 8),
                segment_ticks: 8,
            },
            Scale::Smoke => Self {
                n: 48,
                bootstrap_windows: 8,
                cadence: Duration::from_millis(40),
                last: (6, 3),
                segment_ticks: 8,
            },
        }
    }
}

/// The client's ops: exactly 70 % trailing-25 network, 15 % trailing-8
/// network, 10 % trailing-25 top-k and 5 % stats in a round of
/// [`ROUND_OPS`], in seeded order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Network { last: u32 },
    TopK { last: u32 },
    Stats,
}

fn make_round(seed: u64, size: &Size) -> Vec<Op> {
    Rng::new(seed, 0x5E2E).mix(
        ROUND_OPS,
        &[
            (Op::Network { last: size.last.0 }, 70),
            (Op::Network { last: size.last.1 }, 15),
            (Op::TopK { last: size.last.0 }, 10),
            (Op::Stats, 5),
        ],
    )
}

struct Setup {
    historical: SeriesCollection,
    /// One chunk per tick of a segment.
    chunks: Vec<Vec<Vec<f64>>>,
    /// The client's round.
    round: Vec<Op>,
    theta: f64,
    density: f64,
    generate_s: f64,
}

fn set_up(size: &Size, seed: u64) -> Setup {
    let windows = size.bootstrap_windows + size.segment_ticks;
    let (data, generate_s) = dataset(size.n, windows * BASIC_WINDOW, seed);
    let historical = data
        .truncate_length(size.bootstrap_windows * BASIC_WINDOW)
        .expect("history inside the data");
    let chunks = (size.bootstrap_windows..windows)
        .map(|w| window_chunk(&data, w))
        .collect();

    // θ from the trailing query range of the bootstrap epoch.
    let sketch = SketchSet::build(&historical, BASIC_WINDOW).expect("sketch the history");
    let last = (size.last.0 as usize).min(size.bootstrap_windows);
    let reference = QueryWindow::new(
        size.bootstrap_windows * BASIC_WINDOW - 1,
        last * BASIC_WINDOW,
    )
    .expect("reference window");
    let matrix = exact::correlation_matrix(&historical, &sketch, reference).expect("reference");
    let (theta, density) = pick_theta(matrix.upper_triangle());

    Setup {
        historical,
        chunks,
        round: make_round(seed, size),
        theta,
        density,
        generate_s,
    }
}

/// What the writer thread measured, over every segment.
#[derive(Default)]
struct WriterLog {
    /// Due time to epoch published, ms.
    publish_ms: Vec<f64>,
    /// `(tick of the segment, EpochIngest::ingest alone, ms)`.
    ingest_ms: Vec<(usize, f64)>,
    /// How late each tick started, ms.
    late_ms: Vec<f64>,
    /// `(segment, epoch id, when it was published)`.
    published: Vec<(usize, u64, Instant)>,
    failures: Vec<String>,
}

/// Play one segment's ticks from `start`.
fn writer_loop(
    log: &mut WriterLog,
    segment: usize,
    ingest: &mut EpochIngest,
    setup: &Setup,
    size: &Size,
    start: Instant,
) {
    for (k, chunk) in setup.chunks.iter().enumerate() {
        let due = start + size.cadence * (k as u32 + 1);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let began = Instant::now();
        let outcome = ingest.ingest(chunk);
        let done = Instant::now();
        match outcome {
            Ok(epochs) => {
                log.publish_ms.push((done - due).as_secs_f64() * 1e3);
                log.late_ms.push((began - due).as_secs_f64() * 1e3);
                log.ingest_ms.push((k, (done - began).as_secs_f64() * 1e3));
                log.published
                    .extend(epochs.iter().map(|e| (segment, e.id(), done)));
                if epochs.len() != 1 {
                    log.failures.push(format!(
                        "segment {segment} tick {k} published {} epochs",
                        epochs.len()
                    ));
                }
            }
            Err(e) => log
                .failures
                .push(format!("segment {segment} tick {k} ingest: {e}")),
        }
    }
}

/// What the client thread measured, over every segment.
struct ReaderLog {
    /// Every request's latency, ms, per position of the round.
    queries: Replay,
    /// Every request's latency, ms, as it came.
    all_ms: Vec<f64>,
    /// Trailing-25 network latencies, µs (the class the probes compare).
    common_us: Vec<f64>,
    /// `(segment, epoch id, when a reply first carried it)`.
    first_seen: Vec<(usize, u64, Instant)>,
    attempted: u64,
    failures: Vec<String>,
    replies: usize,
    checked: usize,
    op_id: u64,
    // Traced run only.
    inproc_us: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    spanned_ms: f64,
    bare_ms: f64,
    tracer: Tracer,
}

struct ReaderCtx<'a> {
    segment: usize,
    addr: SocketAddr,
    engine: &'a QueryEngine,
    round: &'a [Op],
    last: u32,
    theta: f64,
    trace: bool,
    stop: &'a AtomicBool,
}

fn to_u32(edges: &EdgeList) -> Vec<(u32, u32)> {
    edges
        .edges()
        .iter()
        .map(|&(i, j)| (i as u32, j as u32))
        .collect()
}

/// Query one segment's server until told to stop.
fn reader_loop(log: &mut ReaderLog, ctx: &ReaderCtx<'_>) {
    let mut client = match ServeClient::connect(ctx.addr) {
        Ok(client) => client,
        Err(e) => {
            log.failures.push(format!("client connect: {e}"));
            return;
        }
    };
    let _ = client.set_read_timeout(Some(Duration::from_secs(30)));
    let store = ctx.engine.store();
    let mut last_epoch = 0u64;

    while !ctx.stop.load(Ordering::Relaxed) {
        let op = ctx.round[log.queries.position()];
        log.op_id += 1;
        let op_id = log.op_id;
        log.attempted += 1;
        // Every position runs under a span in every other round, so the
        // spanned and the bare half hold the same ops.
        let spanned = ctx.trace && (op_id + log.queries.rounds() as u64).is_multiple_of(2);
        let span = spanned.then(|| log.tracer.begin("serve.client.call", op_id));
        let began = Instant::now();
        // (epoch, edges or ranked edges) of a query reply.
        let outcome: Result<Option<(u64, Response)>, String> = match op {
            Op::Network { last } => client
                .network(Method::Exact, last, ctx.theta)
                .map(|r| {
                    Some((
                        r.epoch,
                        Response::Network {
                            epoch: r.epoch,
                            nodes: r.nodes,
                            nan_pairs: r.nan_pairs,
                            edges: r.edges,
                        },
                    ))
                })
                .map_err(|e| e.to_string()),
            Op::TopK { last } => client
                .top_k(Method::Exact, last, TOP_K as u32)
                .map(|r| {
                    Some((
                        r.epoch,
                        Response::TopK {
                            epoch: r.epoch,
                            nan_pairs: r.nan_pairs,
                            edges: r.edges,
                        },
                    ))
                })
                .map_err(|e| e.to_string()),
            Op::Stats => client.stats().map(|_| None).map_err(|e| e.to_string()),
        };
        let elapsed = began.elapsed();
        let seen = Instant::now();
        if let Some(span) = span {
            log.tracer.end(span);
        }
        let ms = elapsed.as_secs_f64() * 1e3;
        log.queries.record(Class::Query, ms);
        if log.queries.position() == ctx.round.len() {
            log.queries.end_round();
        }
        let reply = match outcome {
            Ok(reply) => reply,
            Err(e) => {
                log.failures
                    .push(format!("client op {op_id} ({op:?}): {e}"));
                continue;
            }
        };
        log.all_ms.push(ms);
        if spanned {
            log.spanned_ms += ms;
        } else if ctx.trace {
            log.bare_ms += ms;
        }
        let Some((epoch_id, response)) = reply else {
            continue;
        };
        let common = op == (Op::Network { last: ctx.last });
        if common {
            log.common_us.push(ms * 1e3);
        }
        if epoch_id > last_epoch {
            last_epoch = epoch_id;
            log.first_seen.push((ctx.segment, epoch_id, seen));
        }
        log.replies += 1;

        // Oracle, outside the timed call: recompute on the epoch the reply
        // names, serially, through the public pipeline.
        if log.replies.is_multiple_of(CHECK_EVERY) {
            if let Some(epoch) = store.get(epoch_id) {
                log.attempted += 1;
                log.checked += 1;
                let source = epoch.source(PlanMethod::Exact).expect("exact epoch");
                let have = source.window_count(PlanMethod::Exact);
                let same = match (&response, op) {
                    (Response::Network { edges, .. }, Op::Network { last }) => {
                        serial_network(source.as_ref(), have - last as usize..have, ctx.theta)
                            .is_ok_and(|want| to_u32(&want) == *edges)
                    }
                    (Response::TopK { edges, .. }, Op::TopK { last }) => {
                        serial_top_k(source.as_ref(), have - last as usize..have, TOP_K).is_ok_and(
                            |want| {
                                want.edges.len() == edges.len()
                                    && want.edges.iter().zip(edges).all(|(w, g)| {
                                        (w.i as u32, w.j as u32, w.corr.to_bits())
                                            == (g.0, g.1, g.2.to_bits())
                                    })
                            },
                        )
                    }
                    _ => false,
                };
                if !same {
                    log.failures.push(format!(
                        "reply {} ({op:?}) differs from the in-process answer on epoch {epoch_id}",
                        log.replies
                    ));
                }
            }
        }

        // Traced run: the same request without the socket, and the codec on
        // the captured reply.
        if ctx.trace {
            let span = log.tracer.begin("serve.query.inproc_us", op_id);
            let inproc = match op {
                Op::Network { last } => ctx
                    .engine
                    .network(PlanMethod::Exact, last, ctx.theta)
                    .map(|(e, edges)| (e, Some(to_u32(&edges)))),
                Op::TopK { last } => ctx
                    .engine
                    .top_k(PlanMethod::Exact, last, TOP_K as u32)
                    .map(|(e, _)| (e, None)),
                Op::Stats => unreachable!("stats replies returned above"),
            };
            let inproc_us = log.tracer.end(span);
            if common {
                log.inproc_us.push(inproc_us);
            }
            if let (Ok((e, Some(edges))), Response::Network { edges: got, .. }) =
                (&inproc, &response)
            {
                if *e == epoch_id {
                    log.attempted += 1;
                    if edges != got {
                        log.failures.push(format!(
                            "op {op_id}: in-process answer differs from the served one on epoch {e}"
                        ));
                    }
                }
            }
            let span = log.tracer.begin("serve.proto.encode_us", op_id);
            let bytes = encode_response(&response);
            log.encode_us.push(log.tracer.end(span));
            let span = log.tracer.begin("serve.proto.decode_us", op_id);
            let decoded = decode_response(&bytes);
            log.decode_us.push(log.tracer.end(span));
            log.reply_bytes.push(bytes.len() as f64);
            if decoded.ok().as_ref() != Some(&response) {
                log.failures
                    .push(format!("op {op_id}: codec round trip changed the reply"));
            }
        }
    }
}

/// `PlanCache::get_or_build` on fresh keys (builds the plan through the
/// public calls the engine uses) and on a resident key.
fn cache_probe(store: &EpochStore, last: u32, report: &mut Report) {
    let Some(epoch) = store.latest() else { return };
    let source = epoch.source(PlanMethod::Exact).expect("exact epoch");
    let have = source.window_count(PlanMethod::Exact);
    let windows = have - last as usize..have;
    let cache = PlanCache::new(CACHED_PLANS);
    let build = || {
        let stats = source.series_stats(windows.clone())?;
        let plan = QueryPlan::from_window_stats(&stats)?;
        let bounds = CorrelationBounds::from_plan(&plan);
        Ok(CachedPlan::Exact {
            plan: Arc::new(plan),
            bounds: Arc::new(bounds),
        })
    };
    let reps = 20;
    let misses: Vec<f64> = (0..reps)
        .map(|i| {
            let key = PlanKey::new(1_000 + i, windows.clone(), PlanMethod::Exact);
            time_ms(|| cache.get_or_build(key, build).is_ok()).1 * 1e3
        })
        .collect();
    let key = PlanKey::new(1_000, windows.clone(), PlanMethod::Exact);
    let hits: Vec<f64> = (0..reps)
        .map(|_| time_ms(|| cache.get_or_build(key, build).is_ok()).1 * 1e3)
        .collect();
    report.set("serve.cache.miss_build_us", median(&misses), misses.len());
    report.set("serve.cache.hit_us", median(&hits), hits.len());
}

/// What the server of one segment counted, summed over the segments.
#[derive(Default)]
struct Served {
    requests: u64,
    errors: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Run the workload.
pub fn run(env: &Env, report: &mut Report) {
    let size = Size::of(env.scale);
    let (setup, setup_seconds) = repeat_setup(|_| set_up(&size, env.seed));
    report.set("setup_s", median(&setup_seconds), setup_seconds.len());
    check_density("serve-live", setup.density, report);
    eprintln!(
        "serve-live: N={} bootstrap={} windows, segments of {} ticks every {:?}, theta={} density={:.3}",
        size.n, size.bootstrap_windows, size.segment_ticks, size.cadence, setup.theta, setup.density
    );

    let pairs = size.n * (size.n - 1) / 2;
    // The client, the server's connection thread and the pool's workers take
    // turns — one request is in flight — so with one core left to the writer
    // the pool gets the others: never more runnable threads than cores.
    let pool_workers = env.nproc.saturating_sub(1).max(1);
    let origin = Instant::now();
    let deadline = Deadline::after(env.seconds * 0.9);
    let mut boots = Vec::new();
    let mut writer = WriterLog::default();
    let mut reader = ReaderLog {
        queries: Replay::default(),
        all_ms: Vec::new(),
        common_us: Vec::new(),
        first_seen: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        replies: 0,
        checked: 0,
        op_id: 0,
        inproc_us: Vec::new(),
        encode_us: Vec::new(),
        decode_us: Vec::new(),
        reply_bytes: Vec::new(),
        spanned_ms: 0.0,
        bare_ms: 0.0,
        tracer: Tracer::new(origin),
    };
    let mut served = Served::default();
    let (mut peak, mut held_bytes) = (0, 0);
    let mut segments = 0;
    // The store and engine of the last segment, for the probes.
    let mut last = None;

    while segments < 2 || !deadline.passed() {
        drop(last.take());
        let base = alloc::mark();

        // Bootstrap a few times, keeping the last store and ingest: with the
        // segments, the repetitions are spread over the whole run.
        let mut live = None;
        for _ in 0..SEGMENT_BOOTSTRAPS {
            drop(live.take());
            let (built, ms) = time_ms(|| {
                EpochIngest::exact(
                    Arc::new(EpochStore::new(RETAINED_EPOCHS)),
                    &setup.historical,
                    BASIC_WINDOW,
                )
            });
            report.attempt(1);
            match built {
                Ok((ingest, _first)) => {
                    boots.push(ms);
                    live = Some(ingest);
                }
                Err(e) => report.fail(format!("serve-live bootstrap: {e}")),
            }
        }
        let Some(mut ingest) = live else { return };
        let store = Arc::clone(ingest.store());

        let engine = Arc::new(QueryEngine::new(
            Arc::clone(&store),
            Arc::new(PlanCache::new(CACHED_PLANS)),
            Arc::new(WorkerPool::new(pool_workers)),
        ));
        let handle = match server::start(Arc::clone(&engine), "127.0.0.1:0") {
            Ok(handle) => handle,
            Err(e) => {
                report.attempt(1);
                report.fail(format!("serve-live server start: {e}"));
                return;
            }
        };

        // Two load threads: the open-loop writer and the closed-loop client.
        let stop = AtomicBool::new(false);
        let ctx = ReaderCtx {
            segment: segments,
            addr: handle.local_addr(),
            engine: &engine,
            round: &setup.round,
            last: size.last.0,
            theta: setup.theta,
            trace: env.trace,
            stop: &stop,
        };
        let start = Instant::now();
        std::thread::scope(|scope| {
            let reading = scope.spawn(|| reader_loop(&mut reader, &ctx));
            let writing = scope.spawn(|| {
                writer_loop(&mut writer, segments, &mut ingest, &setup, &size, start);
                stop.store(true, Ordering::Relaxed);
            });
            let written = writing.join();
            stop.store(true, Ordering::Relaxed);
            reading.join().expect("reader thread panicked");
            written.expect("writer thread panicked");
        });
        if segments == 0 {
            // The counted prefix: the first segment. What the serving side
            // holds at its end is the retained epochs plus the ingest's own
            // sketch.
            peak = alloc::peak_above(base);
            held_bytes = alloc::live().saturating_sub(base);
        }

        let stats = ServeClient::connect(handle.local_addr())
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.stats().map_err(|e| e.to_string()));
        report.attempt(1);
        match stats {
            Ok(s) => {
                report.check(s.errors == 0, || {
                    format!("serve-live: server counted {} errors", s.errors)
                });
                served.requests += s.requests;
                served.errors += s.errors;
                served.cache_hits += s.cache_hits;
                served.cache_misses += s.cache_misses;
            }
            Err(e) => report.fail(format!("serve-live stats: {e}")),
        }
        handle.shutdown();
        segments += 1;
        last = Some((store, engine));
    }
    let Some((store, engine)) = last else { return };

    let ticks = segments * size.segment_ticks;
    report.attempt(ticks as u64);
    report.attempt(reader.attempted);
    for failure in writer.failures.iter().chain(&reader.failures) {
        report.fail(format!("serve-live: {failure}"));
    }
    report.check(writer.publish_ms.len() == ticks, || {
        format!(
            "serve-live: {} of {ticks} ticks published",
            writer.publish_ms.len()
        )
    });
    let served_ops = reader.all_ms.len();
    report.check(reader.checked > 0 || served_ops < CHECK_EVERY, || {
        "serve-live: no reply was recomputed in-process".to_string()
    });

    if env.trace {
        let quarter = (size.segment_ticks / 4).max(1);
        let ingest_of = |ticks: std::ops::Range<usize>| -> Vec<f64> {
            writer
                .ingest_ms
                .iter()
                .filter(|(k, _)| ticks.contains(k))
                .map(|(_, ms)| *ms)
                .collect()
        };
        let (every, first, fourth) = (
            ingest_of(0..size.segment_ticks),
            ingest_of(0..quarter),
            ingest_of(size.segment_ticks - quarter..size.segment_ticks),
        );
        let mut late = writer.late_ms.clone();
        late.sort_by(f64::total_cmp);
        // Epoch published → first reply tagged with it.
        let lags: Vec<f64> = reader
            .first_seen
            .iter()
            .filter_map(|(segment, id, seen)| {
                let (_, _, published) = writer
                    .published
                    .iter()
                    .find(|(s, p, _)| (s, p) == (segment, id))?;
                Some(seen.checked_duration_since(*published)?.as_secs_f64() * 1e3)
            })
            .collect();
        let mut all = reader.all_ms.clone();
        all.sort_by(f64::total_cmp);
        let codec_us = median(&reader.encode_us) + median(&reader.decode_us);

        report.set("data.generate_s", setup.generate_s, 1);
        report.set("serve.epoch.ingest_ms", median(&every), every.len());
        report.set("serve.epoch.ingest_q1_ms", median(&first), first.len());
        report.set("serve.epoch.ingest_q4_ms", median(&fourth), fourth.len());
        report.set(
            "serve.epoch.late_ms_p95",
            percentile(&late, 0.95),
            late.len(),
        );
        if !lags.is_empty() {
            report.set("serve.epoch.first_served_lag_ms", median(&lags), lags.len());
        }
        report.set(
            "serve.server.query_ms_p99",
            percentile(&all, 0.99),
            all.len(),
        );
        report.set(
            "serve.cache.hit_share",
            served.cache_hits as f64 / (served.cache_hits + served.cache_misses).max(1) as f64,
            (served.cache_hits + served.cache_misses) as usize,
        );
        report.set("serve.server.requests", served.requests as f64, segments);
        report.set("serve.server.errors", served.errors as f64, segments);
        report.set(
            "serve.query.inproc_us",
            median(&reader.inproc_us),
            reader.inproc_us.len(),
        );
        report.set(
            "serve.proto.encode_us",
            median(&reader.encode_us),
            reader.encode_us.len(),
        );
        report.set(
            "serve.proto.decode_us",
            median(&reader.decode_us),
            reader.decode_us.len(),
        );
        report.set(
            "serve.proto.bytes_per_reply",
            reader.reply_bytes.iter().sum::<f64>() / reader.reply_bytes.len().max(1) as f64,
            reader.reply_bytes.len(),
        );
        report.set(
            "serve.server.wire_overhead_us",
            median(&reader.common_us) - median(&reader.inproc_us) - codec_us,
            reader.common_us.len(),
        );
        report.set(
            "parallel.pool.dispatch_us",
            pool_dispatch_us(engine.pool(), 200),
            200,
        );
        cache_probe(&store, size.last.0, report);
        // The arriving-window kernel EpochIngest runs per tick, on a tick's
        // chunk, through the public functions.
        let mut z = Vec::new();
        let rows: Vec<&[f64]> = setup.chunks[0].iter().map(Vec::as_slice).collect();
        let kernel: Vec<f64> = (0..15)
            .map(|_| {
                let (_, t) = crate::data::window_parts(&rows, &mut z);
                t.normalize_us + t.kernel_us
            })
            .collect();
        report.set(
            "core.stats.arriving_kernel_us",
            median(&kernel),
            kernel.len(),
        );
        // Every position alternates between the spanned and the bare half.
        record_trace_cost(report, reader.bare_ms, reader.spanned_ms, 0.0, served_ops);
        save_trace("serve-live", &reader.tracer);
    } else {
        let windows_held = size.bootstrap_windows + size.segment_ticks;
        let stored_values = windows_held * (3 * size.n + pairs);
        report.set("sketch_s", fastest(&boots) / 1e3, boots.len());
        eprintln!("{}", reader.queries.describe_rounds("serve-live queries"));
        report.set(
            "query_ms_p50",
            reader.queries.percentile(Class::Query, 0.50),
            served_ops,
        );
        report.set(
            "query_ms_p95",
            reader.queries.percentile(Class::Query, 0.95),
            served_ops,
        );
        report.set(
            "queries_per_s",
            reader.queries.per_s(Class::Query),
            served_ops,
        );
        // The median over every tick of every segment, not a fastest
        // repetition: a publish clones the sketch onto fresh pages, and what
        // that costs on this VM swings between 8 and 40 ms from one tick to
        // the next whatever else runs; the rare fast tick says nothing, the
        // median repeats to a few percent.
        let publish_ms = median(&writer.publish_ms);
        report.set("update_ms_p50", publish_ms, ticks);
        // The rate the writer sustains at that cost. (The schedule's
        // achieved rate is the cadence unless the writer falls behind;
        // `serve.epoch.late_ms_p95` shows that.)
        report.set("updates_per_s", 1e3 / publish_ms, ticks);
        report.set("peak_alloc_mib", alloc::mib(peak), 1);
        report.set(
            "stored_bytes_per_value",
            held_bytes as f64 / (8 * stored_values.max(1)) as f64,
            1,
        );
    }
}
