//! `realtime` — the paper's Figure 5d / Lemma 2 setting: a sliding query
//! window kept current as points stream in, with per-tick edge deltas.
//! One thread, closed loop, so `updates_per_s` is the sustainable rate.
//!
//! `core::incremental`, `core::delta`, the arriving-window `stats` kernel and
//! `stream` do the work; plan, sweep, storage and serve do none — and the
//! pair kernel runs one window at a time where `hist-mem` runs it in bulk.

use tsubasa_core::prelude::*;
use tsubasa_stream::{RealTimeNetwork, StreamBuffer, StreamReplay, UpdateEngine};

use crate::alloc;
use crate::data::{dataset, pick_theta, theta_for_density, window_parts, BASIC_WINDOW};
use crate::harness::{
    check_density, fastest, record_trace_cost, repeat_setup, save_trace, time_ms, Class, Deadline,
    Env, Replay, Scale, THETA_EXEMPT,
};
use crate::metrics::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Points per push: a basic window completes every third push.
const PUSH_POINTS: usize = 40;
/// Completed windows in the counted prefix (peak allocation, delta counts).
const COUNTED_TICKS: usize = 60;
/// Completed windows per round of the loop: position `i` of every round is
/// the same call on a window of the same shape.
const ROUND_TICKS: usize = 25;
/// Rounds between two throwaway bootstraps.
const BOOTSTRAP_EVERY: usize = 2;
/// Share of pairs the reads beside the writes should find connected.
const READ_DENSITY: f64 = 0.12;

#[derive(Debug, Clone, Copy)]
struct Size {
    /// Series.
    n: usize,
    /// Basic windows in the sliding query window.
    query_windows: usize,
    /// Basic windows of stream data generated; replayed cyclically when the
    /// run outlasts them (generating a run's worth — ~1 500 windows — would
    /// take 7 s of set-up, several times over).
    cycle_windows: usize,
    /// Completed windows the loop runs at least.
    min_ticks: usize,
}

impl Size {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                // A bootstrap over 12 windows takes ~70 ms, short enough for
                // some repetition to run undisturbed; the per-tick update
                // does not depend on the window's length (Lemma 2).
                n: 512,
                query_windows: 12,
                cycle_windows: 150,
                min_ticks: 100,
            },
            Scale::Smoke => Self {
                n: 48,
                query_windows: 5,
                cycle_windows: 12,
                min_ticks: 16,
            },
        }
    }

    fn query_len(&self) -> usize {
        self.query_windows * BASIC_WINDOW
    }
}

struct Setup {
    /// History followed by the stream cycle.
    data: SeriesCollection,
    historical: SeriesCollection,
    /// The stream cycle, pre-cut into pushes (held, not timed).
    pushes: Vec<Vec<Vec<f64>>>,
    theta: f64,
    /// Threshold of the reads beside the writes: the one that connects
    /// [`READ_DENSITY`] of the pairs of the history, so the read network is
    /// denser than the subscribed one, and as dense for every seed.
    read_theta: f64,
    density: f64,
    generate_s: f64,
}

fn set_up(size: &Size, seed: u64) -> Setup {
    let points = size.query_len() + size.cycle_windows * BASIC_WINDOW;
    let (data, generate_s) = dataset(size.n, points, seed);
    let historical = data
        .truncate_length(size.query_len())
        .expect("history inside the data");
    let pushes: Vec<_> = StreamReplay::new(&data, size.query_len(), PUSH_POINTS)
        .expect("replay starts inside the data")
        .collect();

    let sketch = SketchSet::build(&historical, BASIC_WINDOW).expect("sketch the history");
    let window = QueryWindow::new(size.query_len() - 1, size.query_len()).expect("whole history");
    let matrix = exact::correlation_matrix(&historical, &sketch, window).expect("reference query");
    let (theta, density) = pick_theta(matrix.upper_triangle());

    Setup {
        read_theta: theta_for_density(matrix.upper_triangle(), READ_DENSITY).0,
        data,
        historical,
        pushes,
        theta,
        density,
        generate_s,
    }
}

fn bootstrap(
    size: &Size,
    setup: &Setup,
) -> tsubasa_core::Result<(RealTimeNetwork, AdjacencyMatrix)> {
    let mut net = RealTimeNetwork::new(
        &setup.historical,
        BASIC_WINDOW,
        size.query_len(),
        setup.theta,
        UpdateEngine::Exact,
    )?;
    let baseline = net.subscribe_edges(setup.theta)?;
    Ok((net, baseline))
}

/// The `query_len` points the sliding window holds after `ticks` completed
/// windows of the cyclic stream, rebuilt from the generated data alone.
fn final_window(size: &Size, setup: &Setup, ticks: usize) -> SeriesCollection {
    let history = size.query_len();
    let cycle = size.cycle_windows * BASIC_WINDOW;
    let first = ticks * BASIC_WINDOW;
    let rows = setup
        .data
        .iter()
        .map(|series| {
            let values = series.values();
            (first..first + history)
                .map(|pos| {
                    if pos < history {
                        values[pos]
                    } else {
                        values[history + (pos - history) % cycle]
                    }
                })
                .collect()
        })
        .collect();
    SeriesCollection::from_rows(rows).expect("rows share one length")
}

/// Baseline + replayed deltas must equal a re-threshold of a from-scratch
/// sketch of the final window (pairs within 1e-9 of θ aside: Lemma 2 and a
/// fresh sketch round differently).
fn check_final_network(
    size: &Size,
    setup: &Setup,
    ticks: usize,
    tracked: &AdjacencyMatrix,
    report: &mut Report,
) {
    let last = final_window(size, setup, ticks);
    let sketch = SketchSet::build(&last, BASIC_WINDOW).expect("sketch the final window");
    let window = QueryWindow::new(size.query_len() - 1, size.query_len()).expect("final window");
    let truth = exact::correlation_matrix(&last, &sketch, window).expect("final query");
    let mut wrong = None;
    for (i, j, c) in truth.iter_pairs() {
        if tracked.has_edge(i, j) != (c > setup.theta) && (c - setup.theta).abs() >= THETA_EXEMPT {
            wrong = Some((i, j, c));
            break;
        }
    }
    report.check(wrong.is_none(), || {
        format!("realtime: replayed deltas disagree with a from-scratch sketch at {wrong:?} after {ticks} ticks")
    });
}

/// Run the workload.
pub fn run(env: &Env, report: &mut Report) {
    let size = Size::of(env.scale);
    let (setup, setup_seconds) = repeat_setup(|_| set_up(&size, env.seed));
    report.set("setup_s", median(&setup_seconds), setup_seconds.len());
    check_density("realtime", setup.density, report);
    eprintln!(
        "realtime: N={} window={} points, cycle={} windows, theta={} density={:.3}",
        size.n,
        size.query_len(),
        size.cycle_windows,
        setup.theta,
        setup.density
    );

    let pairs = size.n * (size.n - 1) / 2;
    let base = alloc::mark();

    // Bootstrap three times and keep the last network; further throwaway
    // bootstraps are interleaved with the rounds below, so the repetitions
    // are spread over the run. The fastest is reported.
    let mut boots = Vec::new();
    let mut live = None;
    let mut held_bytes = 0;
    for _ in 0..3 {
        drop(live.take());
        let before = alloc::live();
        let (built, ms) = time_ms(|| bootstrap(&size, &setup));
        report.attempt(1);
        match built {
            Ok(pair) => {
                held_bytes = alloc::live() - before;
                boots.push(ms);
                live = Some(pair);
            }
            Err(e) => report.fail(format!("realtime bootstrap: {e}")),
        }
    }
    let Some((mut net, mut tracked)) = live else {
        return;
    };
    // The baseline adjacency the oracle tracks is the harness's, not the
    // network's.
    held_bytes -= pairs.min(held_bytes);

    // Traced-run probes: the same chunk sequence through the public pieces
    // the opaque ingest is made of.
    let mut probes = env.trace.then(|| Probes::new(&size, &setup));
    let mut tracer = Tracer::new(std::time::Instant::now());

    // One round is `ROUND_TICKS` completed windows: per window two pushes
    // that complete nothing, the push that completes it (timed to its delta
    // drained), and a read beside the write.
    let deadline = Deadline::after(env.seconds * 0.9);
    let mut replay = Replay::default();
    let (mut rechecked, mut total_pairs, mut changed) = (0usize, 0usize, 0usize);
    let mut peak = 0;
    let mut ticks = 0;
    let mut push_id = 0u64;
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    'stream: loop {
        for push in &setup.pushes {
            push_id += 1;
            // In a traced run every other push runs under a span, so the two
            // halves price the span itself.
            let spanned = env.trace && push_id.is_multiple_of(2);
            let span = spanned.then(|| tracer.begin("stream.realtime.ingest", push_id));
            let (outcome, ms) = time_ms(|| {
                net.ingest(push)
                    .map(|applied| (applied, (applied > 0).then(|| net.take_deltas())))
            });
            if let Some(span) = span {
                tracer.end(span);
            }
            let (applied, deltas) = match outcome {
                Ok(pair) => pair,
                Err(e) => {
                    report.attempt(1);
                    report.fail(format!("realtime ingest: {e}"));
                    break 'stream;
                }
            };
            if let Some(probes) = probes.as_mut() {
                probes.push(push, &mut tracer, push_id);
            }
            let Some(deltas) = deltas else {
                replay.record(Class::Other, ms);
                continue;
            };
            report.attempt(1);
            replay.record(Class::Update, ms);
            if spanned {
                traced_ms += ms;
            } else {
                untraced_ms += ms;
            }
            report.check(deltas.len() == applied && applied == 1, || {
                format!(
                    "realtime: {applied} windows applied and {} deltas drained by one push",
                    deltas.len()
                )
            });
            for delta in &deltas {
                if ticks < COUNTED_TICKS {
                    rechecked += delta.rechecked_pairs;
                    total_pairs += delta.total_pairs;
                    changed += delta.appeared.len() + delta.vanished.len();
                }
                if delta.apply_to(&mut tracked).is_err() {
                    report.fail("realtime: delta does not fit the tracked network");
                }
                if let Some(probes) = probes.as_mut() {
                    probes.compare(delta, report);
                }
                ticks += 1;
            }
            if ticks == COUNTED_TICKS {
                peak = alloc::peak_above(base);
            }
            // A read beside every write.
            let (adjacency, ms) = time_ms(|| net.network_with_threshold(setup.read_theta));
            report.attempt(1);
            replay.record(Class::Query, ms);
            std::hint::black_box(adjacency.edge_count());
            if ticks.is_multiple_of(ROUND_TICKS) {
                replay.end_round();
                if replay.rounds().is_multiple_of(BOOTSTRAP_EVERY) {
                    let (built, ms) = time_ms(|| bootstrap(&size, &setup).map(drop));
                    report.attempt(1);
                    match built {
                        Ok(()) => boots.push(ms),
                        Err(e) => report.fail(format!("realtime bootstrap: {e}")),
                    }
                }
                if ticks >= size.min_ticks && deadline.passed() {
                    break 'stream;
                }
            }
        }
    }
    if ticks < COUNTED_TICKS {
        peak = alloc::peak_above(base);
    }

    report.check(tracked == net.network_with_threshold(setup.theta), || {
        "realtime: baseline + deltas differ from the live network".to_string()
    });
    check_final_network(&size, &setup, ticks, &tracked, report);
    let counted = ticks.clamp(1, COUNTED_TICKS);
    report.check(changed > 0, || {
        "realtime: no edge changed in the counted ticks; the deltas measure nothing".to_string()
    });

    if env.trace {
        report.set("data.generate_s", setup.generate_s, 1);
        report.set("stream.realtime.bootstrap_ms", fastest(&boots), boots.len());
        report.set(
            "stream.realtime.update_ms_p95",
            replay.percentile(Class::Update, 0.95),
            replay.samples(Class::Update),
        );
        report.set(
            "stream.realtime.noncompleting_push_us",
            replay.percentile(Class::Other, 0.50) * 1e3,
            replay.samples(Class::Other),
        );
        report.set(
            "core.delta.rechecked_share",
            rechecked as f64 / total_pairs.max(1) as f64,
            counted,
        );
        report.set(
            "core.delta.changed_edges_per_tick",
            changed as f64 / counted as f64,
            counted,
        );
        if let Some(probes) = probes {
            probes.record(report);
        }
        // Completing pushes alternate between the spanned and the bare half,
        // so the two sums cover the same number of the same call.
        record_trace_cost(
            report,
            untraced_ms,
            traced_ms,
            0.0,
            replay.samples(Class::Update),
        );
        save_trace("realtime", &tracer);
        return;
    }

    let stored_values = size.query_windows * (3 * size.n + pairs);
    report.set("sketch_s", fastest(&boots) / 1e3, boots.len());
    eprintln!("{}", replay.describe_rounds("realtime"));
    let (queries, updates) = (replay.samples(Class::Query), replay.samples(Class::Update));
    report.set(
        "query_ms_p50",
        replay.percentile(Class::Query, 0.50),
        queries,
    );
    report.set(
        "query_ms_p95",
        replay.percentile(Class::Query, 0.95),
        queries,
    );
    report.set("queries_per_s", replay.per_s(Class::Query), queries);
    report.set(
        "update_ms_p50",
        replay.percentile(Class::Update, 0.50),
        updates,
    );
    report.set("updates_per_s", replay.per_s(Class::Update), updates);
    report.set("peak_alloc_mib", alloc::mib(peak), 1);
    report.set(
        "stored_bytes_per_value",
        held_bytes as f64 / (8 * stored_values) as f64,
        1,
    );
}

/// The public pieces `RealTimeNetwork::ingest` is made of, fed the same
/// pushes: a `StreamBuffer`, the arriving-window kernel, and two
/// `SlidingNetwork`s — one subscribed, one not. The opaque call's internals
/// are not reachable from outside, so these are probes on the same input,
/// not self times.
struct Probes {
    buffer: StreamBuffer,
    subscribed: SlidingNetwork,
    unsubscribed: SlidingNetwork,
    z: Vec<f64>,
    push_us: Vec<f64>,
    kernel_us: Vec<f64>,
    subscribed_ms: Vec<f64>,
    unsubscribed_ms: Vec<f64>,
    last_delta: Option<EdgeDelta>,
}

impl Probes {
    fn new(size: &Size, setup: &Setup) -> Self {
        let sketch = SketchSet::build(&setup.historical, BASIC_WINDOW).expect("probe sketch");
        let sliding = || {
            SlidingNetwork::initialize(&setup.historical, &sketch, size.query_len())
                .expect("probe sliding network")
        };
        let mut subscribed = sliding();
        subscribed
            .subscribe_edges(setup.theta)
            .expect("probe subscription");
        Self {
            buffer: StreamBuffer::new(size.n, BASIC_WINDOW).expect("probe buffer"),
            subscribed,
            unsubscribed: sliding(),
            z: Vec::new(),
            push_us: Vec::new(),
            kernel_us: Vec::new(),
            subscribed_ms: Vec::new(),
            unsubscribed_ms: Vec::new(),
            last_delta: None,
        }
    }

    fn push(&mut self, push: &[Vec<f64>], tracer: &mut Tracer, id: u64) {
        let span = tracer.begin("stream.buffer.push_us", id);
        let chunks = self.buffer.push(push).expect("probe push");
        self.push_us.push(tracer.end(span));
        for chunk in chunks {
            let rows: Vec<&[f64]> = chunk.iter().map(Vec::as_slice).collect();
            let span = tracer.begin("core.stats.arriving_kernel_us", id);
            let (_, timing) = window_parts(&rows, &mut self.z);
            tracer.end(span);
            self.kernel_us.push(timing.normalize_us + timing.kernel_us);

            let span = tracer.begin("core.incremental.ingest_ms", id);
            self.unsubscribed.ingest(&chunk).expect("probe ingest");
            self.unsubscribed_ms.push(tracer.end(span) / 1e3);
            let span = tracer.begin("core.delta.subscribed_ingest", id);
            self.subscribed.ingest(&chunk).expect("probe ingest");
            self.subscribed_ms.push(tracer.end(span) / 1e3);
            self.last_delta = self.subscribed.changed_edges().cloned();
        }
    }

    /// The decomposed engine sees the same chunks, so it must emit the same
    /// delta as the opaque network.
    fn compare(&mut self, delta: &EdgeDelta, report: &mut Report) {
        let same = self.last_delta.as_ref() == Some(delta);
        report.check(same, || {
            "realtime: SlidingNetwork probe emitted a different delta than RealTimeNetwork"
                .to_string()
        });
    }

    fn record(&self, report: &mut Report) {
        let ticks = self.unsubscribed_ms.len();
        report.set(
            "stream.buffer.push_us",
            median(&self.push_us),
            self.push_us.len(),
        );
        report.set(
            "core.stats.arriving_kernel_us",
            median(&self.kernel_us),
            ticks,
        );
        report.set(
            "core.incremental.ingest_ms",
            median(&self.unsubscribed_ms),
            ticks,
        );
        report.set(
            "core.delta.tick_extra_ms",
            median(&self.subscribed_ms) - median(&self.unsubscribed_ms),
            ticks,
        );
    }
}
