//! `hist-mem` — the paper's Figure 5 setting: historical data sketched in
//! memory, all-pairs queries over user-defined windows, and newly completed
//! basic windows appended to the sketch. One thread, closed loop.
//!
//! `core` sketch/plan/sweep (plus `dft` for the approximate share) do all the
//! work; `storage`, `stream`, `serve` and `parallel` do none.

use std::ops::Range;

use tsubasa_core::prelude::*;
use tsubasa_core::sweep::{sweep_run, CorrelationBounds, DEFAULT_TILE_PAIRS};
use tsubasa_dft::sketch::{DftSketchSet, Transform};
use tsubasa_dft::ApproxPlan;

use crate::alloc;
use crate::data::{dataset, pick_theta, window_parts, window_rows, Rng, BASIC_WINDOW};
use crate::harness::{
    check_density, edges_match_matrix, fastest, record_trace_cost, repeat_setup, save_trace,
    sweep_probe, time_ms, Class, Deadline, Env, Replay, Scale, THETA_EXEMPT, TOP_K,
};
use crate::metrics::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
struct Size {
    /// Series.
    n: usize,
    /// Points per series.
    points: usize,
    /// Basic windows of the prefix the timed `SketchSet::build` sketches. A
    /// build of the whole history takes a third of a second, and on a shared
    /// box no repetition that long runs undisturbed; a tenth of it does.
    sketch_windows: usize,
    /// Basic windows the DFT comparator sketch covers. Its naive O(B²)
    /// transform costs ~0.4 ms per series-window, so a full-length
    /// comparator (73 windows) would alone take 14 s of set-up.
    dft_windows: usize,
    /// DFT coefficients kept per window.
    dft_coeffs: usize,
    /// Ops in one seeded round (the counted prefix of the query phase).
    round_ops: usize,
    /// Series the baseline oracle recomputes from raw data.
    oracle_series: usize,
}

impl Size {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                n: 512,
                points: 8_760,
                sketch_windows: 10,
                dft_windows: 5,
                dft_coeffs: 30,
                round_ops: 100,
                oracle_series: 160,
            },
            Scale::Smoke => Self {
                n: 48,
                points: 12 * BASIC_WINDOW,
                sketch_windows: 4,
                dft_windows: 3,
                dft_coeffs: 30,
                round_ops: 40,
                oracle_series: 48,
            },
        }
    }

    fn windows(&self) -> usize {
        self.points / BASIC_WINDOW
    }
}

/// One operation of the seeded mix.
#[derive(Debug, Clone)]
enum Op {
    /// Exact θ-network over a window (aligned to basic windows or not).
    Network { query: QueryWindow, aligned: bool },
    /// Exact top-k over an aligned window, bound-pruned.
    TopK { query: QueryWindow },
    /// Approximate θ-network over comparator windows, Eq. 4-pruned.
    Approx { windows: Range<usize> },
    /// A newly completed basic window (a replay of window `source`) is
    /// sketched and appended.
    Append { source: usize },
}

/// What an op returned, kept for the oracles.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Edges(EdgeList),
    Ranked(TopK),
    Appended,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Aligned,
    Unaligned,
    TopK,
    Approx,
    Append,
}

/// The `i`-th of `count` values spread evenly over `lo..=hi`.
fn spread(i: usize, count: usize, lo: usize, hi: usize) -> usize {
    lo + i * (hi - lo) / count.saturating_sub(1).max(1)
}

/// The seeded round: exactly 48 % aligned network, 19 % unaligned network,
/// 14 % top-k, 14 % approximate network and 5 % window appends, over
/// user-defined windows a quarter to a half of the history long (2 000–4 000
/// points at full scale). The seed decides the order of the ops and where in
/// the history each window sits; what an op costs — its window's length and,
/// for an unaligned window, how much of the head and tail basic windows it
/// cuts — is spread evenly over the class and is the same for every seed, so
/// two seeds differ in their data, not in how much work the round holds.
fn make_ops(size: &Size, seed: u64) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x4157);
    let w = size.windows();
    let (lo_w, hi_w) = ((w / 4).max(2), (w / 2).max(3));
    let kinds = rng.mix(
        size.round_ops,
        &[
            (Kind::Aligned, 48),
            (Kind::Unaligned, 19),
            (Kind::TopK, 14),
            (Kind::Approx, 14),
            (Kind::Append, 5),
        ],
    );
    let count = |kind| kinds.iter().filter(|&&k| k == kind).count();
    let counts = [
        count(Kind::Aligned),
        count(Kind::Unaligned),
        count(Kind::TopK),
        count(Kind::Approx),
    ];
    let mut seen = [0usize; 5];
    kinds
        .iter()
        .map(|&kind| {
            let i = seen[kind as usize];
            seen[kind as usize] += 1;
            let mut aligned = |len_w: usize| {
                let start_w = rng.range(0, w - len_w + 1);
                QueryWindow::new((start_w + len_w) * BASIC_WINDOW - 1, len_w * BASIC_WINDOW)
                    .expect("window inside the history")
            };
            match kind {
                Kind::Aligned => Op::Network {
                    query: aligned(spread(i, counts[0], lo_w, hi_w)),
                    aligned: true,
                },
                Kind::Unaligned => {
                    // Cut both the head and the tail basic window: start
                    // `head` points into a window, and stop short of a
                    // window boundary.
                    let head = 1 + (i * 37) % (BASIC_WINDOW - 1);
                    let mut len =
                        spread(i, counts[1], lo_w * BASIC_WINDOW, hi_w * BASIC_WINDOW - 1);
                    if (head + len).is_multiple_of(BASIC_WINDOW) {
                        len -= 1;
                    }
                    let start = rng.range(0, w - (head + len).div_ceil(BASIC_WINDOW) + 1)
                        * BASIC_WINDOW
                        + head;
                    Op::Network {
                        query: QueryWindow::new(start + len - 1, len)
                            .expect("window inside the history"),
                        aligned: false,
                    }
                }
                Kind::TopK => Op::TopK {
                    query: aligned(spread(i, counts[2], lo_w, hi_w)),
                },
                Kind::Approx => {
                    let len = spread(
                        i,
                        counts[3],
                        (size.dft_windows / 2).max(1),
                        size.dft_windows,
                    );
                    let start = rng.range(0, size.dft_windows - len + 1);
                    Op::Approx {
                        windows: start..start + len,
                    }
                }
                Kind::Append => Op::Append { source: i % w },
            }
        })
        .collect()
}

/// What the ops run against: the inputs, the sketch (appends grow it), the
/// comparator sketch, and θ.
struct Store {
    data: SeriesCollection,
    sketch: SketchSet,
    dft: DftSketchSet,
    theta: f64,
    /// Scratch of the arriving-window kernel.
    z: Vec<f64>,
}

/// Everything untimed.
struct Setup {
    store: Store,
    /// The first `sketch_windows` basic windows of every series.
    prefix: SeriesCollection,
    density: f64,
    ops: Vec<Op>,
    generate_s: f64,
    sketch_build_ms: f64,
    dft_build_ms: f64,
}

fn set_up(size: &Size, seed: u64) -> Setup {
    let (data, generate_s) = dataset(size.n, size.points, seed);
    let (sketch, sketch_build_ms) =
        time_ms(|| SketchSet::build(&data, BASIC_WINDOW).expect("sketch the history"));
    let prefix = data
        .truncate_length(size.sketch_windows * BASIC_WINDOW)
        .expect("sketch prefix inside the history");
    let dft_prefix = data
        .truncate_length(size.dft_windows * BASIC_WINDOW)
        .expect("comparator prefix inside the history");
    let (dft, dft_build_ms) = time_ms(|| {
        DftSketchSet::build(&dft_prefix, BASIC_WINDOW, size.dft_coeffs, Transform::Naive)
            .expect("sketch the comparator prefix")
    });

    // θ from a reference window a third of the way in.
    let w = size.windows();
    let len_w = (w / 3).max(2);
    let reference = QueryWindow::new((w / 3 + len_w) * BASIC_WINDOW - 1, len_w * BASIC_WINDOW)
        .expect("reference window inside the history");
    let matrix = exact::correlation_matrix(&data, &sketch, reference).expect("reference query");
    let (theta, density) = pick_theta(matrix.upper_triangle());

    Setup {
        ops: make_ops(size, seed),
        prefix,
        store: Store {
            data,
            sketch,
            dft,
            theta,
            z: Vec::new(),
        },
        density,
        generate_s,
        sketch_build_ms,
        dft_build_ms,
    }
}

impl Store {
    /// The op as its user calls it: one opaque public call.
    fn run_opaque(&mut self, op: &Op) -> tsubasa_core::Result<Answer> {
        let Self {
            data,
            sketch,
            dft,
            theta,
            z,
        } = self;
        let theta = *theta;
        Ok(match op {
            Op::Network { query, .. } => {
                Answer::Edges(exact::network_streamed(data, sketch, *query, theta)?)
            }
            Op::TopK { query } => Answer::Ranked(exact::top_k(data, sketch, *query, TOP_K)?),
            Op::Approx { windows } => {
                Answer::Edges(ApproxPlan::build(dft, windows.clone())?.network_streamed(theta)?)
            }
            Op::Append { source } => {
                let (parts, _) = window_parts(&window_rows(data, *source), z);
                sketch.push_window(parts.stats, parts.corrs)?;
                Answer::Appended
            }
        })
    }

    /// The same op decomposed into its public steps, each under a child span.
    /// Returns the answer (asserted bit-identical to the opaque one by the
    /// caller) and the arriving-window kernel time when the op was an append.
    fn run_decomposed(
        &mut self,
        op: &Op,
        id: u64,
        tracer: &mut Tracer,
    ) -> tsubasa_core::Result<(Answer, Option<f64>)> {
        let Self {
            data,
            sketch,
            dft,
            theta,
            z,
        } = self;
        let theta = *theta;
        let n = data.len();
        let pairs = n * (n - 1) / 2;
        Ok(match op {
            Op::Network { query, aligned } => {
                let name = if *aligned {
                    "core.plan.build_aligned_us"
                } else {
                    "core.plan.build_unaligned_us"
                };
                let span = tracer.begin(name, id);
                let plan = QueryPlan::build(data, sketch, *query)?;
                tracer.end(span);
                let view = tracer.span("core.sketch.window_corrs_view", id, || {
                    sketch.window_corrs_view(plan.full_windows())
                });
                let mut sink = EdgeSink::new(theta);
                tracer.span("core.sweep.run", id, || {
                    sweep_run(&plan, &view, None, 0..pairs, DEFAULT_TILE_PAIRS, &mut sink)
                });
                let edges = tracer.span("core.sweep.finish", id, || sink.finish(n));
                (Answer::Edges(edges), None)
            }
            Op::TopK { query } => {
                let span = tracer.begin("core.plan.build_aligned_us", id);
                let plan = QueryPlan::build(data, sketch, *query)?;
                tracer.end(span);
                let view = tracer.span("core.sketch.window_corrs_view", id, || {
                    sketch.window_corrs_view(plan.full_windows())
                });
                let bounds = tracer.span("core.plan.bounds_us", id, || {
                    CorrelationBounds::from_plan(&plan)
                });
                let mut sink = TopKSink::new(TOP_K);
                tracer.span("core.sweep.run", id, || {
                    sweep_run(
                        &plan,
                        &view,
                        Some(&bounds),
                        0..pairs,
                        DEFAULT_TILE_PAIRS,
                        &mut sink,
                    )
                });
                let top = tracer.span("core.sweep.finish", id, || sink.finish());
                (Answer::Ranked(top), None)
            }
            Op::Approx { windows } => {
                let span = tracer.begin("dft.plan_build_us", id);
                let plan = ApproxPlan::build(dft, windows.clone())?;
                tracer.end(span);
                let span = tracer.begin("dft.sweep_ms", id);
                let edges = plan.network_streamed(theta)?;
                tracer.end(span);
                (Answer::Edges(edges), None)
            }
            Op::Append { source } => {
                let span = tracer.begin("core.stats.window_parts", id);
                let (parts, timing) = window_parts(&window_rows(data, *source), z);
                tracer.end(span);
                let span = tracer.begin("core.sketch.push_window", id);
                sketch.push_window(parts.stats, parts.corrs)?;
                tracer.end(span);
                (
                    Answer::Appended,
                    Some(timing.normalize_us + timing.kernel_us),
                )
            }
        })
    }
}

fn is_query(op: &Op) -> bool {
    !matches!(op, Op::Append { .. })
}

/// Check sampled answers of the first round against the raw-data baseline,
/// and every approximate answer against the exact one it must contain.
/// Outside every timed region.
fn run_oracles(
    size: &Size,
    setup: &Setup,
    samples: &[(usize, Answer)],
    report: &mut Report,
) -> f64 {
    let subset = setup
        .store
        .data
        .take_series(size.oracle_series.min(size.n))
        .expect("oracle subset");
    let mut superset = (0usize, 0usize);
    for (index, answer) in samples {
        match (&setup.ops[*index], answer) {
            (Op::Network { query, .. }, Answer::Edges(edges)) => {
                let truth = baseline::correlation_matrix(&subset, *query).expect("baseline");
                let verdict = edges_match_matrix(edges, &truth, setup.store.theta);
                report.check(verdict.is_ok(), || {
                    format!(
                        "hist-mem op {index} network vs baseline: {}",
                        verdict.unwrap_err()
                    )
                });
            }
            (Op::TopK { query }, Answer::Ranked(top)) => {
                // Every returned pair carries its baseline correlation, and
                // no pair the baseline knows beats the weakest one returned.
                let truth = baseline::correlation_matrix(&subset, *query).expect("baseline");
                let weakest = top.edges.last().map_or(f64::NEG_INFINITY, |e| e.corr);
                let mut ok = top.edges.len() == TOP_K.min(size.n * (size.n - 1) / 2);
                for e in &top.edges {
                    let want = baseline::pair_correlation(&setup.store.data, *query, e.i, e.j)
                        .expect("baseline pair");
                    ok &= (e.corr - want).abs() < THETA_EXEMPT;
                }
                for (i, j, c) in truth.iter_pairs() {
                    let returned = top.edges.iter().any(|e| (e.i, e.j) == (i, j));
                    ok &= returned || c <= weakest + THETA_EXEMPT;
                }
                report.check(ok, || format!("hist-mem op {index} top-k vs baseline"));
            }
            (Op::Approx { windows }, Answer::Edges(approx)) => {
                // No false negatives: approximate ⊇ exact on the same windows.
                let query =
                    QueryWindow::new(windows.end * BASIC_WINDOW - 1, windows.len() * BASIC_WINDOW)
                        .expect("comparator window");
                let exact = exact::network_streamed(
                    &setup.store.data,
                    &setup.store.sketch,
                    query,
                    setup.store.theta,
                )
                .expect("exact comparator query");
                let have = approx.to_adjacency();
                let kept = exact
                    .edges()
                    .iter()
                    .filter(|&&(i, j)| have.has_edge(i, j))
                    .count();
                superset.0 += kept;
                superset.1 += exact.edge_count();
                report.check(kept == exact.edge_count(), || {
                    format!(
                        "hist-mem op {index} approx misses {} of {} exact edges",
                        exact.edge_count() - kept,
                        exact.edge_count()
                    )
                });
            }
            _ => {}
        }
    }
    if superset.1 == 0 {
        1.0
    } else {
        superset.0 as f64 / superset.1 as f64
    }
}

/// Which first-round answers the oracles keep: the first six exact network
/// ops, the first two top-k ops, every approximate op.
fn sampled(ops: &[Op]) -> Vec<bool> {
    let (mut nets, mut tops) = (0, 0);
    ops.iter()
        .map(|op| match op {
            Op::Network { .. } => {
                nets += 1;
                nets <= 6
            }
            Op::TopK { .. } => {
                tops += 1;
                tops <= 2
            }
            Op::Approx { .. } => true,
            Op::Append { .. } => false,
        })
        .collect()
}

/// Appended windows replay history windows (each append op `copies` times
/// in a row: once untraced, three ways traced), so each appended row must
/// equal its source row bit for bit.
fn check_appends(size: &Size, setup: &Setup, copies: usize, report: &mut Report) {
    let w = size.windows();
    let sources: Vec<usize> = setup
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Append { source } => Some(*source),
            _ => None,
        })
        .collect();
    let appended = setup.store.sketch.window_count() - w;
    for extra in (0..appended.min(3)).chain(appended.checked_sub(1)) {
        let source = sources[(extra / copies) % sources.len()];
        let got = setup
            .store
            .sketch
            .window_corrs_view(w + extra..w + extra + 1);
        let want = setup.store.sketch.window_corrs_view(source..source + 1);
        report.check(got.window_row(0) == want.window_row(0), || {
            format!("hist-mem appended window {extra} differs from its source window {source}")
        });
    }
}

/// Ops of the round between two timed sketch builds.
const BUILD_EVERY: usize = 25;

/// One `SketchSet::build`: its milliseconds and the heap bytes the sketch
/// holds once built.
fn timed_build(data: &SeriesCollection, report: &mut Report) -> Option<(f64, usize)> {
    let before = alloc::live();
    let (built, ms) = time_ms(|| SketchSet::build(data, BASIC_WINDOW));
    report.attempt(1);
    match built {
        Ok(sketch) => {
            let held = alloc::live() - before;
            drop(sketch);
            Some((ms, held))
        }
        Err(e) => {
            report.fail(format!("hist-mem SketchSet::build: {e}"));
            None
        }
    }
}

/// Run the workload.
pub fn run(env: &Env, report: &mut Report) {
    let size = Size::of(env.scale);
    // The first set-up holds the first `SketchSet::build` of the process: it
    // pays the page faults every later build of the same size gets for free.
    let mut cold_build_ms = 0.0;
    let (mut setup, setup_seconds) = repeat_setup(|rep| {
        let setup = set_up(&size, env.seed);
        if rep == 0 {
            cold_build_ms = setup.sketch_build_ms;
        }
        setup
    });
    report.set("setup_s", median(&setup_seconds), setup_seconds.len());
    check_density("hist-mem", setup.density, report);
    eprintln!(
        "hist-mem: N={} points={} windows={} theta={} density={:.3} dft_windows={}",
        size.n,
        size.points,
        size.windows(),
        setup.store.theta,
        setup.density,
        size.dft_windows
    );

    let pairs = size.n * (size.n - 1) / 2;
    let keep = sampled(&setup.ops);
    let base = alloc::mark();

    let stored_values = size.sketch_windows * (3 * size.n + pairs);

    if env.trace {
        let builds: Vec<f64> = (0..3)
            .filter_map(|_| timed_build(&setup.store.data, report))
            .map(|b| b.0)
            .collect();
        report.set("core.sketch.cold_build_ms", cold_build_ms, 1);
        run_traced(env, &size, &mut setup, &builds, report);
        return;
    }

    // The measured phase: one seeded round of ops with a sketch build of the
    // prefix after every `BUILD_EVERY` of them, again and again until the
    // time is up. Every build and every op is thereby repeated at moments
    // spread over the whole run, and each reports its fastest repetition.
    let deadline = Deadline::after(env.seconds);
    let mut replay = Replay::default();
    let mut builds = Vec::new();
    let mut held_bytes = 0;
    let mut samples = Vec::new();
    let mut peak = 0;
    loop {
        for (index, op) in setup.ops.iter().enumerate() {
            if index.is_multiple_of(BUILD_EVERY) {
                if let Some((ms, held)) = timed_build(&setup.prefix, report) {
                    builds.push(ms);
                    held_bytes = held;
                }
            }
            let (answer, ms) = time_ms(|| setup.store.run_opaque(op));
            report.attempt(1);
            replay.record(
                if is_query(op) {
                    Class::Query
                } else {
                    Class::Update
                },
                ms,
            );
            match answer {
                Ok(answer) => {
                    if replay.rounds() == 0 && keep[index] {
                        samples.push((index, answer));
                    }
                }
                Err(e) => report.fail(format!("hist-mem op {index}: {e}")),
            }
        }
        if replay.rounds() == 0 {
            // Counted prefix: the first build plus the first round.
            peak = alloc::peak_above(base);
        }
        replay.end_round();
        if replay.rounds() >= 3 && deadline.passed() {
            break;
        }
    }

    run_oracles(&size, &setup, &samples, report);
    check_appends(&size, &setup, 1, report);

    eprintln!("{}", replay.describe_rounds("hist-mem"));
    let (queries, updates) = (replay.samples(Class::Query), replay.samples(Class::Update));
    report.set("sketch_s", fastest(&builds) / 1e3, builds.len());
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

/// The traced run: layer probes, then every op of the round three ways —
/// opaque without a span, opaque under a span, and decomposed under child
/// spans with the answer asserted bit-identical.
fn run_traced(env: &Env, size: &Size, setup: &mut Setup, builds: &[f64], report: &mut Report) {
    let n = size.n;
    let pairs = n * (n - 1) / 2;
    let w = size.windows();
    let mut tracer = Tracer::new(std::time::Instant::now());
    let mut z = Vec::new();

    report.set("data.generate_s", setup.generate_s, 1);
    report.set("dft.sketch_build_ms", setup.dft_build_ms, 1);
    report.set("core.sketch.build_ms", fastest(builds), builds.len());
    report.set(
        "core.sketch.ns_per_pair_point",
        fastest(builds) * 1e6 / (pairs * size.points) as f64,
        builds.len(),
    );

    // core.stats: the sketch build's two kernels, over every window, on the
    // same data, through the public functions.
    let (mut normalize, mut kernel) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let (mut norm_us, mut kern_us) = (0.0, 0.0);
        for window in 0..w {
            let (_, timing) = window_parts(&window_rows(&setup.store.data, window), &mut z);
            norm_us += timing.stats_us + timing.normalize_us;
            kern_us += timing.kernel_us;
        }
        normalize.push(norm_us / 1e3);
        kernel.push(kern_us / 1e3);
    }
    report.set(
        "core.stats.normalize_ms",
        median(&normalize),
        normalize.len(),
    );
    report.set("core.stats.pair_kernel_ms", median(&kernel), kernel.len());

    // core.sweep: the three sinks over one reference aligned query.
    let len_w = (w / 3).max(2);
    let reference = QueryWindow::new((w / 3 + len_w) * BASIC_WINDOW - 1, len_w * BASIC_WINDOW)
        .expect("reference window");
    let plan = QueryPlan::build(&setup.store.data, &setup.store.sketch, reference)
        .expect("reference plan");
    sweep_probe(
        &plan,
        setup.store.sketch.window_corrs_view(plan.full_windows()),
        setup.store.theta,
        9,
    )
    .record(report);

    let keep = sampled(&setup.ops);
    let deadline = Deadline::after(env.seconds * 0.6);
    let (mut untraced_ms, mut traced_ms, mut decomposed_ms) = (0.0, 0.0, 0.0);
    let mut arriving = Vec::new();
    let mut samples = Vec::new();
    let mut op_id = 0u64;
    let mut round = 0;
    loop {
        for (index, op) in setup.ops.iter().enumerate() {
            op_id += 1;
            // Alternate which opaque variant goes first, so neither always
            // runs on the caches the other warmed. (An append appends the
            // same replayed window in every variant.)
            let plain_first = op_id.is_multiple_of(2);
            let mut plain_ms = 0.0;
            if plain_first {
                plain_ms = time_ms(|| setup.store.run_opaque(op)).1;
            }
            let span = tracer.begin("op.opaque", op_id);
            let opaque = setup.store.run_opaque(op);
            let opaque_us = tracer.end(span);
            if !plain_first {
                plain_ms = time_ms(|| setup.store.run_opaque(op)).1;
            }
            report.attempt(1);

            let span = tracer.begin("op.decomposed", op_id);
            let decomposed = setup.store.run_decomposed(op, op_id, &mut tracer);
            let decomposed_us = tracer.end(span);

            match (opaque, decomposed) {
                (Ok(opaque), Ok((decomposed, kernel_us))) => {
                    // Queries only: an append's cost depends on how many
                    // came before it (Vec growth), not on how it was run.
                    if is_query(op) {
                        untraced_ms += plain_ms;
                        traced_ms += opaque_us / 1e3;
                        decomposed_ms += decomposed_us / 1e3;
                    }
                    arriving.extend(kernel_us);
                    report.check(opaque == decomposed, || {
                        format!("hist-mem op {index}: decomposed steps differ from the opaque call")
                    });
                    if round == 0 && keep[index] {
                        samples.push((index, opaque));
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    report.fail(format!("hist-mem traced op {index}: {e}"))
                }
            }
        }
        round += 1;
        if deadline.passed() {
            break;
        }
    }

    let superset = run_oracles(size, setup, &samples, report);
    check_appends(size, setup, 3, report);
    report.set("dft.superset_share", superset, samples.len());

    for (name, scale) in [
        ("core.plan.build_aligned_us", 1.0),
        ("core.plan.build_unaligned_us", 1.0),
        ("core.plan.bounds_us", 1.0),
        ("dft.plan_build_us", 1.0),
        ("dft.sweep_ms", 1e-3),
    ] {
        let samples = tracer.durations_us(name);
        if !samples.is_empty() {
            report.set(name, median(&samples) * scale, samples.len());
        }
    }
    if !arriving.is_empty() {
        report.set(
            "core.stats.arriving_kernel_us",
            median(&arriving),
            arriving.len(),
        );
    }
    record_trace_cost(
        report,
        untraced_ms,
        traced_ms,
        decomposed_ms,
        op_id as usize,
    );
    save_trace("hist-mem", &tracer);
}
